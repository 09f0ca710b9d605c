//! Criterion benchmarks of the decode inner loops behind the paper's
//! figures:
//!
//! * `batch_qecool/d` — one full batch decode of a `d`-round window
//!   (Fig. 4(a) inner loop);
//! * `online_qecool_layer/d` — one on-line layer: push + budgeted run
//!   (Fig. 7 / Table III inner loop);
//! * `mwpm/d` — one MWPM decode (16-nearest-neighbour graph) of the same
//!   window (Fig. 4(a) baseline);
//! * `union_find_window/9` — one sliding-window union-find commit: a
//!   27-round d = 9 window, committing the components anchored in its
//!   first 9 rounds through `WindowBackend::commit_window`, the code the
//!   `replay_uf_d9` decode layer runs, cycling through fixed seeded
//!   windows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qecool::{DecodeOutput, DecodeStats, Decoder, QecoolConfig, QecoolDecoder};
use qecool_mwpm::MwpmDecoder;
use qecool_sim::window::WindowBackend;
use qecool_surface_code::{CodePatch, Lattice, NoiseSpec, SyndromeHistory};
use qecool_uf::UnionFindDecoder;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const P: f64 = 0.01;

/// Pre-generates a noisy syndrome history of `d` rounds plus closure.
fn make_history(d: usize, seed: u64) -> SyndromeHistory {
    let lattice = Lattice::new(d).unwrap();
    let noise = NoiseSpec::Phenomenological { p: P };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut patch = CodePatch::new(lattice.clone());
    let mut history = SyndromeHistory::new(lattice);
    for _ in 0..d {
        history.push(patch.noisy_round(&noise, &mut rng));
    }
    history.push(patch.perfect_round());
    history
}

fn bench_batch_qecool(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_qecool");
    for d in [5usize, 9, 13] {
        let history = make_history(d, 42);
        let lattice = Lattice::new(d).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                let mut decoder =
                    QecoolDecoder::new(lattice.clone(), QecoolConfig::batch(history.num_rounds()));
                for round in &history {
                    decoder.ingest(round).unwrap();
                }
                let mut out = DecodeOutput::default();
                decoder.finish(&mut out);
                black_box(out.corrections.len())
            })
        });
    }
    group.finish();
}

fn bench_online_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_qecool_layer");
    for d in [5usize, 9, 13] {
        let lattice = Lattice::new(d).unwrap();
        let noise = NoiseSpec::Phenomenological { p: P };
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter_with_setup(
                || {
                    // Fresh decoder + patch with a few warm-up layers.
                    let mut rng = ChaCha8Rng::seed_from_u64(7);
                    let mut patch = CodePatch::new(lattice.clone());
                    let mut decoder = QecoolDecoder::new(lattice.clone(), QecoolConfig::online());
                    let mut out = DecodeOutput::default();
                    for _ in 0..3 {
                        let round = patch.noisy_round(&noise, &mut rng);
                        decoder.ingest(&round).unwrap();
                        decoder.decode_step(Some(2000), &mut out);
                        patch.apply_corrections(out.corrections.iter().copied());
                    }
                    (patch, decoder, rng, out)
                },
                |(mut patch, mut decoder, mut rng, mut out)| {
                    let round = patch.noisy_round(&noise, &mut rng);
                    let _ = decoder.ingest(&round);
                    decoder.decode_step(Some(2000), &mut out);
                    black_box(out.cycles)
                },
            )
        });
    }
    group.finish();
}

fn bench_mwpm(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwpm");
    for d in [5usize, 9, 13] {
        let history = make_history(d, 42);
        let mut decoder = MwpmDecoder::new(Lattice::new(d).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| black_box(decoder.decode(&history).unwrap().corrections.len()))
        });
    }
    group.finish();
}

fn bench_union_find(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_find");
    for d in [5usize, 9, 13] {
        let history = make_history(d, 42);
        let decoder = UnionFindDecoder::new(Lattice::new(d).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| black_box(decoder.decode(&history).corrections.len()))
        });
    }
    group.finish();
}

/// Windows of `W = 3d` noisy rounds mid-stream (no perfect closing
/// round), as a sliding window sees them.
const WINDOWS: u64 = 32;

fn bench_union_find_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_find_window");
    let d = 9;
    let lattice = Lattice::new(d).unwrap();
    let noise = NoiseSpec::Phenomenological { p: P };
    let windows: Vec<SyndromeHistory> = (0..WINDOWS)
        .map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lattice.clone());
            let mut window = SyndromeHistory::new(lattice.clone());
            for _ in 0..3 * d {
                window.push(patch.noisy_round(&noise, &mut rng));
            }
            window
        })
        .collect();
    let mut decoder = UnionFindDecoder::new(lattice);
    let mut next = windows.iter().cycle();
    let mut out = Vec::new();
    let mut stats = DecodeStats::default();
    group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
        b.iter(|| {
            let window = next.next().expect("cycle never ends");
            out.clear();
            decoder.commit_window(window, d, &mut out, &mut stats, |a, t| {
                black_box((a, t));
            });
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_qecool,
    bench_online_layer,
    bench_mwpm,
    bench_union_find,
    bench_union_find_window
);
criterion_main!(benches);
