//! Criterion benchmarks of the raw blossom matcher, the kernel cost of
//! the MWPM baseline:
//!
//! * `blossom_mwpm/n` — minimum-weight perfect matching on a random
//!   complete graph of `n` vertices;
//! * `blossom_decoder_graph/d{9,13}_p1` — the same on the doubled
//!   16-nearest-neighbour graph the decoder builds for a sampled d = 9
//!   or 13, p = 1 % history (d noisy rounds plus a perfect one), solved
//!   by a one-shot matcher and by a reused [`PerfectMatcher`] as the
//!   decoder does;
//! * `mwpm_graph_build/d{9,13}_p1` — building that graph alone
//!   ([`MwpmDecoder::matching_graph`], which returns a fresh edge list;
//!   the decoder builds into its matcher's reused one).
//!
//! With `decoding`'s `mwpm/{9,13}`, which time the whole decode, these
//! split a decode into its build and solve layers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qecool_mwpm::{min_weight_perfect_matching, MwpmDecoder, PerfectMatcher};
use qecool_surface_code::{
    syndrome::DetectionEvent, CodePatch, Lattice, NoiseSpec, SyndromeHistory,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn random_complete_graph(n: usize, seed: u64) -> Vec<(usize, usize, i64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in i + 1..n {
            edges.push((i, j, rng.gen_range(1..100i64)));
        }
    }
    edges
}

fn bench_blossom(c: &mut Criterion) {
    let mut group = c.benchmark_group("blossom_mwpm");
    for n in [16usize, 64, 128] {
        let edges = random_complete_graph(n, 5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(min_weight_perfect_matching(n, &edges).unwrap()))
        });
    }
    group.finish();
}

/// The detection events of a sampled `d`-round history at
/// phenomenological error rate `p` (closed by a perfect round).
fn sampled_events(d: usize, p: f64, seed: u64) -> Vec<DetectionEvent> {
    let lattice = Lattice::new(d).unwrap();
    let noise = NoiseSpec::Phenomenological { p };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut patch = CodePatch::new(lattice.clone());
    let mut history = SyndromeHistory::new(lattice);
    for _ in 0..d {
        history.push(patch.noisy_round(&noise, &mut rng));
    }
    history.push(patch.perfect_round());
    history.events()
}

fn bench_decoder_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("blossom_decoder_graph");
    for d in [9, 13] {
        let events = sampled_events(d, 0.01, 42);
        let n = 2 * events.len();
        let edges = MwpmDecoder::new(Lattice::new(d).unwrap()).matching_graph(&events);
        group.bench_function(BenchmarkId::new(format!("d{d}_p1/one_shot"), n), |b| {
            b.iter(|| black_box(min_weight_perfect_matching(n, &edges).unwrap()))
        });
        let mut matcher = PerfectMatcher::new();
        group.bench_function(BenchmarkId::new(format!("d{d}_p1/reused"), n), |b| {
            b.iter(|| black_box(matcher.solve(n, &edges).unwrap().len()))
        });
    }
    group.finish();
}

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwpm_graph_build");
    for d in [9, 13] {
        let events = sampled_events(d, 0.01, 42);
        let mut decoder = MwpmDecoder::new(Lattice::new(d).unwrap());
        group.bench_function(BenchmarkId::new(format!("d{d}_p1"), events.len()), |b| {
            b.iter(|| black_box(decoder.matching_graph(&events).len()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_blossom,
    bench_decoder_graph,
    bench_graph_build
);
criterion_main!(benches);
