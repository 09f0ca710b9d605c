//! Criterion benchmarks of the raw blossom matcher, the kernel cost of
//! the MWPM baseline:
//!
//! * `blossom_mwpm/n` — minimum-weight perfect matching on a random
//!   complete graph of `n` vertices;
//! * `blossom_decoder_graph/d9_p1` — the same on the doubled
//!   16-nearest-neighbour graph the decoder builds for a sampled d = 9,
//!   p = 1 % history (d noisy rounds plus a perfect one), solved by a
//!   one-shot matcher and by a reused [`PerfectMatcher`] as the decoder
//!   does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qecool_mwpm::{min_weight_perfect_matching, MwpmDecoder, PerfectMatcher};
use qecool_surface_code::{CodePatch, Lattice, NoiseSpec, SyndromeHistory};
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

/// The decoder's matching graph for a sampled `d`-round history at
/// phenomenological error rate `p`, and its vertex count.
fn decoder_graph(d: usize, p: f64, seed: u64) -> (usize, Vec<(usize, usize, i64)>) {
    let lattice = Lattice::new(d).unwrap();
    let noise = NoiseSpec::Phenomenological { p };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut patch = CodePatch::new(lattice.clone());
    let mut history = SyndromeHistory::new(lattice.clone());
    for _ in 0..d {
        history.push(patch.noisy_round(&noise, &mut rng));
    }
    history.push(patch.perfect_round());
    let events = history.events();
    let mut decoder = MwpmDecoder::new(lattice);
    (2 * events.len(), decoder.matching_graph(&events))
}

fn bench_decoder_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("blossom_decoder_graph");
    let (n, edges) = decoder_graph(9, 0.01, 42);
    group.bench_function(BenchmarkId::new("d9_p1/one_shot", n), |b| {
        b.iter(|| black_box(min_weight_perfect_matching(n, &edges).unwrap()))
    });
    let mut matcher = PerfectMatcher::new();
    group.bench_function(BenchmarkId::new("d9_p1/reused", n), |b| {
        b.iter(|| black_box(matcher.solve(n, &edges).unwrap().len()))
    });
    group.finish();
}

criterion_group!(benches, bench_blossom, bench_decoder_graph);
criterion_main!(benches);
