//! Criterion benchmarks of the substrates: the ChaCha8 keystream and
//! syndrome extraction (the Monte-Carlo hot path), the register file, and
//! the SFQ hardware-model rollups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qecool::reg::RegFile;
use qecool_sfq::timing::unit_critical_path_ps;
use qecool_sfq::UnitDesign;
use qecool_surface_code::{CodePatch, Lattice, PhenomenologicalNoise};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// One draw per iteration, so each line reads as ns per draw: the
/// keystream cost alone, and as noise injection pays it per qubit.
fn bench_keystream(c: &mut Criterion) {
    let mut group = c.benchmark_group("keystream");
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    // Fill the first buffer outside the timed calibration call.
    rng.next_u64();
    group.bench_function("next_u64", |b| b.iter(|| rng.next_u64()));
    group.bench_function("gen_bool_0.01", |b| {
        b.iter(|| rng.gen_bool(black_box(0.01)))
    });
    group.finish();
}

fn bench_syndrome_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("syndrome_round");
    for d in [5usize, 9, 13] {
        let lattice = Lattice::new(d).unwrap();
        let noise = PhenomenologicalNoise::symmetric(0.01);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            let mut patch = CodePatch::new(lattice.clone());
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            b.iter(|| black_box(patch.noisy_round(&noise, &mut rng).num_events()))
        });
    }
    group.finish();
}

fn bench_regfile(c: &mut Criterion) {
    c.bench_function("regfile_push_shift_156x7", |b| {
        // d = 13 grid: 156 units, full 7-layer fill then drain.
        let events = vec![false; 156];
        b.iter(|| {
            let mut regs = RegFile::new(156, 7);
            for _ in 0..7 {
                regs.push_round(&events).unwrap();
            }
            for _ in 0..7 {
                regs.shift();
            }
            black_box(regs.occupancy())
        })
    });
}

fn bench_sfq_rollup(c: &mut Criterion) {
    c.bench_function("sfq_unit_rollup", |b| {
        b.iter(|| {
            let unit = UnitDesign::paper_unit();
            black_box((unit.cell_rollup().jjs, unit.published_totals().bias_ma))
        })
    });
    c.bench_function("sfq_critical_path", |b| {
        b.iter(|| black_box(unit_critical_path_ps()))
    });
}

criterion_group!(
    benches,
    bench_keystream,
    bench_syndrome_round,
    bench_regfile,
    bench_sfq_rollup
);
criterion_main!(benches);
