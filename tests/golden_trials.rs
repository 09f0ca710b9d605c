//! Golden Monte-Carlo aggregates: every decoder kind on every trial
//! shape, pinned field by field.
//!
//! Any change to sampling, decoding or statistics collection that moves
//! a single counter fails here — a guard across commits, which the
//! determinism tests (they compare a build against itself) cannot
//! provide.

use qecool_repro::sim::{CycleAggregate, DecodeEngine, DecoderKind, McResult, TrialConfig};
use qecool_repro::surface_code::NoiseSpec;

const SHOTS: usize = 64;
const SEED: u64 = 2021;

/// `(shots, failures, overflows, matches, (count, sum, sum_sq, max), vertical_hist)`.
type Golden = (
    usize,
    usize,
    usize,
    u64,
    (u64, u64, u128, u64),
    &'static [u64],
);

const KINDS: [DecoderKind; 4] = [
    DecoderKind::BatchQecool,
    DecoderKind::OnlineQecool {
        budget_cycles: 2000,
    },
    DecoderKind::Mwpm,
    DecoderKind::UnionFind,
];

/// One row per noise family, one column per entry of [`KINDS`].
#[rustfmt::skip]
const GOLDEN: [(NoiseSpec, [Golden; 4]); 6] = [
    (NoiseSpec::Phenomenological { p: 0.03 }, [
        (64, 15, 0, 528, (384, 18718, 3142666, 463), &[315, 206, 6, 1]),
        (64, 19, 0, 521, (384, 16713, 1798059, 279), &[281, 214, 18, 8]),
        (64, 6, 0, 528, (0, 0, 0, 0), &[343, 181, 4]),
        (64, 6, 0, 362, (0, 0, 0, 0), &[]),
    ]),
    (NoiseSpec::Asymmetric { p: 0.01, q: 0.03 }, [
        (64, 0, 0, 317, (384, 9964, 931486, 293), &[114, 194, 9]),
        (64, 1, 0, 317, (384, 8872, 589344, 201), &[110, 193, 11, 3]),
        (64, 1, 0, 318, (0, 0, 0, 0), &[124, 190, 4]),
        (64, 1, 0, 137, (0, 0, 0, 0), &[]),
    ]),
    (NoiseSpec::CodeCapacity { p: 0.05 }, [
        (64, 3, 0, 118, (128, 3413, 209867, 116), &[118]),
        (64, 3, 0, 118, (128, 3413, 209867, 116), &[118]),
        (64, 4, 0, 118, (0, 0, 0, 0), &[118]),
        (64, 3, 0, 141, (0, 0, 0, 0), &[]),
    ]),
    (NoiseSpec::Biased { p: 0.03, eta: 4.0 }, [
        (64, 0, 0, 273, (384, 8155, 608229, 275), &[72, 193, 8]),
        (64, 0, 0, 273, (384, 6959, 345583, 156), &[71, 192, 8, 2]),
        (64, 1, 0, 273, (0, 0, 0, 0), &[79, 190, 4]),
        (64, 1, 0, 81, (0, 0, 0, 0), &[]),
    ]),
    (NoiseSpec::Erasure { p: 0.01, e: 0.05 }, [
        (64, 11, 0, 459, (384, 19821, 3441829, 411), &[324, 125, 9, 1]),
        (64, 13, 0, 456, (384, 16496, 1770976, 306), &[299, 136, 19, 2]),
        (64, 9, 0, 466, (0, 0, 0, 0), &[365, 97, 4]),
        (64, 11, 0, 410, (0, 0, 0, 0), &[]),
    ]),
    (NoiseSpec::Burst { p: 0.01, burst: 0.02, mean_len: 3.0 }, [
        (64, 30, 0, 529, (384, 21003, 3826275, 378), &[382, 134, 13]),
        (64, 30, 0, 520, (384, 17643, 1882181, 252), &[335, 154, 25, 6]),
        (64, 27, 0, 532, (0, 0, 0, 0), &[399, 125, 7, 1]),
        (64, 25, 0, 445, (0, 0, 0, 0), &[]),
    ]),
];

fn expected(golden: &Golden) -> McResult {
    let &(shots, failures, overflows, matches, (count, sum, sum_sq, max), hist) = golden;
    McResult {
        shots,
        failures,
        overflows,
        layer_cycles: CycleAggregate {
            count,
            sum,
            sum_sq,
            max,
        },
        vertical_hist: hist.to_vec(),
        matches,
    }
}

#[test]
fn every_decoder_kind_reproduces_its_golden_aggregate() {
    let engine = DecodeEngine::with_threads(2);
    for (noise, row) in &GOLDEN {
        for (kind, golden) in KINDS.iter().zip(row) {
            let mut cfg = TrialConfig::standard(5, 0.0, *kind);
            cfg.noise = *noise;
            if matches!(noise, NoiseSpec::CodeCapacity { .. }) {
                cfg.rounds = 1;
            }
            let got = engine.run(&cfg, SHOTS, SEED);
            assert_eq!(got, expected(golden), "{noise:?} {kind:?}");
        }
    }
}

/// Starved on-line QECOOL: 15 rounds at 100 cycles per round.
#[rustfmt::skip]
const STARVED: Golden = (64, 48, 36, 987, (559, 28268, 4004908, 761), &[449, 447, 73, 18]);

#[test]
fn starved_online_qecool_reproduces_its_golden_overflows() {
    // More rounds than the 7-bit registers hold, decoded too slowly:
    // some trials overflow, so the overflow exit of the trial loop (and
    // the statistics it reports) is pinned too.
    let kind = DecoderKind::OnlineQecool { budget_cycles: 100 };
    let mut cfg = TrialConfig::standard(5, 0.03, kind);
    cfg.rounds = 15;
    let got = DecodeEngine::with_threads(2).run(&cfg, SHOTS, SEED);
    assert_eq!(got, expected(&STARVED));
}
