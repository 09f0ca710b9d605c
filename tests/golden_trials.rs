//! Golden Monte-Carlo aggregates: every decoder kind on every trial
//! shape, pinned field by field.
//!
//! Any change to sampling, decoding or statistics collection that moves
//! a single counter fails here — a guard across commits, which the
//! determinism tests (they compare a build against itself) cannot
//! provide.

use qecool_repro::sim::campaign::derive_seed;
use qecool_repro::sim::trials::{run_trial_into, TrialScratch};
use qecool_repro::sim::{
    CycleAggregate, DecodeEngine, DecoderKind, McResult, TrialConfig, TrialOutcome,
};
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

/// Shots per configuration of the wide-lattice pins below.
const WIDE_SHOTS: usize = 32;

/// The QECOOL kinds pinned beyond one register word. The 20-cycle
/// budget pauses the Controller mid-sweep every round; every shot at it
/// overflows, so those pins cover the paused scan, its timeouts and the
/// overflow exit.
const WIDE_KINDS: [DecoderKind; 3] = [
    DecoderKind::BatchQecool,
    DecoderKind::OnlineQecool {
        budget_cycles: 2000,
    },
    DecoderKind::OnlineQecool { budget_cycles: 20 },
];

/// `(golden, timeouts summed over shots)` at p = 0.01, one row per
/// distance, one column per entry of [`WIDE_KINDS`].
#[rustfmt::skip]
const WIDE: [(usize, [(Golden, u64); 3]); 3] = [
    (9, [
        ((32, 0, 0, 623, (320, 40552, 24629794, 1352), &[381, 236, 5, 1]), 334),
        ((32, 2, 0, 622, (320, 30287, 5998865, 647), &[369, 236, 13, 4]), 239),
        ((32, 32, 32, 36, (5, 50, 500, 10), &[28, 8]), 15),
    ]),
    (11, [
        ((32, 0, 0, 1130, (384, 97209, 119711093, 2613), &[675, 447, 7, 1]), 652),
        ((32, 3, 0, 1125, (384, 67700, 21801772, 881), &[639, 452, 25, 9]), 439),
        ((32, 32, 32, 27, (1, 12, 144, 12), &[18, 9]), 8),
    ]),
    (13, [
        ((32, 0, 0, 1877, (448, 191882, 460444678, 4694), &[1114, 738, 24, 1]), 1117),
        ((32, 4, 0, 1875, (448, 131507, 62072147, 1162), &[1057, 751, 47, 20]), 669),
        ((32, 32, 32, 31, (0, 0, 0, 0), &[24, 7]), 15),
    ]),
];

#[test]
fn qecool_beyond_one_register_word_reproduces_its_golden_aggregates() {
    // d = 9, 11 and 13 hold 72, 110 and 156 units: several 64-bit words,
    // with rows that straddle a word boundary at d = 11 and 13. Shots run
    // through one scratch with the engine's seeds, so the aggregate is
    // the one `DecodeEngine::run` reports, and the per-shot timeouts can
    // be summed alongside it.
    let mut scratch = TrialScratch::new();
    let mut outcome = TrialOutcome::default();
    for (d, row) in &WIDE {
        for (kind, (golden, timeouts)) in WIDE_KINDS.iter().zip(row) {
            let cfg = TrialConfig::standard(*d, 0.01, *kind);
            let mut got = McResult::default();
            let mut got_timeouts = 0;
            for i in 0..WIDE_SHOTS as u64 {
                let seed = derive_seed(SEED, 0, i);
                run_trial_into(&cfg, seed, &mut scratch, &mut outcome);
                got.absorb(&outcome);
                got_timeouts += outcome.stats.timeouts;
            }
            assert_eq!(
                (&got, got_timeouts),
                (&expected(golden), *timeouts),
                "d = {d} {kind:?}"
            );
        }
    }
}
