//! End-to-end memory-experiment assertions spanning all crates: the
//! qualitative claims of the paper's evaluation must hold in this
//! reproduction.

use qecool_repro::sim::{DecodeEngine, DecoderKind, TrialConfig};

/// Below threshold, QEC must beat the unencoded qubit: the logical error
/// rate over d rounds stays well under the physical per-round error rate.
#[test]
fn qec_is_below_break_even_at_low_p() {
    for decoder in [
        DecoderKind::BatchQecool,
        DecoderKind::Mwpm,
        DecoderKind::OnlineQecool {
            budget_cycles: 2000,
        },
    ] {
        let p = 0.002;
        let cfg = TrialConfig::standard(7, p, decoder);
        let mc = DecodeEngine::new().run(&cfg, 600, 11);
        let (_, hi) = mc.logical_error_rate().wilson_interval();
        assert!(
            hi < p * cfg.rounds as f64,
            "{decoder:?}: logical rate CI upper {hi} not below break-even {}",
            p * cfg.rounds as f64
        );
    }
}

/// Sub-threshold scaling: at p well below p_th, larger distance must not
/// hurt (d = 9 no worse than d = 3 within statistics).
#[test]
fn distance_scaling_below_threshold() {
    let p = 0.003;
    let small = DecodeEngine::new().run(
        &TrialConfig::standard(3, p, DecoderKind::BatchQecool),
        1500,
        5,
    );
    let large = DecodeEngine::new().run(
        &TrialConfig::standard(9, p, DecoderKind::BatchQecool),
        1500,
        5,
    );
    let (lo_small, _) = small.logical_error_rate().wilson_interval();
    let (_, hi_large) = large.logical_error_rate().wilson_interval();
    assert!(
        hi_large <= lo_small.max(0.02) + 0.02,
        "d=9 rate {} should not exceed d=3 rate {} below threshold",
        large.logical_error_rate(),
        small.logical_error_rate()
    );
}

/// Above the QECOOL threshold but near the MWPM threshold, MWPM must be
/// the stronger decoder — the ordering Fig. 4(a) shows.
#[test]
fn mwpm_beats_qecool_near_threshold() {
    let p = 0.02;
    let q = DecodeEngine::new().run(
        &TrialConfig::standard(9, p, DecoderKind::BatchQecool),
        800,
        3,
    );
    let m = DecodeEngine::new().run(&TrialConfig::standard(9, p, DecoderKind::Mwpm), 800, 3);
    assert!(
        m.failures < q.failures,
        "MWPM ({}) should fail less than QECOOL ({}) at p = {p}",
        m.failures,
        q.failures
    );
}

/// Far above threshold every decoder fails often — the simulator is not
/// silently discarding errors.
#[test]
fn all_decoders_fail_above_threshold() {
    for decoder in [DecoderKind::BatchQecool, DecoderKind::Mwpm] {
        let cfg = TrialConfig::standard(5, 0.1, decoder);
        let mc = DecodeEngine::new().run(&cfg, 200, 17);
        assert!(
            mc.logical_error_rate().rate() > 0.2,
            "{decoder:?} suspiciously reliable at p = 0.1: {}",
            mc.logical_error_rate()
        );
    }
}

/// On-line QECOOL at 2 GHz must track batch-QECOOL closely at moderate
/// noise (same algorithm, enough budget, th_v lookahead) — Fig. 7(c) vs
/// Fig. 4(a).
#[test]
fn online_at_2ghz_close_to_batch() {
    let p = 0.005;
    let batch = DecodeEngine::new().run(
        &TrialConfig::standard(7, p, DecoderKind::BatchQecool),
        1200,
        23,
    );
    let online = DecodeEngine::new().run(
        &TrialConfig::standard(
            7,
            p,
            DecoderKind::OnlineQecool {
                budget_cycles: 2000,
            },
        ),
        1200,
        23,
    );
    assert_eq!(online.overflows, 0, "no overflow expected at 2 GHz, d = 7");
    let b = batch.logical_error_rate().rate();
    let o = online.logical_error_rate().rate();
    assert!(
        (o - b).abs() < 0.03,
        "online rate {o} deviates too far from batch rate {b}"
    );
}

/// The frequency ordering of Fig. 7: slower clocks can only hurt.
#[test]
fn lower_frequency_never_helps() {
    let p = 0.01;
    let d = 13;
    let rates: Vec<f64> = [500u64, 1000, 2000]
        .iter()
        .map(|&budget| {
            DecodeEngine::new()
                .run(
                    &TrialConfig::standard(
                        d,
                        p,
                        DecoderKind::OnlineQecool {
                            budget_cycles: budget,
                        },
                    ),
                    300,
                    31,
                )
                .logical_error_rate()
                .rate()
        })
        .collect();
    assert!(
        rates[0] >= rates[2] - 0.02,
        "500 MHz ({}) should be no better than 2 GHz ({})",
        rates[0],
        rates[2]
    );
    // And overflow must actually be the mechanism at 500 MHz, d = 13.
    let slow = DecodeEngine::new().run(
        &TrialConfig::standard(d, p, DecoderKind::OnlineQecool { budget_cycles: 500 }),
        300,
        31,
    );
    assert!(
        slow.overflows > 0,
        "expected register overflows at 500 MHz, d = 13, p = 0.01"
    );
}
