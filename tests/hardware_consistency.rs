//! Consistency between the algorithm simulation and the SFQ hardware
//! model: the numbers the two sides exchange must line up.

use qecool_repro::decoder::{QecoolConfig, QecoolDecoder};
use qecool_repro::sfq::budget::{qecool_units_per_logical_qubit, DecoderBudget};
use qecool_repro::sfq::power::{
    cycles_per_measurement, FIG7_FREQUENCIES_HZ, MEASUREMENT_INTERVAL_S,
};
use qecool_repro::sfq::timing::{max_clock_ghz, unit_critical_path_ps};
use qecool_repro::sim::{DecodeEngine, DecoderKind, TrialConfig};
use qecool_repro::surface_code::Lattice;

/// The hardware Unit count per logical qubit equals two sectors' worth of
/// lattice ancillas — the decoder grid and the budget model must agree.
#[test]
fn unit_counts_agree_between_lattice_and_budget_model() {
    for d in [5usize, 7, 9, 11, 13] {
        let lattice = Lattice::new(d).unwrap();
        assert_eq!(
            2 * lattice.num_ancillas(),
            qecool_units_per_logical_qubit(d),
            "d = {d}"
        );
    }
}

/// Fig. 7's cycle budgets derive from the clock frequencies and the 1 µs
/// measurement interval.
#[test]
fn fig7_budgets_are_consistent() {
    let budgets: Vec<u64> = FIG7_FREQUENCIES_HZ
        .iter()
        .map(|&f| cycles_per_measurement(f, MEASUREMENT_INTERVAL_S))
        .collect();
    assert_eq!(budgets, vec![500, 1000, 2000]);
}

/// The 2 GHz operating point must sit inside the Unit's timing closure.
#[test]
fn two_ghz_is_within_timing_closure() {
    assert!(max_clock_ghz(unit_critical_path_ps()) > 2.0);
}

/// Decode latency closes the real-time loop: at d = 9, p = 0.001 the
/// measured average per-layer cycles convert to well under 1 µs at 2 GHz
/// — the paper's feasibility argument (§V-A).
#[test]
fn average_layer_latency_fits_measurement_interval() {
    let cfg = TrialConfig::standard(
        9,
        0.001,
        DecoderKind::OnlineQecool {
            budget_cycles: 2000,
        },
    );
    let mc = DecodeEngine::new().run(&cfg, 200, 77);
    let avg_cycles = mc.layer_cycles.mean();
    let cycle_s = 1.0 / 2.0e9;
    assert!(
        avg_cycles * cycle_s < MEASUREMENT_INTERVAL_S,
        "avg layer latency {avg_cycles} cycles exceeds 1 us at 2 GHz"
    );
}

/// The headline budget claim: a d = 9 decoder at 2 GHz protects ~2500
/// logical qubits; the Unit power matches the abstract's 2.78 µW.
#[test]
fn headline_power_numbers() {
    let b = DecoderBudget::qecool(9, 2.0e9);
    assert!((b.unit_power_w * 1e6 - 2.78).abs() < 0.01);
    assert!((2490..=2505).contains(&b.protectable_qubits()));
}

/// The decoder's register capacity matches the hardware design's 7-bit
/// Reg everywhere it appears.
#[test]
fn register_capacity_is_consistent() {
    let config = QecoolConfig::online();
    assert_eq!(config.reg_capacity, 7);
    let lattice = Lattice::new(9).unwrap();
    let decoder = QecoolDecoder::new(lattice, config);
    assert_eq!(decoder.config().reg_capacity, 7);
    // Same number the base-pointer module is built for (Table II names the
    // module "Base pointer (7-bit)").
    let unit = qecool_repro::sfq::UnitDesign::paper_unit();
    assert!(unit.module("Base pointer (7-bit)").is_some());
}
