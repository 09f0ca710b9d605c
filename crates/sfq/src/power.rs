//! RSFQ and ERSFQ power models (§IV-C and §V-C of the paper).
//!
//! * **RSFQ** dissipates mostly *static* power in its bias resistors:
//!   `P = I_bias × V_bias` — for the Unit, 336 mA × 2.5 mV = 840 µW,
//!   far too hot for thousands of Units at 4 K.
//! * **ERSFQ** (Kirichenko et al. \[13\]) eliminates static dissipation; only
//!   dynamic power remains, at twice the RSFQ dynamic level
//!   (Mukhanov \[14\]): `P = I_bias × f × Φ0 × 2`. At 2 GHz the Unit burns
//!   2.78 µW — the headline number of the paper's abstract.

/// The magnetic flux quantum Φ₀ in webers (2.068 × 10⁻¹⁵ Wb).
pub const FLUX_QUANTUM_WB: f64 = 2.068e-15;

/// Static RSFQ power in watts: `I_bias × V_bias`.
///
/// # Panics
///
/// Panics on negative inputs.
///
/// # Example
///
/// ```
/// use qecool_sfq::power::rsfq_static_power_w;
///
/// // The paper's Unit: 336 mA at the designed 2.5 mV supply = 840 µW.
/// let p = rsfq_static_power_w(336.0, 2.5);
/// assert!((p - 840e-6).abs() < 1e-12);
/// ```
pub fn rsfq_static_power_w(bias_ma: f64, supply_mv: f64) -> f64 {
    assert!(
        bias_ma >= 0.0 && supply_mv >= 0.0,
        "negative electrical value"
    );
    (bias_ma * 1e-3) * (supply_mv * 1e-3)
}

/// Dynamic ERSFQ power in watts: `P = I_bias × f × Φ0 × 2` (§V-C).
///
/// The factor 2 is the paper's "twice the dynamic power of RSFQ" rule from
/// the ERSFQ power model \[14\].
///
/// # Panics
///
/// Panics on negative inputs.
///
/// # Example
///
/// ```
/// use qecool_sfq::power::ersfq_power_w;
///
/// // 336 mA × 2 GHz × Φ0 × 2 = 2.78 µW/Unit — the paper's §V-C estimate.
/// let p = ersfq_power_w(336.0, 2.0e9);
/// assert!((p * 1e6 - 2.78).abs() < 0.01, "{} µW", p * 1e6);
/// ```
pub fn ersfq_power_w(bias_ma: f64, frequency_hz: f64) -> f64 {
    assert!(
        bias_ma >= 0.0 && frequency_hz >= 0.0,
        "negative electrical value"
    );
    (bias_ma * 1e-3) * frequency_hz * FLUX_QUANTUM_WB * 2.0
}

/// Clock frequencies evaluated in Fig. 7, in Hz.
pub const FIG7_FREQUENCIES_HZ: [f64; 3] = [500e6, 1.0e9, 2.0e9];

/// Cycles available per measurement interval at a given clock frequency
/// (the paper assumes ancilla measurement every 1 µs \[10\]).
///
/// # Panics
///
/// Panics on a non-positive frequency.
pub fn cycles_per_measurement(frequency_hz: f64, measurement_interval_s: f64) -> u64 {
    assert!(frequency_hz > 0.0, "frequency must be positive");
    assert!(measurement_interval_s > 0.0, "interval must be positive");
    (frequency_hz * measurement_interval_s).round() as u64
}

/// The paper's measurement interval: 1 µs.
pub const MEASUREMENT_INTERVAL_S: f64 = 1.0e-6;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::RSFQ_SUPPLY_MV;

    #[test]
    fn rsfq_unit_power_is_840_uw() {
        let p = rsfq_static_power_w(336.0, RSFQ_SUPPLY_MV);
        assert!((p - 840e-6).abs() < 1e-12, "{} W", p);
    }

    #[test]
    fn ersfq_unit_power_is_2_78_uw_at_2ghz() {
        // 0.336 A × 2e9 Hz × 2.068e-15 Wb × 2 = 2.779 µW.
        let p = ersfq_power_w(336.0, 2.0e9);
        assert!((p - 2.779e-6).abs() < 2e-9, "{} W", p);
    }

    #[test]
    fn ersfq_scales_linearly_with_frequency() {
        let base = ersfq_power_w(336.0, 1.0e9);
        assert!((ersfq_power_w(336.0, 2.0e9) - 2.0 * base).abs() < 1e-18);
        assert!((ersfq_power_w(336.0, 0.5e9) - 0.5 * base).abs() < 1e-18);
        assert_eq!(ersfq_power_w(336.0, 0.0), 0.0);
    }

    #[test]
    fn fig7_budgets_match_paper() {
        let budgets: Vec<u64> = FIG7_FREQUENCIES_HZ
            .iter()
            .map(|&f| cycles_per_measurement(f, MEASUREMENT_INTERVAL_S))
            .collect();
        assert_eq!(budgets, vec![500, 1000, 2000]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_bias() {
        ersfq_power_w(-1.0, 1e9);
    }

    #[test]
    fn flux_quantum_value() {
        assert!((FLUX_QUANTUM_WB - 2.068e-15).abs() < 1e-21);
    }
}
