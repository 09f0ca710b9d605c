//! Dilution-refrigerator power-budget analysis (Tables IV & V).
//!
//! The 4-K stage of a dilution refrigerator affords roughly 1 W of
//! dissipation (Hornibrook et al. \[12\]); the paper's punch line is how many
//! distance-9 logical qubits each decoder design can protect inside that
//! budget. This module holds the budget arithmetic and the analytic model
//! of the AQEC (NISQ+) comparator \[11\] used in Table V.

use crate::power::{cycles_per_measurement, ersfq_power_w, MEASUREMENT_INTERVAL_S};
use serde::{Deserialize, Serialize};

/// Power budget of the 4-K stage, in watts (paper §V-D, \[12\]).
pub const POWER_BUDGET_4K_W: f64 = 1.0;

/// The decode-cycle budget of one measurement round: how many decoder
/// clock cycles fit between two ancilla readouts.
///
/// This is the quantity the whole on-line argument of the paper turns
/// on (Fig. 7): at clock `f` and measurement interval `T` the decoder
/// gets `f · T` cycles per round; spend more and the 7-bit registers
/// back up until they overflow. The decoding service accounts every
/// session round against this budget.
///
/// # Example
///
/// ```
/// use qecool_sfq::budget::CycleBudget;
///
/// // The paper's headline point: 2 GHz against the 1 µs interval.
/// let budget = CycleBudget::at_clock(2.0e9);
/// assert_eq!(budget.cycles_per_round(), 2000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleBudget {
    /// Decoder clock frequency, in hertz.
    pub frequency_hz: f64,
    /// Ancilla measurement interval, in seconds.
    pub measurement_interval_s: f64,
}

impl CycleBudget {
    /// A budget at the given clock against the paper's 1 µs measurement
    /// interval \[10\].
    ///
    /// # Panics
    ///
    /// Panics when the frequency is not positive.
    pub fn at_clock(frequency_hz: f64) -> Self {
        Self::new(frequency_hz, MEASUREMENT_INTERVAL_S)
    }

    /// A budget with an explicit clock and measurement interval.
    ///
    /// # Panics
    ///
    /// Panics when either quantity is not positive.
    pub fn new(frequency_hz: f64, measurement_interval_s: f64) -> Self {
        assert!(frequency_hz > 0.0, "frequency must be positive");
        assert!(
            measurement_interval_s > 0.0,
            "measurement interval must be positive"
        );
        Self {
            frequency_hz,
            measurement_interval_s,
        }
    }

    /// Decode cycles available per measurement round.
    pub fn cycles_per_round(&self) -> u64 {
        cycles_per_measurement(self.frequency_hz, self.measurement_interval_s)
    }
}

/// Number of log₂ buckets a [`CycleHistogram`] tracks — enough for the
/// full `u64` cycle range.
pub const CYCLE_HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of per-round decode-cycle costs.
///
/// Bucket 0 counts zero-cycle rounds; bucket `b ≥ 1` counts rounds whose
/// cost `c` satisfies `2^(b−1) ≤ c < 2^b`. The bucketing trades
/// resolution for a fixed 65-word footprint, which keeps
/// latency-accounting structs `Copy` and mergeable across sessions
/// without allocation — percentiles come back as the inclusive upper
/// bound of the bucket they land in, capped at the exact maximum
/// recorded: a conservative (never under-reporting) estimate that is
/// exact for the budget questions the serving path asks ("did p99 stay
/// within the round budget?") and never above the max.
///
/// # Example
///
/// ```
/// use qecool_sfq::budget::CycleHistogram;
///
/// let mut hist = CycleHistogram::new();
/// for cycles in [3, 5, 9, 1000] {
///     hist.record(cycles);
/// }
/// assert_eq!(hist.total(), 4);
/// assert!(hist.percentile(0.5) <= 15);
/// assert!(hist.percentile(0.99) >= 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleHistogram {
    buckets: [u64; CYCLE_HIST_BUCKETS],
    total: u64,
    /// Largest value recorded (0 when empty).
    max: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; CYCLE_HIST_BUCKETS],
            total: 0,
            max: 0,
        }
    }

    fn bucket_of(cycles: u64) -> usize {
        (64 - cycles.leading_zeros()) as usize
    }

    /// Records one round's decode cost.
    pub fn record(&mut self, cycles: u64) {
        self.buckets[Self::bucket_of(cycles)] += 1;
        self.total += 1;
        self.max = self.max.max(cycles);
    }

    /// Number of rounds recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Folds another histogram into this one (used to aggregate
    /// per-session accounting into a service-wide view).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The raw per-bucket counts, indexed by log₂ bucket (see the type
    /// docs for the bucket boundaries). Exposition renderers iterate
    /// this to build cumulative `le=`-style series.
    pub fn bucket_counts(&self) -> &[u64; CYCLE_HIST_BUCKETS] {
        &self.buckets
    }

    /// The inclusive upper cycle bound of bucket `b`: 0 for bucket 0,
    /// `2^b − 1` for buckets 1..=63, and `u64::MAX` for bucket 64 —
    /// the bounds [`CycleHistogram::percentile`] reports, capped at the
    /// recorded maximum.
    ///
    /// # Panics
    ///
    /// Panics when `b ≥ CYCLE_HIST_BUCKETS`.
    pub const fn bucket_upper_bound(b: usize) -> u64 {
        assert!(b < CYCLE_HIST_BUCKETS, "bucket index out of range");
        match b {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    /// Index of the highest non-empty bucket, or `None` for an empty
    /// histogram.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// The inclusive upper cycle bound of the bucket containing the
    /// `q`-quantile round, capped at the largest value recorded, or 0 for
    /// an empty histogram (whatever `q`). `percentile(0.99)` is the p99
    /// round cost, rounded up to the next power-of-two boundary but never
    /// above the max.
    ///
    /// Out-of-range quantiles are defined, never a bucket-index panic:
    /// `q ≤ 0` clamps to the minimum recorded cost's bucket, `q ≥ 1` to
    /// the maximum, and a NaN `q` is treated as 1.0 — the conservative
    /// (never under-reporting) choice this histogram makes everywhere.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // NaN fails every comparison, so `clamp` would propagate it into
        // the rank arithmetic; pin it to the conservative end instead.
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper_bound(b).min(self.max);
            }
        }
        self.max
    }
}

/// Number of QECOOL hardware Units per logical qubit: `2 d (d − 1)`
/// (both error sectors of a distance-`d` code, §IV-A).
pub fn qecool_units_per_logical_qubit(d: usize) -> usize {
    2 * d * (d - 1)
}

/// Number of AQEC hardware units per logical qubit: `(2d − 1)²`
/// (Table V, from the NISQ+ paper's hardware grid).
pub fn aqec_units_per_logical_qubit(d: usize) -> usize {
    (2 * d - 1) * (2 * d - 1)
}

/// The paper's assumption for extending AQEC to 3-D matching: 7× the 2-D
/// module count (§V-D, "extending AQEC to 3-D requires 7 times the
/// modules needed for 2-D processing").
pub const AQEC_3D_MODULE_FACTOR: f64 = 7.0;

/// AQEC per-unit power from Table V, in watts (13.44 µW).
pub const AQEC_UNIT_POWER_W: f64 = 13.44e-6;

/// One decoder column of Table V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecoderBudget {
    /// Decoder name.
    pub name: String,
    /// Power per hardware unit, in watts.
    pub unit_power_w: f64,
    /// Hardware units required per logical qubit (including any 3-D
    /// extension factor).
    pub effective_units_per_lq: f64,
    /// Whether the architecture natively handles the 3-D lattice.
    pub directly_3d: bool,
}

impl DecoderBudget {
    /// QECOOL at distance `d`, clocked at `frequency_hz`, with the paper's
    /// 336 mA Unit bias (Table II).
    pub fn qecool(d: usize, frequency_hz: f64) -> Self {
        Self {
            name: "QECOOL (7-bit Reg)".to_owned(),
            unit_power_w: ersfq_power_w(336.0, frequency_hz),
            effective_units_per_lq: qecool_units_per_logical_qubit(d) as f64,
            directly_3d: true,
        }
    }

    /// AQEC (NISQ+) at distance `d`; `extend_to_3d` applies the paper's 7×
    /// module assumption.
    pub fn aqec(d: usize, extend_to_3d: bool) -> Self {
        let factor = if extend_to_3d {
            AQEC_3D_MODULE_FACTOR
        } else {
            1.0
        };
        Self {
            name: "AQEC".to_owned(),
            unit_power_w: AQEC_UNIT_POWER_W,
            effective_units_per_lq: aqec_units_per_logical_qubit(d) as f64 * factor,
            directly_3d: false,
        }
    }

    /// Power drawn per logical qubit, in watts.
    pub fn power_per_logical_qubit_w(&self) -> f64 {
        self.unit_power_w * self.effective_units_per_lq
    }

    /// Protectable logical qubits within the 4-K budget.
    pub fn protectable_qubits(&self) -> usize {
        (POWER_BUDGET_4K_W / self.power_per_logical_qubit_w()).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_budget_matches_fig7_points() {
        // The three Fig. 7 clocks against the 1 µs interval.
        assert_eq!(CycleBudget::at_clock(500e6).cycles_per_round(), 500);
        assert_eq!(CycleBudget::at_clock(1.0e9).cycles_per_round(), 1000);
        assert_eq!(CycleBudget::at_clock(2.0e9).cycles_per_round(), 2000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn cycle_budget_rejects_zero_interval() {
        CycleBudget::new(1.0e9, 0.0);
    }

    #[test]
    fn cycle_histogram_buckets_and_percentiles() {
        let mut h = CycleHistogram::new();
        assert_eq!(h.percentile(0.99), 0);
        for c in [0u64, 1, 2, 3, 4, 7, 8, 100] {
            h.record(c);
        }
        assert_eq!(h.total(), 8);
        // Ranks: p0..p12.5 → bucket 0 (cycles 0), p100 → bucket of 100.
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), 100);
        // Median of the 8 samples sits among the small values.
        assert!(h.percentile(0.5) <= 7);
        // Percentile is a conservative upper bound: never below the
        // actual value at that rank.
        assert!(h.percentile(0.99) >= 100);
    }

    #[test]
    fn cycle_histogram_merge_adds_counts() {
        let mut a = CycleHistogram::new();
        a.record(5);
        a.record(9);
        let mut b = CycleHistogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert!(a.percentile(1.0) >= 1000);
        let merged_again = {
            let mut c = CycleHistogram::default();
            c.merge(&a);
            c
        };
        assert_eq!(merged_again, a);
    }

    #[test]
    fn cycle_histogram_empty_is_zero_for_any_quantile() {
        let h = CycleHistogram::new();
        for q in [0.0, 0.5, 1.0, -3.0, 42.0, f64::NAN, f64::INFINITY] {
            assert_eq!(h.percentile(q), 0, "empty histogram, q = {q}");
        }
    }

    #[test]
    fn cycle_histogram_percentile_bounds_are_pinned() {
        let mut h = CycleHistogram::new();
        for c in [3u64, 5, 9, 1000] {
            h.record(c);
        }
        // p0 is the minimum's bucket bound, p100 the maximum itself.
        assert_eq!(h.percentile(0.0), 3);
        assert_eq!(h.percentile(1.0), 1000);
        // Out-of-range quantiles clamp to those same ends.
        assert_eq!(h.percentile(-1.0), h.percentile(0.0));
        assert_eq!(h.percentile(f64::NEG_INFINITY), h.percentile(0.0));
        assert_eq!(h.percentile(2.0), h.percentile(1.0));
        assert_eq!(h.percentile(f64::INFINITY), h.percentile(1.0));
    }

    #[test]
    fn cycle_histogram_nan_quantile_is_conservative() {
        let mut h = CycleHistogram::new();
        h.record(1);
        h.record(700);
        // NaN must neither panic nor under-report: it pins to p100.
        assert_eq!(h.percentile(f64::NAN), h.percentile(1.0));
        assert!(h.percentile(f64::NAN) >= 700);
    }

    #[test]
    fn cycle_histogram_bucket_accessors() {
        let mut h = CycleHistogram::new();
        assert_eq!(h.max_bucket(), None);
        for c in [0u64, 1, 3, 900] {
            h.record(c);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1, "one zero-cycle round");
        assert_eq!(counts[1], 1, "cycles == 1 lands in bucket 1");
        assert_eq!(counts[2], 1, "2 <= 3 < 4 lands in bucket 2");
        assert_eq!(counts[10], 1, "512 <= 900 < 1024 lands in bucket 10");
        assert_eq!(counts.iter().sum::<u64>(), h.total());
        assert_eq!(h.max_bucket(), Some(10));
        assert_eq!(CycleHistogram::bucket_upper_bound(0), 0);
        assert_eq!(CycleHistogram::bucket_upper_bound(1), 1);
        assert_eq!(CycleHistogram::bucket_upper_bound(10), 1023);
        assert_eq!(CycleHistogram::bucket_upper_bound(64), u64::MAX);
        // The top bucket's edge is capped at the recorded maximum.
        assert_eq!(h.percentile(1.0), 900);
    }

    #[test]
    fn cycle_histogram_extreme_values() {
        let mut h = CycleHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        h.record(1);
        assert_eq!(h.percentile(0.25), 1);
    }

    #[test]
    fn qecool_unit_count_matches_paper() {
        // d = 9: 2 * 9 * 8 = 144 Units per logical qubit.
        assert_eq!(qecool_units_per_logical_qubit(9), 144);
        assert_eq!(qecool_units_per_logical_qubit(5), 40);
    }

    #[test]
    fn aqec_unit_count_matches_paper() {
        // d = 9: (2*9-1)^2 = 289.
        assert_eq!(aqec_units_per_logical_qubit(9), 289);
    }

    #[test]
    fn qecool_protects_about_2500_logical_qubits() {
        // Paper Table V: 2498 protectable logical qubits at d = 9, 2 GHz.
        let b = DecoderBudget::qecool(9, 2.0e9);
        let n = b.protectable_qubits();
        assert!(
            (2490..=2505).contains(&n),
            "expected ~2498 protectable qubits, got {n}"
        );
        assert!(b.directly_3d);
    }

    #[test]
    fn aqec_protects_about_37_logical_qubits() {
        // Paper Table V: 37, using the 7x 3-D extension assumption.
        let b = DecoderBudget::aqec(9, true);
        let n = b.protectable_qubits();
        assert!((35..=38).contains(&n), "expected ~37, got {n}");
        assert!(!b.directly_3d);
    }

    #[test]
    fn qecool_beats_aqec_by_orders_of_magnitude() {
        let q = DecoderBudget::qecool(9, 2.0e9).protectable_qubits();
        let a = DecoderBudget::aqec(9, true).protectable_qubits();
        assert!(q > 50 * a, "QECOOL {q} vs AQEC {a}");
    }

    #[test]
    fn lower_clock_protects_more_qubits() {
        // ERSFQ power is dynamic, so halving the clock doubles the count.
        let fast = DecoderBudget::qecool(9, 2.0e9).protectable_qubits();
        let slow = DecoderBudget::qecool(9, 1.0e9).protectable_qubits();
        assert!(slow >= 2 * fast - 1, "slow {slow} vs fast {fast}");
    }
}
