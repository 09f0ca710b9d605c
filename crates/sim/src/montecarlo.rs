//! The Monte-Carlo aggregate: [`McResult`], what one job of
//! [`DecodeEngine::run_batch`](crate::engine::DecodeEngine::run_batch)
//! or one point of a [campaign](crate::campaign) adds up to.

use crate::stats::{CycleAggregate, RateEstimate};
use crate::trials::TrialOutcome;

/// Aggregated result of a Monte-Carlo campaign at one parameter point.
///
/// Equality is exact field-wise comparison of the integer counters —
/// the relation the kill/resume campaign tests use to assert
/// byte-identical aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McResult {
    /// Trials executed.
    pub shots: usize,
    /// Trials that ended in a logical error (including overflows).
    pub failures: usize,
    /// Trials that failed specifically by register overflow.
    pub overflows: usize,
    /// Aggregate of all per-layer decode cycle counts.
    pub layer_cycles: CycleAggregate,
    /// Summed histogram of match vertical extents.
    pub vertical_hist: Vec<u64>,
    /// Total matches across all trials.
    pub matches: u64,
}

impl McResult {
    /// Logical error rate estimate.
    pub fn logical_error_rate(&self) -> RateEstimate {
        RateEstimate::new(self.failures, self.shots)
    }

    /// Overflow rate estimate.
    pub fn overflow_rate(&self) -> RateEstimate {
        RateEstimate::new(self.overflows, self.shots)
    }

    /// Fraction of matches with vertical extent ≥ `min_dt` (Fig. 4(b)).
    pub fn vertical_extent_fraction(&self, min_dt: usize) -> f64 {
        if self.matches == 0 {
            return 0.0;
        }
        let hits: u64 = self.vertical_hist.iter().skip(min_dt).sum();
        hits as f64 / self.matches as f64
    }

    /// Folds one trial outcome into the aggregate.
    pub fn absorb(&mut self, outcome: &TrialOutcome) {
        self.shots += 1;
        self.failures += usize::from(outcome.logical_error);
        self.overflows += usize::from(outcome.overflow);
        let stats = &outcome.stats;
        self.layer_cycles.merge(&stats.layer_cycles);
        if self.vertical_hist.len() < stats.vertical_hist.len() {
            self.vertical_hist.resize(stats.vertical_hist.len(), 0);
        }
        for (acc, &x) in self.vertical_hist.iter_mut().zip(&stats.vertical_hist) {
            *acc += x as u64;
        }
        self.matches += stats.matches as u64;
    }

    /// Merges a partial aggregate (e.g. one engine shard) into this one.
    pub fn merge(&mut self, other: McResult) {
        self.shots += other.shots;
        self.failures += other.failures;
        self.overflows += other.overflows;
        self.layer_cycles.merge(&other.layer_cycles);
        if self.vertical_hist.len() < other.vertical_hist.len() {
            self.vertical_hist.resize(other.vertical_hist.len(), 0);
        }
        for (acc, &x) in self.vertical_hist.iter_mut().zip(&other.vertical_hist) {
            *acc += x;
        }
        self.matches += other.matches;
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::DecodeEngine;
    use crate::trials::{DecoderKind, TrialConfig};

    #[test]
    fn zero_noise_yields_zero_failures() {
        let cfg = TrialConfig::standard(3, 0.0, DecoderKind::BatchQecool);
        let r = DecodeEngine::new().run(&cfg, 50, 1);
        assert_eq!(r.shots, 50);
        assert_eq!(r.failures, 0);
        assert_eq!(r.logical_error_rate().rate(), 0.0);
        // Each trial retires rounds + 1 layers.
        assert_eq!(r.layer_cycles.count, 50 * 4);
    }

    #[test]
    fn results_reproducible_across_runs() {
        let cfg = TrialConfig::standard(5, 0.03, DecoderKind::BatchQecool);
        let a = DecodeEngine::new().run(&cfg, 60, 7);
        let b = DecodeEngine::new().run(&cfg, 60, 7);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.layer_cycles, b.layer_cycles);
    }

    #[test]
    fn high_noise_fails_often() {
        let cfg = TrialConfig::standard(3, 0.2, DecoderKind::BatchQecool);
        let r = DecodeEngine::new().run(&cfg, 60, 3);
        assert!(
            r.failures > 10,
            "expected many failures at p = 0.2, got {}",
            r.failures
        );
    }

    #[test]
    fn vertical_fraction_sums_to_one_at_zero() {
        let cfg = TrialConfig::standard(5, 0.05, DecoderKind::BatchQecool);
        let r = DecodeEngine::new().run(&cfg, 30, 11);
        assert!(r.matches > 0);
        assert!((r.vertical_extent_fraction(0) - 1.0).abs() < 1e-12);
        assert!(r.vertical_extent_fraction(3) <= r.vertical_extent_fraction(2));
    }
}
