//! Fixed-size decode statistics.
//!
//! Table III of the paper reports per-layer execution cycles only as
//! Max / Avg / σ, so the decoder folds each retired layer's cycle count
//! into a [`CycleAggregate`] as it goes — a decoder's statistics stay the
//! same size however long its stream runs. The aggregate is carried by
//! [`DecodeStats::layer_cycles`](crate::api::DecodeStats::layer_cycles)
//! and summed across trials by the simulator's `McResult`.

use serde::{Deserialize, Serialize};

/// Streaming aggregate of cycle counts (per-layer execution cycles).
///
/// Every field is an order-independent integer sum or maximum, so
/// merging partial aggregates in any order gives the same result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleAggregate {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Sum of squared samples.
    pub sum_sq: u128,
    /// Maximum sample.
    pub max: u64,
}

impl CycleAggregate {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: u64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += u128::from(x) * u128::from(x);
        self.max = self.max.max(x);
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &CycleAggregate) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.max = self.max.max(other.max);
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Population standard deviation (0 when empty).
    pub fn std_dev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let ex2 = self.sum_sq as f64 / self.count as f64;
        (ex2 - mean * mean).max(0.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cycle_aggregate_matches_direct_computation() {
        let mut agg = CycleAggregate::new();
        let data = [3u64, 7, 1, 9, 4];
        for &x in &data {
            agg.push(x);
        }
        let mean = data.iter().sum::<u64>() as f64 / data.len() as f64;
        assert!((agg.mean() - mean).abs() < 1e-12);
        assert_eq!(agg.max, 9);
        assert_eq!(agg.count, 5);
        let var = data.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((agg.std_dev() - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential_push() {
        let mut a = CycleAggregate::new();
        let mut b = CycleAggregate::new();
        let mut whole = CycleAggregate::new();
        for x in 0..10u64 {
            if x % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            whole.push(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    proptest! {
        #[test]
        fn prop_aggregate_std_nonnegative(xs in proptest::collection::vec(0u64..10_000, 0..50)) {
            let mut agg = CycleAggregate::new();
            for &x in &xs {
                agg.push(x);
            }
            prop_assert!(agg.std_dev() >= 0.0);
            prop_assert!(agg.mean() <= agg.max as f64 + 1e-9);
        }
    }
}
