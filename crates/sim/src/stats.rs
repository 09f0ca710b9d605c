//! Statistics for Monte-Carlo rate estimation.

use serde::{Deserialize, Serialize};

pub use qecool::stats::CycleAggregate;

/// A binomial rate estimate with uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateEstimate {
    /// Number of successes (e.g. logical failures).
    pub hits: usize,
    /// Number of trials.
    pub shots: usize,
}

impl RateEstimate {
    /// Creates an estimate from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `hits > shots`.
    pub fn new(hits: usize, shots: usize) -> Self {
        assert!(hits <= shots, "hits {hits} > shots {shots}");
        Self { hits, shots }
    }

    /// Point estimate `hits / shots` (0 when no shots were taken).
    pub fn rate(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.hits as f64 / self.shots as f64
        }
    }

    /// Wilson score interval at ~95% confidence (`z = 1.96`).
    ///
    /// Well-behaved even when `hits` is 0 or equals `shots`, unlike the
    /// normal approximation — important for the deep-suppression points of
    /// Fig. 4(a) where failures are rare.
    pub fn wilson_interval(&self) -> (f64, f64) {
        if self.shots == 0 {
            return (0.0, 1.0);
        }
        let z = 1.96f64;
        let n = self.shots as f64;
        let p = self.rate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// Exact Clopper–Pearson interval at 95% confidence.
    ///
    /// The conservative "exact" binomial interval: it always covers at
    /// least 95%, at the cost of being wider than Wilson. Preferred for
    /// headline numbers at the extremes (`hits = 0` or `hits = shots`),
    /// where its closed forms `1 - (α/2)^{1/n}` / `(α/2)^{1/n}` apply.
    pub fn clopper_pearson_interval(&self) -> (f64, f64) {
        const ALPHA_HALF: f64 = 0.025;
        if self.shots == 0 {
            return (0.0, 1.0);
        }
        let n = self.shots;
        let k = self.hits;
        let lower = if k == 0 {
            0.0
        } else if k == n {
            ALPHA_HALF.powf(1.0 / n as f64)
        } else {
            // Largest p with P(X >= k) <= α/2, i.e. binomial CDF at k-1
            // crossing 1 - α/2 from above as p grows.
            bisect_p(|p| binomial_cdf(k - 1, n, p) - (1.0 - ALPHA_HALF))
        };
        let upper = if k == n {
            1.0
        } else if k == 0 {
            1.0 - ALPHA_HALF.powf(1.0 / n as f64)
        } else {
            // Smallest p with P(X <= k) <= α/2.
            bisect_p(|p| binomial_cdf(k, n, p) - ALPHA_HALF)
        };
        (lower, upper)
    }

    /// Width of the 95% Clopper–Pearson interval — the "looseness" the
    /// adaptive campaign stop rule ranks sweep points by. `1.0` when no
    /// shots were taken (the vacuous interval).
    pub fn clopper_pearson_width(&self) -> f64 {
        let (lo, hi) = self.clopper_pearson_interval();
        hi - lo
    }

    /// Inverts the Clopper–Pearson width: the total shot count at
    /// which — holding the observed rate fixed — the 95% interval
    /// narrows to at most `target`. Used by the `qecool_sim::campaign`
    /// stop rules to size shot reallocations; the estimate is
    /// approximate, not exact (the campaign re-checks real widths every
    /// round, so under-estimates only cost an extra round).
    ///
    /// Deterministic: pure arithmetic on the counts and `target`.
    /// Capped at 2³⁴ shots so an impossibly tight target cannot spin.
    ///
    /// # Panics
    ///
    /// Panics unless `target` is positive and finite.
    pub fn shots_to_cp_width(&self, target: f64) -> u64 {
        assert!(
            target > 0.0 && target.is_finite(),
            "target width must be positive and finite, got {target}"
        );
        if target >= 1.0 {
            return (self.shots as u64).max(1);
        }
        const CAP: u64 = 1 << 34;
        let p = self.rate();
        // Closed-form seed: k = 0 (or k = n) widths are 1 - (α/2)^{1/n};
        // interior points start from the normal-approximation width
        // 2·z·sqrt(p(1-p)/n).
        let seed = if self.hits == 0 || self.hits == self.shots {
            (0.025f64.ln() / (1.0 - target).ln()).ceil() as u64
        } else {
            let z = 1.96f64;
            ((4.0 * z * z * p * (1.0 - p)) / (target * target)).ceil() as u64
        };
        let mut n = seed.max(self.shots as u64).max(1);
        loop {
            if cp_width_at(self.hits, self.shots, n) <= target || n >= CAP {
                return n.min(CAP);
            }
            // Grow geometrically: widths shrink ~1/sqrt(n), so a 25%
            // step overshoots the target by at most ~12%.
            n += (n / 4).max(1);
        }
    }
}

/// Hypothetical 95% Clopper–Pearson width at `n` total shots, scaling
/// the observed `hits / shots` rate. Exact for the closed-form extremes
/// and for small `n`; falls back to the Wilson width for large `n`,
/// where the exact CDF sum would cost O(hits) per probe — this sizes
/// allocations only, the campaign always re-checks the exact width.
fn cp_width_at(hits: usize, shots: usize, n: u64) -> f64 {
    let n_us = n as usize;
    if hits == 0 {
        return 1.0 - 0.025f64.powf(1.0 / n as f64);
    }
    if hits == shots {
        // All-failure mirror of k = 0.
        return 1.0 - 0.025f64.powf(1.0 / n as f64);
    }
    let p = if shots == 0 {
        0.0
    } else {
        hits as f64 / shots as f64
    };
    let h = ((p * n as f64).round() as u64).clamp(1, n.saturating_sub(1)) as usize;
    let est = RateEstimate::new(h, n_us);
    if n <= 4096 {
        return est.clopper_pearson_width();
    }
    let (lo, hi) = est.wilson_interval();
    hi - lo
}

/// Root of a monotonically decreasing function of `p` on (0, 1), by
/// bisection to ~1e-12.
fn bisect_p<F: Fn(f64) -> f64>(f: F) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if f(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// `P(X <= k)` for `X ~ Binomial(n, p)`, summed in log space for
/// stability at the campaign sizes the sweeps use.
fn binomial_cdf(k: usize, n: usize, p: f64) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return if k >= n { 1.0 } else { 0.0 };
    }
    let (ln_p, ln_q) = (p.ln(), (1.0 - p).ln());
    let mut total = 0.0;
    // ln C(n, i) built incrementally: C(n, 0) = 1.
    let mut ln_choose = 0.0f64;
    for i in 0..=k.min(n) {
        if i > 0 {
            ln_choose += ((n - i + 1) as f64).ln() - (i as f64).ln();
        }
        total += (ln_choose + i as f64 * ln_p + (n - i) as f64 * ln_q).exp();
    }
    total.min(1.0)
}

impl std::fmt::Display for RateEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3e} ({}/{})", self.rate(), self.hits, self.shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rate_basics() {
        let r = RateEstimate::new(5, 100);
        assert_eq!(r.rate(), 0.05);
        assert!(r.to_string().contains("5/100"));
    }

    #[test]
    fn empty_estimate() {
        let r = RateEstimate::new(0, 0);
        assert_eq!(r.rate(), 0.0);
        assert_eq!(r.wilson_interval(), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "hits")]
    fn rejects_more_hits_than_shots() {
        RateEstimate::new(2, 1);
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        for (h, n) in [(0, 50), (1, 50), (25, 50), (50, 50)] {
            let r = RateEstimate::new(h, n);
            let (lo, hi) = r.wilson_interval();
            assert!(lo <= r.rate() + 1e-12 && r.rate() <= hi + 1e-12, "{h}/{n}");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn wilson_zero_hits_has_positive_upper_bound() {
        let (lo, hi) = RateEstimate::new(0, 100).wilson_interval();
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.1);
    }

    #[test]
    fn wilson_all_failures_pins_upper_at_one() {
        let (lo, hi) = RateEstimate::new(100, 100).wilson_interval();
        assert!((hi - 1.0).abs() < 1e-12, "hi = {hi}");
        assert!(lo > 0.9 && lo < 1.0, "lo = {lo}");
    }

    #[test]
    fn clopper_pearson_zero_hits_closed_form() {
        // Exact closed form at k = 0: upper = 1 - (α/2)^{1/n}.
        let (lo, hi) = RateEstimate::new(0, 100).clopper_pearson_interval();
        assert_eq!(lo, 0.0);
        let expected = 1.0 - 0.025f64.powf(1.0 / 100.0);
        assert!((hi - expected).abs() < 1e-12, "hi = {hi} vs {expected}");
        // The famous rule of three: upper ≈ 3.7/n at 95%.
        assert!(hi > 0.03 && hi < 0.04);
    }

    #[test]
    fn clopper_pearson_all_failures_closed_form() {
        let (lo, hi) = RateEstimate::new(100, 100).clopper_pearson_interval();
        assert_eq!(hi, 1.0);
        let expected = 0.025f64.powf(1.0 / 100.0);
        assert!((lo - expected).abs() < 1e-12, "lo = {lo} vs {expected}");
        // Mirror image of the zero-hits case.
        let (_, hi_zero) = RateEstimate::new(0, 100).clopper_pearson_interval();
        assert!((lo - (1.0 - hi_zero)).abs() < 1e-12);
    }

    #[test]
    fn clopper_pearson_contains_point_estimate() {
        for (h, n) in [(1, 50), (5, 100), (25, 50), (49, 50), (500, 1000)] {
            let r = RateEstimate::new(h, n);
            let (lo, hi) = r.clopper_pearson_interval();
            assert!(lo < r.rate() && r.rate() < hi, "{h}/{n}: [{lo}, {hi}]");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn clopper_pearson_is_no_narrower_than_wilson() {
        // The exact interval is conservative: it contains Wilson's at
        // moderate counts.
        for (h, n) in [(1usize, 40usize), (10, 200), (30, 60)] {
            let r = RateEstimate::new(h, n);
            let (wl, wh) = r.wilson_interval();
            let (cl, ch) = r.clopper_pearson_interval();
            assert!(cl <= wl + 1e-9, "{h}/{n}: CP lower {cl} > Wilson {wl}");
            assert!(ch >= wh - 1e-9, "{h}/{n}: CP upper {ch} < Wilson {wh}");
        }
    }

    #[test]
    fn clopper_pearson_matches_published_value() {
        // Canonical reference point: 10 successes in 100 trials gives
        // the 95% CP interval (0.0490, 0.1762) (e.g. Newcombe 1998).
        let (lo, hi) = RateEstimate::new(10, 100).clopper_pearson_interval();
        assert!((lo - 0.0490).abs() < 5e-4, "lo = {lo}");
        assert!((hi - 0.1762).abs() < 5e-4, "hi = {hi}");
    }

    #[test]
    fn empty_clopper_pearson_is_vacuous() {
        assert_eq!(
            RateEstimate::new(0, 0).clopper_pearson_interval(),
            (0.0, 1.0)
        );
    }

    #[test]
    fn cp_width_shrinks_with_shots() {
        let wide = RateEstimate::new(2, 20).clopper_pearson_width();
        let narrow = RateEstimate::new(20, 200).clopper_pearson_width();
        assert!(narrow < wide, "{narrow} !< {wide}");
        assert_eq!(RateEstimate::new(0, 0).clopper_pearson_width(), 1.0);
    }

    #[test]
    fn shots_to_cp_width_meets_target_at_zero_hits() {
        // k = 0 has the exact closed form: verify the inversion lands on
        // a count whose real width meets the target, and that one fewer
        // order of magnitude would not.
        for target in [0.1, 0.05, 0.01] {
            let n = RateEstimate::new(0, 10).shots_to_cp_width(target);
            let width = RateEstimate::new(0, n as usize).clopper_pearson_width();
            assert!(width <= target, "n = {n} gives width {width} > {target}");
            let width_tenth =
                RateEstimate::new(0, (n / 10).max(1) as usize).clopper_pearson_width();
            assert!(
                width_tenth > target,
                "inversion wildly overshot at {target}"
            );
        }
    }

    #[test]
    fn shots_to_cp_width_interior_point_converges() {
        let est = RateEstimate::new(10, 100);
        let n = est.shots_to_cp_width(0.05);
        assert!(n > 100, "needs more than the current 100 shots");
        // Re-check with the real (scaled-count) width at the answer.
        let scaled = (n as f64 * est.rate()).round() as usize;
        let width = RateEstimate::new(scaled, n as usize).clopper_pearson_width();
        assert!(width <= 0.06, "width {width} far off the 0.05 target");
    }

    #[test]
    fn shots_to_cp_width_is_satisfied_counts_and_caps() {
        // Already-met targets never ask for fewer shots than taken.
        let est = RateEstimate::new(0, 1000);
        assert_eq!(est.shots_to_cp_width(0.9), 1000);
        // Vacuously wide targets cost a single shot.
        assert_eq!(RateEstimate::new(0, 0).shots_to_cp_width(1.5), 1);
        // Impossibly tight targets hit the cap instead of spinning.
        let capped = RateEstimate::new(1, 2).shots_to_cp_width(1e-12);
        assert_eq!(capped, 1 << 34);
    }

    #[test]
    fn binomial_cdf_basics() {
        assert!((binomial_cdf(2, 2, 0.5) - 1.0).abs() < 1e-12);
        assert!((binomial_cdf(0, 2, 0.5) - 0.25).abs() < 1e-12);
        assert!((binomial_cdf(1, 2, 0.5) - 0.75).abs() < 1e-12);
        assert_eq!(binomial_cdf(3, 10, 0.0), 1.0);
        assert_eq!(binomial_cdf(3, 10, 1.0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_wilson_is_monotone_in_hits(n in 1usize..200, h in 0usize..200) {
            let h = h.min(n);
            let r1 = RateEstimate::new(h, n);
            if h < n {
                let r2 = RateEstimate::new(h + 1, n);
                prop_assert!(r2.wilson_interval().0 >= r1.wilson_interval().0 - 1e-12);
                prop_assert!(r2.wilson_interval().1 >= r1.wilson_interval().1 - 1e-12);
            }
        }
    }
}
