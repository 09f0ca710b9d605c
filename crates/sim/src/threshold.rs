//! Accuracy-threshold estimation from logical-error-rate curves.
//!
//! The threshold `p_th` of a decoder is the physical error rate at which
//! the logical-error-rate curves for different code distances cross
//! (§III-C): below `p_th`, increasing `d` suppresses the logical rate.
//! We estimate it exactly as one reads it off Fig. 4(a): find the crossing
//! of each pair of adjacent-`d` curves by log-log interpolation, then
//! report the median crossing.

use serde::{Deserialize, Serialize};

use crate::campaign::CampaignJob;
use crate::montecarlo::McResult;

/// One decoder's logical-error-rate curve for a single code distance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve {
    /// Code distance.
    pub d: usize,
    /// `(p, p_L)` samples, ascending in `p`.
    pub points: Vec<(f64, f64)>,
}

impl Curve {
    /// Creates a curve, sorting samples by `p`.
    pub fn new(d: usize, mut points: Vec<(f64, f64)>) -> Self {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self { d, points }
    }

    /// Log-log interpolated logical rate at `p`, or `None` outside the
    /// sampled range (or where a zero sample blocks the log transform).
    pub fn interpolate(&self, p: f64) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .copied()
            .filter(|&(x, y)| x > 0.0 && y > 0.0)
            .collect();
        if pts.len() < 2 || p < pts[0].0 || p > pts[pts.len() - 1].0 {
            return None;
        }
        let idx = pts
            .partition_point(|&(x, _)| x < p)
            .min(pts.len() - 1)
            .max(1);
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        if x0 == x1 {
            return Some(y0);
        }
        let t = (p.ln() - x0.ln()) / (x1.ln() - x0.ln());
        Some((y0.ln() + t * (y1.ln() - y0.ln())).exp())
    }
}

/// The logical-error-rate curves (one per distance, ascending) of a
/// grid's jobs and their results, paired in order, suitable for
/// [`estimate_threshold`].
pub fn curves(jobs: &[CampaignJob], results: &[McResult]) -> Vec<Curve> {
    let mut ds: Vec<usize> = jobs.iter().map(|job| job.trial.d).collect();
    ds.sort_unstable();
    ds.dedup();
    ds.into_iter()
        .map(|d| {
            let points = jobs
                .iter()
                .zip(results)
                .filter(|(job, _)| job.trial.d == d)
                .map(|(job, mc)| (job.trial.p(), mc.logical_error_rate().rate()))
                .collect();
            Curve::new(d, points)
        })
        .collect()
}

/// The crossing point of two curves, if any.
///
/// Grid points where either curve cannot be interpolated (outside its
/// positive-sample range) are skipped rather than aborting the scan —
/// deep-suppression points commonly measure an exact 0 and drop out of
/// the log-log transform.
fn crossing(a: &Curve, b: &Curve, grid: &[f64]) -> Option<f64> {
    let mut prev: Option<(f64, f64)> = None;
    for &p in grid {
        let (Some(ya), Some(yb)) = (a.interpolate(p), b.interpolate(p)) else {
            prev = None;
            continue;
        };
        let diff = yb.ln() - ya.ln();
        if let Some((pp, pd)) = prev {
            if pd.signum() != diff.signum() && pd != 0.0 {
                // Linear root of the log-difference between pp and p.
                let t = pd / (pd - diff);
                return Some((pp.ln() + t * (p.ln() - pp.ln())).exp());
            }
        }
        prev = Some((p, diff));
    }
    None
}

/// Threshold estimate over a family of curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdEstimate {
    /// Median of the pairwise crossings.
    pub pth: f64,
    /// Individual adjacent-pair crossings `(d_low, d_high, p_cross)`.
    pub crossings: Vec<(usize, usize, f64)>,
}

/// Estimates the accuracy threshold from logical-error-rate curves of at
/// least two code distances.
///
/// Returns `None` when no adjacent pair of curves crosses inside the
/// common sampled range (e.g. all sampled `p` are below threshold).
pub fn estimate_threshold(curves: &[Curve]) -> Option<ThresholdEstimate> {
    if curves.len() < 2 {
        return None;
    }
    let mut sorted: Vec<&Curve> = curves.iter().collect();
    sorted.sort_by_key(|c| c.d);

    // Common evaluation grid: dense log-spaced points over the overlap.
    let lo = sorted
        .iter()
        .filter_map(|c| c.points.iter().map(|&(p, _)| p).find(|&p| p > 0.0))
        .fold(0.0f64, f64::max);
    let hi = sorted
        .iter()
        .filter_map(|c| c.points.last().map(|&(p, _)| p))
        .fold(f64::INFINITY, f64::min);
    if !(lo > 0.0 && hi > lo) {
        return None;
    }
    // Pull the grid fractionally inside [lo, hi] so floating-point
    // round-off at the endpoints cannot push samples out of range.
    let (llo, lhi) = (lo.ln() + 1e-9, hi.ln() - 1e-9);
    let n = 200;
    let grid: Vec<f64> = (0..=n)
        .map(|i| (llo + (lhi - llo) * i as f64 / n as f64).exp())
        .collect();

    let mut crossings = Vec::new();
    for pair in sorted.windows(2) {
        if let Some(p) = crossing(pair[0], pair[1], &grid) {
            crossings.push((pair[0].d, pair[1].d, p));
        }
    }
    if crossings.is_empty() {
        return None;
    }
    let mut ps: Vec<f64> = crossings.iter().map(|&(_, _, p)| p).collect();
    ps.sort_by(f64::total_cmp);
    let mid = ps.len() / 2;
    let pth = if ps.len() % 2 == 1 {
        ps[mid]
    } else {
        (ps[mid - 1] + ps[mid]) / 2.0
    };
    Some(ThresholdEstimate { pth, crossings })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic scaling-law curves p_L = A (p/pth)^(d/2) cross exactly at
    /// pth.
    fn synthetic_curve(d: usize, pth: f64) -> Curve {
        let points = (0..20)
            .map(|i| {
                let p = 0.002 * 1.3f64.powi(i);
                let pl = 0.5 * (p / pth).powf(d as f64 / 2.0);
                (p, pl.min(1.0))
            })
            .collect();
        Curve::new(d, points)
    }

    #[test]
    fn recovers_synthetic_threshold() {
        let curves: Vec<Curve> = [5, 7, 9, 11]
            .iter()
            .map(|&d| synthetic_curve(d, 0.015))
            .collect();
        let est = estimate_threshold(&curves).expect("crossing exists");
        assert!(
            (est.pth - 0.015).abs() / 0.015 < 0.05,
            "estimated {} vs true 0.015",
            est.pth
        );
        assert_eq!(est.crossings.len(), 3);
    }

    #[test]
    fn no_crossing_when_all_below_threshold() {
        // Curves sampled entirely below pth never cross.
        let curves: Vec<Curve> = [5usize, 7]
            .iter()
            .map(|&d| {
                let points = (0..10)
                    .map(|i| {
                        let p = 1e-4 * 1.2f64.powi(i);
                        (p, 0.5 * (p / 0.5).powf(d as f64 / 2.0))
                    })
                    .collect();
                Curve::new(d, points)
            })
            .collect();
        assert!(estimate_threshold(&curves).is_none());
    }

    #[test]
    fn single_curve_has_no_threshold() {
        assert!(estimate_threshold(&[synthetic_curve(5, 0.01)]).is_none());
    }

    #[test]
    fn interpolation_is_exact_at_samples() {
        let c = Curve::new(3, vec![(0.01, 0.1), (0.02, 0.4), (0.04, 0.9)]);
        assert!((c.interpolate(0.02).unwrap() - 0.4).abs() < 1e-12);
        assert!(c.interpolate(0.005).is_none());
        assert!(c.interpolate(0.05).is_none());
    }

    #[test]
    fn interpolation_is_monotone_between_samples() {
        let c = Curve::new(3, vec![(0.01, 0.1), (0.04, 0.9)]);
        let y = c.interpolate(0.02).unwrap();
        assert!(y > 0.1 && y < 0.9);
    }

    #[test]
    fn zero_samples_are_skipped() {
        let c = Curve::new(3, vec![(0.01, 0.0), (0.02, 0.2), (0.04, 0.5)]);
        // The zero point cannot enter the log transform; range starts at
        // 0.02.
        assert!(c.interpolate(0.01).is_none());
        assert!(c.interpolate(0.03).is_some());
    }

    #[test]
    fn curve_sorts_points() {
        let c = Curve::new(3, vec![(0.04, 0.5), (0.01, 0.1)]);
        assert_eq!(c.points[0].0, 0.01);
    }
}
