//! Sweep drivers: the reusable loops behind the paper's figures/tables.

use crate::engine::{DecodeEngine, McJob};
use crate::montecarlo::McResult;
use crate::threshold::Curve;
use crate::trials::{DecoderKind, TrialConfig};
use qecool_surface_code::NoiseSpec;

/// One `(d, p)` sample of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Code distance.
    pub d: usize,
    /// Physical error rate.
    pub p: f64,
    /// Monte-Carlo aggregate at this point.
    pub mc: McResult,
}

/// Result of a full `(d × p)` sweep for one decoder.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// All sampled points, grouped by `d` then ascending `p`.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Extracts the logical-error-rate curves (one per distance), suitable
    /// for [`estimate_threshold`](crate::threshold::estimate_threshold).
    pub fn curves(&self) -> Vec<Curve> {
        let mut ds: Vec<usize> = self.points.iter().map(|pt| pt.d).collect();
        ds.sort_unstable();
        ds.dedup();
        ds.into_iter()
            .map(|d| {
                let pts = self
                    .points
                    .iter()
                    .filter(|pt| pt.d == d)
                    .map(|pt| (pt.p, pt.mc.logical_error_rate().rate()))
                    .collect();
                Curve::new(d, pts)
            })
            .collect()
    }

    /// Finds the sample at `(d, p)` if present.
    pub fn point(&self, d: usize, p: f64) -> Option<&SweepPoint> {
        self.points
            .iter()
            .find(|pt| pt.d == d && (pt.p - p).abs() < 1e-15)
    }
}

/// Runs a full `(d × p)` logical-error-rate sweep on the given engine.
///
/// `shots_for(d, p)` lets callers spend more shots where rates are
/// small. Each `(d, p)` point runs on seed stream `di * ps.len() + pi`
/// (row-major grid index) of `base_seed` via
/// [`campaign::derive_seed`](crate::campaign::derive_seed), so the sweep
/// is reproducible and a [`CampaignRunner`](crate::campaign) built over
/// the same grid, seed and quotas produces byte-identical aggregates.
/// All points go onto the engine's queue as one batch, so workers drain
/// cheap points and heavy points from the same pool instead of
/// synchronizing per point.
pub fn sweep_on<F>(
    engine: &DecodeEngine,
    decoder: DecoderKind,
    noise: NoiseSpec,
    ds: &[usize],
    ps: &[f64],
    base_seed: u64,
    mut shots_for: F,
) -> Sweep
where
    F: FnMut(usize, f64) -> usize,
{
    let mut jobs = Vec::with_capacity(ds.len() * ps.len());
    for (di, &d) in ds.iter().enumerate() {
        for (pi, &p) in ps.iter().enumerate() {
            let trial = TrialConfig {
                d,
                rounds: if matches!(noise, NoiseSpec::CodeCapacity { .. }) {
                    1
                } else {
                    d
                },
                decoder,
                // The sweep moves the spec along the rate axis; shape
                // parameters (q, eta, burst geometry) stay fixed.
                noise: noise.with_rate(p),
                boundary_penalty: qecool::DEFAULT_BOUNDARY_PENALTY,
            };
            jobs.push(McJob {
                trial,
                shots: shots_for(d, p),
                base_seed,
                stream: (di * ps.len() + pi) as u64,
                first_trial: 0,
            });
        }
    }
    let results = engine.run_batch(&jobs);
    Sweep {
        points: jobs
            .iter()
            .zip(results)
            .map(|(job, mc)| SweepPoint {
                d: job.trial.d,
                p: job.trial.p(),
                mc,
            })
            .collect(),
    }
}

/// Log-spaced grid of `n` points from `lo` to `hi` inclusive.
///
/// # Panics
///
/// Panics unless `0 < lo < hi` and `n >= 2`.
pub fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    assert!(n >= 2, "need at least two grid points");
    (0..n)
        .map(|i| (lo.ln() + (hi.ln() - lo.ln()) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_grid_endpoints_and_monotonicity() {
        let g = log_grid(1e-3, 1e-1, 9);
        assert_eq!(g.len(), 9);
        assert!((g[0] - 1e-3).abs() < 1e-12);
        assert!((g[8] - 1e-1).abs() < 1e-12);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn log_grid_rejects_bad_range() {
        log_grid(0.1, 0.1, 4);
    }

    #[test]
    fn small_sweep_produces_curves() {
        let s = sweep_on(
            &DecodeEngine::with_threads(2),
            DecoderKind::BatchQecool,
            NoiseSpec::Phenomenological { p: 0.0 },
            &[3, 5],
            &[0.002, 0.02],
            1,
            |_, _| 12,
        );
        assert_eq!(s.points.len(), 4);
        let curves = s.curves();
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].d, 3);
        assert_eq!(curves[0].points.len(), 2);
        assert!(s.point(5, 0.02).is_some());
        assert!(s.point(7, 0.02).is_none());
    }

    #[test]
    fn sweep_is_reproducible() {
        let run = || {
            sweep_on(
                &DecodeEngine::with_threads(2),
                DecoderKind::BatchQecool,
                NoiseSpec::Phenomenological { p: 0.0 },
                &[3],
                &[0.05],
                9,
                |_, _| 25,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.points[0].mc.failures, b.points[0].mc.failures);
    }
}
