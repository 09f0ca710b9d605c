//! The `(d × p)` grids behind the paper's figures and tables.
//!
//! A grid is a list of [`CampaignJob`]s built by [`CampaignJob::grid`]
//! over a rate axis such as [`log_grid`]; every benchmark binary runs
//! its grids through a [`CampaignRunner`](crate::campaign::CampaignRunner)
//! and reads threshold curves off the results with
//! [`curves`](crate::threshold::curves).

use crate::campaign::CampaignJob;
use crate::trials::{DecoderKind, TrialConfig};
use qecool_surface_code::NoiseSpec;

impl CampaignJob {
    /// The `(d × p)` grid of `decoder` under `noise`, `shots` trials per
    /// point, in row-major order: job `di * ps.len() + pi` samples
    /// `(ds[di], ps[pi])`, and the job index is the point's seed stream.
    ///
    /// Each point moves `noise` along the rate axis with
    /// [`NoiseSpec::with_rate`]; shape parameters (`q`, `eta`, burst
    /// geometry) stay fixed. Code-capacity points run one perfectly
    /// measured round; every other family runs `d` noisy rounds.
    pub fn grid(
        decoder: DecoderKind,
        noise: NoiseSpec,
        ds: &[usize],
        ps: &[f64],
        shots: usize,
    ) -> Vec<CampaignJob> {
        let code_capacity = matches!(noise, NoiseSpec::CodeCapacity { .. });
        ds.iter()
            .flat_map(|&d| {
                ps.iter().map(move |&p| CampaignJob {
                    trial: TrialConfig {
                        d,
                        rounds: if code_capacity { 1 } else { d },
                        decoder,
                        noise: noise.with_rate(p),
                        boundary_penalty: qecool::DEFAULT_BOUNDARY_PENALTY,
                    },
                    shots,
                })
            })
            .collect()
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
    use crate::campaign::{CampaignConfig, CampaignRunner, RunOutcome};
    use crate::engine::DecodeEngine;
    use crate::threshold::curves;

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
    fn grid_is_row_major_and_sets_rounds_per_family() {
        let ps = [0.002, 0.02];
        let jobs = CampaignJob::grid(
            DecoderKind::BatchQecool,
            NoiseSpec::Asymmetric { p: 0.0, q: 0.03 },
            &[3, 5],
            &ps,
            12,
        );
        let points: Vec<(usize, usize, f64)> = jobs
            .iter()
            .map(|j| (j.trial.d, j.trial.rounds, j.trial.p()))
            .collect();
        assert_eq!(
            points,
            [(3, 3, 0.002), (3, 3, 0.02), (5, 5, 0.002), (5, 5, 0.02)]
        );
        assert!(jobs.iter().all(|j| j.shots == 12));
        assert_eq!(
            jobs[1].trial.noise,
            NoiseSpec::Asymmetric { p: 0.02, q: 0.03 }
        );
        let capacity = CampaignJob::grid(
            DecoderKind::UnionFind,
            NoiseSpec::CodeCapacity { p: 0.0 },
            &[5],
            &ps,
            1,
        );
        assert!(capacity.iter().all(|j| j.trial.rounds == 1));
    }

    #[test]
    fn small_grid_produces_curves() {
        let jobs = CampaignJob::grid(
            DecoderKind::BatchQecool,
            NoiseSpec::Phenomenological { p: 0.0 },
            &[3, 5],
            &[0.002, 0.02],
            12,
        );
        let engine = DecodeEngine::with_threads(2);
        let mut runner = CampaignRunner::new(&engine, jobs.clone(), CampaignConfig::with_seed(1));
        let Ok(RunOutcome::Complete(report)) = runner.run() else {
            panic!("no checkpoint or interrupt configured");
        };
        assert!(report.results.iter().all(|mc| mc.shots == 12));
        let curves = curves(&jobs, &report.results);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].d, 3);
        assert_eq!(curves[0].points.len(), 2);
    }
}
