//! Both-sector (X and Z) logical-qubit experiments.
//!
//! The paper decodes Pauli-X and Pauli-Z errors independently with
//! *identical* hardware (§IV-A footnote 3): the Z sector's lattice is the
//! 90°-rotated mirror image of the X sector's — a `(d−1) × d` ancilla
//! grid with north/south open boundaries instead of `d × (d−1)` with
//! west/east. Under the paper's symmetric phenomenological noise the two
//! sectors are statistically identical and fully independent (X errors
//! only trigger Z-type stabilizers and vice versa; measurement errors are
//! drawn independently per ancilla), so the mirror sector is simulated by
//! an independent instance of the same machinery with its own noise
//! stream. Footnote 2 of the paper makes the same argument for why it
//! reports the X sector only.
//!
//! This module provides the combined view a memory-experiment user wants:
//! a logical qubit fails when *either* sector fails.

use crate::campaign::derive_seed;
use crate::trials::{run_trial, TrialConfig, TrialOutcome};

/// Outcome of one both-sector logical-qubit trial.
#[derive(Debug, Clone)]
pub struct DualSectorOutcome {
    /// The X-error sector's outcome.
    pub x_sector: TrialOutcome,
    /// The Z-error sector's outcome (mirror lattice, independent noise).
    pub z_sector: TrialOutcome,
}

impl DualSectorOutcome {
    /// The logical qubit failed: either sector suffered a logical flip (a
    /// logical Y counts once — it is an X *and* a Z flip).
    pub fn logical_error(&self) -> bool {
        self.x_sector.logical_error || self.z_sector.logical_error
    }

    /// Either sector's decoder overflowed.
    pub fn overflow(&self) -> bool {
        self.x_sector.overflow || self.z_sector.overflow
    }
}

/// Seed stream of the mirror (Z) sector under [`derive_seed`]. The X
/// sector uses the caller's seed directly, so single-sector campaigns
/// and the X half of a dual-sector campaign share trial outcomes
/// exactly; the Z sector branches into its own avalanche-mixed stream.
const Z_SECTOR_STREAM: u64 = 1;

/// Runs one logical-qubit memory trial decoding both error sectors.
///
/// # Example
///
/// ```
/// use qecool_sim::dual_sector::run_dual_sector_trial;
/// use qecool_sim::{DecoderKind, TrialConfig};
///
/// let cfg = TrialConfig::standard(3, 0.01, DecoderKind::BatchQecool);
/// let out = run_dual_sector_trial(&cfg, 7);
/// // Either sector failing fails the logical qubit.
/// assert_eq!(
///     out.logical_error(),
///     out.x_sector.logical_error || out.z_sector.logical_error
/// );
/// ```
pub fn run_dual_sector_trial(cfg: &TrialConfig, seed: u64) -> DualSectorOutcome {
    DualSectorOutcome {
        x_sector: run_trial(cfg, seed),
        z_sector: run_trial(cfg, derive_seed(seed, Z_SECTOR_STREAM, 0)),
    }
}

/// Both-sector logical error rate over `shots` trials. Trial `i` runs on
/// seed [`derive_seed`]`(base_seed, 0, i)` — the same seeds the engine
/// gives trial `i` of a single-sector job, so the X half of this
/// estimate reproduces a single-sector campaign exactly.
pub fn dual_sector_error_rate(
    cfg: &TrialConfig,
    shots: usize,
    base_seed: u64,
) -> crate::stats::RateEstimate {
    let failures = (0..shots)
        .filter(|&i| {
            run_dual_sector_trial(cfg, derive_seed(base_seed, 0, i as u64)).logical_error()
        })
        .count();
    crate::stats::RateEstimate::new(failures, shots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::DecoderKind;

    #[test]
    fn zero_noise_never_fails_either_sector() {
        let cfg = TrialConfig::standard(3, 0.0, DecoderKind::BatchQecool);
        for seed in 0..10 {
            let out = run_dual_sector_trial(&cfg, seed);
            assert!(!out.logical_error());
            assert!(!out.overflow());
        }
    }

    #[test]
    fn sectors_use_independent_noise() {
        // At moderate noise the two sectors' outcomes must decorrelate:
        // over an ensemble, at least one trial should fail in exactly one
        // sector.
        let cfg = TrialConfig::standard(3, 0.08, DecoderKind::BatchQecool);
        let mut split = 0;
        for seed in 0..60 {
            let out = run_dual_sector_trial(&cfg, seed);
            if out.x_sector.logical_error != out.z_sector.logical_error {
                split += 1;
            }
        }
        assert!(split > 0, "sector outcomes are suspiciously identical");
    }

    #[test]
    fn dual_rate_at_least_single_rate() {
        let cfg = TrialConfig::standard(3, 0.05, DecoderKind::BatchQecool);
        let dual = dual_sector_error_rate(&cfg, 150, 3);
        let single = crate::engine::DecodeEngine::new().run(&cfg, 150, 3);
        assert!(
            dual.rate() >= single.logical_error_rate().rate(),
            "dual {} < single {}",
            dual.rate(),
            single.logical_error_rate()
        );
    }

    #[test]
    fn dual_trial_is_deterministic() {
        let cfg = TrialConfig::standard(5, 0.03, DecoderKind::BatchQecool);
        let a = run_dual_sector_trial(&cfg, 11);
        let b = run_dual_sector_trial(&cfg, 11);
        assert_eq!(a.logical_error(), b.logical_error());
        assert_eq!(a.x_sector.stats, b.x_sector.stats);
        assert_eq!(a.z_sector.stats, b.z_sector.stats);
    }
}
