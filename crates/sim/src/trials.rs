//! Single-trial definitions: one fault-tolerant memory experiment per
//! decoder.
//!
//! A trial prepares a clean distance-`d` patch, runs `rounds` noisy QEC
//! rounds under the configured noise family (a
//! [`NoiseSpec`] — the paper's phenomenological model by default),
//! closes the window with one perfect measurement round — the standard
//! memory-experiment termination — decodes with the configured decoder,
//! and reports whether the residual error implements a logical operator.
//! For on-line QECOOL the decode work is interleaved with the
//! measurements under a per-layer cycle budget, and register overflow
//! counts as a failure (paper §V-B).
//!
//! Trials drive the same [`Decoder`] objects, built by the same
//! [`DecoderKind::build`], that serve
//! [`DecodeService`](crate::service::DecodeService) sessions. The graph
//! baselines run as sliding-window decoders whose window is longer than
//! the trial, so [`Decoder::finish`] decodes the whole history at once.

use qecool::api::{DecodeOutput, DecodeStats, Decoder};
use qecool::{QecoolConfig, QecoolDecoder, DEFAULT_BOUNDARY_PENALTY};
use qecool_surface_code::{CodePatch, DetectionRound, Lattice, NoiseSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::window::{StreamingMwpm, StreamingUf, WindowConfig};

/// Which decoder a trial exercises.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecoderKind {
    /// Batch-QECOOL (§III-C): decode once after the full window.
    BatchQecool,
    /// On-line QECOOL (§III-B) with a per-layer cycle budget
    /// (`frequency × 1 µs`) and the paper's 7-bit register / `th_v = 3`.
    OnlineQecool {
        /// Decode cycles available per measurement interval.
        budget_cycles: u64,
    },
    /// The MWPM baseline (Fowler \[7\]) over a 16-nearest-neighbour event
    /// graph.
    Mwpm,
    /// The union-find baseline (Delfosse–Nickerson \[3\], Table IV).
    UnionFind,
}

impl DecoderKind {
    /// Builds this kind's streaming decoder on `lattice` — the one
    /// construction site behind both Monte-Carlo trials and serving
    /// sessions.
    ///
    /// The graph baselines decode in sliding windows of geometry
    /// `window`; batch QECOOL holds one stride (`window.stride` rounds)
    /// in its registers and decodes it at [`Decoder::finish`].
    /// `boundary_penalty` applies to the QECOOL kinds only.
    pub fn build(
        self,
        lattice: &Lattice,
        window: WindowConfig,
        boundary_penalty: u64,
    ) -> Box<dyn Decoder + Send> {
        let qecool = |config: QecoolConfig| {
            QecoolDecoder::new(
                lattice.clone(),
                config.with_boundary_penalty(boundary_penalty),
            )
        };
        match self {
            Self::BatchQecool => Box::new(qecool(QecoolConfig::batch(window.stride as usize))),
            Self::OnlineQecool { .. } => Box::new(qecool(QecoolConfig::online())),
            Self::Mwpm => Box::new(StreamingMwpm::with_config(lattice.clone(), window)),
            Self::UnionFind => Box::new(StreamingUf::with_config(lattice.clone(), window)),
        }
    }
}

/// Full configuration of one trial. The physical error rate lives
/// inside [`TrialConfig::noise`] (every family's primary rate is its
/// `p`); [`TrialConfig::p`] reads it back for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialConfig {
    /// Code distance.
    pub d: usize,
    /// Number of noisy measurement rounds (the paper uses `d`).
    pub rounds: usize,
    /// Decoder under test.
    pub decoder: DecoderKind,
    /// Noise family and parameters, including the physical error rate.
    pub noise: NoiseSpec,
    /// Extra hops charged to Boundary-Unit spikes (QECOOL decoders only;
    /// the paper's design de-prioritizes boundaries, footnote 1).
    pub boundary_penalty: u64,
}

impl TrialConfig {
    /// The paper's standard 3-D memory experiment: `d` noisy rounds of
    /// phenomenological noise at rate `p`.
    pub fn standard(d: usize, p: f64, decoder: DecoderKind) -> Self {
        Self {
            d,
            rounds: d,
            decoder,
            noise: NoiseSpec::Phenomenological { p },
            boundary_penalty: DEFAULT_BOUNDARY_PENALTY,
        }
    }

    /// The 2-D (code-capacity) setting: one perfectly measured round.
    pub fn code_capacity(d: usize, p: f64, decoder: DecoderKind) -> Self {
        Self {
            d,
            rounds: 1,
            decoder,
            noise: NoiseSpec::CodeCapacity { p },
            boundary_penalty: DEFAULT_BOUNDARY_PENALTY,
        }
    }

    /// The primary physical error rate of the configured noise family.
    pub fn p(&self) -> f64 {
        self.noise.rate()
    }

    /// The trial's window: longer than the `rounds + 1` rounds a trial
    /// ingests, so it never fills and [`Decoder::finish`] decodes the
    /// whole history at once. Its stride, `rounds + 1`, is also batch
    /// QECOOL's register depth.
    fn window(&self) -> WindowConfig {
        WindowConfig::new(self.rounds as u64 + 2, self.rounds as u64 + 1)
    }
}

/// Outcome of one trial.
#[derive(Debug, Clone, Default)]
pub struct TrialOutcome {
    /// The residual error after decoding implements a logical X (or the
    /// trial failed by overflow).
    pub logical_error: bool,
    /// The trial failed because the on-line decoder's register overflowed.
    pub overflow: bool,
    /// The decoder's statistics for the trial: per-layer cycles (QECOOL
    /// only), vertical match extents and match count.
    pub stats: DecodeStats,
}

impl TrialOutcome {
    /// Clears the outcome for reuse, keeping vector allocations — the
    /// engine recycles one outcome per worker across millions of shots.
    pub fn reset(&mut self) {
        self.logical_error = false;
        self.overflow = false;
        self.stats.clear();
    }
}

/// A decoder warmed for one decoder kind, with the build inputs it was
/// made from.
struct Warm {
    kind: DecoderKind,
    window: WindowConfig,
    boundary_penalty: u64,
    decoder: Box<dyn Decoder + Send>,
}

/// Everything a trial at one code distance reuses: lattice, code
/// patch, round buffer and at most one warmed decoder per
/// [`DecoderKind`] variant.
struct DistanceSet {
    lattice: Lattice,
    patch: CodePatch,
    /// Reused detection-round buffer (the `measure_into` target).
    round: DetectionRound,
    decoders: Vec<Warm>,
}

/// Reusable per-worker trial state: for each code distance seen, a
/// lattice, code patch, round buffer and one warmed decoder per
/// [`DecoderKind`] variant, recycled across shots so the Monte-Carlo
/// hot loop performs no per-shot construction.
///
/// A scratch handed a [`TrialConfig`] it has not seen warms what is
/// missing and keeps what it already holds, so a worker moving between
/// the jobs of a mixed campaign never rebuilds a lattice, patch or
/// decoder it has built before.
#[derive(Default)]
pub struct TrialScratch {
    sets: Vec<DistanceSet>,
    /// Reused decode output.
    output: DecodeOutput,
}

impl std::fmt::Debug for TrialScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let distances: Vec<usize> = self.sets.iter().map(|s| s.lattice.distance()).collect();
        f.debug_struct("TrialScratch")
            .field("distances", &distances)
            .finish_non_exhaustive()
    }
}

impl TrialScratch {
    /// Creates an empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Warms the scratch for `cfg` — builds the distance set and the
    /// decoder if missing, and rebuilds a decoder built for a different
    /// window or boundary penalty — and returns the indices of `cfg`'s
    /// distance set and decoder. Idempotent and cheap when already warm.
    fn ensure(&mut self, cfg: &TrialConfig) -> (usize, usize) {
        let set = match self.sets.iter().position(|s| s.lattice.distance() == cfg.d) {
            Some(set) => set,
            None => {
                let lattice = Lattice::new(cfg.d).expect("valid code distance");
                self.sets.push(DistanceSet {
                    patch: CodePatch::new(lattice.clone()),
                    round: DetectionRound::zeros(lattice.num_ancillas()),
                    decoders: Vec::new(),
                    lattice,
                });
                self.sets.len() - 1
            }
        };
        let DistanceSet {
            lattice, decoders, ..
        } = &mut self.sets[set];
        let (window, boundary_penalty) = (cfg.window(), cfg.boundary_penalty);
        let build = || Warm {
            kind: cfg.decoder,
            window,
            boundary_penalty,
            decoder: cfg.decoder.build(lattice, window, boundary_penalty),
        };
        let same_kind =
            |w: &Warm| std::mem::discriminant(&w.kind) == std::mem::discriminant(&cfg.decoder);
        let slot = match decoders.iter().position(same_kind) {
            Some(i) => {
                let warm = &decoders[i];
                if warm.window != window || warm.boundary_penalty != boundary_penalty {
                    decoders[i] = build();
                }
                i
            }
            None => {
                decoders.push(build());
                decoders.len() - 1
            }
        };
        (set, slot)
    }
}

/// Runs one trial with a deterministic seed.
///
/// Convenience wrapper over [`run_trial_into`] with cold scratch; batch
/// callers should hold a [`TrialScratch`] per worker instead.
///
/// # Panics
///
/// Panics if `cfg.d` is not a valid code distance.
pub fn run_trial(cfg: &TrialConfig, seed: u64) -> TrialOutcome {
    let mut scratch = TrialScratch::new();
    let mut out = TrialOutcome::default();
    run_trial_into(cfg, seed, &mut scratch, &mut out);
    out
}

/// Runs one trial with a deterministic seed, reusing `scratch` for all
/// heavy state and writing the result into `out`.
///
/// Every backend runs the same loop: each noisy round is sampled and
/// ingested (on-line QECOOL also decodes it under its cycle budget and
/// the corrections are applied at once), then the closing perfect round
/// is ingested and [`Decoder::finish`] decodes everything left. A
/// register overflow fails the trial.
///
/// The outcome is identical to [`run_trial`] for the same `(cfg, seed)`
/// — scratch reuse is invisible to the physics because every component
/// is reset before the shot.
///
/// # Panics
///
/// Panics if `cfg.d` is not a valid code distance.
pub fn run_trial_into(
    cfg: &TrialConfig,
    seed: u64,
    scratch: &mut TrialScratch,
    out: &mut TrialOutcome,
) {
    let (set, slot) = scratch.ensure(cfg);
    out.reset();
    let DistanceSet {
        patch,
        round,
        decoders,
        ..
    } = &mut scratch.sets[set];
    let output = &mut scratch.output;
    let decoder = decoders[slot].decoder.as_mut();
    let budget = match cfg.decoder {
        DecoderKind::OnlineQecool { budget_cycles } => Some(budget_cycles),
        _ => None,
    };
    // Every noise family flows through the same validated spec — no
    // per-call fan-out over noise kinds.
    let noise = cfg.noise.build();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    patch.reset();
    decoder.reset();
    let overflowed = 'stream: {
        for _ in 0..cfg.rounds {
            patch.noisy_round_into(&noise, &mut rng, round);
            if decoder.ingest(round).is_err() {
                break 'stream true;
            }
            if budget.is_some() {
                decoder.decode_step(budget, output);
                patch.apply_corrections(output.corrections.iter().copied());
            }
        }
        patch.perfect_round_into(round);
        if decoder.ingest(round).is_err() {
            break 'stream true;
        }
        decoder.finish(output);
        patch.apply_corrections(output.corrections.iter().copied());
        false
    };
    if overflowed {
        out.overflow = true;
        out.logical_error = true;
    } else {
        debug_assert!(
            patch.syndrome_is_trivial(),
            "decoder left residual syndrome"
        );
        out.logical_error = patch.has_logical_error();
    }
    decoder.stats_into(&mut out.stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_never_fails() {
        for decoder in [
            DecoderKind::BatchQecool,
            DecoderKind::Mwpm,
            DecoderKind::OnlineQecool {
                budget_cycles: 2000,
            },
        ] {
            let cfg = TrialConfig::standard(5, 0.0, decoder);
            for seed in 0..5 {
                let out = run_trial(&cfg, seed);
                assert!(!out.logical_error, "{decoder:?} seed {seed}");
                assert!(!out.overflow);
            }
        }
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let cfg = TrialConfig::standard(5, 0.02, DecoderKind::BatchQecool);
        let a = run_trial(&cfg, 42);
        let b = run_trial(&cfg, 42);
        assert_eq!(a.logical_error, b.logical_error);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn different_decoders_share_the_same_error_stream() {
        // Same seed => same noise realization; MWPM should fail no more
        // often than QECOOL over a small ensemble.
        let mut q_fail = 0;
        let mut m_fail = 0;
        for seed in 0..40 {
            let q = run_trial(
                &TrialConfig::standard(5, 0.04, DecoderKind::BatchQecool),
                seed,
            );
            let m = run_trial(&TrialConfig::standard(5, 0.04, DecoderKind::Mwpm), seed);
            q_fail += usize::from(q.logical_error);
            m_fail += usize::from(m.logical_error);
        }
        assert!(m_fail <= q_fail + 3, "MWPM {m_fail} vs QECOOL {q_fail}");
    }

    #[test]
    fn online_matches_batch_at_generous_budget_and_low_noise() {
        // With an enormous budget the on-line decoder never overflows and
        // behaves like a (greedier) batch decoder on sparse errors.
        let cfg = TrialConfig::standard(
            5,
            0.005,
            DecoderKind::OnlineQecool {
                budget_cycles: 1_000_000,
            },
        );
        let mut overflows = 0;
        for seed in 0..30 {
            let out = run_trial(&cfg, seed);
            overflows += usize::from(out.overflow);
        }
        assert_eq!(overflows, 0);
    }

    #[test]
    fn tiny_budget_causes_overflow_at_high_noise() {
        let cfg = TrialConfig {
            d: 9,
            rounds: 9,
            decoder: DecoderKind::OnlineQecool { budget_cycles: 5 },
            noise: NoiseSpec::Phenomenological { p: 0.02 },
            boundary_penalty: DEFAULT_BOUNDARY_PENALTY,
        };
        let overflows: usize = (0..20)
            .map(|s| usize::from(run_trial(&cfg, s).overflow))
            .sum();
        assert!(
            overflows > 10,
            "expected frequent overflow, got {overflows}/20"
        );
    }

    #[test]
    fn code_capacity_trials_have_single_round() {
        let cfg = TrialConfig::code_capacity(5, 0.05, DecoderKind::BatchQecool);
        assert_eq!(cfg.rounds, 1);
        let out = run_trial(&cfg, 3);
        // One closing layer + the noisy layer = 2 retired layers.
        assert_eq!(out.stats.layer_cycles.count, 2);
    }

    #[test]
    fn warm_scratch_reproduces_cold_trials() {
        // Scratch reuse must be invisible: interleave decoders and
        // distances through ONE scratch and compare against fresh runs.
        let mut scratch = TrialScratch::new();
        let mut out = TrialOutcome::default();
        let mix = [
            TrialConfig::standard(5, 0.04, DecoderKind::BatchQecool),
            TrialConfig::standard(3, 0.04, DecoderKind::Mwpm),
            TrialConfig::standard(5, 0.04, DecoderKind::UnionFind),
            TrialConfig::standard(
                5,
                0.04,
                DecoderKind::OnlineQecool {
                    budget_cycles: 2000,
                },
            ),
            TrialConfig::standard(3, 0.04, DecoderKind::BatchQecool),
        ];
        for seed in 0..6u64 {
            for cfg in &mix {
                run_trial_into(cfg, seed, &mut scratch, &mut out);
                let fresh = run_trial(cfg, seed);
                assert_eq!(
                    out.logical_error, fresh.logical_error,
                    "{cfg:?} seed {seed}"
                );
                assert_eq!(out.overflow, fresh.overflow);
                assert_eq!(out.stats.layer_cycles, fresh.stats.layer_cycles);
                assert_eq!(out.stats.vertical_hist, fresh.stats.vertical_hist);
                assert_eq!(out.stats.matches, fresh.stats.matches);
            }
        }
    }

    #[test]
    fn interleaved_kinds_and_distances_keep_their_warm_decoders() {
        // One slot per kind per distance: cycling through all four kinds
        // at two distances must not rebuild any decoder after the first
        // pass.
        let kinds = [
            DecoderKind::BatchQecool,
            DecoderKind::OnlineQecool {
                budget_cycles: 2000,
            },
            DecoderKind::Mwpm,
            DecoderKind::UnionFind,
        ];
        let mut scratch = TrialScratch::new();
        let mut out = TrialOutcome::default();
        let addresses = |scratch: &TrialScratch| -> Vec<*const ()> {
            scratch
                .sets
                .iter()
                .flat_map(|set| &set.decoders)
                .map(|w| std::ptr::from_ref(&*w.decoder).cast::<()>())
                .collect()
        };
        let mut first = None;
        for seed in 0..3u64 {
            for d in [5, 3] {
                for kind in kinds {
                    let cfg = TrialConfig::standard(d, 0.02, kind);
                    run_trial_into(&cfg, seed, &mut scratch, &mut out);
                }
            }
            let now = addresses(&scratch);
            assert_eq!(now.len(), 2 * kinds.len());
            assert_eq!(first.get_or_insert(now.clone()), &now, "seed {seed}");
        }
    }

    #[test]
    fn every_noise_family_runs_through_one_construction_site() {
        // Compile-time pin: this match lists every NoiseSpec variant
        // with NO wildcard arm, so adding a family without threading it
        // through `TrialConfig` fails to compile right here.
        fn family_of(spec: NoiseSpec) -> &'static str {
            match spec {
                NoiseSpec::Phenomenological { .. } => "phenomenological",
                NoiseSpec::Asymmetric { .. } => "asymmetric",
                NoiseSpec::CodeCapacity { .. } => "code_capacity",
                NoiseSpec::Biased { .. } => "biased",
                NoiseSpec::Erasure { .. } => "erasure",
                NoiseSpec::Burst { .. } => "burst",
            }
        }
        for family in NoiseSpec::FAMILIES {
            let spec = NoiseSpec::parse(family).expect(family).with_rate(0.01);
            assert_eq!(family_of(spec), *family);
            let cfg = TrialConfig {
                d: 3,
                rounds: 3,
                decoder: DecoderKind::BatchQecool,
                noise: spec,
                boundary_penalty: DEFAULT_BOUNDARY_PENALTY,
            };
            assert_eq!(cfg.p(), 0.01);
            // Every family actually runs end to end, deterministically.
            let a = run_trial(&cfg, 11);
            let b = run_trial(&cfg, 11);
            assert_eq!(a.logical_error, b.logical_error, "{family}");
            assert_eq!(a.stats, b.stats, "{family}");
        }
    }

    #[test]
    fn qecool_telemetry_is_populated() {
        let cfg = TrialConfig::standard(5, 0.05, DecoderKind::BatchQecool);
        let out = run_trial(&cfg, 7);
        assert_eq!(out.stats.layer_cycles.count, cfg.rounds as u64 + 1);
        // At p = 0.05 on d = 5 some matches almost surely happened.
        assert!(out.stats.matches > 0);
        assert!(!out.stats.vertical_hist.is_empty());
    }
}
