//! Adaptive Monte-Carlo campaigns with checkpoint/restart.
//!
//! A **campaign** is a list of [`CampaignJob`]s (one `(trial, shot
//! quota)` per sweep point) executed through the
//! [`DecodeEngine`] in fixed-size deterministic **chunks**, optionally
//! extended by an adaptive [`StopRule`] that keeps spending a shot
//! budget on whichever points still have the widest Clopper–Pearson
//! confidence intervals. Progress is periodically serialized to a
//! versioned JSON checkpoint file, and a campaign resumed from a
//! checkpoint produces final [`McResult`]s **byte-identical** to the
//! uninterrupted run — the property `tests/campaign.rs` enforces by
//! killing and resuming runners at injected chunk boundaries.
//!
//! # Determinism model
//!
//! * Trial `t` of job `j` is always seeded
//!   [`derive_seed`]`(base_seed, j, t)` — a function of the campaign
//!   seed and the trial's logical position only. Chunk boundaries,
//!   thread counts and interruptions never touch seeds.
//! * Work is planned in **rounds** of at most
//!   [`CampaignConfig::round_chunks`] chunks; a campaign with no
//!   checkpoint path, no stop rule and no injected interrupt plans its
//!   whole quota as one round (one engine batch). Every planning decision
//!   (including adaptive reallocation) is a pure function of the
//!   accumulated per-job tallies, so replanning after a restart
//!   reproduces the original schedule exactly.
//! * A checkpoint is written after every round (when a path is
//!   configured). A crash *between* checkpoints loses at most one round
//!   of work, which the resumed campaign re-executes identically —
//!   merged aggregates are sums of integer counters, so the final
//!   result is unchanged down to the last bit.
//!
//! # Checkpoint format and compatibility policy
//!
//! Checkpoints are a single JSON object (rendered by
//! [`qecool::json`], which keeps integers — including the `u128`
//! cycle sum-of-squares — exact):
//!
//! ```json
//! {
//!   "version": 2,
//!   "job_list_hash": 1234,        // FNV-1a over jobs + seed layout
//!   "base_seed": 2021,
//!   "chunk_shots": 64,
//!   "round_chunks": 8,
//!   "stop": {"target_ci_width": 0.01, "extra_shot_budget": 100000},
//!   "budget_left": 99936,
//!   "chunks_done": 17,
//!   "jobs": [
//!     {"shots": 640, "failures": 3, "overflows": 0, "matches": 1201,
//!      "cycles": {"count": 2560, "sum": 81920, "sum_sq": 2621440, "max": 96},
//!      "vertical_hist": [1100, 101]},
//!     ...
//!   ]
//! }
//! ```
//!
//! * `version` is [`CHECKPOINT_VERSION`]. Any change to the schema or to
//!   the seed-derivation function bumps it; resuming across versions is
//!   a hard [`CampaignError::VersionMismatch`], never a best-effort
//!   migration, because silent reinterpretation would break the
//!   byte-identity guarantee.
//! * The job list itself is **not** persisted — the resuming caller
//!   supplies it again (it is derived from CLI flags / sweep grids) and
//!   `job_list_hash` plus the explicit config fields verify it is the
//!   same campaign. Mismatches are named errors
//!   ([`CampaignError::JobListMismatch`] /
//!   [`CampaignError::ConfigMismatch`]); a bad checkpoint never silently
//!   degrades into a fresh start.
//! * Writes are atomic: the file is written to `<path>.tmp` and then
//!   renamed, so a crash mid-write leaves the previous checkpoint
//!   intact.
//!
//! # Example
//!
//! ```
//! use qecool_sim::campaign::{CampaignConfig, CampaignJob, CampaignRunner, RunOutcome};
//! use qecool_sim::engine::DecodeEngine;
//! use qecool_sim::trials::{DecoderKind, TrialConfig};
//!
//! let engine = DecodeEngine::with_threads(2);
//! let jobs = vec![CampaignJob {
//!     trial: TrialConfig::standard(3, 0.02, DecoderKind::BatchQecool),
//!     shots: 100,
//! }];
//! let mut runner = CampaignRunner::new(&engine, jobs, CampaignConfig::with_seed(7));
//! let RunOutcome::Complete(report) = runner.run().unwrap() else {
//!     unreachable!("no interrupt configured");
//! };
//! assert_eq!(report.results[0].shots, 100);
//! ```

use std::path::{Path, PathBuf};

use qecool::json::{obj, Json};

use crate::engine::{DecodeEngine, McJob};
use crate::montecarlo::McResult;
use crate::stats::CycleAggregate;
use crate::trials::{DecoderKind, TrialConfig};
use qecool_surface_code::NoiseSpec;

/// Schema version of the checkpoint file. Bumped on any change to the
/// serialized fields **or** to [`derive_seed`] — both would break the
/// resumed-equals-uninterrupted guarantee across versions.
pub const CHECKPOINT_VERSION: u64 = 2;

/// SplitMix64 finalizer: the standard 64-bit avalanche mix.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed for trial `trial` of job `job` under campaign
/// base seed `base`.
///
/// This is the **one** audited seed-splitting function of the
/// workspace: the engine and the campaign runner derive per-trial
/// seeds through it. It replaces the historic
/// `base_seed + index` arithmetic, whose streams collided wholesale for
/// adjacent base seeds (`base` and `base + 1` shared all but one trial
/// seed) and for adjacent jobs seeded `base + k·stride`.
///
/// Each argument is absorbed through a full SplitMix64 avalanche round,
/// so adjacent `(base, job, trial)` triples map to unrelated seeds; the
/// collision tests in this module pin that down for the grid sizes real
/// campaigns use. Changing this function invalidates checkpoints —
/// bump [`CHECKPOINT_VERSION`] alongside it.
#[inline]
pub fn derive_seed(base: u64, job: u64, trial: u64) -> u64 {
    splitmix(splitmix(splitmix(base) ^ job) ^ trial)
}

/// One sweep point of a campaign: a trial configuration and its
/// initial shot quota.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignJob {
    /// The trial configuration sampled at this point.
    pub trial: TrialConfig,
    /// Initial (unconditional) shot quota; the adaptive phase may add
    /// more on top.
    pub shots: usize,
}

/// Adaptive stop rule: keep spending budget until every point's 95%
/// Clopper–Pearson interval on the logical error rate is narrow enough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Target Clopper–Pearson interval width per point (exclusive upper
    /// bound on "loose").
    pub target_ci_width: f64,
    /// Extra shots available beyond the initial quotas, shared across
    /// all points and spent loosest-first.
    pub extra_shot_budget: u64,
}

/// Tuning of a [`CampaignRunner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Campaign base seed; all trial seeds derive from it via
    /// [`derive_seed`].
    pub base_seed: u64,
    /// Trials per chunk — the unit of scheduling and interruption.
    /// Chunk size never affects results, only granularity.
    pub chunk_shots: usize,
    /// Maximum chunks planned (and executed as one engine batch) per
    /// round; a checkpoint is written after every round. Ignored, so
    /// the whole quota is one round, when the runner has no checkpoint
    /// path, stop rule or injected interrupt. Smaller values
    /// bound the work lost to preemption, larger values amortize
    /// serialization. Part of the checkpoint-compatibility config: the
    /// adaptive schedule replans at round boundaries, so resuming with
    /// a different value is a [`CampaignError::ConfigMismatch`].
    pub round_chunks: usize,
    /// Adaptive stop rule; `None` runs exactly the initial quotas.
    pub stop: Option<StopRule>,
}

impl CampaignConfig {
    /// A fixed-quota configuration (no stop rule) with default chunking.
    pub fn with_seed(base_seed: u64) -> Self {
        Self {
            base_seed,
            chunk_shots: 64,
            round_chunks: 8,
            stop: None,
        }
    }

    fn validate(&self) {
        assert!(self.chunk_shots > 0, "chunk_shots must be positive");
        assert!(self.round_chunks > 0, "round_chunks must be positive");
        if let Some(stop) = &self.stop {
            assert!(
                stop.target_ci_width > 0.0
                    && stop.target_ci_width < 1.0
                    && stop.target_ci_width.is_finite(),
                "target_ci_width must be in (0, 1), got {}",
                stop.target_ci_width
            );
        }
    }
}

/// Why a campaign (or one of its jobs) stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// No stop rule: every job ran exactly its quota.
    QuotaComplete,
    /// Every point reached the target CI width.
    Converged,
    /// The extra shot budget ran out with at least one point still
    /// looser than the target. Reported distinctly from convergence so
    /// fleet drivers can tell "done" from "needs more budget".
    BudgetExhausted,
}

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran its quota (no stop rule configured).
    QuotaDone,
    /// CI width is at or below the target.
    Converged,
    /// Still looser than the target when the budget ran out.
    BudgetExhausted,
}

/// Final report of a completed campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Aggregate per job, in job order — byte-identical to what an
    /// uninterrupted (or monolithic [`DecodeEngine::run_batch`]) run
    /// produces.
    pub results: Vec<McResult>,
    /// Terminal state per job.
    pub job_status: Vec<JobStatus>,
    /// Overall terminal state.
    pub status: CampaignStatus,
    /// Chunks executed by *this* run (0 when resuming an already
    /// complete campaign).
    pub chunks_run: u64,
    /// Shots executed by *this* run.
    pub shots_run: u64,
}

/// Outcome of one [`CampaignRunner::run`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The campaign finished; final results inside.
    Complete(CampaignReport),
    /// The injected interrupt fired after a round boundary (state was
    /// checkpointed first if a path is configured). Call `run` again —
    /// or resume from the checkpoint in a fresh process — to continue.
    Interrupted {
        /// Chunks executed by this run before stopping.
        chunks_run: u64,
    },
}

/// Everything that can go wrong with checkpoint persistence. Each
/// variant is a *named* failure the bench binaries map to exit code 2;
/// a damaged or mismatched checkpoint never silently falls back to a
/// fresh campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// Reading or writing the checkpoint file failed.
    Io(String),
    /// The file is not a well-formed checkpoint: garbage or truncated
    /// JSON, missing fields, or internally inconsistent counters.
    Corrupt(String),
    /// The checkpoint was written by a different schema version.
    VersionMismatch {
        /// Version found in the file.
        found: u64,
        /// Version this build writes ([`CHECKPOINT_VERSION`]).
        expected: u64,
    },
    /// The checkpoint belongs to a different job list.
    JobListMismatch {
        /// Hash found in the file.
        found: u64,
        /// Hash of the job list supplied at resume.
        expected: u64,
    },
    /// A compatibility-relevant config field differs between the
    /// checkpoint and the resuming configuration.
    ConfigMismatch {
        /// Name of the offending field.
        field: &'static str,
        /// Value found in the checkpoint.
        found: String,
        /// Value in the resuming configuration.
        expected: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(detail) => write!(f, "checkpoint I/O error: {detail}"),
            CampaignError::Corrupt(detail) => write!(f, "corrupt checkpoint: {detail}"),
            CampaignError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version mismatch: file has v{found}, this build expects v{expected}"
            ),
            CampaignError::JobListMismatch { found, expected } => write!(
                f,
                "checkpoint job-list mismatch: file hash {found:#018x}, \
                 supplied jobs hash {expected:#018x} (different campaign?)"
            ),
            CampaignError::ConfigMismatch {
                field,
                found,
                expected,
            } => write!(
                f,
                "checkpoint config mismatch on '{field}': file has {found}, \
                 resuming config has {expected}"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl qecool::FatalError for CampaignError {}

/// Accumulated per-job state; `mc.shots` doubles as the trial cursor.
#[derive(Debug, Clone, Default, PartialEq)]
struct JobState {
    mc: McResult,
}

/// One planned chunk: trials `[start, start + len)` of job `job`.
#[derive(Debug, Clone, Copy)]
struct ChunkAlloc {
    job: usize,
    start: u64,
    len: usize,
}

/// The campaign runner; see the module docs for the execution and
/// determinism model.
#[derive(Debug)]
pub struct CampaignRunner<'a> {
    engine: &'a DecodeEngine,
    jobs: Vec<CampaignJob>,
    config: CampaignConfig,
    state: Vec<JobState>,
    budget_left: u64,
    chunks_done: u64,
    checkpoint_path: Option<PathBuf>,
    interrupt_after_chunks: Option<u64>,
}

impl<'a> CampaignRunner<'a> {
    /// A fresh campaign (no prior progress).
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (zero chunk/round sizes, target
    /// CI width outside `(0, 1)`).
    pub fn new(engine: &'a DecodeEngine, jobs: Vec<CampaignJob>, config: CampaignConfig) -> Self {
        config.validate();
        let budget_left = config.stop.map_or(0, |s| s.extra_shot_budget);
        let state = vec![JobState::default(); jobs.len()];
        Self {
            engine,
            jobs,
            config,
            state,
            budget_left,
            chunks_done: 0,
            checkpoint_path: None,
            interrupt_after_chunks: None,
        }
    }

    /// Restores a campaign from the checkpoint file at `path`. The
    /// caller supplies the same job list and configuration as the
    /// original run; the checkpoint verifies them.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when the file cannot be read (a missing
    /// checkpoint is an error, never a silent fresh start), otherwise
    /// whatever [`Self::resume_from_str`] reports.
    pub fn resume(
        engine: &'a DecodeEngine,
        jobs: Vec<CampaignJob>,
        config: CampaignConfig,
        path: &Path,
    ) -> Result<Self, CampaignError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CampaignError::Io(format!("cannot read {}: {e}", path.display())))?;
        let mut runner = Self::resume_from_str(engine, jobs, config, &text)?;
        runner.checkpoint_path = Some(path.to_owned());
        Ok(runner)
    }

    /// Restores a campaign from checkpoint text (the file-free core of
    /// [`Self::resume`], used directly by the torn-write tests).
    ///
    /// # Errors
    ///
    /// The named [`CampaignError`] variant for each failure mode:
    /// `Corrupt` for unparseable or inconsistent content,
    /// `VersionMismatch`, `JobListMismatch` and `ConfigMismatch` for
    /// checkpoints from a different schema, job list or configuration.
    pub fn resume_from_str(
        engine: &'a DecodeEngine,
        jobs: Vec<CampaignJob>,
        config: CampaignConfig,
        text: &str,
    ) -> Result<Self, CampaignError> {
        let mut runner = Self::new(engine, jobs, config);
        runner.restore(text)?;
        Ok(runner)
    }

    /// Configures periodic checkpointing to `path` (written atomically
    /// after every round and on completion).
    #[must_use]
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Injects an interrupt: [`Self::run`] returns
    /// [`RunOutcome::Interrupted`] at the first round boundary at or
    /// after `chunks` chunks executed by that run. This is the
    /// kill/resume test hook (and powers the bench binaries'
    /// `--kill-after-chunks` crash simulation).
    #[must_use]
    pub fn interrupt_after_chunks(mut self, chunks: u64) -> Self {
        self.interrupt_after_chunks = Some(chunks);
        self
    }

    /// The engine this campaign runs on.
    pub fn engine(&self) -> &DecodeEngine {
        self.engine
    }

    /// Accumulated per-job aggregates (partial until complete).
    pub fn results(&self) -> Vec<McResult> {
        self.state.iter().map(|s| s.mc.clone()).collect()
    }

    /// Total chunks executed over the campaign's lifetime (across
    /// resumes).
    pub fn chunks_done(&self) -> u64 {
        self.chunks_done
    }

    /// Remaining adaptive shot budget (0 without a stop rule).
    pub fn budget_left(&self) -> u64 {
        self.budget_left
    }

    /// FNV-1a hash of the job list and seed layout, stored in
    /// checkpoints to reject resumes against a different campaign.
    pub fn job_list_hash(&self) -> u64 {
        job_list_hash(&self.jobs)
    }

    /// Runs the campaign to completion (or to the injected interrupt),
    /// checkpointing after every round when a path is configured.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when a checkpoint write fails; planning and
    /// execution themselves are infallible.
    pub fn run(&mut self) -> Result<RunOutcome, CampaignError> {
        let mut chunks_run = 0u64;
        let mut shots_run = 0u64;
        loop {
            let round = self.plan_round();
            if round.is_empty() {
                self.write_checkpoint_if_configured()?;
                return Ok(RunOutcome::Complete(self.report(chunks_run, shots_run)));
            }
            let batch: Vec<McJob> = round
                .iter()
                .map(|alloc| McJob {
                    trial: self.jobs[alloc.job].trial,
                    shots: alloc.len,
                    base_seed: self.config.base_seed,
                    stream: alloc.job as u64,
                    first_trial: alloc.start,
                })
                .collect();
            let partials = self.engine.run_batch(&batch);
            for (alloc, partial) in round.iter().zip(partials) {
                shots_run += partial.shots as u64;
                self.state[alloc.job].mc.merge(partial);
            }
            self.chunks_done += round.len() as u64;
            chunks_run += round.len() as u64;
            self.write_checkpoint_if_configured()?;
            if let Some(limit) = self.interrupt_after_chunks {
                if chunks_run >= limit {
                    return Ok(RunOutcome::Interrupted { chunks_run });
                }
            }
        }
    }

    /// Plans the next round: a pure function of the accumulated state.
    ///
    /// Quota deficits are scheduled first (job order, chunked); once all
    /// quotas are met the adaptive phase allocates budgeted chunks to
    /// the points with the widest Clopper–Pearson intervals. An empty
    /// plan means the campaign is finished (converged, quota-complete,
    /// or out of budget).
    fn plan_round(&mut self) -> Vec<ChunkAlloc> {
        // Nothing can observe a campaign mid-run without a checkpoint,
        // a stop rule or an interrupt, so its whole quota is one round:
        // one engine batch, as wide as the pool.
        let unobserved = self.checkpoint_path.is_none()
            && self.config.stop.is_none()
            && self.interrupt_after_chunks.is_none();
        let cap = if unobserved {
            usize::MAX
        } else {
            self.config.round_chunks
        };
        let chunk = self.config.chunk_shots as u64;
        let mut round = Vec::new();
        // Phase 1: initial quotas, in job order.
        for (idx, job) in self.jobs.iter().enumerate() {
            let quota = job.shots as u64;
            let mut start = self.state[idx].mc.shots as u64;
            while start < quota && round.len() < cap {
                let len = chunk.min(quota - start);
                round.push(ChunkAlloc {
                    job: idx,
                    start,
                    len: len as usize,
                });
                start += len;
            }
            if round.len() >= cap {
                return round;
            }
        }
        if !round.is_empty() {
            return round;
        }
        // Phase 2: adaptive reallocation, loosest points first.
        let Some(stop) = self.config.stop else {
            return round;
        };
        if self.budget_left == 0 {
            return round;
        }
        let mut open: Vec<(usize, f64, u64)> = Vec::new();
        for (idx, state) in self.state.iter().enumerate() {
            let est = state.mc.logical_error_rate();
            let width = est.clopper_pearson_width();
            if width > stop.target_ci_width {
                let needed = est
                    .shots_to_cp_width(stop.target_ci_width)
                    .saturating_sub(est.shots as u64)
                    .max(1);
                open.push((idx, width, needed));
            }
        }
        open.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        'alloc: for (idx, _width, needed) in open {
            let mut remaining = needed;
            let mut start = self.state[idx].mc.shots as u64;
            while remaining > 0 && self.budget_left > 0 {
                if round.len() >= cap {
                    break 'alloc;
                }
                let len = chunk.min(remaining).min(self.budget_left);
                round.push(ChunkAlloc {
                    job: idx,
                    start,
                    len: len as usize,
                });
                start += len;
                remaining -= len;
                self.budget_left -= len;
            }
        }
        round
    }

    fn report(&self, chunks_run: u64, shots_run: u64) -> CampaignReport {
        let (status, job_status) = match self.config.stop {
            None => (
                CampaignStatus::QuotaComplete,
                vec![JobStatus::QuotaDone; self.jobs.len()],
            ),
            Some(stop) => {
                let per_job: Vec<JobStatus> = self
                    .state
                    .iter()
                    .map(|s| {
                        let width = s.mc.logical_error_rate().clopper_pearson_width();
                        if width <= stop.target_ci_width {
                            JobStatus::Converged
                        } else {
                            JobStatus::BudgetExhausted
                        }
                    })
                    .collect();
                let status = if per_job.iter().all(|s| *s == JobStatus::Converged) {
                    CampaignStatus::Converged
                } else {
                    CampaignStatus::BudgetExhausted
                };
                (status, per_job)
            }
        };
        CampaignReport {
            results: self.results(),
            job_status,
            status,
            chunks_run,
            shots_run,
        }
    }

    // --- checkpoint serialization -------------------------------------

    /// Renders the current state as checkpoint JSON.
    pub fn render_checkpoint(&self) -> String {
        let jobs: Vec<Json> = self
            .state
            .iter()
            .map(|s| {
                let mc = &s.mc;
                obj([
                    ("shots", Json::UInt(mc.shots as u128)),
                    ("failures", Json::UInt(mc.failures as u128)),
                    ("overflows", Json::UInt(mc.overflows as u128)),
                    ("matches", Json::UInt(u128::from(mc.matches))),
                    (
                        "cycles",
                        obj([
                            ("count", Json::UInt(u128::from(mc.layer_cycles.count))),
                            ("sum", Json::UInt(u128::from(mc.layer_cycles.sum))),
                            ("sum_sq", Json::UInt(mc.layer_cycles.sum_sq)),
                            ("max", Json::UInt(u128::from(mc.layer_cycles.max))),
                        ]),
                    ),
                    (
                        "vertical_hist",
                        Json::Arr(
                            mc.vertical_hist
                                .iter()
                                .map(|&v| Json::UInt(u128::from(v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let stop = match self.config.stop {
            None => Json::Null,
            Some(stop) => obj([
                ("target_ci_width", Json::Num(stop.target_ci_width)),
                (
                    "extra_shot_budget",
                    Json::UInt(u128::from(stop.extra_shot_budget)),
                ),
            ]),
        };
        obj([
            ("version", Json::UInt(u128::from(CHECKPOINT_VERSION))),
            (
                "job_list_hash",
                Json::UInt(u128::from(self.job_list_hash())),
            ),
            ("base_seed", Json::UInt(u128::from(self.config.base_seed))),
            ("chunk_shots", Json::UInt(self.config.chunk_shots as u128)),
            ("round_chunks", Json::UInt(self.config.round_chunks as u128)),
            ("stop", stop),
            ("budget_left", Json::UInt(u128::from(self.budget_left))),
            ("chunks_done", Json::UInt(u128::from(self.chunks_done))),
            ("jobs", Json::Arr(jobs)),
        ])
        .render()
    }

    /// Atomically writes the current state to `path`: the content goes
    /// to `<path>.tmp` first and is renamed into place, so a crash
    /// mid-write leaves any previous checkpoint at `path` valid.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] with the failing path and OS detail.
    pub fn write_checkpoint(&self, path: &Path) -> Result<(), CampaignError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, self.render_checkpoint())
            .map_err(|e| CampaignError::Io(format!("cannot write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            CampaignError::Io(format!("cannot rename {} into place: {e}", tmp.display()))
        })
    }

    fn write_checkpoint_if_configured(&self) -> Result<(), CampaignError> {
        match &self.checkpoint_path {
            Some(path) => self.write_checkpoint(path),
            None => Ok(()),
        }
    }

    /// Installs state parsed from checkpoint text, verifying version,
    /// job list and config compatibility first.
    fn restore(&mut self, text: &str) -> Result<(), CampaignError> {
        let root = Json::parse(text).map_err(CampaignError::Corrupt)?;
        let version = req_u64(&root, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CampaignError::VersionMismatch {
                found: version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let found_hash = req_u64(&root, "job_list_hash")?;
        let expected_hash = self.job_list_hash();
        if found_hash != expected_hash {
            return Err(CampaignError::JobListMismatch {
                found: found_hash,
                expected: expected_hash,
            });
        }
        check_config_u64(&root, "base_seed", self.config.base_seed)?;
        check_config_u64(&root, "chunk_shots", self.config.chunk_shots as u64)?;
        check_config_u64(&root, "round_chunks", self.config.round_chunks as u64)?;
        let stop_json = root
            .get("stop")
            .ok_or_else(|| CampaignError::Corrupt("missing field 'stop'".into()))?;
        match (self.config.stop, stop_json) {
            (None, Json::Null) => {}
            (Some(stop), json @ Json::Obj(_)) => {
                let target = json
                    .get("target_ci_width")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| {
                        CampaignError::Corrupt("stop rule missing 'target_ci_width'".into())
                    })?;
                if target.to_bits() != stop.target_ci_width.to_bits() {
                    return Err(CampaignError::ConfigMismatch {
                        field: "stop.target_ci_width",
                        found: format!("{target}"),
                        expected: format!("{}", stop.target_ci_width),
                    });
                }
                let budget = json
                    .get("extra_shot_budget")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| {
                        CampaignError::Corrupt("stop rule missing 'extra_shot_budget'".into())
                    })?;
                if budget != stop.extra_shot_budget {
                    return Err(CampaignError::ConfigMismatch {
                        field: "stop.extra_shot_budget",
                        found: budget.to_string(),
                        expected: stop.extra_shot_budget.to_string(),
                    });
                }
            }
            (config_stop, _) => {
                return Err(CampaignError::ConfigMismatch {
                    field: "stop",
                    found: if matches!(stop_json, Json::Null) {
                        "none".into()
                    } else {
                        "a stop rule".into()
                    },
                    expected: if config_stop.is_some() {
                        "a stop rule".into()
                    } else {
                        "none".into()
                    },
                });
            }
        }
        let budget_left = req_u64(&root, "budget_left")?;
        let budget_total = self.config.stop.map_or(0, |s| s.extra_shot_budget);
        if budget_left > budget_total {
            return Err(CampaignError::Corrupt(format!(
                "budget_left {budget_left} exceeds the configured budget {budget_total}"
            )));
        }
        let chunks_done = req_u64(&root, "chunks_done")?;
        let jobs_json = root
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| CampaignError::Corrupt("missing or non-array field 'jobs'".into()))?;
        if jobs_json.len() != self.jobs.len() {
            return Err(CampaignError::Corrupt(format!(
                "checkpoint has {} job entries, campaign has {}",
                jobs_json.len(),
                self.jobs.len()
            )));
        }
        let mut state = Vec::with_capacity(jobs_json.len());
        for (idx, entry) in jobs_json.iter().enumerate() {
            state.push(JobState {
                mc: parse_mc(entry)
                    .map_err(|detail| CampaignError::Corrupt(format!("job {idx}: {detail}")))?,
            });
        }
        self.state = state;
        self.budget_left = budget_left;
        self.chunks_done = chunks_done;
        Ok(())
    }
}

/// Reads a required `u64` field off the checkpoint root.
fn req_u64(root: &Json, key: &str) -> Result<u64, CampaignError> {
    root.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| CampaignError::Corrupt(format!("missing or non-integer field '{key}'")))
}

/// Verifies a checkpointed config field matches the resuming config.
fn check_config_u64(root: &Json, field: &'static str, expected: u64) -> Result<(), CampaignError> {
    let found = root
        .get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| CampaignError::Corrupt(format!("missing or non-integer field '{field}'")))?;
    if found != expected {
        return Err(CampaignError::ConfigMismatch {
            field,
            found: found.to_string(),
            expected: expected.to_string(),
        });
    }
    Ok(())
}

fn parse_mc(entry: &Json) -> Result<McResult, String> {
    let get_u64 = |key: &str| -> Result<u64, String> {
        entry
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field '{key}'"))
    };
    let shots = get_u64("shots")? as usize;
    let failures = get_u64("failures")? as usize;
    let overflows = get_u64("overflows")? as usize;
    if failures > shots || overflows > shots || overflows > failures {
        return Err(format!(
            "inconsistent counters: {failures} failures / {overflows} overflows of {shots} shots"
        ));
    }
    let cycles = entry
        .get("cycles")
        .ok_or_else(|| "missing field 'cycles'".to_owned())?;
    let cyc_u64 = |key: &str| -> Result<u64, String> {
        cycles
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field 'cycles.{key}'"))
    };
    let layer_cycles = CycleAggregate {
        count: cyc_u64("count")?,
        sum: cyc_u64("sum")?,
        sum_sq: cycles
            .get("sum_sq")
            .and_then(Json::as_u128)
            .ok_or_else(|| "missing or non-integer field 'cycles.sum_sq'".to_owned())?,
        max: cyc_u64("max")?,
    };
    let vertical_hist = entry
        .get("vertical_hist")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing or non-array field 'vertical_hist'".to_owned())?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| "non-integer vertical_hist entry".to_owned())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(McResult {
        shots,
        failures,
        overflows,
        layer_cycles,
        vertical_hist,
        matches: get_u64("matches")?,
    })
}

/// FNV-1a over the fields that define a campaign's identity: every job's
/// trial configuration and quota, in order. Seed/chunk layout lives in
/// explicit checkpoint fields (better error messages), so it is not
/// folded in here.
fn job_list_hash(jobs: &[CampaignJob]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01B3);
        }
    };
    fold(jobs.len() as u64);
    for job in jobs {
        let t = &job.trial;
        fold(t.d as u64);
        fold(t.rounds as u64);
        let (decoder_tag, decoder_arg) = match t.decoder {
            DecoderKind::BatchQecool => (0u64, 0u64),
            DecoderKind::OnlineQecool { budget_cycles } => (1, budget_cycles),
            DecoderKind::Mwpm => (2, 0),
            DecoderKind::UnionFind => (3, 0),
        };
        fold(decoder_tag);
        fold(decoder_arg);
        // Noise identity: a family tag plus every parameter's exact
        // bits. Same shape (tag, rate bits, …) the v1 hash used for its
        // two families, extended to the full NoiseSpec matrix.
        let (noise_tag, params) = match t.noise {
            NoiseSpec::Phenomenological { p } => (0u64, [p, 0.0, 0.0]),
            NoiseSpec::CodeCapacity { p } => (1, [p, 0.0, 0.0]),
            NoiseSpec::Asymmetric { p, q } => (2, [p, q, 0.0]),
            NoiseSpec::Biased { p, eta } => (3, [p, eta, 0.0]),
            NoiseSpec::Erasure { p, e } => (4, [p, e, 0.0]),
            NoiseSpec::Burst { p, burst, mean_len } => (5, [p, burst, mean_len]),
        };
        fold(noise_tag);
        for param in params {
            fold(param.to_bits());
        }
        fold(t.boundary_penalty);
        fold(job.shots as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DecodeEngine;
    use crate::trials::DecoderKind;
    use proptest::prelude::*;

    fn job(d: usize, p: f64, shots: usize) -> CampaignJob {
        CampaignJob {
            trial: TrialConfig::standard(d, p, DecoderKind::BatchQecool),
            shots,
        }
    }

    fn monolithic(jobs: &[CampaignJob], base_seed: u64, threads: usize) -> Vec<McResult> {
        let engine = DecodeEngine::with_threads(threads);
        let batch: Vec<McJob> = jobs
            .iter()
            .enumerate()
            .map(|(idx, j)| McJob {
                trial: j.trial,
                shots: j.shots,
                base_seed,
                stream: idx as u64,
                first_trial: 0,
            })
            .collect();
        engine.run_batch(&batch)
    }

    #[test]
    fn derive_seed_has_no_collisions_on_campaign_grids() {
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1, 2021] {
            for job in 0..48u64 {
                for trial in 0..192u64 {
                    assert!(
                        seen.insert(derive_seed(base, job, trial)),
                        "collision at base {base}, job {job}, trial {trial}"
                    );
                }
            }
            seen.clear();
            // Adjacent bases must not share trial streams (the historic
            // `base + i` footgun): compare the full grids pairwise.
            let grid = |b: u64| -> std::collections::HashSet<u64> {
                (0..8u64)
                    .flat_map(|j| (0..64u64).map(move |t| derive_seed(b, j, t)))
                    .collect()
            };
            let a = grid(base);
            let b = grid(base.wrapping_add(1));
            assert!(a.is_disjoint(&b), "bases {base} and {} overlap", base + 1);
        }
    }

    #[test]
    fn derive_seed_separates_adjacent_jobs_and_chunks() {
        // Trials straddling a chunk boundary of adjacent jobs — the
        // exact pattern the chunked campaign replays on resume.
        let mut all = Vec::new();
        for job in 0..4u64 {
            for trial in 62..66u64 {
                all.push(derive_seed(7, job, trial));
            }
        }
        let unique: std::collections::HashSet<&u64> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn campaign_without_stop_rule_equals_monolithic_run_batch() {
        let jobs = vec![job(3, 0.02, 130), job(5, 0.05, 70), job(3, 0.0, 40)];
        let reference = monolithic(&jobs, 11, 1);
        for threads in [1usize, 2, 8] {
            for chunk in [1usize, 7, 64, 500] {
                let engine = DecodeEngine::with_threads(threads);
                let mut config = CampaignConfig::with_seed(11);
                config.chunk_shots = chunk;
                let mut runner = CampaignRunner::new(&engine, jobs.clone(), config);
                let RunOutcome::Complete(report) = runner.run().unwrap() else {
                    panic!("no interrupt configured")
                };
                assert_eq!(
                    report.results, reference,
                    "threads {threads}, chunk {chunk}"
                );
                assert_eq!(report.status, CampaignStatus::QuotaComplete);
            }
        }
    }

    #[test]
    fn unobserved_campaign_plans_its_whole_quota_as_one_round() {
        // 130 + 70 shots at 16 per chunk: 9 + 5 chunks.
        let jobs = vec![job(3, 0.02, 130), job(5, 0.05, 70)];
        let engine = DecodeEngine::with_threads(1);
        let config = CampaignConfig {
            base_seed: 1,
            chunk_shots: 16,
            round_chunks: 2,
            stop: None,
        };
        let runner = || CampaignRunner::new(&engine, jobs.clone(), config);
        assert_eq!(runner().plan_round().len(), 14);
        // Anything that can observe the campaign between rounds keeps
        // the configured round size.
        let never_written = std::env::temp_dir().join("qecool_plan_round_unused.json");
        assert_eq!(runner().checkpoint_to(never_written).plan_round().len(), 2);
        assert_eq!(runner().interrupt_after_chunks(99).plan_round().len(), 2);
        let stop = Some(StopRule {
            target_ci_width: 0.5,
            extra_shot_budget: 0,
        });
        let mut stopped =
            CampaignRunner::new(&engine, jobs.clone(), CampaignConfig { stop, ..config });
        assert_eq!(stopped.plan_round().len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_chunked_execution_equals_monolithic(
            seed in any::<u64>(),
            chunk in 1usize..40,
            round in 1usize..6,
            n_jobs in 1usize..4,
            shots in proptest::collection::vec(0usize..90, 4),
            threads_sel in 0usize..3,
        ) {
            let threads = [1, 2, 8][threads_sel];
            let ps = [0.0, 0.01, 0.04, 0.08];
            let jobs: Vec<CampaignJob> = (0..n_jobs)
                .map(|i| job(3, ps[i % ps.len()], shots[i]))
                .collect();
            let reference = monolithic(&jobs, seed, 1);
            let engine = DecodeEngine::with_threads(threads);
            let config = CampaignConfig {
                base_seed: seed,
                chunk_shots: chunk,
                round_chunks: round,
                stop: None,
            };
            let mut runner = CampaignRunner::new(&engine, jobs, config);
            let RunOutcome::Complete(report) = runner.run().unwrap() else {
                panic!("no interrupt configured")
            };
            prop_assert_eq!(report.results, reference);
        }
    }

    #[test]
    fn interrupt_and_in_process_continue_is_byte_identical() {
        let jobs = vec![job(3, 0.03, 150), job(5, 0.06, 90)];
        let reference = monolithic(&jobs, 5, 2);
        let engine = DecodeEngine::with_threads(2);
        let mut config = CampaignConfig::with_seed(5);
        config.chunk_shots = 32;
        config.round_chunks = 2;
        let mut runner = CampaignRunner::new(&engine, jobs, config).interrupt_after_chunks(3);
        let RunOutcome::Interrupted { chunks_run } = runner.run().unwrap() else {
            panic!("interrupt must fire before the 8-chunk campaign ends")
        };
        assert!(chunks_run >= 3);
        runner.interrupt_after_chunks = None;
        let RunOutcome::Complete(report) = runner.run().unwrap() else {
            panic!("no interrupt configured")
        };
        assert_eq!(report.results, reference);
    }

    #[test]
    fn checkpoint_roundtrips_through_text() {
        let jobs = vec![job(3, 0.05, 100)];
        let engine = DecodeEngine::with_threads(1);
        let mut config = CampaignConfig::with_seed(3);
        config.stop = Some(StopRule {
            target_ci_width: 0.2,
            extra_shot_budget: 500,
        });
        let mut runner =
            CampaignRunner::new(&engine, jobs.clone(), config).interrupt_after_chunks(1);
        let _ = runner.run().unwrap();
        let text = runner.render_checkpoint();
        let restored = CampaignRunner::resume_from_str(&engine, jobs, config, &text).unwrap();
        assert_eq!(restored.results(), runner.results());
        assert_eq!(restored.chunks_done(), runner.chunks_done());
        assert_eq!(restored.budget_left(), runner.budget_left());
        assert_eq!(restored.render_checkpoint(), text);
    }

    #[test]
    fn adaptive_campaign_converges_and_reports_statuses() {
        // p = 0 points have closed-form CP widths shrinking as 3.7/n, so
        // a 0.05 target needs 72 shots — well inside the budget.
        let jobs = vec![job(3, 0.0, 10), job(3, 0.0, 10)];
        let engine = DecodeEngine::with_threads(2);
        let config = CampaignConfig {
            base_seed: 1,
            chunk_shots: 16,
            round_chunks: 4,
            stop: Some(StopRule {
                target_ci_width: 0.05,
                extra_shot_budget: 10_000,
            }),
        };
        let mut runner = CampaignRunner::new(&engine, jobs, config);
        let RunOutcome::Complete(report) = runner.run().unwrap() else {
            panic!("no interrupt configured")
        };
        assert_eq!(report.status, CampaignStatus::Converged);
        assert!(report.job_status.iter().all(|s| *s == JobStatus::Converged));
        for mc in &report.results {
            assert!(
                mc.shots >= 72,
                "needs 72 shots for width 0.05, got {}",
                mc.shots
            );
            assert!(
                mc.logical_error_rate().clopper_pearson_width() <= 0.05,
                "converged point must meet the target"
            );
        }
        assert!(runner.budget_left() > 0);
    }

    #[test]
    fn budget_exhaustion_is_reported_distinctly() {
        // An unreachable target with a tiny budget: the campaign must
        // terminate and say the budget ran out, not claim convergence.
        let jobs = vec![job(3, 0.1, 20)];
        let engine = DecodeEngine::with_threads(1);
        let config = CampaignConfig {
            base_seed: 2,
            chunk_shots: 8,
            round_chunks: 2,
            stop: Some(StopRule {
                target_ci_width: 0.001,
                extra_shot_budget: 48,
            }),
        };
        let mut runner = CampaignRunner::new(&engine, jobs, config);
        let RunOutcome::Complete(report) = runner.run().unwrap() else {
            panic!("no interrupt configured")
        };
        assert_eq!(report.status, CampaignStatus::BudgetExhausted);
        assert_eq!(report.job_status, vec![JobStatus::BudgetExhausted]);
        assert_eq!(runner.budget_left(), 0);
        assert_eq!(report.results[0].shots, 20 + 48);
    }

    #[test]
    fn met_targets_trigger_zero_additional_shots_on_resume() {
        let jobs = vec![job(3, 0.0, 96)];
        let engine = DecodeEngine::with_threads(1);
        let config = CampaignConfig {
            base_seed: 9,
            chunk_shots: 32,
            round_chunks: 8,
            stop: Some(StopRule {
                target_ci_width: 0.05,
                extra_shot_budget: 1000,
            }),
        };
        let mut first = CampaignRunner::new(&engine, jobs.clone(), config);
        let RunOutcome::Complete(done) = first.run().unwrap() else {
            panic!("no interrupt configured")
        };
        assert_eq!(done.status, CampaignStatus::Converged);
        let text = first.render_checkpoint();
        let mut resumed = CampaignRunner::resume_from_str(&engine, jobs, config, &text).unwrap();
        let RunOutcome::Complete(report) = resumed.run().unwrap() else {
            panic!("no interrupt configured")
        };
        assert_eq!(
            report.chunks_run, 0,
            "already-met targets must add no shots"
        );
        assert_eq!(report.shots_run, 0);
        assert_eq!(report.results, done.results);
    }

    #[test]
    fn all_failure_points_terminate() {
        // Synthesize an all-failure tally via a checkpoint (real trials
        // cannot guarantee 100% failure): the stop rule must either
        // converge or exhaust the budget — never loop forever.
        let jobs = vec![job(3, 0.2, 40)];
        let engine = DecodeEngine::with_threads(1);
        let config = CampaignConfig {
            base_seed: 4,
            chunk_shots: 16,
            round_chunks: 2,
            stop: Some(StopRule {
                target_ci_width: 0.01,
                extra_shot_budget: 200,
            }),
        };
        let text = format!(
            "{{\"version\":2,\"job_list_hash\":{},\"base_seed\":4,\"chunk_shots\":16,\
             \"round_chunks\":2,\"stop\":{{\"target_ci_width\":0.01,\"extra_shot_budget\":200}},\
             \"budget_left\":200,\"chunks_done\":3,\
             \"jobs\":[{{\"shots\":40,\"failures\":40,\"overflows\":0,\"matches\":0,\
             \"cycles\":{{\"count\":0,\"sum\":0,\"sum_sq\":0,\"max\":0}},\"vertical_hist\":[]}}]}}",
            job_list_hash(&jobs)
        );
        let mut runner = CampaignRunner::resume_from_str(&engine, jobs, config, &text).unwrap();
        let RunOutcome::Complete(report) = runner.run().unwrap() else {
            panic!("no interrupt configured")
        };
        // Terminated (this line being reached is the core assertion) and
        // spent the whole budget chasing an unreachable 0.01 target.
        assert_eq!(report.status, CampaignStatus::BudgetExhausted);
        assert_eq!(report.results[0].shots, 40 + 200);
    }

    #[test]
    fn corrupt_checkpoints_are_named_errors() {
        let jobs = vec![job(3, 0.02, 50)];
        let engine = DecodeEngine::with_threads(1);
        let config = CampaignConfig::with_seed(1);
        let garbage = CampaignRunner::resume_from_str(&engine, jobs.clone(), config, "not json");
        assert!(matches!(garbage, Err(CampaignError::Corrupt(_))));

        let mut good = CampaignRunner::new(&engine, jobs.clone(), config);
        let _ = good.run().unwrap();
        let text = good.render_checkpoint();
        for cut in [1, text.len() / 2, text.len() - 1] {
            let truncated =
                CampaignRunner::resume_from_str(&engine, jobs.clone(), config, &text[..cut]);
            assert!(
                matches!(truncated, Err(CampaignError::Corrupt(_))),
                "cut at {cut}"
            );
        }

        let versioned = text.replacen("\"version\":2", "\"version\":99", 1);
        assert!(matches!(
            CampaignRunner::resume_from_str(&engine, jobs.clone(), config, &versioned),
            Err(CampaignError::VersionMismatch {
                found: 99,
                expected: CHECKPOINT_VERSION
            })
        ));

        // A v1 file (pre-NoiseSpec schema: noise hashed as a bare kind
        // tag) must be a named version mismatch, never a silent
        // reinterpretation under the new job-list hash.
        let old = text.replacen("\"version\":2", "\"version\":1", 1);
        assert!(matches!(
            CampaignRunner::resume_from_str(&engine, jobs.clone(), config, &old),
            Err(CampaignError::VersionMismatch {
                found: 1,
                expected: CHECKPOINT_VERSION
            })
        ));

        let other_jobs = vec![job(5, 0.02, 50)];
        assert!(matches!(
            CampaignRunner::resume_from_str(&engine, other_jobs, config, &text),
            Err(CampaignError::JobListMismatch { .. })
        ));

        let mut other_config = config;
        other_config.chunk_shots = 99;
        assert!(matches!(
            CampaignRunner::resume_from_str(&engine, jobs.clone(), other_config, &text),
            Err(CampaignError::ConfigMismatch {
                field: "chunk_shots",
                ..
            })
        ));

        let inconsistent = text.replacen("\"failures\":", "\"failures\":999", 1);
        // (999 prepended to the old digits still exceeds shots)
        assert!(matches!(
            CampaignRunner::resume_from_str(&engine, jobs, config, &inconsistent),
            Err(CampaignError::Corrupt(_))
        ));
    }

    #[test]
    fn errors_display_the_failure() {
        let e = CampaignError::VersionMismatch {
            found: 2,
            expected: 1,
        };
        assert!(e.to_string().contains("version"));
        let e = CampaignError::ConfigMismatch {
            field: "chunk_shots",
            found: "9".into(),
            expected: "64".into(),
        };
        assert!(e.to_string().contains("chunk_shots"));
    }
}
