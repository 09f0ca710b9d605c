//! The parallel streaming decode engine: every Monte-Carlo campaign in
//! the workspace — figure sweeps, table drivers, examples, tests — runs
//! through this one machine.
//!
//! # Threading model
//!
//! A campaign is split into fixed-size **shards** of consecutive trial
//! seeds. Shard boundaries depend only on [`DEFAULT_SHARD_SHOTS`], never
//! on the number of workers, so the same campaign produces byte-identical
//! aggregates on 1, 2 or 64 threads:
//!
//! * the precomputed shard list is the batch of the engine's persistent
//!   [worker pool](crate::pool), the pool the service pump runs on: N
//!   threads claim shards off its lock-free atomic cursor. The calling
//!   thread is one of the N, so the pool holds N − 1 threads, and a
//!   batch one thread suffices for runs inline and spawns nothing;
//! * each pool stripe owns a reusable [`TrialScratch`] (decoders, patch,
//!   syndrome buffers) and one recycled [`TrialOutcome`], kept between
//!   batches, so the hot loop does no per-shot construction;
//! * per-shard partial [`McResult`]s are merged **in shard order** after
//!   the batch retires, which keeps the histogram and cycle aggregates
//!   independent of thread scheduling.
//!
//! Trial `i` of a job uses seed
//! [`derive_seed`]`(base_seed, stream, first_trial + i)` — a pure
//! function of the job's identity and the trial's logical position, so
//! engine results equal serial results bit for bit and a chunk of a job
//! (via [`McJob::first_trial`]) reproduces exactly the seeds the full
//! job would have used.
//!
//! # Example
//!
//! ```
//! use qecool_sim::engine::DecodeEngine;
//! use qecool_sim::trials::{DecoderKind, TrialConfig};
//!
//! let engine = DecodeEngine::with_threads(2);
//! let cfg = TrialConfig::standard(3, 0.01, DecoderKind::BatchQecool);
//! let result = engine.run(&cfg, 40, 7);
//! assert_eq!(result.shots, 40);
//! ```

use std::fmt;

use parking_lot::Mutex;

use crate::campaign::derive_seed;
use crate::montecarlo::McResult;
use crate::pool::{worker_count, Batch, WorkerPool};
use crate::trials::{run_trial_into, TrialConfig, TrialOutcome, TrialScratch};

/// Trials per shard: big enough to amortize queue traffic, small enough
/// to load-balance the heavy tails of near-threshold campaigns. Per-trial
/// seeds are position-derived, so the shard size changes no result.
pub const DEFAULT_SHARD_SHOTS: usize = 64;

/// One Monte-Carlo job: `shots` trials of `trial` seeded from
/// `base_seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McJob {
    /// The trial configuration to sample.
    pub trial: TrialConfig,
    /// Number of independent trials.
    pub shots: usize,
    /// Campaign-level seed; trial `i` uses
    /// [`derive_seed`]`(base_seed, stream, first_trial + i)`.
    pub base_seed: u64,
    /// Seed stream of this job (e.g. its sweep-point index). Two jobs
    /// sharing a `base_seed` draw independent trials when their streams
    /// differ; `McJob::new` uses stream 0.
    pub stream: u64,
    /// Logical index of this job's first trial within its stream. A
    /// chunk `[first_trial, first_trial + shots)` of a larger job
    /// reproduces exactly the seeds the monolithic job would have used
    /// for those trials — the hook `campaign` chunking is built on.
    pub first_trial: u64,
}

impl McJob {
    /// A whole-job (`stream` 0, `first_trial` 0) Monte-Carlo job.
    pub fn new(trial: TrialConfig, shots: usize, base_seed: u64) -> Self {
        Self {
            trial,
            shots,
            base_seed,
            stream: 0,
            first_trial: 0,
        }
    }
}

/// One shard of one job on the global work queue.
struct Shard {
    job: usize,
    /// First trial index (relative to the job's `base_seed`).
    start: usize,
    len: usize,
    /// The shard's partial aggregate, written by the thread that claims
    /// it.
    partial: Mutex<McResult>,
}

/// A worker's reusable trial state, one per pool stripe, kept between
/// batches.
#[derive(Default)]
struct Worker {
    scratch: TrialScratch,
    outcome: TrialOutcome,
}

/// The engine's persistent pool batch: one campaign batch's shards, and
/// the per-stripe worker state that runs them.
struct Shards {
    jobs: Vec<McJob>,
    shards: Vec<Shard>,
    /// Indexed by stripe. Stripe `s` is only ever run by one thread, so
    /// its lock is never contended; it only turns that exclusive use
    /// into `&mut`.
    workers: Vec<Mutex<Worker>>,
}

impl Batch for Shards {
    fn items(&self) -> usize {
        self.shards.len()
    }

    fn run(&self, index: usize, stripe: usize) {
        let shard = &self.shards[index];
        let job = &self.jobs[shard.job];
        let worker = &mut *self.workers[stripe].lock();
        let mut partial = McResult::default();
        for k in shard.start..shard.start + shard.len {
            let seed = derive_seed(job.base_seed, job.stream, job.first_trial + k as u64);
            run_trial_into(&job.trial, seed, &mut worker.scratch, &mut worker.outcome);
            partial.absorb(&worker.outcome);
        }
        *shard.partial.lock() = partial;
    }
}

/// The parallel Monte-Carlo decode engine. See the module docs for the
/// threading model.
pub struct DecodeEngine {
    /// Worker threads; `0` uses all available parallelism.
    threads: usize,
    /// Held for a whole batch, so batches on one engine run one at a
    /// time.
    pool: Mutex<WorkerPool<Shards>>,
}

impl fmt::Debug for DecodeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeEngine")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Default for DecodeEngine {
    fn default() -> Self {
        Self::with_threads(0)
    }
}

impl DecodeEngine {
    /// An engine with default configuration (all cores).
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine pinned to `threads` workers (`0` = all cores). Spawns no
    /// thread.
    pub fn with_threads(threads: usize) -> Self {
        let shards = Shards {
            jobs: Vec::new(),
            shards: Vec::new(),
            workers: Vec::new(),
        };
        Self {
            threads,
            pool: Mutex::new(WorkerPool::new(shards, None)),
        }
    }

    /// Runs one campaign; equivalent to a single-job [`Self::run_batch`].
    pub fn run(&self, trial: &TrialConfig, shots: usize, base_seed: u64) -> McResult {
        let job = McJob::new(*trial, shots, base_seed);
        self.run_batch(std::slice::from_ref(&job))
            .pop()
            .expect("one job in, one result out")
    }

    /// Runs many campaigns through the engine's worker pool, returning
    /// one aggregate per job in job order.
    ///
    /// All jobs' shards go onto a single queue, so a sweep's cheap
    /// points do not leave workers idle while an expensive point
    /// finishes — cross-job work stealing for free.
    ///
    /// # Panics
    ///
    /// Re-raises the payload of a trial that panicked (e.g. on an
    /// invalid code distance). The engine stays usable.
    pub fn run_batch(&self, jobs: &[McJob]) -> Vec<McResult> {
        let size = DEFAULT_SHARD_SHOTS;
        let mut pool = self.pool.lock();
        let spawned = pool.workers();
        let batch = pool.batch_mut();
        batch.jobs.clear();
        batch.jobs.extend_from_slice(jobs);
        batch.shards.clear();
        batch
            .shards
            .extend(jobs.iter().enumerate().flat_map(|(job, j)| {
                (0..j.shots).step_by(size).map(move |start| Shard {
                    job,
                    start,
                    len: size.min(j.shots - start),
                    partial: Mutex::new(McResult::default()),
                })
            }));
        let threads = worker_count(self.threads).min(batch.shards.len()).max(1);
        // Any spawned pool thread may claim shards, not only the first
        // `threads - 1`, so the stripe table covers every one of them.
        let stripes = threads.max(spawned + 1);
        batch
            .workers
            .resize_with(stripes, || Mutex::new(Worker::default()));
        // The caller is one of the `threads` workers. Waking `threads`
        // parked workers while the caller slept cost `mc_mixed` about 9 %
        // of its shots/s against per-batch spawned threads, on a 2-vCPU
        // VM; with the caller helping it does not.
        if let Some(payload) = pool.run(threads - 1) {
            // A panicking trial may leave its worker's scratch half
            // updated; start the next batch from fresh ones.
            pool.batch_mut().workers.clear();
            drop(pool);
            std::panic::resume_unwind(payload);
        }

        // Deterministic aggregation: merge partials in shard order, which
        // depends only on the job list and shard size — never on which
        // worker ran what, or when.
        let mut results = vec![McResult::default(); jobs.len()];
        for shard in pool.batch_mut().shards.drain(..) {
            results[shard.job].merge(shard.partial.into_inner());
        }
        results
    }

    /// Pool threads this engine has spawned.
    #[cfg(test)]
    fn workers_spawned(&self) -> usize {
        self.pool.lock().workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::DecoderKind;

    fn campaign(threads: usize) -> McResult {
        let engine = DecodeEngine::with_threads(threads);
        let cfg = TrialConfig::standard(5, 0.03, DecoderKind::BatchQecool);
        engine.run(&cfg, 150, 42)
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let reference = campaign(1);
        for threads in [2, 4, 8] {
            let parallel = campaign(threads);
            assert_eq!(parallel.shots, reference.shots, "{threads} threads");
            assert_eq!(parallel.failures, reference.failures);
            assert_eq!(parallel.overflows, reference.overflows);
            assert_eq!(parallel.matches, reference.matches);
            assert_eq!(parallel.layer_cycles, reference.layer_cycles);
            assert_eq!(parallel.vertical_hist, reference.vertical_hist);
        }
    }

    #[test]
    fn engine_matches_serial_trials() {
        let cfg = TrialConfig::standard(5, 0.04, DecoderKind::BatchQecool);
        let mc = DecodeEngine::new().run(&cfg, 80, 9);
        let serial_failures = (0..80u64)
            .filter(|&i| crate::trials::run_trial(&cfg, derive_seed(9, 0, i)).logical_error)
            .count();
        assert_eq!(mc.failures, serial_failures);
    }

    #[test]
    fn batch_results_are_per_job_and_job_ordered() {
        let low = TrialConfig::standard(3, 0.001, DecoderKind::BatchQecool);
        let high = TrialConfig::standard(3, 0.15, DecoderKind::BatchQecool);
        let jobs = [McJob::new(low, 60, 1), McJob::new(high, 90, 2)];
        let results = DecodeEngine::new().run_batch(&jobs);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].shots, 60);
        assert_eq!(results[1].shots, 90);
        assert!(
            results[0].failures < results[1].failures,
            "p=0.001 ({}) should fail less than p=0.15 ({})",
            results[0].failures,
            results[1].failures
        );
        // Batch equals running each job alone.
        let alone = DecodeEngine::new().run(&high, 90, 2);
        assert_eq!(alone.failures, results[1].failures);
        assert_eq!(alone.layer_cycles, results[1].layer_cycles);
    }

    #[test]
    fn zero_shots_is_a_clean_noop() {
        let cfg = TrialConfig::standard(3, 0.01, DecoderKind::BatchQecool);
        let mc = DecodeEngine::new().run(&cfg, 0, 5);
        assert_eq!(mc.shots, 0);
        assert_eq!(mc.failures, 0);
    }

    #[test]
    fn mixed_decoder_jobs_share_one_pool() {
        let jobs = [
            McJob::new(
                TrialConfig::standard(3, 0.02, DecoderKind::BatchQecool),
                40,
                3,
            ),
            McJob::new(TrialConfig::standard(3, 0.02, DecoderKind::Mwpm), 40, 3),
            McJob::new(
                TrialConfig::standard(3, 0.02, DecoderKind::UnionFind),
                40,
                3,
            ),
        ];
        let results = DecodeEngine::with_threads(2).run_batch(&jobs);
        assert!(results.iter().all(|r| r.shots == 40));
    }

    #[test]
    fn a_panicking_trial_reraises_its_own_message_and_the_engine_recovers() {
        let bad = McJob::new(
            TrialConfig::standard(4, 0.02, DecoderKind::UnionFind),
            200,
            1,
        );
        let good = [
            McJob::new(
                TrialConfig::standard(3, 0.05, DecoderKind::BatchQecool),
                150,
                4,
            ),
            McJob::new(TrialConfig::standard(3, 0.05, DecoderKind::Mwpm), 150, 5),
        ];
        // One thread panics inline on the caller; two through the pool.
        for threads in [1, 2] {
            let engine = DecodeEngine::with_threads(threads);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.run_batch(&[bad]);
            }))
            .expect_err("an even distance must panic");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .expect("a string payload");
            assert!(message.contains("valid code distance"), "{message}");
            assert_eq!(
                engine.run_batch(&good),
                DecodeEngine::with_threads(threads).run_batch(&good),
                "{threads} thread(s)"
            );
        }
    }

    #[test]
    fn stripe_table_covers_threads_a_wider_batch_spawned() {
        // A 2-shard batch asks for one pool thread, but any of the three
        // a wider batch spawned may claim its shards.
        let many = [McJob::new(
            TrialConfig::standard(3, 0.05, DecoderKind::BatchQecool),
            600,
            1,
        )];
        let two = [McJob::new(
            TrialConfig::standard(3, 0.05, DecoderKind::UnionFind),
            2 * DEFAULT_SHARD_SHOTS,
            2,
        )];
        let bad = [McJob::new(
            TrialConfig::standard(4, 0.05, DecoderKind::UnionFind),
            600,
            3,
        )];
        let engine = DecodeEngine::with_threads(4);
        let serial = |jobs: &[McJob]| DecodeEngine::with_threads(1).run_batch(jobs);
        assert_eq!(engine.run_batch(&many), serial(&many));
        assert_eq!(engine.workers_spawned(), 3);
        for _ in 0..20 {
            assert_eq!(engine.run_batch(&two), serial(&two));
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run_batch(&bad)))
            .expect_err("an even distance must panic");
        assert_eq!(engine.run_batch(&two), serial(&two));
        assert_eq!(engine.run_batch(&many), serial(&many));
    }

    #[test]
    fn batches_reuse_the_pool() {
        let engine = DecodeEngine::with_threads(2);
        assert_eq!(engine.workers_spawned(), 0, "construction spawns nothing");
        let cfg = TrialConfig::standard(3, 0.05, DecoderKind::BatchQecool);
        // Two workers: the caller and one pool thread.
        engine.run(&cfg, 200, 1);
        assert_eq!(engine.workers_spawned(), 1);
        engine.run(&cfg, 200, 2);
        assert_eq!(engine.workers_spawned(), 1, "the second batch respawned");
    }

    #[test]
    fn a_one_thread_engine_runs_inline() {
        let engine = DecodeEngine::with_threads(1);
        let cfg = TrialConfig::standard(3, 0.05, DecoderKind::BatchQecool);
        let mc = engine.run(&cfg, 200, 1);
        assert_eq!(mc.shots, 200);
        assert_eq!(engine.workers_spawned(), 0);
    }
}
