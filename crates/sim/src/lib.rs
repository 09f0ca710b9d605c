//! Quantum error simulator and Monte-Carlo harness for the QECOOL
//! reproduction.
//!
//! This crate ties the substrates together into the experiments the paper
//! reports:
//!
//! * [`trials`] — one fault-tolerant memory experiment per decoder
//!   (batch-QECOOL, on-line QECOOL with a cycle budget, MWPM),
//!   under any [`NoiseSpec`] family (phenomenological, asymmetric,
//!   code-capacity, biased, erasure, burst), plus the reusable
//!   [`TrialScratch`](trials::TrialScratch) worker state;
//! * [`engine`] — the parallel streaming decode engine: a lock-free
//!   shard queue feeding zero-per-shot-allocation workers, with
//!   thread-count-independent aggregation;
//! * [`service`] — the long-lived decoding service's sessions:
//!   per-logical-qubit syndrome streams decoded under the SFQ cycle
//!   budget, with all three backends behind the
//!   [`qecool::api::Decoder`] trait;
//! * [`window`] — true overlapping sliding-window streaming decoders
//!   for the UF/MWPM baselines: decode W rounds, commit the oldest
//!   S < W, slide — bounded commit latency with seam-free overlap;
//! * [`pool`] — the one persistent worker pool the engine and the
//!   service pump both run on, and [`pool::worker_count`], the one
//!   "`threads == 0` means all cores" rule;
//! * [`shard`] — the service's one front end, [`ShardedDecodeService`]:
//!   N locked shards behind `&self`, sessions routed by id, so producers
//!   on different shards never contend;
//! * [`montecarlo`] — the [`McResult`] aggregate of one job;
//! * [`campaign`] — the one sweep driver: every `(d × p)` grid runs as
//!   a campaign over the engine, with chunked deterministic execution,
//!   Clopper–Pearson stop rules, and versioned JSON checkpoints whose
//!   resume is byte-identical to an uninterrupted run (plus
//!   [`campaign::derive_seed`], the workspace's one audited
//!   seed-splitting function);
//! * [`stats`] — binomial rate estimates (Wilson and exact
//!   Clopper–Pearson intervals, width inversion for stop rules) and
//!   streaming cycle aggregates;
//! * [`threshold`] — accuracy-threshold (`p_th`) estimation from curve
//!   crossings, the quantity Figs. 4(a) and 7 report;
//! * [`experiments`] — the `(d × p)` grids the benchmark binaries
//!   build: [`CampaignJob::grid`] job lists over [`log_grid`] rate axes;
//! * [`dual_sector`] — both-sector (X *and* Z) logical-qubit trials,
//!   exploiting the paper's mirror-symmetry argument (§IV footnote 3).
//!
//! # Example
//!
//! ```
//! use qecool_sim::{
//!     curves, estimate_threshold, CampaignConfig, CampaignJob, CampaignRunner, DecodeEngine,
//!     DecoderKind, NoiseSpec, RunOutcome, TrialConfig,
//! };
//!
//! let engine = DecodeEngine::with_threads(2);
//! // 30 shots of a d = 3 memory experiment at p = 0.5% under batch-QECOOL.
//! let cfg = TrialConfig::standard(3, 0.005, DecoderKind::BatchQecool);
//! let result = engine.run(&cfg, 30, 42);
//! println!("logical error rate: {}", result.logical_error_rate());
//!
//! // A (d × p) grid, run as one campaign and read off as threshold curves.
//! let jobs = CampaignJob::grid(
//!     DecoderKind::BatchQecool,
//!     NoiseSpec::Phenomenological { p: 0.0 },
//!     &[3, 5],
//!     &[0.01, 0.05],
//!     20,
//! );
//! let mut runner = CampaignRunner::new(&engine, jobs.clone(), CampaignConfig::with_seed(42));
//! let Ok(RunOutcome::Complete(report)) = runner.run() else {
//!     unreachable!("no checkpoint or interrupt configured");
//! };
//! let estimate = estimate_threshold(&curves(&jobs, &report.results));
//! println!("threshold: {:?}", estimate.map(|e| e.pth));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod campaign;
pub mod dual_sector;
pub mod engine;
pub mod experiments;
pub mod montecarlo;
pub mod pool;
pub mod service;
pub mod shard;
pub mod stats;
pub mod threshold;
pub mod trials;
pub mod window;

pub use campaign::{
    derive_seed, CampaignConfig, CampaignError, CampaignJob, CampaignReport, CampaignRunner,
    CampaignStatus, JobStatus, RunOutcome, StopRule,
};
pub use dual_sector::{dual_sector_error_rate, run_dual_sector_trial, DualSectorOutcome};
pub use engine::{DecodeEngine, EngineConfig, EngineTally, McJob};
pub use experiments::log_grid;
pub use montecarlo::McResult;
pub use service::{
    LatencyStats, Polled, ServiceBackend, ServiceConfig, ServiceError, SessionId, SessionReport,
};
pub use shard::{ShardStats, ShardedDecodeService, ShardedServiceConfig};
pub use stats::{CycleAggregate, RateEstimate};
pub use threshold::{curves, estimate_threshold, Curve, ThresholdEstimate};
pub use trials::{run_trial, DecoderKind, TrialConfig, TrialOutcome};
// The noise-family matrix lives in `qecool-surface-code`; re-exported
// here because every `TrialConfig` carries one.
pub use qecool_surface_code::NoiseSpec;
pub use window::{StreamingMwpm, StreamingUf, WindowConfig};
