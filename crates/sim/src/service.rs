//! The long-lived decoding service: syndrome-stream sessions under a
//! cycle budget, served through
//! [`ShardedDecodeService`](crate::shard::ShardedDecodeService).
//!
//! Monte-Carlo campaigns run trial-at-a-time; real control hardware does
//! not. The service owns independent **sessions**, one per logical qubit
//! under protection. Each session ingests detection rounds as they
//! arrive, decodes them under the per-round SFQ cycle budget
//! ([`CycleBudget`]), and hands corrections back at the next poll. All
//! three decoder backends — QECOOL, union-find, MWPM — serve behind the
//! [`Decoder`] trait. This module holds the session types and the body
//! of one shard: its session table, its hot loop and its pump pool.
//!
//! # Determinism
//!
//! Sessions are fully independent: each owns its decoder state and its
//! rounds are decoded in arrival order. A pump drains some sessions
//! inline and may hand the rest to the shard's worker pool, but a
//! session is only ever advanced by one thread per pump, so every
//! session's corrections are byte-identical whatever the thread count
//! and whichever sessions a pump fans out — the same guarantee the
//! Monte-Carlo engine makes for aggregates.
//!
//! # The persistent pump pool
//!
//! A shard's pump runs on its own persistent [worker pool](crate::pool),
//! the pool type the Monte-Carlo engine also runs on (see there for the
//! spawn, wake-up, panic and shutdown rules). Sessions are boxed in
//! their slots; a pump that fans out moves the boxes of the sessions
//! still busy into the session table the pool keeps between calls, and
//! the draining threads — the caller is one of them — claim table
//! entries off the pool's atomic cursor and drain them where they are.
//!
//! A fan-out is not free: on a 2-vCPU VM, waking the pool, the worker's
//! first claim and the caller's end wait together cost tens of
//! microseconds, more than a whole pump of 64 d = 5 QECOOL sessions
//! decodes. So every pump first drains its busy sessions inline on the
//! calling thread, in slot order, and hands the sessions still busy to
//! the pool only once its own pace says they would outlast a fan-out
//! (`FAN_OUT_COST`, 300 µs). A pump that never reaches that point
//! neither consults nor creates the pool.
//!
//! # Steady-state allocation
//!
//! The per-round path is allocation-free once a session is warm: pushed
//! rounds land in recycled [`DetectionRound`] buffers
//! ([`DetectionRound::copy_from`]), every backend decodes straight into
//! a reused [`DecodeOutput`], decoder statistics are fixed-size (a
//! [`CycleAggregate`](qecool::CycleAggregate) of per-layer cycles and a
//! match histogram, never a per-round or per-match log), and emitted
//! corrections append to a session-owned vector whose already-polled
//! prefix is reclaimed on the next drain — a session's memory stays
//! bounded by one poll interval's worth of corrections however long it
//! lives. `tests/session_memory.rs` holds every backend to that.
//!
//! # Example
//!
//! ```
//! use qecool_sim::service::{ServiceBackend, ServiceConfig};
//! use qecool_sim::shard::{ShardedDecodeService, ShardedServiceConfig};
//! use qecool_sfq::budget::CycleBudget;
//! use qecool_surface_code::{CodePatch, Lattice, NoiseSpec};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ServiceConfig::new(5, ServiceBackend::Qecool, CycleBudget::at_clock(2.0e9));
//! let service = ShardedDecodeService::new(ShardedServiceConfig::new(config, 1))?;
//! let session = service.open_session();
//!
//! let mut patch = CodePatch::new(Lattice::new(5)?);
//! let noise = NoiseSpec::Phenomenological { p: 0.01 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! for _ in 0..5 {
//!     service.push_round(session, &patch.noisy_round(&noise, &mut rng));
//!     patch.apply_corrections(service.poll_corrections(session)?);
//! }
//! service.push_round(session, &patch.perfect_round());
//! let report = service.close_session(session)?;
//! patch.apply_corrections(report.corrections);
//! assert!(patch.syndrome_is_trivial());
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use qecool::api::{CommitHint, DecodeOutput, Decoder};
use qecool::{FatalError, RegOverflow, DEFAULT_BOUNDARY_PENALTY};
use qecool_obs::counters::thread_stripe;
use qecool_obs::{
    Counter, Gauge, MetricsRegistry, Stage, StageTracer, TelemetryHandle, STAGE_SAMPLE_PERIOD,
};
use qecool_sfq::budget::{CycleBudget, CycleHistogram};
use qecool_surface_code::{DetectionRound, Edge, Lattice, LatticeError};

use crate::pool::{worker_count, Batch, Panic, PoolCounters, WorkerPool};
use crate::trials::DecoderKind;
pub use crate::window::{StreamingMwpm, StreamingUf, WindowConfig};

/// Which decoder implementation a service's sessions run on. Each maps
/// onto the [`DecoderKind`] whose [`DecoderKind::build`] constructs the
/// session decoders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceBackend {
    /// On-line QECOOL (the paper's machine): real per-round decode work
    /// under the cycle budget, 7-bit registers, `th_v = 3` lookahead and
    /// the paper's boundary penalty.
    Qecool,
    /// Union-find baseline, served through the true sliding-window
    /// adapter ([`StreamingUf`]): decode W rounds, commit the oldest
    /// S < W, slide (see [`ServiceConfig::window`]).
    UnionFind,
    /// MWPM baseline, sliding-windowed like union-find
    /// ([`StreamingMwpm`]).
    Mwpm,
}

/// Configuration of a service's sessions, shared by every shard of a
/// [`ShardedDecodeService`](crate::shard::ShardedDecodeService).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Code distance of every session's patch.
    pub d: usize,
    /// Decoder backend.
    pub backend: ServiceBackend,
    /// Per-round decode-cycle budget (clock × measurement interval).
    pub budget: CycleBudget,
    /// Pump worker threads, divided across the shards (see
    /// [`ShardedServiceConfig::service`](crate::shard::ShardedServiceConfig::service));
    /// `0` uses all cores. A cap, not a demand: a pump drains inline and
    /// fans out to the pool only when its sessions outweigh a wake-up.
    pub threads: usize,
    /// Window geometry for the sliding-window baselines (UF/MWPM).
    /// `None` uses [`WindowConfig::default_for`] the configured
    /// distance (`W = 3d, S = d`). Ignored by the QECOOL backend,
    /// which commits incrementally as its registers retire.
    pub window: Option<WindowConfig>,
    /// Telemetry sink. Disabled by default; when enabled the service
    /// maintains the `qecool_service_*`, `qecool_pool_*` and
    /// `qecool_sessions_*` series plus the stage-latency histograms.
    /// Strictly observational — corrections are byte-identical with
    /// telemetry on or off.
    pub telemetry: TelemetryHandle,
}

impl ServiceConfig {
    /// A service configuration with default threading (all cores), the
    /// default window geometry, and telemetry disabled.
    pub fn new(d: usize, backend: ServiceBackend, budget: CycleBudget) -> Self {
        Self {
            d,
            backend,
            budget,
            threads: 0,
            window: None,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Pins the pump worker pool to `threads` workers (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the sliding-window geometry of the UF/MWPM baselines.
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.window = Some(window);
        self
    }

    /// Points the service's instrumentation at `telemetry`.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// The service-side metric bundle. Every metric is get-or-registered
/// against the handle's shared registry, so all shards of a fabric
/// report into the same fabric-wide series.
struct ServiceTelemetry {
    tracer: StageTracer,
    /// Rounds offered to session inboxes (includes pushes rejected at
    /// the session, so it can run slightly ahead of rounds decoded). Its
    /// per-stripe tick doubles as the deterministic 1-in-N sampling
    /// clock for queue-wait stamps.
    ingest: Arc<Counter>,
    rounds_decoded: Arc<Counter>,
    pump_calls: Arc<Counter>,
    /// Per-stripe drain tick driving the 1-in-N wall-clock sampling of
    /// the decode stage.
    drains: Arc<Counter>,
    /// Busy sessions that pool workers, not the pump caller, claimed off
    /// the cursor of a pump that fanned out: over `drains`, the share of
    /// all drains the pool threads carried.
    steals: Arc<Counter>,
    /// The pump pool's `qecool_pool_{parks,wakes}_total` series.
    pool: PoolCounters,
    busy_cycles: Arc<Counter>,
    sessions_opened: Arc<Counter>,
    sessions_closed: Arc<Counter>,
    sessions_overflowed: Arc<Counter>,
    sessions_open: Arc<Gauge>,
}

impl ServiceTelemetry {
    fn new(registry: &Arc<MetricsRegistry>) -> Self {
        Self {
            tracer: StageTracer::new(registry),
            ingest: registry.counter(
                "qecool_service_ingest_total",
                "Rounds offered to session inboxes (including rejected pushes)",
            ),
            rounds_decoded: registry.counter(
                "qecool_service_rounds_decoded_total",
                "Rounds decoded under the per-round cycle budget",
            ),
            pump_calls: registry.counter(
                "qecool_service_pump_calls_total",
                "DecodeService::pump invocations",
            ),
            drains: registry.counter(
                "qecool_service_drains_total",
                "Inbox drain batches executed",
            ),
            steals: registry.counter(
                "qecool_pool_steals_total",
                "Busy sessions pool workers (not the pump caller) claimed off the pump cursor",
            ),
            pool: PoolCounters {
                parks: registry.counter(
                    "qecool_pool_parks_total",
                    "Times a pool worker parked on the work-ready condvar",
                ),
                wakes: registry
                    .counter("qecool_pool_wakes_total", "Times a parked pool worker woke"),
            },
            busy_cycles: registry.counter(
                "qecool_pool_busy_cycles_total",
                "Decode cycles spent draining inboxes, per worker stripe",
            ),
            sessions_opened: registry.counter(
                "qecool_sessions_opened_total",
                "Sessions opened over the service lifetime",
            ),
            sessions_closed: registry.counter(
                "qecool_sessions_closed_total",
                "Sessions closed over the service lifetime",
            ),
            sessions_overflowed: registry.counter(
                "qecool_sessions_overflowed_total",
                "Sessions that failed by register overflow",
            ),
            sessions_open: registry.gauge("qecool_sessions_open", "Currently open sessions"),
        }
    }
}

/// Handle to one open session. Ids are generation-tagged: a handle goes
/// stale the moment its session closes, and stale handles are rejected
/// rather than silently hitting a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    index: u32,
    generation: u32,
}

impl SessionId {
    pub(crate) fn from_parts(index: u32, generation: u32) -> Self {
        Self { index, generation }
    }

    pub(crate) fn index(self) -> u32 {
        self.index
    }

    pub(crate) fn generation(self) -> u32 {
        self.generation
    }

    /// Which of `num_shards` shards this id routes to. The sharded front
    /// end interleaves global indices across shards (`global = local ×
    /// N + shard`), so the shard is recoverable from the id alone — this
    /// is the "hash" every ingest-path routing decision uses.
    pub(crate) fn shard_of(self, num_shards: u32) -> u32 {
        self.index % num_shards
    }
}

/// Errors surfaced by the session API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The session id was never opened, or its session already closed.
    UnknownSession,
    /// The session's decoder buffer overflowed: the decoder fell behind
    /// the stream and the session is failed (paper §V-B). The stream
    /// state is unrecoverable; close the session and reopen.
    Overflowed,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSession => write!(f, "unknown or closed session"),
            ServiceError::Overflowed => {
                write!(
                    f,
                    "session failed: decoder register overflow (stream fell behind)"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// A failed session is fatal to the tool driving it; the default
/// exit-code mapping (2) applies.
impl FatalError for ServiceError {}

/// What
/// [`ShardedDecodeService::poll_corrections`](crate::shard::ShardedDecodeService::poll_corrections)
/// hands back: the fresh corrections plus the session's commit
/// watermark at the time of the poll.
///
/// Derefs to the correction slice, so call sites that only want the
/// edges keep reading naturally (`polled.to_vec()`, `polled.iter()`,
/// `polled.len()`); the watermark rides along for callers that track
/// finality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Polled<C> {
    /// Corrections emitted since the previous poll.
    pub corrections: C,
    /// Highest session-lifetime round index whose corrections are final
    /// (see [`DecodeOutput::committed_through`]); `None` while nothing
    /// has committed.
    pub committed_through: Option<u64>,
}

impl<C: Deref<Target = [Edge]>> Deref for Polled<C> {
    type Target = [Edge];

    fn deref(&self) -> &[Edge] {
        &self.corrections
    }
}

impl<C: IntoIterator> IntoIterator for Polled<C> {
    type Item = C::Item;
    type IntoIter = C::IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        self.corrections.into_iter()
    }
}

/// Per-session latency accounting against the cycle budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Decode cycles available per round (the budget).
    pub budget_cycles: u64,
    /// Rounds decoded so far.
    pub rounds: u64,
    /// Total decode cycles spent.
    pub total_cycles: u64,
    /// Largest single-round decode cost observed.
    pub max_cycles: u64,
    /// Rounds whose decode step exhausted the budget with work still
    /// pending — the backlog pressure that eventually overflows the
    /// registers.
    pub overruns: u64,
    /// Log₂-bucketed distribution of per-round decode costs, for
    /// tail-latency (p99) reporting against the budget.
    pub histogram: CycleHistogram,
    /// Rounds whose corrections have been committed (covered by the
    /// session's watermark). Every non-overflowed round commits exactly
    /// once, so this catches up to `rounds` by session close.
    pub committed_rounds: u64,
    /// Total commit lag summed over committed rounds: how many rounds
    /// behind the stream head each round was when its corrections
    /// became final.
    pub total_lag_rounds: u64,
    /// Largest per-round commit lag observed.
    pub max_lag_rounds: u64,
    /// Log₂-bucketed distribution of per-round commit lags (unit:
    /// rounds), for tail (p99) commit-latency reporting.
    pub lag_histogram: CycleHistogram,
}

impl LatencyStats {
    fn record(&mut self, cycles: u64, idle: bool) {
        self.rounds += 1;
        self.total_cycles += cycles;
        self.max_cycles = self.max_cycles.max(cycles);
        self.histogram.record(cycles);
        if !idle {
            self.overruns += 1;
        }
    }

    fn record_commit(&mut self, lag_rounds: u64) {
        self.committed_rounds += 1;
        self.total_lag_rounds += lag_rounds;
        self.max_lag_rounds = self.max_lag_rounds.max(lag_rounds);
        self.lag_histogram.record(lag_rounds);
    }

    /// Conservative p99 of the commit lag, in rounds behind the stream
    /// head: the inclusive upper bound of the histogram bucket the p99
    /// committed round lands in, clamped to the observed maximum.
    pub fn commit_lag_p99_rounds(&self) -> u64 {
        self.lag_histogram.percentile(0.99).min(self.max_lag_rounds)
    }

    /// The p99 commit lag converted to decode cycles via the per-round
    /// budget — the "how late against the paper's deadline" view.
    pub fn commit_lag_p99_cycles(&self) -> u64 {
        self.commit_lag_p99_rounds() * self.budget_cycles
    }

    /// Mean commit lag in rounds (0 when nothing has committed).
    pub fn mean_lag_rounds(&self) -> f64 {
        if self.committed_rounds == 0 {
            0.0
        } else {
            self.total_lag_rounds as f64 / self.committed_rounds as f64
        }
    }

    /// Conservative p99 of the per-round decode cost: the inclusive
    /// upper bound of the histogram bucket the p99 round lands in,
    /// clamped to the observed maximum.
    pub fn p99_cycles(&self) -> u64 {
        self.histogram.percentile(0.99).min(self.max_cycles)
    }

    /// Mean decode cycles per round (0 when no round was decoded).
    pub fn mean_cycles(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.rounds as f64
        }
    }

    /// Fraction of the per-round budget the mean round consumes.
    pub fn mean_utilisation(&self) -> f64 {
        if self.budget_cycles == 0 {
            0.0
        } else {
            self.mean_cycles() / self.budget_cycles as f64
        }
    }
}

/// Final report handed back by
/// [`ShardedDecodeService::close_session`](crate::shard::ShardedDecodeService::close_session).
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Corrections emitted since the last poll, including everything the
    /// closing drain resolved. Empty when the session overflowed — a
    /// failed stream's corrections are withdrawn, consistent with the
    /// poll erroring after overflow.
    pub corrections: Vec<Edge>,
    /// Latency accounting over the session's budget-bound serving
    /// rounds. The closing drain is *not* included — see
    /// [`Self::closing_cycles`].
    pub latency: LatencyStats,
    /// Cycles the unbounded closing drain consumed at teardown. Kept
    /// out of [`Self::latency`] so per-round budget utilisation is not
    /// skewed by the one decode that has no deadline.
    pub closing_cycles: u64,
    /// `true` when the session failed by register overflow.
    pub overflowed: bool,
    /// Rounds ingested over the session's lifetime.
    pub rounds_ingested: u64,
    /// Rounds discarded at ingest: pushes are fire-and-forget, so rounds
    /// pushed into an already-failed session are counted here rather
    /// than lost silently.
    pub rounds_dropped: u64,
    /// The session's final commit watermark. For a non-overflowed
    /// session the closing drain commits everything remaining, so this
    /// is `Some(rounds_ingested - 1)` whenever any round was ingested.
    pub committed_through: Option<u64>,
}

/// One live session: backend decoder, inbound round queue, emitted
/// corrections and latency accounting.
struct Session {
    backend: Box<dyn Decoder + Send>,
    /// Rounds accepted but not yet decoded.
    inbox: VecDeque<DetectionRound>,
    /// Retired round buffers awaiting reuse.
    spare: Vec<DetectionRound>,
    /// Reused per-step decode output.
    scratch: DecodeOutput,
    /// Corrections emitted and not yet consumed by a poll.
    corrections: Vec<Edge>,
    consumed: usize,
    latency: LatencyStats,
    overflowed: bool,
    rounds_ingested: u64,
    rounds_dropped: u64,
    /// Rounds successfully handed to the backend decoder — the stream
    /// head the commit lag is measured against.
    fed: u64,
    /// Highest round index whose corrections are final, mirrored from
    /// the backend's [`DecodeOutput::committed_through`] watermark.
    committed_through: Option<u64>,
    /// Telemetry queue-wait stamps, parallel to `inbox` (0 = the round
    /// was not sampled). Empty for the whole session life when the
    /// service's telemetry is disabled.
    stamps: VecDeque<u64>,
    /// Telemetry: registry-epoch ns when the last drain that produced
    /// fresh corrections ended (sampled drains only; 0 = none pending).
    /// The next poll turns it into a poll-to-drain segment.
    last_emit_ns: u64,
}

impl Session {
    fn new(backend: Box<dyn Decoder + Send>, budget_cycles: u64) -> Self {
        Self {
            backend,
            inbox: VecDeque::new(),
            spare: Vec::new(),
            scratch: DecodeOutput::default(),
            corrections: Vec::new(),
            consumed: 0,
            latency: LatencyStats {
                budget_cycles,
                ..LatencyStats::default()
            },
            overflowed: false,
            rounds_ingested: 0,
            rounds_dropped: 0,
            fed: 0,
            committed_through: None,
            stamps: VecDeque::new(),
            last_emit_ns: 0,
        }
    }

    /// Folds the backend's watermark advance (left in `scratch` by the
    /// last `decode_step`/`finish`) into the commit-lag accounting: one
    /// lag sample — rounds behind the stream head — per newly committed
    /// round, recorded exactly (not sampled) into the stats and, when
    /// telemetry is on, the [`Stage::CommitLag`] series.
    fn note_commits(&mut self, obs: Option<(&ServiceTelemetry, usize)>) {
        let Some(new) = self.scratch.committed_through else {
            return;
        };
        let start = match self.committed_through {
            Some(old) if new <= old => return,
            Some(old) => old + 1,
            None => 0,
        };
        // The backend never commits past what it was fed.
        debug_assert!(self.fed > new, "watermark ahead of the stream head");
        let head = self.fed.saturating_sub(1);
        for r in start..=new {
            let lag = head - r;
            self.latency.record_commit(lag);
            if let Some((t, stripe)) = obs {
                t.tracer.record(Stage::CommitLag, stripe, lag);
            }
        }
        self.committed_through = Some(new);
    }

    /// `stamp`: `None` when telemetry is disabled (the stamp queue stays
    /// empty), `Some(ns)` to track a queue-wait stamp (0 = unsampled).
    fn enqueue(&mut self, round: &DetectionRound, stamp: Option<u64>) {
        let mut buf = self
            .spare
            .pop()
            .unwrap_or_else(|| DetectionRound::zeros(round.events().len()));
        buf.copy_from(round);
        self.inbox.push_back(buf);
        if let Some(stamp) = stamp {
            self.stamps.push_back(stamp);
        }
        self.rounds_ingested += 1;
    }

    /// Reclaims the already-polled prefix of the correction buffer so a
    /// long-lived session's memory stays bounded by one poll interval's
    /// worth of corrections (the borrow handed out by the previous poll
    /// has necessarily ended by the time this runs).
    fn compact_corrections(&mut self) {
        if self.consumed > 0 {
            self.corrections.drain(..self.consumed);
            self.consumed = 0;
        }
    }

    /// Decodes every queued round in arrival order, each under the
    /// per-round budget. The session hot loop: no allocation once warm.
    ///
    /// `obs` is `Some((bundle, stripe))` when the owning service has
    /// telemetry enabled; everything recorded through it is derived from
    /// state this loop already computes, so the decode results are
    /// identical either way.
    fn drain_inbox(&mut self, budget: u64, obs: Option<(&ServiceTelemetry, usize)>) {
        self.compact_corrections();
        if self.inbox.is_empty() {
            return;
        }
        // Wall-clock sampling: one drain in STAGE_SAMPLE_PERIOD (per
        // stripe) measures the decode stage; `max(1)` so 0 keeps meaning
        // "unsampled".
        let mut drain_start = 0u64;
        if let Some((t, stripe)) = obs {
            if t.drains.tick(stripe).is_multiple_of(STAGE_SAMPLE_PERIOD) {
                drain_start = t.tracer.now_ns().max(1);
            }
        }
        let corrections_before = self.corrections.len();
        let cycles_before = self.latency.total_cycles;
        let rounds_before = self.latency.rounds;
        // Lazily-taken timestamp shared by this batch's queue-wait
        // samples; one clock read per drain at most.
        let mut batch_now = drain_start;
        while let Some(round) = self.inbox.pop_front() {
            let stamp = self.stamps.pop_front().unwrap_or(0);
            if !self.overflowed {
                if let Some((t, stripe)) = obs {
                    if stamp != 0 {
                        if batch_now == 0 {
                            batch_now = t.tracer.now_ns().max(1);
                        }
                        t.tracer
                            .record(Stage::QueueWait, stripe, batch_now.saturating_sub(stamp));
                    }
                }
                match self.backend.ingest(&round) {
                    Ok(()) => {
                        self.fed += 1;
                        self.backend.decode_step(Some(budget), &mut self.scratch);
                        self.corrections
                            .extend_from_slice(&self.scratch.corrections);
                        self.latency.record(self.scratch.cycles, self.scratch.idle);
                        self.note_commits(obs);
                    }
                    Err(RegOverflow { .. }) => self.overflowed = true,
                }
            }
            self.spare.push(round);
        }
        if let Some((t, stripe)) = obs {
            let decoded = self.latency.rounds - rounds_before;
            if decoded > 0 {
                t.rounds_decoded.add(stripe, decoded);
                t.busy_cycles
                    .add(stripe, self.latency.total_cycles - cycles_before);
            }
            if drain_start != 0 {
                let end = t.tracer.now_ns().max(1);
                t.tracer
                    .record(Stage::Decode, stripe, end.saturating_sub(drain_start));
                if self.corrections.len() > corrections_before {
                    self.last_emit_ns = end;
                }
            }
        }
    }

    /// End-of-stream: rounds still queued are ingested *without* a
    /// budgeted step — teardown has no real-time deadline, so they fold
    /// into the backend's final unbounded drain, exactly like the
    /// closing perfect round of an offline memory-experiment trial.
    ///
    /// Returns the cycles the closing drain consumed. They are reported
    /// separately in the [`SessionReport`] rather than folded into
    /// [`LatencyStats`], which tracks only budget-bound serving rounds.
    fn finish(&mut self, obs: Option<(&ServiceTelemetry, usize)>) -> u64 {
        self.stamps.clear();
        while let Some(round) = self.inbox.pop_front() {
            if !self.overflowed {
                match self.backend.ingest(&round) {
                    Ok(()) => self.fed += 1,
                    Err(RegOverflow { .. }) => self.overflowed = true,
                }
            }
            self.spare.push(round);
        }
        if self.overflowed {
            return 0;
        }
        self.backend.finish(&mut self.scratch);
        self.corrections
            .extend_from_slice(&self.scratch.corrections);
        self.note_commits(obs);
        self.scratch.cycles
    }
}

/// A slot in the session table; closed slots keep their generation so
/// stale [`SessionId`]s can be told apart from recycled ones.
struct Slot {
    generation: u32,
    /// Boxed, so a parallel pump hands the session to its drainer as a
    /// pointer and the session itself stays where it is.
    session: Option<Box<Session>>,
    /// Whether this slot's index currently sits on the free list. The
    /// flag makes reclamation **idempotent**: a slot can only be pushed
    /// while the flag is clear, so re-running reclamation (e.g. a second
    /// panicked pump before the first freed slot was reused) can never
    /// double-insert an index and hand one slot to two live sessions.
    on_free: bool,
}

/// The parallel pump's persistent pool batch: the busy sessions of one
/// pump, kept (with its capacity) between pumps.
struct PumpTable {
    /// Busy sessions by slot index, in slot order. Entry `i` belongs to
    /// whichever thread claims `i` off the pool's cursor, so its lock is
    /// never contended; it only turns that exclusive claim into `&mut`.
    cells: Vec<(u32, Mutex<Option<Box<Session>>>)>,
    budget: u64,
    obs: Option<Arc<ServiceTelemetry>>,
}

impl Batch for PumpTable {
    fn items(&self) -> usize {
        self.cells.len()
    }

    /// Drains one busy session in place (see [`drain_in_cell`]).
    fn run(&self, index: usize, stripe: usize) {
        let obs = self.obs.as_deref().map(|t| (t, stripe));
        // Stripe 0 is the pump caller; every other stripe is a pool
        // worker.
        if let Some((t, stripe @ 1..)) = obs {
            t.steals.add(stripe, 1);
        }
        drain_in_cell(&mut self.cells[index].1.lock(), self.budget, obs);
    }
}

/// Drains the busy session in `cell` where it stands. The session is
/// out of its cell while it drains, so a drain that panics loses it and
/// leaves the cell empty — the pump's panic contract, the same whether
/// the caller drains the session inline or a pool thread does.
fn drain_in_cell(
    cell: &mut Option<Box<Session>>,
    budget: u64,
    obs: Option<(&ServiceTelemetry, usize)>,
) {
    let mut session = cell.take().expect("each busy session drains once");
    session.drain_inbox(budget, obs);
    *cell = Some(session);
}

/// What one fan-out of a pump costs its caller: waking the pool, the
/// wait for a worker's first claim and the end wait. On the 2-vCPU AVX2
/// VM the caller's `notify_all` took about 11–15 µs once warm, the
/// worker claimed its first session about 19 µs after it, and the end
/// wait took 8–12 µs — more than the 28 µs the 64 d = 5 QECOOL sessions
/// of a `serve_qecool_d5` pump decode serially, and the sessions the
/// other core drains come back cache-cold. So the sessions still busy
/// go to the pool only when, at the pump's own pace, draining them
/// inline would take longer than this.
///
/// 300 µs was picked against 100 µs and 1 ms on both serving perfbench
/// workloads (seed 1, alternating 10 s pairs on the same VM). The three
/// read alike on `replay_uf_d9`, whose window ticks fan out at each of
/// them. On `serve_qecool_d5`, 100 µs fanned out about 14k pumps in
/// 108k (one slow first drain, extrapolated over the 63 sessions left,
/// is enough), 300 µs 179 in 100k, and 1 ms served no faster.
const FAN_OUT_COST: Duration = Duration::from_micros(300);

/// Whether a pump that drained `drained` busy sessions inline in
/// `elapsed` hands the `pending` sessions still busy to its pool: only
/// when at least two are left to share, and only when, at the pace so
/// far (`elapsed ÷ drained` each), they would take longer to drain
/// inline than [`FAN_OUT_COST`].
fn should_fan_out(elapsed: Duration, drained: usize, pending: usize) -> bool {
    pending >= 2 && elapsed.as_nanos() * pending as u128 > FAN_OUT_COST.as_nanos() * drained as u128
}

/// The body of one shard of a
/// [`ShardedDecodeService`](crate::shard::ShardedDecodeService): its
/// session table and its persistent pump pool. The fabric holds each
/// core behind a lock and documents the serving calls.
pub(crate) struct ShardCore {
    lattice: Lattice,
    config: ServiceConfig,
    budget_cycles: u64,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// The parallel pump's persistent pool over its session table,
    /// created at the first pump with parallel work and reused until the
    /// core drops.
    pool: Option<WorkerPool<PumpTable>>,
    /// Telemetry bundle; `None` when the config's handle is disabled.
    obs: Option<Arc<ServiceTelemetry>>,
}

impl ShardCore {
    pub(crate) fn new(config: ServiceConfig) -> Result<Self, LatticeError> {
        let lattice = Lattice::new(config.d)?;
        let budget_cycles = config.budget.cycles_per_round();
        let obs = config
            .telemetry
            .registry()
            .map(|registry| Arc::new(ServiceTelemetry::new(registry)));
        Ok(Self {
            lattice,
            config,
            budget_cycles,
            slots: Vec::new(),
            free: Vec::new(),
            pool: None,
            obs,
        })
    }

    pub(crate) fn num_sessions(&self) -> usize {
        self.slots.iter().filter(|s| s.session.is_some()).count()
    }

    /// A fresh session decoder. The UF/MWPM baselines slide the
    /// configured window, or `W = 3d, S = d`.
    fn make_backend(&self) -> Box<dyn Decoder + Send> {
        let kind = match self.config.backend {
            ServiceBackend::Qecool => DecoderKind::OnlineQecool {
                budget_cycles: self.budget_cycles,
            },
            ServiceBackend::UnionFind => DecoderKind::UnionFind,
            ServiceBackend::Mwpm => DecoderKind::Mwpm,
        };
        let window = self
            .config
            .window
            .unwrap_or_else(|| WindowConfig::default_for(self.config.d));
        kind.build(&self.lattice, window, DEFAULT_BOUNDARY_PENALTY)
    }

    pub(crate) fn commit_hint(&self) -> CommitHint {
        self.make_backend().commit_hint()
    }

    /// Opens a session, recycling a closed slot under a bumped
    /// generation.
    pub(crate) fn open_session(&mut self) -> SessionId {
        if let Some(t) = self.obs.as_deref() {
            t.sessions_opened.add(thread_stripe(), 1);
            t.sessions_open.inc();
        }
        let session = Box::new(Session::new(self.make_backend(), self.budget_cycles));
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.generation += 1;
            slot.session = Some(session);
            slot.on_free = false;
            return SessionId {
                index,
                generation: slot.generation,
            };
        }
        self.slots.push(Slot {
            generation: 0,
            session: Some(session),
            on_free: false,
        });
        SessionId {
            index: (self.slots.len() - 1) as u32,
            generation: 0,
        }
    }

    /// Takes the slot table rather than `self`, so hot paths can borrow
    /// the telemetry handle (`self.obs`) immutably alongside the mutable
    /// session borrow instead of cloning the `Arc` per call.
    fn session_mut(slots: &mut [Slot], id: SessionId) -> Result<&mut Session, ServiceError> {
        slots
            .get_mut(id.index as usize)
            .filter(|slot| slot.generation == id.generation)
            .and_then(|slot| slot.session.as_deref_mut())
            .ok_or(ServiceError::UnknownSession)
    }

    fn session(&self, id: SessionId) -> Result<&Session, ServiceError> {
        self.slots
            .get(id.index as usize)
            .filter(|slot| slot.generation == id.generation)
            .and_then(|slot| slot.session.as_deref())
            .ok_or(ServiceError::UnknownSession)
    }

    /// Copies one round into a session's inbox and returns `true`, or
    /// drops it and returns `false`: a failed session's drop is billed to
    /// its [`SessionReport::rounds_dropped`]; a stale handle has no
    /// session to bill.
    pub(crate) fn push_round(&mut self, id: SessionId, round: &DetectionRound) -> bool {
        let width = self.lattice.num_ancillas();
        // Queue-wait sampling: 1 push in STAGE_SAMPLE_PERIOD (per
        // stripe) is stamped; `max(1)` so 0 keeps meaning "unsampled".
        let stamp = self.obs.as_deref().map(|t| {
            if t.ingest
                .tick(thread_stripe())
                .is_multiple_of(STAGE_SAMPLE_PERIOD)
            {
                t.tracer.now_ns().max(1)
            } else {
                0
            }
        });
        let Ok(session) = Self::session_mut(&mut self.slots, id) else {
            return false;
        };
        if session.overflowed {
            session.rounds_dropped += 1;
            return false;
        }
        assert_eq!(
            round.events().len(),
            width,
            "round width does not match service lattice"
        );
        session.enqueue(round, stamp);
        true
    }

    pub(crate) fn poll_corrections(
        &mut self,
        id: SessionId,
    ) -> Result<Polled<Vec<Edge>>, ServiceError> {
        let budget = self.budget_cycles;
        let obs = self.obs.as_deref();
        let stripe = if obs.is_some() { thread_stripe() } else { 0 };
        let session = Self::session_mut(&mut self.slots, id)?;
        // Poll-to-drain: corrections produced by an earlier (sampled)
        // pump drain have been sitting since `last_emit_ns`; this poll
        // is the moment the caller finally collects them.
        if let Some(t) = obs {
            if session.last_emit_ns != 0 {
                let waited = t.tracer.now_ns().saturating_sub(session.last_emit_ns);
                t.tracer.record(Stage::PollDrain, stripe, waited);
                session.last_emit_ns = 0;
            }
        }
        session.drain_inbox(budget, obs.map(|t| (t, stripe)));
        if session.overflowed {
            return Err(ServiceError::Overflowed);
        }
        let fresh = session.corrections[session.consumed..].to_vec();
        session.consumed = session.corrections.len();
        Ok(Polled {
            corrections: fresh,
            committed_through: session.committed_through,
        })
    }

    pub(crate) fn latency(&self, id: SessionId) -> Result<LatencyStats, ServiceError> {
        Ok(self.session(id)?.latency)
    }

    pub(crate) fn is_overflowed(&self, id: SessionId) -> Result<bool, ServiceError> {
        Ok(self.session(id)?.overflowed)
    }

    /// See [`ShardedDecodeService::pump`](crate::shard::ShardedDecodeService::pump).
    pub(crate) fn pump(&mut self) {
        let budget = self.budget_cycles;
        let obs = self.obs.as_deref();
        let stripe = if obs.is_some() { thread_stripe() } else { 0 };
        if let Some(t) = obs {
            t.pump_calls.add(stripe, 1);
        }
        let busy = |slot: &Slot| slot.session.as_ref().is_some_and(|s| !s.inbox.is_empty());
        let mut pending = self.slots.iter().filter(|slot| busy(slot)).count();
        if pending == 0 {
            return;
        }
        let configured = worker_count(self.config.threads);
        let start = Instant::now();
        let mut panic = None;
        let mut drained = 0usize;
        // Slots before `rest` have drained inline.
        let mut rest = 0;
        while pending > 0 {
            let slot = &mut self.slots[rest];
            rest += 1;
            if !busy(slot) {
                continue;
            }
            let drain = || drain_in_cell(&mut slot.session, budget, obs.map(|t| (t, stripe)));
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(drain)) {
                panic.get_or_insert(payload);
            }
            drained += 1;
            pending -= 1;
            // The clock is read after drains 1, 2, 4, 8, …, so a pump
            // of cheap sessions reads it a handful of times.
            if configured > 1
                && drained.is_power_of_two()
                && should_fan_out(start.elapsed(), drained, pending)
            {
                break;
            }
        }
        if pending > 0 {
            panic = panic.or(self.fan_out(rest, configured.min(pending)));
        }
        if let Some(payload) = panic {
            // The panicking session is gone; free its slot so it can be
            // recycled (its handle reports `UnknownSession` from here
            // on). The busy slots that came back empty are exactly the
            // ones whose drain panicked; `release_slot` is idempotent
            // (per-slot `on_free` flag), so rescanning the whole table —
            // here and again on any later panicked pump — can never push
            // an index twice and alias two sessions onto one slot.
            for idx in 0..self.slots.len() as u32 {
                self.release_slot(idx);
            }
            std::panic::resume_unwind(payload);
        }
    }

    /// Drains the busy sessions from slot `from` on across `threads`
    /// draining threads (the caller and `threads − 1` pool threads) and
    /// returns the first panic payload. The pool is created at the first
    /// fan-out and reused until the core drops.
    fn fan_out(&mut self, from: usize, threads: usize) -> Option<Panic> {
        let pool = self.pool.get_or_insert_with(|| {
            let table = PumpTable {
                cells: Vec::new(),
                budget: self.budget_cycles,
                obs: self.obs.clone(),
            };
            WorkerPool::new(table, self.obs.as_ref().map(|t| t.pool.clone()))
        });
        pool.batch_mut()
            .cells
            .extend(
                self.slots
                    .iter_mut()
                    .enumerate()
                    .skip(from)
                    .filter_map(|(idx, slot)| {
                        let session = slot.session.take_if(|s| !s.inbox.is_empty())?;
                        Some((idx as u32, Mutex::new(Some(session))))
                    }),
            );
        let panic = pool.run(threads - 1);
        for (idx, cell) in pool.batch_mut().cells.drain(..) {
            self.slots[idx as usize].session = cell.into_inner();
        }
        panic
    }

    /// Returns an emptied slot's index to the free list exactly once,
    /// however many times it is called — the per-slot `on_free` flag is
    /// the idempotence guard. No-op for slots that still hold a session.
    fn release_slot(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        if slot.session.is_none() && !slot.on_free {
            slot.on_free = true;
            self.free.push(index);
        }
    }

    /// Draining threads of a pump that fans out: pool threads plus the
    /// caller, 0 until the first fan-out creates the pool.
    pub(crate) fn pool_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |pool| pool.workers() + 1)
    }

    pub(crate) fn close_session(&mut self, id: SessionId) -> Result<SessionReport, ServiceError> {
        // Validate the handle before taking the session out.
        Self::session_mut(&mut self.slots, id)?;
        let slot = &mut self.slots[id.index as usize];
        let mut session = slot.session.take().expect("session just validated");
        self.release_slot(id.index);
        let closing_cycles = session.finish(self.obs.as_deref().map(|t| (t, thread_stripe())));
        let corrections = if session.overflowed {
            Vec::new()
        } else {
            session.corrections.split_off(session.consumed)
        };
        if let Some(t) = self.obs.as_deref() {
            let stripe = thread_stripe();
            t.sessions_closed.add(stripe, 1);
            t.sessions_open.dec();
            if session.overflowed {
                t.sessions_overflowed.add(stripe, 1);
            }
        }
        Ok(SessionReport {
            corrections,
            latency: session.latency,
            closing_cycles,
            overflowed: session.overflowed,
            rounds_ingested: session.rounds_ingested,
            rounds_dropped: session.rounds_dropped,
            committed_through: session.committed_through,
        })
    }

    /// Swaps a live session's backend — a test hook for injecting
    /// panicking or otherwise misbehaving decoders into the pump path.
    #[cfg(test)]
    pub(crate) fn replace_backend_for_test(
        &mut self,
        id: SessionId,
        backend: Box<dyn Decoder + Send>,
    ) {
        Self::session_mut(&mut self.slots, id)
            .expect("live session")
            .backend = backend;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qecool_surface_code::{CodePatch, NoiseSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::atomic::Ordering;

    fn service(backend: ServiceBackend, threads: usize) -> ShardCore {
        let config =
            ServiceConfig::new(5, backend, CycleBudget::at_clock(2.0e9)).with_threads(threads);
        ShardCore::new(config).unwrap()
    }

    /// Drives one session end-to-end over a seeded noise stream,
    /// applying corrections round by round, and returns the final patch
    /// plus the close report.
    fn drive_session(
        service: &mut ShardCore,
        seed: u64,
        rounds: usize,
        p: f64,
    ) -> (CodePatch, SessionReport) {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        let noise = NoiseSpec::Phenomenological { p };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        let id = service.open_session();
        for _ in 0..rounds {
            patch.noisy_round_into(&noise, &mut rng, &mut round);
            assert!(service.push_round(id, &round));
            let corrections: Vec<Edge> = service.poll_corrections(id).unwrap().to_vec();
            patch.apply_corrections(corrections);
        }
        patch.perfect_round_into(&mut round);
        assert!(service.push_round(id, &round));
        let report = service.close_session(id).unwrap();
        patch.apply_corrections(report.corrections.iter().copied());
        (patch, report)
    }

    #[test]
    fn qecool_session_returns_to_code_space() {
        let mut service = service(ServiceBackend::Qecool, 1);
        for seed in 0..10 {
            let (patch, report) = drive_session(&mut service, seed, 5, 0.03);
            assert!(patch.syndrome_is_trivial(), "seed {seed} left syndrome");
            assert!(!report.overflowed);
            assert_eq!(report.rounds_ingested, 6);
            // 5 budget-bound serving rounds; the closing round decodes
            // in the teardown drain, accounted separately.
            assert_eq!(report.latency.rounds, 5);
            assert!(report.closing_cycles > 0);
        }
    }

    #[test]
    fn windowed_backends_return_to_code_space() {
        for backend in [ServiceBackend::UnionFind, ServiceBackend::Mwpm] {
            let mut service = service(backend, 1);
            for seed in 0..5 {
                let (patch, report) = drive_session(&mut service, seed, 4, 0.04);
                assert!(
                    patch.syndrome_is_trivial(),
                    "{backend:?} seed {seed} left syndrome"
                );
                // Windowed decoders emit everything at close.
                assert!(!report.overflowed);
            }
        }
    }

    #[test]
    fn stale_session_handles_are_rejected() {
        let mut service = service(ServiceBackend::Qecool, 1);
        let id = service.open_session();
        service.close_session(id).unwrap();
        assert!(!service.push_round(id, &DetectionRound::zeros(40)));
        assert_eq!(
            service.poll_corrections(id).unwrap_err(),
            ServiceError::UnknownSession
        );
        assert!(service.close_session(id).is_err());
        // The recycled slot gets a fresh generation.
        let recycled = service.open_session();
        assert_ne!(recycled, id);
        assert!(service.poll_corrections(recycled).is_ok());
    }

    #[test]
    fn overflow_fails_the_session_but_close_reports_it() {
        // d = 5 online config has 7-layer registers and th_v = 3: an
        // event-bearing stream with a zero-cycle budget must overflow.
        let config = ServiceConfig::new(
            5,
            ServiceBackend::Qecool,
            CycleBudget::new(1.0, 1.0), // 1 cycle per round: starved
        );
        let mut service = ShardCore::new(config).unwrap();
        let id = service.open_session();
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        let noise = NoiseSpec::Phenomenological { p: 0.2 };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut overflowed = false;
        for _ in 0..20 {
            let round = patch.noisy_round(&noise, &mut rng);
            if !service.push_round(id, &round) {
                overflowed = true;
                break;
            }
            if service.poll_corrections(id).is_err() {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "starved budget should overflow the registers");
        assert!(service.is_overflowed(id).unwrap());
        let report = service.close_session(id).unwrap();
        assert!(report.overflowed);
        // A failed stream's corrections are withdrawn everywhere: the
        // close report must not hand back what poll refused to release.
        assert!(report.corrections.is_empty());
    }

    #[test]
    fn polled_corrections_are_reclaimed() {
        // A long-lived session must not accumulate consumed corrections:
        // after each poll the next drain reclaims the polled prefix, so
        // the buffer length stays bounded by one interval's output.
        let mut service = service(ServiceBackend::Qecool, 1);
        let id = service.open_session();
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        let noise = NoiseSpec::Phenomenological { p: 0.08 };
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        let mut max_live = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            patch.noisy_round_into(&noise, &mut rng, &mut round);
            assert!(service.push_round(id, &round));
            let fresh: Vec<Edge> = service.poll_corrections(id).unwrap().to_vec();
            total += fresh.len();
            patch.apply_corrections(fresh.iter().copied());
            let session = service.slots[id.index as usize]
                .session
                .as_ref()
                .expect("session open");
            max_live = max_live.max(session.corrections.len());
        }
        assert!(total > 0, "noise at p = 0.08 must produce corrections");
        assert!(
            max_live < total,
            "correction buffer never compacted: {max_live} live vs {total} total"
        );
        assert!(
            max_live <= 64,
            "live corrections should stay bounded by one interval, got {max_live}"
        );
    }

    #[test]
    fn pump_matches_poll_across_thread_counts() {
        // Feed the same 8 streams into three services that differ only
        // in worker count; per-session corrections must be identical.
        let sessions = 8usize;
        let rounds = 6usize;
        let lattice = Lattice::new(5).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.03 };

        let mut per_thread_results: Vec<Vec<Vec<Edge>>> = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut service = service(ServiceBackend::Qecool, threads);
            let ids: Vec<SessionId> = (0..sessions).map(|_| service.open_session()).collect();
            let mut patches: Vec<CodePatch> = (0..sessions)
                .map(|_| CodePatch::new(lattice.clone()))
                .collect();
            let mut rngs: Vec<ChaCha8Rng> = (0..sessions)
                .map(|s| ChaCha8Rng::seed_from_u64(900 + s as u64))
                .collect();
            let mut collected: Vec<Vec<Edge>> = vec![Vec::new(); sessions];
            let mut round = DetectionRound::zeros(lattice.num_ancillas());
            for _ in 0..rounds {
                for s in 0..sessions {
                    patches[s].noisy_round_into(&noise, &mut rngs[s], &mut round);
                    assert!(service.push_round(ids[s], &round));
                }
                service.pump();
                for s in 0..sessions {
                    let fresh: Vec<Edge> = service.poll_corrections(ids[s]).unwrap().to_vec();
                    patches[s].apply_corrections(fresh.iter().copied());
                    collected[s].extend(fresh);
                }
            }
            for s in 0..sessions {
                patches[s].perfect_round_into(&mut round);
                assert!(service.push_round(ids[s], &round));
                let report = service.close_session(ids[s]).unwrap();
                collected[s].extend(report.corrections);
            }
            per_thread_results.push(collected);
        }
        assert_eq!(
            per_thread_results[0], per_thread_results[1],
            "1 vs 2 threads"
        );
        assert_eq!(
            per_thread_results[0], per_thread_results[2],
            "1 vs 8 threads"
        );
    }

    /// Pushes one noisy round into each of `sessions` open sessions.
    fn push_round_per_session(
        service: &mut ShardCore,
        ids: &[SessionId],
        patches: &mut [CodePatch],
        rngs: &mut [ChaCha8Rng],
        round: &mut DetectionRound,
    ) {
        let noise = NoiseSpec::Phenomenological { p: 0.05 };
        for (s, &id) in ids.iter().enumerate() {
            patches[s].noisy_round_into(&noise, &mut rngs[s], round);
            assert!(service.push_round(id, round));
        }
    }

    /// Sleeps well past [`FAN_OUT_COST`] in every decode step, then steps
    /// the real backend: a session that drains so slowly that a pump with
    /// another busy session provably fans out.
    struct Slow(Box<dyn Decoder + Send>);

    impl Decoder for Slow {
        fn ingest(&mut self, round: &DetectionRound) -> Result<(), RegOverflow> {
            self.0.ingest(round)
        }

        fn decode_step(&mut self, budget: Option<u64>, out: &mut DecodeOutput) {
            std::thread::sleep(FAN_OUT_COST * 4);
            self.0.decode_step(budget, out);
        }

        fn finish(&mut self, out: &mut DecodeOutput) {
            self.0.finish(out);
        }

        fn reset(&mut self) {
            self.0.reset();
        }
    }

    /// Opens a session whose backend is the service's own, wrapped in
    /// [`Slow`]: its corrections are the ones a plain session emits.
    fn open_slow_session(service: &mut ShardCore) -> SessionId {
        let id = service.open_session();
        let backend = Slow(service.make_backend());
        service.replace_backend_for_test(id, Box::new(backend));
        id
    }

    #[test]
    fn fan_out_needs_two_sessions_left_and_a_pace_past_its_cost() {
        let ns = Duration::from_nanos;
        // At the pace of one drain per `FAN_OUT_COST / 2`, two sessions
        // left take exactly the cost: the pump stays inline. One
        // nanosecond slower and it fans out.
        assert!(!should_fan_out(FAN_OUT_COST / 2, 1, 2));
        assert!(should_fan_out(FAN_OUT_COST / 2 + ns(1), 1, 2));
        // The pace is per drain: 4 sessions drained in the cost leave 4
        // that take it again.
        assert!(!should_fan_out(FAN_OUT_COST, 4, 4));
        assert!(should_fan_out(FAN_OUT_COST + ns(1), 4, 4));
        // One session left has no one to share it with, however slow.
        assert!(!should_fan_out(FAN_OUT_COST * 100, 1, 1));
        assert!(!should_fan_out(FAN_OUT_COST * 100, 1, 0));
        // A 64-session pump of 440 ns d = 5 QECOOL drains stays inline.
        assert!(!should_fan_out(ns(440), 1, 63));
        assert!(!should_fan_out(ns(440 * 32), 32, 32));
    }

    #[test]
    fn pump_reuses_the_worker_pool_across_calls() {
        let mut service = service(ServiceBackend::Qecool, 4);
        let lattice = Lattice::new(5).unwrap();
        let ids: Vec<SessionId> = (0..6).map(|_| open_slow_session(&mut service)).collect();
        let mut patches: Vec<CodePatch> = (0..6).map(|_| CodePatch::new(lattice.clone())).collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..6)
            .map(|s| ChaCha8Rng::seed_from_u64(50 + s as u64))
            .collect();
        let mut round = DetectionRound::zeros(lattice.num_ancillas());

        assert_eq!(
            service.pool_workers(),
            0,
            "pool must be lazy: no thread spawned"
        );

        push_round_per_session(&mut service, &ids, &mut patches, &mut rngs, &mut round);
        service.pump();
        let workers_after_first = service.pool_workers();
        assert!(workers_after_first > 0, "the slow pump fanned out");
        assert_eq!(
            workers_after_first - 1,
            3,
            "pool sized to configured threads, less the caller"
        );
        assert_eq!(
            service.pool_workers(),
            4,
            "draining threads: pool threads plus the caller"
        );

        // The spawn-counting hook: consecutive pumps must not create a
        // single new thread.
        for _ in 0..10 {
            push_round_per_session(&mut service, &ids, &mut patches, &mut rngs, &mut round);
            service.pump();
            assert_eq!(
                service.pool_workers(),
                workers_after_first,
                "pump respawned workers"
            );
        }
    }

    #[test]
    fn pool_grows_when_sessions_outnumber_it() {
        // 4 configured threads, but only 3 sessions exist at the first
        // pump: the caller drains one inline and fans the 2 left out on
        // 2 threads (the caller and one pool thread). The pool must grow
        // (never respawn) to 4 when the session count catches up.
        let mut service = service(ServiceBackend::Qecool, 4);
        let lattice = Lattice::new(5).unwrap();
        let mut ids: Vec<SessionId> = (0..3).map(|_| open_slow_session(&mut service)).collect();
        let mut patches: Vec<CodePatch> = (0..3).map(|_| CodePatch::new(lattice.clone())).collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..3)
            .map(|s| ChaCha8Rng::seed_from_u64(80 + s as u64))
            .collect();
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        push_round_per_session(&mut service, &ids, &mut patches, &mut rngs, &mut round);
        service.pump();
        assert!(service.pool_workers() > 0, "the slow pump fanned out");
        assert_eq!(service.pool_workers(), 2, "capped by the 2 sessions left");
        assert_eq!(service.pool_workers() - 1, 1, "the caller is the other");

        for s in 3..5 {
            ids.push(open_slow_session(&mut service));
            patches.push(CodePatch::new(lattice.clone()));
            rngs.push(ChaCha8Rng::seed_from_u64(80 + s as u64));
        }
        push_round_per_session(&mut service, &ids, &mut patches, &mut rngs, &mut round);
        service.pump();
        assert_eq!(
            service.pool_workers(),
            4,
            "pool grew with the session count"
        );
        assert_eq!(service.pool_workers() - 1, 3, "pool threads");
    }

    #[test]
    fn single_busy_session_never_spawns_the_pool() {
        let mut service = service(ServiceBackend::Qecool, 8);
        let lattice = Lattice::new(5).unwrap();
        // Several sessions open, but only one ever has pending work: a
        // pump has no second session to share, so it stays pool-free.
        let busy = service.open_session();
        let _idle_a = service.open_session();
        let _idle_b = service.open_session();
        let mut patch = CodePatch::new(lattice.clone());
        let noise = NoiseSpec::Phenomenological { p: 0.05 };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        for _ in 0..20 {
            patch.noisy_round_into(&noise, &mut rng, &mut round);
            assert!(service.push_round(busy, &round));
            service.pump();
        }
        assert_eq!(service.pool_workers(), 0, "no pool, so no thread spawned");
    }

    #[test]
    fn drop_shuts_the_pool_down_cleanly() {
        let mut service = service(ServiceBackend::Qecool, 3);
        let lattice = Lattice::new(5).unwrap();
        let ids: Vec<SessionId> = (0..4).map(|_| open_slow_session(&mut service)).collect();
        let mut patches: Vec<CodePatch> = (0..4).map(|_| CodePatch::new(lattice.clone())).collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..4)
            .map(|s| ChaCha8Rng::seed_from_u64(70 + s as u64))
            .collect();
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        push_round_per_session(&mut service, &ids, &mut patches, &mut rngs, &mut round);
        service.pump();

        assert!(service.pool_workers() > 0, "the slow pump fanned out");
        let spawned = service.pool_workers() - 1;
        assert!(spawned > 0);
        let shared = Arc::clone(&service.pool.as_ref().expect("pool live").shared);
        drop(service);
        // Drop joins every worker, so by now each has run its exit hook
        // and released its clone of the shared state.
        assert_eq!(shared.exited.load(Ordering::Acquire), spawned);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn latency_histogram_reports_p99() {
        let mut service = service(ServiceBackend::Qecool, 1);
        let (_, report) = drive_session(&mut service, 23, 50, 0.05);
        let lat = report.latency;
        assert_eq!(lat.histogram.total(), lat.rounds);
        let p99 = lat.p99_cycles();
        assert!(
            p99 >= lat.max_cycles / 2,
            "p99 {p99} vs max {}",
            lat.max_cycles
        );
        assert!(lat.histogram.percentile(1.0) >= lat.max_cycles);
    }

    #[test]
    fn latency_tracks_budget_and_overruns() {
        let mut service = service(ServiceBackend::Qecool, 1);
        let (_, report) = drive_session(&mut service, 11, 6, 0.05);
        let lat = report.latency;
        assert_eq!(lat.budget_cycles, 2000);
        assert_eq!(lat.rounds, 6);
        assert!(lat.total_cycles > 0);
        assert!(lat.max_cycles <= lat.total_cycles);
        assert!(lat.mean_cycles() > 0.0);
        assert!(lat.mean_utilisation() > 0.0);
    }

    /// Pins the zero-denominator behaviour of the latency means: a
    /// session with no decoded rounds (or a zero budget) must report
    /// 0.0, never NaN/∞ — dashboards divide by these numbers.
    #[test]
    fn latency_means_are_zero_not_nan_for_empty_sessions() {
        let empty = LatencyStats::default();
        assert_eq!(empty.rounds, 0);
        assert_eq!(empty.mean_cycles(), 0.0);
        assert_eq!(empty.mean_utilisation(), 0.0);

        // Rounds without a budget: utilisation is undefined, pinned to 0.
        let unbudgeted = LatencyStats {
            rounds: 4,
            total_cycles: 400,
            ..LatencyStats::default()
        };
        assert_eq!(unbudgeted.mean_cycles(), 100.0);
        assert_eq!(unbudgeted.mean_utilisation(), 0.0);

        // A freshly opened session reports the same clean zeros through
        // the service API.
        let mut service = service(ServiceBackend::Qecool, 1);
        let id = service.open_session();
        let lat = service.latency(id).unwrap();
        assert_eq!(lat.rounds, 0);
        assert_eq!(lat.mean_cycles(), 0.0);
        assert_eq!(lat.mean_utilisation(), 0.0);
        assert!(lat.mean_cycles().is_finite());
        assert!(lat.mean_utilisation().is_finite());
    }

    /// The p99 accessors report a bucket edge, which must never exceed
    /// the maximum actually observed.
    #[test]
    fn p99_never_exceeds_the_observed_max() {
        let mut lat = LatencyStats::default();
        for value in [3, 9, 14] {
            lat.record(value, true);
            lat.record_commit(value);
        }
        assert_eq!(lat.max_cycles, 14);
        assert_eq!(lat.max_lag_rounds, 14);
        // 14 lands in the [8, 15] bucket, whose edge is above the max.
        assert_eq!(lat.histogram.percentile(0.99), 15);
        assert_eq!(lat.p99_cycles(), 14);
        assert_eq!(lat.commit_lag_p99_rounds(), 14);
        assert_eq!(lat.commit_lag_p99_cycles(), 14 * lat.budget_cycles);
    }

    /// A backend whose decode step always panics — stands in for any
    /// bug that unwinds a pump worker mid-drain.
    struct PanicOnDecode;

    impl Decoder for PanicOnDecode {
        fn ingest(&mut self, _round: &DetectionRound) -> Result<(), RegOverflow> {
            Ok(())
        }

        fn decode_step(&mut self, _budget: Option<u64>, _out: &mut DecodeOutput) {
            panic!("injected decode panic");
        }

        fn finish(&mut self, _out: &mut DecodeOutput) {}

        fn reset(&mut self) {}
    }

    fn assert_free_list_consistent(service: &ShardCore) {
        let mut seen = std::collections::HashSet::new();
        for &idx in &service.free {
            assert!(seen.insert(idx), "slot {idx} on the free list twice");
            assert!(
                service.slots[idx as usize].session.is_none(),
                "live session's slot {idx} on the free list"
            );
            assert!(service.slots[idx as usize].on_free, "flag out of sync");
        }
    }

    #[test]
    fn slot_reclamation_after_worker_panic_is_idempotent() {
        // Regression: the post-panic rescan must never put a slot on the
        // free list twice — a duplicate would hand one slot to two
        // sessions, and the second open would corrupt the first's
        // generation tag. Panic two pumps in a row (the rescan runs over
        // the whole table each time) and then exercise the recycled
        // slots. The slow first session makes both pumps fan out, so the
        // panics unwind on the pool path.
        let mut service = service(ServiceBackend::Qecool, 2);
        let lattice = Lattice::new(5).unwrap();
        let ids: Vec<SessionId> = (0..4).map(|_| open_slow_session(&mut service)).collect();
        let round = {
            let mut patch = CodePatch::new(lattice.clone());
            patch.inject_error(lattice.horizontal_edge(1, 1));
            patch.perfect_round()
        };

        for panicking in [ids[1], ids[2]] {
            service.replace_backend_for_test(panicking, Box::new(PanicOnDecode));
            for &id in &ids {
                // Rounds for already-dead handles are skipped.
                let _ = service.push_round(id, &round);
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                service.pump();
            }));
            assert!(outcome.is_err(), "injected panic must reach the caller");
            assert!(service.pool_workers() > 0, "the slow pump fanned out");
            assert_free_list_consistent(&service);
            // The panicked session is gone; its handle is dead.
            assert_eq!(
                service.poll_corrections(panicking).unwrap_err(),
                ServiceError::UnknownSession
            );
        }

        // Both freed slots recycle to exactly one new session each, with
        // bumped generations; no two live sessions may share a slot.
        let replacements: Vec<SessionId> = (0..2).map(|_| service.open_session()).collect();
        let mut live: Vec<u32> = ids
            .iter()
            .filter(|id| service.session(**id).is_ok())
            .chain(&replacements)
            .map(|id| id.index)
            .collect();
        live.sort_unstable();
        live.dedup();
        assert_eq!(live.len(), 4, "two live sessions share a slot");
        assert_free_list_consistent(&service);

        // The survivors and replacements still serve.
        for id in replacements {
            assert!(service.push_round(id, &round));
        }
        service.pump();
        assert_free_list_consistent(&service);
    }

    /// Where [`PanicInPairs`] backends meet: the threads their decode
    /// steps ran on, in arrival order.
    type Arrivals = Arc<(
        std::sync::Mutex<Vec<std::thread::ThreadId>>,
        std::sync::Condvar,
    )>;

    /// A backend whose decode step panics, but only once a second one
    /// has arrived: arrivals pair up (1st with 2nd, 3rd with 4th, …), and
    /// the first of a pair blocks until its partner comes. Its thread
    /// cannot claim the partner meanwhile, so the two of a pair always
    /// panic on different threads.
    struct PanicInPairs(Arrivals);

    impl Decoder for PanicInPairs {
        fn ingest(&mut self, _round: &DetectionRound) -> Result<(), RegOverflow> {
            Ok(())
        }

        fn decode_step(&mut self, _budget: Option<u64>, _out: &mut DecodeOutput) {
            let (arrivals, met) = &*self.0;
            let mut arrived = arrivals.lock().unwrap();
            arrived.push(std::thread::current().id());
            let pair = arrived.len().next_multiple_of(2);
            met.notify_all();
            // A timeout only means the pump never ran a second thread;
            // the test's thread checks then fail instead of hanging.
            let timeout = std::time::Duration::from_secs(10);
            drop(met.wait_timeout_while(arrived, timeout, |a| a.len() < pair));
            panic!("injected decode panic");
        }

        fn finish(&mut self, _out: &mut DecodeOutput) {}

        fn reset(&mut self) {}
    }

    #[test]
    fn drain_panics_on_the_caller_and_a_worker_lose_only_their_sessions() {
        // Eight busy sessions at threads = 2, four of which panic in one
        // pump, in cross-thread pairs: the caller and the worker each
        // drain panicking sessions and must both go on claiming. Session
        // 0 is slow, so the caller's first inline drain (never a
        // rendezvous) makes the pump fan the other seven out.
        let lattice = Lattice::new(5).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.05 };
        let sessions = 8usize;
        let panicking = [1usize, 3, 5, 7];
        let arrivals = Arrivals::default();
        let mut reference = service(ServiceBackend::Qecool, 2);
        let mut service = service(ServiceBackend::Qecool, 2);
        let ref_ids: Vec<SessionId> = (0..sessions).map(|_| reference.open_session()).collect();
        let ids: Vec<SessionId> = std::iter::once(open_slow_session(&mut service))
            .chain((1..sessions).map(|_| service.open_session()))
            .collect();
        for &s in &panicking {
            let backend = PanicInPairs(Arc::clone(&arrivals));
            service.replace_backend_for_test(ids[s], Box::new(backend));
        }
        for s in 0..sessions {
            let mut patch = CodePatch::new(lattice.clone());
            let mut rng = ChaCha8Rng::seed_from_u64(600 + s as u64);
            for _ in 0..3 {
                let round = patch.noisy_round(&noise, &mut rng);
                assert!(reference.push_round(ref_ids[s], &round));
                assert!(service.push_round(ids[s], &round));
            }
        }
        reference.pump();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| service.pump()))
            .expect_err("the drain panics must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected decode panic")
        );
        assert!(service.pool_workers() > 0, "the slow pump fanned out");
        let ran_on = arrivals.0.lock().unwrap().clone();
        assert_eq!(ran_on.len(), panicking.len(), "one drain each");
        assert!(
            ran_on.contains(&std::thread::current().id()),
            "the caller drained a panicking session"
        );
        assert!(
            ran_on.iter().any(|&t| t != std::thread::current().id()),
            "a worker drained a panicking session"
        );

        // Each panicked slot is freed exactly once, and only those.
        assert_free_list_consistent(&service);
        let mut freed = service.free.clone();
        freed.sort_unstable();
        let expected: Vec<u32> = panicking.iter().map(|&s| ids[s].index).collect();
        assert_eq!(freed, expected);
        for s in 0..sessions {
            if panicking.contains(&s) {
                assert_eq!(
                    service.latency(ids[s]).unwrap_err(),
                    ServiceError::UnknownSession
                );
                continue;
            }
            // Drained in the panicking pump, not by the poll below.
            assert_eq!(service.latency(ids[s]).unwrap().rounds, 3, "session {s}");
            assert_eq!(
                service.poll_corrections(ids[s]).unwrap().to_vec(),
                reference.poll_corrections(ref_ids[s]).unwrap().to_vec(),
                "session {s}"
            );
        }

        // The service serves afterwards, on survivors and on new sessions
        // in the recycled slots.
        let live: Vec<SessionId> = (0..sessions)
            .filter(|s| !panicking.contains(s))
            .map(|s| ids[s])
            .chain((0..panicking.len()).map(|_| service.open_session()))
            .collect();
        let round =
            CodePatch::new(lattice.clone()).noisy_round(&noise, &mut ChaCha8Rng::seed_from_u64(6));
        for &id in &live {
            assert!(service.push_round(id, &round));
        }
        service.pump();
        for &id in &live {
            service.poll_corrections(id).unwrap();
            service.close_session(id).unwrap();
        }
        assert_eq!(service.num_sessions(), 0);
        assert_free_list_consistent(&service);
    }

    #[test]
    fn inline_drain_panics_lose_only_their_session() {
        // One worker, so every drain is inline on the caller: the panic
        // of session 1 must not stop sessions 2 and 3 from draining in
        // the same pump, must free its slot once, and must reach the
        // caller once the pump has drained everything else.
        let lattice = Lattice::new(5).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.05 };
        let sessions = 4usize;
        let mut reference = service(ServiceBackend::Qecool, 1);
        let mut service = service(ServiceBackend::Qecool, 1);
        let ref_ids: Vec<SessionId> = (0..sessions).map(|_| reference.open_session()).collect();
        let ids: Vec<SessionId> = (0..sessions).map(|_| service.open_session()).collect();
        service.replace_backend_for_test(ids[1], Box::new(PanicOnDecode));
        for s in 0..sessions {
            let mut patch = CodePatch::new(lattice.clone());
            let mut rng = ChaCha8Rng::seed_from_u64(700 + s as u64);
            for _ in 0..3 {
                let round = patch.noisy_round(&noise, &mut rng);
                assert!(reference.push_round(ref_ids[s], &round));
                assert!(service.push_round(ids[s], &round));
            }
        }
        reference.pump();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| service.pump()))
            .expect_err("the drain panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected decode panic")
        );
        assert_eq!(service.pool_workers(), 0, "one worker never fans out");
        assert_free_list_consistent(&service);
        assert_eq!(service.free, vec![ids[1].index], "freed once, alone");
        assert_eq!(
            service.poll_corrections(ids[1]).unwrap_err(),
            ServiceError::UnknownSession
        );
        for s in [0, 2, 3] {
            // Drained in the panicking pump, not by the poll below.
            assert_eq!(service.latency(ids[s]).unwrap().rounds, 3, "session {s}");
            assert_eq!(
                service.poll_corrections(ids[s]).unwrap().to_vec(),
                reference.poll_corrections(ref_ids[s]).unwrap().to_vec(),
                "session {s}"
            );
        }
        let recycled = service.open_session();
        assert_eq!(recycled.index, ids[1].index);
        assert!(service.free.is_empty());
    }
}
