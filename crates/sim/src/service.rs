//! The long-lived decoding service: syndrome-stream sessions under a
//! cycle budget.
//!
//! Monte-Carlo campaigns run trial-at-a-time; real control hardware does
//! not. A [`DecodeService`] owns a pool of independent **sessions**, one
//! per logical qubit under protection. Each session ingests detection
//! rounds as they arrive ([`DecodeService::push_round`] /
//! [`DecodeService::feed`]), decodes them under the per-round SFQ cycle
//! budget ([`CycleBudget`]), and hands corrections back through
//! [`DecodeService::poll_corrections`]. All three decoder backends —
//! QECOOL, union-find, MWPM — serve behind the [`Decoder`] trait.
//!
//! # Determinism
//!
//! Sessions are fully independent: each owns its decoder state and its
//! rounds are decoded in arrival order. [`DecodeService::pump`] fans the
//! pending sessions out across the worker pool, but a session is only
//! ever advanced by one worker at a time, so every session's corrections
//! are byte-identical whatever the thread count — the same guarantee the
//! Monte-Carlo engine makes for aggregates.
//!
//! # The persistent pump pool
//!
//! Worker threads are spawned lazily — at the first
//! [`DecodeService::pump`] that has work for more than one of them,
//! growing (never respawning) if sessions later outnumber the pool, up
//! to the configured worker cap — and then serve every later pump until
//! the service is dropped (which wakes and joins them — no thread
//! outlives its service). Between pumps the workers park on a condvar,
//! so a high-frequency pump loop pays no spawn cost per iteration.
//! Within a pump, pending sessions sit on one shared queue that idle
//! workers pull from — work steals across sessions dynamically, so a
//! slow session never idles the rest of the pool. Pumps where at most
//! one session has pending work drain inline on the calling thread
//! without touching (or creating) the pool. A worker that panics
//! mid-drain re-raises the panic on the pump caller's thread, like the
//! scoped-thread implementation it replaced.
//!
//! # Steady-state allocation
//!
//! The per-round path is allocation-free once a session is warm: pushed
//! rounds land in recycled [`DetectionRound`] buffers
//! ([`DetectionRound::copy_from`]), the QECOOL backend decodes through
//! [`QecoolDecoder::run_into`](qecool::QecoolDecoder::run_into) into a
//! reused report, and emitted corrections append to a session-owned
//! vector whose already-polled prefix is reclaimed on the next drain —
//! a session's memory stays bounded by one poll interval's worth of
//! corrections however long it lives.
//!
//! # Example
//!
//! ```
//! use qecool_sim::service::{DecodeService, ServiceBackend, ServiceConfig};
//! use qecool_sfq::budget::CycleBudget;
//! use qecool_surface_code::{CodePatch, Lattice, PhenomenologicalNoise};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ServiceConfig::new(5, ServiceBackend::Qecool, CycleBudget::at_clock(2.0e9));
//! let mut service = DecodeService::new(config)?;
//! let session = service.open_session();
//!
//! let mut patch = CodePatch::new(Lattice::new(5)?);
//! let noise = PhenomenologicalNoise::symmetric(0.01);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! for _ in 0..5 {
//!     let round = patch.noisy_round(&noise, &mut rng);
//!     service.push_round(session, &round)?;
//!     let corrections: Vec<_> = service.poll_corrections(session)?.to_vec();
//!     patch.apply_corrections(corrections);
//! }
//! let closing = patch.perfect_round();
//! service.push_round(session, &closing)?;
//! let report = service.close_session(session)?;
//! patch.apply_corrections(report.corrections.iter().copied());
//! assert!(patch.syndrome_is_trivial());
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use qecool::api::{CommitHint, DecodeOutput, Decoder};
use qecool::{FatalError, QecoolConfig, QecoolDecoder, RegOverflow, DEFAULT_BOUNDARY_PENALTY};
use qecool_obs::counters::thread_stripe;
use qecool_obs::{
    Counter, Gauge, MetricsRegistry, Stage, StageTracer, TelemetryHandle, STAGE_SAMPLE_PERIOD,
};
use qecool_sfq::budget::{CycleBudget, CycleHistogram};
use qecool_surface_code::{DetectionRound, Edge, Lattice, LatticeError};

pub use crate::window::{StreamingMwpm, StreamingUf, WindowConfig};

/// Which decoder implementation a service's sessions run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceBackend {
    /// On-line QECOOL (the paper's machine): real per-round decode work
    /// under the cycle budget, 7-bit registers, `th_v = 3` lookahead.
    Qecool,
    /// Union-find baseline, served through the true sliding-window
    /// adapter ([`StreamingUf`]): decode W rounds, commit the oldest
    /// S < W, slide (see [`ServiceConfig::window`]).
    UnionFind,
    /// Exact-MWPM baseline, sliding-windowed like union-find
    /// ([`StreamingMwpm`]).
    Mwpm,
}

/// Configuration of a [`DecodeService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Code distance of every session's patch.
    pub d: usize,
    /// Decoder backend.
    pub backend: ServiceBackend,
    /// Per-round decode-cycle budget (clock × measurement interval).
    pub budget: CycleBudget,
    /// Worker threads for [`DecodeService::pump`]; `0` uses all cores.
    pub threads: usize,
    /// Extra hops charged to Boundary-Unit spikes (QECOOL only).
    pub boundary_penalty: u64,
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
    /// paper's boundary penalty, and telemetry disabled.
    pub fn new(d: usize, backend: ServiceBackend, budget: CycleBudget) -> Self {
        Self {
            d,
            backend,
            budget,
            threads: 0,
            boundary_penalty: DEFAULT_BOUNDARY_PENALTY,
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
    steals: Arc<Counter>,
    parks: Arc<Counter>,
    wakes: Arc<Counter>,
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
                "Pump jobs pulled off the shared queue by pool workers",
            ),
            parks: registry.counter(
                "qecool_pool_parks_total",
                "Times a pool worker parked on the work-ready condvar",
            ),
            wakes: registry.counter("qecool_pool_wakes_total", "Times a parked pool worker woke"),
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

/// What [`DecodeService::poll_corrections`] hands back: the fresh
/// corrections plus the session's commit watermark at the time of the
/// poll.
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

/// Final report handed back by [`DecodeService::close_session`].
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Corrections emitted since the last poll, including everything the
    /// closing drain resolved. Empty when the session overflowed — a
    /// failed stream's corrections are withdrawn, consistent with
    /// [`DecodeService::poll_corrections`] erroring after overflow.
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
    /// Rounds discarded at ingest. The solo push path reports failures
    /// as errors instead and never drops, so this stays 0 there; the
    /// sharded path is fire-and-forget, and rounds pushed into an
    /// already-failed session are counted here rather than lost
    /// silently.
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
    session: Option<Session>,
    /// Whether this slot's index currently sits on the free list. The
    /// flag makes reclamation **idempotent**: a slot can only be pushed
    /// while the flag is clear, so re-running reclamation (e.g. a second
    /// panicked pump before the first freed slot was reused) can never
    /// double-insert an index and hand one slot to two live sessions.
    on_free: bool,
}

/// One unit of pump work: a session moved out of its slot, drained by
/// exactly one worker, then moved back. Moving the session (a few
/// pointer-sized fields) is what lets long-lived workers process it
/// without borrowing from the service.
struct PumpJob {
    slot: u32,
    session: Session,
    budget: u64,
}

/// State shared between [`DecodeService::pump`] and the pool workers.
#[derive(Default)]
struct PoolQueue {
    /// Sessions awaiting a worker this pump. A single shared deque is
    /// the work-stealing structure: workers pull the next pending
    /// session the moment they go idle, so load balances dynamically
    /// across sessions instead of by static chunking.
    pending: VecDeque<PumpJob>,
    /// Sessions drained this pump, awaiting re-installation.
    finished: Vec<PumpJob>,
    /// Jobs queued this pump.
    submitted: usize,
    /// Jobs retired this pump, successfully or not: `finished.len()`
    /// plus any panicked drains. `pump` waits for it to reach
    /// `submitted`, so a worker panic cannot strand it.
    completed: usize,
    /// First panic payload caught this pump; re-raised on the `pump`
    /// caller's thread, matching the old scoped-thread behaviour.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set once, on service drop; workers exit when they see it with an
    /// empty queue.
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled by `pump` when jobs are enqueued and on shutdown.
    work_ready: Condvar,
    /// Signalled by the worker that retires a pump's last job.
    batch_done: Condvar,
    /// Worker threads that have exited their loop (observability for
    /// shutdown tests; `pump` never reads it).
    exited: AtomicUsize,
    /// Telemetry bundle workers record steals/parks/wakes and drain
    /// metrics through; `None` when the service's telemetry is off.
    obs: Option<Arc<ServiceTelemetry>>,
}

/// The persistent pump worker pool: threads spawn once — at the first
/// pump that has parallel work — and then serve every subsequent pump
/// until the service drops, amortising spawn cost across the
/// high-frequency pump loops the serving path runs.
struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(workers: usize, obs: Option<Arc<ServiceTelemetry>>) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue::default()),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
            exited: AtomicUsize::new(0),
            obs,
        });
        let mut pool = Self {
            shared,
            handles: Vec::new(),
        };
        pool.grow_to(workers);
        pool
    }

    /// Spawns additional workers until the pool has `workers` threads.
    /// Lets the pool track sessions opened after its creation instead of
    /// freezing at the first pump's parallelism.
    fn grow_to(&mut self, workers: usize) {
        for i in self.handles.len()..workers {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("qecool-pump-{i}"))
                .spawn(move || {
                    // Stripe i+1: stripe 0 belongs to the caller-inline
                    // drain paths, so worker cells never share with it.
                    Self::worker_loop(&shared, i + 1);
                    shared.exited.fetch_add(1, Ordering::Release);
                })
                .expect("spawn pump worker");
            self.handles.push(handle);
        }
    }

    fn worker_loop(shared: &PoolShared, stripe: usize) {
        let obs = shared.obs.as_deref();
        let mut queue = shared.queue.lock();
        loop {
            if let Some(mut job) = queue.pending.pop_front() {
                drop(queue);
                if let Some(t) = obs {
                    t.steals.add(stripe, 1);
                }
                // Catch unwinds so a panicking decoder cannot strand
                // `pump` waiting for a job that will never finish; the
                // payload is re-raised on the pump caller's thread.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    job.session
                        .drain_inbox(job.budget, obs.map(|t| (t, stripe)));
                    job
                }));
                queue = shared.queue.lock();
                match outcome {
                    Ok(job) => queue.finished.push(job),
                    Err(payload) => {
                        // The job (and its session) died with the panic;
                        // keep the first payload for re-raise.
                        queue.panic.get_or_insert(payload);
                    }
                }
                queue.completed += 1;
                // `pump` is the only possible waiter, and it only wants
                // to hear about the last job of its batch.
                if queue.completed == queue.submitted {
                    shared.batch_done.notify_one();
                }
                continue;
            }
            if queue.shutdown {
                return;
            }
            if let Some(t) = obs {
                t.parks.add(stripe, 1);
            }
            queue = shared.work_ready.wait(queue);
            if let Some(t) = obs {
                t.wakes.add(stripe, 1);
            }
        }
    }

    fn workers(&self) -> usize {
        self.handles.len()
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: wake every worker with the shutdown flag set
    /// and join them all, so no thread outlives the service.
    fn drop(&mut self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The long-lived decoding service. See the module docs for the session
/// lifecycle and guarantees.
pub struct DecodeService {
    lattice: Lattice,
    config: ServiceConfig,
    budget_cycles: u64,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Persistent pump worker pool, spawned lazily at the first pump
    /// with parallel work and reused until the service drops.
    pool: Option<WorkerPool>,
    /// Total worker threads ever spawned — the spawn-counting hook the
    /// pool-reuse tests (and curious operators) read.
    workers_spawned: usize,
    /// Telemetry bundle; `None` when the config's handle is disabled.
    obs: Option<Arc<ServiceTelemetry>>,
}

impl fmt::Debug for DecodeService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeService")
            .field("config", &self.config)
            .field("open_sessions", &self.num_sessions())
            .finish()
    }
}

impl DecodeService {
    /// Creates a service for the configured code distance and backend.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError`] when the code distance is invalid.
    pub fn new(config: ServiceConfig) -> Result<Self, LatticeError> {
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
            workers_spawned: 0,
            obs,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Decode cycles every round is budgeted (clock × interval).
    pub fn budget_cycles(&self) -> u64 {
        self.budget_cycles
    }

    /// Number of currently open sessions.
    pub fn num_sessions(&self) -> usize {
        self.slots.iter().filter(|s| s.session.is_some()).count()
    }

    fn make_backend(&self) -> Box<dyn Decoder + Send> {
        match self.config.backend {
            ServiceBackend::Qecool => Box::new(QecoolDecoder::new(
                self.lattice.clone(),
                QecoolConfig::online().with_boundary_penalty(self.config.boundary_penalty),
            )),
            ServiceBackend::UnionFind => Box::new(StreamingUf::with_config(
                self.lattice.clone(),
                self.window_config(),
            )),
            ServiceBackend::Mwpm => Box::new(StreamingMwpm::with_config(
                self.lattice.clone(),
                self.window_config(),
            )),
        }
    }

    /// The effective sliding-window geometry of the UF/MWPM baselines:
    /// the configured override, or `W = 3d, S = d`.
    pub fn window_config(&self) -> WindowConfig {
        self.config
            .window
            .unwrap_or_else(|| WindowConfig::default_for(self.config.d))
    }

    /// The [`CommitHint`] a fresh session's decoder would advertise —
    /// lets callers (e.g. the bench binaries) distinguish
    /// cycle-modelled backends from wall-clock-only ones, and read the
    /// effective commit cadence, without opening a session.
    pub fn commit_hint(&self) -> CommitHint {
        self.make_backend().commit_hint()
    }

    /// Opens a new session and returns its handle. Slots of closed
    /// sessions are recycled; their old handles stay invalid.
    pub fn open_session(&mut self) -> SessionId {
        if let Some(t) = self.obs.as_deref() {
            t.sessions_opened.add(thread_stripe(), 1);
            t.sessions_open.inc();
        }
        let session = Session::new(self.make_backend(), self.budget_cycles);
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

    fn session_mut(&mut self, id: SessionId) -> Result<&mut Session, ServiceError> {
        Self::session_mut_in(&mut self.slots, id)
    }

    /// Slot-table-only variant of [`Self::session_mut`], so hot paths
    /// can borrow the telemetry handle (`self.obs`) immutably alongside
    /// the mutable session borrow instead of cloning the `Arc` per call.
    fn session_mut_in(slots: &mut [Slot], id: SessionId) -> Result<&mut Session, ServiceError> {
        slots
            .get_mut(id.index as usize)
            .filter(|slot| slot.generation == id.generation)
            .and_then(|slot| slot.session.as_mut())
            .ok_or(ServiceError::UnknownSession)
    }

    fn session(&self, id: SessionId) -> Result<&Session, ServiceError> {
        self.slots
            .get(id.index as usize)
            .filter(|slot| slot.generation == id.generation)
            .and_then(|slot| slot.session.as_ref())
            .ok_or(ServiceError::UnknownSession)
    }

    /// Accepts one detection round into a session's stream. The round is
    /// copied into a recycled buffer; decoding happens on the next
    /// [`Self::poll_corrections`] or [`Self::pump`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles,
    /// [`ServiceError::Overflowed`] once the session has failed.
    ///
    /// # Panics
    ///
    /// Panics if the round width does not match the service's lattice.
    pub fn push_round(
        &mut self,
        id: SessionId,
        round: &DetectionRound,
    ) -> Result<(), ServiceError> {
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
        let session = self.session_mut(id)?;
        if session.overflowed {
            return Err(ServiceError::Overflowed);
        }
        assert_eq!(
            round.events().len(),
            width,
            "round width does not match service lattice"
        );
        session.enqueue(round, stamp);
        Ok(())
    }

    /// Batch ingest: pushes every round of `rounds` in order.
    ///
    /// # Errors
    ///
    /// As [`Self::push_round`]; ingestion stops at the first error.
    pub fn feed<'a, I>(&mut self, id: SessionId, rounds: I) -> Result<(), ServiceError>
    where
        I: IntoIterator<Item = &'a DetectionRound>,
    {
        for round in rounds {
            self.push_round(id, round)?;
        }
        Ok(())
    }

    /// Decodes a session's pending rounds (in arrival order, each under
    /// the cycle budget) and returns the corrections emitted since the
    /// previous poll, together with the session's commit watermark
    /// ([`Polled::committed_through`]). The returned slice is consumed:
    /// the next poll only reports newer corrections.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles,
    /// [`ServiceError::Overflowed`] when the drain hit a register
    /// overflow (the stream is failed; corrections are withdrawn).
    pub fn poll_corrections(&mut self, id: SessionId) -> Result<Polled<&[Edge]>, ServiceError> {
        let budget = self.budget_cycles;
        let obs = self.obs.as_deref();
        let stripe = if obs.is_some() { thread_stripe() } else { 0 };
        let session = Self::session_mut_in(&mut self.slots, id)?;
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
        let committed_through = session.committed_through;
        let fresh = &session.corrections[session.consumed..];
        session.consumed = session.corrections.len();
        Ok(Polled {
            corrections: fresh,
            committed_through,
        })
    }

    /// The session's commit watermark: the highest round index whose
    /// corrections are final (`None` while nothing has committed).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles.
    pub fn committed_through(&self, id: SessionId) -> Result<Option<u64>, ServiceError> {
        Ok(self.session(id)?.committed_through)
    }

    /// Latency accounting of one session so far.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles.
    pub fn latency(&self, id: SessionId) -> Result<LatencyStats, ServiceError> {
        Ok(self.session(id)?.latency)
    }

    /// `true` once the session has failed by register overflow.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles.
    pub fn is_overflowed(&self, id: SessionId) -> Result<bool, ServiceError> {
        Ok(self.session(id)?.overflowed)
    }

    /// Drives every session's pending rounds to completion on the worker
    /// pool. Each session is advanced by exactly one worker, in arrival
    /// order, so results are independent of the thread count.
    ///
    /// Workers live in a **persistent pool** owned by the service:
    /// threads spawn at the first pump that has work for more than one
    /// of them (growing if sessions later outnumber the pool, up to the
    /// configured cap — never respawning) and serve every later pump
    /// until the service drops (graceful shutdown: workers are woken
    /// and joined). Within a pump,
    /// pending sessions go onto one shared queue that idle workers pull
    /// from — work steals across sessions dynamically instead of by
    /// static chunking, so one slow session cannot idle the rest of the
    /// pool. When at most one session has pending work (or the service
    /// is configured single-threaded) the pump drains inline on the
    /// caller's thread and the pool is neither consulted nor spawned.
    pub fn pump(&mut self) {
        let budget = self.budget_cycles;
        let obs = self.obs.clone();
        let stripe = if obs.is_some() { thread_stripe() } else { 0 };
        if let Some(t) = obs.as_deref() {
            t.pump_calls.add(stripe, 1);
        }
        let pending = self
            .slots
            .iter()
            .filter(|slot| slot.session.as_ref().is_some_and(|s| !s.inbox.is_empty()))
            .count();
        if pending == 0 {
            return;
        }
        if pending == 1 || self.configured_workers() <= 1 {
            // Fast path: ≤ 1 busy session needs no pool at all.
            for slot in &mut self.slots {
                if let Some(session) = &mut slot.session {
                    session.drain_inbox(budget, obs.as_deref().map(|t| (t, stripe)));
                }
            }
            return;
        }
        // The pool tracks workload growth: more *busy* sessions than
        // workers at this pump (up to the configured cap) spawn the
        // difference. Sizing by pending work, not the slot table, keeps
        // closed/free slots from inflating the pool.
        let workers = self.configured_workers().min(pending);
        let pool = match &mut self.pool {
            Some(pool) => {
                if pool.workers() < workers {
                    self.workers_spawned += workers - pool.workers();
                    pool.grow_to(workers);
                }
                &*pool
            }
            None => {
                self.workers_spawned += workers;
                self.pool
                    .insert(WorkerPool::spawn(workers, self.obs.clone()))
            }
        };
        {
            let mut queue = pool.shared.queue.lock();
            debug_assert!(queue.pending.is_empty() && queue.finished.is_empty());
            queue.completed = 0;
            for (idx, slot) in self.slots.iter_mut().enumerate() {
                if slot.session.as_ref().is_some_and(|s| !s.inbox.is_empty()) {
                    let session = slot.session.take().expect("pending session exists");
                    queue.pending.push_back(PumpJob {
                        slot: idx as u32,
                        session,
                        budget,
                    });
                }
            }
            queue.submitted = queue.pending.len();
        }
        pool.shared.work_ready.notify_all();
        let mut queue = pool.shared.queue.lock();
        while queue.completed < queue.submitted {
            queue = pool.shared.batch_done.wait(queue);
        }
        let finished = std::mem::take(&mut queue.finished);
        let panic = queue.panic.take();
        drop(queue);
        for job in finished {
            self.slots[job.slot as usize].session = Some(job.session);
        }
        if let Some(payload) = panic {
            // Re-raise the worker's panic where the old scoped-thread
            // implementation would have: on the pump caller. The
            // panicking session is gone; free its slot so it can be
            // recycled (its handle reports `UnknownSession` from here
            // on). Submitted slots that did not come back in `finished`
            // are exactly the ones whose drain panicked; `release_slot`
            // is idempotent (per-slot `on_free` flag), so rescanning the
            // whole table — here and again on any later panicked pump —
            // can never push an index twice and alias two sessions onto
            // one slot, which the old `free.contains` scan allowed to
            // race with interleaved reclamation paths.
            for idx in 0..self.slots.len() as u32 {
                self.release_slot(idx);
            }
            std::panic::resume_unwind(payload);
        }
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

    /// Worker count the configuration asks for: explicit `threads`, or
    /// all cores when 0.
    fn configured_workers(&self) -> usize {
        if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// Number of live pump worker threads (0 until the first parallel
    /// pump spawns the pool).
    pub fn pool_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, WorkerPool::workers)
    }

    /// Total pump worker threads ever spawned by this service — the
    /// spawn-counting hook: consecutive pumps must not move it once the
    /// pool exists.
    pub fn workers_spawned(&self) -> usize {
        self.workers_spawned
    }

    /// Closes a session: ingests everything still queued, finishes the
    /// backend (windowed baselines decode their whole window here; the
    /// QECOOL backend drains its remaining layers without a cycle
    /// deadline — teardown is not real-time), and frees the slot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles. An overflowed
    /// session closes *successfully* — the failure is reported in the
    /// [`SessionReport`], mirroring how a Monte-Carlo trial records
    /// overflow as a failed shot rather than a harness error.
    pub fn close_session(&mut self, id: SessionId) -> Result<SessionReport, ServiceError> {
        // Validate the handle before taking the session out.
        self.session_mut(id)?;
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

    /// Counts one round discarded at ingest against a session. Used by
    /// the sharded front end: its ingest is fire-and-forget, so a round
    /// pushed into a session whose stream has already failed is
    /// accounted here (and in the [`SessionReport`]) instead of
    /// vanishing.
    pub(crate) fn record_dropped_round(&mut self, id: SessionId) -> Result<(), ServiceError> {
        let session = self.session_mut(id)?;
        session.rounds_dropped += 1;
        Ok(())
    }

    /// Swaps a live session's backend — a test hook for injecting
    /// panicking or otherwise misbehaving decoders into the pump path.
    #[cfg(test)]
    pub(crate) fn replace_backend_for_test(
        &mut self,
        id: SessionId,
        backend: Box<dyn Decoder + Send>,
    ) {
        self.session_mut(id).expect("live session").backend = backend;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qecool_surface_code::{CodePatch, PhenomenologicalNoise};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn service(backend: ServiceBackend, threads: usize) -> DecodeService {
        let config =
            ServiceConfig::new(5, backend, CycleBudget::at_clock(2.0e9)).with_threads(threads);
        DecodeService::new(config).unwrap()
    }

    /// Drives one session end-to-end over a seeded noise stream,
    /// applying corrections round by round, and returns the final patch
    /// plus the close report.
    fn drive_session(
        service: &mut DecodeService,
        seed: u64,
        rounds: usize,
        p: f64,
    ) -> (CodePatch, SessionReport) {
        let lattice = Lattice::new(service.config().d).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        let noise = PhenomenologicalNoise::symmetric(p);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        let id = service.open_session();
        for _ in 0..rounds {
            patch.noisy_round_into(&noise, &mut rng, &mut round);
            service.push_round(id, &round).unwrap();
            let corrections: Vec<Edge> = service.poll_corrections(id).unwrap().to_vec();
            patch.apply_corrections(corrections);
        }
        patch.perfect_round_into(&mut round);
        service.push_round(id, &round).unwrap();
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
        assert_eq!(
            service.push_round(id, &DetectionRound::zeros(40)),
            Err(ServiceError::UnknownSession)
        );
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
        let mut service = DecodeService::new(config).unwrap();
        let id = service.open_session();
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        let noise = PhenomenologicalNoise::symmetric(0.2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut overflowed = false;
        for _ in 0..20 {
            let round = patch.noisy_round(&noise, &mut rng);
            if service.push_round(id, &round).is_err() {
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
        let noise = PhenomenologicalNoise::symmetric(0.08);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        let mut max_live = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            patch.noisy_round_into(&noise, &mut rng, &mut round);
            service.push_round(id, &round).unwrap();
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
        let noise = PhenomenologicalNoise::symmetric(0.03);

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
                    service.push_round(ids[s], &round).unwrap();
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
                service.push_round(ids[s], &round).unwrap();
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
        service: &mut DecodeService,
        ids: &[SessionId],
        patches: &mut [CodePatch],
        rngs: &mut [ChaCha8Rng],
        round: &mut DetectionRound,
    ) {
        let noise = PhenomenologicalNoise::symmetric(0.05);
        for (s, &id) in ids.iter().enumerate() {
            patches[s].noisy_round_into(&noise, &mut rngs[s], round);
            service.push_round(id, round).unwrap();
        }
    }

    #[test]
    fn pump_reuses_the_worker_pool_across_calls() {
        let mut service = service(ServiceBackend::Qecool, 4);
        let lattice = Lattice::new(5).unwrap();
        let ids: Vec<SessionId> = (0..6).map(|_| service.open_session()).collect();
        let mut patches: Vec<CodePatch> = (0..6).map(|_| CodePatch::new(lattice.clone())).collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..6)
            .map(|s| ChaCha8Rng::seed_from_u64(50 + s as u64))
            .collect();
        let mut round = DetectionRound::zeros(lattice.num_ancillas());

        assert_eq!(service.pool_workers(), 0, "pool must be lazy");
        assert_eq!(service.workers_spawned(), 0);

        push_round_per_session(&mut service, &ids, &mut patches, &mut rngs, &mut round);
        service.pump();
        let spawned_after_first = service.workers_spawned();
        assert_eq!(spawned_after_first, 4, "pool sized to configured threads");
        assert_eq!(service.pool_workers(), 4);

        // The spawn-counting hook: consecutive pumps must not create a
        // single new thread.
        for _ in 0..10 {
            push_round_per_session(&mut service, &ids, &mut patches, &mut rngs, &mut round);
            service.pump();
            assert_eq!(
                service.workers_spawned(),
                spawned_after_first,
                "pump respawned workers"
            );
        }
    }

    #[test]
    fn pool_grows_when_sessions_outnumber_it() {
        // 4 configured workers, but only 2 sessions exist at the first
        // parallel pump — the pool starts at 2 and must grow (never
        // respawn) to 4 when the session count catches up.
        let mut service = service(ServiceBackend::Qecool, 4);
        let lattice = Lattice::new(5).unwrap();
        let mut ids: Vec<SessionId> = (0..2).map(|_| service.open_session()).collect();
        let mut patches: Vec<CodePatch> = (0..2).map(|_| CodePatch::new(lattice.clone())).collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..2)
            .map(|s| ChaCha8Rng::seed_from_u64(80 + s as u64))
            .collect();
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        push_round_per_session(&mut service, &ids, &mut patches, &mut rngs, &mut round);
        service.pump();
        assert_eq!(service.pool_workers(), 2, "capped by the 2 open sessions");

        for s in 2..4 {
            ids.push(service.open_session());
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
        assert_eq!(service.workers_spawned(), 4);
    }

    #[test]
    fn single_busy_session_never_spawns_the_pool() {
        let mut service = service(ServiceBackend::Qecool, 8);
        let lattice = Lattice::new(5).unwrap();
        // Several sessions open, but only one ever has pending work: the
        // ≤ 1-busy-session fast path must stay pool-free.
        let busy = service.open_session();
        let _idle_a = service.open_session();
        let _idle_b = service.open_session();
        let mut patch = CodePatch::new(lattice.clone());
        let noise = PhenomenologicalNoise::symmetric(0.05);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        for _ in 0..20 {
            patch.noisy_round_into(&noise, &mut rng, &mut round);
            service.push_round(busy, &round).unwrap();
            service.pump();
        }
        assert_eq!(service.workers_spawned(), 0);
        assert_eq!(service.pool_workers(), 0);
    }

    #[test]
    fn drop_shuts_the_pool_down_cleanly() {
        let mut service = service(ServiceBackend::Qecool, 3);
        let lattice = Lattice::new(5).unwrap();
        let ids: Vec<SessionId> = (0..4).map(|_| service.open_session()).collect();
        let mut patches: Vec<CodePatch> = (0..4).map(|_| CodePatch::new(lattice.clone())).collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..4)
            .map(|s| ChaCha8Rng::seed_from_u64(70 + s as u64))
            .collect();
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        push_round_per_session(&mut service, &ids, &mut patches, &mut rngs, &mut round);
        service.pump();

        let spawned = service.workers_spawned();
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

    fn assert_free_list_consistent(service: &DecodeService) {
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
        // slots.
        let mut service = service(ServiceBackend::Qecool, 2);
        let lattice = Lattice::new(5).unwrap();
        let ids: Vec<SessionId> = (0..4).map(|_| service.open_session()).collect();
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
            service.push_round(id, &round).unwrap();
        }
        service.pump();
        assert_free_list_consistent(&service);
    }

    #[test]
    fn feed_is_equivalent_to_pushing_each_round() {
        let lattice = Lattice::new(5).unwrap();
        let noise = PhenomenologicalNoise::symmetric(0.04);
        // Pre-generate the stream so both paths see identical rounds.
        let mut patch = CodePatch::new(lattice.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut rounds: Vec<DetectionRound> = (0..5)
            .map(|_| patch.noisy_round(&noise, &mut rng))
            .collect();
        rounds.push(patch.perfect_round());

        let run = |batch: bool| -> Vec<Edge> {
            let mut service = service(ServiceBackend::UnionFind, 1);
            let id = service.open_session();
            if batch {
                service.feed(id, rounds.iter()).unwrap();
            } else {
                for r in &rounds {
                    service.push_round(id, r).unwrap();
                }
            }
            service.close_session(id).unwrap().corrections
        };
        assert_eq!(run(true), run(false));
    }
}
