//! The sharded multi-tenant front end over [`DecodeService`].
//!
//! One [`DecodeService`] owns one worker pool and one session table, and
//! every ingest goes through `&mut self`. A [`ShardedDecodeService`]
//! scales that out behind `&self`: it owns `N` internal service
//! **shards**, each a [`DecodeService`] behind its own lock with its own
//! session table and persistent pump pool. [`SessionId`]s route by
//! `index % N`, so tenants on different shards never contend, and a
//! push locks only its session's shard and delivers the round straight
//! into the session inbox.
//!
//! # Ingest semantics
//!
//! Ingest is **fire-and-forget**: [`ShardedDecodeService::push_round`]
//! delivers and returns, and session-level failures surface at the next
//! [`ShardedDecodeService::poll_corrections`] /
//! [`ShardedDecodeService::close_session`] — the shape of real control
//! hardware, where the readout fan-in cannot wait for decoder state.
//! Consequences:
//!
//! * A round for a session whose stream already failed (register
//!   overflow) is discarded and **accounted**: the session's
//!   [`SessionReport::rounds_dropped`] and the shard's
//!   [`ShardStats::dropped`] both count it.
//! * A round for a stale/unknown handle is discarded and counted in
//!   [`ShardStats::dropped`] only (there is no session to bill).
//! * A push that finds its shard's lock held waits for it (counted in
//!   [`ShardStats::stalls`]) and never drops.
//!
//! # Determinism
//!
//! A session's corrections are a pure function of its round stream:
//! each producer's pushes land in its sessions' inboxes in call order,
//! every session lives on exactly one shard, and each shard's pump
//! preserves the solo service's guarantees — so per-session output is
//! byte-identical across **any** shard count × pump-worker count
//! combination (enforced in `tests/determinism.rs` over 1/2/8 workers ×
//! 1/2/4 shards).
//!
//! # Telemetry
//!
//! With a [`TelemetryHandle`](qecool_obs::TelemetryHandle) enabled on
//! the service config, every shard additionally maintains the
//! per-shard `qecool_shard_enqueued_total` / `qecool_shard_stalls_total`
//! / `qecool_shard_dropped_total` counters (labelled `shard="i"`), on
//! top of the service-level series. All counters mirror accounting the
//! fabric already performs — enabling them cannot change routing,
//! ordering, or any decode result, so the byte-identity determinism
//! guarantee holds with telemetry on.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use qecool_obs::counters::thread_stripe;
use qecool_obs::{Counter, MetricsRegistry};
use qecool_surface_code::{DetectionRound, Edge, LatticeError};

use crate::service::{
    DecodeService, LatencyStats, Polled, ServiceConfig, ServiceError, SessionId, SessionReport,
};

/// Configuration of a [`ShardedDecodeService`]: the per-shard service
/// configuration plus the shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedServiceConfig {
    /// Configuration every shard's [`DecodeService`] is built from. Its
    /// `threads` field is the **total** worker budget: it is divided
    /// across shards (at least one worker each) so `--shards` does not
    /// multiply the thread count. A shard's pump drains on its share:
    /// the pumping thread plus share − 1 pool threads, so a share of one
    /// drains inline. [`ShardedDecodeService::pool_workers`] reports the
    /// actual count.
    pub service: ServiceConfig,
    /// Number of service shards (≥ 1).
    pub shards: usize,
}

impl ShardedServiceConfig {
    /// A sharded configuration of `shards` shards.
    pub fn new(service: ServiceConfig, shards: usize) -> Self {
        Self { service, shards }
    }
}

/// Snapshot of one shard's ingest accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Rounds pushed to the shard.
    pub enqueued: u64,
    /// Pushes that found the shard's lock held (by a pump, poll, close
    /// or another producer) and had to wait for it.
    pub stalls: u64,
    /// Rounds discarded at push: their session's stream had failed, or
    /// their handle was stale/unknown.
    pub dropped: u64,
}

impl ShardStats {
    fn accumulate(&mut self, other: ShardStats) {
        self.enqueued += other.enqueued;
        self.stalls += other.stalls;
        self.dropped += other.dropped;
    }
}

/// Per-shard registry-backed counters, labelled `shard="i"`; mirror the
/// shard's atomic [`ShardStats`] accounting one-for-one.
struct ShardTelemetry {
    enqueued: Arc<Counter>,
    stalls: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl ShardTelemetry {
    fn new(registry: &Arc<MetricsRegistry>, shard: usize) -> Self {
        let label = shard.to_string();
        let counter = |name, help| registry.counter_labeled(name, Some(("shard", &label)), help);
        Self {
            enqueued: counter("qecool_shard_enqueued_total", "Rounds pushed to this shard"),
            stalls: counter(
                "qecool_shard_stalls_total",
                "Pushes that waited for this shard's lock",
            ),
            dropped: counter(
                "qecool_shard_dropped_total",
                "Rounds discarded at push (failed or stale sessions)",
            ),
        }
    }
}

/// One shard: a solo service behind a lock, plus its ingest accounting.
struct Shard {
    service: Mutex<DecodeService>,
    enqueued: AtomicU64,
    stalls: AtomicU64,
    dropped: AtomicU64,
    obs: Option<ShardTelemetry>,
}

impl Shard {
    fn stats(&self) -> ShardStats {
        ShardStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Locks the service for a push, counting a stall when the lock is
    /// already held.
    fn lock_for_push(&self) -> MutexGuard<'_, DecodeService> {
        if let Some(service) = self.service.try_lock() {
            return service;
        }
        self.stalls.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.stalls.add(thread_stripe(), 1);
        }
        self.service.lock()
    }
}

/// The sharded decoding fabric. See the module docs for routing, ingest
/// semantics and the determinism guarantee.
pub struct ShardedDecodeService {
    shards: Vec<Shard>,
    num_shards: u32,
    config: ShardedServiceConfig,
    /// Round-robin cursor for [`Self::open_session`] shard placement.
    next_shard: AtomicU32,
}

impl std::fmt::Debug for ShardedDecodeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDecodeService")
            .field("shards", &self.num_shards)
            .field("open_sessions", &self.num_sessions())
            .finish()
    }
}

impl ShardedDecodeService {
    /// Builds the fabric: `shards` independent [`DecodeService`]s, each
    /// with a slice of the worker budget.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError`] when the code distance is invalid.
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` is 0.
    pub fn new(config: ShardedServiceConfig) -> Result<Self, LatticeError> {
        assert!(config.shards >= 1, "shard count must be >= 1");
        // Divide the worker budget: `threads` is the fabric-wide cap, so
        // a shard gets its share (min 1) rather than the whole budget —
        // otherwise `--shards 8 --threads 8` would stand up 64 workers.
        let total_workers = crate::pool::worker_count(config.service.threads);
        let registry = config.service.telemetry.registry().cloned();
        let shard_config = config
            .service
            .clone()
            .with_threads((total_workers / config.shards).max(1));
        let shards = (0..config.shards)
            .map(|i| {
                Ok(Shard {
                    service: Mutex::new(DecodeService::new(shard_config.clone())?),
                    enqueued: AtomicU64::new(0),
                    stalls: AtomicU64::new(0),
                    dropped: AtomicU64::new(0),
                    obs: registry.as_ref().map(|r| ShardTelemetry::new(r, i)),
                })
            })
            .collect::<Result<Vec<_>, LatticeError>>()?;
        Ok(Self {
            shards,
            num_shards: config.shards as u32,
            config,
            next_shard: AtomicU32::new(0),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ShardedServiceConfig {
        &self.config
    }

    /// Number of service shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Decode cycles every round is budgeted (clock × interval).
    pub fn budget_cycles(&self) -> u64 {
        self.config.service.budget.cycles_per_round()
    }

    /// The [`CommitHint`](qecool::CommitHint) a fresh session's decoder
    /// would advertise (identical across shards).
    pub fn commit_hint(&self) -> qecool::CommitHint {
        self.shards[0].service.lock().commit_hint()
    }

    /// A global session id encodes its shard in the low bits of the
    /// index (`global = local × N + shard`), so routing is a pure
    /// function of the id and ids stay unique across shards.
    fn globalize(&self, local: SessionId, shard: u32) -> SessionId {
        SessionId::from_parts(local.index() * self.num_shards + shard, local.generation())
    }

    fn localize(&self, id: SessionId) -> SessionId {
        SessionId::from_parts(id.index() / self.num_shards, id.generation())
    }

    fn shard_for(&self, id: SessionId) -> &Shard {
        &self.shards[id.shard_of(self.num_shards) as usize]
    }

    /// Opens a new session, placing it on the next shard round-robin,
    /// and returns its (shard-encoding) handle.
    pub fn open_session(&self) -> SessionId {
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.num_shards;
        let local = self.shards[shard as usize].service.lock().open_session();
        self.globalize(local, shard)
    }

    /// Delivers one round into `id`'s session inbox under its shard's
    /// lock. A push that finds the lock held waits for it, counted in
    /// [`ShardStats::stalls`].
    ///
    /// Ingest is fire-and-forget: a failed or stale session's rounds are
    /// discarded (and accounted), and the failure surfaces on the next
    /// poll/close.
    ///
    /// # Panics
    ///
    /// Panics if the round width does not match the fabric's lattice
    /// (checked for live sessions, as [`DecodeService::push_round`]
    /// does).
    pub fn push_round(&self, id: SessionId, round: &DetectionRound) {
        let shard = self.shard_for(id);
        let local = self.localize(id);
        let mut service = shard.lock_for_push();
        shard.enqueued.fetch_add(1, Ordering::Relaxed);
        let dropped = match service.push_round(local, round) {
            Ok(()) => false,
            Err(ServiceError::Overflowed) => {
                // The stream already failed; bill the drop to the
                // session so its close report accounts for it.
                let _ = service.record_dropped_round(local);
                true
            }
            // Stale or never-opened handle: nothing to bill.
            Err(ServiceError::UnknownSession) => true,
        };
        drop(service);
        if dropped {
            shard.dropped.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = &shard.obs {
            let stripe = thread_stripe();
            obs.enqueued.add(stripe, 1);
            if dropped {
                obs.dropped.add(stripe, 1);
            }
        }
    }

    /// Batched ingest: pushes many rounds, possibly spanning many
    /// sessions and shards, in iteration order (per-session order is
    /// preserved; that is the only order that matters).
    pub fn push_rounds<'a, I>(&self, batch: I)
    where
        I: IntoIterator<Item = (SessionId, &'a DetectionRound)>,
    {
        for (id, round) in batch {
            self.push_round(id, round);
        }
    }

    /// Decodes a session's pending rounds and returns the corrections
    /// emitted since the previous poll, together with the session's
    /// commit watermark ([`Polled::committed_through`]).
    ///
    /// Returns an owned vector (the solo service hands out a borrow; a
    /// sharded fabric cannot, since the slice lives behind the shard
    /// lock).
    ///
    /// # Errors
    ///
    /// As [`DecodeService::poll_corrections`].
    pub fn poll_corrections(&self, id: SessionId) -> Result<Polled<Vec<Edge>>, ServiceError> {
        self.shard_for(id)
            .service
            .lock()
            .poll_corrections(self.localize(id))
            .map(|polled| Polled {
                corrections: polled.corrections.to_vec(),
                committed_through: polled.committed_through,
            })
    }

    /// The session's commit watermark (see
    /// [`DecodeService::committed_through`]).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles.
    pub fn committed_through(&self, id: SessionId) -> Result<Option<u64>, ServiceError> {
        self.shard_for(id)
            .service
            .lock()
            .committed_through(self.localize(id))
    }

    /// Latency accounting of one session so far.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles.
    pub fn latency(&self, id: SessionId) -> Result<LatencyStats, ServiceError> {
        self.shard_for(id).service.lock().latency(self.localize(id))
    }

    /// `true` once the session has failed by register overflow.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles.
    pub fn is_overflowed(&self, id: SessionId) -> Result<bool, ServiceError> {
        self.shard_for(id)
            .service
            .lock()
            .is_overflowed(self.localize(id))
    }

    /// Drives every session's pending rounds to completion on that
    /// shard's persistent worker pool. Shards are pumped in index order;
    /// within a shard the solo service's pump guarantees hold unchanged.
    pub fn pump(&self) {
        for shard in &self.shards {
            shard.service.lock().pump();
        }
    }

    /// Closes a session and returns its report, including
    /// [`SessionReport::rounds_dropped`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for stale handles.
    pub fn close_session(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        self.shard_for(id)
            .service
            .lock()
            .close_session(self.localize(id))
    }

    /// Number of currently open sessions across all shards.
    pub fn num_sessions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.service.lock().num_sessions())
            .sum()
    }

    /// Pump draining threads (pool threads plus the pumping caller) of
    /// every shard that has a pool, summed across shards.
    pub fn pool_workers(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.service.lock().pool_workers())
            .sum()
    }

    /// Ingest accounting of one shard.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_stats(&self, shard: usize) -> ShardStats {
        self.shards[shard].stats()
    }

    /// Ingest accounting summed over all shards.
    pub fn total_stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for shard in &self.shards {
            total.accumulate(shard.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceBackend;
    use qecool_sfq::budget::CycleBudget;
    use qecool_surface_code::{CodePatch, Lattice, NoiseSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fabric(shards: usize, threads: usize) -> ShardedDecodeService {
        let service = ServiceConfig::new(5, ServiceBackend::Qecool, CycleBudget::at_clock(2.0e9))
            .with_threads(threads);
        ShardedDecodeService::new(ShardedServiceConfig::new(service, shards)).unwrap()
    }

    /// The fabric must be shareable across producer threads.
    #[test]
    fn fabric_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ShardedDecodeService>();
    }

    #[test]
    fn sessions_spread_across_shards_and_ids_stay_unique() {
        let fabric = fabric(4, 1);
        let ids: Vec<SessionId> = (0..16).map(|_| fabric.open_session()).collect();
        let unique: std::collections::HashSet<_> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "global ids must not collide");
        for shard in 0..4 {
            assert_eq!(
                ids.iter().filter(|id| id.shard_of(4) == shard).count(),
                4,
                "round-robin placement: 4 of 16 sessions per shard"
            );
        }
        assert_eq!(fabric.num_sessions(), 16);
    }

    /// One session served through the fabric matches the same stream
    /// through a solo service, whatever the shard count.
    #[test]
    fn sharded_sessions_match_the_solo_service() {
        let lattice = Lattice::new(5).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.04 };
        let sessions = 6usize;
        let rounds = 5usize;

        let streams: Vec<Vec<DetectionRound>> = (0..sessions)
            .map(|s| {
                let mut patch = CodePatch::new(lattice.clone());
                let mut rng = ChaCha8Rng::seed_from_u64(300 + s as u64);
                let mut v: Vec<DetectionRound> = (0..rounds)
                    .map(|_| patch.noisy_round(&noise, &mut rng))
                    .collect();
                v.push(patch.perfect_round());
                v
            })
            .collect();

        let reference: Vec<Vec<Edge>> = {
            let config =
                ServiceConfig::new(5, ServiceBackend::Qecool, CycleBudget::at_clock(2.0e9))
                    .with_threads(1);
            let mut service = DecodeService::new(config).unwrap();
            streams
                .iter()
                .map(|stream| {
                    let id = service.open_session();
                    let mut all = Vec::new();
                    for round in stream {
                        service.push_round(id, round).unwrap();
                        all.extend(service.poll_corrections(id).unwrap().iter().copied());
                    }
                    all.extend(service.close_session(id).unwrap().corrections);
                    all
                })
                .collect()
        };

        for shards in [1usize, 2, 4] {
            let fabric = fabric(shards, 2);
            let ids: Vec<SessionId> = (0..sessions).map(|_| fabric.open_session()).collect();
            let mut collected: Vec<Vec<Edge>> = vec![Vec::new(); sessions];
            // `r` cuts across all session streams at one round index, so
            // a range loop reads more naturally than a zipped iterator.
            #[allow(clippy::needless_range_loop)]
            for r in 0..=rounds {
                fabric.push_rounds((0..sessions).map(|s| (ids[s], &streams[s][r])));
                fabric.pump();
                for s in 0..sessions {
                    collected[s].extend(fabric.poll_corrections(ids[s]).unwrap());
                }
            }
            for s in 0..sessions {
                collected[s].extend(fabric.close_session(ids[s]).unwrap().corrections);
                assert_eq!(
                    collected[s], reference[s],
                    "session {s} diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn stale_handles_are_rejected_per_shard() {
        let fabric = fabric(2, 1);
        let id = fabric.open_session();
        fabric.close_session(id).unwrap();
        assert_eq!(
            fabric.poll_corrections(id).unwrap_err(),
            ServiceError::UnknownSession
        );
        assert_eq!(
            fabric.latency(id).unwrap_err(),
            ServiceError::UnknownSession
        );
        assert!(fabric.close_session(id).is_err());
        // A push to the stale handle is fire-and-forget: discarded and
        // accounted.
        let round = DetectionRound::zeros(Lattice::new(5).unwrap().num_ancillas());
        fabric.push_round(id, &round);
        let stats = fabric.shard_stats(id.shard_of(2) as usize);
        assert_eq!(stats.dropped, 1, "stale-handle round must be counted");
        // The recycled slot gets a fresh generation and works.
        let recycled = fabric.open_session();
        assert_ne!(recycled, id);
        assert!(fabric.poll_corrections(recycled).is_ok());
    }

    /// A push that finds its shard locked waits, counts one stall, and
    /// still delivers the round once the lock is released.
    #[test]
    fn push_into_a_locked_shard_stalls_then_delivers() {
        let fabric = fabric(1, 1);
        let id = fabric.open_session();
        let round = DetectionRound::zeros(Lattice::new(5).unwrap().num_ancillas());
        let held = fabric.shards[0].service.lock();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| fabric.push_round(id, &round));
            while fabric.shard_stats(0).stalls == 0 {
                std::thread::yield_now();
            }
            assert!(!producer.is_finished(), "the push must wait for the lock");
            drop(held);
            producer.join().unwrap();
        });
        let stats = fabric.shard_stats(0);
        assert_eq!((stats.enqueued, stats.stalls, stats.dropped), (1, 1, 0));
        let report = fabric.close_session(id).unwrap();
        assert_eq!(report.rounds_ingested, 1, "the stalled round was delivered");
    }

    /// Per-session FIFO under lock contention: several producers push
    /// into one shard at once, so their pushes keep finding the lock
    /// held; a push that could overtake an earlier round of the same
    /// session would diverge from the sequential serve.
    #[test]
    fn lock_contention_preserves_per_session_fifo() {
        let lattice = Lattice::new(5).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.04 };
        let sessions = 4usize;
        let rounds = 16usize;
        let streams: Vec<Vec<DetectionRound>> = (0..sessions)
            .map(|s| {
                let mut patch = CodePatch::new(lattice.clone());
                let mut rng = ChaCha8Rng::seed_from_u64(4400 + s as u64);
                (0..rounds)
                    .map(|_| patch.noisy_round(&noise, &mut rng))
                    .collect()
            })
            .collect();

        let serve = |concurrent: bool| -> Vec<Vec<Edge>> {
            let fabric = fabric(1, 2);
            let ids: Vec<SessionId> = (0..sessions).map(|_| fabric.open_session()).collect();
            if concurrent {
                std::thread::scope(|scope| {
                    for (s, id) in ids.iter().enumerate() {
                        let fabric = &fabric;
                        let stream = &streams[s];
                        scope.spawn(move || {
                            for round in stream {
                                fabric.push_round(*id, round);
                            }
                        });
                    }
                });
            } else {
                for (s, id) in ids.iter().enumerate() {
                    for round in &streams[s] {
                        fabric.push_round(*id, round);
                    }
                }
            }
            fabric.pump();
            (0..sessions)
                .map(|s| fabric.close_session(ids[s]).unwrap().corrections)
                .collect()
        };

        let reference = serve(false);
        for attempt in 0..5 {
            assert_eq!(serve(true), reference, "attempt {attempt} diverged");
        }
    }

    #[test]
    fn concurrent_producers_feed_disjoint_sessions_deterministically() {
        // 4 producer threads × 2 sessions each, pushed into a 2-shard
        // fabric while the main thread pumps; the result must equal the
        // single-threaded serve of the same streams.
        let lattice = Lattice::new(5).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.04 };
        let sessions = 8usize;
        let rounds = 12usize;
        let streams: Vec<Vec<DetectionRound>> = (0..sessions)
            .map(|s| {
                let mut patch = CodePatch::new(lattice.clone());
                let mut rng = ChaCha8Rng::seed_from_u64(990 + s as u64);
                (0..rounds)
                    .map(|_| patch.noisy_round(&noise, &mut rng))
                    .collect()
            })
            .collect();

        let serve = |concurrent: bool| -> Vec<Vec<Edge>> {
            let fabric = fabric(2, 2);
            let ids: Vec<SessionId> = (0..sessions).map(|_| fabric.open_session()).collect();
            if concurrent {
                std::thread::scope(|scope| {
                    for p in 0..4 {
                        let fabric = &fabric;
                        let ids = &ids;
                        let streams = &streams;
                        scope.spawn(move || {
                            for s in (0..sessions).filter(|s| s % 4 == p) {
                                for round in &streams[s] {
                                    fabric.push_round(ids[s], round);
                                }
                            }
                        });
                    }
                    // Pump concurrently with the producers; correctness
                    // must not depend on the interleaving.
                    for _ in 0..8 {
                        fabric.pump();
                        std::thread::yield_now();
                    }
                });
            } else {
                for s in 0..sessions {
                    for round in &streams[s] {
                        fabric.push_round(ids[s], round);
                    }
                }
            }
            fabric.pump();
            (0..sessions)
                .map(|s| fabric.close_session(ids[s]).unwrap().corrections)
                .collect()
        };

        let reference = serve(false);
        for attempt in 0..3 {
            assert_eq!(serve(true), reference, "attempt {attempt} diverged");
        }
    }
}
