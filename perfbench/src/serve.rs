//! The serving workloads: closed-loop sessions on the sharded decoding
//! fabric, fed live from `SimulatedSource`s or replayed from an
//! in-memory `QECPACK1` recording.
//!
//! A tick advances every session by one round: source → push → pump →
//! poll → harness bookkeeping → feedback. Each layer is called from
//! exactly one place, [`Fabric::tick`] (and [`Fabric::close`] for
//! `close_session`).

use std::io::Cursor;
use std::time::Instant;

use qecool::api::{DecodeOutput, Decoder};
use qecool::json::Json;
use qecool::{
    QecoolConfig, QecoolDecoder, SimulatedSource, SyndromeSource, DEFAULT_BOUNDARY_PENALTY,
};
use qecool_obs::TelemetryHandle;
use qecool_sfq::budget::CycleBudget;
use qecool_sim::campaign::derive_seed;
use qecool_sim::service::{
    Polled, ServiceBackend, ServiceConfig, ServiceError, SessionId, StreamingMwpm, StreamingUf,
    WindowConfig,
};
use qecool_sim::shard::{ShardedDecodeService, ShardedServiceConfig};
use qecool_surface_code::{
    CodePatch, DetectionRound, Edge, Lattice, NoiseSpec, PackedReader, PackedWriter,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::ledger::{unattributed_frac, Layer, Tracer, LEDGER_BOUND};
use crate::stats::{highest_tail, median, note_commits, LagCounts};
use crate::{pins, Args, PassFigures, Report};

/// Decoder clock: the paper's 2 GHz, i.e. 2000 cycles per 1 µs round.
const GHZ: f64 = 2.0;

/// Passes an untimed run makes at least, so the repeat check always runs.
const MIN_PASSES: usize = 2;

/// Share of `--seconds` a traced run spends serving; the rest goes to
/// the decode-layer replay.
const TRACED_SHARE: f64 = 0.75;

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Decoder backend of every session.
    pub backend: ServiceBackend,
    /// Code distance.
    pub d: usize,
    /// Phenomenological error rate.
    pub p: f64,
    /// Concurrent sessions.
    pub sessions: usize,
    /// Rounds per session in one pass.
    pub rounds: usize,
    /// Serve from a recording made at set-up instead of live sources.
    pub replay: bool,
}

/// Live on-line QECOOL, the `service_bench` default shape.
pub const SERVE_QECOOL_D5: ServeSpec = ServeSpec {
    backend: ServiceBackend::Qecool,
    d: 5,
    p: 0.01,
    sessions: 64,
    rounds: 2000,
    replay: false,
};

/// Windowed union-find (W = 3d, S = d) replayed from memory.
pub const REPLAY_UF_D9: ServeSpec = ServeSpec {
    backend: ServiceBackend::UnionFind,
    d: 9,
    p: 0.01,
    sessions: 64,
    rounds: 500,
    replay: true,
};

/// The per-round decode-cycle budget.
pub fn budget() -> CycleBudget {
    CycleBudget::at_clock(GHZ * 1e9)
}

fn window(d: usize) -> WindowConfig {
    WindowConfig::new(3 * d as u64, d as u64)
}

/// A fresh backend decoder configured exactly as the service builds
/// one for a session.
fn fresh_decoder(spec: &ServeSpec, lattice: &Lattice) -> Box<dyn Decoder> {
    match spec.backend {
        ServiceBackend::Qecool => Box::new(QecoolDecoder::new(
            lattice.clone(),
            QecoolConfig::online().with_boundary_penalty(DEFAULT_BOUNDARY_PENALTY),
        )),
        ServiceBackend::UnionFind => {
            Box::new(StreamingUf::with_config(lattice.clone(), window(spec.d)))
        }
        ServiceBackend::Mwpm => {
            Box::new(StreamingMwpm::with_config(lattice.clone(), window(spec.d)))
        }
    }
}

/// One seeded simulator per session (session `s` draws from
/// `derive_seed(seed, s, 0)`, as `service_bench` does).
fn live_sources(spec: &ServeSpec, seed: u64, lattice: &Lattice) -> Vec<SimulatedSource> {
    let noise = NoiseSpec::Phenomenological { p: spec.p }.build();
    (0..spec.sessions)
        .map(|s| {
            SimulatedSource::new(
                CodePatch::new(lattice.clone()),
                noise,
                ChaCha8Rng::seed_from_u64(derive_seed(seed, s as u64, 0)),
            )
        })
        .collect()
}

fn packed_writer(spec: &ServeSpec, lattice: &Lattice) -> PackedWriter<Cursor<Vec<u8>>> {
    PackedWriter::new(
        Cursor::new(Vec::new()),
        spec.d as u32,
        lattice.num_ancillas() as u32,
        spec.sessions as u32,
        0,
    )
    .expect("a non-empty in-memory recording")
}

/// Samples a whole pass of every session into a `QECPACK1` image.
/// Sampling runs open-loop: a correction moves the patch's reference
/// syndrome along with its error state, so feedback never changes a
/// detection round and the image equals what live sessions would see.
fn record_pass(spec: &ServeSpec, seed: u64, lattice: &Lattice) -> Vec<u8> {
    let mut sources = live_sources(spec, seed, lattice);
    let mut writer = packed_writer(spec, lattice);
    let mut round = DetectionRound::zeros(lattice.num_ancillas());
    for _ in 0..spec.rounds {
        for source in &mut sources {
            source
                .next_round_into(&mut round)
                .expect("an unbounded source");
            writer
                .write_plane(round.events(), None)
                .expect("in-memory write");
        }
    }
    writer.finish().expect("whole rounds written").into_inner()
}

/// Where the sessions' rounds come from: the two sides of the
/// `SyndromeSource` seam.
enum Feed {
    Live(Vec<SimulatedSource>),
    /// One round-major reader serves every session in turn.
    Replay(PackedReader<Cursor<Vec<u8>>>),
}

impl Feed {
    fn source(&mut self, session: usize) -> &mut dyn SyndromeSource {
        match self {
            Feed::Live(sources) => &mut sources[session],
            Feed::Replay(reader) => reader,
        }
    }
}

/// FNV-1a over a session's observable serving history: every poll's
/// corrections and watermark, then the close report — the digest
/// `service_bench` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_edges(&mut self, edges: &[Edge]) {
        self.push(edges.len() as u64);
        for &edge in edges {
            self.push(edge.index() as u64);
        }
    }
}

/// What the harness keeps per session.
struct SessionLog {
    digest: Digest,
    watermark: Option<u64>,
    failed: bool,
    /// Every correction served, kept only when recording.
    served: Vec<Edge>,
}

/// A running fabric with its sessions, feed and harness state.
struct Fabric {
    service: ShardedDecodeService,
    ids: Vec<SessionId>,
    feed: Feed,
    rounds: Vec<DetectionRound>,
    polled: Vec<Result<Polled<Vec<Edge>>, ServiceError>>,
    logs: Vec<SessionLog>,
    lags: LagCounts,
    /// Records every served round for the decode-layer replay.
    recorder: Option<PackedWriter<Cursor<Vec<u8>>>>,
    head: u64,
    defects: u64,
}

/// A closed fabric's outputs.
struct Closed {
    /// Per-session digests.
    digests: Vec<u64>,
    /// Per-session failure (overflow or a failed poll/close).
    failed: Vec<bool>,
    /// Commit lags of the serving loop, from the poll watermarks.
    lags: LagCounts,
    /// Largest per-round decode cost of any session, in cycles.
    cycles_max: u64,
    stalls: u64,
    dropped: u64,
    pool_workers: usize,
    defects: u64,
    /// The served rounds and each session's served corrections.
    recording: Option<(Vec<u8>, Vec<Vec<Edge>>)>,
}

impl Closed {
    /// The fabric digest: per-session digests folded in session order.
    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for &s in &self.digests {
            d.push(s);
        }
        d.0
    }
}

impl Fabric {
    /// Set-up: builds the fabric, opens every session and prepares the
    /// feed (for replay, records the pass into memory first).
    fn open(spec: &ServeSpec, seed: u64, telemetry: bool, record: bool) -> Self {
        let lattice = Lattice::new(spec.d).expect("benchmark distances are valid");
        let telemetry = if telemetry {
            TelemetryHandle::enabled()
        } else {
            TelemetryHandle::disabled()
        };
        let config = ServiceConfig::new(spec.d, spec.backend, budget())
            .with_threads(crate::workers())
            .with_window(window(spec.d))
            .with_telemetry(telemetry);
        let service = ShardedDecodeService::new(ShardedServiceConfig::new(config, 1))
            .expect("benchmark distances are valid");
        let ids = (0..spec.sessions).map(|_| service.open_session()).collect();
        let feed = if spec.replay {
            let image = record_pass(spec, seed, &lattice);
            Feed::Replay(PackedReader::new(Cursor::new(image)).expect("a valid recording"))
        } else {
            Feed::Live(live_sources(spec, seed, &lattice))
        };
        Self {
            service,
            ids,
            feed,
            rounds: vec![DetectionRound::zeros(lattice.num_ancillas()); spec.sessions],
            polled: (0..spec.sessions)
                .map(|_| Err(ServiceError::UnknownSession))
                .collect(),
            logs: (0..spec.sessions)
                .map(|_| SessionLog {
                    digest: Digest::new(),
                    watermark: None,
                    failed: false,
                    served: Vec::new(),
                })
                .collect(),
            lags: LagCounts::default(),
            recorder: record.then(|| packed_writer(spec, &lattice)),
            head: 0,
            defects: 0,
        }
    }

    /// One serving tick: every session advances by one round.
    fn tick(&mut self, tr: &mut Tracer) {
        let n = self.ids.len() as u64;

        let t = tr.start();
        for (s, round) in self.rounds.iter_mut().enumerate() {
            self.feed
                .source(s)
                .next_round_into(round)
                .expect("the feed covers every served round");
        }
        tr.stop(Layer::Source, t, n);

        let t = tr.start();
        self.service
            .push_rounds(self.ids.iter().copied().zip(self.rounds.iter()));
        tr.stop(Layer::Shard, t, n);

        let t = tr.start();
        self.service.pump();
        tr.stop(Layer::Pump, t, 1);

        let t = tr.start();
        for (slot, &id) in self.polled.iter_mut().zip(&self.ids) {
            *slot = self.service.poll_corrections(id);
        }
        tr.stop(Layer::Poll, t, n);

        let t = tr.start();
        self.account();
        tr.stop(Layer::Harness, t, 1);

        let t = tr.start();
        for (s, polled) in self.polled.iter().enumerate() {
            if let Ok(polled) = polled {
                self.feed.source(s).apply_corrections(polled);
            }
        }
        tr.stop(Layer::Feedback, t, n);
        self.head += 1;
    }

    /// Harness bookkeeping of one tick: digests, commit lags from the
    /// poll watermarks, defect count and the optional recording.
    fn account(&mut self) {
        for ((log, polled), round) in self.logs.iter_mut().zip(&self.polled).zip(&self.rounds) {
            self.defects += round.events().count_ones() as u64;
            if let Some(writer) = &mut self.recorder {
                writer
                    .write_plane(round.events(), None)
                    .expect("in-memory write");
            }
            match polled {
                Ok(p) => {
                    log.digest.push_edges(p);
                    log.digest.push(p.committed_through.map_or(0, |w| w + 1));
                    log.watermark = note_commits(
                        log.watermark,
                        p.committed_through,
                        self.head,
                        &mut self.lags,
                    );
                    if self.recorder.is_some() {
                        log.served.extend_from_slice(p);
                    }
                }
                Err(_) => log.failed = true,
            }
        }
    }

    /// Closes every session and collects the outputs.
    fn close(mut self, tr: &mut Tracer) -> Closed {
        let stats = self.service.total_stats();
        let pool_workers = self.service.pool_workers();
        let t = tr.start();
        let reports: Vec<_> = self
            .ids
            .iter()
            .map(|&id| self.service.close_session(id))
            .collect();
        tr.stop(Layer::Close, t, self.ids.len() as u64);
        let mut cycles_max = 0;
        for (log, report) in self.logs.iter_mut().zip(reports) {
            match report {
                Ok(r) => {
                    log.digest.push_edges(&r.corrections);
                    log.digest.push(u64::from(r.overflowed));
                    log.digest.push(r.rounds_ingested);
                    log.digest.push(r.rounds_dropped);
                    log.digest.push(r.committed_through.map_or(0, |w| w + 1));
                    log.failed |= r.overflowed;
                    log.served.extend_from_slice(&r.corrections);
                    cycles_max = cycles_max.max(r.latency.max_cycles);
                }
                Err(_) => log.failed = true,
            }
        }
        let recording = self.recorder.take().map(|w| {
            let image = w.finish().expect("whole rounds written").into_inner();
            (
                image,
                self.logs
                    .iter_mut()
                    .map(|l| std::mem::take(&mut l.served))
                    .collect(),
            )
        });
        Closed {
            digests: self.logs.iter().map(|l| l.digest.0).collect(),
            failed: self.logs.iter().map(|l| l.failed).collect(),
            lags: self.lags,
            cycles_max,
            stalls: stats.stalls,
            dropped: stats.dropped,
            pool_workers,
            defects: self.defects,
            recording,
        }
    }
}

/// How a pass runs.
#[derive(Debug, Clone, Copy, Default)]
struct Mode {
    traced: bool,
    telemetry: bool,
    record: bool,
}

/// One pass: set up, serve `spec.rounds` ticks, close.
struct Pass {
    setup_s: f64,
    loop_s: f64,
    close_s: f64,
    ticks_us: Vec<f64>,
    closed: Closed,
    tracer: Tracer,
}

impl Pass {
    fn rounds_per_s(&self, spec: &ServeSpec) -> f64 {
        (spec.sessions * spec.rounds) as f64 / self.loop_s
    }
}

fn pass(spec: &ServeSpec, seed: u64, mode: Mode) -> Pass {
    let mut tracer = Tracer::new(mode.traced);
    let start = Instant::now();
    let mut fabric = Fabric::open(spec, seed, mode.telemetry, mode.record);
    let setup_s = start.elapsed().as_secs_f64();
    let mut ticks_us = Vec::with_capacity(spec.rounds);
    let serving = Instant::now();
    for _ in 0..spec.rounds {
        let tick = Instant::now();
        fabric.tick(&mut tracer);
        ticks_us.push(tick.elapsed().as_secs_f64() * 1e6);
    }
    let loop_s = serving.elapsed().as_secs_f64();
    let closing = Instant::now();
    let closed = fabric.close(&mut tracer);
    Pass {
        setup_s,
        loop_s,
        close_s: closing.elapsed().as_secs_f64(),
        ticks_us,
        closed,
        tracer,
    }
}

/// Runs a serving workload: end-to-end metrics untraced, or the
/// per-layer ledger traced.
pub fn run(spec: &ServeSpec, name: &str, args: &Args, report: &mut Report) {
    let passes = if args.trace {
        traced(spec, args, report)
    } else {
        untraced(spec, args, report)
    };
    check_passes(spec, &passes, report);
    if let Some(pins) = pins(name, args.seed) {
        let first = &passes[0].closed;
        let pinned = |key: &str| pins.get(key).and_then(Json::as_u64);
        report.check(
            pinned("digest") == Some(first.digest()),
            report_rounds(spec),
            || {
                format!(
                    "fabric digest {} differs from the pinned {:?}",
                    first.digest(),
                    pinned("digest")
                )
            },
        );
        if let Some(cycles) = pinned("decode_cycles_max") {
            report.check(cycles == first.cycles_max, 0, || {
                format!(
                    "decode_cycles_max {} differs from the pinned {cycles}",
                    first.cycles_max
                )
            });
        }
    }
}

fn report_rounds(spec: &ServeSpec) -> u64 {
    (spec.sessions * spec.rounds) as u64
}

/// Output checks common to every pass of a run: each session's digest
/// repeats the first pass's, no round dropped, no session failed, no
/// round over its cycle budget.
fn check_passes(spec: &ServeSpec, passes: &[Pass], report: &mut Report) {
    let reference = &passes[0].closed;
    for (i, p) in passes.iter().enumerate() {
        let c = &p.closed;
        report.attempt(report_rounds(spec));
        let differing = c
            .digests
            .iter()
            .zip(&reference.digests)
            .filter(|(a, b)| a != b)
            .count();
        report.check(differing == 0, (differing * spec.rounds) as u64, || {
            format!("pass {i}: {differing} session digest(s) differ from pass 0")
        });
        let failed = c.failed.iter().filter(|&&f| f).count();
        report.fail(
            (failed * spec.rounds) as u64,
            "rounds of failed (overflowed) sessions",
        );
        report.fail(c.dropped, "dropped rounds");
        let budget = budget().cycles_per_round();
        report.check(c.cycles_max <= budget, 0, || {
            format!(
                "pass {i}: a round took {} cycles, over the {budget}-cycle budget",
                c.cycles_max
            )
        });
    }
}

fn untraced(spec: &ServeSpec, args: &Args, report: &mut Report) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(pass(spec, args.seed, Mode::default()));
    }
    let sessions = spec.sessions as f64;
    let figures: Vec<PassFigures> = passes
        .iter()
        .map(|p| PassFigures {
            setup_s: p.setup_s,
            rounds_per_s: p.rounds_per_s(spec),
            shots_per_s: sessions / (p.setup_s + p.loop_s + p.close_s),
        })
        .collect();
    let ticks = passes
        .iter()
        .flat_map(|p| p.ticks_us.iter().copied())
        .collect();
    let lags = &passes[0].closed.lags;
    report.end_to_end(&figures, ticks, lags);
    eprintln!(
        "  commit lag mean {:.3} max {:?} rounds over {} commits; decode cycles max {}",
        lags.total_lag() as f64 / lags.committed().max(1) as f64,
        lags.max(),
        lags.committed(),
        passes[0].closed.cycles_max
    );
    passes
}

fn traced(spec: &ServeSpec, args: &Args, report: &mut Report) -> Vec<Pass> {
    let start = Instant::now();
    let (mut plain, mut traced, mut telemetry) = (Vec::new(), Vec::new(), Vec::new());
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds * TRACED_SHARE {
        plain.push(pass(spec, args.seed, Mode::default()));
        let traced_mode = Mode {
            traced: true,
            record: traced.is_empty(),
            ..Mode::default()
        };
        traced.push(pass(spec, args.seed, traced_mode));
        let telemetry_mode = Mode {
            telemetry: true,
            ..Mode::default()
        };
        telemetry.push(pass(spec, args.seed, telemetry_mode));
    }

    let mut ledger = Tracer::new(true);
    for p in &traced {
        ledger.merge(&p.tracer);
    }
    let wall_ns: u64 = traced.iter().map(|p| (p.loop_s * 1e9) as u64).sum();
    let rounds = (traced.len() * spec.sessions * spec.rounds) as f64;
    let per_round = |layer| ledger.ns(layer) as f64 / rounds;
    let first = &traced[0].closed;
    report.metric("source.ns_per_round", per_round(Layer::Source));
    report.metric("source.feedback_ns_per_round", per_round(Layer::Feedback));
    report.metric(
        "source.defects_per_round",
        first.defects as f64 / report_rounds(spec) as f64,
    );
    report.metric("shard.push_ns_per_round", per_round(Layer::Shard));
    report.metric("shard.stalls", first.stalls as f64);
    report.metric("shard.dropped", first.dropped as f64);
    report.metric("service.pump_ns_per_round", per_round(Layer::Pump));
    report.metric(
        "service.poll_ns_per_call",
        ledger.ns(Layer::Poll) as f64 / ledger.calls(Layer::Poll).max(1) as f64,
    );
    report.metric(
        "service.close_ns_per_session",
        ledger.ns(Layer::Close) as f64 / ledger.calls(Layer::Close).max(1) as f64,
    );
    report.metric("service.pool_workers", first.pool_workers as f64);

    let decode = replay_decode(spec, first, report);
    // The pump's workers decode sessions in parallel, so the decode share
    // of the pump's wall time is the serial decode cost over the workers.
    report.metric(
        "service.pump_overhead_ns_per_round",
        per_round(Layer::Pump) - decode / first.pool_workers.max(1) as f64,
    );

    report.tick_tail(plain.iter().flat_map(|p| p.ticks_us.iter().copied()));
    let rate = |ps: &[Pass]| median(ps.iter().map(|p| p.rounds_per_s(spec)));
    report.metric("obs.telemetry_ratio", rate(&telemetry) / rate(&plain));
    report.metric("trace.overhead_ratio", rate(&plain) / rate(&traced));
    let unattributed = unattributed_frac(wall_ns, &ledger, &Layer::SERVE_LOOP);
    report.metric("trace.unattributed_frac", unattributed);
    report.check((0.0..=LEDGER_BOUND).contains(&unattributed), 0, || {
        format!(
            "layer spans leave {unattributed:.4} of the loop unattributed (bound {LEDGER_BOUND})"
        )
    });
    eprintln!(
        "  {} plain / {} traced / {} telemetry passes",
        plain.len(),
        traced.len(),
        telemetry.len()
    );
    plain.into_iter().chain(traced).chain(telemetry).collect()
}

/// The decode layer alone: re-feeds each session's served rounds through
/// a fresh backend decoder (`ingest` + `decode_step` under the budget,
/// then `finish`), checks the corrections equal the served ones byte for
/// byte, and reports the decode metrics. Returns the serial decode cost
/// per round in ns.
fn replay_decode(spec: &ServeSpec, closed: &Closed, report: &mut Report) -> f64 {
    let (image, served) = closed
        .recording
        .as_ref()
        .expect("the first traced pass records");
    let lattice = Lattice::new(spec.d).expect("benchmark distances are valid");
    let budget = budget().cycles_per_round();
    let mut reader = PackedReader::new(Cursor::new(image.as_slice())).expect("a valid recording");
    let mut decoders: Vec<Box<dyn Decoder>> = (0..spec.sessions)
        .map(|_| fresh_decoder(spec, &lattice))
        .collect();
    let mut planes = vec![DetectionRound::zeros(lattice.num_ancillas()); spec.sessions];
    let mut outs = vec![DecodeOutput::default(); spec.sessions];
    let mut emitted: Vec<Vec<Edge>> = vec![Vec::new(); spec.sessions];
    let mut overflowed = vec![false; spec.sessions];
    let mut cycles = Vec::with_capacity(spec.sessions * spec.rounds);
    let mut step_ns = 0u128;
    for _ in 0..spec.rounds {
        for plane in &mut planes {
            reader
                .next_round_into(plane)
                .expect("the recording holds every round");
        }
        let t = Instant::now();
        for ((decoder, plane), (out, failed)) in decoders
            .iter_mut()
            .zip(&planes)
            .zip(outs.iter_mut().zip(&mut overflowed))
        {
            if *failed {
                continue;
            }
            if decoder.ingest(plane).is_ok() {
                decoder.decode_step(Some(budget), out);
            } else {
                *failed = true;
            }
        }
        step_ns += t.elapsed().as_nanos();
        for ((out, emitted), failed) in outs.iter().zip(&mut emitted).zip(&overflowed) {
            if !failed {
                emitted.extend_from_slice(&out.corrections);
                cycles.push(out.cycles as f64);
            }
        }
    }
    report.attempt(report_rounds(spec));
    let mut corrections = 0usize;
    let mut mismatched = 0usize;
    for (((decoder, out), emitted), (served, failed)) in decoders
        .iter_mut()
        .zip(&mut outs)
        .zip(&mut emitted)
        .zip(served.iter().zip(&overflowed))
    {
        decoder.finish(out);
        emitted.extend_from_slice(&out.corrections);
        corrections += emitted.len();
        if *failed || emitted != served {
            mismatched += 1;
        }
    }
    report.check(mismatched == 0, (mismatched * spec.rounds) as u64, || {
        format!("decode replay: {mismatched} session(s) differ from the served corrections")
    });
    cycles.sort_by(f64::total_cmp);
    let cycles_max = cycles.last().copied().unwrap_or(0.0);
    report.check(cycles_max as u64 == closed.cycles_max, 0, || {
        format!(
            "decode replay: max cycles {cycles_max} vs {} served",
            closed.cycles_max
        )
    });
    let rounds = report_rounds(spec) as f64;
    let ns_per_round = step_ns as f64 / rounds;
    report.metric("decode.ns_per_round", ns_per_round);
    report.metric("decode.corrections_per_round", corrections as f64 / rounds);
    report.tail("decode.cycles_p99", highest_tail(&cycles, 0.99), cycles_max);
    report.metric(
        "decode.cycles_mean",
        cycles.iter().sum::<f64>() / cycles.len().max(1) as f64,
    );
    report.metric("decode.cycles_max", cycles_max);
    ns_per_round
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(backend: ServiceBackend, replay: bool) -> ServeSpec {
        ServeSpec {
            backend,
            d: 3,
            p: 0.03,
            sessions: 4,
            rounds: 60,
            replay,
        }
    }

    /// The watermark → lag arithmetic must reproduce the service's own
    /// exact commit accounting, for every backend.
    #[test]
    fn watermark_lags_equal_the_service_latency_stats() {
        for backend in [
            ServiceBackend::Qecool,
            ServiceBackend::UnionFind,
            ServiceBackend::Mwpm,
        ] {
            let spec = small(backend, false);
            let mut fabric = Fabric::open(&spec, 7, false, false);
            let mut tr = Tracer::new(false);
            for _ in 0..spec.rounds {
                fabric.tick(&mut tr);
            }
            let (mut committed, mut total, mut max) = (0, 0, 0);
            for &id in &fabric.ids {
                let lat = fabric.service.latency(id).expect("session open");
                committed += lat.committed_rounds;
                total += lat.total_lag_rounds;
                max = max.max(lat.max_lag_rounds);
            }
            assert!(committed > 0, "{backend:?} committed nothing");
            let lags = &fabric.lags;
            assert_eq!(lags.committed(), committed, "{backend:?}");
            assert_eq!(lags.total_lag(), total, "{backend:?}");
            assert_eq!(lags.max(), Some(max), "{backend:?}");
        }
    }

    /// Replaying the open-loop recording serves exactly what live
    /// sessions with feedback serve.
    #[test]
    fn replay_digests_equal_live_digests() {
        for backend in [ServiceBackend::Qecool, ServiceBackend::UnionFind] {
            let mut tr = Tracer::new(false);
            let mut digests = Vec::new();
            for replay in [false, true] {
                let spec = small(backend, replay);
                let mut fabric = Fabric::open(&spec, 11, false, false);
                for _ in 0..spec.rounds {
                    fabric.tick(&mut tr);
                }
                digests.push(fabric.close(&mut tr).digests);
            }
            assert_eq!(digests[0], digests[1], "{backend:?}");
        }
    }

    #[test]
    fn the_decode_replay_reproduces_served_corrections() {
        for backend in [ServiceBackend::Qecool, ServiceBackend::UnionFind] {
            let spec = small(backend, false);
            let record = Mode {
                record: true,
                ..Mode::default()
            };
            let p = pass(&spec, 3, record);
            let mut report = Report::default();
            replay_decode(&spec, &p.closed, &mut report);
            assert!(
                report.problems.is_empty(),
                "{backend:?}: {:?}",
                report.problems
            );
        }
    }
}
