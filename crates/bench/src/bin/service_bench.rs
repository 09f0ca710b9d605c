//! Throughput/latency benchmark of the sharded multi-tenant decoding
//! fabric: many concurrent syndrome-stream sessions decoded under the
//! SFQ cycle budget, spread over N service shards.
//!
//! Each session models one logical qubit: its own patch, its own seeded
//! noise stream (any `--noise` family of the
//! [`NoiseSpec`] matrix), its own
//! decoder state inside its shard's service — or, under `--replay`, a
//! pre-recorded detection-event stream pulled from a bit-packed file
//! through the same [`SyndromeSource`] seam.
//! `--record FILE` writes the live run to such a file; replaying it
//! reproduces the session digest byte for byte (the recording bakes
//! the correction feedback in). Every
//! benchmark round batch-pushes one detection round per session into
//! the shards, pumps the shards' worker pools, polls corrections and
//! applies them — the steady-state serving loop. Reported: wall-clock
//! throughput (rounds/s across all sessions), session density per
//! worker, decode-cycle latency against the
//! per-round budget, per-shard ingest accounting, and a per-session
//! report digest — the digest is a pure function of every session's
//! correction stream and close report, so `--shards 4` and `--shards 1`
//! runs must print the same value (with or without telemetry).
//!
//! With `--metrics` / `--metrics-json`, the run enables the fabric's
//! telemetry layer and writes a metrics snapshot — Prometheus text
//! and/or the flat-JSON perf-record shape — taken right after the
//! serving loop, *before* sessions close, so gauges like
//! `qecool_sessions_open` show the steady serving state.
//! `--metrics-interval-ms` additionally re-emits to the same target(s)
//! periodically while the loop runs.
//!
//! ```text
//! cargo run --release -p qecool-bench --bin service_bench -- \
//!     [--sessions N] [--rounds N] [--threads N] [--shards N] [--d D] \
//!     [--p P] [--noise SPEC] [--record FILE] [--replay FILE] [--ghz F] \
//!     [--backend qecool|uf|mwpm] [--window W] [--stride S] \
//!     [--seed S] [--smoke] [--metrics FILE|-] \
//!     [--metrics-json FILE|-] [--metrics-interval-ms MS]
//! ```
//!
//! Under `--replay` the file dictates the serving geometry: `--d`,
//! `--sessions` and `--rounds` are overridden by the recorded header
//! (one stream per session, planes round-major).
//!
//! `--window W --stride S` set the sliding-window geometry of the
//! UF/MWPM backends (default `W = 3d, S = d`); QECOOL commits
//! incrementally, so with it they exit 2. The session digest also
//! covers every poll's commit watermark, and the table reports
//! the commit-lag distribution (rounds behind the stream head when a
//! round's corrections committed). Backends without a hardware cycle
//! model (UF/MWPM) print `n/a (no cycle model)` for the decode-cycle
//! rows instead of a misleading zero.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qecool::{CommitCadence, CommitHint, SimulatedSource, SyndromeSource};
use qecool_bench::{
    parse_ghz, parse_noise, parse_or_die, parse_rate, parse_threads, require_value, usage_error,
    TextTable,
};
use qecool_obs::{Snapshot, TelemetryHandle};
use qecool_sfq::budget::{CycleBudget, CycleHistogram};
use qecool_sim::campaign::derive_seed;
use qecool_sim::service::{ServiceBackend, ServiceConfig, SessionId, WindowConfig};
use qecool_sim::shard::{ShardStats, ShardedDecodeService, ShardedServiceConfig};
use qecool_surface_code::{
    CodePatch, DetectionRound, Edge, Lattice, NoiseSpec, PackedReader, PackedWriter,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct BenchOptions {
    sessions: usize,
    rounds: usize,
    threads: usize,
    shards: usize,
    d: usize,
    p: f64,
    /// Noise-family override; `None` = phenomenological at `p`.
    noise: Option<NoiseSpec>,
    /// Record the live session streams to this packed file.
    record: Option<String>,
    /// Replay session streams from this packed file instead of
    /// simulating (mutually exclusive with `--record`/`--noise`).
    replay: Option<String>,
    ghz: f64,
    backend: ServiceBackend,
    /// Sliding-window length override for the UF/MWPM backends.
    window: Option<u64>,
    /// Commit stride override for the UF/MWPM backends.
    stride: Option<u64>,
    seed: u64,
    /// Prometheus-text snapshot target (`-` = stdout).
    metrics: Option<String>,
    /// Flat-JSON snapshot target (`-` = stdout).
    metrics_json: Option<String>,
    /// Periodic re-emission interval; 0 = final snapshot only.
    metrics_interval_ms: u64,
}

impl BenchOptions {
    fn parse() -> Self {
        let mut opts = Self {
            sessions: 64,
            rounds: 2000,
            threads: 0,
            shards: 1,
            d: 5,
            p: 0.01,
            noise: None,
            record: None,
            replay: None,
            ghz: 2.0,
            backend: ServiceBackend::Qecool,
            window: None,
            stride: None,
            seed: 2021,
            metrics: None,
            metrics_json: None,
            metrics_interval_ms: 0,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--sessions" => {
                    let v = require_value(&mut args, "--sessions");
                    opts.sessions = parse_or_die(&v, "--sessions", "a positive integer");
                    if opts.sessions == 0 {
                        usage_error("--sessions must be >= 1");
                    }
                }
                "--rounds" => {
                    let v = require_value(&mut args, "--rounds");
                    opts.rounds = parse_or_die(&v, "--rounds", "a positive integer");
                    if opts.rounds == 0 {
                        usage_error("--rounds must be >= 1");
                    }
                }
                "--threads" => {
                    let v = require_value(&mut args, "--threads");
                    opts.threads = parse_threads(&v);
                }
                "--shards" => {
                    let v = require_value(&mut args, "--shards");
                    opts.shards = parse_or_die(&v, "--shards", "a positive integer");
                    if opts.shards == 0 {
                        usage_error("--shards must be >= 1");
                    }
                }
                "--d" => {
                    let v = require_value(&mut args, "--d");
                    opts.d = parse_or_die(&v, "--d", "an odd code distance >= 3");
                }
                "--p" => {
                    let v = require_value(&mut args, "--p");
                    // Routed through the NoiseSpec validator so an
                    // out-of-range rate is a named exit-2 error, not a
                    // sampling panic downstream.
                    opts.p = parse_rate(&v, "--p");
                }
                "--noise" => {
                    let v = require_value(&mut args, "--noise");
                    opts.noise = Some(parse_noise(&v));
                }
                "--record" => opts.record = Some(require_value(&mut args, "--record")),
                "--replay" => opts.replay = Some(require_value(&mut args, "--replay")),
                "--ghz" => {
                    let v = require_value(&mut args, "--ghz");
                    opts.ghz = parse_ghz(&v);
                }
                "--backend" => {
                    let v = require_value(&mut args, "--backend");
                    opts.backend = match v.as_str() {
                        "qecool" => ServiceBackend::Qecool,
                        "uf" | "union-find" => ServiceBackend::UnionFind,
                        "mwpm" => ServiceBackend::Mwpm,
                        other => {
                            usage_error(&format!("--backend expects qecool|uf|mwpm, got '{other}'"))
                        }
                    };
                }
                "--window" => {
                    let v = require_value(&mut args, "--window");
                    opts.window = Some(parse_or_die(&v, "--window", "a window length in rounds"));
                }
                "--stride" => {
                    let v = require_value(&mut args, "--stride");
                    opts.stride = Some(parse_or_die(&v, "--stride", "a commit stride in rounds"));
                }
                "--seed" => {
                    let v = require_value(&mut args, "--seed");
                    opts.seed = parse_or_die(&v, "--seed", "a non-negative integer");
                }
                "--smoke" => {
                    opts.sessions = 8;
                    opts.rounds = 40;
                }
                "--metrics" => opts.metrics = Some(require_value(&mut args, "--metrics")),
                "--metrics-json" => {
                    opts.metrics_json = Some(require_value(&mut args, "--metrics-json"));
                }
                "--metrics-interval-ms" => {
                    let v = require_value(&mut args, "--metrics-interval-ms");
                    opts.metrics_interval_ms =
                        parse_or_die(&v, "--metrics-interval-ms", "a positive integer");
                    if opts.metrics_interval_ms == 0 {
                        usage_error("--metrics-interval-ms must be >= 1");
                    }
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--sessions N] [--rounds N] [--threads N] [--shards N] [--d D] \
                         [--p P] [--noise SPEC] [--record FILE] [--replay FILE] [--ghz F] \
                         [--backend qecool|uf|mwpm] [--window W] [--stride S] \
                         [--seed S] [--smoke] [--metrics FILE|-] \
                         [--metrics-json FILE|-] [--metrics-interval-ms MS]"
                    );
                    std::process::exit(0);
                }
                other => usage_error(&format!("unknown argument: {other}")),
            }
        }
        if opts.metrics_interval_ms > 0 && opts.metrics.is_none() && opts.metrics_json.is_none() {
            usage_error("--metrics-interval-ms needs --metrics and/or --metrics-json");
        }
        if opts.record.is_some() && opts.replay.is_some() {
            usage_error("--record and --replay are mutually exclusive");
        }
        if let Some(path) = opts.replay.clone() {
            if opts.noise.is_some() {
                usage_error("--replay serves recorded rounds; --noise would be ignored, drop one");
            }
            // The recording dictates the serving geometry: one session
            // per stream, the recorded round count, the recorded code
            // distance.
            let reader = match PackedReader::open(Path::new(&path)) {
                Ok(r) => r,
                Err(e) => qecool::exit_with(&e),
            };
            let header = *reader.header();
            if header.distance == 0 {
                usage_error(&format!("--replay {path}: file declares no code distance"));
            }
            if header.rounds == 0 {
                usage_error(&format!("--replay {path}: file contains no rounds"));
            }
            opts.d = header.distance as usize;
            opts.sessions = header.streams as usize;
            opts.rounds = header.rounds as usize;
        }
        // Validate the distance before anything is sized from it, naming
        // where it came from.
        if let Err(e) = Lattice::new(opts.d) {
            let source = match &opts.replay {
                Some(path) => format!("--replay {path}"),
                None => "--d".to_owned(),
            };
            usage_error(&format!("{source}: {e}"));
        }
        // QECOOL would accept a window geometry and ignore it.
        if matches!(opts.backend, ServiceBackend::Qecool)
            && (opts.window.is_some() || opts.stride.is_some())
        {
            usage_error(
                "--window/--stride set the sliding window of --backend uf|mwpm; \
                 QECOOL commits incrementally and has no window",
            );
        }
        // Validate the window geometry eagerly so a bad pair is a CLI
        // error, not an assertion inside the fabric.
        if let Some((w, s)) = opts.window_override() {
            if s == 0 || s >= w {
                usage_error(&format!(
                    "--window/--stride need 1 <= stride < window, got window {w}, stride {s}"
                ));
            }
        }
        opts
    }

    /// The `--window`/`--stride` pair, with the unspecified half filled
    /// from the `W = 3d, S = d` default. `None` when neither flag was
    /// given (the fabric then applies its own default).
    fn window_override(&self) -> Option<(u64, u64)> {
        if self.window.is_none() && self.stride.is_none() {
            return None;
        }
        let w = self.window.unwrap_or(3 * self.d as u64);
        let s = self.stride.unwrap_or(self.d as u64);
        Some((w, s))
    }

    fn telemetry_requested(&self) -> bool {
        self.metrics.is_some() || self.metrics_json.is_some()
    }

    /// The effective noise spec of a live run: `--noise` wins, else
    /// phenomenological at `--p`.
    fn noise_spec(&self) -> NoiseSpec {
        self.noise
            .unwrap_or(NoiseSpec::Phenomenological { p: self.p })
    }
}

/// Where the sessions' detection rounds come from — the two sides of
/// the [`SyndromeSource`] seam. Live runs wrap patch + noise + RNG in
/// one [`SimulatedSource`] per session (optionally recording every
/// plane through the packed writer); replay runs pull the recorded
/// planes back out of the file, one stream per session, round-major.
enum SessionFeed {
    Live {
        sources: Vec<SimulatedSource>,
        recorder: Option<PackedWriter<BufWriter<File>>>,
    },
    Replay {
        reader: PackedReader<BufReader<File>>,
    },
}

impl SessionFeed {
    fn open(opts: &BenchOptions, lattice: &Lattice) -> Self {
        if let Some(path) = &opts.replay {
            let reader = match PackedReader::open(Path::new(path)) {
                Ok(r) => r,
                Err(e) => qecool::exit_with(&e),
            };
            let header = *reader.header();
            if header.streams as usize != opts.sessions
                || header.num_detectors as usize != lattice.num_ancillas()
            {
                usage_error(&format!(
                    "--replay {path}: recorded shape ({} streams, {} detectors) does not match                      the fabric ({} sessions, {} detectors)",
                    header.streams,
                    header.num_detectors,
                    opts.sessions,
                    lattice.num_ancillas(),
                ));
            }
            Self::Replay { reader }
        } else {
            let spec = opts.noise_spec();
            let noise = spec.build();
            let sources = (0..opts.sessions)
                .map(|s| {
                    SimulatedSource::new(
                        CodePatch::new(lattice.clone()),
                        noise,
                        // Session `s` noise comes from derive_seed
                        // stream `s`: adjacent base seeds no longer
                        // share all-but-one session stream.
                        ChaCha8Rng::seed_from_u64(derive_seed(opts.seed, s as u64, 0)),
                    )
                })
                .collect();
            let recorder = opts.record.as_ref().map(|path| {
                let erasure_width = if noise.tracks_erasures() {
                    lattice.num_data_qubits() as u32
                } else {
                    0
                };
                match PackedWriter::create(
                    Path::new(path),
                    lattice.distance() as u32,
                    lattice.num_ancillas() as u32,
                    opts.sessions as u32,
                    erasure_width,
                ) {
                    Ok(w) => w,
                    Err(e) => qecool::exit_with(&e),
                }
            });
            Self::Live { sources, recorder }
        }
    }

    /// Produces the next detection round for every session.
    fn fill_rounds(&mut self, rounds: &mut [DetectionRound]) {
        match self {
            Self::Live { sources, recorder } => {
                for (source, out) in sources.iter_mut().zip(rounds.iter_mut()) {
                    source
                        .next_round_into(out)
                        .expect("an unlimited simulated source never runs dry");
                }
                if let Some(writer) = recorder {
                    for (source, out) in sources.iter().zip(rounds.iter()) {
                        if let Err(e) = writer.write_plane(out.events(), source.erasures()) {
                            qecool::exit_with(&e);
                        }
                    }
                }
            }
            Self::Replay { reader } => {
                for out in rounds.iter_mut() {
                    if reader.next_round_into(out).is_none() {
                        match reader.take_error() {
                            Some(e) => qecool::exit_with(&e),
                            None => usage_error("--replay file ran out of rounds mid-serve"),
                        }
                    }
                }
            }
        }
    }

    /// Feeds decoded corrections back. Live sources fold them into
    /// their patch (closing the physical feedback loop); replay is the
    /// trait's no-op — the recording already baked the feedback into
    /// the planes, which is exactly why replayed digests match.
    fn apply_corrections(&mut self, session: usize, corrections: &[Edge]) {
        if let Self::Live { sources, .. } = self {
            sources[session].apply_corrections(corrections);
        }
    }

    /// Seals a recording (patches the header's round count in place).
    fn finish(self) {
        if let Self::Live {
            recorder: Some(writer),
            ..
        } = self
        {
            if let Err(e) = writer.finish() {
                qecool::exit_with(&e);
            }
        }
    }
}

/// Running FNV-1a 64-bit over a session's observable serving history.
/// Deterministic and order-sensitive: two runs agree iff every session
/// saw the same corrections at the same polls and closed with the same
/// report, which is exactly the shard-count-invariance the fabric
/// promises.
#[derive(Clone, Copy)]
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

/// Everything one serving run produces — the headline measurements, the
/// latency aggregates, the per-shard ingest accounting and (when
/// telemetry was enabled) a metrics snapshot taken after the serving
/// loop but *before* the sessions closed, so it shows the steady
/// serving state (`qecool_sessions_open` > 0, worker/shard counters hot).
struct ServeOutcome {
    elapsed: Duration,
    throughput: f64,
    total_corrections: u64,
    pump_workers: usize,
    worst_util: f64,
    mean_util: f64,
    overruns: u64,
    max_cycles: u64,
    p99_cycles: u64,
    committed_rounds: u64,
    total_lag_rounds: u64,
    max_lag_rounds: u64,
    p99_lag_rounds: u64,
    overflowed: usize,
    digest: u64,
    /// The backend's commit hint: its cadence, and whether its
    /// decode-cycle figures come from a real cycle model.
    hint: CommitHint,
    per_shard: Vec<ShardStats>,
    total_stats: ShardStats,
    snapshot: Option<Snapshot>,
}

/// One full serving run: build a fresh fabric, open sessions, serve
/// `rounds` batched rounds, snapshot, close, aggregate. Deterministic in
/// everything but the timings — two runs with the same options produce
/// the same digest whatever `telemetry` says.
fn serve(opts: &BenchOptions, telemetry: TelemetryHandle) -> ServeOutcome {
    let budget = CycleBudget::at_clock(opts.ghz * 1e9);
    let mut config = ServiceConfig::new(opts.d, opts.backend, budget)
        .with_threads(opts.threads)
        .with_telemetry(telemetry.clone());
    if let Some((w, s)) = opts.window_override() {
        config = config.with_window(WindowConfig::new(w, s));
    }
    let service = match ShardedDecodeService::new(ShardedServiceConfig::new(config, opts.shards)) {
        Ok(s) => s,
        Err(e) => usage_error(&format!("--d: {e}")),
    };
    let lattice = Lattice::new(opts.d).expect("distance validated above");

    let ids: Vec<SessionId> = (0..opts.sessions).map(|_| service.open_session()).collect();
    // Every session is fed through the SyndromeSource seam — live
    // simulation (optionally recorded) or packed-file replay.
    let mut feed = SessionFeed::open(opts, &lattice);
    // One round buffer per session so a whole benchmark round can go
    // through the batched ingest path in one call.
    let mut rounds: Vec<DetectionRound> = (0..opts.sessions)
        .map(|_| DetectionRound::zeros(lattice.num_ancillas()))
        .collect();
    let mut digests: Vec<Digest> = vec![Digest::new(); opts.sessions];

    let start = Instant::now();
    let mut total_corrections = 0u64;
    for _ in 0..opts.rounds {
        feed.fill_rounds(&mut rounds);
        // Ingest is fire-and-forget: an overflowed session's rounds go
        // to drop accounting and surface in its close report.
        service.push_rounds(ids.iter().copied().zip(rounds.iter()));
        service.pump();
        for s in 0..opts.sessions {
            if let Ok(fresh) = service.poll_corrections(ids[s]) {
                total_corrections += fresh.len() as u64;
                digests[s].push_edges(&fresh);
                // The watermark is part of the observable API now, so
                // it is part of the determinism contract: fold every
                // poll's committed-through value in (`0` = none yet).
                digests[s].push(fresh.committed_through.map_or(0, |w| w + 1));
                feed.apply_corrections(s, &fresh);
            }
        }
    }
    feed.finish();
    let elapsed = start.elapsed();
    // Threads that drained sessions in the pumps above that fanned out
    // (pool threads plus the caller, per shard with a pool), so record
    // reality, not the request. A pump drains inline until its sessions
    // outweigh a pool wake-up, so 0 means no pump fanned out.
    let pump_workers = service.pool_workers();

    let mut worst_util = 0.0f64;
    let mut mean_util_acc = 0.0f64;
    let mut overruns = 0u64;
    let mut max_cycles = 0u64;
    let mut overflowed = 0usize;
    let mut hist = CycleHistogram::new();
    // Commit-lag aggregates cover the serving loop only — the close-time
    // flush below would commit every residual round at an artificially
    // small lag and skew the steady-state percentiles.
    let mut committed_rounds = 0u64;
    let mut total_lag_rounds = 0u64;
    let mut max_lag_rounds = 0u64;
    let mut lag_hist = CycleHistogram::new();
    for &id in &ids {
        let lat = service.latency(id).expect("session open");
        worst_util = worst_util.max(lat.max_cycles as f64 / lat.budget_cycles.max(1) as f64);
        mean_util_acc += lat.mean_utilisation();
        overruns += lat.overruns;
        max_cycles = max_cycles.max(lat.max_cycles);
        hist.merge(&lat.histogram);
        committed_rounds += lat.committed_rounds;
        total_lag_rounds += lat.total_lag_rounds;
        max_lag_rounds = max_lag_rounds.max(lat.max_lag_rounds);
        lag_hist.merge(&lat.lag_histogram);
        if service.is_overflowed(id).unwrap_or(false) {
            overflowed += 1;
        }
    }

    // Snapshot while every session is still open: this is the metrics
    // view a scraper would see mid-serve.
    let snapshot = telemetry.snapshot();

    // Fold each session's close report into its digest, then combine in
    // session order. Identical across shard counts and worker counts by
    // construction — CI holds runs to that.
    let mut fabric_digest = Digest::new();
    for (s, id) in ids.into_iter().enumerate() {
        let report = service.close_session(id).expect("session open");
        digests[s].push_edges(&report.corrections);
        digests[s].push(u64::from(report.overflowed));
        digests[s].push(report.rounds_ingested);
        digests[s].push(report.rounds_dropped);
        digests[s].push(report.committed_through.map_or(0, |w| w + 1));
        fabric_digest.push(digests[s].0);
    }

    let served_rounds = (opts.sessions * opts.rounds) as f64;
    ServeOutcome {
        elapsed,
        throughput: served_rounds / elapsed.as_secs_f64().max(1e-12),
        total_corrections,
        pump_workers,
        worst_util,
        mean_util: mean_util_acc / opts.sessions as f64,
        overruns,
        max_cycles,
        p99_cycles: hist.percentile(0.99),
        committed_rounds,
        total_lag_rounds,
        max_lag_rounds,
        p99_lag_rounds: lag_hist.percentile(0.99),
        overflowed,
        digest: fabric_digest.0,
        hint: service.commit_hint(),
        per_shard: (0..service.num_shards())
            .map(|i| service.shard_stats(i))
            .collect(),
        total_stats: service.total_stats(),
        snapshot,
    }
}

/// Writes one rendered snapshot to a `--metrics`-style target:
/// `-` prints to stdout, anything else replaces the file's content (the
/// Prometheus textfile-collector convention, so a scraper never sees a
/// half-written snapshot accumulate).
fn emit_metrics(target: &str, rendered: &str) {
    if target == "-" {
        println!("{rendered}");
    } else if let Err(e) = std::fs::write(target, rendered) {
        usage_error(&format!("cannot write {target}: {e}"));
    }
}

/// Renders + writes the snapshot to every configured target.
fn emit_snapshot(opts: &BenchOptions, snapshot: &Snapshot) {
    if let Some(target) = &opts.metrics {
        emit_metrics(target, &snapshot.to_prometheus());
        if target != "-" {
            eprintln!("wrote {target}");
        }
    }
    if let Some(target) = &opts.metrics_json {
        emit_metrics(target, &snapshot.to_flat_json("qecool_telemetry"));
        if target != "-" {
            eprintln!("wrote {target}");
        }
    }
}

fn main() {
    let opts = BenchOptions::parse();
    let telemetry = if opts.telemetry_requested() {
        TelemetryHandle::enabled()
    } else {
        TelemetryHandle::disabled()
    };
    let budget_cycles = CycleBudget::at_clock(opts.ghz * 1e9).cycles_per_round();

    let feed_desc = match &opts.replay {
        Some(path) => format!("replay:{path}"),
        None => opts.noise_spec().to_string(),
    };
    eprintln!(
        "serving {} sessions x {} rounds on {} shard(s) (d = {}, noise = {}, {:?} @ {} GHz = {} \
         cycles/round{})...",
        opts.sessions,
        opts.rounds,
        opts.shards,
        opts.d,
        feed_desc,
        opts.backend,
        opts.ghz,
        budget_cycles,
        if telemetry.is_enabled() {
            ", telemetry on"
        } else {
            ""
        }
    );

    // Periodic emitter: re-render the live registry to the metrics
    // target(s) while the serving loop runs.
    let stop = Arc::new(AtomicBool::new(false));
    let emitter = (opts.metrics_interval_ms > 0 && telemetry.is_enabled()).then(|| {
        let registry = telemetry
            .registry()
            .expect("telemetry enabled above")
            .clone();
        let stop = Arc::clone(&stop);
        let interval = Duration::from_millis(opts.metrics_interval_ms);
        let metrics = opts.metrics.clone();
        let metrics_json = opts.metrics_json.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                let snapshot = registry.snapshot();
                if let Some(target) = &metrics {
                    emit_metrics(target, &snapshot.to_prometheus());
                }
                if let Some(target) = &metrics_json {
                    emit_metrics(target, &snapshot.to_flat_json("qecool_telemetry"));
                }
            }
        })
    });

    let outcome = serve(&opts, telemetry.clone());

    stop.store(true, Ordering::Release);
    if let Some(handle) = emitter {
        handle.join().expect("metrics emitter panicked");
    }

    // The fabric-wide worker budget (the one `threads` rule), which the
    // fabric divides between shards: the denominator for session density.
    let cores = qecool_sim::pool::worker_count(opts.threads);
    let sessions_per_core = opts.sessions as f64 / cores as f64;
    let stats = outcome.total_stats;

    let mut table = TextTable::new(["metric", "value"]);
    table.row(["sessions", &opts.sessions.to_string()]);
    table.row(["rounds/session", &opts.rounds.to_string()]);
    table.row(["shards", &opts.shards.to_string()]);
    table.row(["budget (cycles/round)", &budget_cycles.to_string()]);
    table.row([
        "wall time (s)",
        &format!("{:.3}", outcome.elapsed.as_secs_f64()),
    ]);
    table.row([
        "throughput (rounds/s)",
        &format!("{:.0}", outcome.throughput),
    ]);
    table.row(["sessions/core", &format!("{sessions_per_core:.2}")]);
    table.row(["pump workers", &outcome.pump_workers.to_string()]);
    table.row(["shard stalls", &stats.stalls.to_string()]);
    table.row(["rounds dropped", &stats.dropped.to_string()]);
    table.row([
        "corrections emitted",
        &outcome.total_corrections.to_string(),
    ]);
    table.row([
        "commit cadence",
        &match outcome.hint.cadence {
            CommitCadence::Incremental => "incremental".to_string(),
            CommitCadence::Windowed { window, stride } => {
                format!("windowed (W = {window}, S = {stride})")
            }
            CommitCadence::Deferred => "deferred".to_string(),
        },
    ]);
    // Decode-cycle figures are only meaningful when the backend has a
    // real hardware cycle model; the graph decoders report structural
    // zeros that must not read as a measured zero-cycle decode.
    if outcome.hint.has_cycle_model {
        table.row(["max decode cycles", &outcome.max_cycles.to_string()]);
        table.row(["p99 decode cycles", &outcome.p99_cycles.to_string()]);
        table.row([
            "p99 budget utilisation",
            &format!(
                "{:.3}",
                outcome.p99_cycles as f64 / budget_cycles.max(1) as f64
            ),
        ]);
        table.row([
            "worst budget utilisation",
            &format!("{:.3}", outcome.worst_util),
        ]);
        table.row([
            "mean budget utilisation",
            &format!("{:.4}", outcome.mean_util),
        ]);
        table.row(["budget overruns", &outcome.overruns.to_string()]);
    } else {
        let na = "n/a (no cycle model)";
        table.row(["max decode cycles", na]);
        table.row(["p99 decode cycles", na]);
        table.row(["p99 budget utilisation", na]);
        table.row(["worst budget utilisation", na]);
        table.row(["mean budget utilisation", na]);
        table.row(["budget overruns", na]);
    }
    table.row(["committed rounds", &outcome.committed_rounds.to_string()]);
    table.row([
        "p99 commit lag (rounds)",
        &outcome.p99_lag_rounds.to_string(),
    ]);
    table.row([
        "max commit lag (rounds)",
        &outcome.max_lag_rounds.to_string(),
    ]);
    table.row([
        "mean commit lag (rounds)",
        &format!(
            "{:.2}",
            outcome.total_lag_rounds as f64 / outcome.committed_rounds.max(1) as f64
        ),
    ]);
    table.row(["overflowed sessions", &outcome.overflowed.to_string()]);
    table.row(["session digest", &format!("{:016x}", outcome.digest)]);
    println!("{}", table.render());

    // Per-shard ingest accounting: where the rounds went, shard by
    // shard — the capacity planner's view of lock pressure.
    let mut shard_table = TextTable::new(["shard", "enqueued", "stalls", "dropped"]);
    for (i, s) in outcome.per_shard.iter().enumerate() {
        shard_table.row([
            i.to_string(),
            s.enqueued.to_string(),
            s.stalls.to_string(),
            s.dropped.to_string(),
        ]);
    }
    println!("{}", shard_table.render());

    if let Some(snapshot) = &outcome.snapshot {
        emit_snapshot(&opts, snapshot);
    }
}
