//! Shared plumbing for the per-table/figure regeneration binaries.
//!
//! Every binary in this crate regenerates one artifact of the QECOOL paper
//! (README's "Running" section lists them) and accepts the same small
//! set of flags:
//!
//! * `--shots N` — base Monte-Carlo shots per point (scaled internally);
//! * `--seed S` — base RNG seed (default 2021, the paper's year);
//! * `--fast` — divide shots by 10 for a quick smoke run;
//! * `--smoke` — minimal shots for a CI liveness check (÷50, floor 10);
//! * `--threads N` — decode-engine worker threads (must be ≥ 1; omit
//!   the flag to use all cores);
//! * `--out FILE` — additionally write machine-readable CSV;
//! * `--noise SPEC` — noise-family override, `family[:k=v,…]` (see
//!   [`qecool_surface_code::NoiseSpec::parse`]); the sweep rate axis
//!   still replaces the rate per point, so the spec picks the family
//!   and shape parameters (`q`, `eta`, burst geometry), not the rate.
//!
//! All binaries run their campaigns on one shared
//! [`DecodeEngine`](qecool_sim::DecodeEngine), built by
//! [`Options::engine`]. Results are independent of `--threads`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::fmt::Write as _;

/// Common command-line options of the regeneration binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Base Monte-Carlo shots per sweep point.
    pub shots: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Decode-engine worker threads (0 = all cores).
    pub threads: usize,
    /// Optional CSV output path.
    pub out: Option<String>,
    /// Optional machine-readable perf-record output path (`--json`),
    /// consumed by the `perf_gate` regression comparator.
    pub json: Option<String>,
    /// Noise-family override (`--noise family[:k=v,…]`); `None` means
    /// the binary's own default family.
    pub noise: Option<qecool_surface_code::NoiseSpec>,
}

impl Options {
    /// Parses `std::env::args`, with `default_shots` as the baseline.
    ///
    /// Exits the process (status 2) with a clear message on malformed
    /// arguments — notably `--threads 0`, which is rejected rather than
    /// silently handed to the engine.
    pub fn parse(default_shots: usize) -> Self {
        Self::parse_internal(default_shots, None)
    }

    /// Like [`Self::parse`], but additionally accepts the campaign flag
    /// set (`--checkpoint`, `--resume`, `--target-ci`, …) used by the
    /// checkpoint/restart-capable bins (`sweep`, `table4`).
    pub fn parse_campaign(default_shots: usize) -> (Self, CampaignOpts) {
        let mut campaign = CampaignOpts::default();
        let opts = Self::parse_internal(default_shots, Some(&mut campaign));
        campaign.validate();
        (opts, campaign)
    }

    fn parse_internal(default_shots: usize, mut campaign: Option<&mut CampaignOpts>) -> Self {
        let mut opts = Self {
            shots: default_shots,
            seed: 2021,
            threads: 0,
            out: None,
            json: None,
            noise: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--shots" => {
                    let v = require_value(&mut args, "--shots");
                    opts.shots = parse_or_die(&v, "--shots", "a non-negative integer");
                }
                "--seed" => {
                    let v = require_value(&mut args, "--seed");
                    opts.seed = parse_or_die(&v, "--seed", "a non-negative integer");
                }
                "--fast" => opts.shots = (opts.shots / 10).max(20),
                "--smoke" => opts.shots = (default_shots / 50).max(10),
                "--threads" => {
                    let v = require_value(&mut args, "--threads");
                    opts.threads = parse_threads(&v);
                }
                "--out" => opts.out = Some(require_value(&mut args, "--out")),
                "--json" => opts.json = Some(require_value(&mut args, "--json")),
                "--noise" => {
                    let v = require_value(&mut args, "--noise");
                    opts.noise = Some(parse_noise(&v));
                }
                "--help" | "-h" => {
                    let campaign_usage = if campaign.is_some() {
                        " [--checkpoint FILE] [--resume] [--target-ci W] [--budget N] \
                         [--chunk-shots N] [--round-chunks N] [--kill-after-chunks K] \
                         [--results FILE]"
                    } else {
                        ""
                    };
                    eprintln!(
                        "usage: [--shots N] [--seed S] [--fast] [--smoke] [--threads N] \
                         [--out FILE] [--json FILE] [--noise SPEC]{campaign_usage}"
                    );
                    std::process::exit(0);
                }
                other => {
                    if let Some(c) = campaign.as_deref_mut() {
                        if c.try_flag(other, &mut args) {
                            continue;
                        }
                    }
                    usage_error(&format!("unknown argument: {other}"));
                }
            }
        }
        opts
    }

    /// Builds the decode engine every campaign of this binary runs on.
    pub fn engine(&self) -> qecool_sim::DecodeEngine {
        qecool_sim::DecodeEngine::with_threads(self.threads)
    }

    /// Writes CSV content to `--out` if given; reports the path on stderr.
    pub fn write_csv(&self, csv: &str) {
        if let Some(path) = &self.out {
            if let Err(e) = std::fs::write(path, csv) {
                usage_error(&format!("cannot write {path}: {e}"));
            }
            eprintln!("wrote {path}");
        }
    }

    /// Writes a perf record to `--json` if given; reports the path on
    /// stderr.
    pub fn write_bench_json(&self, record: &perf::BenchRecord) {
        if let Some(path) = &self.json {
            perf::write_records(path, std::slice::from_ref(record));
            eprintln!("wrote {path}");
        }
    }

    /// The effective noise spec: the `--noise` override, or `default`
    /// (each binary's own family, usually phenomenological with a
    /// placeholder rate the sweep replaces per point).
    pub fn noise_or(
        &self,
        default: qecool_surface_code::NoiseSpec,
    ) -> qecool_surface_code::NoiseSpec {
        self.noise.unwrap_or(default)
    }
}

/// Parses a `--noise family[:k=v,…]` spec, exiting 2 through the
/// [`qecool::FatalError`] path on malformed input — the error names the
/// offending family/key/value, and a validated spec can never reach
/// [`NoiseSpec::build`](qecool_surface_code::NoiseSpec::build)'s panic.
pub fn parse_noise(value: &str) -> qecool_surface_code::NoiseSpec {
    match qecool_surface_code::NoiseSpec::parse(value) {
        Ok(spec) => spec,
        Err(e) => qecool::exit_with(&e),
    }
}

/// Parses a bare physical-error-rate flag (`--p`), exiting 2 through
/// the [`qecool::FatalError`] path when the rate is outside `[0, 1)`, so
/// an unvalidated value never reaches
/// [`NoiseSpec::build`](qecool_surface_code::NoiseSpec::build)'s panic.
pub fn parse_rate(value: &str, flag: &str) -> f64 {
    let p: f64 = parse_or_die(value, flag, "a physical error rate in [0, 1)");
    if let Err(e) = (qecool_surface_code::NoiseSpec::Phenomenological { p }).validate() {
        qecool::exit_with(&e);
    }
    p
}

/// The campaign flag set of the checkpoint/restart-capable bins
/// (parsed by [`Options::parse_campaign`]):
///
/// * `--checkpoint FILE` — write atomic checkpoints to `FILE` after
///   every round (and read them back under `--resume`);
/// * `--resume` — restore from the `--checkpoint` file instead of
///   starting fresh; a missing, corrupt or mismatched checkpoint is a
///   named exit-2 error, never a silent fresh start;
/// * `--target-ci W` — adaptive stop rule: keep spending `--budget`
///   extra shots until every point's 95% Clopper–Pearson interval is
///   narrower than `W`;
/// * `--budget N` — extra shots available to the stop rule (default 0);
/// * `--chunk-shots N` / `--round-chunks N` — scheduling granularity
///   (results never depend on either);
/// * `--kill-after-chunks K` — crash simulation for the kill/resume CI
///   leg: abort the process (after the round checkpoint at or after
///   chunk `K`) the way SIGKILL would;
/// * `--results FILE` — write the final per-point results as
///   deterministic JSON (the byte-compare artifact of the CI leg).
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Checkpoint file path (`--checkpoint`).
    pub checkpoint: Option<String>,
    /// Resume from the checkpoint file (`--resume`).
    pub resume: bool,
    /// Target Clopper–Pearson CI width (`--target-ci`).
    pub target_ci: Option<f64>,
    /// Extra adaptive shot budget (`--budget`).
    pub budget: u64,
    /// Trials per chunk (`--chunk-shots`).
    pub chunk_shots: usize,
    /// Chunks per round / checkpoint interval (`--round-chunks`).
    pub round_chunks: usize,
    /// Abort the process after this many chunks (`--kill-after-chunks`).
    pub kill_after_chunks: Option<u64>,
    /// Deterministic results JSON path (`--results`).
    pub results: Option<String>,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        Self {
            checkpoint: None,
            resume: false,
            target_ci: None,
            budget: 0,
            chunk_shots: 64,
            round_chunks: 8,
            kill_after_chunks: None,
            results: None,
        }
    }
}

impl CampaignOpts {
    /// Consumes one campaign flag; `false` means the flag is not ours.
    fn try_flag(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) -> bool {
        match flag {
            "--checkpoint" => self.checkpoint = Some(require_value(args, "--checkpoint")),
            "--resume" => self.resume = true,
            "--target-ci" => {
                let v = require_value(args, "--target-ci");
                self.target_ci = Some(parse_or_die(&v, "--target-ci", "a CI width in (0, 1)"));
            }
            "--budget" => {
                let v = require_value(args, "--budget");
                self.budget = parse_or_die(&v, "--budget", "a non-negative shot count");
            }
            "--chunk-shots" => {
                let v = require_value(args, "--chunk-shots");
                self.chunk_shots = parse_or_die(&v, "--chunk-shots", "a positive integer");
            }
            "--round-chunks" => {
                let v = require_value(args, "--round-chunks");
                self.round_chunks = parse_or_die(&v, "--round-chunks", "a positive integer");
            }
            "--kill-after-chunks" => {
                let v = require_value(args, "--kill-after-chunks");
                self.kill_after_chunks =
                    Some(parse_or_die(&v, "--kill-after-chunks", "a chunk count"));
            }
            "--results" => self.results = Some(require_value(args, "--results")),
            _ => return false,
        }
        true
    }

    /// Validates flag combinations, exiting 2 with a clear message on
    /// nonsense (resume without a checkpoint path, out-of-range CI
    /// targets, zero-sized chunks/rounds).
    fn validate(&self) {
        if self.resume && self.checkpoint.is_none() {
            usage_error("--resume needs --checkpoint FILE to resume from");
        }
        if let Some(w) = self.target_ci {
            if !(w > 0.0 && w < 1.0 && w.is_finite()) {
                usage_error(&format!("--target-ci must be in (0, 1), got {w}"));
            }
        }
        if self.chunk_shots == 0 {
            usage_error("--chunk-shots must be >= 1");
        }
        if self.round_chunks == 0 {
            usage_error("--round-chunks must be >= 1");
        }
    }

    /// The stop rule these flags describe, if `--target-ci` was given.
    pub fn stop_rule(&self) -> Option<qecool_sim::StopRule> {
        self.target_ci.map(|target_ci_width| qecool_sim::StopRule {
            target_ci_width,
            extra_shot_budget: self.budget,
        })
    }

    /// The campaign configuration these flags describe.
    pub fn config(&self, base_seed: u64) -> qecool_sim::CampaignConfig {
        qecool_sim::CampaignConfig {
            base_seed,
            chunk_shots: self.chunk_shots,
            round_chunks: self.round_chunks,
            stop: self.stop_rule(),
        }
    }

    /// Builds (or, under `--resume`, restores) the campaign runner,
    /// wiring in the checkpoint path and the `--kill-after-chunks`
    /// crash hook. Exits 2 with the named [`CampaignError`] message on
    /// any checkpoint problem.
    ///
    /// [`CampaignError`]: qecool_sim::CampaignError
    pub fn runner<'a>(
        &self,
        engine: &'a qecool_sim::DecodeEngine,
        jobs: Vec<qecool_sim::CampaignJob>,
        base_seed: u64,
    ) -> qecool_sim::CampaignRunner<'a> {
        let config = self.config(base_seed);
        let mut runner = if self.resume {
            let path = self
                .checkpoint
                .as_deref()
                .expect("validated: resume needs --checkpoint");
            match qecool_sim::CampaignRunner::resume(engine, jobs, config, path.as_ref()) {
                Ok(runner) => runner,
                Err(e) => qecool::exit_with(&e),
            }
        } else {
            let mut runner = qecool_sim::CampaignRunner::new(engine, jobs, config);
            if let Some(path) = &self.checkpoint {
                runner = runner.checkpoint_to(path);
                // Seed the file right away so even a SIGKILL landing
                // before the first round checkpoint leaves something a
                // `--resume` run can restore (a zero-progress checkpoint
                // resumes into exactly the fresh campaign).
                if let Err(e) = runner.write_checkpoint(path.as_ref()) {
                    qecool::exit_with(&e);
                }
            }
            runner
        };
        if let Some(k) = self.kill_after_chunks {
            runner = runner.interrupt_after_chunks(k);
        }
        runner
    }

    /// Drives `runner` to completion. When `--kill-after-chunks` fires
    /// the process **aborts** — the deterministic stand-in for SIGKILL
    /// the CI crash leg uses (state is on disk; the next `--resume` run
    /// must reproduce the uninterrupted result byte-identically). Exits
    /// 2 with the named error message on checkpoint failures.
    pub fn drive(&self, runner: &mut qecool_sim::CampaignRunner<'_>) -> qecool_sim::CampaignReport {
        match runner.run() {
            Ok(qecool_sim::RunOutcome::Complete(report)) => report,
            Ok(qecool_sim::RunOutcome::Interrupted { chunks_run }) => {
                eprintln!("killed by --kill-after-chunks after {chunks_run} chunks; aborting");
                std::process::abort();
            }
            Err(e) => qecool::exit_with(&e),
        }
    }

    /// Writes the deterministic results JSON to `--results` if given;
    /// reports the path on stderr.
    pub fn write_results(&self, json: &str) {
        if let Some(path) = &self.results {
            if let Err(e) = std::fs::write(path, json) {
                usage_error(&format!("cannot write {path}: {e}"));
            }
            eprintln!("wrote {path}");
        }
    }
}

/// Prints a usage error and exits with status 2 (never returns).
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2);
}

/// Pulls the value following a flag, or exits with a clear message.
pub fn require_value<I: Iterator<Item = String>>(args: &mut I, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// Parses a flag value, or exits explaining what was expected.
pub fn parse_or_die<T: std::str::FromStr>(value: &str, flag: &str, expected: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} expects {expected}, got '{value}'")))
}

/// Parses and validates a `--threads` value: must be a positive
/// integer. `0` is rejected explicitly — omit the flag to use all
/// cores — instead of being passed through to whatever the engine
/// would make of it.
pub fn parse_threads(value: &str) -> usize {
    let threads: usize = parse_or_die(value, "--threads", "a positive integer");
    if threads == 0 {
        usage_error("--threads must be >= 1 (omit the flag to use all cores)");
    }
    threads
}

/// Parses and validates a `--ghz` clock value: must be a **finite,
/// strictly positive** number. Zero, negatives, `nan` and `inf` all
/// exit 2 with a clear message (like the `--threads 0` handling)
/// instead of reaching [`CycleBudget::new`](qecool_sfq::budget::CycleBudget)'s
/// panic (`nan` previously slipped through a plain `<= 0.0` check).
pub fn parse_ghz(value: &str) -> f64 {
    let ghz: f64 = parse_or_die(value, "--ghz", "a clock frequency in GHz");
    if !ghz.is_finite() || ghz <= 0.0 {
        usage_error(&format!(
            "--ghz must be a finite positive clock frequency in GHz, got '{value}'"
        ));
    }
    ghz
}

/// A fixed-width text table mirroring the paper's table layout.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders the table as CSV (no alignment padding).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.clone()
            }
        };
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// The code distances evaluated throughout the paper's figures.
pub const PAPER_DISTANCES: [usize; 5] = [5, 7, 9, 11, 13];

/// Machine-readable perf records for the CI regression gate.
///
/// The vendored `serde` is a no-op stub (no registry access), so the
/// workspace hand-rolls its JSON: records here render through a small
/// writer and parse through the shared [`qecool::json`] tree (which the
/// campaign checkpoints also use). The shape is an array of flat
/// objects with a string `"name"`, numeric metrics, and optional
/// string tags (provenance such as `noise_family`, ignored by the
/// gate). `service_bench`
/// and `table4` emit records via `--json`; the `perf_gate` binary merges
/// them into `BENCH_pr.json` and compares throughput against the
/// checked-in `BENCH_baseline.json`.
pub mod perf {
    use super::usage_error;

    /// One benchmark's perf record: a name, the headline throughput
    /// (whatever unit the bench serves — rounds/s, shots/s), and any
    /// extra numeric metrics worth archiving in the artifact.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchRecord {
        /// Benchmark name, the join key against the baseline.
        pub name: String,
        /// Headline throughput (higher is better); what the gate
        /// compares.
        pub throughput: f64,
        /// Extra `(key, value)` metrics, emitted verbatim.
        pub extras: Vec<(String, f64)>,
        /// Extra `(key, value)` **string** annotations — provenance like
        /// `noise_family`/`noise_params`, never compared by the gate.
        pub tags: Vec<(String, String)>,
    }

    impl BenchRecord {
        /// A record with no extra metrics.
        pub fn new(name: impl Into<String>, throughput: f64) -> Self {
            Self {
                name: name.into(),
                throughput,
                extras: Vec::new(),
                tags: Vec::new(),
            }
        }

        /// Adds one extra metric (builder-style).
        #[must_use]
        pub fn with(mut self, key: impl Into<String>, value: f64) -> Self {
            self.extras.push((key.into(), value));
            self
        }

        /// Adds one string tag (builder-style). Tags ride along in the
        /// JSON so artifacts name e.g. the noise family they ran under;
        /// the regression gate ignores them.
        #[must_use]
        pub fn with_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
            self.tags.push((key.into(), value.into()));
            self
        }

        fn to_json(&self) -> String {
            use std::fmt::Write as _;
            let mut out = String::new();
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"throughput\": {}",
                self.name, self.throughput
            );
            for (key, value) in &self.extras {
                let _ = write!(out, ", \"{key}\": {value}");
            }
            for (key, value) in &self.tags {
                let _ = write!(out, ", \"{key}\": \"{value}\"");
            }
            out.push('}');
            out
        }
    }

    /// Renders records as a JSON array (the `BENCH_*.json` format).
    pub fn render_records(records: &[BenchRecord]) -> String {
        let mut out = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&r.to_json());
            if i + 1 < records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Writes records to `path`, exiting with a usage error on I/O
    /// failure.
    pub fn write_records(path: &str, records: &[BenchRecord]) {
        if let Err(e) = std::fs::write(path, render_records(records)) {
            usage_error(&format!("cannot write {path}: {e}"));
        }
    }

    /// Parses a `BENCH_*.json` file body: a single record object or an
    /// array of them, via the workspace's shared [`qecool::json`] tree
    /// (the same parser the campaign checkpoints use). Flat objects
    /// with a string `"name"` and numeric metrics — exactly what
    /// [`render_records`] produces.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse_records(text: &str) -> Result<Vec<BenchRecord>, String> {
        use qecool::json::Json;
        let root = Json::parse(text)?;
        let objects: Vec<&Json> = match &root {
            Json::Arr(items) => items.iter().collect(),
            Json::Obj(_) => vec![&root],
            _ => return Err("expected '[' or '{' at top level".into()),
        };
        let mut records = Vec::with_capacity(objects.len());
        for object in objects {
            let Some(fields) = object.as_obj() else {
                return Err("expected a record object".into());
            };
            let mut record = BenchRecord::new("", f64::NAN);
            for (key, value) in fields {
                if key == "name" {
                    record.name = value
                        .as_str()
                        .ok_or_else(|| "record \"name\" must be a string".to_owned())?
                        .to_owned();
                } else if let Some(text) = value.as_str() {
                    // String-valued fields are tags (provenance
                    // annotations like `noise_family`); everything the
                    // gate might compare stays numeric.
                    if key == "throughput" {
                        return Err("record \"throughput\" must be a number".into());
                    }
                    record.tags.push((key.clone(), text.to_owned()));
                } else {
                    let value = value
                        .as_f64()
                        .ok_or_else(|| format!("record field '{key}' must be a number"))?;
                    if key == "throughput" {
                        record.throughput = value;
                    } else {
                        record.extras.push((key.clone(), value));
                    }
                }
            }
            if record.name.is_empty() {
                return Err("record missing \"name\"".into());
            }
            if record.throughput.is_nan() {
                return Err(format!("record '{}' missing \"throughput\"", record.name));
            }
            records.push(record);
        }
        Ok(records)
    }

    /// The perf-regression comparison the `perf_gate` binary runs,
    /// factored out of the binary so its failure modes are unit-testable.
    ///
    /// Two kinds of failure are kept distinct on purpose:
    ///
    /// * a **regression** (candidate below the floor, or a baseline
    ///   benchmark with no candidate record) is a gate *verdict* —
    ///   counted in [`gate::GateReport::failures`], exit 1 in the binary;
    /// * a **broken comparison** (baseline metric that is zero, negative
    ///   or non-finite; candidate missing a gated metric key) means the
    ///   inputs cannot be gated at all — returned as `Err` with a
    ///   message naming the record and metric, exit 2 in the binary,
    ///   never a silently-computed `inf` ratio that would wave a dead
    ///   baseline through.
    pub mod gate {
        use super::BenchRecord;

        /// Extra metrics gated against an **absolute** floor instead of
        /// a baseline's measured value. For ratio-shaped metrics the
        /// meaningful bound is a constant, not a previous run:
        /// `telemetry_throughput_ratio` (enabled-telemetry throughput ÷
        /// disabled-telemetry throughput, measured by `service_bench`
        /// under `--json`) must stay ≥ 0.90 regardless of what the
        /// baseline runner measured. Typical measured overhead is 3–8%;
        /// the floor leaves headroom for shared-runner scheduling noise,
        /// which the paired best-of measurement cannot fully cancel.
        ///
        /// A key is armed per benchmark by the baseline record carrying
        /// it; candidates must then keep emitting it. The baseline's
        /// *value* is only checked for sanity — the floor compared
        /// against is the constant here. Every other extra (measured
        /// or a configuration echo like `sessions_per_core`) is
        /// informational.
        pub const ABS_FLOOR_EXTRAS: &[(&str, f64)] = &[("telemetry_throughput_ratio", 0.90)];

        /// One compared metric, ready for table rendering.
        #[derive(Debug, Clone, PartialEq)]
        pub struct GateRow {
            /// Benchmark name.
            pub name: String,
            /// Metric compared (`"throughput"` or a gated extra key).
            pub metric: String,
            /// Baseline value, if the baseline has this benchmark.
            pub baseline: Option<f64>,
            /// Candidate value, if the candidate run produced it.
            pub candidate: Option<f64>,
            /// `candidate / baseline` when both sides exist.
            pub ratio: Option<f64>,
            /// Human-readable verdict for the table.
            pub verdict: String,
            /// Whether this row counts against the gate.
            pub failed: bool,
        }

        /// Outcome of a gate comparison that was at least well-formed.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct GateReport {
            /// Every compared metric, in evaluation order.
            pub rows: Vec<GateRow>,
            /// Rows that tripped the gate.
            pub failures: usize,
        }

        fn extra(record: &BenchRecord, key: &str) -> Option<f64> {
            record
                .extras
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
        }

        /// Checks a baseline value is usable as a comparison floor.
        fn check_floor(name: &str, metric: &str, value: f64) -> Result<(), String> {
            if !value.is_finite() || value <= 0.0 {
                return Err(format!(
                    "baseline record '{name}' has unusable {metric} {value}: a floor must be \
                     finite and positive (refresh BENCH_baseline.json from a green run)"
                ));
            }
            Ok(())
        }

        fn compare_metric(
            report: &mut GateReport,
            name: &str,
            metric: &str,
            base: f64,
            cand: f64,
            floor: f64,
        ) -> Result<(), String> {
            check_floor(name, metric, base)?;
            if !cand.is_finite() {
                return Err(format!(
                    "candidate record '{name}' has non-finite {metric} {cand}"
                ));
            }
            let ratio = cand / base;
            let failed = ratio < floor;
            report.failures += usize::from(failed);
            report.rows.push(GateRow {
                name: name.to_owned(),
                metric: metric.to_owned(),
                baseline: Some(base),
                candidate: Some(cand),
                ratio: Some(ratio),
                verdict: if failed { "REGRESSION" } else { "ok" }.to_owned(),
                failed,
            });
            Ok(())
        }

        /// Compares candidate records against the baseline.
        ///
        /// For every candidate with a baseline entry, throughput is
        /// gated at `1 - max_drop_pct / 100`, and each
        /// [`ABS_FLOOR_EXTRAS`] key the baseline record carries is
        /// gated at its constant floor. A candidate
        /// with no baseline entry passes (new benchmarks need no
        /// lockstep baseline update); a baseline entry with no candidate
        /// record fails — a benchmark vanishing from the run is itself a
        /// regression.
        ///
        /// # Errors
        ///
        /// A message naming the offending record and metric when the
        /// comparison itself is invalid: a baseline floor that is zero,
        /// negative or non-finite, a non-finite candidate value, or a
        /// candidate missing a metric key the baseline gates.
        pub fn compare(
            baseline: &[BenchRecord],
            candidates: &[BenchRecord],
            max_drop_pct: f64,
        ) -> Result<GateReport, String> {
            let floor = 1.0 - max_drop_pct / 100.0;
            let mut report = GateReport::default();
            for record in candidates {
                let Some(base) = baseline.iter().find(|b| b.name == record.name) else {
                    report.rows.push(GateRow {
                        name: record.name.clone(),
                        metric: "throughput".to_owned(),
                        baseline: None,
                        candidate: Some(record.throughput),
                        ratio: None,
                        verdict: "no baseline (pass)".to_owned(),
                        failed: false,
                    });
                    continue;
                };
                compare_metric(
                    &mut report,
                    &record.name,
                    "throughput",
                    base.throughput,
                    record.throughput,
                    floor,
                )?;
                for &(key, abs_floor) in ABS_FLOOR_EXTRAS {
                    let Some(base_value) = extra(base, key) else {
                        continue;
                    };
                    // The baseline value only arms the gate; sanity-check
                    // it so a dead baseline is flagged, then compare the
                    // candidate against the constant floor (base =
                    // abs_floor, relative floor = 1.0 ⇒ cand ≥ abs_floor).
                    check_floor(&record.name, key, base_value)?;
                    let Some(cand_value) = extra(record, key) else {
                        return Err(format!(
                            "candidate record '{}' is missing gated metric '{key}' \
                             (present in the baseline; the bench stopped emitting it?)",
                            record.name
                        ));
                    };
                    compare_metric(&mut report, &record.name, key, abs_floor, cand_value, 1.0)?;
                }
            }
            // Coverage: a baseline benchmark with no candidate record
            // means the bench silently vanished (renamed record, dropped
            // --candidate) — that must trip the gate, not slide past it.
            for base in baseline {
                if !candidates.iter().any(|c| c.name == base.name) {
                    report.failures += 1;
                    report.rows.push(GateRow {
                        name: base.name.clone(),
                        metric: "throughput".to_owned(),
                        baseline: Some(base.throughput),
                        candidate: None,
                        ratio: None,
                        verdict: "MISSING CANDIDATE".to_owned(),
                        failed: true,
                    });
                }
            }
            Ok(report)
        }
    }
}

/// Formats a rate with its Wilson 95% interval.
pub fn fmt_rate(est: qecool_sim::RateEstimate) -> String {
    let (lo, hi) = est.wilson_interval();
    format!("{:.4} [{:.4},{:.4}]", est.rate(), lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_counts() {
        assert_eq!(parse_threads("1"), 1);
        assert_eq!(parse_threads("32"), 32);
    }

    #[test]
    fn table_render_aligns_columns() {
        let mut t = TextTable::new(["a", "bbbb"]);
        t.row(["xxxxx", "1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a    "));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(["name", "v"]);
        t.row(["a,b", "1"]);
        assert!(t.to_csv().contains("\"a,b\""));
    }

    #[test]
    fn fmt_rate_includes_interval() {
        let s = fmt_rate(qecool_sim::RateEstimate::new(1, 100));
        assert!(s.starts_with("0.0100 ["));
    }

    #[test]
    fn parse_ghz_accepts_positive_finite() {
        assert_eq!(parse_ghz("2"), 2.0);
        assert_eq!(parse_ghz("0.5"), 0.5);
    }

    #[test]
    fn perf_records_roundtrip_through_json() {
        let records = vec![
            perf::BenchRecord::new("service_bench", 175234.5)
                .with("p99_cycles", 15.0)
                .with("budget_cycles", 2000.0)
                .with_tag("noise_family", "burst")
                .with_tag("noise_params", "p=0.005,burst=0.001,mean_len=3"),
            perf::BenchRecord::new("table4", 812.0),
        ];
        let json = perf::render_records(&records);
        let parsed = perf::parse_records(&json).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn perf_parse_rejects_a_string_throughput() {
        let err = perf::parse_records("{\"name\": \"x\", \"throughput\": \"fast\"}").unwrap_err();
        assert!(err.contains("throughput"), "{err}");
    }

    #[test]
    fn gate_ignores_string_tags() {
        // Same numbers, different provenance tags: never a gate row,
        // never a failure.
        let baseline = vec![
            perf::BenchRecord::new("svc", 1000.0).with_tag("noise_family", "phenomenological")
        ];
        let candidate =
            vec![perf::BenchRecord::new("svc", 1000.0).with_tag("noise_family", "burst")];
        let report = perf::gate::compare(&baseline, &candidate, 20.0).unwrap();
        assert_eq!(report.failures, 0);
        assert_eq!(report.rows.len(), 1, "only throughput is compared");
    }

    #[test]
    fn perf_parse_accepts_single_object() {
        let parsed = perf::parse_records("{\"name\": \"x\", \"throughput\": 1e3}").unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "x");
        assert_eq!(parsed[0].throughput, 1000.0);
    }

    #[test]
    fn perf_parse_rejects_malformed_input() {
        assert!(perf::parse_records("").is_err());
        assert!(perf::parse_records("{\"throughput\": 1}").is_err());
        assert!(perf::parse_records("{\"name\": \"x\"}").is_err());
        assert!(perf::parse_records("[{\"name\": \"x\", \"throughput\": oops}]").is_err());
        assert!(perf::parse_records("{\"name\": \"x\", \"throughput\": 1} junk").is_err());
    }

    #[test]
    fn gate_passes_when_candidate_holds_the_floor() {
        let baseline = vec![perf::BenchRecord::new("svc", 1000.0)];
        let candidate = vec![perf::BenchRecord::new("svc", 900.0)];
        let report = perf::gate::compare(&baseline, &candidate, 20.0).unwrap();
        assert_eq!(report.failures, 0);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].metric, "throughput");
        assert!((report.rows[0].ratio.unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gate_flags_a_throughput_regression() {
        let baseline = vec![perf::BenchRecord::new("svc", 1000.0)];
        let candidate = vec![perf::BenchRecord::new("svc", 700.0)];
        let report = perf::gate::compare(&baseline, &candidate, 20.0).unwrap();
        assert_eq!(report.failures, 1);
        assert!(report.rows[0].failed);
        assert_eq!(report.rows[0].verdict, "REGRESSION");
    }

    #[test]
    fn gate_flags_a_missing_candidate_and_passes_a_new_bench() {
        let baseline = vec![perf::BenchRecord::new("old_bench", 1000.0)];
        let candidate = vec![perf::BenchRecord::new("new_bench", 5.0)];
        let report = perf::gate::compare(&baseline, &candidate, 20.0).unwrap();
        assert_eq!(report.failures, 1);
        let missing = report
            .rows
            .iter()
            .find(|r| r.name == "old_bench")
            .expect("missing-candidate row");
        assert!(missing.failed);
        assert_eq!(missing.verdict, "MISSING CANDIDATE");
        assert!(missing.candidate.is_none());
        let fresh = report.rows.iter().find(|r| r.name == "new_bench").unwrap();
        assert!(!fresh.failed);
        assert!(fresh.baseline.is_none());
    }

    #[test]
    fn gate_rejects_a_zero_throughput_baseline() {
        // The historic bug: `cand / base.max(f64::MIN_POSITIVE)` turned a
        // dead baseline into a ~1e300 ratio that passed every floor.
        let baseline = vec![perf::BenchRecord::new("svc", 0.0)];
        let candidate = vec![perf::BenchRecord::new("svc", 900.0)];
        let err = perf::gate::compare(&baseline, &candidate, 20.0).unwrap_err();
        assert!(err.contains("svc"), "error should name the record: {err}");
        assert!(
            err.contains("throughput"),
            "error should name the metric: {err}"
        );
    }

    #[test]
    fn gate_rejects_negative_and_non_finite_baselines() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let baseline = vec![perf::BenchRecord::new("svc", bad)];
            let candidate = vec![perf::BenchRecord::new("svc", 900.0)];
            assert!(
                perf::gate::compare(&baseline, &candidate, 20.0).is_err(),
                "baseline throughput {bad} must not be a usable floor"
            );
        }
    }

    #[test]
    fn gate_rejects_a_zero_baseline_extra() {
        let baseline =
            vec![perf::BenchRecord::new("svc", 1000.0).with("telemetry_throughput_ratio", 0.0)];
        let candidate =
            vec![perf::BenchRecord::new("svc", 1000.0).with("telemetry_throughput_ratio", 0.95)];
        assert!(perf::gate::compare(&baseline, &candidate, 20.0).is_err());
    }

    #[test]
    fn gate_floors_telemetry_ratio_at_the_absolute_constant() {
        // The floor is the ABS_FLOOR_EXTRAS constant (0.90), not the
        // baseline's measured value: a baseline of 1.0 with --max-drop-pct
        // 20 would otherwise let the ratio sink to 0.80.
        let baseline =
            vec![perf::BenchRecord::new("svc", 1000.0).with("telemetry_throughput_ratio", 1.0)];
        let pass =
            vec![perf::BenchRecord::new("svc", 1000.0).with("telemetry_throughput_ratio", 0.93)];
        let report = perf::gate::compare(&baseline, &pass, 20.0).unwrap();
        assert_eq!(report.failures, 0, "0.93 >= 0.90 must pass");
        let fail =
            vec![perf::BenchRecord::new("svc", 1000.0).with("telemetry_throughput_ratio", 0.85)];
        let report = perf::gate::compare(&baseline, &fail, 20.0).unwrap();
        assert_eq!(report.failures, 1, "0.85 < 0.90 must trip the gate");
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "telemetry_throughput_ratio")
            .unwrap();
        assert!(row.failed);
        assert_eq!(row.baseline, Some(0.90), "row shows the absolute floor");
    }

    #[test]
    fn gate_abs_floor_requires_the_candidate_to_emit_the_metric() {
        let baseline =
            vec![perf::BenchRecord::new("svc", 1000.0).with("telemetry_throughput_ratio", 1.0)];
        let candidate = vec![perf::BenchRecord::new("svc", 1000.0)];
        let err = perf::gate::compare(&baseline, &candidate, 20.0).unwrap_err();
        assert!(
            err.contains("telemetry_throughput_ratio"),
            "error should name the missing metric: {err}"
        );
        // And without the baseline carrying the key, the gate stays
        // un-armed: no row, no failure.
        let unarmed = vec![perf::BenchRecord::new("svc", 1000.0)];
        let report = perf::gate::compare(&unarmed, &candidate, 20.0).unwrap();
        assert_eq!(report.failures, 0);
        assert_eq!(report.rows.len(), 1);
    }

    #[test]
    fn gate_ignores_ungated_extras() {
        // Only ABS_FLOOR_EXTRAS keys are floored; informational extras
        // like p99_cycles must not create comparison rows.
        let baseline = vec![perf::BenchRecord::new("svc", 1000.0).with("p99_cycles", 10.0)];
        let candidate = vec![perf::BenchRecord::new("svc", 1000.0).with("p99_cycles", 9999.0)];
        let report = perf::gate::compare(&baseline, &candidate, 20.0).unwrap();
        assert_eq!(report.failures, 0);
        assert_eq!(report.rows.len(), 1);
    }
}
