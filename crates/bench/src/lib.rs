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
        Self::parse_internal(default_shots, None, "")
    }

    /// Like [`Self::parse`], but additionally accepts the campaign flag
    /// set (`--checkpoint`, `--resume`, `--target-ci`, …) used by the
    /// checkpoint/restart-capable bins (`sweep`, `table4`).
    /// `writes_results` says whether the binary writes a `--results`
    /// JSON; if it does not, `--results` is left out of `--help` and
    /// exits 2 instead of being accepted and ignored.
    pub fn parse_campaign(default_shots: usize, writes_results: bool) -> (Self, CampaignOpts) {
        let mut campaign = CampaignOpts::default();
        let results_usage = if writes_results {
            " [--results FILE]"
        } else {
            ""
        };
        let usage = format!(
            " [--checkpoint FILE] [--resume] [--target-ci W] [--budget N] \
             [--chunk-shots N] [--round-chunks N] [--kill-after-chunks K]{results_usage}"
        );
        let opts = Self::parse_internal(default_shots, Some(&mut campaign), &usage);
        if !writes_results && campaign.results.is_some() {
            usage_error(
                "--results is a sweep flag: this binary writes no results JSON (use --out FILE)",
            );
        }
        campaign.validate();
        (opts, campaign)
    }

    fn parse_internal(
        default_shots: usize,
        mut campaign: Option<&mut CampaignOpts>,
        campaign_usage: &str,
    ) -> Self {
        let mut opts = Self {
            shots: default_shots,
            seed: 2021,
            threads: 0,
            out: None,
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
                "--noise" => {
                    let v = require_value(&mut args, "--noise");
                    opts.noise = Some(parse_noise(&v));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--shots N] [--seed S] [--fast] [--smoke] [--threads N] \
                         [--out FILE] [--noise SPEC]{campaign_usage}"
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
///   (results never depend on either; rounds only matter with a
///   checkpoint, a stop rule or a kill);
/// * `--kill-after-chunks K` — crash simulation for the kill/resume
///   tests: abort the process (after the round checkpoint at or after
///   chunk `K`) the way SIGKILL would;
/// * `--results FILE` — `sweep` only: write the final per-point results
///   as deterministic JSON (the byte-compare artifact of the kill/resume
///   tests).
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

    /// Runs `jobs` as one campaign to completion: built fresh or, under
    /// `--resume`, restored from the checkpoint, with the checkpoint
    /// path and the `--kill-after-chunks` crash hook wired in. Without
    /// campaign flags (e.g. `CampaignOpts::default()`) the whole grid
    /// runs as one engine batch.
    ///
    /// Exits 2 with the named [`CampaignError`] message on any
    /// checkpoint problem. When `--kill-after-chunks` fires the process
    /// **aborts** — the deterministic stand-in for SIGKILL (state is on
    /// disk; the next `--resume` run must reproduce the uninterrupted
    /// result byte-identically).
    ///
    /// [`CampaignError`]: qecool_sim::CampaignError
    pub fn run(
        &self,
        engine: &qecool_sim::DecodeEngine,
        jobs: &[qecool_sim::CampaignJob],
        base_seed: u64,
    ) -> qecool_sim::CampaignReport {
        let config = self.config(base_seed);
        let jobs = jobs.to_vec();
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
/// panic (`nan` previously slipped through a plain `<= 0.0` check). So
/// does a clock too slow to give a single decode cycle per measurement
/// round (below 0.0005 GHz at the 1 µs round): every session would
/// overrun a 0-cycle budget.
pub fn parse_ghz(value: &str) -> f64 {
    let ghz: f64 = parse_or_die(value, "--ghz", "a clock frequency in GHz");
    if !ghz.is_finite() || ghz <= 0.0 {
        usage_error(&format!(
            "--ghz must be a finite positive clock frequency in GHz, got '{value}'"
        ));
    }
    if qecool_sfq::budget::CycleBudget::at_clock(ghz * 1e9).cycles_per_round() == 0 {
        usage_error(&format!(
            "--ghz {value} gives a budget of 0 decode cycles per measurement round"
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
}
