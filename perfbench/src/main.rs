//! The repository benchmark: end-to-end and per-layer metrics of the
//! QECOOL reproduction on three fixed workloads, each run in one
//! process on at most two worker threads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_qecool_d5|replay_uf_d9|mc_mixed \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the same workload with spans around every layer call
//! and reports the per-layer ledger. The metric names and units come
//! from `BENCHMARK.json` at the repository root. A readable summary goes
//! to stderr; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed output check makes the
//! process exit 1; a bad argument exits 2. See `perfbench/README.md`.

mod ledger;
mod mc;
mod serve;
mod stats;

use qecool::json::{obj, Json};

use crate::stats::{highest_tail, median, note_range, note_tail, LagCounts, Tail};

/// The seed whose outputs are pinned in `pins.json`.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark definition: metric names and units.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Outputs of the default seed that every run on it must reproduce.
const PINS: &str = include_str!("../pins.json");

/// The worker budget: two threads, never more than the machine has.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    values: Vec<(String, f64)>,
}

impl Report {
    /// Records a metric value by its `BENCHMARK.json` name.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Counts `n` attempted operations (served rounds or shots).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records an output check: when it does not hold, `failed_ops`
    /// operations count as failed and the run is not correct.
    pub fn check(&mut self, ok: bool, failed_ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += failed_ops;
            self.problems.push(what());
        }
    }

    /// Counts operations that failed in the program itself (dropped or
    /// overflowed rounds).
    pub fn fail(&mut self, n: u64, what: &str) {
        self.check(n == 0, n, || format!("{n} {what}"));
    }

    /// Records a tail percentile metric, checking that the sample count
    /// supports one and that it does not exceed the observed `max`.
    pub fn tail(&mut self, name: &str, tail: Option<Tail>, max: f64) {
        note_tail(name, tail);
        self.check(tail.is_some_and(|t| t.value <= max), 0, || {
            format!("{name}: tail {tail:?} missing or above the maximum {max}")
        });
        self.metric(name, tail.map_or(f64::NAN, |t| t.value));
    }

    /// Records the end-to-end metrics every workload shares: medians of
    /// the per-pass figures, the median tick over the ticks of all
    /// passes, and the commit-lag tail.
    pub fn end_to_end(&mut self, passes: &[PassFigures], ticks_us: Vec<f64>, lags: &LagCounts) {
        self.metric("setup_s", median(passes.iter().map(|p| p.setup_s)));
        self.metric(
            "rounds_per_s",
            median(passes.iter().map(|p| p.rounds_per_s)),
        );
        self.metric("shots_per_s", median(passes.iter().map(|p| p.shots_per_s)));
        note_range("rounds/s", passes.iter().map(|p| p.rounds_per_s));
        self.metric("tick_p50_us", median(ticks_us));
        let lag_max = lags.max().map_or(f64::NAN, |m| m as f64);
        self.tail("commit_lag_p99_rounds", lags.highest_tail(0.99), lag_max);
    }

    /// Records `tick_p99_us` over the ticks of untraced passes. It is a
    /// per-layer metric: a tick's tail is set by the host's scheduler as
    /// much as by the program, too unsteady to bound.
    pub fn tick_tail(&mut self, ticks_us: impl IntoIterator<Item = f64>) {
        let mut ticks_us: Vec<f64> = ticks_us.into_iter().collect();
        ticks_us.sort_by(f64::total_cmp);
        let tick_max = ticks_us.last().copied().unwrap_or(f64::NAN);
        self.tail("tick_p99_us", highest_tail(&ticks_us, 0.99), tick_max);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One pass's end-to-end figures.
pub struct PassFigures {
    /// Set-up time, in seconds.
    pub setup_s: f64,
    /// Detection rounds decoded per second of the measured loop.
    pub rounds_per_s: f64,
    /// Shots (served sessions, or Monte-Carlo shots) per second of the
    /// whole pass.
    pub shots_per_s: f64,
}

/// The pinned outputs of `workload`, when the run uses the default seed.
pub fn pins(workload: &str, seed: u64) -> Option<Json> {
    if seed != DEFAULT_SEED {
        return None;
    }
    let pins = Json::parse(PINS).expect("pins.json is valid JSON");
    Some(
        pins.get(workload)
            .expect("pins.json covers every workload")
            .clone(),
    )
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeQecoolD5,
    ReplayUfD9,
    McMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_qecool_d5" => Some(Self::ServeQecoolD5),
            "replay_uf_d9" => Some(Self::ReplayUfD9),
            "mc_mixed" => Some(Self::McMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeQecoolD5 => "serve_qecool_d5",
            Self::ReplayUfD9 => "replay_uf_d9",
            Self::McMixed => "mc_mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload serve_qecool_d5|replay_uf_d9|mc_mixed \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{v}'"))),
                );
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed expects a non-negative integer"));
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .unwrap_or_else(|| usage("--seconds expects an integer from 1 to 600"));
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace expects 0 or 1"),
                };
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds: seconds as f64,
        trace,
    }
}

/// `(name, unit)` of every metric in the `key` list of `BENCHMARK.json`.
fn catalog(key: &str) -> Vec<(String, String)> {
    let spec = Json::parse(SPEC).expect("BENCHMARK.json is valid JSON");
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .expect("every BENCHMARK.json metric has a name and a unit")
            .to_owned()
    };
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Renders the run's result line. End-to-end metrics must all have been
/// measured; a per-layer metric of a layer the workload never calls
/// reads 0.
fn result_line(report: &Report, trace: bool) -> Json {
    let list = catalog(if trace { "per_layer" } else { "end_to_end" });
    for (name, _) in &report.values {
        assert!(
            list.iter().any(|(n, _)| n == name),
            "metric {name} is not listed in BENCHMARK.json"
        );
    }
    let metrics = list
        .into_iter()
        .map(|(name, unit)| {
            let value = match report.value(&name) {
                Some(v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            eprintln!("  {name:<40} {value:>16.6} {unit}");
            let entry = obj([("value", Json::Num(value)), ("unit", Json::Str(unit))]);
            (name, entry)
        })
        .collect::<Vec<_>>();
    obj([
        ("correct", Json::Bool(report.problems.is_empty())),
        ("attempted", Json::UInt(u128::from(report.attempted))),
        ("failed", Json::UInt(u128::from(report.failed))),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn main() {
    let args = parse_args();
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} worker(s)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers()
    );
    let mut report = Report::default();
    let name = args.workload.name();
    match args.workload {
        Workload::ServeQecoolD5 => serve::run(&serve::SERVE_QECOOL_D5, name, &args, &mut report),
        Workload::ReplayUfD9 => serve::run(&serve::REPLAY_UF_D9, name, &args, &mut report),
        Workload::McMixed => mc::run(name, &args, &mut report),
    }
    if !args.trace {
        match peak_rss_mib() {
            Some(mib) => report.metric("peak_rss_mib", mib),
            None => report.check(false, 0, || {
                "peak RSS unavailable (no /proc/self/status)".into()
            }),
        }
    }
    let line = result_line(&report, args.trace);
    eprintln!("  attempted {} failed {}", report.attempted, report.failed);
    for problem in &report.problems {
        eprintln!("  FAILED CHECK: {problem}");
    }
    println!("{}", line.render());
    if !report.problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalog_lists_setup_time_and_every_layer() {
        let e2e = catalog("end_to_end");
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        let layers = catalog("per_layer");
        for prefix in [
            "source.", "shard.", "service.", "decode.", "engine.", "obs.", "trace.",
        ] {
            assert!(
                layers.iter().any(|(n, _)| n.starts_with(prefix)),
                "no {prefix} metric"
            );
        }
    }

    #[test]
    fn pins_cover_every_workload() {
        for w in ["serve_qecool_d5", "replay_uf_d9", "mc_mixed"] {
            assert!(pins(w, DEFAULT_SEED).is_some());
            assert!(pins(w, DEFAULT_SEED + 1).is_none());
        }
    }

    #[test]
    fn a_failed_check_counts_its_operations() {
        let mut r = Report::default();
        r.attempt(10);
        r.check(true, 5, || unreachable!());
        r.check(false, 3, || "mismatch".into());
        r.fail(0, "dropped rounds");
        assert_eq!((r.attempted, r.failed, r.problems.len()), (10, 3, 1));
    }
}
