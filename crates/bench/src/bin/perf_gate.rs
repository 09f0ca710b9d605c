//! CI perf-regression gate: merges per-bench perf records into one
//! `BENCH_pr.json` artifact and fails when any gated metric dropped more
//! than the allowed fraction below the checked-in `BENCH_baseline.json`.
//!
//! ```text
//! cargo run --release -p qecool-bench --bin perf_gate -- \
//!     --baseline BENCH_baseline.json \
//!     --candidate BENCH_service.json [--candidate BENCH_table4.json ...] \
//!     [--out BENCH_pr.json] [--max-drop-pct 20]
//! ```
//!
//! Records are joined by `name`. Throughput is floored relative to the
//! baseline; metrics in [`qecool_bench::perf::gate::ABS_FLOOR_EXTRAS`]
//! that the baseline record carries are floored at a fixed constant —
//! that is how the telemetry-overhead criterion
//! (`telemetry_throughput_ratio` ≥ 0.90) is enforced. Every other extra
//! rides along uncompared.
//! A candidate with no baseline entry is reported and passes (new
//! benchmarks should not need a lockstep baseline update); a **baseline
//! entry with no candidate fails** — a benchmark vanishing from the run
//! is itself a regression. A candidate above baseline is fine — the
//! baseline is a floor, not a target.
//!
//! Exit status: 0 when every gated metric holds, 1 on any regression
//! beyond the threshold, 2 when the comparison itself is invalid (a
//! baseline floor that is zero/negative/non-finite, or a candidate
//! missing a gated metric key) — the comparison logic lives in
//! [`qecool_bench::perf::gate`] where those cases are unit-tested.

use qecool_bench::{
    parse_or_die,
    perf::{gate, parse_records, write_records, BenchRecord},
    require_value, usage_error, TextTable,
};

struct GateOptions {
    baseline: String,
    candidates: Vec<String>,
    out: Option<String>,
    max_drop_pct: f64,
}

impl GateOptions {
    fn parse() -> Self {
        let mut opts = Self {
            baseline: String::new(),
            candidates: Vec::new(),
            out: None,
            max_drop_pct: 20.0,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--baseline" => opts.baseline = require_value(&mut args, "--baseline"),
                "--candidate" => opts
                    .candidates
                    .push(require_value(&mut args, "--candidate")),
                "--out" => opts.out = Some(require_value(&mut args, "--out")),
                "--max-drop-pct" => {
                    let v = require_value(&mut args, "--max-drop-pct");
                    opts.max_drop_pct = parse_or_die(&v, "--max-drop-pct", "a percentage");
                    if !(0.0..100.0).contains(&opts.max_drop_pct) {
                        usage_error("--max-drop-pct must be in [0, 100)");
                    }
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: --baseline FILE --candidate FILE [--candidate FILE ...] \
                         [--out FILE] [--max-drop-pct P]"
                    );
                    std::process::exit(0);
                }
                other => usage_error(&format!("unknown argument: {other}")),
            }
        }
        if opts.baseline.is_empty() {
            usage_error("--baseline is required");
        }
        if opts.candidates.is_empty() {
            usage_error("at least one --candidate is required");
        }
        opts
    }
}

fn load(path: &str) -> Vec<BenchRecord> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {path}: {e}")));
    parse_records(&text).unwrap_or_else(|e| usage_error(&format!("{path}: {e}")))
}

fn render_cell(value: Option<f64>) -> String {
    match value {
        // Ratio-scale metrics (telemetry_throughput_ratio's 0.90 floor)
        // would all render as "1" at integer precision.
        Some(v) if v.abs() < 10.0 => format!("{v:.3}"),
        Some(v) => format!("{v:.0}"),
        None => "-".to_owned(),
    }
}

fn main() {
    let opts = GateOptions::parse();
    let baseline = load(&opts.baseline);
    let mut candidates: Vec<BenchRecord> = Vec::new();
    for path in &opts.candidates {
        candidates.extend(load(path));
    }
    if let Some(out) = &opts.out {
        write_records(out, &candidates);
        eprintln!("wrote {out}");
    }

    let report = gate::compare(&baseline, &candidates, opts.max_drop_pct)
        .unwrap_or_else(|e| usage_error(&e));

    let mut table = TextTable::new([
        "benchmark",
        "metric",
        "baseline",
        "candidate",
        "ratio",
        "verdict",
    ]);
    for row in &report.rows {
        table.row([
            row.name.as_str(),
            row.metric.as_str(),
            &render_cell(row.baseline),
            &render_cell(row.candidate),
            &match row.ratio {
                Some(r) => format!("{r:.3}"),
                None => "-".to_owned(),
            },
            &row.verdict,
        ]);
    }
    println!("{}", table.render());
    if report.failures > 0 {
        eprintln!(
            "perf gate FAILED: {} metric(s) dropped more than {:.0}% below \
             baseline or went missing",
            report.failures, opts.max_drop_pct
        );
        std::process::exit(1);
    }
    eprintln!(
        "perf gate passed: all {} gated metric(s) within {:.0}% of baseline",
        report.rows.len(),
        opts.max_drop_pct
    );
}
