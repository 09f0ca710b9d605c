//! Regenerates **Table IV**: the qualitative decoder comparison
//! (2-D / 3-D accuracy thresholds, latency class, environment).
//!
//! MWPM/UF/AQEC rows carry the literature constants the paper quotes; the
//! QECOOL row is *measured* here (2-D code-capacity and on-line 2 GHz 3-D
//! sweeps), and — beyond the paper — the union-find row is measured as
//! well, since this repository implements that baseline from scratch.
//!
//! ```text
//! cargo run --release -p qecool-bench --bin table4 \
//!     [-- --shots N --fast --out table4.csv --json BENCH_table4.json]
//! ```
//!
//! With any of `--checkpoint`/`--resume`/`--target-ci` the four
//! threshold sweeps run as **one checkpointed campaign** (see the
//! `sweep` binary and `qecool_sim::campaign`): preemption-proof, with
//! byte-identical resume.
//!
//! `--noise family[:k=v,…]` swaps the noise family of the **3-D**
//! (circuit-level-time) sweeps — the rows whose default is
//! phenomenological. The 2-D rows stay code-capacity by construction:
//! that is what a 2-D threshold *is*.

use qecool_bench::{perf::BenchRecord, usage_error, CampaignOpts, Options, TextTable};
use qecool_sfq::compare::{table4_literature_rows, table4_paper_qecool_row};
use qecool_sim::{
    estimate_threshold, log_grid, sweep_on, CampaignJob, DecodeEngine, DecoderKind, NoiseSpec,
    Sweep, SweepPoint, TrialConfig,
};

/// One of the four threshold campaigns a table4 run measures.
struct ThresholdSpec {
    label: &'static str,
    noise: NoiseSpec,
    decoder: DecoderKind,
    ps: Vec<f64>,
}

const DS: [usize; 4] = [5, 7, 9, 11];

/// The sweep rate axes carry the rates; each spec's `NoiseSpec` rate is
/// a placeholder replaced per point by `with_rate`. `noise_3d` is the
/// `--noise` override for the time-extended sweeps.
fn specs(noise_3d: NoiseSpec) -> Vec<ThresholdSpec> {
    vec![
        ThresholdSpec {
            label: "union-find 3-D",
            noise: noise_3d,
            decoder: DecoderKind::UnionFind,
            ps: log_grid(0.01, 0.06, 7),
        },
        ThresholdSpec {
            label: "union-find 2-D",
            noise: NoiseSpec::CodeCapacity { p: 0.0 },
            decoder: DecoderKind::UnionFind,
            ps: log_grid(0.03, 0.2, 7),
        },
        ThresholdSpec {
            label: "QECOOL 2-D (code-capacity)",
            noise: NoiseSpec::CodeCapacity { p: 0.0 },
            decoder: DecoderKind::BatchQecool,
            ps: log_grid(0.01, 0.15, 8),
        },
        ThresholdSpec {
            label: "QECOOL 3-D (on-line, 2 GHz)",
            noise: noise_3d,
            decoder: DecoderKind::OnlineQecool {
                budget_cycles: 2000,
            },
            ps: log_grid(0.0015, 0.02, 8),
        },
    ]
}

fn spec_trial(spec: &ThresholdSpec, d: usize, p: f64) -> TrialConfig {
    TrialConfig {
        d,
        rounds: if matches!(spec.noise, NoiseSpec::CodeCapacity { .. }) {
            1
        } else {
            d
        },
        decoder: spec.decoder,
        noise: spec.noise.with_rate(p),
        boundary_penalty: qecool::DEFAULT_BOUNDARY_PENALTY,
    }
}

fn measured_threshold(
    engine: &DecodeEngine,
    spec: &ThresholdSpec,
    shots: usize,
    seed: u64,
) -> Option<f64> {
    let result = sweep_on(
        engine,
        spec.decoder,
        spec.noise,
        &DS,
        &spec.ps,
        seed,
        |_, _| shots,
    );
    estimate_threshold(&result.curves()).map(|e| e.pth)
}

/// Campaign mode: all four threshold sweeps concatenated into one
/// checkpointable job list (each job on its own global seed stream), so
/// a multi-hour table4 run survives preemption and resumes
/// byte-identically. Point seeds differ from the per-sweep streams of
/// the non-campaign path, so the two modes are each self-consistent but
/// not cross-comparable shot for shot.
fn measured_thresholds_campaign(
    engine: &DecodeEngine,
    campaign: &CampaignOpts,
    all: &[ThresholdSpec],
    shots: usize,
    seed: u64,
) -> Vec<Option<f64>> {
    let mut jobs = Vec::new();
    let mut spans = Vec::new();
    for spec in all {
        let start = jobs.len();
        for &d in &DS {
            for &p in &spec.ps {
                jobs.push(CampaignJob {
                    trial: spec_trial(spec, d, p),
                    shots,
                });
            }
        }
        spans.push(start..jobs.len());
    }
    let mut runner = campaign.runner(engine, jobs.clone(), seed);
    let report = campaign.drive(&mut runner);
    spans
        .into_iter()
        .map(|span| {
            let sweep = Sweep {
                points: span
                    .map(|i| SweepPoint {
                        d: jobs[i].trial.d,
                        p: jobs[i].trial.p(),
                        mc: report.results[i].clone(),
                    })
                    .collect(),
            };
            estimate_threshold(&sweep.curves()).map(|e| e.pth)
        })
        .collect()
}

fn main() {
    let (opts, campaign) = Options::parse_campaign(800);
    if campaign.results.is_some() {
        usage_error("--results is a sweep flag: table4 writes no results JSON (use --out FILE)");
    }
    let engine = opts.engine();
    let start = std::time::Instant::now();

    let noise_3d = opts.noise_or(NoiseSpec::Phenomenological { p: 0.0 });
    let all = specs(noise_3d);
    let campaign_mode =
        campaign.checkpoint.is_some() || campaign.resume || campaign.target_ci.is_some();
    let thresholds: Vec<Option<f64>> = if campaign_mode {
        eprintln!("measuring all four thresholds as one checkpointed campaign...");
        measured_thresholds_campaign(&engine, &campaign, &all, opts.shots, opts.seed)
    } else {
        all.iter()
            .map(|spec| {
                eprintln!("measuring {} threshold...", spec.label);
                measured_threshold(&engine, spec, opts.shots, opts.seed)
            })
            .collect()
    };
    let (uf_3d, uf_2d, pth_2d, pth_3d) =
        (thresholds[0], thresholds[1], thresholds[2], thresholds[3]);

    let fmt_pth =
        |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |x| format!("{:.1}%", x * 100.0));
    let mut table = TextTable::new([
        "Decoder",
        "Pth (2-D)",
        "Pth (3-D)",
        "Latency",
        "Environment",
    ]);
    for row in table4_literature_rows() {
        table.row([
            row.name.to_owned(),
            fmt_pth(row.pth_2d),
            fmt_pth(row.pth_3d),
            row.latency.to_string(),
            row.environment.to_owned(),
        ]);
    }
    table.row([
        "UF (measured)".to_owned(),
        fmt_pth(uf_2d),
        fmt_pth(uf_3d),
        "Medium".to_owned(),
        "FPGA [2]".to_owned(),
    ]);
    table.row([
        "QECOOL (measured)".to_owned(),
        fmt_pth(pth_2d),
        fmt_pth(pth_3d),
        "Low".to_owned(),
        "SFQ".to_owned(),
    ]);
    let paper = table4_paper_qecool_row();
    table.row([
        "QECOOL (paper)".to_owned(),
        fmt_pth(paper.pth_2d),
        fmt_pth(paper.pth_3d),
        paper.latency.to_string(),
        paper.environment.to_owned(),
    ]);
    println!("{}", table.render());
    opts.write_csv(&table.to_csv());

    // Perf record for the CI regression gate: Monte-Carlo decode
    // throughput across the four threshold campaigns above.
    let elapsed = start.elapsed().as_secs_f64();
    let shots = engine.tally().shots();
    opts.write_bench_json(
        &BenchRecord::new("table4", shots as f64 / elapsed.max(1e-12))
            .with("shots", shots as f64)
            .with("wall_seconds", elapsed)
            .with_tag("noise_family", noise_3d.family())
            .with_tag("noise_params", noise_3d.params()),
    );
}
