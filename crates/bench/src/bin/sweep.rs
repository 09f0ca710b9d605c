//! Checkpointable logical-error-rate sweep: the campaign-runner front
//! door, and the binary the kill/resume tests in
//! `crates/bench/tests/campaign_cli.rs` drive.
//!
//! Runs a fixed `(d × p)` batch-QECOOL sweep — under phenomenological
//! noise by default, or any `--noise family[:k=v,…]` of the
//! [`NoiseSpec`] matrix — through [`qecool_sim::CampaignRunner`]:
//! deterministic chunked execution,
//! optional `--target-ci` adaptive stop rule, and `--checkpoint`
//! atomic checkpoint files a later `--resume` run continues from —
//! byte-identically to an uninterrupted run.
//!
//! ```text
//! # uninterrupted reference
//! sweep --shots 120 --results ref.json
//! # crash mid-campaign (aborts like SIGKILL, after checkpointing)...
//! sweep --shots 120 --checkpoint cp.json --kill-after-chunks 3 --results out.json
//! # ...resume, and the outputs match byte for byte
//! sweep --shots 120 --checkpoint cp.json --resume --results out.json
//! cmp ref.json out.json
//! ```
//!
//! Corrupt, truncated, version- or job-list-mismatched checkpoints exit
//! 2 with a named error (never a silent fresh start).

use qecool::json::{obj, Json};
use qecool_bench::{fmt_rate, Options, TextTable};
use qecool_sim::{CampaignJob, CampaignReport, CampaignStatus, DecoderKind, JobStatus, NoiseSpec};

/// The sweep grid: small enough for CI smoke runs, wide enough to give
/// the adaptive stop rule points of genuinely different CI widths.
const DS: [usize; 2] = [3, 5];
const PS: [f64; 3] = [0.005, 0.01, 0.02];

fn status_str(status: CampaignStatus) -> &'static str {
    match status {
        CampaignStatus::QuotaComplete => "quota_complete",
        CampaignStatus::Converged => "converged",
        CampaignStatus::BudgetExhausted => "budget_exhausted",
    }
}

fn job_status_str(status: JobStatus) -> &'static str {
    match status {
        JobStatus::QuotaDone => "quota_done",
        JobStatus::Converged => "converged",
        JobStatus::BudgetExhausted => "budget_exhausted",
    }
}

/// Renders the campaign report as deterministic JSON — integer counters
/// exact, floats in shortest-round-trip form, key order fixed — so two
/// equal reports produce byte-identical files.
fn render_results(noise: NoiseSpec, jobs: &[CampaignJob], report: &CampaignReport) -> String {
    let points: Vec<Json> = jobs
        .iter()
        .zip(&report.results)
        .zip(&report.job_status)
        .map(|((job, mc), &status)| {
            let est = mc.logical_error_rate();
            let (ci_lo, ci_hi) = est.clopper_pearson_interval();
            obj([
                ("d", Json::UInt(job.trial.d as u128)),
                ("p", Json::Num(job.trial.p())),
                ("shots", Json::UInt(mc.shots as u128)),
                ("failures", Json::UInt(mc.failures as u128)),
                ("overflows", Json::UInt(mc.overflows as u128)),
                ("matches", Json::UInt(u128::from(mc.matches))),
                ("rate", Json::Num(est.rate())),
                ("ci_lo", Json::Num(ci_lo)),
                ("ci_hi", Json::Num(ci_hi)),
                ("status", Json::Str(job_status_str(status).to_owned())),
            ])
        })
        .collect();
    let mut out = obj([
        ("status", Json::Str(status_str(report.status).to_owned())),
        // The family the whole grid ran under — distinct families must
        // produce distinct results files even at identical rates.
        ("noise", Json::Str(noise.to_string())),
        ("noise_family", Json::Str(noise.family().to_owned())),
        ("points", Json::Arr(points)),
    ])
    .render();
    out.push('\n');
    out
}

fn main() {
    let (opts, campaign) = Options::parse_campaign(200, true);
    let engine = opts.engine();
    // The spec fixes family + shape parameters; the PS axis replaces
    // the rate per point. Swapping the family changes the job-list
    // hash, so checkpoints never resume across families.
    let noise = opts.noise_or(NoiseSpec::Phenomenological { p: 0.0 });
    let jobs = CampaignJob::grid(DecoderKind::BatchQecool, noise, &DS, &PS, opts.shots);
    let report = campaign.run(&engine, &jobs, opts.seed);

    let mut table = TextTable::new(["d", "p", "shots", "failures", "rate (CP 95%)", "status"]);
    for ((job, mc), &status) in jobs.iter().zip(&report.results).zip(&report.job_status) {
        table.row([
            job.trial.d.to_string(),
            format!("{}", job.trial.p()),
            mc.shots.to_string(),
            mc.failures.to_string(),
            fmt_rate(mc.logical_error_rate()),
            job_status_str(status).to_owned(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "campaign: {} ({} chunks, {} shots this run)",
        status_str(report.status),
        report.chunks_run,
        report.shots_run
    );
    opts.write_csv(&table.to_csv());
    campaign.write_results(&render_results(noise, &jobs, &report));
}
