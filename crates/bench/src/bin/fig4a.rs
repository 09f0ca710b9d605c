//! Regenerates **Fig. 4(a)**: physical vs. logical error rate for
//! batch-QECOOL and the MWPM baseline, `d ∈ {5, 7, 9, 11, 13}`.
//!
//! The paper reads two accuracy thresholds off this figure:
//! batch-QECOOL at ≈1.5% and MWPM at ≈3%. This binary reproduces the
//! curve family and prints the estimated crossings.
//!
//! ```text
//! cargo run --release -p qecool-bench --bin fig4a [-- --shots N --fast --out fig4a.csv]
//! ```

use qecool_bench::{fmt_rate, CampaignOpts, Options, TextTable, PAPER_DISTANCES};
use qecool_sim::{curves, estimate_threshold, log_grid, CampaignJob, DecoderKind, NoiseSpec};

fn main() {
    let opts = Options::parse(1000);
    let engine = opts.engine();
    let ps = log_grid(1e-3, 1e-1, 9);
    let mut table = TextTable::new(["decoder", "d", "p", "logical error rate (95% CI)"]);

    for (name, decoder) in [
        ("batch-QECOOL", DecoderKind::BatchQecool),
        ("MWPM", DecoderKind::Mwpm),
    ] {
        eprintln!("sweeping {name} ({} shots/point)...", opts.shots);
        let noise = opts.noise_or(NoiseSpec::Phenomenological { p: 0.0 });
        let jobs = CampaignJob::grid(decoder, noise, &PAPER_DISTANCES, &ps, opts.shots);
        let results = CampaignOpts::default()
            .run(&engine, &jobs, opts.seed)
            .results;
        for (job, mc) in jobs.iter().zip(&results) {
            table.row([
                name.to_owned(),
                job.trial.d.to_string(),
                format!("{:.5}", job.trial.p()),
                fmt_rate(mc.logical_error_rate()),
            ]);
        }
        match estimate_threshold(&curves(&jobs, &results)) {
            Some(est) => {
                println!(
                    "{name}: estimated threshold p_th = {:.4} (crossings: {:?})",
                    est.pth,
                    est.crossings
                        .iter()
                        .map(|&(a, b, p)| format!("d{a}-d{b}@{p:.4}"))
                        .collect::<Vec<_>>()
                );
            }
            None => println!("{name}: no curve crossing in the sampled range"),
        }
    }
    println!("paper reference: p_th(batch-QECOOL) ~= 0.015, p_th(MWPM) ~= 0.03 (Fig. 4(a))");
    println!("\n{}", table.render());
    opts.write_csv(&table.to_csv());
}
