//! Regenerates **Fig. 7**: physical vs. logical error rate for *on-line*
//! QECOOL at 500 MHz, 1 GHz and 2 GHz.
//!
//! The clock frequency sets the decode budget per 1 µs measurement
//! interval (500 / 1000 / 2000 cycles); a too-slow clock lets the 7-bit
//! registers overflow at large `d`, degrading the logical error rate —
//! only at 2 GHz does the paper observe a clean threshold (≈1.0%).
//!
//! ```text
//! cargo run --release -p qecool-bench --bin fig7 [-- --shots N --fast --out fig7.csv]
//! ```

use qecool_bench::{fmt_rate, CampaignOpts, Options, TextTable, PAPER_DISTANCES};
use qecool_sfq::power::{cycles_per_measurement, FIG7_FREQUENCIES_HZ, MEASUREMENT_INTERVAL_S};
use qecool_sim::{curves, estimate_threshold, log_grid, CampaignJob, DecoderKind, NoiseSpec};

fn main() {
    let opts = Options::parse(1000);
    let engine = opts.engine();
    let ps = log_grid(1e-3, 3e-2, 8);
    let mut table = TextTable::new([
        "frequency",
        "d",
        "p",
        "logical error rate (95% CI)",
        "overflow rate",
    ]);

    for &freq in &FIG7_FREQUENCIES_HZ {
        let budget = cycles_per_measurement(freq, MEASUREMENT_INTERVAL_S);
        let label = format!("{} MHz", (freq / 1e6).round() as u64);
        eprintln!("sweeping on-line QECOOL @ {label} ({budget} cycles/layer)...");
        let decoder = DecoderKind::OnlineQecool {
            budget_cycles: budget,
        };
        let noise = opts.noise_or(NoiseSpec::Phenomenological { p: 0.0 });
        let jobs = CampaignJob::grid(decoder, noise, &PAPER_DISTANCES, &ps, opts.shots);
        let results = CampaignOpts::default()
            .run(&engine, &jobs, opts.seed)
            .results;
        for (job, mc) in jobs.iter().zip(&results) {
            table.row([
                label.clone(),
                job.trial.d.to_string(),
                format!("{:.5}", job.trial.p()),
                fmt_rate(mc.logical_error_rate()),
                format!("{:.4}", mc.overflow_rate().rate()),
            ]);
        }
        match estimate_threshold(&curves(&jobs, &results)) {
            Some(est) => println!("{label}: estimated p_th = {:.4}", est.pth),
            None => println!("{label}: no crossing in range (overflow-dominated or sub-threshold)"),
        }
    }
    println!(
        "paper reference: buffer overflow degrades large d at 500 MHz / 1 GHz; \
         p_th ~= 1.0% emerges only at 2 GHz (Fig. 7)"
    );
    println!("\n{}", table.render());
    opts.write_csv(&table.to_csv());
}
