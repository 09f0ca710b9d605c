//! Regenerates **Fig. 4(b)**: the proportion of matchings that propagate
//! through three or more planes in the vertical (temporal) direction,
//! under batch-QECOOL.
//!
//! This is the measurement the paper uses to justify `th_v = 3`: above
//! threshold long vertical matches appear, but for `p < p_th` they are
//! negligible, so three buffered planes suffice for on-line decoding.
//!
//! A match between planes `t` and `t + Δ` spans `Δ + 1` planes; the paper's
//! "three or more planes" is reported both as `Δ ≥ 2` (spans ≥ 3 planes)
//! and the stricter `Δ ≥ 3`, since the paper's phrasing is ambiguous —
//! both series show the same negligible-below-threshold shape.
//!
//! ```text
//! cargo run --release -p qecool-bench --bin fig4b [-- --shots N --fast --out fig4b.csv]
//! ```

use qecool_bench::{CampaignOpts, Options, TextTable, PAPER_DISTANCES};
use qecool_sim::{log_grid, CampaignJob, DecoderKind, NoiseSpec};

fn main() {
    let opts = Options::parse(600);
    let engine = opts.engine();
    let ps = log_grid(1e-3, 1e-1, 9);
    let mut table = TextTable::new([
        "d",
        "p",
        "matches",
        "frac dt>=2 (spans >=3 planes)",
        "frac dt>=3",
    ]);

    eprintln!(
        "sweeping batch-QECOOL match telemetry ({} shots/point)...",
        opts.shots
    );
    let noise = opts.noise_or(NoiseSpec::Phenomenological { p: 0.0 });
    let jobs = CampaignJob::grid(
        DecoderKind::BatchQecool,
        noise,
        &PAPER_DISTANCES,
        &ps,
        opts.shots,
    );
    let results = CampaignOpts::default()
        .run(&engine, &jobs, opts.seed)
        .results;
    for (job, mc) in jobs.iter().zip(&results) {
        table.row([
            job.trial.d.to_string(),
            format!("{:.5}", job.trial.p()),
            mc.matches.to_string(),
            format!("{:.6}", mc.vertical_extent_fraction(2)),
            format!("{:.6}", mc.vertical_extent_fraction(3)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper reference: the proportion is O(1e-3) near p = 0.1 and negligible for p < p_th \
         (Fig. 4(b)), motivating th_v = 3"
    );
    opts.write_csv(&table.to_csv());
}
