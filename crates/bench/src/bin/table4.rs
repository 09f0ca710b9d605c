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
//!     [-- --shots N --fast --out table4.csv]
//! ```
//!
//! The four threshold sweeps always run as **one campaign**: a single
//! concatenated job list, each point on its own seed stream (its index
//! in that list). Without campaign flags it runs as one engine batch;
//! with `--checkpoint`/`--resume`/`--target-ci` it is preemption-proof,
//! with byte-identical resume (see the `sweep` binary and
//! `qecool_sim::campaign`). The flags never change a fixed-quota
//! result, only whether it survives a kill.
//!
//! `--noise family[:k=v,…]` swaps the noise family of the **3-D**
//! (circuit-level-time) sweeps — the rows whose default is
//! phenomenological. The 2-D rows stay code-capacity by construction:
//! that is what a 2-D threshold *is*.

use qecool_bench::{Options, TextTable};
use qecool_sfq::compare::{table4_literature_rows, table4_paper_qecool_row};
use qecool_sim::{curves, estimate_threshold, log_grid, CampaignJob, DecoderKind, NoiseSpec};

const DS: [usize; 4] = [5, 7, 9, 11];

/// The four threshold sweeps as `(decoder, noise, rate axis)`, in the
/// order `main` reads them: union-find 3-D, union-find 2-D, QECOOL 2-D
/// (code-capacity) and QECOOL 3-D (on-line, 2 GHz). Each `NoiseSpec`
/// rate is a placeholder the rate axis replaces per point; `noise_3d`
/// is the `--noise` override for the time-extended sweeps.
fn specs(noise_3d: NoiseSpec) -> [(DecoderKind, NoiseSpec, Vec<f64>); 4] {
    let capacity = NoiseSpec::CodeCapacity { p: 0.0 };
    let online = DecoderKind::OnlineQecool {
        budget_cycles: 2000,
    };
    [
        (DecoderKind::UnionFind, noise_3d, log_grid(0.01, 0.06, 7)),
        (DecoderKind::UnionFind, capacity, log_grid(0.03, 0.2, 7)),
        (DecoderKind::BatchQecool, capacity, log_grid(0.01, 0.15, 8)),
        (online, noise_3d, log_grid(0.0015, 0.02, 8)),
    ]
}

fn main() {
    let (opts, campaign) = Options::parse_campaign(800, false);
    let engine = opts.engine();

    let noise_3d = opts.noise_or(NoiseSpec::Phenomenological { p: 0.0 });
    let mut jobs = Vec::new();
    let spans = specs(noise_3d).map(|(decoder, noise, ps)| {
        let first = jobs.len();
        jobs.extend(CampaignJob::grid(decoder, noise, &DS, &ps, opts.shots));
        first..jobs.len()
    });
    eprintln!("measuring all four thresholds as one campaign...");
    let report = campaign.run(&engine, &jobs, opts.seed);
    let [uf_3d, uf_2d, pth_2d, pth_3d] = spans.map(|span| {
        let curves = curves(&jobs[span.clone()], &report.results[span]);
        estimate_threshold(&curves).map(|e| e.pth)
    });

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
}
