//! Ablation studies for the design choices the paper leaves open or fixes
//! without a sweep:
//!
//! * **Boundary spike penalty** (paper footnote 1 gives no magnitude):
//!   how the accuracy threshold region responds to 0 / 1 / 2 / 3 extra
//!   hops on Boundary-Unit spikes.
//! * **Vertical threshold `th_v`** (paper picks 3 from Fig. 4(b)): logical
//!   error rate of on-line decoding with `th_v ∈ {1, 2, 3, 4, 5}`.
//! * **Register capacity** (paper picks 7 bits "with some margin"):
//!   overflow behaviour with 5 / 7 / 9-bit registers at 1 GHz.
//!
//! ```text
//! cargo run --release -p qecool-bench --bin ablations [-- --shots N --fast --out ablations.csv]
//! ```

use qecool_bench::{fmt_rate, Options, TextTable};
use qecool_sim::{derive_seed, DecoderKind, TrialConfig};

fn main() {
    let opts = Options::parse(600);
    let engine = opts.engine();
    let mut table = TextTable::new([
        "study",
        "setting",
        "d",
        "p",
        "logical error rate (95% CI)",
        "overflow",
    ]);

    // 1. Boundary penalty sweep in the threshold region (batch mode).
    for penalty in [0u64, 1, 2, 3] {
        for d in [5usize, 9] {
            for p in [0.008, 0.015] {
                let mut cfg = TrialConfig::standard(d, p, DecoderKind::BatchQecool);
                cfg.boundary_penalty = penalty;
                let mc = engine.run(&cfg, opts.shots, opts.seed);
                table.row([
                    "boundary-penalty".to_owned(),
                    penalty.to_string(),
                    d.to_string(),
                    format!("{p}"),
                    fmt_rate(mc.logical_error_rate()),
                    "-".to_owned(),
                ]);
            }
        }
        eprintln!("boundary penalty {penalty}: done");
    }

    // 2. th_v sweep (on-line @ 2 GHz). Uses a custom trial loop because
    // TrialConfig fixes th_v = 3 for the paper configuration.
    for thv in [1usize, 2, 3, 4, 5] {
        for d in [5usize, 9] {
            let p = 0.008;
            // Each (thv, d) cell runs on its own derive_seed stream —
            // no more `seed + s` arithmetic whose streams overlap
            // between cells and adjacent base seeds.
            let stream = 100 + (thv * 2 + usize::from(d == 9)) as u64;
            let mut failures = 0;
            let mut overflows = 0;
            for s in 0..opts.shots {
                let out =
                    run_custom_online(d, p, thv, 7, 2000, derive_seed(opts.seed, stream, s as u64));
                failures += usize::from(out.0);
                overflows += usize::from(out.1);
            }
            table.row([
                "thv".to_owned(),
                thv.to_string(),
                d.to_string(),
                format!("{p}"),
                fmt_rate(qecool_sim::RateEstimate::new(failures, opts.shots)),
                overflows.to_string(),
            ]);
        }
        eprintln!("thv {thv}: done");
    }

    // 3. Register capacity at 1 GHz, where overflow pressure is real.
    for cap in [5usize, 7, 9] {
        for d in [11usize, 13] {
            let p = 0.01;
            let stream = 200 + (cap * 2 + usize::from(d == 13)) as u64;
            let mut failures = 0;
            let mut overflows = 0;
            for s in 0..opts.shots {
                let out =
                    run_custom_online(d, p, 3, cap, 1000, derive_seed(opts.seed, stream, s as u64));
                failures += usize::from(out.0);
                overflows += usize::from(out.1);
            }
            table.row([
                "reg-capacity".to_owned(),
                format!("{cap}-bit"),
                d.to_string(),
                format!("{p}"),
                fmt_rate(qecool_sim::RateEstimate::new(failures, opts.shots)),
                overflows.to_string(),
            ]);
        }
        eprintln!("capacity {cap}: done");
    }

    println!("{}", table.render());
    opts.write_csv(&table.to_csv());
}

/// One on-line trial with explicit th_v / capacity / budget; returns
/// `(logical_error, overflow)`.
fn run_custom_online(
    d: usize,
    p: f64,
    thv: usize,
    capacity: usize,
    budget: u64,
    seed: u64,
) -> (bool, bool) {
    use qecool::{DecodeOutput, Decoder, QecoolConfig, QecoolDecoder};
    use qecool_surface_code::{CodePatch, Lattice, NoiseSpec};
    use rand::SeedableRng;

    let lattice = Lattice::new(d).expect("valid distance");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut patch = CodePatch::new(lattice.clone());
    let noise = NoiseSpec::Phenomenological { p };
    let config = QecoolConfig::online()
        .with_thv(Some(thv))
        .with_reg_capacity(capacity);
    let mut decoder = QecoolDecoder::new(lattice, config);
    let mut out = DecodeOutput::default();
    for _ in 0..d {
        let round = patch.noisy_round(&noise, &mut rng);
        if decoder.ingest(&round).is_err() {
            return (true, true);
        }
        decoder.decode_step(Some(budget), &mut out);
        patch.apply_corrections(out.corrections.iter().copied());
    }
    let closing = patch.perfect_round();
    if decoder.ingest(&closing).is_err() {
        return (true, true);
    }
    decoder.finish(&mut out);
    patch.apply_corrections(out.corrections.iter().copied());
    (patch.has_logical_error(), false)
}
