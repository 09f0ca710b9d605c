//! The Monte-Carlo workload: a fixed job list — {batch QECOOL, on-line
//! QECOOL, union-find, MWPM} × d ∈ {5, 9} — run through
//! `CampaignRunner` without a checkpoint (the path `sweep` takes).
//!
//! A pass runs [`CAMPAIGNS`] small campaigns over the whole job list,
//! each seeded from its own stream and each finished in one campaign
//! round (one engine batch). A tick is one such campaign, timed from
//! outside, so every tick does the same mix of work.

use std::hint::black_box;
use std::time::Instant;

use qecool::json::Json;
use qecool_sim::campaign::derive_seed;
use qecool_sim::trials::run_trial;
use qecool_sim::{
    CampaignConfig, CampaignJob, CampaignRunner, DecodeEngine, DecoderKind, McJob, McResult,
    RunOutcome, TrialConfig,
};
use qecool_surface_code::{CodePatch, DetectionRound, Lattice, NoiseSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::ledger::{unattributed_frac, Layer, Tracer, LEDGER_BOUND};
use crate::stats::{median, LagCounts};
use crate::{pins, Args, PassFigures, Report};

/// Phenomenological error rate of every job.
const P: f64 = 0.01;

/// Shot quota of every job in one campaign.
const SHOTS_PER_JOB: usize = 16;

/// Trials per campaign chunk (one engine shard).
const CHUNK_SHOTS: usize = 8;

/// Campaigns per pass.
const CAMPAIGNS: usize = 64;

/// Shots per job when a job is timed alone.
const TIMED_SHOTS: usize = 512;

/// Repetitions of each stand-alone timing (the median is reported).
const REPS: usize = 3;

/// Rounds sampled per distance when timing the sampler alone.
const SAMPLED_ROUNDS: usize = 100_000;

/// Passes an untimed run makes at least, so the repeat check always runs.
const MIN_PASSES: usize = 2;

/// Share of `--seconds` a traced run spends on campaign passes; the rest
/// goes to the stand-alone engine timings.
const TRACED_SHARE: f64 = 0.6;

/// The job list: `(name, job)` with names `<kind>_d<d>`.
fn jobs() -> Vec<(String, CampaignJob)> {
    let budget_cycles = crate::serve::budget().cycles_per_round();
    let kinds = [
        ("batch_qecool", DecoderKind::BatchQecool),
        ("online_qecool", DecoderKind::OnlineQecool { budget_cycles }),
        ("uf", DecoderKind::UnionFind),
        ("mwpm", DecoderKind::Mwpm),
    ];
    [5, 9]
        .into_iter()
        .flat_map(|d| {
            kinds.into_iter().map(move |(kind, decoder)| {
                let job = CampaignJob {
                    trial: TrialConfig::standard(d, P, decoder),
                    shots: SHOTS_PER_JOB,
                };
                (format!("{kind}_d{d}"), job)
            })
        })
        .collect()
}

/// One pass: [`CAMPAIGNS`] campaigns over the job list.
struct Pass {
    setup_s: f64,
    run_s: f64,
    ticks_us: Vec<f64>,
    /// Per job, summed over the pass's campaigns.
    results: Vec<McResult>,
    tracer: Tracer,
}

impl Pass {
    fn shots(&self) -> u64 {
        self.results.iter().map(|r| r.shots as u64).sum()
    }
}

fn pass(seed: u64, traced: bool) -> Pass {
    let mut tracer = Tracer::new(traced);
    let jobs: Vec<CampaignJob> = jobs().into_iter().map(|(_, j)| j).collect();
    let start = Instant::now();
    let engine = DecodeEngine::with_threads(crate::workers());
    // Warm-up: one cold trial per job builds its lattice and decoders.
    for job in &jobs {
        black_box(run_trial(&job.trial, seed));
    }
    let setup_s = start.elapsed().as_secs_f64();
    let mut ticks_us = Vec::with_capacity(CAMPAIGNS);
    let mut results = vec![McResult::default(); jobs.len()];
    let running = Instant::now();
    for campaign in 0..CAMPAIGNS {
        let tick = Instant::now();
        let t = tracer.start();
        let config = CampaignConfig {
            base_seed: derive_seed(seed, campaign as u64, 0),
            chunk_shots: CHUNK_SHOTS,
            // Every chunk of the campaign in one round.
            round_chunks: jobs.len() * SHOTS_PER_JOB.div_ceil(CHUNK_SHOTS),
            stop: None,
        };
        let outcome = CampaignRunner::new(&engine, jobs.clone(), config).run();
        tracer.stop(Layer::Engine, t, 1);
        let t = tracer.start();
        let Ok(RunOutcome::Complete(report)) = outcome else {
            unreachable!("a campaign without a checkpoint or interrupt completes");
        };
        for (total, r) in results.iter_mut().zip(report.results) {
            total.merge(r);
        }
        ticks_us.push(tick.elapsed().as_secs_f64() * 1e6);
        tracer.stop(Layer::Harness, t, 1);
    }
    Pass {
        setup_s,
        run_s: running.elapsed().as_secs_f64(),
        ticks_us,
        results,
        tracer,
    }
}

/// Detection rounds decoded in one pass (each shot decodes `rounds`
/// noisy rounds).
fn rounds_per_pass() -> u64 {
    let per_campaign: usize = jobs().iter().map(|(_, j)| j.shots * j.trial.rounds).sum();
    (CAMPAIGNS * per_campaign) as u64
}

/// Runs the Monte-Carlo workload: end-to-end metrics untraced, or the
/// per-layer ledger traced.
pub fn run(name: &str, args: &Args, report: &mut Report) {
    let passes = if args.trace {
        traced(args, report)
    } else {
        untraced(args, report)
    };
    let names: Vec<String> = jobs().into_iter().map(|(n, _)| n).collect();
    let reference = &passes[0].results;
    for (i, p) in passes.iter().enumerate() {
        report.attempt(p.shots());
        for ((job, got), want) in names.iter().zip(&p.results).zip(reference) {
            report.check(
                got == want && got.shots == SHOTS_PER_JOB * CAMPAIGNS,
                got.shots as u64,
                || format!("pass {i}: {job} result differs from pass 0 or from its quota"),
            );
        }
    }
    if let Some(pins) = pins(name, args.seed) {
        for (job, got) in names.iter().zip(reference) {
            let pinned = pins.get(job).and_then(Json::as_arr).map(|v| {
                v.iter()
                    .map(|x| x.as_u64().expect("pinned counts are integers"))
                    .collect::<Vec<_>>()
            });
            let observed = vec![
                got.shots as u64,
                got.failures as u64,
                got.overflows as u64,
                got.matches,
            ];
            report.check(pinned.as_ref() == Some(&observed), got.shots as u64, || {
                format!("{job}: [shots, failures, overflows, matches] {observed:?} differ from the pinned {pinned:?}")
            });
        }
    }
}

/// Commit lag of whole-history decoding: a shot's corrections all become
/// final at its last noisy round, so round `r` of `rounds` lags by
/// `rounds − 1 − r`.
fn whole_history_lags(results: &[McResult]) -> LagCounts {
    let mut lags = LagCounts::default();
    for ((_, job), r) in jobs().iter().zip(results) {
        for lag in 0..job.trial.rounds as u64 {
            lags.add(lag, r.shots as u64);
        }
    }
    lags
}

fn untraced(args: &Args, report: &mut Report) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(pass(args.seed, false));
    }
    let rounds = rounds_per_pass() as f64;
    let figures: Vec<PassFigures> = passes
        .iter()
        .map(|p| PassFigures {
            setup_s: p.setup_s,
            rounds_per_s: rounds / p.run_s,
            shots_per_s: p.shots() as f64 / (p.setup_s + p.run_s),
        })
        .collect();
    let ticks = passes
        .iter()
        .flat_map(|p| p.ticks_us.iter().copied())
        .collect();
    report.end_to_end(&figures, ticks, &whole_history_lags(&passes[0].results));
    passes
}

fn traced(args: &Args, report: &mut Report) -> Vec<Pass> {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds * TRACED_SHARE {
        plain.push(pass(args.seed, false));
        traced.push(pass(args.seed, true));
    }
    let mut ledger = Tracer::new(true);
    for p in &traced {
        ledger.merge(&p.tracer);
    }
    let wall_ns: u64 = traced.iter().map(|p| (p.run_s * 1e9) as u64).sum();
    report.tick_tail(plain.iter().flat_map(|p| p.ticks_us.iter().copied()));
    let rate = |ps: &[Pass]| median(ps.iter().map(|p| p.shots() as f64 / p.run_s));
    report.metric("trace.overhead_ratio", rate(&plain) / rate(&traced));
    let unattributed = unattributed_frac(wall_ns, &ledger, &Layer::ENGINE_LOOP);
    report.metric("trace.unattributed_frac", unattributed);
    report.check((0.0..=LEDGER_BOUND).contains(&unattributed), 0, || {
        format!(
            "layer spans leave {unattributed:.4} of the loop unattributed (bound {LEDGER_BOUND})"
        )
    });

    time_jobs_alone(args.seed, report);
    time_sampler(args.seed, report);
    parallel_efficiency(args.seed, report);
    eprintln!("  {} plain / {} traced passes", plain.len(), traced.len());
    plain.into_iter().chain(traced).collect()
}

/// `engine.<job>.us_per_shot`: each job alone through `DecodeEngine::run`.
fn time_jobs_alone(seed: u64, report: &mut Report) {
    let engine = DecodeEngine::with_threads(crate::workers());
    for (name, job) in jobs() {
        let mut us = Vec::with_capacity(REPS);
        let mut first: Option<McResult> = None;
        for _ in 0..REPS {
            let t = Instant::now();
            let result = engine.run(&job.trial, TIMED_SHOTS, seed);
            us.push(t.elapsed().as_secs_f64() * 1e6 / TIMED_SHOTS as f64);
            report.attempt(TIMED_SHOTS as u64);
            let same = first.get_or_insert_with(|| result.clone()) == &result;
            report.check(same, TIMED_SHOTS as u64, || {
                format!("{name}: repeated runs differ")
            });
        }
        report.metric(format!("engine.{name}.us_per_shot"), median(us));
    }
}

/// `engine.sample_d<d>.ns_per_round`: `CodePatch::noisy_round_into` alone.
fn time_sampler(seed: u64, report: &mut Report) {
    for d in [5, 9] {
        let lattice = Lattice::new(d).expect("benchmark distances are valid");
        let noise = NoiseSpec::Phenomenological { p: P }.build();
        let mut ns = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let mut patch = CodePatch::new(lattice.clone());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut round = DetectionRound::zeros(lattice.num_ancillas());
            let t = Instant::now();
            for _ in 0..SAMPLED_ROUNDS {
                patch.noisy_round_into(&noise, &mut rng, &mut round);
                black_box(&round);
            }
            ns.push(t.elapsed().as_secs_f64() * 1e9 / SAMPLED_ROUNDS as f64);
        }
        report.metric(format!("engine.sample_d{d}.ns_per_round"), median(ns));
    }
}

/// `engine.parallel_efficiency`: the whole job list on every worker
/// against one worker, as speed-up over worker count. Results must not
/// depend on the worker count.
fn parallel_efficiency(seed: u64, report: &mut Report) {
    let batch: Vec<McJob> = jobs()
        .into_iter()
        .map(|(_, j)| McJob::new(j.trial, TIMED_SHOTS, seed))
        .collect();
    let workers = crate::workers();
    let mut seconds = [Vec::new(), Vec::new()];
    let mut results: [Option<Vec<McResult>>; 2] = [None, None];
    for _ in 0..REPS {
        for (i, threads) in [1, workers].into_iter().enumerate() {
            let engine = DecodeEngine::with_threads(threads);
            let t = Instant::now();
            let out = engine.run_batch(&batch);
            seconds[i].push(t.elapsed().as_secs_f64());
            report.attempt((batch.len() * TIMED_SHOTS) as u64);
            results[i].get_or_insert(out);
        }
    }
    let same = results[0] == results[1];
    report.check(same, (batch.len() * TIMED_SHOTS) as u64, || {
        format!("results differ between 1 and {workers} engine workers")
    });
    let [one, many] = seconds.map(median);
    report.metric("engine.parallel_efficiency", one / (workers as f64 * many));
}
