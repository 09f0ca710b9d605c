//! Tier-1 campaign checkpoint/restart guarantees, enforced the hard
//! way: kill the runner at **every** chunk boundary (and mid-write,
//! via torn-file simulation), resume from the checkpoint, and require
//! the final aggregates to be byte-identical to an uninterrupted run —
//! at 1, 2 and 8 engine threads.
//!
//! CI re-runs this whole suite under `--test-threads 1/2/8` alongside
//! `determinism.rs`, and `crates/bench/tests/campaign_cli.rs` repeats
//! the kill/resume cycle at the process level (a real SIGKILL on the
//! `sweep` binary).

use std::fs;
use std::path::PathBuf;

use qecool_repro::sim::campaign::{
    CampaignConfig, CampaignError, CampaignJob, CampaignRunner, RunOutcome, StopRule,
};
use qecool_repro::sim::{
    CycleAggregate, DecodeEngine, DecoderKind, McJob, McResult, NoiseSpec, TrialConfig,
};

/// A per-test scratch file in the OS temp dir (no tempfile crate in the
/// offline vendor set); unique per test name and process.
fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "qecool_campaign_test_{}_{name}.json",
        std::process::id()
    ));
    p
}

fn jobs() -> Vec<CampaignJob> {
    vec![
        CampaignJob {
            trial: TrialConfig::standard(3, 0.02, DecoderKind::BatchQecool),
            shots: 60,
        },
        CampaignJob {
            trial: TrialConfig::standard(3, 0.05, DecoderKind::BatchQecool),
            shots: 40,
        },
    ]
}

fn config() -> CampaignConfig {
    CampaignConfig {
        base_seed: 2021,
        chunk_shots: 8,
        round_chunks: 2,
        stop: None,
    }
}

fn complete(runner: &mut CampaignRunner<'_>) -> Vec<McResult> {
    match runner.run().expect("campaign run") {
        RunOutcome::Complete(report) => report.results,
        RunOutcome::Interrupted { .. } => panic!("no interrupt configured"),
    }
}

#[test]
fn kill_at_every_chunk_boundary_and_resume_is_byte_identical() {
    for threads in [1usize, 2, 8] {
        let engine = DecodeEngine::with_threads(threads);
        let mut uninterrupted = CampaignRunner::new(&engine, jobs(), config());
        let reference = complete(&mut uninterrupted);
        let total_chunks = uninterrupted.chunks_done();
        assert!(total_chunks >= 10, "campaign too small to be interesting");

        for kill_at in 1..=total_chunks {
            let path = temp_path(&format!("kill_t{threads}_c{kill_at}"));
            let _ = fs::remove_file(&path);
            let mut victim = CampaignRunner::new(&engine, jobs(), config())
                .checkpoint_to(&path)
                .interrupt_after_chunks(kill_at);
            match victim.run().expect("victim run") {
                RunOutcome::Interrupted { chunks_run } => {
                    assert!(chunks_run >= kill_at);
                    // The victim dies here; a fresh runner resumes from
                    // its checkpoint file alone.
                    drop(victim);
                    let mut resumed = CampaignRunner::resume(&engine, jobs(), config(), &path)
                        .expect("resume from checkpoint");
                    let results = complete(&mut resumed);
                    assert_eq!(
                        results, reference,
                        "threads {threads}, killed at chunk {kill_at}"
                    );
                }
                // Interrupt request landed past the end: the run simply
                // completed, which must itself match the reference.
                RunOutcome::Complete(report) => assert_eq!(report.results, reference),
            }
            let _ = fs::remove_file(&path);
        }
    }
}

#[test]
fn torn_checkpoint_write_leaves_the_previous_checkpoint_valid() {
    let engine = DecodeEngine::with_threads(2);
    let mut uninterrupted = CampaignRunner::new(&engine, jobs(), config());
    let reference = complete(&mut uninterrupted);

    let path = temp_path("torn");
    let _ = fs::remove_file(&path);
    let mut victim = CampaignRunner::new(&engine, jobs(), config())
        .checkpoint_to(&path)
        .interrupt_after_chunks(4);
    assert!(matches!(
        victim.run().expect("victim run"),
        RunOutcome::Interrupted { .. }
    ));
    drop(victim);

    // Simulate a crash mid-way through the *next* checkpoint write: the
    // atomic `.tmp`+rename protocol means garbage lands in the side file
    // only, never in the live checkpoint.
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    fs::write(&tmp, "{\"version\": 1, \"job_li").expect("write torn tmp file");

    let mut resumed =
        CampaignRunner::resume(&engine, jobs(), config(), &path).expect("resume ignores .tmp");
    assert_eq!(complete(&mut resumed), reference);

    // A torn write that somehow *did* reach the live file must be a
    // named error, never a silent fresh start.
    let good = fs::read_to_string(&path).expect("read checkpoint");
    fs::write(&path, &good[..good.len() / 2]).expect("truncate checkpoint");
    let Err(err) = CampaignRunner::resume(&engine, jobs(), config(), &path) else {
        panic!("truncated checkpoint must not resume");
    };
    assert!(matches!(err, CampaignError::Corrupt(_)), "got {err:?}");

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&tmp);
}

#[test]
fn corrupted_and_mismatched_checkpoints_are_named_errors() {
    let engine = DecodeEngine::with_threads(1);
    let path = temp_path("named_errors");
    let _ = fs::remove_file(&path);
    let mut runner = CampaignRunner::new(&engine, jobs(), config()).checkpoint_to(&path);
    let _ = complete(&mut runner);
    let good = fs::read_to_string(&path).expect("read checkpoint");

    // Garbage JSON.
    fs::write(&path, "not a checkpoint at all").unwrap();
    assert!(matches!(
        CampaignRunner::resume(&engine, jobs(), config(), &path),
        Err(CampaignError::Corrupt(_))
    ));

    // Schema version from the future.
    fs::write(&path, good.replacen("\"version\":2", "\"version\":7", 1)).unwrap();
    assert!(matches!(
        CampaignRunner::resume(&engine, jobs(), config(), &path),
        Err(CampaignError::VersionMismatch {
            found: 7,
            expected: 2
        })
    ));

    // A pre-NoiseSpec (v1) checkpoint is named too, never silently
    // resumed: the job-list hash folds noise parameters the old schema
    // did not carry.
    fs::write(&path, good.replacen("\"version\":2", "\"version\":1", 1)).unwrap();
    assert!(matches!(
        CampaignRunner::resume(&engine, jobs(), config(), &path),
        Err(CampaignError::VersionMismatch {
            found: 1,
            expected: 2
        })
    ));

    // Different job list (quota changed).
    fs::write(&path, &good).unwrap();
    let mut other_jobs = jobs();
    other_jobs[0].shots += 1;
    assert!(matches!(
        CampaignRunner::resume(&engine, other_jobs, config(), &path),
        Err(CampaignError::JobListMismatch { .. })
    ));

    // Different scheduling config.
    let mut other_config = config();
    other_config.chunk_shots = 5;
    assert!(matches!(
        CampaignRunner::resume(&engine, jobs(), other_config, &path),
        Err(CampaignError::ConfigMismatch {
            field: "chunk_shots",
            ..
        })
    ));

    // Stop-rule presence must match too.
    let mut stopped = config();
    stopped.stop = Some(StopRule {
        target_ci_width: 0.1,
        extra_shot_budget: 100,
    });
    assert!(matches!(
        CampaignRunner::resume(&engine, jobs(), stopped, &path),
        Err(CampaignError::ConfigMismatch { field: "stop", .. })
    ));

    // Missing file: an I/O error, never a silent fresh start.
    let _ = fs::remove_file(&path);
    assert!(matches!(
        CampaignRunner::resume(&engine, jobs(), config(), &path),
        Err(CampaignError::Io(_))
    ));
}

/// Hostile nesting is a named parse error, never a stack overflow: the
/// recursive-descent parser stops at its depth limit.
#[test]
fn deeply_nested_checkpoint_is_a_named_error() {
    let deep = "[".repeat(300_000);
    let err = qecool_repro::decoder::json::Json::parse(&deep).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");

    let engine = DecodeEngine::with_threads(1);
    let path = temp_path("deep_nesting");
    fs::write(&path, &deep).unwrap();
    assert!(matches!(
        CampaignRunner::resume(&engine, jobs(), config(), &path),
        Err(CampaignError::Corrupt(_))
    ));
    let _ = fs::remove_file(&path);
}

#[test]
fn campaign_equals_monolithic_run_batch_across_threads() {
    let batch: Vec<McJob> = jobs()
        .iter()
        .enumerate()
        .map(|(idx, j)| McJob {
            trial: j.trial,
            shots: j.shots,
            base_seed: 2021,
            stream: idx as u64,
            first_trial: 0,
        })
        .collect();
    let reference = DecodeEngine::with_threads(1).run_batch(&batch);
    for threads in [1usize, 2, 8] {
        let engine = DecodeEngine::with_threads(threads);
        let mut runner = CampaignRunner::new(&engine, jobs(), config());
        assert_eq!(complete(&mut runner), reference, "threads {threads}");
    }
}

#[test]
fn campaign_over_a_sweep_grid_reproduces_its_pinned_results() {
    // The 2 × 2 batch-QECOOL grid at seed 7, 30 shots per point. The
    // pins were recorded with the figure binaries' former grid driver,
    // which ran the same row-major grid as one engine batch on seed
    // stream `di * ps.len() + pi`, so they also pin that the figure
    // grids kept their seeds when they moved onto the campaign runner.
    let cycles = |count, sum, sum_sq, max| CycleAggregate {
        count,
        sum,
        sum_sq,
        max,
    };
    let pinned = [
        (1, 18, cycles(120, 853, 17_981, 56), vec![9, 9]),
        (3, 45, cycles(120, 1_408, 54_284, 89), vec![31, 13, 1]),
        (0, 94, cycles(180, 4_160, 335_246, 250), vec![52, 41, 1]),
        (
            4,
            247,
            cycles(180, 7_836, 1_180_830, 334),
            vec![133, 109, 3, 2],
        ),
    ];
    let jobs = CampaignJob::grid(
        DecoderKind::BatchQecool,
        NoiseSpec::Phenomenological { p: 0.0 },
        &[3, 5],
        &[0.01, 0.03],
        30,
    );
    let mut campaign_config = config();
    campaign_config.base_seed = 7;
    for threads in [1usize, 2] {
        let engine = DecodeEngine::with_threads(threads);
        let mut runner = CampaignRunner::new(&engine, jobs.clone(), campaign_config);
        let results = complete(&mut runner);
        assert_eq!(results.len(), pinned.len());
        for ((job, mc), (failures, matches, layer_cycles, vertical_hist)) in
            jobs.iter().zip(&results).zip(pinned.clone())
        {
            let want = McResult {
                shots: 30,
                failures,
                overflows: 0,
                layer_cycles,
                vertical_hist,
                matches,
            };
            assert_eq!(
                mc,
                &want,
                "threads {threads}, d = {}, p = {}",
                job.trial.d,
                job.trial.p()
            );
        }
    }
}

#[test]
fn resume_after_completion_adds_nothing_and_matches() {
    let engine = DecodeEngine::with_threads(2);
    let path = temp_path("post_complete");
    let _ = fs::remove_file(&path);
    let mut runner = CampaignRunner::new(&engine, jobs(), config()).checkpoint_to(&path);
    let reference = complete(&mut runner);
    let mut resumed =
        CampaignRunner::resume(&engine, jobs(), config(), &path).expect("resume complete run");
    match resumed.run().expect("resumed run") {
        RunOutcome::Complete(report) => {
            assert_eq!(report.chunks_run, 0, "complete campaigns re-run nothing");
            assert_eq!(report.results, reference);
        }
        RunOutcome::Interrupted { .. } => panic!("no interrupt configured"),
    }
    let _ = fs::remove_file(&path);
}
