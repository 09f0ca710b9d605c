//! Process-level campaign checks against the `sweep` binary: the
//! crash/resume cycle produces byte-identical results files, and every
//! corrupt/mismatched-checkpoint failure exits 2 with a named error on
//! stderr (never a silent fresh start). CI's `campaign-smoke` leg
//! repeats the same recipe with a real `kill -9`.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qecool_sweep_cli_{}_{name}", std::process::id()));
    p
}

/// Common fast-but-nontrivial sweep flags: 2 × 3 grid, 16 shots per
/// point at chunk size 4 → 24 chunks total, several rounds of 2.
fn sweep(extra: &[&str]) -> Output {
    let base = [
        "--shots",
        "16",
        "--threads",
        "2",
        "--seed",
        "5",
        "--chunk-shots",
        "4",
        "--round-chunks",
        "2",
    ];
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(base)
        .args(extra)
        .output()
        .expect("spawn sweep binary")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_exit_2(out: &Output, needle: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected exit 2, got {:?}; stderr:\n{}",
        out.status,
        stderr_of(out)
    );
    assert!(
        stderr_of(out).contains(needle),
        "stderr missing {needle:?}:\n{}",
        stderr_of(out)
    );
}

#[test]
fn crash_and_resume_produces_byte_identical_results() {
    let reference = temp_path("ref.json");
    let resumed = temp_path("out.json");
    let checkpoint = temp_path("cp.json");
    for p in [&reference, &resumed, &checkpoint] {
        let _ = fs::remove_file(p);
    }

    let out = sweep(&["--results", reference.to_str().unwrap()]);
    assert!(out.status.success(), "reference run: {}", stderr_of(&out));

    let out = sweep(&[
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--kill-after-chunks",
        "5",
        "--results",
        resumed.to_str().unwrap(),
    ]);
    // --kill-after-chunks aborts the process (SIGABRT stands in for the
    // CI leg's real SIGKILL), so no results file may exist yet.
    assert!(!out.status.success(), "crash run should not exit cleanly");
    assert!(!resumed.exists(), "crashed run must not write results");
    assert!(checkpoint.exists(), "crashed run must leave a checkpoint");

    let out = sweep(&[
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--resume",
        "--results",
        resumed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "resume run: {}", stderr_of(&out));

    let want = fs::read(&reference).expect("reference results");
    let got = fs::read(&resumed).expect("resumed results");
    assert_eq!(got, want, "resumed results differ from uninterrupted run");

    for p in [&reference, &resumed, &checkpoint] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn corrupt_and_mismatched_checkpoints_exit_two_with_named_errors() {
    let checkpoint = temp_path("bad_cp.json");
    let cp = checkpoint.to_str().unwrap();

    // A valid checkpoint to mutate, from a completed run.
    let _ = fs::remove_file(&checkpoint);
    let out = sweep(&["--checkpoint", cp]);
    assert!(out.status.success(), "seed run: {}", stderr_of(&out));
    let good = fs::read_to_string(&checkpoint).expect("read checkpoint");

    // Garbage JSON.
    fs::write(&checkpoint, "definitely not a checkpoint").unwrap();
    assert_exit_2(
        &sweep(&["--checkpoint", cp, "--resume"]),
        "corrupt checkpoint",
    );

    // Truncated (torn) file.
    fs::write(&checkpoint, &good[..good.len() / 2]).unwrap();
    assert_exit_2(
        &sweep(&["--checkpoint", cp, "--resume"]),
        "corrupt checkpoint",
    );

    // Schema version from the future.
    fs::write(
        &checkpoint,
        good.replacen("\"version\":2", "\"version\":42", 1),
    )
    .unwrap();
    assert_exit_2(
        &sweep(&["--checkpoint", cp, "--resume"]),
        "version mismatch",
    );

    // Same file, different campaign: the job-list hash catches a
    // changed per-point quota.
    fs::write(&checkpoint, &good).unwrap();
    assert_exit_2(
        &sweep(&["--checkpoint", cp, "--resume", "--shots", "32"]),
        "job-list mismatch",
    );

    // Same jobs, different scheduling config.
    assert_exit_2(
        &sweep(&["--checkpoint", cp, "--resume", "--chunk-shots", "8"]),
        "config mismatch on 'chunk_shots'",
    );

    // Hostile nesting: a named parse error, not a stack overflow.
    fs::write(&checkpoint, "[".repeat(300_000)).unwrap();
    assert_exit_2(
        &sweep(&["--checkpoint", cp, "--resume"]),
        "nesting deeper than",
    );

    // Missing checkpoint file is an I/O error, not a fresh start.
    let _ = fs::remove_file(&checkpoint);
    assert_exit_2(&sweep(&["--checkpoint", cp, "--resume"]), "I/O error");
}

#[test]
fn bad_campaign_flags_exit_two() {
    let out = sweep(&["--resume"]);
    assert_exit_2(&out, "--resume needs --checkpoint");

    let out = sweep(&["--target-ci", "1.5"]);
    assert_exit_2(&out, "--target-ci");

    let out = sweep(&["--chunk-shots", "0"]);
    assert_exit_2(&out, "--chunk-shots must be >= 1");
}
