//! Process-level campaign checks against the `sweep` and `table4`
//! binaries: the crash/resume cycle (a deterministic abort and a real
//! SIGKILL) produces byte-identical results files, every
//! corrupt/mismatched-checkpoint failure exits 2 with a named error on
//! stderr (never a silent fresh start), and `table4` prints the same
//! table with or without a checkpoint.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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
fn sigkill_mid_campaign_and_resume_produces_byte_identical_results() {
    // 2 × 3 grid, 120 shots per point at chunk size 16: 48 chunks in
    // rounds of 2.
    let flags = [
        "--shots",
        "120",
        "--threads",
        "2",
        "--seed",
        "2021",
        "--chunk-shots",
        "16",
        "--round-chunks",
        "2",
    ];
    let sweep = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
        cmd.args(flags);
        cmd
    };
    let reference = temp_path("kill9_ref.json");
    let resumed = temp_path("kill9_out.json");
    let checkpoint = temp_path("kill9_cp.json");
    for p in [&reference, &resumed, &checkpoint] {
        let _ = fs::remove_file(p);
    }

    let out = sweep()
        .arg("--results")
        .arg(&reference)
        .output()
        .expect("spawn sweep binary");
    assert!(out.status.success(), "reference run: {}", stderr_of(&out));

    let mut victim = sweep()
        .arg("--checkpoint")
        .arg(&checkpoint)
        .arg("--results")
        .arg(&resumed)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep binary");
    // The runner writes a zero-progress checkpoint before round 1, and
    // every write is an atomic rename, so a non-empty file is whole.
    let deadline = Instant::now() + Duration::from_secs(60);
    while fs::metadata(&checkpoint).map_or(true, |m| m.len() == 0) {
        assert!(Instant::now() < deadline, "no checkpoint within 60 s");
        std::thread::sleep(Duration::from_millis(1));
    }
    victim.kill().expect("SIGKILL the sweep");
    victim.wait().expect("reap the killed sweep");
    // A victim that finished before the kill wrote its results; the
    // resumed run must write them itself.
    let _ = fs::remove_file(&resumed);

    let out = sweep()
        .arg("--checkpoint")
        .arg(&checkpoint)
        .arg("--resume")
        .arg("--results")
        .arg(&resumed)
        .output()
        .expect("spawn sweep binary");
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

    let unwritable = temp_path("missing_dir").join("x.csv");
    let out = sweep(&["--out", unwritable.to_str().unwrap()]);
    assert_exit_2(&out, "cannot write");

    // No binary writes perf records: --json is unknown, and writes
    // nothing.
    let json = temp_path("fig4a.json");
    let _ = fs::remove_file(&json);
    let out = Command::new(env!("CARGO_BIN_EXE_fig4a"))
        .args(["--smoke", "--json"])
        .arg(&json)
        .output()
        .expect("spawn fig4a binary");
    assert_exit_2(&out, "unknown argument: --json");
    assert!(!json.exists(), "fig4a must not create the --json file");
}

#[test]
fn table4_rejects_results_instead_of_writing_nothing() {
    // table4 shares the campaign flag set but has no results JSON to
    // write: --results must be a named exit-2 error, not a silent no-op.
    let results = temp_path("table4_results.json");
    let _ = fs::remove_file(&results);
    let out = Command::new(env!("CARGO_BIN_EXE_table4"))
        .args(["--smoke", "--threads", "2", "--results"])
        .arg(&results)
        .output()
        .expect("spawn table4 binary");
    assert_exit_2(&out, "--results");
    assert!(!results.exists(), "table4 must not create the results file");
}

#[test]
fn help_lists_results_only_for_sweep() {
    let help = |bin: &str| {
        let out = Command::new(bin)
            .arg("--help")
            .output()
            .expect("spawn binary");
        assert!(out.status.success(), "{bin} --help: {}", stderr_of(&out));
        stderr_of(&out) + &String::from_utf8_lossy(&out.stdout)
    };
    let sweep = help(env!("CARGO_BIN_EXE_sweep"));
    assert!(sweep.contains("--results"), "sweep --help:\n{sweep}");
    let table4 = help(env!("CARGO_BIN_EXE_table4"));
    assert!(table4.contains("--checkpoint"), "table4 --help:\n{table4}");
    assert!(!table4.contains("--results"), "table4 --help:\n{table4}");
}

#[test]
fn table4_prints_the_same_table_with_and_without_a_checkpoint() {
    // table4 has one campaign path: a checkpoint only makes it
    // resumable, it never changes the seeds or the result.
    let checkpoint = temp_path("table4_cp.json");
    let _ = fs::remove_file(&checkpoint);
    let table4 = |extra: &[&std::ffi::OsStr]| {
        let out = Command::new(env!("CARGO_BIN_EXE_table4"))
            .args(["--smoke", "--threads", "2"])
            .args(extra)
            .output()
            .expect("spawn table4 binary");
        assert!(out.status.success(), "table4: {}", stderr_of(&out));
        out.stdout
    };
    let plain = table4(&[]);
    let checkpointed = table4(&["--checkpoint".as_ref(), checkpoint.as_os_str()]);
    assert!(
        checkpoint.exists(),
        "table4 --checkpoint wrote no checkpoint"
    );
    assert_eq!(
        String::from_utf8_lossy(&plain),
        String::from_utf8_lossy(&checkpointed)
    );
    let _ = fs::remove_file(&checkpoint);
}
