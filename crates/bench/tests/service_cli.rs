//! Process-level determinism matrices against the `service_bench`
//! binary: the session digest (corrections and per-poll commit
//! watermarks of every session) must not depend on the worker count or
//! the shard count. The in-process matrices in `tests/determinism.rs`
//! cover the library; these hold the binary to the same contract end to
//! end, with its flag parsing and worker-pool sizing in the loop.

use std::process::Command;

/// Runs `service_bench --smoke --seed 2021` with `args` and returns the
/// session digest it prints.
fn digest(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_service_bench"))
        .args(["--smoke", "--seed", "2021"])
        .args(args)
        .output()
        .expect("spawn service_bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "service_bench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|line| line.strip_prefix("session digest"))
        .map(|rest| rest.trim().to_owned())
        .filter(|digest| !digest.is_empty())
        .unwrap_or_else(|| panic!("no session digest in:\n{stdout}"))
}

/// Asserts every run of `grid` prints the same digest.
fn assert_one_digest(grid: &[Vec<&str>]) {
    let reference = digest(&grid[0]);
    for args in &grid[1..] {
        assert_eq!(
            digest(args),
            reference,
            "{args:?} diverged from {:?}",
            grid[0]
        );
    }
}

#[test]
fn sharded_qecool_digest_is_shard_count_invariant() {
    let grid: Vec<Vec<&str>> = ["1", "2", "4"]
        .into_iter()
        .map(|shards| vec!["--threads", "2", "--shards", shards])
        .collect();
    assert_one_digest(&grid);
}

#[test]
fn windowed_uf_digest_is_worker_and_shard_count_invariant() {
    for (window, stride) in [("9", "3"), ("15", "5")] {
        let mut grid = Vec::new();
        for threads in ["1", "2", "8"] {
            for shards in ["1", "2", "4"] {
                grid.push(vec![
                    "--backend",
                    "uf",
                    "--window",
                    window,
                    "--stride",
                    stride,
                    "--threads",
                    threads,
                    "--shards",
                    shards,
                ]);
            }
        }
        assert_one_digest(&grid);
    }
}

#[test]
fn windowed_mwpm_digest_is_worker_count_invariant() {
    let grid: Vec<Vec<&str>> = ["1", "2", "8"]
        .into_iter()
        .map(|threads| {
            vec![
                "--backend",
                "mwpm",
                "--window",
                "9",
                "--stride",
                "3",
                "--threads",
                threads,
                "--shards",
                "2",
            ]
        })
        .collect();
    assert_one_digest(&grid);
}

/// Runs `service_bench --smoke` with `args` and asserts it exits 2
/// before serving, with `needle` in its error message.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_service_bench"))
        .arg("--smoke")
        .args(args)
        .output()
        .expect("spawn service_bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}, stderr:\n{stderr}");
    assert!(stderr.contains(needle), "{args:?}, stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: rejected before serving");
}

#[test]
fn a_distance_above_the_maximum_is_a_named_error() {
    // d = 99999 once asked the lattice tables for 240 GB and aborted.
    for d in ["99999", "257"] {
        assert_rejected(
            &["--d", d],
            &format!("--d: code distance must be at most 255, got {d}"),
        );
    }
}

#[test]
fn flags_that_would_be_ignored_are_named_errors() {
    // There is no perf-record output: --json is an unknown argument and
    // writes nothing.
    let json = std::env::temp_dir().join(format!("qecool_service_cli_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&json);
    assert_rejected(
        &["--json", json.to_str().unwrap()],
        "unknown argument: --json",
    );
    assert!(!json.exists(), "--json must not create its file");
    // QECOOL commits incrementally: a window geometry would be ignored.
    for args in [
        &["--window", "27", "--stride", "9"][..],
        &["--window", "27"],
        &["--stride", "9"],
        &["--backend", "qecool", "--window", "27"],
    ] {
        assert_rejected(args, "--window/--stride");
    }
}

#[test]
fn a_clock_with_no_cycle_per_round_is_a_named_error() {
    // 1e-30 GHz once served with a 0-cycle budget: every session
    // overflowed and the run still exited 0.
    for ghz in ["1e-30", "0.0004"] {
        assert_rejected(&["--ghz", ghz], "0 decode cycles per measurement round");
    }
    // One cycle per round is a tiny budget, but a real one.
    digest(&["--ghz", "0.001"]);
}
