//! Process-level checks of `service_bench --record` / `--replay`. A
//! recording replays to the recording run's session digest byte for
//! byte, at any shard count: the recording bakes the correction feedback
//! into its planes, so replay must reproduce the serving history. And a
//! hostile `QECPACK1` header — one whose declared planes cannot fit in
//! the file, or whose distance contradicts its detector count — is a
//! named exit-2 error, never an allocation sized from the header.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A per-process scratch path for a `.qecpack` file named `name`.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qecool_replay_cli_{}_{name}.qecpack",
        std::process::id()
    ))
}

/// Runs `service_bench` with `args` and returns the session digest it
/// prints.
fn digest(args: &[&str], file: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_service_bench"))
        .args(args)
        .arg(file)
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

/// Records `service_bench --smoke --threads 2` with `args` and returns
/// the recording's digest and the digests of its replays at `shards`.
fn record_and_replay(args: &[&str], name: &str, shards: &[&str]) -> (String, Vec<String>) {
    let path = temp_path(name);
    let mut record = vec!["--smoke", "--threads", "2"];
    record.extend_from_slice(args);
    record.push("--record");
    let recorded = digest(&record, &path);
    assert!(
        std::fs::metadata(&path).expect("recording written").len() > 0,
        "empty recording"
    );
    let replayed = shards
        .iter()
        .map(|&shards| digest(&["--threads", "2", "--shards", shards, "--replay"], &path))
        .collect();
    std::fs::remove_file(&path).expect("remove recording");
    (recorded, replayed)
}

#[test]
fn replay_reproduces_the_recording_digest_at_1_and_4_shards() {
    let (recorded, replayed) = record_and_replay(&["--seed", "2021"], "smoke", &["1", "4"]);
    assert_eq!(replayed, [recorded.as_str(); 2]);
}

#[test]
fn an_erasure_recording_replays_to_its_own_digest() {
    let (recorded, replayed) = record_and_replay(
        &["--seed", "7", "--noise", "erasure:p=0.01,e=0.02"],
        "erasure",
        &["1"],
    );
    assert_eq!(replayed, [recorded]);
}

/// A 48-byte file: a 40-byte header declaring `distance`, 20 detectors,
/// one round and `streams` streams, followed by one 8-byte plane.
fn hostile_file(distance: u32, streams: u32) -> Vec<u8> {
    let mut file = Vec::with_capacity(48);
    file.extend_from_slice(b"QECPACK1");
    file.extend_from_slice(&distance.to_le_bytes());
    file.extend_from_slice(&20u32.to_le_bytes());
    file.extend_from_slice(&1u64.to_le_bytes());
    file.extend_from_slice(&streams.to_le_bytes());
    file.extend_from_slice(&[0u8; 12]);
    file.extend_from_slice(&[0u8; 8]);
    assert_eq!(file.len(), 48);
    file
}

/// Replays `file` and returns its exit code and stderr.
fn replay(file: &[u8], name: &str) -> (Option<i32>, String) {
    let path = temp_path(name);
    std::fs::write(&path, file).expect("write hostile file");
    let out = Command::new(env!("CARGO_BIN_EXE_service_bench"))
        .args(["--threads", "1", "--replay"])
        .arg(&path)
        .output()
        .expect("spawn service_bench");
    std::fs::remove_file(&path).expect("remove hostile file");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn replay_of_a_header_declaring_more_than_the_file_is_a_named_error() {
    // d = 5 and 2^31 streams: 16 GiB of planes in a 48-byte file.
    let (code, stderr) = replay(&hostile_file(5, 1 << 31), "oversized");
    assert_eq!(code, Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("bad packed syndrome header")
            && stderr.contains("17179869184 bytes declared")
            && stderr.contains("only 8 bytes"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn replay_of_a_distance_above_the_maximum_names_the_file() {
    // A consistent header: d = 257 with its d(d − 1) detectors.
    let distance = 257u32;
    let detectors = distance * (distance - 1);
    let mut file = hostile_file(distance, 1);
    file[12..16].copy_from_slice(&detectors.to_le_bytes());
    file.resize(40 + 8 * detectors.div_ceil(64) as usize, 0);
    let (code, stderr) = replay(&file, "d257");
    assert_eq!(code, Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("--replay ")
            && stderr.contains("code distance must be at most 255, got 257"),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("--d:"), "stderr:\n{stderr}");
}

#[test]
fn replay_of_a_distance_contradicting_its_detectors_is_a_named_error() {
    // Sized from the distance alone, d = 100001 asks for hundreds of GB
    // and d = 2^31 − 1 overflows the capacity computation.
    for distance in [100_001u32, (1 << 31) - 1] {
        let (code, stderr) = replay(&hostile_file(distance, 1), &format!("d{distance}"));
        assert_eq!(code, Some(2), "d = {distance}, stderr:\n{stderr}");
        assert!(
            stderr.contains("bad packed syndrome header")
                && stderr.contains(&format!("distance {distance} has"))
                && stderr.contains("num_detectors is 20"),
            "d = {distance}, stderr:\n{stderr}"
        );
    }
}
