//! Process-level checks of `service_bench --replay` against hostile
//! `QECPACK1` headers: a file whose declared planes cannot fit in it, or
//! whose distance contradicts its detector count, is a named exit-2
//! error, never an allocation sized from the header.

use std::process::Command;

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
    let path = std::env::temp_dir().join(format!(
        "qecool_replay_cli_{}_{name}.qecpack",
        std::process::id()
    ));
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
