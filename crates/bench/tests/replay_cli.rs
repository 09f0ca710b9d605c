//! Process-level check of `service_bench --replay` against a hostile
//! `QECPACK1` header: a file whose declared planes cannot fit in it is a
//! named exit-2 error, never an allocation sized from the header.

use std::process::Command;

#[test]
fn replay_of_a_header_declaring_more_than_the_file_is_a_named_error() {
    // 40-byte header + one 8-byte plane, declaring d = 5, 20 detectors,
    // 1 round and 2^31 streams: 16 GiB of planes in a 48-byte file.
    let mut file = Vec::with_capacity(48);
    file.extend_from_slice(b"QECPACK1");
    file.extend_from_slice(&5u32.to_le_bytes());
    file.extend_from_slice(&20u32.to_le_bytes());
    file.extend_from_slice(&1u64.to_le_bytes());
    file.extend_from_slice(&(1u32 << 31).to_le_bytes());
    file.extend_from_slice(&[0u8; 12]);
    file.extend_from_slice(&[0u8; 8]);
    assert_eq!(file.len(), 48);
    let path = std::env::temp_dir().join(format!(
        "qecool_replay_cli_{}_hostile.qecpack",
        std::process::id()
    ));
    std::fs::write(&path, &file).expect("write hostile file");

    let out = Command::new(env!("CARGO_BIN_EXE_service_bench"))
        .args(["--threads", "1", "--replay"])
        .arg(&path)
        .output()
        .expect("spawn service_bench");
    std::fs::remove_file(&path).expect("remove hostile file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("bad packed syndrome header")
            && stderr.contains("17179869184 bytes declared")
            && stderr.contains("only 8 bytes"),
        "stderr:\n{stderr}"
    );
}
