//! Process-level telemetry checks against the `service_bench` binary:
//! a serve with metrics enabled emits a Prometheus snapshot and a
//! flat-JSON snapshot whose core series are present and non-zero, the
//! `--metrics -` stdout target works, and enabling telemetry never moves
//! the session digest at any shard count (telemetry is observational
//! only).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// The series every metrics-enabled serve must export with a non-zero
/// total.
const CORE_SERIES: [&str; 5] = [
    "qecool_shard_enqueued_total",
    "qecool_service_ingest_total",
    "qecool_service_rounds_decoded_total",
    "qecool_pool_steals_total",
    "qecool_sessions_opened_total",
];

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qecool_metrics_cli_{}_{name}", std::process::id()));
    p
}

/// Runs `service_bench --smoke --threads 2 --seed 2021` with `args` and
/// returns its stdout.
fn serve(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_service_bench"))
        .args(["--smoke", "--threads", "2", "--seed", "2021"])
        .args(args)
        .output()
        .expect("spawn service_bench");
    assert!(
        out.status.success(),
        "service_bench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The session digest a serve prints.
fn digest(args: &[&str]) -> String {
    let stdout = serve(args);
    stdout
        .lines()
        .find_map(|line| line.strip_prefix("session digest"))
        .map(|rest| rest.trim().to_owned())
        .filter(|digest| !digest.is_empty())
        .unwrap_or_else(|| panic!("no session digest in:\n{stdout}"))
}

/// Sum of every sample of `series` (bare or labelled) in a Prometheus
/// text snapshot, or `None` when the series is absent.
fn series_total(prom: &str, series: &str) -> Option<f64> {
    let mut total = None;
    for line in prom.lines() {
        let mut fields = line.split_whitespace();
        let (Some(name), Some(value)) = (fields.next(), fields.next()) else {
            continue;
        };
        let labelled = name
            .strip_prefix(series)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'));
        if labelled {
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("bad sample {line:?}"));
            *total.get_or_insert(0.0) += value;
        }
    }
    total
}

#[test]
fn metrics_snapshots_carry_every_core_series() {
    let prom_path = temp_path("metrics.prom");
    let json_path = temp_path("metrics.json");
    // 64 sessions over 200 rounds: at the 8-session smoke size a pool
    // worker may not wake before the pump caller has drained every
    // session, so `qecool_pool_steals_total` can truly be 0.
    serve(&[
        "--sessions",
        "64",
        "--rounds",
        "200",
        "--metrics",
        prom_path.to_str().unwrap(),
        "--metrics-json",
        json_path.to_str().unwrap(),
    ]);
    let prom = fs::read_to_string(&prom_path).expect("Prometheus snapshot");
    let json = fs::read_to_string(&json_path).expect("JSON snapshot");
    for p in [&prom_path, &json_path] {
        let _ = fs::remove_file(p);
    }
    for series in CORE_SERIES {
        match series_total(&prom, series) {
            None => panic!("missing {series} in:\n{prom}"),
            Some(total) => assert!(total > 0.0, "{series} is zero in:\n{prom}"),
        }
    }
    assert!(
        json.contains(r#""name": "qecool_telemetry""#),
        "no qecool_telemetry record in:\n{json}"
    );
}

#[test]
fn metrics_stdout_target_prints_the_snapshot() {
    let stdout = serve(&["--metrics", "-"]);
    assert!(
        stdout
            .lines()
            .any(|line| line.starts_with("qecool_shard_enqueued_total")),
        "no snapshot on stdout:\n{stdout}"
    );
}

#[test]
fn telemetry_never_moves_the_session_digest() {
    let reference = digest(&[]);
    for shards in ["1", "2", "4"] {
        let prom_path = temp_path(&format!("digest_{shards}.prom"));
        let got = digest(&["--shards", shards, "--metrics", prom_path.to_str().unwrap()]);
        let _ = fs::remove_file(&prom_path);
        assert_eq!(
            got, reference,
            "telemetry moved the digest at {shards} shards"
        );
    }
}
