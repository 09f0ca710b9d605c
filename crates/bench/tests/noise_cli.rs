//! Process-level checks of `sweep --noise`: every noise family runs
//! green at smoke shots and names itself in the results file, repeats
//! byte for byte, and changes the sampled physics (no two families
//! produce the same measured points). A malformed spec is a named
//! exit-2 error, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

const FAMILIES: [&str; 5] = [
    "phenomenological",
    "asymmetric",
    "biased",
    "erasure",
    "burst",
];

/// A per-process scratch path for the results file `name`.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qecool_noise_cli_{}_{name}.json",
        std::process::id()
    ))
}

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("spawn sweep binary")
}

/// Runs the smoke sweep under `--noise family` and returns its results
/// file.
fn results(family: &str, run: &str) -> String {
    let path = temp_path(&format!("{family}_{run}"));
    let file = path.to_str().expect("utf-8 temp path");
    let out = sweep(&[
        "--smoke",
        "--threads",
        "2",
        "--seed",
        "2021",
        "--noise",
        family,
        "--results",
        file,
    ]);
    assert!(
        out.status.success(),
        "sweep --noise {family} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("results written");
    std::fs::remove_file(&path).expect("remove results");
    json
}

#[test]
fn every_family_is_deterministic_named_and_distinct() {
    let mut points = Vec::new();
    for family in FAMILIES {
        let json = results(family, "a");
        assert_eq!(
            json,
            results(family, "b"),
            "{family} sweep is nondeterministic"
        );
        assert!(
            json.contains(&format!("\"noise_family\":\"{family}\"")),
            "{family} results do not name their family:\n{json}"
        );
        // Distinctness is judged on the measured points alone, so a
        // family that only changed its label would still be caught.
        let at = json.find("\"points\":").expect("results carry points");
        points.push((family, json[at..].to_owned()));
    }
    for (i, (a, pa)) in points.iter().enumerate() {
        for (b, pb) in &points[i + 1..] {
            assert_ne!(pa, pb, "families {a} and {b} produced identical points");
        }
    }
}

#[test]
fn an_out_of_range_rate_is_a_named_exit_2_error() {
    let out = sweep(&["--smoke", "--noise", "burst:p=2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("out of"), "stderr:\n{stderr}");
}
