//! The perf gate's floors file (`perf_floors.json`, read by
//! `ci/perfbench_gate.sh`) against the benchmark it floors
//! (`BENCHMARK.json`): every floor must name a real workload and a real
//! "higher is better" metric, and be a usable bound. A floor that is 0,
//! negative or not finite would pass every run, and a floor on a metric
//! perfbench does not report would fail every run for the wrong reason.

use qecool_repro::decoder::json::Json;

fn load(file: &str) -> Json {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// The `better` direction of `metric` in the benchmark's metric lists.
fn better(spec: &Json, metric: &str) -> Option<String> {
    ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|list| spec.get(list).and_then(Json::as_arr).unwrap_or(&[]))
        .find(|entry| entry.get("name").and_then(Json::as_str) == Some(metric))
        .and_then(|entry| entry.get("better").and_then(Json::as_str))
        .map(str::to_owned)
}

#[test]
fn every_floor_bounds_a_higher_is_better_benchmark_metric() {
    let spec = load("BENCHMARK.json");
    let floors = load("perf_floors.json");
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists its workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let floors = floors.as_obj().expect("perf_floors.json is an object");
    for (workload, metrics) in floors {
        assert!(
            workloads.contains(&workload.as_str()),
            "{workload} is not a workload of BENCHMARK.json"
        );
        let metrics = metrics
            .as_obj()
            .unwrap_or_else(|| panic!("{workload}: floors must be an object"));
        for (metric, floor) in metrics {
            assert_eq!(
                better(&spec, metric).as_deref(),
                Some("higher"),
                "{workload} {metric}: not a \"higher is better\" metric of BENCHMARK.json"
            );
            let floor = floor.as_f64().unwrap_or_else(|| {
                panic!("{workload} {metric}: floor is not a number");
            });
            assert!(
                floor.is_finite() && floor > 0.0,
                "{workload} {metric}: floor {floor} must be finite and above 0"
            );
        }
    }
    for workload in workloads {
        let metrics = floors
            .iter()
            .find(|(name, _)| name == workload)
            .and_then(|(_, m)| m.as_obj())
            .unwrap_or_else(|| panic!("{workload} has no floors"));
        assert!(
            metrics
                .iter()
                .any(|(metric, _)| metric == "rounds_per_s" || metric == "shots_per_s"),
            "{workload} has no throughput floor"
        );
    }
}

#[test]
fn the_telemetry_floor_stays_at_ninety_percent() {
    let floors = load("perf_floors.json");
    let ratio = floors
        .get("serve_qecool_d5")
        .and_then(|w| w.get("obs.telemetry_ratio"))
        .and_then(Json::as_f64);
    assert_eq!(ratio, Some(0.90), "serve_qecool_d5 obs.telemetry_ratio");
}
