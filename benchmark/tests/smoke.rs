//! One `--quick` run of the whole suite through `benchmark/run.sh`: every
//! workload and metric `BENCHMARK.json` names must come out in
//! `out/results.json`, by that name and with that unit.

use std::path::Path;
use std::process::Command;

use icd_benchmark::json::Json;

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `pass` holds exactly the metrics `wanted` names, each with its unit.
fn assert_metrics(workload: &str, pass: &Json, wanted: &[(String, String)]) {
    let metrics = pass
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    for (name, unit) in wanted {
        let metric = metrics
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("{workload}: no metric {name}"));
        assert_eq!(
            metric.1.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload} {name}"
        );
        assert!(
            metric.1.get("value").and_then(Json::as_f64).is_some(),
            "{workload} {name}"
        );
    }
    assert_eq!(
        metrics.len(),
        wanted.len(),
        "{workload}: metrics BENCHMARK.json does not name"
    );
    assert_eq!(
        pass.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
}

#[test]
fn quick_suite_reports_every_metric_benchmark_json_names() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = package.parent().expect("repo root");
    let run = Command::new("bash")
        .arg(package.join("run.sh"))
        .args(["--quick", "--seed", "5"])
        .output()
        .expect("run benchmark/run.sh");
    assert!(
        run.status.success(),
        "quick suite ended with {}:\n{}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let benchmark = read_json(&root.join("BENCHMARK.json"));
    let end_to_end = names_and_units(benchmark.get("end_to_end").expect("end_to_end"));
    let per_layer = names_and_units(benchmark.get("per_layer").expect("per_layer"));
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(well_formed(name), "metric name {name:?}");
    }

    let results = read_json(&package.join("out").join("results.json"));
    assert_eq!(
        results.get("meta").and_then(|m| m.get("quick")),
        Some(&Json::Bool(true))
    );
    let rows = results
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    let listed = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(rows.len(), listed.len());
    for (row, listed) in rows.iter().zip(listed) {
        let name = listed
            .get("name")
            .and_then(Json::as_str)
            .expect("workload name");
        assert!(well_formed(name), "workload name {name:?}");
        assert_eq!(row.get("name").and_then(Json::as_str), Some(name));
        assert_metrics(
            name,
            row.get("untraced").expect("untraced pass"),
            &end_to_end,
        );
        assert_metrics(name, row.get("traced").expect("traced pass"), &per_layer);
        let overhead = row.get("obs.span_overhead_share").expect("span overhead");
        assert_eq!(overhead.get("unit").and_then(Json::as_str), Some("ratio"));
    }
}
