//! The benchmark's own test: every workload of `BENCHMARK.json`, at minimal
//! length, in the end-to-end and the traced mode.  Each run must pass its
//! verification and report exactly the metrics the contract names, each
//! with its unit.

use serde_json::Value;
use std::process::Command;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(contract: &Value, section: &str) -> Vec<(String, String)> {
    contract[section]
        .as_array()
        .unwrap_or_else(|| panic!("{section} is a list"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("metric name").to_string(),
                m["unit"].as_str().expect("metric unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_verifies_and_reports_every_metric() {
    let contract = contract();
    let workloads: Vec<String> = contract["workloads"]
        .as_array()
        .expect("workloads is a list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name").to_string())
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
                .args(["--trace", trace])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let context = format!(
                "{workload} --trace {trace}\nstdout:\n{stdout}\nstderr:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(output.status.success(), "exit status: {context}");
            assert!(
                stdout.lines().any(|l| l.starts_with("# verify: passed")),
                "verification did not run and pass: {context}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
            assert_eq!(keys.len(), 4, "{context}");
            assert_eq!(result["correct"].as_bool(), Some(true), "{context}");
            assert!(result["attempted"].as_u64().unwrap_or(0) >= 1, "{context}");
            assert!(result["failed"].as_u64().is_some(), "{context}");
            let metrics = result["metrics"].as_object().expect("a metrics object");
            let expected = names_and_units(&contract, section);
            assert_eq!(metrics.len(), expected.len(), "metric count: {context}");
            for (name, unit) in expected {
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing: {context}"));
                assert_eq!(metric["unit"].as_str(), Some(unit.as_str()), "{name}");
                let value = metric["value"].as_f64().expect("a numeric value");
                assert!(value.is_finite(), "{name} = {value}");
            }
        }
    }
}

#[test]
fn a_bad_invocation_fails_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
