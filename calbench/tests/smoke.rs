//! Runs every workload in a short mode through the benchmark's own command
//! (`python3 calbench/run.py`, as `BENCHMARK.json` names it) and checks that
//! the result line carries every catalogued metric with its unit.
//!
//! Run with `cargo test --release --manifest-path calbench/Cargo.toml`.

use ds_passivity_suite::harness::json::{self, Value};
use std::path::Path;
use std::process::Command;

fn catalogue(benchmark: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = benchmark.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let benchmark = json::parse(&text).unwrap();
    let Some(Value::Array(command)) = benchmark.get("command") else {
        panic!("BENCHMARK.json lacks command");
    };
    let command: Vec<&str> = command.iter().map(|c| c.as_str().unwrap()).collect();
    let Some(Value::Array(workloads)) = benchmark.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    for workload in workloads {
        let name = workload.get("name").and_then(Value::as_str).unwrap();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(command[0])
                .args(&command[1..])
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "3",
                    "--seconds",
                    "2",
                    "--trace",
                    trace,
                ])
                .current_dir(root)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = json::parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{name}: no metrics object");
            };
            let expected = catalogue(&benchmark, key);
            assert_eq!(metrics.len(), expected.len(), "{name} --trace {trace}");
            for (metric, unit) in expected {
                let entry = result.get("metrics").and_then(|m| m.get(&metric));
                let entry = entry.unwrap_or_else(|| panic!("{name}: {metric} missing"));
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(unit.as_str())
                );
                assert!(entry.get("value").and_then(Value::as_f64).is_some());
            }
        }
    }
}
