//! Smoke test at test scale: every workload runs a short untraced and a
//! short traced run; each must emit every metric `BENCHMARK.json` names,
//! with its unit, and report no failed op. Every `table1` run also checks
//! the pinned Table 1 of its test-scale prefix pipeline.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use xtask::json::{parse_lenient, Value};

const WORKLOADS: [&str; 4] = ["table1", "wire-hot", "wire-cold", "wire-routed"];

fn manifest() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    parse_lenient(&text).expect("BENCHMARK.json is JSON")
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let Some(Value::Arr(items)) = manifest().get(list).cloned() else {
        panic!("BENCHMARK.json lacks {list}")
    };
    items
        .iter()
        .map(|m| {
            let name = str_of(m.get("name").expect("metric name")).to_string();
            (name, str_of(m.get("unit").expect("metric unit")).to_string())
        })
        .collect()
}

/// Runs one workload and returns its parsed result line.
fn run(workload: &str, seconds: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "2021", "--seconds", seconds])
        .args(["--trace", trace, "--scale", "test"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_lenient(last).expect("the result line is JSON")
}

fn assert_complete(workload: &str, result: &Value, expected: &[(String, String)]) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}: {result:?}");
    assert_eq!(result.get("failed"), Some(&Value::Num("0".into())), "{workload}: {result:?}");
    let Some(Value::Obj(metrics)) = result.get("metrics") else { panic!("{workload}: no metrics") };
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        let metric = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(str_of(metric.get("unit").expect("unit")), unit, "{workload}: {name} unit");
        assert!(matches!(metric.get("value"), Some(Value::Num(_))), "{workload}: {name} value");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for workload in WORKLOADS {
        assert_complete(workload, &run(workload, "1", "0"), &expected);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let expected = declared("per_layer");
    for workload in WORKLOADS {
        assert_complete(workload, &run(workload, "1", "1"), &expected);
    }
}
