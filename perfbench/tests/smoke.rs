//! Smoke test of the benchmark itself: every workload at tiny scale,
//! untraced and traced, must pass all its output checks and emit exactly
//! the metrics `BENCHMARK.json` names, each with its declared unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "paper-all",
    "store-query",
    "serve-tenants",
    "intercloud-placement",
];

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(x) => *x,
        Value::UInt(x) => *x as f64,
        Value::Int(x) => *x as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
        .expect("BENCHMARK.json parses");
    let Value::Array(items) = field(&doc, list) else {
        panic!("{list} is not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Run one smoke workload; returns the result line's metrics as `name -> (value, unit)`.
fn run(workload: &str, trace: &str) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::parse(last).expect("result line is JSON");
    assert_eq!(
        field(&result, "correct"),
        &Value::Bool(true),
        "{workload}: checks failed"
    );
    assert_eq!(
        number(field(&result, "failed")),
        0.0,
        "{workload}: operations failed"
    );
    assert!(number(field(&result, "attempted")) >= 1.0);
    let Value::Object(metrics) = field(&result, "metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                (
                    number(field(m, "value")),
                    text(field(m, "unit")).to_string(),
                ),
            )
        })
        .collect()
}

fn assert_emits(workload: &str, trace: &str, want: &BTreeMap<String, String>) {
    let got = run(workload, trace);
    let names: Vec<&String> = got.keys().collect();
    assert_eq!(
        names,
        want.keys().collect::<Vec<_>>(),
        "{workload} --trace {trace}: metric names"
    );
    for (name, (value, unit)) in &got {
        assert_eq!(unit, &want[name], "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        assert_emits(w, "0", &want);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let want = declared("per_layer");
    for w in WORKLOADS {
        assert_emits(w, "1", &want);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
