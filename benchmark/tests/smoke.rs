//! Runs every workload in quick mode, untraced and traced, and checks that
//! what the benchmark prints is exactly what `BENCHMARK.json` declares.

use std::process::Command;

use tcd_benchmark::json::{self, Json};
use tcd_benchmark::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use tcd_benchmark::scripts::WORKLOADS;

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing \"{key}\""))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The declarations of one section must equal the in-code table, in order.
fn assert_section(doc: &Json, section: &str, table: &[Metric]) {
    let entries = doc
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no {section}"));
    assert_eq!(
        entries.len(),
        table.len(),
        "{section}: count differs from src/metrics.rs"
    );
    for (e, m) in entries.iter().zip(table) {
        assert!(valid_name(m.name), "bad metric name {}", m.name);
        assert_eq!(field(e, "name"), m.name, "{section}: order or name differs");
        assert_eq!(field(e, "unit"), m.unit, "{}: unit", m.name);
        let better = if m.better == Better::Lower {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(field(e, "better"), better, "{}: better", m.name);
        assert_eq!(
            e.get("bound").and_then(Json::as_f64),
            m.bound,
            "{}: bound",
            m.name
        );
    }
}

#[test]
fn declarations_match_the_metric_table() {
    let doc = declared();
    assert_section(&doc, "end_to_end", &END_TO_END);
    assert_section(&doc, "per_layer", &PER_LAYER);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Runs one workload in quick mode; returns the metric names it printed.
fn quick_run(workload: &str, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_tcd-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    for (name, m) in metrics {
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name}: no value"));
        assert!(v.is_finite(), "{name} is not finite");
    }
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

fn names(table: &[Metric]) -> Vec<String> {
    table.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    for w in WORKLOADS {
        assert_eq!(
            quick_run(w, false),
            names(&END_TO_END),
            "{w}: end-to-end names"
        );
        assert_eq!(
            quick_run(w, true),
            names(&PER_LAYER),
            "{w}: per-layer names"
        );
    }
}
