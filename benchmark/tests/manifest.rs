//! `BENCHMARK.json` and the harness must name the same workloads and
//! metrics, with the same units and bounds.

use p4lru_benchmark::report::END_TO_END;
use p4lru_benchmark::tape::WORKLOADS;
use p4lru_benchmark::traced::PER_LAYER;
use serde::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} of {v:?}"))
}

#[test]
fn workloads_match() {
    let m = manifest();
    let listed: Vec<&str> = list(&m, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let built: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, built);
}

#[test]
fn end_to_end_metrics_match() {
    let m = manifest();
    let listed = list(&m, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, (name, unit, higher_better, bound)) in listed.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "unit"), unit, "{name}");
        let better = if higher_better { "higher" } else { "lower" };
        assert_eq!(text(entry, "better"), better, "{name}");
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(bound),
            "{name}"
        );
    }
}

#[test]
fn per_layer_metrics_match() {
    let m = manifest();
    let listed: Vec<(&str, &str)> = list(&m, "per_layer")
        .iter()
        .map(|e| (text(e, "name"), text(e, "unit")))
        .collect();
    assert_eq!(listed, PER_LAYER.to_vec());
}
