//! Span self time with nested, adjacent and overlapping children, and the
//! JSONL a trace writes.

use p4lru_benchmark::span::{layer_totals, self_times, Span, Trace};

fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64, ops: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        ops,
    }
}

#[test]
fn self_time_subtracts_adjacent_children() {
    let spans = [
        span(1, 0, "batch", 0, 100, 4),
        span(2, 1, "decode", 10, 30, 4),
        span(3, 1, "probe", 30, 70, 4), // starts where decode ends
    ];
    assert_eq!(self_times(&spans), vec![40, 20, 40]);
}

#[test]
fn self_time_with_nested_children() {
    let spans = [
        span(1, 0, "batch", 0, 100, 1),
        span(2, 1, "shard", 10, 90, 1),
        span(3, 2, "lookup", 20, 50, 1), // grandchild: only shard's loss
    ];
    assert_eq!(self_times(&spans), vec![20, 50, 30]);
}

#[test]
fn overlapping_and_overhanging_children_count_once_inside_the_parent() {
    let spans = [
        span(1, 0, "batch", 100, 200, 1),
        span(2, 1, "a", 90, 150, 1),  // starts before the parent
        span(3, 1, "b", 140, 180, 1), // overlaps a
        span(4, 1, "c", 190, 250, 1), // ends after the parent
    ];
    // Covered: 100..180 and 190..200.
    assert_eq!(self_times(&spans)[0], 10);
}

#[test]
fn layer_totals_sum_self_time_and_ops_by_name() {
    let spans = [
        span(1, 0, "batch", 0, 100, 256),
        span(2, 1, "probe", 0, 40, 200),
        span(3, 0, "batch", 100, 220, 256),
        span(4, 3, "probe", 100, 160, 100),
    ];
    let totals = layer_totals(&spans);
    assert_eq!(totals["probe"].self_ns, 100);
    assert_eq!(totals["probe"].ops, 300);
    assert_eq!(totals["probe"].spans, 2);
    assert_eq!(totals["batch"].self_ns, 60 + 60);
    assert!((totals["probe"].ns_per_op() - 100.0 / 300.0).abs() < 1e-12);
}

#[test]
fn trace_ids_parents_and_jsonl() {
    let mut trace = Trace::new();
    let batch = trace.open(0, "walk.batch", 2);
    let inner = trace.time(batch, "core.probe", 2, || 7);
    assert_eq!(inner, 7);
    trace.close(batch);
    let spans = trace.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].id, spans[0].parent), (1, 0));
    assert_eq!((spans[1].id, spans[1].parent), (2, 1));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let mut out = Vec::new();
    trace.write_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[1].starts_with("{\"id\":2,\"parent\":1,\"name\":\"core.probe\","));
    assert!(lines[1].ends_with(",\"ops\":2}"));
}
