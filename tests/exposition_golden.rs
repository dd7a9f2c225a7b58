//! Pins the observability plane's two external formats against checked-in
//! goldens: a deterministic fixture (two shards with distinct counts, a
//! fired per-shard maximum, tracer off, plus connection / two-loop reactor /
//! follower-cluster sections, and a switch tier) is rendered to Prometheus
//! text and compared **byte for byte**, and to STATS JSON compared
//! semantically (same key set, same values, whatever the key order).
//!
//! `tests/golden/serverd.metrics` is what `p4lru_serverd --metrics-addr`
//! serves, `tests/golden/tierd.metrics` what `p4lru_tierd` serves, and
//! `tests/golden/stats.json` the STATS payload a client reads through the
//! tier. A refactor of the metrics plumbing must leave all three unchanged;
//! a new family is an additions-only diff.

use std::sync::Arc;
use std::time::Duration;

use p4lru::server::metrics::{
    ClusterSnapshot, ConnCounters, ConnSnapshot, LatencySummary, ReactorLoopSnapshot, ShardMetrics,
    StatsReport, TierSnapshot,
};
use p4lru::server::{build_report, render_prometheus, tier_families};
use p4lru::tier::TierCounters;
use p4lru_obs::trace::OpKind;
use p4lru_obs::{Expo, HistSnapshot, ObsConfig, Tracer};

const SERVERD_GOLDEN: &str = include_str!("golden/serverd.metrics");
const TIERD_GOLDEN: &str = include_str!("golden/tierd.metrics");
const STATS_GOLDEN: &str = include_str!("golden/stats.json");

fn repeat(n: usize, f: impl Fn()) {
    (0..n).for_each(|_| f());
}

/// Two shards with distinct counts. Shard 0 holds the slowest fsync and the
/// taller index, shard 1 the deepest batch and the slower recovery, so every
/// max-folded total has a shard to disagree with.
fn shards() -> Vec<Arc<ShardMetrics>> {
    let a = ShardMetrics::default();
    repeat(7, || a.hit());
    repeat(3, || a.miss(4));
    a.index_run(2);
    repeat(2, || a.absent());
    repeat(5, || a.set(2));
    a.del();
    repeat(2, || a.eviction());
    a.store_len_set(1_000);
    a.index_stats(3, 40);
    repeat(6, || a.wal_append());
    a.wal_fsync(Duration::from_nanos(1_500_000));
    a.wal_fsync(Duration::from_nanos(250_000));
    a.snapshot_taken();
    a.recovery(12, true, Duration::from_micros(2_500));
    repeat(3, || a.queue_push());
    a.queue_pop();
    a.batch_committed(2);
    a.batch_committed(4);
    a.record_op_latency(OpKind::Get, 3_000);
    a.record_op_latency(OpKind::Get, 90_000);
    a.record_op_latency(OpKind::Set, 1_200_000);

    let b = ShardMetrics::default();
    repeat(11, || b.hit());
    b.miss(5);
    repeat(2, || b.index_run(6));
    repeat(4, || b.set(0));
    repeat(2, || b.del());
    b.eviction();
    b.store_len_set(750);
    b.index_stats(2, 9);
    repeat(6, || b.wal_append());
    b.wal_fsync(Duration::from_nanos(400_000));
    b.recovery(3, false, Duration::from_micros(9_000));
    b.queue_push();
    b.batch_committed(9);
    b.record_op_latency(OpKind::Get, 5_000);
    b.record_op_latency(OpKind::Del, 700_000);

    vec![Arc::new(a), Arc::new(b)]
}

fn tracer_off() -> Tracer {
    Tracer::new(&ObsConfig {
        enabled: false,
        ..ObsConfig::default()
    })
}

fn conns() -> ConnSnapshot {
    let c = ConnCounters::default();
    repeat(5, || c.opened());
    repeat(2, || c.closed());
    c.rejected();
    c.snapshot("reactor")
}

fn reactor() -> Vec<ReactorLoopSnapshot> {
    vec![
        ReactorLoopSnapshot {
            io_thread: 0,
            turns: 120,
            events: 300,
            wakeups: 45,
            messages: 410,
            connections: 2,
        },
        ReactorLoopSnapshot {
            io_thread: 1,
            turns: 80,
            events: 170,
            wakeups: 31,
            messages: 260,
            connections: 1,
        },
    ]
}

/// A follower's section. The primary-side counters are nonzero too (no real
/// follower ships records): every scalar distinct, so a crossed row cannot
/// hide behind a zero.
fn cluster() -> ClusterSnapshot {
    let mut pull_rtt = HistSnapshot::empty();
    for ns in [300_000, 350_000, 420_000, 2_000_000] {
        pull_rtt.record_ns(ns);
    }
    let mut batch_apply = HistSnapshot::empty();
    batch_apply.record_ns(1_100_000);
    ClusterSnapshot {
        role: "follower".to_string(),
        ack_mode: true,
        primary_addr: "127.0.0.1:4385".to_string(),
        promotions: 0,
        pulls_served: 23,
        records_shipped: 44,
        bytes_shipped: 5_120,
        snapshots_shipped: 3,
        records_applied: 57,
        snapshots_installed: 1,
        pull_rejects: 2,
        ack_timeouts: 4,
        watermarks: vec![41, 16],
        lag_seqs: vec![6, 0],
        lag_bytes: 480,
        pull_age_ms: 12,
        pull_rtt: LatencySummary::from_hist(&pull_rtt),
        batch_apply: LatencySummary::from_hist(&batch_apply),
    }
}

fn tier() -> TierSnapshot {
    let c = TierCounters::default();
    repeat(20, || c.get());
    repeat(9, || c.hit(0));
    repeat(3, || c.hit(1));
    c.hit(2);
    repeat(4, || c.set());
    c.del();
    repeat(12, || c.forward());
    repeat(5, || c.invalidation());
    repeat(7, || c.insert());
    repeat(2, || c.eviction());
    c.stale_drop();
    c.snapshot(3)
}

fn stats_report() -> StatsReport {
    build_report(&shards(), &tracer_off())
        .with_conns(conns())
        .with_reactor(reactor())
        .with_cluster(cluster())
        .with_tier(tier())
}

/// Byte-for-byte comparison against `tests/golden/<file>` that names the
/// first differing line instead of dumping two multi-kilobyte documents, and
/// leaves the rendered text under `target/tmp/` so an intended change (a new
/// family: an additions-only diff) is one `cp` away.
fn assert_same_text(file: &str, actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let rendered = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&rendered, actual).expect("write the rendered document");
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "tests/golden/{file} differs at line {}:\n  rendered: {:?}\n  golden:   {:?}\n\
         rendered document written to {}",
        line + 1,
        actual.lines().nth(line),
        golden.lines().nth(line),
        rendered.display(),
    );
}

/// Orders every object's keys so two trees compare by content alone.
fn sort_keys(v: &mut serde::Value) {
    match v {
        serde::Value::Map(entries) => {
            entries.sort_by(|(a, _), (b, _)| a.cmp(b));
            entries.iter_mut().for_each(|(_, v)| sort_keys(v));
        }
        serde::Value::Seq(items) => items.iter_mut().for_each(sort_keys),
        _ => {}
    }
}

#[test]
fn serverd_metrics_document_matches_the_golden_byte_for_byte() {
    let text = render_prometheus(
        &shards(),
        &tracer_off(),
        Some(&conns()),
        &reactor(),
        Some(&cluster()),
    );
    assert_same_text("serverd.metrics", &text, SERVERD_GOLDEN);
}

#[test]
fn tierd_metrics_document_matches_the_golden_byte_for_byte() {
    let mut e = Expo::new();
    tier_families(&mut e, &tier());
    assert_same_text("tierd.metrics", &e.finish(), TIERD_GOLDEN);
}

#[test]
fn stats_json_matches_the_golden_semantically_and_round_trips() {
    let report = stats_report();
    let json = serde_json::to_string(&report).unwrap();

    // Same key set, same values, key order free.
    let mut actual: serde::Value = serde_json::from_str(&json).unwrap();
    let mut golden: serde::Value = serde_json::from_str(STATS_GOLDEN).unwrap();
    sort_keys(&mut actual);
    sort_keys(&mut golden);
    assert_eq!(
        actual, golden,
        "STATS JSON drifted from tests/golden/stats.json"
    );

    // The wire form round-trips to the typed value, and a payload written
    // by the build that produced the golden still deserializes to it.
    assert_eq!(serde_json::from_str::<StatsReport>(&json).unwrap(), report);
    assert_eq!(
        serde_json::from_str::<StatsReport>(STATS_GOLDEN).unwrap(),
        report
    );
}
