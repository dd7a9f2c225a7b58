//! Turning the server's counters into external formats: the STATS report,
//! the Prometheus `/metrics` document, and the background sampler's JSONL.
//!
//! Everything here reads the same sources — the shards' atomic
//! [`ShardMetrics`] and the [`Tracer`]'s stage histograms — so the three
//! views stay mutually consistent: a `/metrics` scrape and a STATS request
//! at the same instant report the same counters bucket for bucket (the
//! integration tests cross-check them).

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use p4lru_obs::trace::{STAGES, STAGE_NAMES};
use p4lru_obs::{Expo, Tracer};
use serde::{Deserialize, Serialize};

use crate::metrics::{
    ClusterSnapshot, ConnSnapshot, ReactorLoopSnapshot, ShardMetrics, ShardSnapshot, StageSummary,
    StatsReport, TierSnapshot,
};

fn shard_snapshots(metrics: &[Arc<ShardMetrics>]) -> Vec<ShardSnapshot> {
    (0..).zip(metrics).map(|(i, m)| m.snapshot(i)).collect()
}

/// Builds the STATS report: per-shard snapshots, their totals, and — when
/// tracing is on — per-stage duration summaries from the tracer. `decode`
/// is skipped: it is the trace's time origin, so it has no duration.
pub fn build_report(metrics: &[Arc<ShardMetrics>], tracer: &Tracer) -> StatsReport {
    let report = StatsReport::from_shards(shard_snapshots(metrics));
    if !tracer.is_enabled() {
        return report;
    }
    let stages = STAGES[1..]
        .iter()
        .map(|&stage| {
            StageSummary::from_hist(STAGE_NAMES[stage as usize], &tracer.stage_snapshot(stage))
        })
        .collect();
    report.with_stages(stages)
}

/// The per-level breakdown of the tier's hits. Called by the `hits` row of
/// the [`TierSnapshot`] table, so it sits right after `p4lru_tier_hits_total`.
pub(crate) fn tier_level_hits(e: &mut Expo, tiers: &[TierSnapshot]) {
    e.meta(
        "p4lru_tier_level_hits_total",
        "counter",
        "Switch-tier hits by series level (0 = front array).",
    );
    for t in tiers {
        for (level, &hits) in t.level_hits.iter().enumerate() {
            let level = level.to_string();
            e.sample(
                "p4lru_tier_level_hits_total",
                &[("level", &level)],
                hits as f64,
            );
        }
    }
}

/// Emits the switch-tier metric families into an exposition — what the
/// two-tier proxy's own `/metrics` endpoint serves. The table rows come
/// from [`TierSnapshot::families`]; the request total and the two ratios
/// are derived from several rows, so they are written here.
pub fn tier_families(e: &mut Expo, t: &TierSnapshot) {
    e.scalar(
        "p4lru_tier_requests_total",
        "counter",
        "Client requests routed through the switch tier.",
        (t.gets + t.sets + t.dels) as f64,
    );
    TierSnapshot::families(e, std::slice::from_ref(t), None);
    e.scalar(
        "p4lru_tier_hit_rate",
        "gauge",
        "Switch-tier GET hit rate (hits / gets).",
        t.hit_rate,
    );
    e.scalar(
        "p4lru_tier_offload_ratio",
        "gauge",
        "Fraction of all client requests the server never saw.",
        t.offload_ratio,
    );
}

/// Emits the replication/cluster families (`p4lru_cluster_*`,
/// `p4lru_repl_*`): the counter rows of the [`ClusterSnapshot`] table,
/// between the families no row can express. The role is exposed as a pair
/// of labeled 0/1 gauges so a promotion shows up as an edge on both series;
/// watermarks and lag are per-shard gauges; the two timings are histograms.
pub fn cluster_families(e: &mut Expo, c: &ClusterSnapshot) {
    e.meta(
        "p4lru_cluster_role",
        "gauge",
        "Current replication role (1 on the matching label).",
    );
    for role in ["primary", "follower"] {
        let on = if c.role == role { 1.0 } else { 0.0 };
        e.sample("p4lru_cluster_role", &[("role", role)], on);
    }
    e.scalar(
        "p4lru_cluster_ack_mode",
        "gauge",
        "1 when mutation acks wait for the replicated watermark.",
        if c.ack_mode { 1.0 } else { 0.0 },
    );
    ClusterSnapshot::families(e, std::slice::from_ref(c), None);
    e.meta(
        "p4lru_cluster_watermark",
        "gauge",
        "Per-shard replication watermark (durable on primary, applied on follower).",
    );
    for (shard, &seq) in c.watermarks.iter().enumerate() {
        let shard = shard.to_string();
        e.sample("p4lru_cluster_watermark", &[("shard", &shard)], seq as f64);
    }
    e.meta(
        "p4lru_repl_lag_seqs",
        "gauge",
        "Per-shard replication lag in sequence numbers (follower side; 0 when caught up).",
    );
    for (shard, &lag) in c.lag_seqs.iter().enumerate() {
        let shard = shard.to_string();
        e.sample("p4lru_repl_lag_seqs", &[("shard", &shard)], lag as f64);
    }
    e.scalar(
        "p4lru_repl_lag_bytes",
        "gauge",
        "Estimated replication lag in WAL bytes (lag times average record size).",
        c.lag_bytes as f64,
    );
    e.scalar(
        "p4lru_repl_pull_age_ms",
        "gauge",
        "Milliseconds since the last completed replication pull round trip.",
        c.pull_age_ms as f64,
    );
    e.meta(
        "p4lru_repl_pull_rtt_seconds",
        "histogram",
        "Round-trip time of replication PULL exchanges.",
    )
    .histogram("p4lru_repl_pull_rtt_seconds", &[], &c.pull_rtt.to_hist());
    e.meta(
        "p4lru_repl_batch_apply_seconds",
        "histogram",
        "Durable-apply time of shipped replication batches.",
    )
    .histogram(
        "p4lru_repl_batch_apply_seconds",
        &[],
        &c.batch_apply.to_hist(),
    );
}

/// Renders the full Prometheus text-format document served at `/metrics`:
/// the shard table's families and request histograms, the tracer families
/// when tracing is on, and — when provided — the connection-accounting,
/// reactor-loop (one sample per I/O thread) and cluster sections.
pub fn render_prometheus(
    metrics: &[Arc<ShardMetrics>],
    tracer: &Tracer,
    conns: Option<&ConnSnapshot>,
    reactor: &[ReactorLoopSnapshot],
    cluster: Option<&ClusterSnapshot>,
) -> String {
    let shards = shard_snapshots(metrics);
    let mut e = Expo::new();

    e.scalar(
        "p4lru_shards",
        "gauge",
        "Number of shards.",
        shards.len() as f64,
    );
    ShardSnapshot::families(&mut e, &shards, Some(("shard", |s| s.shard.to_string())));

    e.meta(
        "p4lru_request_seconds",
        "histogram",
        "Server-side request latency (decode to flush), per shard and op.",
    );
    for s in &shards {
        let shard = s.shard.to_string();
        for (op, summary) in [
            ("get", &s.get_latency),
            ("set", &s.set_latency),
            ("del", &s.del_latency),
        ] {
            e.histogram(
                "p4lru_request_seconds",
                &[("shard", &shard), ("op", op)],
                &summary.to_hist(),
            );
        }
    }

    if tracer.is_enabled() {
        e.meta(
            "p4lru_stage_seconds",
            "histogram",
            "Per-lifecycle-stage duration (time since the previous stage).",
        );
        for &stage in &STAGES[1..] {
            e.histogram(
                "p4lru_stage_seconds",
                &[("stage", STAGE_NAMES[stage as usize])],
                &tracer.stage_snapshot(stage),
            );
        }
        e.scalar(
            "p4lru_traced_requests_total",
            "counter",
            "Requests whose lifecycle trace completed.",
            tracer.finished_count() as f64,
        );
        e.scalar(
            "p4lru_slow_ops_total",
            "counter",
            "Traced requests past the slow-op threshold.",
            tracer.slow_op_count() as f64,
        );
    }

    if let Some(c) = conns {
        ConnSnapshot::families(
            &mut e,
            std::slice::from_ref(c),
            Some(("frontend", |c| c.frontend.clone())),
        );
    }
    // No loops, no families: an absent family reads better than an empty one.
    if !reactor.is_empty() {
        ReactorLoopSnapshot::families(
            &mut e,
            reactor,
            Some(("io_thread", |l| l.io_thread.to_string())),
        );
    }
    if let Some(c) = cluster {
        cluster_families(&mut e, c);
    }

    e.finish()
}

/// One line of the background sampler's JSONL: cumulative totals plus the
/// delta since the previous line (so a plot does not have to difference).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleLine {
    /// 1-based tick number (the shutdown flush reuses the next number).
    pub tick: u64,
    /// Cumulative GETs across shards.
    pub gets: u64,
    /// Cumulative SETs.
    pub sets: u64,
    /// Cumulative DELs.
    pub dels: u64,
    /// Cumulative front-cache hits.
    pub hits: u64,
    /// Cumulative misses.
    pub misses: u64,
    /// Shard-queue depth at sample time (gauge, not differenced).
    pub queue_depth: u64,
    /// Traces finished since startup.
    pub traced: u64,
    /// Slow ops seen since startup.
    pub slow_ops: u64,
    /// Server-side GET p50, microseconds (0 until traced GETs exist).
    pub get_p50_us: f64,
    /// Server-side GET p99, microseconds.
    pub get_p99_us: f64,
    /// GETs since the previous line.
    pub gets_delta: u64,
    /// SETs since the previous line.
    pub sets_delta: u64,
    /// DELs since the previous line.
    pub dels_delta: u64,
    /// Hits since the previous line.
    pub hits_delta: u64,
}

/// Appends one [`SampleLine`] per tick to a JSONL file. Owned by the
/// [`p4lru_obs::Periodic`] thread; a write failure drops that tick only.
pub struct StatsSampler {
    file: File,
    prev: SampleLine,
}

impl std::fmt::Debug for StatsSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsSampler")
            .field("last_tick", &self.prev.tick)
            .finish()
    }
}

impl StatsSampler {
    /// Opens (appending) the JSONL file, creating parent directories.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            file,
            prev: SampleLine::default(),
        })
    }

    /// Takes one sample and appends it as a JSON line.
    pub fn tick(
        &mut self,
        tick: u64,
        metrics: &[Arc<ShardMetrics>],
        tracer: &Tracer,
    ) -> io::Result<()> {
        let report = build_report(metrics, tracer);
        let t = &report.totals;
        let line = SampleLine {
            tick,
            gets: t.gets,
            sets: t.sets,
            dels: t.dels,
            hits: t.hits,
            misses: t.misses,
            queue_depth: t.queue_depth,
            traced: tracer.finished_count(),
            slow_ops: tracer.slow_op_count(),
            get_p50_us: t.get_latency.p50_us,
            get_p99_us: t.get_latency.p99_us,
            gets_delta: t.gets.saturating_sub(self.prev.gets),
            sets_delta: t.sets.saturating_sub(self.prev.sets),
            dels_delta: t.dels.saturating_sub(self.prev.dels),
            hits_delta: t.hits.saturating_sub(self.prev.hits),
        };
        let json = serde_json::to_string(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        self.file.write_all(json.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.prev = line;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LatencySummary;
    use p4lru_obs::trace::{OpKind, Stage};
    use p4lru_obs::ObsConfig;

    fn sources() -> (Vec<Arc<ShardMetrics>>, Tracer) {
        let metrics: Vec<Arc<ShardMetrics>> =
            (0..2).map(|_| Arc::new(ShardMetrics::default())).collect();
        metrics[0].hit();
        metrics[0].miss(2);
        metrics[1].set(1);
        metrics[0].record_op_latency(OpKind::Get, 3_000);
        let tracer = Tracer::new(&ObsConfig::default());
        let mut trace = tracer.start(OpKind::Get, 0);
        tracer.stamp(&mut trace, Stage::Decode);
        tracer.stamp(&mut trace, Stage::Flush);
        tracer.finish(trace).unwrap();
        (metrics, tracer)
    }

    #[test]
    fn report_carries_stage_summaries_when_tracing() {
        let (metrics, tracer) = sources();
        let report = build_report(&metrics, &tracer);
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.totals.gets, 2);
        // Seven summaries: every stage but `decode` (the time origin).
        assert_eq!(report.stages.len(), 7);
        assert_eq!(report.stages[0].stage, "route");
        assert_eq!(report.stages[6].stage, "flush");
        assert!(report.stages.iter().all(|s| s.count == 1));
    }

    #[test]
    fn report_omits_stages_when_tracing_is_off() {
        let (metrics, _) = sources();
        let tracer = Tracer::new(&ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        });
        assert!(build_report(&metrics, &tracer).stages.is_empty());
    }

    #[test]
    fn prometheus_document_covers_counters_gauges_and_histograms() {
        let (metrics, tracer) = sources();
        let text = render_prometheus(&metrics, &tracer, None, &[], None);
        assert!(text.contains("# TYPE p4lru_hits_total counter"));
        assert!(text.contains("p4lru_hits_total{shard=\"0\"} 1\n"));
        assert!(text.contains("p4lru_hits_total{shard=\"1\"} 0\n"));
        assert!(text.contains("p4lru_sets_total{shard=\"1\"} 1\n"));
        assert!(text.contains("# TYPE p4lru_queue_depth gauge"));
        assert!(text.contains("# TYPE p4lru_index_height gauge"));
        assert!(text.contains("# TYPE p4lru_index_descent_hits_total counter"));
        assert!(text.contains("p4lru_index_height{shard=\"0\"} "));
        assert!(text.contains("p4lru_index_descent_hits_total{shard=\"1\"} "));
        assert!(text.contains("# TYPE p4lru_request_seconds histogram"));
        assert!(text.contains("p4lru_request_seconds_count{shard=\"0\",op=\"get\"} 1\n"));
        assert!(text.contains("p4lru_stage_seconds_count{stage=\"flush\"} 1\n"));
        assert!(text.contains("p4lru_traced_requests_total 1\n"));
        assert!(text.contains("p4lru_shards 2\n"));
    }

    #[test]
    fn prometheus_document_drops_tracer_families_when_off() {
        let (metrics, _) = sources();
        let tracer = Tracer::new(&ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        });
        let text = render_prometheus(&metrics, &tracer, None, &[], None);
        assert!(!text.contains("p4lru_stage_seconds"));
        assert!(!text.contains("p4lru_traced_requests_total"));
        assert!(text.contains("p4lru_hits_total{shard=\"0\"} 1\n"));
    }

    #[test]
    fn tier_families_render_when_a_snapshot_is_attached() {
        let (metrics, tracer) = sources();
        let tier = TierSnapshot {
            gets: 100,
            hits: 70,
            level_hits: vec![50, 15, 5],
            misses: 30,
            sets: 20,
            dels: 0,
            forwarded: 50,
            invalidations: 20,
            inserts: 30,
            evictions: 4,
            stale_drops: 2,
            hit_rate: 0.0,
            offload_ratio: 0.0,
        }
        .with_ratios();
        let mut e = Expo::new();
        tier_families(&mut e, &tier);
        let text = render_prometheus(&metrics, &tracer, None, &[], None) + &e.finish();
        assert!(text.contains("# TYPE p4lru_tier_hits_total counter"));
        assert!(text.contains("p4lru_tier_hits_total 70\n"));
        assert!(text.contains("p4lru_tier_requests_total 120\n"));
        assert!(text.contains("p4lru_tier_level_hits_total{level=\"0\"} 50\n"));
        assert!(text.contains("p4lru_tier_level_hits_total{level=\"2\"} 5\n"));
        assert!(text.contains("p4lru_tier_forwarded_total 50\n"));
        assert!(text.contains("p4lru_tier_invalidations_total 20\n"));
        assert!(text.contains("# TYPE p4lru_tier_offload_ratio gauge"));
        // The server families are still there, untouched.
        assert!(text.contains("p4lru_hits_total{shard=\"0\"} 1\n"));
        // And the plain renderer emits no tier families at all.
        assert!(!render_prometheus(&metrics, &tracer, None, &[], None).contains("p4lru_tier_"));
    }

    #[test]
    fn conn_and_reactor_families_render_when_attached() {
        let (metrics, tracer) = sources();
        let conns = ConnSnapshot {
            frontend: "reactor".to_string(),
            current: 11,
            accepted_total: 13,
            rejected_total: 2,
        };
        let loops = vec![
            ReactorLoopSnapshot {
                io_thread: 0,
                turns: 5,
                events: 9,
                wakeups: 3,
                messages: 17,
                connections: 6,
            },
            ReactorLoopSnapshot {
                io_thread: 1,
                turns: 4,
                events: 7,
                wakeups: 2,
                messages: 12,
                connections: 5,
            },
        ];
        let text = render_prometheus(&metrics, &tracer, Some(&conns), &loops, None);
        assert!(text.contains("# TYPE p4lru_connections gauge"));
        assert!(text.contains("p4lru_connections{frontend=\"reactor\"} 11\n"));
        assert!(text.contains("p4lru_connections_total{frontend=\"reactor\"} 13\n"));
        assert!(text.contains("p4lru_conn_rejected_total{frontend=\"reactor\"} 2\n"));
        assert!(text.contains("# TYPE p4lru_reactor_turns_total counter"));
        assert!(text.contains("p4lru_reactor_events_total{io_thread=\"0\"} 9\n"));
        assert!(text.contains("p4lru_reactor_wakeups_total{io_thread=\"1\"} 2\n"));
        assert!(text.contains("p4lru_reactor_messages_total{io_thread=\"0\"} 17\n"));
        assert!(text.contains("p4lru_reactor_connections{io_thread=\"1\"} 5\n"));
        // The shard families are still there, untouched.
        assert!(text.contains("p4lru_hits_total{shard=\"0\"} 1\n"));
        // And without the sections, none of the families appear.
        let bare = render_prometheus(&metrics, &tracer, None, &[], None);
        assert!(!bare.contains("p4lru_connections"));
        assert!(!bare.contains("p4lru_reactor_"));
    }

    #[test]
    fn cluster_families_render_when_a_snapshot_is_attached() {
        let (metrics, tracer) = sources();
        let mut pull_rtt = p4lru_obs::HistSnapshot::empty();
        pull_rtt.buckets[18] = 4; // ~0.3-0.5 ms RTTs
        pull_rtt.count = 4;
        pull_rtt.sum_ns = 1_400_000;
        let cluster = ClusterSnapshot {
            role: "primary".to_string(),
            ack_mode: true,
            primary_addr: String::new(),
            promotions: 1,
            pulls_served: 40,
            records_shipped: 120,
            bytes_shipped: 9_000,
            snapshots_shipped: 2,
            records_applied: 7,
            snapshots_installed: 1,
            pull_rejects: 3,
            ack_timeouts: 5,
            watermarks: vec![120, 0],
            lag_seqs: vec![6, 0],
            lag_bytes: 480,
            pull_age_ms: 12,
            pull_rtt: LatencySummary::from_hist(&pull_rtt),
            batch_apply: LatencySummary::empty(),
        };
        let text = render_prometheus(&metrics, &tracer, None, &[], Some(&cluster));
        assert!(text.contains("# TYPE p4lru_cluster_role gauge"));
        assert!(text.contains("p4lru_cluster_role{role=\"primary\"} 1\n"));
        assert!(text.contains("p4lru_cluster_role{role=\"follower\"} 0\n"));
        assert!(text.contains("p4lru_cluster_ack_mode 1\n"));
        assert!(text.contains("p4lru_cluster_promotions_total 1\n"));
        assert!(text.contains("p4lru_cluster_pulls_served_total 40\n"));
        assert!(text.contains("p4lru_cluster_records_shipped_total 120\n"));
        assert!(text.contains("p4lru_cluster_bytes_shipped_total 9000\n"));
        assert!(text.contains("p4lru_cluster_snapshots_shipped_total 2\n"));
        assert!(text.contains("p4lru_cluster_records_applied_total 7\n"));
        assert!(text.contains("p4lru_cluster_snapshots_installed_total 1\n"));
        assert!(text.contains("p4lru_cluster_pull_rejects_total 3\n"));
        assert!(text.contains("p4lru_cluster_ack_timeouts_total 5\n"));
        assert!(text.contains("p4lru_cluster_watermark{shard=\"0\"} 120\n"));
        assert!(text.contains("p4lru_cluster_watermark{shard=\"1\"} 0\n"));
        // The replication-lag section rides along, whatever the role.
        assert!(text.contains("# TYPE p4lru_repl_lag_seqs gauge"));
        assert!(text.contains("p4lru_repl_lag_seqs{shard=\"0\"} 6\n"));
        assert!(text.contains("p4lru_repl_lag_seqs{shard=\"1\"} 0\n"));
        assert!(text.contains("p4lru_repl_lag_bytes 480\n"));
        assert!(text.contains("p4lru_repl_pull_age_ms 12\n"));
        assert!(text.contains("# TYPE p4lru_repl_pull_rtt_seconds histogram"));
        assert!(text.contains("p4lru_repl_pull_rtt_seconds_count 4\n"));
        assert!(text.contains("p4lru_repl_batch_apply_seconds_count 0\n"));
        // Absent on a standalone server.
        let bare = render_prometheus(&metrics, &tracer, None, &[], None);
        assert!(!bare.contains("p4lru_cluster_"));
        assert!(!bare.contains("p4lru_repl_"));
    }

    #[test]
    fn sampler_appends_jsonl_with_deltas() {
        let (metrics, tracer) = sources();
        let path = std::env::temp_dir().join(format!(
            "p4lru-sampler-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut sampler = StatsSampler::create(&path).unwrap();
        sampler.tick(1, &metrics, &tracer).unwrap();
        metrics[0].hit();
        metrics[0].hit();
        sampler.tick(2, &metrics, &tracer).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<SampleLine> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].tick, 1);
        assert_eq!(lines[0].gets, 2);
        assert_eq!(lines[0].gets_delta, 2, "first delta is from zero");
        assert_eq!(lines[1].gets, 4);
        assert_eq!(lines[1].gets_delta, 2);
        assert_eq!(lines[1].hits_delta, 2);
        assert!(lines[1].gets >= lines[0].gets, "cumulatives are monotone");
        let _ = std::fs::remove_file(&path);
    }
}
