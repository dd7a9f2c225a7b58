//! Every metric set of the serving stack, one [`metric_set!`] table each:
//! the lock-free atomic counters readable by any thread (STATS never has to
//! take a shard's lock), the snapshot structs STATS
//! carries, the cross-shard totals fold and the `/metrics` families all
//! come from the same rows. The families that do not fit a row — label
//! pairs, per-level and per-shard vectors, histograms, derived ratios —
//! are plain `Expo` code in [`crate::expose`].

use std::sync::atomic::{AtomicU64, Ordering};

use p4lru_obs::hist::HistSnapshot;
use p4lru_obs::metric_set;
use p4lru_obs::trace::{OpKind, NUM_OPS};
use p4lru_obs::AtomicHistogram;
use serde::{Deserialize, Serialize};

/// A relaxed add: a statistic publishes no other data.
fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// `num / den`, reading 0 while nothing has been counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

metric_set! {
    atomics
    /// Atomic hit/miss/slow-path counters owned by one shard, shared via
    /// `Arc` with whoever serves STATS.
    #[derive(Debug, Default)]
    pub struct ShardMetrics {
        /// Server-side end-to-end latency (decode → flush) per op-type, fed
        /// by the span tracer when a traced request's response hits the
        /// wire. Indexed by `OpKind as usize`.
        pub op_latency: [AtomicHistogram; NUM_OPS],
    }

    snapshot
    /// A point-in-time copy of one shard's counters, as served by STATS.
    #[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
    pub struct ShardSnapshot {
        /// Shard index (in totals: the shard count).
        pub shard: u64,
        /// Total GETs (= hits + misses + absent).
        pub gets: u64,
        /// hits / gets (0 when no GETs yet).
        pub hit_rate: f64,
        /// Mean replies released per commit (`batch_ops / batches`): the
        /// number group commit amortizes one fsync by. Volatile shards
        /// never commit.
        pub batch_mean: f64,
        /// Server-side GET latency (decode → flush), traced requests only.
        pub get_latency: LatencySummary,
        /// Server-side SET latency (decode → flush), traced requests only.
        pub set_latency: LatencySummary,
        /// Server-side DEL latency (decode → flush), traced requests only.
        pub del_latency: LatencySummary,
    }

    rows {
        hits: Sum, counter, "p4lru_hits_total", "GETs answered from the front cache.";
        /// The key is present; its address was not cached.
        misses: Sum, counter, "p4lru_misses_total", "GETs that walked the backing index.";
        absent: Sum, counter, "p4lru_absent_total", "GETs for keys not in the backing store.";
        sets: Sum, counter, "p4lru_sets_total", "SETs applied.";
        /// Counted whether or not the key existed.
        dels: Sum, counter, "p4lru_dels_total", "DELs applied.";
        evictions: Sum, counter, "p4lru_evictions_total", "Front-cache entries evicted.";
        /// Slow paths are misses and new-key SETs.
        index_visits: Sum, counter, "p4lru_index_visits_total",
            "B+Tree nodes visited on slow paths.";
        /// The per-lookup cost a cached address lets the shard skip. Max
        /// across shards: the indexes are siblings, not stacked, so "how
        /// deep is a miss" is the tallest one.
        index_height: Max, gauge, "p4lru_index_height",
            "Current B+Tree height of the backing index.";
        /// A descent-cache hit costs ~1 node visit instead of a full walk.
        index_descent_hits: Sum, counter, "p4lru_index_descent_hits_total",
            "Index lookups answered by the B+Tree descent cache.";
        /// A GET run resolves its front-cache misses together when it has
        /// two or more; keys per run is `index_run_keys / index_runs`.
        index_runs: Sum, counter, "p4lru_index_runs_total",
            "GET runs whose front-cache misses shared one interleaved B+Tree descent.";
        index_run_keys: Sum, counter, "p4lru_index_run_keys_total",
            "Keys resolved by interleaved B+Tree descents.";
        /// 0 when the shard runs without durability.
        wal_appends: Sum, counter, "p4lru_wal_appends_total", "WAL records appended.";
        wal_fsyncs: Sum, counter, "p4lru_wal_fsyncs_total", "WAL fsyncs issued (group commit).";
        wal_fsync_ns: Sum, counter, "p4lru_wal_fsync_seconds_total" / 1e9,
            "Total time spent in WAL fsyncs.";
        wal_fsync_max_ns: Max, gauge, "p4lru_wal_fsync_max_seconds" / 1e9,
            "Slowest single WAL fsync since startup.";
        snapshots: Sum, counter, "p4lru_snapshots_total", "Snapshots sealed since startup.";
        /// At most one fsync per batch.
        batches: Sum, counter, "p4lru_commit_batches_total",
            "Commit batches run (one group commit each).";
        batch_ops: Sum, counter, "p4lru_commit_batch_ops_total",
            "Requests covered by commit batches.";
        batch_max: Max, gauge, "p4lru_commit_batch_max",
            "Deepest single commit batch since startup.";
        store_len: Sum, gauge, "p4lru_store_len", "Records currently in the backing store.";
        /// A reactor loop increments when it holds a reply at the commit
        /// gate, the commit thread decrements on release (saturating — see
        /// `queue_pop`). Pipelining is what makes this exceed the
        /// connection count.
        queue_depth: Sum, gauge, "p4lru_queue_depth",
            "Replies held at the commit gate until the commit that covers them.";
        /// 0 when the shard started fresh. Max across shards, not the sum:
        /// shards recover independently (in parallel at startup), so the
        /// slowest shard is the recovery wall time and a sum would inflate
        /// it by the shard count.
        recovery_us: Max, gauge, "p4lru_recovery_seconds" / 1e6,
            "Wall time of the last startup recovery.";
        recovery_replayed: Sum, gauge, "p4lru_recovery_replayed",
            "WAL records replayed by the last startup recovery.";
        /// Stays a Sum: each shard contributes 0 or 1, making the total the
        /// count of torn shards.
        recovery_torn: Sum, gauge, "p4lru_recovery_torn",
            "1 if the last recovery skipped a torn final WAL record.";
    }
}

impl ShardMetrics {
    /// Records a cache hit.
    pub fn hit(&self) {
        bump(&self.hits, 1);
    }

    /// Records a cache miss that cost `index_visits` node visits.
    pub fn miss(&self, index_visits: usize) {
        bump(&self.misses, 1);
        bump(&self.index_visits, index_visits as u64);
    }

    /// Records one interleaved index descent that resolved `keys` keys.
    pub fn index_run(&self, keys: usize) {
        bump(&self.index_runs, 1);
        bump(&self.index_run_keys, keys as u64);
    }

    /// Records a GET for an absent key.
    pub fn absent(&self) {
        bump(&self.absent, 1);
    }

    /// Records a SET that cost `index_visits` node visits (0 when the key
    /// already existed and its address was reused in place).
    pub fn set(&self, index_visits: usize) {
        bump(&self.sets, 1);
        bump(&self.index_visits, index_visits as u64);
    }

    /// Records a DEL.
    pub fn del(&self) {
        bump(&self.dels, 1);
    }

    /// Records a cache eviction.
    pub fn eviction(&self) {
        bump(&self.evictions, 1);
    }

    /// Updates the backing-store size gauge.
    pub fn store_len_set(&self, len: usize) {
        self.store_len.store(len as u64, Ordering::Relaxed);
    }

    /// Updates the index gauges: current tree height and the cumulative
    /// descent-cache hit count (both read straight off the database after
    /// an operation touched the index).
    pub fn index_stats(&self, height: usize, descent_hits: u64) {
        self.index_height.store(height as u64, Ordering::Relaxed);
        self.index_descent_hits
            .store(descent_hits, Ordering::Relaxed);
    }

    /// Records one WAL append.
    pub fn wal_append(&self) {
        bump(&self.wal_appends, 1);
    }

    /// Records one WAL fsync and how long it took.
    pub fn wal_fsync(&self, took: std::time::Duration) {
        let ns = took.as_nanos() as u64;
        bump(&self.wal_fsyncs, 1);
        bump(&self.wal_fsync_ns, ns);
        self.wal_fsync_max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one sealed snapshot.
    pub fn snapshot_taken(&self) {
        bump(&self.snapshots, 1);
    }

    /// Records a reply held at the commit gate.
    pub fn queue_push(&self) {
        bump(&self.queue_depth, 1);
    }

    /// Records a held reply released by the commit thread. The decrement
    /// saturates at zero: `queue_depth` is a gauge assembled from two
    /// relaxed counters (loops push, the commit thread pops), and a pop
    /// observed before its matching push must read as a transient 0 in
    /// STATS, never wrap to ~`u64::MAX`.
    pub fn queue_pop(&self) {
        let prev = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            })
            .expect("fetch_update closure never returns None");
        debug_assert!(prev > 0, "queue_pop without a matching queue_push");
    }

    /// Records a traced request's server-side end-to-end latency.
    pub fn record_op_latency(&self, op: OpKind, ns: u64) {
        self.op_latency[op as usize].record_ns(ns);
    }

    /// Records one commit batch of `len` requests (one group commit).
    pub fn batch_committed(&self, len: usize) {
        bump(&self.batches, 1);
        bump(&self.batch_ops, len as u64);
        self.batch_max.fetch_max(len as u64, Ordering::Relaxed);
    }

    /// Records the outcome of a startup recovery.
    pub fn recovery(&self, replayed: u64, torn_tail: bool, took: std::time::Duration) {
        self.recovery_replayed.store(replayed, Ordering::Relaxed);
        self.recovery_us
            .store(took.as_micros() as u64, Ordering::Relaxed);
        self.recovery_torn
            .store(u64::from(torn_tail), Ordering::Relaxed);
    }

    /// A consistent-enough snapshot (individual counters are exact; the set
    /// is not read under a lock, matching what a data-plane register dump
    /// would give).
    pub fn snapshot(&self, shard: usize) -> ShardSnapshot {
        let latency =
            |op: OpKind| LatencySummary::from_hist(&self.op_latency[op as usize].snapshot());
        self.load(ShardSnapshot {
            shard: shard as u64,
            get_latency: latency(OpKind::Get),
            set_latency: latency(OpKind::Set),
            del_latency: latency(OpKind::Del),
            ..ShardSnapshot::default()
        })
        .with_derived()
    }
}

impl ShardSnapshot {
    /// Recomputes the derived fields (`gets`, `hit_rate`, `batch_mean`)
    /// from the raw counters — for one shard or for folded totals.
    fn with_derived(mut self) -> Self {
        self.gets = self
            .hits
            .saturating_add(self.misses)
            .saturating_add(self.absent);
        self.hit_rate = ratio(self.hits, self.gets);
        self.batch_mean = ratio(self.batch_ops, self.batches);
        self
    }
}

/// Quantile summary of one latency histogram, as carried by STATS. The raw
/// log₂ buckets ride along so shard summaries merge exactly into totals
/// (and so `/metrics` and STATS can be cross-checked bucket for bucket).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median latency, microseconds (0 when empty).
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Exact nanosecond sum of all samples (Prometheus `_sum`).
    pub sum_ns: u64,
    /// The raw log₂ nanosecond buckets (64 entries).
    pub buckets: Vec<u64>,
}

impl Default for LatencySummary {
    fn default() -> Self {
        Self::empty()
    }
}

impl LatencySummary {
    /// A summary of zero samples.
    pub fn empty() -> Self {
        Self::from_hist(&HistSnapshot::empty())
    }

    /// Summarizes a histogram snapshot.
    pub fn from_hist(snap: &HistSnapshot) -> Self {
        Self {
            count: snap.count,
            p50_us: snap.quantile_us(0.50),
            p95_us: snap.quantile_us(0.95),
            p99_us: snap.quantile_us(0.99),
            sum_ns: snap.sum_ns,
            buckets: snap.buckets.clone(),
        }
    }

    /// Rebuilds the histogram the summary was cut from.
    pub fn to_hist(&self) -> HistSnapshot {
        let mut h = HistSnapshot::from_buckets(&self.buckets);
        h.sum_ns = self.sum_ns;
        h
    }

    /// Merges per-shard summaries into one (exact: bucket-wise addition,
    /// quantiles recomputed from the merged buckets).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a LatencySummary>) -> Self {
        let mut h = HistSnapshot::empty();
        for p in parts {
            h.merge(&p.to_hist());
        }
        Self::from_hist(&h)
    }
}

/// Quantile summary of one lifecycle stage's duration (time since the
/// previous stage), across all traced requests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Stage name (`decode`, `route`, `queue`, `wal_append`, `apply`,
    /// `fsync`, `reorder`, `flush`).
    pub stage: String,
    /// Traced requests the stage was observed in.
    pub count: u64,
    /// Median stage duration, microseconds.
    pub p50_us: f64,
    /// 95th-percentile stage duration, microseconds.
    pub p95_us: f64,
    /// 99th-percentile stage duration, microseconds.
    pub p99_us: f64,
}

impl StageSummary {
    /// Summarizes one stage's duration histogram.
    pub fn from_hist(stage: &str, snap: &HistSnapshot) -> Self {
        Self {
            stage: stage.to_string(),
            count: snap.count,
            p50_us: snap.quantile_us(0.50),
            p95_us: snap.quantile_us(0.95),
            p99_us: snap.quantile_us(0.99),
        }
    }
}

/// Most series levels a switch tier can configure (the paper deploys 4; the
/// fixed bound keeps per-level hit counters allocation-free on the hot
/// path).
pub const MAX_LEVELS: usize = 8;

metric_set! {
    atomics
    /// Atomic counters of one in-network switch tier (`crates/tier`), under
    /// the same discipline as [`ShardMetrics`]. They live here, beside
    /// their snapshot, so the tier's table is declared once; `p4lru_tier`
    /// re-exports them.
    #[derive(Debug, Default)]
    pub struct TierCounters {
        /// Hits by series level (index 0 = front array).
        pub level_hits: [AtomicU64; MAX_LEVELS],
    }

    snapshot
    /// Counters of a switch tier fronting the server, as carried by STATS:
    /// the gateway/proxy fetches the server's report and attaches its own
    /// section via [`StatsReport::with_tier`], so one report covers both
    /// tiers.
    #[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
    pub struct TierSnapshot {
        /// Switch-tier hits broken down by series level (index 0 = front).
        pub level_hits: Vec<u64>,
        /// GETs forwarded to the server (switch misses: gets − hits).
        pub misses: u64,
        /// hits / gets (0 when no GETs yet).
        pub hit_rate: f64,
        /// hits / (gets + sets + dels): the fraction of all client requests
        /// the server never saw — the paper's offload claim.
        pub offload_ratio: f64,
    }

    rows {
        /// GETs that consulted the switch tier. (`gets`, `sets` and `dels`
        /// are served summed, as `p4lru_tier_requests_total`.)
        gets: Sum, stats_only;
        hits: Sum, counter, "p4lru_tier_hits_total",
            "GETs answered entirely at the switch tier.",
            then crate::expose::tier_level_hits;
        /// SETs routed through the tier (always forwarded).
        sets: Sum, stats_only;
        /// DELs routed through the tier (always forwarded).
        dels: Sum, stats_only;
        forwarded: Sum, counter, "p4lru_tier_forwarded_total",
            "Requests forwarded to the server (misses plus all writes).";
        invalidations: Sum, counter, "p4lru_tier_invalidations_total",
            "Switch entries expelled by invalidate-before-forward.";
        inserts: Sum, counter, "p4lru_tier_inserts_total",
            "Miss replies admitted into the switch tier.";
        evictions: Sum, counter, "p4lru_tier_evictions_total",
            "Entries pushed out of the last series level.";
        /// The per-partition invalidation stamp: an invalidation in the
        /// key's partition raced the server round-trip (DESIGN.md §11).
        stale_drops: Sum, counter, "p4lru_tier_stale_drops_total",
            "Miss replies not admitted because an invalidation raced them.";
    }
}

impl TierCounters {
    /// Records a GET reaching the tier.
    pub fn get(&self) {
        bump(&self.gets, 1);
    }

    /// Records a switch hit at `level`.
    pub fn hit(&self, level: usize) {
        bump(&self.hits, 1);
        if let Some(c) = self.level_hits.get(level) {
            bump(c, 1);
        }
    }

    /// Records a SET reaching the tier.
    pub fn set(&self) {
        bump(&self.sets, 1);
    }

    /// Records a DEL reaching the tier.
    pub fn del(&self) {
        bump(&self.dels, 1);
    }

    /// Records a request forwarded to the server.
    pub fn forward(&self) {
        bump(&self.forwarded, 1);
    }

    /// Records an entry expelled by invalidation.
    pub fn invalidation(&self) {
        bump(&self.invalidations, 1);
    }

    /// Records a miss reply admitted into the switch.
    pub fn insert(&self) {
        bump(&self.inserts, 1);
    }

    /// Records an entry expelled from the last level.
    pub fn eviction(&self) {
        bump(&self.evictions, 1);
    }

    /// Records a miss reply dropped by its partition's invalidation stamp.
    pub fn stale_drop(&self) {
        bump(&self.stale_drops, 1);
    }

    /// A point-in-time [`TierSnapshot`] with `levels` per-level entries and
    /// the derived fields filled in.
    pub fn snapshot(&self, levels: usize) -> TierSnapshot {
        let mut snap = self.load(TierSnapshot {
            level_hits: self.level_hits[..levels.min(MAX_LEVELS)]
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            ..TierSnapshot::default()
        });
        snap.misses = snap.gets.saturating_sub(snap.hits);
        snap.with_ratios()
    }
}

impl TierSnapshot {
    /// Recomputes the derived ratios from the raw counters.
    pub fn with_ratios(mut self) -> Self {
        self.hit_rate = ratio(self.hits, self.gets);
        let requests = self.gets + self.sets + self.dels;
        self.offload_ratio = ratio(self.hits, requests);
        self
    }
}

metric_set! {
    atomics
    /// The replication counters of `ReplState`.
    #[derive(Debug, Default)]
    pub(crate) struct ReplCounters {}

    snapshot
    /// Replication/cluster counters, as carried by STATS and `/metrics` when
    /// the server runs with replication configured
    /// (`--repl-addr`/`--follow`).
    ///
    /// Built by `ReplState::snapshot()`; `None` on a standalone server. The
    /// `watermarks` vector is per-shard: on a primary it is the follower's
    /// durable sequence as reported by its pulls, on a follower it is the
    /// local applied sequence. `role` can flip `follower` → `primary`
    /// exactly once (promote-on-failure); `promotions` counts that flip.
    #[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
    pub struct ClusterSnapshot {
        /// `primary` or `follower` (current role — may have been promoted).
        pub role: String,
        /// Whether mutation acks wait for the replicated watermark.
        pub ack_mode: bool,
        /// The primary this node follows (empty on a born-primary node).
        pub primary_addr: String,
        /// Per-shard replication watermark (see type docs).
        pub watermarks: Vec<u64>,
        /// Per-shard replication lag in sequence numbers as observed by the
        /// follower's pull loop (zero on a primary and once caught up).
        #[serde(default)]
        pub lag_seqs: Vec<u64>,
        /// Estimated lag in WAL bytes (`lag_seqs` total times the average
        /// record size of the last shipment).
        #[serde(default)]
        pub lag_bytes: u64,
        /// Milliseconds since the last completed pull round trip (0 until
        /// the first pull, and on a primary).
        #[serde(default)]
        pub pull_age_ms: u64,
        /// Round-trip time of PULL exchanges (follower side).
        #[serde(default)]
        pub pull_rtt: LatencySummary,
        /// Durable-apply time of shipped batches, commit gate included.
        #[serde(default)]
        pub batch_apply: LatencySummary,
    }

    rows {
        /// 0 or 1: a node is promoted at most once.
        promotions: Sum, counter, "p4lru_cluster_promotions_total",
            "Follower-to-primary promotions (failover events).";
        pulls_served: Sum, counter, "p4lru_cluster_pulls_served_total",
            "Replication PULL requests served to followers.";
        records_shipped: Sum, counter, "p4lru_cluster_records_shipped_total",
            "WAL records shipped to followers.";
        bytes_shipped: Sum, counter, "p4lru_cluster_bytes_shipped_total",
            "WAL bytes shipped to followers.";
        /// Shipped when history was pruned past the follower's cursor.
        snapshots_shipped: Sum, counter, "p4lru_cluster_snapshots_shipped_total",
            "Snapshots shipped for follower catch-up.";
        records_applied: Sum, counter, "p4lru_cluster_records_applied_total",
            "Replicated WAL records applied locally.";
        snapshots_installed: Sum, counter, "p4lru_cluster_snapshots_installed_total",
            "Shipped snapshots installed locally.";
        /// Counted on whichever side detected the mismatch.
        pull_rejects: Sum, counter, "p4lru_cluster_pull_rejects_total",
            "Malformed or mismatched pull exchanges rejected.";
        ack_timeouts: Sum, counter, "p4lru_cluster_ack_timeouts_total",
            "Ack-mode batches that timed out awaiting replication.";
    }
}

metric_set! {
    atomics
    /// Connection accounting shared by the accept loop and the reactor's
    /// connection drivers. The accept loop bumps `rejected_total` when
    /// `--max-conns` turns a connection away, so a saturated server is
    /// visible in STATS and `/metrics` rather than silent.
    #[derive(Debug, Default)]
    pub struct ConnCounters {}

    snapshot
    /// Connection accounting as carried by STATS.
    #[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
    pub struct ConnSnapshot {
        /// The front-end that owns the connections (`reactor`); the
        /// `frontend` label of the `/metrics` families.
        pub frontend: String,
    }

    rows {
        /// Opened minus closed (saturating — see `closed`).
        current: Sum, gauge, "p4lru_connections", "Connections currently in service.";
        accepted_total: Sum, counter, "p4lru_connections_total",
            "Connections accepted since startup.";
        rejected_total: Sum, counter, "p4lru_conn_rejected_total",
            "Connections rejected at the --max-conns accept limit.";
    }
}

impl ConnCounters {
    /// Records an accepted connection entering service.
    pub fn opened(&self) {
        bump(&self.accepted_total, 1);
        bump(&self.current, 1);
    }

    /// Records a connection leaving service. Saturates at zero for the
    /// same reason as [`ShardMetrics::queue_pop`]: the gauge is assembled
    /// from unsynchronized open/close events.
    pub fn closed(&self) {
        let _ = self
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_sub(1))
            });
    }

    /// Records a connection turned away at the accept limit.
    pub fn rejected(&self) {
        bump(&self.rejected_total, 1);
    }

    /// A point-in-time copy, labeled with the front-end that owns the
    /// connections.
    pub fn snapshot(&self, frontend: &str) -> ConnSnapshot {
        self.load(ConnSnapshot {
            frontend: frontend.to_string(),
            ..ConnSnapshot::default()
        })
    }
}

metric_set! {
    snapshot
    /// One reactor I/O thread's loop counters, as carried by STATS. There
    /// is no atomics half: the live counters are `p4lru_reactor`'s own
    /// (that crate sits below the server and knows nothing of STATS), and
    /// the server copies them over per report.
    #[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
    pub struct ReactorLoopSnapshot {
        /// I/O thread index.
        pub io_thread: u64,
    }

    rows {
        turns: Sum, counter, "p4lru_reactor_turns_total",
            "Reactor loop turns (one epoll_wait harvest each).";
        events: Sum, counter, "p4lru_reactor_events_total",
            "Socket readiness events harvested by the reactor.";
        wakeups: Sum, counter, "p4lru_reactor_wakeups_total",
            "Eventfd wakeups (coalesced shard-reply signals).";
        messages: Sum, counter, "p4lru_reactor_messages_total",
            "Messages (shard replies) delivered to connection drivers.";
        connections: Sum, gauge, "p4lru_reactor_connections",
            "Connections currently owned by each reactor I/O thread.";
    }
}

/// The STATS payload: one snapshot per shard, their totals, and the
/// sections whoever built the report attached.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// The shards folded row by row (`shard` is the shard count; each
    /// field's `Sum`/`Max` rule is on its row of the [`ShardSnapshot`]
    /// table).
    pub totals: ShardSnapshot,
    /// Per-stage duration summaries from the span tracer, in pipeline
    /// order. Empty when tracing is off (or the report predates it).
    pub stages: Vec<StageSummary>,
    /// Switch-tier counters, when the report passed through a two-tier
    /// gateway (`None` — serialized as `null` — for a bare server).
    pub tier: Option<TierSnapshot>,
    /// Connection accounting (all-zero with an empty `frontend` when the
    /// report was built from shard counters alone, as in unit tests).
    pub conns: ConnSnapshot,
    /// Per-io-thread reactor loop counters (empty when the report was
    /// built from shard counters alone, or merged by the router).
    pub reactor: Vec<ReactorLoopSnapshot>,
    /// Replication/cluster counters; `None` (serialized as `null`) on a
    /// standalone server.
    pub cluster: Option<ClusterSnapshot>,
}

impl StatsReport {
    /// Builds the report from per-shard snapshots. The shards may come off
    /// the network (the router and `cluster_top` re-fold peers' reports),
    /// so every addition on the way to `totals` saturates.
    pub fn from_shards(shards: Vec<ShardSnapshot>) -> Self {
        let mut totals = ShardSnapshot {
            shard: shards.len() as u64,
            get_latency: LatencySummary::merged(shards.iter().map(|s| &s.get_latency)),
            set_latency: LatencySummary::merged(shards.iter().map(|s| &s.set_latency)),
            del_latency: LatencySummary::merged(shards.iter().map(|s| &s.del_latency)),
            ..ShardSnapshot::default()
        };
        for s in &shards {
            totals.fold(s);
        }
        Self {
            shards,
            totals: totals.with_derived(),
            stages: Vec::new(),
            tier: None,
            conns: ConnSnapshot::default(),
            reactor: Vec::new(),
            cluster: None,
        }
    }

    /// Attaches per-stage duration summaries (the server fills these from
    /// its tracer when building a report; `from_shards` alone cannot — the
    /// stage histograms are tracer-global, not per-shard).
    pub fn with_stages(mut self, stages: Vec<StageSummary>) -> Self {
        self.stages = stages;
        self
    }

    /// Attaches the switch-tier section (the two-tier gateway/proxy calls
    /// this on the upstream server's report before handing it to clients).
    pub fn with_tier(mut self, tier: TierSnapshot) -> Self {
        self.tier = Some(tier);
        self
    }

    /// Attaches the connection-accounting section.
    pub fn with_conns(mut self, conns: ConnSnapshot) -> Self {
        self.conns = conns;
        self
    }

    /// Attaches the per-io-thread reactor loop counters.
    pub fn with_reactor(mut self, reactor: Vec<ReactorLoopSnapshot>) -> Self {
        self.reactor = reactor;
        self
    }

    /// Attaches the replication/cluster section (a replicating server fills
    /// this from its `ReplState`).
    pub fn with_cluster(mut self, cluster: ClusterSnapshot) -> Self {
        self.cluster = Some(cluster);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_totals_add_up() {
        let m = ShardMetrics::default();
        m.hit();
        m.hit();
        m.miss(3);
        m.absent();
        m.set(2);
        m.del();
        m.eviction();
        m.store_len_set(7);
        m.index_stats(4, 11);
        m.wal_append();
        m.wal_append();
        m.wal_fsync(std::time::Duration::from_nanos(500));
        m.wal_fsync(std::time::Duration::from_nanos(300));
        m.snapshot_taken();
        m.recovery(3, true, std::time::Duration::from_micros(250));
        m.queue_push();
        m.queue_push();
        m.queue_pop();
        m.batch_committed(3);
        m.batch_committed(7);
        let s = m.snapshot(5);
        assert_eq!(s.shard, 5);
        assert_eq!(s.gets, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.absent, 1);
        assert_eq!(s.sets, 1);
        assert_eq!(s.dels, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.index_visits, 5);
        assert_eq!(s.index_height, 4);
        assert_eq!(s.index_descent_hits, 11);
        assert!((s.hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.store_len, 7);
        assert_eq!(s.wal_appends, 2);
        assert_eq!(s.wal_fsyncs, 2);
        assert_eq!(s.wal_fsync_ns, 800);
        assert_eq!(s.wal_fsync_max_ns, 500);
        assert_eq!(s.snapshots, 1);
        assert_eq!(s.recovery_replayed, 3);
        assert_eq!(s.recovery_us, 250);
        assert_eq!(s.recovery_torn, 1);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.batch_ops, 10);
        assert_eq!(s.batch_max, 7);
        assert!((s.batch_mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn batch_totals_take_the_max_and_recompute_the_mean() {
        let a = ShardMetrics::default();
        a.batch_committed(1);
        a.batch_committed(9);
        let b = ShardMetrics::default();
        b.batch_committed(4);
        let report = StatsReport::from_shards(vec![a.snapshot(0), b.snapshot(1)]);
        assert_eq!(report.totals.batches, 3);
        assert_eq!(report.totals.batch_ops, 14);
        assert_eq!(report.totals.batch_max, 9, "max, not sum");
        assert!((report.totals.batch_mean - 14.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_report_sums_shards_and_roundtrips_json() {
        let a = ShardMetrics::default();
        a.hit();
        a.miss(2);
        let b = ShardMetrics::default();
        b.hit();
        a.store_len_set(10);
        a.wal_fsync(std::time::Duration::from_nanos(900));
        b.store_len_set(5);
        b.wal_fsync(std::time::Duration::from_nanos(400));
        let report = StatsReport::from_shards(vec![a.snapshot(0), b.snapshot(1)]);
        assert_eq!(report.totals.gets, 3);
        assert_eq!(report.totals.hits, 2);
        assert_eq!(report.totals.index_visits, 2);
        assert!((report.totals.hit_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.totals.store_len, 15);
        assert_eq!(report.totals.wal_fsyncs, 2);
        assert_eq!(report.totals.wal_fsync_ns, 1300);
        assert_eq!(
            report.totals.wal_fsync_max_ns, 900,
            "totals take the max, not the sum"
        );

        let json = serde_json::to_string(&report).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn folding_peer_supplied_shards_saturates_instead_of_overflowing() {
        // What the router or `cluster_top` may decode from a corrupt or
        // hostile node: every counter and every bucket at the ceiling.
        let mut hostile = ShardMetrics::default().snapshot(0);
        let full = LatencySummary {
            count: u64::MAX,
            sum_ns: u64::MAX,
            buckets: vec![u64::MAX; 64],
            ..LatencySummary::empty()
        };
        hostile.get_latency = full.clone();
        hostile.set_latency = full;
        hostile.fold(&ShardSnapshot {
            hits: u64::MAX,
            misses: u64::MAX,
            absent: u64::MAX,
            sets: u64::MAX,
            wal_fsync_ns: u64::MAX,
            wal_fsync_max_ns: u64::MAX,
            batches: u64::MAX,
            batch_ops: u64::MAX,
            ..ShardSnapshot::default()
        });
        let mut other = hostile.clone();
        other.shard = 1;
        let report = StatsReport::from_shards(vec![hostile, other]);
        assert_eq!(report.totals.hits, u64::MAX);
        assert_eq!(report.totals.gets, u64::MAX, "derived sum saturates too");
        assert_eq!(report.totals.wal_fsync_max_ns, u64::MAX);
        assert_eq!(report.totals.get_latency.count, u64::MAX);
        assert_eq!(report.totals.get_latency.sum_ns, u64::MAX);
        assert!(report.totals.hit_rate <= 1.0);
    }

    #[test]
    fn queue_pop_saturates_instead_of_wrapping() {
        let m = ShardMetrics::default();
        m.queue_push();
        m.queue_pop();
        // A second pop with no matching push (a reordered pop racing its
        // push) must leave the gauge at 0, not wrap to u64::MAX. The debug
        // assertion that flags the mismatch is compiled out here.
        if cfg!(debug_assertions) {
            assert!(std::panic::catch_unwind(|| m.queue_pop()).is_err());
        } else {
            m.queue_pop();
        }
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn index_totals_take_max_height_and_sum_descent_hits() {
        let a = ShardMetrics::default();
        a.index_stats(3, 100);
        let b = ShardMetrics::default();
        b.index_stats(5, 40);
        let report = StatsReport::from_shards(vec![a.snapshot(0), b.snapshot(1)]);
        assert_eq!(
            report.totals.index_height, 5,
            "height is the tallest shard index, not a sum"
        );
        assert_eq!(report.totals.index_descent_hits, 140);
    }

    #[test]
    fn recovery_totals_take_max_us_and_count_torn_shards() {
        let a = ShardMetrics::default();
        a.recovery(10, true, std::time::Duration::from_micros(400));
        let b = ShardMetrics::default();
        b.recovery(2, true, std::time::Duration::from_micros(900));
        let c = ShardMetrics::default();
        c.recovery(0, false, std::time::Duration::from_micros(100));
        let report = StatsReport::from_shards(vec![a.snapshot(0), b.snapshot(1), c.snapshot(2)]);
        assert_eq!(
            report.totals.recovery_us, 900,
            "wall time is the slowest shard, not the sum"
        );
        assert_eq!(report.totals.recovery_torn, 2, "count of torn shards");
        assert_eq!(report.totals.recovery_replayed, 12);
    }

    #[test]
    fn op_latency_summaries_merge_exactly_into_totals() {
        let a = ShardMetrics::default();
        a.record_op_latency(OpKind::Get, 1_000);
        a.record_op_latency(OpKind::Get, 2_000);
        a.record_op_latency(OpKind::Set, 50_000);
        let b = ShardMetrics::default();
        b.record_op_latency(OpKind::Get, 4_000_000);
        let report = StatsReport::from_shards(vec![a.snapshot(0), b.snapshot(1)]);
        assert_eq!(report.totals.get_latency.count, 3);
        assert_eq!(report.totals.set_latency.count, 1);
        assert_eq!(report.totals.del_latency.count, 0);
        assert_eq!(report.totals.get_latency.sum_ns, 1_000 + 2_000 + 4_000_000);
        let total_buckets: u64 = report.totals.get_latency.buckets.iter().sum();
        assert_eq!(total_buckets, 3, "totals merge bucket-wise");
        assert!(
            report.totals.get_latency.p99_us > 1_000.0,
            "p99 sees shard 1's 4ms GET"
        );
        assert!(report.totals.get_latency.p50_us < 10.0);

        // Round-trips through STATS JSON, buckets and all.
        let json = serde_json::to_string(&report).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(
            back.totals.get_latency.to_hist().quantile_us(0.5),
            report.totals.get_latency.p50_us
        );
    }

    #[test]
    fn stage_summaries_ride_on_the_report() {
        let h = AtomicHistogram::new();
        h.record_ns(5_000);
        let stage = p4lru_obs::trace::STAGE_NAMES[2];
        let report = StatsReport::from_shards(vec![ShardMetrics::default().snapshot(0)])
            .with_stages(vec![StageSummary::from_hist(stage, &h.snapshot())]);
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].stage, "queue");
        assert_eq!(report.stages[0].count, 1);
        let json = serde_json::to_string(&report).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stages, report.stages);
    }

    #[test]
    fn tier_section_rides_on_the_report_and_roundtrips() {
        let report = StatsReport::from_shards(vec![ShardMetrics::default().snapshot(0)]);
        assert_eq!(report.tier, None);
        // A bare server's report serializes the section as null and
        // deserializes back to None (the gateway is the only writer).
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"tier\":null"), "{json}");
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);

        let tier = TierSnapshot {
            gets: 80,
            hits: 60,
            level_hits: vec![40, 15, 5],
            misses: 20,
            sets: 15,
            dels: 5,
            forwarded: 40,
            invalidations: 18,
            inserts: 20,
            evictions: 7,
            stale_drops: 1,
            hit_rate: 0.0,
            offload_ratio: 0.0,
        }
        .with_ratios();
        assert!((tier.hit_rate - 0.75).abs() < 1e-12);
        assert!((tier.offload_ratio - 0.6).abs() < 1e-12);
        let report = report.with_tier(tier.clone());
        let json = serde_json::to_string(&report).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tier, Some(tier));
    }

    #[test]
    fn conn_counters_gauge_and_totals() {
        let c = ConnCounters::default();
        c.opened();
        c.opened();
        c.rejected();
        c.closed();
        let s = c.snapshot("reactor");
        assert_eq!(s.frontend, "reactor");
        assert_eq!(s.current, 1);
        assert_eq!(s.accepted_total, 2);
        assert_eq!(s.rejected_total, 1);
        // Closing past zero saturates (unsynchronized open/close events).
        c.closed();
        c.closed();
        assert_eq!(c.current.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn conn_and_reactor_sections_ride_on_the_report() {
        let report = StatsReport::from_shards(vec![ShardMetrics::default().snapshot(0)])
            .with_conns(ConnSnapshot {
                frontend: "reactor".to_string(),
                current: 3,
                accepted_total: 5,
                rejected_total: 2,
            })
            .with_reactor(vec![ReactorLoopSnapshot {
                io_thread: 0,
                turns: 10,
                events: 20,
                wakeups: 4,
                messages: 40,
                connections: 3,
            }]);
        let json = serde_json::to_string(&report).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.conns.rejected_total, 2);
        assert_eq!(back.reactor[0].messages, 40);
    }

    #[test]
    fn cluster_section_rides_on_the_report() {
        let report = StatsReport::from_shards(vec![ShardMetrics::default().snapshot(0)]);
        assert!(report.cluster.is_none());
        let report = report.with_cluster(ClusterSnapshot {
            role: "follower".to_string(),
            ack_mode: true,
            primary_addr: "127.0.0.1:4000".to_string(),
            promotions: 0,
            pulls_served: 0,
            records_shipped: 0,
            bytes_shipped: 0,
            snapshots_shipped: 0,
            records_applied: 12,
            snapshots_installed: 1,
            pull_rejects: 0,
            ack_timeouts: 0,
            watermarks: vec![12, 0],
            lag_seqs: vec![3, 0],
            lag_bytes: 300,
            pull_age_ms: 7,
            ..ClusterSnapshot::default()
        });
        let json = serde_json::to_string(&report).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let cluster = back.cluster.unwrap();
        assert_eq!(cluster.role, "follower");
        assert_eq!(cluster.watermarks, vec![12, 0]);
        assert_eq!(cluster.lag_seqs, vec![3, 0]);
        assert_eq!(cluster.lag_bytes, 300);

        // Old STATS payloads (without the lag fields) still deserialize:
        // the lag section defaults to empty rather than failing the parse.
        let lag_fields = [
            "lag_seqs",
            "lag_bytes",
            "pull_age_ms",
            "pull_rtt",
            "batch_apply",
        ];
        let mut old = Serialize::to_value(report.cluster.as_ref().unwrap());
        if let serde::Value::Map(entries) = &mut old {
            entries.retain(|(k, _)| !lag_fields.contains(&k.as_str()));
        }
        let cluster = ClusterSnapshot::from_value(&old).unwrap();
        assert_eq!(cluster.role, "follower");
        assert_eq!(cluster.lag_seqs, Vec::<u64>::new());
        assert_eq!(cluster.pull_rtt.count, 0);
    }
}
