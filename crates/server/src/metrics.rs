//! Per-shard metrics: lock-free atomic counters readable by any thread
//! (STATS never has to queue behind the shard's request channel), per-op
//! server-side latency histograms fed by the span tracer, plus a
//! log₂-bucketed latency histogram for the load generator's client side.

use std::sync::atomic::{AtomicU64, Ordering};

use p4lru_obs::hist::HistSnapshot;
use p4lru_obs::trace::{OpKind, NUM_OPS};
use p4lru_obs::AtomicHistogram;
use serde::{Deserialize, Serialize};

/// Atomic hit/miss/slow-path counters owned by one shard, shared via `Arc`
/// with whoever serves STATS.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// GETs answered from the front cache (address was cached).
    pub hits: AtomicU64,
    /// GETs that walked the backing index (key present, address not cached).
    pub misses: AtomicU64,
    /// GETs for keys the backing store does not hold.
    pub absent: AtomicU64,
    /// SETs applied.
    pub sets: AtomicU64,
    /// DELs applied (whether or not the key existed).
    pub dels: AtomicU64,
    /// Cache entries evicted while installing a new address.
    pub evictions: AtomicU64,
    /// Total B+Tree nodes visited on slow paths (misses and new-key SETs).
    pub index_visits: AtomicU64,
    /// Current B+Tree height of the backing index (gauge — the per-lookup
    /// cost a cached address lets the shard skip).
    pub index_height: AtomicU64,
    /// Index lookups answered by the B+Tree's descent cache (~1 node visit
    /// instead of a full walk) since the shard was built.
    pub index_descent_hits: AtomicU64,
    /// Records currently in the backing store (gauge, not a counter).
    pub store_len: AtomicU64,
    /// WAL records appended (0 when the shard runs without durability).
    pub wal_appends: AtomicU64,
    /// WAL fsyncs issued (group commit: one fsync can cover many appends).
    pub wal_fsyncs: AtomicU64,
    /// Total nanoseconds spent in WAL fsyncs.
    pub wal_fsync_ns: AtomicU64,
    /// Slowest single WAL fsync, nanoseconds.
    pub wal_fsync_max_ns: AtomicU64,
    /// Snapshots sealed since startup.
    pub snapshots: AtomicU64,
    /// WAL records replayed by the last recovery.
    pub recovery_replayed: AtomicU64,
    /// Microseconds the last recovery took (0 when the shard started fresh).
    pub recovery_us: AtomicU64,
    /// 1 if the last recovery skipped a torn/corrupt final WAL record.
    pub recovery_torn: AtomicU64,
    /// Requests currently queued on this shard's channel (gauge: connection
    /// handlers increment on dispatch, the shard loop decrements on
    /// dequeue). Pipelining is what makes this exceed the connection count.
    pub queue_depth: AtomicU64,
    /// Commit batches the shard loop has run (one commit — at most one
    /// fsync — per batch).
    pub batches: AtomicU64,
    /// Requests covered by those batches (`batch_ops / batches` = mean
    /// batch depth per fsync, the number group commit amortizes by).
    pub batch_ops: AtomicU64,
    /// Deepest single commit batch seen.
    pub batch_max: AtomicU64,
    /// Server-side end-to-end latency (decode → flush) per op-type, fed by
    /// the span tracer when a traced request's response hits the wire.
    /// Indexed by `OpKind as usize`.
    pub op_latency: [AtomicHistogram; NUM_OPS],
}

impl ShardMetrics {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Records a cache hit.
    pub fn hit(&self) {
        Self::bump(&self.hits, 1);
    }

    /// Records a cache miss that cost `index_visits` node visits.
    pub fn miss(&self, index_visits: usize) {
        Self::bump(&self.misses, 1);
        Self::bump(&self.index_visits, index_visits as u64);
    }

    /// Records a GET for an absent key.
    pub fn absent(&self) {
        Self::bump(&self.absent, 1);
    }

    /// Records a SET that cost `index_visits` node visits (0 when the key
    /// already existed and its address was reused in place).
    pub fn set(&self, index_visits: usize) {
        Self::bump(&self.sets, 1);
        Self::bump(&self.index_visits, index_visits as u64);
    }

    /// Records a DEL.
    pub fn del(&self) {
        Self::bump(&self.dels, 1);
    }

    /// Records a cache eviction.
    pub fn eviction(&self) {
        Self::bump(&self.evictions, 1);
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
        Self::bump(&self.wal_appends, 1);
    }

    /// Records one WAL fsync and how long it took.
    pub fn wal_fsync(&self, took: std::time::Duration) {
        let ns = took.as_nanos() as u64;
        Self::bump(&self.wal_fsyncs, 1);
        Self::bump(&self.wal_fsync_ns, ns);
        self.wal_fsync_max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one sealed snapshot.
    pub fn snapshot_taken(&self) {
        Self::bump(&self.snapshots, 1);
    }

    /// Records a request enqueued on the shard channel (handler side).
    pub fn queue_push(&self) {
        Self::bump(&self.queue_depth, 1);
    }

    /// Records a request dequeued by the shard loop. The decrement
    /// saturates at zero: `queue_depth` is a gauge assembled from two
    /// unsynchronized counters (handlers push, the shard loop pops), and a
    /// pop observed before its matching push must read as a transient 0 in
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
        Self::bump(&self.batches, 1);
        Self::bump(&self.batch_ops, len as u64);
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
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let absent = self.absent.load(Ordering::Relaxed);
        let gets = hits + misses + absent;
        let batches = self.batches.load(Ordering::Relaxed);
        let batch_ops = self.batch_ops.load(Ordering::Relaxed);
        ShardSnapshot {
            shard: shard as u64,
            gets,
            hits,
            misses,
            absent,
            sets: self.sets.load(Ordering::Relaxed),
            dels: self.dels.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            index_visits: self.index_visits.load(Ordering::Relaxed),
            index_height: self.index_height.load(Ordering::Relaxed),
            index_descent_hits: self.index_descent_hits.load(Ordering::Relaxed),
            hit_rate: if gets == 0 {
                0.0
            } else {
                hits as f64 / gets as f64
            },
            store_len: self.store_len.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_fsync_ns: self.wal_fsync_ns.load(Ordering::Relaxed),
            wal_fsync_max_ns: self.wal_fsync_max_ns.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            recovery_replayed: self.recovery_replayed.load(Ordering::Relaxed),
            recovery_us: self.recovery_us.load(Ordering::Relaxed),
            recovery_torn: self.recovery_torn.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            batches,
            batch_ops,
            batch_max: self.batch_max.load(Ordering::Relaxed),
            batch_mean: if batches == 0 {
                0.0
            } else {
                batch_ops as f64 / batches as f64
            },
            get_latency: LatencySummary::from_hist(
                &self.op_latency[OpKind::Get as usize].snapshot(),
            ),
            set_latency: LatencySummary::from_hist(
                &self.op_latency[OpKind::Set as usize].snapshot(),
            ),
            del_latency: LatencySummary::from_hist(
                &self.op_latency[OpKind::Del as usize].snapshot(),
            ),
        }
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

/// A point-in-time copy of one shard's counters, as served by STATS.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: u64,
    /// Total GETs (= hits + misses + absent).
    pub gets: u64,
    /// GETs answered from the front cache.
    pub hits: u64,
    /// GETs that walked the backing index.
    pub misses: u64,
    /// GETs for keys not in the backing store.
    pub absent: u64,
    /// SETs applied.
    pub sets: u64,
    /// DELs applied.
    pub dels: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Total index nodes visited on slow paths.
    pub index_visits: u64,
    /// Current B+Tree height of this shard's backing index. In totals this
    /// is the **max** across shards (the indexes are siblings, not stacked;
    /// "how deep is a miss" is the tallest one).
    pub index_height: u64,
    /// Index lookups answered by the B+Tree's descent cache.
    pub index_descent_hits: u64,
    /// hits / gets (0 when no GETs yet).
    pub hit_rate: f64,
    /// Records currently in the backing store.
    pub store_len: u64,
    /// WAL records appended (0 without durability).
    pub wal_appends: u64,
    /// WAL fsyncs issued.
    pub wal_fsyncs: u64,
    /// Total nanoseconds spent in WAL fsyncs.
    pub wal_fsync_ns: u64,
    /// Slowest single WAL fsync, nanoseconds (max across shards in totals).
    pub wal_fsync_max_ns: u64,
    /// Snapshots sealed since startup.
    pub snapshots: u64,
    /// WAL records replayed by the last startup recovery.
    pub recovery_replayed: u64,
    /// Microseconds the last startup recovery took. In totals this is the
    /// **max** across shards, not the sum: shards recover independently (in
    /// parallel at startup), so the slowest shard is the recovery wall time
    /// and a sum would misread it.
    pub recovery_us: u64,
    /// 1 if this shard's last recovery skipped a torn/corrupt final WAL
    /// record. In totals this is the **count** of such shards (a plain sum
    /// of the 0/1 flags).
    pub recovery_torn: u64,
    /// Requests queued on the shard channel at snapshot time (gauge).
    pub queue_depth: u64,
    /// Commit batches run (one group commit — at most one fsync — each).
    pub batches: u64,
    /// Requests covered by those batches.
    pub batch_ops: u64,
    /// Deepest single commit batch.
    pub batch_max: u64,
    /// Mean requests per commit batch (`batch_ops / batches`).
    pub batch_mean: f64,
    /// Server-side GET latency (decode → flush), traced requests only.
    pub get_latency: LatencySummary,
    /// Server-side SET latency (decode → flush), traced requests only.
    pub set_latency: LatencySummary,
    /// Server-side DEL latency (decode → flush), traced requests only.
    pub del_latency: LatencySummary,
}

/// Counters of an in-network switch tier fronting the server (the two-tier
/// deployment of `crates/tier`). Lives here so STATS can carry one report
/// covering both tiers: the gateway/proxy fetches the server's report and
/// attaches its own section via [`StatsReport::with_tier`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TierSnapshot {
    /// GETs that consulted the switch tier.
    pub gets: u64,
    /// GETs answered entirely at the switch (never reached the server).
    pub hits: u64,
    /// Switch-tier hits broken down by series level (index 0 = front).
    pub level_hits: Vec<u64>,
    /// GETs forwarded to the server (switch misses).
    pub misses: u64,
    /// SETs routed through the tier (always forwarded).
    pub sets: u64,
    /// DELs routed through the tier (always forwarded).
    pub dels: u64,
    /// Requests of any kind forwarded to the server.
    pub forwarded: u64,
    /// Switch entries expelled by the invalidate-before-forward rule.
    pub invalidations: u64,
    /// Miss replies admitted into the switch tier.
    pub inserts: u64,
    /// Entries pushed out of the last series level by admissions.
    pub evictions: u64,
    /// Miss replies *not* admitted because an invalidation raced the
    /// round-trip (the epoch guard — see DESIGN.md §11).
    pub stale_drops: u64,
    /// hits / gets (0 when no GETs yet).
    pub hit_rate: f64,
    /// hits / (gets + sets + dels): the fraction of all client requests the
    /// server never saw — the paper's offload claim.
    pub offload_ratio: f64,
}

impl TierSnapshot {
    /// Recomputes the derived ratios from the raw counters.
    pub fn with_ratios(mut self) -> Self {
        self.hit_rate = if self.gets == 0 {
            0.0
        } else {
            self.hits as f64 / self.gets as f64
        };
        let requests = self.gets + self.sets + self.dels;
        self.offload_ratio = if requests == 0 {
            0.0
        } else {
            self.hits as f64 / requests as f64
        };
        self
    }
}

/// Replication/cluster counters, as carried by STATS and `/metrics` when
/// the server runs with replication configured (`--repl-addr`/`--follow`).
///
/// Built by `ReplState::snapshot()`; `None` on a standalone server. The
/// `watermarks` vector is per-shard: on a primary it is the follower's
/// durable sequence as reported by its pulls, on a follower it is the local
/// applied sequence. `role` can flip `follower` → `primary` exactly once
/// (promote-on-failure); `promotions` counts that flip.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// `primary` or `follower` (current role — may have been promoted).
    pub role: String,
    /// Whether mutation acks wait for the replicated watermark.
    pub ack_mode: bool,
    /// The primary this node follows (empty on a born-primary node).
    pub primary_addr: String,
    /// Follower→primary promotions (0 or 1).
    pub promotions: u64,
    /// PULL requests served by the replication listener.
    pub pulls_served: u64,
    /// WAL records shipped to followers.
    pub records_shipped: u64,
    /// WAL bytes shipped to followers.
    pub bytes_shipped: u64,
    /// Snapshots shipped for catch-up (history pruned past the cursor).
    pub snapshots_shipped: u64,
    /// Replicated WAL records applied locally (follower side).
    pub records_applied: u64,
    /// Shipped snapshots installed locally (follower side).
    pub snapshots_installed: u64,
    /// Malformed/mismatched pull exchanges rejected (either side).
    pub pull_rejects: u64,
    /// Ack-mode batches that timed out waiting for the watermark.
    pub ack_timeouts: u64,
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
    /// Milliseconds since the last completed pull round trip (0 until the
    /// first pull, and on a primary).
    #[serde(default)]
    pub pull_age_ms: u64,
    /// Round-trip time of PULL exchanges (follower side).
    #[serde(default)]
    pub pull_rtt: LatencySummary,
    /// Durable-apply time of shipped batches through the shard channel.
    #[serde(default)]
    pub batch_apply: LatencySummary,
}

/// Connection accounting shared by the accept loop and both front-ends.
///
/// `current` is a gauge (opened minus closed); the two totals are
/// monotone counters. The accept loop bumps `rejected` when `--max-conns`
/// turns a connection away, so a saturated server is visible in STATS and
/// `/metrics` rather than silent.
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Connections currently open (gauge).
    pub current: AtomicU64,
    /// Connections accepted since startup.
    pub accepted: AtomicU64,
    /// Connections rejected at the `--max-conns` accept limit.
    pub rejected: AtomicU64,
}

impl ConnCounters {
    /// Records an accepted connection entering service.
    pub fn opened(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.current.fetch_add(1, Ordering::Relaxed);
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
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy, labeled with the front-end that owns the
    /// connections (`threads` or `reactor`).
    pub fn snapshot(&self, frontend: &str) -> ConnSnapshot {
        ConnSnapshot {
            frontend: frontend.to_string(),
            current: self.current.load(Ordering::Relaxed),
            accepted_total: self.accepted.load(Ordering::Relaxed),
            rejected_total: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// Connection accounting as carried by STATS.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ConnSnapshot {
    /// Which front-end owns the connections (`threads` or `reactor`).
    pub frontend: String,
    /// Connections currently open.
    pub current: u64,
    /// Connections accepted since startup.
    pub accepted_total: u64,
    /// Connections rejected at the accept limit since startup.
    pub rejected_total: u64,
}

/// One reactor I/O thread's loop counters, as carried by STATS (empty for
/// the thread-per-connection front-end).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ReactorLoopSnapshot {
    /// I/O thread index.
    pub io_thread: u64,
    /// Loop turns (each harvesting a batch of events).
    pub turns: u64,
    /// Socket readiness events harvested.
    pub events: u64,
    /// Eventfd wakeups (coalesced cross-thread message signals).
    pub wakeups: u64,
    /// Messages (shard replies) delivered to drivers.
    pub messages: u64,
    /// Connections currently owned by this thread.
    pub connections: u64,
}

/// The STATS payload: one snapshot per shard, their sum, and (when the
/// server traces requests) per-lifecycle-stage duration summaries.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Counters summed across shards (`shard` is the shard count;
    /// `recovery_us`, `wal_fsync_max_ns`, and `batch_max` take the max —
    /// see the field docs).
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
    /// Per-io-thread reactor loop counters; empty under the threaded
    /// front-end.
    pub reactor: Vec<ReactorLoopSnapshot>,
    /// Replication/cluster counters; `None` (serialized as `null`) on a
    /// standalone server.
    pub cluster: Option<ClusterSnapshot>,
}

impl StatsReport {
    /// Builds the report from per-shard snapshots.
    pub fn from_shards(shards: Vec<ShardSnapshot>) -> Self {
        let mut totals = ShardSnapshot {
            shard: shards.len() as u64,
            gets: 0,
            hits: 0,
            misses: 0,
            absent: 0,
            sets: 0,
            dels: 0,
            evictions: 0,
            index_visits: 0,
            index_height: 0,
            index_descent_hits: 0,
            hit_rate: 0.0,
            store_len: 0,
            wal_appends: 0,
            wal_fsyncs: 0,
            wal_fsync_ns: 0,
            wal_fsync_max_ns: 0,
            snapshots: 0,
            recovery_replayed: 0,
            recovery_us: 0,
            recovery_torn: 0,
            queue_depth: 0,
            batches: 0,
            batch_ops: 0,
            batch_max: 0,
            batch_mean: 0.0,
            get_latency: LatencySummary::merged(shards.iter().map(|s| &s.get_latency)),
            set_latency: LatencySummary::merged(shards.iter().map(|s| &s.set_latency)),
            del_latency: LatencySummary::merged(shards.iter().map(|s| &s.del_latency)),
        };
        for s in &shards {
            totals.gets += s.gets;
            totals.hits += s.hits;
            totals.misses += s.misses;
            totals.absent += s.absent;
            totals.sets += s.sets;
            totals.dels += s.dels;
            totals.evictions += s.evictions;
            totals.index_visits += s.index_visits;
            totals.index_height = totals.index_height.max(s.index_height);
            totals.index_descent_hits += s.index_descent_hits;
            totals.store_len += s.store_len;
            totals.wal_appends += s.wal_appends;
            totals.wal_fsyncs += s.wal_fsyncs;
            totals.wal_fsync_ns += s.wal_fsync_ns;
            totals.wal_fsync_max_ns = totals.wal_fsync_max_ns.max(s.wal_fsync_max_ns);
            totals.snapshots += s.snapshots;
            totals.recovery_replayed += s.recovery_replayed;
            // Shards recover independently (in parallel at startup), so the
            // slowest one is the recovery wall time; summing would inflate
            // it by the shard count. `recovery_torn` stays a sum: each
            // shard contributes 0 or 1, making the total a shard count.
            totals.recovery_us = totals.recovery_us.max(s.recovery_us);
            totals.recovery_torn += s.recovery_torn;
            totals.queue_depth += s.queue_depth;
            totals.batches += s.batches;
            totals.batch_ops += s.batch_ops;
            totals.batch_max = totals.batch_max.max(s.batch_max);
        }
        if totals.gets > 0 {
            totals.hit_rate = totals.hits as f64 / totals.gets as f64;
        }
        if totals.batches > 0 {
            totals.batch_mean = totals.batch_ops as f64 / totals.batches as f64;
        }
        Self {
            shards,
            totals,
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
