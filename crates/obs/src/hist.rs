//! An atomic, mergeable log₂-bucketed histogram.
//!
//! Bucket `i` holds samples with `floor(log2(ns)) == i`; quantiles read
//! back at the bucket's geometric midpoint, so error is bounded by the √2
//! bucket half-width. [`AtomicHistogram`] is recordable from any thread:
//! buckets are `AtomicU64`s bumped with `Relaxed` ordering, so the hot path
//! is one `fetch_add` per sample plus one for the count and one for the
//! running sum (the sum is what Prometheus `_sum` series need to stay
//! exact). Reads produce a [`HistSnapshot`], a plain value type that merges
//! exactly (bucket-wise addition), which is how per-shard histograms roll up
//! into totals — and which single-owner recorders (the load generators'
//! client-side latencies) record into directly.
//!
//! **Folds saturate.** A snapshot can be rebuilt from STATS JSON a peer sent
//! (the router and `cluster_top` merge other nodes' reports), so its counts
//! are outside input: every addition that combines snapshots — `merge`,
//! `from_buckets`, the running rank in `quantile_ns`, the `Sum` rule of
//! `metric_set!` — clamps at `u64::MAX` rather than panic a debug build or
//! wrap a release one. Recording is different: one owner counting its own
//! samples cannot reach 2⁶⁴, and `sum_ns` wraps there exactly as the
//! atomic's `fetch_add` does.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets (covers the full `u64` nanosecond range).
pub const BUCKETS: usize = 64;

/// A lock-free histogram of nanosecond samples.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one sample in nanoseconds (three relaxed `fetch_add`s).
    pub fn record_ns(&self, ns: u64) {
        let bucket = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy. Individual buckets are exact; the set is not
    /// read under a lock (samples recorded concurrently may or may not be
    /// included), matching the consistency of the shard counter snapshots.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of an [`AtomicHistogram`], or a histogram one owner
/// records into directly: a plain value type that supports exact merging
/// and quantile estimation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (`buckets[i]` holds samples with
    /// `floor(log2(ns)) == i`); always [`BUCKETS`] entries.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all recorded samples, nanoseconds.
    pub sum_ns: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// An empty snapshot (all-zero buckets).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }

    /// Rebuilds a snapshot from externally carried buckets (e.g. the STATS
    /// JSON payload). Short vectors are zero-padded; long ones truncated.
    pub fn from_buckets(buckets: &[u64]) -> Self {
        let mut b = vec![0u64; BUCKETS];
        for (slot, &v) in b.iter_mut().zip(buckets.iter()) {
            *slot = v;
        }
        let count = b.iter().fold(0u64, |sum, &n| sum.saturating_add(n));
        Self {
            buckets: b,
            count,
            sum_ns: 0,
        }
    }

    /// Records one sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let bucket = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        // Wraps like the atomic's `fetch_add`.
        self.sum_ns = self.sum_ns.wrapping_add(ns);
    }

    /// Adds another snapshot's samples into this one (exact: bucket-wise;
    /// saturating — see the module docs).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// The approximate `q`-quantile in nanoseconds (`q` in `[0, 1]`), read
    /// at the holding bucket's geometric midpoint, or `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                let lo = 1u64 << i;
                return Some((lo as f64 * std::f64::consts::SQRT_2) as u64);
            }
        }
        // Bucket counts can exceed `count` only if a concurrent recorder
        // raced the snapshot loads; the last non-empty bucket is still the
        // right answer for any rank at or past the total.
        let last = self.buckets.iter().rposition(|&n| n > 0)?;
        Some(((1u64 << last) as f64 * std::f64::consts::SQRT_2) as u64)
    }

    /// `quantile_ns` converted to microseconds (0.0 when empty) — the shape
    /// STATS reports.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q).unwrap_or(0) as f64 / 1e3
    }

    /// Cumulative count of samples at or below `2^exp` nanoseconds — the
    /// value of a Prometheus `le="2^exp ns"` bucket. Buckets `0..exp` hold
    /// exactly the samples `< 2^exp`, and log₂ bucketing cannot split finer.
    pub fn cumulative_le_pow2(&self, exp: u32) -> u64 {
        self.buckets.iter().take((exp as usize).min(BUCKETS)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_and_reads_quantiles_like_the_locked_variant() {
        let h = AtomicHistogram::new();
        for _ in 0..99 {
            h.record_ns(1_000); // bucket 9: [512, 1024)
        }
        h.record_ns(1_000_000); // bucket 19
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum_ns, 99 * 1_000 + 1_000_000);
        let p50 = s.quantile_ns(0.50).unwrap();
        assert!((512..2048).contains(&p50), "p50 = {p50}");
        let p100 = s.quantile_ns(1.0).unwrap();
        assert!((524_288..2_097_152).contains(&p100), "p100 = {p100}");
        assert_eq!(s.quantile_us(2.0), s.quantile_ns(1.0).unwrap() as f64 / 1e3);
    }

    #[test]
    fn zero_and_max_samples_clamp_into_range() {
        let h = AtomicHistogram::new();
        h.record_ns(0);
        h.record_ns(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[63], 1);
        assert!(s.quantile_ns(0.5).is_some());
    }

    #[test]
    fn direct_recording_matches_the_atomic_histogram() {
        let atomic = AtomicHistogram::new();
        let mut direct = HistSnapshot::empty();
        assert_eq!(direct.quantile_ns(0.5), None);
        for ns in [0, 1, 1_000, 1_000, 1_000_000, u64::MAX] {
            atomic.record_ns(ns);
            direct.record_ns(ns);
        }
        assert_eq!(direct, atomic.snapshot());
        // A rank inside a bucket's run reads that bucket, not the next one.
        let mut h = HistSnapshot::empty();
        for _ in 0..99 {
            h.record_ns(1_000);
        }
        h.record_ns(1_000_000);
        let p99 = h.quantile_ns(0.99).unwrap();
        assert!((512..2048).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn snapshots_merge_exactly() {
        let a = AtomicHistogram::new();
        a.record_ns(100);
        a.record_ns(200);
        let b = AtomicHistogram::new();
        b.record_ns(1 << 30);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum_ns, 300 + (1 << 30));
        assert_eq!(m.buckets.iter().sum::<u64>(), 3);
        assert!(m.quantile_ns(1.0).unwrap() > 1 << 29);
    }

    #[test]
    fn folding_hostile_counts_saturates_instead_of_overflowing() {
        let full = HistSnapshot::from_buckets(&[u64::MAX; BUCKETS]);
        assert_eq!(full.count, u64::MAX);
        let mut m = full.clone();
        m.sum_ns = u64::MAX;
        m.merge(&m.clone());
        assert_eq!(m.count, u64::MAX);
        assert_eq!(m.sum_ns, u64::MAX);
        assert!(m.buckets.iter().all(|&n| n == u64::MAX));
        assert!(m.quantile_ns(0.99).is_some());
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let h = AtomicHistogram::new();
        for ns in [1u64, 700, 1_500, 90_000, 2_000_000, 2_000_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        let mut prev = 0;
        for exp in 0..=64u32 {
            let c = s.cumulative_le_pow2(exp);
            assert!(c >= prev, "cumulative le buckets must be non-decreasing");
            prev = c;
        }
        assert_eq!(s.cumulative_le_pow2(64), s.count, "+Inf equals count");
    }

    #[test]
    fn from_buckets_pads_and_counts() {
        let s = HistSnapshot::from_buckets(&[1, 2, 3]);
        assert_eq!(s.buckets.len(), BUCKETS);
        assert_eq!(s.count, 6);
        assert_eq!(s.cumulative_le_pow2(2), 3);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = AtomicHistogram::new().snapshot();
        assert_eq!(s.quantile_ns(0.5), None);
        assert_eq!(s.quantile_us(0.5), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_ns((t + 1) * 1_000 + i % 7);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 40_000);
    }
}
