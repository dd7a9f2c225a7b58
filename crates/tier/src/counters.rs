//! The tier's lock-free counters, shared between the request path and
//! whoever serves STATS or `/metrics`. They are declared in
//! [`p4lru_server::metrics`], in the same table as the
//! [`TierSnapshot`](p4lru_server::TierSnapshot) STATS carries and the
//! `p4lru_tier_*` families, so a tier counter is one row there plus its
//! bump site in this crate.

pub use p4lru_server::metrics::{TierCounters, MAX_LEVELS};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts_and_ratios() {
        let c = TierCounters::default();
        for _ in 0..6 {
            c.get();
        }
        c.hit(0);
        c.hit(0);
        c.hit(2);
        c.set();
        c.del();
        c.forward();
        c.forward();
        c.invalidation();
        c.insert();
        c.eviction();
        c.stale_drop();
        let s = c.snapshot(3);
        assert_eq!(s.gets, 6);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 3);
        assert_eq!(s.level_hits, vec![2, 0, 1]);
        assert_eq!(s.sets, 1);
        assert_eq!(s.dels, 1);
        assert_eq!(s.forwarded, 2);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.stale_drops, 1);
        assert!((s.hit_rate - 0.5).abs() < 1e-12);
        assert!((s.offload_ratio - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_level_still_counts_the_hit() {
        let c = TierCounters::default();
        c.get();
        c.hit(MAX_LEVELS + 3);
        let s = c.snapshot(2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.level_hits, vec![0, 0]);
    }
}
