//! The switch-side index cache: series-connected P4LRU arrays and
//! single-table baselines behind one interface.

use p4lru_core::array::MemoryModel;
use p4lru_core::dfa::{CacheState, Dfa2, Dfa3, Dfa4};
use p4lru_core::perm::Perm;
use p4lru_core::policies::{build_cache, merge_replace, Access, Cache, PolicyKind};
use p4lru_core::series::{QueryHit, ReplyOutcome, SeriesLru};

/// Memory layout of one index entry: 8-byte key, 6-byte (48-bit) address,
/// 1-byte unit state.
pub fn index_layout() -> MemoryModel {
    MemoryModel {
        key_bytes: 8,
        value_bytes: 6,
        state_bytes: 1,
    }
}

/// Membership change caused by a reply (drives miss stats and similarity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyEffect {
    /// Key fully expelled from the cache, if any.
    pub evicted: Option<u64>,
    /// A previously-absent key was admitted.
    pub inserted: bool,
    /// An already-cached key had its recency refreshed.
    pub refreshed: bool,
}

impl ReplyEffect {
    /// A dropped/stale reply: the cache is unchanged.
    pub fn dropped() -> Self {
        Self {
            evicted: None,
            inserted: false,
            refreshed: false,
        }
    }
}

/// A query/reply index cache (the LruIndex protocol, §3.2).
pub trait IndexCache {
    /// Read-only query pass: the `cached_flag` (0 = miss) the switch stamps.
    fn query(&self, key: u64) -> u8;

    /// Reply pass: the single deferred write. `flag` is what the query
    /// stamped; `addr` is the index carried back by the reply.
    fn apply_reply(&mut self, key: u64, addr: u64, flag: u8, now_ns: u64) -> ReplyEffect;

    /// Total entry capacity.
    fn capacity(&self) -> usize;

    /// Label for figure output.
    fn label(&self) -> String;
}

/// Series-connected P4LRU arrays (the paper's design; N = 3 deployed).
pub struct SeriesIndex<const N: usize, S: CacheState<N>> {
    series: SeriesLru<u64, u64, N, S>,
    label: &'static str,
}

/// The series behind [`SeriesIndex::new`]: `levels` arrays splitting the
/// units that fit `memory_bytes` of [`index_layout`] entries. Generic in
/// the value, so a cache that keeps whole values in the series (the serving
/// tier's switch) gets the same capacity and hashing as the index.
pub fn index_series<V, const N: usize, S: CacheState<N>>(
    levels: usize,
    memory_bytes: usize,
    seed: u64,
) -> SeriesLru<u64, V, N, S> {
    let units_total = index_layout().units_in(memory_bytes, N);
    SeriesLru::new(levels, (units_total / levels).max(1), seed)
}

impl<const N: usize, S: CacheState<N>> SeriesIndex<N, S> {
    /// `levels` arrays sized to fit `memory_bytes` in total.
    pub fn new(levels: usize, memory_bytes: usize, seed: u64, label: &'static str) -> Self {
        Self {
            series: index_series(levels, memory_bytes, seed),
            label,
        }
    }

    /// The underlying series (tests and diagnostics).
    pub fn series(&self) -> &SeriesLru<u64, u64, N, S> {
        &self.series
    }
}

impl<const N: usize, S: CacheState<N>> IndexCache for SeriesIndex<N, S> {
    fn query(&self, key: u64) -> u8 {
        self.series.query(&key).0.cached_flag()
    }

    fn apply_reply(&mut self, key: u64, addr: u64, flag: u8, _now_ns: u64) -> ReplyEffect {
        let hit = QueryHit::from_cached_flag(flag);
        match self.series.apply_reply(hit, key, addr) {
            ReplyOutcome::Promoted | ReplyOutcome::RefreshedFront => ReplyEffect {
                evicted: None,
                inserted: false,
                refreshed: true,
            },
            ReplyOutcome::Stale => ReplyEffect::dropped(),
            ReplyOutcome::InsertedFresh { expelled } => ReplyEffect {
                evicted: expelled.map(|(k, _)| k),
                inserted: true,
                refreshed: false,
            },
        }
    }

    fn capacity(&self) -> usize {
        self.series.capacity()
    }

    fn label(&self) -> String {
        self.label.to_owned()
    }
}

/// A single-table policy cache under the deferred protocol (query is
/// read-only; the reply performs the access).
pub struct PolicyIndex {
    cache: Box<dyn Cache<u64, u64>>,
}

impl PolicyIndex {
    /// Builds the policy cache within `memory_bytes`.
    pub fn new(kind: PolicyKind, memory_bytes: usize, seed: u64) -> Self {
        Self {
            cache: build_cache(kind, memory_bytes, index_layout(), seed),
        }
    }
}

impl IndexCache for PolicyIndex {
    fn query(&self, key: u64) -> u8 {
        u8::from(self.cache.peek(&key).is_some())
    }

    fn apply_reply(&mut self, key: u64, addr: u64, _flag: u8, now_ns: u64) -> ReplyEffect {
        match self.cache.access(key, addr, now_ns, merge_replace) {
            Access::Hit => ReplyEffect {
                evicted: None,
                inserted: false,
                refreshed: true,
            },
            Access::Miss { evicted, inserted } => ReplyEffect {
                evicted: evicted.map(|(k, _)| k),
                inserted,
                refreshed: false,
            },
        }
    }

    fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    fn label(&self) -> String {
        self.cache.name().to_owned()
    }
}

/// Builds the index cache for a policy: P4LRU flavors become
/// series-connected arrays with `levels` levels; everything else is a
/// single-table baseline.
pub fn build_index_cache(
    kind: PolicyKind,
    levels: usize,
    memory_bytes: usize,
    seed: u64,
) -> Box<dyn IndexCache> {
    match kind {
        PolicyKind::P4Lru1 => Box::new(SeriesIndex::<1, Perm<1>>::new(
            levels,
            memory_bytes,
            seed,
            "P4LRU1",
        )),
        PolicyKind::P4Lru2 => Box::new(SeriesIndex::<2, Dfa2>::new(
            levels,
            memory_bytes,
            seed,
            "P4LRU2",
        )),
        PolicyKind::P4Lru3 => Box::new(SeriesIndex::<3, Dfa3>::new(
            levels,
            memory_bytes,
            seed,
            "P4LRU3",
        )),
        PolicyKind::P4Lru4 => Box::new(SeriesIndex::<4, Dfa4>::new(
            levels,
            memory_bytes,
            seed,
            "P4LRU4",
        )),
        other => Box::new(PolicyIndex::new(other, memory_bytes, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_index_roundtrip() {
        let mut c = SeriesIndex::<3, Dfa3>::new(4, 4096, 1, "P4LRU3");
        assert_eq!(c.query(10), 0);
        c.apply_reply(10, 1234, 0, 0);
        let flag = c.query(10);
        assert_eq!(flag, 1, "fresh insert lands at level 1");
        // Promote via the protocol.
        c.apply_reply(10, 1234, flag, 0);
        assert_eq!(c.series().duplicate_count(), 0);
    }

    #[test]
    fn policy_index_roundtrip() {
        let mut c = PolicyIndex::new(PolicyKind::Ideal, 4096, 1);
        assert_eq!(c.query(5), 0);
        let eff = c.apply_reply(5, 99, 0, 0);
        assert!(eff.inserted);
        assert_eq!(c.query(5), 1);
    }

    #[test]
    fn builder_selects_series_for_p4lru() {
        let c = build_index_cache(PolicyKind::P4Lru3, 4, 8192, 2);
        assert_eq!(c.label(), "P4LRU3");
        let c = build_index_cache(PolicyKind::Timeout { timeout_ns: 10 }, 4, 8192, 2);
        assert_eq!(c.label(), "Timeout");
    }

    #[test]
    fn equal_memory_regardless_of_levels() {
        let one = build_index_cache(PolicyKind::P4Lru3, 1, 30_000, 3);
        let four = build_index_cache(PolicyKind::P4Lru3, 4, 30_000, 3);
        let ratio = one.capacity() as f64 / four.capacity() as f64;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "capacities {} vs {}",
            one.capacity(),
            four.capacity()
        );
    }

    #[test]
    fn flag_encodes_level_plus_one() {
        let mut c = SeriesIndex::<3, Dfa3>::new(2, 2048, 7, "P4LRU3");
        c.apply_reply(1, 1, 0, 0);
        assert_eq!(c.query(1), 1);
        // Push enough fresh keys through level 0 to demote key 1.
        let mut demoted = false;
        for k in 100..200u64 {
            c.apply_reply(k, k, 0, 0);
            if c.query(1) == 2 {
                demoted = true;
                break;
            }
            if c.query(1) == 0 {
                break; // fully expelled before we observed level 2 — rehash
            }
        }
        assert!(demoted, "key 1 never observed at level 2");
    }
}
