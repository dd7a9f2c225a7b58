//! Series connection of P4LRU arrays (paper §1.2 and §3.2).
//!
//! Chaining `L` arrays builds a deeper — approximate — LRU: the first array
//! holds the most recent entries; an entry evicted from level `i` is demoted
//! to the *tail* (LRU position) of its unit in level `i+1`; only an entry
//! pushed out of the last level truly leaves the cache.
//!
//! Done naively (insert every miss at the head of level 1), the same key can
//! end up recorded in several arrays, wasting capacity. The paper's insight
//! is that whenever each key visits the data plane **twice** per access — a
//! query towards the server and a reply back, as in LruIndex — the query
//! pass can be *read-only* across all levels (learning which level, if any,
//! holds the key) and the reply pass performs the single required write:
//! promote in-place on a hit, cascade-insert on a miss. No duplicates arise.
//!
//! [`SeriesLru`] implements both the deferred protocol ([`SeriesLru::query`]
//! plus [`SeriesLru::apply_reply`]) and the naive eager mode
//! ([`SeriesLru::insert_eager`]) used by the duplicate-entry ablation.

use std::hash::Hash;

use crate::array::LruArray;
use crate::dfa::{CacheState, Dfa3};
use crate::perm::Perm;
use crate::unit::Outcome;

/// A series connection of P4LRU3 arrays — LruIndex's configuration.
pub type P4Lru3Series<K, V> = SeriesLru<K, V, 3, Dfa3>;

/// Where a query found its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryHit {
    /// Found in the array at this 0-based level. (The paper's `cached_flag`
    /// is this level plus one; flag 0 means miss.)
    Level(usize),
    /// Not cached at any level.
    Miss,
}

impl QueryHit {
    /// Encodes as the paper's `cached_flag` header field: `0` for a miss,
    /// `level + 1` for a hit.
    pub fn cached_flag(self) -> u8 {
        match self {
            QueryHit::Level(l) => (l + 1) as u8,
            QueryHit::Miss => 0,
        }
    }

    /// Decodes a `cached_flag` header field.
    pub fn from_cached_flag(flag: u8) -> Self {
        if flag == 0 {
            QueryHit::Miss
        } else {
            QueryHit::Level(flag as usize - 1)
        }
    }
}

/// What a reply actually did to the cache (precise membership accounting
/// for miss statistics and the similarity tracker).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplyOutcome<K, V> {
    /// Hit path: the key was promoted in place.
    Promoted,
    /// Hit path, but the key had left the claimed level — reply dropped,
    /// cache unchanged.
    Stale,
    /// Miss path: the key entered at level 0; `expelled` left the cache.
    InsertedFresh {
        /// Entry pushed out of the last level, if any.
        expelled: Option<(K, V)>,
    },
    /// Miss path, but the key was already at level 0 (a racing earlier
    /// reply inserted it) — refreshed instead of duplicated.
    RefreshedFront,
}

impl<K, V> ReplyOutcome<K, V> {
    /// The fully expelled entry, if any.
    pub fn expelled(self) -> Option<(K, V)> {
        match self {
            ReplyOutcome::InsertedFresh { expelled } => expelled,
            _ => None,
        }
    }
}

/// Series-connected P4LRU arrays with deferred (reply-driven) updates.
///
/// ```
/// use p4lru_core::series::{P4Lru3Series, QueryHit};
///
/// let mut cache = P4Lru3Series::<u64, u64>::new(4, 16, 7);
/// // Query pass (read-only) → reply pass (the single write).
/// let (hit, _) = cache.query(&42);
/// assert_eq!(hit, QueryHit::Miss);
/// cache.apply_reply(hit, 42, 0xABCD);
/// assert_eq!(cache.get(&42), Some(&0xABCD));
/// ```
#[derive(Clone, Debug)]
pub struct SeriesLru<K, V, const N: usize, S: CacheState<N> = Perm<N>> {
    levels: Vec<LruArray<K, V, N, S>>,
}

impl<K: Eq + Hash + Clone, V, const N: usize, S: CacheState<N>> SeriesLru<K, V, N, S> {
    /// `levels` arrays of `units_per_level` units each; per-level hash
    /// functions are derived from `seed` (distinct per level, as each array
    /// pairs with its own `hᵢ(·)` in the paper).
    ///
    /// # Panics
    /// Panics if `levels == 0` or `units_per_level == 0`.
    pub fn new(levels: usize, units_per_level: usize, seed: u64) -> Self {
        assert!(levels > 0, "series needs at least one level");
        Self {
            levels: (0..levels)
                .map(|l| {
                    LruArray::with_seed(units_per_level, crate::hashing::hash_u64(seed, l as u64))
                })
                .collect(),
        }
    }

    /// Number of levels (`connection levels` in Figure 16).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Total entry capacity across all levels.
    pub fn capacity(&self) -> usize {
        self.levels.iter().map(LruArray::capacity).sum()
    }

    /// Total cached entries (statistics only).
    pub fn len(&self) -> usize {
        self.levels.iter().map(LruArray::len).sum()
    }

    /// Is the series entirely empty?
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(LruArray::is_empty)
    }

    /// The query-packet pass: read-only probe of every level in order.
    /// Returns the hit level and value, without modifying anything.
    pub fn query(&self, key: &K) -> (QueryHit, Option<&V>) {
        for (level, array) in self.levels.iter().enumerate() {
            if let Some(v) = array.get(key) {
                return (QueryHit::Level(level), Some(v));
            }
        }
        (QueryHit::Miss, None)
    }

    /// Read-only value lookup across levels.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.query(key).1
    }

    /// Mutable value lookup across levels, without LRU reordering (the
    /// series' [`LruArray::get_mut`]).
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.levels.iter_mut().find_map(|array| array.get_mut(key))
    }

    /// Is the key cached at any level?
    pub fn contains(&self, key: &K) -> bool {
        matches!(self.query(key).0, QueryHit::Level(_))
    }

    /// The reply-packet pass (§3.2): applies the single deferred write.
    ///
    /// * `hit = Level(i)` — the query found the key in level `i`; promote it
    ///   to most-recently-used within its unit there (value unchanged).
    /// * `hit = Miss` — insert `(key, value)` fresh at level 0 and cascade
    ///   each eviction to the tail of the next level.
    ///
    /// The protocol guarantees `hit` comes from a [`Self::query`] on the
    /// same key, but under in-flight delay the cache may have moved on; the
    /// returned [`ReplyOutcome`] says what actually happened (a stale hit
    /// level drops the reply, exactly as the switch would).
    pub fn apply_reply(&mut self, hit: QueryHit, key: K, value: V) -> ReplyOutcome<K, V> {
        match hit {
            QueryHit::Level(level) if level < self.levels.len() => {
                if self.levels[level].promote(&key) {
                    ReplyOutcome::Promoted
                } else {
                    ReplyOutcome::Stale
                }
            }
            _ => self.insert_cascade(key, value),
        }
    }

    /// Inserts a new entry at level 0 (as most recently used) and demotes
    /// evictions down the chain (each lands at the *tail* of its unit in the
    /// next level).
    pub fn insert_cascade(&mut self, key: K, value: V) -> ReplyOutcome<K, V> {
        let outcome = self.levels[0].update(key, value, |slot, v| *slot = v);
        let (front_hit, mut carry) = match outcome {
            Outcome::Evicted { key, value } => (false, Some((key, value))),
            Outcome::Inserted => (false, None),
            Outcome::Hit { .. } => (true, None),
        };
        for array in self.levels.iter_mut().skip(1) {
            let Some((k, v)) = carry.take() else {
                break;
            };
            carry = array.insert_tail(k, v);
        }
        if front_hit {
            ReplyOutcome::RefreshedFront
        } else {
            ReplyOutcome::InsertedFresh { expelled: carry }
        }
    }

    /// Removes the key from the series, returning the level it occupied and
    /// its value. This is the control-plane invalidation path (a SET/DEL in
    /// a two-tier deployment must expel the switch copy before the write is
    /// forwarded); it has no data-plane equivalent in the paper's query/reply
    /// protocol, which only ever promotes or cascade-inserts.
    ///
    /// Every level is scanned so that even eager-mode duplicates are fully
    /// cleared; the returned entry is the shallowest (authoritative) copy.
    pub fn remove(&mut self, key: &K) -> Option<(usize, V)> {
        let mut found = None;
        for (level, array) in self.levels.iter_mut().enumerate() {
            if let Some(v) = array.remove(key) {
                found.get_or_insert((level, v));
            }
        }
        found
    }

    /// The naive eager mode (ablation): every access writes level 0
    /// immediately — hit at level 0 promotes, anything else inserts fresh,
    /// potentially duplicating keys already held at deeper levels.
    pub fn insert_eager(&mut self, key: K, value: V) -> ReplyOutcome<K, V> {
        if self.levels[0].promote(&key) {
            return ReplyOutcome::Promoted;
        }
        self.insert_cascade(key, value)
    }

    /// Number of keys recorded at more than one level — the duplicate-entry
    /// waste the deferred protocol avoids. O(len); statistics only.
    pub fn duplicate_count(&self) -> usize {
        let mut seen = std::collections::HashMap::new();
        for array in &self.levels {
            for (_, k, _) in array.entries() {
                *seen.entry(k.clone()).or_insert(0usize) += 1;
            }
        }
        seen.values().filter(|&&c| c > 1).count()
    }

    /// Access to a level's array (tests, layout tools).
    pub fn level(&self, idx: usize) -> &LruArray<K, V, N, S> {
        &self.levels[idx]
    }

    /// Checks invariants of every level.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (l, array) in self.levels.iter().enumerate() {
            array
                .check_invariants()
                .map_err(|e| format!("level {l}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(levels: usize, units: usize) -> P4Lru3Series<u64, u64> {
        SeriesLru::new(levels, units, 0xD1CE)
    }

    #[test]
    fn cached_flag_encoding_roundtrips() {
        assert_eq!(QueryHit::Miss.cached_flag(), 0);
        assert_eq!(QueryHit::Level(0).cached_flag(), 1);
        assert_eq!(QueryHit::Level(3).cached_flag(), 4);
        for flag in 0..5u8 {
            assert_eq!(QueryHit::from_cached_flag(flag).cached_flag(), flag);
        }
    }

    #[test]
    fn query_then_reply_inserts_once() {
        let mut s = series(4, 8);
        let (hit, _) = s.query(&10);
        assert_eq!(hit, QueryHit::Miss);
        s.apply_reply(hit, 10, 100);
        assert_eq!(s.get(&10), Some(&100));
        assert_eq!(s.len(), 1);
        // Reply for a hit key only promotes, never duplicates.
        let (hit, v) = s.query(&10);
        assert_eq!(hit, QueryHit::Level(0));
        assert_eq!(v, Some(&100));
        s.apply_reply(hit, 10, 100);
        assert_eq!(s.len(), 1);
        assert_eq!(s.duplicate_count(), 0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn get_mut_rewrites_a_value_at_any_level_in_place() {
        let mut s = series(2, 1);
        for k in 1..=4u64 {
            s.apply_reply(QueryHit::Miss, k, k * 10);
        }
        // Key 1 was demoted to level 1; key 2 is level 0's LRU.
        *s.get_mut(&1).unwrap() = 11;
        *s.get_mut(&2).unwrap() = 22;
        assert_eq!(s.get_mut(&9), None);
        assert_eq!(s.query(&1), (QueryHit::Level(1), Some(&11)));
        // No reordering: the next fresh key still demotes key 2, and the
        // cascade carries its rewritten value down.
        s.apply_reply(QueryHit::Miss, 5, 50);
        assert_eq!(s.query(&2), (QueryHit::Level(1), Some(&22)));
        s.check_invariants().unwrap();
    }

    #[test]
    fn eviction_cascades_to_next_level_tail() {
        let mut s = series(2, 1); // one unit per level: fully deterministic
        for k in 1..=3u64 {
            s.apply_reply(QueryHit::Miss, k, k);
        }
        // Level 0 unit full with 3,2,1 (MRU..LRU). Insert 4: 1 demotes.
        s.apply_reply(QueryHit::Miss, 4, 4);
        assert_eq!(s.level(0).get(&1), None);
        assert_eq!(s.level(1).get(&1), Some(&1));
        assert_eq!(s.get(&1), Some(&1));
        s.check_invariants().unwrap();
    }

    #[test]
    fn full_series_expels_from_last_level() {
        let mut s = series(2, 1);
        // Insert 7 distinct keys, never promoting. Downstream units admit
        // only at the tail (one live slot without promotions — exactly the
        // hardware behaviour), so each demotion displaces the previous one.
        let mut expelled = Vec::new();
        for k in 1..=7u64 {
            if let Some((ek, _)) = s.apply_reply(QueryHit::Miss, k, k).expelled() {
                expelled.push(ek);
            }
        }
        assert_eq!(expelled, vec![1, 2, 3]);
        // Level 0 holds 7,6,5; level 1's tail holds 4.
        assert_eq!(s.len(), 4);
        assert!(!s.contains(&1));
        assert!(s.contains(&4));
    }

    #[test]
    fn promote_keeps_entry_alive_across_demotions() {
        let mut s = series(2, 1);
        for k in 1..=3u64 {
            s.apply_reply(QueryHit::Miss, k, k * 10);
        }
        // Keep key 1 hot via the deferred protocol.
        let (hit, _) = s.query(&1);
        s.apply_reply(hit, 1, 10);
        // Two fresh keys now demote 2 then 3, never 1.
        s.apply_reply(QueryHit::Miss, 8, 80);
        let expelled = s.apply_reply(QueryHit::Miss, 9, 90).expelled();
        assert_eq!(s.level(0).get(&1), Some(&10));
        // 2 was demoted first, then displaced off level 1's tail by 3.
        assert_eq!(expelled.map(|(k, _)| k), Some(2));
        assert!(s.level(1).get(&3).is_some());
    }

    #[test]
    fn deferred_protocol_never_duplicates() {
        let mut s = series(4, 4);
        let mut x = 7u64;
        for _ in 0..5000 {
            x = crate::hashing::mix64(x);
            let key = x % 40;
            let (hit, _) = s.query(&key);
            s.apply_reply(hit, key, x);
            assert_eq!(s.duplicate_count(), 0);
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn eager_mode_can_duplicate() {
        // The paper's warning: "the same key might be logged in several
        // arrays, leading to suboptimal cache utilization." Drive the eager
        // mode over a small hot key set and observe duplicates appear.
        let mut s = series(3, 4);
        let mut x = 3u64;
        let mut max_dupes = 0usize;
        for _ in 0..2000 {
            x = crate::hashing::mix64(x);
            let key = x % 40;
            s.insert_eager(key, x);
            max_dupes = max_dupes.max(s.duplicate_count());
        }
        assert!(max_dupes > 0, "eager series never duplicated a key");
        s.check_invariants().unwrap();
    }

    #[test]
    fn stale_hit_level_is_tolerated() {
        let mut s = series(2, 2);
        // Reply claims a hit at level 1 for a key that is not there.
        assert_eq!(
            s.apply_reply(QueryHit::Level(1), 5, 50),
            ReplyOutcome::Stale
        );
        assert!(!s.contains(&5));
        // Out-of-range level behaves like a miss-insert.
        s.apply_reply(QueryHit::Level(9), 6, 60);
        assert!(s.contains(&6));
    }

    #[test]
    fn remove_expels_from_any_level() {
        let mut s = series(2, 1);
        for k in 1..=4u64 {
            s.apply_reply(QueryHit::Miss, k, k * 10);
        }
        // Key 1 was demoted to level 1; key 4 sits at level 0.
        assert_eq!(s.remove(&1), Some((1, 10)));
        assert_eq!(s.remove(&4), Some((0, 40)));
        assert_eq!(s.remove(&1), None, "second remove finds nothing");
        assert!(!s.contains(&1));
        assert!(!s.contains(&4));
        s.check_invariants().unwrap();
    }

    #[test]
    fn remove_clears_eager_duplicates() {
        let mut s = series(3, 4);
        let mut x = 11u64;
        for _ in 0..2000 {
            x = crate::hashing::mix64(x);
            s.insert_eager(x % 30, x);
        }
        for k in 0..30u64 {
            s.remove(&k);
            assert!(!s.contains(&k), "key {k} survived removal");
        }
        assert_eq!(s.duplicate_count(), 0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn single_level_series_is_just_an_array() {
        let mut s = series(1, 2);
        for k in 0..20u64 {
            s.apply_reply(QueryHit::Miss, k, k);
        }
        assert!(s.len() <= s.capacity());
        assert_eq!(s.level_count(), 1);
        s.check_invariants().unwrap();
    }

    #[test]
    fn capacity_sums_levels() {
        let s = series(4, 16);
        assert_eq!(s.capacity(), 4 * 16 * 3);
    }
}
