//! The assembled database: B+Tree index over the slab store, plus the
//! service-time model used by the LruIndex throughput experiments.

use crate::btree::{BPlusTree, SortedLoad};
use crate::slab::{Addr48, Record, SlabStore, VALUE_SIZE};

/// Default B+Tree fan-out used across the workspace. 64 keys per node keeps
/// a 1M-key index at height 4 (vs 6 at the old 32) while a node's head
/// array still spans only four cache lines.
pub const DEFAULT_MAX_KEYS: usize = 64;

/// Per-node-visit cost of an index walk, in nanoseconds. A cache-missing
/// pointer chase in DRAM is ≈100 ns; binary search within a node adds a
/// little.
pub const NODE_VISIT_NS: u64 = 120;

/// Cost of reading a 64-byte record by direct address, in nanoseconds.
pub const RECORD_READ_NS: u64 = 100;

/// Fixed per-request server overhead (parsing, syscalls, reply build), ns.
pub const REQUEST_OVERHEAD_NS: u64 = 1_000;

/// A key-value database: `u64` keys → 64-byte records, indexed by a B+Tree
/// whose leaves hold [`Addr48`] record addresses.
///
/// ```
/// use p4lru_kvstore::db::Database;
///
/// let db = Database::populate(10_000);
/// let slow = db.lookup_by_key(77).unwrap();   // walks the index
/// let fast = db.lookup_by_addr(slow.addr);    // what a cached index unlocks
/// assert_eq!(slow.record, fast);
/// assert!(db.service_ns_indexed() < db.service_ns_unindexed());
/// ```
#[derive(Clone, Debug)]
pub struct Database {
    index: BPlusTree<u64, Addr48>,
    store: SlabStore,
}

/// Result of a keyed lookup: the record plus the cost drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lookup<'a> {
    /// The record's address (what LruIndex would cache).
    pub addr: Addr48,
    /// The record contents.
    pub record: &'a Record,
    /// B+Tree nodes visited to find the address.
    pub index_visits: usize,
}

/// Result of an upsert: where the record landed and what the single index
/// walk cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Upserted {
    /// The record's address (stable across overwrites of an existing key).
    pub addr: Addr48,
    /// Whether the key already existed (the write was an in-place
    /// overwrite rather than a fresh insert).
    pub existed: bool,
    /// B+Tree nodes visited by the combined find-or-insert walk.
    pub index_visits: usize,
}

impl Default for Database {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_KEYS)
    }
}

impl Database {
    /// An empty database with the given index fan-out.
    pub fn new(max_keys: usize) -> Self {
        Self {
            index: BPlusTree::new(max_keys),
            store: SlabStore::new(),
        }
    }

    /// Builds a database with `items` records keyed `0..items`, each record
    /// derived deterministically from its key, in one [`DatabaseBuilder`]
    /// pass (full leaves, no per-key descent).
    pub fn populate(items: u64) -> Self {
        Self::from_entries((0..items).map(|key| (key, record_for(key))))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Index height (lookup cost in node visits).
    pub fn index_height(&self) -> usize {
        self.index.height()
    }

    /// Lookups the index answered from its descent cache (~1 node visit
    /// instead of a full walk) since this database was built.
    pub fn index_descent_hits(&self) -> u64 {
        self.index.descent_hits()
    }

    /// Applies any pending leaf-mode adaptations in the index now (e.g.
    /// after a snapshot scan flagged every leaf as scanned). Cheap; meant
    /// for quiescent moments like post-snapshot seal.
    pub fn optimize_index(&mut self) {
        self.index.apply_adaptation();
    }

    /// Inserts or overwrites `key`, returning the prior address if the key
    /// existed. A thin wrapper over [`Self::upsert`].
    pub fn insert(&mut self, key: u64, record: Record) -> Option<Addr48> {
        let u = self.upsert(key, record);
        u.existed.then_some(u.addr)
    }

    /// Inserts or overwrites `key` with a **single** index walk.
    ///
    /// The seed-era `insert` walked the index twice — once to probe for the
    /// key, once to insert it. This resolves the slot with one
    /// find-or-insert descent: a fresh key allocates its record on the way
    /// down; an existing key overwrites its record in place.
    pub fn upsert(&mut self, key: u64, record: Record) -> Upserted {
        let store = &mut self.store;
        let mut carry = Some(record);
        let slot = self
            .index
            .get_or_insert_with(key, || store.insert(carry.take().expect("fresh key")));
        let addr = *slot.value;
        let existed = slot.existed;
        let index_visits = slot.visits;
        if let Some(record) = carry {
            store.set(addr, record);
        }
        Upserted {
            addr,
            existed,
            index_visits,
        }
    }

    /// Keyed lookup through the index (the slow path a cache miss takes).
    /// Uses the descent cache, so a run of lookups hitting the same leaf
    /// costs ~1 node visit each after the first.
    pub fn lookup_by_key(&self, key: u64) -> Option<Lookup<'_>> {
        let (addr, visits) = self.index.lookup_hot(&key);
        let addr = *addr?;
        Some(Lookup {
            addr,
            record: self.store.get(addr),
            index_visits: visits,
        })
    }

    /// Resolves a run of keys to their record addresses with one
    /// interleaved index descent ([`BPlusTree::lookup_run`]), replacing
    /// `out`'s contents with one entry per key, in key order. Each found
    /// record is touched as well, so the copies that follow read lines
    /// already on their way (both ends: the slab does not line-align its
    /// records). A run costs `index_height` visits per key and does not
    /// consult the descent cache.
    pub fn resolve_run(&self, keys: &[u64], out: &mut Vec<Option<Addr48>>) {
        self.index.lookup_run(keys, out);
        for addr in out.iter().flatten() {
            let record = self.store.get(*addr);
            std::hint::black_box((record[0], record[VALUE_SIZE - 1]));
        }
    }

    /// Direct read by cached address (the fast path a cache hit takes).
    pub fn lookup_by_addr(&self, addr: Addr48) -> &Record {
        self.store.get(addr)
    }

    /// Iterates every `(key, record)` pair in ascending key order.
    ///
    /// This is the serialization hook the durability subsystem snapshots
    /// through: a full, ordered scan of the store without exposing the
    /// index or slab internals.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Record)> + '_ {
        self.index
            .iter()
            .map(|(key, addr)| (*key, self.store.get(*addr)))
    }

    /// Builds a database from `(key, record)` pairs in one
    /// [`DatabaseBuilder`] pass (deserialization hook — the slab assigns
    /// fresh addresses, so only the contents round-trip, not the physical
    /// layout). Ascending keys stream straight into full leaves; any other
    /// order is sorted once at the end, and later duplicates win, matching
    /// an insert-loop replay.
    pub fn from_entries(entries: impl IntoIterator<Item = (u64, Record)>) -> Self {
        let entries = entries.into_iter();
        let mut builder = DatabaseBuilder::with_capacity(entries.size_hint().0);
        for (key, record) in entries {
            builder.push(key, record);
        }
        builder.finish()
    }

    /// [`Self::from_entries`], named for callers whose input is already in
    /// ascending key order (snapshots are written from [`Self::iter`]).
    /// Unsorted input still builds the same database, through the sort.
    pub fn from_sorted_entries(entries: impl IntoIterator<Item = (u64, Record)>) -> Self {
        Self::from_entries(entries)
    }

    /// Removes `key`.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.index.remove(&key) {
            Some(addr) => {
                self.store.remove(addr);
                true
            }
            None => false,
        }
    }

    /// Service time of a request whose index walk was *skipped* thanks to a
    /// cached address.
    pub fn service_ns_indexed(&self) -> u64 {
        REQUEST_OVERHEAD_NS + RECORD_READ_NS
    }

    /// Service time of a request that must walk the index.
    pub fn service_ns_unindexed(&self) -> u64 {
        REQUEST_OVERHEAD_NS + self.index_height() as u64 * NODE_VISIT_NS + RECORD_READ_NS
    }
}

/// The one way a [`Database`] is built in bulk (fresh population, snapshot
/// recovery, a shipped snapshot): records are pushed one at a time, each
/// goes straight into the slab, and its `(key, address)` straight into the
/// index's bottom-up load, which places full leaves as they fill — no
/// intermediate copy of the records or of the pairs.
///
/// Keys pushed in strictly ascending order never leave that path. The
/// first key at or below its predecessor switches the build to collecting
/// `(key, address)` pairs, which [`Self::finish`] sorts and deduplicates
/// (the last push of a key wins, as in an insert loop) before loading them.
///
/// ```
/// use p4lru_kvstore::db::{record_for, DatabaseBuilder};
///
/// let mut builder = DatabaseBuilder::new();
/// for key in (0..1000).filter(|k| k % 3 == 0) {
///     builder.push(key, record_for(key));
/// }
/// let db = builder.finish();
/// assert_eq!(db.len(), 334);
/// assert_eq!(db.lookup_by_key(999).unwrap().record, &record_for(999));
/// ```
#[derive(Debug)]
pub struct DatabaseBuilder {
    store: SlabStore,
    index: SortedLoad<u64, Addr48>,
    /// Every pair pushed so far, once a key arrived out of order.
    unsorted: Option<Vec<(u64, Addr48)>>,
}

impl Default for DatabaseBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DatabaseBuilder {
    /// An empty build.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty build with slab room for `records` records (a hint; more
    /// may be pushed).
    pub fn with_capacity(records: usize) -> Self {
        Self {
            store: SlabStore::with_capacity(records),
            index: SortedLoad::new(DEFAULT_MAX_KEYS),
            unsorted: None,
        }
    }

    /// Adds a record.
    pub fn push(&mut self, key: u64, record: Record) {
        let addr = self.store.insert(record);
        if let Some(pairs) = &mut self.unsorted {
            pairs.push((key, addr));
        } else if self.index.last_key().is_some_and(|&last| key <= last) {
            let loaded = std::mem::replace(&mut self.index, SortedLoad::new(DEFAULT_MAX_KEYS));
            let mut pairs: Vec<(u64, Addr48)> =
                loaded.finish().iter().map(|(k, a)| (*k, *a)).collect();
            pairs.push((key, addr));
            self.unsorted = Some(pairs);
        } else {
            self.index.push(key, addr);
        }
    }

    /// The database built from every pushed record.
    pub fn finish(self) -> Database {
        let Self {
            mut store,
            index,
            unsorted,
        } = self;
        let index = match unsorted {
            None => index.finish(),
            Some(mut pairs) => {
                // Stable: a key's pushes stay in push order, so keeping the
                // last of each run keeps the latest record.
                pairs.sort_by_key(|&(key, _)| key);
                pairs.dedup_by(|later, kept| {
                    if later.0 != kept.0 {
                        return false;
                    }
                    std::mem::swap(&mut later.1, &mut kept.1);
                    store.remove(later.1);
                    true
                });
                BPlusTree::from_sorted(DEFAULT_MAX_KEYS, pairs)
            }
        };
        Database { index, store }
    }
}

/// Deterministic record contents for key `k` (checkable by tests).
pub fn record_for(k: u64) -> Record {
    let mut r = [0u8; VALUE_SIZE];
    r[..8].copy_from_slice(&k.to_le_bytes());
    r[8..16].copy_from_slice(&p4lru_core::hashing::mix64(k).to_le_bytes());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populate_and_lookup() {
        let db = Database::populate(10_000);
        assert_eq!(db.len(), 10_000);
        let l = db.lookup_by_key(1234).expect("key exists");
        assert_eq!(l.record, &record_for(1234));
        assert_eq!(l.index_visits, db.index_height());
        assert_eq!(db.lookup_by_key(99_999), None);
    }

    #[test]
    fn cached_address_reads_same_record() {
        let db = Database::populate(1000);
        let l = db.lookup_by_key(77).unwrap();
        assert_eq!(db.lookup_by_addr(l.addr), &record_for(77));
    }

    #[test]
    fn indexed_path_is_cheaper_and_gap_grows_with_db_size() {
        let small = Database::populate(1_000);
        let large = Database::populate(100_000);
        assert!(small.service_ns_indexed() < small.service_ns_unindexed());
        // Bigger databases have taller indexes, so caching saves more —
        // the driver of Figure 10(b)'s speedup-vs-items trend.
        let gap_small = small.service_ns_unindexed() - small.service_ns_indexed();
        let gap_large = large.service_ns_unindexed() - large.service_ns_indexed();
        assert!(gap_large > gap_small, "gap {gap_small} → {gap_large}");
    }

    #[test]
    fn insert_overwrites_in_place() {
        let mut db = Database::new(8);
        db.insert(5, record_for(5));
        let addr1 = db.lookup_by_key(5).unwrap().addr;
        let replaced = db.insert(5, record_for(6));
        assert_eq!(replaced, Some(addr1));
        assert_eq!(db.lookup_by_key(5).unwrap().record, &record_for(6));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn remove_frees_key_and_slot() {
        let mut db = Database::new(8);
        for k in 0..100 {
            db.insert(k, record_for(k));
        }
        assert!(db.remove(50));
        assert!(!db.remove(50));
        assert_eq!(db.lookup_by_key(50), None);
        assert_eq!(db.len(), 99);
    }

    #[test]
    fn record_for_is_deterministic_and_distinct() {
        assert_eq!(record_for(1), record_for(1));
        assert_ne!(record_for(1), record_for(2));
    }

    #[test]
    fn upsert_reports_existence_and_single_walk_cost() {
        let mut db = Database::new(8);
        let first = db.upsert(9, record_for(9));
        assert!(!first.existed);
        let again = db.upsert(9, record_for(10));
        assert!(again.existed);
        assert_eq!(again.addr, first.addr, "overwrite keeps the address");
        assert_eq!(again.index_visits, db.index_height());
        assert_eq!(db.lookup_by_key(9).unwrap().record, &record_for(10));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn from_sorted_entries_falls_back_on_unsorted_input() {
        let entries = vec![
            (5u64, record_for(5)),
            (1, record_for(1)),
            (3, record_for(3)),
        ];
        let db = Database::from_sorted_entries(entries);
        assert_eq!(db.len(), 3);
        let keys: Vec<u64> = db.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5]);
        assert_eq!(db.lookup_by_key(5).unwrap().record, &record_for(5));
    }

    #[test]
    fn from_entries_keeps_the_last_duplicate() {
        let entries = vec![
            (2u64, record_for(20)),
            (1, record_for(1)),
            (2, record_for(21)),
        ];
        let db = Database::from_entries(entries);
        assert_eq!(db.len(), 2);
        assert_eq!(db.lookup_by_key(2).unwrap().record, &record_for(21));
    }
}
