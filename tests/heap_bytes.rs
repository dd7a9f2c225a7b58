//! The record heap's bytes-per-key guard.
//!
//! A record is stored at its size: only its non-zero 8-byte words, in the
//! arena of its mask (DESIGN.md §13). A preloaded `record_for` record keeps
//! two words, so a served shard's records cost 16 bytes each plus the
//! unfilled rest of the arena's last chunk. `Database::record_bytes`
//! counts every chunk's capacity and the free lists, so the figure is exact
//! and deterministic; a heap that pads every record to 64 bytes fails the
//! bound here.
//!
//! A SET that changes a record's mask re-places it in another arena and
//! re-points the index, so the second test moves the first record of every
//! leaf and checks every read against a `BTreeMap` oracle.

use std::collections::{BTreeMap, HashSet};

use p4lru::kvstore::db::{record_for, DEFAULT_MAX_KEYS};
use p4lru::kvstore::{Database, DatabaseBuilder, Record, VALUE_SIZE};
use p4lru::server::shard_of;

const KEYS: u64 = 200_000;

/// What one serverd shard serves: its hash-routed half of `0..400_000`,
/// bulk-built through `DatabaseBuilder`, and a `BTreeMap` oracle of it.
fn served_shard() -> (Database, BTreeMap<u64, Record>) {
    let oracle: BTreeMap<u64, Record> = (0..2 * KEYS)
        .filter(|&k| shard_of(k, 2) == 0)
        .map(|k| (k, record_for(k)))
        .collect();
    let mut builder = DatabaseBuilder::with_capacity(oracle.len());
    for (&k, &record) in &oracle {
        builder.push(k, record);
    }
    (builder.finish(), oracle)
}

/// A benchmark SET's value: `[key:8][conn:1][version:8]`, padded and
/// closed by a mark byte. Its words 0, 1 and 7 are non-zero, where a
/// preloaded record keeps words 0 and 1.
fn set_value(key: u64) -> Record {
    let mut r = [0u8; VALUE_SIZE];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8] = 1;
    r[9..17].copy_from_slice(&1u64.to_le_bytes());
    r[VALUE_SIZE - 1] = 0xA5;
    r
}

/// Every key of `0..2 * KEYS` reads what the oracle holds, by key and by
/// its address, and a scan yields the oracle.
fn reads_like(db: &Database, oracle: &BTreeMap<u64, Record>) {
    assert_eq!(db.len(), oracle.len());
    for k in 0..2 * KEYS {
        let found = db.lookup_by_key(k);
        assert_eq!(found.map(|l| *l.record), oracle.get(&k).copied(), "key {k}");
        if let Some(l) = found {
            assert_eq!(db.lookup_by_addr(l.addr), l.record, "key {k}");
        }
    }
    assert!(db
        .iter()
        .map(|(k, r)| (k, *r))
        .eq(oracle.iter().map(|(&k, &r)| (k, r))));
}

#[test]
fn a_served_shard_stores_at_most_17_bytes_per_record() {
    let (db, oracle) = served_shard();
    reads_like(&db, &oracle);
    let per_key = db.record_bytes() as f64 / db.len() as f64;
    eprintln!(
        "served shard of {} keys: {per_key:.2} heap B/record",
        db.len()
    );
    assert!(per_key <= 17.0, "served shard: {per_key:.2} B/record");
}

#[test]
fn a_set_that_changes_the_mask_of_every_leafs_first_key_reads_back() {
    let (mut db, mut oracle) = served_shard();
    let keys: Vec<u64> = oracle.keys().copied().collect();
    // The build filled leaves of DEFAULT_MAX_KEYS keys in key order, so
    // each chunk is (about) one leaf.
    let mut freed = HashSet::new();
    for leaf in keys.chunks(DEFAULT_MAX_KEYS) {
        let before = db.lookup_by_key(leaf[0]).unwrap().addr;
        let u = db.upsert(leaf[0], set_value(leaf[0]));
        assert!(u.existed);
        assert_ne!(u.addr.mask(), before.mask(), "key {}", leaf[0]);
        freed.insert(before);
        oracle.insert(leaf[0], set_value(leaf[0]));
    }
    reads_like(&db, &oracle);
    // Moving them back reuses the slots they left.
    for leaf in keys.chunks(DEFAULT_MAX_KEYS) {
        let u = db.upsert(leaf[0], record_for(leaf[0]));
        assert!(freed.remove(&u.addr), "key {} took a new slot", leaf[0]);
        oracle.insert(leaf[0], record_for(leaf[0]));
    }
    reads_like(&db, &oracle);
}
