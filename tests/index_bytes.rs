//! The index's bytes-per-key guard.
//!
//! A B+Tree leaf stores each key once — the node's shared prefix plus a
//! 4-byte head per key, and a 4-byte tail only while the prefix is under
//! four bytes — next to its 8-byte `Addr48`. `BPlusTree::heap_bytes` counts
//! every arena slot and every array's capacity, so the figure is exact and
//! deterministic. A layout that keeps a second full copy of each key (16-
//! byte `(u64, Addr48)` entries beside the heads) counts 24.2 bytes per key
//! on both key sets and fails every bound here.
//!
//! A store bulk-built in key order hands out consecutive record addresses,
//! so its leaves are runs that store no address at all: the shape serverd
//! serves costs the node and its heads, about 7.7 bytes per key, where one
//! address per key cost 15.7.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use p4lru::kvstore::btree::BPlusTree;
use p4lru::kvstore::db::{record_for, DEFAULT_MAX_KEYS};
use p4lru::kvstore::{Addr48, Database, DatabaseBuilder, Record};
use p4lru::server::shard_of;

const KEYS: u64 = 200_000;

/// Builds the tree the way every bulk-built store does, checks it against a
/// `BTreeMap` oracle, and returns its heap bytes per key.
fn bytes_per_key(keys: &[u64]) -> f64 {
    let oracle: BTreeMap<u64, Addr48> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, Addr48::new(i as u64 * 64)))
        .collect();
    let tree = BPlusTree::from_sorted(DEFAULT_MAX_KEYS, oracle.iter().map(|(&k, &a)| (k, a)));
    tree.check_invariants().unwrap();
    assert_eq!(tree.len(), oracle.len());
    for (k, a) in &oracle {
        assert_eq!(tree.get(k), Some(*a), "key {k}");
        assert_eq!(
            tree.get(&k.wrapping_add(1)),
            oracle.get(&k.wrapping_add(1)).copied()
        );
    }
    assert!(tree.iter().eq(oracle.into_iter()));
    let per_key = tree.heap_bytes() as f64 / keys.len() as f64;
    eprintln!("{} keys: {per_key:.2} heap B/key", keys.len());
    per_key
}

#[test]
fn dense_keys_cost_at_most_16_bytes_each() {
    let keys: Vec<u64> = (0..KEYS).collect();
    let per_key = bytes_per_key(&keys);
    assert!(per_key <= 16.0, "dense u64 keys: {per_key:.2} B/key");
}

#[test]
fn random_keys_cost_at_most_21_bytes_each() {
    // splitmix64: uniform over the whole u64 range, so leaves share less
    // than four prefix bytes and keep their tails.
    let mut x = 0x5EED_u64;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let per_key = bytes_per_key(&keys);
    assert!(per_key <= 21.0, "random u64 keys: {per_key:.2} B/key");
}

#[test]
fn database_forwards_the_index_bytes() {
    let db = Database::populate(10_000);
    let per_key = db.index_bytes() as f64 / db.len() as f64;
    assert!(per_key <= 16.0, "populated database: {per_key:.2} B/key");
}

/// What one serverd shard serves: its hash-routed half of `0..400_000`,
/// bulk-built through `DatabaseBuilder`, and a `BTreeMap` oracle of it
/// (built once for the tests that start from it).
fn served_shard() -> &'static (Database, BTreeMap<u64, Record>) {
    static SHARD: OnceLock<(Database, BTreeMap<u64, Record>)> = OnceLock::new();
    SHARD.get_or_init(|| {
        let oracle: BTreeMap<u64, Record> = (0..2 * KEYS)
            .filter(|&k| shard_of(k, 2) == 0)
            .map(|k| (k, record_for(k)))
            .collect();
        let mut builder = DatabaseBuilder::with_capacity(oracle.len());
        for (&k, &record) in &oracle {
            builder.push(k, record);
        }
        (builder.finish(), oracle)
    })
}

/// Each of `keys` reads what the oracle holds, and a scan yields the
/// oracle.
fn reads_like(db: &Database, oracle: &BTreeMap<u64, Record>, keys: impl Iterator<Item = u64>) {
    assert_eq!(db.len(), oracle.len());
    for k in keys {
        let got = db.lookup_by_key(k).map(|l| *l.record);
        assert_eq!(got, oracle.get(&k).copied(), "key {k}");
    }
    assert!(db.iter().eq(oracle.iter().map(|(&k, &r)| (k, r.into()))));
}

fn index_bytes_per_key(db: &Database) -> f64 {
    db.index_bytes() as f64 / db.len() as f64
}

#[test]
fn a_served_shard_costs_at_most_8_bytes_per_key() {
    let (db, oracle) = served_shard();
    reads_like(db, oracle, 0..2 * KEYS + 100);
    let per_key = index_bytes_per_key(db);
    eprintln!("served shard of {} keys: {per_key:.2} heap B/key", db.len());
    assert!(per_key <= 8.0, "served shard: {per_key:.2} B/key");
}

#[test]
fn a_served_shard_stays_compact_after_writes_to_a_tenth_of_its_leaves() {
    let (db, oracle) = served_shard();
    let (mut db, mut oracle) = (db.clone(), oracle.clone());
    let built = db.index_bytes();
    let keys: Vec<u64> = oracle.keys().copied().collect();
    // The build filled leaves of DEFAULT_MAX_KEYS keys in key order, so
    // each chunk is (about) one leaf. Overwrites keep every record's
    // address, and with it the leaf.
    for leaf in keys.chunks(DEFAULT_MAX_KEYS) {
        let record = record_for(leaf[0] ^ 0xFFFF);
        assert!(db.upsert(leaf[0], record).existed);
        oracle.insert(leaf[0], record);
    }
    assert_eq!(db.index_bytes(), built, "overwrites moved index bytes");
    // A delete and a fresh key (one the other shard owns) in every tenth
    // leaf.
    let mut gone = Vec::new();
    for leaf in keys.chunks(DEFAULT_MAX_KEYS).step_by(10) {
        let key = leaf[leaf.len() / 2];
        assert!(db.remove(key));
        oracle.remove(&key);
        gone.push(key);
        let fresh = (leaf[0]..leaf[leaf.len() - 1])
            .find(|&k| shard_of(k, 2) == 1)
            .expect("a gap in the leaf");
        assert!(!db.upsert(fresh, record_for(fresh)).existed);
        oracle.insert(fresh, record_for(fresh));
    }
    let stored: Vec<u64> = oracle.keys().copied().collect();
    reads_like(&db, &oracle, stored.into_iter().chain(gone));
    let per_key = index_bytes_per_key(&db);
    eprintln!("after writes to a tenth of the leaves: {per_key:.2} heap B/key");
    assert!(per_key <= 15.7, "written shard: {per_key:.2} B/key");
}
