//! The index's bytes-per-key guard.
//!
//! A B+Tree leaf stores each key once — the node's shared prefix plus a
//! 4-byte head per key, and a 4-byte tail only while the prefix is under
//! four bytes — next to its 8-byte `Addr48`. `BPlusTree::heap_bytes` counts
//! every arena slot and every array's capacity, so the figure is exact and
//! deterministic. A layout that keeps a second full copy of each key (16-
//! byte `(u64, Addr48)` entries beside the heads) counts 24.2 bytes per key
//! on both key sets and fails every bound here.

use std::collections::BTreeMap;

use p4lru::kvstore::btree::BPlusTree;
use p4lru::kvstore::db::DEFAULT_MAX_KEYS;
use p4lru::kvstore::{Addr48, Database};

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
        assert_eq!(tree.get(k), Some(a), "key {k}");
        assert_eq!(tree.get(&k.wrapping_add(1)), oracle.get(&k.wrapping_add(1)));
    }
    assert!(tree.iter().map(|(k, &a)| (k, a)).eq(oracle.into_iter()));
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
