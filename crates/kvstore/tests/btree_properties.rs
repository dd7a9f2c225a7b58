//! Property tests: the B+Tree must be observationally a `BTreeMap` under
//! arbitrary operation sequences, with structural invariants intact.

#![recursion_limit = "256"]

use proptest::prelude::*;
use std::collections::BTreeMap;

use p4lru_kvstore::btree::BPlusTree;

#[derive(Clone, Debug)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 500, v)),
        any::<u16>().prop_map(|k| Op::Remove(k % 500)),
        any::<u16>().prop_map(|k| Op::Get(k % 500)),
    ]
}

proptest! {
    #[test]
    fn btree_matches_btreemap(max_keys in 3usize..12, ops in proptest::collection::vec(op_strategy(), 0..800)) {
        let mut tree = BPlusTree::new(max_keys);
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => prop_assert_eq!(tree.insert(k, v), model.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(tree.remove(&k), model.remove(&k)),
                Op::Get(k) => prop_assert_eq!(tree.get(&k), model.get(&k)),
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
        let got: Vec<(u16, u32)> = tree.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(u16, u32)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn lookup_cost_is_height(keys in proptest::collection::vec(any::<u32>(), 1..2000)) {
        let mut tree = BPlusTree::new(8);
        for &k in &keys {
            tree.insert(k, ());
        }
        for &k in keys.iter().take(50) {
            let (v, visits) = tree.lookup(&k);
            prop_assert!(v.is_some());
            prop_assert_eq!(visits, tree.height());
        }
    }

    #[test]
    fn deletion_shrinks_back_to_empty(count in 1usize..600) {
        let mut tree = BPlusTree::new(5);
        for k in 0..count {
            tree.insert(k, k);
        }
        for k in 0..count {
            prop_assert_eq!(tree.remove(&k), Some(k));
            prop_assert!(tree.check_invariants().is_ok());
        }
        prop_assert!(tree.is_empty());
        prop_assert_eq!(tree.height(), 1);
    }
}

proptest! {
    // The slot-layout rewrite adds three kinds of hidden state — hash-mode
    // sidecars, the descent cache, and per-node head/prefix metadata — all
    // of which must be observationally invisible. This interleaving drives
    // every transition: hot bursts push leaves toward hash mode, scans
    // flag them back, removals trigger the rebalances that invalidate the
    // descent cache, and every answer is checked against a `BTreeMap`.
    #[test]
    fn mixed_ops_with_hot_bursts_and_scans_match_btreemap(
        max_keys in 3usize..12,
        ops in proptest::collection::vec(mixed_op_strategy(), 0..400),
    ) {
        let mut tree = BPlusTree::new(max_keys);
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                MixedOp::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                MixedOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                MixedOp::HotGet(k) => {
                    prop_assert_eq!(tree.lookup_hot(&k).0, model.get(&k));
                }
                MixedOp::HotBurst(k) => {
                    // Long enough to cross the leaf's hash-flip streak and
                    // to exercise repeated descent-cache hits on one leaf.
                    for _ in 0..20 {
                        prop_assert_eq!(tree.lookup_hot(&k).0, model.get(&k));
                    }
                }
                MixedOp::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got: Vec<(u16, u32)> =
                        tree.range(&lo, &hi).map(|(k, v)| (k, *v)).collect();
                    let want: Vec<(u16, u32)> =
                        model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, want);
                }
                MixedOp::Optimize => tree.apply_adaptation(),
            }
            if step % 64 == 0 {
                prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
            }
        }
        prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
        let got: Vec<(u16, u32)> = tree.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(u16, u32)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    // Bulk load must be observationally identical to an insert loop over
    // the same (sorted, deduplicated) entries — and must stay correct as a
    // starting point for further mutation.
    #[test]
    fn bulk_load_matches_insert_built(
        max_keys in 3usize..80,
        keys in proptest::collection::vec(any::<u32>(), 0..500),
        extra in proptest::collection::vec(any::<u32>(), 0..50),
    ) {
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let entries: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0xABCD)).collect();
        let mut bulk = BPlusTree::from_sorted(max_keys, entries.clone());
        prop_assert!(bulk.check_invariants().is_ok(), "{:?}", bulk.check_invariants());
        let mut built = BPlusTree::new(max_keys);
        for &(k, v) in &entries {
            built.insert(k, v);
        }
        prop_assert!(bulk.height() <= built.height());
        {
            let a: Vec<(u32, u32)> = bulk.iter().map(|(k, v)| (k, *v)).collect();
            let b: Vec<(u32, u32)> = built.iter().map(|(k, v)| (k, *v)).collect();
            prop_assert_eq!(a, b);
        }
        // The bulk-built tree accepts further mutation like any other.
        for &k in &extra {
            let v = k.wrapping_mul(3);
            prop_assert_eq!(bulk.insert(k, v), built.insert(k, v));
        }
        for &k in extra.iter().rev().take(extra.len() / 2) {
            prop_assert_eq!(bulk.remove(&k), built.remove(&k));
        }
        prop_assert!(bulk.check_invariants().is_ok(), "{:?}", bulk.check_invariants());
        let a: Vec<(u32, u32)> = bulk.iter().map(|(k, v)| (k, *v)).collect();
        let b: Vec<(u32, u32)> = built.iter().map(|(k, v)| (k, *v)).collect();
        prop_assert_eq!(a, b);
    }
}

#[derive(Clone, Debug)]
enum MixedOp {
    Insert(u16, u32),
    Remove(u16),
    HotGet(u16),
    HotBurst(u16),
    Range(u16, u16),
    Optimize,
}

fn mixed_op_strategy() -> impl Strategy<Value = MixedOp> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MixedOp::Insert(k % 300, v)),
        any::<u16>().prop_map(|k| MixedOp::Remove(k % 300)),
        any::<u16>().prop_map(|k| MixedOp::HotGet(k % 300)),
        any::<u16>().prop_map(|k| MixedOp::HotBurst(k % 300)),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| MixedOp::Range(a % 300, b % 300)),
        Just(MixedOp::Optimize),
    ]
}

// ——— key encodings: each leaf key is its prefix, head and (below a
// 4-byte prefix) tail, so these cases drive every encoding a leaf can be
// in and every re-encode between them, with `check_invariants` (tails
// present iff the prefix is under four bytes, rebuilt keys strictly
// ascending) after every op. ———

use p4lru_kvstore::IndexKey;
use proptest::TestCaseResult;
use std::fmt::Debug;

#[derive(Clone, Debug)]
enum KeyOp<K> {
    Insert(K, u32),
    Remove(K),
    Get(K),
    HotBurst(K),
    Range(K, K),
}

fn key_op_strategy<K: Clone + 'static>(
    key: impl Fn(u16) -> K + Clone + 'static,
) -> impl Strategy<Value = KeyOp<K>> {
    let [k1, k2, k3, k4, k5] = [(); 5].map(|()| key.clone());
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(move |(x, v)| KeyOp::Insert(k1(x), v)),
        (any::<u16>(), any::<u32>()).prop_map(move |(x, v)| KeyOp::Insert(k2(x), v)),
        any::<u16>().prop_map(move |x| KeyOp::Remove(k3(x))),
        any::<u16>().prop_map(move |x| KeyOp::Get(k4(x))),
        any::<u16>().prop_map(move |x| KeyOp::HotBurst(k5(x))),
        (any::<u16>(), any::<u16>()).prop_map(move |(a, b)| KeyOp::Range(key(a), key(b))),
    ]
}

/// Applies `ops` to a tree and a `BTreeMap`, comparing every answer and
/// checking the tree's invariants after every op.
fn matches_oracle<K: IndexKey + Copy + Debug>(
    max_keys: usize,
    ops: Vec<KeyOp<K>>,
) -> TestCaseResult {
    let mut tree = BPlusTree::new(max_keys);
    let mut model: BTreeMap<K, u32> = BTreeMap::new();
    for op in ops {
        match op {
            KeyOp::Insert(k, v) => prop_assert_eq!(tree.insert(k, v), model.insert(k, v)),
            KeyOp::Remove(k) => prop_assert_eq!(tree.remove(&k), model.remove(&k)),
            KeyOp::Get(k) => prop_assert_eq!(tree.get(&k), model.get(&k)),
            KeyOp::HotBurst(k) => {
                for _ in 0..20 {
                    prop_assert_eq!(tree.lookup_hot(&k).0, model.get(&k));
                }
            }
            KeyOp::Range(a, b) => {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let got: Vec<(K, u32)> = tree.range(&lo, &hi).map(|(k, v)| (k, *v)).collect();
                let want: Vec<(K, u32)> = model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(got, want);
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        prop_assert!(
            tree.check_invariants().is_ok(),
            "{:?}",
            tree.check_invariants()
        );
    }
    let got: Vec<(K, u32)> = tree.iter().map(|(k, v)| (k, *v)).collect();
    let want: Vec<(K, u32)> = model.into_iter().collect();
    prop_assert_eq!(got, want);
    Ok(())
}

/// `i64` keys straddling zero, plus both extremes: the sign-flipped rank
/// must decode back to the same key on both sides.
fn signed_key(x: u16) -> i64 {
    match x % 64 {
        0 => i64::MIN + i64::from(x >> 6),
        1 => i64::MAX - i64::from(x >> 6),
        _ => i64::from(x % 600) - 300,
    }
}

/// 400 distinct keys scattered over the whole `u64` range (splitmix64):
/// leaves share less than four prefix bytes and keep tails.
fn scattered_key(x: u16) -> u64 {
    let mut z = u64::from(x % 400).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mostly keys sharing six prefix bytes with `NEAR`, plus a few whose third
/// byte differs: a far key's insert pulls its leaf's prefix under four bytes
/// (tails appear), and removing it from the leaf's end restores the prefix
/// (tails go).
fn prefix_flip_key(x: u16) -> u64 {
    const NEAR: u64 = 0x0123_4567_89AB_0000;
    if x & 3 == 0 {
        (NEAR ^ (u64::from(x % 7 + 1) << 40)) + u64::from(x >> 12)
    } else {
        NEAR + u64::from(x % 300)
    }
}

proptest! {
    #[test]
    fn signed_keys_across_zero_match_btreemap(
        max_keys in 3usize..70,
        ops in proptest::collection::vec(key_op_strategy(signed_key), 0..300),
    ) {
        matches_oracle(max_keys, ops)?;
    }

    #[test]
    fn scattered_u64_keys_with_tails_match_btreemap(
        max_keys in 3usize..70,
        ops in proptest::collection::vec(key_op_strategy(scattered_key), 0..300),
    ) {
        matches_oracle(max_keys, ops)?;
    }

    #[test]
    fn leaf_prefix_crossing_four_bytes_matches_btreemap(
        max_keys in 3usize..70,
        ops in proptest::collection::vec(key_op_strategy(prefix_flip_key), 0..300),
    ) {
        matches_oracle(max_keys, ops)?;
    }
}

#[test]
fn a_leaf_keeps_tails_only_while_its_prefix_is_short() {
    // One leaf throughout (16 slots): its heap bytes show the tails array
    // appear with the far key and go again once it is removed.
    let near = |i: u64| 0x0123_4567_89AB_0000 + i;
    let far = near(0) ^ (1 << 40);
    let mut tree = BPlusTree::new(16);
    for i in 0..10 {
        tree.insert(near(i), i);
    }
    let short = tree.heap_bytes();
    tree.insert(far, 99);
    tree.check_invariants().unwrap();
    let with_tails = tree.heap_bytes();
    assert!(with_tails > short, "{with_tails} vs {short}");
    assert_eq!(tree.remove(&far), Some(99));
    tree.check_invariants().unwrap();
    assert!(
        tree.heap_bytes() < with_tails,
        "tails dropped with the far key"
    );
    assert_eq!(tree.height(), 1);
    for i in 0..10 {
        assert_eq!(tree.get(&near(i)), Some(&i));
    }
}
