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
                Op::Get(k) => prop_assert_eq!(tree.get(&k), model.get(&k).copied()),
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
        let got: Vec<(u16, u32)> = tree.iter().collect();
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
                    prop_assert_eq!(tree.lookup_hot(&k).0, model.get(&k).copied());
                }
                MixedOp::HotBurst(k) => {
                    // Long enough to cross the leaf's hash-flip streak and
                    // to exercise repeated descent-cache hits on one leaf.
                    for _ in 0..20 {
                        prop_assert_eq!(tree.lookup_hot(&k).0, model.get(&k).copied());
                    }
                }
                MixedOp::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got: Vec<(u16, u32)> =
                        tree.range(&lo, &hi).collect();
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
        let got: Vec<(u16, u32)> = tree.iter().collect();
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
            let a: Vec<(u32, u32)> = bulk.iter().collect();
            let b: Vec<(u32, u32)> = built.iter().collect();
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
        let a: Vec<(u32, u32)> = bulk.iter().collect();
        let b: Vec<(u32, u32)> = built.iter().collect();
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
            KeyOp::Get(k) => prop_assert_eq!(tree.get(&k), model.get(&k).copied()),
            KeyOp::HotBurst(k) => {
                for _ in 0..20 {
                    prop_assert_eq!(tree.lookup_hot(&k).0, model.get(&k).copied());
                }
            }
            KeyOp::Range(a, b) => {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let got: Vec<(K, u32)> = tree.range(&lo, &hi).collect();
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
    let got: Vec<(K, u32)> = tree.iter().collect();
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
        assert_eq!(tree.get(&near(i)), Some(i));
    }
}

// ——— run leaves: a bulk load whose values step evenly (record addresses
// handed out in key order) keeps each leaf's values as `(first, step)`.
// An upsert that finds its key leaves a run as it is; every other write
// (insert, remove, borrow, merge, a write through `&mut V`) turns it into
// an array first, and none of it may show. ———

#[derive(Clone, Debug)]
enum RunOp {
    Insert(u16, u64),
    /// `upsert_with`: finds the key, or inserts the value.
    Upsert(u16, u64),
    Remove(u16),
    /// `get_or_insert_with`, then an optional write through the handle.
    Slot(u16, Option<u64>),
    HotBurst(u16),
    Optimize,
    Range(u16, u16),
    IterFrom(u16),
}

fn run_op_strategy() -> impl Strategy<Value = RunOp> {
    let key = || any::<u16>().prop_map(|k| k % 1200);
    prop_oneof![
        (key(), any::<u64>()).prop_map(|(k, v)| RunOp::Insert(k, v >> 20)),
        (key(), any::<u64>()).prop_map(|(k, v)| RunOp::Upsert(k, v >> 20)),
        key().prop_map(RunOp::Remove),
        (key(), any::<bool>(), any::<u64>())
            .prop_map(|(k, write, v)| RunOp::Slot(k, write.then_some(v >> 20))),
        key().prop_map(RunOp::HotBurst),
        Just(RunOp::Optimize),
        (key(), key()).prop_map(|(a, b)| RunOp::Range(a, b)),
        key().prop_map(RunOp::IterFrom),
    ]
}

/// Enough point lookups on every key to arm each leaf's hash directory,
/// then the sweep that arms them.
fn arm_every_leaf(tree: &mut BPlusTree<u32, u64>, model: &BTreeMap<u32, u64>) {
    for _ in 0..20 {
        for k in model.keys() {
            tree.get(k);
        }
    }
    tree.apply_adaptation();
}

/// Every key up to just past the largest reads the model, one at a time
/// (cold and hot) and as one interleaved run.
fn every_key_reads_the_model(
    tree: &BPlusTree<u32, u64>,
    model: &BTreeMap<u32, u64>,
) -> TestCaseResult {
    let top = model.keys().next_back().map_or(0, |&k| k + 2);
    let keys: Vec<u32> = (0..top).collect();
    let mut run = Vec::new();
    tree.lookup_run(&keys, &mut run);
    for (&k, got) in keys.iter().zip(run) {
        let want = model.get(&k).copied();
        prop_assert_eq!(got, want, "lookup_run of {}", k);
        prop_assert_eq!(tree.lookup(&k).0, want, "lookup of {}", k);
        prop_assert_eq!(tree.lookup_hot(&k).0, want, "lookup_hot of {}", k);
    }
    Ok(())
}

proptest! {
    #[test]
    fn run_built_trees_match_btreemap_under_writes(
        max_keys in 3usize..12,
        keys in proptest::collection::vec(any::<u16>(), 0..400),
        first in 0u64..1 << 40,
        step in 0u64..4,
        armed in any::<bool>(),
        ops in proptest::collection::vec(run_op_strategy(), 0..200),
    ) {
        let mut keys: Vec<u32> = keys.into_iter().map(|k| u32::from(k % 1200)).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut model: BTreeMap<u32, u64> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, first + i as u64 * step))
            .collect();
        let mut tree = BPlusTree::from_sorted(max_keys, model.iter().map(|(&k, &v)| (k, v)));
        prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
        if armed {
            arm_every_leaf(&mut tree, &model);
        }
        every_key_reads_the_model(&tree, &model)?;
        for op in ops {
            match op {
                RunOp::Insert(k, v) => {
                    let k = u32::from(k);
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                RunOp::Upsert(k, v) => {
                    let k = u32::from(k);
                    let existed = model.contains_key(&k);
                    let up = tree.upsert_with(k, || v);
                    prop_assert_eq!(up.existed, existed);
                    prop_assert_eq!(up.value, *model.entry(k).or_insert(v));
                }
                RunOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(&u32::from(k)), model.remove(&u32::from(k)));
                }
                RunOp::Slot(k, write) => {
                    let k = u32::from(k);
                    let had = model.get(&k).copied();
                    let slot = tree.get_or_insert_with(k, || 7);
                    prop_assert_eq!(slot.existed, had.is_some());
                    prop_assert_eq!(*slot.value, had.unwrap_or(7));
                    let now = write.unwrap_or(*slot.value);
                    *slot.value = now;
                    model.insert(k, now);
                }
                RunOp::HotBurst(k) => {
                    let k = u32::from(k);
                    for _ in 0..20 {
                        prop_assert_eq!(tree.lookup_hot(&k).0, model.get(&k).copied());
                    }
                }
                RunOp::Optimize => tree.apply_adaptation(),
                RunOp::Range(a, b) => {
                    let (lo, hi) = (u32::from(a.min(b)), u32::from(a.max(b)));
                    let got: Vec<(u32, u64)> = tree.range(&lo, &hi).collect();
                    let want: Vec<(u32, u64)> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
                RunOp::IterFrom(a) => {
                    let a = u32::from(a);
                    let got: Vec<(u32, u64)> = tree.iter_from(&a).collect();
                    let want: Vec<(u32, u64)> = model.range(a..).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
            prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
        }
        arm_every_leaf(&mut tree, &model);
        every_key_reads_the_model(&tree, &model)?;
        let got: Vec<(u32, u64)> = tree.iter().collect();
        let want: Vec<(u32, u64)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }
}
