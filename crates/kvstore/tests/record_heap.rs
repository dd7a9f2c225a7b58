//! Property tests: a `Database` whose records change masks — and so move
//! between the heap's arenas, free their slots and reuse others — must
//! read like a `BTreeMap` after every step, by key and by address.

use std::collections::BTreeMap;

use proptest::prelude::*;

use p4lru_kvstore::db::{record_for, Database};
use p4lru_kvstore::{Record, VALUE_SIZE};

/// Keys the operations draw from: few enough that writes overwrite,
/// deletes free and inserts reuse. Key 0 is one of them, and its
/// `record_for` keeps only word 1 (`mix64(0) != 0`).
const KEYS: u64 = 48;

#[derive(Clone, Debug)]
enum Op {
    Upsert(u64, Record),
    Remove(u64),
}

/// A record whose non-zero words are exactly those of `mask`, each a
/// value drawn from `seed`.
fn record_of(mask: u8, seed: u64) -> Record {
    let mut r = [0u8; VALUE_SIZE];
    for i in (0..8).filter(|i| mask & (1 << i) != 0) {
        let word = p4lru_core::hashing::mix64(seed ^ i as u64) | 1 << (i * 8);
        r[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
    }
    r
}

fn mask_of(record: &Record) -> u8 {
    (0..8)
        .filter(|&i| record[i * 8..i * 8 + 8] != [0; 8])
        .fold(0, |m, i| m | 1 << i)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS, any::<u8>(), any::<u64>())
            .prop_map(|(k, mask, seed)| Op::Upsert(k, record_of(mask, seed))),
        (
            0..KEYS,
            prop_oneof![Just(0x00u8), Just(0xFFu8)],
            any::<u64>()
        )
            .prop_map(|(k, mask, seed)| Op::Upsert(k, record_of(mask, seed))),
        (0..KEYS).prop_map(|k| Op::Upsert(k, record_for(k))),
        (0..KEYS).prop_map(Op::Remove),
    ]
}

/// Every key reads what the oracle holds, by key and by the address the
/// key resolves to; a scan yields the oracle.
fn reads_like(db: &Database, oracle: &BTreeMap<u64, Record>) -> Result<(), TestCaseError> {
    prop_assert_eq!(db.len(), oracle.len());
    for k in 0..KEYS {
        let found = db.lookup_by_key(k);
        prop_assert_eq!(
            found.map(|l| *l.record),
            oracle.get(&k).copied(),
            "key {}",
            k
        );
        if let Some(l) = found {
            prop_assert_eq!(db.lookup_by_addr(l.addr), l.record, "key {}", k);
            prop_assert_eq!(l.addr.mask(), mask_of(&l.record), "key {}", k);
        }
    }
    let scan: Vec<(u64, Record)> = db.iter().map(|(k, r)| (k, *r)).collect();
    let want: Vec<(u64, Record)> = oracle.iter().map(|(&k, &r)| (k, r)).collect();
    prop_assert_eq!(scan, want);
    Ok(())
}

proptest! {
    #[test]
    fn database_matches_btreemap_as_records_change_masks(
        ops in proptest::collection::vec(op_strategy(), 0..300),
    ) {
        let mut db = Database::new(8);
        let mut oracle: BTreeMap<u64, Record> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Upsert(k, record) => {
                    let before = db.lookup_by_key(k).map(|l| l.addr);
                    let u = db.upsert(k, record);
                    prop_assert_eq!(u.existed, oracle.insert(k, record).is_some());
                    prop_assert_eq!(u.addr.mask(), mask_of(&record));
                    if let Some(before) = before {
                        // The address holds exactly while the mask does.
                        prop_assert_eq!(u.addr == before, before.mask() == mask_of(&record));
                    }
                }
                Op::Remove(k) => prop_assert_eq!(db.remove(k), oracle.remove(&k).is_some()),
            }
            reads_like(&db, &oracle)?;
        }
    }
}

/// Every mask, each moved to another and back: with one live record per
/// arena and freed slots reused, no arena hands out a third slot.
#[test]
fn every_mask_moves_to_another_and_back() {
    let mut db = Database::new(8);
    let mut oracle = BTreeMap::new();
    for mask in 0..=u8::MAX {
        let key = u64::from(mask);
        db.insert(key, record_of(mask, key));
        oracle.insert(key, record_of(mask, key));
    }
    for (mask, seed) in [(0x5A, 1), (0x00, 0)] {
        for key in 0..256 {
            let record = record_of(key as u8 ^ mask, key ^ seed);
            let addr = db.upsert(key, record).addr;
            assert!(addr.slot() <= 1, "key {key}: {addr:?}");
            oracle.insert(key, record);
        }
        let scan: Vec<(u64, Record)> = db.iter().map(|(k, r)| (k, *r)).collect();
        assert_eq!(scan, oracle.clone().into_iter().collect::<Vec<_>>());
    }
}
