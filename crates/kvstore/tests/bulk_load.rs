//! Bulk-load equivalence: a database built by `populate`/`from_entries`/
//! `from_sorted_entries` (bottom-up index construction) must be
//! observationally identical to one built by an insert loop — same
//! contents, same lookups, same behavior under further mutation. This is
//! the gate on wiring `BPlusTree::from_sorted` into the population and
//! snapshot-recovery paths.

use p4lru_kvstore::db::{record_for, Database, DatabaseBuilder};

/// Inserts the same entries one at a time (the seed-era construction).
fn insert_built(entries: &[(u64, [u8; 64])]) -> Database {
    let mut db = Database::default();
    for &(k, r) in entries {
        db.insert(k, r);
    }
    db
}

fn assert_same(a: &Database, b: &Database) {
    assert_eq!(a.len(), b.len());
    let ia: Vec<(u64, [u8; 64])> = a.iter().map(|(k, r)| (k, *r)).collect();
    let ib: Vec<(u64, [u8; 64])> = b.iter().map(|(k, r)| (k, *r)).collect();
    assert_eq!(ia, ib);
}

#[test]
fn populate_equals_insert_loop() {
    for items in [0u64, 1, 2, 63, 64, 65, 1000, 5000] {
        let entries: Vec<(u64, [u8; 64])> = (0..items).map(|k| (k, record_for(k))).collect();
        let bulk = Database::populate(items);
        let built = insert_built(&entries);
        assert_same(&bulk, &built);
        assert!(
            bulk.index_height() <= built.index_height(),
            "items={items}: bulk-loaded index is at least as shallow \
             ({} vs {})",
            bulk.index_height(),
            built.index_height()
        );
        if items > 0 {
            let l = bulk.lookup_by_key(items / 2).expect("key exists");
            assert_eq!(l.record, &record_for(items / 2));
            assert_eq!(bulk.lookup_by_addr(l.addr), &record_for(items / 2));
        }
        assert!(bulk.lookup_by_key(items + 7).is_none());
    }
}

#[test]
fn from_sorted_entries_equals_insert_loop_on_sparse_keys() {
    let entries: Vec<(u64, [u8; 64])> = (0..2000u64).map(|i| (i * 17 + 3, record_for(i))).collect();
    let bulk = Database::from_sorted_entries(entries.clone());
    let built = insert_built(&entries);
    assert_same(&bulk, &built);
    // Probes between keys miss in both.
    assert!(bulk.lookup_by_key(4).is_none());
    assert_eq!(
        bulk.lookup_by_key(3).unwrap().record,
        built.lookup_by_key(3).unwrap().record
    );
}

#[test]
fn from_entries_equals_insert_loop_with_duplicates() {
    // Unsorted with duplicates: the insert loop's last-write-wins semantics
    // must survive the sort + dedup + bulk-load path.
    let mut entries: Vec<(u64, [u8; 64])> = Vec::new();
    let mut x = 9u64;
    for i in 0..1500u64 {
        x = p4lru_core::hashing::mix64(x);
        entries.push((x % 400, record_for(i)));
    }
    let bulk = Database::from_entries(entries.clone());
    let built = insert_built(&entries);
    assert_same(&bulk, &built);
}

#[test]
fn bulk_built_database_mutates_like_an_insert_built_one() {
    let entries: Vec<(u64, [u8; 64])> = (0..1000u64).map(|k| (k * 2, record_for(k))).collect();
    let mut bulk = Database::from_sorted_entries(entries.clone());
    let mut built = insert_built(&entries);
    for k in 0..500u64 {
        assert_eq!(
            bulk.insert(k * 2 + 1, record_for(k)).is_some(),
            built.insert(k * 2 + 1, record_for(k)).is_some()
        );
    }
    for k in (0..2000u64).step_by(3) {
        assert_eq!(bulk.remove(k), built.remove(k));
    }
    assert_same(&bulk, &built);
}

/// Builds with one `DatabaseBuilder` pass over `entries`, in order.
fn stream_built(entries: &[(u64, [u8; 64])]) -> Database {
    let mut builder = DatabaseBuilder::new();
    for &(k, r) in entries {
        builder.push(k, r);
    }
    builder.finish()
}

/// Same `iter`, and the same answer for every stored key and for the gaps
/// and edges around them.
fn assert_same_lookups(a: &Database, b: &Database, entries: &[(u64, [u8; 64])]) {
    assert_same(a, b);
    let last = entries.last().map_or(0, |&(k, _)| k);
    let probes = entries
        .iter()
        .flat_map(|&(k, _)| [k, k.wrapping_sub(1), k + 1])
        .chain([0, last + 1, u64::MAX]);
    for key in probes {
        let (x, y) = (a.lookup_by_key(key), b.lookup_by_key(key));
        assert_eq!(x.map(|l| *l.record), y.map(|l| *l.record), "key {key}");
    }
}

#[test]
fn streaming_build_equals_insert_loop_on_dense_keys() {
    for items in [0u64, 1, 63, 64, 65, 95, 96, 4097, 20_000] {
        let entries: Vec<(u64, [u8; 64])> = (0..items).map(|k| (k, record_for(k))).collect();
        let stream = stream_built(&entries);
        let built = insert_built(&entries);
        assert_same_lookups(&stream, &built, &entries);
        assert!(
            stream.index_height() <= built.index_height(),
            "items={items}"
        );
    }
}

#[test]
fn streaming_build_equals_insert_loop_on_sparse_keys() {
    let entries: Vec<(u64, [u8; 64])> = (0..5000u64)
        .map(|i| (i * i * 31 + (i << 40), record_for(i)))
        .collect();
    assert_same_lookups(&stream_built(&entries), &insert_built(&entries), &entries);
}

#[test]
fn streaming_build_equals_insert_loop_on_a_shard_subsequence() {
    // One shard's share of `0..items`, the way serverd routes keys: a hash
    // picks the shard, so each shard sees an ascending key subsequence.
    for shards in [2u64, 3, 8] {
        for shard in 0..shards {
            let entries: Vec<(u64, [u8; 64])> = (0..12_000u64)
                .filter(|&k| p4lru_core::hashing::mix64(k) % shards == shard)
                .map(|k| (k, record_for(k)))
                .collect();
            let stream = stream_built(&entries);
            let built = insert_built(&entries);
            assert_same_lookups(&stream, &built, &entries);
        }
    }
}

#[test]
fn streaming_build_turns_unsorted_midway_and_keeps_the_last_duplicate() {
    let mut entries: Vec<(u64, [u8; 64])> = (0..300u64).map(|k| (k, record_for(k))).collect();
    entries.extend((0..100u64).map(|k| (k * 5, record_for(k + 1000))));
    let stream = stream_built(&entries);
    let built = insert_built(&entries);
    assert_same_lookups(&stream, &built, &entries);
    // Writes after the fallback reuse the slots its duplicates freed.
    let mut stream = stream;
    let mut built = built;
    for k in 1000..1100u64 {
        stream.insert(k, record_for(k));
        built.insert(k, record_for(k));
    }
    assert_same(&stream, &built);
}
