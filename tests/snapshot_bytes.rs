//! The snapshot's bytes-per-entry guard.
//!
//! serverd pads every value into a `VALUE_SIZE` record with zeros, and a
//! snapshot entry stores the key, a one-byte mask, and only the record's
//! non-zero 8-byte words (DESIGN.md §8). A preloaded `record_for` record
//! keeps two words, so its entry is 25 bytes; an encoder that writes the
//! whole record spends 72 on every entry and fails the first bound here.
//! Each shard is built and sealed the way a fresh durable serverd does it:
//! a bulk-built store, then its initial snapshot at sequence 0.

use std::path::{Path, PathBuf};

use p4lru::durable::recover::recover;
use p4lru::durable::DurabilityConfig;
use p4lru::kvstore::db::record_for;
use p4lru::kvstore::{DatabaseBuilder, Record, VALUE_SIZE};
use p4lru::server::shard::Shard;

const RECORDS: u64 = 100_000;
/// Magic, version, seq, count and the trailing CRC.
const FRAME_BYTES: u64 = 8 + 4 + 8 + 8 + 4;

/// A scratch shard directory, removed on drop.
struct ShardDir(PathBuf);

impl ShardDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "p4lru-snapshot-bytes-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for ShardDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seals `records` (ascending keys) as a fresh durable shard in `dir`.
fn seal_fresh(dir: &Path, records: &[(u64, Record)]) {
    let mut builder = DatabaseBuilder::with_capacity(records.len());
    for &(key, record) in records {
        builder.push(key, record);
    }
    let mut shard = Shard::with_db(64, 0x5EED, builder.finish());
    shard
        .enable_durability_fresh(dir, &DurabilityConfig::default())
        .unwrap();
}

/// The snapshot's bytes per entry, past its fixed frame.
fn bytes_per_entry(dir: &Path, entries: usize) -> f64 {
    let snapshots: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(snapshots.len(), 1, "{snapshots:?}");
    let bytes = std::fs::metadata(&snapshots[0]).unwrap().len();
    let per_entry = (bytes - FRAME_BYTES) as f64 / entries as f64;
    eprintln!("{entries} entries: {per_entry:.2} B/entry");
    per_entry
}

#[test]
fn a_preloaded_record_costs_at_most_26_bytes() {
    let dir = ShardDir::new("preloaded");
    let records: Vec<_> = (0..RECORDS).map(|k| (k, record_for(k))).collect();
    seal_fresh(&dir.0, &records);
    let per_entry = bytes_per_entry(&dir.0, records.len());
    assert!(
        per_entry <= 26.0,
        "record_for records: {per_entry:.2} B/entry"
    );
}

#[test]
fn a_record_with_no_zero_word_costs_at_most_73_bytes() {
    let dir = ShardDir::new("full");
    let records: Vec<_> = (0..RECORDS)
        .map(|k| (k, [(k % 255) as u8 + 1; VALUE_SIZE]))
        .collect();
    seal_fresh(&dir.0, &records);
    let per_entry = bytes_per_entry(&dir.0, records.len());
    assert!(per_entry <= 73.0, "full records: {per_entry:.2} B/entry");
}

#[test]
fn recovery_returns_all_zero_full_and_sparse_records_exactly() {
    let dir = ShardDir::new("mix");
    let records: Vec<(u64, Record)> = (0..RECORDS)
        .map(|k| {
            let mut record = [0u8; VALUE_SIZE];
            match k % 4 {
                0 => {}                                // all zero
                1 => record = [0xFF; VALUE_SIZE],      // every word kept
                2 => record = record_for(k),           // the first two words
                _ => record[(k % 64) as usize] = 0x80, // one word, anywhere
            }
            (k * 3, record)
        })
        .collect();
    seal_fresh(&dir.0, &records);
    let recovered = recover(&dir.0).unwrap();
    assert_eq!(recovered.last_seq, 0);
    assert_eq!(recovered.snapshots_skipped, 0);
    assert_eq!(recovered.snapshot_entries, RECORDS);
    let got: Vec<(u64, Record)> = recovered.db.iter().map(|(k, r)| (k, *r)).collect();
    assert!(got == records, "recovered records differ from the source");
}
