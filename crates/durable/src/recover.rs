//! Crash recovery: latest valid snapshot + WAL tail replay.
//!
//! Recovery invariants (see DESIGN.md §8):
//!
//! 1. Every op acknowledged under `sync=always` was fsynced before its ack,
//!    so it is either in the loaded snapshot (`seq <= snapshot.seq`) or in a
//!    replayed WAL record.
//! 2. Sequence numbers are dense: a gap between the snapshot boundary and
//!    the replayed records, or within them, means segments were lost and
//!    recovery refuses to fabricate a state.
//! 3. Only the *last* segment may end in a torn or corrupt record (rotation
//!    happens at fsync boundaries), and recovery repairs it by truncating
//!    the invalid tail; damage anywhere else is a hard error.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use p4lru_kvstore::Database;

use crate::record::WalOp;
use crate::snapshot;
use crate::wal;

/// The result of recovering one shard directory.
#[derive(Debug)]
pub struct Recovery {
    /// The rebuilt backing store.
    pub db: Database,
    /// Keys touched by replayed records, in replay order (oldest first).
    /// Re-installing these into the front cache warms it with the keys that
    /// were hot at crash time.
    pub replayed_keys: Vec<u64>,
    /// Number of WAL records replayed on top of the snapshot.
    pub replayed: u64,
    /// Sequence number the loaded snapshot covered (0 = none).
    pub snapshot_seq: u64,
    /// Records loaded from the snapshot.
    pub snapshot_entries: u64,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_skipped: u64,
    /// Sequence number of the last applied op (snapshot or replay).
    pub last_seq: u64,
    /// Whether the final segment ended in a torn/corrupt record that was
    /// skipped (and truncated away).
    pub torn_tail: bool,
    /// Wall-clock time recovery took.
    pub duration: Duration,
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Rebuilds a shard's state from `dir`.
///
/// Tolerates (and truncates away) a torn or corrupted record at the very
/// tail of the newest segment — the signature of a crash mid-append — but
/// refuses gaps or mid-log damage, which would silently lose acknowledged
/// writes.
pub fn recover(dir: &Path) -> io::Result<Recovery> {
    let begin = Instant::now();
    // The snapshot's records stream straight into a bulk build: snapshots
    // are written from `Database::iter` (ascending keys), so the index is
    // built bottom-up with full leaves; an unsorted file goes through the
    // build's sort instead.
    let snap = snapshot::load_latest(dir)?;
    let snapshot_entries = snap.db.len() as u64;
    let mut db = snap.db;

    let segments = wal::list_segments(dir)?;
    let mut last_seq = snap.seq;
    let mut replayed = 0u64;
    let mut replayed_keys = Vec::new();
    let mut torn_tail = false;

    for (i, segment) in segments.iter().enumerate() {
        let is_last = i + 1 == segments.len();
        let scan = wal::scan_segment(&segment.path)?;
        if let Some(damage) = scan.damage {
            if !is_last {
                return Err(corrupt(format!(
                    "wal segment {} is damaged ({damage:?}) but is not the \
                     final segment; refusing to skip acknowledged records",
                    segment.path.display()
                )));
            }
            // Crash mid-append: drop the invalid tail so it can never be
            // misread by a later recovery, and carry on.
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&segment.path)?;
            file.set_len(scan.valid_len)?;
            file.sync_all()?;
            torn_tail = true;
        }
        for record in scan.records {
            if record.seq <= snap.seq {
                continue; // already folded into the snapshot
            }
            if record.seq != last_seq + 1 {
                return Err(corrupt(format!(
                    "wal sequence gap: expected {}, found {} in {}",
                    last_seq + 1,
                    record.seq,
                    segment.path.display()
                )));
            }
            match record.op {
                WalOp::Set { key, record } => {
                    db.insert(key, record);
                }
                WalOp::Del { key } => {
                    db.remove(key);
                }
            }
            replayed_keys.push(record.op.key());
            replayed += 1;
            last_seq = record.seq;
        }
    }

    Ok(Recovery {
        db,
        replayed_keys,
        replayed,
        snapshot_seq: snap.seq,
        snapshot_entries,
        snapshots_skipped: snap.invalid_skipped,
        last_seq,
        torn_tail,
        duration: begin.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalOp;
    use crate::testutil::{reference_snapshot, reference_wal, TempDir};
    use crate::wal::{segment_file_name, Wal, DEFAULT_SEGMENT_BYTES};
    use p4lru_kvstore::db::record_for;

    fn set(key: u64) -> WalOp {
        WalOp::Set {
            key,
            record: record_for(key),
        }
    }

    #[test]
    fn empty_dir_recovers_to_the_zero_state() {
        let tmp = TempDir::new("rec-empty");
        let r = recover(tmp.path()).unwrap();
        assert_eq!(r.last_seq, 0);
        assert_eq!(r.replayed, 0);
        assert!(r.db.is_empty());
        assert!(!r.torn_tail);
    }

    #[test]
    fn replays_wal_on_top_of_snapshot() {
        let tmp = TempDir::new("rec-replay");
        let mut db = Database::default();
        for k in 0..50 {
            db.insert(k, record_for(k));
        }
        snapshot::write_snapshot(tmp.path(), 10, &db).unwrap();
        let mut wal = Wal::create(tmp.path(), 11, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.append(&set(100)).unwrap();
        wal.append(&WalOp::Del { key: 3 }).unwrap();
        wal.append(&set(0)).unwrap();
        wal.sync().unwrap();

        let r = recover(tmp.path()).unwrap();
        assert_eq!(r.snapshot_seq, 10);
        assert_eq!(r.snapshot_entries, 50);
        assert_eq!(r.replayed, 3);
        assert_eq!(r.last_seq, 13);
        assert_eq!(r.replayed_keys, vec![100, 3, 0]);
        assert_eq!(r.db.len(), 50, "+1 insert, -1 delete");
        assert!(r.db.lookup_by_key(100).is_some());
        assert!(r.db.lookup_by_key(3).is_none());
    }

    #[test]
    fn stale_records_below_the_snapshot_are_skipped() {
        let tmp = TempDir::new("rec-stale");
        // A pre-snapshot segment that pruning failed to delete.
        let mut old = Wal::create(tmp.path(), 1, DEFAULT_SEGMENT_BYTES).unwrap();
        old.append(&set(1)).unwrap();
        old.append(&set(2)).unwrap();
        old.sync().unwrap();
        drop(old);
        let mut db = Database::default();
        db.insert(1, record_for(1));
        db.insert(2, record_for(2));
        snapshot::write_snapshot(tmp.path(), 2, &db).unwrap();
        let mut wal = Wal::create(tmp.path(), 3, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.append(&set(3)).unwrap();
        wal.sync().unwrap();

        let r = recover(tmp.path()).unwrap();
        assert_eq!(r.replayed, 1, "only the post-snapshot record replays");
        assert_eq!(r.last_seq, 3);
        assert_eq!(r.db.len(), 3);
    }

    #[test]
    fn sequence_gaps_are_refused() {
        let tmp = TempDir::new("rec-gap");
        let mut wal = Wal::create(tmp.path(), 5, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.append(&set(1)).unwrap();
        wal.sync().unwrap();
        let e = recover(tmp.path()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("gap"), "{e}");
    }

    #[test]
    fn torn_tail_is_truncated_and_tolerated() {
        let tmp = TempDir::new("rec-torn");
        let mut wal = Wal::create(tmp.path(), 1, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.append(&set(1)).unwrap();
        wal.append(&set(2)).unwrap();
        wal.sync().unwrap();
        let seg = wal::list_segments(tmp.path()).unwrap().remove(0);
        let valid_len = std::fs::metadata(&seg.path).unwrap().len();
        // Simulate a crash mid-append of record 3.
        let mut bytes = std::fs::read(&seg.path).unwrap();
        bytes.extend_from_slice(&[81, 0, 0, 0, 0xAA, 0xBB]); // header fragment
        std::fs::write(&seg.path, bytes).unwrap();

        let r = recover(tmp.path()).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.replayed, 2);
        assert_eq!(r.last_seq, 2);
        assert_eq!(
            std::fs::metadata(&seg.path).unwrap().len(),
            valid_len,
            "the torn tail was truncated away"
        );
        // A second recovery sees a clean log.
        let r2 = recover(tmp.path()).unwrap();
        assert!(!r2.torn_tail);
        assert_eq!(r2.replayed, 2);
    }

    #[test]
    fn mid_log_damage_is_a_hard_error() {
        let tmp = TempDir::new("rec-midlog");
        // Two segments: damage the first (sealed) one.
        let mut wal = Wal::create(tmp.path(), 1, 8).unwrap();
        wal.append(&set(1)).unwrap();
        wal.sync().unwrap(); // rotates (tiny segment size)
        wal.append(&set(2)).unwrap();
        wal.sync().unwrap();
        let sealed = wal::list_segments(tmp.path()).unwrap().remove(0);
        let mut bytes = std::fs::read(&sealed.path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&sealed.path, bytes).unwrap();

        let e = recover(tmp.path()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("not the final segment"), "{e}");
    }

    #[test]
    fn a_data_dir_from_the_reference_encoders_recovers_unchanged() {
        let tmp = TempDir::new("rec-reference");
        let entries: Vec<_> = (0..200u64).map(|k| (k * 3, record_for(k))).collect();
        std::fs::write(
            tmp.path().join(snapshot::snapshot_file_name(4)),
            reference_snapshot(4, entries.len() as u64, &entries),
        )
        .unwrap();
        let ops = [(5, set(1000)), (6, WalOp::Del { key: 9 }), (7, set(3))];
        std::fs::write(tmp.path().join(segment_file_name(5)), reference_wal(&ops)).unwrap();

        let mut model = std::collections::BTreeMap::from_iter(entries);
        model.insert(1000, record_for(1000));
        model.remove(&9);
        model.insert(3, record_for(3));
        let r = recover(tmp.path()).unwrap();
        assert_eq!((r.snapshot_seq, r.snapshot_entries), (4, 200));
        assert_eq!((r.replayed, r.last_seq, r.torn_tail), (3, 7, false));
        let got: Vec<_> = r.db.iter().map(|(k, r)| (k, *r)).collect();
        assert_eq!(got, Vec::from_iter(model));
    }

    #[test]
    fn an_unsorted_snapshot_recovers_through_the_fallback() {
        let tmp = TempDir::new("rec-unsorted");
        let entries: Vec<_> = [900u64, 5, 70, 6, 5, 1]
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, record_for(i as u64)))
            .collect();
        std::fs::write(
            tmp.path().join(snapshot::snapshot_file_name(2)),
            reference_snapshot(2, entries.len() as u64, &entries),
        )
        .unwrap();
        let r = recover(tmp.path()).unwrap();
        assert_eq!(r.snapshot_seq, 2);
        let got: Vec<_> = r.db.iter().map(|(k, r)| (k, *r)).collect();
        // Sorted, and the later of key 5's two records wins.
        let want = [(1, 5), (5, 4), (6, 3), (70, 2), (900, 0)]
            .map(|(k, i)| (k, record_for(i)))
            .to_vec();
        assert_eq!(got, want);
        assert_eq!(r.snapshot_entries, 5);
        assert!(r.db.lookup_by_key(70).is_some());
    }
}
