//! Cross-crate durability tests: damaged WAL bytes driven through
//! recovery, via the facade crate's re-exports.
//!
//! The unit tests inside `p4lru-durable` cover each module; these tests
//! exercise the crash *surface* — a write stream cut short, corrupted, or
//! truncated, as bytes or by `SimFs`'s editing operations — and assert
//! the recovery contract from DESIGN.md §8: everything before the damage
//! survives, the damaged tail is repaired away, and mid-log damage refuses
//! to recover at all.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use p4lru::durable::record::encode_into;
use p4lru::durable::wal::{segment_file_name, Wal, DEFAULT_SEGMENT_BYTES};
use p4lru::durable::{recover, DataDir, Fs, SimFs, WalOp};
use p4lru::kvstore::db::record_for;

/// A shard directory on a fresh in-memory file system, and the path of
/// its first WAL segment.
fn sim_dir() -> (Arc<SimFs>, DataDir, PathBuf) {
    let fs = Arc::new(SimFs::default());
    let dir = DataDir::new(fs.clone(), "shard");
    let segment = dir.path().join(segment_file_name(1));
    (fs, dir, segment)
}

fn set(key: u64) -> WalOp {
    WalOp::Set {
        key,
        record: record_for(key),
    }
}

/// WAL records `1..=n`, encoded back to back.
fn records(n: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for seq in 1..=n {
        encode_into(&mut bytes, seq, &set(seq));
    }
    bytes
}

#[test]
fn short_write_mid_record_recovers_everything_before_it() {
    let (fs, dir, segment) = sim_dir();
    // Each SET record is 8 bytes of framing + 81 of payload = 89 bytes.
    // A crash 40 bytes into the fourth record: three full records and a
    // fragment land on "disk".
    let mut bytes = records(10);
    bytes.truncate(3 * 89 + 40);
    assert_eq!(bytes.len(), 3 * 89 + 40, "prefix written, rest swallowed");
    fs.create(&segment).unwrap().write_all(&bytes).unwrap();

    let r = recover::recover(&dir).unwrap();
    assert!(r.torn_tail, "the fragment reads as a torn record");
    assert_eq!(r.replayed, 3, "all complete records survive");
    assert_eq!(r.last_seq, 3);
    for key in 1..=3 {
        assert_eq!(r.db.lookup_by_key(key).unwrap().record, &record_for(key));
    }
    // The repair truncated the fragment: a second recovery is clean.
    let r2 = recover::recover(&dir).unwrap();
    assert!(!r2.torn_tail);
    assert_eq!(r2.replayed, 3);
}

#[test]
fn corrupted_final_record_is_skipped_not_fatal() {
    let (fs, dir, segment) = sim_dir();
    // Flip a byte inside the *last* record's payload (record 5 spans bytes
    // 4*89 .. 5*89; corrupt one near its middle).
    let mut bytes = records(5);
    bytes[4 * 89 + 50] ^= 0xFF;
    assert_eq!(bytes.len(), 5 * 89, "corruption changes bytes, not length");
    fs.create(&segment).unwrap().write_all(&bytes).unwrap();

    let r = recover::recover(&dir).unwrap();
    assert!(r.torn_tail, "CRC catches the flipped byte");
    assert_eq!(r.replayed, 4, "records before the corruption survive");
    assert_eq!(r.last_seq, 4);
}

#[test]
fn file_level_fault_helpers_compose_with_a_real_wal() {
    let (fs, dir, segment) = sim_dir();
    let mut wal = Wal::create(&dir, 1, DEFAULT_SEGMENT_BYTES).unwrap();
    for seq in 1..=6 {
        wal.append(&set(seq)).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    // Chop half a record off the end: record 6 is torn, 1..=5 survive.
    fs.set_len(&segment, 6 * 89 - 30).unwrap();
    let r = recover::recover(&dir).unwrap();
    assert!(r.torn_tail);
    assert_eq!(r.replayed, 5);

    // Now flip the last byte of the (repaired) log: record 5's payload is
    // corrupt, 1..=4 survive.
    fs.flip_byte(&segment, 1).unwrap();
    let r = recover::recover(&dir).unwrap();
    assert!(r.torn_tail);
    assert_eq!(r.replayed, 4);
}

#[test]
fn damage_in_a_sealed_segment_refuses_recovery() {
    let (fs, dir, segment) = sim_dir();
    // Tiny segment budget: every sync rotates, so each record seals its own
    // segment file.
    let mut wal = Wal::create(&dir, 1, 8).unwrap();
    for seq in 1..=3 {
        wal.append(&set(seq)).unwrap();
        wal.sync().unwrap();
    }
    drop(wal);
    // Sanity: undamaged, everything replays.
    assert_eq!(recover::recover(&dir).unwrap().replayed, 3);
    // Damage in a sealed (non-final) segment means acknowledged records are
    // gone, and recovery must say so, not guess.
    fs.flip_byte(&segment, 1).unwrap();
    let e = recover::recover(&dir).unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    assert!(e.to_string().contains("not the final segment"), "{e}");
}
