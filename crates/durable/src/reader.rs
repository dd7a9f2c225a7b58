//! Reading a shard's WAL *as a stream* — the primary side of replication.
//!
//! Recovery ([`crate::recover`]) reads the whole log once at startup; a
//! replication follower instead tails it incrementally: "give me everything
//! from sequence `s` on". [`read_log_from`] answers that question against
//! the on-disk segment files, with three possible outcomes:
//!
//! * a batch of contiguous encoded records starting exactly at `s`;
//! * *snapshot needed* — the record at `s` was pruned into a snapshot (the
//!   follower is too far behind to catch up from the log alone and must
//!   re-seed from the snapshot);
//! * *up to date* — nothing at or past `s` is durable yet.
//!
//! The batch carries the records in their on-disk encoding (length + CRC
//! framing, see [`crate::record`]), so the wire format *is* the WAL format:
//! the follower validates each record with the same decoder recovery uses,
//! and a torn or corrupt shipment is rejected by the same rules.
//!
//! The reader only ever reads files the writer treats as immutable-once-
//! written (appends go through the active segment's buffered tail, and a
//! concurrent append can at worst leave a torn final record, which reads as
//! "stop here" — exactly like crash recovery). It reads a segment a chunk
//! at a time and stops at the final segment's first invalid record, so the
//! active segment's pre-sized zero tail is never read. It is safe to call
//! from a different thread than the writer as long as both run over the
//! same directory; the returned batch never includes a partially written
//! record.

use std::io;

use crate::fs::DataDir;
use crate::record::{self, WalRecord};
use crate::snapshot::list_snapshots;
use crate::wal::{list_segments, Next, SegmentReader};

/// Records shipped by one [`read_log_from`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadBatch {
    /// The records in their on-disk (= wire) encoding, back to back.
    pub bytes: Vec<u8>,
    /// How many records `bytes` holds.
    pub count: u64,
    /// Sequence number of the first record (always the requested one).
    pub first_seq: u64,
    /// Sequence number of the last record.
    pub last_seq: u64,
}

/// Outcome of asking for the log from a given sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Contiguous records starting at the requested sequence.
    Records(ReadBatch),
    /// The requested sequence was pruned into a snapshot; catch up from the
    /// snapshot sealed at `snapshot_seq`, then pull from `snapshot_seq + 1`.
    SnapshotNeeded {
        /// Sealed sequence of the newest snapshot.
        snapshot_seq: u64,
    },
    /// Nothing at or past the requested sequence exists yet.
    UpToDate,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads the log from `from_seq` (inclusive), shipping at most `max_bytes`
/// of encoded records (at least one record is shipped if any is available,
/// so a tiny budget cannot stall the stream).
///
/// `from_seq` must be `>= 1` (sequence 0 is "before any record"). Mid-log
/// damage or a sequence gap is an error — same contract as recovery — but
/// the final segment's first invalid record simply ends the batch: it is
/// the active segment's zero tail, or a record being written or torn by a
/// crash, none of it acknowledged, and the next call picks up after the
/// writer fills or rotates past it.
pub fn read_log_from(
    dir: impl Into<DataDir>,
    from_seq: u64,
    max_bytes: usize,
) -> io::Result<ReadOutcome> {
    if from_seq == 0 {
        return Err(invalid("read_log_from needs from_seq >= 1".to_owned()));
    }
    let dir = dir.into();
    let segments = list_segments(&dir)?;
    // The segment that would contain `from_seq`: the last one starting at or
    // before it. Later segments follow in order.
    let start = segments
        .iter()
        .rposition(|s| s.first_seq <= from_seq)
        .unwrap_or(segments.len());
    if start == segments.len() {
        // Every surviving segment starts past `from_seq` (or there are no
        // segments at all): the records at `from_seq` were either pruned
        // into a snapshot or never written.
        let snapshot_seq = list_snapshots(&dir)?
            .last()
            .map(|&(seq, _)| seq)
            .unwrap_or(0);
        return Ok(if snapshot_seq >= from_seq {
            ReadOutcome::SnapshotNeeded { snapshot_seq }
        } else {
            ReadOutcome::UpToDate
        });
    }

    let mut bytes = Vec::new();
    let mut count = 0u64;
    let mut next_expected = from_seq;
    'segments: for (i, segment) in segments[start..].iter().enumerate() {
        let is_last = start + i == segments.len() - 1;
        let mut reader = SegmentReader::open(dir.fs(), &segment.path)?;
        loop {
            let rec = match reader.next()? {
                Next::Record(rec) => rec,
                Next::End => break,
                // Where the final segment's records end, the log ends; any
                // other segment was sealed at its last record, so bytes
                // past it (zeros or damage) mean a lost record.
                Next::Invalid(_) if is_last => break 'segments,
                Next::Invalid(damage) => {
                    return Err(invalid(format!(
                        "segment {} is damaged ({damage:?}) but is not the final segment",
                        segment.path.display()
                    )));
                }
            };
            if rec.seq < next_expected {
                continue; // below the requested window (partial first segment)
            }
            if rec.seq != next_expected {
                return Err(invalid(format!(
                    "log gap: expected seq {next_expected}, found {} in {}",
                    rec.seq,
                    segment.path.display()
                )));
            }
            encode_record(&mut bytes, &rec);
            count += 1;
            next_expected += 1;
            if bytes.len() >= max_bytes {
                break 'segments;
            }
        }
    }

    if count == 0 {
        // The containing segment exists but holds nothing at `from_seq` yet
        // (an empty or torn-tail active segment): the follower is caught up.
        return Ok(ReadOutcome::UpToDate);
    }
    Ok(ReadOutcome::Records(ReadBatch {
        bytes,
        count,
        first_seq: from_seq,
        last_seq: next_expected - 1,
    }))
}

fn encode_record(buf: &mut Vec<u8>, rec: &WalRecord) {
    record::encode_into(buf, rec.seq, &rec.op);
}

/// Decodes a shipped batch back into records, validating the same framing
/// rules recovery applies: every record must decode cleanly and the
/// sequence numbers must be dense starting at `expect_first`. Any torn
/// tail, CRC failure, or gap rejects the *whole* batch — the follower
/// applies none of it, so a bad shipment cannot damage follower state.
pub fn decode_batch(bytes: &[u8], expect_first: u64) -> io::Result<Vec<WalRecord>> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut next = expect_first;
    while offset < bytes.len() {
        match record::decode(&bytes[offset..]) {
            record::Decoded::Record { record, consumed } => {
                if record.seq != next {
                    return Err(invalid(format!(
                        "shipped batch gap: expected seq {next}, got {}",
                        record.seq
                    )));
                }
                next += 1;
                offset += consumed;
                records.push(record);
            }
            record::Decoded::Torn => {
                return Err(invalid(format!(
                    "shipped batch torn at offset {offset} of {}",
                    bytes.len()
                )));
            }
            record::Decoded::Corrupt => {
                return Err(invalid(format!("shipped batch corrupt at offset {offset}")));
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalOp;
    use crate::testutil::TempDir;
    use crate::wal::Wal;
    use crate::{DurabilityConfig, ShardLog, SyncPolicy};
    use p4lru_kvstore::db::record_for;
    use p4lru_kvstore::Database;

    fn config() -> DurabilityConfig {
        DurabilityConfig {
            sync: SyncPolicy::Always,
            ..DurabilityConfig::default()
        }
    }

    fn filled_log(dir: &std::path::Path, appends: u64) -> ShardLog {
        let mut log = ShardLog::init_fresh(dir, &Database::default(), &config()).unwrap();
        for k in 1..=appends {
            log.append_set(k, record_for(k)).unwrap();
        }
        log.commit().unwrap();
        log
    }

    #[test]
    fn reads_from_the_start_and_roundtrips() {
        let tmp = TempDir::new("reader-roundtrip");
        let _log = filled_log(tmp.path(), 10);
        let ReadOutcome::Records(batch) = read_log_from(tmp.path(), 1, usize::MAX).unwrap() else {
            panic!("expected records");
        };
        assert_eq!((batch.first_seq, batch.last_seq, batch.count), (1, 10, 10));
        let records = decode_batch(&batch.bytes, 1).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(
            records[0].op,
            WalOp::Set {
                key: 1,
                record: record_for(1)
            }
        );
        assert_eq!(records[9].seq, 10);
    }

    #[test]
    fn reads_resume_mid_log_and_report_up_to_date_at_the_tail() {
        let tmp = TempDir::new("reader-resume");
        let _log = filled_log(tmp.path(), 10);
        let ReadOutcome::Records(batch) = read_log_from(tmp.path(), 7, usize::MAX).unwrap() else {
            panic!("expected records");
        };
        assert_eq!((batch.first_seq, batch.last_seq), (7, 10));
        assert_eq!(
            read_log_from(tmp.path(), 11, usize::MAX).unwrap(),
            ReadOutcome::UpToDate
        );
    }

    #[test]
    fn byte_budget_bounds_a_batch_but_ships_at_least_one_record() {
        let tmp = TempDir::new("reader-budget");
        let _log = filled_log(tmp.path(), 10);
        let ReadOutcome::Records(batch) = read_log_from(tmp.path(), 1, 1).unwrap() else {
            panic!("expected records");
        };
        assert_eq!(batch.count, 1, "a 1-byte budget still ships one record");
        let ReadOutcome::Records(batch) = read_log_from(tmp.path(), 1, 200).unwrap() else {
            panic!("expected records");
        };
        assert!(batch.count >= 2 && batch.count < 10, "got {}", batch.count);
    }

    #[test]
    fn reads_span_segment_rotation() {
        let tmp = TempDir::new("reader-rotate");
        // Tiny segments force several rotations across 50 appends.
        let cfg = DurabilityConfig {
            sync: SyncPolicy::Always,
            segment_bytes: 256,
            ..DurabilityConfig::default()
        };
        let mut log = ShardLog::init_fresh(tmp.path(), &Database::default(), &cfg).unwrap();
        for k in 1..=50 {
            log.append_set(k, record_for(k)).unwrap();
            log.commit().unwrap();
        }
        assert!(
            list_segments(tmp.path()).unwrap().len() > 2,
            "rotations happened"
        );
        let ReadOutcome::Records(batch) = read_log_from(tmp.path(), 1, usize::MAX).unwrap() else {
            panic!("expected records");
        };
        assert_eq!((batch.first_seq, batch.last_seq, batch.count), (1, 50, 50));
        assert_eq!(decode_batch(&batch.bytes, 1).unwrap().len(), 50);
    }

    #[test]
    fn pruned_history_demands_a_snapshot() {
        let tmp = TempDir::new("reader-pruned");
        let mut db = Database::default();
        let mut log = ShardLog::init_fresh(tmp.path(), &db, &config()).unwrap();
        for k in 1..=20 {
            log.append_set(k, record_for(k)).unwrap();
            db.insert(k, record_for(k));
        }
        log.commit().unwrap();
        let sealed = log.snapshot(&db).unwrap();
        assert_eq!(sealed, 20);
        // Everything <= 20 is pruned; a follower at seq 5 must re-seed.
        assert_eq!(
            read_log_from(tmp.path(), 5, usize::MAX).unwrap(),
            ReadOutcome::SnapshotNeeded { snapshot_seq: 20 }
        );
        // But a follower at 21 tails the (empty) active segment.
        assert_eq!(
            read_log_from(tmp.path(), 21, usize::MAX).unwrap(),
            ReadOutcome::UpToDate
        );
    }

    #[test]
    fn a_presized_active_segment_ships_its_records_then_is_up_to_date() {
        let tmp = TempDir::new("reader-presized");
        let _log = filled_log(tmp.path(), 3);
        let active = list_segments(tmp.path()).unwrap().pop().unwrap().path;
        let on_disk = std::fs::read(&active).unwrap();
        assert_eq!(on_disk.len() as u64, config().segment_bytes, "pre-sized");

        let ReadOutcome::Records(batch) = read_log_from(tmp.path(), 1, usize::MAX).unwrap() else {
            panic!("expected records");
        };
        assert_eq!((batch.first_seq, batch.last_seq, batch.count), (1, 3, 3));
        let records = 3 * (record::RECORD_HEADER_BYTES + record::SET_PAYLOAD_BYTES);
        assert_eq!(
            batch.bytes,
            on_disk[..records],
            "exactly the written records"
        );
        assert_eq!(
            read_log_from(tmp.path(), 4, usize::MAX).unwrap(),
            ReadOutcome::UpToDate
        );
    }

    #[test]
    fn torn_final_segment_ends_the_batch_early() {
        let tmp = TempDir::new("reader-torn");
        let _log = filled_log(tmp.path(), 5);
        // Append half a record header to the active segment: a crash (or a
        // concurrent buffered append) mid-write.
        let newest = list_segments(tmp.path()).unwrap().pop().unwrap().path;
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes.extend_from_slice(&[81, 0, 0, 0, 0xAA]);
        std::fs::write(&newest, bytes).unwrap();
        let ReadOutcome::Records(batch) = read_log_from(tmp.path(), 1, usize::MAX).unwrap() else {
            panic!("expected records");
        };
        assert_eq!(batch.last_seq, 5, "the torn tail is not shipped");
        decode_batch(&batch.bytes, 1).unwrap();
    }

    #[test]
    fn damage_in_a_sealed_segment_is_an_error() {
        let tmp = TempDir::new("reader-midlog");
        let cfg = DurabilityConfig {
            sync: SyncPolicy::Always,
            segment_bytes: 256,
            ..DurabilityConfig::default()
        };
        let mut log = ShardLog::init_fresh(tmp.path(), &Database::default(), &cfg).unwrap();
        for k in 1..=50 {
            log.append_set(k, record_for(k)).unwrap();
            log.commit().unwrap();
        }
        let first = &list_segments(tmp.path()).unwrap()[0].path.clone();
        let mut bytes = std::fs::read(first).unwrap();
        let at = bytes.len() - 20;
        bytes[at] ^= 0xFF;
        std::fs::write(first, bytes).unwrap();
        let err = read_log_from(tmp.path(), 1, usize::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decode_batch_rejects_gaps_torn_tails_and_corruption() {
        let mut good = Vec::new();
        record::encode_into(&mut good, 5, &WalOp::Del { key: 1 });
        record::encode_into(&mut good, 6, &WalOp::Del { key: 2 });
        assert_eq!(decode_batch(&good, 5).unwrap().len(), 2);
        // Wrong starting seq = stale/gap shipment.
        assert!(decode_batch(&good, 4).is_err());
        // Torn mid-record.
        assert!(decode_batch(&good[..good.len() - 3], 5).is_err());
        // Flipped payload byte = CRC failure.
        let mut bad = good.clone();
        bad[10] ^= 0x01;
        assert!(decode_batch(&bad, 5).is_err());
    }

    #[test]
    fn empty_fresh_log_is_up_to_date() {
        let tmp = TempDir::new("reader-empty");
        let _wal = Wal::create(tmp.path(), 1, 1 << 20).unwrap();
        assert_eq!(
            read_log_from(tmp.path(), 1, usize::MAX).unwrap(),
            ReadOutcome::UpToDate
        );
    }
}
