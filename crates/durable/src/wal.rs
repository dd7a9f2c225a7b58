//! The segmented write-ahead log.
//!
//! A shard's log is a directory of segment files named
//! `wal-<first_seq:020>.log`. Records are appended to the *active* (newest)
//! segment; the segment rolls over once it passes the configured size, and
//! rollover happens only at a sync boundary, so every sealed segment is
//! fully fsynced — a crash can tear only the active segment's tail.
//!
//! The log has two halves so that appending never waits on the disk:
//! a [`WalBuffer`] encodes records in memory under dense sequence numbers,
//! and a [`WalFile`] writes the [`WalChunk`]s cut from it to the active
//! segment and fsyncs them. A server keeps the buffer under its shard's lock
//! and the file on its commit thread; [`Wal`] pairs the two for callers
//! that append and sync on one thread.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::record::{self, Decoded, WalOp, WalRecord};

/// Rotate the active segment once it exceeds this many bytes (default).
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";

/// The on-disk name of the segment whose first record is `first_seq`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_seq:020}{SEGMENT_SUFFIX}")
}

/// One segment file and the sequence number its name declares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Sequence number of the segment's first record.
    pub first_seq: u64,
    /// Path of the segment file.
    pub path: PathBuf,
}

/// Lists the segments of `dir`, sorted by `first_seq`.
pub fn list_segments(dir: &Path) -> io::Result<Vec<Segment>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        else {
            continue;
        };
        let Ok(first_seq) = stem.parse::<u64>() else {
            continue;
        };
        segments.push(Segment {
            first_seq,
            path: entry.path(),
        });
    }
    segments.sort_by_key(|s| s.first_seq);
    Ok(segments)
}

/// How a segment scan ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Damage {
    /// The segment ends mid-record (crash mid-append).
    Torn,
    /// A record failed validation (bad length, opcode, or CRC).
    Corrupt,
}

/// Every valid record of a segment, plus where validity ends.
#[derive(Clone, Debug)]
pub struct SegmentScan {
    /// The valid records, in file order.
    pub records: Vec<WalRecord>,
    /// Byte offset up to which the segment is valid.
    pub valid_len: u64,
    /// Why the scan stopped before the end of the file, if it did.
    pub damage: Option<Damage>,
}

/// Scans one segment file, stopping at the first invalid record.
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut damage = None;
    while at < bytes.len() {
        match record::decode(&bytes[at..]) {
            Decoded::Record { record, consumed } => {
                records.push(record);
                at += consumed;
            }
            Decoded::Torn => {
                damage = Some(Damage::Torn);
                break;
            }
            Decoded::Corrupt => {
                damage = Some(Damage::Corrupt);
                break;
            }
        }
    }
    Ok(SegmentScan {
        records,
        valid_len: at as u64,
        damage,
    })
}

/// Opens `dir` itself and fsyncs it, making renames/creates in it durable.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// The append half of the log: records encoded in memory under dense
/// sequence numbers until [`WalBuffer::take`] cuts them off as a chunk.
#[derive(Debug)]
pub struct WalBuffer {
    /// Sequence number of the first record in `bytes`.
    first_seq: u64,
    next_seq: u64,
    bytes: Vec<u8>,
}

impl WalBuffer {
    /// An empty buffer whose first append will get `next_seq`.
    pub fn new(next_seq: u64) -> WalBuffer {
        WalBuffer {
            first_seq: next_seq,
            next_seq,
            bytes: Vec::new(),
        }
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the last appended record (the predecessor of
    /// [`WalBuffer::next_seq`]; 0 before a fresh log's first append).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Whether every appended record has been cut into a chunk.
    pub fn is_empty(&self) -> bool {
        self.first_seq == self.next_seq
    }

    /// Encodes one op, returning its sequence number. The record is durable
    /// only once a [`WalFile`] has written and synced the chunk holding it.
    pub fn append(&mut self, op: &WalOp) -> u64 {
        let seq = self.next_seq;
        record::encode_into(&mut self.bytes, seq, op);
        self.next_seq += 1;
        seq
    }

    /// Cuts every record appended since the last `take` into a chunk,
    /// leaving the buffer empty.
    pub fn take(&mut self) -> WalChunk {
        let chunk = WalChunk {
            first_seq: self.first_seq,
            next_seq: self.next_seq,
            bytes: std::mem::take(&mut self.bytes),
        };
        self.first_seq = self.next_seq;
        chunk
    }
}

/// A dense run of encoded records cut from a [`WalBuffer`]: the unit a
/// [`WalFile`] writes.
#[derive(Debug)]
pub struct WalChunk {
    first_seq: u64,
    next_seq: u64,
    bytes: Vec<u8>,
}

impl WalChunk {
    /// How many records the chunk holds.
    pub fn records(&self) -> u64 {
        self.next_seq - self.first_seq
    }

    /// Sequence number of the chunk's last record (of the buffer's last
    /// record before the cut, when the chunk is empty).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }
}

/// The file half of the log: one active segment, written a chunk at a time,
/// explicit sync.
#[derive(Debug)]
pub struct WalFile {
    dir: PathBuf,
    file: File,
    seg_first_seq: u64,
    seg_written: u64,
    /// Sequence number the next written record must have.
    next_seq: u64,
    segment_bytes: u64,
}

impl WalFile {
    /// Starts a fresh active segment whose first record will be `next_seq`.
    ///
    /// An existing file of the same name is truncated: recovery has already
    /// established that no durable record at or past `next_seq` exists.
    pub fn create(dir: &Path, next_seq: u64, segment_bytes: u64) -> io::Result<WalFile> {
        let path = dir.join(segment_file_name(next_seq));
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        fsync_dir(dir)?;
        Ok(WalFile {
            dir: dir.to_path_buf(),
            file,
            seg_first_seq: next_seq,
            seg_written: 0,
            next_seq,
            segment_bytes: segment_bytes.max(1),
        })
    }

    /// First sequence number of the active segment.
    pub fn active_first_seq(&self) -> u64 {
        self.seg_first_seq
    }

    /// Hands `chunk` to the OS, appended to the active segment. A chunk that
    /// does not continue the log where the file left off is refused before
    /// any byte is written, so chunks written out of order cannot corrupt
    /// it.
    pub fn write(&mut self, chunk: &WalChunk) -> io::Result<()> {
        if chunk.records() == 0 {
            return Ok(());
        }
        if chunk.first_seq != self.next_seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "WAL chunk starting at seq {} does not continue the log (expected {})",
                    chunk.first_seq, self.next_seq
                ),
            ));
        }
        self.file.write_all(&chunk.bytes)?;
        self.seg_written += chunk.bytes.len() as u64;
        self.next_seq = chunk.next_seq;
        Ok(())
    }

    /// Fsyncs the active segment, then rotates it if it outgrew the segment
    /// size. Returns how long the fsync took.
    pub fn sync(&mut self) -> io::Result<Duration> {
        let begin = Instant::now();
        self.file.sync_data()?;
        let took = begin.elapsed();
        if self.seg_written >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(took)
    }

    /// Seals the active segment (callers must have synced) and starts a new
    /// one at the next sequence number.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.restart(self.next_seq)
    }

    /// Leaves the active segment as it is and starts a new one whose first
    /// record will be `next_seq` (a rotation, or a log reset to a shipped
    /// snapshot once the caller removed the old segments).
    pub fn restart(&mut self, next_seq: u64) -> io::Result<()> {
        *self = WalFile::create(&self.dir, next_seq, self.segment_bytes)?;
        Ok(())
    }

    /// Deletes every sealed segment that holds only records before
    /// `upto_seq` (exclusive); the active segment always survives. Returns
    /// how many files were removed.
    pub fn prune_segments(&self, upto_seq: u64) -> io::Result<usize> {
        let mut removed = 0;
        for segment in list_segments(&self.dir)? {
            // A sealed segment's records all precede the successor segment's
            // first_seq; since rotation happens at sync boundaries, any
            // segment other than the active one whose first_seq is below
            // `upto_seq` and which is not the active segment may only be
            // removed if every record in it precedes `upto_seq`. The active
            // segment's first_seq equals or exceeds the snapshot boundary by
            // construction (snapshot rotates first), so the name check
            // suffices.
            if segment.first_seq < upto_seq && segment.first_seq != self.seg_first_seq {
                fs::remove_file(&segment.path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            fsync_dir(&self.dir)?;
        }
        Ok(removed)
    }
}

/// A [`WalBuffer`] and a [`WalFile`] driven from one thread: appends reach
/// the file at [`Wal::sync`], or once 64 KiB are buffered.
#[derive(Debug)]
pub struct Wal {
    buffer: WalBuffer,
    file: WalFile,
}

impl Wal {
    /// Starts a fresh active segment whose first record will be `next_seq`
    /// (see [`WalFile::create`]).
    pub fn create(dir: &Path, next_seq: u64, segment_bytes: u64) -> io::Result<Wal> {
        Ok(Wal {
            buffer: WalBuffer::new(next_seq),
            file: WalFile::create(dir, next_seq, segment_bytes)?,
        })
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.buffer.next_seq()
    }

    /// Appends one op, returning its sequence number. The record is durable
    /// only after the next [`Wal::sync`].
    pub fn append(&mut self, op: &WalOp) -> io::Result<u64> {
        let seq = self.buffer.append(op);
        // Keep the buffer bounded even if the caller syncs rarely.
        if self.buffer.bytes.len() >= 1 << 16 {
            self.file.write(&self.buffer.take())?;
        }
        Ok(seq)
    }

    /// Writes the buffered records and fsyncs them (see [`WalFile::sync`]).
    pub fn sync(&mut self) -> io::Result<Duration> {
        self.file.write(&self.buffer.take())?;
        self.file.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalOp;
    use crate::testutil::TempDir;

    fn del(key: u64) -> WalOp {
        WalOp::Del { key }
    }

    #[test]
    fn append_sync_scan_roundtrip() {
        let tmp = TempDir::new("wal-roundtrip");
        let mut wal = Wal::create(tmp.path(), 1, DEFAULT_SEGMENT_BYTES).unwrap();
        for key in 0..10 {
            assert_eq!(wal.append(&del(key)).unwrap(), key + 1);
        }
        wal.sync().unwrap();

        let segments = list_segments(tmp.path()).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].first_seq, 1);
        let scan = scan_segment(&segments[0].path).unwrap();
        assert_eq!(scan.damage, None);
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.records[3].seq, 4);
        assert_eq!(scan.records[3].op, del(3));
    }

    #[test]
    fn rotation_seals_segments_at_sync_boundaries() {
        let tmp = TempDir::new("wal-rotate");
        // Tiny segments: every synced record overflows the segment.
        let mut wal = Wal::create(tmp.path(), 1, 8).unwrap();
        for key in 0..4 {
            wal.append(&del(key)).unwrap();
            wal.sync().unwrap();
        }
        let segments = list_segments(tmp.path()).unwrap();
        // 4 sealed + 1 fresh active.
        assert_eq!(segments.len(), 5);
        let firsts: Vec<u64> = segments.iter().map(|s| s.first_seq).collect();
        assert_eq!(firsts, vec![1, 2, 3, 4, 5]);
        for sealed in &segments[..4] {
            let scan = scan_segment(&sealed.path).unwrap();
            assert_eq!(scan.damage, None);
            assert_eq!(scan.records.len(), 1);
        }
    }

    #[test]
    fn prune_keeps_the_active_segment() {
        let tmp = TempDir::new("wal-prune");
        let mut buffer = WalBuffer::new(1);
        let mut file = WalFile::create(tmp.path(), 1, 8).unwrap();
        for key in 0..4 {
            buffer.append(&del(key));
            file.write(&buffer.take()).unwrap();
            file.sync().unwrap();
        }
        let removed = file.prune_segments(buffer.next_seq()).unwrap();
        assert_eq!(removed, 4);
        let segments = list_segments(tmp.path()).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].first_seq, file.active_first_seq());
    }

    #[test]
    fn appends_continue_while_a_cut_chunk_is_written() {
        let tmp = TempDir::new("wal-split");
        let mut buffer = WalBuffer::new(1);
        let mut file = WalFile::create(tmp.path(), 1, DEFAULT_SEGMENT_BYTES).unwrap();
        buffer.append(&del(1));
        buffer.append(&del(2));
        let first = buffer.take();
        assert!(buffer.is_empty());
        assert_eq!((first.records(), first.last_seq()), (2, 2));
        // The next batch accumulates while the first one is on its way out.
        buffer.append(&del(3));
        let second = buffer.take();
        assert_eq!(buffer.take().records(), 0, "nothing left to cut");

        // Out of order is refused without writing a byte; in order lands.
        let err = file.write(&second).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        file.write(&first).unwrap();
        file.write(&second).unwrap();
        file.sync().unwrap();
        let segment = &list_segments(tmp.path()).unwrap()[0];
        let seqs: Vec<u64> = scan_segment(&segment.path)
            .unwrap()
            .records
            .iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn unsynced_appends_are_not_on_disk_yet() {
        let tmp = TempDir::new("wal-buffer");
        let mut wal = Wal::create(tmp.path(), 1, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.append(&del(1)).unwrap();
        let segments = list_segments(tmp.path()).unwrap();
        let scan = scan_segment(&segments[0].path).unwrap();
        assert_eq!(scan.records.len(), 0, "append buffers until sync");
        wal.sync().unwrap();
        let scan = scan_segment(&segments[0].path).unwrap();
        assert_eq!(scan.records.len(), 1);
    }
}
