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
//!
//! **The active segment is pre-sized.** [`WalFile::create`] truncates the
//! file and extends it (sparse) to the segment size, so a commit writes
//! into space the file already has and its `fdatasync` flushes the record,
//! not a file-size change. Every path that stops writing a segment —
//! rotation, a restart, dropping the [`WalFile`] — first trims it to the
//! bytes its records fill and syncs it, so a sealed segment is exactly its
//! records, as it was before segments were pre-sized.
//!
//! **The end-of-log rule**, which [`scan_segment`], [`crate::recover`],
//! [`crate::reader::read_log_from`] and the crash tests all apply: a
//! segment's records end at the first offset from which the rest of the
//! file is zero. That is a clean end — the unwritten part of the active
//! segment — not damage (no record starts with a zero byte: its length
//! field is never zero). Any other invalid tail is [`Damage`]. Only the
//! final segment may end in either; recovery trims it to its records,
//! and damage or a zero tail in any other segment is a hard error.
//! Data directories stay readable both ways: one written before
//! pre-sizing has no zero tails, and older code reads a zero tail as a
//! torn tail and trims it.

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

/// Why a segment's records end before its file does, when the rest of the
/// file is not zero.
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
    /// Byte offset up to which the segment is valid: the end of its last
    /// record.
    pub valid_len: u64,
    /// The file's length. The bytes from `valid_len` to here are zero (a
    /// clean end) unless `damage` says otherwise.
    pub file_len: u64,
    /// Why the records end early, if the bytes past them are not all zero.
    pub damage: Option<Damage>,
}

/// Scans one segment file, stopping at the first invalid record and
/// applying the end-of-log rule (module docs) to what follows it.
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut reader = SegmentReader::open(path)?;
    let mut records = Vec::new();
    let damage = loop {
        match reader.next()? {
            Next::Record(record) => records.push(record),
            Next::End => break None,
            Next::Invalid(damage) => break (!reader.rest_is_zero()?).then_some(damage),
        }
    };
    Ok(SegmentScan {
        records,
        valid_len: reader.valid_len(),
        file_len: reader.file_len,
        damage,
    })
}

/// Bytes a [`SegmentReader`] reads per call.
const READ_CHUNK: usize = 64 << 10;

static ZEROS: [u8; 4096] = [0; 4096];

fn is_zero(bytes: &[u8]) -> bool {
    // Slice equality is a `memcmp`, fast in unoptimized builds too.
    bytes.chunks(ZEROS.len()).all(|c| c == &ZEROS[..c.len()])
}

/// What a [`SegmentReader`] found next.
#[derive(Debug)]
pub(crate) enum Next {
    /// A valid record.
    Record(WalRecord),
    /// The file ends right after the last record.
    End,
    /// The bytes after the last record are not a valid record: a zero tail
    /// (see [`SegmentReader::rest_is_zero`]) or damage of this kind.
    Invalid(Damage),
}

/// A segment's records in file order, read a chunk at a time, so a reader
/// that stops at the first invalid record never reads the rest.
#[derive(Debug)]
pub(crate) struct SegmentReader {
    file: File,
    file_len: u64,
    buf: Vec<u8>,
    /// Offset in `buf` of the next record.
    at: usize,
    /// File offset of `buf[0]`.
    base: u64,
    eof: bool,
}

impl SegmentReader {
    pub(crate) fn open(path: &Path) -> io::Result<SegmentReader> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        Ok(SegmentReader {
            file,
            file_len,
            buf: Vec::new(),
            at: 0,
            base: 0,
            eof: false,
        })
    }

    /// Offset just past the last record [`SegmentReader::next`] returned.
    pub(crate) fn valid_len(&self) -> u64 {
        self.base + self.at as u64
    }

    pub(crate) fn next(&mut self) -> io::Result<Next> {
        loop {
            match record::decode(&self.buf[self.at..]) {
                Decoded::Record { record, consumed } => {
                    self.at += consumed;
                    return Ok(Next::Record(record));
                }
                Decoded::Torn if !self.eof => self.fill()?,
                Decoded::Torn if self.at == self.buf.len() => return Ok(Next::End),
                Decoded::Torn => return Ok(Next::Invalid(Damage::Torn)),
                Decoded::Corrupt => return Ok(Next::Invalid(Damage::Corrupt)),
            }
        }
    }

    /// Whether every byte from [`SegmentReader::valid_len`] to the end of
    /// the file is zero.
    pub(crate) fn rest_is_zero(&mut self) -> io::Result<bool> {
        if !is_zero(&self.buf[self.at..]) {
            return Ok(false);
        }
        let mut chunk = vec![0; READ_CHUNK];
        loop {
            match self.file.read(&mut chunk)? {
                0 => return Ok(true),
                n if !is_zero(&chunk[..n]) => return Ok(false),
                _ => {}
            }
        }
    }

    /// Drops the consumed bytes and reads the next chunk behind the rest.
    fn fill(&mut self) -> io::Result<()> {
        self.buf.drain(..self.at);
        self.base += self.at as u64;
        self.at = 0;
        let kept = self.buf.len();
        self.buf.resize(kept + READ_CHUNK, 0);
        let n = self.file.read(&mut self.buf[kept..])?;
        self.buf.truncate(kept + n);
        self.eof = n == 0;
        Ok(())
    }
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
///
/// The active segment is pre-sized (module docs); dropping a `WalFile`
/// trims it to its records and syncs it, ignoring errors — a crash leaves
/// the zero tail, which recovery trims.
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

/// Creates the segment whose first record will be `first_seq`, empty and
/// pre-sized to `len` bytes.
fn open_segment(dir: &Path, first_seq: u64, len: u64) -> io::Result<File> {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.join(segment_file_name(first_seq)))?;
    file.set_len(len)?;
    fsync_dir(dir)?;
    Ok(file)
}

impl WalFile {
    /// Starts a fresh active segment whose first record will be `next_seq`,
    /// pre-sized to `segment_bytes`.
    ///
    /// An existing file of the same name is truncated first: recovery has
    /// already established that no durable record at or past `next_seq`
    /// exists, and no stale byte survives under the new zero tail.
    pub fn create(dir: &Path, next_seq: u64, segment_bytes: u64) -> io::Result<WalFile> {
        let segment_bytes = segment_bytes.max(1);
        Ok(WalFile {
            dir: dir.to_path_buf(),
            file: open_segment(dir, next_seq, segment_bytes)?,
            seg_first_seq: next_seq,
            seg_written: 0,
            next_seq,
            segment_bytes,
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

    /// Seals the active segment and starts a new one at the next sequence
    /// number.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.restart(self.next_seq)
    }

    /// Seals the active segment and starts a new one whose first record
    /// will be `next_seq` (a rotation, or a log reset to a shipped snapshot
    /// once the caller removed the old segments).
    pub fn restart(&mut self, next_seq: u64) -> io::Result<()> {
        self.seal()?;
        self.file = open_segment(&self.dir, next_seq, self.segment_bytes)?;
        self.seg_first_seq = next_seq;
        self.seg_written = 0;
        self.next_seq = next_seq;
        Ok(())
    }

    /// Trims the active segment to its records and syncs it, so the size
    /// is durable before any later segment exists.
    fn seal(&self) -> io::Result<()> {
        self.file.set_len(self.seg_written)?;
        self.file.sync_all()
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

impl Drop for WalFile {
    fn drop(&mut self) {
        let _ = self.seal();
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

    fn file_len(path: &Path) -> u64 {
        fs::metadata(path).unwrap().len()
    }

    /// On-disk bytes of `n` DEL records.
    fn dels(n: u64) -> u64 {
        n * (record::RECORD_HEADER_BYTES + record::DEL_PAYLOAD_BYTES) as u64
    }

    #[test]
    fn a_segment_recreated_over_a_stale_file_reads_as_empty() {
        let tmp = TempDir::new("wal-stale");
        let mut old = Wal::create(tmp.path(), 1, 4096).unwrap();
        for key in 0..3 {
            old.append(&del(key)).unwrap();
        }
        old.sync().unwrap();
        drop(old);

        // Recovery found nothing durable at seq 1 on, so the segment is
        // created again under the same name.
        let _wal = Wal::create(tmp.path(), 1, 4096).unwrap();
        let path = tmp.path().join(segment_file_name(1));
        let scan = scan_segment(&path).unwrap();
        assert!(
            scan.records.is_empty(),
            "no stale record under the zero tail"
        );
        assert_eq!(
            (scan.valid_len, scan.file_len, scan.damage),
            (0, 4096, None)
        );
        assert_eq!(
            crate::reader::read_log_from(tmp.path(), 1, usize::MAX).unwrap(),
            crate::reader::ReadOutcome::UpToDate
        );
    }

    #[test]
    fn rotate_restart_and_drop_trim_a_segment_to_its_records() {
        let tmp = TempDir::new("wal-trim");
        let path = |seq| tmp.path().join(segment_file_name(seq));
        let mut buffer = WalBuffer::new(1);
        let mut file = WalFile::create(tmp.path(), 1, 4096).unwrap();
        assert_eq!(file_len(&path(1)), 4096, "the active segment is pre-sized");
        buffer.append(&del(1));
        buffer.append(&del(2));
        file.write(&buffer.take()).unwrap();
        file.sync().unwrap();
        assert_eq!(file_len(&path(1)), 4096, "a commit does not grow the file");

        file.rotate().unwrap();
        assert_eq!(file_len(&path(1)), dels(2));
        assert_eq!(file_len(&path(3)), 4096);

        buffer.append(&del(3));
        file.write(&buffer.take()).unwrap();
        file.restart(10).unwrap();
        assert_eq!(file_len(&path(3)), dels(1));

        let mut buffer = WalBuffer::new(10);
        for key in 0..4 {
            buffer.append(&del(key));
        }
        file.write(&buffer.take()).unwrap();
        drop(file);
        assert_eq!(file_len(&path(10)), dels(4));
        for (seq, records) in [(1, 2), (3, 1), (10, 4)] {
            let scan = scan_segment(&path(seq)).unwrap();
            assert_eq!((scan.records.len(), scan.damage), (records, None));
        }
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
