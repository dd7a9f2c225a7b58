//! Test-only scratch directories (no tempfile crate in the offline build)
//! and reference encoders for files written by earlier builds.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use p4lru_kvstore::Record;

use crate::crc::crc32_bytewise;
use crate::record::WalOp;

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A unique directory under the system temp dir, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<tmp>/p4lru-durable-<label>-<pid>-<n>`.
    pub fn new(label: &str) -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("p4lru-durable-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A snapshot file around entries already encoded: the header fields as
/// given, so a test can make them disagree with the entries, and the
/// reference byte-at-a-time CRC.
pub fn sealed_snapshot(version: u32, seq: u64, count: u64, entries: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&version.to_le_bytes());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&count.to_le_bytes());
    body.extend_from_slice(entries);
    let mut file = b"P4LRSNAP".to_vec();
    file.extend_from_slice(&body);
    file.extend_from_slice(&crc32_bytewise(&body).to_le_bytes());
    file
}

/// A version 1 snapshot file, as earlier builds encoded it: each key and
/// its whole record. `count` is written as given.
pub fn reference_snapshot(seq: u64, count: u64, entries: &[(u64, Record)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (key, record) in entries {
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(record);
    }
    sealed_snapshot(1, seq, count, &bytes)
}

/// Version 2 entries, encoded a byte at a time: each key, a mask with bit
/// `i` set when any byte of the record's word `i` is not zero, and those
/// words.
pub fn reference_entries_v2(entries: &[(u64, Record)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (key, record) in entries {
        bytes.extend_from_slice(&key.to_le_bytes());
        let mut mask = 0u8;
        let mut words = Vec::new();
        for (i, word) in record.chunks(8).enumerate() {
            if word.iter().any(|&b| b != 0) {
                mask |= 1 << i;
                words.extend_from_slice(word);
            }
        }
        bytes.push(mask);
        bytes.extend_from_slice(&words);
    }
    bytes
}

/// A version 2 snapshot file from the reference encoder. `count` is
/// written as given.
pub fn reference_snapshot_v2(seq: u64, count: u64, entries: &[(u64, Record)]) -> Vec<u8> {
    sealed_snapshot(2, seq, count, &reference_entries_v2(entries))
}

/// WAL records `(seq, op)` as earlier builds encoded them, checksummed by
/// the reference byte-at-a-time CRC.
pub fn reference_wal(records: &[(u64, WalOp)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (seq, op) in records {
        let mut payload = seq.to_le_bytes().to_vec();
        match op {
            WalOp::Set { key, record } => {
                payload.push(0x01);
                payload.extend_from_slice(&key.to_le_bytes());
                payload.extend_from_slice(record);
            }
            WalOp::Del { key } => {
                payload.push(0x02);
                payload.extend_from_slice(&key.to_le_bytes());
            }
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32_bytewise(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}
