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

/// A snapshot file as earlier builds encoded it, checksummed by the
/// reference byte-at-a-time CRC. `count` is written as given, so a test
/// can make the header disagree with the records it carries.
pub fn reference_snapshot(seq: u64, count: u64, entries: &[(u64, Record)]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&count.to_le_bytes());
    for (key, record) in entries {
        body.extend_from_slice(&key.to_le_bytes());
        body.extend_from_slice(record);
    }
    let mut file = b"P4LRSNAP".to_vec();
    file.extend_from_slice(&body);
    file.extend_from_slice(&crc32_bytewise(&body).to_le_bytes());
    file
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
