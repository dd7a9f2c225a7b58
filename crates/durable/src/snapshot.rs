//! Point-in-time snapshots of a shard's backing store.
//!
//! A snapshot file `snap-<seq:020>.snap` holds every record of the store as
//! of WAL sequence number `seq` (all ops `<= seq` applied, none after):
//!
//! ```text
//! [8  magic "P4LRSNAP"]
//! [u32 version]             // 2; version 1 files are still read
//! [u64 seq]
//! [u64 count]
//! count × entry
//! [u32 crc]                 // over everything after the magic
//! ```
//!
//! A version 2 entry is `[u64 key][u8 mask][the record's non-zero 8-byte
//! words, in order]`: bit `i` of the mask is set when bytes `8i..8i+8` of
//! the record are not all zero. That is the form the record heap stores
//! (`p4lru_kvstore::sparse`), so the writer copies the heap's words and
//! the reader pushes them back without a 64-byte record in between. A
//! served value is padded to `VALUE_SIZE` with zeros, so most of a record
//! is elided (a preloaded record's entry is 25 bytes, not 72). A version 1
//! entry is `[u64 key][VALUE_SIZE record bytes]`.
//!
//! Writes are crash-atomic: the body goes to `snap-<seq>.tmp`, is fsynced,
//! and is renamed into place, then the directory is fsynced. Readers ignore
//! `.tmp` leftovers and validate the CRC and every entry before building
//! anything, so a crash at any point leaves either the old snapshot or the
//! new one, never a half-written hybrid.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use p4lru_kvstore::sparse::{encoded_len, MAX_ENCODED_BYTES, WORDS};
use p4lru_kvstore::{Database, DatabaseBuilder, Sparse, VALUE_SIZE};

use crate::crc::{crc32, Crc32};

const MAGIC: &[u8; 8] = b"P4LRSNAP";
/// The version this build writes.
const VERSION: u32 = 2;
/// Whole records after each key; still read.
const VERSION_1: u32 = 1;
const PREFIX: &str = "snap-";
const SUFFIX: &str = ".snap";
/// `version`, `seq` and `count`: the body's fields before its records.
const FIELDS_BYTES: usize = 4 + 8 + 8;
/// A version 1 entry: the key and the whole record.
const V1_ENTRY_BYTES: usize = 8 + VALUE_SIZE;
/// The longest version 2 entry: key, mask, and every word.
const MAX_ENTRY_BYTES: usize = 8 + MAX_ENCODED_BYTES;
/// The writer's buffer: each full buffer is checksummed and written in
/// one piece.
const WRITE_BUFFER_BYTES: usize = 1 << 20;

/// The file name of the snapshot sealed at `seq`.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("{PREFIX}{seq:020}{SUFFIX}")
}

fn err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The checksummed part of a snapshot on its way to the file: bytes gather
/// in one buffer, and each full buffer is folded into the CRC and written
/// with one call.
struct BodyWriter {
    file: File,
    buf: Vec<u8>,
    crc: Crc32,
}

impl BodyWriter {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.buf.len() + bytes.len() > self.buf.capacity() {
            self.drain()?;
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Writes one version 2 entry: the key, then the record as the heap
    /// stores it.
    fn entry(&mut self, key: u64, record: Sparse<'_>) -> io::Result<()> {
        let mut entry = [0u8; MAX_ENTRY_BYTES];
        entry[..8].copy_from_slice(&key.to_le_bytes());
        let len = 8 + record.write_le(&mut entry[8..]);
        self.put(&entry[..len])
    }

    fn drain(&mut self) -> io::Result<()> {
        self.crc.update(&self.buf);
        self.file.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// Writes the snapshot of `db` sealed at WAL sequence `seq`, atomically.
///
/// Returns the final snapshot path. Older snapshot files are pruned after
/// the new one is durable (best effort — a leftover old snapshot is ignored
/// at load time because the newest valid one wins).
pub fn write_snapshot(dir: &Path, seq: u64, db: &Database) -> io::Result<PathBuf> {
    let tmp = dir.join(format!("{PREFIX}{seq:020}.tmp"));
    let path = dir.join(snapshot_file_name(seq));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(MAGIC)?; // magic is outside the CRC
        let mut w = BodyWriter {
            file,
            buf: Vec::with_capacity(WRITE_BUFFER_BYTES),
            crc: Crc32::new(),
        };
        w.put(&VERSION.to_le_bytes())?;
        w.put(&seq.to_le_bytes())?;
        w.put(&(db.len() as u64).to_le_bytes())?;
        for (key, record) in db.iter_sparse() {
            w.entry(key, record)?;
        }
        w.drain()?;
        let crc = w.crc.finish();
        w.file.write_all(&crc.to_le_bytes())?;
        w.file.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    crate::wal::fsync_dir(dir)?;
    prune_older_snapshots(dir, seq)?;
    Ok(path)
}

fn prune_older_snapshots(dir: &Path, newest_seq: u64) -> io::Result<()> {
    for (seq, path) in list_snapshots(dir)? {
        if seq < newest_seq {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// Lists `(seq, path)` of every snapshot file, sorted ascending by `seq`.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(PREFIX)
            .and_then(|s| s.strip_suffix(SUFFIX))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|&(seq, _)| seq);
    Ok(found)
}

/// A loaded snapshot: the sealed sequence number and the store it holds.
#[derive(Clone, Debug)]
pub struct LoadedSnapshot {
    /// WAL sequence number the snapshot covers.
    pub seq: u64,
    /// The store, bulk-built from the snapshot's records.
    pub db: Database,
    /// Snapshot files that failed validation and were skipped.
    pub invalid_skipped: u64,
}

/// Loads the newest snapshot that validates, falling back to older ones.
///
/// With no (valid) snapshot at all, returns `seq: 0` and an empty store —
/// the state before any WAL record.
pub fn load_latest(dir: &Path) -> io::Result<LoadedSnapshot> {
    let mut invalid_skipped = 0;
    for (seq, path) in list_snapshots(dir)?.into_iter().rev() {
        let bytes = fs::read(&path)?;
        let Ok(snapshot) = Validated::parse(&bytes) else {
            invalid_skipped += 1;
            continue;
        };
        if snapshot.seq != seq {
            return Err(err(format!(
                "snapshot {} declares seq {} but is named for {seq}",
                path.display(),
                snapshot.seq
            )));
        }
        return Ok(LoadedSnapshot {
            seq,
            db: snapshot.build(),
            invalid_skipped,
        });
    }
    Ok(LoadedSnapshot {
        seq: 0,
        db: Database::default(),
        invalid_skipped,
    })
}

/// Installs a snapshot *shipped from another node* (replication catch-up):
/// validates `bytes` where they lie, writes them crash-atomically (tmp,
/// fsync, rename, dir fsync), and returns the store built from the same
/// validated records, so the caller never re-reads the file.
///
/// The bytes are validated **before** anything is written — magic,
/// version, CRC, entry count, and that the sealed seq matches the `seq`
/// they were shipped as — so a corrupt or mislabeled shipment never
/// becomes a loadable snapshot file and the existing state is untouched.
pub fn install_snapshot_bytes(dir: &Path, seq: u64, bytes: &[u8]) -> io::Result<Database> {
    let snapshot = Validated::parse(bytes)?;
    if snapshot.seq != seq {
        return Err(err(format!(
            "shipped snapshot declares seq {} but was sent as {seq}",
            snapshot.seq
        )));
    }
    let tmp = dir.join(format!("{PREFIX}{seq:020}.tmp"));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, dir.join(snapshot_file_name(seq)))?;
    crate::wal::fsync_dir(dir)?;
    prune_older_snapshots(dir, seq)?;
    Ok(snapshot.build())
}

/// A snapshot file's bytes after validation: the sealed seq and the
/// encoded entries, still in the buffer they were read or shipped in.
struct Validated<'a> {
    seq: u64,
    version: u32,
    /// Entries walked, which the declared count matched.
    count: usize,
    entries: &'a [u8],
}

impl<'a> Validated<'a> {
    /// Checks magic, CRC and version, then walks every entry: none may be
    /// torn or run past the body, the walk must end exactly at the body's
    /// end, and the declared count must be the number walked. Nothing is
    /// sized from the count.
    fn parse(bytes: &'a [u8]) -> io::Result<Self> {
        if bytes.len() < MAGIC.len() + FIELDS_BYTES + 4 {
            return Err(err("snapshot file is too short"));
        }
        let Some(rest) = bytes.strip_prefix(MAGIC) else {
            return Err(err("snapshot magic mismatch"));
        };
        let (body, crc) = rest.split_at(rest.len() - 4);
        if crc32(body) != u32::from_le_bytes(crc.try_into().expect("4 bytes")) {
            return Err(err("snapshot CRC mismatch"));
        }
        let (fields, entries) = body.split_at(FIELDS_BYTES);
        let version = u32::from_le_bytes(fields[0..4].try_into().expect("4 bytes"));
        if version != VERSION && version != VERSION_1 {
            return Err(err(format!("unsupported snapshot version {version}")));
        }
        let seq = u64::from_le_bytes(fields[4..12].try_into().expect("8 bytes"));
        let count = u64::from_le_bytes(fields[12..20].try_into().expect("8 bytes"));
        let (mut at, mut walked) = (0, 0u64);
        while at < entries.len() && walked < count {
            let len = entry_len(version, &entries[at..]);
            if at + len > entries.len() {
                return Err(err(format!("snapshot entry {walked} is torn")));
            }
            at += len;
            walked += 1;
        }
        if walked != count {
            return Err(err(format!(
                "snapshot declares {count} entries but holds {walked}"
            )));
        }
        if at != entries.len() {
            return Err(err(format!(
                "snapshot has {} bytes after its last entry",
                entries.len() - at
            )));
        }
        Ok(Self {
            seq,
            version,
            count: walked as usize,
            entries,
        })
    }

    /// Streams the records into a bulk build of the store.
    fn build(&self) -> Database {
        let mut builder = DatabaseBuilder::with_capacity(self.count);
        let mut rest = self.entries;
        while !rest.is_empty() {
            let (entry, tail) = rest.split_at(entry_len(self.version, rest));
            let (key, record) = entry.split_at(8);
            let key = u64::from_le_bytes(key.try_into().expect("8 bytes"));
            if self.version == VERSION_1 {
                builder.push(key, record.try_into().expect("a whole record"));
            } else {
                let mut words = [0; WORDS];
                builder.push_sparse(key, Sparse::read_le(record, &mut words));
            }
            rest = tail;
        }
        builder.finish()
    }
}

/// The length of the entry `rest` starts with, as its header declares: at
/// least the bytes that hold the header, so a short `rest` reads as torn.
fn entry_len(version: u32, rest: &[u8]) -> usize {
    match (version, rest.get(8)) {
        (VERSION_1, _) => V1_ENTRY_BYTES,
        (_, Some(&mask)) => 8 + encoded_len(mask),
        (_, None) => 9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        reference_entries_v2, reference_snapshot, reference_snapshot_v2, sealed_snapshot, TempDir,
    };
    use p4lru_kvstore::db::record_for;
    use p4lru_kvstore::Record;

    fn sample_db(items: u64) -> Database {
        let mut db = Database::default();
        for k in 0..items {
            db.insert(k * 7, record_for(k));
        }
        db
    }

    #[test]
    fn write_then_load_roundtrips() {
        let tmp = TempDir::new("snap-roundtrip");
        let db = sample_db(100);
        write_snapshot(tmp.path(), 42, &db).unwrap();
        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!(loaded.seq, 42);
        assert_eq!(loaded.invalid_skipped, 0);
        assert_eq!(loaded.db.len(), 100);
        for (key, record) in loaded.db.iter() {
            assert_eq!(db.lookup_by_key(key).unwrap().record, record);
        }
    }

    #[test]
    fn empty_dir_loads_the_zero_state() {
        let tmp = TempDir::new("snap-empty");
        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!(loaded.seq, 0);
        assert!(loaded.db.is_empty());
    }

    #[test]
    fn newest_wins_and_older_snapshots_are_pruned() {
        let tmp = TempDir::new("snap-newest");
        write_snapshot(tmp.path(), 10, &sample_db(5)).unwrap();
        write_snapshot(tmp.path(), 20, &sample_db(9)).unwrap();
        assert_eq!(list_snapshots(tmp.path()).unwrap().len(), 1, "older pruned");
        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!(loaded.seq, 20);
        assert_eq!(loaded.db.len(), 9);
    }

    #[test]
    fn corrupt_newest_falls_back_to_an_older_valid_snapshot() {
        let tmp = TempDir::new("snap-fallback");
        write_snapshot(tmp.path(), 10, &sample_db(5)).unwrap();
        // Forge a newer snapshot (pruning removed the older one, so re-write
        // it first, then damage the newer file).
        let newer = write_snapshot(tmp.path(), 20, &sample_db(9)).unwrap();
        write_snapshot(tmp.path(), 10, &sample_db(5)).unwrap();
        let mut bytes = fs::read(&newer).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newer, bytes).unwrap();

        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!(loaded.seq, 10);
        assert_eq!(loaded.db.len(), 5);
        assert_eq!(loaded.invalid_skipped, 1);
    }

    #[test]
    fn tmp_leftovers_are_ignored() {
        let tmp = TempDir::new("snap-tmp");
        write_snapshot(tmp.path(), 5, &sample_db(3)).unwrap();
        fs::write(tmp.path().join("snap-99999.tmp"), b"half-written").unwrap();
        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!(loaded.seq, 5);
    }

    #[test]
    fn empty_database_snapshots_cleanly() {
        let tmp = TempDir::new("snap-zero");
        write_snapshot(tmp.path(), 1, &Database::default()).unwrap();
        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!(loaded.seq, 1);
        assert!(loaded.db.is_empty());
    }

    fn entries_of(db: &Database) -> Vec<(u64, Record)> {
        db.iter().map(|(k, r)| (k, *r)).collect()
    }

    /// `count = honest + 2^61`: `count * 72` wraps to the honest byte
    /// length, so an unchecked size test passes and the count is a lie.
    fn wrapping_count_snapshot(seq: u64) -> Vec<u8> {
        let entries = entries_of(&sample_db(9));
        reference_snapshot(seq, entries.len() as u64 + (1 << 61), &entries)
    }

    #[test]
    fn files_from_the_reference_encoder_load_unchanged() {
        let tmp = TempDir::new("snap-reference");
        // Sparse records, full ones, all-zero ones, and every mask bit alone.
        let mut db = sample_db(300);
        db.insert(1 << 40, [0u8; VALUE_SIZE]);
        db.insert(1 << 41, [0xA5u8; VALUE_SIZE]);
        for i in 0..VALUE_SIZE {
            let mut record = [0u8; VALUE_SIZE];
            record[i] = 1;
            db.insert((1 << 42) + i as u64, record);
        }
        let written = write_snapshot(tmp.path(), 7, &db).unwrap();
        let entries = entries_of(&db);
        let reference = reference_snapshot_v2(7, entries.len() as u64, &entries);
        assert_eq!(
            fs::read(written).unwrap(),
            reference,
            "byte-identical format"
        );
        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!(entries_of(&loaded.db), entries);
        // A version 1 file, as older data dirs hold, still loads.
        fs::write(
            tmp.path().join(snapshot_file_name(8)),
            reference_snapshot(8, entries.len() as u64, &entries),
        )
        .unwrap();
        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!(loaded.seq, 8);
        assert_eq!(entries_of(&loaded.db), entries);
    }

    /// Version 2 files whose CRC holds but whose body lies, each with what
    /// its refusal names. `record_for(k)` keeps two words for `k > 0`, so
    /// every entry is 25 bytes.
    fn hostile_v2_snapshots(seq: u64) -> Vec<(&'static str, Vec<u8>, &'static str)> {
        let entries: Vec<_> = (1..=9).map(|k| (k, record_for(k))).collect();
        let honest = reference_entries_v2(&entries);
        assert_eq!(honest.len(), 9 * 25);
        let count = entries.len() as u64;
        let mut overrun = honest.clone();
        overrun[8 * 25 + 8] = 0xFF; // the last entry claims all eight words
        let mut trailing = honest.clone();
        trailing.extend_from_slice(&[0; 3]);
        let seal = |version, count, body: &[u8]| sealed_snapshot(version, seq, count, body);
        vec![
            (
                "torn entry",
                seal(2, count, &honest[..honest.len() - 3]),
                "is torn",
            ),
            ("mask overrun", seal(2, count, &overrun), "is torn"),
            ("count too high", seal(2, count + 1, &honest), "holds 9"),
            (
                "count too low",
                seal(2, count - 1, &honest),
                "after its last entry",
            ),
            (
                "wrapping count",
                seal(2, count + (1 << 61), &honest),
                "holds 9",
            ),
            ("largest count", seal(2, u64::MAX, &honest), "holds 9"),
            ("trailing bytes", seal(2, count, &trailing), "3 bytes after"),
            (
                "version 3",
                seal(3, count, &honest),
                "unsupported snapshot version 3",
            ),
        ]
    }

    #[test]
    fn a_hostile_v2_snapshot_is_skipped_and_refused_with_nothing_written() {
        let tmp = TempDir::new("snap-hostile");
        write_snapshot(tmp.path(), 10, &sample_db(5)).unwrap();
        let before = list_snapshots(tmp.path()).unwrap();
        for (case, bytes, reason) in hostile_v2_snapshots(20) {
            let e = install_snapshot_bytes(tmp.path(), 20, &bytes).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{case}: {e}");
            assert!(e.to_string().contains(reason), "{case}: {e}");
            assert_eq!(list_snapshots(tmp.path()).unwrap(), before, "{case}");
            assert_eq!(fs::read_dir(tmp.path()).unwrap().count(), 1, "{case}");

            let path = tmp.path().join(snapshot_file_name(20));
            fs::write(&path, &bytes).unwrap();
            let loaded = load_latest(tmp.path()).unwrap();
            assert_eq!((loaded.seq, loaded.db.len()), (10, 5), "{case}");
            assert_eq!(loaded.invalid_skipped, 1, "{case}");
            fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn a_count_that_wraps_the_size_check_is_skipped_as_invalid() {
        let tmp = TempDir::new("snap-wrapcount");
        write_snapshot(tmp.path(), 10, &sample_db(5)).unwrap();
        fs::write(
            tmp.path().join(snapshot_file_name(20)),
            wrapping_count_snapshot(20),
        )
        .unwrap();
        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!(loaded.seq, 10);
        assert_eq!(loaded.invalid_skipped, 1);
        assert_eq!(loaded.db.len(), 5);
    }

    #[test]
    fn a_bad_shipment_is_refused_and_leaves_the_old_state() {
        let tmp = TempDir::new("snap-badship");
        write_snapshot(tmp.path(), 10, &sample_db(5)).unwrap();
        let before = list_snapshots(tmp.path()).unwrap();
        let good = fs::read(&before[0].1).unwrap();
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        for (seq, bytes) in [
            (30, wrapping_count_snapshot(30)),
            (30, flipped),
            (30, good.clone()), // mislabeled: sealed at 10, sent as 30
            (30, good[..good.len() - 1].to_vec()),
            (30, Vec::new()),
        ] {
            let e = install_snapshot_bytes(tmp.path(), seq, &bytes).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert_eq!(list_snapshots(tmp.path()).unwrap(), before);
            let names: Vec<_> = fs::read_dir(tmp.path())
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(names.len(), 1, "nothing written: {names:?}");
        }
        let loaded = load_latest(tmp.path()).unwrap();
        assert_eq!((loaded.seq, loaded.db.len()), (10, 5));
        // The honest shipment still installs.
        let db = install_snapshot_bytes(tmp.path(), 10, &good).unwrap();
        assert_eq!(entries_of(&db), entries_of(&sample_db(5)));
    }
}
