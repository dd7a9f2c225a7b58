//! The per-shard durability engine: WAL + snapshots + recovery, behind the
//! handful of calls a shard's request loop needs.
//!
//! The intended discipline (enforced by `p4lru-server`'s commit gate):
//!
//! 1. For each mutation: [`ShardLog::append_set`] / [`ShardLog::append_del`]
//!    *before* applying it in memory. An append only encodes the record
//!    into the in-memory [`WalBuffer`]; it never touches the disk.
//! 2. Then commit: [`ShardLog::begin_commit`] cuts everything appended so
//!    far into a [`LogCommit`], and [`LogCommit::run`] writes it and applies
//!    the sync policy — under [`SyncPolicy::Always`] one fsync covers the
//!    whole cut (group commit). The cut needs `&mut ShardLog`, the run does
//!    not, so a server cuts under its shard lock and runs on its commit
//!    thread while appends go on. Replies are released only after the run
//!    returns, so under `Always` every acknowledged write is durable.
//!    [`ShardLog::commit`] is the two steps back to back.
//! 3. When [`ShardLog::should_snapshot`] turns true, call
//!    [`ShardLog::snapshot`] with the store; the log rotates, seals a
//!    snapshot, and prunes segments the snapshot made redundant.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use p4lru_kvstore::{Database, Record};

use crate::record::WalOp;
use crate::recover::{recover, Recovery};
use crate::snapshot::write_snapshot;
use crate::wal::{WalBuffer, WalChunk, WalFile};
use crate::{DurabilityConfig, SyncPolicy};

/// One shard's durability engine.
#[derive(Debug)]
pub struct ShardLog {
    dir: PathBuf,
    buffer: WalBuffer,
    sink: Arc<Mutex<LogSink>>,
    snapshot_every: u64,
    appends_since_snapshot: u64,
    // Span hook for the server's request tracer: when the last append
    // happened. `None` until the first one.
    last_append_at: Option<Instant>,
}

/// The file half of a shard's log and the sync policy's state. Cuts are
/// run against it one at a time, in the order they were cut.
#[derive(Debug)]
struct LogSink {
    file: WalFile,
    sync: SyncPolicy,
    commit_latency: Duration,
    /// Records written to the file since its last fsync.
    unsynced: u64,
    last_sync: Instant,
}

impl LogSink {
    fn new(file: WalFile, config: &DurabilityConfig) -> Arc<Mutex<LogSink>> {
        Arc::new(Mutex::new(LogSink {
            file,
            sync: config.sync,
            commit_latency: config.commit_latency,
            unsynced: 0,
            last_sync: Instant::now(),
        }))
    }

    /// Writes `chunk` and applies the sync policy. Returns the fsync
    /// duration if one happened, `None` if the policy deferred it.
    fn commit(&mut self, chunk: &WalChunk) -> io::Result<Option<Duration>> {
        self.file.write(chunk)?;
        self.unsynced += chunk.records();
        if self.unsynced == 0 {
            return Ok(None);
        }
        let due = match self.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            SyncPolicy::Interval(window) => self.last_sync.elapsed() >= window,
        };
        if !due {
            return Ok(None);
        }
        self.sync().map(Some)
    }

    /// Unconditionally fsyncs everything written so far. With a modeled
    /// [`DurabilityConfig::commit_latency`], the sleep lands here — after
    /// the real fsync, inside the reported duration — so group commit,
    /// metrics, and ack timing all see the modeled device.
    fn sync(&mut self) -> io::Result<Duration> {
        let mut took = self.file.sync()?;
        if !self.commit_latency.is_zero() {
            std::thread::sleep(self.commit_latency);
            took += self.commit_latency;
        }
        self.unsynced = 0;
        self.last_sync = Instant::now();
        Ok(took)
    }
}

fn lock(sink: &Mutex<LogSink>) -> MutexGuard<'_, LogSink> {
    sink.lock().expect("WAL sink poisoned by a panicked commit")
}

/// Every record a [`ShardLog`] had appended when [`ShardLog::begin_commit`]
/// cut them, on its way to the disk. Running it needs no access to the log
/// it was cut from.
#[derive(Debug)]
#[must_use = "a cut commit reaches the disk only when run"]
pub struct LogCommit {
    chunk: WalChunk,
    sink: Arc<Mutex<LogSink>>,
}

impl LogCommit {
    /// Sequence number of the last record the commit covers.
    pub fn last_seq(&self) -> u64 {
        self.chunk.last_seq()
    }

    /// Writes the cut records and applies the sync policy. Returns the
    /// fsync duration if one happened, `None` if the policy deferred it.
    /// Run cuts in the order they were made: one cut before its predecessor
    /// is refused.
    pub fn run(self) -> io::Result<Option<Duration>> {
        lock(&self.sink).commit(&self.chunk)
    }
}

impl ShardLog {
    fn open(dir: &Path, file: WalFile, next_seq: u64, config: &DurabilityConfig) -> Self {
        Self {
            dir: dir.to_path_buf(),
            buffer: WalBuffer::new(next_seq),
            sink: LogSink::new(file, config),
            snapshot_every: config.snapshot_every,
            appends_since_snapshot: 0,
            last_append_at: None,
        }
    }

    /// Initializes a *fresh* shard directory: seals a snapshot of `db` at
    /// sequence 0 (so the initial population survives a crash that happens
    /// before the first WAL-driven snapshot) and opens the WAL at sequence
    /// 1.
    pub fn init_fresh(dir: &Path, db: &Database, config: &DurabilityConfig) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        write_snapshot(dir, 0, db)?;
        let file = WalFile::create(dir, 1, config.segment_bytes)?;
        Ok(Self::open(dir, file, 1, config))
    }

    /// Recovers an existing shard directory and positions the WAL to append
    /// after the last durable record. Returns the engine plus what recovery
    /// found (the caller owns rebuilding its in-memory state from it).
    pub fn recover(dir: &Path, config: &DurabilityConfig) -> io::Result<(Self, Recovery)> {
        let recovery = recover(dir)?;
        // Always start a new segment: old segments are never appended to, so
        // a sealed segment is immutable from here on.
        let next_seq = recovery.last_seq + 1;
        let file = WalFile::create(dir, next_seq, config.segment_bytes)?;
        Ok((Self::open(dir, file, next_seq, config), recovery))
    }

    /// The shard directory this log writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the last appended record.
    pub fn last_seq(&self) -> u64 {
        self.buffer.last_seq()
    }

    /// Whether records were appended since the last cut.
    pub fn has_buffered(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Appends a SET, returning its sequence number (not yet durable).
    pub fn append_set(&mut self, key: u64, record: Record) -> io::Result<u64> {
        Ok(self.append(&WalOp::Set { key, record }))
    }

    /// Appends a DEL, returning its sequence number (not yet durable).
    pub fn append_del(&mut self, key: u64) -> io::Result<u64> {
        Ok(self.append(&WalOp::Del { key }))
    }

    /// Appends a record *shipped from a primary* (replication). The shipped
    /// sequence number must exactly continue this log — a stale replay or a
    /// gap is rejected before anything is written, so a bad shipment cannot
    /// damage the follower's log.
    pub fn append_replicated(&mut self, seq: u64, op: &WalOp) -> io::Result<u64> {
        let expected = self.buffer.next_seq();
        if seq != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "replicated record seq {seq} does not continue the log (expected {expected})"
                ),
            ));
        }
        Ok(self.append(op))
    }

    /// Replaces this shard's entire durable state with a snapshot *shipped
    /// from a primary* (catch-up for a follower too far behind to tail the
    /// log). Validates and installs the snapshot atomically, deletes every
    /// WAL segment, and reopens the log at `seq + 1`. Returns the store
    /// built from the snapshot, for the caller to swap in.
    ///
    /// On a validation failure nothing changes: the old snapshot, segments,
    /// and WAL position all survive.
    pub fn reset_to_snapshot(&mut self, seq: u64, bytes: &[u8]) -> io::Result<Database> {
        let db = crate::snapshot::install_snapshot_bytes(&self.dir, seq, bytes)?;
        let mut sink = lock(&self.sink);
        for segment in crate::wal::list_segments(&self.dir)? {
            std::fs::remove_file(&segment.path)?;
        }
        crate::wal::fsync_dir(&self.dir)?;
        sink.file.restart(seq + 1)?;
        sink.unsynced = 0;
        self.buffer = WalBuffer::new(seq + 1);
        self.appends_since_snapshot = 0;
        Ok(db)
    }

    fn append(&mut self, op: &WalOp) -> u64 {
        let seq = self.buffer.append(op);
        self.appends_since_snapshot += 1;
        self.last_append_at = Some(Instant::now());
        seq
    }

    /// Cuts every record appended so far into a commit that can run without
    /// this log (step 2 of the module docs).
    pub fn begin_commit(&mut self) -> LogCommit {
        LogCommit {
            chunk: self.buffer.take(),
            sink: Arc::clone(&self.sink),
        }
    }

    /// Cuts and runs a commit: writes what was appended and applies the sync
    /// policy. Returns the fsync duration if one happened, `None` if the
    /// policy deferred it.
    pub fn commit(&mut self) -> io::Result<Option<Duration>> {
        self.begin_commit().run()
    }

    /// Unconditionally writes and fsyncs everything appended so far. With a
    /// modeled [`DurabilityConfig::commit_latency`], the reported duration
    /// includes it.
    pub fn sync(&mut self) -> io::Result<Duration> {
        let chunk = self.buffer.take();
        let mut sink = lock(&self.sink);
        sink.file.write(&chunk)?;
        sink.sync()
    }

    /// When the last WAL record was appended (buffered, not yet durable),
    /// or `None` before the first append. A span hook for the server's
    /// request tracer — it stamps the `wal_append` lifecycle stage from
    /// this instant rather than re-reading the clock on the request path.
    pub fn last_append_at(&self) -> Option<Instant> {
        self.last_append_at
    }

    /// Whether enough appends have accumulated to be worth a snapshot.
    pub fn should_snapshot(&self) -> bool {
        self.snapshot_every > 0 && self.appends_since_snapshot >= self.snapshot_every
    }

    /// Seals a snapshot of `db` at the current tail of the log and prunes
    /// the WAL segments it supersedes. Returns the sealed sequence number.
    ///
    /// Ordering is crash-safe at every step: sync (all records `<= seq`
    /// durable), rotate (the active segment now starts past `seq`), write
    /// the snapshot atomically, and only then delete old segments. A crash
    /// between any two steps recovers from the previous snapshot plus the
    /// still-present segments.
    pub fn snapshot(&mut self, db: &Database) -> io::Result<u64> {
        let chunk = self.buffer.take();
        let seq = chunk.last_seq();
        let mut sink = lock(&self.sink);
        sink.file.write(&chunk)?;
        sink.sync()?;
        sink.file.rotate()?;
        write_snapshot(&self.dir, seq, db)?;
        sink.file.prune_segments(seq + 1)?;
        self.appends_since_snapshot = 0;
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use crate::wal::list_segments;
    use p4lru_kvstore::db::record_for;

    fn populated(items: u64) -> Database {
        let mut db = Database::default();
        for k in 0..items {
            db.insert(k, record_for(k));
        }
        db
    }

    fn config(sync: SyncPolicy) -> DurabilityConfig {
        DurabilityConfig {
            sync,
            ..DurabilityConfig::default()
        }
    }

    #[test]
    fn fresh_init_then_recover_restores_the_population() {
        let tmp = TempDir::new("slog-fresh");
        let db = populated(100);
        let mut log = ShardLog::init_fresh(tmp.path(), &db, &config(SyncPolicy::Always)).unwrap();
        log.append_set(500, record_for(500)).unwrap();
        log.append_del(3).unwrap();
        log.commit().unwrap();
        drop(log); // crash: no snapshot since init

        let (_log, recovery) = ShardLog::recover(tmp.path(), &config(SyncPolicy::Always)).unwrap();
        assert_eq!(recovery.snapshot_seq, 0);
        assert_eq!(recovery.snapshot_entries, 100);
        assert_eq!(recovery.replayed, 2);
        assert_eq!(recovery.db.len(), 100); // +1 -1
        assert!(recovery.db.lookup_by_key(500).is_some());
        assert!(recovery.db.lookup_by_key(3).is_none());
    }

    #[test]
    fn always_policy_fsyncs_every_commit() {
        let tmp = TempDir::new("slog-always");
        let mut log = ShardLog::init_fresh(
            tmp.path(),
            &Database::default(),
            &config(SyncPolicy::Always),
        )
        .unwrap();
        log.append_set(1, record_for(1)).unwrap();
        assert!(log.commit().unwrap().is_some());
        assert!(log.commit().unwrap().is_none(), "nothing new to sync");
    }

    #[test]
    fn a_cut_commit_runs_while_the_next_batch_appends() {
        let tmp = TempDir::new("slog-overlap");
        let cfg = config(SyncPolicy::Always);
        let mut log = ShardLog::init_fresh(tmp.path(), &Database::default(), &cfg).unwrap();
        log.append_set(1, record_for(1)).unwrap();
        let first = log.begin_commit();
        assert!(!log.has_buffered(), "the cut took every appended record");
        // Batch n+1 accumulates while batch n is on its way to the disk.
        log.append_set(2, record_for(2)).unwrap();
        let second = log.begin_commit();
        let runner = std::thread::spawn(move || {
            let synced = first.run().unwrap().is_some();
            (synced, second.run().unwrap().is_some())
        });
        log.append_del(1).unwrap();
        assert!(log.has_buffered());
        assert_eq!(runner.join().unwrap(), (true, true));
        log.commit().unwrap();
        drop(log);

        let (_log, recovery) = ShardLog::recover(tmp.path(), &cfg).unwrap();
        assert_eq!(recovery.replayed, 3);
        assert!(recovery.db.lookup_by_key(1).is_none());
        assert!(recovery.db.lookup_by_key(2).is_some());
    }

    #[test]
    fn every_n_policy_defers_until_the_threshold() {
        let tmp = TempDir::new("slog-everyn");
        let mut log = ShardLog::init_fresh(
            tmp.path(),
            &Database::default(),
            &config(SyncPolicy::EveryN(3)),
        )
        .unwrap();
        log.append_set(1, record_for(1)).unwrap();
        assert!(log.commit().unwrap().is_none());
        log.append_set(2, record_for(2)).unwrap();
        assert!(log.commit().unwrap().is_none());
        log.append_set(3, record_for(3)).unwrap();
        assert!(log.commit().unwrap().is_some(), "third append crosses n=3");
    }

    #[test]
    fn interval_policy_fsyncs_once_the_window_elapses() {
        let tmp = TempDir::new("slog-interval");
        let mut log = ShardLog::init_fresh(
            tmp.path(),
            &Database::default(),
            &config(SyncPolicy::Interval(Duration::from_millis(20))),
        )
        .unwrap();
        log.append_set(1, record_for(1)).unwrap();
        assert!(log.commit().unwrap().is_none(), "window not elapsed");
        std::thread::sleep(Duration::from_millis(25));
        assert!(log.commit().unwrap().is_some());
    }

    #[test]
    fn snapshot_prunes_the_log_and_recovery_uses_it() {
        let tmp = TempDir::new("slog-snap");
        let mut db = populated(10);
        let mut log = ShardLog::init_fresh(tmp.path(), &db, &config(SyncPolicy::Always)).unwrap();
        for k in 10..40 {
            log.append_set(k, record_for(k)).unwrap();
            db.insert(k, record_for(k));
        }
        log.commit().unwrap();
        let sealed = log.snapshot(&db).unwrap();
        assert_eq!(sealed, 30);
        assert_eq!(
            list_segments(tmp.path()).unwrap().len(),
            1,
            "only the fresh active segment survives"
        );
        log.append_del(0).unwrap();
        log.commit().unwrap();
        drop(log);

        let (_log, recovery) = ShardLog::recover(tmp.path(), &config(SyncPolicy::Always)).unwrap();
        assert_eq!(recovery.snapshot_seq, 30);
        assert_eq!(recovery.replayed, 1, "only the post-snapshot DEL");
        assert_eq!(recovery.db.len(), 39);
    }

    #[test]
    fn append_hook_and_commit_report_track_the_fsync() {
        let tmp = TempDir::new("slog-spans");
        let mut log = ShardLog::init_fresh(
            tmp.path(),
            &Database::default(),
            &config(SyncPolicy::Always),
        )
        .unwrap();
        assert!(log.last_append_at().is_none(), "no appends yet");
        assert!(log.commit().unwrap().is_none(), "no physical fsync yet");

        let before = Instant::now();
        log.append_set(1, record_for(1)).unwrap();
        let appended = log.last_append_at().expect("append stamped");
        assert!(appended >= before);
        assert!(log.has_buffered(), "append alone is not durable");

        let started = Instant::now();
        let took = log.commit().unwrap().expect("commit under Always fsyncs");
        assert!(
            started.elapsed() >= took,
            "the reported fsync ran inside the commit, after the append"
        );

        log.append_set(2, record_for(2)).unwrap();
        assert!(
            log.last_append_at().unwrap() >= appended + took,
            "a later append moves the append stamp past the sync"
        );
    }

    #[test]
    fn deferred_commit_reports_no_fsync() {
        let tmp = TempDir::new("slog-spans-defer");
        let mut log = ShardLog::init_fresh(
            tmp.path(),
            &Database::default(),
            &config(SyncPolicy::EveryN(10)),
        )
        .unwrap();
        log.append_set(1, record_for(1)).unwrap();
        assert!(
            log.commit().unwrap().is_none(),
            "a deferred commit must not report an fsync"
        );
    }

    #[test]
    fn should_snapshot_tracks_the_configured_cadence() {
        let tmp = TempDir::new("slog-cadence");
        let mut cfg = config(SyncPolicy::Always);
        cfg.snapshot_every = 2;
        let db = populated(1);
        let mut log = ShardLog::init_fresh(tmp.path(), &db, &cfg).unwrap();
        assert!(!log.should_snapshot());
        log.append_set(1, record_for(1)).unwrap();
        assert!(!log.should_snapshot());
        log.append_set(2, record_for(2)).unwrap();
        assert!(log.should_snapshot());
        log.snapshot(&db).unwrap();
        assert!(!log.should_snapshot(), "cadence resets after a snapshot");
    }
}
