//! One shard: a P4LRU front cache write-through to its own slice of the
//! backing store.
//!
//! This is the software analogue of the paper's LruTable deployment (§3.1):
//! the switch holds a small LRU cache in front of the servers, and a miss
//! takes the *slow path* — here, a B+Tree index walk in
//! [`p4lru_kvstore::Database`] — after which the looked-up record's address
//! is installed in the cache (the §3.1 placeholder is the install; in a
//! single-threaded shard the install is atomic with the lookup, so the
//! placeholder's "reserve, then fill" dance collapses into one step — see
//! DESIGN.md §7). Like LruIndex (§3.2), the cache stores the record's
//! 48-bit *address*, not its value: a hit skips the index walk and reads
//! the record heap directly.
//!
//! A shard is single-threaded by construction — `&mut self` on every
//! operation; the server keeps each shard behind one mutex that the reactor
//! loop serving a request takes for the op's duration, mirroring how one
//! pipeline stage owns its registers for a packet's pass — so the cache
//! needs no interior locking (see the thread-safety notes on
//! [`p4lru_core::array::LruArray`]).
//!
//! With durability enabled (DESIGN.md §8), every SET/DEL appends to the
//! shard's in-memory WAL buffer *before* mutating the in-memory store, and
//! the server withholds acknowledgements until a commit covering the append
//! has applied the sync policy — so under `sync=always` no acknowledged
//! write can be lost to a crash. The commit is cut under the lock
//! ([`Shard::begin_commit`]) and run without it, on the shard's commit
//! thread, so appends never wait on the disk; [`Shard::commit`] does both
//! in place for single-threaded callers, and [`Shard::commit_batch`]
//! records a batch's size so STATS can report how much one fsync is
//! amortizing.

use std::io;
use std::sync::Arc;

use p4lru_core::array::P4Lru3Array;
use p4lru_core::unit::Outcome;
use p4lru_durable::{DataDir, DurabilityConfig, LogCommit, Recovery, ShardLog, WalOp, WalRecord};
use p4lru_kvstore::slab::Record;
use p4lru_kvstore::{Addr48, Database, VALUE_SIZE};

use crate::metrics::{ShardMetrics, ShardSnapshot};

/// A shard: front cache, backing store, counters, and (optionally) the
/// durability engine.
#[derive(Debug)]
pub struct Shard {
    cache: P4Lru3Array<u64, Addr48>,
    db: Database,
    metrics: Arc<ShardMetrics>,
    log: Option<ShardLog>,
    /// [`Shard::get_run`]'s buffers, reused run to run: each key's first
    /// cache probe, the keys that missed it, and their resolved addresses.
    probed: Vec<Option<Addr48>>,
    missed: Vec<u64>,
    resolved: Vec<Option<Addr48>>,
}

fn overwrite(slot: &mut Addr48, addr: Addr48) {
    *slot = addr;
}

impl Shard {
    /// A shard with `units` three-entry cache units, an empty store, and no
    /// durability (in-memory only).
    pub fn new(units: usize, seed: u64) -> Self {
        Self::with_db(units, seed, Database::default())
    }

    /// A shard serving `db` (typically bulk-built with a
    /// [`p4lru_kvstore::DatabaseBuilder`]) behind a cold cache of `units`
    /// three-entry units, with no durability (in-memory only).
    pub fn with_db(units: usize, seed: u64, db: Database) -> Self {
        let shard = Self {
            cache: P4Lru3Array::with_seed(units, seed),
            db,
            metrics: Arc::new(ShardMetrics::default()),
            log: None,
            probed: Vec::new(),
            missed: Vec::new(),
            resolved: Vec::new(),
        };
        shard.metrics.store_len_set(shard.db.len());
        shard.sync_index_stats();
        shard
    }

    /// Attaches a durability engine to a freshly populated shard: seals an
    /// initial snapshot of the current store (so the population survives a
    /// crash) and opens the WAL. Call after building or [`Shard::load`]-ing
    /// the initial records and before serving traffic.
    pub fn enable_durability_fresh(
        &mut self,
        dir: impl Into<DataDir>,
        config: &DurabilityConfig,
    ) -> io::Result<()> {
        self.log = Some(ShardLog::init_fresh(dir, &self.db, config)?);
        Ok(())
    }

    /// Rebuilds a shard from its durability directory: latest snapshot plus
    /// WAL tail, with the front cache re-warmed by installing the address
    /// of every key the replay touched (oldest first, so the most recently
    /// written keys end up most recently used).
    pub fn recover(
        units: usize,
        seed: u64,
        dir: impl Into<DataDir>,
        config: &DurabilityConfig,
    ) -> io::Result<Self> {
        let (log, recovery) = ShardLog::recover(dir, config)?;
        let Recovery {
            db,
            replayed_keys,
            replayed,
            torn_tail,
            duration,
            ..
        } = recovery;
        let mut shard = Self::with_db(units, seed, db);
        shard.log = Some(log);
        for key in replayed_keys {
            // Deleted keys are simply absent by now; survivors get their
            // (fresh) heap address installed, warming the cache with what
            // was hot at crash time. Warm-up installs bypass the eviction
            // counter — they are not request-driven traffic.
            if let Some(found) = shard.db.lookup_by_key(key) {
                let addr = found.addr;
                shard.cache.update(key, addr, overwrite);
            }
        }
        shard.metrics.recovery(replayed, torn_tail, duration);
        shard.sync_index_stats();
        Ok(shard)
    }

    /// The shard's metrics handle (share with the STATS path).
    pub fn metrics(&self) -> Arc<ShardMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The front cache, read-only (inspection and tests).
    pub fn cache(&self) -> &P4Lru3Array<u64, Addr48> {
        &self.cache
    }

    /// Number of records in the backing store.
    pub fn store_len(&self) -> usize {
        self.db.len()
    }

    /// Whether this shard writes a WAL.
    pub fn is_durable(&self) -> bool {
        self.log.is_some()
    }

    /// Loads one record without touching counters, the cache, or the WAL
    /// (initial population — made durable by the initial snapshot that
    /// [`Shard::enable_durability_fresh`] seals afterwards).
    ///
    /// This is the per-key path: one insert descent per record, which
    /// leaves the half-full leaves an ascending insert loop makes. serverd
    /// builds its shards with [`Shard::with_db`] over a bulk build instead;
    /// `load` is kept for tests and for the benchmark's layer walk, which
    /// populates its shards key by key.
    pub fn load(&mut self, key: u64, record: Record) {
        self.db.insert(key, record);
        self.metrics.store_len_set(self.db.len());
        self.sync_index_stats();
    }

    /// Reads `key`: [`Shard::get_run`] over a run of one.
    pub fn get(&mut self, key: u64) -> Option<Record> {
        let mut out = None;
        self.get_run(&[key], |record| out = record);
        out
    }

    /// Reads a run of keys, calling `reply` once per key, in key order,
    /// with exactly what [`Shard::get`] would return for that key had the
    /// run been served one key at a time — and leaving the cache, its
    /// DFA states and the hit/miss/absent/eviction counters as that would.
    ///
    /// A cache hit reads the record heap directly by cached address and refreshes
    /// the entry's recency; a miss walks the index and installs the
    /// address. The run first probes the cache for every key, then
    /// resolves the keys that missed with one interleaved index descent
    /// ([`Database::resolve_run`]) when there are two or more, and then
    /// applies the keys in order. A probe stays exact until the run's
    /// first install (a hit's refresh never changes which keys are
    /// cached); after it, each key is probed again, because the install
    /// may have evicted it or cached an earlier duplicate. A GET never
    /// changes the index, so the resolved addresses stay valid throughout;
    /// a key that hit at first and is evicted mid-run walks alone.
    pub fn get_run(&mut self, keys: &[u64], mut reply: impl FnMut(Option<Record>)) {
        let Self {
            cache,
            db,
            metrics,
            probed,
            missed,
            resolved,
            ..
        } = self;
        probed.clear();
        probed.extend(keys.iter().map(|key| cache.get(key).copied()));
        missed.clear();
        missed.extend(
            keys.iter()
                .zip(probed.iter())
                .filter(|(_, probe)| probe.is_none())
                .map(|(&key, _)| key),
        );
        resolved.clear();
        if missed.len() >= 2 {
            db.resolve_run(missed, resolved);
            metrics.index_run(missed.len());
        }
        let mut resolved = resolved.iter();
        let mut installed = false;
        let mut walked = false;
        for (&key, &probe) in keys.iter().zip(probed.iter()) {
            let hit = if installed {
                cache.get(&key).copied()
            } else {
                probe
            };
            // With two or more first-probe misses, `resolved` holds one
            // answer for each of them, in run order.
            let run_addr = if probe.is_none() {
                resolved.next().copied()
            } else {
                None
            };
            if let Some(addr) = hit {
                let record = *db.lookup_by_addr(addr);
                cache.update(key, addr, overwrite);
                metrics.hit();
                reply(Some(record));
                continue;
            }
            walked = true;
            let found = match run_addr {
                Some(addr) => addr.map(|addr| (addr, db.index_height(), db.lookup_by_addr(addr))),
                None => db
                    .lookup_by_key(key)
                    .map(|found| (found.addr, found.index_visits, found.record)),
            };
            match found {
                Some((addr, visits, record)) => {
                    metrics.miss(visits);
                    if let Outcome::Evicted { .. } = cache.update(key, addr, overwrite) {
                        metrics.eviction();
                    }
                    installed = true;
                    reply(Some(*record));
                }
                None => {
                    metrics.absent();
                    reply(None);
                }
            }
        }
        if walked {
            self.sync_index_stats();
        }
    }

    /// Write-through SET: the WAL (when durable) sees the record first, then
    /// the backing store, then the cache (write-allocate — the written key
    /// becomes most recently used, matching YCSB's read-your-writes access
    /// pattern). The record is durable only after [`Shard::commit`].
    pub fn set(&mut self, key: u64, record: Record) -> io::Result<()> {
        if let Some(log) = &mut self.log {
            log.append_set(key, record)?;
            self.metrics.wal_append();
        }
        // One find-or-insert walk resolves probe, insert, and address —
        // the seed-era path walked the index twice (probe, then insert)
        // and a third time to learn a new key's address.
        let u = self.db.upsert(key, record);
        if u.existed {
            // An overwrite: the walk cost is not charged (seed parity:
            // in-place overwrites reported 0 visits).
            self.metrics.set(0);
        } else {
            self.metrics.set(u.index_visits);
        }
        self.install(key, u.addr);
        self.metrics.store_len_set(self.db.len());
        self.sync_index_stats();
        Ok(())
    }

    /// Deletes `key`, returning whether it existed.
    ///
    /// The cached address **must** be invalidated before the store frees the
    /// record: the heap reuses freed addresses, so a stale cache entry would
    /// later serve some other key's record.
    pub fn del(&mut self, key: u64) -> io::Result<bool> {
        if let Some(log) = &mut self.log {
            log.append_del(key)?;
            self.metrics.wal_append();
        }
        self.metrics.del();
        self.cache.remove(&key);
        let existed = self.db.remove(key);
        self.metrics.store_len_set(self.db.len());
        self.sync_index_stats();
        Ok(existed)
    }

    /// [`Shard::commit`] plus batch accounting: records `batch_len` in the
    /// batch-size histogram counters (STATS `batches`/`batch_mean`/
    /// `batch_max`) next to the fsync it amortizes, for callers that commit
    /// a batch in place (the server's commit thread counts its own batches
    /// as it releases them) — pipelined connections are what make
    /// `batch_len` grow past 1, and the ratio `batch_ops / batches` is the
    /// direct measure of how much group commit is actually grouping.
    pub fn commit_batch(&mut self, batch_len: usize) -> io::Result<()> {
        self.metrics.batch_committed(batch_len);
        self.commit()
    }

    /// Batch boundary: applies the sync policy to pending WAL appends and
    /// seals a snapshot when the cadence says so. A caller must run this (or
    /// a [`Shard::begin_commit`] cut) before releasing the batch's
    /// acknowledgements.
    pub fn commit(&mut self) -> io::Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        if let Some(took) = log.commit()? {
            self.metrics.wal_fsync(took);
        }
        if log.should_snapshot() {
            log.snapshot(&self.db)?;
            self.metrics.snapshot_taken();
        }
        Ok(())
    }

    /// Cuts a commit of every WAL record appended so far, to run without
    /// access to the shard (`None` without durability); whoever runs it
    /// counts its fsync. Snapshots are not cut: when
    /// `Shard::snapshot_due`, commit in place instead.
    pub fn begin_commit(&mut self) -> Option<LogCommit> {
        self.log.as_mut().map(ShardLog::begin_commit)
    }

    /// Whether the next [`Shard::commit`] seals a snapshot.
    pub(crate) fn snapshot_due(&self) -> bool {
        self.log.as_ref().is_some_and(ShardLog::should_snapshot)
    }

    /// Whether WAL records were appended since the last commit cut.
    pub fn has_buffered(&self) -> bool {
        self.log.as_ref().is_some_and(ShardLog::has_buffered)
    }

    /// Forces everything appended so far to disk (clean shutdown).
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(log) = &mut self.log {
            let took = log.sync()?;
            self.metrics.wal_fsync(took);
        }
        Ok(())
    }

    /// Sequence number of this shard's last WAL append (`0` without
    /// durability — replication requires a WAL, so a non-durable shard
    /// never reports progress).
    pub fn last_seq(&self) -> u64 {
        self.log.as_ref().map(ShardLog::last_seq).unwrap_or(0)
    }

    /// Applies one WAL record shipped from a primary: re-append it to the
    /// local WAL under the *same* sequence number, then mutate the store the
    /// same way the original request did. Returns `Ok(false)` for a record
    /// at or below the local sequence (a re-delivered pull after a broken
    /// connection — skipping keeps the apply idempotent), `Ok(true)` when
    /// applied, and an error for a sequence gap (the puller must resync its
    /// cursor) or a shard without durability.
    pub fn apply_replicated(&mut self, rec: &WalRecord) -> io::Result<bool> {
        let Some(log) = &mut self.log else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication requires a durable shard",
            ));
        };
        if rec.seq <= log.last_seq() {
            return Ok(false);
        }
        log.append_replicated(rec.seq, &rec.op)?;
        self.metrics.wal_append();
        match rec.op {
            WalOp::Set { key, record } => {
                let u = self.db.upsert(key, record);
                self.metrics.set(if u.existed { 0 } else { u.index_visits });
                self.install(key, u.addr);
            }
            WalOp::Del { key } => {
                self.metrics.del();
                // Same invalidate-before-free order as [`Shard::del`]: the
                // heap reuses freed addresses.
                self.cache.remove(&key);
                self.db.remove(key);
            }
        }
        self.metrics.store_len_set(self.db.len());
        self.sync_index_stats();
        Ok(true)
    }

    /// Replaces this shard's entire state with a snapshot shipped from a
    /// primary (catch-up after the primary pruned the WAL history behind
    /// this follower's cursor). The snapshot bytes are validated in memory
    /// (magic, CRC, entry count, sequence), written once and installed
    /// crash-atomically before the local WAL is truncated, and their
    /// records stream into a bulk build of the new store; the front cache
    /// starts cold.
    pub fn install_shipped_snapshot(&mut self, seq: u64, bytes: &[u8]) -> io::Result<()> {
        let Some(log) = &mut self.log else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication requires a durable shard",
            ));
        };
        self.db = log.reset_to_snapshot(seq, bytes)?;
        self.cache.drain();
        self.metrics.store_len_set(self.db.len());
        self.sync_index_stats();
        Ok(())
    }

    /// A snapshot of this shard's counters.
    pub fn snapshot(&self, shard: usize) -> ShardSnapshot {
        self.metrics.snapshot(shard)
    }

    /// When this shard's WAL last appended a record (`None` without
    /// durability or before the first append) — the tracer's `wal_append`
    /// span hook, read by the server right after a mutation so the
    /// stamp reflects when the buffered write actually happened.
    pub fn last_wal_append_at(&self) -> Option<std::time::Instant> {
        self.log.as_ref().and_then(|log| log.last_append_at())
    }

    fn install(&mut self, key: u64, addr: Addr48) {
        if let Outcome::Evicted { .. } = self.cache.update(key, addr, overwrite) {
            self.metrics.eviction();
        }
    }

    /// Mirrors the index gauges (tree height, descent-cache hits) into the
    /// metrics after an operation touched the index.
    fn sync_index_stats(&self) {
        self.metrics
            .index_stats(self.db.index_height(), self.db.index_descent_hits());
    }
}

/// Pads or truncates arbitrary value bytes to the store's record size.
pub fn record_from_bytes(value: &[u8]) -> Record {
    let mut r = [0u8; VALUE_SIZE];
    let n = value.len().min(VALUE_SIZE);
    r[..n].copy_from_slice(&value[..n]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4lru_durable::SyncPolicy;
    use p4lru_kvstore::db::record_for;
    use std::sync::atomic::Ordering;

    fn loaded_shard(items: u64) -> Shard {
        let mut shard = Shard::new(64, 0xBEEF);
        for k in 0..items {
            shard.load(k, record_for(k));
        }
        shard
    }

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(label: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "p4lru-shard-{label}-{}-{:x}",
                std::process::id(),
                &raw const label as usize
            ));
            std::fs::create_dir_all(&path).unwrap();
            Self(path)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn get_miss_then_hit() {
        let mut shard = loaded_shard(100);
        assert_eq!(shard.get(7), Some(record_for(7)));
        assert_eq!(shard.get(7), Some(record_for(7)));
        assert_eq!(shard.get(999), None);
        let s = shard.snapshot(0);
        assert_eq!((s.hits, s.misses, s.absent), (1, 1, 1));
        assert_eq!(s.gets, 3);
        assert!(s.index_visits > 0, "a miss walks the index");
        assert_eq!(s.store_len, 100);
        assert_eq!(s.wal_appends, 0, "no WAL without durability");
    }

    #[test]
    fn commit_batch_records_the_group_commit_sizes() {
        let mut shard = loaded_shard(8);
        shard.set(100, record_for(100)).unwrap();
        shard.commit_batch(1).unwrap();
        shard.set(101, record_for(101)).unwrap();
        shard.set(102, record_for(102)).unwrap();
        shard.set(103, record_for(103)).unwrap();
        shard.commit_batch(3).unwrap();
        let snap = shard.snapshot(0);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batch_ops, 4);
        assert_eq!(snap.batch_max, 3);
        assert!((snap.batch_mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn set_new_and_existing_keys() {
        let mut shard = loaded_shard(10);
        shard.set(3, record_for(103)).unwrap(); // existing: same mask, in place
        assert_eq!(shard.get(3), Some(record_for(103)));
        shard.set(500, record_for(500)).unwrap(); // new key
        assert_eq!(shard.get(500), Some(record_for(500)));
        assert_eq!(shard.store_len(), 11);
        let s = shard.snapshot(0);
        assert_eq!(s.sets, 2);
        // Both SETs installed the address, so both GETs hit.
        assert_eq!((s.hits, s.misses), (2, 0));
        assert_eq!(s.store_len, 11);
    }

    #[test]
    fn del_invalidates_the_cached_address() {
        let mut shard = loaded_shard(10);
        assert_eq!(shard.get(4), Some(record_for(4))); // cache addr of key 4
        assert!(shard.del(4).unwrap());
        assert!(!shard.del(4).unwrap(), "second delete finds nothing");
        // The heap reuses key 4's freed slot for the next insert; a stale
        // cached address would now serve key 777's record under key 4.
        shard.set(777, record_for(777)).unwrap();
        assert_eq!(shard.get(4), None, "deleted key must stay deleted");
        assert_eq!(shard.get(777), Some(record_for(777)));
    }

    /// A benchmark SET's value: `[key:8][conn:1][version:8]`, padded and
    /// closed by a mark byte — three non-zero words where a preloaded
    /// record has two.
    fn set_value(key: u64, version: u64) -> Record {
        let mut r = [0u8; VALUE_SIZE];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r[8] = 1;
        r[9..17].copy_from_slice(&version.to_le_bytes());
        r[VALUE_SIZE - 1] = 0xA5;
        r
    }

    #[test]
    fn a_set_that_changes_a_cached_records_mask_keeps_its_address() {
        let mut shard = loaded_shard(100);
        assert_eq!(shard.get(7), Some(record_for(7))); // cache key 7
        let home = shard.db.lookup_by_key(7).unwrap().addr;
        shard.set(7, set_value(7, 1)).unwrap();
        assert_eq!(shard.db.lookup_by_key(7).unwrap().addr, home);
        assert_eq!(shard.cache().get(&7), Some(&home));
        let hits = shard.snapshot(0).hits;
        assert_eq!(shard.get(7), Some(set_value(7, 1)));
        assert_eq!(shard.snapshot(0).hits, hits + 1, "a front-cache hit");

        // A DEL frees the home and the target: fresh keys of each mask
        // reuse them.
        assert!(shard.del(7).unwrap());
        shard.set(500, set_value(500, 2)).unwrap();
        shard.set(501, record_for(501)).unwrap();
        let target = Addr48::at(home.mask() | 0x80, 0);
        assert_eq!(shard.db.lookup_by_key(500).unwrap().addr, target);
        assert_eq!(shard.db.lookup_by_key(501).unwrap().addr, home);
        assert_eq!(shard.get(7), None, "deleted key must stay deleted");
        assert_eq!(shard.get(500), Some(set_value(500, 2)));
        assert_eq!(shard.get(501), Some(record_for(501)));
    }

    #[test]
    fn eviction_is_counted_when_the_cache_overflows() {
        let mut shard = Shard::new(1, 1); // one unit: 3 entries total
        for k in 0..10 {
            shard.load(k, record_for(k));
        }
        for k in 0..10 {
            assert_eq!(shard.get(k), Some(record_for(k)));
        }
        let s = shard.snapshot(0);
        assert_eq!(s.misses, 10);
        assert_eq!(s.evictions, 7, "10 installs into 3 slots evict 7");
    }

    #[test]
    fn metrics_handle_is_shared() {
        let mut shard = loaded_shard(5);
        let handle = shard.metrics();
        shard.get(1);
        assert_eq!(handle.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn record_from_bytes_pads_and_truncates() {
        assert_eq!(record_from_bytes(b"ab")[..2], *b"ab");
        assert_eq!(record_from_bytes(b"ab")[2..], [0u8; VALUE_SIZE - 2]);
        let long = vec![7u8; VALUE_SIZE + 9];
        assert_eq!(record_from_bytes(&long), [7u8; VALUE_SIZE]);
    }

    #[test]
    fn durable_shard_survives_a_simulated_crash() {
        let tmp = TempDir::new("crash");
        let config = DurabilityConfig {
            sync: SyncPolicy::Always,
            ..DurabilityConfig::default()
        };
        {
            let mut shard = loaded_shard(20);
            shard.enable_durability_fresh(&tmp.0, &config).unwrap();
            assert!(shard.is_durable());
            shard.set(100, record_for(100)).unwrap();
            shard.set(5, record_for(505)).unwrap();
            assert!(shard.del(7).unwrap());
            shard.commit().unwrap();
            let s = shard.snapshot(0);
            assert_eq!(s.wal_appends, 3);
            assert!(s.wal_fsyncs >= 1);
            // Dropped without flush: a crash. Everything committed must
            // still be recoverable.
        }
        let mut shard = Shard::recover(64, 0xBEEF, &tmp.0, &config).unwrap();
        assert_eq!(shard.store_len(), 20, "+1 new, -1 deleted");
        assert_eq!(shard.get(100), Some(record_for(100)));
        assert_eq!(shard.get(5), Some(record_for(505)));
        assert_eq!(shard.get(7), None);
        let s = shard.snapshot(0);
        assert_eq!(s.recovery_replayed, 3);
        assert_eq!(s.recovery_torn, 0);
        // The replayed keys were re-installed: reading them hits the cache.
        assert!(s.hits >= 2, "recovered hot keys hit, got {}", s.hits);
    }

    #[test]
    fn replicated_records_apply_skip_stale_and_reject_gaps() {
        let tmp = TempDir::new("repl-apply");
        let config = DurabilityConfig::default();
        let mut shard = loaded_shard(5);
        shard.enable_durability_fresh(&tmp.0, &config).unwrap();

        let set = |seq, key| WalRecord {
            seq,
            op: WalOp::Set {
                key,
                record: record_for(key + 1000),
            },
        };
        assert!(shard.apply_replicated(&set(1, 100)).unwrap());
        assert!(shard.apply_replicated(&set(2, 101)).unwrap());
        assert_eq!(shard.last_seq(), 2);
        assert_eq!(shard.get(100), Some(record_for(1100)));

        // Re-delivery of an already-applied record is a no-op, not damage.
        assert!(!shard.apply_replicated(&set(2, 101)).unwrap());
        assert_eq!(shard.last_seq(), 2);

        // A DEL replicates with the same invalidate-before-free order.
        let del = WalRecord {
            seq: 3,
            op: WalOp::Del { key: 100 },
        };
        assert!(shard.apply_replicated(&del).unwrap());
        assert_eq!(shard.get(100), None);

        // A sequence gap is refused (the puller resyncs its cursor).
        assert!(shard.apply_replicated(&set(9, 102)).is_err());
        assert_eq!(shard.last_seq(), 3, "a refused record appends nothing");

        // The replicated history is durable: the commit gate commits each
        // applied batch, and recovery replays it.
        shard.commit().unwrap();
        drop(shard);
        let mut shard = Shard::recover(64, 0xBEEF, &tmp.0, &config).unwrap();
        assert_eq!(shard.get(101), Some(record_for(1101)));
        assert_eq!(shard.get(100), None);
    }

    #[test]
    fn shipped_snapshot_replaces_state_and_resets_the_log() {
        let tmp_primary = TempDir::new("repl-snap-src");
        let tmp_follower = TempDir::new("repl-snap-dst");
        let config = DurabilityConfig::default();

        // The "primary": 30 records sealed into a snapshot at seq 4.
        let mut primary = loaded_shard(30);
        primary
            .enable_durability_fresh(&tmp_primary.0, &config)
            .unwrap();
        for seq in 1..=4 {
            primary.set(seq + 200, record_for(seq + 200)).unwrap();
        }
        primary.commit().unwrap();
        if let Some(log) = &mut primary.log {
            log.snapshot(&primary.db).unwrap();
        }
        let (seq, path) = p4lru_durable::snapshot::list_snapshots(&tmp_primary.0)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(seq, 4);
        let bytes = std::fs::read(path).unwrap();

        // The "follower": diverged junk state that must disappear.
        let mut follower = loaded_shard(3);
        follower
            .enable_durability_fresh(&tmp_follower.0, &config)
            .unwrap();
        follower.set(999, record_for(999)).unwrap();
        follower.get(999); // cache it, so drain() has something to clear
        follower.install_shipped_snapshot(seq, &bytes).unwrap();

        assert_eq!(follower.store_len(), 34);
        assert_eq!(follower.last_seq(), seq);
        assert_eq!(follower.get(999), None, "pre-snapshot state is gone");
        assert_eq!(follower.get(201), Some(record_for(201)));

        // The log continues from the snapshot's sequence.
        let next = WalRecord {
            seq: seq + 1,
            op: WalOp::Set {
                key: 777,
                record: record_for(777),
            },
        };
        assert!(follower.apply_replicated(&next).unwrap());
        follower.commit().unwrap();
        drop(follower);
        let mut follower = Shard::recover(64, 0xBEEF, &tmp_follower.0, &config).unwrap();
        assert_eq!(follower.get(777), Some(record_for(777)));
        assert_eq!(follower.store_len(), 35);
    }

    #[test]
    fn replication_needs_a_durable_shard() {
        let mut shard = loaded_shard(2);
        let rec = WalRecord {
            seq: 1,
            op: WalOp::Del { key: 0 },
        };
        assert!(shard.apply_replicated(&rec).is_err());
        assert!(shard.install_shipped_snapshot(1, &[]).is_err());
        assert_eq!(shard.last_seq(), 0);
    }

    #[test]
    fn recovery_warms_the_cache_with_replayed_keys() {
        let tmp = TempDir::new("warm");
        let config = DurabilityConfig::default();
        {
            let mut shard = loaded_shard(10);
            shard.enable_durability_fresh(&tmp.0, &config).unwrap();
            shard.set(42, record_for(42)).unwrap();
            shard.commit().unwrap();
        }
        let mut shard = Shard::recover(64, 0xBEEF, &tmp.0, &config).unwrap();
        shard.get(42);
        let s = shard.snapshot(0);
        assert_eq!((s.hits, s.misses), (1, 0), "replayed key was pre-installed");
    }
}
