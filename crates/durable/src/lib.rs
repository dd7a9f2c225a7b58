//! # p4lru-durable
//!
//! The durability subsystem behind `p4lru-server`'s backing store.
//!
//! The paper's LruTable (§3) is a cache *in front of a reliable backing
//! store*: misses fall through to a server-side KV store that is assumed to
//! survive failure. This crate supplies that missing reliability for the
//! software deployment:
//!
//! * [`wal`] — a segmented, CRC-checksummed write-ahead log split into an
//!   in-memory append buffer and a file sink with explicit fsync boundaries
//!   (the group-commit hook), so appends never wait on the disk; its
//!   active segment is pre-sized, and its module docs state the
//!   end-of-log rule every reader of a segment applies;
//! * [`record`] — the WAL record format (length + CRC framing around
//!   SET/DEL payloads);
//! * [`snapshot`] — crash-atomic point-in-time snapshots of a shard's
//!   [`p4lru_kvstore::Database`], written tmp-then-rename;
//! * [`recover`] — snapshot load + WAL tail replay, trimming the final
//!   segment's zero tail and tolerating (and repairing) a torn final
//!   record, refusing sequence gaps and mid-log damage;
//! * [`shardlog`] — the per-shard engine tying the above together under a
//!   [`SyncPolicy`];
//! * [`reader`] — tailing the log as a stream (the primary side of WAL
//!   shipping: contiguous encoded records from a given sequence, or a
//!   snapshot-needed signal once the history was pruned);
//! * [`failpoint`] — fault injection (truncate / corrupt / short-write at a
//!   chosen byte offset) for crash tests.
//!
//! Durability contract: under [`SyncPolicy::Always`] every acknowledged
//! write is on disk before its ack (group commit batches the fsync, it
//! never skips it); under [`SyncPolicy::EveryN`] / [`SyncPolicy::Interval`]
//! loss after a crash is bounded by the batch size / the window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod failpoint;
pub mod reader;
pub mod record;
pub mod recover;
pub mod shardlog;
pub mod snapshot;
pub mod wal;

#[cfg(test)]
mod testutil;

use std::time::Duration;

pub use failpoint::{FailMode, FailpointFile};
pub use reader::{ReadBatch, ReadOutcome};
pub use record::{WalOp, WalRecord};
pub use recover::Recovery;
pub use shardlog::{LogCommit, ShardLog};
pub use wal::DEFAULT_SEGMENT_BYTES;

/// When acknowledged writes are fsynced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync at every commit boundary: no acknowledged write is ever lost.
    /// Group commit still batches many appends into one fsync.
    Always,
    /// Fsync once at least `n` appends are pending: at most `n - 1` + one
    /// batch of acknowledged writes can be lost in a crash.
    EveryN(u64),
    /// Fsync at the first commit after this much time has passed since the
    /// previous fsync: loss is bounded by the window.
    Interval(Duration),
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    /// Parses `always`, `every=<n>`, or `interval=<ms>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "always" {
            return Ok(SyncPolicy::Always);
        }
        if let Some(n) = s.strip_prefix("every=") {
            let n: u64 = n
                .parse()
                .map_err(|e| format!("bad every=<n> value {n:?}: {e:?}"))?;
            if n == 0 {
                return Err("every=<n> needs n >= 1".to_owned());
            }
            return Ok(SyncPolicy::EveryN(n));
        }
        if let Some(ms) = s.strip_prefix("interval=") {
            let ms: u64 = ms
                .parse()
                .map_err(|e| format!("bad interval=<ms> value {ms:?}: {e:?}"))?;
            return Ok(SyncPolicy::Interval(Duration::from_millis(ms)));
        }
        Err(format!(
            "unknown sync policy {s:?} (expected always, every=<n>, or interval=<ms>)"
        ))
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::EveryN(n) => write!(f, "every={n}"),
            SyncPolicy::Interval(d) => write!(f, "interval={}", d.as_millis()),
        }
    }
}

/// Sizing and policy knobs for one shard's durability engine.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// When acknowledged writes reach disk.
    pub sync: SyncPolicy,
    /// Seal a snapshot (and truncate the log) every this many WAL appends;
    /// `0` disables periodic snapshots (the log grows until shutdown).
    pub snapshot_every: u64,
    /// Rotate WAL segments once they pass this many bytes.
    pub segment_bytes: u64,
    /// Modeled device commit latency, added after every real fsync.
    /// `ZERO` (the default) means the physical device speed. Benchmarks
    /// use this to pin the commit cost to a device profile — e.g. the
    /// 1–2 ms of a commodity disk — so figures about commit-path behavior
    /// (group commit, cluster scaling) measure the architecture rather
    /// than whichever storage the CI box happens to have, and stay
    /// comparable across machines. The sleep happens with the fsync's
    /// durability guarantee already in hand; it only delays the ack.
    pub commit_latency: Duration,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::Always,
            snapshot_every: 100_000,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            commit_latency: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_policy_parses_and_displays() {
        assert_eq!("always".parse::<SyncPolicy>().unwrap(), SyncPolicy::Always);
        assert_eq!(
            "every=64".parse::<SyncPolicy>().unwrap(),
            SyncPolicy::EveryN(64)
        );
        assert_eq!(
            "interval=250".parse::<SyncPolicy>().unwrap(),
            SyncPolicy::Interval(Duration::from_millis(250))
        );
        for bad in [
            "",
            "sometimes",
            "every=0",
            "every=x",
            "interval=",
            "interval=abc",
        ] {
            assert!(bad.parse::<SyncPolicy>().is_err(), "{bad:?} must not parse");
        }
        for policy in [
            SyncPolicy::Always,
            SyncPolicy::EveryN(8),
            SyncPolicy::Interval(Duration::from_millis(100)),
        ] {
            assert_eq!(policy.to_string().parse::<SyncPolicy>().unwrap(), policy);
        }
    }
}
