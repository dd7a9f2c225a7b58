//! # p4lru-lruindex
//!
//! **LruIndex** (paper §3.2): in-network database query acceleration.
//!
//! The switch caches the database *index* — the 48-bit record address of a
//! key — in four series-connected arrays of P4LRU3 units. Query packets
//! probe all arrays read-only and stamp `cached_flag`/`cached_index` into
//! their headers; the server skips its B+Tree walk whenever the flag is
//! set. Reply packets perform the single deferred cache write (promote on a
//! hit, cascade-insert on a miss), which is what lets the series connection
//! avoid duplicate entries.
//!
//! * [`cache`] — the [`cache::IndexCache`] interface with series-connected
//!   P4LRU implementations and single-table baselines;
//! * [`system`] — the miss-rate/similarity driver (Figures 13, 16) and the
//!   closed-loop throughput model over the B+Tree database (Figure 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod system;

pub use cache::{index_series, IndexCache, ReplyEffect, SeriesIndex};
pub use p4lru_core::policies::PolicyKind;
pub use p4lru_core::series::{QueryHit, ReplyOutcome};
pub use system::{LruIndexConfig, LruIndexReport, ThroughputConfig, ThroughputReport};
