//! # p4lru-kvstore
//!
//! The database substrate behind LruIndex (paper §3.2).
//!
//! LruIndex does not cache key-value pairs (that is NetCache); it caches the
//! database *index* — the 48-bit memory address of a key's record — so the
//! server can skip its index walk on a cache hit and read the record
//! directly. Reproducing that speedup therefore needs a database with a real
//! index whose traversal cost is observable:
//!
//! * [`btree`] — an arena-allocated B+Tree (insert, lookup, delete with
//!   rebalancing) that reports how many nodes each lookup visits, with a
//!   slot layout built for raw lookup speed (head arrays with per-node
//!   prefix truncation, adaptive hash leaves, a descent cache, and sorted
//!   bulk load into run leaves that store no value per key — DESIGN.md
//!   §13);
//! * [`key`] — the [`key::IndexKey`] projection those slot layouts are
//!   derived from;
//! * [`slab`] — the record heap: 64-byte records stored at their size,
//!   one arena per mask of non-zero words, addressed by [`slab::Addr48`]
//!   (the paper's 48-bit index, variable-length values);
//! * [`sparse`] — the codec between a record and its stored form (the
//!   mask and the non-zero words), which snapshots write as well;
//! * [`db`] — the two glued together, with the service-time model used by
//!   the throughput experiments, and [`db::DatabaseBuilder`], the one
//!   streaming bulk build every bulk-loaded store goes through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
pub mod db;
pub mod key;
pub mod slab;
pub mod sparse;

pub use btree::{BPlusTree, Progression, Upsert};
pub use db::{Database, DatabaseBuilder};
pub use key::IndexKey;
pub use slab::{Addr48, Record, RecordBuf, RecordHeap, VALUE_SIZE};
pub use sparse::Sparse;
