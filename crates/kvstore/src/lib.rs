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
//! * [`slab`] — a slab store of fixed 64-byte records addressed by
//!   [`slab::Addr48`] (the paper's 48-bit index, 64-byte values);
//! * [`db`] — the two glued together, with the service-time model used by
//!   the throughput experiments, and [`db::DatabaseBuilder`], the one
//!   streaming bulk build every bulk-loaded store goes through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
pub mod db;
pub mod key;
pub mod slab;

pub use btree::{BPlusTree, Progression, SlotRef, Upsert};
pub use db::{Database, DatabaseBuilder};
pub use key::IndexKey;
pub use slab::{Addr48, Record, SlabStore, VALUE_SIZE};
