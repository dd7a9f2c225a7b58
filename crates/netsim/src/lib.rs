//! # p4lru-netsim
//!
//! A small deterministic discrete-event simulator, standing in for the
//! paper's DPDK testbed (sender client → Tofino switch → receiver/server).
//!
//! The testbed figures (9–11) measure *relative* quantities — miss rate,
//! added latency, throughput, upload rate — between P4LRU3 and baseline
//! systems under identical load. A deterministic event simulation preserves
//! exactly those relations while being reproducible bit-for-bit, which the
//! hardware testbed is not.
//!
//! * [`engine`] — time-ordered event queue with a run loop;
//! * [`queue`] — FIFO multi-server pools (database threads, control-plane
//!   lookup) and closed-loop client drivers;
//! * [`link`] — store-and-forward links (rate + propagation + FIFO queue);
//! * [`stats`] — online moments, exact percentiles, windowed rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod link;
pub mod queue;
pub mod stats;

pub use engine::Engine;
pub use link::Link;
pub use queue::{ClosedLoop, ServerPool};
pub use stats::{OnlineStats, Percentiles, WindowedRate};

/// Nanoseconds — every clock in the workspace uses this unit.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;
