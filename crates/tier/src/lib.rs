//! # p4lru-tier
//!
//! The paper's deployment story, end to end: an in-network LruIndex tier in
//! front of the real TCP serverd (DESIGN.md §11).
//!
//! The pieces, bottom up:
//!
//! * [`switch`] — the switch model: a [`p4lru_lruindex::SeriesIndex`]
//!   mapping keys to 48-bit slot addresses plus a register-file value
//!   store, and the tier's one front end: the sans-IO step pair
//!   [`SwitchTier::begin`] / [`SwitchTier::finish`] — and, for a pipelined
//!   burst, [`SwitchTier::begin_turn`] / [`SwitchTier::finish_turn`] — that
//!   applies the three coherence rules (invalidate-before-forward,
//!   stamp-guarded admission, invalidate-again-on-ack) around an upstream
//!   round-trip someone else performs.
//! * [`counters`] — lock-free tier counters feeding the STATS `tier`
//!   section and the `p4lru_tier_*` Prometheus families.
//! * [`proxy`] — `p4lru_tierd`: sockets, threads and one lock around
//!   `begin_turn`/`finish_turn`, speaking the serverd protocol on both
//!   sides, so unmodified clients get the two-tier deployment by pointing
//!   at the proxy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod proxy;
pub mod switch;

pub use counters::TierCounters;
pub use proxy::{ProxyConfig, TierProxy};
pub use switch::{Step, SwitchTier, SwitchTierConfig};
