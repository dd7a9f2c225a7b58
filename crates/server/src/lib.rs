//! # p4lru-server
//!
//! A runnable cache service built from the workspace's pieces: per-shard
//! engines pair a [`p4lru_core::array::P4Lru3Array`] front cache (storing
//! 48-bit record addresses, LruIndex-style) with a
//! [`p4lru_kvstore::Database`] backing store, behind a length-prefixed
//! binary protocol over TCP. A closed-loop load generator replays the
//! `p4lru-traffic` YCSB workloads against it and reports throughput and
//! latency percentiles.
//!
//! The deployment story mirrors the paper's LruTable (§3.1): the cache
//! absorbs the skewed head of the workload, misses take the slow path
//! through the store's B+Tree index, and the looked-up address is installed
//! in the cache on the way back. Binaries: `p4lru_serverd` (the daemon) and
//! `loadgen` (the benchmark client).
//!
//! The request path is pipelined (DESIGN.md §9): connections carry up to a
//! configurable window of in-flight requests over buffered framed I/O
//! ([`protocol::FrameReader`]/[`protocol::FrameWriter`]), the reactor loop
//! that reads a request applies it to its shard in place, a reply that must
//! wait for an fsync comes back from the shard's commit thread through the
//! connection's mailbox, and the handler reorders by sequence number so the
//! wire always sees responses in request order.
//!
//! Observability (DESIGN.md §10): every request carries a
//! [`p4lru_obs::RequestTrace`] stamped at eight lifecycle stages, feeding
//! per-shard per-op latency histograms (in STATS) and a slow-op log; the
//! [`expose`] module renders the same counters as a Prometheus `/metrics`
//! document and as the background sampler's JSONL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod commit;
pub mod expose;
pub mod gate;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
mod reactor_front;
pub mod repl;
pub mod server;
pub mod shard;

pub use client::Client;
pub use expose::{build_report, render_prometheus, tier_families, StatsSampler};
pub use metrics::{
    ClusterSnapshot, ConnCounters, ConnSnapshot, LatencySummary, ReactorLoopSnapshot, ShardMetrics,
    ShardSnapshot, StageSummary, StatsReport, TierSnapshot,
};
pub use protocol::{FrameReader, FrameWriter, Request, Response};
pub use repl::{ReplConfig, Role};
pub use server::{shard_of, Server, ServerConfig};
pub use shard::Shard;
