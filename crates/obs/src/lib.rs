//! # p4lru-obs
//!
//! Observability primitives for the cache service, std-only (consistent
//! with the `compat/` vendoring policy — this crate has zero dependencies):
//!
//! - [`hist::AtomicHistogram`] — an atomic, mergeable variant of the
//!   log₂-bucketed latency histogram, recordable from any thread without
//!   locks (the server keeps one per shard per op-type and one per
//!   lifecycle stage).
//! - [`trace`] — request-lifecycle span tracing: a [`trace::Tracer`] stamps
//!   eight pipeline stages (decode → route → shard-queue → wal-append →
//!   apply → fsync/commit-gate → reply-reorder → flush) into a fixed-size
//!   [`trace::RequestTrace`] that rides along with the request, and
//!   completed traces past a configurable slow-op threshold land in a
//!   lock-free [`trace::TraceRing`], drainable on demand.
//! - [`expo`] — Prometheus text-format (version 0.0.4) exposition: `# HELP`
//!   / `# TYPE` metadata, label escaping, and cumulative `le` histogram
//!   buckets.
//! - [`metric_set!`] — one declarative table per metric set: the atomic
//!   counters, their snapshot struct, the cross-shard fold and the
//!   Prometheus families are all generated from one row per metric
//!   (see [`mod@metric_set`]).
//! - [`http::MetricsHttp`] — a minimal std-only HTTP/1.1 GET handler
//!   serving `/metrics` from a render callback (`serverd --metrics-addr`).
//! - [`sampler::Periodic`] — a background thread invoking a callback on a
//!   fixed interval (the server's JSONL stats sampler), with a final tick
//!   on shutdown so short runs still produce output.
//! - [`span`] — in-band trace propagation: a 16-byte [`span::SpanContext`]
//!   (trace id, origin stamp, hop count) carried *inside* flagged wire
//!   frames across router → tier → server hops, plus the per-hop
//!   [`span::HopTrace`] segment model so every hop of a slow request
//!   prints a breakdown line sharing one grep-able trace id.
//!
//! The stage order matches the server's actual pipeline: the WAL append
//! happens *before* the in-memory apply (the append-before-apply
//! durability discipline), and the fsync stamp is the commit gate — the
//! moment the request's acknowledgement was released, whether or not the
//! sync policy issued a physical fsync for this batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod hist;
pub mod http;
pub mod metric_set;
pub mod sampler;
pub mod span;
pub mod trace;

pub use expo::Expo;
pub use hist::{AtomicHistogram, HistSnapshot};
pub use http::MetricsHttp;
pub use sampler::Periodic;
pub use span::{HopKind, HopTrace, SpanContext, SpanSampler, TraceIdGen, SPAN_BYTES};
pub use trace::{FinishedTrace, ObsConfig, OpKind, RequestTrace, Stage, TraceRing, Tracer};
