//! Request-lifecycle span tracing.
//!
//! A [`RequestTrace`] is a fixed-size array of nanosecond timestamps — one
//! per [`Stage`] — relative to the [`Tracer`]'s epoch (the server's start
//! instant). It rides along with the request: the event loop serving the
//! connection stamps the stages it runs (all of them, for a reply answered
//! on the loop), a commit thread stamps `fsync` when it releases a reply it
//! held, and the loop stamps the tail when the response leaves on the wire. Stamping
//! is one `Instant::now()` plus an array store; for an untraced request the
//! stamp is a single predictable branch.
//!
//! A fully traced request costs several clock reads plus a few dozen atomic
//! RMWs (stage histograms, ring slot) — real money at millions of ops/s, so
//! the tracer *samples*: [`ObsConfig::sample_every`] traces one request in
//! N (default 64) and the rest carry a disabled trace whose every stamp is
//! that one branch. Sampling is what keeps the overhead budget (<3% ops/s,
//! measured by `server_throughput --trace`) honest; `sample_every = 1`
//! traces everything (tests and slow-op hunts), at a measured cost in the
//! tens of percent at saturation.
//!
//! Completed traces are [`Tracer::finish`]ed: unstamped stages inherit the
//! previous stage's timestamp (a GET has no WAL append; a volatile server
//! has no fsync), per-stage durations feed the tracer's atomic stage
//! histograms, and the trace lands in a lock-free [`TraceRing`] — plus a
//! second, smaller ring when the end-to-end time crosses the slow-op
//! threshold. Rings are drainable at any time without stopping writers.
//!
//! [`TraceRing`] is a seqlock-style ring: producers claim a slot with one
//! `fetch_add` and bracket their (plain atomic) stores with an odd/even
//! version counter; readers retry or skip slots whose version moved under
//! them. Two producers lapping onto the same slot can tear each other's
//! write — acceptable for a rolling observational sample (the ring is sized
//! orders of magnitude past the writer count), never for accounting, which
//! is why counters and histograms are recorded separately.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::hist::{AtomicHistogram, HistSnapshot};
use crate::span::SpanContext;

/// The eight lifecycle stages, in pipeline order. `WalAppend` precedes
/// `Apply` because the server's durability discipline appends to the WAL
/// *before* mutating memory; `Fsync` is the commit gate — when the batch's
/// acknowledgements were released — whether or not the sync policy issued a
/// physical fsync for this batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Request frame parsed on the connection thread.
    Decode = 0,
    /// Shard routing decided and the request dispatched.
    Route = 1,
    /// The shard's lock taken (duration = wait for the shard).
    Queue = 2,
    /// WAL record appended (buffered; GETs and volatile servers skip this).
    WalAppend = 3,
    /// In-memory apply complete (cache + backing store).
    Apply = 4,
    /// Commit gate passed: the batch's sync policy ran and the reply was
    /// released toward the connection.
    Fsync = 5,
    /// Response left the reorder buffer and was encoded onto the
    /// connection's write buffer (duration = cross-shard reorder wait).
    Reorder = 6,
    /// Response flushed to the socket.
    Flush = 7,
}

/// Number of lifecycle stages.
pub const NUM_STAGES: usize = 8;

/// Stage names, indexed by `Stage as usize` (metric label values).
pub const STAGE_NAMES: [&str; NUM_STAGES] = [
    "decode",
    "route",
    "queue",
    "wal_append",
    "apply",
    "fsync",
    "reorder",
    "flush",
];

/// All stages in order (for iteration).
pub const STAGES: [Stage; NUM_STAGES] = [
    Stage::Decode,
    Stage::Route,
    Stage::Queue,
    Stage::WalAppend,
    Stage::Apply,
    Stage::Fsync,
    Stage::Reorder,
    Stage::Flush,
];

/// The operation a trace belongs to (indexes the per-op histograms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// A GET.
    Get = 0,
    /// A SET.
    Set = 1,
    /// A DEL.
    Del = 2,
}

/// Number of op kinds.
pub const NUM_OPS: usize = 3;

/// Op names, indexed by `OpKind as usize` (metric label values).
pub const OP_NAMES: [&str; NUM_OPS] = ["get", "set", "del"];

impl OpKind {
    fn from_u8(v: u8) -> OpKind {
        match v {
            1 => OpKind::Set,
            2 => OpKind::Del,
            _ => OpKind::Get,
        }
    }
}

/// One request's lifecycle timestamps (nanoseconds since the tracer's
/// epoch; 0 = not stamped). Plain data — it is moved through channels with
/// the request it describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestTrace {
    /// The traced operation.
    pub op: OpKind,
    /// The shard that served it.
    pub shard: u32,
    /// The propagated in-band context, when the request's frame carried
    /// one and the trace was sampled. Joins this trace to the upstream
    /// hops' breakdown lines by trace id.
    pub span: Option<SpanContext>,
    /// Microseconds the request had already been in flight (origin →
    /// decode) when the span attached; 0 without a span.
    pub upstream_us: u32,
    enabled: bool,
    stamps: [u64; NUM_STAGES],
}

impl RequestTrace {
    /// A trace that records nothing (inline responses, tracing off).
    pub fn disabled() -> Self {
        Self {
            op: OpKind::Get,
            shard: 0,
            span: None,
            upstream_us: 0,
            enabled: false,
            stamps: [0; NUM_STAGES],
        }
    }

    /// Whether stamps are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The timestamp of `stage`, nanoseconds since the tracer epoch
    /// (0 = never stamped; [`Tracer::finish`] fills such holes with the
    /// previous stage's stamp).
    pub fn stamp_ns(&self, stage: Stage) -> u64 {
        self.stamps[stage as usize]
    }

    /// End-to-end time (flush − decode), after normalization.
    pub fn total_ns(&self) -> u64 {
        self.stamps[Stage::Flush as usize].saturating_sub(self.stamps[Stage::Decode as usize])
    }

    /// Fills unstamped stages with the previous stage's timestamp, so every
    /// finished trace is non-decreasing across all eight stages and a
    /// skipped stage reads as a zero-duration span.
    fn normalize(&mut self) {
        for i in 1..NUM_STAGES {
            if self.stamps[i] == 0 {
                self.stamps[i] = self.stamps[i - 1];
            }
        }
    }

    /// Renders a one-line per-stage breakdown (the slow-op log format):
    /// the op, shard, end-to-end total, and each stage's incremental cost.
    pub fn breakdown(&self) -> String {
        use std::fmt::Write;
        let mut line = format!(
            "{} shard={} total={:.1}us",
            OP_NAMES[self.op as usize].to_uppercase(),
            self.shard,
            self.total_ns() as f64 / 1e3
        );
        if let Some(span) = &self.span {
            // Same `trace=` key as every forwarding hop's HopTrace line:
            // grep the id to join the router/tier view to these stages.
            let _ = write!(
                line,
                " trace={:016x} hop={} upstream+{:.1}us",
                span.trace_id,
                span.hop,
                f64::from(self.upstream_us)
            );
        }
        let mut prev = self.stamps[0];
        for (i, name) in STAGE_NAMES.iter().enumerate().skip(1) {
            let at = self.stamps[i];
            let _ = write!(
                line,
                " {name}+{:.1}us",
                at.saturating_sub(prev) as f64 / 1e3
            );
            prev = at;
        }
        line
    }
}

/// Tracer configuration (server `ObsConfig`).
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Whether lifecycle stamps are recorded at all. Off = every stamp is a
    /// predictable branch and no clock is read.
    pub enabled: bool,
    /// Trace one request in this many (1 = every request). Sampled-out
    /// requests cost one atomic increment and carry a disabled trace.
    pub sample_every: u64,
    /// Slots in the rolling all-requests ring.
    pub ring_capacity: usize,
    /// Slots in the slow-op ring.
    pub slow_ring_capacity: usize,
    /// End-to-end threshold (microseconds) past which a request counts as a
    /// slow op: it is pushed to the slow ring and (in `serverd`) logged with
    /// its per-stage breakdown.
    pub slow_op_us: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            sample_every: 64,
            ring_capacity: 4096,
            slow_ring_capacity: 256,
            slow_op_us: 10_000,
        }
    }
}

/// What [`Tracer::finish`] reports back for an enabled trace.
#[derive(Clone, Copy, Debug)]
pub struct FinishedTrace {
    /// The normalized trace (every stage stamped, non-decreasing).
    pub trace: RequestTrace,
    /// End-to-end nanoseconds (flush − decode).
    pub total_ns: u64,
    /// Whether the total crossed the slow-op threshold.
    pub slow: bool,
}

/// The tracing engine: epoch, stage histograms, rings, and counters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    sample_every: u64,
    /// Requests offered to [`Tracer::start`] (the sampling clock).
    started: AtomicU64,
    slow_threshold_ns: u64,
    ring: TraceRing,
    slow_ring: TraceRing,
    stage_hist: [AtomicHistogram; NUM_STAGES],
    finished: AtomicU64,
    slow_ops: AtomicU64,
}

impl Tracer {
    /// A tracer with its epoch at "now".
    pub fn new(config: &ObsConfig) -> Self {
        Self {
            epoch: Instant::now(),
            enabled: config.enabled,
            sample_every: config.sample_every.max(1),
            started: AtomicU64::new(0),
            slow_threshold_ns: config.slow_op_us.saturating_mul(1_000),
            ring: TraceRing::new(config.ring_capacity.max(1)),
            slow_ring: TraceRing::new(config.slow_ring_capacity.max(1)),
            stage_hist: std::array::from_fn(|_| AtomicHistogram::new()),
            finished: AtomicU64::new(0),
            slow_ops: AtomicU64::new(0),
        }
    }

    /// Whether stamps are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer epoch, clamped to at least 1 (0 is the
    /// "unstamped" sentinel).
    pub fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// The configured sampling rate (1 = every request).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Begins a trace for one request (no stages stamped yet). Whether the
    /// trace is live is the sampling decision: with `sample_every = N`,
    /// every Nth request offered here gets a live trace and the rest get
    /// disabled ones (every stamp a predictable branch). With tracing off
    /// this is branch-only — not even the sampling counter is touched.
    pub fn start(&self, op: OpKind, shard: u32) -> RequestTrace {
        let enabled = self.enabled
            && (self.sample_every == 1
                || self
                    .started
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(self.sample_every));
        RequestTrace {
            op,
            shard,
            span: None,
            upstream_us: 0,
            enabled,
            stamps: [0; NUM_STAGES],
        }
    }

    /// Attaches a propagated in-band span to a live trace, recording how
    /// long the request had already been in flight (origin → now). A
    /// disabled (sampled-out) trace ignores the span — propagation rides
    /// the same sampling budget as everything else.
    pub fn attach_span(&self, trace: &mut RequestTrace, span: SpanContext) {
        if trace.enabled {
            trace.span = Some(span);
            trace.upstream_us = span.age_us();
        }
    }

    /// Stamps `stage` at the current instant.
    #[inline]
    pub fn stamp(&self, trace: &mut RequestTrace, stage: Stage) {
        if trace.enabled {
            trace.stamps[stage as usize] = self.now_ns();
        }
    }

    /// Stamps `stage` at an externally captured instant (the durable
    /// crate's append/fsync span hooks). Instants before the epoch clamp
    /// to 1.
    pub fn stamp_at(&self, trace: &mut RequestTrace, stage: Stage, at: Instant) {
        if trace.enabled {
            trace.stamps[stage as usize] =
                (at.saturating_duration_since(self.epoch).as_nanos() as u64).max(1);
        }
    }

    /// Completes a trace: normalizes it, feeds the stage histograms and the
    /// ring(s), and reports the end-to-end total. Returns `None` for
    /// disabled traces (tracing off, inline responses) — by design a single
    /// branch, nothing else.
    pub fn finish(&self, mut trace: RequestTrace) -> Option<FinishedTrace> {
        if !trace.enabled {
            return None;
        }
        trace.normalize();
        let mut prev = trace.stamps[0];
        for i in 1..NUM_STAGES {
            let at = trace.stamps[i];
            self.stage_hist[i].record_ns(at.saturating_sub(prev));
            prev = at;
        }
        let total_ns = trace.total_ns();
        self.finished.fetch_add(1, Ordering::Relaxed);
        self.ring.push(&trace);
        let slow = total_ns >= self.slow_threshold_ns;
        if slow {
            self.slow_ops.fetch_add(1, Ordering::Relaxed);
            self.slow_ring.push(&trace);
        }
        Some(FinishedTrace {
            trace,
            total_ns,
            slow,
        })
    }

    /// Traces finished since startup.
    pub fn finished_count(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Slow ops seen since startup.
    pub fn slow_op_count(&self) -> u64 {
        self.slow_ops.load(Ordering::Relaxed)
    }

    /// The slow-op threshold, microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_ns / 1_000
    }

    /// Snapshot of the duration histogram of `stage` (time since the
    /// previous stage).
    pub fn stage_snapshot(&self, stage: Stage) -> HistSnapshot {
        self.stage_hist[stage as usize].snapshot()
    }

    /// Drains a consistent-as-possible copy of the rolling trace ring.
    pub fn sample_traces(&self) -> Vec<RequestTrace> {
        self.ring.drain()
    }

    /// Drains the slow-op ring.
    pub fn slow_traces(&self) -> Vec<RequestTrace> {
        self.slow_ring.drain()
    }
}

/// Words per ring slot: op/shard header plus the eight stamps.
const SLOT_WORDS: usize = 1 + NUM_STAGES;

struct Slot {
    /// Seqlock version: odd while a writer is mid-store.
    ver: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

/// A lock-free multi-producer ring of completed traces. Pushing is one
/// `fetch_add` to claim a slot plus plain atomic stores bracketed by the
/// slot's version counter; draining skips slots that are mid-write or
/// changed underneath the read. See the module docs for the (accepted)
/// torn-write caveat when producers lap the ring.
pub struct TraceRing {
    slots: Vec<Slot>,
    head: AtomicU64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.pushed())
            .finish()
    }
}

impl TraceRing {
    /// A ring with `capacity` slots (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    ver: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever pushed (≥ what a drain can return).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Appends a trace, overwriting the oldest once the ring is full.
    pub fn push(&self, trace: &RequestTrace) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        slot.ver.fetch_add(1, Ordering::Acquire); // now odd: writing
        slot.words[0].store(
            u64::from(trace.op as u8) | (u64::from(trace.shard) << 8),
            Ordering::Relaxed,
        );
        for (w, &stamp) in slot.words[1..].iter().zip(trace.stamps.iter()) {
            w.store(stamp, Ordering::Relaxed);
        }
        slot.ver.fetch_add(1, Ordering::Release); // even again: complete
    }

    /// Copies out every readable trace, oldest-to-newest slot order not
    /// guaranteed (it is a ring). Mid-write or torn slots are skipped.
    pub fn drain(&self) -> Vec<RequestTrace> {
        let filled = self.pushed().min(self.slots.len() as u64) as usize;
        let mut out = Vec::with_capacity(filled);
        for slot in &self.slots[..filled] {
            let v1 = slot.ver.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 == 1 {
                continue; // never written, or a writer is mid-store
            }
            let header = slot.words[0].load(Ordering::Relaxed);
            let mut stamps = [0u64; NUM_STAGES];
            for (stamp, w) in stamps.iter_mut().zip(slot.words[1..].iter()) {
                *stamp = w.load(Ordering::Relaxed);
            }
            if slot.ver.load(Ordering::Acquire) != v1 {
                continue; // a writer raced the read
            }
            // The ring persists stamps only; a drained trace's span is
            // gone (slow-op *logging* happens at finish time, span
            // intact — the ring is the rolling statistical sample).
            out.push(RequestTrace {
                op: OpKind::from_u8((header & 0xFF) as u8),
                shard: (header >> 8) as u32,
                span: None,
                upstream_us: 0,
                enabled: true,
                stamps,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tracer(slow_us: u64) -> Tracer {
        Tracer::new(&ObsConfig {
            slow_op_us: slow_us,
            sample_every: 1,
            ..ObsConfig::default()
        })
    }

    #[test]
    fn sampling_traces_every_nth_request() {
        let t = Tracer::new(&ObsConfig {
            sample_every: 4,
            ..ObsConfig::default()
        });
        let live: Vec<bool> = (0..12)
            .map(|_| t.start(OpKind::Get, 0).is_enabled())
            .collect();
        assert_eq!(live.iter().filter(|&&e| e).count(), 3, "{live:?}");
        assert!(live[0], "the first request is always sampled");
        assert!(live[4] && live[8], "then every Nth after it");
        // Rate 1 short-circuits the counter entirely.
        let all = tracer(10);
        assert!((0..5).all(|_| all.start(OpKind::Get, 0).is_enabled()));
    }

    #[test]
    fn stamps_are_monotone_and_normalization_fills_holes() {
        let t = tracer(u64::MAX / 2_000);
        let mut trace = t.start(OpKind::Get, 3);
        t.stamp(&mut trace, Stage::Decode);
        t.stamp(&mut trace, Stage::Route);
        t.stamp(&mut trace, Stage::Queue);
        // No WalAppend (a GET), no Fsync (volatile).
        t.stamp(&mut trace, Stage::Apply);
        t.stamp(&mut trace, Stage::Reorder);
        t.stamp(&mut trace, Stage::Flush);
        let done = t.finish(trace).expect("enabled trace finishes");
        let mut prev = 0;
        for stage in STAGES {
            let at = done.trace.stamp_ns(stage);
            assert!(at >= prev, "{stage:?} went backwards: {at} < {prev}");
            assert!(at > 0, "{stage:?} left unstamped after normalize");
            prev = at;
        }
        assert_eq!(
            done.trace.stamp_ns(Stage::WalAppend),
            done.trace.stamp_ns(Stage::Queue),
            "a skipped stage inherits the previous stamp"
        );
        assert!(!done.slow);
        assert_eq!(t.finished_count(), 1);
        assert_eq!(t.slow_op_count(), 0);
    }

    #[test]
    fn slow_ops_cross_the_threshold_into_the_slow_ring() {
        let t = tracer(0); // everything is slow
        let mut trace = t.start(OpKind::Set, 1);
        t.stamp(&mut trace, Stage::Decode);
        t.stamp(&mut trace, Stage::Flush);
        let done = t.finish(trace).unwrap();
        assert!(done.slow);
        assert_eq!(t.slow_op_count(), 1);
        let slow = t.slow_traces();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].op, OpKind::Set);
        assert_eq!(slow[0].shard, 1);
        let line = slow[0].breakdown();
        assert!(line.starts_with("SET shard=1 total="), "{line}");
        assert!(line.contains(" fsync+"), "{line}");
    }

    #[test]
    fn disabled_tracer_stamps_nothing_and_finishes_to_none() {
        let t = Tracer::new(&ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        });
        let mut trace = t.start(OpKind::Del, 0);
        t.stamp(&mut trace, Stage::Decode);
        assert_eq!(trace.stamp_ns(Stage::Decode), 0);
        assert!(t.finish(trace).is_none());
        assert!(t.finish(RequestTrace::disabled()).is_none());
        assert_eq!(t.finished_count(), 0);
    }

    #[test]
    fn stage_histograms_record_interstage_durations() {
        let t = tracer(u64::MAX / 2_000);
        let mut trace = t.start(OpKind::Get, 0);
        t.stamp(&mut trace, Stage::Decode);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.stamp(&mut trace, Stage::Route);
        t.stamp(&mut trace, Stage::Flush);
        t.finish(trace).unwrap();
        let route = t.stage_snapshot(Stage::Route);
        assert_eq!(route.count, 1);
        assert!(
            route.quantile_ns(0.5).unwrap() >= 1_000_000,
            "the 2ms decode→route gap must land in the route stage"
        );
    }

    #[test]
    fn stamp_at_accepts_external_instants() {
        let t = tracer(u64::MAX / 2_000);
        let at = Instant::now();
        let mut trace = t.start(OpKind::Set, 0);
        t.stamp(&mut trace, Stage::Decode);
        t.stamp_at(&mut trace, Stage::WalAppend, at);
        assert!(trace.stamp_ns(Stage::WalAppend) >= 1);
    }

    #[test]
    fn attached_spans_ride_the_trace_into_the_breakdown() {
        use crate::span::SpanContext;
        let t = tracer(u64::MAX / 2_000);
        let mut trace = t.start(OpKind::Get, 2);
        let span = SpanContext {
            trace_id: 0x0123_4567_89AB_CDEF,
            origin_us: crate::span::unix_us_now().wrapping_sub(250),
            hop: 1,
        };
        t.attach_span(&mut trace, span);
        assert_eq!(trace.span, Some(span));
        assert!(trace.upstream_us >= 250, "upstream {}us", trace.upstream_us);
        t.stamp(&mut trace, Stage::Decode);
        t.stamp(&mut trace, Stage::Flush);
        let done = t.finish(trace).unwrap();
        let line = done.trace.breakdown();
        assert!(
            line.contains("trace=0123456789abcdef hop=1 upstream+"),
            "{line}"
        );
        // Disabled traces refuse the span (sampled-out requests stay free).
        let mut off = RequestTrace::disabled();
        t.attach_span(&mut off, span);
        assert_eq!(off.span, None);
        assert!(!off.breakdown().contains("trace="));
    }

    #[test]
    fn ring_keeps_the_newest_capacity_traces() {
        let ring = TraceRing::new(8);
        let t = tracer(u64::MAX / 2_000);
        for shard in 0..20u32 {
            let mut trace = t.start(OpKind::Get, shard);
            t.stamp(&mut trace, Stage::Decode);
            ring.push(&trace);
        }
        assert_eq!(ring.pushed(), 20);
        let drained = ring.drain();
        assert_eq!(drained.len(), 8);
        for trace in &drained {
            assert!(trace.shard >= 12, "old entries were overwritten");
        }
    }

    #[test]
    fn ring_survives_concurrent_pushers_and_drainers() {
        let ring = Arc::new(TraceRing::new(64));
        let t = Arc::new(tracer(u64::MAX / 2_000));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        let mut trace = t.start(OpKind::Get, w);
                        t.stamp(&mut trace, Stage::Decode);
                        t.stamp(&mut trace, Stage::Flush);
                        ring.push(&trace);
                    }
                })
            })
            .collect();
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut seen = 0;
                for _ in 0..50 {
                    seen += ring.drain().len();
                }
                seen
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(ring.pushed(), 20_000);
        let final_drain = ring.drain();
        assert!(!final_drain.is_empty());
        for trace in final_drain {
            assert!(trace.shard < 4, "no torn shard ids in a quiescent drain");
            assert!(trace.stamp_ns(Stage::Flush) >= trace.stamp_ns(Stage::Decode));
        }
    }
}
