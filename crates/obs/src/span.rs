//! In-band trace propagation: a [`SpanContext`] rides *inside* the wire
//! frame across hops (router → tier → server), the way in-band network
//! telemetry rides the data packets it describes — no sidecar, no second
//! connection, telemetry shares the request path.
//!
//! The context is deliberately tiny and fixed-size ([`SPAN_BYTES`] = 16):
//! a 64-bit trace id (grep it across every hop's log), a truncated
//! origin timestamp (unix microseconds mod 2³², wrap-safe deltas good for
//! ~71 minutes — orders of magnitude past any request lifetime), a hop
//! counter, and three reserved zero bytes. Frames carrying one set a flag
//! bit in the frame magic; plain frames are byte-identical to the
//! pre-trace protocol, so old clients and new servers interoperate in
//! both directions.
//!
//! Each forwarding hop (router, tier) builds a [`HopTrace`] around the
//! context — named duration segments like `queue` and `upstream` — and
//! prints its breakdown when the hop total crosses its slow-op threshold.
//! The server stamps its eight [`crate::trace::Stage`]s into the *same*
//! trace (the context attaches to the sampled `RequestTrace`), so one
//! trace id joins the router's queue+RTT view to the server's
//! decode→flush view.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Encoded size of a [`SpanContext`] on the wire.
pub const SPAN_BYTES: usize = 16;

/// The in-band trace context carried inside flagged wire frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// Random-ish id shared by every hop of one request.
    pub trace_id: u64,
    /// Unix microseconds (mod 2³²) when the first hop originated the
    /// trace. Deltas use wrapping arithmetic, so the truncation only
    /// matters past ~71 minutes of in-flight time.
    pub origin_us: u32,
    /// Hops traversed so far (the originator is hop 0; each forwarder
    /// increments).
    pub hop: u8,
}

/// Unix time truncated to microseconds mod 2³² (the `origin_us` clock).
pub fn unix_us_now() -> u32 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_micros() as u32)
        .unwrap_or(0)
}

impl SpanContext {
    /// Originates a trace at hop 0, stamped "now".
    pub fn originate(trace_id: u64) -> Self {
        Self {
            trace_id,
            origin_us: unix_us_now(),
            hop: 0,
        }
    }

    /// The context to forward upstream: same trace, one more hop.
    pub fn next_hop(self) -> Self {
        Self {
            hop: self.hop.saturating_add(1),
            ..self
        }
    }

    /// Microseconds since the trace was originated (wrap-safe).
    pub fn age_us(&self) -> u32 {
        unix_us_now().wrapping_sub(self.origin_us)
    }

    /// Encodes to the 16-byte wire form (LE fields, 3 reserved zero
    /// bytes).
    pub fn encode(&self) -> [u8; SPAN_BYTES] {
        let mut buf = [0u8; SPAN_BYTES];
        buf[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        buf[8..12].copy_from_slice(&self.origin_us.to_le_bytes());
        buf[12] = self.hop;
        buf
    }

    /// Decodes the 16-byte wire form; `None` if `buf` is not exactly
    /// [`SPAN_BYTES`] long.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() != SPAN_BYTES {
            return None;
        }
        Some(Self {
            trace_id: u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")),
            origin_us: u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")),
            hop: buf[12],
        })
    }
}

/// Allocates process-unique trace ids: a per-process random base (from
/// the OS via `RandomState`-free address entropy + time) mixed with a
/// counter, so two routers started in the same microsecond still
/// diverge.
#[derive(Debug)]
pub struct TraceIdGen {
    base: u64,
    next: AtomicU64,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Default for TraceIdGen {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceIdGen {
    /// A generator seeded from wall-clock nanoseconds and a stack
    /// address (std-only entropy; ids need uniqueness, not secrecy).
    pub fn new() -> Self {
        let t = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let marker = 0u8;
        let addr = std::ptr::addr_of!(marker) as u64;
        Self {
            base: mix(t ^ mix(addr)),
            next: AtomicU64::new(0),
        }
    }

    /// The next trace id (never 0 — 0 reads as "no trace" in logs).
    pub fn next_id(&self) -> u64 {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        mix(self.base ^ n) | 1
    }
}

/// Decides which span a forwarding hop (router, tier) works under: a
/// client's own context always propagates, and 1 in `every` untraced
/// requests gets a freshly originated one.
#[derive(Debug)]
pub struct SpanSampler {
    ids: TraceIdGen,
    every: u64,
    /// Untraced requests seen so far (the sampling clock).
    seen: AtomicU64,
}

impl SpanSampler {
    /// A sampler originating a trace for 1 in `every` untraced requests
    /// (0 never originates).
    pub fn new(every: u64) -> Self {
        Self {
            ids: TraceIdGen::new(),
            every,
            seen: AtomicU64::new(0),
        }
    }

    /// The span for this request: `incoming` advanced one hop, or a new
    /// trace when the sampling clock says so.
    pub fn span_for(&self, incoming: Option<SpanContext>) -> Option<SpanContext> {
        if let Some(span) = incoming {
            return Some(span.next_hop());
        }
        if self.every == 0 {
            return None;
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(self.every)
            .then(|| SpanContext::originate(self.ids.next_id()))
    }
}

/// The role a hop plays in the request path (label in breakdowns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopKind {
    /// The cluster router (`p4lru_routerd`).
    Router,
    /// The switch-tier proxy (`p4lru_tierd`).
    Tier,
    /// The cache server itself (`p4lru_serverd`).
    Server,
}

impl HopKind {
    /// Uppercase label (breakdown line prefix).
    pub fn label(&self) -> &'static str {
        match self {
            HopKind::Router => "ROUTER",
            HopKind::Tier => "TIER",
            HopKind::Server => "SERVER",
        }
    }
}

/// Per-hop segment budget; hops have few stages (queue, upstream, …).
const MAX_SEGMENTS: usize = 4;

/// One hop's view of a trace: the context plus named duration segments,
/// renderable as a slow-op breakdown line that shares its trace id with
/// every other hop's line.
#[derive(Clone, Debug)]
pub struct HopTrace {
    /// The propagated context this hop saw (or originated).
    pub ctx: SpanContext,
    /// What this hop is.
    pub kind: HopKind,
    segments: [(&'static str, u64); MAX_SEGMENTS],
    len: usize,
}

impl HopTrace {
    /// A hop trace with no segments yet.
    pub fn new(ctx: SpanContext, kind: HopKind) -> Self {
        Self {
            ctx,
            kind,
            segments: [("", 0); MAX_SEGMENTS],
            len: 0,
        }
    }

    /// Appends a named segment (nanoseconds). Segments past the fixed
    /// budget are dropped — hops have a known, small stage count.
    pub fn segment(&mut self, name: &'static str, ns: u64) {
        if self.len < MAX_SEGMENTS {
            self.segments[self.len] = (name, ns);
            self.len += 1;
        }
    }

    /// Sum of all segments, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.segments[..self.len].iter().map(|(_, ns)| ns).sum()
    }

    /// One-line breakdown: kind, trace id, hop, total, then each
    /// segment's incremental cost — same shape as the server's
    /// per-stage slow-op line, so the two grep and read together.
    pub fn breakdown(&self) -> String {
        use std::fmt::Write;
        let mut line = format!(
            "{} trace={:016x} hop={} total={:.1}us",
            self.kind.label(),
            self.ctx.trace_id,
            self.ctx.hop,
            self.total_ns() as f64 / 1e3
        );
        for (name, ns) in &self.segments[..self.len] {
            let _ = write!(line, " {name}+{:.1}us", *ns as f64 / 1e3);
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_roundtrips_through_the_wire_form() {
        let ctx = SpanContext {
            trace_id: 0xDEAD_BEEF_0012_3456,
            origin_us: 0xFFFF_FFF0,
            hop: 3,
        };
        let bytes = ctx.encode();
        assert_eq!(bytes.len(), SPAN_BYTES);
        assert_eq!(&bytes[13..], &[0, 0, 0], "reserved bytes stay zero");
        assert_eq!(SpanContext::decode(&bytes), Some(ctx));
        assert_eq!(SpanContext::decode(&bytes[..15]), None);
        assert_eq!(SpanContext::decode(&[0; 17]), None);
    }

    #[test]
    fn next_hop_increments_and_saturates() {
        let ctx = SpanContext::originate(7);
        assert_eq!(ctx.hop, 0);
        assert_eq!(ctx.next_hop().hop, 1);
        assert_eq!(ctx.next_hop().trace_id, 7, "trace id is preserved");
        let deep = SpanContext {
            hop: u8::MAX,
            ..ctx
        };
        assert_eq!(deep.next_hop().hop, u8::MAX);
    }

    #[test]
    fn age_survives_the_u32_wrap() {
        let now = unix_us_now();
        let ctx = SpanContext {
            trace_id: 1,
            origin_us: now.wrapping_sub(500),
            hop: 0,
        };
        let age = ctx.age_us();
        assert!((500..5_000_000).contains(&age), "age was {age}");
        // Origin just before the wrap, "now" just after: delta stays small.
        let pre_wrap = SpanContext {
            trace_id: 1,
            origin_us: u32::MAX - 10,
            hop: 0,
        };
        let delta = 25u32.wrapping_sub(pre_wrap.origin_us);
        assert_eq!(delta, 36);
    }

    #[test]
    fn trace_ids_are_unique_and_never_zero() {
        let generator = TraceIdGen::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = generator.next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id:#x}");
        }
    }

    #[test]
    fn sampler_forwards_incoming_spans_and_originates_one_in_n() {
        let incoming = SpanContext::originate(9);
        let originated = |every: u64| {
            let sampler = SpanSampler::new(every);
            // An incoming span advances one hop, whatever the rate, and
            // leaves the sampling clock alone.
            assert_eq!(sampler.span_for(Some(incoming)), Some(incoming.next_hop()));
            (0..70).filter(|_| sampler.span_for(None).is_some()).count()
        };
        assert_eq!(originated(0), 0);
        assert_eq!(originated(1), 70);
        assert_eq!(originated(7), 10);
        let sampler = SpanSampler::new(3);
        let pattern: Vec<bool> = (0..6).map(|_| sampler.span_for(None).is_some()).collect();
        assert_eq!(pattern, [true, false, false, true, false, false]);
        assert_eq!(SpanSampler::new(1).span_for(None).map(|s| s.hop), Some(0));
    }

    #[test]
    fn hop_breakdown_prints_kind_trace_and_segments() {
        let ctx = SpanContext {
            trace_id: 0xABCD,
            origin_us: 0,
            hop: 0,
        };
        let mut hop = HopTrace::new(ctx, HopKind::Router);
        hop.segment("queue", 1_500);
        hop.segment("upstream", 2_000_000);
        assert_eq!(hop.total_ns(), 2_001_500);
        let line = hop.breakdown();
        assert!(
            line.starts_with("ROUTER trace=000000000000abcd hop=0"),
            "{line}"
        );
        assert!(line.contains("queue+1.5us"), "{line}");
        assert!(line.contains("upstream+2000.0us"), "{line}");
    }

    #[test]
    fn segments_past_the_budget_are_dropped_not_panicked() {
        let mut hop = HopTrace::new(SpanContext::originate(1), HopKind::Tier);
        for _ in 0..10 {
            hop.segment("s", 1);
        }
        assert_eq!(hop.total_ns(), MAX_SEGMENTS as u64);
    }
}
