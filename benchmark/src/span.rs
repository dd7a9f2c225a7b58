//! Spans recorded by the traced run: kept in memory, written out as JSONL
//! when the run ends, and reduced to per-layer self time.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One span. `parent == 0` marks a root (ids start at 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within a trace, starting at 1.
    pub id: u64,
    /// The span that caused this one, or 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `core.probe`.
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// Operations the span covers (a batch span covers many).
    pub ops: u64,
}

/// Self time and operation count summed over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Span duration minus the part its children cover, summed.
    pub self_ns: u64,
    /// Operations summed.
    pub ops: u64,
    /// Spans summed over.
    pub spans: u64,
}

impl LayerTotal {
    /// Self nanoseconds per operation (0 when no operation ran).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.ops as f64
        }
    }
}

/// An in-memory trace.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `at` in nanoseconds since the trace began (0 for earlier instants).
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        ops: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            ops,
        });
        id
    }

    /// Opens a span whose end is not known yet (a batch that will parent
    /// its layers); close it with [`Trace::close`].
    pub fn open(&mut self, parent: u64, name: &'static str, ops: u64) -> u64 {
        let now = self.now_ns();
        self.record(parent, name, now, now, ops)
    }

    /// Ends a span opened with [`Trace::open`] now.
    pub fn close(&mut self, id: u64) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Times `f` as one span under `parent`.
    pub fn time<T>(
        &mut self,
        parent: u64,
        name: &'static str,
        ops: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(parent, name, start, end, ops);
        out
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        w.flush()
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its children cover. Children that overlap each other or stick out of
/// the parent are counted once and only inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&s.id) else {
                return total;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            total - covered
        })
        .collect()
}

/// Self time and operations summed by span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(span.name).or_default();
        t.self_ns += self_ns;
        t.ops += span.ops;
        t.spans += 1;
    }
    totals
}
