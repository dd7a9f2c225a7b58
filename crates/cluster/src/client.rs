//! The cluster client: ring routing plus failover-aware retries.
//!
//! A [`ClusterClient`] owns one lazy connection per cluster slot and routes
//! every key through the shared [`HashRing`]. Failure handling is scoped to
//! the slot: when a node stops answering — the connection drops, or a
//! not-yet-promoted follower answers `READONLY` — the client flips the
//! slot's active address between its primary and standby and retries under
//! a bounded, jittered [`Backoff`]. Keys never move between slots on
//! failure: the ring name is the *slot*, and failover only swaps which
//! socket the slot currently answers on (DESIGN.md §14).
//!
//! Errors that a retry cannot fix (a malformed request, an oversized
//! value) surface immediately; only connection-shaped failures and
//! `READONLY` redirects consume the retry budget.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use p4lru_obs::SpanContext;
use p4lru_server::client::Client;
use p4lru_server::metrics::StatsReport;

use crate::backoff::{Backoff, RetryPolicy};
use crate::health::ClusterHealth;
use crate::ring::HashRing;
use crate::spec::ClusterSpec;

/// One slot's connection state: which address is believed live, and the
/// cached connection to it.
struct Slot {
    primary: String,
    follower: Option<String>,
    active: String,
    client: Option<Client>,
    /// Failovers performed on this slot (flips of the active address).
    flips: u64,
}

impl Slot {
    fn flip(&mut self) {
        if let Some(f) = &self.follower {
            self.active = if self.active == self.primary {
                f.clone()
            } else {
                self.primary.clone()
            };
            self.flips += 1;
        }
    }
}

/// A routing client over a static [`ClusterSpec`].
pub struct ClusterClient {
    ring: HashRing,
    slots: HashMap<String, Slot>,
    retry: RetryPolicy,
    /// Shared prober-maintained health. When present its choice of
    /// active address is authoritative: this client adopts it before
    /// every attempt instead of flipping privately, so the prober's
    /// pre-timeout failover moves every connection at once.
    health: Option<Arc<ClusterHealth>>,
}

/// True for errors where trying the slot's other address can help: the
/// connection died, the peer vanished, or a follower told us it is not
/// the primary.
fn is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::NotConnected
            | io::ErrorKind::AddrNotAvailable
    ) || e.to_string().contains("READONLY")
}

impl ClusterClient {
    /// Builds a client over `spec`; connections open lazily on first use.
    pub fn new(spec: &ClusterSpec, retry: RetryPolicy) -> Self {
        Self::build(spec, retry, None)
    }

    /// Builds a client that defers failover decisions to shared
    /// prober-maintained health (the router's per-connection clients).
    pub fn with_health(spec: &ClusterSpec, retry: RetryPolicy, health: Arc<ClusterHealth>) -> Self {
        Self::build(spec, retry, Some(health))
    }

    fn build(spec: &ClusterSpec, retry: RetryPolicy, health: Option<Arc<ClusterHealth>>) -> Self {
        let mut slots = HashMap::new();
        for node in &spec.nodes {
            slots.insert(
                node.primary.clone(),
                Slot {
                    primary: node.primary.clone(),
                    follower: node.follower.clone(),
                    active: node.primary.clone(),
                    client: None,
                    flips: 0,
                },
            );
        }
        Self {
            ring: spec.ring(),
            slots,
            retry,
            health,
        }
    }

    /// The slot a key routes to.
    pub fn node_for(&self, key: u64) -> &str {
        self.ring
            .node_for(key)
            .expect("a parsed ClusterSpec is never empty")
    }

    /// Slot names (ring order is irrelevant; these are sorted).
    pub fn nodes(&self) -> &[String] {
        self.ring.nodes()
    }

    /// Total failover flips across all slots.
    pub fn failovers(&self) -> u64 {
        self.slots.values().map(|s| s.flips).sum()
    }

    /// Reads a key from its slot.
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        self.get_spanned(key, None)
    }

    /// Writes a key to its slot.
    pub fn set(&mut self, key: u64, value: &[u8]) -> io::Result<()> {
        self.set_spanned(key, value, None)
    }

    /// Deletes a key from its slot.
    pub fn del(&mut self, key: u64) -> io::Result<bool> {
        self.del_spanned(key, None)
    }

    /// Reads a key, forwarding an in-band trace context upstream.
    pub fn get_spanned(
        &mut self,
        key: u64,
        span: Option<SpanContext>,
    ) -> io::Result<Option<Vec<u8>>> {
        let name = self.node_for(key).to_owned();
        self.on_slot(&name, |c| {
            c.set_next_span(span);
            c.get(key)
        })
    }

    /// Writes a key, forwarding an in-band trace context upstream.
    pub fn set_spanned(
        &mut self,
        key: u64,
        value: &[u8],
        span: Option<SpanContext>,
    ) -> io::Result<()> {
        let name = self.node_for(key).to_owned();
        self.on_slot(&name, |c| {
            c.set_next_span(span);
            c.set(key, value)
        })
    }

    /// Deletes a key, forwarding an in-band trace context upstream.
    pub fn del_spanned(&mut self, key: u64, span: Option<SpanContext>) -> io::Result<bool> {
        let name = self.node_for(key).to_owned();
        self.on_slot(&name, |c| {
            c.set_next_span(span);
            c.del(key)
        })
    }

    /// Fetches every slot's stats report, labeled by slot name.
    pub fn stats_all(&mut self) -> io::Result<Vec<(String, StatsReport)>> {
        let names: Vec<String> = self.ring.nodes().to_vec();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let report = self.on_slot(&name, |c| c.stats())?;
            out.push((name, report));
        }
        Ok(out)
    }

    /// Runs `f` against the slot's live node, flipping between its
    /// primary and standby under the retry policy until `f` succeeds,
    /// the budget runs out, or the error is one retrying cannot fix.
    pub fn on_slot<T>(
        &mut self,
        name: &str,
        mut f: impl FnMut(&mut Client) -> io::Result<T>,
    ) -> io::Result<T> {
        let slot = self
            .slots
            .get_mut(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no slot {name}")))?;
        let shared = self.health.as_deref().and_then(|h| h.slot(name));
        if let Some(s) = shared {
            s.record_request();
        }
        let mut backoff = Backoff::new(self.retry);
        loop {
            // Under shared health the prober's choice is authoritative:
            // adopt it (dropping the stale connection) before every try.
            if let Some(s) = shared {
                let active = s.active();
                if slot.active != active {
                    slot.active = active.to_owned();
                    slot.client = None;
                }
            }
            let attempt = match &mut slot.client {
                Some(c) => f(c),
                None => match Client::connect(slot.active.as_str()) {
                    Ok(c) => f(slot.client.insert(c)),
                    Err(e) => Err(e),
                },
            };
            match attempt {
                Ok(v) => return Ok(v),
                Err(e) => {
                    // The connection's framing state is suspect after any
                    // error; reconnect rather than resynchronize.
                    slot.client = None;
                    if !is_retryable(&e) {
                        if let Some(s) = shared {
                            s.record_error();
                        }
                        return Err(e);
                    }
                    if shared.is_none() {
                        slot.flip();
                    }
                    match backoff.next_delay() {
                        Some(d) => std::thread::sleep(d),
                        None => {
                            if let Some(s) = shared {
                                s.record_error();
                            }
                            return Err(e);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_shaped_errors_retry_and_payload_errors_do_not() {
        for kind in [
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::UnexpectedEof,
        ] {
            assert!(is_retryable(&io::Error::new(kind, "x")), "{kind:?}");
        }
        assert!(is_retryable(&io::Error::new(
            io::ErrorKind::InvalidData,
            "SET: unexpected response Err(\"READONLY follower; primary is 127.0.0.1:9\")",
        )));
        assert!(!is_retryable(&io::Error::new(
            io::ErrorKind::InvalidData,
            "SET: unexpected response Err(\"value too large\")",
        )));
    }

    #[test]
    fn routing_is_stable_per_key() {
        let spec = ClusterSpec::parse("127.0.0.1:1,127.0.0.1:2,127.0.0.1:3").unwrap();
        let client = ClusterClient::new(&spec, RetryPolicy::default());
        for key in 0..200u64 {
            assert_eq!(client.node_for(key), client.node_for(key));
        }
    }
}
