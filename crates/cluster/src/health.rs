//! Router-side health probing: a background prober PINGs every slot's
//! active node and flips routing to the standby *before* the first
//! client-visible timeout (the ROADMAP's open failover item).
//!
//! The failure detector is deliberately simple and explainable: a slot
//! flips after [`ProbeConfig::fail_threshold`] *consecutive* probe
//! failures of its active address, and only if it has a standby to flip
//! to. One successful probe resets the streak. Probes are full protocol
//! round trips (connect + PING + PONG) under a hard timeout, so "the
//! port accepts but the daemon is wedged" counts as down, and a dead
//! peer costs a bounded wait, never a blocked prober.
//!
//! [`ClusterHealth`] is the shared truth: the prober writes it, every
//! per-connection [`crate::ClusterClient`] reads it before each attempt,
//! and the router's `/metrics` endpoint renders it. When health state is
//! attached, the *health* choice of active address is authoritative —
//! connection-level clients retry against it rather than flipping
//! privately, so one detector's decision moves every connection at once.

use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use p4lru_obs::{AtomicHistogram, Expo};
use p4lru_server::client::Client;

use crate::spec::ClusterSpec;

/// Prober tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Time between probe rounds.
    pub interval: Duration,
    /// Per-probe deadline (connect + PING + PONG).
    pub timeout: Duration,
    /// Consecutive failures before a slot flips to its standby.
    pub fail_threshold: u32,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(100),
            timeout: Duration::from_millis(250),
            fail_threshold: 3,
        }
    }
}

/// One slot's shared health state and counters.
#[derive(Debug)]
pub struct SlotHealth {
    /// The slot's name (its primary address on the ring).
    pub primary: String,
    /// The slot's standby, if it has one.
    pub follower: Option<String>,
    /// Which address is active: false = primary, true = follower.
    on_follower: AtomicBool,
    /// Whether the last probe of the active address succeeded.
    healthy: AtomicBool,
    fail_streak: AtomicU32,
    flips: AtomicU64,
    probes: AtomicU64,
    probe_failures: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    probe_rtt: AtomicHistogram,
}

impl SlotHealth {
    fn new(primary: String, follower: Option<String>) -> Self {
        Self {
            primary,
            follower,
            on_follower: AtomicBool::new(false),
            // Optimistic until the first probe says otherwise: routing
            // must work before (and without) a prober.
            healthy: AtomicBool::new(true),
            fail_streak: AtomicU32::new(0),
            flips: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            probe_rtt: AtomicHistogram::new(),
        }
    }

    /// The address this slot currently routes to.
    pub fn active(&self) -> &str {
        if self.on_follower.load(Ordering::Acquire) {
            self.follower.as_deref().unwrap_or(&self.primary)
        } else {
            &self.primary
        }
    }

    /// Whether the active address answered its last probe.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Failovers performed on this slot.
    pub fn flips(&self) -> u64 {
        self.flips.load(Ordering::Relaxed)
    }

    /// Flips active between primary and standby (no-op without one).
    /// Returns the new active address when a flip happened.
    pub fn flip(&self) -> Option<&str> {
        self.follower.as_ref()?;
        self.on_follower.fetch_xor(true, Ordering::AcqRel);
        self.flips.fetch_add(1, Ordering::Relaxed);
        self.fail_streak.store(0, Ordering::Relaxed);
        Some(self.active())
    }

    /// Records one routed request (router data path).
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed routed request (after retries).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies one probe result; returns `Some(new_active)` when the
    /// failure streak crossed the threshold and the slot flipped.
    fn record_probe(&self, result: &io::Result<Duration>, threshold: u32) -> Option<&str> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(rtt) => {
                self.probe_rtt.record_ns(rtt.as_nanos() as u64);
                self.fail_streak.store(0, Ordering::Relaxed);
                self.healthy.store(true, Ordering::Relaxed);
                None
            }
            Err(_) => {
                self.probe_failures.fetch_add(1, Ordering::Relaxed);
                let streak = self.fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
                self.healthy.store(false, Ordering::Relaxed);
                if streak >= threshold {
                    self.flip()
                } else {
                    None
                }
            }
        }
    }
}

/// Shared health for every slot of a cluster, keyed by slot name.
#[derive(Debug)]
pub struct ClusterHealth {
    slots: Vec<SlotHealth>,
}

impl ClusterHealth {
    /// Health state for `spec`, everything optimistic-primary.
    pub fn new(spec: &ClusterSpec) -> Self {
        let mut slots: Vec<SlotHealth> = spec
            .nodes
            .iter()
            .map(|n| SlotHealth::new(n.primary.clone(), n.follower.clone()))
            .collect();
        slots.sort_by(|a, b| a.primary.cmp(&b.primary));
        Self { slots }
    }

    /// The health entry for a slot name, if it exists.
    pub fn slot(&self, name: &str) -> Option<&SlotHealth> {
        self.slots
            .binary_search_by(|s| s.primary.as_str().cmp(name))
            .ok()
            .map(|i| &self.slots[i])
    }

    /// Every slot, sorted by name.
    pub fn slots(&self) -> &[SlotHealth] {
        &self.slots
    }
}

/// One probe: connect, PING, await PONG, all under `timeout`.
pub fn probe(addr: &str, timeout: Duration) -> io::Result<Duration> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "unresolvable address"))?;
    let mut client = Client::connect_timeout(&sock, timeout)?;
    client.ping()
}

/// The background prober driving the failure detector.
pub struct Prober {
    running: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Prober {
    /// Spawns the probe loop over `health`. Each round probes every
    /// slot's *active* address; threshold-crossing failures flip the
    /// slot and print the (greppable) flip line.
    pub fn spawn(health: Arc<ClusterHealth>, config: ProbeConfig) -> Self {
        let running = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&running);
        let handle = std::thread::Builder::new()
            .name("p4lru-prober".to_owned())
            .spawn(move || {
                while flag.load(Ordering::SeqCst) {
                    for slot in health.slots() {
                        if !flag.load(Ordering::SeqCst) {
                            return;
                        }
                        let active = slot.active().to_owned();
                        let result = probe(&active, config.timeout);
                        if let Some(new_active) = slot.record_probe(&result, config.fail_threshold)
                        {
                            // The flip line cluster tooling (and CI) greps.
                            println!(
                                "[p4lru-prober] slot {} flipped {} -> {} after {} failed probes",
                                slot.primary, active, new_active, config.fail_threshold
                            );
                        }
                    }
                    std::thread::sleep(config.interval);
                }
            })
            .expect("spawn prober thread");
        Self {
            running,
            handle: Some(handle),
        }
    }

    /// Stops the loop and joins the thread.
    pub fn stop(mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One row of the counter-family table: name, help text, and the
/// slot-field reader it renders.
type CounterRow = (&'static str, &'static str, fn(&SlotHealth) -> u64);

/// Renders the router's per-slot Prometheus families from shared health
/// (the `p4lru_routerd --metrics-addr` endpoint body).
pub fn router_families(e: &mut Expo, health: &ClusterHealth) {
    e.meta(
        "p4lru_router_slot_healthy",
        "gauge",
        "1 when the slot's active address answered its last probe",
    );
    for s in health.slots() {
        e.sample(
            "p4lru_router_slot_healthy",
            &[("slot", &s.primary)],
            if s.is_healthy() { 1.0 } else { 0.0 },
        );
    }
    e.meta(
        "p4lru_router_slot_on_follower",
        "gauge",
        "1 when the slot currently routes to its standby",
    );
    for s in health.slots() {
        e.sample(
            "p4lru_router_slot_on_follower",
            &[("slot", &s.primary)],
            if s.on_follower.load(Ordering::Relaxed) {
                1.0
            } else {
                0.0
            },
        );
    }
    let counters: [CounterRow; 5] = [
        (
            "p4lru_router_slot_requests_total",
            "requests routed through the slot",
            |s| s.requests.load(Ordering::Relaxed),
        ),
        (
            "p4lru_router_slot_errors_total",
            "requests that failed after retries",
            |s| s.errors.load(Ordering::Relaxed),
        ),
        (
            "p4lru_router_slot_flips_total",
            "failovers between primary and standby",
            |s| s.flips(),
        ),
        (
            "p4lru_router_slot_probes_total",
            "health probes sent to the slot's active address",
            |s| s.probes.load(Ordering::Relaxed),
        ),
        (
            "p4lru_router_slot_probe_failures_total",
            "health probes that failed or timed out",
            |s| s.probe_failures.load(Ordering::Relaxed),
        ),
    ];
    for (name, help, read) in counters {
        e.meta(name, "counter", help);
        for s in health.slots() {
            e.sample(name, &[("slot", &s.primary)], read(s) as f64);
        }
    }
    e.meta(
        "p4lru_router_probe_rtt_seconds",
        "histogram",
        "probe round-trip time",
    );
    for s in health.slots() {
        e.histogram(
            "p4lru_router_probe_rtt_seconds",
            &[("slot", &s.primary)],
            &s.probe_rtt.snapshot(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::parse("127.0.0.1:9101~127.0.0.1:9201,127.0.0.1:9102").unwrap()
    }

    #[test]
    fn threshold_consecutive_failures_flip_only_slots_with_standbys() {
        let health = ClusterHealth::new(&spec());
        let with_standby = health.slot("127.0.0.1:9101").unwrap();
        let bare = health.slot("127.0.0.1:9102").unwrap();
        let fail: io::Result<Duration> = Err(io::ErrorKind::ConnectionRefused.into());
        let ok: io::Result<Duration> = Ok(Duration::from_micros(80));

        assert!(with_standby.record_probe(&fail, 3).is_none());
        assert!(with_standby.record_probe(&fail, 3).is_none());
        assert_eq!(
            with_standby.record_probe(&fail, 3),
            Some("127.0.0.1:9201"),
            "third consecutive failure flips"
        );
        assert_eq!(with_standby.active(), "127.0.0.1:9201");
        assert_eq!(with_standby.flips(), 1);
        assert!(!with_standby.is_healthy());

        // A success heals and resets the streak.
        assert!(with_standby.record_probe(&ok, 3).is_none());
        assert!(with_standby.is_healthy());
        assert!(with_standby.record_probe(&fail, 3).is_none());
        assert!(with_standby.record_probe(&fail, 3).is_none());

        // No standby: the streak grows but routing cannot move.
        for _ in 0..10 {
            assert!(bare.record_probe(&fail, 3).is_none());
        }
        assert_eq!(bare.active(), "127.0.0.1:9102");
        assert_eq!(bare.flips(), 0);
    }

    #[test]
    fn an_interleaved_success_resets_the_streak() {
        let health = ClusterHealth::new(&spec());
        let slot = health.slot("127.0.0.1:9101").unwrap();
        let fail: io::Result<Duration> = Err(io::ErrorKind::TimedOut.into());
        let ok: io::Result<Duration> = Ok(Duration::from_micros(50));
        for _ in 0..5 {
            assert!(slot.record_probe(&fail, 3).is_none() || slot.flips() > 0);
            slot.record_probe(&ok, 3);
        }
        assert_eq!(slot.flips(), 0, "2 failures never reach a threshold of 3");
    }

    #[test]
    fn probing_a_dead_port_fails_within_the_timeout() {
        // A port nothing listens on: refused immediately on loopback.
        let start = std::time::Instant::now();
        let e = probe("127.0.0.1:1", Duration::from_millis(200)).unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(2), "bounded: {e}");
    }

    #[test]
    fn families_render_per_slot() {
        let health = ClusterHealth::new(&spec());
        health.slot("127.0.0.1:9101").unwrap().record_request();
        let mut e = Expo::new();
        router_families(&mut e, &health);
        let text = e.finish();
        assert!(
            text.contains("p4lru_router_slot_healthy{slot=\"127.0.0.1:9101\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("p4lru_router_slot_requests_total{slot=\"127.0.0.1:9101\"} 1"),
            "{text}"
        );
        assert!(text.contains("p4lru_router_slot_probes_total"), "{text}");
        assert!(
            text.contains("p4lru_router_probe_rtt_seconds_bucket"),
            "{text}"
        );
    }
}
