//! The two-tier gateway: a client-side driver that runs the switch tier
//! in front of a live serverd connection.
//!
//! Each GET consults the [`SwitchTier`] first. A switch hit is served
//! locally and charged the modeled hit RTT ([`SwitchHop::hit_rtt`] — wire
//! plus one pipeline traversal); a miss is forwarded over the real TCP
//! client, charged the modeled direct RTT *plus* the measured server
//! round-trip, and the fetched value is admitted under the epoch guard.
//! SET/DEL invalidate the switch copy before forwarding (DESIGN.md §11).
//!
//! The latency histogram therefore mixes a modeled wire with a measured
//! server — the comparison a server-only baseline must match by charging
//! [`SwitchHop::direct_rtt`] on every operation.

use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Instant;

use p4lru_kvstore::Record;
use p4lru_netsim::SwitchHop;
use p4lru_obs::HistSnapshot;
use p4lru_server::shard::record_from_bytes;
use p4lru_server::{Client, StatsReport};

use crate::counters::TierCounters;
use crate::switch::{SwitchTier, SwitchTierConfig};

/// Modeled wire size of a request frame (opcode, key, framing).
pub const REQUEST_BYTES: u32 = 64;
/// Modeled wire size of a response frame (64-byte record plus framing).
pub const RESPONSE_BYTES: u32 = 128;

/// Gateway configuration: switch sizing plus the latency model.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Switch-tier sizing.
    pub switch: SwitchTierConfig,
    /// The client→switch→server latency model.
    pub hop: SwitchHop,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            switch: SwitchTierConfig::default(),
            hop: SwitchHop::testbed(),
        }
    }
}

/// A switch tier fronting one serverd connection.
pub struct TierGateway {
    switch: SwitchTier,
    upstream: Client,
    hop: SwitchHop,
    latency: HistSnapshot,
}

impl TierGateway {
    /// Connects to a running serverd and builds the switch tier in front.
    pub fn connect(addr: impl ToSocketAddrs, config: &GatewayConfig) -> io::Result<Self> {
        Ok(Self {
            switch: SwitchTier::new(&config.switch),
            upstream: Client::connect(addr)?,
            hop: config.hop.clone(),
            latency: HistSnapshot::empty(),
        })
    }

    /// Reads a key: switch first, server on a miss (with admission).
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        self.switch.counters().get();
        if let Some((_level, record)) = self.switch.lookup(key) {
            self.latency
                .record_ns(self.hop.hit_rtt(REQUEST_BYTES, RESPONSE_BYTES));
            return Ok(Some(record.to_vec()));
        }
        let epoch = self.switch.epoch();
        self.switch.counters().forward();
        let started = Instant::now();
        let value = self.upstream.get(key)?;
        let server_ns = started.elapsed().as_nanos() as u64;
        if let Some(value) = &value {
            self.switch.admit(key, record_from_bytes(value), epoch);
        }
        self.latency
            .record_ns(self.hop.direct_rtt(REQUEST_BYTES, RESPONSE_BYTES) + server_ns);
        Ok(value)
    }

    /// Writes a key: invalidate the switch copy, then forward.
    pub fn set(&mut self, key: u64, value: &[u8]) -> io::Result<()> {
        self.switch.counters().set();
        self.switch.invalidate(key);
        self.switch.counters().forward();
        let started = Instant::now();
        self.upstream.set(key, value)?;
        let server_ns = started.elapsed().as_nanos() as u64;
        self.latency
            .record_ns(self.hop.direct_rtt(REQUEST_BYTES, RESPONSE_BYTES) + server_ns);
        Ok(())
    }

    /// Deletes a key: invalidate the switch copy, then forward.
    pub fn del(&mut self, key: u64) -> io::Result<bool> {
        self.switch.counters().del();
        self.switch.invalidate(key);
        self.switch.counters().forward();
        let started = Instant::now();
        let existed = self.upstream.del(key)?;
        let server_ns = started.elapsed().as_nanos() as u64;
        self.latency
            .record_ns(self.hop.direct_rtt(REQUEST_BYTES, RESPONSE_BYTES) + server_ns);
        Ok(existed)
    }

    /// Fetches the server's STATS report with this tier's section attached.
    pub fn stats(&mut self) -> io::Result<StatsReport> {
        let report = self.upstream.stats()?;
        let snapshot = self.switch.counters().snapshot(self.switch.levels());
        Ok(report.with_tier(snapshot))
    }

    /// The tier's counters.
    pub fn counters(&self) -> &Arc<TierCounters> {
        self.switch.counters()
    }

    /// The switch tier itself (tests, diagnostics).
    pub fn switch(&self) -> &SwitchTier {
        &self.switch
    }

    /// Mutable access to the switch tier — lets tests replay the miss path
    /// step by step (e.g. deliver a late reply by hand).
    pub fn switch_mut(&mut self) -> &mut SwitchTier {
        &mut self.switch
    }

    /// Client-observed latency (modeled wire + measured server time).
    pub fn latency(&self) -> &HistSnapshot {
        &self.latency
    }

    /// The underlying server connection (for SHUTDOWN and raw access).
    pub fn upstream_mut(&mut self) -> &mut Client {
        &mut self.upstream
    }
}

/// A server-only baseline driver charging the same modeled wire on every
/// operation ([`SwitchHop::direct_rtt`] — the switch forwards everything),
/// so its latency histogram is directly comparable to [`TierGateway`]'s.
pub struct DirectDriver {
    upstream: Client,
    hop: SwitchHop,
    latency: HistSnapshot,
}

impl DirectDriver {
    /// Connects to a running serverd.
    pub fn connect(addr: impl ToSocketAddrs, hop: SwitchHop) -> io::Result<Self> {
        Ok(Self {
            upstream: Client::connect(addr)?,
            hop,
            latency: HistSnapshot::empty(),
        })
    }

    fn charge(&mut self, started: Instant) {
        let server_ns = started.elapsed().as_nanos() as u64;
        self.latency
            .record_ns(self.hop.direct_rtt(REQUEST_BYTES, RESPONSE_BYTES) + server_ns);
    }

    /// Reads a key.
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        let started = Instant::now();
        let value = self.upstream.get(key)?;
        self.charge(started);
        Ok(value)
    }

    /// Writes a key.
    pub fn set(&mut self, key: u64, value: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        self.upstream.set(key, value)?;
        self.charge(started);
        Ok(())
    }

    /// Deletes a key.
    pub fn del(&mut self, key: u64) -> io::Result<bool> {
        let started = Instant::now();
        let existed = self.upstream.del(key)?;
        self.charge(started);
        Ok(existed)
    }

    /// Fetches the server's STATS report.
    pub fn stats(&mut self) -> io::Result<StatsReport> {
        self.upstream.stats()
    }

    /// Client-observed latency (modeled wire + measured server time).
    pub fn latency(&self) -> &HistSnapshot {
        &self.latency
    }

    /// The underlying server connection.
    pub fn upstream_mut(&mut self) -> &mut Client {
        &mut self.upstream
    }
}

/// A `Record` view of the bytes a SET through the tier would leave in both
/// tiers (the server pads/truncates to its fixed record size; the switch
/// must cache the same image or a later hit would diverge from the server).
pub fn canonical_record(value: &[u8]) -> Record {
    record_from_bytes(value)
}
