//! The two-tier vs server-only comparison harness behind `tier_bench` and
//! the CI smoke: spawn a fresh in-process serverd per measured point, drive
//! the same deterministic workload through a [`TierGateway`] (two-tier) or
//! a [`DirectDriver`] (server-only), and report hit rates, offload, and
//! client tail latency.
//!
//! Both deployments charge the same modeled wire ([`SwitchHop`]) so the
//! latency columns differ only where the paper says they should: switch
//! hits skip the switch↔server leg and the server's service time.

use std::io;

use p4lru_kvstore::db::record_for;
use p4lru_netsim::SwitchHop;
use p4lru_server::{Server, ServerConfig, StatsReport};
use p4lru_traffic::ycsb::Op;
use p4lru_traffic::{HotFlipConfig, ScanConfig};

use crate::gateway::{DirectDriver, GatewayConfig, TierGateway};
use crate::switch::SwitchTierConfig;

/// The workloads the comparison runs (ISSUE acceptance: YCSB-B, Zipf
/// hot-key-flip, sequential scan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-B: Zipf(0.9) keys, 95% reads, static hot set.
    YcsbB,
    /// Zipf(0.9) with the hot set rotating mid-run.
    HotFlip,
    /// Sequential sweep of the key space (LRU-adversarial).
    Scan,
}

impl Workload {
    /// Every workload, in figure order.
    pub const ALL: [Workload; 3] = [Workload::YcsbB, Workload::HotFlip, Workload::Scan];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::YcsbB => "ycsb_b",
            Workload::HotFlip => "zipf_hot_flip",
            Workload::Scan => "scan",
        }
    }
}

/// One comparison's sizing. The server is configured identically in both
/// deployments; two-tier *adds* the switch in front.
#[derive(Clone, Debug)]
pub struct TierBenchConfig {
    /// Key-space size (the server pre-populates `0..items`).
    pub items: u64,
    /// Operations driven per deployment per workload.
    pub ops: usize,
    /// Hot-set rotation period for [`Workload::HotFlip`].
    pub flip_every: u64,
    /// Server shards.
    pub shards: usize,
    /// Cache units per server shard (front-cache capacity is
    /// `shards * units * 3` entries).
    pub units_per_shard: usize,
    /// Switch-tier sizing (two-tier only).
    pub switch: SwitchTierConfig,
    /// The modeled wire both deployments are charged.
    pub hop: SwitchHop,
    /// Workload and hash seed.
    pub seed: u64,
}

impl Default for TierBenchConfig {
    fn default() -> Self {
        Self {
            items: 20_000,
            ops: 60_000,
            flip_every: 15_000,
            shards: 2,
            // 2 shards × 640 units × 3 entries ≈ 3.8k server cache entries,
            // on par with the ~4k-entry switch below: the comparison adds a
            // second tier of similar size, not a bigger cache in disguise.
            units_per_shard: 640,
            // 60 kB of 15 B/entry index SRAM ≈ 4k switch entries (~20% of
            // the key space), the regime where the paper's offload story
            // plays out.
            switch: SwitchTierConfig {
                levels: 4,
                memory_bytes: 60_000,
                seed: 0x7134,
            },
            hop: SwitchHop::testbed(),
            seed: 0xBE9C,
        }
    }
}

/// One deployment's measured outcome on one workload.
#[derive(Clone, Debug)]
pub struct DeploymentResult {
    /// `two_tier` or `server_only`.
    pub deployment: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Requests driven.
    pub requests: u64,
    /// GETs among them.
    pub gets: u64,
    /// GETs answered by *any* cache tier (switch or server front cache).
    pub total_hit_rate: f64,
    /// GETs answered at the switch (0 for server-only).
    pub switch_hit_rate: f64,
    /// GETs answered by the server's front cache, out of the GETs the
    /// *server* saw.
    pub server_hit_rate: f64,
    /// Fraction of all requests the server never saw (0 for server-only).
    pub offload: f64,
    /// Client-observed p50, microseconds (modeled wire + measured server).
    pub p50_us: f64,
    /// Client-observed p95, microseconds.
    pub p95_us: f64,
    /// Client-observed p99, microseconds.
    pub p99_us: f64,
}

fn ops_for(workload: Workload, cfg: &TierBenchConfig) -> Vec<Op> {
    match workload {
        Workload::YcsbB => p4lru_traffic::ycsb::YcsbConfig {
            items: cfg.items,
            alpha: 0.9,
            read_fraction: 0.95,
            seed: cfg.seed,
        }
        .generate(cfg.ops),
        Workload::HotFlip => HotFlipConfig {
            items: cfg.items,
            alpha: 0.9,
            read_fraction: 0.95,
            flip_every: cfg.flip_every,
            seed: cfg.seed,
        }
        .generate(cfg.ops),
        Workload::Scan => ScanConfig {
            items: cfg.items,
            read_fraction: 0.95,
            seed: cfg.seed,
        }
        .generate(cfg.ops),
    }
}

fn spawn_server(cfg: &TierBenchConfig) -> io::Result<Server> {
    Server::spawn(&ServerConfig {
        items: cfg.items,
        shards: cfg.shards,
        units_per_shard: cfg.units_per_shard,
        seed: cfg.seed,
        ..ServerConfig::default()
    })
}

fn gets_in(ops: &[Op]) -> u64 {
    ops.iter().filter(|o| matches!(o, Op::Read(_))).count() as u64
}

/// Drives `workload` through a fresh server behind a [`TierGateway`].
pub fn run_two_tier(workload: Workload, cfg: &TierBenchConfig) -> io::Result<DeploymentResult> {
    let ops = ops_for(workload, cfg);
    let server = spawn_server(cfg)?;
    let mut gateway = TierGateway::connect(
        server.local_addr(),
        &GatewayConfig {
            switch: cfg.switch.clone(),
            hop: cfg.hop.clone(),
        },
    )?;
    for op in &ops {
        match *op {
            Op::Read(key) => {
                gateway.get(key)?;
            }
            Op::Update(key) => gateway.set(key, &record_for(key))?,
        }
    }
    let report = gateway.stats()?;
    let tier = report
        .tier
        .as_ref()
        .expect("gateway stats always carry the tier section");
    let p50 = gateway.latency().quantile_us(0.50);
    let p95 = gateway.latency().quantile_us(0.95);
    let p99 = gateway.latency().quantile_us(0.99);
    drop(gateway);
    let _ = server.shutdown();
    let gets = gets_in(&ops);
    let total_hits = tier.hits + report.totals.hits;
    Ok(DeploymentResult {
        deployment: "two_tier",
        workload: workload.label(),
        requests: ops.len() as u64,
        gets,
        total_hit_rate: ratio(total_hits, gets),
        switch_hit_rate: tier.hit_rate,
        server_hit_rate: report.totals.hit_rate,
        offload: tier.offload_ratio,
        p50_us: p50,
        p95_us: p95,
        p99_us: p99,
    })
}

/// Drives `workload` through a fresh server with no switch tier (the
/// forwarding switch still charges its wire on every request).
pub fn run_server_only(workload: Workload, cfg: &TierBenchConfig) -> io::Result<DeploymentResult> {
    let ops = ops_for(workload, cfg);
    let server = spawn_server(cfg)?;
    let mut driver = DirectDriver::connect(server.local_addr(), cfg.hop.clone())?;
    for op in &ops {
        match *op {
            Op::Read(key) => {
                driver.get(key)?;
            }
            Op::Update(key) => driver.set(key, &record_for(key))?,
        }
    }
    let report: StatsReport = driver.stats()?;
    let p50 = driver.latency().quantile_us(0.50);
    let p95 = driver.latency().quantile_us(0.95);
    let p99 = driver.latency().quantile_us(0.99);
    drop(driver);
    let _ = server.shutdown();
    Ok(DeploymentResult {
        deployment: "server_only",
        workload: workload.label(),
        requests: ops.len() as u64,
        gets: gets_in(&ops),
        total_hit_rate: report.totals.hit_rate,
        switch_hit_rate: 0.0,
        server_hit_rate: report.totals.hit_rate,
        offload: 0.0,
        p50_us: p50,
        p95_us: p95,
        p99_us: p99,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TierBenchConfig {
        TierBenchConfig {
            items: 2_000,
            ops: 6_000,
            flip_every: 2_000,
            shards: 1,
            units_per_shard: 64,
            switch: SwitchTierConfig {
                levels: 3,
                memory_bytes: 6_000,
                seed: 0x7134,
            },
            ..TierBenchConfig::default()
        }
    }

    #[test]
    fn two_tier_dominates_server_only_on_ycsb() {
        let cfg = small();
        let two = run_two_tier(Workload::YcsbB, &cfg).unwrap();
        let one = run_server_only(Workload::YcsbB, &cfg).unwrap();
        assert!(two.offload > 0.0, "switch absorbed nothing");
        assert!(
            two.total_hit_rate >= one.total_hit_rate - 1e-9,
            "two-tier {} < server-only {}",
            two.total_hit_rate,
            one.total_hit_rate
        );
        assert_eq!(two.requests, one.requests, "same deterministic workload");
        assert!(two.p99_us > 0.0 && one.p99_us > 0.0);
    }

    #[test]
    fn hot_flip_keeps_the_switch_busy() {
        let cfg = small();
        let two = run_two_tier(Workload::HotFlip, &cfg).unwrap();
        assert!(
            two.switch_hit_rate > 0.1,
            "switch hit rate {} too low on the flip workload",
            two.switch_hit_rate
        );
    }
}
