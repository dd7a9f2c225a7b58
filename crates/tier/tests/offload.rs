//! What the switch tier absorbs (DESIGN.md §11): the floors CI holds it to.
//!
//! Offload is a function of the switch and the op stream alone, so the
//! first test needs no sockets: the op stream goes through
//! `begin`/`finish` against an in-memory upstream and the result is the
//! same on every run. The second drives the live path — an ordinary
//! [`Client`] through [`TierProxy`] into a real [`Server`] — against the
//! same stream sent to a bare server.

use p4lru_kvstore::db::record_for;
use p4lru_server::client::Client;
use p4lru_server::server::{Server, ServerConfig};
use p4lru_server::{Request, Response};
use p4lru_tier::{ProxyConfig, Step, SwitchTier, SwitchTierConfig, TierProxy};
use p4lru_traffic::ycsb::{Op, YcsbConfig};
use p4lru_traffic::HotFlipConfig;

const SEED: u64 = 0xBE9C;

/// Zipf(0.9) with the hot set rotating every 6,000 ops over 8,000 items: a
/// ~1,600-entry switch (4 levels, 24,000 B of 15 B entries) must take at
/// least 30% of all requests off the server.
#[test]
fn the_switch_absorbs_a_third_of_a_hot_key_flip_stream() {
    let ops = HotFlipConfig {
        items: 8_000,
        alpha: 0.9,
        read_fraction: 0.95,
        flip_every: 6_000,
        seed: SEED,
    }
    .generate(24_000);
    let mut switch = SwitchTier::new(&SwitchTierConfig {
        levels: 4,
        memory_bytes: 24_000,
        seed: 0x7134,
    });

    // Every update rewrites `record_for(key)`, so the upstream's store
    // never changes and its answers need no map.
    for op in &ops {
        let value = record_for(op.key()).to_vec();
        let (request, response) = match *op {
            Op::Read(key) => (Request::Get { key }, Response::Value(value)),
            Op::Update(key) => (Request::Set { key, value }, Response::Ok),
        };
        if let Step::Forward { epoch } = switch.begin(&request) {
            switch.finish(&request, epoch, &response);
        }
    }

    switch.check_invariants().expect("tier invariants");
    let snap = switch.counters().snapshot(4);
    assert_eq!(snap.gets + snap.sets, ops.len() as u64);
    assert!(
        snap.offload_ratio >= 0.30,
        "hot-flip offload {:.3} is below the 30% floor",
        snap.offload_ratio
    );
    assert!(
        snap.hit_rate > 0.1,
        "switch hit rate {:.3} too low on the flip workload",
        snap.hit_rate
    );
}

/// Drives `ops` through `client` and returns the GETs among them.
fn drive(client: &mut Client, ops: &[Op]) -> u64 {
    let mut gets = 0;
    for op in ops {
        match *op {
            Op::Read(key) => {
                gets += 1;
                assert_eq!(client.get(key).unwrap(), Some(record_for(key).to_vec()));
            }
            Op::Update(key) => client.set(key, &record_for(key)).unwrap(),
        }
    }
    gets
}

/// Adding the tier in front of a server never lowers the share of GETs
/// some cache answered, and takes real traffic off the server.
#[test]
fn two_tiers_hit_at_least_as_often_as_the_server_alone() {
    let items = 2_000;
    let ops = YcsbConfig {
        items,
        alpha: 0.9,
        read_fraction: 0.95,
        seed: SEED,
    }
    .generate(6_000);
    let server = || {
        Server::spawn(&ServerConfig {
            items,
            shards: 1,
            units_per_shard: 64,
            seed: SEED,
            ..ServerConfig::default()
        })
        .expect("server spawns")
    };

    let alone = server();
    let mut client = Client::connect(alone.local_addr()).unwrap();
    let gets = drive(&mut client, &ops);
    drop(client);
    let server_only = alone.shutdown().totals.hits as f64 / gets as f64;

    let behind = server();
    let proxy = TierProxy::spawn(&ProxyConfig {
        upstream: behind.local_addr().to_string(),
        switch: SwitchTierConfig {
            levels: 3,
            memory_bytes: 6_000,
            seed: 0x7134,
        },
        ..ProxyConfig::default()
    })
    .expect("proxy spawns");
    let mut client = Client::connect(proxy.local_addr()).unwrap();
    assert_eq!(drive(&mut client, &ops), gets, "same deterministic stream");
    drop(client);
    let tier = proxy.counters().snapshot(3);
    proxy.shutdown();
    let two_tier = (tier.hits + behind.shutdown().totals.hits) as f64 / gets as f64;

    assert!(tier.offload_ratio > 0.0, "switch absorbed nothing");
    assert!(
        two_tier >= server_only - 1e-9,
        "two-tier total hit rate {two_tier:.4} < server-only {server_only:.4}"
    );
}
