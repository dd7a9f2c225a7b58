//! Two-tier coherence tests (DESIGN.md §11).
//!
//! The contract under test: once a SET or DEL has been acknowledged, no
//! later GET may observe the overwritten value — the switch copy must have
//! been expelled before the write was forwarded, and no stale in-flight
//! miss reply may sneak back in afterwards. Random sequences of
//! GET/SET/DEL run from an ordinary [`Client`] through an in-process
//! [`TierProxy`] — the code `p4lru_tierd` runs — against a sequential
//! model; any stale read surfaces as a model mismatch at an exact
//! operation index. (Concurrent interleavings are root
//! `tests/tier_coherence.rs`'s job.)

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use p4lru_kvstore::db::record_for;
use p4lru_server::client::Client;
use p4lru_server::server::{Server, ServerConfig};
use p4lru_tier::{ProxyConfig, SwitchTierConfig, TierProxy};

const ITEMS: u64 = 120;

fn tiny_server() -> Server {
    Server::spawn(&ServerConfig {
        items: ITEMS,
        units_per_shard: 32,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server spawns")
}

fn tiny_proxy(server: &Server, memory_bytes: usize) -> TierProxy {
    TierProxy::spawn(&ProxyConfig {
        upstream: server.local_addr().to_string(),
        switch: SwitchTierConfig {
            levels: 3,
            memory_bytes,
            seed: 0xC0E7,
        },
        ..ProxyConfig::default()
    })
    .expect("proxy spawns")
}

/// Both tiers store fixed 64-byte records: a SET pads (or truncates).
fn pad64(value: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; 64];
    let n = value.len().min(64);
    out[..n].copy_from_slice(&value[..n]);
    out
}

fn populated_model() -> HashMap<u64, Vec<u8>> {
    (0..ITEMS).map(|k| (k, record_for(k).to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The two-tier deployment must be observationally identical to the
    /// bare server: in particular, a GET after a SET/DEL ack returns the
    /// new value, never the expelled switch copy.
    #[test]
    fn random_interleavings_never_serve_stale_reads(
        raw in vec((0u8..4, 0u64..200, any::<u8>(), 0usize..80), 1..300),
        memory_bytes in 600usize..6_000,
    ) {
        let server = tiny_server();
        let proxy = tiny_proxy(&server, memory_bytes);
        let mut client = Client::connect(proxy.local_addr()).expect("client connects");
        let mut model = populated_model();

        for (i, &(kind, key, fill, len)) in raw.iter().enumerate() {
            match kind {
                // GETs twice as likely as each write kind: the stale window
                // only shows up when reads follow writes closely.
                0 | 1 => {
                    let got = client.get(key).expect("GET io");
                    let want = model.get(&key).cloned();
                    prop_assert_eq!(
                        got, want,
                        "stale or wrong GET of key {} at op {}", key, i
                    );
                }
                2 => {
                    let value = vec![fill; len];
                    client.set(key, &value).expect("SET io");
                    model.insert(key, pad64(&value));
                }
                _ => {
                    let existed = client.del(key).expect("DEL io");
                    prop_assert_eq!(
                        existed,
                        model.remove(&key).is_some(),
                        "DEL of key {} at op {} disagreed on existence", key, i
                    );
                }
            }
        }

        // Immediately after every write, its key must read back fresh.
        for &(kind, key, ..) in raw.iter().filter(|&&(k, ..)| k >= 2) {
            let got = client.get(key).expect("GET io");
            let want = model.get(&key).cloned();
            prop_assert_eq!(got, want, "post-run GET of key {key} ({kind})");
        }

        proxy.check_invariants().expect("tier invariants");
        let snap = proxy.counters().snapshot(3);
        prop_assert!(
            snap.forwarded >= snap.sets + snap.dels,
            "every write must reach the server (forwarded {}, writes {})",
            snap.forwarded, snap.sets + snap.dels
        );
        prop_assert_eq!(snap.gets, snap.hits + snap.misses);
        drop(client);
        proxy.shutdown();
        server.shutdown();
    }
}
