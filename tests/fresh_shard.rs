//! A fresh serverd builds each shard's store in one streaming bulk load
//! over that shard's ascending key subsequence (DESIGN.md §13). The shards
//! it serves must answer every key exactly as twins populated key by key
//! with `Shard::load` do — and be no taller than them.

use p4lru::kvstore::db::record_for;
use p4lru::server::protocol::Response;
use p4lru::server::shard::Shard;
use p4lru::server::{shard_of, Client, Server, ServerConfig};

const ITEMS: u64 = 6_000;
const SHARDS: usize = 3;
const UNITS: usize = 16;

#[test]
fn a_fresh_servers_shards_answer_like_per_key_loaded_twins() {
    let server = Server::spawn(&ServerConfig {
        items: ITEMS,
        units_per_shard: UNITS,
        shards: SHARDS,
        io_threads: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut twins: Vec<Shard> = (0..SHARDS).map(|_| Shard::new(UNITS, 0x5EED)).collect();
    for key in 0..ITEMS {
        twins[shard_of(key, SHARDS)].load(key, record_for(key));
    }

    let mut client = Client::connect(server.local_addr()).unwrap();
    // Every stored key, then a stretch of absent ones.
    let keys: Vec<u64> = (0..ITEMS + 500).collect();
    for burst in keys.chunks(64) {
        for &key in burst {
            client.send_get(key).unwrap();
        }
        client.flush().unwrap();
        for &key in burst {
            let want = match twins[shard_of(key, SHARDS)].get(key) {
                Some(record) => Response::Value(record.to_vec()),
                None => Response::NotFound,
            };
            assert_eq!(client.recv().unwrap(), want, "key {key}");
        }
    }

    let stats = client.stats().unwrap();
    for (i, twin) in twins.iter().enumerate() {
        let (served, loaded) = (&stats.shards[i], twin.snapshot(i));
        assert_eq!(served.store_len, loaded.store_len, "shard {i}");
        assert!(
            served.index_height <= loaded.index_height,
            "shard {i}: bulk-built height {} vs per-key {}",
            served.index_height,
            loaded.index_height
        );
    }
    server.shutdown();
}
