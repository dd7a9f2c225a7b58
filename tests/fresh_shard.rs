//! A fresh serverd builds each shard's store in one streaming bulk load
//! over that shard's ascending key subsequence (DESIGN.md §13). The shards
//! it serves must answer every key exactly as twins populated key by key
//! with `Shard::load` do — and be no taller than them. Their index leaves
//! are runs (record addresses computed from the slot), so writes through
//! the wire must read back like a model too, also after a restart that
//! rebuilds them from the data dir.

use std::collections::BTreeMap;

use p4lru::durable::DurabilityConfig;
use p4lru::kvstore::db::record_for;
use p4lru::kvstore::Record;
use p4lru::server::protocol::{Request, Response};
use p4lru::server::shard::{record_from_bytes, Shard};
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

/// Overwrites, deletes, fresh keys and deleted keys written back, in
/// pipelined bursts, each reply checked and applied to `model`; then a GET
/// of every key against it.
fn writes_read_back_like_the_model(server: &Server, model: &mut BTreeMap<u64, Record>) {
    let set = |key: u64, round: u8| Request::Set {
        key,
        value: format!("key {key} round {round}").into_bytes(),
    };
    let script: Vec<Request> = (0..ITEMS)
        .step_by(7)
        .map(|key| set(key, 1))
        .chain((0..ITEMS).step_by(5).map(|key| Request::Del { key }))
        .chain((ITEMS..ITEMS + 600).map(|key| set(key, 3)))
        .chain((0..ITEMS).step_by(10).map(|key| set(key, 4)))
        .collect();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for burst in script.chunks(64) {
        for request in burst {
            client.send(request).unwrap();
        }
        client.flush().unwrap();
        for request in burst {
            let want = match request {
                Request::Set { key, value } => {
                    model.insert(*key, record_from_bytes(value));
                    Response::Ok
                }
                Request::Del { key } => match model.remove(key) {
                    Some(_) => Response::Ok,
                    None => Response::NotFound,
                },
                other => unreachable!("not in the script: {other:?}"),
            };
            assert_eq!(client.recv().unwrap(), want, "{request:?}");
        }
    }
    reads_like_the_model(server, model);
}

fn reads_like_the_model(server: &Server, model: &BTreeMap<u64, Record>) {
    let mut client = Client::connect(server.local_addr()).unwrap();
    let keys: Vec<u64> = (0..ITEMS + 700).collect();
    for burst in keys.chunks(64) {
        for &key in burst {
            client.send_get(key).unwrap();
        }
        client.flush().unwrap();
        for &key in burst {
            let want = match model.get(&key) {
                Some(record) => Response::Value(record.to_vec()),
                None => Response::NotFound,
            };
            assert_eq!(client.recv().unwrap(), want, "key {key}");
        }
    }
}

#[test]
fn writes_to_a_fresh_server_read_back_before_and_after_a_restart() {
    let config = |data_dir| ServerConfig {
        items: ITEMS,
        units_per_shard: UNITS,
        shards: SHARDS,
        io_threads: 1,
        data_dir,
        // A snapshot lands mid-script, so recovery bulk-builds some of the
        // writes and replays the rest from the WAL.
        durability: DurabilityConfig {
            snapshot_every: 500,
            ..DurabilityConfig::default()
        },
        ..ServerConfig::default()
    };
    let fresh: BTreeMap<u64, Record> = (0..ITEMS).map(|k| (k, record_for(k))).collect();

    let server = Server::spawn(&config(None)).unwrap();
    writes_read_back_like_the_model(&server, &mut fresh.clone());
    server.shutdown();

    let root = std::env::temp_dir().join(format!("p4lru-fresh-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut model = fresh;
    let server = Server::spawn(&config(Some(root.clone()))).unwrap();
    writes_read_back_like_the_model(&server, &mut model);
    server.shutdown();
    let server = Server::spawn(&config(Some(root.clone()))).unwrap();
    reads_like_the_model(&server, &model);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
