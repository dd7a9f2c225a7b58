//! GET runs (DESIGN.md §9, §13): a burst's GETs are served as one run per
//! shard, and the run's front-cache misses share one interleaved B+Tree
//! descent. None of that may be observable in what a client reads.
//!
//! - `Shard::get_run` equals `Shard::get` applied one key at a time on a
//!   twin shard: replies, cache contents and DFA states, and the
//!   hit/miss/absent/eviction counters.
//! - `BPlusTree::lookup_run` equals `lookup` for every key, on trees of
//!   height 1–4 and on leaves with the hash directory armed.
//! - On a live server, a burst that mixes GETs with the frames that end a
//!   run gets the sequential model's replies, in order — also when the run
//!   is held at a dirty shard's commit gate.

use std::collections::BTreeSet;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use p4lru::durable::{DurabilityConfig, SyncPolicy};
use p4lru::kvstore::btree::BPlusTree;
use p4lru::kvstore::db::record_for;
use p4lru::server::protocol::{Request, Response};
use p4lru::server::shard::{record_from_bytes, Shard};
use p4lru::server::{shard_of, Client, Server, ServerConfig};

/// Keys `0..STORED` are in the store; run keys range over `0..KEYS`, so
/// about one in four is absent.
const STORED: u64 = 300;
const KEYS: u64 = 400;

fn stored_shard(units: usize) -> Shard {
    let mut shard = Shard::new(units, 0x5EED);
    for key in 0..STORED {
        shard.load(key, record_for(key));
    }
    shard
}

/// Everything `get_run` must leave as `get` would.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Every cached `(unit, key, address)`.
    entries: Vec<(usize, u64, u64)>,
    /// Each unit's DFA state.
    states: Vec<String>,
    /// hits, misses, absent, evictions.
    counters: [u64; 4],
}

fn observable(shard: &Shard) -> Observed {
    let cache = shard.cache();
    let s = shard.snapshot(0);
    Observed {
        entries: cache
            .entries()
            .map(|(unit, key, addr)| (unit, *key, addr.raw()))
            .collect(),
        states: (0..cache.unit_count())
            .map(|i| format!("{:?}", cache.unit(i).state()))
            .collect(),
        counters: [s.hits, s.misses, s.absent, s.evictions],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn get_run_equals_gets_one_at_a_time(
        units in 1usize..24,
        runs in vec(vec(0u64..KEYS, 1..=64), 1..12),
        writes in vec((0u64..KEYS, any::<bool>()), 0..12),
    ) {
        let mut batched = stored_shard(units);
        let mut single = stored_shard(units);
        for (i, run) in runs.iter().enumerate() {
            let mut got = Vec::new();
            batched.get_run(run, |record| got.push(record));
            let want: Vec<_> = run.iter().map(|&key| single.get(key)).collect();
            prop_assert_eq!(&got, &want, "replies of run {}", i);
            prop_assert_eq!(observable(&batched), observable(&single), "state after run {}", i);
            // A write between runs reshapes the cache and the store the same
            // way on both twins.
            if let Some(&(key, set)) = writes.get(i) {
                for shard in [&mut batched, &mut single] {
                    if set {
                        shard.set(key, record_for(key + 1)).unwrap();
                    } else {
                        shard.del(key).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn lookup_run_equals_lookup(
        max_keys in 3usize..17,
        inserts in vec(0u64..2_000, 0..700),
        removes in vec(0u64..2_000, 0..300),
        probes in vec(0u64..2_050, 1..80),
        armed in any::<bool>(),
    ) {
        let mut tree = BPlusTree::new(max_keys);
        for &key in &inserts {
            tree.insert(key, key * 3);
        }
        for &key in &removes {
            tree.remove(&key);
        }
        if armed {
            arm_hash_leaves(&mut tree, &inserts);
        }
        let mut out = Vec::new();
        tree.lookup_run(&probes, &mut out);
        let want: Vec<Option<u64>> = probes.iter().map(|k| tree.lookup(k).0).collect();
        prop_assert_eq!(out, want);
        prop_assert!(tree.check_invariants().is_ok());
    }
}

/// Enough point lookups on every stored key for each leaf's streak to pass
/// the flip threshold, then the adaptation pass that arms the directories.
fn arm_hash_leaves(tree: &mut BPlusTree<u64, u64>, keys: &[u64]) {
    for _ in 0..20 {
        for key in keys {
            tree.get(key);
        }
    }
    tree.apply_adaptation();
}

#[test]
fn lookup_run_covers_heights_one_to_four_with_and_without_hash_leaves() {
    let mut heights = BTreeSet::new();
    for items in [5u64, 12, 40, 150] {
        for armed in [false, true] {
            let keys: Vec<u64> = (0..items).map(|k| k * 7).collect();
            let mut tree = BPlusTree::new(6);
            for &key in &keys {
                tree.insert(key, key + 1);
            }
            if armed {
                arm_hash_leaves(&mut tree, &keys);
            }
            heights.insert(tree.height());
            // Every stored key, every gap, and a run longer than one chunk.
            let probes: Vec<u64> = (0..items * 7 + 3).rev().collect();
            let mut out = Vec::new();
            for run in probes.chunks(37) {
                tree.lookup_run(run, &mut out);
                for (key, got) in run.iter().zip(&out) {
                    assert_eq!(*got, tree.lookup(key).0, "key {key}");
                }
            }
        }
    }
    assert!(
        (1..=4).all(|h| heights.contains(&h)),
        "heights covered: {heights:?}"
    );
}

const SHARDS: usize = 2;

/// Two stored keys on different shards.
fn keys_on_two_shards() -> (u64, u64) {
    let a = 3;
    let b = (4..)
        .find(|&k| shard_of(k, SHARDS) != shard_of(a, SHARDS))
        .unwrap();
    (a, b)
}

/// Sends `GET a, SET a, GET a, DEL a, GET a, GET b, PING, GET b` in one
/// write and checks the replies against the sequential model.
fn burst_matches_the_sequential_model(server: &Server) {
    let (a, b) = keys_on_two_shards();
    let value = b"written in the burst";
    let mut client = Client::connect(server.local_addr()).unwrap();
    let burst = [
        Request::Get { key: a },
        Request::Set {
            key: a,
            value: value.to_vec(),
        },
        Request::Get { key: a },
        Request::Del { key: a },
        Request::Get { key: a },
        Request::Get { key: b },
        Request::Ping,
        Request::Get { key: b },
    ];
    for request in &burst {
        client.send(request).unwrap();
    }
    client.flush().unwrap();
    let want = [
        Response::Value(record_for(a).to_vec()),
        Response::Ok,
        Response::Value(record_from_bytes(value).to_vec()),
        Response::Ok,
        Response::NotFound,
        Response::Value(record_for(b).to_vec()),
        Response::Pong,
        Response::Value(record_for(b).to_vec()),
    ];
    for (i, want) in want.iter().enumerate() {
        assert_eq!(&client.recv().unwrap(), want, "reply {i} ({:?})", burst[i]);
    }
}

fn small_server(data_dir: Option<std::path::PathBuf>) -> Server {
    Server::spawn(&ServerConfig {
        items: 100,
        units_per_shard: 16,
        shards: SHARDS,
        io_threads: 1,
        data_dir,
        durability: DurabilityConfig {
            sync: SyncPolicy::Always,
            commit_latency: Duration::from_millis(2),
            ..DurabilityConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap()
}

#[test]
fn a_burst_mixing_gets_with_other_frames_replies_in_order() {
    let server = small_server(None);
    burst_matches_the_sequential_model(&server);
    server.shutdown();
}

#[test]
fn a_run_held_at_a_dirty_shard_leaves_the_wire_in_order() {
    let root = std::env::temp_dir().join(format!("p4lru-get-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = small_server(Some(root.clone()));
    burst_matches_the_sequential_model(&server);
    // The SET leaves `a`'s shard dirty, so the GET runs that follow it on
    // that shard wait at the gate with the writes: the commits released
    // more replies than the burst's two mutations.
    let stats = Client::connect(server.local_addr())
        .unwrap()
        .stats()
        .unwrap();
    assert!(
        stats.totals.batch_ops > 2,
        "no GET was held: {} replies released by commits",
        stats.totals.batch_ops
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_burst_of_cold_gets_resolves_its_misses_in_runs() {
    let server = Server::spawn(&ServerConfig {
        items: 10_000,
        units_per_shard: 16,
        shards: SHARDS,
        io_threads: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let keys: Vec<u64> = (0..32).map(|i| i * 301).collect();
    for &key in &keys {
        client.send_get(key).unwrap();
    }
    client.flush().unwrap();
    for &key in &keys {
        assert_eq!(
            client.recv().unwrap(),
            Response::Value(record_for(key).to_vec())
        );
    }
    let totals = client.stats().unwrap().totals;
    assert!(totals.index_runs >= 1, "no miss run was resolved");
    assert!(
        totals.index_run_keys >= 2 * totals.index_runs && totals.index_run_keys <= 32,
        "{} keys over {} runs",
        totals.index_run_keys,
        totals.index_runs
    );
    server.shutdown();
}
