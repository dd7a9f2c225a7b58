//! Wire order with two kinds of reply (DESIGN.md §8, §9): on a
//! `--sync always` server a SET's reply is held at its shard's commit gate
//! until the fsync covering it, while a GET of a clean shard is answered on
//! the reactor loop at once. The connection's reorder buffer must still put
//! every reply on the wire in request order — an inline answer queues
//! behind a held one, never overtakes it. The sequential model is that of
//! `pipelining.rs`; the device is modeled at 2 ms per commit so replies are
//! held long enough for later requests to be answered first.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use p4lru_durable::{DurabilityConfig, SyncPolicy};
use p4lru_kvstore::db::record_for;
use p4lru_server::client::Client;
use p4lru_server::protocol::Response;
use p4lru_server::server::{shard_of, Server, ServerConfig};

const ITEMS: u64 = 100;

/// A fresh data dir per server (proptest cases and tests run in parallel).
struct DataDir(PathBuf);

impl DataDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "p4lru-durable-pipelining-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_config(shards: usize, dir: &DataDir) -> ServerConfig {
    ServerConfig {
        items: ITEMS,
        units_per_shard: 64,
        shards,
        data_dir: Some(dir.0.clone()),
        durability: DurabilityConfig {
            sync: SyncPolicy::Always,
            commit_latency: Duration::from_millis(2),
            ..DurabilityConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn pad64(value: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; 64];
    let n = value.len().min(64);
    out[..n].copy_from_slice(&value[..n]);
    out
}

fn populated_model() -> HashMap<u64, Vec<u8>> {
    (0..ITEMS).map(|k| (k, record_for(k).to_vec())).collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum TestOp {
    Get(u64),
    /// key, fill byte, length
    Set(u64, u8, usize),
    Del(u64),
}

/// Applies `op` to the model and returns the response the server must give.
fn expected(model: &mut HashMap<u64, Vec<u8>>, op: TestOp) -> Response {
    match op {
        TestOp::Get(key) => match model.get(&key) {
            Some(v) => Response::Value(v.clone()),
            None => Response::NotFound,
        },
        TestOp::Set(key, fill, len) => {
            model.insert(key, pad64(&vec![fill; len]));
            Response::Ok
        }
        TestOp::Del(key) => {
            if model.remove(&key).is_some() {
                Response::Ok
            } else {
                Response::NotFound
            }
        }
    }
}

fn send(client: &mut Client, op: TestOp) -> std::io::Result<()> {
    match op {
        TestOp::Get(key) => client.send_get(key),
        TestOp::Set(key, fill, len) => client.send_set(key, &vec![fill; len]),
        TestOp::Del(key) => client.send_del(key),
    }
}

#[test]
fn an_inline_get_leaves_the_wire_after_the_held_set_before_it() {
    let dir = DataDir::new();
    let server = Server::spawn(&durable_config(2, &dir)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let written = (0..ITEMS).find(|&k| shard_of(k, 2) == 0).unwrap();
    let clean = (0..ITEMS).find(|&k| shard_of(k, 2) == 1).unwrap();

    // One burst: the SET is held for its fsync, the GET of the other
    // shard is answered on the loop while that fsync runs.
    client.send_set(written, b"held").unwrap();
    client.send_get(clean).unwrap();
    client.send_get(written).unwrap();
    client.flush().unwrap();
    assert_eq!(
        client.recv().unwrap(),
        Response::Ok,
        "the SET answers first"
    );
    assert_eq!(
        client.recv().unwrap(),
        Response::Value(record_for(clean).to_vec())
    );
    assert_eq!(client.recv().unwrap(), Response::Value(pad64(b"held")));
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `pipelining.rs`'s random interleavings against the sequential model,
    /// with every mutation's reply held at a commit gate.
    #[test]
    fn random_pipelined_interleavings_match_the_sequential_model(
        raw in vec((0u8..3, 0u64..200, any::<u8>(), 0usize..80), 1..250),
        depth in 1usize..80,
        shards in 1usize..5,
    ) {
        let dir = DataDir::new();
        let server = Server::spawn(&durable_config(shards, &dir)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut model = populated_model();
        let mut inflight: VecDeque<(usize, TestOp, Response)> = VecDeque::new();

        for (i, &(kind, key, fill, len)) in raw.iter().enumerate() {
            let op = match kind {
                0 => TestOp::Get(key),
                1 => TestOp::Set(key, fill, len),
                _ => TestOp::Del(key),
            };
            let want = expected(&mut model, op);
            send(&mut client, op).unwrap();
            inflight.push_back((i, op, want));
            if inflight.len() == depth {
                let (i, op, want) = inflight.pop_front().unwrap();
                let got = client.recv().unwrap();
                prop_assert_eq!(got, want, "reply {} (request {:?})", i, op);
            }
        }
        while let Some((i, op, want)) = inflight.pop_front() {
            let got = client.recv().unwrap();
            prop_assert_eq!(got, want, "reply {} (request {:?})", i, op);
        }
        server.shutdown();
    }
}
