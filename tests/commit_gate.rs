//! The commit gate, end to end (DESIGN.md §8): a reply that reveals a
//! record no finished commit covers waits for that commit — another
//! connection's GET of a just-written key included — while everything that
//! touches no pending record is answered on the reactor loop at once, so a
//! loop never waits on a disk.
//!
//! The device is modeled slow (`commit_latency` = 200 ms) so the two kinds
//! of reply are told apart by an order of magnitude, not by microseconds.

use std::time::{Duration, Instant};

use p4lru::durable::{DurabilityConfig, SyncPolicy};
use p4lru::kvstore::db::record_for;
use p4lru::server::protocol::Response;
use p4lru::server::{shard_of, Client, Server, ServerConfig};

const SHARDS: usize = 2;
const COMMIT: Duration = Duration::from_millis(200);

/// The first populated key routed to `shard`.
fn key_on(shard: usize) -> u64 {
    (0..).find(|&k| shard_of(k, SHARDS) == shard).unwrap()
}

#[test]
fn a_read_of_an_unsynced_write_waits_for_its_fsync_and_nothing_else_does() {
    let root = std::env::temp_dir().join(format!("p4lru-commit-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = Server::spawn(&ServerConfig {
        items: 100,
        units_per_shard: 16,
        shards: SHARDS,
        io_threads: 1,
        data_dir: Some(root.clone()),
        durability: DurabilityConfig {
            sync: SyncPolicy::Always,
            commit_latency: COMMIT,
            ..DurabilityConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let (written, clean) = (key_on(0), key_on(1));
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    let mut c = Client::connect(addr).unwrap();

    // (i) A writes; once the SET is applied and its reply held at the gate
    // (and at least 20 ms have passed), B reads the key.
    let set_at = Instant::now();
    a.send_set(written, b"fresh").unwrap();
    a.flush().unwrap();
    while c.stats().unwrap().totals.queue_depth == 0 {
        assert!(set_at.elapsed() < COMMIT / 2, "the SET was never held");
    }
    std::thread::sleep(Duration::from_millis(20).saturating_sub(set_at.elapsed()));
    let get_at = Instant::now();
    b.send_get(written).unwrap();
    b.flush().unwrap();

    // (ii) Meanwhile the loop answers a GET on the other, clean shard and
    // a PING straight away.
    let started = Instant::now();
    assert_eq!(c.get(clean).unwrap(), Some(record_for(clean).to_vec()));
    let clean_get = started.elapsed();
    let ping = c.ping().unwrap();
    assert!(
        clean_get < Duration::from_millis(50),
        "a clean shard's GET waited {clean_get:?} behind another shard's fsync"
    );
    assert!(
        ping < Duration::from_millis(50),
        "PING waited {ping:?} behind an fsync"
    );

    // B's GET leaves only with the fsync that covers the SET it reads.
    let mut want = b"fresh".to_vec();
    want.resize(64, 0);
    assert_eq!(b.recv().unwrap(), Response::Value(want));
    let waited = get_at.elapsed();
    assert!(
        waited >= Duration::from_millis(150),
        "the GET read an unsynced write after {waited:?}"
    );
    assert_eq!(a.recv().unwrap(), Response::Ok);

    drop((a, b, c));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
