//! What a follower acks, and when (DESIGN.md §14).
//!
//! A follower's PULL carries `durable_seq`, its ack to the primary: how far
//! it has applied *and committed*. The puller applies a shipment under the
//! shard lock and then waits until the shard's commit gate is synced
//! through it, so:
//!
//! * a shipped batch is acked only after the follower's commit covering it
//!   — with a 200 ms modeled device, not before 150 ms have passed;
//! * a shipped snapshot is durable once installed, so the next PULL acks
//!   its sequence number at once.
//!
//! Both run a real follower against a scripted fake primary that logs
//! every PULL it receives with its arrival instant.

#![cfg(unix)]

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use p4lru_durable::record::encode_into;
use p4lru_durable::snapshot::write_snapshot;
use p4lru_durable::WalOp;
use p4lru_kvstore::db::record_for;
use p4lru_kvstore::Database;
use p4lru_server::client::Client;
use p4lru_server::repl::{
    read_repl_frame, write_repl_frame, PullRequest, PullResponse, ReplConfig,
};
use p4lru_server::server::{Server, ServerConfig};

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("p4lru-follower-ack-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every PULL the fake primary received, with when it arrived.
type PullLog = Arc<Mutex<Vec<(Instant, PullRequest)>>>;

/// A fake primary that answers the first PULL of shard 0 with `first` and
/// notes when it sent it, and every later PULL with UP_TO_DATE.
fn spawn_scripted_primary(
    first: PullResponse,
) -> (SocketAddr, PullLog, Arc<Mutex<Option<Instant>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log = PullLog::default();
    let sent = Arc::new(Mutex::new(None));
    let (log_out, sent_out) = (Arc::clone(&log), Arc::clone(&sent));
    std::thread::spawn(move || {
        let mut first = Some(first);
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut frame = Vec::new();
            let mut out = Vec::new();
            while let Ok(true) = read_repl_frame(&mut stream, &mut frame) {
                let Ok(req) = PullRequest::decode(&frame) else {
                    break;
                };
                log.lock().unwrap().push((Instant::now(), req));
                let response = first.take().unwrap_or(PullResponse::UpToDate);
                response.encode(&mut out);
                if write_repl_frame(&mut stream, &out).is_err() {
                    break;
                }
                let mut sent = sent.lock().unwrap();
                if sent.is_none() {
                    *sent = Some(Instant::now());
                }
            }
        }
    });
    (addr, log_out, sent_out)
}

fn follower_config(data_dir: &Path, primary: SocketAddr) -> ServerConfig {
    ServerConfig {
        shards: 1,
        items: 10,
        units_per_shard: 64,
        data_dir: Some(data_dir.to_path_buf()),
        repl: Some(ReplConfig {
            follow: Some(primary.to_string()),
            failover: Duration::from_secs(30),
            ..ReplConfig::default()
        }),
        ..ServerConfig::default()
    }
}

/// Waits for the first PULL whose ack reaches `seq`; returns when it
/// arrived and every PULL before it.
fn await_ack(log: &PullLog, seq: u64) -> (Instant, Vec<PullRequest>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let pulls = log.lock().unwrap().clone();
        if let Some(at) = pulls.iter().position(|(_, req)| req.durable_seq >= seq) {
            let before = pulls[..at].iter().map(|&(_, req)| req).collect();
            return (pulls[at].0, before);
        }
        assert!(
            Instant::now() < deadline,
            "no PULL ever acked seq {seq}: {pulls:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_shipped_batch_is_acked_only_after_the_followers_commit() {
    let mut bytes = Vec::new();
    for seq in 1..=3u64 {
        let key = 9_000 + seq;
        let record = record_for(key);
        encode_into(&mut bytes, seq, &WalOp::Set { key, record });
    }
    let batch = PullResponse::Records {
        first_seq: 1,
        last_seq: 3,
        bytes,
    };
    let (primary, log, sent) = spawn_scripted_primary(batch);
    let tmp = TempDir::new("batch");
    let mut config = follower_config(&tmp.0, primary);
    config.durability.commit_latency = Duration::from_millis(200);
    let follower = Server::spawn(&config).unwrap();

    let (acked_at, before) = await_ack(&log, 3);
    let sent = sent.lock().unwrap().expect("the batch was sent");
    assert!(
        acked_at.duration_since(sent) >= Duration::from_millis(150),
        "the batch was acked {:?} after it was sent, inside the 200 ms commit",
        acked_at.duration_since(sent)
    );
    assert!(
        before.iter().all(|req| req.durable_seq == 0),
        "no earlier PULL acked part of the batch: {before:?}"
    );
    let mut f = Client::connect(follower.local_addr()).unwrap();
    assert_eq!(
        f.get(9_003).unwrap().as_deref(),
        Some(&record_for(9_003)[..])
    );
    follower.shutdown();
}

#[test]
fn a_shipped_snapshot_is_acked_by_the_next_pull() {
    const SEQ: u64 = 40;
    let staging = TempDir::new("snapshot-staging");
    let mut db = Database::default();
    for key in 500..520u64 {
        db.insert(key, record_for(key));
    }
    let path = write_snapshot(&staging.0, SEQ, &db).unwrap();
    let snapshot = PullResponse::Snapshot {
        seq: SEQ,
        bytes: std::fs::read(path).unwrap(),
    };
    let (primary, log, _) = spawn_scripted_primary(snapshot);
    let tmp = TempDir::new("snapshot");
    let follower = Server::spawn(&follower_config(&tmp.0, primary)).unwrap();

    let (_, before) = await_ack(&log, SEQ);
    assert_eq!(
        before.len(),
        1,
        "only the PULL the snapshot answered: {before:?}"
    );
    let acks: Vec<(u64, u64)> = log
        .lock()
        .unwrap()
        .iter()
        .map(|(_, req)| (req.from_seq, req.durable_seq))
        .collect();
    assert_eq!(acks[1], (SEQ + 1, SEQ), "the next PULL acks the snapshot");
    let mut f = Client::connect(follower.local_addr()).unwrap();
    assert_eq!(f.get(519).unwrap().as_deref(), Some(&record_for(519)[..]));
    follower.shutdown();
}
