//! The `loadgen` binary's verdict on what it reads back. Once every record
//! of the server under it holds the next key's record, each GET answers
//! with another key's value, and that must fail the run: CI's smokes rely
//! on the exit status to catch a stale or misrouted value.

use std::process::{Command, Output};

use p4lru_kvstore::db::record_for;
use p4lru_server::client::Client;
use p4lru_server::server::{Server, ServerConfig};

/// A short all-GET loadgen run over keys `0..1000` against `addr`.
fn loadgen(addr: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--addr", addr, "--threads", "1", "--seconds", "0.2"])
        .args(["--items", "1000", "--read-fraction", "1", "--no-out"])
        .output()
        .expect("loadgen runs")
}

#[test]
fn a_read_of_another_keys_record_fails_the_run() {
    let server = Server::spawn(&ServerConfig {
        items: 1_000,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let right = loadgen(&addr);
    let stderr = String::from_utf8_lossy(&right.stderr);
    assert!(right.status.success(), "right records must pass: {stderr}");

    let mut client = Client::connect(&*addr).unwrap();
    for key in 0..1_000 {
        client.set(key, &record_for(key + 1)).unwrap();
    }
    let wrong = loadgen(&addr);
    let stderr = String::from_utf8_lossy(&wrong.stderr);
    assert!(!wrong.status.success(), "wrong records must fail: {stderr}");
    assert!(
        stderr.contains("reads returned a value other than their key's record"),
        "the failure must say why: {stderr}"
    );
    server.shutdown();
}
