//! Wire order on the live proxy: whatever a connection pipelines, however
//! the proxy cuts it into turns, the replies come back one per request in
//! the order sent, and every GET reads its own connection's preceding write
//! (crates/tier/src/proxy.rs, `proxy_connection`).

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;

use p4lru_kvstore::db::record_for;
use p4lru_server::client::Client;
use p4lru_server::protocol::{read_frame, write_frame, Request, Response};
use p4lru_server::server::{Server, ServerConfig};
use p4lru_server::shard::record_from_bytes;
use p4lru_tier::proxy::TURN_CAP;
use p4lru_tier::{ProxyConfig, SwitchTierConfig, TierProxy};

const ITEMS: u64 = 500;

fn deployment() -> (Server, TierProxy) {
    let server = Server::spawn(&ServerConfig {
        items: ITEMS,
        units_per_shard: 64,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let proxy = TierProxy::spawn(&ProxyConfig {
        upstream: server.local_addr().to_string(),
        switch: SwitchTierConfig {
            levels: 3,
            memory_bytes: 8_192,
            seed: 0x0DE2,
        },
        ..ProxyConfig::default()
    })
    .expect("proxy spawns");
    (server, proxy)
}

/// `SET k`, `GET k`, `DEL k`, `GET k` over cycling keys, half of them
/// preloaded: `count` requests, each with the reply a sequential store
/// gives it.
fn runs(count: usize, model: &mut HashMap<u64, Vec<u8>>) -> Vec<(Request, Response)> {
    (0..count)
        .map(|i| {
            let key = ITEMS - 5 + (i / 4 % 10) as u64;
            match i % 4 {
                0 => {
                    let value = format!("write {i}").into_bytes();
                    model.insert(key, record_from_bytes(&value).to_vec());
                    (Request::Set { key, value }, Response::Ok)
                }
                2 => match model.remove(&key) {
                    Some(_) => (Request::Del { key }, Response::Ok),
                    None => (Request::Del { key }, Response::NotFound),
                },
                _ => match model.get(&key) {
                    Some(value) => (Request::Get { key }, Response::Value(value.clone())),
                    None => (Request::Get { key }, Response::NotFound),
                },
            }
        })
        .collect()
}

fn preloaded() -> HashMap<u64, Vec<u8>> {
    (0..ITEMS).map(|k| (k, record_for(k).to_vec())).collect()
}

/// Frames `requests` back to back, as one pipelined burst would be.
fn frames<'a>(requests: impl IntoIterator<Item = &'a Request>) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    for request in requests {
        request.encode(&mut payload);
        write_frame(&mut wire, &payload).unwrap();
    }
    wire
}

#[test]
fn a_mixed_burst_is_answered_in_wire_order_up_to_a_bad_frame() {
    let (server, proxy) = deployment();
    let mut model = preloaded();
    let mut script = runs(62, &mut model);
    // A PING and a STATS mid-stream: each ends a turn and is answered by
    // itself, in its place.
    script.insert(19, (Request::Ping, Response::Pong));
    script.insert(41, (Request::Stats, Response::StatsJson(String::new())));
    assert_eq!(script.len(), 64);

    let mut wire = frames(script.iter().map(|(request, _)| request));
    wire.push(0x00); // not a frame magic: the proxy drops the connection here
    let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&wire).unwrap(); // one write

    // Every valid request is answered, in order, before the close.
    let mut frame = Vec::new();
    for (i, (request, expected)) in script.iter().enumerate() {
        assert!(
            read_frame(&mut stream, &mut frame).unwrap(),
            "closed before reply {i} ({request:?})"
        );
        match (Response::decode(&frame).unwrap(), expected) {
            (Response::StatsJson(json), Response::StatsJson(_)) => {
                assert!(json.contains("\"tier\""), "STATS through the proxy: {json}")
            }
            (got, expected) => assert_eq!(&got, expected, "reply {i}, to {request:?}"),
        }
    }
    assert!(
        !read_frame(&mut stream, &mut frame).unwrap_or(false),
        "the bad byte closes the connection"
    );
    proxy.check_invariants().expect("tier invariants");

    // What the burst wrote is what a fresh connection reads.
    let mut fresh = Client::connect(proxy.local_addr()).unwrap();
    for key in ITEMS - 5..ITEMS + 5 {
        assert_eq!(
            fresh.get(key).unwrap(),
            model.get(&key).cloned(),
            "key {key}"
        );
    }
    drop(fresh);
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn a_burst_longer_than_the_turn_cap_is_served_as_several_turns() {
    let (server, proxy) = deployment();
    let mut model = preloaded();
    let script = runs(3 * TURN_CAP + 7, &mut model);
    let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .write_all(&frames(script.iter().map(|(request, _)| request)))
        .unwrap();

    let mut frame = Vec::new();
    for (i, (request, expected)) in script.iter().enumerate() {
        assert!(read_frame(&mut stream, &mut frame).unwrap());
        let got = Response::decode(&frame).unwrap();
        assert_eq!(&got, expected, "reply {i}, to {request:?}");
    }
    // The connection is still good for a closed-loop request.
    stream
        .write_all(&frames([&Request::Get { key: 1 }]))
        .unwrap();
    assert!(read_frame(&mut stream, &mut frame).unwrap());
    assert_eq!(
        Response::decode(&frame).unwrap(),
        Response::Value(record_for(1).to_vec())
    );
    let snap = proxy.counters().snapshot(3);
    assert_eq!(snap.gets + snap.sets + snap.dels, script.len() as u64 + 1);
    proxy.check_invariants().expect("tier invariants");
    drop(stream);
    proxy.shutdown();
    server.shutdown();
}
