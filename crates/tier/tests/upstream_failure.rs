//! An upstream that dies in the middle of a pipelined turn must not
//! mispair replies (crates/tier/src/proxy.rs, `serve_turn`).
//!
//! A scripted upstream answers a burst of forwards up to a poisoned key and
//! hangs up on it. The client must read the answers that did come back,
//! then one `Err` for each forward that was left unanswered, in wire order,
//! and then end of stream: the proxy closes the connection with its
//! upstream client rather than keep a socket on which a late byte could be
//! read as the answer to some later request. A fresh connection gets a
//! fresh upstream connection and works.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

use p4lru_kvstore::db::record_for;
use p4lru_server::client::Client;
use p4lru_server::protocol::{read_frame, write_frame, Request, Response};
use p4lru_tier::{ProxyConfig, SwitchTierConfig, TierProxy};

/// The upstream hangs up, unanswered, on any request for this key.
const POISON: u64 = 666;

/// A protocol-speaking upstream, one thread per connection: GETs read
/// `record_for(key)`, writes are acked, and [`POISON`] ends the connection.
fn spawn_dying_upstream() -> (SocketAddr, TcpListener) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accept = listener.try_clone().unwrap();
    thread::spawn(move || {
        while let Ok((stream, _)) = accept.accept() {
            thread::spawn(move || serve_upstream(stream));
        }
    });
    (addr, listener)
}

fn serve_upstream(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut frame = Vec::new();
    let mut out = Vec::new();
    while let Ok(true) = read_frame(&mut stream, &mut frame) {
        let response = match Request::decode(&frame) {
            Ok(
                Request::Get { key: POISON }
                | Request::Set { key: POISON, .. }
                | Request::Del { key: POISON },
            ) => return,
            Ok(Request::Get { key }) => Response::Value(record_for(key).to_vec()),
            Ok(Request::Set { .. } | Request::Del { .. }) => Response::Ok,
            Ok(_) => Response::Err("unsupported in dying upstream".to_owned()),
            Err(e) => Response::Err(e.to_string()),
        };
        response.encode(&mut out);
        if write_frame(&mut stream, &out).is_err() {
            return;
        }
    }
}

#[test]
fn an_upstream_that_hangs_up_mid_turn_errs_the_rest_in_order_and_closes() {
    let (upstream_addr, _listener) = spawn_dying_upstream();
    let proxy = TierProxy::spawn(&ProxyConfig {
        upstream: upstream_addr.to_string(),
        switch: SwitchTierConfig {
            levels: 3,
            memory_bytes: 8_192,
            seed: 0xFA_11,
        },
        ..ProxyConfig::default()
    })
    .unwrap();

    // Distinct cold keys, so every request is a forward: five the upstream
    // answers, the one it dies on, six it never sees answered.
    let set = |key| Request::Set {
        key,
        value: b"late".to_vec(),
    };
    let burst = [
        Request::Get { key: 1 },
        set(2),
        Request::Get { key: 3 },
        Request::Del { key: 4 },
        Request::Get { key: 5 },
        set(POISON),
        Request::Get { key: 7 },
        set(8),
        Request::Del { key: 9 },
        Request::Get { key: 10 },
        Request::Get { key: 1 },
        set(12),
    ];
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    for request in &burst {
        request.encode(&mut payload);
        write_frame(&mut wire, &payload).unwrap();
    }
    let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&wire).unwrap(); // one write: one turn

    let mut frame = Vec::new();
    let mut replies = Vec::new();
    while read_frame(&mut stream, &mut frame).expect("replies, then a clean close") {
        replies.push(Response::decode(&frame).unwrap());
    }
    assert_eq!(
        replies.len(),
        burst.len(),
        "one reply per request: {replies:?}"
    );
    assert_eq!(
        replies[..5],
        [
            Response::Value(record_for(1).to_vec()),
            Response::Ok,
            Response::Value(record_for(3).to_vec()),
            Response::Ok,
            Response::Value(record_for(5).to_vec()),
        ]
    );
    for (request, reply) in burst.iter().zip(&replies).skip(5) {
        assert!(
            matches!(reply, Response::Err(why) if why.starts_with("upstream request failed: ")),
            "{request:?} was answered {reply:?}"
        );
    }
    proxy.check_invariants().expect("tier invariants");

    // Nothing of the dead upstream connection outlives it.
    let mut fresh = Client::connect(proxy.local_addr()).unwrap();
    assert_eq!(fresh.get(7).unwrap(), Some(record_for(7).to_vec()));
    fresh.set(8, b"on time").unwrap();
    drop(fresh);
    proxy.shutdown();
}
