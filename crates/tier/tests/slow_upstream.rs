//! Regression tests against a scripted upstream that answers one request
//! only when told to: a slow upstream round-trip must not block other
//! connections' switch hits, and a GET served the old value while a SET is
//! held upstream must not leave that value in the switch past the SET's
//! ack.
//!
//! The proxy's contract (crates/tier/src/proxy.rs) is that the shared
//! switch mutex is *not* held across the upstream round-trip: a GET miss
//! reads the epoch, releases the tier, forwards, and re-acquires to admit.
//! If that ever regresses — the lock held while the upstream dawdles — a
//! single slow upstream reply would serialize every other connection's hit
//! path behind it. This test pins the property with a purpose-built
//! upstream that answers one key only when told to.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use p4lru_kvstore::db::record_for;
use p4lru_server::client::Client;
use p4lru_server::protocol::{read_frame, write_frame, Request, Response};
use p4lru_server::shard::record_from_bytes;
use p4lru_tier::{ProxyConfig, SwitchTierConfig, TierProxy};

/// GETs of this key stall at the upstream until the gate opens.
const SLOW_KEY: u64 = 7_777;

/// A gate the slow request waits behind.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    bell: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.bell.notify_all();
    }

    fn wait(&self) {
        let opened = self.open.lock().unwrap();
        let (opened, timeout) = self
            .bell
            .wait_timeout_while(opened, Duration::from_secs(30), |open| !*open)
            .unwrap();
        assert!(!timeout.timed_out(), "gate never opened");
        drop(opened);
    }
}

/// A protocol-speaking upstream answering every request with `script`.
/// One thread per connection — a stall inside `script` only ties up the
/// stalled connection, exactly like a real (pipelined) serverd whose one
/// shard is busy.
fn spawn_scripted_upstream(
    script: impl Fn(Request) -> Response + Send + Sync + 'static,
) -> io::Result<(std::net::SocketAddr, TcpListener)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let accept = listener.try_clone()?;
    let script = Arc::new(script);
    thread::spawn(move || {
        while let Ok((stream, _)) = accept.accept() {
            let script = Arc::clone(&script);
            thread::spawn(move || serve_upstream(stream, &*script));
        }
    });
    Ok((addr, listener))
}

fn serve_upstream(mut stream: TcpStream, script: &dyn Fn(Request) -> Response) {
    let _ = stream.set_nodelay(true);
    let mut frame = Vec::new();
    let mut out = Vec::new();
    loop {
        match read_frame(&mut stream, &mut frame) {
            Ok(true) => {}
            _ => return,
        }
        let response = match Request::decode(&frame) {
            Ok(request) => script(request),
            Err(e) => Response::Err(e.to_string()),
        };
        out.clear();
        response.encode(&mut out);
        if write_frame(&mut stream, &out).is_err() {
            return;
        }
    }
}

fn spawn_proxy(upstream: std::net::SocketAddr) -> TierProxy {
    TierProxy::spawn(&ProxyConfig {
        upstream: upstream.to_string(),
        switch: SwitchTierConfig {
            levels: 3,
            memory_bytes: 8_192,
            seed: 0x51_0E,
        },
        ..ProxyConfig::default()
    })
    .unwrap()
}

#[test]
fn slow_upstream_round_trip_does_not_block_other_connections_hits() {
    // Serves `record_for(key)` for every GET, except GETs of SLOW_KEY,
    // which wait for the gate.
    let gate = Arc::new(Gate::default());
    let upstream_gate = Arc::clone(&gate);
    let (upstream_addr, _listener) = spawn_scripted_upstream(move |request| match request {
        Request::Get { key } => {
            if key == SLOW_KEY {
                upstream_gate.wait();
            }
            Response::Value(record_for(key).to_vec())
        }
        Request::Set { .. } | Request::Del { .. } => Response::Ok,
        _ => Response::Err("unsupported in stalling upstream".to_owned()),
    })
    .unwrap();
    let proxy = spawn_proxy(upstream_addr);

    // Warm the switch on a fast key from connection B: miss, forward,
    // admit; the repeat proves it now hits.
    let warm = 42;
    let mut conn_b = Client::connect(proxy.local_addr()).unwrap();
    assert_eq!(conn_b.get(warm).unwrap(), Some(record_for(warm).to_vec()));
    assert_eq!(conn_b.get(warm).unwrap(), Some(record_for(warm).to_vec()));
    let hits_before = proxy.counters().snapshot(3).hits;
    assert!(hits_before >= 1, "warm key must hit the switch");

    // Connection A's GET parks inside the upstream round-trip.
    let slow_addr = proxy.local_addr();
    let conn_a = thread::spawn(move || {
        let mut client = Client::connect(slow_addr).unwrap();
        client.get(SLOW_KEY).unwrap()
    });
    // Make sure A reached the upstream (its forward counter ticks) before
    // measuring B.
    let forwarded_to = proxy.counters().snapshot(3).forwarded + 1;
    let reached = Instant::now();
    while proxy.counters().snapshot(3).forwarded < forwarded_to {
        assert!(
            reached.elapsed() < Duration::from_secs(10),
            "connection A never reached the upstream"
        );
        thread::sleep(Duration::from_millis(5));
    }

    // With A stalled mid-round-trip, B's switch hits must keep flowing
    // promptly — the mutex is free while A waits on the network.
    let rounds = 200;
    let burst = Instant::now();
    for _ in 0..rounds {
        assert_eq!(conn_b.get(warm).unwrap(), Some(record_for(warm).to_vec()));
    }
    let burst_elapsed = burst.elapsed();
    assert!(
        burst_elapsed < Duration::from_secs(5),
        "{rounds} switch hits took {burst_elapsed:?} while another \
         connection was stalled upstream — the tier lock is being held \
         across the round-trip"
    );
    let snap = proxy.counters().snapshot(3);
    assert!(
        snap.hits >= hits_before + rounds,
        "hits {} must have grown by the burst ({} before)",
        snap.hits,
        hits_before
    );

    // Release A; it completes with the right value, and the admission it
    // races in afterwards is the epoch guard's business, not this test's.
    gate.open();
    assert_eq!(
        conn_a.join().expect("connection A panicked"),
        Some(record_for(SLOW_KEY).to_vec())
    );
    proxy.shutdown();
}

/// The third coherence rule (crates/tier/src/switch.rs): connection A's
/// SET is invalidated-and-forwarded, and while the upstream still holds it
/// unapplied, connection B's GET of the same key misses, is served the OLD
/// value upstream, and admits it — legitimately, the epoch has not moved
/// since B read it. Only the second invalidation, after the upstream acks
/// the SET, keeps A's own next GET from hitting that stale copy.
#[test]
fn get_served_ahead_of_a_held_set_does_not_outlive_the_sets_ack() {
    let key = 4_242;
    let old = record_from_bytes(b"v1").to_vec();
    let new = record_from_bytes(b"v2").to_vec();

    // One stored value; a SET announces its arrival, then applies only
    // once the gate opens.
    let gate = Arc::new(Gate::default());
    let upstream_gate = Arc::clone(&gate);
    let stored = Mutex::new(old.clone());
    let (set_arrived_tx, set_arrived) = mpsc::channel();
    let (upstream_addr, _listener) = spawn_scripted_upstream(move |request| match request {
        Request::Get { .. } => Response::Value(stored.lock().unwrap().clone()),
        Request::Set { value, .. } => {
            set_arrived_tx.send(()).unwrap();
            upstream_gate.wait();
            *stored.lock().unwrap() = record_from_bytes(&value).to_vec();
            Response::Ok
        }
        _ => Response::Err("unsupported in stalling upstream".to_owned()),
    })
    .unwrap();
    let proxy = spawn_proxy(upstream_addr);

    let addr = proxy.local_addr();
    let conn_a = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.set(key, b"v2").unwrap();
        client.get(key).unwrap()
    });
    set_arrived
        .recv_timeout(Duration::from_secs(10))
        .expect("connection A's SET never reached the upstream");

    // A's first invalidation is done and its SET is parked upstream: B
    // reads the old value (a fair answer to a GET concurrent with the SET)
    // and the switch admits it.
    let mut conn_b = Client::connect(addr).unwrap();
    assert_eq!(conn_b.get(key).unwrap(), Some(old.clone()));
    let hits_before = proxy.counters().snapshot(3).hits;
    assert_eq!(conn_b.get(key).unwrap(), Some(old));
    assert_eq!(
        proxy.counters().snapshot(3).hits,
        hits_before + 1,
        "the old value must be sitting in the switch for the test to bite"
    );

    gate.open();
    assert_eq!(
        conn_a.join().expect("connection A panicked"),
        Some(new),
        "A's GET after its own acked SET read the value the SET overwrote"
    );
    proxy.shutdown();
}
