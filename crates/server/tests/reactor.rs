//! Connection front-end integration tests (DESIGN.md §12).
//!
//! The reactor multiplexes every connection onto a fixed pool of event-loop
//! threads; its observable contract is per-connection responses in request
//! order, pipelining capped by the server window, SHUTDOWN honored,
//! STATS/`/metrics` served. These
//! tests drive it with blocking clients — a thousand of them at once — so
//! any edge-triggered stall (a reply that never flushes, a read that never
//! resumes) shows up as a hang or an out-of-order reply.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use p4lru_kvstore::db::record_for;
use p4lru_obs::http::http_get;
use p4lru_server::client::Client;
use p4lru_server::protocol::Response;
use p4lru_server::server::{Server, ServerConfig};

const ITEMS: u64 = 200;

fn reactor_config() -> ServerConfig {
    ServerConfig {
        items: ITEMS,
        units_per_shard: 64,
        shards: 2,
        io_threads: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn reactor_serves_pipelined_bursts_in_request_order() {
    let server = Server::spawn(&reactor_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // One deep burst mixing every opcode, no reads until the end; SETs
    // rewrite the deterministic contents so GET checks stay exact.
    let mut want = Vec::new();
    for i in 0u64..200 {
        let key = (i * 37) % ITEMS;
        match i % 3 {
            0 => {
                client.send_get(key).unwrap();
                want.push(Response::Value(record_for(key).to_vec()));
            }
            1 => {
                client.send_set(key, &record_for(key)).unwrap();
                want.push(Response::Ok);
            }
            _ => {
                client.send_get(key).unwrap();
                want.push(Response::Value(record_for(key).to_vec()));
            }
        }
    }
    client.flush().unwrap();
    for (i, want) in want.iter().enumerate() {
        assert_eq!(&client.recv().unwrap(), want, "reply {i} out of order");
    }
    let stats = server.shutdown();
    assert_eq!(stats.conns.frontend, "reactor");
    assert_eq!(stats.totals.gets + stats.totals.sets, 200);
    assert!(!stats.reactor.is_empty(), "per-io-thread loop stats");
}

#[test]
fn burst_deeper_than_the_window_backpressures_not_deadlocks() {
    let server = Server::spawn(&ServerConfig {
        pipeline_window: 4,
        ..reactor_config()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0u64..256 {
        client.send_get(i % ITEMS).unwrap();
    }
    client.flush().unwrap();
    for i in 0u64..256 {
        assert_eq!(
            client.recv().unwrap(),
            Response::Value(record_for(i % ITEMS).to_vec()),
            "reply {i}"
        );
    }
    server.shutdown();
}

#[test]
fn thousand_concurrent_connections_hold_and_answer_in_order() {
    const CONNS_PER_THREAD: usize = 125;
    const THREADS: usize = 8;
    const OPS_PER_CONN: u64 = 16;

    let server = Server::spawn(&ServerConfig {
        max_conns: 2048,
        ..reactor_config()
    })
    .unwrap();
    let addr = server.local_addr();
    // Two rendezvous: one with every connection open (so the main thread
    // can observe the full complement holding), one releasing the load.
    let all_connected = Arc::new(Barrier::new(THREADS + 1));
    let release = Arc::new(Barrier::new(THREADS + 1));
    let ops_done = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let all_connected = Arc::clone(&all_connected);
            let release = Arc::clone(&release);
            let ops_done = Arc::clone(&ops_done);
            thread::spawn(move || {
                let mut clients: Vec<Client> = (0..CONNS_PER_THREAD)
                    .map(|_| Client::connect(addr).expect("connect"))
                    .collect();
                all_connected.wait();
                release.wait();
                // Pipeline a mixed burst on every connection, then drain
                // each in order.
                for (c, client) in clients.iter_mut().enumerate() {
                    for i in 0..OPS_PER_CONN {
                        let key = (t as u64 * 1_009 + c as u64 * 31 + i) % ITEMS;
                        if i % 4 == 3 {
                            client.send_set(key, &record_for(key)).unwrap();
                        } else {
                            client.send_get(key).unwrap();
                        }
                    }
                    client.flush().unwrap();
                }
                for (c, client) in clients.iter_mut().enumerate() {
                    for i in 0..OPS_PER_CONN {
                        let key = (t as u64 * 1_009 + c as u64 * 31 + i) % ITEMS;
                        let want = if i % 4 == 3 {
                            Response::Ok
                        } else {
                            Response::Value(record_for(key).to_vec())
                        };
                        assert_eq!(
                            client.recv().unwrap(),
                            want,
                            "thread {t} conn {c} reply {i}"
                        );
                    }
                }
                ops_done.fetch_add(CONNS_PER_THREAD as u64 * OPS_PER_CONN, Ordering::Relaxed);
            })
        })
        .collect();

    all_connected.wait();
    // `connect` returns once the kernel has queued the connection; the
    // accept thread may still be working through its backlog. Every client
    // is parked at `release`, so waiting here cannot lose a connection.
    let deadline = Instant::now() + Duration::from_secs(10);
    let held = loop {
        let held = server.stats().conns;
        if held.current == (THREADS * CONNS_PER_THREAD) as u64 || Instant::now() > deadline {
            break held;
        }
        thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        held.current,
        (THREADS * CONNS_PER_THREAD) as u64,
        "all 1000 connections in service at once"
    );
    release.wait();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let stats = server.shutdown();
    let expected_ops = ops_done.load(Ordering::Relaxed);
    assert_eq!(
        expected_ops,
        (THREADS * CONNS_PER_THREAD) as u64 * OPS_PER_CONN
    );
    assert_eq!(stats.totals.gets + stats.totals.sets, expected_ops);
    assert_eq!(
        stats.conns.accepted_total,
        (THREADS * CONNS_PER_THREAD) as u64
    );
    assert_eq!(stats.conns.rejected_total, 0);
    let loop_conns: u64 = stats.reactor.iter().map(|l| l.connections).sum();
    assert_eq!(loop_conns, 0, "every connection deregistered at the end");
}

#[test]
fn connections_past_the_limit_get_an_err_frame() {
    let server = Server::spawn(&ServerConfig {
        max_conns: 2,
        ..reactor_config()
    })
    .unwrap();
    let addr = server.local_addr();
    // Occupy both slots and prove they are in service.
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert!(a.get(1).unwrap().is_some());
    assert!(b.get(2).unwrap().is_some());
    // The third connection gets one protocol-level ERR frame, then EOF.
    let mut c = Client::connect(addr).unwrap();
    let err = c.get(3).expect_err("past the limit there is no service");
    let _ = err;
    let stats = server.stats();
    assert_eq!(stats.conns.frontend, "reactor");
    assert_eq!(stats.conns.current, 2);
    assert_eq!(stats.conns.rejected_total, 1);
    // Dropping one admitted connection frees a slot for a newcomer.
    drop(a);
    let mut d = loop {
        // The gauge decrements when the server notices the close; retry
        // until the slot is visibly free.
        let mut d = Client::connect(addr).unwrap();
        match d.get(4) {
            Ok(_) => break d,
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(d.get(5).unwrap().is_some());
    server.shutdown();
}

#[test]
fn rejected_connection_reads_the_limit_error_text() {
    let server = Server::spawn(&ServerConfig {
        max_conns: 1,
        ..reactor_config()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut a = Client::connect(addr).unwrap();
    assert!(a.get(1).unwrap().is_some());
    // Raw read: the rejected connection's single frame is a protocol ERR
    // naming the limit.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    // The reject frame may race the read; the server writes it before
    // closing, so a blocking read sees frame-then-EOF.
    assert!(p4lru_server::protocol::read_frame(&mut stream, &mut frame).unwrap());
    match Response::decode(&frame).unwrap() {
        Response::Err(msg) => assert!(
            msg.contains("connection limit"),
            "rejection must say why: {msg:?}"
        ),
        other => panic!("expected ERR, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn shutdown_opcode_stops_a_reactor_server() {
    let server = Server::spawn(&reactor_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Queue work ahead of SHUTDOWN: everything before the ack must still
    // answer, in order, before the server stops.
    client.send_get(7).unwrap();
    client.send_set(9, &record_for(9)).unwrap();
    client.flush().unwrap();
    assert_eq!(
        client.recv().unwrap(),
        Response::Value(record_for(7).to_vec())
    );
    assert_eq!(client.recv().unwrap(), Response::Ok);
    client.shutdown().unwrap();
    drop(client);
    let stats = server.wait(); // returns only if the opcode stopped it
    assert_eq!(stats.totals.gets, 1);
    assert_eq!(stats.totals.sets, 1);
}

#[test]
fn metrics_endpoint_exposes_connection_and_reactor_families() {
    let server = Server::spawn(&ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        max_conns: 1,
        ..reactor_config()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut a = Client::connect(addr).unwrap();
    assert!(a.get(1).unwrap().is_some());
    // Force one rejection so the counter is nonzero in the scrape.
    let mut c = Client::connect(addr).unwrap();
    let _ = c.get(2).expect_err("second connection is over the limit");

    let metrics = server.metrics_addr().expect("metrics endpoint configured");
    let (status, body) = http_get(metrics, "/metrics").unwrap();
    assert!(status.contains("200"), "{status}");
    for family in [
        "p4lru_connections{frontend=\"reactor\"} 1",
        "p4lru_connections_total{frontend=\"reactor\"} 1",
        "p4lru_conn_rejected_total{frontend=\"reactor\"} 1",
        "p4lru_reactor_turns_total{io_thread=\"0\"}",
        "p4lru_reactor_turns_total{io_thread=\"1\"}",
        "p4lru_reactor_events_total{io_thread=\"0\"}",
        "p4lru_reactor_wakeups_total{io_thread=\"0\"}",
        "p4lru_reactor_messages_total{io_thread=\"0\"}",
        "p4lru_reactor_connections{io_thread=",
    ] {
        assert!(body.contains(family), "missing {family:?} in:\n{body}");
    }
    server.shutdown();
}

/// `--frontend` is no longer an option, but the benchmark harness still
/// passes `--frontend reactor`: that literal must keep starting the
/// daemon, and the removed value must fail loudly rather than fall back.
#[test]
fn serverd_accepts_frontend_reactor_and_names_the_removal_of_threads() {
    let serverd = |frontend: &str| {
        Command::new(env!("CARGO_BIN_EXE_p4lru_serverd"))
            .args(["--addr", "127.0.0.1:0", "--items", "0", "--frontend"])
            .arg(frontend)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("serverd spawns")
    };

    let mut child = serverd("reactor");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped"))
        .lines()
        .map(|line| line.expect("serverd stdout is readable"));
    let banner = lines
        .find(|line| line.contains("listening on "))
        .expect("serverd printed its listen banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address after 'listening on'");
    Client::connect(addr).unwrap().shutdown().unwrap();
    // Drain to EOF: the daemon prints its final stats into this pipe.
    lines.for_each(drop);
    assert!(child.wait().unwrap().success());

    let refused = serverd("threads").wait_with_output().unwrap();
    assert!(!refused.status.success());
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("the threads front-end was removed in PR 12"),
        "stderr must name the removal: {stderr}"
    );
}

/// Under a hard fd limit below `--max-conns` + 256, the daemon serves as
/// many connections as its descriptors hold (320 − 256 = 64) and turns
/// the next one away with the limit's ERR frame, where an accept failing
/// with EMFILE would leave that client hanging.
#[test]
fn serverd_clamps_its_connection_limit_to_the_fds_it_was_granted() {
    // `ulimit` in the shell limits only that shell and the daemon it execs.
    let mut child = Command::new("sh")
        .args(["-c", "ulimit -n 320; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_p4lru_serverd"))
        .args(["--addr", "127.0.0.1:0", "--items", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serverd spawns");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped"))
        .lines()
        .map_while(Result::ok);
    let banner = lines
        .find(|line| line.contains("listening on "))
        .expect("a listen banner");
    assert!(banner.contains("max_conns=64)"), "banner: {banner}");
    let addr = banner.split(' ').nth(3).unwrap().to_owned();

    let mut held: Vec<Client> = (0..64).map(|_| Client::connect(&*addr).unwrap()).collect();
    for client in &mut held {
        client.ping().unwrap();
    }
    let mut stream = std::net::TcpStream::connect(&*addr).unwrap();
    let mut frame = Vec::new();
    assert!(p4lru_server::protocol::read_frame(&mut stream, &mut frame).unwrap());
    assert_eq!(
        Response::decode(&frame).unwrap(),
        Response::Err("server at connection limit (64)".to_owned())
    );

    held[0].shutdown().unwrap();
    drop(held);
    // Drain to EOF: the daemon prints its final stats into this pipe.
    lines.for_each(drop);
    assert!(child.wait().unwrap().success());
}
