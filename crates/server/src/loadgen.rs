//! A closed-loop load generator replaying the YCSB workloads from
//! `p4lru-traffic` against a running server.
//!
//! Each worker thread owns one connection and one deterministic operation
//! stream (seeded per worker). With `pipeline == 1` it issues requests
//! back-to-back: classic closed loop, latency is service time plus loopback
//! RTT, throughput is bounded by `threads / latency`. With `pipeline == d`
//! the worker keeps up to `d` requests in flight on its one connection —
//! sends are batched into one `write`, replies drain in request order —
//! so throughput is bounded by `threads * d / latency` instead, and the
//! server's group commit sees batches up to `d` deep per connection.
//! Latencies (send → reply, including client-side queueing when pipelined)
//! go into per-worker log₂ histograms, merged at the end.

use std::collections::VecDeque;
use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use p4lru_kvstore::db::record_for;
use p4lru_obs::HistSnapshot;
use p4lru_traffic::ycsb::{Op, YcsbConfig};
use serde::Serialize;

use crate::client::Client;

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Worker threads (one connection each).
    pub threads: usize,
    /// Run duration in seconds.
    pub seconds: f64,
    /// YCSB key-space size; must match the server's `--items` for the
    /// workload to make sense.
    pub items: u64,
    /// Zipf skew (paper: 0.9).
    pub alpha: f64,
    /// Fraction of reads (YCSB-B: 0.95, YCSB-C: 1.0).
    pub read_fraction: f64,
    /// Base RNG seed; worker `i` uses a derived seed.
    pub seed: u64,
    /// Verify every read against the deterministic record contents.
    pub verify: bool,
    /// Treat a mid-run connection error as the end of that worker's run
    /// instead of a failure — the expected outcome when the server is
    /// kill-9'd underneath the load (crash-recovery tests).
    pub crash_ok: bool,
    /// Record the key of every *acknowledged* SET, so a later run can
    /// verify that none of them were lost across a crash.
    pub record_acked: bool,
    /// Requests each worker keeps in flight on its connection. 1 is the
    /// classic closed loop; larger depths pipeline.
    pub pipeline: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4190".to_owned(),
            threads: 4,
            seconds: 5.0,
            items: 100_000,
            alpha: 0.9,
            read_fraction: 0.95,
            seed: 0x10AD,
            verify: true,
            crash_ok: false,
            record_acked: false,
            pipeline: 1,
        }
    }
}

/// Aggregated results of one run.
#[derive(Clone, Debug)]
pub struct BenchSummary {
    /// Operations completed across all workers.
    pub ops: u64,
    /// Reads that found no value (should be 0 against a populated server).
    pub not_found: u64,
    /// Reads whose value did not match the expected record contents.
    pub corrupt: u64,
    /// Wall-clock duration of the measurement.
    pub elapsed_s: f64,
    /// `ops / elapsed_s`.
    pub throughput_ops_s: f64,
    /// Client-observed median latency, microseconds.
    pub p50_us: f64,
    /// Client-observed 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// Client-observed 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// The merged latency histogram (for further quantiles).
    pub latency: HistSnapshot,
    /// Keys of every acknowledged SET (only with `record_acked`).
    pub acked_sets: Vec<u64>,
    /// Workers that stopped early on a connection error (only nonzero with
    /// `crash_ok` — a kill-9'd server under test).
    pub aborted_workers: u64,
}

struct WorkerResult {
    ops: u64,
    not_found: u64,
    corrupt: u64,
    latency: HistSnapshot,
    acked_sets: Vec<u64>,
    aborted: bool,
}

/// Runs the closed loop and aggregates the per-worker results.
pub fn run(config: &LoadgenConfig) -> io::Result<BenchSummary> {
    assert!(config.threads >= 1, "need at least one worker");
    assert!(config.pipeline >= 1, "pipeline depth of 0 sends nothing");
    // Resolve once so worker errors are workload errors, not DNS races.
    let addr = config.addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(config.seconds);

    let workers: Vec<thread::JoinHandle<io::Result<WorkerResult>>> = (0..config.threads)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let workload = YcsbConfig {
                items: config.items,
                alpha: config.alpha,
                read_fraction: config.read_fraction,
                seed: config.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            let config = config.clone();
            thread::spawn(move || worker(addr, &workload, deadline, &stop, &config))
        })
        .collect();

    let mut summary = BenchSummary {
        ops: 0,
        not_found: 0,
        corrupt: 0,
        elapsed_s: 0.0,
        throughput_ops_s: 0.0,
        p50_us: 0.0,
        p95_us: 0.0,
        p99_us: 0.0,
        latency: HistSnapshot::empty(),
        acked_sets: Vec::new(),
        aborted_workers: 0,
    };
    let mut first_error = None;
    for handle in workers {
        match handle.join().expect("loadgen worker panicked") {
            Ok(w) => {
                summary.ops += w.ops;
                summary.not_found += w.not_found;
                summary.corrupt += w.corrupt;
                summary.latency.merge(&w.latency);
                summary.acked_sets.extend(w.acked_sets);
                summary.aborted_workers += u64::from(w.aborted);
            }
            Err(e) => {
                // One failed worker sinks the run, but let the rest finish
                // first so the error isn't a cascade of resets.
                stop.store(true, Ordering::Relaxed);
                first_error.get_or_insert(e);
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    summary.elapsed_s = started.elapsed().as_secs_f64();
    summary.throughput_ops_s = summary.ops as f64 / summary.elapsed_s.max(1e-9);
    summary.p50_us = summary.latency.quantile_us(0.50);
    summary.p95_us = summary.latency.quantile_us(0.95);
    summary.p99_us = summary.latency.quantile_us(0.99);
    Ok(summary)
}

/// Queues one operation on the connection (no flush — the worker batches).
fn send_op(client: &mut Client, op: Op) -> io::Result<()> {
    match op {
        Op::Read(key) => client.send_get(key),
        // Rewrite the deterministic contents so concurrent readers still
        // verify cleanly.
        Op::Update(key) => client.send_set(key, &record_for(key)),
    }
}

/// Accounts one in-order reply against the operation that asked for it.
fn account_reply(
    op: Op,
    response: &crate::protocol::Response,
    config: &LoadgenConfig,
    result: &mut WorkerResult,
) -> io::Result<()> {
    use crate::protocol::Response;
    match (op, response) {
        (Op::Read(key), Response::Value(value)) => {
            if config.verify && value[..] != record_for(key)[..] {
                result.corrupt += 1;
            }
        }
        (Op::Read(_), Response::NotFound) => result.not_found += 1,
        (Op::Update(key), Response::Ok) => {
            // Only reached once the server's reply was read: this SET was
            // acknowledged, so a durable server must never lose it.
            if config.record_acked {
                result.acked_sets.push(key);
            }
        }
        (op, other) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to {op:?}: {other:?}"),
            ));
        }
    }
    Ok(())
}

/// One worker: keeps up to `config.pipeline` operations in flight on a
/// single connection. Sends are queued unbuffered-syscall-free and flushed
/// once per burst; replies come back in request order, so a `VecDeque` of
/// what was sent is all the bookkeeping reordering needs.
fn worker(
    addr: std::net::SocketAddr,
    workload: &YcsbConfig,
    deadline: Instant,
    stop: &AtomicBool,
    config: &LoadgenConfig,
) -> io::Result<WorkerResult> {
    let mut client = Client::connect(addr)?;
    let mut ops_stream = workload.stream();
    let mut result = WorkerResult {
        ops: 0,
        not_found: 0,
        corrupt: 0,
        latency: HistSnapshot::empty(),
        acked_sets: Vec::new(),
        aborted: false,
    };
    let depth = config.pipeline;
    let mut inflight: VecDeque<(Op, Instant)> = VecDeque::with_capacity(depth);
    // Receive one reply (blocking), account it. `false` = stop the loop.
    let recv_one = |client: &mut Client,
                    inflight: &mut VecDeque<(Op, Instant)>,
                    result: &mut WorkerResult|
     -> io::Result<bool> {
        let (op, sent_at) = inflight.pop_front().expect("a reply needs a request");
        match client.recv() {
            Ok(response) => {
                account_reply(op, &response, config, result)?;
                result
                    .latency
                    .record_ns(sent_at.elapsed().as_nanos() as u64);
                result.ops += 1;
                Ok(true)
            }
            Err(e) if config.crash_ok => {
                // The server died underneath us (the crash test's kill -9):
                // everything acknowledged so far still counts; anything in
                // flight was never acknowledged.
                let _ = e;
                result.aborted = true;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    };
    'load: while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        // Top the window up in one buffered burst...
        while inflight.len() < depth {
            let op = ops_stream.next().expect("YCSB stream is infinite");
            if let Err(e) = send_op(&mut client, op) {
                if config.crash_ok {
                    result.aborted = true;
                    break 'load;
                }
                return Err(e);
            }
            inflight.push_back((op, Instant::now()));
        }
        if let Err(e) = client.flush() {
            if config.crash_ok {
                result.aborted = true;
                break 'load;
            }
            return Err(e);
        }
        // ...then drain half of it, so the server always has work queued
        // while the next burst is being built (at depth 1 this is exactly
        // the classic send-one-await-one closed loop).
        let drain = (inflight.len() / 2).max(1);
        for _ in 0..drain {
            if !recv_one(&mut client, &mut inflight, &mut result)? {
                return Ok(result);
            }
        }
    }
    // Deadline (or stop signal): collect what is still in flight.
    while !inflight.is_empty() {
        if !recv_one(&mut client, &mut inflight, &mut result)? {
            break;
        }
    }
    Ok(result)
}

// Local mirror of `p4lru_bench::harness::FigureResult` — the server crate
// sits below the bench crate in the dependency order (the bench crate
// benchmarks this one), so it re-declares the two records rather than
// importing them. The root integration test parses the emitted file with
// the real `FigureResult` to keep the shapes locked together.
#[derive(Serialize)]
struct FigureOut {
    id: String,
    title: String,
    x_label: String,
    y_label: String,
    x: Vec<f64>,
    series: Vec<SeriesOut>,
    notes: Vec<String>,
}

#[derive(Serialize)]
struct SeriesOut {
    label: String,
    values: Vec<f64>,
}

/// Renders the summary as a `FigureResult`-shaped JSON document (id
/// `server_bench`): x = percentile, one latency series, one (flat)
/// throughput series, configuration and hit-rate detail in `notes`.
pub fn to_figure_json(
    config: &LoadgenConfig,
    summary: &BenchSummary,
    extra_notes: &[String],
) -> String {
    let fig = FigureOut {
        id: "server_bench".to_owned(),
        title: "p4lru-server closed-loop YCSB benchmark".to_owned(),
        x_label: "percentile".to_owned(),
        y_label: "latency (us)".to_owned(),
        x: vec![50.0, 95.0, 99.0],
        series: vec![
            SeriesOut {
                label: "latency_us".to_owned(),
                values: vec![summary.p50_us, summary.p95_us, summary.p99_us],
            },
            SeriesOut {
                label: "throughput_ops_s".to_owned(),
                values: vec![
                    summary.throughput_ops_s,
                    summary.throughput_ops_s,
                    summary.throughput_ops_s,
                ],
            },
        ],
        notes: {
            let mut notes = vec![
                format!(
                    "threads={} seconds={} items={} alpha={} read_fraction={} pipeline={}",
                    config.threads,
                    config.seconds,
                    config.items,
                    config.alpha,
                    config.read_fraction,
                    config.pipeline
                ),
                format!(
                    "ops={} elapsed_s={:.3} not_found={} corrupt={}",
                    summary.ops, summary.elapsed_s, summary.not_found, summary.corrupt
                ),
            ];
            notes.extend_from_slice(extra_notes);
            notes
        },
    };
    serde_json::to_string_pretty(&fig).expect("figure serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    #[test]
    fn short_run_against_in_process_server() {
        let server = Server::spawn(&ServerConfig {
            items: 2_000,
            units_per_shard: 256,
            shards: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let config = LoadgenConfig {
            addr: server.local_addr().to_string(),
            threads: 2,
            seconds: 0.2,
            items: 2_000,
            ..LoadgenConfig::default()
        };
        let summary = run(&config).unwrap();
        assert!(summary.ops > 0, "closed loop must complete operations");
        assert_eq!(summary.not_found, 0, "server is fully populated");
        assert_eq!(summary.corrupt, 0, "reads must verify");
        assert!(summary.p99_us >= summary.p95_us);
        assert!(summary.p95_us >= summary.p50_us);
        assert_eq!(summary.latency.count, summary.ops);

        let stats = server.shutdown();
        assert_eq!(
            stats.totals.gets + stats.totals.sets,
            summary.ops,
            "server-side op count must match the client's"
        );
        assert!(
            stats.totals.hits > 0,
            "zipf 0.9 over a roomy cache must hit"
        );

        let json = to_figure_json(
            &config,
            &summary,
            &[format!("hit_rate={:.3}", stats.totals.hit_rate)],
        );
        assert!(json.contains("\"server_bench\""));
        assert!(json.contains("latency_us"));
    }

    #[test]
    fn pipelined_run_completes_and_batches() {
        // Write-only on a durable server: every reply waits at the commit
        // gate, so every op is counted in exactly one commit batch.
        let root = std::env::temp_dir().join(format!("p4lru-loadgen-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let server = Server::spawn(&ServerConfig {
            items: 2_000,
            units_per_shard: 256,
            shards: 2,
            data_dir: Some(root.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let config = LoadgenConfig {
            addr: server.local_addr().to_string(),
            threads: 2,
            seconds: 0.3,
            items: 2_000,
            read_fraction: 0.0,
            pipeline: 8,
            ..LoadgenConfig::default()
        };
        let summary = run(&config).unwrap();
        assert!(summary.ops > 0);
        assert_eq!(summary.not_found, 0);
        assert_eq!(summary.corrupt, 0, "in-order replies match their ops");
        assert_eq!(summary.latency.count, summary.ops);

        let stats = server.shutdown();
        assert_eq!(
            stats.totals.gets + stats.totals.sets,
            summary.ops,
            "every pipelined op was acknowledged exactly once"
        );
        assert!(stats.totals.batches > 0);
        assert_eq!(stats.totals.batch_ops, summary.ops);
        assert!(
            stats.totals.batch_max > 1,
            "pipelined load must produce multi-request commit batches, \
             got max {}",
            stats.totals.batch_max
        );
        assert_eq!(stats.totals.queue_depth, 0, "drained at shutdown");
        let _ = std::fs::remove_dir_all(&root);
    }
}
