//! Connection front-end benchmark (DESIGN.md §12): an open-loop sweep
//! holding an order of magnitude more connections than the closed-loop
//! generator's thread-per-connection design can offer.
//!
//! Two phases, each against a fresh volatile server:
//!
//! 1. **capacity** — closed-loop loadgen (quick 32 / full 128 connections,
//!    pipeline 8) against an in-process server; its throughput is the
//!    yardstick the open loop's offered rates are fractions of.
//! 2. **open-loop sweep** — quick 1 000 / full 10 000 connections paced at
//!    fractions of that capacity, recording coordinated-omission-safe
//!    latency per offered rate. The server's own STATS gauge is polled
//!    mid-run to prove the connections are genuinely held concurrently
//!    (`--assert-conns <n>` makes that a hard failure).
//!
//! Results: the sweep becomes `results/BENCH_server_openloop.json`, with
//! the capacity run and the connections held per rung in its notes.

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use p4lru_bench::{FigureResult, Scale};
use p4lru_server::loadgen::{run, BenchSummary, LoadgenConfig};
use p4lru_server::openloop::{run_open_loop, OpenLoopConfig, OpenLoopSummary};
use p4lru_server::server::{Server, ServerConfig};
use p4lru_server::Client;

/// Fractions of the measured closed-loop throughput the open loop offers.
/// Below saturation the tail is flat; the top rung shows it lift.
const RATE_FRACTIONS: [f64; 3] = [0.25, 0.5, 0.75];

/// The value of `--assert-conns`, when given.
fn parse_assert_conns() -> Result<Option<u64>, String> {
    let mut assert_conns = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--assert-conns" => {
                let v = args.next().ok_or("--assert-conns needs a value")?;
                assert_conns = Some(
                    v.parse()
                        .map_err(|e| format!("bad value for --assert-conns: {e:?}"))?,
                );
            }
            "--scale" => {
                args.next(); // handled by Scale::from_args
            }
            other => {
                return Err(format!(
                    "unknown flag {other} (try --scale, --assert-conns)"
                ))
            }
        }
    }
    Ok(assert_conns)
}

/// The capacity yardstick: fresh in-process server, one closed-loop
/// loadgen run.
fn closed_loop(base: &ServerConfig, conns: usize, seconds: f64) -> Result<BenchSummary, String> {
    let server = Server::spawn(base).map_err(|e| format!("failed to start server: {e}"))?;
    let summary = run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        threads: conns,
        seconds,
        items: base.items,
        pipeline: 8,
        ..LoadgenConfig::default()
    })
    .map_err(|e| format!("closed-loop loadgen failed: {e}"))?;
    if summary.not_found > 0 || summary.corrupt > 0 {
        return Err(format!(
            "closed loop: {} reads found nothing, {} mismatched",
            summary.not_found, summary.corrupt
        ));
    }
    server.shutdown();
    Ok(summary)
}

/// A `p4lru_serverd` child process, killed on drop if the SHUTDOWN opcode
/// never landed.
struct ChildServer(Child);

impl ChildServer {
    /// Stops the daemon the polite way (SHUTDOWN opcode, then reap); the
    /// `Drop` kill is the backstop if the opcode fails.
    fn stop(mut self, addr: SocketAddr) {
        if Client::connect(addr).and_then(|mut c| c.shutdown()).is_ok() {
            let _ = self.0.wait();
        }
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a `p4lru_serverd` (the binary sits next to
/// this one in the cargo target directory) on an ephemeral port and parses
/// the bound address out of its listen banner.
///
/// A child process rather than `Server::spawn`: this container's
/// `RLIMIT_NOFILE` hard cap (20 000) cannot be raised even by root, and at
/// full scale the client connections alone are 10 000 descriptors — the
/// accepted sides must live in their own process with their own budget.
fn spawn_serverd(
    base: &ServerConfig,
    max_conns: usize,
) -> Result<(ChildServer, SocketAddr), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let serverd = exe
        .parent()
        .ok_or("current_exe has no parent directory")?
        .join("p4lru_serverd");
    if !serverd.exists() {
        return Err(format!(
            "{} not found (build the workspace binaries first)",
            serverd.display()
        ));
    }
    let mut child = Command::new(&serverd)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &base.shards.to_string(),
            "--items",
            &base.items.to_string(),
            "--units",
            &base.units_per_shard.to_string(),
            "--io-threads",
            &base.io_threads.to_string(),
            "--max-conns",
            &max_conns.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", serverd.display()))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let child = ChildServer(child);
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut addr = None;
    for line in lines.by_ref() {
        let line = line.map_err(|e| format!("reading serverd banner: {e}"))?;
        if let Some(rest) = line.strip_prefix("p4lru_serverd listening on ") {
            let end = rest.find(' ').unwrap_or(rest.len());
            addr = Some(
                rest[..end]
                    .parse()
                    .map_err(|e| format!("bad address in banner {rest:?}: {e}"))?,
            );
            break;
        }
    }
    let addr = addr.ok_or("serverd exited before printing its listen banner")?;
    // Keep draining the pipe so the daemon never blocks on a full stdout.
    thread::spawn(move || for _ in lines {});
    Ok((child, addr))
}

/// One open-loop rung: fresh serverd (child process), `conns`
/// connections paced at `rate`, the server's connection gauge polled over
/// a STATS connection throughout. Returns the summary and the highest
/// concurrent connection count the server reported.
fn open_loop_point(
    base: &ServerConfig,
    conns: usize,
    rate: f64,
    seconds: f64,
) -> Result<(OpenLoopSummary, u64), String> {
    let (server, addr) = spawn_serverd(base, conns + 64)?;
    let config = OpenLoopConfig {
        addr: addr.to_string(),
        conns,
        rate,
        seconds,
        items: base.items,
        ..OpenLoopConfig::default()
    };
    let done = AtomicBool::new(false);
    let held = AtomicU64::new(0);
    let summary = thread::scope(|scope| {
        let gauge = scope.spawn(|| {
            // The mid-run proof: the server itself says how many
            // connections are concurrently in service.
            let mut stats = Client::connect(addr).ok();
            while !done.load(Ordering::Relaxed) {
                if let Some(now) = stats.as_mut().and_then(|c| c.stats().ok()) {
                    held.fetch_max(now.conns.current, Ordering::Relaxed);
                }
                thread::sleep(Duration::from_millis(50));
            }
        });
        let summary = run_open_loop(&config);
        done.store(true, Ordering::Relaxed);
        gauge.join().expect("gauge poller panicked");
        summary
    })
    .map_err(|e| format!("open loop at rate {rate:.0} failed: {e}"))?;
    if summary.corrupt > 0 || summary.not_found > 0 {
        return Err(format!(
            "open loop at rate {rate:.0}: {} reads found nothing, {} mismatched",
            summary.not_found, summary.corrupt
        ));
    }
    server.stop(addr);
    Ok((summary, held.load(Ordering::Relaxed)))
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let assert_conns = match parse_assert_conns() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let base = ServerConfig {
        shards: scale.pick(2, 4),
        items: scale.pick(20_000, 100_000),
        units_per_shard: scale.pick(1024, 4096),
        io_threads: 2,
        ..ServerConfig::default()
    };
    let closed_conns = scale.pick(32, 128);
    let closed_seconds = scale.pick(2.0, 5.0);
    let open_conns = scale.pick(1_000, 10_000);
    let open_seconds = scale.pick(1.5, 5.0);

    // Phase 1: closed-loop capacity.
    let closed = match closed_loop(&base, closed_conns, closed_seconds) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "closed   {closed_conns:>5} conns: {:>9.0} ops/s  p50 {:>7.1} us  p99 {:>7.1} us",
        closed.throughput_ops_s, closed.p50_us, closed.p99_us
    );

    // Phase 2: open-loop rate ladder, connections an order of magnitude
    // past what phase 1 drove, paced off the measured capacity.
    let mut fig = FigureResult::new(
        "BENCH_server_openloop",
        "Open-loop latency vs offered load, reactor front-end (volatile, YCSB-B)",
        "offered load (ops/s)",
        "latency (us, intended-send to reply; coordinated-omission-safe)",
    );
    fig.note(format!(
        "server: frontend=reactor io_threads={} shards={} items={} units_per_shard={}",
        base.io_threads, base.shards, base.items, base.units_per_shard
    ));
    fig.note(format!(
        "open loop: conns={open_conns} seconds={open_seconds} window=32 \
         rates={RATE_FRACTIONS:?} x closed-loop {:.0} ops/s ({closed_conns} conns, pipeline 8)",
        closed.throughput_ops_s
    ));
    let mut min_held = u64::MAX;
    let (mut p50s, mut p95s, mut p99s, mut achieved) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for fraction in RATE_FRACTIONS {
        let rate = (closed.throughput_ops_s * fraction).max(1.0);
        let (point, held) = match open_loop_point(&base, open_conns, rate, open_seconds) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "open     {open_conns:>5} conns: offered {rate:>9.0} ops/s  achieved {:>9.0}  \
             p50 {:>8.1} us  p99 {:>8.1} us  held {held}  lag {} us  aborted {}",
            point.achieved_ops_s,
            point.p50_us,
            point.p99_us,
            point.max_send_lag_us,
            point.aborted_conns
        );
        min_held = min_held.min(held);
        fig.x.push(point.offered_ops_s);
        p50s.push(point.p50_us);
        p95s.push(point.p95_us);
        p99s.push(point.p99_us);
        achieved.push(point.achieved_ops_s);
        fig.note(format!(
            "rate={rate:.0} ({fraction}x): ops={} achieved={:.0} p50_us={:.1} p99_us={:.1} \
             conns_held={held} max_send_lag_us={} aborted_conns={}",
            point.ops,
            point.achieved_ops_s,
            point.p50_us,
            point.p99_us,
            point.max_send_lag_us,
            point.aborted_conns
        ));
    }
    fig.push_series("p50_us", p50s);
    fig.push_series("p95_us", p95s);
    fig.push_series("p99_us", p99s);
    fig.push_series("achieved_ops_s", achieved);
    fig.emit();

    if let Some(want) = assert_conns {
        if min_held < want {
            eprintln!(
                "error: --assert-conns {want}: server gauge peaked at {min_held} during the \
                 weakest rung"
            );
            return ExitCode::FAILURE;
        }
        println!("held {min_held} conns >= required {want}");
    }
    ExitCode::SUCCESS
}
