//! The cluster router daemon: a thin proxy that speaks the ordinary
//! client protocol and routes each key to its consistent-hash slot.
//!
//! Unmodified clients (loadgen, `p4lru_client`, anything speaking the
//! frame protocol) connect to the router exactly as they would to a single
//! serverd and get cluster routing, failover retries, and merged STATS for
//! free. Each connection gets its own [`ClusterClient`] — its own sockets
//! to the nodes — so connections scale the same way they do against a
//! single server and one stalled peer cannot head-of-line-block another.
//!
//! Failover is *probed*, not discovered: a background [`Prober`] PINGs
//! every slot's active node and flips routing to the standby after
//! `--probe-fails` consecutive failures — before the first client-visible
//! timeout. All per-connection clients share one [`ClusterHealth`], so
//! one flip moves every connection, and `--metrics-addr` serves the
//! per-slot request/error/flip/probe families from the same state.
//!
//! The router is also a trace hop: it forwards a client's in-band
//! [`p4lru_obs::SpanContext`] upstream (hop +1) or originates one for every
//! `--trace-every`-th untraced request, and prints a `ROUTER trace=…`
//! breakdown (queue + upstream RTT) when a request crosses
//! `--slow-op-us` — grep the trace id to join it with serverd's
//! `SERVER trace=…` stage breakdown.
//!
//! STATS answers with every node's shards merged into one report (shard
//! ids offset per node, totals re-summed); SHUTDOWN stops the *router*
//! only — nodes are owned by whoever started them.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p4lru_cluster::{
    router_families, ClusterClient, ClusterHealth, ClusterSpec, ProbeConfig, Prober, RetryPolicy,
};
use p4lru_obs::{Expo, HopKind, HopTrace, MetricsHttp, SpanSampler};
use p4lru_server::metrics::StatsReport;
use p4lru_server::protocol::{FrameReader, FrameWriter, Request, Response};

const USAGE: &str = "\
p4lru_routerd — consistent-hash router for a p4lru serverd cluster

USAGE: p4lru_routerd --cluster <spec> [OPTIONS]

OPTIONS:
  --cluster <spec>        comma-separated slots, each primary[~follower]
                          (e.g. 127.0.0.1:4190~127.0.0.1:4290,127.0.0.1:4191)
  --addr <host:port>      listen address            [default: 127.0.0.1:4195]
  --retry-base-ms <n>     first-retry backoff       [default: 10]
  --retry-cap-ms <n>      backoff ceiling           [default: 640]
  --retry-attempts <n>    attempts per op (first try included) [default: 8]
  --metrics-addr <a>      serve per-slot Prometheus families at
                          http://<a>/metrics
  --probe-interval-ms <n> health-probe period       [default: 100]
  --probe-timeout-ms <n>  per-probe deadline        [default: 250]
  --probe-fails <n>       consecutive failures before a slot flips
                          (0 disables probing)      [default: 3]
  --trace-every <n>       originate an in-band trace for 1 in n requests
                          (0 disables origination; forwarded client
                          spans always propagate)   [default: 64]
  --slow-op-us <n>        print a ROUTER trace breakdown past this
                          end-to-end time           [default: 10000]
  -h, --help              print this help
";

struct RouterConfig {
    addr: String,
    spec: ClusterSpec,
    retry: RetryPolicy,
    metrics_addr: Option<String>,
    probe: ProbeConfig,
    probing: bool,
    trace_every: u64,
    slow_op_us: u64,
}

fn parse_args() -> Result<RouterConfig, String> {
    let mut addr = "127.0.0.1:4195".to_owned();
    let mut spec = None;
    let mut retry = RetryPolicy::default();
    let mut metrics_addr = None;
    let mut probe = ProbeConfig::default();
    let mut probing = true;
    let mut trace_every = 64u64;
    let mut slow_op_us = 10_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "-h" || flag == "--help" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e| format!("bad value for {flag}: {e:?}");
        match flag.as_str() {
            "--addr" => addr = value,
            "--cluster" => spec = Some(ClusterSpec::parse(&value)?),
            "--retry-base-ms" => retry.base = Duration::from_millis(value.parse().map_err(bad)?),
            "--retry-cap-ms" => retry.cap = Duration::from_millis(value.parse().map_err(bad)?),
            "--retry-attempts" => retry.max_attempts = value.parse().map_err(bad)?,
            "--metrics-addr" => metrics_addr = Some(value),
            "--probe-interval-ms" => {
                probe.interval = Duration::from_millis(value.parse().map_err(bad)?)
            }
            "--probe-timeout-ms" => {
                probe.timeout = Duration::from_millis(value.parse().map_err(bad)?)
            }
            "--probe-fails" => {
                let n: u32 = value.parse().map_err(bad)?;
                probing = n > 0;
                probe.fail_threshold = n.max(1);
            }
            "--trace-every" => trace_every = value.parse().map_err(bad)?,
            "--slow-op-us" => slow_op_us = value.parse().map_err(bad)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let spec = spec.ok_or("missing --cluster")?;
    Ok(RouterConfig {
        addr,
        spec,
        retry,
        metrics_addr,
        probe,
        probing,
        trace_every,
        slow_op_us,
    })
}

/// How often a connection blocked in a read wakes to check the running flag.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// Merges per-node reports into one: shards concatenated with node-offset
/// ids, totals re-derived. Tier/conn/reactor/cluster sections are
/// per-node concerns and stay out of the merged view.
fn merge_stats(reports: Vec<(String, StatsReport)>) -> StatsReport {
    let mut shards = Vec::new();
    for (_, report) in reports {
        let offset = shards.len() as u64;
        for mut s in report.shards {
            s.shard = s.shard.saturating_add(offset);
            shards.push(s);
        }
    }
    StatsReport::from_shards(shards)
}

/// Everything a connection thread shares with the rest of the router.
struct Shared {
    spec: ClusterSpec,
    retry: RetryPolicy,
    running: AtomicBool,
    health: Arc<ClusterHealth>,
    sampler: SpanSampler,
    slow_ns: u64,
}

fn serve_conn(stream: TcpStream, shared: &Shared) -> io::Result<bool> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut reader = FrameReader::new(stream.try_clone()?);
    let mut writer = FrameWriter::new(stream);
    let mut cluster =
        ClusterClient::with_health(&shared.spec, shared.retry, Arc::clone(&shared.health));
    let mut frame = Vec::new();
    let mut payload = Vec::new();
    while shared.running.load(Ordering::SeqCst) {
        match reader.read_frame(&mut frame) {
            Ok(true) => {}
            Ok(false) => return Ok(true), // clean disconnect
            // An idle connection: wake to re-check the running flag (the
            // reader resumes a partly read frame where it left off).
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
        let received = Instant::now();
        let incoming = reader.take_span();
        let request = match Request::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                Response::Err(e.to_string()).encode(&mut payload);
                writer.write_frame(&payload)?;
                writer.flush()?;
                return Ok(true);
            }
        };
        let span = match request {
            Request::Get { .. } | Request::Set { .. } | Request::Del { .. } => {
                shared.sampler.span_for(incoming)
            }
            _ => None,
        };
        let dispatched = Instant::now();
        let response = match request {
            Request::Get { key } => match cluster.get_spanned(key, span) {
                Ok(Some(v)) => Response::Value(v),
                Ok(None) => Response::NotFound,
                Err(e) => Response::Err(format!("GET via {}: {e}", cluster.node_for(key))),
            },
            Request::Set { key, value } => match cluster.set_spanned(key, &value, span) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(format!("SET via {}: {e}", cluster.node_for(key))),
            },
            Request::Del { key } => match cluster.del_spanned(key, span) {
                Ok(true) => Response::Ok,
                Ok(false) => Response::NotFound,
                Err(e) => Response::Err(format!("DEL via {}: {e}", cluster.node_for(key))),
            },
            // A PING probes the router itself: answered from this hop,
            // never forwarded (the prober talks to the nodes directly).
            Request::Ping => Response::Pong,
            Request::Stats => match cluster.stats_all() {
                Ok(reports) => {
                    let merged = merge_stats(reports);
                    match serde_json::to_string(&merged) {
                        Ok(json) => Response::StatsJson(json),
                        Err(e) => Response::Err(format!("STATS encode: {e:?}")),
                    }
                }
                Err(e) => Response::Err(format!("STATS: {e}")),
            },
            Request::Shutdown => {
                Response::Ok.encode(&mut payload);
                writer.write_frame(&payload)?;
                writer.flush()?;
                shared.running.store(false, Ordering::SeqCst);
                return Ok(false);
            }
        };
        if let Some(ctx) = span {
            let total = received.elapsed();
            if total.as_nanos() as u64 >= shared.slow_ns {
                let mut hop = HopTrace::new(ctx, HopKind::Router);
                hop.segment("queue", (dispatched - received).as_nanos() as u64);
                hop.segment("upstream", dispatched.elapsed().as_nanos() as u64);
                println!("[p4lru_routerd] slow op: {}", hop.breakdown());
            }
        }
        response.encode(&mut payload);
        writer.write_frame(&payload)?;
        // Only flush when no further request is already buffered: pipelined
        // clients get coalesced writes, closed-loop clients get no added
        // latency.
        if !reader.has_buffered_frame() {
            writer.flush()?;
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind(&config.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = listener.local_addr().expect("bound socket has an address");
    // Parsed by cluster tooling, like serverd's listen line.
    println!(
        "p4lru_routerd listening on {addr} routing {} slots",
        config.spec.nodes.len()
    );
    let health = Arc::new(ClusterHealth::new(&config.spec));
    let prober = config
        .probing
        .then(|| Prober::spawn(Arc::clone(&health), config.probe));
    let metrics_http = match &config.metrics_addr {
        Some(maddr) => {
            let health = Arc::clone(&health);
            match MetricsHttp::serve(maddr, move || {
                let mut e = Expo::new();
                router_families(&mut e, &health);
                e.finish()
            }) {
                Ok(h) => {
                    println!("p4lru_routerd metrics on http://{}/metrics", h.local_addr());
                    Some(h)
                }
                Err(e) => {
                    eprintln!("error: cannot bind metrics {maddr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let shared = Arc::new(Shared {
        spec: config.spec,
        retry: config.retry,
        running: AtomicBool::new(true),
        health,
        sampler: SpanSampler::new(config.trace_every),
        slow_ns: config.slow_op_us.saturating_mul(1_000),
    });
    let mut workers = Vec::new();
    while shared.running.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        let shared_conn = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || {
            match serve_conn(stream, &shared_conn) {
                Ok(true) | Err(_) => {}
                Ok(false) => {
                    // SHUTDOWN: poke the accept loop awake so it notices.
                    let _ = TcpStream::connect(addr);
                }
            }
        }));
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
    if let Some(p) = prober {
        p.stop();
    }
    drop(metrics_http);
    println!("p4lru_routerd: shutdown");
    ExitCode::SUCCESS
}
