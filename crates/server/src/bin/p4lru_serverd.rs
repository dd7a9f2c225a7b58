//! The server daemon: binds, serves, and exits cleanly on the SHUTDOWN
//! opcode (printing final per-shard stats).
//!
//! With `--data-dir` the daemon is durable: writes go through a per-shard
//! WAL (sync policy from `--sync`), snapshots are sealed every
//! `--snapshot-every` appends, and a restart against the same directory
//! recovers the store instead of repopulating it.
//!
//! Observability: `--metrics-addr` serves Prometheus text at `/metrics`,
//! `--slow-op-us` logs per-stage breakdowns of slow requests to stderr,
//! `--sample-interval-ms` appends stats deltas as JSONL, and `--trace off`
//! turns request stamping off entirely (the overhead-measurement baseline).

use std::process::ExitCode;
use std::time::Duration;

use p4lru_durable::SyncPolicy;
use p4lru_server::repl::ReplConfig;
use p4lru_server::server::{Server, ServerConfig, StartMode};

const USAGE: &str = "\
p4lru_serverd — sharded P4LRU cache service

USAGE: p4lru_serverd [OPTIONS]

OPTIONS:
  --addr <host:port>    listen address       [default: 127.0.0.1:4190]
  --shards <n>          shards (one lock each) [default: 4]
  --items <n>           pre-populated keys   [default: 100000]
  --units <n>           cache units/shard    [default: 4096]
  --seed <n>            cache hash seed      [default: 0x9412C0DE]
  --window <n>          max in-flight requests per connection (pipelining)
                        [default: 64]
  --io-threads <n>      event-loop threads serving all connections
                        [default: 2]
  --max-conns <n>       connection limit; connections past it get one ERR
                        frame and are closed          [default: 8192]
  --data-dir <path>     durability root (WAL + snapshots); a dir that was
                        written before is recovered, and --items is ignored
  --sync <policy>       WAL sync policy: always | every=<n> | interval=<ms>
                        [default: always]
  --snapshot-every <n>  appends between snapshots; 0 disables
                        [default: 100000]
  --commit-latency-us <n>
                        modeled device commit latency added after every
                        fsync (0 = physical device speed)  [default: 0]
  --trace <on|off>      request-lifecycle tracing  [default: on]
  --trace-sample <n>    trace one request in n (1 = every request)
                        [default: 64]
  --slow-op-us <n>      slow-op threshold (microseconds); crossing it logs
                        the request's per-stage breakdown to stderr
                        [default: 10000]
  --metrics-addr <a>    serve Prometheus text-format at http://<a>/metrics
  --sample-interval-ms <n>
                        append a stats JSONL line every n ms (to
                        --sample-file, or <data-dir>/samples.jsonl)
  --sample-file <path>  where the sampler writes its JSONL

REPLICATION (requires --data-dir; see DESIGN.md §14):
  --repl-addr <a>       serve WAL shipping to followers on this address
                        (port 0 picks a free port, printed at startup)
  --follow <host:port>  start as a follower pulling from this primary's
                        replication address
  --replicate <mode>    async (acks don't wait) | ack (mutation acks wait
                        for the follower's durable watermark) [default: async]
  --ack-timeout-ms <n>  how long an ack-mode primary holds a batch's acks
                        before erroring them          [default: 2000]
  --pull-interval-ms <n>
                        follower idle delay between pulls  [default: 5]
  --failover-ms <n>     follower promotes itself after this long without
                        reaching the primary          [default: 750]
  -h, --help            print this help
";

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:4190".to_owned(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "-h" || flag == "--help" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e| format!("bad value for {flag}: {e:?}");
        match flag.as_str() {
            "--addr" => config.addr = value,
            "--shards" => config.shards = value.parse().map_err(bad)?,
            "--items" => config.items = value.parse().map_err(bad)?,
            "--units" => config.units_per_shard = value.parse().map_err(bad)?,
            "--seed" => config.seed = value.parse().map_err(bad)?,
            "--window" => config.pipeline_window = value.parse().map_err(bad)?,
            // Undocumented: benchmark/src/procs.rs still passes `--frontend
            // reactor`, and this PR may not touch benchmark/. The arm goes
            // when the harness drops the flag.
            "--frontend" => {
                if value != "reactor" {
                    return Err(format!(
                        "bad value for {flag}: {value:?} (the threads front-end was \
                         removed in PR 12; the reactor is the only one)"
                    ));
                }
            }
            "--io-threads" => config.io_threads = value.parse().map_err(bad)?,
            "--max-conns" => config.max_conns = value.parse().map_err(bad)?,
            "--data-dir" => config.data_dir = Some(value.into()),
            "--sync" => {
                config.durability.sync = value
                    .parse::<SyncPolicy>()
                    .map_err(|e| format!("bad value for {flag}: {e}"))?;
            }
            "--snapshot-every" => config.durability.snapshot_every = value.parse().map_err(bad)?,
            "--commit-latency-us" => {
                config.durability.commit_latency =
                    Duration::from_micros(value.parse().map_err(bad)?);
            }
            "--trace" => {
                config.obs.enabled = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad value for --trace: {other} (on|off)")),
                };
            }
            "--trace-sample" => config.obs.sample_every = value.parse().map_err(bad)?,
            "--slow-op-us" => {
                config.obs.slow_op_us = value.parse().map_err(bad)?;
                config.log_slow = true;
            }
            "--metrics-addr" => config.metrics_addr = Some(value),
            "--sample-interval-ms" => {
                config.sample_interval = Some(Duration::from_millis(value.parse().map_err(bad)?));
            }
            "--sample-file" => config.sample_path = Some(value.into()),
            "--repl-addr" => {
                config.repl.get_or_insert_with(ReplConfig::default).listen = Some(value);
            }
            "--follow" => {
                config.repl.get_or_insert_with(ReplConfig::default).follow = Some(value);
            }
            "--replicate" => {
                config.repl.get_or_insert_with(ReplConfig::default).ack = match value.as_str() {
                    "async" => false,
                    "ack" => true,
                    other => return Err(format!("bad value for --replicate: {other} (async|ack)")),
                };
            }
            "--ack-timeout-ms" => {
                config
                    .repl
                    .get_or_insert_with(ReplConfig::default)
                    .ack_timeout = Duration::from_millis(value.parse().map_err(bad)?);
            }
            "--pull-interval-ms" => {
                config
                    .repl
                    .get_or_insert_with(ReplConfig::default)
                    .pull_interval = Duration::from_millis(value.parse().map_err(bad)?);
            }
            "--failover-ms" => {
                config.repl.get_or_insert_with(ReplConfig::default).failover =
                    Duration::from_millis(value.parse().map_err(bad)?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(rc) = &config.repl {
        if rc.listen.is_none() && rc.follow.is_none() {
            return Err(
                "replication flags need --repl-addr (primary) and/or --follow (follower)"
                    .to_owned(),
            );
        }
        if config.data_dir.is_none() {
            return Err("replication ships the WAL, so it requires --data-dir".to_owned());
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Each connection costs one fd; ask for headroom above the connection
    // limit (WAL segments, replication, /metrics) before any sockets open.
    match p4lru_reactor::raise_nofile_limit(config.max_conns as u64 + 256) {
        Ok(_) => {}
        Err(e) => eprintln!("warning: could not raise fd limit: {e}"),
    }
    let server = match Server::spawn(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let capacity = config.shards * config.units_per_shard * 3;
    match server.start_mode() {
        StartMode::Volatile => {}
        StartMode::Fresh => println!(
            "durability: fresh data dir at {} (sync={})",
            config
                .data_dir
                .as_deref()
                .unwrap_or_else(|| "?".as_ref())
                .display(),
            config.durability.sync,
        ),
        StartMode::Recovered => {
            let t = server.stats().totals;
            println!(
                "durability: recovered {} records ({} wal records replayed, \
                 torn_tails={}) in {:.1} ms",
                t.store_len,
                t.recovery_replayed,
                t.recovery_torn,
                t.recovery_us as f64 / 1e3,
            );
        }
    }
    println!(
        "p4lru_serverd listening on {} ({} shards, {} items, {} cached addrs, \
         io_threads={}, max_conns={})",
        server.local_addr(),
        config.shards,
        config.items,
        capacity,
        config.io_threads,
        config.max_conns
    );
    if let Some(addr) = server.metrics_addr() {
        println!("metrics: http://{addr}/metrics");
    }
    if let (Some(role), Some(rc)) = (server.role(), config.repl.as_ref()) {
        // Parsed by cluster tooling (port 0 on --repl-addr picks a free
        // port, and this line is where it learns which one).
        let mode = if rc.ack { "ack" } else { "async" };
        let mut line = format!("replication: role={} mode={mode}", role.name());
        if let Some(addr) = server.repl_addr() {
            line.push_str(&format!(" shipping on {addr}"));
        }
        if let Some(primary) = rc.follow.as_deref() {
            line.push_str(&format!(" following {primary}"));
        }
        println!("{line}");
    }
    let stats = server.wait();
    println!("shutdown: final stats");
    for s in &stats.shards {
        println!(
            "  shard {}: gets={} hits={} misses={} absent={} sets={} dels={} evictions={} hit_rate={:.3} store_len={}",
            s.shard, s.gets, s.hits, s.misses, s.absent, s.sets, s.dels, s.evictions, s.hit_rate, s.store_len
        );
    }
    let t = &stats.totals;
    println!(
        "  total: gets={} hits={} hit_rate={:.3} index_visits={}",
        t.gets, t.hits, t.hit_rate, t.index_visits
    );
    if t.wal_appends > 0 {
        println!(
            "  durability: wal_appends={} wal_fsyncs={} mean_fsync_us={:.1} max_fsync_us={:.1} snapshots={}",
            t.wal_appends,
            t.wal_fsyncs,
            t.wal_fsync_ns as f64 / t.wal_fsyncs.max(1) as f64 / 1e3,
            t.wal_fsync_max_ns as f64 / 1e3,
            t.snapshots,
        );
    }
    if t.get_latency.count > 0 {
        println!(
            "  server-side GET latency: p50={:.1}us p95={:.1}us p99={:.1}us (n={})",
            t.get_latency.p50_us, t.get_latency.p95_us, t.get_latency.p99_us, t.get_latency.count,
        );
    }
    if !stats.stages.is_empty() {
        let line = stats
            .stages
            .iter()
            .map(|s| format!("{}={:.1}us", s.stage, s.p99_us))
            .collect::<Vec<_>>()
            .join(" ");
        println!("  stage p99s: {line}");
    }
    ExitCode::SUCCESS
}
