//! The closed-loop benchmark client: replays a YCSB workload against a
//! running `p4lru_serverd`, prints throughput and latency percentiles, and
//! writes a `FigureResult`-shaped JSON file for the report tooling.
//!
//! Crash-recovery harness duty (DESIGN.md §8): `--crash-ok --acked-log`
//! keeps loading while the server is kill-9'd and records every
//! acknowledged SET; after a restart, `--verify-acked` replays that log and
//! fails if any acknowledged write was lost.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use p4lru_kvstore::db::record_for;
use p4lru_server::client::Client;
use p4lru_server::loadgen::{run, to_figure_json, LoadgenConfig};

const USAGE: &str = "\
loadgen — closed-loop YCSB benchmark for p4lru_serverd

USAGE: loadgen [OPTIONS]

OPTIONS:
  --addr <host:port>     server address          [default: 127.0.0.1:4190]
  --threads <n>          worker threads          [default: 4]
  --seconds <s>          run duration            [default: 5]
  --items <n>            YCSB key-space size     [default: 100000]
  --alpha <a>            Zipf skew               [default: 0.9]
  --read-fraction <f>    fraction of reads       [default: 0.95]
  --pipeline <depth>     in-flight requests per connection; 1 = closed loop
                         [default: 1]
  --seed <n>             workload seed           [default: 4269]

  --out <path>           write FigureResult JSON [default: results/server_bench.json]
  --no-out               skip writing the JSON file
  --no-verify            skip read verification (otherwise a read of the
                         wrong value fails the run)
  --shutdown             send SHUTDOWN to the server afterwards
  --expect-hits          exit nonzero unless the server reports cache hits
  --crash-ok             a worker hitting a connection error ends its run
                         instead of failing (server kill tests)
  --acked-log <path>     write every acknowledged SET key to this file
                         (one decimal key per line)
  --verify-acked <path>  skip the load phase; GET every key in the file and
                         exit nonzero if any acknowledged write was lost
  -h, --help             print this help
";

struct Args {
    config: LoadgenConfig,
    out: Option<PathBuf>,
    shutdown: bool,
    expect_hits: bool,
    acked_log: Option<PathBuf>,
    verify_acked: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: LoadgenConfig::default(),
        out: Some(PathBuf::from("results/server_bench.json")),
        shutdown: false,
        expect_hits: false,
        acked_log: None,
        verify_acked: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--no-out" => args.out = None,
            "--no-verify" => args.config.verify = false,
            "--shutdown" => args.shutdown = true,
            "--expect-hits" => args.expect_hits = true,
            "--crash-ok" => args.config.crash_ok = true,
            "--addr" => args.config.addr = value_of(&flag, &mut it)?,
            "--threads" => args.config.threads = value_of(&flag, &mut it)?,
            "--seconds" => args.config.seconds = value_of(&flag, &mut it)?,
            "--items" => args.config.items = value_of(&flag, &mut it)?,
            "--alpha" => args.config.alpha = value_of(&flag, &mut it)?,
            "--read-fraction" => args.config.read_fraction = value_of(&flag, &mut it)?,
            "--pipeline" => args.config.pipeline = value_of(&flag, &mut it)?,
            "--seed" => args.config.seed = value_of(&flag, &mut it)?,
            "--out" => args.out = Some(value_of(&flag, &mut it)?),
            "--acked-log" => {
                args.config.record_acked = true;
                args.acked_log = Some(value_of(&flag, &mut it)?);
            }
            "--verify-acked" => args.verify_acked = Some(value_of(&flag, &mut it)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The next argument, parsed as the value of `flag`.
fn value_of<T>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Debug,
{
    let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|e| format!("bad value for {flag}: {e:?}"))
}

/// GETs every key the acked log names and checks its contents. Any missing
/// or mismatched key is a lost acknowledged write — the one thing a durable
/// server must never do.
fn verify_acked(addr: &str, path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut keys: Vec<u64> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        keys.push(
            line.trim()
                .parse()
                .map_err(|e| format!("bad key {line:?} in {}: {e:?}", path.display()))?,
        );
    }
    // The log may name a key several times (rewrites); one check suffices.
    keys.sort_unstable();
    keys.dedup();
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let (mut verified, mut missing, mut mismatched) = (0u64, 0u64, 0u64);
    for &key in &keys {
        match client
            .get(key)
            .map_err(|e| format!("GET {key} failed: {e}"))?
        {
            Some(value) if value == record_for(key) => verified += 1,
            Some(_) => mismatched += 1,
            None => missing += 1,
        }
    }
    println!(
        "  verify-acked: {verified} verified, {missing} missing, {mismatched} mismatched \
         (of {} distinct acked keys)",
        keys.len()
    );
    if missing > 0 || mismatched > 0 {
        return Err(format!(
            "{missing} acknowledged writes missing and {mismatched} mismatched after recovery"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let summary = if let Some(path) = &args.verify_acked {
        println!(
            "loadgen: verifying acked writes from {} against {}",
            path.display(),
            args.config.addr
        );
        if let Err(e) = verify_acked(&args.config.addr, path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        None
    } else {
        println!(
            "loadgen: {} threads x {}s against {} (items={}, alpha={}, read_fraction={}, pipeline={})",
            args.config.threads,
            args.config.seconds,
            args.config.addr,
            args.config.items,
            args.config.alpha,
            args.config.read_fraction,
            args.config.pipeline
        );
        let summary = match run(&args.config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: loadgen run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "  {} ops in {:.2}s: {:.0} ops/s, p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
            summary.ops,
            summary.elapsed_s,
            summary.throughput_ops_s,
            summary.p50_us,
            summary.p95_us,
            summary.p99_us
        );
        // A missing key is legitimate when the server holds fewer items
        // than `--items`; a wrong value never is (checked at the end).
        if summary.not_found > 0 {
            eprintln!("warning: {} reads found nothing", summary.not_found);
        }
        if summary.aborted_workers > 0 {
            println!(
                "  {} workers stopped early on connection errors (--crash-ok)",
                summary.aborted_workers
            );
        }
        if let Some(path) = &args.acked_log {
            let mut text = String::with_capacity(summary.acked_sets.len() * 8);
            for key in &summary.acked_sets {
                text.push_str(&key.to_string());
                text.push('\n');
            }
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "  logged {} acked SETs to {}",
                summary.acked_sets.len(),
                path.display()
            );
        }
        Some(summary)
    };

    // One extra connection for STATS (and SHUTDOWN, if asked).
    let mut notes = Vec::new();
    let mut hits = None;
    match Client::connect(&*args.config.addr) {
        Ok(mut control) => {
            match control.stats() {
                Ok(stats) => {
                    let t = &stats.totals;
                    println!(
                        "  server: gets={} hits={} misses={} absent={} hit_rate={:.3} store_len={}",
                        t.gets, t.hits, t.misses, t.absent, t.hit_rate, t.store_len
                    );
                    if t.batches > 0 {
                        println!(
                            "  batching: batches={} mean_batch={:.2} max_batch={} queue_depth={}",
                            t.batches, t.batch_mean, t.batch_max, t.queue_depth
                        );
                    }
                    if t.wal_appends > 0 || t.recovery_replayed > 0 {
                        println!(
                            "  durability: wal_appends={} wal_fsyncs={} mean_fsync_us={:.1} snapshots={} recovery_replayed={} recovery_ms={:.1}",
                            t.wal_appends,
                            t.wal_fsyncs,
                            t.wal_fsync_ns as f64 / t.wal_fsyncs.max(1) as f64 / 1e3,
                            t.snapshots,
                            t.recovery_replayed,
                            t.recovery_us as f64 / 1e3,
                        );
                    }
                    if t.get_latency.count > 0 {
                        println!(
                            "  server-side latency (decode→flush): GET p50={:.1}us p95={:.1}us p99={:.1}us, SET p99={:.1}us",
                            t.get_latency.p50_us,
                            t.get_latency.p95_us,
                            t.get_latency.p99_us,
                            t.set_latency.p99_us,
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
                    hits = Some(t.hits);
                    notes.push(format!(
                        "server: shards={} gets={} hits={} misses={} absent={} sets={} evictions={} index_visits={} hit_rate={:.4} store_len={}",
                        stats.shards.len(), t.gets, t.hits, t.misses, t.absent, t.sets, t.evictions, t.index_visits, t.hit_rate, t.store_len
                    ));
                    if t.batches > 0 {
                        notes.push(format!(
                            "batching: batches={} mean_batch={:.2} max_batch={} queue_depth={}",
                            t.batches, t.batch_mean, t.batch_max, t.queue_depth
                        ));
                    }
                    if t.wal_appends > 0 {
                        notes.push(format!(
                            "durability: wal_appends={} wal_fsyncs={} snapshots={} recovery_replayed={}",
                            t.wal_appends, t.wal_fsyncs, t.snapshots, t.recovery_replayed
                        ));
                    }
                    if t.get_latency.count > 0 {
                        notes.push(format!(
                            "server_latency: get_p50_us={:.1} get_p95_us={:.1} get_p99_us={:.1} set_p99_us={:.1}",
                            t.get_latency.p50_us,
                            t.get_latency.p95_us,
                            t.get_latency.p99_us,
                            t.set_latency.p99_us
                        ));
                    }
                }
                Err(e) => eprintln!("warning: STATS failed: {e}"),
            }
            if args.shutdown {
                match control.shutdown() {
                    Ok(()) => println!("  server acknowledged shutdown"),
                    Err(e) => eprintln!("warning: SHUTDOWN failed: {e}"),
                }
            }
        }
        Err(e) => eprintln!("warning: control connection failed: {e}"),
    }

    if let Some(summary) = &summary {
        if let Some(out) = &args.out {
            if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("error: cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
            let json = to_figure_json(&args.config, summary, &notes);
            if let Err(e) = std::fs::write(out, json) {
                eprintln!("error: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            println!("  wrote {}", out.display());
        }
    }

    let corrupt = summary.as_ref().map_or(0, |s| s.corrupt);
    if corrupt > 0 {
        eprintln!("error: {corrupt} reads returned a value other than their key's record");
        return ExitCode::FAILURE;
    }
    if args.expect_hits && hits.unwrap_or(0) == 0 {
        eprintln!("error: --expect-hits: server reported no cache hits");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
