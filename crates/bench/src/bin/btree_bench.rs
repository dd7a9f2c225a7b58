//! Index microbenchmark: the slot-layout B+Tree's lookup cost (DESIGN.md
//! §13), plus an end-to-end serverd sanity column.
//!
//! For each tree size a dense key space is loaded the way the product
//! builds it — `BPlusTree::from_sorted` at the current `DEFAULT_MAX_KEYS`
//! (64) — and probed with precomputed uniform and Zipf(0.9) key streams
//! through the shipped read path (`lookup_hot`). Results land in
//! `results/BENCH_btree_slot.json`. The comparison against the seed
//! enum-of-Vecs layout was measured at PR 8 and is frozen in
//! `results/BENCH_btree.json`; the seed tree itself is gone, and the
//! tree's regression gate from here on is `read_cold` in `benchmark/`.
//!
//! `--assert-server-ops <n>` spawns an in-process server with the
//! BENCH_server configuration and fails unless the loadgen sustains `n`
//! ops/s — the guard that the index did not regress the end-to-end miss
//! path.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use p4lru_bench::{FigureResult, Scale};
use p4lru_core::hashing::mix64;
use p4lru_server::loadgen::{run, LoadgenConfig};
use p4lru_server::server::{Server, ServerConfig};
use p4lru_traffic::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct ExtraArgs {
    assert_server_ops: Option<f64>,
    skip_server: bool,
}

fn parse_extra_args() -> Result<ExtraArgs, String> {
    let mut extra = ExtraArgs {
        assert_server_ops: None,
        skip_server: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--assert-server-ops" => {
                let v = args.next().ok_or("--assert-server-ops needs a value")?;
                extra.assert_server_ops = Some(
                    v.parse()
                        .map_err(|e| format!("bad value for --assert-server-ops: {e:?}"))?,
                );
            }
            "--skip-server" => extra.skip_server = true,
            "--scale" => {
                args.next(); // handled by Scale::from_args
            }
            other => {
                return Err(format!(
                    "unknown flag {other} (try --scale, --assert-server-ops, --skip-server)"
                ))
            }
        }
    }
    Ok(extra)
}

/// Precomputed probe stream: every probe is a key that exists in the
/// `0..n` key space, so the walk reaches a leaf and compares full keys
/// there (the expensive path, and the one serverd misses take).
fn probes(n: u64, count: usize, zipf: bool, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    if zipf {
        // Zipf ranks cluster at 1; scatter them over the key space with a
        // mix so the hot set is not one contiguous run of leaves (which
        // would flatter the descent cache).
        let dist = Zipf::new(n, 0.9);
        (0..count)
            .map(|_| mix64(dist.sample(&mut rng)) % n)
            .collect()
    } else {
        (0..count).map(|_| rng.gen::<u64>() % n).collect()
    }
}

/// Times the probe stream; returns ns/op, best of three passes. The
/// minimum is the right statistic on shared hardware: interference from
/// a noisy neighbour only ever adds time, so the fastest pass is the
/// closest view of the layout itself (same convention as BENCH_server's
/// best-of-3 columns). The lookup closure returns the value so the sum
/// keeps the walks observable.
fn time_pass(probe_keys: &[u64], mut lookup: impl FnMut(&u64) -> u64) -> f64 {
    // Warm pass: fault the tree into cache before the measured passes.
    let mut sum = 0u64;
    for k in probe_keys.iter().take(probe_keys.len() / 4) {
        sum = sum.wrapping_add(lookup(k));
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for k in probe_keys {
            sum = sum.wrapping_add(lookup(k));
        }
        let elapsed = start.elapsed();
        best = best.min(elapsed.as_nanos() as f64 / probe_keys.len() as f64);
    }
    black_box(sum);
    best
}

/// Lookup ns/op at one tree size and key mix.
fn measure_size(n: u64, probe_count: usize, zipf: bool) -> f64 {
    let probe_keys = probes(n, probe_count, zipf, 0xB7EE ^ n);

    let slot_tree = p4lru_kvstore::btree::BPlusTree::from_sorted(
        p4lru_kvstore::db::DEFAULT_MAX_KEYS,
        (0..n).map(|k| (k, k)),
    );
    time_pass(&probe_keys, |k| {
        slot_tree.lookup_hot(k).0.expect("key exists")
    })
}

/// End-to-end column: the BENCH_server depth-32 configuration, so the
/// number is directly comparable against `results/BENCH_server.json` —
/// including its best-of-3-runs convention (fresh server per run),
/// which keeps a shared-hardware hiccup in one run from reading as an
/// index regression.
fn measure_server(scale: Scale) -> Result<(f64, u64, u64), String> {
    let config = ServerConfig {
        shards: scale.pick(2, 4),
        items: scale.pick(20_000, 100_000),
        units_per_shard: scale.pick(1024, 4096),
        ..ServerConfig::default()
    };
    let mut best: Option<(f64, u64, u64)> = None;
    for _ in 0..3 {
        let server = Server::spawn(&config).map_err(|e| format!("failed to start server: {e}"))?;
        let summary = run(&LoadgenConfig {
            addr: server.local_addr().to_string(),
            threads: scale.pick(2, 4),
            seconds: scale.pick(2.0, 5.0),
            items: config.items,
            pipeline: 32,
            ..LoadgenConfig::default()
        })
        .map_err(|e| format!("loadgen failed: {e}"))?;
        if summary.not_found > 0 || summary.corrupt > 0 {
            return Err(format!(
                "{} reads found nothing, {} mismatched",
                summary.not_found, summary.corrupt
            ));
        }
        let stats = server.shutdown();
        if best.is_none_or(|(ops, _, _)| summary.throughput_ops_s > ops) {
            best = Some((
                summary.throughput_ops_s,
                stats.totals.index_height,
                stats.totals.index_descent_hits,
            ));
        }
    }
    Ok(best.expect("three runs happened"))
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let extra = match parse_extra_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let sizes: Vec<u64> = vec![10_000, 100_000, 1_000_000];
    let probe_count = scale.pick(400_000, 4_000_000);

    let mut fig = FigureResult::new(
        "BENCH_btree_slot",
        "B+Tree lookup: slot layout (heads + descent cache)",
        "keys in tree",
        "lookup ns/op",
    );
    fig.x = sizes.iter().map(|&n| n as f64).collect();
    fig.note(format!(
        "slot layout: from_sorted bulk load, max_keys={} (DEFAULT_MAX_KEYS), read via lookup_hot()",
        p4lru_kvstore::db::DEFAULT_MAX_KEYS
    ));
    fig.note(format!(
        "{probe_count} probes per cell, best of 3 passes after a quarter-length warm pass; \
         all probes hit; zipf ranks scattered with mix64 so the hot set spans leaves"
    ));

    for (mix, zipf) in [("uniform", false), ("zipf-0.9", true)] {
        let mut col = Vec::new();
        for &n in &sizes {
            let ns = measure_size(n, probe_count, zipf);
            println!("{n:>9} keys {mix:>8}: slot {ns:>6.1} ns/op");
            col.push(ns);
        }
        fig.push_series(format!("slot {mix} (ns/op)"), col);
    }

    let mut failed = false;

    if !extra.skip_server {
        match measure_server(scale) {
            Ok((ops, height, descent_hits)) => {
                println!(
                    "serverd e2e (depth 32): {ops:>9.0} ops/s  index height {height}  \
                     descent hits {descent_hits}"
                );
                fig.note(format!(
                    "serverd e2e, BENCH_server depth-32 config, best of 3 runs: {ops:.0} ops/s \
                     (index height {height}, descent-cache hits {descent_hits}); \
                     compare results/BENCH_server.json throughput at depth 32"
                ));
                if let Some(floor) = extra.assert_server_ops {
                    if ops < floor {
                        eprintln!(
                            "ASSERT FAILED: serverd e2e {ops:.0} ops/s is below the \
                             {floor:.0} ops/s floor"
                        );
                        failed = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    fig.emit();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
