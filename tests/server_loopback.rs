//! End-to-end loopback test of the sharded cache service: spawn the server
//! in-process on an ephemeral port, drive it with the closed-loop load
//! generator, and check that the per-shard STATS are consistent with the
//! workload, that a warm cache hits, and that the emitted benchmark JSON
//! parses as the report tooling's `FigureResult`.

use p4lru::server::loadgen::{run, to_figure_json, LoadgenConfig};
use p4lru::server::{Client, Server, ServerConfig};
use p4lru::traffic::ycsb::{Op, YcsbConfig};
use p4lru_bench::harness::FigureResult;

/// Sends `ops` down one connection, a pipelined batch at a time.
fn drive(client: &mut Client, ops: &[Op]) {
    for batch in ops.chunks(64) {
        for op in batch {
            match *op {
                Op::Read(key) => client.send_get(key),
                Op::Update(key) => client.send_set(key, &p4lru::kvstore::db::record_for(key)),
            }
            .expect("request queues");
        }
        for _ in batch {
            client.recv().expect("reply arrives");
        }
    }
}

#[test]
fn loadgen_over_loopback_hits_the_cache_and_stats_add_up() {
    let items = 20_000;
    let server = Server::spawn(&ServerConfig {
        items,
        shards: 3,
        units_per_shard: 1_024,
        ..ServerConfig::default()
    })
    .expect("server spawns on an ephemeral port");

    let config = LoadgenConfig {
        addr: server.local_addr().to_string(),
        threads: 3,
        seconds: 0.5,
        items,
        alpha: 0.9,
        read_fraction: 0.95,
        ..LoadgenConfig::default()
    };
    let summary = run(&config).expect("loadgen run succeeds");
    assert!(summary.ops > 0);
    assert_eq!(summary.not_found, 0, "every YCSB key is pre-populated");
    assert_eq!(summary.corrupt, 0, "reads verify against record_for(key)");

    // The hit-rate floor is taken over a fixed amount of work. How many ops
    // the half second above got through depends on what else the machine is
    // doing, and over few enough of them the cold misses alone pull the
    // run's average under any floor. So: a fixed warm-up, then the hits
    // among a fixed number of further GETs, read off two STATS snapshots.
    let window = 20_000;
    let fixed = YcsbConfig {
        items,
        alpha: 0.9,
        read_fraction: 0.95,
        seed: 0x10AD,
    }
    .generate(2 * window);
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    drive(&mut client, &fixed[..window]);
    let warm = client.stats().expect("STATS").totals;
    drive(&mut client, &fixed[window..]);
    let after = client.stats().expect("STATS").totals;
    drop(client);
    let warm_hit_rate = (after.hits - warm.hits) as f64 / (after.gets - warm.gets) as f64;

    let stats = server.shutdown();

    // Per-shard consistency: gets decompose into hits + misses + absent.
    assert_eq!(stats.shards.len(), 3);
    for s in &stats.shards {
        assert_eq!(s.gets, s.hits + s.misses + s.absent, "shard {}", s.shard);
        assert_eq!(s.absent, 0, "shard {}: populated key space", s.shard);
        assert!(
            s.gets > 0,
            "shard {}: zipf traffic reaches every shard",
            s.shard
        );
    }
    // Totals match both the shard sum and the clients' own op counts.
    let shard_gets: u64 = stats.shards.iter().map(|s| s.gets).sum();
    let shard_sets: u64 = stats.shards.iter().map(|s| s.sets).sum();
    assert_eq!(stats.totals.gets, shard_gets);
    assert_eq!(stats.totals.sets, shard_sets);
    assert_eq!(
        stats.totals.gets + stats.totals.sets,
        summary.ops + fixed.len() as u64
    );

    // 3 shards x 1024 units x 3 entries = 9216 cached addresses over a
    // 20k key space under Zipf(0.9): comfortably above the 0.5 gate.
    assert!(
        warm_hit_rate > 0.5,
        "warm hit rate {warm_hit_rate:.3} too low for this sizing"
    );
    // Misses (and fresh-key SETs) walk the index; hits must not.
    assert!(stats.totals.index_visits > 0);

    // The emitted JSON is the report tooling's FigureResult shape.
    let json = to_figure_json(&config, &summary, &["extra note".to_owned()]);
    let fig: FigureResult = serde_json::from_str(&json).expect("parses as FigureResult");
    assert_eq!(fig.id, "server_bench");
    assert_eq!(fig.x, vec![50.0, 95.0, 99.0]);
    let latency = fig.series_named("latency_us").expect("latency series");
    assert_eq!(latency.values.len(), fig.x.len());
    assert!(latency.values[1] >= latency.values[0], "p95 >= p50");
    assert!(latency.values[2] >= latency.values[1], "p99 >= p95");
    assert!(fig.series_named("throughput_ops_s").is_some());
    assert!(fig.notes.iter().any(|n| n == "extra note"));
    assert!(
        fig.notes.iter().any(|n| n.contains("pipeline=1")),
        "the config note records the pipeline depth"
    );
}
