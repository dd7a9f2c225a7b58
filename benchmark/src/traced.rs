//! The traced run: live probes and short load phases against the running
//! daemons (counts from `STATS` deltas), then the in-process layer walk;
//! every span goes to `out/trace_<workload>.jsonl` and every per-layer
//! metric is printed by name.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter};

use p4lru_server::StatsReport;

use crate::conn::Conn;
use crate::loadgen::Endpoint;
use crate::phases::{run_phase, Drive, Plan};
use crate::procs::{storage_write_bytes, Daemon, Deployment, Dirs};
use crate::report::Report;
use crate::span::{layer_totals, LayerTotal, Trace};
use crate::stats::percentile;
use crate::tape::{Kind, Op, Tape, Topology, Workload, CONNS, TAPE_OPS};
use crate::untraced::{
    connect_endpoints, reject_invalid, tally, CLOSED_WARMUP, OPEN_TAPE_BASE, OPEN_WARMUP,
};
use crate::walk::{layer_walk, BATCH};

/// Every per-layer metric with its unit, in reporting order. Each traced
/// run prints all of them; one that does not apply to the workload reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("protocol.decode_req_ns", "ns"),
    ("protocol.encode_resp_ns", "ns"),
    ("protocol.client_ns", "ns"),
    ("protocol.wire_bytes_per_op", "B"),
    ("reactor.ping_rtt_p50_us", "us"),
    ("reactor.wakeups_per_op", "count"),
    ("reactor.turns_per_op", "count"),
    ("server.route_ns", "ns"),
    ("server.get_rtt_p50_us", "us"),
    ("server.set_rtt_p50_us", "us"),
    ("server.handoff_us", "us"),
    ("server.batch_mean", "count"),
    ("server.queue_depth_max", "count"),
    ("shard.get_ns", "ns"),
    ("shard.set_ns", "ns"),
    ("shard.del_ns", "ns"),
    ("core.probe_ns", "ns"),
    ("core.update_ns", "ns"),
    ("core.remove_ns", "ns"),
    ("core.hit_rate", "ratio"),
    ("core.evictions_per_kop", "1/kop"),
    ("kvstore.lookup_ns", "ns"),
    ("kvstore.upsert_ns", "ns"),
    ("kvstore.remove_ns", "ns"),
    ("kvstore.populate_s", "s"),
    ("kvstore.visits_per_lookup", "count"),
    ("kvstore.descent_hit_share", "ratio"),
    ("durable.append_ns", "ns"),
    ("durable.commit_p50_us", "us"),
    ("durable.snapshot_s", "s"),
    ("durable.recover_s", "s"),
    ("durable.fsyncs_per_kop", "1/kop"),
    ("durable.fsync_mean_us", "us"),
    ("durable.wal_bytes_per_set", "B"),
    ("durable.snapshots", "count"),
    ("tier.lookup_ns", "ns"),
    ("tier.admit_ns", "ns"),
    ("tier.invalidate_ns", "ns"),
    ("tier.hit_rate", "ratio"),
    ("tier.stale_drops", "count"),
    ("tier.stale_reads", "count"),
    ("tier.hit_rtt_p50_us", "us"),
    ("tier.miss_hop_p50_us", "us"),
    ("cluster.ring_lookup_ns", "ns"),
    ("cluster.router_hop_p50_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("loadgen.send_lag_p50_us", "us"),
    ("loadgen.send_lag_p99_us", "us"),
    ("loadgen.p90_us", "us"),
    ("loadgen.p99_us", "us"),
    ("loadgen.p999_us", "us"),
    ("loadgen.closed_p50_us", "us"),
    ("loadgen.steal_share", "ratio"),
    ("loadgen.timer_oversleep_p99_us", "us"),
    ("loadgen.gen_cpu_share", "ratio"),
];

/// The tape op the live probes start from.
const PROBE_TAPE_BASE: usize = TAPE_OPS / 4;

/// Ops the layer walk covers in a default 20-second run.
const WALK_OPS: usize = 1 << 20;

/// Values and sample counts collected during the run, by metric name.
#[derive(Default)]
struct Collected(BTreeMap<&'static str, (f64, u64)>);

impl Collected {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, (value, samples));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `after − before` of one counter of two STATS reports.
fn delta(before: &StatsReport, after: &StatsReport, f: impl Fn(&StatsReport) -> u64) -> u64 {
    f(after).saturating_sub(f(before))
}

fn served(s: &StatsReport) -> u64 {
    s.totals.gets + s.totals.sets + s.totals.dels
}

fn p50_us(trace: &Trace, name: &str) -> (f64, u64) {
    let d = trace.durations(name);
    (
        percentile(&d, 0.5).unwrap_or(0) as f64 / 1e3,
        d.len() as u64,
    )
}

/// Depth-1 probes of one kind through `ep`, one span per call.
fn probe(
    trace: &mut Trace,
    ep: &mut Endpoint,
    name: &'static str,
    count: usize,
    make: impl FnMut(usize) -> Option<Op>,
) {
    let root = trace.open(0, "probe", count as u64);
    let mut spans = Vec::with_capacity(count);
    ep.run_probe(count, make, |start, end| spans.push((start, end)));
    for (start, end) in spans {
        trace.record(root, name, trace.at(start), trace.at(end), 1);
    }
    trace.close(root);
}

/// Runs `workload` traced: `seconds` scales every part (20 is the default
/// the sizes in the issue refer to).
pub fn run(
    dirs: &Dirs,
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
) -> io::Result<Report> {
    let scale = |per_second: u64| (per_second * seconds) as usize;
    let tape = Tape::generate(workload, seed, TAPE_OPS);
    let mut trace = Trace::new();
    let mut m = Collected::default();
    let mut report = Report::new(workload.name, seed, true);

    let (deployment, _) = Deployment::start(dirs, workload, &[])?;
    let mut endpoints = connect_endpoints(deployment.front(), workload)?;
    let mut control = Conn::connect(deployment.front())?;
    let pids = deployment.pids();
    let probe_key = |i: usize| tape.op(PROBE_TAPE_BASE + i).key;
    let own = |key: u64| key - key % CONNS as u64;

    // Part B first, while the server's state is still a pure function of
    // the seed: one connection, depth 1, straight to serverd.
    {
        let ep = &mut endpoints[0];
        ep.reconnect(deployment.server.addr)?;
        let mut direct = Conn::connect(deployment.server.addr)?;
        probe(&mut trace, ep, "reactor.ping_rtt", scale(1000), |_| None);
        let before = direct.stats()?;
        probe(&mut trace, ep, "server.get_rtt", scale(1000), |i| {
            Some(Op {
                kind: Kind::Get,
                key: probe_key(i),
            })
        });
        let after = direct.stats()?;
        let gets = delta(&before, &after, |s| s.totals.gets);
        let misses = delta(&before, &after, |s| s.totals.misses);
        m.set(
            "core.hit_rate",
            ratio(delta(&before, &after, |s| s.totals.hits), gets),
            gets,
        );
        m.set(
            "core.evictions_per_kop",
            1e3 * ratio(delta(&before, &after, |s| s.totals.evictions), gets),
            gets,
        );
        m.set(
            "kvstore.visits_per_lookup",
            ratio(delta(&before, &after, |s| s.totals.index_visits), misses),
            misses,
        );
        m.set(
            "kvstore.descent_hit_share",
            ratio(
                delta(&before, &after, |s| s.totals.index_descent_hits),
                misses,
            ),
            misses,
        );
    }
    for (metric, span) in [
        ("reactor.ping_rtt_p50_us", "reactor.ping_rtt"),
        ("server.get_rtt_p50_us", "server.get_rtt"),
    ] {
        let (p50, n) = p50_us(&trace, span);
        m.set(metric, p50, n);
    }

    // Through a one-slot router, against the same server.
    if workload.name == "read_hot" {
        let args = ["--cluster".to_owned(), deployment.server.addr.to_string()];
        let mut router = Daemon::spawn(dirs, "p4lru_routerd", &args)?;
        router.wait_ready()?;
        let mut ep = Endpoint::connect(router.addr, 0, workload)?;
        probe(
            &mut trace,
            &mut ep,
            "cluster.router_get_rtt",
            scale(250),
            |i| {
                Some(Op {
                    kind: Kind::Get,
                    key: probe_key(scale(1000) + i),
                })
            },
        );
        tally(&mut report, std::slice::from_ref(&ep), workload);
        drop(ep);
        router.shutdown();
        let (p50, n) = p50_us(&trace, "cluster.router_get_rtt");
        m.set(
            "cluster.router_hop_p50_us",
            p50 - m.get("server.get_rtt_p50_us"),
            n,
        );
    }

    // SETs last among the direct probes: everything above read a store
    // that still held only preloaded records.
    {
        let ep = &mut endpoints[0];
        let sets = if workload.topology == Topology::Durable {
            scale(200)
        } else {
            scale(1000)
        };
        probe(&mut trace, ep, "server.set_rtt", sets, |i| {
            Some(Op {
                kind: Kind::Set,
                key: own(probe_key(i)),
            })
        });
        ep.reconnect(deployment.front())?;
        let (p50, n) = p50_us(&trace, "server.set_rtt");
        m.set("server.set_rtt_p50_us", p50, n);
    }

    // Through the tier, telling hits from misses by the tier's own counter.
    if workload.topology == Topology::Tier {
        let ep = &mut endpoints[0];
        let tier_hits =
            |c: &mut Conn| -> io::Result<u64> { Ok(c.stats()?.tier.map_or(0, |t| t.hits)) };
        let root = trace.open(0, "probe", 0);
        let mut hits_before = tier_hits(&mut control)?;
        for i in 0..scale(200) {
            let mut rtt = None;
            ep.run_probe(
                1,
                |_| {
                    Some(Op {
                        kind: Kind::Get,
                        key: probe_key(scale(1000) + i),
                    })
                },
                |start, end| rtt = Some((start, end)),
            );
            let hits_after = tier_hits(&mut control)?;
            if let Some((start, end)) = rtt {
                let name = if hits_after > hits_before {
                    "tier.get_rtt.hit"
                } else {
                    "tier.get_rtt.miss"
                };
                trace.record(root, name, trace.at(start), trace.at(end), 1);
            }
            hits_before = hits_after;
        }
        trace.close(root);
        let (hit, hits) = p50_us(&trace, "tier.get_rtt.hit");
        let (miss, misses) = p50_us(&trace, "tier.get_rtt.miss");
        m.set("tier.hit_rtt_p50_us", hit, hits);
        m.set(
            "tier.miss_hop_p50_us",
            miss - m.get("server.get_rtt_p50_us"),
            misses,
        );
    }

    // Short load phases for the counts only STATS deltas give.
    let closed_plan = Plan {
        warmup: CLOSED_WARMUP,
        windows: (seconds / 5).max(2) as usize,
    };
    let open_plan = Plan {
        warmup: OPEN_WARMUP,
        windows: (seconds * 3 / 10).max(3) as usize,
    };
    let written_before = storage_write_bytes(deployment.server.pid())?;
    let stats_start = control.stats()?;
    let mut queue_depth_max = 0;
    let closed = run_phase(
        &mut endpoints,
        &tape,
        0,
        Drive::Closed,
        closed_plan,
        &pids,
        || {
            if let Ok(s) = control.stats() {
                queue_depth_max = queue_depth_max.max(s.totals.queue_depth);
            }
        },
    )?;
    let stats_mid = control.stats()?;
    let open = run_phase(
        &mut endpoints,
        &tape,
        OPEN_TAPE_BASE,
        Drive::Open(workload.rate),
        open_plan,
        &pids,
        || {},
    )?;
    reject_invalid("open", &open)?;
    let stats_end = control.stats()?;
    let written_after = storage_write_bytes(deployment.server.pid())?;

    let batches = delta(&stats_start, &stats_mid, |s| s.totals.batches);
    m.set(
        "server.batch_mean",
        ratio(
            delta(&stats_start, &stats_mid, |s| s.totals.batch_ops),
            batches,
        ),
        batches,
    );
    m.set(
        "server.queue_depth_max",
        queue_depth_max as f64,
        closed_plan.windows as u64,
    );
    m.set(
        "loadgen.closed_p50_us",
        closed.latency_us(0.5),
        closed.sample_count(),
    );
    let open_ops = delta(&stats_mid, &stats_end, served);
    let reactor_sum = |f: fn(&p4lru_server::ReactorLoopSnapshot) -> u64| {
        move |s: &StatsReport| s.reactor.iter().map(f).sum::<u64>()
    };
    m.set(
        "reactor.wakeups_per_op",
        ratio(
            delta(&stats_mid, &stats_end, reactor_sum(|r| r.wakeups)),
            open_ops,
        ),
        open_ops,
    );
    m.set(
        "reactor.turns_per_op",
        ratio(
            delta(&stats_mid, &stats_end, reactor_sum(|r| r.turns)),
            open_ops,
        ),
        open_ops,
    );
    let fsyncs = delta(&stats_mid, &stats_end, |s| s.totals.wal_fsyncs);
    m.set(
        "durable.fsyncs_per_kop",
        1e3 * ratio(fsyncs, open_ops),
        open_ops,
    );
    m.set(
        "durable.fsync_mean_us",
        ratio(
            delta(&stats_mid, &stats_end, |s| s.totals.wal_fsync_ns),
            fsyncs,
        ) / 1e3,
        fsyncs,
    );
    let appends = delta(&stats_start, &stats_end, |s| s.totals.wal_appends);
    m.set(
        "durable.wal_bytes_per_set",
        if appends == 0 {
            0.0
        } else {
            ratio(written_after - written_before, appends)
        },
        appends,
    );
    m.set(
        "durable.snapshots",
        delta(&stats_start, &stats_end, |s| s.totals.snapshots) as f64,
        appends,
    );
    let tier_of = |f: fn(&p4lru_server::TierSnapshot) -> u64| {
        move |s: &StatsReport| s.tier.as_ref().map_or(0, f)
    };
    let tier_gets = delta(&stats_mid, &stats_end, tier_of(|t| t.gets));
    m.set(
        "tier.hit_rate",
        ratio(
            delta(&stats_mid, &stats_end, tier_of(|t| t.hits)),
            tier_gets,
        ),
        tier_gets,
    );
    m.set(
        "tier.stale_drops",
        delta(&stats_mid, &stats_end, tier_of(|t| t.stale_drops)) as f64,
        tier_gets,
    );
    let open_n = open.sample_count();
    m.set("loadgen.send_lag_p50_us", open.send_lag_us(0.5), open_n);
    m.set("loadgen.send_lag_p99_us", open.send_lag_us(0.99), open_n);
    for (name, p) in [
        ("loadgen.p90_us", 0.9),
        ("loadgen.p99_us", 0.99),
        ("loadgen.p999_us", 0.999),
    ] {
        m.set(name, open.latency_us(p), open_n);
    }
    m.set("loadgen.steal_share", open.steal_share(), open_n);
    m.set("loadgen.timer_oversleep_p99_us", open.canary_p99_us, open_n);
    m.set("loadgen.gen_cpu_share", open.generator_cpu_share(), open_n);

    tally(&mut report, &endpoints, workload);
    m.set(
        "tier.stale_reads",
        report.stale_reads as f64,
        report.attempted,
    );
    drop(endpoints);
    drop(control);
    deployment.shutdown();

    // What request tracing costs the server: the same closed phase against
    // a server started with tracing off.
    if workload.name == "read_hot" {
        let (deployment, _) = Deployment::start(dirs, workload, &["--trace", "off"])?;
        let mut endpoints = connect_endpoints(deployment.front(), workload)?;
        let untraced = run_phase(
            &mut endpoints,
            &tape,
            0,
            Drive::Closed,
            closed_plan,
            &deployment.pids(),
            || {},
        )?;
        tally(&mut report, &endpoints, workload);
        drop(endpoints);
        deployment.shutdown();
        let off = untraced.ops_per_window();
        let on = closed.ops_per_window();
        m.set(
            "obs.trace_overhead_pct",
            if off > 0.0 {
                100.0 * (off - on) / off
            } else {
                0.0
            },
            (closed_plan.windows * 2) as u64,
        );
    }

    // Part A: the layer walk, with the children gone.
    // A durable batch costs four fsyncs, so that walk covers half the ops.
    let walk_ops =
        (WALK_OPS * seconds as usize / 20) >> usize::from(workload.topology == Topology::Durable);
    let walk = layer_walk(&mut trace, workload, &tape, walk_ops.max(BATCH), &dirs.out)?;
    report.attempted += walk.ops;
    report.failed += walk.mismatches;
    if walk.mismatches > 0 && report.first_failure.is_none() {
        report.first_failure = Some(format!(
            "layer walk: {} replies differ between the layered path, the assembled shard and the wire",
            walk.mismatches
        ));
    }

    let totals = layer_totals(trace.spans());
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    let sum = |names: &[&str]| {
        names.iter().fold(LayerTotal::default(), |acc, n| {
            let t = layer(n);
            LayerTotal {
                self_ns: acc.self_ns + t.self_ns,
                ops: acc.ops + t.ops,
                spans: acc.spans + t.spans,
            }
        })
    };
    for (metric, span) in [
        ("protocol.decode_req_ns", "protocol.decode_req"),
        ("protocol.encode_resp_ns", "protocol.encode_resp"),
        ("server.route_ns", "server.route"),
        ("shard.get_ns", "shard.get"),
        ("shard.set_ns", "shard.set"),
        ("shard.del_ns", "shard.del"),
        ("core.probe_ns", "core.probe"),
        ("core.remove_ns", "core.remove"),
        ("kvstore.lookup_ns", "kvstore.lookup"),
        ("kvstore.upsert_ns", "kvstore.upsert"),
        ("kvstore.remove_ns", "kvstore.remove"),
        ("durable.append_ns", "durable.append"),
        ("tier.lookup_ns", "tier.lookup"),
        ("tier.admit_ns", "tier.admit"),
        ("tier.invalidate_ns", "tier.invalidate"),
        ("cluster.ring_lookup_ns", "cluster.ring_lookup"),
    ] {
        let t = layer(span);
        m.set(metric, t.ns_per_op(), t.ops);
    }
    // Both client-side stages run once per op, so their per-op costs add.
    let (enc, dec) = (
        layer("protocol.client_encode"),
        layer("protocol.client_decode"),
    );
    m.set(
        "protocol.client_ns",
        enc.ns_per_op() + dec.ns_per_op(),
        enc.ops,
    );
    let updates = sum(&["core.update.get", "core.update.set"]);
    m.set("core.update_ns", updates.ns_per_op(), updates.ops);
    m.set(
        "protocol.wire_bytes_per_op",
        ratio(walk.wire_bytes, walk.ops),
        walk.ops,
    );
    m.set(
        "kvstore.populate_s",
        layer("kvstore.populate").self_ns as f64 / 1e9,
        workload.keys,
    );
    let (commit, commits) = p50_us(&trace, "durable.commit");
    m.set("durable.commit_p50_us", commit, commits);
    for (metric, span) in [
        ("durable.snapshot_s", "durable.snapshot"),
        ("durable.recover_s", "durable.recover"),
    ] {
        let (p50, n) = p50_us(&trace, span);
        m.set(metric, p50 / 1e6, n);
    }
    m.set(
        "server.handoff_us",
        m.get("server.get_rtt_p50_us")
            - m.get("reactor.ping_rtt_p50_us")
            - m.get("shard.get_ns") / 1e3,
        m.0.get("server.get_rtt_p50_us").map_or(0, |v| v.1),
    );

    // The budget: do the layers add up to the assembled shard, and the
    // live pieces to the live round trip?
    let per_op = |names: &[&str], ops: u64| {
        names.iter().map(|n| layer(n).self_ns).sum::<u64>() as f64 / ops.max(1) as f64
    };
    let gets = layer("shard.get").ops;
    let sets = layer("shard.set").ops;
    let dels = layer("shard.del").ops;
    let rows = [
        (
            "GET  core.probe + kvstore.read_addr|lookup + core.update",
            per_op(
                &[
                    "core.probe",
                    "kvstore.read_addr",
                    "kvstore.lookup",
                    "core.update.get",
                ],
                gets,
            ),
            m.get("shard.get_ns"),
            gets,
        ),
        (
            "SET  durable.append + kvstore.upsert + core.update",
            layer("durable.append").ns_per_op()
                + per_op(&["kvstore.upsert", "core.update.set"], sets),
            m.get("shard.set_ns"),
            sets,
        ),
        (
            "DEL  durable.append + core.remove + kvstore.remove",
            layer("durable.append").ns_per_op() + per_op(&["core.remove", "kvstore.remove"], dels),
            m.get("shard.del_ns"),
            dels,
        ),
    ];
    report.notes.push(format!(
        "  budget, ns/op over {} walked ops ({} batches of {BATCH}):",
        walk.ops,
        layer("walk.batch").spans
    ));
    report.notes.push(format!(
        "    {:<58} {:>9} {:>10} {:>9}",
        "", "layers", "assembled", "residual"
    ));
    for (what, layers, whole, ops) in rows {
        if ops > 0 {
            report.notes.push(format!(
                "    {what:<58} {layers:>9.1} {whole:>10.1} {:>9.1}",
                whole - layers
            ));
        }
    }
    report.notes.push(format!(
        "    live GET, us: get_rtt {:.1} = ping_rtt {:.1} + shard.get {:.2} + handoff {:.1} \
         (handoff is what is left: it has no residual of its own)",
        m.get("server.get_rtt_p50_us"),
        m.get("reactor.ping_rtt_p50_us"),
        m.get("shard.get_ns") / 1e3,
        m.get("server.handoff_us"),
    ));
    let batch = layer("walk.batch");
    let batch_total: u64 = trace
        .spans()
        .iter()
        .filter(|s| s.name == "walk.batch")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    report.notes.push(format!(
        "    tracing overhead: batch spans {:.1} ns/op, of which {:.1} ns/op ({:.2} %) is no layer's",
        batch_total as f64 / batch.ops.max(1) as f64,
        batch.ns_per_op(),
        100.0 * batch.self_ns as f64 / batch_total.max(1) as f64
    ));

    let trace_path = dirs.out.join(format!("trace_{}.jsonl", workload.name));
    trace.write_jsonl(BufWriter::new(File::create(&trace_path)?))?;
    report.notes.push(format!(
        "  {} spans written to {}",
        trace.spans().len(),
        trace_path.display()
    ));

    for (name, unit) in PER_LAYER {
        let (value, samples) = m.0.get(name).copied().unwrap_or((0.0, 0));
        report.push(name, value, unit, samples);
    }
    Ok(report)
}
