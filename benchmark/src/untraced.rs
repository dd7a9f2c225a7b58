//! The untraced run: set-up, closed phase, open phase, teardown — the five
//! end-to-end metrics and the failure count.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::loadgen::Endpoint;
use crate::phases::{run_phase, Drive, Phase, Plan};
use crate::procs::{rss_kib, Deployment, Dirs};
use crate::report::Report;
use crate::stats::median;
use crate::tape::{Tape, Topology, Workload, CONNS, TAPE_OPS};

/// Fewest set-ups per run; `setup_s` is the median of them all.
pub const SETUP_REPS: usize = 5;

/// A workload that sets up in milliseconds repeats until its set-ups add up
/// to this (a median of five 18 ms spawns moved by a fifth between runs)…
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(750);

/// …or until it has done this many.
const SETUP_MAX_REPS: usize = 25;

/// Traffic before the first closed window.
pub const CLOSED_WARMUP: Duration = Duration::from_secs(1);

/// Traffic before the first open window.
pub const OPEN_WARMUP: Duration = Duration::from_secs(1);

/// Acked keys sampled for the crash sweep, besides the last 2 s of acks.
const SWEEP_SAMPLE: usize = 10_000;

/// Every write acked within this long before the crash is swept.
const SWEEP_RECENT: Duration = Duration::from_secs(2);

/// The tape op the open phase starts from (the closed phase starts at 0).
pub const OPEN_TAPE_BASE: usize = TAPE_OPS / 2;

/// One generator endpoint per connection, all on the front door.
pub fn connect_endpoints(addr: SocketAddr, workload: &Workload) -> io::Result<Vec<Endpoint>> {
    (0..CONNS)
        .map(|c| Endpoint::connect(addr, c as u8, workload))
        .collect()
}

/// Folds the endpoints' counts into the report. A stale read is a failed
/// op, except through the tier: tierd on the seed serves one now and then
/// (README, *Findings on the seed*), and a workload on which ops fail could
/// gate nothing else, so there it is counted and reported on its own.
pub fn tally(report: &mut Report, endpoints: &[Endpoint], workload: &Workload) {
    for ep in endpoints {
        report.attempted += ep.attempted;
        report.failed += ep.failed;
        if report.first_failure.is_none() {
            report.first_failure.clone_from(&ep.first_failure);
        }
        if workload.topology == Topology::Tier {
            report.stale_reads += ep.stale;
        } else {
            report.failed += ep.stale;
            if report.first_failure.is_none() {
                report.first_failure.clone_from(&ep.first_stale);
            }
        }
        if report.first_stale.is_none() {
            report.first_stale.clone_from(&ep.first_stale);
        }
    }
}

/// An error for a phase the generator itself spoiled.
pub fn reject_invalid(name: &str, phase: &Phase) -> io::Result<()> {
    if phase.invalid() {
        return Err(io::Error::other(format!(
            "{name} phase invalid: median send lag {:.0} us exceeds the window",
            phase.send_lag_us(0.5)
        )));
    }
    Ok(())
}

/// `kill -9` the durable server, restart it on the same data dir, and read
/// back every key acked in the last two seconds plus a sample of all acked
/// keys. Returns `(keys swept, keys lost or wrong)`.
pub fn crash_sweep(
    deployment: &mut Deployment,
    endpoints: &mut [Endpoint],
    seed: u64,
) -> io::Result<(u64, u64)> {
    let killed_at = Instant::now();
    deployment.crash_and_restart_server()?;
    let (mut swept, mut lost) = (0, 0);
    for ep in endpoints.iter_mut() {
        let mut keys: Vec<u64> = ep
            .acks
            .iter()
            .rev()
            .take_while(|(at, _)| killed_at.duration_since(*at) <= SWEEP_RECENT)
            .map(|&(_, key)| key)
            .collect();
        // The map's order differs between runs; the sample must not.
        let mut owned: Vec<u64> = ep.model.slots().keys().copied().collect();
        owned.sort_unstable();
        let want = SWEEP_SAMPLE / CONNS;
        let step = (owned.len() / want).max(1);
        keys.extend(
            owned
                .iter()
                .skip(seed as usize % step)
                .step_by(step)
                .take(want),
        );
        keys.sort_unstable();
        keys.dedup();
        ep.reconnect(deployment.front())?;
        swept += keys.len() as u64;
        lost += ep.sweep(&keys);
    }
    Ok((swept, lost))
}

/// Runs `workload` untraced for `seconds` measured seconds.
pub fn run(
    dirs: &Dirs,
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
) -> io::Result<Report> {
    let closed_plan = Plan {
        warmup: CLOSED_WARMUP,
        windows: (seconds / 2).max(1) as usize,
    };
    let open_plan = Plan {
        warmup: OPEN_WARMUP,
        windows: (seconds - seconds / 2).max(1) as usize,
    };
    let tape = Tape::generate(workload, seed, TAPE_OPS);

    // The last set-up serves the run; the ones before it are killed at once.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut spent = Duration::ZERO;
    let mut deployment = loop {
        let (deployment, took) = Deployment::start(dirs, workload, &[])?;
        setups.push(took.as_secs_f64());
        spent += took;
        let enough = setups.len() >= SETUP_REPS
            && (spent >= SETUP_MIN_TOTAL || setups.len() >= SETUP_MAX_REPS);
        if enough {
            break deployment;
        }
        deployment.discard();
    };

    let mut endpoints = connect_endpoints(deployment.front(), workload)?;
    let pids = deployment.pids();
    let closed = run_phase(
        &mut endpoints,
        &tape,
        0,
        Drive::Closed,
        closed_plan,
        &pids,
        || {},
    )?;
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
    let rss_kib_total: u64 = pids.iter().map(|&p| rss_kib(p)).sum::<io::Result<u64>>()?;

    let mut report = Report::new(workload.name, seed, false);
    if workload.topology == Topology::Durable {
        let (swept, lost) = crash_sweep(&mut deployment, &mut endpoints, seed)?;
        report.notes.push(format!(
            "  crash sweep: {swept} acked keys read back after kill -9 + restart, {lost} lost"
        ));
    }
    tally(&mut report, &endpoints, workload);
    drop(endpoints);
    deployment.shutdown();

    report.push_end_to_end(
        "setup_s",
        median(&setups).unwrap_or(0.0),
        setups.len() as u64,
    );
    report.push_end_to_end("peak_ops_s", closed.ops_per_window(), closed.sample_count());
    report.push_end_to_end("p50_us", open.latency_us(0.5), open.sample_count());
    report.push_end_to_end("cpu_us_per_op", open.cpu_us_per_op(), open.sample_count());
    report.push_end_to_end("rss_mib", rss_kib_total as f64 / 1024.0, pids.len() as u64);
    for (name, phase, plan) in [("closed", &closed, closed_plan), ("open", &open, open_plan)] {
        report.notes.push(format!(
            "  {name}: {} windows; steal {:.2} %, canary oversleep p99 {:.0} us",
            plan.windows,
            100.0 * phase.steal_share(),
            phase.canary_p99_us,
        ));
    }
    report.notes.push(format!(
        "  open: send lag p50 {:.1} us p99 {:.1} us; p99 {:.0} us, p99.9 {:.0} us (window medians, not gated)",
        open.send_lag_us(0.5),
        open.send_lag_us(0.99),
        open.latency_us(0.99),
        open.latency_us(0.999),
    ));
    Ok(report)
}
