//! A timed phase: the generator threads, the canary, and what the main
//! thread reads from `/proc` where the measured windows begin and end.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::loadgen::{Endpoint, PhaseClock, CLOSED_DEPTH};
use crate::procs::{cpu_ticks_of, host_cpu};
use crate::sched::Schedule;
use crate::stats::{percentile, Sample, Windows};
use crate::sys::{clock_ticks_per_sec, precise_timers};
use crate::tape::{Tape, CONNS};

/// Length of one window.
pub const WINDOW: Duration = Duration::from_secs(1);

/// What the canary asks to sleep for; it records how much longer the sleep
/// took, which on an idle core is the hypervisor's doing.
const CANARY_SLEEP: Duration = Duration::from_micros(200);

/// Pause between two canary sleeps: at 100 wake-ups a second the canary
/// costs nothing (at 5,000 it took a tenth of the closed-loop peak).
const CANARY_PAUSE: Duration = Duration::from_millis(10);

/// Head start so every thread is running before the phase clock starts.
const HEAD_START: Duration = Duration::from_millis(20);

/// How a phase drives the connections.
#[derive(Clone, Copy, Debug)]
pub enum Drive {
    /// Closed loop at [`CLOSED_DEPTH`] per connection.
    Closed,
    /// Open loop at this many ops/s across the connections.
    Open(u64),
}

/// Warm-up and measured windows of one phase.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Traffic before the first window; its samples are dropped.
    pub warmup: Duration,
    /// 1-second windows measured.
    pub windows: usize,
}

/// CPU ticks since boot, read from `/proc` at one instant.
#[derive(Clone, Copy, Debug)]
struct Reading {
    server: u64,
    generator: u64,
    steal: u64,
    total: u64,
}

fn read_cpu(server_pids: &[u32]) -> io::Result<Reading> {
    let (steal, total) = host_cpu()?;
    Ok(Reading {
        server: cpu_ticks_of(server_pids)?,
        generator: cpu_ticks_of(&[std::process::id()])?,
        steal,
        total,
    })
}

/// CPU use over a phase's measured windows, in clock ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseCpu {
    /// Ticks the server-side children ran.
    pub server: u64,
    /// Ticks this process ran.
    pub generator: u64,
    /// Ticks the hypervisor gave to someone else.
    pub steal: u64,
    /// Ticks the host's CPUs had in all.
    pub total: u64,
}

/// What a phase measured.
#[derive(Debug)]
pub struct Phase {
    /// Latency samples by window.
    pub windows: Windows,
    /// CPU use over the windows.
    pub cpu: PhaseCpu,
    /// `send − due` of every open-loop op, ascending, ns (empty for closed).
    pub send_lag: Vec<u64>,
    /// p99 of the canary's oversleep, µs.
    pub canary_p99_us: f64,
}

impl Phase {
    /// Median over the windows of replies per window.
    pub fn ops_per_window(&self) -> f64 {
        self.windows.median_count().unwrap_or(0.0)
    }

    /// Median over the windows of the window's `p` latency, µs.
    pub fn latency_us(&self, p: f64) -> f64 {
        self.windows.median_of_percentile(p).unwrap_or(0.0) / 1e3
    }

    /// Samples in the windows.
    pub fn sample_count(&self) -> u64 {
        self.windows.sample_count() as u64
    }

    /// Server CPU microseconds per op.
    pub fn cpu_us_per_op(&self) -> f64 {
        let seconds = self.cpu.server as f64 / clock_ticks_per_sec() as f64;
        seconds * 1e6 / self.sample_count().max(1) as f64
    }

    /// Generator CPU as a share of generator plus servers.
    pub fn generator_cpu_share(&self) -> f64 {
        self.cpu.generator as f64 / (self.cpu.generator + self.cpu.server).max(1) as f64
    }

    /// Share of the host's CPU ticks stolen.
    pub fn steal_share(&self) -> f64 {
        self.cpu.steal as f64 / self.cpu.total.max(1) as f64
    }

    /// A send-lag percentile, µs (0 for a closed phase).
    pub fn send_lag_us(&self, p: f64) -> f64 {
        percentile(&self.send_lag, p).unwrap_or(0) as f64 / 1e3
    }

    /// Whether the generator ran so late that the phase measured itself:
    /// median send lag beyond one window.
    pub fn invalid(&self) -> bool {
        percentile(&self.send_lag, 0.5).unwrap_or(0) > WINDOW.as_nanos() as u64
    }
}

fn sleep_until(at: Instant) {
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
}

/// Runs one phase over both endpoints. `tape_base` is the tape op the
/// phase starts from. `at_window` runs on the main thread at the start of
/// every window (the traced run polls STATS there).
pub fn run_phase(
    endpoints: &mut [Endpoint],
    tape: &Tape,
    tape_base: usize,
    drive: Drive,
    plan: Plan,
    server_pids: &[u32],
    mut at_window: impl FnMut(),
) -> io::Result<Phase> {
    assert_eq!(endpoints.len(), CONNS);
    let origin = Instant::now() + HEAD_START;
    let warmup_ns = plan.warmup.as_nanos() as u64;
    let window_ns = WINDOW.as_nanos() as u64;
    let clock = PhaseClock {
        origin,
        end_ns: warmup_ns + window_ns * plan.windows as u64,
    };
    let stop_canary = AtomicBool::new(false);

    let (per_conn, canary, before, after) = std::thread::scope(|scope| {
        let workers: Vec<_> = endpoints
            .iter_mut()
            .enumerate()
            .map(|(c, ep)| {
                scope.spawn(move || {
                    precise_timers();
                    let mut samples = Vec::new();
                    let mut lag = Vec::new();
                    match drive {
                        Drive::Closed => {
                            samples.reserve(1 << 21);
                            ep.run_closed(tape, tape_base + c, clock, CLOSED_DEPTH, &mut samples);
                        }
                        Drive::Open(rate) => {
                            let schedule = Schedule { start_ns: 0, rate };
                            let mine = schedule.ops_before(clock.end_ns) as usize / CONNS + 1;
                            samples.reserve(mine);
                            lag.reserve(mine);
                            ep.run_open(tape, tape_base, clock, &schedule, &mut samples, &mut lag);
                        }
                    }
                    (samples, lag)
                })
            })
            .collect();
        let canary = scope.spawn(|| {
            precise_timers();
            let mut over = Vec::new();
            while !stop_canary.load(Ordering::Relaxed) {
                let began = Instant::now();
                std::thread::sleep(CANARY_SLEEP);
                over.push(began.elapsed().saturating_sub(CANARY_SLEEP).as_nanos() as u64);
                std::thread::sleep(CANARY_PAUSE);
            }
            over.sort_unstable();
            over
        });

        sleep_until(origin + plan.warmup);
        let before = read_cpu(server_pids);
        for w in 1..=plan.windows {
            at_window();
            sleep_until(origin + plan.warmup + WINDOW * w as u32);
        }
        let after = read_cpu(server_pids);
        let per_conn: Vec<(Vec<Sample>, Vec<u64>)> = workers
            .into_iter()
            .map(|w| w.join().expect("generator thread panicked"))
            .collect();
        stop_canary.store(true, Ordering::Relaxed);
        let canary = canary.join().expect("canary thread panicked");
        (per_conn, canary, before, after)
    });
    let (before, after) = (before?, after?);

    let mut samples = Vec::new();
    let mut send_lag = Vec::new();
    for (s, l) in per_conn {
        samples.extend(s);
        send_lag.extend(l);
    }
    send_lag.sort_unstable();
    Ok(Phase {
        windows: Windows::new(&samples, warmup_ns, window_ns, plan.windows),
        cpu: PhaseCpu {
            server: after.server.saturating_sub(before.server),
            generator: after.generator.saturating_sub(before.generator),
            steal: after.steal.saturating_sub(before.steal),
            total: after.total.saturating_sub(before.total),
        },
        send_lag,
        canary_p99_us: percentile(&canary, 0.99).unwrap_or(0) as f64 / 1e3,
    })
}
