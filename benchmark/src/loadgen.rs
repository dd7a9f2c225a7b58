//! The generator: one thread per connection, closed or open loop, every
//! reply checked against the connection's model.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use p4lru_server::Response;

use crate::conn::Conn;
use crate::sched::Schedule;
use crate::stats::Sample;
use crate::tape::{Expect, Kind, Model, Op, Tape, Verdict, Workload, CONNS};

/// How long a connection with ops outstanding may stay silent after its
/// phase's last send before those ops count as failed. A backlog that is
/// still draining (a stolen-from server answers late, not never) is waited
/// out instead.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// The longest a backlog is waited out, whatever its progress.
const DRAIN_CAP: Duration = Duration::from_secs(45);

/// Requests each connection keeps in flight in the closed loop.
pub const CLOSED_DEPTH: usize = 32;

/// A phase's clock: where its nanoseconds count from and where it ends.
#[derive(Clone, Copy, Debug)]
pub struct PhaseClock {
    /// Instant zero of the phase.
    pub origin: Instant,
    /// The phase's end, ns since `origin`.
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    /// Send instant (closed loop) or due instant (open loop), ns since the
    /// phase began.
    at_ns: u64,
    key: u64,
    expect: Expect,
}

/// One generator connection with its model; lives across phases.
#[derive(Debug)]
pub struct Endpoint {
    conn: Conn,
    /// What this connection has written.
    pub model: Model,
    inflight: VecDeque<InFlight>,
    /// `(instant, key)` of every acknowledged SET/DEL, in ack order.
    pub acks: Vec<(Instant, u64)>,
    /// Ops sent.
    pub attempted: u64,
    /// Ops that errored, failed verification, or were never answered.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// GETs of an own key answered with a value older than a write of it
    /// that had been acknowledged before the GET was sent. Not in `failed`:
    /// the run decides what a stale read counts as.
    pub stale: u64,
    /// The first stale read, for the report.
    pub first_stale: Option<String>,
}

impl Endpoint {
    /// Connects connection number `conn` of `workload` to `addr`.
    pub fn connect(addr: SocketAddr, conn: u8, workload: &Workload) -> io::Result<Self> {
        Ok(Self {
            conn: Conn::connect(addr)?,
            model: Model::new(conn, workload),
            inflight: VecDeque::new(),
            acks: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
            stale: 0,
            first_stale: None,
        })
    }

    fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Queues `op`, registering what its reply must be.
    fn send_op(&mut self, op: Op, at_ns: u64) -> io::Result<()> {
        let expect = match op.kind {
            Kind::Get => {
                self.conn.send_get(op.key)?;
                self.model.expect_get(op.key)
            }
            Kind::Set => {
                let value = self.model.set(op.key);
                self.conn.send_set(op.key, &value)?;
                Expect::Ok
            }
            Kind::Del => {
                self.conn.send_del(op.key)?;
                self.model.del(op.key)
            }
        };
        self.push(at_ns, op.key, expect);
        Ok(())
    }

    fn push(&mut self, at_ns: u64, key: u64, expect: Expect) {
        self.attempted += 1;
        self.inflight.push_back(InFlight { at_ns, key, expect });
    }

    /// Takes every reply that has arrived, checks it, and hands
    /// `(at_ns, now_ns)` of each to `on_reply`. Returns how many came.
    fn drain(&mut self, origin: Instant, mut on_reply: impl FnMut(u64, u64)) -> io::Result<usize> {
        let mut got = 0;
        while let Some(response) = self.conn.try_recv()? {
            let now = Instant::now();
            let Some(sent) = self.inflight.pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("reply without a request: {response:?}"),
                ));
            };
            let mismatch = || {
                format!(
                    "key {} expected {:?}, got {}",
                    sent.key,
                    sent.expect,
                    describe(&response)
                )
            };
            match self.model.check(sent.expect, sent.key, &response) {
                Verdict::Correct => {
                    if matches!(sent.expect, Expect::Ok | Expect::Deleted { .. }) {
                        self.acks.push((now, sent.key));
                    }
                }
                Verdict::Stale => {
                    self.stale += 1;
                    if self.first_stale.is_none() {
                        self.first_stale = Some(mismatch());
                    }
                }
                Verdict::Wrong => self.fail(1, mismatch),
            }
            on_reply(sent.at_ns, ns_since(origin, now));
            got += 1;
        }
        Ok(got)
    }

    /// After a connection error or the drain grace: everything still in
    /// flight has failed.
    fn abandon(&mut self, why: &str) {
        let lost = self.inflight.len() as u64;
        self.inflight.clear();
        if lost > 0 {
            self.fail(lost, || format!("{lost} ops unanswered: {why}"));
        }
    }

    /// Books a loop's outcome: a connection error fails the op it hit and
    /// everything still in flight.
    fn settle(&mut self, result: io::Result<()>) {
        if let Err(e) = result {
            self.fail(1, || format!("connection failed: {e}"));
            self.abandon("connection failed");
        }
    }

    /// Waits out the replies still in flight. Ops still unanswered when the
    /// connection has been silent for [`DRAIN_GRACE`], or [`DRAIN_CAP`]
    /// after the wait began, have failed.
    fn finish(&mut self, origin: Instant, mut on_reply: impl FnMut(u64, u64)) -> io::Result<()> {
        let cap = Instant::now() + DRAIN_CAP;
        let mut deadline = Instant::now() + DRAIN_GRACE;
        while !self.inflight.is_empty() {
            self.conn.flush()?;
            if self.drain(origin, &mut on_reply)? > 0 {
                deadline = Instant::now() + DRAIN_GRACE;
                continue;
            }
            let left = deadline.min(cap).saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.abandon("no reply within the drain grace");
                break;
            }
            self.conn.wait(left)?;
        }
        Ok(())
    }

    /// Closed loop: keep `depth` requests in flight until the phase ends,
    /// then collect the stragglers. Connection `c` walks tape ops `first`,
    /// `first + CONNS`, …. A sample is `(reply instant, send→reply)`.
    pub fn run_closed(
        &mut self,
        tape: &Tape,
        first: usize,
        clock: PhaseClock,
        depth: usize,
        samples: &mut Vec<Sample>,
    ) {
        let PhaseClock { origin, end_ns } = clock;
        let mut record = |at_ns: u64, now_ns: u64| {
            samples.push(Sample {
                at_ns: now_ns,
                value_ns: now_ns - at_ns,
            });
        };
        let mut k = first;
        let result = (|| -> io::Result<()> {
            loop {
                let now = ns_since(origin, Instant::now());
                if now >= end_ns {
                    break;
                }
                while self.inflight.len() < depth {
                    self.send_op(tape.op(k), ns_since(origin, Instant::now()))?;
                    k += CONNS;
                }
                self.conn.flush()?;
                if self.drain(origin, &mut record)? == 0 {
                    self.conn.wait(Duration::from_nanos(end_ns - now))?;
                }
            }
            self.finish(origin, &mut record)
        })();
        self.settle(result);
    }

    /// Open loop: send schedule ops `conn`, `conn + CONNS`, … when each
    /// falls due (tape op `tape_base + k`), waiting for replies only until
    /// the next due instant, until the schedule reaches the phase's end. A
    /// sample is `(due instant, due→reply)`; `send_lag` gets `send − due`
    /// per op.
    pub fn run_open(
        &mut self,
        tape: &Tape,
        tape_base: usize,
        clock: PhaseClock,
        schedule: &Schedule,
        samples: &mut Vec<Sample>,
        send_lag: &mut Vec<u64>,
    ) {
        let PhaseClock { origin, end_ns } = clock;
        let mut record = |due_ns: u64, now_ns: u64| {
            samples.push(Sample {
                at_ns: due_ns,
                value_ns: now_ns.saturating_sub(due_ns),
            });
        };
        let mut next = u64::from(self.model.conn());
        let result = (|| -> io::Result<()> {
            loop {
                let next_due = schedule.due_ns(next);
                if next_due >= end_ns {
                    break;
                }
                let now = ns_since(origin, Instant::now());
                if next_due > now {
                    self.conn.wait(Duration::from_nanos(next_due - now))?;
                }
                let now = ns_since(origin, Instant::now());
                for k in schedule.due_now(next, CONNS as u64, now, end_ns) {
                    let due = schedule.due_ns(k);
                    self.send_op(tape.op(tape_base + k as usize), due)?;
                    send_lag.push(ns_since(origin, Instant::now()).saturating_sub(due));
                    next = k + CONNS as u64;
                }
                self.conn.flush()?;
                self.drain(origin, &mut record)?;
            }
            self.finish(origin, &mut record)
        })();
        self.settle(result);
    }

    /// One request at a time, `count` times; returns each round trip in ns.
    /// `make` yields the op for probe `i` (`None` probes with PING).
    pub fn run_probe(
        &mut self,
        count: usize,
        mut make: impl FnMut(usize) -> Option<Op>,
        mut on_rtt: impl FnMut(Instant, Instant),
    ) {
        let origin = Instant::now();
        let result = (|| -> io::Result<()> {
            for i in 0..count {
                let start = Instant::now();
                match make(i) {
                    Some(op) => self.send_op(op, 0)?,
                    None => {
                        self.conn.send(&p4lru_server::Request::Ping)?;
                        self.push(0, 0, Expect::Pong);
                    }
                }
                self.finish(origin, |_, _| {})?;
                on_rtt(start, Instant::now());
            }
            Ok(())
        })();
        self.settle(result);
    }

    /// Reads `keys` back (pipelined) and checks each against the model:
    /// the durability sweep after a crash. Returns how many were wrong.
    pub fn sweep(&mut self, keys: &[u64]) -> u64 {
        let before = self.failed;
        let origin = Instant::now();
        let result = (|| -> io::Result<()> {
            for chunk in keys.chunks(CLOSED_DEPTH) {
                for &key in chunk {
                    self.send_op(
                        Op {
                            kind: Kind::Get,
                            key,
                        },
                        0,
                    )?;
                }
                self.finish(origin, |_, _| {})?;
            }
            Ok(())
        })();
        self.settle(result);
        self.failed - before
    }

    /// Replaces the connection (the server behind it was restarted).
    pub fn reconnect(&mut self, addr: SocketAddr) -> io::Result<()> {
        self.conn = Conn::connect(addr)?;
        Ok(())
    }
}

fn ns_since(origin: Instant, now: Instant) -> u64 {
    now.saturating_duration_since(origin).as_nanos() as u64
}

fn describe(response: &Response) -> String {
    match response {
        Response::Value(v) => format!("VALUE {:02x?}…", &v[..v.len().min(17)]),
        other => format!("{other:?}"),
    }
}
