//! An open-loop load generator: many connections, a fixed offered rate,
//! and coordinated-omission-safe latency (DESIGN.md §12).
//!
//! The closed loop in [`crate::loadgen`] measures service time under
//! self-throttling clients: a slow reply delays the *next request*, so the
//! generator automatically eases off exactly when the server struggles —
//! the measured tail silently omits the waiting that real open-world
//! traffic would have experienced (coordinated omission). This module does
//! the opposite: every operation has an *intended* send instant fixed by
//! the schedule alone (`start + k/rate`, operations dealt round-robin
//! across connections), and its latency is measured from that intended
//! instant to the reply — whether the generator managed to send it on time
//! or not. A server that stalls therefore shows the stall in the tail,
//! multiplied by every operation that queued behind it.
//!
//! The generator itself runs on a client-side [`Reactor`]: each connection
//! is a nonblocking [`Driver`] whose [`Driver::deadline`] is its next
//! intended send, so a handful of I/O threads pace tens of thousands of
//! connections without a thread per connection on the client either.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use p4lru_kvstore::db::record_for;
use p4lru_obs::HistSnapshot;
use p4lru_reactor::{
    raise_nofile_limit, Ctl, Driver, Mailbox, Reactor, Ready, SharedStream, Status,
};
use p4lru_traffic::ycsb::{Op, YcsbConfig, YcsbStream};

use crate::protocol::{encode_get, encode_set, FrameReader, FrameWriter, Response};

/// How long after the send horizon connections may wait for straggler
/// replies before giving up on them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Minimum head start given to the schedule so all connections are
/// connected and registered before the first intended send falls due; at
/// large connection counts the head start grows with the registration
/// work (see [`connect_grace`]), else the adoption backlog masquerades as
/// schedule lag in the first seconds of the measured tail.
const CONNECT_GRACE: Duration = Duration::from_millis(100);

/// The schedule head start for a run of `conns` connections.
fn connect_grace(conns: usize) -> Duration {
    CONNECT_GRACE.max(Duration::from_micros(100) * conns as u32)
}

/// Read/write buffer bytes per generator connection (small: the open loop
/// exists to hold many connections).
const CONN_BUF: usize = 4 * 1024;

/// Open-loop run parameters.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections to hold open.
    pub conns: usize,
    /// Offered load in operations per second, across all connections
    /// (operation `k` of the global schedule is intended at
    /// `start + k/rate` and dealt to connection `k % conns`).
    pub rate: f64,
    /// Length of the send schedule in seconds.
    pub seconds: f64,
    /// YCSB key-space size; must match the server's `--items`.
    pub items: u64,
    /// Zipf skew (paper: 0.9).
    pub alpha: f64,
    /// Fraction of reads.
    pub read_fraction: f64,
    /// Base RNG seed; connection `i` uses a derived seed.
    pub seed: u64,
    /// Client-side reactor I/O threads.
    pub io_threads: usize,
    /// Most operations one connection keeps in flight. When the window is
    /// full the connection *still* charges the schedule: operations send
    /// late and their measured latency includes the stall.
    pub window: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4190".to_owned(),
            conns: 64,
            rate: 10_000.0,
            seconds: 5.0,
            items: 100_000,
            alpha: 0.9,
            read_fraction: 0.95,
            seed: 0x10AD,
            io_threads: 2,
            window: 32,
        }
    }
}

/// Aggregated results of one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopSummary {
    /// Connections the run held (the configured count; all must connect).
    pub conns: u64,
    /// The offered rate, ops/s (the schedule, not what was achieved).
    pub offered_ops_s: f64,
    /// Operations acknowledged.
    pub ops: u64,
    /// Reads that found no value.
    pub not_found: u64,
    /// Reads whose value did not match the expected record contents.
    pub corrupt: u64,
    /// Wall-clock from schedule start until the last connection drained.
    pub elapsed_s: f64,
    /// `ops / seconds` — completions per second of schedule time.
    pub achieved_ops_s: f64,
    /// Intended-send-to-reply median latency, microseconds.
    pub p50_us: f64,
    /// Intended-send-to-reply 95th percentile, microseconds.
    pub p95_us: f64,
    /// Intended-send-to-reply 99th percentile, microseconds.
    pub p99_us: f64,
    /// The merged coordinated-omission-safe latency histogram.
    pub latency: HistSnapshot,
    /// Largest gap observed between an operation's intended and actual
    /// send, microseconds (how far the generator itself fell behind; large
    /// values mean the *measured* tail already contains generator lag).
    pub max_send_lag_us: u64,
    /// Connections that ended with operations still unanswered (peer error
    /// or the drain grace expiring).
    pub aborted_conns: u64,
}

/// Counters one connection accumulates and merges on close.
#[derive(Default)]
struct Merged {
    ops: u64,
    not_found: u64,
    corrupt: u64,
    latency: HistSnapshot,
    max_send_lag_ns: u64,
    aborted_conns: u64,
    closed_conns: u64,
}

/// One generator connection: a paced sender and reply reader.
struct OpenConn {
    reader: FrameReader<SharedStream>,
    writer: FrameWriter<SharedStream>,
    ops: YcsbStream,
    /// Intended send instants of in-flight operations, in send order
    /// (replies come back in request order).
    inflight: VecDeque<(Op, Instant)>,
    /// Operations sent so far (this connection's `k`).
    sent: u64,
    conn_index: u64,
    conns: u64,
    rate: f64,
    window: usize,
    start: Instant,
    /// No operation is *scheduled* at or after this instant.
    horizon: Instant,
    /// Hard stop: close even with replies outstanding.
    grace_until: Instant,
    acc: Merged,
    merged: Arc<Mutex<Merged>>,
    payload: Vec<u8>,
    frame: Vec<u8>,
    aborted: bool,
}

impl OpenConn {
    /// The intended send instant of this connection's next operation:
    /// global operation `conn_index + sent * conns` of the schedule.
    fn next_intended(&self) -> Instant {
        let k = self.conn_index + self.sent * self.conns;
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }

    fn schedule_done(&self) -> bool {
        self.next_intended() >= self.horizon
    }

    /// Reads replies until `WouldBlock`, recording each against its
    /// operation's *intended* send instant.
    fn read_replies(&mut self, now: Instant) -> Result<(), Status> {
        loop {
            match self.reader.read_frame(&mut self.frame) {
                Ok(true) => {
                    let Some((op, intended)) = self.inflight.pop_front() else {
                        return Err(self.fail()); // reply with no request
                    };
                    let Ok(response) = Response::decode(&self.frame) else {
                        return Err(self.fail());
                    };
                    match (op, response) {
                        (Op::Read(key), Response::Value(value)) => {
                            if value[..] != record_for(key)[..] {
                                self.acc.corrupt += 1;
                            }
                        }
                        (Op::Read(_), Response::NotFound) => self.acc.not_found += 1,
                        (Op::Update(_), Response::Ok) => {}
                        _ => return Err(self.fail()),
                    }
                    let lat = now.saturating_duration_since(intended);
                    self.acc.latency.record_ns(lat.as_nanos() as u64);
                    self.acc.ops += 1;
                }
                Ok(false) => return Err(self.fail()), // EOF mid-run
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(_) => return Err(self.fail()),
            }
        }
    }

    /// Sends every operation whose intended instant has passed, up to the
    /// window. Late sends record their lag but keep the schedule's
    /// intended instants — that is the whole point.
    fn send_due(&mut self, now: Instant) -> Result<(), Status> {
        while !self.schedule_done() && self.inflight.len() < self.window {
            let intended = self.next_intended();
            if intended > now {
                break;
            }
            let op = self.ops.next().expect("YCSB stream is infinite");
            match op {
                Op::Read(key) => encode_get(key, &mut self.payload),
                Op::Update(key) => encode_set(key, &record_for(key), &mut self.payload),
            }
            if self.writer.write_frame(&self.payload).is_err() {
                return Err(self.fail());
            }
            let lag = now.saturating_duration_since(intended).as_nanos() as u64;
            self.acc.max_send_lag_ns = self.acc.max_send_lag_ns.max(lag);
            self.inflight.push_back((op, intended));
            self.sent += 1;
        }
        Ok(())
    }

    fn fail(&mut self) -> Status {
        self.aborted = true;
        Status::Close
    }
}

impl Driver for OpenConn {
    type Msg = ();

    fn drive(&mut self, _ready: Ready, msgs: &mut VecDeque<()>, _ctl: &mut Ctl) -> Status {
        msgs.clear();
        let now = Instant::now();
        if let Err(status) = self.read_replies(now) {
            return status;
        }
        if let Err(status) = self.send_due(now) {
            return status;
        }
        match self.writer.flush_nonblocking() {
            Ok(_) => {}
            Err(_) => return self.fail(),
        }
        if self.schedule_done() && self.inflight.is_empty() {
            return Status::Close; // drained cleanly
        }
        if now >= self.grace_until {
            return self.fail(); // stragglers never answered
        }
        Status::Continue
    }

    fn deadline(&self) -> Option<Instant> {
        if !self.schedule_done() && self.inflight.len() < self.window {
            // The pacer: wake exactly when the next operation is due.
            Some(self.next_intended())
        } else {
            // Window full (a reply readiness event will free it) or
            // draining: the grace instant is the backstop either way.
            Some(self.grace_until)
        }
    }
}

impl Drop for OpenConn {
    fn drop(&mut self) {
        let mut merged = self.merged.lock().expect("open-loop merge poisoned");
        merged.ops += self.acc.ops;
        merged.not_found += self.acc.not_found;
        merged.corrupt += self.acc.corrupt;
        merged.latency.merge(&self.acc.latency);
        merged.max_send_lag_ns = merged.max_send_lag_ns.max(self.acc.max_send_lag_ns);
        merged.aborted_conns += u64::from(self.aborted || !self.inflight.is_empty());
        merged.closed_conns += 1;
    }
}

/// Runs the open loop: connect `conns` sockets, pace `rate` operations per
/// second across them for `seconds`, drain, and aggregate.
pub fn run_open_loop(config: &OpenLoopConfig) -> io::Result<OpenLoopSummary> {
    assert!(config.conns >= 1, "need at least one connection");
    assert!(config.rate > 0.0, "an open loop needs a positive rate");
    assert!(config.window >= 1, "window admits one operation");
    let addr: SocketAddr = config.addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    // One descriptor per connection ([`SharedStream`] halves, no dup), but
    // the server side of an in-process benchmark shares the same process
    // limit, so budget for both plus slack.
    let _ = raise_nofile_limit(2 * config.conns as u64 + 256);

    // Connect everything first so the schedule starts with the full
    // complement holding (the connect burst is not part of the measurement).
    let mut streams = Vec::with_capacity(config.conns);
    for _ in 0..config.conns {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        streams.push(stream);
    }

    let reactor: Reactor<()> = Reactor::spawn(config.io_threads, "p4lru-openload")?;
    let merged = Arc::new(Mutex::new(Merged::default()));
    let start = Instant::now() + connect_grace(config.conns);
    let horizon = start + Duration::from_secs_f64(config.seconds);
    let grace_until = horizon + DRAIN_GRACE;
    for (i, stream) in streams.into_iter().enumerate() {
        let workload = YcsbConfig {
            items: config.items,
            alpha: config.alpha,
            read_fraction: config.read_fraction,
            seed: config.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let merged = Arc::clone(&merged);
        let (conns, rate, window) = (config.conns as u64, config.rate, config.window);
        reactor.register(stream, move |stream, _mailbox: Mailbox<()>| {
            let read_half = SharedStream::new(stream);
            let write_half = read_half.clone();
            Ok(Box::new(OpenConn {
                reader: FrameReader::with_capacity(read_half, CONN_BUF),
                writer: FrameWriter::with_capacity(write_half, CONN_BUF),
                ops: workload.stream(),
                inflight: VecDeque::with_capacity(window),
                sent: 0,
                conn_index: i as u64,
                conns,
                rate,
                window,
                start,
                horizon,
                grace_until,
                acc: Merged::default(),
                merged,
                payload: Vec::new(),
                frame: Vec::new(),
                aborted: false,
            }) as Box<dyn Driver<Msg = ()>>)
        })?;
    }

    // Connections close themselves once drained; the grace instant bounds
    // the wait even if the server stops answering. Registration is
    // asynchronous (the I/O threads adopt connections from their inboxes),
    // so `connections() == 0` means "drained" only once the schedule is
    // over — before the horizon it may just mean "not adopted yet".
    let hard_stop = grace_until + Duration::from_secs(2);
    loop {
        let now = Instant::now();
        if now >= hard_stop || (now >= horizon && reactor.connections() == 0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let elapsed_s = Instant::now()
        .saturating_duration_since(start)
        .as_secs_f64();
    reactor.shutdown();

    let merged = Arc::try_unwrap(merged)
        .map_err(|_| io::Error::other("open-loop connections still alive"))?
        .into_inner()
        .expect("open-loop merge poisoned");
    let mut summary = OpenLoopSummary {
        conns: config.conns as u64,
        offered_ops_s: config.rate,
        ops: merged.ops,
        not_found: merged.not_found,
        corrupt: merged.corrupt,
        elapsed_s,
        achieved_ops_s: merged.ops as f64 / config.seconds.max(1e-9),
        p50_us: 0.0,
        p95_us: 0.0,
        p99_us: 0.0,
        latency: merged.latency,
        max_send_lag_us: merged.max_send_lag_ns / 1_000,
        aborted_conns: merged.aborted_conns,
    };
    summary.p50_us = summary.latency.quantile_us(0.50);
    summary.p95_us = summary.latency.quantile_us(0.95);
    summary.p99_us = summary.latency.quantile_us(0.99);
    Ok(summary)
}

// Local mirror of `p4lru_bench::harness::FigureResult`, for the same
// dependency-order reason as the one in `crate::loadgen`.
#[derive(serde::Serialize)]
struct FigureOut {
    id: String,
    title: String,
    x_label: String,
    y_label: String,
    x: Vec<f64>,
    series: Vec<SeriesOut>,
    notes: Vec<String>,
}

#[derive(serde::Serialize)]
struct SeriesOut {
    label: String,
    values: Vec<f64>,
}

/// Renders a rate sweep as a `FigureResult`-shaped JSON document (id
/// `server_openloop`): x = offered load, one series per latency percentile
/// plus the achieved throughput, configuration in `notes`.
pub fn sweep_to_figure_json(
    config: &OpenLoopConfig,
    points: &[OpenLoopSummary],
    extra_notes: &[String],
) -> String {
    let fig = FigureOut {
        id: "server_openloop".to_owned(),
        title: "p4lru-server open-loop latency vs offered load".to_owned(),
        x_label: "offered load (ops/s)".to_owned(),
        y_label: "latency (us, intended-send to reply)".to_owned(),
        x: points.iter().map(|p| p.offered_ops_s).collect(),
        series: vec![
            SeriesOut {
                label: "p50_us".to_owned(),
                values: points.iter().map(|p| p.p50_us).collect(),
            },
            SeriesOut {
                label: "p95_us".to_owned(),
                values: points.iter().map(|p| p.p95_us).collect(),
            },
            SeriesOut {
                label: "p99_us".to_owned(),
                values: points.iter().map(|p| p.p99_us).collect(),
            },
            SeriesOut {
                label: "achieved_ops_s".to_owned(),
                values: points.iter().map(|p| p.achieved_ops_s).collect(),
            },
        ],
        notes: {
            let mut notes = vec![format!(
                "conns={} seconds={} items={} alpha={} read_fraction={} window={} io_threads={}",
                config.conns,
                config.seconds,
                config.items,
                config.alpha,
                config.read_fraction,
                config.window,
                config.io_threads
            )];
            for p in points {
                notes.push(format!(
                    "rate={:.0}: ops={} achieved={:.0} p50_us={:.1} p99_us={:.1} \
                     max_send_lag_us={} aborted_conns={}",
                    p.offered_ops_s,
                    p.ops,
                    p.achieved_ops_s,
                    p.p50_us,
                    p.p99_us,
                    p.max_send_lag_us,
                    p.aborted_conns
                ));
            }
            notes.extend_from_slice(extra_notes);
            notes
        },
    };
    serde_json::to_string_pretty(&fig).expect("figure serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    #[test]
    fn paced_run_completes_against_the_server() {
        let server = Server::spawn(&ServerConfig {
            items: 2_000,
            units_per_shard: 256,
            shards: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let summary = run_open_loop(&OpenLoopConfig {
            addr: server.local_addr().to_string(),
            conns: 8,
            rate: 2_000.0,
            seconds: 0.5,
            items: 2_000,
            io_threads: 2,
            ..OpenLoopConfig::default()
        })
        .unwrap();
        let stats = server.shutdown();
        assert_eq!(summary.aborted_conns, 0, "every connection must drain");
        assert_eq!(summary.corrupt, 0);
        assert_eq!(summary.not_found, 0);
        // The schedule offers rate*seconds operations; a healthy loopback
        // server completes nearly all of them (the tail of the schedule is
        // still in flight at the horizon).
        let offered = (2_000.0_f64 * 0.5) as u64;
        assert!(
            summary.ops >= offered / 2 && summary.ops <= offered,
            "completed {} of {} offered",
            summary.ops,
            offered
        );
        assert_eq!(summary.latency.count, summary.ops);
        assert_eq!(
            stats.totals.gets + stats.totals.sets,
            summary.ops,
            "server saw exactly the acknowledged operations"
        );
        assert_eq!(stats.conns.frontend, "reactor");
        assert_eq!(stats.conns.accepted_total, 8);
        assert!(!stats.reactor.is_empty(), "reactor loop stats in STATS");
    }
}
