//! `p4lru_tierd`: a TCP proxy daemon that speaks the serverd protocol and
//! runs the switch tier in front of a live serverd.
//!
//! Clients connect to the proxy exactly as they would to serverd — same
//! frames, same opcodes — so every existing client and load generator works
//! unchanged. Per connection the proxy keeps its own upstream connection;
//! the switch tier (the series arrays and the records in them) is shared
//! across connections under one mutex, the way all ports of one switch
//! share the same register arrays.
//!
//! A connection is served in *turns*. A turn blocks for one frame, takes
//! with it every further GET/SET/DEL frame that has already arrived (up to
//! [`TURN_CAP`]), and crosses the tier as a unit: every request is begun in
//! wire order under one hold of the lock, the ones the switch could not
//! answer are queued on the upstream connection and sent with one flush,
//! their answers are read back in order with the lock released, every
//! request is finished under one more hold, and the replies go out in wire
//! order with one flush. A closed-loop client's turn is one request; a
//! pipelining client's is as long as its burst, and the serverd behind it
//! sees that burst as a batch. STATS, PING, SHUTDOWN and frames that do
//! not decode end a turn and are answered by themselves.
//!
//! This module owns sockets, threads and the lock, and none of the tier's
//! policy: a turn is [`SwitchTier::begin_turn`] under the lock, the
//! upstream exchange with the lock released, and
//! [`SwitchTier::finish_turn`] under the lock again. What keeps the tiers
//! coherent while other connections run in the gap — and why a turn's
//! begins must not be interleaved with them — is written in
//! [`crate::switch`], once.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use p4lru_obs::{HopKind, HopTrace, MetricsHttp, SpanContext, SpanSampler};
use p4lru_server::{tier_families, Client, FrameReader, FrameWriter, Request, Response};

use crate::counters::TierCounters;
use crate::switch::{Step, SwitchTier, SwitchTierConfig};

/// How often blocked reads wake to check the running flag.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// The most requests one turn takes. It bounds how long a turn holds the
/// switch (tens of microseconds at this size) and how far a connection's
/// first reply waits on its last request's upstream answer; a longer burst
/// is simply served as several turns.
pub const TURN_CAP: usize = 64;

/// Proxy configuration.
#[derive(Clone, Debug)]
pub struct ProxyConfig {
    /// Address to listen on (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Address of the upstream serverd.
    pub upstream: String,
    /// Switch-tier sizing.
    pub switch: SwitchTierConfig,
    /// Optional Prometheus endpoint serving the tier families.
    pub metrics_addr: Option<String>,
    /// Forward SHUTDOWN to the upstream serverd as well (a client's
    /// SHUTDOWN always stops the proxy itself).
    pub shutdown_upstream: bool,
    /// Originate an in-band trace context for 1 in `trace_every` data
    /// requests (0 disables origination). A client's own trace context
    /// always propagates, whatever this is set to.
    pub trace_every: u64,
    /// Print a `TIER trace=…` breakdown when a traced request's
    /// end-to-end time exceeds this many microseconds.
    pub slow_op_us: u64,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            upstream: "127.0.0.1:4650".to_owned(),
            switch: SwitchTierConfig::default(),
            metrics_addr: None,
            shutdown_upstream: false,
            trace_every: 64,
            slow_op_us: 10_000,
        }
    }
}

struct Shared {
    switch: Mutex<SwitchTier>,
    counters: Arc<TierCounters>,
    levels: usize,
    upstream: String,
    shutdown_upstream: bool,
    running: Arc<AtomicBool>,
    local_addr: SocketAddr,
    sampler: SpanSampler,
    slow_ns: u64,
}

impl Shared {
    /// The switch, locked. Never held across an upstream round-trip.
    fn switch(&self) -> MutexGuard<'_, SwitchTier> {
        self.switch.lock().expect("switch poisoned")
    }
}

/// A running tier proxy; stop with [`TierProxy::shutdown`] or wait for a
/// client's SHUTDOWN with [`TierProxy::wait`].
pub struct TierProxy {
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shared: Arc<Shared>,
    metrics_http: Option<MetricsHttp>,
}

impl TierProxy {
    /// Binds the listener, verifies the upstream is reachable, and spawns
    /// the accept loop.
    pub fn spawn(config: &ProxyConfig) -> io::Result<Self> {
        // Fail fast on a bad upstream instead of per connection later.
        drop(TcpStream::connect(&config.upstream)?);
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let counters = Arc::new(TierCounters::default());
        let shared = Arc::new(Shared {
            switch: Mutex::new(SwitchTier::with_counters(
                &config.switch,
                Arc::clone(&counters),
            )),
            counters: Arc::clone(&counters),
            levels: config.switch.levels,
            upstream: config.upstream.clone(),
            shutdown_upstream: config.shutdown_upstream,
            running: Arc::clone(&running),
            local_addr,
            sampler: SpanSampler::new(config.trace_every),
            slow_ns: config.slow_op_us.saturating_mul(1_000),
        });
        let metrics_http = match &config.metrics_addr {
            Some(addr) => {
                let counters = Arc::clone(&counters);
                let levels = config.switch.levels;
                Some(MetricsHttp::serve(addr, move || {
                    let mut e = p4lru_obs::Expo::new();
                    tier_families(&mut e, &counters.snapshot(levels));
                    e.finish()
                })?)
            }
            None => None,
        };
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            thread::Builder::new()
                .name("p4lru-tier-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared, &handlers))?
        };
        Ok(Self {
            local_addr,
            running,
            accept: Some(accept),
            handlers,
            shared,
            metrics_http,
        })
    }

    /// Where the proxy is listening (resolves a port-0 bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Where the Prometheus endpoint is listening, if configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(MetricsHttp::local_addr)
    }

    /// The tier's counters.
    pub fn counters(&self) -> &Arc<TierCounters> {
        &self.shared.counters
    }

    /// [`SwitchTier::check_invariants`] on the live switch (tests,
    /// diagnostics).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.shared.switch().check_invariants()
    }

    /// Blocks until a client sends SHUTDOWN, then tears down.
    pub fn wait(mut self) {
        self.teardown();
    }

    /// Initiates shutdown from this process and tears down.
    pub fn shutdown(mut self) {
        self.running.store(false, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr); // wake the accept loop
        self.teardown();
    }

    fn teardown(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for h in handlers {
            let _ = h.join();
        }
        self.metrics_http = None;
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if !shared.running.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if !shared.running.load(Ordering::SeqCst) {
            return; // the wake-up connection, or a straggler past shutdown
        }
        let shared = Arc::clone(shared);
        if let Ok(handle) = thread::Builder::new()
            .name("p4lru-tier-conn".to_owned())
            .spawn(move || proxy_connection(stream, &shared))
        {
            let mut list = handlers.lock().expect("handler list poisoned");
            list.retain(|h| !h.is_finished());
            list.push(handle);
        }
    }
}

/// Serves one downstream connection in turns. A turn blocks for one frame,
/// then takes every GET/SET/DEL frame the reader already holds (up to
/// [`TURN_CAP`]) and serves them as one [`SwitchTier::begin_turn`] /
/// [`SwitchTier::finish_turn`] around one pipelined upstream exchange. A
/// client with one request in flight gets turns of one; a pipelining client
/// pays the tier's lock and the upstream's syscalls once per burst. Anything
/// else — STATS, PING, SHUTDOWN, a frame that does not decode — ends the
/// turn and is answered by itself, after it, so replies stay in wire order.
fn proxy_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let Ok(mut upstream) = Client::connect(&shared.upstream) else {
        return;
    };
    let mut reader = FrameReader::new(stream);
    let mut writer = FrameWriter::new(write_half);
    let mut frame = Vec::new();
    let mut out = Vec::new();
    let mut requests = Vec::new();
    let mut spans = Vec::new();
    loop {
        match reader.read_frame(&mut frame) {
            Ok(true) => {}
            Ok(false) => return, // clean disconnect
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !shared.running.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // Whether the connection outlives this turn: not past a frame the
        // reader refuses, nor past an upstream failure.
        let mut open = true;
        // The decoded frame that ended the turn, to be answered by itself.
        let mut alone = None;
        requests.clear();
        spans.clear();
        loop {
            match Request::decode(&frame) {
                Ok(request @ (Request::Get { .. } | Request::Set { .. } | Request::Del { .. })) => {
                    spans.push(shared.sampler.span_for(reader.take_span()));
                    requests.push(request);
                }
                other => {
                    alone = Some(other);
                    break;
                }
            }
            if requests.len() == TURN_CAP || !reader.has_buffered_frame() {
                break;
            }
            // A buffered frame never touches the socket: this is the next
            // request, or the error of a header the reader will not accept.
            if !matches!(reader.read_frame(&mut frame), Ok(true)) {
                open = false;
                break;
            }
        }
        if !requests.is_empty() {
            open &= serve_turn(
                &requests,
                &spans,
                shared,
                &mut upstream,
                &mut writer,
                &mut out,
            );
        }
        let stop = matches!(alone, Some(Ok(Request::Shutdown)));
        if let Some(decoded) = alone {
            let response = match decoded {
                Ok(request) => serve_alone(&request, shared, &mut upstream),
                Err(e) => Response::Err(e.to_string()),
            };
            response.encode(&mut out);
            if writer.write_frame(&out).is_err() {
                return;
            }
        }
        if writer.flush().is_err() || !open {
            return;
        }
        if stop {
            shared.running.store(false, Ordering::SeqCst);
            if shared.shutdown_upstream {
                let _ = upstream.shutdown();
            }
            let _ = TcpStream::connect(shared.local_addr); // wake the accept loop
            return;
        }
    }
}

/// One turn of GET/SET/DEL requests: begin them all under one hold of the
/// switch, exchange the forwards with the upstream in one pipelined round
/// trip with the switch released, finish them all under one hold, and write
/// every reply in wire order. `spans` (this hop's trace contexts) ride
/// upstream on forwarded requests only — a switch hit never leaves the
/// tier, which the trace shows as a missing SERVER hop.
///
/// Returns whether the connection may go on. An upstream I/O failure
/// answers every forward it left unanswered `Err`, in wire order — their
/// `finish` still runs — and then ends the connection with its upstream
/// client, so that a late upstream byte can never be paired with another
/// request.
fn serve_turn(
    requests: &[Request],
    spans: &[Option<SpanContext>],
    shared: &Shared,
    upstream: &mut Client,
    writer: &mut FrameWriter<TcpStream>,
    out: &mut Vec<u8>,
) -> bool {
    let started = Instant::now();
    let steps = shared.switch().begin_turn(requests);
    let mut forwards = 0;
    let mut sent = Ok(());
    for ((request, span), step) in requests.iter().zip(spans).zip(&steps) {
        if matches!(step, Step::Forward { .. }) {
            forwards += 1;
            upstream.set_next_span(*span);
            sent = sent.and_then(|()| upstream.send(request));
        }
    }
    let mut failure = sent
        .and_then(|()| upstream.flush())
        .err()
        .map(|e| e.to_string());
    let answers: Vec<Response> = (0..forwards)
        .map(|_| {
            if failure.is_none() {
                match upstream.recv() {
                    Ok(answer) => return answer,
                    Err(e) => failure = Some(e.to_string()),
                }
            }
            let why = failure.as_deref().expect("set on the way here");
            Response::Err(format!("upstream request failed: {why}"))
        })
        .collect();
    // A turn the switch answered whole has nothing to finish: its replies
    // are the steps themselves, and the switch is not taken a second time.
    let replies = if forwards == 0 {
        steps
            .into_iter()
            .map(|step| match step {
                Step::Reply(response) => response,
                Step::Forward { .. } => unreachable!("a turn without forwards"),
            })
            .collect()
    } else {
        shared.switch().finish_turn(requests, steps, answers)
    };
    let total = started.elapsed().as_nanos() as u64;
    if total >= shared.slow_ns {
        for ctx in spans.iter().flatten() {
            let mut hop = HopTrace::new(*ctx, HopKind::Tier);
            hop.segment("serve", total);
            println!("[p4lru_tierd] slow op: {}", hop.breakdown());
        }
    }
    let mut written = Ok(());
    for reply in &replies {
        reply.encode(out);
        written = written.and_then(|()| writer.write_frame(out));
    }
    // Flushed here, not with whatever ended the turn: a STATS behind it
    // takes an upstream round trip of its own.
    written.and_then(|()| writer.flush()).is_ok() && failure.is_none()
}

/// The requests that are not the tier's business, one at a time.
fn serve_alone(request: &Request, shared: &Shared, upstream: &mut Client) -> Response {
    match *request {
        Request::Stats => match upstream.stats() {
            Ok(report) => {
                let report = report.with_tier(shared.counters.snapshot(shared.levels));
                match serde_json::to_string(&report) {
                    Ok(json) => Response::StatsJson(json),
                    Err(e) => Response::Err(format!("stats serialization failed: {e:?}")),
                }
            }
            Err(e) => Response::Err(format!("upstream STATS failed: {e}")),
        },
        Request::Shutdown => Response::Ok,
        // A PING probes the *proxy* — it answers from its own front door,
        // the way serverd answers inline without a shard dispatch.
        Request::Ping => Response::Pong,
        Request::Get { .. } | Request::Set { .. } | Request::Del { .. } => {
            unreachable!("GET/SET/DEL are served in turns")
        }
    }
}
