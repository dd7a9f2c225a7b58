//! `p4lru_tierd`: a TCP proxy daemon that speaks the serverd protocol and
//! runs the switch tier in front of a live serverd.
//!
//! Clients connect to the proxy exactly as they would to serverd — same
//! frames, same opcodes — so every existing client and load generator works
//! unchanged. Per connection the proxy keeps its own upstream connection;
//! the switch tier (index + value store) is shared across connections under
//! one mutex, the way all ports of one switch share the same register file.
//!
//! This module owns sockets, threads and the lock, and none of the tier's
//! policy: a request is [`SwitchTier::begin`] under the lock, the upstream
//! round-trip with the lock released, and [`SwitchTier::finish`] under the
//! lock again. What keeps the tiers coherent while other connections run
//! in the gap is written in [`crate::switch`], once.

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

/// Serves one downstream connection, closed-loop: read a frame, answer it,
/// repeat. (The pipelined fan-out lives in serverd; the proxy's job is the
/// tier logic, and its hit path never blocks on the upstream anyway.)
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
        let request = match Request::decode(&frame) {
            Ok(request) => request,
            Err(e) => {
                if respond(&mut writer, &mut out, &Response::Err(e.to_string())).is_err() {
                    return;
                }
                continue;
            }
        };
        let stop = matches!(request, Request::Shutdown);
        let span = match request {
            Request::Get { .. } | Request::Set { .. } | Request::Del { .. } => {
                shared.sampler.span_for(reader.take_span())
            }
            _ => None,
        };
        let started = Instant::now();
        let response = serve(&request, span, shared, &mut upstream);
        if let Some(ctx) = span {
            let total = started.elapsed().as_nanos() as u64;
            if total >= shared.slow_ns {
                let mut hop = HopTrace::new(ctx, HopKind::Tier);
                hop.segment("serve", total);
                println!("[p4lru_tierd] slow op: {}", hop.breakdown());
            }
        }
        if respond(&mut writer, &mut out, &response).is_err() {
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

fn respond(
    writer: &mut FrameWriter<TcpStream>,
    out: &mut Vec<u8>,
    response: &Response,
) -> io::Result<()> {
    response.encode(out);
    writer.write_frame(out)?;
    writer.flush()
}

/// The tier logic for one request. Upstream failures surface as protocol
/// `Err` responses rather than dropped connections. `span` (this hop's
/// trace context) rides upstream on forwarded requests only — a switch hit
/// never leaves the tier, which the trace shows as a missing SERVER hop.
fn serve(
    request: &Request,
    span: Option<SpanContext>,
    shared: &Shared,
    upstream: &mut Client,
) -> Response {
    match *request {
        Request::Get { .. } | Request::Set { .. } | Request::Del { .. } => {
            let begun = shared.switch().begin(request);
            let epoch = match begun {
                Step::Reply(response) => return response,
                Step::Forward { epoch } => epoch,
            };
            upstream.set_next_span(span);
            let response = upstream
                .send(request)
                .and_then(|()| upstream.recv())
                .unwrap_or_else(|e| Response::Err(format!("upstream request failed: {e}")));
            shared.switch().finish(request, epoch, &response);
            response
        }
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
    }
}
