//! The TCP server: shards run to completion on the reactor loops behind an
//! accept loop.
//!
//! Connections are nonblocking drivers on a fixed pool of reactor event
//! loops ([`crate::reactor_front`], DESIGN.md §12), each running a pipelined
//! pump (DESIGN.md §9): buffered framed I/O, up to
//! [`ServerConfig::pipeline_window`] requests in flight per connection, and
//! a reorder buffer that puts responses on the wire in request order. The
//! loop that reads a GET/SET/DEL applies it itself (a burst's GETs as one
//! run per shard), under the key's shard lock — one [`Shard`] (cache +
//! store slice) per lock, the software
//! rendering of "the stage that owns the registers does the packet's work
//! in its own pass", which is what lets the P4LRU arrays stay lock-free
//! inside (see the thread-safety notes on [`p4lru_core::array::LruArray`]).
//! Only a reply that must wait for an fsync leaves the loop: it is held at
//! the shard's commit gate ([`crate::commit`]) and comes back through the
//! connection's mailbox once the commit thread has synced it. STATS reads
//! the shards' atomic counters directly, so it never waits on a shard.
//!
//! Observability (DESIGN.md §10) rides the same paths: every request
//! carries a [`p4lru_obs::RequestTrace`] that the loop and the commit thread
//! stamp at each lifecycle stage (decode → route → queue → wal-append →
//! apply → fsync/commit-gate → reorder → flush); completed traces feed the
//! per-shard per-op latency histograms, the tracer's stage histograms, and
//! — past [`p4lru_obs::ObsConfig::slow_op_us`] — the slow-op ring and log.
//! `--metrics-addr` serves it all as Prometheus text, and an optional
//! background sampler appends [`StatsReport`] deltas as JSONL.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use p4lru_core::hashing::hash_u64;
use p4lru_durable::DurabilityConfig;
use p4lru_kvstore::db::record_for;
use p4lru_kvstore::slab::Record;
use p4lru_kvstore::DatabaseBuilder;
use p4lru_obs::trace::Stage;
use p4lru_obs::{MetricsHttp, ObsConfig, OpKind, Periodic, RequestTrace, SpanContext, Tracer};
use p4lru_reactor::{LoopStats, Mailbox, Reactor};

use crate::commit::{GetRun, ShardCell};
use crate::expose::{build_report, render_prometheus, StatsSampler};
use crate::metrics::{ConnCounters, ReactorLoopSnapshot, ShardMetrics, StatsReport};
use crate::protocol::{encode_value, write_frame, FrameWriter, Request, Response};
use crate::reactor_front::ReactorConn;
use crate::repl::{
    follower_pull_loop, spawn_repl_listener, FollowerConfig, ReplConfig, ReplServer, ReplState,
    Role,
};
use crate::shard::{record_from_bytes, Shard};

/// Seed of the key → shard routing hash. Distinct from the per-shard cache
/// seeds so routing and unit indexing stay uncorrelated.
const ROUTE_SEED: u64 = 0x5EED_0F54_A2D5;

/// How long a blocking socket wait may last before its thread re-checks the
/// shutdown flag (and how long a rejected peer gets to take its ERR frame).
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// The `frontend="..."` label in STATS and `/metrics`. The reactor is the
/// only connection front-end; dashboards and the benchmark key on the label.
const FRONTEND: &str = "reactor";

/// The shard a key is routed to: fixed-point multiply-shift range reduction
/// of the routing hash. `(h as u128 * shards as u128) >> 64` maps the full
/// 64-bit hash range onto `0..shards` with bias at most one part in
/// 2⁶⁴/shards — like the modulo it replaces, but without the ~20-cycle
/// divide on every request (the hash's high bits carry full avalanche, so
/// the product's top word is uniform).
pub fn shard_of(key: u64, shards: usize) -> usize {
    ((hash_u64(ROUTE_SEED, key) as u128 * shards as u128) >> 64) as usize
}

/// Server sizing and listen address.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (tests do this).
    pub addr: String,
    /// Number of shards (each behind its own lock).
    pub shards: usize,
    /// Records to pre-populate, keyed `0..items` (the YCSB key space).
    pub items: u64,
    /// Three-entry cache units per shard; front-cache capacity is
    /// `shards * units_per_shard * 3` entries.
    pub units_per_shard: usize,
    /// Seed for the per-shard cache hashes.
    pub seed: u64,
    /// Durability root. `None` runs in-memory only. When the directory
    /// already holds a completed data set (its `meta` file exists), the
    /// server recovers from it and ignores `items`; otherwise it populates
    /// fresh and seals initial snapshots before serving.
    pub data_dir: Option<PathBuf>,
    /// WAL sync policy and snapshot cadence (only used with `data_dir`).
    pub durability: DurabilityConfig,
    /// Most requests one connection may have in flight (parsed but not yet
    /// answered on the wire). A closed-loop client never exceeds 1; a
    /// pipelined client is capped here so a firehose peer cannot queue
    /// unbounded work.
    pub pipeline_window: usize,
    /// Span tracing: whether requests are stamped at all, ring sizes, and
    /// the slow-op threshold.
    pub obs: ObsConfig,
    /// Print each slow op's per-stage breakdown to stderr (`serverd
    /// --slow-op-us` turns this on; tests read the slow ring instead).
    pub log_slow: bool,
    /// Address for the Prometheus `/metrics` HTTP endpoint; `None` serves
    /// no HTTP (STATS over the binary protocol still works).
    pub metrics_addr: Option<String>,
    /// Cadence of the background stats sampler; `None` runs no sampler.
    pub sample_interval: Option<Duration>,
    /// Where the sampler appends its JSONL lines. Defaults to
    /// `<data_dir>/samples.jsonl`; required explicitly when sampling a
    /// volatile server (no data dir to default into).
    pub sample_path: Option<PathBuf>,
    /// Reactor event-loop threads multiplexing every client connection
    /// (epoll, edge-triggered); connection count is bounded by fds and
    /// per-connection buffers, not threads.
    pub io_threads: usize,
    /// Most connections allowed in service at once. Past the limit, new
    /// connections receive a protocol-level ERR frame and are closed
    /// (counted in STATS as `conns.rejected_total`).
    pub max_conns: usize,
    /// Cluster replication: a listener that ships this node's WALs, a
    /// primary to follow, and the ack/failover policy. `None` runs a
    /// standalone node. Requires `data_dir` (replication ships the WAL).
    pub repl: Option<ReplConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            shards: 4,
            items: 100_000,
            units_per_shard: 4096,
            seed: 0x9412_C0DE,
            data_dir: None,
            durability: DurabilityConfig::default(),
            pipeline_window: 64,
            obs: ObsConfig::default(),
            log_slow: false,
            metrics_addr: None,
            sample_interval: None,
            sample_path: None,
            io_threads: 2,
            max_conns: 8192,
            repl: None,
        }
    }
}

/// What `spawn` decided about the data directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartMode {
    /// In-memory only (no `data_dir`).
    Volatile,
    /// Fresh population; initial snapshots sealed.
    Fresh,
    /// Recovered snapshots + WAL tails from an existing data dir.
    Recovered,
}

/// A request [`ShardCell::apply`] runs on its own; GETs travel in runs
/// instead ([`GetRun`]).
pub(crate) enum ShardOp {
    Set(u64, Record),
    Del(u64),
    /// A dense, pre-validated run of replicated WAL records from the
    /// follower's pull loop. Replies with [`ShardReply::Seq`] — the
    /// shard's post-apply sequence — once the commit gate released it.
    ReplApply(Vec<p4lru_durable::WalRecord>),
    /// A full snapshot shipped by the primary (catch-up past pruned
    /// history); replaces the shard's durable and in-memory state.
    ReplSnapshot {
        /// The snapshot's sequence number.
        seq: u64,
        /// The raw `P4LRSNAP` file bytes.
        bytes: Vec<u8>,
    },
}

/// A shard's answer, in the form the connection pump reorders and encodes.
/// GET hits carry the fixed-size record inline — no per-request `Vec` — and
/// are serialized straight into the connection's write buffer.
pub(crate) enum ShardReply {
    Record(Record),
    NotFound,
    Ok,
    /// The shard's last applied WAL sequence, after a replication op.
    /// Never rides a client connection (repl ops come from the pull
    /// loop's own sink), so it has no meaningful wire encoding.
    Seq(u64),
    /// A pre-encoded response payload (STATS JSON, protocol errors); also
    /// what WAL failures come back as.
    Other(Response),
}

impl ShardReply {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ShardReply::Record(record) => encode_value(record, buf),
            ShardReply::NotFound => Response::NotFound.encode(buf),
            ShardReply::Ok | ShardReply::Seq(_) => Response::Ok.encode(buf),
            ShardReply::Other(response) => response.encode(buf),
        }
    }
}

/// What a commit thread posts back for a reply it held at the gate: the
/// request's sequence number, the shard's answer, and the request's
/// lifecycle trace (stamped through queue/wal-append/apply by the loop that
/// applied it and fsync by the commit thread; the pump adds reorder/flush).
pub(crate) type Reply = (u64, ShardReply, RequestTrace);

/// Where a commit thread posts a held reply. Two variants because there
/// are two real callers: every client connection is a reactor driver and
/// takes a [`Mailbox`] whose post also wakes the owning event loop, while
/// the follower pull loop ([`crate::repl`]) is a plain thread that blocks
/// on an mpsc channel for its replication ops. The gate is indifferent:
/// both ends are just `send`.
#[derive(Clone)]
pub(crate) enum ReplySink {
    /// The follower pull loop's mpsc channel.
    Chan(Sender<Reply>),
    /// A client connection's reactor mailbox.
    Mail(Mailbox<Reply>),
}

impl ReplySink {
    /// Delivers one reply. A vanished connection (client hung up with
    /// requests in flight) is not an error on either path.
    pub(crate) fn send(&self, reply: Reply) {
        match self {
            ReplySink::Chan(tx) => {
                let _ = tx.send(reply);
            }
            ReplySink::Mail(mailbox) => mailbox.post(reply),
        }
    }
}

/// What the accept loop hands every connection driver, and what STATS and
/// `/metrics` render from.
pub(crate) struct Ctx {
    /// The shards, in routing order; every reactor loop applies ops to them.
    pub(crate) shards: Vec<ShardCell>,
    pub(crate) metrics: Vec<Arc<ShardMetrics>>,
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) log_slow: bool,
    pub(crate) running: Arc<AtomicBool>,
    pub(crate) local_addr: SocketAddr,
    pub(crate) pipeline_window: u64,
    /// Connection gauge/counters shared by the accept loop, STATS, and
    /// `/metrics`.
    pub(crate) conns: ConnCounters,
    /// The event loops every connection runs on (and the per-io-thread
    /// STATS section).
    reactor: Reactor<Reply>,
    /// Replication state, when the node is part of a cluster: the data
    /// path checks the role (followers are read-only) and STATS carries
    /// the cluster section.
    pub(crate) repl: Option<Arc<ReplState>>,
}

impl Ctx {
    /// The full STATS report: shard counters + tracer summaries +
    /// connection section + per-io-thread reactor loop stats.
    pub(crate) fn report(&self) -> StatsReport {
        let mut report = build_report(&self.metrics, &self.tracer)
            .with_conns(self.conns.snapshot(FRONTEND))
            .with_reactor(reactor_snapshots(&self.reactor));
        if let Some(repl) = &self.repl {
            report = report.with_cluster(repl.snapshot());
        }
        report
    }

    /// The same counters as Prometheus text.
    fn prometheus(&self) -> String {
        render_prometheus(
            &self.metrics,
            &self.tracer,
            Some(&self.conns.snapshot(FRONTEND)),
            &reactor_snapshots(&self.reactor),
            self.repl.as_deref().map(ReplState::snapshot).as_ref(),
        )
    }
}

/// Maps the reactor's live per-loop counters into the STATS/`/metrics`
/// snapshot shape.
fn reactor_snapshots(reactor: &Reactor<Reply>) -> Vec<ReactorLoopSnapshot> {
    reactor
        .stats()
        .into_iter()
        .map(|s: LoopStats| ReactorLoopSnapshot {
            io_thread: s.io_thread as u64,
            turns: s.turns,
            events: s.events,
            wakeups: s.wakeups,
            messages: s.messages,
            connections: s.connections,
        })
        .collect()
}

/// A running server; dropping it without [`Server::shutdown`] detaches the
/// threads (the process exit reaps them).
pub struct Server {
    ctx: Arc<Ctx>,
    accept: Option<JoinHandle<()>>,
    /// One commit thread per durable shard.
    commit_threads: Vec<JoinHandle<()>>,
    metrics_http: Option<MetricsHttp>,
    sampler: Option<Periodic>,
    start_mode: StartMode,
    repl_addr: Option<SocketAddr>,
    repl_accept: Option<JoinHandle<()>>,
    puller: Option<JoinHandle<()>>,
}

/// Name of the marker file a completed data-dir initialization writes last.
/// Its absence means any shard directories present are from an interrupted
/// first run and must be rebuilt, not recovered.
const META_FILE: &str = "meta";

pub(crate) fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
}

fn cache_seed(config: &ServerConfig, shard: usize) -> u64 {
    config.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn write_meta(root: &Path, shards: usize) -> io::Result<()> {
    let tmp = root.join("meta.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(format!("p4lru-server v1\nshards={shards}\n").as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, root.join(META_FILE))?;
    fsync_dir(root)
}

/// Shard count recorded in the meta file, or `None` when initialization
/// never completed.
fn read_meta(root: &Path) -> io::Result<Option<usize>> {
    let text = match std::fs::read_to_string(root.join(META_FILE)) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let bad = || {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unrecognized meta file in data dir: {text:?}"),
        )
    };
    let mut lines = text.lines();
    if lines.next() != Some("p4lru-server v1") {
        return Err(bad());
    }
    let shards = lines
        .next()
        .and_then(|l| l.strip_prefix("shards="))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(bad)?;
    Ok(Some(shards))
}

#[cfg(unix)]
fn fsync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn fsync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// Removes shard directories left behind by an initialization that never
/// reached its meta file.
fn wipe_partial_init(root: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_string_lossy().starts_with("shard-") && entry.file_type()?.is_dir() {
            std::fs::remove_dir_all(entry.path())?;
        }
    }
    Ok(())
}

/// Builds every shard according to the config: in-memory, fresh-durable, or
/// recovered from an existing data dir.
fn build_shards(config: &ServerConfig) -> io::Result<(Vec<Shard>, StartMode)> {
    // Each shard's keys arrive in ascending order, so every shard's store
    // is one streaming bulk build: full leaves, no per-key descent.
    let fresh = |config: &ServerConfig| -> Vec<Shard> {
        let share = (config.items as usize).div_ceil(config.shards);
        let mut builders: Vec<DatabaseBuilder> = (0..config.shards)
            .map(|_| DatabaseBuilder::with_capacity(share))
            .collect();
        for key in 0..config.items {
            builders[shard_of(key, config.shards)].push(key, record_for(key));
        }
        builders
            .into_iter()
            .enumerate()
            .map(|(i, builder)| {
                Shard::with_db(
                    config.units_per_shard,
                    cache_seed(config, i),
                    builder.finish(),
                )
            })
            .collect()
    };
    let Some(root) = &config.data_dir else {
        return Ok((fresh(config), StartMode::Volatile));
    };
    std::fs::create_dir_all(root)?;
    if let Some(meta_shards) = read_meta(root)? {
        if meta_shards != config.shards {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "data dir was written with {meta_shards} shards but the \
                     server was started with {} — keys would route to the \
                     wrong shard",
                    config.shards
                ),
            ));
        }
        let shards = (0..config.shards)
            .map(|i| {
                Shard::recover(
                    config.units_per_shard,
                    cache_seed(config, i),
                    &shard_dir(root, i),
                    &config.durability,
                )
            })
            .collect::<io::Result<Vec<Shard>>>()?;
        return Ok((shards, StartMode::Recovered));
    }
    // First run (or an interrupted one): rebuild from scratch, and only
    // declare the data dir usable once every shard's initial snapshot is on
    // disk — the meta file is written last.
    wipe_partial_init(root)?;
    let mut shards = fresh(config);
    for (i, shard) in shards.iter_mut().enumerate() {
        let dir = shard_dir(root, i);
        std::fs::create_dir_all(&dir)?;
        shard.enable_durability_fresh(&dir, &config.durability)?;
    }
    write_meta(root, config.shards)?;
    Ok((shards, StartMode::Fresh))
}

impl Server {
    /// Builds the shards, populates them with `items` records (key `k` gets
    /// the deterministic [`record_for`]`(k)`) or recovers them from
    /// `data_dir`, binds the listener, and spawns the reactor loops, the
    /// accept thread and one commit thread per durable shard.
    pub fn spawn(config: &ServerConfig) -> io::Result<Server> {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.pipeline_window >= 1, "window admits one request");
        if config.repl.is_some() && config.data_dir.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication ships the WAL, so it requires a data dir",
            ));
        }
        let (shards, start_mode) = build_shards(config)?;
        let metrics: Vec<Arc<ShardMetrics>> = shards.iter().map(Shard::metrics).collect();
        let tracer = Arc::new(Tracer::new(&config.obs));

        // A follower's cursors and watermarks start at whatever each shard
        // durably recovered.
        let init_seqs: Vec<u64> = shards.iter().map(Shard::last_seq).collect();
        let repl_state = config.repl.as_ref().map(|rc| {
            let role = if rc.follow.is_some() {
                Role::Follower
            } else {
                Role::Primary
            };
            Arc::new(ReplState::new(
                role,
                config.shards,
                rc.ack,
                rc.ack_timeout,
                rc.follow.clone().unwrap_or_default(),
                &init_seqs,
            ))
        });

        let listener = TcpListener::bind(&config.addr)?;
        let ctx = Arc::new(Ctx {
            shards: shards.into_iter().map(ShardCell::new).collect(),
            metrics,
            tracer,
            log_slow: config.log_slow,
            running: Arc::new(AtomicBool::new(true)),
            local_addr: listener.local_addr()?,
            pipeline_window: config.pipeline_window as u64,
            conns: ConnCounters::default(),
            reactor: Reactor::spawn(config.io_threads, "p4lru-reactor")?,
            repl: repl_state,
        });
        let mut commit_threads = Vec::new();
        for i in 0..ctx.shards.len() {
            if !ctx.shards[i].is_durable() {
                continue;
            }
            let ctx = Arc::clone(&ctx);
            commit_threads.push(
                thread::Builder::new()
                    .name(format!("p4lru-commit-{i}"))
                    .spawn(move || {
                        ctx.shards[i].commit_loop(i, &ctx.tracer, ctx.repl.as_deref())
                    })?,
            );
        }
        let accept = {
            let ctx = Arc::clone(&ctx);
            let max_conns = config.max_conns;
            thread::Builder::new()
                .name("p4lru-accept".to_owned())
                .spawn(move || accept_loop(&listener, &ctx, max_conns))?
        };

        // Replication threads: the listener serves WAL pulls straight from
        // the shard directories (regardless of role, so a promoted node
        // can feed a new follower); the puller tails the primary.
        let mut repl_addr = None;
        let mut repl_accept = None;
        let mut puller = None;
        if let (Some(rc), Some(state)) = (&config.repl, &ctx.repl) {
            if let Some(listen) = &rc.listen {
                let (addr, handle) = spawn_repl_listener(
                    listen,
                    ReplServer {
                        root: config.data_dir.clone().expect("repl requires a data dir"),
                        shards: config.shards,
                        state: Arc::clone(state),
                        running: Arc::clone(&ctx.running),
                    },
                )?;
                repl_addr = Some(addr);
                repl_accept = Some(handle);
            }
            if rc.follow.is_some() {
                let cfg = FollowerConfig {
                    primary: state.primary_addr.clone(),
                    pull_interval: rc.pull_interval,
                    failover: rc.failover,
                };
                let ctx = Arc::clone(&ctx);
                let state = Arc::clone(state);
                puller = Some(
                    thread::Builder::new()
                        .name("p4lru-repl-pull".to_owned())
                        .spawn(move || follower_pull_loop(&cfg, &ctx, &state, init_seqs))?,
                );
            }
        }

        let metrics_http = match &config.metrics_addr {
            Some(addr) => {
                let ctx = Arc::clone(&ctx);
                Some(MetricsHttp::serve(addr, move || ctx.prometheus())?)
            }
            None => None,
        };

        let sampler = match config.sample_interval {
            Some(interval) => {
                let path = config
                    .sample_path
                    .clone()
                    .or_else(|| config.data_dir.as_ref().map(|d| d.join("samples.jsonl")))
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            "sampling needs a sample_path (or a data_dir to default into)",
                        )
                    })?;
                let mut sampler = StatsSampler::create(&path)?;
                let ctx = Arc::clone(&ctx);
                Some(Periodic::spawn(interval, move |tick| {
                    // A full disk (or yanked dir) must not take the data
                    // path down; the sampler just drops that tick.
                    let _ = sampler.tick(tick, &ctx.metrics, &ctx.tracer);
                }))
            }
            None => None,
        };

        Ok(Server {
            ctx,
            accept: Some(accept),
            commit_threads,
            metrics_http,
            sampler,
            start_mode,
            repl_addr,
            repl_accept,
            puller,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.local_addr
    }

    /// How the data directory was brought up (volatile/fresh/recovered).
    pub fn start_mode(&self) -> StartMode {
        self.start_mode
    }

    /// Where the replication listener is bound, when one was configured
    /// (resolves a port-0 `repl.listen` to the actual port).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_addr
    }

    /// The node's current replication role (`None` on a standalone node).
    pub fn role(&self) -> Option<Role> {
        self.ctx.repl.as_ref().map(|r| r.role())
    }

    /// A stats report straight from the shards' atomic counters, with the
    /// tracer's per-stage summaries attached when tracing is on.
    pub fn stats(&self) -> StatsReport {
        self.ctx.report()
    }

    /// The span tracer (drain slow-op traces, read stage histograms).
    pub fn tracer(&self) -> &Tracer {
        &self.ctx.tracer
    }

    /// Where the Prometheus endpoint is listening, if one was configured
    /// (resolves a port-0 `metrics_addr` to the actual port).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(MetricsHttp::local_addr)
    }

    /// Blocks until a client sends SHUTDOWN, then tears down and returns the
    /// final stats (the `p4lru_serverd` main loop).
    pub fn wait(mut self) -> StatsReport {
        self.teardown();
        self.stats()
    }

    /// Initiates shutdown from this process, tears down, and returns the
    /// final stats.
    pub fn shutdown(mut self) -> StatsReport {
        self.ctx.running.store(false, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.ctx.local_addr);
        self.teardown();
        self.stats()
    }

    fn teardown(&mut self) {
        // Joining the accept thread is what blocks until SHUTDOWN, so the
        // ancillary threads must outlive it — tearing them down first would
        // leave `wait()` serving without a sampler or metrics endpoint for
        // the whole run.
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Stopping the event loops drops the last connections: no new op
        // reaches a shard from a client after this.
        self.ctx.reactor.shutdown();
        // The puller applies ops too, and waits at the commit gates, so it
        // must exit before the commit threads do. It notices `running`
        // within its bounded read timeout; the repl accept thread blocks in
        // `accept` and needs a wake-up connection.
        if let Some(puller) = self.puller.take() {
            let _ = puller.join();
        }
        if let Some(accept) = self.repl_accept.take() {
            if let Some(addr) = self.repl_addr {
                let _ = TcpStream::connect(addr);
            }
            let _ = accept.join();
        }
        // Each commit thread releases whatever is still held, flushes its
        // WAL, and exits.
        for cell in &self.ctx.shards {
            cell.close();
        }
        for h in self.commit_threads.drain(..) {
            let _ = h.join();
        }
        // Everything is drained; the sampler's final JSONL line and any
        // last-instant scrape see the complete counters.
        self.sampler = None;
        self.metrics_http = None;
    }
}

/// Tells a connection past the `max_conns` limit why it is being dropped:
/// one protocol-level ERR frame, best-effort under a short write timeout (a
/// peer that won't take even that is simply closed).
fn reject_connection(stream: TcpStream, max_conns: usize) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
    let mut out = Vec::new();
    Response::Err(format!("server at connection limit ({max_conns})")).encode(&mut out);
    let _ = write_frame(&mut stream, &out);
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>, max_conns: usize) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if !ctx.running.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if !ctx.running.load(Ordering::SeqCst) {
            return; // the wake-up connection, or a straggler past shutdown
        }
        if ctx.conns.current.load(Ordering::Relaxed) >= max_conns as u64 {
            ctx.conns.rejected();
            reject_connection(stream, max_conns);
            continue;
        }
        ctx.conns.opened();
        let conn_ctx = Arc::clone(ctx);
        // `register` only errs before the driver exists (reactor
        // stopping / fd registration failed) — the stream just drops.
        if ctx
            .reactor
            .register(stream, move |stream, mailbox| {
                ReactorConn::new(stream, mailbox, conn_ctx)
                    .map(|c| Box::new(c) as Box<dyn p4lru_reactor::Driver<Msg = Reply>>)
            })
            .is_err()
        {
            ctx.conns.closed();
        }
    }
}

/// Per-connection pump state: sequence counters, the reorder buffer, and
/// the one reply sink the commit gates post held replies to — everything
/// about a connection except its socket, which [`ReactorConn`] wraps around
/// it.
pub(crate) struct Conn {
    /// Sequence number the next parsed request gets.
    next_seq: u64,
    /// Sequence number of the next response to put on the wire.
    next_write: u64,
    /// Replies waiting for their turn on the wire: everything answered on
    /// the loop, parked behind any reply still held at a commit gate.
    parked: BTreeMap<u64, (ShardReply, RequestTrace)>,
    /// The connection's reply sink; a held reply carries a clone instead
    /// of a fresh channel per request.
    sink: ReplySink,
    /// The GETs read since the last non-GET frame, one run per shard,
    /// applied by [`apply_runs`].
    runs: Vec<GetRun>,
    /// Shards this turn held a reply at, whose commit threads the driver
    /// wakes once the turn's reads are applied ([`crate::commit::ShardCell::wake`]).
    pub(crate) to_wake: Vec<usize>,
    /// Set once a SHUTDOWN request is parsed: its sequence number. No
    /// further requests are read; the pump drains, writes the final OK,
    /// then stops the server.
    pub(crate) shutdown_at: Option<u64>,
    /// Reused response-encode scratch buffer.
    out: Vec<u8>,
    /// Traces whose responses are in the write buffer but not yet flushed
    /// to the socket; [`complete_flushed`] stamps `flush` and completes
    /// them.
    unflushed: Vec<RequestTrace>,
}

impl Conn {
    pub(crate) fn new(sink: ReplySink, shards: usize) -> Conn {
        Conn {
            next_seq: 0,
            next_write: 0,
            parked: BTreeMap::new(),
            sink,
            runs: (0..shards).map(|_| GetRun::default()).collect(),
            to_wake: Vec::new(),
            shutdown_at: None,
            out: Vec::new(),
            unflushed: Vec::new(),
        }
    }

    pub(crate) fn outstanding(&self) -> u64 {
        self.next_seq - self.next_write
    }

    /// Accepts one reply (applied on the loop, released by a commit gate,
    /// or answered without a shard) into the reorder buffer.
    pub(crate) fn park(&mut self, seq: u64, reply: ShardReply, trace: RequestTrace) {
        self.parked.insert(seq, (reply, trace));
    }

    /// Writes every response that is next in request order into the write
    /// buffer, stamping each trace's `reorder` stage as it leaves the
    /// buffer. The in-order case (`seq == next_write` just parked) costs
    /// one BTreeMap round-trip at most; responses behind a reply held at a
    /// commit gate stay parked — for them `reorder` measures that wait.
    pub(crate) fn write_ready<W: Write>(
        &mut self,
        writer: &mut FrameWriter<W>,
        ctx: &Ctx,
    ) -> io::Result<()> {
        while let Some((reply, mut trace)) = self.parked.remove(&self.next_write) {
            reply.encode(&mut self.out);
            writer.write_frame(&self.out)?;
            self.next_write += 1;
            if trace.is_enabled() {
                ctx.tracer.stamp(&mut trace, Stage::Reorder);
                self.unflushed.push(trace);
            }
        }
        Ok(())
    }

    /// Whether the SHUTDOWN acknowledgement has been written (the pump's
    /// cue to flush, stop the server, and close).
    pub(crate) fn shutdown_acked(&self) -> bool {
        self.shutdown_at.is_some_and(|seq| self.next_write > seq)
    }
}

/// Completes every trace whose response has reached the socket: stamp
/// `flush`, finish into the tracer (stage histograms + rings), record the
/// end-to-end latency in the owning shard's per-op histogram, and log the
/// breakdown if it crossed the slow-op threshold. Callers invoke this only
/// after the write buffer actually drained (a nonblocking flush that
/// returned "empty") — a buffer may flush across several readiness events
/// before the traces in it complete.
pub(crate) fn complete_flushed(conn: &mut Conn, ctx: &Ctx) {
    for mut trace in conn.unflushed.drain(..) {
        ctx.tracer.stamp(&mut trace, Stage::Flush);
        if let Some(done) = ctx.tracer.finish(trace) {
            ctx.metrics[done.trace.shard as usize].record_op_latency(done.trace.op, done.total_ns);
            if done.slow && ctx.log_slow {
                eprintln!(
                    "[p4lru-server] slow op (>{}us): {}",
                    ctx.tracer.slow_threshold_us(),
                    done.trace.breakdown()
                );
            }
        }
    }
}

/// Parses and serves one request frame under the connection's next
/// sequence number. A GET joins the connection's pending run for its
/// shard; any other frame first applies every pending run
/// ([`apply_runs`]), so within a burst a key is still read and written in
/// request order. SET and DEL are then applied to their shard right here,
/// on the calling loop; STATS, SHUTDOWN, and PING (and malformed frames)
/// need no shard. Every answer parks in the reorder buffer, behind any
/// reply still held at a commit gate, so the wire stays in request order.
/// `span` is the in-band trace context the frame carried, if any — it
/// attaches to the request's (sampled) trace so the server's eight stages
/// land in the same trace the upstream hop originated.
pub(crate) fn serve(frame: &[u8], span: Option<SpanContext>, ctx: &Ctx, conn: &mut Conn) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let request = Request::decode(frame);
    if let Ok(Request::Get { key }) = request {
        let shard = shard_of(key, ctx.shards.len());
        let trace = start_trace(ctx, OpKind::Get, shard, span);
        conn.runs[shard].push(key, seq, trace);
        return;
    }
    apply_runs(ctx, conn);
    let request = match request {
        Ok(request) => request,
        Err(e) => {
            conn.park(
                seq,
                ShardReply::Other(Response::Err(e.to_string())),
                RequestTrace::disabled(),
            );
            return;
        }
    };
    // A follower's store is a replica of the primary's WAL: client writes
    // would fork the history, so they bounce with a redirect hint. Reads
    // stay open (the replica lags, but serves).
    if matches!(request, Request::Set { .. } | Request::Del { .. }) {
        if let Some(repl) = ctx.repl.as_deref() {
            if repl.role() == Role::Follower {
                conn.park(
                    seq,
                    ShardReply::Other(Response::Err(format!(
                        "READONLY follower; primary is {}",
                        repl.primary_addr
                    ))),
                    RequestTrace::disabled(),
                );
                return;
            }
        }
    }
    // Control-plane requests (STATS, SHUTDOWN, PING) are not traced: they
    // skip the shard pipeline, so their stage stamps would be noise — and
    // PING must stay the cheapest possible round trip.
    let (key, kind, op) = match request {
        Request::Get { .. } => unreachable!("GETs join a run above"),
        Request::Set { key, value } => (
            key,
            OpKind::Set,
            ShardOp::Set(key, record_from_bytes(&value)),
        ),
        Request::Del { key } => (key, OpKind::Del, ShardOp::Del(key)),
        Request::Stats => {
            let report = ctx.report();
            let response = match serde_json::to_string(&report) {
                Ok(json) => Response::StatsJson(json),
                Err(e) => Response::Err(format!("stats serialization failed: {e:?}")),
            };
            conn.park(seq, ShardReply::Other(response), RequestTrace::disabled());
            return;
        }
        Request::Shutdown => {
            // Acknowledged in order; the pump stops the server once the OK
            // (and every response before it) is on the wire.
            conn.shutdown_at = Some(seq);
            conn.park(seq, ShardReply::Ok, RequestTrace::disabled());
            return;
        }
        Request::Ping => {
            conn.park(
                seq,
                ShardReply::Other(Response::Pong),
                RequestTrace::disabled(),
            );
            return;
        }
    };
    let shard = shard_of(key, ctx.shards.len());
    let trace = start_trace(ctx, kind, shard, span);
    match ctx.shards[shard].apply(op, seq, trace, &conn.sink, &ctx.tracer) {
        Some((reply, trace)) => conn.park(seq, reply, trace),
        None => wake_later(&mut conn.to_wake, shard),
    }
}

/// Starts a keyed request's trace. `decode` is the trace's time origin;
/// `route` closes out the decode+route work before the shard's lock is
/// taken.
fn start_trace(ctx: &Ctx, kind: OpKind, shard: usize, span: Option<SpanContext>) -> RequestTrace {
    let mut trace = ctx.tracer.start(kind, shard as u32);
    if let Some(span) = span {
        ctx.tracer.attach_span(&mut trace, span);
    }
    ctx.tracer.stamp(&mut trace, Stage::Decode);
    ctx.tracer.stamp(&mut trace, Stage::Route);
    trace
}

/// Applies every pending GET run of the connection, one
/// [`ShardCell::apply_gets`] per shard, parking the replies that may leave
/// now. [`serve`] calls this before any frame that is not a GET, and the
/// pump once it has parsed every frame one socket read delivered (and when
/// the window fills), in the same `drive` that read the run.
pub(crate) fn apply_runs(ctx: &Ctx, conn: &mut Conn) {
    let Conn {
        runs,
        parked,
        sink,
        to_wake,
        ..
    } = conn;
    for (shard, run) in runs.iter_mut().enumerate() {
        if run.is_empty() {
            continue;
        }
        let held = ctx.shards[shard].apply_gets(run, sink, &ctx.tracer, |seq, reply, trace| {
            parked.insert(seq, (reply, trace));
        });
        if held {
            wake_later(to_wake, shard);
        }
    }
}

/// Notes that a reply was held at `shard`'s commit gate this turn.
fn wake_later(to_wake: &mut Vec<usize>, shard: usize) {
    if !to_wake.contains(&shard) {
        to_wake.push(shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{read_frame, write_frame};

    fn tiny_config() -> ServerConfig {
        ServerConfig {
            items: 1_000,
            units_per_shard: 64,
            shards: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn end_to_end_get_set_del_stats() {
        let server = Server::spawn(&tiny_config()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // GET a populated key twice: miss then hit.
        let v1 = client.get(17).unwrap().expect("populated key");
        assert_eq!(v1, record_for(17).to_vec());
        assert_eq!(client.get(17).unwrap().unwrap(), v1);

        // SET and read back.
        client.set(2_000, b"fresh").unwrap();
        let v = client.get(2_000).unwrap().expect("just set");
        assert_eq!(&v[..5], b"fresh");

        // DEL and confirm gone.
        assert!(client.del(2_000).unwrap());
        assert!(!client.del(2_000).unwrap());
        assert_eq!(client.get(2_000).unwrap(), None);

        let stats = client.stats().unwrap();
        assert_eq!(stats.shards.len(), 2);
        assert_eq!(
            stats.totals.hits, 2,
            "repeat GET + read-back of a SET-installed key"
        );
        assert_eq!(stats.totals.misses, 1, "only the first GET walks the index");
        assert_eq!(stats.totals.absent, 1);
        assert_eq!(stats.totals.gets, 4);
        assert_eq!(stats.totals.sets, 1);
        assert_eq!(stats.totals.dels, 2);

        let final_stats = server.shutdown();
        assert_eq!(final_stats.totals.gets, 4);
    }

    #[test]
    fn shutdown_opcode_stops_the_server() {
        let server = Server::spawn(&tiny_config()).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        client.shutdown().unwrap();
        drop(client);
        let stats = server.wait(); // returns only if the opcode worked
        assert_eq!(stats.totals.gets, 0);
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may still accept briefly; a request must fail either way.
                let mut c = Client::connect(addr).unwrap();
                c.get(1).is_err()
            }
        );
    }

    #[test]
    fn malformed_frames_get_an_error_response() {
        let server = Server::spawn(&tiny_config()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut stream, &[0xFF, 1, 2, 3]).unwrap();
        let mut buf = Vec::new();
        assert!(read_frame(&mut stream, &mut buf).unwrap());
        assert!(matches!(Response::decode(&buf).unwrap(), Response::Err(_)));
        server.shutdown();
    }

    #[test]
    fn durable_server_recovers_after_clean_restart() {
        let root =
            std::env::temp_dir().join(format!("p4lru-server-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = ServerConfig {
            data_dir: Some(root.clone()),
            ..tiny_config()
        };

        let server = Server::spawn(&config).unwrap();
        assert_eq!(server.start_mode(), StartMode::Fresh);
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.set(5_000, b"durable").unwrap();
        assert!(client.del(17).unwrap());
        drop(client);
        server.shutdown();

        // Same data dir: recovers instead of repopulating; `items` ignored.
        let server = Server::spawn(&ServerConfig {
            items: 0,
            ..config.clone()
        })
        .unwrap();
        assert_eq!(server.start_mode(), StartMode::Recovered);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let v = client.get(5_000).unwrap().expect("survived the restart");
        assert_eq!(&v[..7], b"durable");
        assert_eq!(client.get(17).unwrap(), None, "delete survived too");
        assert_eq!(client.get(18).unwrap().unwrap(), record_for(18).to_vec());
        let stats = client.stats().unwrap();
        assert_eq!(stats.totals.store_len, 1_000, "1000 seeded +1 set -1 del");
        assert!(stats.totals.recovery_replayed >= 2);
        drop(client);
        server.shutdown();

        // Mismatched shard count must be refused, not mis-routed.
        let err = match Server::spawn(&ServerConfig {
            shards: 3,
            ..config.clone()
        }) {
            Ok(_) => panic!("a mismatched shard count must be refused"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_meta_file_forces_a_rebuild() {
        let root = std::env::temp_dir().join(format!("p4lru-server-nometa-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = ServerConfig {
            data_dir: Some(root.clone()),
            ..tiny_config()
        };
        Server::spawn(&config).unwrap().shutdown();
        // Simulate a crash between shard init and the meta write.
        std::fs::remove_file(root.join(META_FILE)).unwrap();
        let server = Server::spawn(&config).unwrap();
        assert_eq!(
            server.start_mode(),
            StartMode::Fresh,
            "without meta the shard dirs are untrusted and rebuilt"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn routing_covers_every_shard_and_is_stable() {
        let shards = 4;
        let mut seen = vec![0u64; shards];
        for key in 0..10_000 {
            let s = shard_of(key, shards);
            assert_eq!(s, shard_of(key, shards));
            seen[s] += 1;
        }
        for (i, &n) in seen.iter().enumerate() {
            assert!(n > 2_200, "shard {i} got only {n} of 10000 keys");
        }
    }

    #[test]
    fn routing_stays_in_range_for_awkward_shard_counts() {
        // Multiply-shift range reduction: the result is always < shards and
        // every shard still gets a fair cut even when the count is not a
        // power of two (where `hash % shards` would also work, but slower).
        for shards in [1usize, 3, 5, 7, 13] {
            let mut seen = vec![0u64; shards];
            for key in 0..10_000 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                seen[s] += 1;
            }
            let floor = 5_000 / shards as u64;
            for (i, &n) in seen.iter().enumerate() {
                assert!(n > floor, "{shards} shards: shard {i} got only {n}");
            }
        }
    }
}
