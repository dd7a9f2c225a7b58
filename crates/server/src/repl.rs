//! WAL-shipping replication: the primary's replication listener and the
//! follower's pull loop (DESIGN.md §14).
//!
//! Replication is **log shipping over a pull protocol**. A follower knows
//! its own durable position (`last_seq` per shard, dense by construction)
//! and asks the primary for everything after it:
//!
//! ```text
//! follower                         primary
//!    | PULL {shard, from_seq, durable_seq} |
//!    |------------------------------------>|  reads shard-NNN/wal-*.log
//!    |       RECORDS {first..last, bytes}  |  (never locks a shard:
//!    |<------------------------------------|   files are the API)
//!    |  ...decode, validate, apply...      |
//! ```
//!
//! The PULL doubles as the follower's **ack** (`durable_seq` is how far it
//! has applied and committed) and as the primary's **liveness signal** for
//! `--replicate ack` gating. When the primary has pruned the history the
//! follower needs (`SnapshotNeeded`), it ships the newest sealed snapshot
//! instead and the follower atomically resets to it (`reset_to_snapshot`).
//!
//! The wire format is deliberately *not* the client frame: snapshots can
//! exceed the client protocol's 1 MiB frame cap, so replication frames get
//! their own magic byte and a 64 MiB ceiling.
//!
//! Failure detection is timeout-based: a follower that cannot complete a
//! round trip to its primary for `failover` straight promotes itself to
//! primary (role flip + counter; the routing layer in `p4lru-cluster`
//! discovers the flip via STATS). Promotion happens at the *replicated
//! watermark* — whatever the follower durably applied — which is exactly
//! the no-lost-acks guarantee `--replicate ack` pays for.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use p4lru_durable::reader::{decode_batch, read_log_from, ReadOutcome};
use p4lru_durable::snapshot::list_snapshots;
use p4lru_obs::AtomicHistogram;

use crate::metrics::{ClusterSnapshot, LatencySummary, ReplCounters};
use crate::server::Ctx;

/// Replication configuration, hung off
/// [`crate::server::ServerConfig::repl`]. Any combination is legal: a
/// primary sets `listen`, a follower sets `follow`, and a follower that
/// may be promoted sets both (the listener serves pulls regardless of
/// role, so a promoted node can immediately feed a new follower).
#[derive(Clone, Debug)]
pub struct ReplConfig {
    /// Replication listen address (port 0 picks a free port). `None`
    /// serves no pulls.
    pub listen: Option<String>,
    /// The primary's replication address to follow. `None` starts the
    /// node as primary.
    pub follow: Option<String>,
    /// `--replicate ack`: hold client write acks until the follower's
    /// durable watermark covers them (writes that time out get an error
    /// and are *not* acked — the one-sided durability contract).
    pub ack: bool,
    /// How long an ack-gated write waits for the follower watermark
    /// before failing.
    pub ack_timeout: Duration,
    /// Follower idle tail-poll cadence (a behind follower re-pulls
    /// immediately).
    pub pull_interval: Duration,
    /// How long the primary may be unreachable before a follower
    /// promotes itself.
    pub failover: Duration,
}

impl Default for ReplConfig {
    fn default() -> Self {
        Self {
            listen: None,
            follow: None,
            ack: false,
            ack_timeout: Duration::from_millis(2_000),
            pull_interval: Duration::from_millis(5),
            failover: Duration::from_millis(750),
        }
    }
}

/// Replication frame magic. Distinct from the client protocol's `0xB1` so
/// a client speaking to the replication port (or vice versa) fails fast.
pub const REPL_MAGIC: u8 = 0xC1;

/// Replication frame size ceiling. Snapshots ride whole in one frame, so
/// this is far above the client protocol's 1 MiB.
pub const REPL_MAX_FRAME: usize = 64 << 20;

/// Most WAL bytes one PULL response ships (keeps a catching-up follower's
/// round trips bounded; the pull loop immediately re-pulls while behind).
pub const PULL_MAX_BYTES: u32 = 1 << 20;

const RQ_PULL: u8 = 0x01;
const RS_RECORDS: u8 = 0x81;
const RS_SNAPSHOT: u8 = 0x82;
const RS_UP_TO_DATE: u8 = 0x83;
const RS_ERR: u8 = 0x84;

/// Writes one replication frame: magic, u32 LE length, payload.
pub fn write_repl_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= REPL_MAX_FRAME, "repl frame too large");
    let mut head = [0u8; 5];
    head[0] = REPL_MAGIC;
    head[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one replication frame into `buf`. Returns `Ok(false)` on a clean
/// EOF at a frame boundary.
pub fn read_repl_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut head = [0u8; 5];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid repl frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(e),
        }
    }
    if head[0] != REPL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad repl frame magic 0x{:02X}", head[0]),
        ));
    }
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
    if len > REPL_MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("repl frame of {len} bytes exceeds the {REPL_MAX_FRAME} cap"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// A follower's request for one shard's log tail. Also the follower's ack:
/// `durable_seq` is the highest sequence it has applied *and committed*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PullRequest {
    /// Which shard's log to read.
    pub shard: u32,
    /// First sequence number wanted (dense; usually `durable_seq + 1`).
    pub from_seq: u64,
    /// The follower's durable watermark for this shard (the ack).
    pub durable_seq: u64,
    /// Response size hint; the primary ships at least one record even when
    /// a single record exceeds it.
    pub max_bytes: u32,
}

impl PullRequest {
    /// Encodes the request as one frame payload.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(RQ_PULL);
        buf.extend_from_slice(&self.shard.to_le_bytes());
        buf.extend_from_slice(&self.from_seq.to_le_bytes());
        buf.extend_from_slice(&self.durable_seq.to_le_bytes());
        buf.extend_from_slice(&self.max_bytes.to_le_bytes());
    }

    /// Decodes a frame payload.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if bytes.len() != 25 || bytes[0] != RQ_PULL {
            return Err(bad("malformed PULL request"));
        }
        Ok(Self {
            shard: u32::from_le_bytes(bytes[1..5].try_into().unwrap()),
            from_seq: u64::from_le_bytes(bytes[5..13].try_into().unwrap()),
            durable_seq: u64::from_le_bytes(bytes[13..21].try_into().unwrap()),
            max_bytes: u32::from_le_bytes(bytes[21..25].try_into().unwrap()),
        })
    }
}

/// The primary's answer to one PULL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PullResponse {
    /// A dense run of encoded WAL records starting at `first_seq` (the
    /// requested `from_seq`). `bytes` is in on-disk record framing; the
    /// follower re-validates every CRC before applying.
    Records {
        /// Sequence of the first shipped record.
        first_seq: u64,
        /// Sequence of the last shipped record.
        last_seq: u64,
        /// The encoded records.
        bytes: Vec<u8>,
    },
    /// The history before `from_seq` was pruned; here is the newest sealed
    /// snapshot instead. The follower resets to it and re-pulls from
    /// `seq + 1`.
    Snapshot {
        /// The snapshot's sequence number.
        seq: u64,
        /// The full `P4LRSNAP` file bytes (self-validating: magic + CRC).
        bytes: Vec<u8>,
    },
    /// The follower already has everything.
    UpToDate,
    /// The primary could not serve the pull (bad shard index, read error).
    Err(String),
}

impl PullResponse {
    /// Encodes the response as one frame payload.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            PullResponse::Records {
                first_seq,
                last_seq,
                bytes,
            } => {
                buf.push(RS_RECORDS);
                buf.extend_from_slice(&first_seq.to_le_bytes());
                buf.extend_from_slice(&last_seq.to_le_bytes());
                buf.extend_from_slice(bytes);
            }
            PullResponse::Snapshot { seq, bytes } => {
                buf.push(RS_SNAPSHOT);
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.extend_from_slice(bytes);
            }
            PullResponse::UpToDate => buf.push(RS_UP_TO_DATE),
            PullResponse::Err(msg) => {
                buf.push(RS_ERR);
                buf.extend_from_slice(msg.as_bytes());
            }
        }
    }

    /// Decodes a frame payload.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        match bytes.first() {
            Some(&RS_RECORDS) => {
                if bytes.len() < 17 {
                    return Err(bad("short RECORDS response"));
                }
                Ok(PullResponse::Records {
                    first_seq: u64::from_le_bytes(bytes[1..9].try_into().unwrap()),
                    last_seq: u64::from_le_bytes(bytes[9..17].try_into().unwrap()),
                    bytes: bytes[17..].to_vec(),
                })
            }
            Some(&RS_SNAPSHOT) => {
                if bytes.len() < 9 {
                    return Err(bad("short SNAPSHOT response"));
                }
                Ok(PullResponse::Snapshot {
                    seq: u64::from_le_bytes(bytes[1..9].try_into().unwrap()),
                    bytes: bytes[9..].to_vec(),
                })
            }
            Some(&RS_UP_TO_DATE) if bytes.len() == 1 => Ok(PullResponse::UpToDate),
            Some(&RS_ERR) => Ok(PullResponse::Err(
                String::from_utf8_lossy(&bytes[1..]).into_owned(),
            )),
            _ => Err(bad("malformed pull response")),
        }
    }
}

/// Node role. Stored as a `u8` atomic so the data path can check it
/// without locks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; serves replication pulls.
    Primary,
    /// Read-only mirror; pulls from the primary, promotes on its death.
    Follower,
}

impl Role {
    /// The label used in STATS (`role="..."`).
    pub fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
        }
    }
}

const ROLE_PRIMARY: u8 = 0;
const ROLE_FOLLOWER: u8 = 1;

/// Per-shard watermark gate. On a primary this is the follower's durable
/// seq (advanced by the replication listener as PULLs arrive; awaited by
/// the shard's commit thread under `--replicate ack`). On a follower it mirrors the
/// local applied seq, purely for observability.
#[derive(Debug, Default)]
struct WatermarkGate {
    seq: Mutex<u64>,
    advanced: Condvar,
}

/// Shared replication state: role, watermarks, counters. One per server,
/// hung off `Ctx` and the `Server` handle.
#[derive(Debug)]
pub struct ReplState {
    role: AtomicU8,
    /// Whether primary-side write acks wait for the follower watermark.
    pub ack_mode: bool,
    ack_timeout: Duration,
    gates: Vec<WatermarkGate>,
    /// The primary this node follows (empty string on a born-primary).
    pub primary_addr: String,
    /// The table-declared counters (the `ClusterSnapshot` rows).
    counters: ReplCounters,
    /// Per-shard replication lag in sequence numbers, as last observed by
    /// the follower's pull loop (always zero on a primary): the shipped
    /// `last_seq` minus the applied cursor at shipment time, held through
    /// applies and drained only by an `UpToDate` confirmation — a follower
    /// that is still receiving records *is* behind, however fast it applies.
    lag_seqs: Vec<AtomicU64>,
    /// Rolling average encoded-record size from the last shipment, the
    /// multiplier behind the `lag_bytes` estimate.
    avg_record_bytes: AtomicU64,
    /// Milliseconds since `started` of the last completed pull round trip;
    /// `u64::MAX` until the first one (renders as age 0, not "huge").
    last_pull_ms: AtomicU64,
    started: Instant,
    pull_rtt: AtomicHistogram,
    batch_apply: AtomicHistogram,
}

impl ReplState {
    /// Builds the state for `shards` shards. A follower's gates start at
    /// its recovered per-shard sequences (`init_seqs`); a primary's start
    /// at zero (nothing acked by a follower yet).
    pub fn new(
        role: Role,
        shards: usize,
        ack_mode: bool,
        ack_timeout: Duration,
        primary_addr: String,
        init_seqs: &[u64],
    ) -> Self {
        let gates = (0..shards)
            .map(|i| WatermarkGate {
                seq: Mutex::new(match role {
                    Role::Follower => init_seqs.get(i).copied().unwrap_or(0),
                    Role::Primary => 0,
                }),
                advanced: Condvar::new(),
            })
            .collect();
        Self {
            role: AtomicU8::new(match role {
                Role::Primary => ROLE_PRIMARY,
                Role::Follower => ROLE_FOLLOWER,
            }),
            ack_mode,
            ack_timeout,
            gates,
            primary_addr,
            counters: ReplCounters::default(),
            lag_seqs: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            avg_record_bytes: AtomicU64::new(0),
            last_pull_ms: AtomicU64::new(u64::MAX),
            started: Instant::now(),
            pull_rtt: AtomicHistogram::new(),
            batch_apply: AtomicHistogram::new(),
        }
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        match self.role.load(Ordering::SeqCst) {
            ROLE_PRIMARY => Role::Primary,
            _ => Role::Follower,
        }
    }

    /// Flips a follower to primary. Idempotent; returns whether this call
    /// did the flip.
    pub fn promote(&self) -> bool {
        let flipped = self
            .role
            .compare_exchange(
                ROLE_FOLLOWER,
                ROLE_PRIMARY,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok();
        if flipped {
            self.counters.promotions.fetch_add(1, Ordering::Relaxed);
        }
        flipped
    }

    /// Advances one shard's watermark (monotonic) and wakes ack waiters.
    pub fn advance_watermark(&self, shard: usize, seq: u64) {
        let Some(gate) = self.gates.get(shard) else {
            return;
        };
        let mut cur = gate.seq.lock().expect("watermark gate poisoned");
        if seq > *cur {
            *cur = seq;
            gate.advanced.notify_all();
        }
    }

    /// Blocks until `shard`'s watermark reaches `target` or the ack
    /// timeout passes; returns whether it was reached. The `--replicate
    /// ack` gate.
    pub fn wait_watermark(&self, shard: usize, target: u64) -> bool {
        let Some(gate) = self.gates.get(shard) else {
            return false;
        };
        let deadline = Instant::now() + self.ack_timeout;
        let mut cur = gate.seq.lock().expect("watermark gate poisoned");
        while *cur < target {
            let now = Instant::now();
            if now >= deadline {
                self.counters.ack_timeouts.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            let (next, _) = gate
                .advanced
                .wait_timeout(cur, deadline - now)
                .expect("watermark gate poisoned");
            cur = next;
        }
        true
    }

    /// One shard's current watermark.
    pub fn watermark(&self, shard: usize) -> u64 {
        self.gates
            .get(shard)
            .map(|g| *g.seq.lock().expect("watermark gate poisoned"))
            .unwrap_or(0)
    }

    fn watermarks(&self) -> Vec<u64> {
        (0..self.gates.len()).map(|i| self.watermark(i)).collect()
    }

    /// Records one shard's observed replication lag in sequence numbers
    /// (follower side; `UpToDate` reports zero).
    pub(crate) fn set_lag(&self, shard: usize, seqs: u64) {
        if let Some(g) = self.lag_seqs.get(shard) {
            g.store(seqs, Ordering::Relaxed);
        }
    }

    /// Notes the size profile of a shipped batch (feeds the `lag_bytes`
    /// estimate) — `records` is nonzero by construction (dense runs).
    pub(crate) fn note_batch(&self, records: u64, bytes: u64) {
        if let Some(avg) = bytes.checked_div(records) {
            self.avg_record_bytes.store(avg, Ordering::Relaxed);
        }
    }

    /// Records one completed pull round trip (RTT sample + freshness
    /// stamp behind `pull_age_ms`).
    pub(crate) fn mark_pull(&self, rtt: Duration) {
        self.pull_rtt.record_ns(rtt.as_nanos() as u64);
        self.last_pull_ms
            .store(self.started.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// Records how long one shipped batch took to apply, commit gate
    /// included (this is durable-apply time).
    pub(crate) fn record_batch_apply(&self, took: Duration) {
        self.batch_apply.record_ns(took.as_nanos() as u64);
    }

    /// Point-in-time copy of the replication counters for STATS and
    /// `/metrics`.
    pub fn snapshot(&self) -> ClusterSnapshot {
        let lag_seqs: Vec<u64> = self
            .lag_seqs
            .iter()
            .map(|g| g.load(Ordering::Relaxed))
            .collect();
        let lag_total: u64 = lag_seqs.iter().sum();
        let lag_bytes = lag_total.saturating_mul(self.avg_record_bytes.load(Ordering::Relaxed));
        let pull_age_ms = match self.last_pull_ms.load(Ordering::Relaxed) {
            u64::MAX => 0,
            at => (self.started.elapsed().as_millis() as u64).saturating_sub(at),
        };
        self.counters.load(ClusterSnapshot {
            lag_seqs,
            lag_bytes,
            pull_age_ms,
            pull_rtt: LatencySummary::from_hist(&self.pull_rtt.snapshot()),
            batch_apply: LatencySummary::from_hist(&self.batch_apply.snapshot()),
            role: self.role().name().to_string(),
            ack_mode: self.ack_mode,
            primary_addr: self.primary_addr.clone(),
            watermarks: self.watermarks(),
            ..ClusterSnapshot::default()
        })
    }

    /// Records a shipment rejected by follower-side validation.
    pub(crate) fn pull_reject(&self) {
        self.counters.pull_rejects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_applied(&self, n: u64) {
        self.counters
            .records_applied
            .fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn snapshot_installed(&self) {
        self.counters
            .snapshots_installed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// What the replication listener needs: the data-dir layout (it serves
/// pulls straight from the shard directories — the WAL files *are* the
/// replication API, so shards are never locked for a pull) and the shared
/// state whose watermarks it advances.
pub(crate) struct ReplServer {
    pub(crate) root: PathBuf,
    pub(crate) shards: usize,
    pub(crate) state: Arc<ReplState>,
    pub(crate) running: Arc<AtomicBool>,
}

/// Serves one PULL from the on-disk log, advancing the follower's
/// watermark (this is the primary's only view of follower progress).
fn serve_pull(ctx: &ReplServer, req: &PullRequest) -> PullResponse {
    let shard = req.shard as usize;
    if shard >= ctx.shards {
        return PullResponse::Err(format!("no shard {shard} (this node has {})", ctx.shards));
    }
    ctx.state.advance_watermark(shard, req.durable_seq);
    let counters = &ctx.state.counters;
    counters.pulls_served.fetch_add(1, Ordering::Relaxed);
    let dir = crate::server::shard_dir(&ctx.root, shard);
    let max = req.max_bytes.min(PULL_MAX_BYTES) as usize;
    match read_log_from(&dir, req.from_seq.max(1), max) {
        Ok(ReadOutcome::Records(batch)) => {
            counters
                .records_shipped
                .fetch_add(batch.count, Ordering::Relaxed);
            counters
                .bytes_shipped
                .fetch_add(batch.bytes.len() as u64, Ordering::Relaxed);
            PullResponse::Records {
                first_seq: batch.first_seq,
                last_seq: batch.last_seq,
                bytes: batch.bytes,
            }
        }
        Ok(ReadOutcome::SnapshotNeeded { .. }) => match newest_snapshot(&dir) {
            Ok((seq, bytes)) => {
                counters.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_shipped
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                PullResponse::Snapshot { seq, bytes }
            }
            Err(e) => PullResponse::Err(format!("snapshot read failed: {e}")),
        },
        Ok(ReadOutcome::UpToDate) => PullResponse::UpToDate,
        Err(e) => PullResponse::Err(format!("log read failed: {e}")),
    }
}

fn newest_snapshot(dir: &std::path::Path) -> io::Result<(u64, Vec<u8>)> {
    let (seq, path) = list_snapshots(dir)?
        .pop()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no sealed snapshot to ship"))?;
    Ok((seq, std::fs::read(path)?))
}

/// Spawns the replication listener: accepts follower connections and
/// serves PULLs from the shard directories. Returns the bound address and
/// the accept thread's handle. One handler thread per follower connection
/// (follower counts are small — this is not the client data path).
pub(crate) fn spawn_repl_listener(
    addr: &str,
    ctx: ReplServer,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("p4lru-repl-accept".to_owned())
        .spawn(move || {
            let ctx = Arc::new(ctx);
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
                    return;
                }
                let conn_ctx = Arc::clone(&ctx);
                // Detached: the handler exits on its own once `running`
                // drops or the peer hangs up (reads are time-bounded).
                let _ = std::thread::Builder::new()
                    .name("p4lru-repl-conn".to_owned())
                    .spawn(move || serve_repl_conn(stream, &conn_ctx));
            }
        })?;
    Ok((local, handle))
}

fn serve_repl_conn(mut stream: TcpStream, ctx: &ReplServer) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(crate::server::POLL_INTERVAL));
    let mut frame = Vec::new();
    let mut out = Vec::new();
    loop {
        if !ctx.running.load(Ordering::SeqCst) {
            return;
        }
        match read_repl_frame(&mut stream, &mut frame) {
            Ok(true) => {}
            Ok(false) => return, // follower hung up cleanly
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
        let response = match PullRequest::decode(&frame) {
            Ok(req) => serve_pull(ctx, &req),
            Err(e) => PullResponse::Err(e.to_string()),
        };
        response.encode(&mut out);
        if write_repl_frame(&mut stream, &out).is_err() {
            return;
        }
    }
}

/// What the follower's pull loop needs to know about its primary.
#[derive(Clone, Debug)]
pub(crate) struct FollowerConfig {
    /// The primary's replication address.
    pub(crate) primary: String,
    /// Idle tail-poll cadence (while behind, the loop re-pulls at once).
    pub(crate) pull_interval: Duration,
    /// How long the primary may be unreachable before self-promotion.
    pub(crate) failover: Duration,
}

/// The follower's pull loop: one thread tailing every shard of the
/// primary over a single connection, applying shipments under the same
/// shard locks as client writes and waiting for the shard's commit thread
/// to cover them (so replicated writes ride the same group commit), and
/// promoting itself once the primary has been unreachable for the failover
/// window.
///
/// `cursors[shard]` is the highest sequence this node has durably applied
/// — initialized from recovery, advanced only once the shard's commit gate
/// is synced through the apply ([`crate::commit::ShardCell::apply_shipment`]).
pub(crate) fn follower_pull_loop(
    cfg: &FollowerConfig,
    ctx: &Ctx,
    state: &Arc<ReplState>,
    mut cursors: Vec<u64>,
) {
    let running = &ctx.running;
    let mut last_contact = Instant::now();
    let mut backoff = Duration::from_millis(10);
    let mut frame = Vec::new();
    let mut out = Vec::new();
    let promote = |state: &ReplState| {
        if state.promote() {
            eprintln!(
                "[p4lru-server] primary {} unreachable for {:?}: promoting to primary \
                 at watermarks {:?}",
                cfg.primary,
                cfg.failover,
                state.watermarks(),
            );
        }
    };
    while running.load(Ordering::SeqCst) && state.role() == Role::Follower {
        let mut stream = match TcpStream::connect(&cfg.primary) {
            Ok(s) => {
                backoff = Duration::from_millis(10);
                s
            }
            Err(_) => {
                if last_contact.elapsed() >= cfg.failover {
                    promote(state);
                    return;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2)
                    .min(Duration::from_millis(100))
                    .min(cfg.failover / 2);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        // Bounded reads: a primary that dies between frames surfaces as a
        // timeout, not a hung follower.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        'conn: loop {
            if !running.load(Ordering::SeqCst) || state.role() != Role::Follower {
                return;
            }
            let mut progressed = false;
            for (shard, cell) in ctx.shards.iter().enumerate() {
                let req = PullRequest {
                    shard: shard as u32,
                    from_seq: cursors[shard] + 1,
                    durable_seq: cursors[shard],
                    max_bytes: PULL_MAX_BYTES,
                };
                req.encode(&mut out);
                let pull_started = Instant::now();
                if write_repl_frame(&mut stream, &out).is_err() {
                    break 'conn;
                }
                match read_repl_frame(&mut stream, &mut frame) {
                    Ok(true) => {}
                    _ => break 'conn,
                }
                state.mark_pull(pull_started.elapsed());
                let response = match PullResponse::decode(&frame) {
                    Ok(r) => r,
                    Err(_) => {
                        state.pull_reject();
                        break 'conn;
                    }
                };
                last_contact = Instant::now();
                let applied = match response {
                    PullResponse::Records {
                        first_seq,
                        last_seq,
                        bytes,
                    } => {
                        if first_seq != cursors[shard] + 1 {
                            // The primary answered some other position than
                            // we asked for; never feed that to the shard.
                            state.pull_reject();
                            break 'conn;
                        }
                        // Re-validate every CRC and the dense seq run
                        // *before* the shard sees any of it: a torn or
                        // corrupt shipment is rejected wholesale with
                        // follower state untouched.
                        let records = match decode_batch(&bytes, first_seq) {
                            Ok(r) => r,
                            Err(_) => {
                                state.pull_reject();
                                break 'conn;
                            }
                        };
                        if records.is_empty() {
                            continue;
                        }
                        // The shipment's head is the freshest view of the
                        // primary's position this node has: everything from
                        // the cursor to `last_seq` is known-outstanding.
                        // `UpToDate` (below) drains the gauge to zero.
                        state.set_lag(shard, last_seq.saturating_sub(cursors[shard]));
                        state.note_batch(records.len() as u64, bytes.len() as u64);
                        let apply_started = Instant::now();
                        let applied = cell.apply_shipment(&records, None);
                        if applied.is_ok() {
                            state.record_batch_apply(apply_started.elapsed());
                            state.record_applied(records.len() as u64);
                        }
                        applied
                    }
                    PullResponse::Snapshot { seq, bytes } => {
                        let applied = cell.apply_shipment(&[], Some((seq, &bytes)));
                        if applied.is_ok() {
                            state.snapshot_installed();
                        }
                        applied
                    }
                    PullResponse::UpToDate => {
                        state.set_lag(shard, 0);
                        continue;
                    }
                    PullResponse::Err(msg) => {
                        eprintln!("[p4lru-server] pull for shard {shard} failed: {msg}");
                        state.pull_reject();
                        continue;
                    }
                };
                match applied {
                    // Deliberately no `set_lag` here: applying a full batch
                    // proves nothing about the primary's head (a full
                    // shipment usually means more is waiting — that is why
                    // the loop re-pulls immediately). The gauge holds the
                    // last known-outstanding distance until the primary
                    // confirms `UpToDate`.
                    Ok(applied) => {
                        cursors[shard] = applied;
                        state.advance_watermark(shard, applied);
                        progressed = true;
                    }
                    Err(msg) => {
                        eprintln!("[p4lru-server] shard {shard} rejected a shipment: {msg}");
                        state.pull_reject();
                        break 'conn;
                    }
                }
            }
            if !progressed {
                // Caught up: tail-poll at the configured cadence, staying
                // responsive to shutdown and role flips.
                let started = Instant::now();
                while started.elapsed() < cfg.pull_interval {
                    if !running.load(Ordering::SeqCst) || state.role() != Role::Follower {
                        return;
                    }
                    std::thread::sleep(cfg.pull_interval.min(Duration::from_millis(20)));
                }
            }
        }
        // The connection broke; if the primary stays unreachable past the
        // failover window the reconnect path above promotes.
        if last_contact.elapsed() >= cfg.failover {
            promote(state);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_request_roundtrips() {
        let req = PullRequest {
            shard: 3,
            from_seq: 1_000_001,
            durable_seq: 1_000_000,
            max_bytes: 65_536,
        };
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert_eq!(PullRequest::decode(&buf).unwrap(), req);
        assert!(PullRequest::decode(&buf[..10]).is_err());
        assert!(PullRequest::decode(&[]).is_err());
    }

    #[test]
    fn pull_responses_roundtrip() {
        let cases = [
            PullResponse::Records {
                first_seq: 5,
                last_seq: 9,
                bytes: vec![1, 2, 3, 4],
            },
            PullResponse::Snapshot {
                seq: 77,
                bytes: vec![9; 128],
            },
            PullResponse::UpToDate,
            PullResponse::Err("nope".to_owned()),
        ];
        let mut buf = Vec::new();
        for case in cases {
            case.encode(&mut buf);
            assert_eq!(PullResponse::decode(&buf).unwrap(), case);
        }
        assert!(PullResponse::decode(&[0x7F]).is_err());
        assert!(PullResponse::decode(&[]).is_err());
    }

    #[test]
    fn repl_frames_roundtrip_and_reject_garbage() {
        let mut wire = Vec::new();
        write_repl_frame(&mut wire, b"hello").unwrap();
        write_repl_frame(&mut wire, &[]).unwrap();
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        assert!(read_repl_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_repl_frame(&mut cursor, &mut buf).unwrap());
        assert!(buf.is_empty());
        assert!(
            !read_repl_frame(&mut cursor, &mut buf).unwrap(),
            "clean EOF"
        );

        // Client-protocol magic on the replication port fails fast.
        let mut bad = &[0xB1u8, 0, 0, 0, 0][..];
        assert!(read_repl_frame(&mut bad, &mut buf).is_err());
        // Oversized length prefix is refused before any allocation burst.
        let mut huge = vec![REPL_MAGIC];
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_repl_frame(&mut &huge[..], &mut buf).is_err());
        // Torn header mid-frame is an error, not a clean EOF.
        let mut torn = &wire[..3];
        assert!(read_repl_frame(&mut torn, &mut buf).is_err());
    }

    #[test]
    fn role_flips_once_and_counts() {
        let state = ReplState::new(
            Role::Follower,
            2,
            false,
            Duration::from_millis(10),
            "127.0.0.1:1".to_owned(),
            &[10, 20],
        );
        assert_eq!(state.role(), Role::Follower);
        assert_eq!(state.watermark(0), 10);
        assert_eq!(state.watermark(1), 20);
        assert!(state.promote());
        assert!(!state.promote(), "second promote is a no-op");
        assert_eq!(state.role(), Role::Primary);
        assert_eq!(state.snapshot().promotions, 1);
    }

    #[test]
    fn lag_telemetry_tracks_and_drains() {
        let state = ReplState::new(
            Role::Follower,
            2,
            false,
            Duration::from_millis(10),
            "127.0.0.1:1".to_owned(),
            &[0, 0],
        );
        // Before any pull: everything reads as zero/fresh.
        let s = state.snapshot();
        assert_eq!(s.lag_seqs, vec![0, 0]);
        assert_eq!(s.lag_bytes, 0);
        assert_eq!(s.pull_age_ms, 0, "no pull yet is age 0, not huge");
        assert_eq!(s.pull_rtt.count, 0);

        state.set_lag(0, 40);
        state.note_batch(10, 1_000); // 100 bytes/record
        state.mark_pull(Duration::from_micros(250));
        state.record_batch_apply(Duration::from_micros(900));
        let s = state.snapshot();
        assert_eq!(s.lag_seqs, vec![40, 0]);
        assert_eq!(s.lag_bytes, 40 * 100, "lag_bytes = lag * avg record size");
        assert_eq!(s.pull_rtt.count, 1);
        assert_eq!(s.batch_apply.count, 1);
        assert!(s.pull_rtt.sum_ns >= 250_000);

        // Catching up drains the gauges to zero.
        state.set_lag(0, 0);
        let s = state.snapshot();
        assert_eq!(s.lag_seqs, vec![0, 0]);
        assert_eq!(s.lag_bytes, 0);
        // Out-of-range shard is a no-op, like the watermark gates.
        state.set_lag(9, 5);
        assert_eq!(state.snapshot().lag_seqs.len(), 2);
    }

    #[test]
    fn watermark_gate_waits_and_times_out() {
        let state = Arc::new(ReplState::new(
            Role::Primary,
            1,
            true,
            Duration::from_millis(40),
            String::new(),
            &[],
        ));
        // Timeout path: nobody advances.
        assert!(!state.wait_watermark(0, 5));
        assert_eq!(state.snapshot().ack_timeouts, 1);
        // Satisfied path: another thread advances to the target.
        let advancer = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                state.advance_watermark(0, 7);
            })
        };
        assert!(state.wait_watermark(0, 7));
        advancer.join().unwrap();
        // Watermarks never regress.
        state.advance_watermark(0, 3);
        assert_eq!(state.watermark(0), 7);
        // Out-of-range shard: waiting fails, advancing is a no-op.
        assert!(!state.wait_watermark(9, 1));
        state.advance_watermark(9, 1);
    }
}
