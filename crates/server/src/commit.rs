//! The commit gate: a request's shard work runs to completion on the reactor
//! loop that read it, and only a reply that reveals WAL records no finished
//! commit covers waits — for that commit (DESIGN.md §8, §9).
//!
//! Every shard sits in a [`ShardCell`] behind one mutex. A loop applies a
//! SET/DEL, or a run of GETs ([`GetRun`]), under that lock and, when
//! nothing it did or read is waiting on the disk, parks the reply in the
//! connection's reorder buffer in the same `drive`: no channel, no thread
//! hand-off, no wake-up. A durable
//! shard's SET/DEL only appends to the in-memory WAL buffer, and its reply
//! is *held* in the cell. So is any reply applied while the shard holds
//! appended records that no finished commit covers — a GET's included — so
//! no client reads a value a crash could take back.
//!
//! Each durable shard has one commit thread, woken by a loop once per turn
//! that held a reply at it (after the whole burst the turn read is
//! applied, so the burst rides one fsync). In one hold of the lock it
//! takes the held replies and cuts the WAL buffer; it writes and fsyncs the
//! cut without the lock (the loops apply batch n+1 while batch n syncs),
//! runs the `--replicate ack` watermark wait, and posts the replies through
//! each connection's mailbox. A snapshot is the exception: it runs under the
//! lock, so loops that reach that shard wait for it.

use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use p4lru_obs::trace::Stage;
use p4lru_obs::{RequestTrace, Tracer};

use crate::metrics::ShardMetrics;
use crate::protocol::Response;
use crate::repl::{ReplState, Role};
use crate::server::{ReplySink, ShardOp, ShardReply};
use crate::shard::Shard;

/// A reply waiting at the gate: where it goes, its sequence number in the
/// connection's request order, the answer, its trace, and whether the op
/// was a mutation (the `--replicate ack` wait gates only those).
type Held = (ReplySink, u64, ShardReply, RequestTrace, bool);

/// A connection's GETs for one shard, gathered while it reads a burst and
/// applied as one [`ShardCell::apply_gets`] run (DESIGN.md §9).
#[derive(Default)]
pub(crate) struct GetRun {
    keys: Vec<u64>,
    seqs: Vec<u64>,
    traces: Vec<RequestTrace>,
}

impl GetRun {
    /// Appends the GET of `key` that has sequence number `seq`.
    pub(crate) fn push(&mut self, key: u64, seq: u64, trace: RequestTrace) {
        self.keys.push(key);
        self.seqs.push(seq);
        self.traces.push(trace);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// One shard as the reactor loops, the follower puller and the shard's
/// commit thread share it.
pub(crate) struct ShardCell {
    state: Mutex<CellState>,
    /// Signalled when the commit thread has work: a held reply, or teardown.
    work: Condvar,
    metrics: Arc<ShardMetrics>,
}

struct CellState {
    shard: Shard,
    held: Vec<Held>,
    /// A cut with records in it is being written, synced or (under
    /// `--replicate ack`) awaited without the lock.
    committing: bool,
    /// The commit thread is parked on `work`.
    idle: bool,
    /// Teardown asked the commit thread to flush and exit.
    closing: bool,
}

impl ShardCell {
    pub(crate) fn new(shard: Shard) -> ShardCell {
        ShardCell {
            metrics: shard.metrics(),
            state: Mutex::new(CellState {
                shard,
                held: Vec::new(),
                committing: false,
                idle: false,
                closing: false,
            }),
            work: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CellState> {
        self.state
            .lock()
            .expect("shard lock poisoned by a panicked op")
    }

    /// Whether the shard writes a WAL (and so needs a commit thread).
    pub(crate) fn is_durable(&self) -> bool {
        self.lock().shard.is_durable()
    }

    /// Applies a mutation or replication `op` on the calling thread under
    /// the shard's lock (GETs take [`ShardCell::apply_gets`]), stamping
    /// `queue` (lock acquired), `wal_append` and `apply`. Returns the reply
    /// when it may leave now; `None` when it is held at the gate, to arrive
    /// through `sink` as `(seq, reply, trace)` once the commit covering the
    /// shard's appends so far has finished — after the caller, done
    /// applying whatever else it has for this shard, calls
    /// [`ShardCell::wake`].
    pub(crate) fn apply(
        &self,
        op: ShardOp,
        seq: u64,
        mut trace: RequestTrace,
        sink: &ReplySink,
        tracer: &Tracer,
    ) -> Option<(ShardReply, RequestTrace)> {
        let mut st = self.lock();
        tracer.stamp(&mut trace, Stage::Queue);
        let reply = apply_op(&mut st.shard, op);
        if let Some(at) = st.shard.last_wal_append_at() {
            tracer.stamp_at(&mut trace, Stage::WalAppend, at);
        }
        tracer.stamp(&mut trace, Stage::Apply);
        if !st.committing && !st.shard.has_buffered() {
            return Some((reply, trace));
        }
        self.metrics.queue_push();
        st.held.push((sink.clone(), seq, reply, trace, true));
        None
    }

    /// Applies a connection's run of GETs for this shard under one hold
    /// of the lock ([`Shard::get_run`]), stamping `queue` (lock acquired)
    /// and `apply` per request. The gate rule is [`ShardCell::apply`]'s:
    /// while a commit is running or the shard holds appended records no
    /// commit covers, every reply of the run is held; otherwise each goes
    /// to `ready` as `(seq, reply, trace)`, in run order. Returns whether
    /// the run was held, in which case the caller wakes the commit thread
    /// ([`ShardCell::wake`]) once its turn is applied. Leaves `run` empty.
    pub(crate) fn apply_gets(
        &self,
        run: &mut GetRun,
        sink: &ReplySink,
        tracer: &Tracer,
        mut ready: impl FnMut(u64, ShardReply, RequestTrace),
    ) -> bool {
        let mut guard = self.lock();
        let st = &mut *guard;
        for trace in &mut run.traces {
            tracer.stamp(trace, Stage::Queue);
        }
        // A GET appends nothing, so the rule cannot change mid-run.
        let hold = st.committing || st.shard.has_buffered();
        let mut requests = run.seqs.drain(..).zip(run.traces.drain(..));
        st.shard.get_run(&run.keys, |record| {
            let (seq, mut trace) = requests.next().expect("one reply per key");
            tracer.stamp(&mut trace, Stage::Apply);
            let reply = match record {
                Some(record) => ShardReply::Record(record),
                None => ShardReply::NotFound,
            };
            if hold {
                self.metrics.queue_push();
                st.held.push((sink.clone(), seq, reply, trace, false));
            } else {
                ready(seq, reply, trace);
            }
        });
        run.keys.clear();
        hold
    }

    /// Asks the commit thread to commit what is held. A loop calls this
    /// once per turn, after applying the whole burst it read, so the burst
    /// rides one cut — waking on the first held reply would let the commit
    /// thread cut (and fsync) while the rest of the burst is still being
    /// applied.
    pub(crate) fn wake(&self) {
        let mut st = self.lock();
        if st.idle {
            st.idle = false;
            self.work.notify_one();
        }
    }

    /// Asks the commit thread to release what is held, flush, and exit.
    pub(crate) fn close(&self) {
        self.lock().closing = true;
        self.work.notify_one();
    }

    /// A durable shard's commit thread, until [`ShardCell::close`]: takes the
    /// held replies, commits everything appended so far, releases them.
    pub(crate) fn commit_loop(&self, shard_idx: usize, tracer: &Tracer, repl: Option<&ReplState>) {
        let mut batch: Vec<Held> = Vec::new();
        loop {
            let mut st = self.lock();
            st.committing = false;
            while st.held.is_empty() && !st.closing {
                st.idle = true;
                st = self
                    .work
                    .wait(st)
                    .expect("shard lock poisoned by a panicked op");
            }
            st.idle = false;
            if st.held.is_empty() {
                // Clean shutdown: push any policy-deferred appends to disk.
                let _ = st.shard.flush();
                return;
            }
            std::mem::swap(&mut batch, &mut st.held);
            st.committing = st.shard.has_buffered();
            let committed = if st.shard.snapshot_due() {
                // Snapshots stop the shard (ROADMAP 3(b) owns making them
                // incremental): sync and seal under the lock.
                let done = st.shard.commit().map(|()| st.shard.last_seq());
                drop(st);
                done
            } else {
                let commit = st
                    .shard
                    .begin_commit()
                    .expect("only a durable shard holds replies");
                drop(st);
                let last_seq = commit.last_seq();
                commit.run().map(|synced| {
                    if let Some(took) = synced {
                        self.metrics.wal_fsync(took);
                    }
                    last_seq
                })
            };
            self.release(&mut batch, committed, shard_idx, tracer, repl);
        }
    }

    /// The gate opens: one commit covered every held reply of `batch`
    /// (through `committed`'s sequence number), so they leave — as errors
    /// if it failed, and behind the follower's watermark under
    /// `--replicate ack`.
    fn release(
        &self,
        batch: &mut Vec<Held>,
        committed: io::Result<u64>,
        shard_idx: usize,
        tracer: &Tracer,
        repl: Option<&ReplState>,
    ) {
        self.metrics.batch_committed(batch.len());
        match committed {
            Err(e) => {
                // The cut may not have reached disk: none of these requests
                // may be acknowledged as succeeding.
                let msg = format!("wal commit failed: {e}");
                for (_, _, reply, _, _) in batch.iter_mut() {
                    *reply = ShardReply::Other(Response::Err(msg.clone()));
                }
            }
            Ok(last_seq) => {
                // `--replicate ack`: a primary holds the batch's mutation
                // acks until the follower's durable watermark covers it. On
                // timeout the mutations get an error instead of an ack —
                // they are locally durable but their replication is
                // unconfirmed, and an un-acked write may exist after
                // failover (the same one-sided contract a kill -9 leaves
                // for in-flight ops).
                if let Some(state) = repl {
                    let gated = state.ack_mode
                        && state.role() == Role::Primary
                        && batch.iter().any(|(_, _, _, _, m)| *m);
                    if gated && !state.wait_watermark(shard_idx, last_seq) {
                        let msg = "replication ack timeout: write is durable locally \
                                   but unconfirmed on the follower"
                            .to_owned();
                        for (_, _, reply, _, mutation) in batch.iter_mut() {
                            if *mutation {
                                *reply = ShardReply::Other(Response::Err(msg.clone()));
                            }
                        }
                    }
                }
            }
        }
        // Whether or not the sync policy issued a physical fsync, this is
        // when the batch's replies were released (the latency the client
        // pays for the gate). One batch, one instant, every trace.
        let gate = Instant::now();
        for (sink, seq, reply, mut trace, _) in batch.drain(..) {
            self.metrics.queue_pop();
            tracer.stamp_at(&mut trace, Stage::Fsync, gate);
            // A vanished connection (client hung up mid-request) is not an error.
            sink.send((seq, reply, trace));
        }
    }
}

fn apply_op(shard: &mut Shard, op: ShardOp) -> ShardReply {
    match op {
        ShardOp::Set(key, record) => match shard.set(key, record) {
            Ok(()) => ShardReply::Ok,
            Err(e) => ShardReply::Other(Response::Err(format!("wal append failed: {e}"))),
        },
        ShardOp::Del(key) => match shard.del(key) {
            Ok(true) => ShardReply::Ok,
            Ok(false) => ShardReply::NotFound,
            Err(e) => ShardReply::Other(Response::Err(format!("wal append failed: {e}"))),
        },
        ShardOp::ReplApply(records) => {
            // Stale records (already applied — re-delivery after a dropped
            // ack) are skipped; a genuine gap rejects the rest of the run.
            // Either way the reply carries the shard's actual position so
            // the puller's cursor resynchronizes.
            for rec in &records {
                if let Err(e) = shard.apply_replicated(rec) {
                    return ShardReply::Other(Response::Err(format!(
                        "replicated apply stopped at seq {}: {e}",
                        rec.seq
                    )));
                }
            }
            ShardReply::Seq(shard.last_seq())
        }
        ShardOp::ReplSnapshot { seq, bytes } => match shard.install_shipped_snapshot(seq, &bytes) {
            Ok(()) => ShardReply::Seq(shard.last_seq()),
            Err(e) => ShardReply::Other(Response::Err(format!("snapshot install failed: {e}"))),
        },
    }
}
