//! The shell around each shard's commit gate (DESIGN.md §8, §9). The rule
//! — a reply waits while its shard holds WAL records no finished commit
//! covers — and its state live in [`crate::gate`]; this module gives them
//! a lock, two condvars and a commit thread. A reactor loop applies
//! requests under the shard's lock and admits their replies at the gate;
//! the commit thread cuts under the lock, writes and fsyncs without it
//! (the loops apply batch n+1 while batch n syncs), and releases under it.
//! A snapshot is the exception: it runs under the lock, so loops that
//! reach that shard wait for it.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use p4lru_durable::WalRecord;
use p4lru_obs::trace::Stage;
use p4lru_obs::{RequestTrace, Tracer};
use p4lru_reactor::Mailbox;

use crate::gate::CommitGate;
use crate::metrics::ShardMetrics;
use crate::protocol::Response;
use crate::repl::{ReplState, Role};
use crate::server::{Reply, ShardOp, ShardReply};
use crate::shard::Shard;

/// A reply held at the gate: where it goes, what it says, and whether the
/// op was a mutation (the `--replicate ack` wait gates only those).
struct Held {
    mailbox: Mailbox<Reply>,
    reply: Reply,
    mutation: bool,
}

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
    /// Signalled when the commit thread has work, or at teardown.
    work: Condvar,
    /// Signalled when a cut synced while the puller waits for one.
    synced: Condvar,
    metrics: Arc<ShardMetrics>,
}

struct CellState {
    shard: Shard,
    gate: CommitGate<Held>,
    /// The commit thread is parked on `work`.
    idle: bool,
    /// Teardown asked the commit thread to flush and exit.
    closing: bool,
    /// The puller is parked on `synced`.
    watched: bool,
}

impl ShardCell {
    pub(crate) fn new(shard: Shard) -> ShardCell {
        ShardCell {
            metrics: shard.metrics(),
            state: Mutex::new(CellState {
                gate: CommitGate::new(shard.last_seq()),
                shard,
                idle: false,
                closing: false,
                watched: false,
            }),
            work: Condvar::new(),
            synced: Condvar::new(),
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

    /// Applies a SET/DEL under the shard's lock (GETs take
    /// [`ShardCell::apply_gets`]), stamping `queue` (lock acquired),
    /// `wal_append` and `apply`, and admits the reply ([`ShardCell::admit`]).
    pub(crate) fn apply(
        &self,
        op: ShardOp,
        seq: u64,
        mut trace: RequestTrace,
        mailbox: &Mailbox<Reply>,
        tracer: &Tracer,
    ) -> Option<Reply> {
        let mut guard = self.lock();
        let st = &mut *guard;
        tracer.stamp(&mut trace, Stage::Queue);
        let reply = apply_op(&mut st.shard, op);
        if let Some(at) = st.shard.last_wal_append_at() {
            tracer.stamp_at(&mut trace, Stage::WalAppend, at);
        }
        tracer.stamp(&mut trace, Stage::Apply);
        let buffered = st.shard.has_buffered();
        self.admit(&mut st.gate, buffered, mailbox, (seq, reply, trace), true)
    }

    /// Admits an applied reply at the gate: it comes back if it may leave
    /// now, else it arrives through `mailbox` once a commit covers it —
    /// after the caller, done with this shard for its turn, calls
    /// [`ShardCell::wake`].
    fn admit(
        &self,
        gate: &mut CommitGate<Held>,
        buffered: bool,
        mailbox: &Mailbox<Reply>,
        reply: Reply,
        mutation: bool,
    ) -> Option<Reply> {
        let hold = |reply| Held {
            mailbox: mailbox.clone(),
            reply,
            mutation,
        };
        let passed = gate.admit(buffered, reply, hold);
        if passed.is_none() {
            self.metrics.queue_push();
        }
        passed
    }

    /// Applies a connection's run of GETs for this shard under one hold
    /// of the lock ([`Shard::get_run`]), stamping `queue` (lock acquired)
    /// and `apply` per request, and admits each reply at the gate
    /// ([`ShardCell::admit`]). A reply that passes goes to `ready`, in run
    /// order. Returns whether any was held. Leaves `run` empty.
    pub(crate) fn apply_gets(
        &self,
        run: &mut GetRun,
        mailbox: &Mailbox<Reply>,
        tracer: &Tracer,
        mut ready: impl FnMut(Reply),
    ) -> bool {
        let mut guard = self.lock();
        let st = &mut *guard;
        for trace in &mut run.traces {
            tracer.stamp(trace, Stage::Queue);
        }
        // A GET appends nothing, so the gate's answer cannot change mid-run.
        let buffered = st.shard.has_buffered();
        let mut held = false;
        let mut requests = run.seqs.drain(..).zip(run.traces.drain(..));
        st.shard.get_run(&run.keys, |record| {
            let (seq, mut trace) = requests.next().expect("one reply per key");
            tracer.stamp(&mut trace, Stage::Apply);
            let reply = match record {
                Some(record) => ShardReply::Record(record),
                None => ShardReply::NotFound,
            };
            match self.admit(&mut st.gate, buffered, mailbox, (seq, reply, trace), false) {
                Some(reply) => ready(reply),
                None => held = true,
            }
        });
        run.keys.clear();
        held
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

    /// Applies a follower's shipment under the shard's lock — the snapshot
    /// `(seq, bytes)` ([`Shard::install_shipped_snapshot`]) or `records`
    /// ([`Shard::apply_replicated`], skipping any already applied) — wakes
    /// the commit thread, and waits until the gate is synced through it.
    /// Returns the sequence number the puller may ack to the primary as
    /// durable. An `Err` is the shard refusing the shipment or a commit
    /// failing; the puller's cursor stays put.
    pub(crate) fn apply_shipment(
        &self,
        records: &[WalRecord],
        snapshot: Option<(u64, &[u8])>,
    ) -> Result<u64, String> {
        let mut st = self.lock();
        if let Some((seq, bytes)) = snapshot {
            st.shard
                .install_shipped_snapshot(seq, bytes)
                .map_err(|e| format!("snapshot install failed: {e}"))?;
            // Written and synced by the install itself.
            st.gate.installed(seq);
        }
        let refused = records
            .iter()
            .find_map(|rec| st.shard.apply_replicated(rec).err().map(|e| (rec.seq, e)));
        let watch = st.gate.watch(st.shard.last_seq());
        drop(st);
        self.wake();
        if let Some((seq, e)) = refused {
            return Err(format!("replicated apply stopped at seq {seq}: {e}"));
        }
        let mut st = self.lock();
        loop {
            if let Some(outcome) = st.gate.poll(&watch, st.shard.has_buffered()) {
                return outcome;
            }
            st.watched = true;
            st = self
                .synced
                .wait(st)
                .expect("shard lock poisoned by a panicked op");
        }
    }

    /// A durable shard's commit thread, until [`ShardCell::close`]: cuts
    /// everything appended so far with the replies held behind it, commits
    /// the cut, and releases them.
    pub(crate) fn commit_loop(&self, shard_idx: usize, tracer: &Tracer, repl: Option<&ReplState>) {
        let mut batch: Vec<Held> = Vec::new();
        loop {
            let mut st = self.lock();
            while !st.gate.has_work(st.shard.has_buffered()) && !st.closing {
                st.idle = true;
                st = self
                    .work
                    .wait(st)
                    .expect("shard lock poisoned by a panicked op");
            }
            st.idle = false;
            let records = st.shard.has_buffered();
            if !st.gate.has_work(records) {
                // Clean shutdown: push any policy-deferred appends to disk.
                let _ = st.shard.flush();
                return;
            }
            // `--replicate ack`: a primary holds a batch's mutation acks
            // until the follower's durable watermark covers it.
            let cut = st.gate.cut(records);
            let gated = repl.filter(|state| {
                state.ack_mode
                    && state.role() == Role::Primary
                    && cut.iter().any(|held| held.mutation)
            });
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
                    .expect("only a durable shard has a commit thread");
                drop(st);
                let last_seq = commit.last_seq();
                commit.run().map(|synced| {
                    if let Some(took) = synced {
                        self.metrics.wal_fsync(took);
                    }
                    last_seq
                })
            };
            // On timeout the mutations get an error instead of an ack —
            // they are locally durable but their replication is
            // unconfirmed, and an un-acked write may exist after failover
            // (the same one-sided contract a kill -9 leaves for in-flight
            // ops).
            let replicated = match (gated, &committed) {
                (Some(state), Ok(last_seq)) => state.wait_watermark(shard_idx, *last_seq),
                _ => true,
            };
            let mut st = self.lock();
            st.gate
                .synced(committed.map_err(|e| format!("wal commit failed: {e}")));
            let outcome = st.gate.release(&mut batch);
            if std::mem::take(&mut st.watched) {
                self.synced.notify_all();
            }
            drop(st);
            // A cut that releases nothing (a follower's own applies) is no batch.
            if !batch.is_empty() {
                self.metrics.batch_committed(batch.len());
            }
            // Whether or not the sync policy issued a physical fsync, this
            // is when the batch's replies were released (the latency the
            // client pays for the gate). One batch, one instant, every trace.
            let released = Instant::now();
            for Held {
                mailbox,
                reply: (seq, mut reply, mut trace),
                mutation,
            } in batch.drain(..)
            {
                if let Err(msg) = &outcome {
                    // The cut may not have reached disk: none of these
                    // requests may be acknowledged as succeeding.
                    reply = ShardReply::Other(Response::Err(msg.clone()));
                } else if mutation && !replicated {
                    reply = ShardReply::Other(Response::Err(
                        "replication ack timeout: write is durable locally \
                         but unconfirmed on the follower"
                            .to_owned(),
                    ));
                }
                self.metrics.queue_pop();
                tracer.stamp_at(&mut trace, Stage::Fsync, released);
                // A vanished connection (client hung up mid-request) is not an error.
                mailbox.post((seq, reply, trace));
            }
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
    }
}
