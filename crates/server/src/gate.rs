//! The commit gate as one sans-IO state machine (DESIGN.md §8).
//!
//! The rule, stated once: **a reply may leave the moment it is applied
//! only if its shard holds no WAL record that no finished commit covers —
//! none buffered, and no cut with records in flight.** Otherwise it is held
//! until the commit covering everything appended before it has finished,
//! so no client is acked a write, or shown a value, that a crash could take
//! back. [`CommitGate`] owns that rule and its state and does no I/O; the
//! server's `ShardCell` (`commit.rs`) and the crash explorer
//! (`tests/commit_explorer.rs`) drive the same transitions: admit, cut,
//! synced, release and crash.

/// One shard's commit gate. `T` is whatever a held reply carries; the gate
/// keeps it in admission order and hands it back.
#[derive(Debug)]
pub struct CommitGate<T> {
    /// Replies held since the last cut.
    held: Vec<T>,
    /// The in-flight cut's replies.
    cut: Vec<T>,
    /// A cut with records in it is being written, synced or (under
    /// `--replicate ack`) awaited.
    committing: bool,
    /// The in-flight cut's outcome, once it synced.
    outcome: Option<Result<u64, String>>,
    /// Every WAL record up to here is covered by a finished commit (or an
    /// installed snapshot).
    synced_through: u64,
    /// How many commits failed, and the last one's message.
    failures: u64,
    last_failure: String,
}

/// A waiter's claim on a sequence number, from [`CommitGate::watch`].
#[derive(Clone, Copy, Debug)]
pub struct Watch {
    seq: u64,
    failures: u64,
}

impl<T> CommitGate<T> {
    /// A gate for a shard whose WAL is durable through `synced_through`.
    pub fn new(synced_through: u64) -> Self {
        Self {
            held: Vec::new(),
            cut: Vec::new(),
            committing: false,
            outcome: None,
            synced_through,
            failures: 0,
            last_failure: String::new(),
        }
    }

    /// **Admit** a reply applied while the shard had `buffered` records no
    /// cut has taken: it passes (comes back) unless records are buffered or
    /// a cut is in flight; else `hold` turns it into what the gate keeps
    /// until [`CommitGate::release`], and `None` comes back.
    pub fn admit<R>(&mut self, buffered: bool, reply: R, hold: impl FnOnce(R) -> T) -> Option<R> {
        if self.committing || buffered {
            self.held.push(hold(reply));
            return None;
        }
        Some(reply)
    }

    /// Whether a commit is due: a reply is held, or records are `buffered`
    /// (a follower's replicated applies hold no reply and still need one).
    pub fn has_work(&self, buffered: bool) -> bool {
        !self.held.is_empty() || buffered
    }

    /// **Cut**: the WAL buffer was taken, with records in it iff `records`.
    /// Every held reply joins the cut; they are returned for inspection.
    pub fn cut(&mut self, records: bool) -> &[T] {
        self.committing = records;
        std::mem::swap(&mut self.held, &mut self.cut);
        &self.cut
    }

    /// **Synced**: the cut was written and synced through the sequence
    /// number in `Ok`, or failed with the message in `Err`. `committing`
    /// clears; a failure leaves synced-through alone and is reported to
    /// every waiter ([`CommitGate::poll`]).
    pub fn synced(&mut self, outcome: Result<u64, String>) {
        match &outcome {
            Ok(seq) => self.synced_through = self.synced_through.max(*seq),
            Err(msg) => {
                self.failures += 1;
                self.last_failure.clone_from(msg);
            }
        }
        self.committing = false;
        self.outcome = Some(outcome);
    }

    /// **Release**: moves the synced cut's replies onto the end of `into`,
    /// in admission order, and returns the cut's outcome — every reply may
    /// leave now, as an error if the commit failed.
    ///
    /// # Panics
    ///
    /// If the cut has not [`synced`](CommitGate::synced).
    pub fn release(&mut self, into: &mut Vec<T>) -> Result<u64, String> {
        let outcome = self
            .outcome
            .take()
            .expect("a cut released before it synced");
        into.append(&mut self.cut);
        outcome
    }

    /// **Crash**: every held and in-flight reply is lost unsent, and the
    /// gate restarts at what recovery found durable.
    pub fn crash(&mut self, recovered_through: u64) {
        *self = Self::new(recovered_through);
    }

    /// A shipped snapshot replaced the shard's state and is durable already.
    pub fn installed(&mut self, seq: u64) {
        self.synced_through = seq;
    }

    /// Starts waiting for a finished commit to cover `seq`.
    pub fn watch(&self, seq: u64) -> Watch {
        let failures = self.failures;
        Watch { seq, failures }
    }

    /// `Some(Ok(seq))` once `watch`'s sequence number is synced through;
    /// `Some(Err(message))` if a commit failed since the watch began (its
    /// records may be the ones lost), or if nothing that could still cover
    /// it is pending — no records `buffered`, no cut in flight — because an
    /// earlier commit lost them; `None` while it must wait on.
    pub fn poll(&self, watch: &Watch, buffered: bool) -> Option<Result<u64, String>> {
        if self.synced_through >= watch.seq {
            Some(Ok(watch.seq))
        } else if self.failures != watch.failures || !(buffered || self.committing) {
            Some(Err(format!(
                "seq {} cannot be synced: {}",
                watch.seq, self.last_failure
            )))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hold(reply: u32) -> u32 {
        reply
    }

    #[test]
    fn a_reply_passes_only_with_nothing_buffered_and_no_cut_in_flight() {
        let mut gate = CommitGate::new(0);
        assert_eq!(gate.admit(false, 1, hold), Some(1));
        assert_eq!(gate.admit(true, 2, hold), None, "buffered: held");
        assert!(gate.has_work(false));
        assert_eq!(gate.cut(true), &[2]);
        assert_eq!(gate.admit(false, 3, hold), None, "a cut is in flight");
        gate.synced(Ok(5));
        assert_eq!(gate.admit(false, 4, hold), Some(4), "the sync opened it");
        let mut out = Vec::new();
        assert_eq!(gate.release(&mut out), Ok(5));
        assert_eq!(out, [2], "the cut's replies, not the one held after it");
        assert_eq!(gate.cut(false), &[3]);
        assert_eq!(
            gate.admit(false, 6, hold),
            Some(6),
            "an empty cut holds nothing"
        );
    }

    #[test]
    fn a_failed_sync_leaves_synced_through_and_wakes_the_waiter() {
        let mut gate: CommitGate<u32> = CommitGate::new(3);
        let watch = gate.watch(7);
        assert_eq!(gate.poll(&watch, true), None);
        gate.cut(true);
        assert_eq!(gate.poll(&watch, false), None, "the cut is in flight");
        gate.synced(Err("wal commit failed: disk gone".to_owned()));
        assert_eq!(gate.poll(&gate.watch(3), false), Some(Ok(3)));
        let failed = Some(Err(
            "seq 7 cannot be synced: wal commit failed: disk gone".to_owned()
        ));
        assert_eq!(gate.poll(&watch, true), failed, "synced-through is still 3");
        assert_eq!(
            gate.release(&mut Vec::new()),
            Err("wal commit failed: disk gone".to_owned())
        );
        // A later waiter with records pending waits for their commit …
        let later = gate.watch(7);
        assert_eq!(gate.poll(&later, true), None);
        // … and one with nothing pending that could cover it (a retry of
        // records the failed commit lost) is told at once, not left hanging.
        assert_eq!(gate.poll(&later, false), failed);
        gate.cut(true);
        gate.synced(Ok(7));
        assert_eq!(gate.poll(&later, false), Some(Ok(7)));
    }

    #[test]
    fn an_installed_snapshot_is_synced_through_at_once() {
        let mut gate: CommitGate<u32> = CommitGate::new(0);
        let watch = gate.watch(40);
        gate.installed(40);
        assert_eq!(gate.poll(&watch, false), Some(Ok(40)));
    }

    #[test]
    fn a_crash_loses_every_unreleased_reply() {
        let mut gate = CommitGate::new(0);
        assert_eq!(gate.admit(true, 1, hold), None);
        gate.cut(true);
        assert_eq!(gate.admit(false, 2, hold), None);
        gate.crash(9);
        assert!(!gate.has_work(false));
        assert_eq!(gate.poll(&gate.watch(9), false), Some(Ok(9)));
        assert_eq!(gate.admit(false, 3, hold), Some(3));
    }

    #[test]
    #[should_panic(expected = "released before it synced")]
    fn a_cut_cannot_be_released_before_it_synced() {
        let mut gate: CommitGate<u32> = CommitGate::new(0);
        gate.cut(true);
        let _ = gate.release(&mut Vec::new());
    }
}
