//! The open-loop schedule: every op has a due instant fixed by the rate
//! alone.
//!
//! Op `k` is due at `start + k / rate` and goes to connection `k % conns`.
//! Nothing a sender does — running late, blocking on a full socket — moves
//! a due instant, and latency is counted from it, so a stall shows up in
//! every op that queued behind it (coordinated-omission-safe).

/// A fixed-rate schedule, in nanoseconds since the phase began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Due instant of op 0.
    pub start_ns: u64,
    /// Offered rate, ops/s.
    pub rate: u64,
}

impl Schedule {
    /// Due instant of op `k`.
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + (k as u128 * 1_000_000_000 / self.rate as u128) as u64
    }

    /// Ops due before `end_ns`.
    pub fn ops_before(&self, end_ns: u64) -> u64 {
        let span = end_ns.saturating_sub(self.start_ns) as u128;
        (span * self.rate as u128).div_ceil(1_000_000_000) as u64
    }

    /// The ops of connection `conn` (of `conns`) that are due at `now_ns`
    /// and not yet sent, given that `next` is the first unsent op of that
    /// connection and the schedule stops at `end_ns`. A late caller gets a
    /// burst; no due instant changes.
    pub fn due_now(
        &self,
        next: u64,
        conns: u64,
        now_ns: u64,
        end_ns: u64,
    ) -> impl Iterator<Item = u64> + '_ {
        (next..)
            .step_by(conns as usize)
            .take_while(move |&k| self.due_ns(k) <= now_ns && self.due_ns(k) < end_ns)
    }
}
