//! An interleaving explorer for the tier's coherence protocol, with no
//! sockets and no threads (DESIGN.md §11).
//!
//! Two or three logical connections each run a short script of GET/SET/DEL
//! over two keys. A request moves in micro-steps — `begin` at the switch,
//! apply at an in-memory upstream, `finish` at the switch, ack to the
//! client — and a proptest-chosen schedule says which connection takes its
//! next micro-step, so every overlap `p4lru_tierd`'s unlocked round-trip
//! allows (and the ones a pipelined reactor port will add) can occur.
//!
//! The property is the benchmark's `tier.stale_reads`, widened to any
//! writer: **no GET is acked a version older than a SET/DEL of that key
//! that had been acked, to any connection, before the GET began.** The
//! upstream stamps every write with the next version, so "older" is the
//! order the upstream applied them in.
//!
//! The explorer is handed the `finish` step to run, so it can show it has
//! teeth: given a `finish` with rules 1 and 2 only — the protocol the live
//! tier ran until PR 11's verifier caught it — it must find the stale read.

use proptest::collection::vec;
use proptest::prelude::*;

use p4lru::server::shard::record_from_bytes;
use p4lru::server::{Request, Response};
use p4lru::tier::{Step, SwitchTier, SwitchTierConfig};

const KEYS: usize = 2;

/// The second half of the step pair under test.
type Finish = fn(&mut SwitchTier, &Request, u64, &Response);

/// The tier as it was before rule 3: `finish` admits a GET's value behind
/// the epoch guard and does nothing when a write is answered.
fn finish_without_rule_3(t: &mut SwitchTier, request: &Request, epoch: u64, answer: &Response) {
    if let (&Request::Get { key }, Response::Value(value)) = (request, answer) {
        t.admit(key, record_from_bytes(value), epoch);
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Get,
    Set,
    Del,
}

/// A scripted request: what to do, to which of the `KEYS` keys.
type Op = (Kind, usize);

/// How far a connection's current request has got.
#[derive(Default)]
enum Stage {
    #[default]
    Idle,
    /// Forwarded under this epoch; the upstream has not seen it yet.
    Sent(u64),
    /// The upstream gave this answer; `finish` has not run.
    Answered(u64, Response),
    /// Only the ack to the client is left.
    Replying,
}

#[derive(Default)]
struct Conn {
    script: Vec<Op>,
    /// Index of the current request in `script`.
    at: usize,
    stage: Stage,
    /// For the current GET: the newest write of its key acked to anyone
    /// before it began.
    floor: u64,
    /// The version the current GET read, or the current write was given.
    version: u64,
}

struct World {
    switch: SwitchTier,
    finish: Finish,
    /// Per key: (version, present). Every key starts present at version 0.
    upstream: [(u64, bool); KEYS],
    /// Versions handed out so far.
    clock: u64,
    /// Per key: the newest version whose write has been acked.
    acked: [u64; KEYS],
}

impl World {
    /// The upstream applies the op and answers; returns the version the op
    /// read or wrote beside the answer (the tier reads no write's answer,
    /// so every write gets OK).
    fn apply(&mut self, (kind, key): Op) -> (u64, Response) {
        let stored = &mut self.upstream[key];
        match kind {
            Kind::Get if stored.1 => (stored.0, Response::Value(stored.0.to_le_bytes().to_vec())),
            Kind::Get => (stored.0, Response::NotFound),
            Kind::Set | Kind::Del => {
                self.clock += 1;
                *stored = (self.clock, kind == Kind::Set);
                (self.clock, Response::Ok)
            }
        }
    }

    /// Advances `conn`'s current request by one micro-step.
    fn step(&mut self, conn: &mut Conn) -> Result<(), String> {
        let (kind, slot) = conn.script[conn.at];
        let key = slot as u64;
        let request = match kind {
            Kind::Get => Request::Get { key },
            // The upstream stores the version it stamps, not these bytes.
            Kind::Set => Request::Set {
                key,
                value: Vec::new(),
            },
            Kind::Del => Request::Del { key },
        };
        conn.stage = match std::mem::take(&mut conn.stage) {
            Stage::Idle => {
                conn.floor = self.acked[slot];
                match self.switch.begin(&request) {
                    Step::Forward { epoch } => Stage::Sent(epoch),
                    Step::Reply(Response::Value(record)) => {
                        conn.version = u64::from_le_bytes(record[..8].try_into().unwrap());
                        Stage::Replying
                    }
                    Step::Reply(other) => return Err(format!("{request:?} answered {other:?}")),
                }
            }
            Stage::Sent(epoch) => {
                let (version, answer) = self.apply((kind, slot));
                conn.version = version;
                Stage::Answered(epoch, answer)
            }
            Stage::Answered(epoch, answer) => {
                (self.finish)(&mut self.switch, &request, epoch, &answer);
                Stage::Replying
            }
            Stage::Replying => {
                if kind != Kind::Get {
                    self.acked[slot] = self.acked[slot].max(conn.version);
                } else if conn.version < conn.floor {
                    return Err(format!(
                        "stale read: GET of key {key} was acked version {} after version {} had been acked",
                        conn.version, conn.floor
                    ));
                }
                conn.at += 1;
                Stage::Idle
            }
        };
        Ok(())
    }
}

/// Runs `scripts`, one per connection, under `schedule`: each entry picks
/// (modulo the count) among the connections that still have work, and once
/// the schedule runs out they take turns. A last connection then reads
/// every key back. Returns the first stale read.
fn explore(scripts: &[Vec<Op>], schedule: &[usize], finish: Finish) -> Result<(), String> {
    let mut world = World {
        switch: SwitchTier::new(&SwitchTierConfig {
            levels: 2,
            memory_bytes: 600,
            ..SwitchTierConfig::default()
        }),
        finish,
        upstream: [(0, true); KEYS],
        clock: 0,
        acked: [0; KEYS],
    };
    let conn = |script| Conn {
        script,
        ..Conn::default()
    };
    let mut conns: Vec<Conn> = scripts.iter().cloned().map(conn).collect();
    for pick in schedule.iter().copied().chain(0..) {
        let runnable: Vec<&mut Conn> = conns.iter_mut().filter(|c| c.at < c.script.len()).collect();
        if runnable.is_empty() {
            break;
        }
        let count = runnable.len();
        world.step(runnable.into_iter().nth(pick % count).expect("in range"))?;
    }
    let mut reader = conn((0..KEYS).map(|key| (Kind::Get, key)).collect());
    while reader.at < KEYS {
        world.step(&mut reader)?;
    }
    world.switch.check_invariants()
}

fn scripts() -> impl Strategy<Value = Vec<Vec<Op>>> {
    // GETs twice as likely as each kind of write.
    let kind = (0u8..4).prop_map(|k| [Kind::Get, Kind::Get, Kind::Set, Kind::Del][k as usize]);
    vec(vec((kind, 0..KEYS), 1..5), 2..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_500))]

    #[test]
    fn no_schedule_gets_a_stale_read_past_begin_and_finish(
        scripts in scripts(),
        schedule in vec(0usize..3, 0..48),
    ) {
        explore(&scripts, &schedule, SwitchTier::finish).map_err(TestCaseError::fail)?;
    }

    /// The same explorer over the same kind of schedules, minus rule 3.
    #[test]
    #[should_panic(expected = "stale read")]
    fn the_explorer_catches_a_finish_without_rule_3(
        scripts in scripts(),
        schedule in vec(0usize..3, 0..48),
    ) {
        explore(&scripts, &schedule, finish_without_rule_3).map_err(TestCaseError::fail)?;
    }
}

/// The schedule PR 11's verifier caught on the live tier: connection 0 SETs
/// a key and then GETs it, connection 1 GETs it in between.
#[test]
fn the_pr_11_schedule_is_stale_without_rule_3_and_fresh_with_it() {
    let scripts = [vec![(Kind::Set, 0), (Kind::Get, 0)], vec![(Kind::Get, 0)]];
    let schedule = [
        0, // SET begins: rule 1 expels, the epoch moves
        1, // GET misses under the new epoch
        1, // GET is served the old value upstream, ahead of the SET
        0, // SET is applied upstream
        1, // GET's value is admitted: the epoch has not moved since it began
        0, // SET finishes (rule 3, where there is one)
        0, // SET is acked
        0, // the writer's own next GET begins: a hit on the old value, or a miss
    ];
    explore(&scripts, &schedule, SwitchTier::finish).expect("rule 3 expels the old value");
    let caught = explore(&scripts, &schedule, finish_without_rule_3).unwrap_err();
    assert!(
        caught.starts_with("stale read: GET of key 0 was acked version 0"),
        "{caught}"
    );
}
