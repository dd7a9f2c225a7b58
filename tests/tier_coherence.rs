//! An interleaving explorer for the tier's coherence protocol, with no
//! sockets and no threads (DESIGN.md §11).
//!
//! Two or three logical connections each run a short script of GET/SET/DEL
//! over three keys — two that share an invalidation partition and one that
//! does not — cut into *turns* of one to three requests, the pipelined
//! bursts `p4lru_tierd` serves. A turn moves in micro-steps:
//!
//! 1. its requests begin at the switch, all of them in one step
//!    ([`SwitchTier::begin_turn`]);
//! 2. the in-memory upstream applies its forwards one step each, in wire
//!    order (one connection's forwards ride one FIFO upstream connection)
//!    but freely interleaved with every other connection's;
//! 3. the answers finish at the switch ([`SwitchTier::finish_turn`]) and
//!    the replies are acked to the client in wire order, all in one step —
//!    the tier does nothing between the two, and an ack that lands earlier
//!    only raises what later GETs are held to.
//!
//! A schedule says which connection takes its next micro-step, and the
//! search is **exhaustive**: every schedule of every script set in scope
//! (see [`script_sets`]) is run, by stateless depth-first search — the
//! switch cannot be cloned, so each schedule replays from an empty world.
//!
//! Two properties, both reported as a `stale read`:
//!
//! * the benchmark's `tier.stale_reads`, widened to any writer: **no GET is
//!   acked a version older than a SET/DEL of that key that had been acked,
//!   to any connection, before the GET began**;
//! * read-your-writes inside a turn: **a GET is never acked a version older
//!   than a SET/DEL of that key earlier in its own turn** (`SET k`, `GET k`
//!   sent back to back must read the SET).
//!
//! The upstream stamps every write with the next version, so "older" is the
//! order the upstream applied them in. Replies are also checked to come
//! back in wire order.
//!
//! The explorer can be handed a defective tier, to show it has teeth: rules
//! 1 and 2 only (the protocol the live tier ran until PR 11's verifier
//! caught it), a turn whose begins other connections can step between, and
//! an admission that ignores the partition stamp. It must find a stale read
//! in each, in the same exhaustive run that finds none in the real one.

use p4lru::server::{Request, Response};
use p4lru::tier::{Step, SwitchTier, SwitchTierConfig};

/// Key slots: 0 and 1 share an invalidation partition, 2 has its own.
const KEYS: usize = 3;

/// The tier under exploration: the real one, or one seeded defect.
#[derive(Clone, Copy, PartialEq)]
enum Tier {
    /// `begin_turn` / `finish_turn` as `p4lru_tierd` runs them.
    Real,
    /// `finish_turn` admits a GET's value behind the guard and does nothing
    /// when a write is answered: the tier as it was before rule 3.
    WithoutRule3,
    /// A turn's requests begin one micro-step each (the per-request locking
    /// a proxy might be tempted to use), so another connection's `finish`
    /// can land between `SET k` and `GET k` of one turn.
    BeginsInterleave,
    /// `finish_turn` admits as if every GET had begun at the end of time,
    /// so no partition stamp is ever newer: rule 2 gone.
    AdmitIgnoresStamp,
}

fn switch() -> SwitchTier {
    SwitchTier::new(&SwitchTierConfig {
        levels: 2,
        memory_bytes: 90,
        ..SwitchTierConfig::default()
    })
}

/// Three keys of [`switch`]: the first two share a partition, the third
/// does not. Found through the public surface: an invalidation of `other`
/// drops an in-flight admission of `key` exactly when they share a stamp.
fn keys() -> [u64; KEYS] {
    let mut t = switch();
    let mut shares_with_0 = |other: u64| {
        let epoch = t.epoch();
        t.invalidate(other);
        !t.admit(0, [0; 64], epoch)
    };
    let neighbour = (1..).find(|&k| shares_with_0(k)).expect("some key does");
    let stranger = (1..).find(|&k| !shares_with_0(k)).expect("some key does");
    [0, neighbour, stranger]
}

#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
enum Kind {
    Get,
    Set,
    Del,
}

/// A scripted request: what to do, to which of the `KEYS` key slots.
type Op = (Kind, usize);

/// A connection's requests, cut into the turns it sends them in.
type Script = Vec<Vec<Op>>;

#[derive(Default)]
struct Conn<'a> {
    script: &'a [Vec<Op>],
    /// Index of the current turn in `script`.
    at: usize,
    /// The current turn's requests.
    requests: Vec<Request>,
    /// `begin`'s verdict on each request of the turn begun so far.
    begun: Vec<Step>,
    /// Per request begun: the newest write of its key acked to anyone
    /// before it began.
    floors: Vec<u64>,
    /// Per request begun: the version it read or was given upstream (or,
    /// for a switch hit, the version the switch served).
    versions: Vec<u64>,
    /// The upstream's answers to the turn's forwards so far, in wire order.
    answers: Vec<Response>,
}

impl<'a> Conn<'a> {
    fn new(script: &'a [Vec<Op>]) -> Self {
        Self {
            script,
            ..Self::default()
        }
    }

    fn done(&self) -> bool {
        self.at == self.script.len()
    }
}

struct World {
    tier: Tier,
    keys: [u64; KEYS],
    switch: SwitchTier,
    /// Per key slot: (version, present). Every key starts present at
    /// version 0, and each write of it is the next version.
    upstream: [(u64, bool); KEYS],
    /// Per key slot: the newest version whose write has been acked.
    acked: [u64; KEYS],
}

/// The version a served record carries in its first eight bytes.
fn version_of(value: &[u8]) -> u64 {
    u64::from_le_bytes(value[..8].try_into().expect("a record is 64 bytes"))
}

impl World {
    fn new(tier: Tier, keys: [u64; KEYS]) -> Self {
        Self {
            tier,
            keys,
            switch: switch(),
            upstream: [(0, true); KEYS],
            acked: [0; KEYS],
        }
    }

    fn request(&self, (kind, slot): Op) -> Request {
        let key = self.keys[slot];
        match kind {
            Kind::Get => Request::Get { key },
            // The upstream stores the version it stamps, not these bytes.
            Kind::Set => Request::Set {
                key,
                value: Vec::new(),
            },
            Kind::Del => Request::Del { key },
        }
    }

    /// The upstream applies the op and answers; returns the version the op
    /// read or wrote beside the answer (the tier reads no write's answer,
    /// so every write gets OK).
    fn apply(&mut self, (kind, slot): Op) -> (u64, Response) {
        let stored = &mut self.upstream[slot];
        match kind {
            Kind::Get if stored.1 => (stored.0, Response::Value(stored.0.to_le_bytes().to_vec())),
            Kind::Get => (stored.0, Response::NotFound),
            Kind::Set | Kind::Del => {
                *stored = (stored.0 + 1, kind == Kind::Set);
                (stored.0, Response::Ok)
            }
        }
    }

    /// Advances `conn`'s current turn by one micro-step. Returns the op the
    /// upstream applied, if that is what the step was, and `None` for a
    /// step at the switch.
    fn step(&mut self, conn: &mut Conn) -> Result<Option<Op>, String> {
        let turn: &[Op] = &conn.script[conn.at];
        if conn.requests.is_empty() {
            conn.requests = turn.iter().map(|&op| self.request(op)).collect();
        }
        let forwards = |begun: &[Step]| {
            begun
                .iter()
                .filter(|step| matches!(step, Step::Forward { .. }))
                .count()
        };
        if conn.begun.len() < turn.len() {
            // 1. Begin: the whole turn at once, unless that is the defect.
            let from = conn.begun.len();
            let batch = match self.tier {
                Tier::BeginsInterleave => from..from + 1,
                _ => from..turn.len(),
            };
            for &(_, slot) in &turn[batch.clone()] {
                conn.floors.push(self.acked[slot]);
            }
            let begun = match self.tier {
                Tier::BeginsInterleave => vec![self.switch.begin(&conn.requests[from])],
                _ => self.switch.begin_turn(&conn.requests[batch]),
            };
            for step in &begun {
                conn.versions.push(match step {
                    Step::Forward { .. } => 0, // the upstream will say
                    Step::Reply(Response::Value(record)) => version_of(record),
                    Step::Reply(other) => return Err(format!("the switch answered {other:?}")),
                });
            }
            conn.begun.extend(begun);
        } else if conn.answers.len() < forwards(&conn.begun) {
            // 2. The upstream applies this connection's next forward.
            let at = (0..turn.len())
                .filter(|&i| matches!(conn.begun[i], Step::Forward { .. }))
                .nth(conn.answers.len())
                .expect("a forward is left");
            let (version, answer) = self.apply(turn[at]);
            conn.versions[at] = version;
            conn.answers.push(answer);
            return Ok(Some(turn[at]));
        } else {
            // 3. Finish: the whole turn at once, in wire order …
            let mut requests = std::mem::take(&mut conn.requests);
            let mut begun = std::mem::take(&mut conn.begun);
            match self.tier {
                // Nothing happens when a write is answered: `finish` is
                // shown a request it has no business with instead.
                Tier::WithoutRule3 => {
                    for request in &mut requests {
                        if !matches!(request, Request::Get { .. }) {
                            *request = Request::Ping;
                        }
                    }
                }
                // No stamp is newer than the end of time.
                Tier::AdmitIgnoresStamp => {
                    for step in &mut begun {
                        if let Step::Forward { epoch } = step {
                            *epoch = u64::MAX;
                        }
                    }
                }
                Tier::Real | Tier::BeginsInterleave => {}
            }
            let answers = std::mem::take(&mut conn.answers);
            let replies = self.switch.finish_turn(&requests, begun, answers);
            // … and ack, in wire order.
            for (i, (&(kind, slot), reply)) in turn.iter().zip(&replies).enumerate() {
                let version = conn.versions[i];
                let in_order = match (kind, reply) {
                    (Kind::Get, Response::Value(value)) => version_of(value) == version,
                    (Kind::Get, Response::NotFound) | (Kind::Set | Kind::Del, Response::Ok) => true,
                    _ => false,
                };
                if !in_order {
                    return Err(format!(
                        "wire order: {kind:?} of slot {slot} (version {version}) was answered {reply:?}"
                    ));
                }
                if kind != Kind::Get {
                    self.acked[slot] = self.acked[slot].max(version);
                    continue;
                }
                if version < conn.floors[i] {
                    return Err(format!(
                        "stale read: GET of slot {slot} was acked version {version} after version {} had been acked",
                        conn.floors[i]
                    ));
                }
                let own_write = (0..i)
                    .filter(|&j| turn[j].0 != Kind::Get && turn[j].1 == slot)
                    .map(|j| conn.versions[j])
                    .max();
                if own_write.is_some_and(|written| version < written) {
                    return Err(format!(
                        "stale read: GET of slot {slot} was acked version {version} behind version {} written earlier in its own turn",
                        own_write.expect("checked")
                    ));
                }
            }
            *conn = Conn {
                script: conn.script,
                at: conn.at + 1,
                ..Conn::default()
            };
        }
        Ok(None)
    }
}

/// Whether two adjacent micro-steps of different connections leave the same
/// world in either order. An upstream step touches one key's stored value
/// and nothing of the switch, so it commutes with every switch step and
/// with every upstream step that is not a write racing an access of the
/// same key; two switch steps are never assumed to.
fn commute(a: Option<Op>, b: Option<Op>) -> bool {
    match (a, b) {
        (None, None) => false,
        (Some((a, at)), Some((b, bt))) => at != bt || (a == Kind::Get && b == Kind::Get),
        _ => true,
    }
}

/// Runs `scripts`, one per connection, under `schedule`: entry `i` picks
/// among the connections that still have work at micro-step `i`, and past
/// the schedule's end the first of them runs. A last connection then reads
/// every key back in one turn. Returns how many connections each
/// micro-step had to pick from, or the first violation.
///
/// With `reduced`, the run stops short at a micro-step that [`commute`]s
/// with the one before it and belongs to a lower-numbered connection: the
/// schedule with the two swapped reaches the same world, sorts earlier,
/// and is explored in its own right.
fn explore(
    scripts: &[Script],
    schedule: &[usize],
    tier: Tier,
    keys: [u64; KEYS],
    reduced: bool,
) -> Result<Vec<usize>, String> {
    let mut world = World::new(tier, keys);
    let mut conns: Vec<Conn> = scripts.iter().map(|s| Conn::new(s)).collect();
    let mut widths = Vec::new();
    let mut last = None;
    loop {
        let mut runnable = conns.iter_mut().enumerate().filter(|(_, c)| !c.done());
        let pick = schedule.get(widths.len()).copied().unwrap_or(0);
        let Some((id, conn)) = runnable.nth(pick) else {
            assert!(pick == 0, "schedule entry {} out of range", widths.len());
            break;
        };
        widths.push(pick + 1 + runnable.count());
        let did = world.step(conn)?;
        if reduced && last.is_some_and(|(before, done)| id < before && commute(done, did)) {
            return Ok(widths);
        }
        last = Some((id, did));
    }
    let read_back = [(0..KEYS).map(|slot| (Kind::Get, slot)).collect()];
    let mut reader = Conn::new(&read_back);
    while !reader.done() {
        world.step(&mut reader)?;
    }
    world.switch.check_invariants()?;
    Ok(widths)
}

/// Every schedule of `scripts` (less the reordered twins `explore` cuts
/// short), depth first: run one, then advance the deepest pick that has an
/// alternative left and cut the schedule there. Returns how many runs that
/// took, or the first violation with the schedule that produced it.
fn every_schedule(scripts: &[Script], tier: Tier, keys: [u64; KEYS]) -> Result<usize, String> {
    let mut schedule = Vec::new();
    for ran in 1.. {
        let widths = explore(scripts, &schedule, tier, keys, true)
            .map_err(|e| format!("{e}\n  scripts {scripts:?}\n  schedule {schedule:?}"))?;
        schedule.resize(widths.len(), 0);
        while schedule
            .last()
            .is_some_and(|&pick| pick + 1 == widths[schedule.len() - 1])
        {
            schedule.pop();
        }
        match schedule.last_mut() {
            Some(pick) => *pick += 1,
            None => return Ok(ran),
        }
    }
    unreachable!()
}

/// What a script may ask: anything of slot 0, and a GET or a SET of the
/// other two (a DEL differs from a SET only in what the upstream answers
/// later GETs, which one key shows).
const ALPHABET: [Op; 7] = [
    (Kind::Get, 0),
    (Kind::Set, 0),
    (Kind::Del, 0),
    (Kind::Get, 1),
    (Kind::Set, 1),
    (Kind::Get, 2),
    (Kind::Set, 2),
];

/// Every script of turns sized `shape` over [`ALPHABET`].
fn scripts_of(shape: &[usize]) -> Vec<Script> {
    let letters = ALPHABET.len();
    let ops: usize = shape.iter().sum();
    (0..letters.pow(ops as u32))
        .map(|word| {
            let mut ops = (0..ops).map(|i| ALPHABET[word / letters.pow(i as u32) % letters]);
            shape
                .iter()
                .map(|&turn| ops.by_ref().take(turn).collect())
                .collect()
        })
        .collect()
}

/// The scope of the exhaustive search: for each of `SHAPES`, every set of
/// scripts cut that way, less the sets that cannot go stale (a stale value
/// has to be fetched by a GET and outdated by a write, so some key must see
/// both) and less mirror images (connections are interchangeable).
fn script_sets() -> Vec<Vec<Script>> {
    /// Turn sizes per connection: two connections with up to three requests
    /// each and four between them, in one turn or two, or three connections
    /// with a request apiece.
    const SHAPES: &[&[&[usize]]] = &[
        &[&[1], &[1]],
        &[&[2], &[1]],
        &[&[3], &[1]],
        &[&[2], &[2]],
        &[&[1, 1], &[1]],
        &[&[1, 1], &[2]],
        &[&[2, 1], &[1]],
        &[&[1, 2], &[1]],
        &[&[1], &[1], &[1]],
    ];
    let can_go_stale = |set: &[Script]| {
        let has = |slot: usize, get: bool| {
            let mut ops = set.iter().flatten().flatten();
            ops.any(|&(kind, s)| s == slot && (kind == Kind::Get) == get)
        };
        (0..KEYS).any(|slot| has(slot, true) && has(slot, false))
    };
    let mut sets = Vec::new();
    for shape in SHAPES {
        let mut partial: Vec<Vec<Script>> = vec![Vec::new()];
        for (i, &turns) in shape.iter().enumerate() {
            let choices = scripts_of(turns);
            partial = partial
                .into_iter()
                .flat_map(|set| {
                    let with =
                        move |script: &Script| [&set[..], std::slice::from_ref(script)].concat();
                    choices.iter().map(with)
                })
                // Same-shaped neighbours in ascending order only.
                .filter(|set| i == 0 || shape[i - 1] != turns || set[i - 1] <= set[i])
                .collect();
        }
        sets.extend(partial.into_iter().filter(|set| can_go_stale(set)));
    }
    sets
}

/// Runs the whole scope against `tier`; the first violation, if any.
fn exhaust(tier: Tier) -> Result<(usize, usize), String> {
    let keys = keys();
    let sets = script_sets();
    let mut schedules = 0;
    for scripts in &sets {
        schedules += every_schedule(scripts, tier, keys)?;
    }
    Ok((sets.len(), schedules))
}

#[test]
fn no_schedule_gets_a_stale_read_past_begin_and_finish() {
    let (sets, schedules) = exhaust(Tier::Real).unwrap_or_else(|e| panic!("{e}"));
    println!("{schedules} schedules of {sets} script sets, no stale read");
    assert!(
        schedules > 300_000,
        "the scope shrank: {schedules} schedules"
    );
}

/// The same exhaustive run, minus rule 3.
#[test]
#[should_panic(expected = "stale read")]
fn the_explorer_catches_a_finish_without_rule_3() {
    exhaust(Tier::WithoutRule3).unwrap_or_else(|e| panic!("{e}"));
}

/// The same exhaustive run, with a turn's begins open to other
/// connections' steps.
#[test]
#[should_panic(expected = "stale read")]
fn the_explorer_catches_begins_interleaved_with_another_finish() {
    exhaust(Tier::BeginsInterleave).unwrap_or_else(|e| panic!("{e}"));
}

/// The same exhaustive run, with an admission that ignores the stamp.
#[test]
#[should_panic(expected = "stale read")]
fn the_explorer_catches_an_admit_that_ignores_the_stamp() {
    exhaust(Tier::AdmitIgnoresStamp).unwrap_or_else(|e| panic!("{e}"));
}

/// The schedule PR 11's verifier caught on the live tier: connection 0 SETs
/// a key and then GETs it, connection 1 GETs it in between.
#[test]
fn the_pr_11_schedule_is_stale_without_rule_3_and_fresh_with_it() {
    let scripts = [
        vec![vec![(Kind::Set, 0)], vec![(Kind::Get, 0)]],
        vec![vec![(Kind::Get, 0)]],
    ];
    let schedule = [
        0, // SET begins: rule 1 expels, the partition is stamped
        1, // GET misses, at a clock no older than the stamp
        1, // GET is served the old value upstream, ahead of the SET
        0, // SET is applied upstream
        1, // GET's value is admitted: no stamp is newer than its clock
        0, // SET finishes (rule 3, where there is one) and is acked
        0, // the writer's own next GET begins: a hit on the old value, or a miss
    ];
    explore(&scripts, &schedule, Tier::Real, keys(), false).expect("rule 3 expels the old value");
    let caught = explore(&scripts, &schedule, Tier::WithoutRule3, keys(), false).unwrap_err();
    assert!(
        caught.starts_with("stale read: GET of slot 0 was acked version 0"),
        "{caught}"
    );
}

/// The schedule that makes a turn's begins atomic by protocol rather than
/// by luck: connection 0 sends `SET k`, `GET k` in one turn, and connection
/// 1's whole GET of `k` runs between their begins.
#[test]
fn a_turn_begun_piecemeal_reads_behind_its_own_write() {
    let scripts = [
        vec![vec![(Kind::Set, 0), (Kind::Get, 0)]],
        vec![vec![(Kind::Get, 0)]],
    ];
    let schedule = [
        0, // SET begins: rule 1 expels, the partition is stamped
        1, // the other GET misses, at a clock no older than the stamp
        1, // … is served the old value upstream, ahead of the SET
        1, // … and is admitted: no stamp is newer than its clock
        0, // the turn's own GET begins: a hit on the old value
    ];
    let caught = explore(&scripts, &schedule, Tier::BeginsInterleave, keys(), false).unwrap_err();
    assert!(
        caught.starts_with("stale read: GET of slot 0 was acked version 0 behind version 1"),
        "{caught}"
    );
    // Begun as one step the same picks cannot separate the two, and the
    // GET follows its SET upstream.
    explore(&scripts, &schedule, Tier::Real, keys(), false).expect("the turn reads its own write");
}
