//! An exhaustive crash explorer for the commit gate, with no sockets and no
//! threads (DESIGN.md §8).
//!
//! Two logical reactor loops each run a script of one to three GET/SET/DEL
//! requests over two keys of one durable shard (`SyncPolicy::Always`, no
//! periodic snapshot), and one commit thread steps through its cycle: cut
//! → run → fsync → synced → release. A loop's step applies one request to the real
//! [`Shard`] and admits its reply at the real [`CommitGate`], as
//! `ShardCell::apply` does under the shard lock; the commit thread's steps
//! are `ShardCell::commit_loop`'s, and `run` is the real `LogCommit::run`,
//! which writes and fsyncs the WAL segment. A schedule says which of the
//! three takes the next step, and the search is **exhaustive**: every
//! schedule of every script set in scope ([`script_sets`]) is run by
//! stateless depth-first search, each replayed from a fresh shard
//! directory (a shard cannot be cloned).
//!
//! **The world is crashed after every step.** The WAL segment keeps each
//! interesting length of its records between its synced length (as of the
//! last fsync) and its written length — nothing unsynced, a torn
//! tail one byte short of the last record, and all of it — both as lengths
//! of the records written. The segment is pre-sized, so what follows the
//! kept bytes is lost one of two ways: zeroed up to the pre-sized length
//! (the size reached the disk and the writes did not), or cut off (the
//! size change never reached the disk either). [`Shard::recover`] rebuilds
//! the shard from each copy. The properties:
//!
//! * recovery succeeds and recovers a prefix of the writes applied;
//! * **acked write lost**: every SET/DEL acked on the wire is recovered
//!   (a later write of the same key may have replaced its value);
//! * **acked read not durable**: the write every acked GET read is
//!   recovered, so no read returned data a crash could take back;
//! * **acks out of wire order**: the gate releases each loop's held
//!   replies in the order the loop sent them;
//!
//! and at the end of every schedule **no reply is left at the gate**.
//!
//! The explorer can be handed a defective commit protocol, built here on
//! the same public gate, to show it has teeth: a GET admitted without
//! checking for buffered records, a cut released before it has run or
//! before its fsync returned, and `committing` cleared at the cut instead
//! of after the sync. It must find each defect's property in the same
//! exhaustive run that finds none in the real protocol. Shard directories
//! live on tmpfs (`/dev/shm`) when the host has one, so fsync stays out of
//! the budget.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use p4lru::durable::failpoint::{truncate_tail, zero_tail};
use p4lru::durable::record::{DEL_PAYLOAD_BYTES, RECORD_HEADER_BYTES, SET_PAYLOAD_BYTES};
use p4lru::durable::wal::segment_file_name;
use p4lru::durable::{DurabilityConfig, LogCommit, SyncPolicy};
use p4lru::kvstore::Record;
use p4lru::server::gate::CommitGate;
use p4lru::server::Shard;

/// The two keys; both start present, written by the initial snapshot.
const KEYS: [u64; 2] = [11, 12];

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Get,
    Set,
    Del,
}

/// A scripted request: what to do, to which of the two key slots.
type Op = (Kind, usize);

/// The commit protocol under exploration: the server's, or one seeded
/// defect.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Protocol {
    /// `ShardCell::apply` / `apply_gets` / `commit_loop` as serverd runs them.
    Real,
    /// A GET is admitted as if nothing were buffered.
    GetSkipsBuffer,
    /// The cut is reported synced and released before it runs.
    ReleaseBeforeRun,
    /// The cut is reported synced and released once it is written, before
    /// its fsync returns.
    ReleaseBeforeFsync,
    /// The cut is reported synced (clearing `committing`) right after it is
    /// taken; it runs, and its replies are released, only after that.
    ClearAtCut,
}

/// One step of the commit thread's cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// `Shard::begin_commit` and the gate's `cut`.
    Cut,
    /// `LogCommit::run`: the cut's bytes reach the segment file.
    Run,
    /// The run's fsync returns: its bytes are durable. (The real `run`
    /// fsyncs before it returns; the model lets the loops step in between,
    /// as they can while the fsync is in flight.)
    Fsync,
    /// The gate's `synced`.
    Synced,
    /// The gate's `release`, and the replies leaving.
    Release,
    /// `synced` and `release` under one hold of the shard lock, as
    /// `commit_loop` takes them (a reply posted later is only acked later).
    SyncedRelease,
}

impl Protocol {
    fn cycle(self) -> &'static [Phase] {
        use Phase::*;
        match self {
            Protocol::Real | Protocol::GetSkipsBuffer => &[Cut, Run, Fsync, SyncedRelease],
            Protocol::ReleaseBeforeRun => &[Cut, SyncedRelease, Run, Fsync],
            Protocol::ReleaseBeforeFsync => &[Cut, Run, SyncedRelease, Fsync],
            Protocol::ClearAtCut => &[Cut, Synced, Run, Fsync, Release],
        }
    }
}

/// What a reply tells the checks: the WAL sequence number of the write it
/// made, or of the write whose value it read (0: the initial snapshot's).
#[derive(Clone, Copy, Debug)]
enum Answer {
    Wrote(u64),
    Read(u64),
}

/// A reply as a loop's connection carries it through the gate.
#[derive(Debug)]
struct Reply {
    conn: usize,
    /// The request's position in its loop's script.
    at: usize,
    answer: Answer,
}

/// What a step did, for [`commute`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Did {
    /// A loop applied a GET.
    Get,
    /// A loop applied a SET or DEL.
    Write,
    /// The commit thread ran its cut, or its fsync returned.
    Disk,
    /// The commit thread cut, synced or released.
    Gate,
}

#[derive(Default)]
struct Conn<'a> {
    script: &'a [Op],
    /// Requests applied so far.
    sent: usize,
    /// Replies answered but not yet on the wire, by script position: the
    /// connection's reorder buffer.
    parked: BTreeMap<usize, Answer>,
    /// Replies on the wire, in order.
    acked: Vec<Answer>,
    /// The position of the last reply the gate released to this loop.
    released: Option<usize>,
}

/// What recovery made of one crashed disk: the last recovered sequence
/// number and each key's value, as the tag of the write that stored it.
type Recovered = (u64, [Option<u64>; 2]);

/// Every write applied, in WAL order (sequence number = index + 1): its
/// key slot and its value's tag (`None` for a DEL).
type Writes = Vec<(usize, Option<u64>)>;

/// Recoveries already run, by what the crashed disk held: the writes in
/// the segment, how many of its bytes survived, and whether its pre-sized
/// length did. Recovery is a function of the bytes, and most crashes leave
/// bytes an earlier one left.
type Recoveries = HashMap<(Writes, u64, bool), Recovered>;

struct World<'a> {
    protocol: Protocol,
    dir: &'a Path,
    shard: Shard,
    gate: CommitGate<Reply>,
    conns: Vec<Conn<'a>>,
    writes: Writes,
    /// Index into the protocol's cycle of the commit thread's next step.
    phase: usize,
    /// The cut taken and not yet run, and its last sequence number.
    cut: Option<LogCommit>,
    cut_seq: u64,
    /// The WAL segment: how many writes and bytes of records reached it,
    /// and the bytes of records as of the last fsync.
    segment: PathBuf,
    written: (usize, u64),
    synced_len: u64,
    /// What happened so far, one line a step: the failing trace.
    trace: Vec<String>,
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        sync: SyncPolicy::Always,
        snapshot_every: 0,
        ..DurabilityConfig::default()
    }
}

/// A record whose first eight bytes carry `tag`.
fn record(tag: u64) -> Record {
    let mut r = [0u8; 64];
    r[..8].copy_from_slice(&tag.to_le_bytes());
    r
}

fn tag(record: &Record) -> u64 {
    u64::from_le_bytes(record[..8].try_into().expect("a record is 64 bytes"))
}

/// The on-disk bytes of the records of `writes`.
fn wal_bytes(writes: &[(usize, Option<u64>)]) -> u64 {
    let payload = |value: Option<u64>| match value {
        Some(_) => SET_PAYLOAD_BYTES,
        None => DEL_PAYLOAD_BYTES,
    };
    writes
        .iter()
        .map(|&(_, value)| (RECORD_HEADER_BYTES + payload(value)) as u64)
        .sum()
}

/// A sparse copy of the live segment at `from`: its first `written` bytes
/// (its records), then a hole up to its pre-sized length. Returns that
/// length.
fn copy_segment(from: &Path, written: u64, to: &Path) -> u64 {
    let mut records = Vec::new();
    File::open(from)
        .and_then(|file| file.take(written).read_to_end(&mut records))
        .expect("the segment reads");
    fs::write(to, &records).expect("the copy succeeds");
    let len = fs::metadata(from).expect("the segment exists").len();
    OpenOptions::new()
        .write(true)
        .open(to)
        .and_then(|file| file.set_len(len))
        .expect("the copy is pre-sized");
    len
}

impl<'a> World<'a> {
    /// A fresh world. `dir` is reused run after run: the fresh start
    /// rewrites its snapshot and truncates its one WAL segment.
    fn new(protocol: Protocol, dir: &'a Path, scripts: &'a [Vec<Op>]) -> Self {
        let mut shard = Shard::new(16, 7);
        for key in KEYS {
            shard.load(key, record(0));
        }
        shard
            .enable_durability_fresh(dir, &config())
            .expect("a fresh shard directory");
        Self {
            protocol,
            dir,
            shard,
            gate: CommitGate::new(0),
            conns: scripts
                .iter()
                .map(|script| Conn {
                    script,
                    ..Conn::default()
                })
                .collect(),
            writes: Vec::new(),
            phase: 0,
            cut: None,
            cut_seq: 0,
            segment: dir.join(segment_file_name(1)),
            written: (0, 0),
            synced_len: 0,
            trace: Vec::new(),
        }
    }

    /// The actors that can step: each loop with requests left, then the
    /// commit thread when it is mid-cycle or has work.
    fn runnable(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.conns.len())
            .filter(|&c| self.conns[c].sent < self.conns[c].script.len())
            .collect();
        if self.phase != 0 || self.gate.has_work(self.shard.has_buffered()) {
            ids.push(self.conns.len());
        }
        ids
    }

    /// The write of `slot` that the first `through` writes leave visible:
    /// its sequence number (0: the initial snapshot's) and tag.
    fn visible(&self, slot: usize, through: u64) -> (u64, Option<u64>) {
        self.writes[..through as usize]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &(s, _))| s == slot)
            .map_or((0, Some(0)), |(i, &(_, value))| (i as u64 + 1, value))
    }

    fn step(&mut self, actor: usize) -> Result<Did, String> {
        if actor == self.conns.len() {
            return self.commit_step();
        }
        let conn = &mut self.conns[actor];
        let at = conn.sent;
        let (kind, slot) = conn.script[at];
        conn.sent += 1;
        let key = KEYS[slot];
        let answer = match kind {
            Kind::Get => {
                let (seq, want) = self.visible(slot, self.writes.len() as u64);
                let got = self.shard.get(key).map(|r| tag(&r));
                if got != want {
                    return Err(format!(
                        "the shard read {got:?} for slot {slot}, not {want:?}"
                    ));
                }
                Answer::Read(seq)
            }
            Kind::Set => {
                let seq = self.shard.last_seq() + 1;
                self.shard.set(key, record(seq)).expect("a buffered append");
                self.writes.push((slot, Some(seq)));
                Answer::Wrote(seq)
            }
            Kind::Del => {
                self.shard.del(key).expect("a buffered append");
                self.writes.push((slot, None));
                Answer::Wrote(self.shard.last_seq())
            }
        };
        let buffered = match (self.protocol, kind) {
            (Protocol::GetSkipsBuffer, Kind::Get) => false,
            _ => self.shard.has_buffered(),
        };
        let reply = Reply {
            conn: actor,
            at,
            answer,
        };
        let passed = self.gate.admit(buffered, reply, |held| held);
        self.trace.push(format!(
            "loop {actor}: {kind:?} slot {slot} -> {answer:?}, {}",
            if passed.is_some() { "passes" } else { "held" }
        ));
        if let Some(reply) = passed {
            self.answer(reply);
        }
        Ok(if kind == Kind::Get {
            Did::Get
        } else {
            Did::Write
        })
    }

    fn commit_step(&mut self) -> Result<Did, String> {
        let cycle = self.protocol.cycle();
        let phase = cycle[self.phase];
        self.phase = (self.phase + 1) % cycle.len();
        self.trace.push(format!("commit: {phase:?}"));
        match phase {
            Phase::Cut => {
                let records = self.shard.has_buffered();
                let cut = self.shard.begin_commit().expect("a durable shard");
                self.cut_seq = cut.last_seq();
                self.cut = Some(cut);
                self.gate.cut(records);
            }
            Phase::Run => {
                let cut = self.cut.take().expect("a cut to run");
                cut.run().map_err(|e| format!("the commit failed: {e}"))?;
                let records = self.cut_seq as usize;
                self.written = (records, wal_bytes(&self.writes[..records]));
                return Ok(Did::Disk);
            }
            Phase::Fsync => {
                self.synced_len = self.written.1;
                return Ok(Did::Disk);
            }
            Phase::Synced => self.gate.synced(Ok(self.cut_seq)),
            Phase::SyncedRelease => {
                self.gate.synced(Ok(self.cut_seq));
                self.release()?;
            }
            Phase::Release => self.release()?,
        }
        Ok(Did::Gate)
    }

    /// The gate's `release`: the cut's replies leave, each loop's in the
    /// order it sent them.
    fn release(&mut self) -> Result<(), String> {
        let mut released = Vec::new();
        self.gate
            .release(&mut released)
            .map_err(|e| format!("the commit failed: {e}"))?;
        for reply in released {
            let conn = &mut self.conns[reply.conn];
            if conn.released.is_some_and(|last| last >= reply.at) {
                return Err(format!(
                    "acks out of wire order: loop {} got request {} after {:?}",
                    reply.conn, reply.at, conn.released
                ));
            }
            conn.released = Some(reply.at);
            self.answer(reply);
        }
        Ok(())
    }

    /// Parks a reply at its connection and puts every reply that is next
    /// in request order on the wire.
    fn answer(&mut self, reply: Reply) {
        let conn = &mut self.conns[reply.conn];
        conn.parked.insert(reply.at, reply.answer);
        while let Some(answer) = conn.parked.remove(&conn.acked.len()) {
            conn.acked.push(answer);
        }
    }

    /// Crashes a copy of the world at every interesting WAL length and
    /// checks what recovery makes of it.
    fn crash(&self, recoveries: &mut Recoveries) -> Result<(), String> {
        let (records, written) = self.written;
        let mut lens = vec![self.synced_len, written];
        if written > self.synced_len + 1 {
            lens.insert(1, written - 1);
        }
        lens.dedup();
        for len in lens {
            for sized in [true, false] {
                let disk = (self.writes[..records].to_vec(), len, sized);
                let recovered = match recoveries.get(&disk) {
                    Some(&recovered) => recovered,
                    None => {
                        let recovered = self.recover(len, sized)?;
                        recoveries.insert(disk, recovered);
                        recovered
                    }
                };
                self.check(len, recovered)?;
            }
        }
        Ok(())
    }

    /// Recovers a copy of the shard directory whose WAL segment kept only
    /// its first `keep` bytes: the rest zeroed up to its pre-sized length
    /// (`sized`), or cut off.
    fn recover(&self, keep: u64, sized: bool) -> Result<Recovered, String> {
        let copy = self.dir.with_extension("crashed");
        let _ = fs::remove_dir_all(&copy);
        fs::create_dir_all(&copy).expect("a crash directory");
        let segment = copy.join(self.segment.file_name().expect("a file"));
        let mut presized = 0;
        for entry in fs::read_dir(self.dir).expect("the shard directory lists") {
            let path = entry.expect("a directory entry").path();
            if path == self.segment {
                presized = copy_segment(&path, self.written.1, &segment);
            } else {
                fs::copy(&path, copy.join(path.file_name().expect("a file")))
                    .expect("the copy succeeds");
            }
        }
        if sized {
            zero_tail(&segment, keep).expect("the tail is zeroed");
        } else {
            truncate_tail(&segment, presized - keep).expect("the tail is cut");
        }
        let mut shard =
            Shard::recover(16, 7, &copy, &config()).map_err(|e| format!("recovery failed: {e}"))?;
        // The restarted process's gate: the dead one's replies are gone,
        // and a read of the recovered shard has nothing to wait for.
        let mut gate: CommitGate<()> = CommitGate::new(0);
        gate.crash(shard.last_seq());
        let mut values = [None; 2];
        for (slot, key) in KEYS.into_iter().enumerate() {
            let read = shard.get(key).map(|r| tag(&r));
            values[slot] = gate
                .admit(shard.has_buffered(), read, |_| ())
                .ok_or("the restarted gate held a read of the recovered shard")?;
        }
        Ok((shard.last_seq(), values))
    }

    fn check(&self, len: u64, (through, values): Recovered) -> Result<(), String> {
        let at = format!("after a crash leaving {len} WAL bytes (recovered through {through})");
        if through > self.writes.len() as u64 {
            return Err(format!("recovered a write never made {at}"));
        }
        for (slot, &value) in values.iter().enumerate() {
            let (_, want) = self.visible(slot, through);
            if value != want {
                return Err(format!(
                    "recovered state is not a prefix: slot {slot} holds {value:?}, not {want:?}, {at}"
                ));
            }
        }
        for (c, conn) in self.conns.iter().enumerate() {
            for (i, answer) in conn.acked.iter().enumerate() {
                match *answer {
                    Answer::Wrote(seq) if seq > through => {
                        return Err(format!(
                            "acked write lost: loop {c} request {i} wrote seq {seq} {at}"
                        ))
                    }
                    Answer::Read(seq) if seq > through => {
                        return Err(format!(
                            "acked read not durable: loop {c} request {i} read seq {seq} {at}"
                        ))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// Whether two adjacent steps of different actors reach the same world in
/// either order, as far as any crash can tell. The commit thread's `run`
/// and fsync touch only the segment file, and a loop's step only the
/// shard's memory and the gate, so they commute: the skipped middle state
/// (the disk step done, the loop's request not yet applied) has the disk of
/// the state after both and a subset of its acks, so any crash there fails
/// after both too. Two GETs change neither the disk nor the gate's
/// decisions.
fn commute(a: Did, b: Did) -> bool {
    matches!(
        (a, b),
        (Did::Disk, Did::Get | Did::Write)
            | (Did::Get | Did::Write, Did::Disk)
            | (Did::Get, Did::Get)
    )
}

/// Runs `scripts`, one per loop, under `schedule`: entry `i` picks among
/// the actors that can step at step `i`, and past the schedule's end the
/// first of them runs. Crashes the world after every step from `crash_from`
/// on (the earlier states are the previous schedule's). Returns how many
/// actors each step had to pick from, or the first violation.
///
/// With `reduced`, the run stops short at a step that [`commute`]s with the
/// one before it and belongs to a lower-numbered actor: the schedule with
/// the two swapped reaches the same world, sorts earlier, and is explored
/// in its own right.
fn explore(
    scripts: &[Vec<Op>],
    schedule: &[usize],
    protocol: Protocol,
    dir: &Path,
    crash_from: usize,
    reduced: bool,
    recoveries: &mut Recoveries,
) -> Result<Vec<usize>, String> {
    let mut world = World::new(protocol, dir, scripts);
    let mut widths = Vec::new();
    let mut last: Option<(usize, Did)> = None;
    let failed =
        |world: &World, e: String| format!("{e}\n  trace:\n    {}", world.trace.join("\n    "));
    loop {
        let runnable = world.runnable();
        let pick = schedule.get(widths.len()).copied().unwrap_or(0);
        let Some(&actor) = runnable.get(pick) else {
            break;
        };
        widths.push(runnable.len());
        let did = world.step(actor).map_err(|e| failed(&world, e))?;
        if reduced && last.is_some_and(|(before, done)| actor < before && commute(done, did)) {
            return Ok(widths);
        }
        last = Some((actor, did));
        if widths.len() >= crash_from {
            world.crash(recoveries).map_err(|e| failed(&world, e))?;
        }
    }
    for (c, conn) in world.conns.iter().enumerate() {
        if conn.acked.len() < conn.script.len() {
            let e = format!(
                "a reply left at the gate: loop {c} got {} acks",
                conn.acked.len()
            );
            return Err(failed(&world, e));
        }
    }
    Ok(widths)
}

/// Every schedule of `scripts` (less the reordered twins `explore` cuts
/// short), depth first: run one, then advance the deepest pick that has an
/// alternative left and cut the schedule there. Returns how many runs that
/// took, or the first violation with the schedule that produced it.
fn every_schedule(
    scripts: &[Vec<Op>],
    protocol: Protocol,
    dir: &Path,
    recoveries: &mut Recoveries,
) -> Result<usize, String> {
    let mut schedule: Vec<usize> = Vec::new();
    let mut crash_from = 0;
    for ran in 1.. {
        let widths = explore(
            scripts, &schedule, protocol, dir, crash_from, true, recoveries,
        )
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
        // The states before the changed pick were crashed already.
        crash_from = schedule.len();
    }
    unreachable!()
}

/// What a script of a two- or three-request set may ask: anything of
/// slot 0, and a GET or SET of slot 1.
const ALPHABET: &[Op] = &[
    (Kind::Get, 0),
    (Kind::Set, 0),
    (Kind::Del, 0),
    (Kind::Get, 1),
    (Kind::Set, 1),
];

/// What a script of a four-request set may ask: a GET or SET of either
/// slot. A DEL is a WAL append like a SET, differing only in what later
/// reads see, which the shorter sets cover.
const SYMMETRIC: &[Op] = &[
    (Kind::Get, 0),
    (Kind::Set, 0),
    (Kind::Get, 1),
    (Kind::Set, 1),
];

/// Every script of `n` requests over `alphabet`.
fn scripts_of(n: usize, alphabet: &[Op]) -> Vec<Vec<Op>> {
    let letters = alphabet.len();
    (0..letters.pow(n as u32))
        .map(|word| {
            (0..n)
                .map(|i| alphabet[word / letters.pow(i as u32) % letters])
                .collect()
        })
        .collect()
}

/// The scope of the exhaustive search: for each pair of script lengths in
/// `SHAPES`, every pair of scripts over its alphabet, less the pairs
/// without a write (nothing to lose) and less mirror images — the loops
/// are interchangeable, and over [`SYMMETRIC`] so are the two keys.
fn script_sets() -> Vec<Vec<Vec<Op>>> {
    const SHAPES: &[([usize; 2], &[Op])] = &[
        ([1, 1], ALPHABET),
        ([2, 1], ALPHABET),
        ([3, 1], SYMMETRIC),
        ([2, 2], SYMMETRIC),
    ];
    let swap_keys = |set: &Vec<Vec<Op>>| -> Vec<Vec<Op>> {
        let swap = |script: &Vec<Op>| {
            script
                .iter()
                .map(|&(kind, slot)| (kind, 1 - slot))
                .collect()
        };
        set.iter().map(swap).collect()
    };
    let mut sets = Vec::new();
    for &([a, b], alphabet) in SHAPES {
        for first in scripts_of(a, alphabet) {
            for second in scripts_of(b, alphabet) {
                let set = vec![first.clone(), second];
                let writes = set.iter().flatten().any(|&(kind, _)| kind != Kind::Get);
                let mirrored = (a == b && set[0] > set[1])
                    || (alphabet == SYMMETRIC && {
                        let mut swapped = swap_keys(&set);
                        if a == b {
                            swapped.sort();
                        }
                        swapped < set
                    });
                if writes && !mirrored {
                    sets.push(set);
                }
            }
        }
    }
    sets
}

/// A fresh shard directory for one test, on tmpfs when there is one.
fn shard_dir(label: &str) -> PathBuf {
    let shm = Path::new("/dev/shm");
    let root = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    root.join(format!("p4lru-explorer-{label}-{}", std::process::id()))
}

/// Runs the whole scope against `protocol`, split between two workers:
/// the number of script sets and schedules, or the first violation (the
/// first worker's, when both find one).
fn exhaust(protocol: Protocol) -> Result<(usize, usize), String> {
    const WORKERS: usize = 2;
    let sets = script_sets();
    let stop = AtomicBool::new(false);
    let outcomes: Vec<Result<usize, String>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|worker| {
                let (sets, stop) = (&sets, &stop);
                scope.spawn(move || {
                    let dir = shard_dir(&format!("{protocol:?}-{worker}"));
                    let mut recoveries = Recoveries::new();
                    let mut schedules = 0;
                    let mut outcome = Ok(());
                    for scripts in sets.iter().skip(worker).step_by(WORKERS) {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        match every_schedule(scripts, protocol, &dir, &mut recoveries) {
                            Ok(ran) => schedules += ran,
                            Err(e) => {
                                stop.store(true, Ordering::Relaxed);
                                outcome = Err(e);
                                break;
                            }
                        }
                    }
                    let _ = fs::remove_dir_all(&dir);
                    let _ = fs::remove_dir_all(dir.with_extension("crashed"));
                    outcome.map(|()| schedules)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a worker panicked"))
            .collect()
    });
    let mut schedules = 0;
    for outcome in outcomes {
        schedules += outcome?;
    }
    Ok((sets.len(), schedules))
}

#[test]
fn no_schedule_or_crash_loses_an_ack() {
    let started = std::time::Instant::now();
    let (sets, schedules) = exhaust(Protocol::Real).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "{schedules} schedules of {sets} script sets, crashed after every step, in {:?}",
        started.elapsed()
    );
    assert!(schedules > 1_000, "the scope shrank: {schedules} schedules");
}

/// The same exhaustive run, with GETs admitted past buffered records.
#[test]
#[should_panic(expected = "acked read not durable")]
fn the_explorer_catches_a_get_admitted_past_buffered_records() {
    exhaust(Protocol::GetSkipsBuffer).unwrap_or_else(|e| panic!("{e}"));
}

/// The same exhaustive run, with each cut released before it runs.
#[test]
#[should_panic(expected = "acked write lost")]
fn the_explorer_catches_a_batch_released_before_its_cut_ran() {
    exhaust(Protocol::ReleaseBeforeRun).unwrap_or_else(|e| panic!("{e}"));
}

/// The same exhaustive run, with each cut released before its fsync: only
/// the crashes that keep less than the written records can tell.
#[test]
#[should_panic(expected = "acked write lost")]
fn the_explorer_catches_a_batch_released_before_its_fsync() {
    exhaust(Protocol::ReleaseBeforeFsync).unwrap_or_else(|e| panic!("{e}"));
}

/// The same exhaustive run, with `committing` cleared at the cut.
#[test]
#[should_panic(expected = "acked read not durable")]
fn the_explorer_catches_committing_cleared_at_the_cut() {
    exhaust(Protocol::ClearAtCut).unwrap_or_else(|e| panic!("{e}"));
}

/// The schedule each defect was first caught on, replayed step by step:
/// loop 1 SETs key 0, and loop 0 GETs it at once (caught without the
/// buffered check), or the commit thread cuts and reports the SET synced
/// before it runs or before its fsync (caught releasing early), or before
/// the GET comes (caught clearing `committing` at the cut). On each, the
/// real protocol holds the GET, or the SET's ack, until the fsync.
#[test]
fn each_defect_fails_on_its_own_schedule_and_the_real_gate_passes_it() {
    let scripts = [vec![(Kind::Get, 0)], vec![(Kind::Set, 0)]];
    let dir = shard_dir("named");
    let mut recoveries = Recoveries::new();
    for (protocol, schedule, property) in [
        (
            Protocol::GetSkipsBuffer,
            &[1, 0][..],
            "acked read not durable",
        ),
        (Protocol::ReleaseBeforeRun, &[1, 1, 1], "acked write lost"),
        (
            Protocol::ReleaseBeforeFsync,
            &[1, 1, 1, 1],
            "acked write lost",
        ),
        (
            Protocol::ClearAtCut,
            &[1, 1, 1, 0],
            "acked read not durable",
        ),
    ] {
        let mut run = |protocol| {
            explore(
                &scripts,
                schedule,
                protocol,
                &dir,
                0,
                false,
                &mut recoveries,
            )
        };
        run(Protocol::Real)
            .unwrap_or_else(|e| panic!("the real gate on {protocol:?}'s schedule: {e}"));
        let caught = run(protocol).unwrap_err();
        assert!(caught.starts_with(property), "{protocol:?}: {caught}");
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(dir.with_extension("crashed"));
}
