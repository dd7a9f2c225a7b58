//! Workloads, the op tape generated from a seed, and the model that checks
//! every reply.
//!
//! The tape is built before any timed phase and is the only thing the
//! serving stack ever sees of a workload. Op `k` of a tape belongs to
//! connection `k % CONNS`; a write's key is forced to that connection's
//! parity, so each key has one writer and its expected value is known
//! without any coordination between the generator threads.

use std::collections::HashMap;

use p4lru_kvstore::db::record_for;
use p4lru_kvstore::slab::Record;
use p4lru_kvstore::VALUE_SIZE;
use p4lru_server::Response;
use p4lru_traffic::ycsb::ScrambledIndex;
use p4lru_traffic::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator connections (one thread each): the reference box has 2 vCPUs.
pub const CONNS: usize = 2;

/// Ops on a tape. Phases that outlast it wrap around.
pub const TAPE_OPS: usize = 1 << 22;

/// How keys are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Zipf with this exponent, ranks scrambled over the key space.
    Zipf(f64),
    /// Uniform (the repo's `Zipf::new` rejects an exponent of 0, so this
    /// stream is the benchmark's own).
    Uniform,
}

/// Which daemons stand in front of the generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// `p4lru_serverd` alone, in memory.
    Volatile,
    /// `p4lru_serverd --data-dir … --sync always`.
    Durable,
    /// `p4lru_tierd` in front of a volatile `p4lru_serverd`.
    Tier,
}

/// One workload: traffic mix, topology and the pinned open-loop rate.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Key space `0..keys`, all preloaded by `serverd --items`.
    pub keys: u64,
    /// Key popularity.
    pub dist: KeyDist,
    /// Share of SETs, percent.
    pub set_pct: u32,
    /// Share of DELs, percent (the rest are GETs).
    pub del_pct: u32,
    /// Daemons under test.
    pub topology: Topology,
    /// Open-loop offered rate, ops/s. Pinned, never derived from a peak.
    pub rate: u64,
}

/// The four workloads, in the order they are run.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_hot",
        keys: 100_000,
        dist: KeyDist::Zipf(0.99),
        set_pct: 0,
        del_pct: 0,
        topology: Topology::Volatile,
        rate: 30_000,
    },
    Workload {
        name: "read_cold",
        keys: 4_000_000,
        dist: KeyDist::Uniform,
        set_pct: 0,
        del_pct: 0,
        topology: Topology::Volatile,
        rate: 30_000,
    },
    Workload {
        name: "write_durable",
        keys: 1_000_000,
        dist: KeyDist::Zipf(0.9),
        set_pct: 45,
        del_pct: 5,
        topology: Topology::Durable,
        // Half the issue's 10,000. At 10k nearly every write commits alone
        // and the shard threads are about two-thirds busy in fsync: when
        // the box runs a fifth slower the queue stops draining (p50 0.55 →
        // 0.8 → 49 ms in one set of runs, spread 38 %). At 5k the same
        // minutes gave 339–442 µs (9 %).
        rate: 5_000,
    },
    Workload {
        name: "tier_mixed",
        keys: 1_000_000,
        dist: KeyDist::Zipf(0.9),
        set_pct: 5,
        del_pct: 0,
        topology: Topology::Tier,
        // A quarter of the issue's 10,000. The schedule is periodic: at
        // 10k the two connections' sends alternate 100 µs apart, which is
        // one round trip through the tier (81 µs idle), so a run locks
        // into "requests never overlap" (p50 81–96 µs) or "always overlap"
        // (120–150 µs) and p50 spreads 52 % over runs of the same code
        // (24 % at 5k, 35 % at 20k). At 2.5k every op finds the tier idle
        // (11 %).
        rate: 2_500,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// What an op does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Read a key.
    Get,
    /// Write a key.
    Set,
    /// Delete a key.
    Del,
}

/// One op of a tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: Kind,
    /// On which key.
    pub key: u64,
}

const KIND_SHIFT: u32 = 62;
const KEY_MASK: u64 = (1 << KIND_SHIFT) - 1;

/// A pre-generated op sequence, one packed word per op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tape {
    words: Vec<u64>,
}

impl Tape {
    /// Generates `ops` ops of `workload` from `seed`. Same arguments, same
    /// tape.
    pub fn generate(workload: &Workload, seed: u64, ops: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7A9E_0000_0000_0000);
        let zipf = match workload.dist {
            KeyDist::Zipf(alpha) => Some((
                Zipf::new(workload.keys, alpha),
                ScrambledIndex::new(workload.keys, seed ^ 0x5EED),
            )),
            KeyDist::Uniform => None,
        };
        let words = (0..ops)
            .map(|k| {
                let mut key = match &zipf {
                    Some((zipf, scramble)) => scramble.apply(zipf.sample(&mut rng) - 1),
                    None => rng.gen_range(0..workload.keys),
                };
                let roll = rng.gen_range(0..100u32);
                let kind = if roll < workload.set_pct {
                    Kind::Set
                } else if roll < workload.set_pct + workload.del_pct {
                    Kind::Del
                } else {
                    Kind::Get
                };
                // One writer per key: a write's key moves onto its
                // connection's parity (key spaces are even-sized). Reads
                // go to any key.
                if kind != Kind::Get {
                    key = key - key % CONNS as u64 + (k % CONNS) as u64;
                }
                key | (kind as u64) << KIND_SHIFT
            })
            .collect();
        Self { words }
    }

    /// Ops on the tape.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the tape holds no op.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Op `k`, wrapping past the end.
    pub fn op(&self, k: usize) -> Op {
        let word = self.words[k % self.words.len()];
        let kind = match word >> KIND_SHIFT {
            0 => Kind::Get,
            1 => Kind::Set,
            _ => Kind::Del,
        };
        Op {
            kind,
            key: word & KEY_MASK,
        }
    }

    /// The packed ops, for comparing tapes.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Last byte of every value the benchmark writes. Preloaded records end in
/// a zero byte, so a reply says which of the two it is.
pub const VALUE_MARK: u8 = 0xA5;

/// The self-describing value of a SET: `[key:8][conn:1][version:8]`, padded
/// to the 64-byte record, closed by [`VALUE_MARK`].
pub fn value_for(key: u64, conn: u8, version: u64) -> Record {
    let mut r = [0u8; VALUE_SIZE];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8] = conn;
    r[9..17].copy_from_slice(&version.to_le_bytes());
    r[VALUE_SIZE - 1] = VALUE_MARK;
    r
}

/// What the reply to an op must be, fixed when the op is sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The preloaded record of the key.
    Preloaded,
    /// This connection's own value at this version.
    Own(u64),
    /// NOT_FOUND: this connection deleted the key.
    Absent,
    /// Another connection's key: any value that names the key and, if
    /// written, its one writer.
    Foreign,
    /// OK.
    Ok,
    /// The reply to a DEL: OK when the key existed, NOT_FOUND otherwise.
    Deleted {
        /// Whether the key existed when the DEL was sent.
        existed: bool,
    },
    /// PONG.
    Pong,
}

/// What one connection last did to one of its keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Written at this version.
    Written(u64),
    /// Deleted.
    Deleted,
}

/// What a reply turned out to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// What the model demands.
    Correct,
    /// A value this connection wrote to the key (or the preloaded record)
    /// that a later write of its own, already acknowledged when the GET was
    /// sent, had replaced: a stale read.
    Stale,
    /// Anything else.
    Wrong,
}

/// One connection's model of the keys it writes.
#[derive(Clone, Debug)]
pub struct Model {
    conn: u8,
    version: u64,
    dels: bool,
    slots: HashMap<u64, Slot>,
}

impl Model {
    /// The model of connection `conn` under `workload`.
    pub fn new(conn: u8, workload: &Workload) -> Self {
        Self {
            conn,
            version: 0,
            dels: workload.del_pct > 0,
            slots: HashMap::new(),
        }
    }

    /// This connection's number.
    pub fn conn(&self) -> u8 {
        self.conn
    }

    /// Keys this connection has written or deleted, with their last state.
    pub fn slots(&self) -> &HashMap<u64, Slot> {
        &self.slots
    }

    fn owns(&self, key: u64) -> bool {
        key % CONNS as u64 == u64::from(self.conn)
    }

    /// What a GET of `key` sent now must return.
    pub fn expect_get(&self, key: u64) -> Expect {
        if !self.owns(key) {
            return Expect::Foreign;
        }
        match self.slots.get(&key) {
            None => Expect::Preloaded,
            Some(Slot::Written(v)) => Expect::Own(*v),
            Some(Slot::Deleted) => Expect::Absent,
        }
    }

    /// Registers a SET of an own key and returns the value to send.
    pub fn set(&mut self, key: u64) -> Record {
        debug_assert!(self.owns(key));
        self.version += 1;
        self.slots.insert(key, Slot::Written(self.version));
        value_for(key, self.conn, self.version)
    }

    /// Registers a DEL of an own key and returns the expected reply.
    pub fn del(&mut self, key: u64) -> Expect {
        debug_assert!(self.owns(key));
        let existed = self.slots.insert(key, Slot::Deleted) != Some(Slot::Deleted);
        Expect::Deleted { existed }
    }

    /// Judges `response` to an op on `key` against what `expect` demands.
    pub fn check(&self, expect: Expect, key: u64, response: &Response) -> Verdict {
        let correct = match (expect, response) {
            (Expect::Preloaded, Response::Value(v)) => v[..] == record_for(key),
            (Expect::Own(version), Response::Value(v)) => {
                v[..] == value_for(key, self.conn, version)
            }
            (Expect::Absent, Response::NotFound) => true,
            (Expect::Foreign, Response::Value(v)) => {
                v.len() == VALUE_SIZE
                    && v[..8] == key.to_le_bytes()
                    && (v[..] == record_for(key)
                        || (v[VALUE_SIZE - 1] == VALUE_MARK
                            && u64::from(v[8]) == key % CONNS as u64))
            }
            (Expect::Foreign, Response::NotFound) => self.dels,
            (Expect::Ok, Response::Ok) => true,
            (Expect::Deleted { existed: true }, Response::Ok) => true,
            (Expect::Deleted { existed: false }, Response::NotFound) => true,
            (Expect::Pong, Response::Pong) => true,
            _ => false,
        };
        if correct {
            return Verdict::Correct;
        }
        // An earlier state of an own key: versions only grow, so any value
        // of this connection's other than the expected one is older.
        let newest = match expect {
            Expect::Own(version) => version,
            Expect::Absent => u64::MAX,
            _ => return Verdict::Wrong,
        };
        match response {
            Response::Value(v) if v[..] == record_for(key) => Verdict::Stale,
            Response::Value(v) if v.len() == VALUE_SIZE => {
                let mut version = [0; 8];
                version.copy_from_slice(&v[9..17]);
                let version = u64::from_le_bytes(version);
                if version < newest && v[..] == value_for(key, self.conn, version) {
                    Verdict::Stale
                } else {
                    Verdict::Wrong
                }
            }
            _ => Verdict::Wrong,
        }
    }
}
