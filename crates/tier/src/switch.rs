//! The switch tier: LruIndex's series-connected P4LRU3 arrays holding the
//! cached records themselves, and the per-request protocol that keeps them
//! coherent with the server behind it.
//!
//! Values sit where P4LRU keeps them (PAPER.md §2.2): each record lives in
//! its unit's value slot, at `S_lru` of its key's position, and moves only
//! when a cascade carries it to the tail of the next level. [`SwitchTier`]
//! holds that series itself, sized by [`index_series`] exactly as a
//! [`p4lru_lruindex::SeriesIndex`] is (15 B of index SRAM per entry), so
//! it caches the keys the index would, with no second store, address or
//! allocator beside it.
//!
//! A request crosses the tier in two sans-IO steps, [`SwitchTier::begin`]
//! before the upstream round trip and [`SwitchTier::finish`] after it, and
//! a connection's pipelined burst crosses it as one *turn* of them,
//! [`SwitchTier::begin_turn`] / [`SwitchTier::finish_turn`]. Whoever owns
//! the sockets (`p4lru_tierd`'s connection threads, the tests' in-memory
//! upstreams, the interleaving explorer) calls those and nothing else, so
//! the three coherence rules (DESIGN.md §11) are written exactly once, here:
//!
//! 1. **Invalidate-before-forward** (`begin`) — every SET/DEL expels the
//!    switch copy *before* being forwarded, so a later GET cannot hit
//!    stale data.
//! 2. **Stamp-guarded admission** (`begin` hands out the epoch, `finish`
//!    checks it) — `epoch` is a clock that every invalidation advances, and
//!    each invalidation writes the advanced clock into the stamp of its
//!    key's *partition* (a fixed power-of-two table keyed by the tier's
//!    seed). A GET miss records the clock before its server round-trip;
//!    the fetched value is admitted unless its partition's stamp is now
//!    **newer** than that. Without the guard, a concurrent writer could
//!    slip a SET between the server read and the admission, re-installing
//!    the overwritten value. The test is `>`, not `!=`: a stamp at or
//!    below the recorded clock is an invalidation that was over before the
//!    GET began, which the GET's own lookup already saw. The stamp is
//!    written for keys the switch does not hold too — the danger is
//!    precisely the reply in flight for a key that was never admitted. A
//!    write to another key of the same partition drops the reply as well
//!    (conservative, and counted as a stale drop); a write anywhere else
//!    no longer does, which is what lets many requests be in flight.
//! 3. **Invalidate-again-on-ack** (`finish`) — once the server answers a
//!    SET/DEL, and before the client is answered, the key is invalidated a
//!    second time. A GET that missed after rule 1's invalidation, was
//!    applied upstream *ahead of* the write and admitted the old value
//!    under a still-unstamped partition is expelled; one still in flight
//!    fails rule 2's guard.
//!
//! A turn adds one more promise, read-your-writes inside a pipelined
//! burst: `SET k`, `GET k` sent back to back must read the SET. It holds
//! because a turn's begins run in wire order with nothing in between —
//! `begin_turn` takes the whole burst under one `&mut self` — so the GET
//! misses behind its own SET's invalidation and follows it up the same
//! FIFO upstream connection. Begun one by one, another connection's
//! admission could land between the two and the GET would hit the old
//! value (root `tests/tier_coherence.rs` shows exactly that schedule).

use std::sync::Arc;

use p4lru_core::hashing::hash_u64;
use p4lru_core::series::P4Lru3Series;
use p4lru_kvstore::Record;
use p4lru_lruindex::{index_series, QueryHit, ReplyOutcome};
use p4lru_server::shard::record_from_bytes;
use p4lru_server::{Request, Response};

use crate::counters::TierCounters;

/// Switch-tier sizing. Mirrors the paper's deployment: `levels` series
/// arrays sharing `memory_bytes` of index SRAM (15 B/entry — 8-byte key,
/// 6-byte address, 1-byte state); each entry keeps its record in its
/// unit's value slot.
#[derive(Clone, Debug)]
pub struct SwitchTierConfig {
    /// Series levels (the paper deploys 4).
    pub levels: usize,
    /// Index memory across all levels, bytes.
    pub memory_bytes: usize,
    /// Hash seed.
    pub seed: u64,
}

impl Default for SwitchTierConfig {
    fn default() -> Self {
        Self {
            levels: 4,
            memory_bytes: 64 * 1024,
            seed: 0x7134,
        }
    }
}

/// log2 of the number of invalidation stamps. A forwarded GET is dropped
/// for every stamp written while it is in flight, at 1 in `2^PARTITION_BITS`
/// each; 8 KiB of stamps keeps that under a percent with a few dozen
/// requests in flight at a 5 % write share.
const PARTITION_BITS: u32 = 10;

/// What [`SwitchTier::begin`] decided for one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Answered at the switch; nothing goes upstream.
    Reply(Response),
    /// Forward the request upstream, then hand its answer and this epoch
    /// to [`SwitchTier::finish`] before answering the client.
    Forward {
        /// The invalidation clock the request was begun at.
        epoch: u64,
    },
}

/// The in-network front cache of a two-tier deployment.
pub struct SwitchTier {
    /// The cached records, each in its key's value slot.
    series: P4Lru3Series<u64, Record>,
    /// The invalidation clock: bumped by every invalidation, handed out by
    /// [`Self::begin`].
    epoch: u64,
    /// Per partition, the clock of its latest invalidation; guards
    /// miss-reply admission.
    invalidated_at: Box<[u64]>,
    /// Seed of the key → partition hash.
    seed: u64,
    counters: Arc<TierCounters>,
}

impl SwitchTier {
    /// Builds the tier with a fresh counter block.
    pub fn new(config: &SwitchTierConfig) -> Self {
        Self::with_counters(config, Arc::new(TierCounters::default()))
    }

    /// Builds the tier around an existing (shared) counter block.
    pub fn with_counters(config: &SwitchTierConfig, counters: Arc<TierCounters>) -> Self {
        Self {
            series: index_series(config.levels, config.memory_bytes, config.seed),
            epoch: 0,
            invalidated_at: vec![0; 1 << PARTITION_BITS].into_boxed_slice(),
            seed: config.seed,
            counters,
        }
    }

    /// Which invalidation stamp guards `key`.
    fn partition(&self, key: u64) -> usize {
        (hash_u64(self.seed, key) >> (u64::BITS - PARTITION_BITS)) as usize
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.series.capacity()
    }

    /// Cached entries right now (a scan of every unit).
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Is the tier empty?
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The shared counter block.
    pub fn counters(&self) -> &Arc<TierCounters> {
        &self.counters
    }

    /// The first half of a request's trip through the tier, run before
    /// anything is sent upstream. A GET is looked up and a hit answered on
    /// the spot; a SET/DEL expels the switch copy (rule 1). Everything not
    /// answered here is to be forwarded, and [`Self::finish`] called with
    /// the upstream's answer. Only GET/SET/DEL are the tier's business: any
    /// other request is forwarded untouched and uncounted.
    pub fn begin(&mut self, request: &Request) -> Step {
        match *request {
            Request::Get { key } => {
                self.counters.get();
                if let Some((_level, record)) = self.lookup(key) {
                    return Step::Reply(Response::Value(record.to_vec()));
                }
            }
            Request::Set { key, .. } => {
                self.counters.set();
                self.invalidate(key);
            }
            Request::Del { key } => {
                self.counters.del();
                self.invalidate(key);
            }
            _ => return Step::Forward { epoch: self.epoch },
        }
        self.counters.forward();
        Step::Forward { epoch: self.epoch }
    }

    /// The second half: the upstream answered a request [`Self::begin`]
    /// forwarded at `epoch`, and the client has not been answered yet.
    /// A GET's value is admitted behind the stamp guard (rule 2). A SET/DEL
    /// invalidates its key again (rule 3) whatever the answer was — a write
    /// that errored may still have been applied.
    pub fn finish(&mut self, request: &Request, epoch: u64, response: &Response) {
        match (request, response) {
            (&Request::Get { key }, Response::Value(value)) => {
                self.admit(key, record_from_bytes(value), epoch);
            }
            (&Request::Set { key, .. } | &Request::Del { key }, _) => {
                self.invalidate(key);
            }
            _ => {}
        }
    }

    /// One connection's turn, first half: begins every request of a
    /// pipelined burst in wire order, with no other connection's step in
    /// between (the caller holds the tier for the whole call). The requests
    /// that came back [`Step::Forward`] go upstream in this order on one
    /// FIFO connection; their answers go to [`Self::finish_turn`].
    pub fn begin_turn(&mut self, requests: &[Request]) -> Vec<Step> {
        requests.iter().map(|request| self.begin(request)).collect()
    }

    /// One connection's turn, second half: `answers` holds the upstream's
    /// answer to each forwarded request of the turn, in wire order. Finishes
    /// them in that order and returns the turn's replies, switch hits and
    /// upstream answers merged back into wire order. A forward the upstream
    /// never answered is handed in as the `Err` the client will get: its
    /// `finish` still runs, because a write that errored may have been
    /// applied (rule 3).
    pub fn finish_turn(
        &mut self,
        requests: &[Request],
        steps: Vec<Step>,
        answers: impl IntoIterator<Item = Response>,
    ) -> Vec<Response> {
        let mut answers = answers.into_iter();
        requests
            .iter()
            .zip(steps)
            .map(|(request, step)| match step {
                Step::Reply(response) => response,
                Step::Forward { epoch } => {
                    let answer = answers.next().expect("one answer per forwarded request");
                    self.finish(request, epoch, &answer);
                    answer
                }
            })
            .collect()
    }

    /// The invalidation clock right now. A GET records this before its
    /// server round-trip and hands it back to [`Self::admit`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The switch's data-plane GET path: query every level read-only, and
    /// on a hit promote the entry (the reply pass) and read its record.
    /// Counts the hit per level. Returns `None` on a miss — the caller
    /// forwards.
    pub fn lookup(&mut self, key: u64) -> Option<(usize, Record)> {
        let (hit, record) = self.series.query(&key);
        let (QueryHit::Level(level), Some(&record)) = (hit, record) else {
            return None;
        };
        match self.series.apply_reply(hit, key, record) {
            ReplyOutcome::Promoted => {}
            outcome => unreachable!("promotion of a just-queried key: {outcome:?}"),
        }
        self.counters.hit(level);
        Some((level, record))
    }

    /// Admits a miss reply fetched from the server, unless the key's
    /// partition was invalidated after `epoch` was read (the guard drops the
    /// reply exactly as the switch drops a reply whose `cached_flag` went
    /// stale).
    pub fn admit(&mut self, key: u64, record: Record, epoch: u64) -> bool {
        if self.invalidated_at[self.partition(key)] > epoch {
            self.counters.stale_drop();
            return false;
        }
        let (hit, _) = self.series.query(&key);
        match self.series.apply_reply(hit, key, record) {
            // A racing reader's reply admitted the key already (two
            // pipelined GETs of the same cold key): it was promoted rather
            // than cascade-inserted twice; refresh its record in place.
            ReplyOutcome::Promoted => {
                *self.series.get_mut(&key).expect("a promoted key is cached") = record;
            }
            ReplyOutcome::InsertedFresh { expelled } => {
                self.counters.insert();
                if expelled.is_some() {
                    self.counters.eviction();
                }
            }
            // Unreachable: `&mut self` is held since the query, so the key
            // is still where it found it.
            outcome => unreachable!("admission after a query produced {outcome:?}"),
        }
        true
    }

    /// Expels the switch copy of a key (invalidate-before-forward), bumps
    /// the clock and stamps the key's partition with it. The stamp is
    /// written even when the key is not cached: an in-flight miss reply for
    /// that key may still be on its way back, and admitting it would
    /// resurrect the overwritten value.
    pub fn invalidate(&mut self, key: u64) -> bool {
        self.epoch += 1;
        self.invalidated_at[self.partition(key)] = self.epoch;
        let expelled = self.series.remove(&key).is_some();
        if expelled {
            self.counters.invalidation();
        }
        expelled
    }

    /// Internal consistency of every level of the series.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.series.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;

    fn tier(memory_bytes: usize) -> SwitchTier {
        SwitchTier::new(&SwitchTierConfig {
            levels: 3,
            memory_bytes,
            seed: 0xABC,
        })
    }

    fn record(byte: u8) -> Record {
        [byte; p4lru_kvstore::VALUE_SIZE]
    }

    #[test]
    fn miss_admit_hit_roundtrip() {
        let mut t = tier(4096);
        assert_eq!(t.lookup(42), None);
        let epoch = t.epoch();
        assert!(t.admit(42, record(7), epoch));
        let (level, rec) = t.lookup(42).expect("admitted key hits");
        assert_eq!(level, 0);
        assert_eq!(rec, record(7));
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn invalidation_expels_and_bumps_epoch() {
        let mut t = tier(4096);
        let epoch = t.epoch();
        t.admit(5, record(1), epoch);
        assert!(t.invalidate(5));
        assert_eq!(t.lookup(5), None);
        assert!(!t.invalidate(5), "second invalidate finds nothing");
        assert_eq!(t.epoch(), epoch + 2, "every invalidate bumps the epoch");
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn epoch_guard_drops_raced_admission() {
        let mut t = tier(4096);
        // GET misses and records the epoch; a SET invalidates (key absent,
        // but the epoch still moves) before the reply returns.
        let epoch = t.epoch();
        t.invalidate(9);
        assert!(!t.admit(9, record(3), epoch), "stale reply must be dropped");
        assert_eq!(t.lookup(9), None);
        assert_eq!(t.counters().snapshot(3).stale_drops, 1);
        t.check_invariants().unwrap();
    }

    fn get(key: u64) -> Request {
        Request::Get { key }
    }

    fn set(key: u64) -> Request {
        Request::Set {
            key,
            value: b"new".to_vec(),
        }
    }

    /// Begins a request that must miss and returns its epoch.
    fn forwarded(t: &mut SwitchTier, request: &Request) -> u64 {
        match t.begin(request) {
            Step::Forward { epoch } => epoch,
            Step::Reply(response) => panic!("{request:?} answered at the switch: {response:?}"),
        }
    }

    #[test]
    fn a_forwarded_get_is_admitted_and_hits_until_a_write_begins() {
        let mut t = tier(4096);
        let epoch = forwarded(&mut t, &get(42));
        t.finish(&get(42), epoch, &Response::Value(b"short".to_vec()));
        assert_eq!(
            t.begin(&get(42)),
            Step::Reply(Response::Value(record_from_bytes(b"short").to_vec())),
            "the switch serves the server's padded record image"
        );
        // NOT_FOUND and errors admit nothing.
        let epoch = forwarded(&mut t, &get(43));
        t.finish(&get(43), epoch, &Response::NotFound);
        t.finish(&get(43), epoch, &Response::Err("busy".to_owned()));
        forwarded(&mut t, &get(43));
        let snap = t.counters().snapshot(3);
        assert_eq!((snap.gets, snap.hits, snap.forwarded), (4, 1, 3));
        // Anything but GET/SET/DEL passes through untouched and uncounted.
        assert_eq!(t.begin(&Request::Ping), Step::Forward { epoch });
        assert_eq!(t.counters().snapshot(3).forwarded, 3);
        // Rule 1: a write expels the copy before it is even forwarded.
        forwarded(&mut t, &Request::Del { key: 42 });
        forwarded(&mut t, &get(42));
        let snap = t.counters().snapshot(3);
        assert_eq!((snap.dels, snap.invalidations), (1, 1));
        t.check_invariants().unwrap();
    }

    /// The first key past `of` whose partition is (or is not) `of`'s.
    fn key_by_partition(t: &SwitchTier, of: u64, same: bool) -> u64 {
        (of + 1..)
            .find(|&key| (t.partition(key) == t.partition(of)) == same)
            .expect("some key lands either way")
    }

    #[test]
    fn rule_2_a_write_between_a_miss_and_its_admission_wins() {
        let mut t = tier(4096);
        let neighbour = key_by_partition(&t, 7, true);
        let stranger = key_by_partition(&t, 7, false);
        // A SET begun and acked between a GET's miss and its reply drops the
        // reply if it wrote the GET's key, or (conservatively) another key
        // of its partition; a write anywhere else leaves it alone.
        for (written, dropped) in [(7, true), (neighbour, true), (stranger, false)] {
            let drops_before = t.counters().snapshot(3).stale_drops;
            let epoch = forwarded(&mut t, &get(7));
            let set_epoch = forwarded(&mut t, &set(written));
            t.finish(&set(written), set_epoch, &Response::Ok);
            t.finish(&get(7), epoch, &Response::Value(vec![1]));
            assert_eq!(
                matches!(t.begin(&get(7)), Step::Forward { .. }),
                dropped,
                "GET of 7 after a racing SET of {written}"
            );
            assert_eq!(
                t.counters().snapshot(3).stale_drops - drops_before,
                u64::from(dropped)
            );
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn a_turn_reads_its_own_writes_and_answers_in_wire_order() {
        let mut t = tier(4096);
        let epoch = t.epoch();
        t.admit(5, record(1), epoch);
        let turn = [get(5), set(5), get(5), Request::Del { key: 6 }, get(6)];
        let steps = t.begin_turn(&turn);
        assert!(matches!(steps[0], Step::Reply(_)), "cached before the SET");
        assert!(
            steps[1..].iter().all(|s| matches!(s, Step::Forward { .. })),
            "the GET behind its own turn's SET misses: {steps:?}"
        );
        // One answer per forward, merged back around the hit.
        let answers = [
            Response::Ok,
            Response::Value(vec![2]),
            Response::Err("upstream request failed: gone".to_owned()),
            Response::NotFound,
        ];
        let replies = t.finish_turn(&turn, steps, answers.clone());
        assert_eq!(replies[0], Response::Value(record(1).to_vec()));
        assert_eq!(replies[1..], answers);
        // Rule 3 ran for both writes, the errored DEL included: the value
        // fetched behind the SET was dropped, and nothing is cached.
        assert!(t.is_empty());
        assert_eq!(t.counters().snapshot(3).stale_drops, 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn rule_3_a_write_ack_expels_what_a_racing_get_admitted() {
        for answer in [Response::Ok, Response::Err("timed out".to_owned())] {
            let mut t = tier(4096);
            let set_epoch = forwarded(&mut t, &set(9));
            // The GET misses after rule 1, reads the old value upstream
            // ahead of the SET, and admits it under a still-current epoch.
            let epoch = forwarded(&mut t, &get(9));
            t.finish(&get(9), epoch, &Response::Value(vec![1]));
            assert!(matches!(t.begin(&get(9)), Step::Reply(_)));
            t.finish(&set(9), set_epoch, &answer);
            forwarded(&mut t, &get(9));
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn duplicate_admission_refreshes_in_place() {
        let mut t = tier(4096);
        let epoch = t.epoch();
        assert!(t.admit(11, record(1), epoch));
        // A second pipelined reply for the same key, same epoch.
        assert!(t.admit(11, record(2), epoch));
        assert_eq!(t.len(), 1, "no duplicate entry");
        assert_eq!(t.lookup(11).unwrap().1, record(2));
        t.check_invariants().unwrap();
    }

    #[test]
    fn churn_keeps_the_series_consistent() {
        let mut t = tier(2048);
        let capacity = t.capacity();
        for k in 0..(capacity as u64 * 5) {
            let epoch = t.epoch();
            t.admit(k, record(k as u8), epoch);
        }
        assert!(t.len() <= capacity);
        t.check_invariants().unwrap();
        let snap = t.counters().snapshot(3);
        assert!(snap.evictions > 0, "churn must evict");
        // Invalidate every key ever admitted: the series empties and
        // stays consistent.
        for k in 0..(capacity as u64 * 5) {
            t.invalidate(k);
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn a_completely_full_index_still_admits() {
        let mut t = tier(180);
        let mut key = 0;
        while t.len() < t.capacity() {
            let epoch = t.epoch();
            assert!(t.admit(key, record(key as u8), epoch));
            // An evictee lands on the tail of a deeper unit; only a hit
            // moves it up and lets the unit take another.
            for cached in 0..=key {
                t.lookup(cached);
            }
            key += 1;
            assert!(key < 10_000, "the index never filled");
        }
        // No entry is free, so each admission evicts, and the newcomer's
        // record is the one its key reads back.
        for key in key..key + 50 {
            let epoch = t.epoch();
            assert!(t.admit(key, record(key as u8), epoch));
            assert_eq!(t.lookup(key).unwrap().1, record(key as u8));
            assert_eq!(t.len(), t.capacity());
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn per_level_hits_accumulate() {
        let mut t = tier(2048);
        for k in 0..(t.capacity() as u64) {
            let epoch = t.epoch();
            t.admit(k, record(1), epoch);
        }
        let mut hits = 0;
        for k in 0..(t.capacity() as u64) {
            if t.lookup(k).is_some() {
                hits += 1;
            }
        }
        let snap = t.counters().snapshot(3);
        assert_eq!(snap.hits, hits);
        assert_eq!(snap.level_hits.iter().sum::<u64>(), hits);
        assert_eq!(snap.level_hits.len(), 3);
        assert!(
            snap.level_hits[1] + snap.level_hits[2] > 0,
            "deep levels hit"
        );
    }

    /// A record no other admission of the run carries: admission `n`, key.
    fn distinct_record(n: u64, key: u64) -> Record {
        let mut record = record(0);
        record[..8].copy_from_slice(&n.to_le_bytes());
        record[56..].copy_from_slice(&key.to_le_bytes());
        record
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Value follows key: on a ~200 B tier (9 entries) driven over 27
        /// keys, so every few admissions cascade and evict, a hit returns
        /// the record last admitted for its key since the key was last
        /// invalidated. Some admissions carry an old epoch, so the stamp
        /// guard drops a share of them.
        #[test]
        fn a_hit_returns_the_last_record_admitted_since_the_last_invalidation(
            steps in prop::collection::vec((0u8..4, any::<u64>(), 0u64..3), 1..300),
        ) {
            let mut t = tier(200);
            let keys = 3 * t.capacity() as u64;
            let mut model: HashMap<u64, Record> = HashMap::new();
            for (n, &(kind, key, lag)) in steps.iter().enumerate() {
                let key = key % keys;
                match kind {
                    0 | 1 => {
                        if let Some((_level, record)) = t.lookup(key) {
                            prop_assert_eq!(Some(&record), model.get(&key), "step {}: key {}", n, key);
                        }
                    }
                    2 => {
                        let record = distinct_record(n as u64, key);
                        if t.admit(key, record, t.epoch().saturating_sub(lag)) {
                            model.insert(key, record);
                        }
                    }
                    _ => {
                        t.invalidate(key);
                        model.remove(&key);
                    }
                }
                prop_assert!(t.len() <= t.capacity(), "step {}", n);
                if let Err(e) = t.check_invariants() {
                    panic!("step {n}: {e}");
                }
            }
            if steps.len() >= 200 {
                prop_assert!(t.counters().snapshot(3).evictions > 0);
            }
        }
    }
}
