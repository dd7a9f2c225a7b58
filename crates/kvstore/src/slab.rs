//! The record heap, with 48-bit record addresses.
//!
//! LruIndex caches "the index (specifically, the 48-bit memory address) of
//! the key in the database … values of variable lengths (64 bytes in our
//! configuration)" (§3.2). [`RecordHeap`] is that heap, holding each
//! 64-byte [`Record`] at its size: only its non-zero 8-byte words
//! ([`crate::sparse`]), in the arena of its *mask*. A slot of the arena of
//! mask `m` is `popcount(m)` words, but at least two, so a preloaded record
//! takes 16 bytes and so does an all-zero one. An [`Addr48`] names the
//! arena in its top 8 bits and the slot in its low 40, so a read is O(1)
//! by address and decodes into a [`RecordBuf`].
//!
//! A record keeps the address it was inserted at — its *home* — until it
//! is removed, as the paper's values never move (§2.2). An overwrite with
//! the home's mask writes the home in place. Any other mask puts the words
//! in a slot of that mask's arena — the *target* — and leaves a forward to
//! it in the home, which is why a slot holds at least two words. A read
//! follows at most one forward, and a target's address never leaves the
//! heap, so the index and every cache of it hold home addresses only.

use std::mem::size_of;
use std::ops::Deref;

use crate::btree::Progression;
use crate::sparse::{Sparse, WORDS};

/// Record size in bytes (the paper's configuration).
pub const VALUE_SIZE: usize = 64;

/// A 48-bit record address — what LruIndex caches on the switch: a mask
/// in bits 40..48 and a slot in that mask's arena below. A record's
/// address is its home: the mask is the one it was inserted with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr48(u64);

impl Addr48 {
    /// Maximum representable address.
    pub const MAX: u64 = (1 << 48) - 1;
    /// Bits of the slot within an arena.
    pub const SLOT_BITS: u32 = 40;

    /// Wraps a raw address.
    ///
    /// # Panics
    /// Panics if `raw` does not fit in 48 bits.
    pub fn new(raw: u64) -> Self {
        assert!(raw <= Self::MAX, "address {raw:#x} exceeds 48 bits");
        Self(raw)
    }

    /// The address of slot `slot` in the arena of `mask`.
    ///
    /// # Panics
    /// Panics if `slot` does not fit in [`Self::SLOT_BITS`] bits.
    pub fn at(mask: u8, slot: u64) -> Self {
        assert!(
            slot >> Self::SLOT_BITS == 0,
            "slot {slot:#x} exceeds 40 bits"
        );
        Self(u64::from(mask) << Self::SLOT_BITS | slot)
    }

    /// The raw 48-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The mask of the arena the address is in.
    pub fn mask(self) -> u8 {
        (self.0 >> Self::SLOT_BITS) as u8
    }

    /// The record's slot in its arena.
    pub fn slot(self) -> u64 {
        self.0 & ((1 << Self::SLOT_BITS) - 1)
    }
}

/// A bulk build of same-mask records hands out consecutive addresses in
/// key order, so a leaf of them is a run of step 1 that stores none of
/// them.
impl Progression for Addr48 {
    const MAX: u64 = Addr48::MAX;

    fn to_u64(self) -> Option<u64> {
        Some(self.0)
    }

    fn from_u64(x: u64) -> Self {
        debug_assert!(x <= Self::MAX, "address {x:#x} exceeds 48 bits");
        Self(x)
    }
}

/// One fixed-size record.
pub type Record = [u8; VALUE_SIZE];

/// A record read from the heap, by value: the heap keeps no 64-byte copy
/// to lend, so a read decodes one. Derefs to the [`Record`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecordBuf(pub Record);

impl Deref for RecordBuf {
    type Target = Record;

    fn deref(&self) -> &Record {
        &self.0
    }
}

impl From<Record> for RecordBuf {
    fn from(record: Record) -> Self {
        Self(record)
    }
}

impl PartialEq<Record> for RecordBuf {
    fn eq(&self, other: &Record) -> bool {
        self.0 == *other
    }
}

impl PartialEq<&Record> for RecordBuf {
    fn eq(&self, other: &&Record) -> bool {
        self.0 == **other
    }
}

/// Records in the first chunk of an arena; each later chunk doubles the
/// last until [`FULL_CHUNK`].
const FIRST_CHUNK: u64 = 64;
/// Doublings from [`FIRST_CHUNK`] to [`FULL_CHUNK`].
const RAMP: u32 = 6;
/// Records in every chunk from chunk [`RAMP`] on.
const FULL_CHUNK: u64 = FIRST_CHUNK << RAMP;
/// Slots in the chunks before chunk [`RAMP`] (`FIRST_CHUNK · (2^RAMP − 1)`).
const RAMP_SLOTS: u64 = FULL_CHUNK - FIRST_CHUNK;

/// Records in chunk `k`.
fn chunk_records(k: usize) -> usize {
    (FIRST_CHUNK as usize) << k.min(RAMP as usize)
}

/// The chunk holding `slot` and the slot's place in it.
fn locate(slot: u64) -> (usize, usize) {
    if slot < RAMP_SLOTS {
        let k = (slot / FIRST_CHUNK + 1).ilog2();
        (k as usize, (slot - FIRST_CHUNK * ((1 << k) - 1)) as usize)
    } else {
        let past = slot - RAMP_SLOTS;
        (
            RAMP as usize + (past / FULL_CHUNK) as usize,
            (past % FULL_CHUNK) as usize,
        )
    }
}

/// Words in the narrowest slot: enough for a forward.
const MIN_WIDTH: usize = 2;

/// Tags the second word of a forward, so that the target's address (which
/// may be 0) makes it non-zero.
const FORWARD: u64 = 1 << 63;

/// The target a home slot forwards to, if it holds a forward: a zero first
/// word and a non-zero second. A stored record's first word is non-zero
/// unless it keeps no word at all, and then both words are zero.
fn forward(home: &[u64]) -> Option<Addr48> {
    (home[0] == 0 && home[1] != 0).then(|| Addr48(home[1] ^ FORWARD))
}

/// The slots of one mask: `width` words each, in chunks that are allocated
/// at their full size, so the arena grows without copying (a clone's last
/// chunk, cut to its length, grows like a `Vec`). A slot holds a record's
/// `kept` words, then zeros up to the width. Freed slots are reused before
/// a new one is made.
#[derive(Clone, Debug)]
struct Arena {
    /// Words a record of this mask keeps.
    kept: usize,
    /// Words in a slot: `kept`, but at least [`MIN_WIDTH`].
    width: usize,
    chunks: Vec<Vec<u64>>,
    /// Slots handed out so far, in use or freed.
    slots: u64,
    free: Vec<u64>,
}

impl Arena {
    fn new(mask: u8) -> Self {
        let kept = mask.count_ones() as usize;
        Self {
            kept,
            width: kept.max(MIN_WIDTH),
            chunks: Vec::new(),
            slots: 0,
            free: Vec::new(),
        }
    }

    fn words(&self, slot: u64) -> &[u64] {
        let (chunk, at) = locate(slot);
        &self.chunks[chunk][at * self.width..(at + 1) * self.width]
    }

    fn words_mut(&mut self, slot: u64) -> &mut [u64] {
        let (chunk, at) = locate(slot);
        &mut self.chunks[chunk][at * self.width..(at + 1) * self.width]
    }

    /// Writes a record's `kept` words to `slot`, zeroing the rest.
    fn write(&mut self, slot: u64, words: &[u64]) {
        debug_assert_eq!(words.len(), self.kept);
        let (record, pad) = self.words_mut(slot).split_at_mut(words.len());
        record.copy_from_slice(words);
        pad.fill(0);
    }

    /// Places a record's `kept` words and returns their slot.
    fn insert(&mut self, words: &[u64]) -> u64 {
        if let Some(slot) = self.free.pop() {
            self.write(slot, words);
            return slot;
        }
        debug_assert_eq!(words.len(), self.kept);
        let slot = self.slots;
        self.slots += 1;
        let (chunk, _) = locate(slot);
        if chunk == self.chunks.len() {
            let words = chunk_records(chunk) * self.width;
            self.chunks.push(Vec::with_capacity(words));
        }
        let chunk = &mut self.chunks[chunk];
        chunk.extend_from_slice(words);
        chunk.resize(chunk.len() + self.width - self.kept, 0);
        slot
    }

    fn heap_bytes(&self) -> usize {
        let words: usize = self.chunks.iter().map(Vec::capacity).sum();
        (words + self.free.capacity()) * size_of::<u64>()
            + self.chunks.capacity() * size_of::<Vec<u64>>()
    }
}

/// The record heap: one [`Arena`] per mask, made when the first record of
/// that mask arrives.
#[derive(Clone, Debug)]
pub struct RecordHeap {
    /// `1 +` the place of each mask's arena in `arenas`; 0 for none yet.
    arena_of: [u16; 1 << WORDS],
    arenas: Vec<Arena>,
    len: usize,
}

impl Default for RecordHeap {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self {
            arena_of: [0; 1 << WORDS],
            arenas: Vec::new(),
            len: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the heap empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The place of `mask`'s arena in `arenas`, which must exist.
    fn arena_at(&self, mask: u8) -> usize {
        usize::from(self.arena_of[usize::from(mask)]) - 1
    }

    fn arena_mut(&mut self, mask: u8) -> &mut Arena {
        let at = &mut self.arena_of[usize::from(mask)];
        if *at == 0 {
            self.arenas.push(Arena::new(mask));
            *at = self.arenas.len() as u16;
        }
        &mut self.arenas[usize::from(*at) - 1]
    }

    /// The words of the slot at `addr`.
    fn slot(&self, addr: Addr48) -> &[u64] {
        self.arenas[self.arena_at(addr.mask())].words(addr.slot())
    }

    /// The arena that holds the slot at `addr`.
    fn owner(&mut self, addr: Addr48) -> &mut Arena {
        let at = self.arena_at(addr.mask());
        &mut self.arenas[at]
    }

    /// Returns the slot at `addr` to its arena's free list.
    fn free(&mut self, addr: Addr48) {
        self.owner(addr).free.push(addr.slot());
    }

    /// Stores a record, returning its address.
    pub fn insert(&mut self, record: &Record) -> Addr48 {
        let mut buf = [0; WORDS];
        self.insert_sparse(Sparse::encode(record, &mut buf))
    }

    /// Stores a record given in sparse form (as [`Sparse::encode`] or
    /// [`Sparse::read_le`] make it), returning its address.
    pub fn insert_sparse(&mut self, record: Sparse<'_>) -> Addr48 {
        self.len += 1;
        let slot = self.arena_mut(record.mask).insert(record.words);
        Addr48::at(record.mask, slot)
    }

    /// The record at `addr` as stored — the O(1) path a cached index
    /// unlocks, following the home's forward if it has one.
    ///
    /// # Panics
    /// Panics if the address was never allocated.
    pub fn get(&self, addr: Addr48) -> Sparse<'_> {
        let home = self.slot(addr);
        let (mask, words) = match forward(home) {
            None => (addr.mask(), home),
            Some(target) => (target.mask(), self.slot(target)),
        };
        Sparse {
            mask,
            words: &words[..mask.count_ones() as usize],
        }
    }

    /// The record at `addr`, decoded.
    pub fn record(&self, addr: Addr48) -> RecordBuf {
        RecordBuf(self.get(addr).decode())
    }

    /// Loads the first and last word of the record at `addr`, so a copy
    /// that follows reads lines already on their way (a record of three
    /// or more words may straddle two).
    pub fn touch(&self, addr: Addr48) {
        let words = self.get(addr).words;
        std::hint::black_box((words.first().copied(), words.last().copied()));
    }

    /// Overwrites the record at `addr`, which keeps that address. A record
    /// with the home's mask is written to the home, one with its target's
    /// mask to the target; any other mask gets a new target in its arena,
    /// and the home forwards to it. A target left behind is freed.
    pub fn overwrite(&mut self, addr: Addr48, record: &Record) {
        let mut buf = [0; WORDS];
        let Sparse { mask, words } = Sparse::encode(record, &mut buf);
        let target = forward(self.slot(addr));
        if let Some(target) = target.filter(|t| t.mask() == mask) {
            return self.owner(target).write(target.slot(), words);
        }
        if let Some(target) = target {
            self.free(target);
        }
        if mask == addr.mask() {
            self.owner(addr).write(addr.slot(), words);
        } else {
            let target = Addr48::at(mask, self.arena_mut(mask).insert(words));
            self.owner(addr).words_mut(addr.slot())[..MIN_WIDTH]
                .copy_from_slice(&[0, FORWARD | target.raw()]);
        }
    }

    /// Releases a record's home slot, and its target if it has one, for
    /// reuse. The caller owns the invariant that no live address still
    /// points at it.
    pub fn remove(&mut self, addr: Addr48) {
        self.len -= 1;
        if let Some(target) = forward(self.slot(addr)) {
            self.free(target);
        }
        self.free(addr);
    }

    /// Heap bytes behind the records: every chunk's capacity, the free
    /// lists and the arena tables.
    pub fn heap_bytes(&self) -> usize {
        self.arenas.iter().map(Arena::heap_bytes).sum::<usize>()
            + self.arenas.capacity() * size_of::<Arena>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tag: u8) -> Record {
        let mut r = [0u8; VALUE_SIZE];
        r[0] = tag;
        r[VALUE_SIZE - 1] = tag ^ 0xFF;
        r
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut s = RecordHeap::new();
        let a = s.insert(&rec(1));
        let b = s.insert(&rec(2));
        assert_ne!(a, b);
        assert_eq!(s.record(a), rec(1));
        assert_eq!(s.record(b), rec(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut s = RecordHeap::new();
        let a = s.insert(&rec(1));
        s.insert(&rec(2));
        s.remove(a);
        assert_eq!(s.len(), 1);
        let c = s.insert(&rec(3));
        assert_eq!(c, a, "freed slot should be reused");
        assert_eq!(s.record(c), rec(3));
    }

    #[test]
    fn an_overwrite_keeps_the_address_and_forwards_a_new_mask() {
        let mut s = RecordHeap::new();
        let a = s.insert(&rec(1));
        s.overwrite(a, &rec(9));
        assert_eq!(s.record(a), rec(9));
        // A new mask: the words go to slot 0 of the full arena, and the
        // home stays taken.
        s.overwrite(a, &[0xAB; VALUE_SIZE]);
        assert_eq!(s.record(a), [0xAB; VALUE_SIZE]);
        assert_eq!(s.get(a).mask, 0xFF);
        assert_eq!(s.len(), 1);
        assert_eq!(s.insert(&[0xCD; VALUE_SIZE]), Addr48::at(0xFF, 1));
        let b = s.insert(&rec(4));
        assert_ne!(b, a);
        // Home again: the target is free for its mask.
        s.overwrite(a, &rec(2));
        assert_eq!(s.record(a), rec(2));
        assert_eq!(s.insert(&[0xEF; VALUE_SIZE]), Addr48::at(0xFF, 0));
        // A remove frees the home and the target.
        s.overwrite(b, &[0x12; VALUE_SIZE]);
        s.remove(b);
        assert_eq!(s.len(), 3);
        assert_eq!(s.insert(&[0x34; VALUE_SIZE]), Addr48::at(0xFF, 2));
        assert_eq!(s.insert(&rec(5)), b);
    }

    /// A record whose non-zero words are exactly those of `mask`.
    fn of_mask(mask: u8, seed: u8) -> Record {
        let mut r = [0u8; VALUE_SIZE];
        for i in (0..WORDS).filter(|i| mask & 1 << i != 0) {
            r[i * 8] = seed;
            r[i * 8 + 7] = i as u8 + 1;
        }
        r
    }

    #[test]
    fn every_pair_of_masks_forwards_and_frees_its_targets() {
        let mut s = RecordHeap::new();
        // Slots made and free in `mask`'s arena, if it has one yet.
        let slots = |s: &RecordHeap, mask: u8| match s.arena_of[usize::from(mask)] {
            0 => (0, 0),
            at => {
                let arena = &s.arenas[usize::from(at) - 1];
                (arena.slots, arena.free.len())
            }
        };
        for home in 0..=u8::MAX {
            for new in (0..=u8::MAX).filter(|&new| new != home) {
                let other = (0..).find(|&m| m != home && m != new).unwrap();
                // `a` moves from `home` to `new`, `b` the other way: each
                // arena holds one home and one target.
                let a = s.insert(&of_mask(home, 1));
                let b = s.insert(&of_mask(new, 2));
                for (mask_a, mask_b, seed) in [
                    (new, home, 3),
                    (new, home, 4),
                    (home, new, 5),
                    (new, home, 6),
                    (other, home, 7),
                ] {
                    s.overwrite(a, &of_mask(mask_a, seed));
                    s.overwrite(b, &of_mask(mask_b, seed));
                    assert_eq!(s.len(), 2);
                    assert_eq!(s.get(a).mask, mask_a);
                    assert_eq!(s.record(a), of_mask(mask_a, seed));
                    assert_eq!(s.record(b), of_mask(mask_b, seed));
                    for mask in [home, new, other] {
                        let (made, _) = slots(&s, mask);
                        assert!(made <= 2, "{home:#x} → {new:#x}: {made} slots of {mask:#x}");
                    }
                    if mask_a == home {
                        // Both records are home: the targets are free.
                        assert_eq!((slots(&s, home).1, slots(&s, new).1), (1, 1));
                    }
                }
                s.remove(a);
                s.remove(b);
                assert!(s.is_empty());
                for mask in [home, new, other] {
                    let (made, free) = slots(&s, mask);
                    assert_eq!(made as usize, free, "{home:#x} → {new:#x}: {mask:#x}");
                }
            }
        }
    }

    #[test]
    fn same_mask_records_get_consecutive_addresses() {
        let mut s = RecordHeap::new();
        // Tags 1..=254 keep both end bytes non-zero: one mask.
        let tag = |k: u64| (k % 254) as u8 + 1;
        let addrs: Vec<u64> = (0..5000).map(|k| s.insert(&rec(tag(k))).raw()).collect();
        assert!(addrs.windows(2).all(|w| w[1] == w[0] + 1));
        // Every chunk boundary reads back what was written.
        for (k, &raw) in (0..5000).zip(&addrs) {
            assert_eq!(s.record(Addr48::new(raw)), rec(tag(k)));
        }
    }

    #[test]
    fn a_record_of_no_or_one_word_takes_a_two_word_slot() {
        let mut s = RecordHeap::new();
        let zero = s.insert(&[0; VALUE_SIZE]);
        assert_eq!(zero.mask(), 0);
        assert!(s.get(zero).words.is_empty());
        assert_eq!(s.record(zero), [0; VALUE_SIZE]);
        let one = s.insert(&of_mask(0x10, 9));
        assert_eq!(s.get(one).words.len(), 1);
        assert_eq!(s.record(one), of_mask(0x10, 9));
        for mask in [0, 0x10] {
            let arena = &s.arenas[s.arena_at(mask)];
            assert_eq!(arena.width, MIN_WIDTH);
            assert_eq!(arena.chunks[0].capacity(), FIRST_CHUNK as usize * MIN_WIDTH);
        }
    }

    #[test]
    fn chunks_tile_the_slots() {
        let mut next = 0;
        for k in 0..RAMP as usize + 3 {
            for at in [0, chunk_records(k) - 1] {
                assert_eq!(locate(next + at as u64), (k, at), "chunk {k}");
            }
            next += chunk_records(k) as u64;
        }
    }

    #[test]
    fn a_clone_grows_apart_from_its_original() {
        let mut s = RecordHeap::new();
        let addrs: Vec<Addr48> = (1..=100).map(|k| s.insert(&rec(k))).collect();
        let mut copy = s.clone();
        let a = copy.insert(&rec(7));
        assert_eq!(copy.record(a), rec(7));
        assert_eq!(s.len() + 1, copy.len());
        for (k, &addr) in (1..=100).zip(&addrs) {
            assert_eq!(
                (s.record(addr), copy.record(addr)),
                (rec(k).into(), rec(k).into())
            );
        }
    }

    #[test]
    fn addr48_bounds() {
        assert_eq!(Addr48::new(0).raw(), 0);
        assert_eq!(Addr48::new(Addr48::MAX).raw(), Addr48::MAX);
        let top = Addr48::at(0xFF, (1 << Addr48::SLOT_BITS) - 1);
        assert_eq!(top.raw(), Addr48::MAX);
        assert_eq!((top.mask(), top.slot()), (0xFF, (1 << 40) - 1));
    }

    #[test]
    #[should_panic(expected = "exceeds 48 bits")]
    fn addr48_rejects_wide_values() {
        let _ = Addr48::new(1 << 48);
    }

    #[test]
    #[should_panic(expected = "exceeds 40 bits")]
    fn addr48_rejects_wide_slots() {
        let _ = Addr48::at(1, 1 << 40);
    }
}
