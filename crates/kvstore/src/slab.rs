//! Slab store with 48-bit record addresses.
//!
//! LruIndex caches "the index (specifically, the 48-bit memory address) of
//! the key in the database … values of variable lengths (64 bytes in our
//! configuration)" (§3.2). [`SlabStore`] is that record heap: fixed 64-byte
//! records, addressed by [`Addr48`], O(1) reads by address.

use crate::btree::Progression;

/// Record size in bytes (the paper's configuration).
pub const VALUE_SIZE: usize = 64;

/// A 48-bit record address — what LruIndex caches on the switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr48(u64);

impl Addr48 {
    /// Maximum representable address.
    pub const MAX: u64 = (1 << 48) - 1;

    /// Wraps a raw address.
    ///
    /// # Panics
    /// Panics if `raw` does not fit in 48 bits.
    pub fn new(raw: u64) -> Self {
        assert!(raw <= Self::MAX, "address {raw:#x} exceeds 48 bits");
        Self(raw)
    }

    /// The raw 48-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A bulk build hands out consecutive addresses in key order, so a leaf of
/// them is a run of step 1 that stores none of them.
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

/// Append-oriented record heap with free-list reuse.
#[derive(Clone, Debug, Default)]
pub struct SlabStore {
    records: Vec<Record>,
    free: Vec<u64>,
}

impl SlabStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates space for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            records: Vec::with_capacity(n),
            free: Vec::new(),
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len() - self.free.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores a record, returning its address.
    pub fn insert(&mut self, record: Record) -> Addr48 {
        if let Some(slot) = self.free.pop() {
            self.records[slot as usize] = record;
            Addr48::new(slot)
        } else {
            self.records.push(record);
            Addr48::new(self.records.len() as u64 - 1)
        }
    }

    /// Reads the record at `addr` — the O(1) path a cached index unlocks.
    ///
    /// # Panics
    /// Panics if the address was never allocated.
    pub fn get(&self, addr: Addr48) -> &Record {
        &self.records[addr.raw() as usize]
    }

    /// Overwrites the record at `addr`.
    pub fn set(&mut self, addr: Addr48, record: Record) {
        self.records[addr.raw() as usize] = record;
    }

    /// Releases a record slot for reuse. The caller owns the invariant that
    /// no live address still points at it.
    pub fn remove(&mut self, addr: Addr48) {
        self.free.push(addr.raw());
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
        let mut s = SlabStore::new();
        let a = s.insert(rec(1));
        let b = s.insert(rec(2));
        assert_ne!(a, b);
        assert_eq!(s.get(a)[0], 1);
        assert_eq!(s.get(b)[0], 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut s = SlabStore::new();
        let a = s.insert(rec(1));
        s.insert(rec(2));
        s.remove(a);
        assert_eq!(s.len(), 1);
        let c = s.insert(rec(3));
        assert_eq!(c, a, "freed slot should be reused");
        assert_eq!(s.get(c)[0], 3);
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut s = SlabStore::new();
        let a = s.insert(rec(1));
        s.set(a, rec(9));
        assert_eq!(s.get(a)[0], 9);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn addr48_bounds() {
        assert_eq!(Addr48::new(0).raw(), 0);
        assert_eq!(Addr48::new(Addr48::MAX).raw(), Addr48::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds 48 bits")]
    fn addr48_rejects_wide_values() {
        let _ = Addr48::new(1 << 48);
    }
}
