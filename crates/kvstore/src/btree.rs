//! An arena-allocated B+Tree with a slot layout built for raw lookup speed.
//!
//! Values live only in leaves; internal nodes hold separator keys. The tree
//! reports the number of nodes visited per lookup, which is the cost the
//! LruIndex cache lets the database skip ("the server invokes built-in
//! indexing, like the B+ Tree, to pinpoint key k's index" — §3.2).
//!
//! The seed-era layout (a `Vec<K>` per node, full-key binary search) paid a
//! full key comparison per probe. This rewrite applies the slot-layout
//! techniques from the btree-techniques thesis (see DESIGN.md §13):
//!
//! - **Key heads with prefix truncation.** Every node stores a contiguous
//!   `u32` array of order-preserving *heads* — big-endian key bytes
//!   `[skip, skip+4)` where `skip` counts the prefix bytes all keys in the
//!   node share. The search scans the flat head array. See [`crate::key`].
//! - **Each key stored once.** A leaf keeps no key: ranks are lossless, so
//!   `prefix ‖ head` *is* the key once the leaf shares four or more prefix
//!   bytes, and a parallel `u32` array of *tails* (each rank's low four
//!   bytes) completes it below that. Equal `(prefix, head[, tail])` decides
//!   equality; keys handed out (iteration, separators) are rebuilt with
//!   [`IndexKey::from_rank64`]. Inner nodes still hold separator keys.
//! - **Hash leaves.** A leaf whose recent access mix is point-lookup-heavy
//!   arms a hash-bucket directory (open addressing over
//!   [`IndexKey::hash64`]) so point probes skip the binary search entirely.
//!   The directory is a fixed-size array *inline in the node* with a
//!   compile-time mask, so the bucket byte's address is computable before
//!   the node's own cache line arrives — the bucket load and the node
//!   metadata load overlap instead of chaining, cutting a serial cache
//!   miss off every probe. Entries stay physically sorted, so scans and
//!   bulk snapshots never notice; the first range/scan touch flags the
//!   leaf and the next mutation disarms the directory.
//! - **A descent cache.** The tree remembers the last leaf a lookup landed
//!   in (packed with a structural epoch). A hot lookup re-checks that
//!   leaf's fence keys and, on a hit, answers in ~1 node visit instead of a
//!   root-to-leaf walk. [`BPlusTree::lookup`] remains the uncached descent
//!   (its visit count *is* the tree height — the cost model the LruIndex
//!   figures are built on); [`BPlusTree::lookup_hot`] is the cached entry
//!   point the database layer uses.
//! - **Sorted bulk load.** [`BPlusTree::from_sorted`] builds the tree
//!   bottom-up from ascending entries with full leaves — no root-to-leaf
//!   descent per key.
//! - **Run leaves.** A leaf holds its values as an array, or as a *run*
//!   `(first, step)` whose value `i` is `first + i·step` ([`Progression`]).
//!   A bulk load hands out record addresses in key order, so its leaves are
//!   runs and cost no value bytes; a lookup computes the value from the
//!   slot it found. Overwrites through an upsert leave a run as it is;
//!   any other write turns it into an array first, carved from chunks the
//!   tree owns (`ValueArrays`).
//!
//! Deletion rebalances by borrowing from or merging with siblings; the root
//! collapses when it loses its last separator.

use std::hint::black_box;
use std::marker::PhantomData;
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};

use crate::key::{be_prefix, compose_rank, head_at, shared_prefix_bytes, IndexKey};

/// Point-lookup streak after which a leaf flips to hash mode.
const FLIP_STREAK: u8 = 16;
/// Slots in a leaf's inline hash directory. A fixed power of two keeps the
/// probe mask a compile-time constant, which is what lets the bucket load
/// issue before the node's metadata line arrives.
const INLINE_BUCKETS: usize = 128;
/// Most entries a leaf may hold and still run in hash mode (load factor
/// ≤ 0.5 over [`INLINE_BUCKETS`], so linear probes always terminate).
/// Larger fan-outs simply stay in sorted mode.
const INLINE_BUCKET_CAP: usize = INLINE_BUCKETS / 2;
/// Access-mix bit marking a range/scan touch (drops hash mode on the next
/// mutation of the leaf).
const SCAN_FLAG: u8 = 0x80;
/// Keys [`BPlusTree::lookup_run`] walks down together: enough independent
/// misses to keep a core's fill buffers busy, few enough that the cursors
/// live on the stack.
const RUN_WIDTH: usize = 16;

/// Bits of the structural epoch packed into the descent-cache word; the
/// remaining bits hold `leaf + 1` (0 = empty cache).
const EPOCH_BITS: u32 = 40;
const EPOCH_MASK: u64 = (1 << EPOCH_BITS) - 1;
/// Largest leaf index the cache can remember (`leaf + 1` must fit the word).
const MAX_CACHED_LEAF: u64 = (1 << (64 - EPOCH_BITS)) - 2;

/// A value type a leaf can hold as a run: `Copy`, with a `u64` projection
/// in which a run's value `i` is `first + i·step`.
pub trait Progression: Copy {
    /// The largest projection a value can have.
    const MAX: u64;
    /// The value's projection, or `None` for a value that has none (a
    /// negative integer), which only an array leaf can hold.
    fn to_u64(self) -> Option<u64>;
    /// The value whose projection is `x` (`x <= MAX`).
    fn from_u64(x: u64) -> Self;
}

macro_rules! progression {
    ($($t:ty),*) => {$(
        impl Progression for $t {
            const MAX: u64 = <$t>::MAX as u64;
            fn to_u64(self) -> Option<u64> {
                u64::try_from(self).ok()
            }
            fn from_u64(x: u64) -> Self {
                x as $t
            }
        }
    )*};
}

progression!(u32, u64, usize, i32, i64);

impl Progression for () {
    const MAX: u64 = 0;
    fn to_u64(self) -> Option<u64> {
        Some(0)
    }
    fn from_u64(_: u64) -> Self {}
}

/// A leaf's values, in one of two forms the leaf picks for itself.
#[derive(Clone, Copy, Debug)]
enum Vals {
    /// Value `i` is slot `i` of the leaf's array in [`ValueArrays`].
    Array(ArrayId),
    /// Value `i` is the one projecting to `first + i·step`: no bytes per
    /// key. An empty leaf is an empty run.
    Run { first: u64, step: u64 },
}

impl Vals {
    /// A run if `values` are `first + i·step` for one `step` (a lone value
    /// is a run of the slab's step, 1).
    fn run_of<V: Progression>(mut values: impl Iterator<Item = V>) -> Option<Self> {
        let first = values.next()?.to_u64()?;
        let (mut prev, mut step) = (first, None);
        for v in values {
            let x = v.to_u64()?;
            let d = x.checked_sub(prev)?;
            if *step.get_or_insert(d) != d {
                return None;
            }
            prev = x;
        }
        Some(Self::Run {
            first,
            step: step.unwrap_or(1),
        })
    }
}

/// An array leaf's array: array `at` of chunk `chunk` in [`ValueArrays`].
#[derive(Clone, Copy, Debug)]
struct ArrayId {
    chunk: u32,
    at: u32,
}

/// The value arrays of a tree's array leaves, `width` slots each (an
/// insert overfills a leaf by one before it splits), the first `len` of
/// which hold the leaf's values.
///
/// Arrays are carved from chunks, each as large as all the chunks before
/// it, and a freed array is reused before a chunk is added. A bulk-built
/// tree makes its arrays while it serves writes: one small allocation per
/// leaf, made on the request path among its short-lived buffers, kept
/// those buffers' pages resident; a few large chunks do not.
#[derive(Clone, Debug)]
struct ValueArrays<V> {
    width: usize,
    chunks: Vec<Vec<V>>,
    free: Vec<ArrayId>,
}

impl<V: Progression> ValueArrays<V> {
    /// Arrays in the first chunk.
    const FIRST_CHUNK: usize = 64;

    fn new(width: usize) -> Self {
        Self {
            width,
            chunks: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Arrays handed out so far, in use or freed.
    fn made(&self) -> usize {
        self.chunks.iter().map(|c| c.len() / self.width).sum()
    }

    /// An array for a leaf to fill; what its slots hold is left over.
    fn alloc(&mut self) -> ArrayId {
        if let Some(id) = self.free.pop() {
            return id;
        }
        let width = self.width;
        if self
            .chunks
            .last()
            .is_none_or(|c| c.len() + width > c.capacity())
        {
            let arrays = self.made().max(Self::FIRST_CHUNK);
            self.chunks.push(Vec::with_capacity(arrays * width));
        }
        let chunk = self.chunks.len() - 1;
        let c = &mut self.chunks[chunk];
        let at = c.len() / width;
        c.resize(c.len() + width, V::from_u64(0));
        ArrayId {
            chunk: chunk as u32,
            at: at as u32,
        }
    }

    fn release(&mut self, id: ArrayId) {
        self.free.push(id);
    }

    fn get(&self, id: ArrayId) -> &[V] {
        let start = id.at as usize * self.width;
        &self.chunks[id.chunk as usize][start..start + self.width]
    }

    fn get_mut(&mut self, id: ArrayId) -> &mut [V] {
        let start = id.at as usize * self.width;
        &mut self.chunks[id.chunk as usize][start..start + self.width]
    }

    /// Heap bytes behind the chunks (capacity, not length) and the free
    /// list.
    fn heap_bytes(&self) -> usize {
        let values: usize = self.chunks.iter().map(Vec::capacity).sum();
        values * size_of::<V>()
            + self.chunks.capacity() * size_of::<Vec<V>>()
            + self.free.capacity() * size_of::<ArrayId>()
    }
}

/// A leaf: each key stored once, as its encoding against the node prefix
/// (`heads`, plus `tails` while the prefix is under four bytes), its
/// values (a run, or an array parallel to `heads` in the tree's
/// [`ValueArrays`]), and the optional hash-bucket sidecar. A hit reads the
/// head lines, plus one line of the array in an array leaf; no key copy is
/// touched.
#[derive(Debug)]
struct Leaf<K> {
    /// Order-preserving 4-byte heads, one per entry, ascending.
    heads: Vec<u32>,
    /// Each rank's low four bytes, parallel to `heads` — filled only while
    /// `skip < 4`. With a prefix of four or more bytes `prefix ‖ head` is
    /// the whole rank and this stays empty.
    tails: Vec<u32>,
    /// Values, one per head.
    vals: Vals,
    /// Big-endian key bytes shared by every key in this node (count).
    skip: u8,
    /// The shared prefix itself, right-aligned ([`be_prefix`]).
    prefix: u64,
    /// Hash-mode directory: open-addressed buckets of `slot + 1` (0
    /// empty), inline in the node so a probe's bucket address needs no
    /// pointer chase. Only meaningful while `hash` is set; entries stay
    /// physically sorted either way.
    buckets: [u8; INLINE_BUCKETS],
    /// Whether the bucket directory is armed (hash mode).
    hash: bool,
    /// Access mix: bit 7 = scanned since last mutation, bits 0..7 = point
    /// lookup streak. Updated with relaxed atomics so `&self` readers can
    /// vote; acted on by the next `&mut self` mutation.
    mix: AtomicU8,
    /// The key type the ranks decode to.
    key_type: PhantomData<fn() -> K>,
}

impl<K> Clone for Leaf<K> {
    fn clone(&self) -> Self {
        Self {
            heads: self.heads.clone(),
            tails: self.tails.clone(),
            vals: self.vals,
            skip: self.skip,
            prefix: self.prefix,
            buckets: self.buckets,
            hash: self.hash,
            mix: AtomicU8::new(self.mix.load(Relaxed)),
            key_type: PhantomData,
        }
    }
}

/// An internal node: separator keys with their head array, plus children.
#[derive(Clone, Debug)]
struct Inner<K> {
    heads: Vec<u32>,
    keys: Vec<K>,
    children: Vec<u32>,
    skip: u8,
    prefix: u64,
}

#[derive(Clone, Debug)]
enum Node<K> {
    Inner(Inner<K>),
    Leaf(Leaf<K>),
}

/// The head-array half of a node search: the run of slots whose head
/// equals `rank`'s, or — when the prefix gate or the heads already decide —
/// `Err(insertion point)`. The caller settles the run (full separator keys
/// in inner nodes, tails in leaves that have them).
fn head_run(heads: &[u32], skip: u8, prefix: u64, rank: u64) -> Result<Range<usize>, usize> {
    // Prefix gate: a key outside the node's shared-prefix class sorts
    // entirely before or after every key in the node (ranks are
    // order-preserving), so the heads don't even need consulting.
    let kp = be_prefix(rank, skip);
    if kp < prefix {
        return Err(0);
    }
    if kp > prefix {
        return Err(heads.len());
    }
    let h = head_at(rank, skip);
    // Lower bound by counting `< h` over the flat `u32` array. The `u32`
    // accumulator lets the loop auto-vectorize (4-wide compare+subtract
    // at baseline SSE2), and the sequential independent loads stream
    // through the prefetcher — unlike a binary search, whose
    // data-dependent probes serialize on L2 latency and mispredict
    // ~log2(len) times per node. Nodes are fanout-bounded so the scan is
    // a few cache lines; oversized arrays (no current caller) fall back.
    let lo = if heads.len() <= 1024 {
        let mut n: u32 = 0;
        for &x in heads {
            n += u32::from(x < h);
        }
        n as usize
    } else {
        heads.partition_point(|&x| x < h)
    };
    // The run of equal heads (usually 0–1 long).
    let mut hi = lo;
    while hi < heads.len() && heads[hi] == h {
        hi += 1;
    }
    Ok(lo..hi)
}

/// Binary search of `items[run]`, reported as an index into `items`.
fn search_run<T: Ord>(items: &[T], run: Range<usize>, x: &T) -> Result<usize, usize> {
    let lo = run.start;
    match items[run].binary_search(x) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    }
}

impl<K: IndexKey> Leaf<K> {
    fn empty() -> Self {
        Self {
            heads: Vec::new(),
            tails: Vec::new(),
            vals: Vals::Run { first: 0, step: 1 },
            skip: 0,
            prefix: 0,
            buckets: [0; INLINE_BUCKETS],
            hash: false,
            mix: AtomicU8::new(0),
            key_type: PhantomData,
        }
    }

    /// A sorted-mode leaf over strictly ascending `ranks` and their values.
    fn from_parts(ranks: &[u64], vals: Vals) -> Self {
        let mut leaf = Self::empty();
        leaf.vals = vals;
        leaf.encode(ranks);
        leaf
    }

    fn len(&self) -> usize {
        self.heads.len()
    }

    fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The value stored at slot `i`: read from the leaf's array, or
    /// computed from the run with no load beyond the leaf itself.
    fn value<V: Progression>(&self, i: usize, arrays: &ValueArrays<V>) -> V {
        match self.vals {
            Vals::Array(id) => arrays.get(id)[i],
            Vals::Run { first, step } => V::from_u64(first + i as u64 * step),
        }
    }

    /// The value under `key`, if the leaf holds it.
    fn get<V: Progression>(&self, key: &K, rank: u64, arrays: &ValueArrays<V>) -> Option<V> {
        self.find(key, rank).map(|i| self.value(i, arrays))
    }

    /// The leaf's array, turning a run into one first.
    fn array_id<V: Progression>(&mut self, arrays: &mut ValueArrays<V>) -> ArrayId {
        if let Vals::Run { first, step } = self.vals {
            let id = arrays.alloc();
            for (i, v) in arrays.get_mut(id)[..self.len()].iter_mut().enumerate() {
                *v = V::from_u64(first + i as u64 * step);
            }
            self.vals = Vals::Array(id);
        }
        let Vals::Array(id) = self.vals else {
            unreachable!("the run was just turned into an array")
        };
        id
    }

    /// The leaf's array for writing (its first `len` slots hold the
    /// values), turning a run into one first.
    fn array<'a, V: Progression>(&mut self, arrays: &'a mut ValueArrays<V>) -> &'a mut [V] {
        let id = self.array_id(arrays);
        arrays.get_mut(id)
    }

    /// The rank stored at slot `i`, rebuilt from the prefix, its head and
    /// (below a 4-byte prefix) its tail.
    fn rank(&self, i: usize) -> u64 {
        let tail = if self.skip < 4 { self.tails[i] } else { 0 };
        compose_rank(self.prefix, self.skip, self.heads[i], tail)
    }

    /// The key stored at slot `i`.
    fn key(&self, i: usize) -> K {
        K::from_rank64(self.rank(i))
    }

    /// Every stored rank, ascending.
    fn ranks(&self) -> Vec<u64> {
        (0..self.len()).map(|i| self.rank(i)).collect()
    }

    /// Re-encodes the leaf over `ranks` (one per value): the longest
    /// shared prefix, each head against it, and tails only while that
    /// prefix is under four bytes (dropped otherwise).
    fn encode(&mut self, ranks: &[u64]) {
        let (Some(&lo), Some(&hi)) = (ranks.first(), ranks.last()) else {
            self.skip = 0;
            self.prefix = 0;
            self.heads.clear();
            self.tails.clear();
            return;
        };
        let skip = shared_prefix_bytes(lo, hi);
        self.skip = skip;
        self.prefix = be_prefix(lo, skip);
        self.heads.clear();
        self.heads.reserve_exact(ranks.len());
        self.heads.extend(ranks.iter().map(|&r| head_at(r, skip)));
        if skip < 4 {
            self.tails.clear();
            self.tails.reserve_exact(ranks.len());
            self.tails.extend(ranks.iter().map(|&r| r as u32));
        } else {
            self.tails = Vec::new();
        }
    }

    /// Recomputes `skip`/`prefix`/`heads`/`tails` from the current keys.
    fn rebuild_meta(&mut self) {
        let ranks = self.ranks();
        self.encode(&ranks);
    }

    fn search(&self, rank: u64) -> Result<usize, usize> {
        let run = head_run(&self.heads, self.skip, self.prefix, rank)?;
        if self.skip >= 4 {
            // `prefix ‖ head` is the whole rank: an equal head is the key.
            return if run.is_empty() {
                Err(run.start)
            } else {
                Ok(run.start)
            };
        }
        // Equal heads share the rank's top four bytes; the tails decide.
        search_run(&self.tails, run, &(rank as u32))
    }

    /// Point lookup of a slot: hash probe in hash mode, head search
    /// otherwise.
    fn find(&self, key: &K, rank: u64) -> Option<usize> {
        if self.hash {
            self.hash_find(key, rank)
        } else {
            self.search(rank).ok()
        }
    }

    fn hash_find(&self, key: &K, rank: u64) -> Option<usize> {
        // Decide the prefix once; inside the class a slot matches iff its
        // head (and tail, if the leaf keeps them) match.
        if be_prefix(rank, self.skip) != self.prefix {
            return None;
        }
        let head = head_at(rank, self.skip);
        let mut i = (key.hash64() as usize) & (INLINE_BUCKETS - 1);
        loop {
            match self.buckets[i] {
                0 => return None,
                s => {
                    let slot = usize::from(s) - 1;
                    if self.heads[slot] == head
                        && (self.skip >= 4 || self.tails[slot] == rank as u32)
                    {
                        return Some(slot);
                    }
                }
            }
            i = (i + 1) & (INLINE_BUCKETS - 1);
        }
    }

    /// Rebuilds and arms the inline bucket directory. The caller ensures
    /// `len() <= INLINE_BUCKET_CAP`, which keeps the load factor ≤ 0.5
    /// (so linear probes always terminate) and `slot + 1` in a byte.
    fn rebuild_buckets(&mut self) {
        self.buckets = [0; INLINE_BUCKETS];
        for slot in 0..self.len() {
            let mut i = (self.key(slot).hash64() as usize) & (INLINE_BUCKETS - 1);
            while self.buckets[i] != 0 {
                i = (i + 1) & (INLINE_BUCKETS - 1);
            }
            self.buckets[i] = (slot + 1) as u8;
        }
        self.hash = true;
    }

    /// Votes "point lookup" into the access mix (relaxed; losing a vote to
    /// a concurrent racer is harmless — it only delays a mode flip).
    fn note_point(&self) {
        // Saturate at the flip threshold: once a leaf has earned its hash
        // sidecar the streak stops moving, so steady-state point lookups
        // never dirty the node's cache line.
        let m = self.mix.load(Relaxed);
        if m & SCAN_FLAG == 0 && m < FLIP_STREAK {
            self.mix.store(m + 1, Relaxed);
        }
    }

    /// Votes "scanned": the next mutation reverts the leaf to sorted mode.
    fn note_scan(&self) {
        self.mix.store(SCAN_FLAG, Relaxed);
    }

    /// Applies the pending mode decision after a mutation: disarm the hash
    /// directory if a scan touched the leaf, otherwise keep it fresh (or
    /// arm it once the point streak crosses [`FLIP_STREAK`]).
    fn adapt(&mut self) {
        let m = *self.mix.get_mut();
        if m & SCAN_FLAG != 0 {
            self.hash = false;
            *self.mix.get_mut() = 0;
        } else if (self.hash || m >= FLIP_STREAK)
            && !self.is_empty()
            && self.len() <= INLINE_BUCKET_CAP
        {
            self.rebuild_buckets();
        } else {
            // Empty, or grown past the directory's capacity: stay sorted.
            self.hash = false;
        }
    }

    /// Inserts `rank → value` at position `i`, extending the head (and
    /// tail) arrays incrementally when the new key shares the node prefix
    /// (the common case) and re-encoding the leaf otherwise. A run leaf
    /// turns into an array first.
    fn insert_entry<V: Progression>(
        &mut self,
        i: usize,
        rank: u64,
        value: V,
        arrays: &mut ValueArrays<V>,
    ) {
        let len = self.len();
        let vals = self.array(arrays);
        vals.copy_within(i..len, i + 1);
        vals[i] = value;
        if len > 0 && be_prefix(rank, self.skip) == self.prefix {
            self.heads.insert(i, head_at(rank, self.skip));
            if self.skip < 4 {
                self.tails.insert(i, rank as u32);
            }
        } else {
            let mut ranks = self.ranks();
            ranks.insert(i, rank);
            self.encode(&ranks);
        }
    }

    /// Removes slot `i`, returning its rank and value (a run leaf turns
    /// into an array first). Only the first and last keys bound the shared
    /// prefix, so only their removal can grow it; the leaf is re-encoded
    /// then (dropping tails once the prefix reaches four bytes), and left
    /// as it is otherwise.
    fn remove_entry<V: Progression>(&mut self, i: usize, arrays: &mut ValueArrays<V>) -> (u64, V) {
        let rank = self.rank(i);
        let len = self.len();
        let vals = self.array(arrays);
        let value = vals[i];
        vals.copy_within(i + 1..len, i);
        self.heads.remove(i);
        if self.skip < 4 {
            self.tails.remove(i);
        }
        let len = self.len();
        if len > 0
            && (i == 0 || i == len)
            && shared_prefix_bytes(self.rank(0), self.rank(len - 1)) != self.skip
        {
            self.rebuild_meta();
        }
        (rank, value)
    }

    /// Moves slots `mid..` out, as their ranks and values, and re-encodes
    /// what stays (its shared prefix can only grow). Only an insert
    /// overfills a leaf, and it has made the leaf an array already.
    fn split_off<V: Progression>(
        &mut self,
        mid: usize,
        arrays: &mut ValueArrays<V>,
    ) -> (Vec<u64>, Vals) {
        let mut ranks = self.ranks();
        let right = ranks.split_off(mid);
        let left = self.array_id(arrays);
        let moved = arrays.alloc();
        for i in 0..right.len() {
            let v = arrays.get(left)[mid + i];
            arrays.get_mut(moved)[i] = v;
        }
        self.encode(&ranks);
        (right, Vals::Array(moved))
    }

    /// Appends every entry of `right`, whose keys all sort above this
    /// leaf's (as an array: a merge turns runs into one), and frees
    /// `right`'s array.
    fn append<V: Progression>(&mut self, right: Self, arrays: &mut ValueArrays<V>) {
        let mut ranks = self.ranks();
        ranks.extend(right.ranks());
        let (len, id) = (self.len(), self.array_id(arrays));
        for i in 0..right.len() {
            let v = right.value(i, arrays);
            arrays.get_mut(id)[len + i] = v;
        }
        if let Vals::Array(r) = right.vals {
            arrays.release(r);
        }
        self.encode(&ranks);
    }

    /// Heap bytes behind the leaf's key arrays (capacity, not length); its
    /// values are counted with [`ValueArrays`], or take none (a run).
    fn heap_bytes(&self) -> usize {
        (self.heads.capacity() + self.tails.capacity()) * size_of::<u32>()
    }
}

impl<K: IndexKey> Inner<K> {
    fn from_parts(keys: Vec<K>, children: Vec<u32>) -> Self {
        let mut inner = Self {
            heads: Vec::new(),
            keys,
            children,
            skip: 0,
            prefix: 0,
        };
        inner.rebuild_meta();
        inner
    }

    fn rebuild_meta(&mut self) {
        if self.keys.is_empty() {
            self.skip = 0;
            self.prefix = 0;
            self.heads.clear();
            return;
        }
        let lo = self.keys[0].rank64();
        let hi = self.keys[self.keys.len() - 1].rank64();
        self.skip = shared_prefix_bytes(lo, hi);
        self.prefix = be_prefix(lo, self.skip);
        self.heads.clear();
        let skip = self.skip;
        self.heads
            .extend(self.keys.iter().map(|k| head_at(k.rank64(), skip)));
    }

    /// Child index to descend into for `key`: the first separator greater
    /// than `key` bounds the child on the right.
    fn child_for(&self, key: &K, rank: u64) -> usize {
        match head_run(&self.heads, self.skip, self.prefix, rank)
            .and_then(|run| search_run(&self.keys, run, key))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Inserts a promoted separator and its right child after a child split.
    fn insert_sep(&mut self, i: usize, sep: K, right: u32) {
        let r = sep.rank64();
        if !self.keys.is_empty() && be_prefix(r, self.skip) == self.prefix {
            self.heads.insert(i, head_at(r, self.skip));
            self.keys.insert(i, sep);
        } else {
            self.keys.insert(i, sep);
            self.rebuild_meta();
        }
        self.children.insert(i + 1, right);
    }

    /// Heap bytes behind the node's arrays (capacity, not length).
    fn heap_bytes(&self) -> usize {
        (self.heads.capacity() + self.children.capacity()) * size_of::<u32>()
            + self.keys.capacity() * size_of::<K>()
    }
}

/// What one find-or-insert walk ([`BPlusTree::upsert_with`]) found or
/// placed under a key, by copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Upsert<V> {
    /// The value now stored under the key (the old one if `existed`).
    pub value: V,
    /// Whether the key already existed (the factory was not called).
    pub existed: bool,
    /// Nodes visited by the descent (the tree height).
    pub visits: usize,
}

/// A B+Tree with configurable fan-out.
///
/// ```
/// use p4lru_kvstore::btree::BPlusTree;
///
/// let mut index = BPlusTree::new(32);
/// for k in 0..1000u64 {
///     index.insert(k, k * 2);
/// }
/// let (value, node_visits) = index.lookup(&500);
/// assert_eq!(value, Some(1000));
/// assert_eq!(node_visits, index.height());
/// assert_eq!(index.range(&10, &13).count(), 3);
/// ```
#[derive(Debug)]
pub struct BPlusTree<K, V> {
    nodes: Vec<Node<K>>,
    free: Vec<u32>,
    /// The arrays of the array leaves.
    arrays: ValueArrays<V>,
    root: u32,
    len: usize,
    max_keys: usize,
    height: usize,
    /// Bumped on any structural change (alloc/free/rebalance/root move);
    /// stale descent-cache entries die on mismatch.
    epoch: u64,
    /// Descent cache: `(leaf + 1) << EPOCH_BITS | epoch`, 0 = empty.
    /// Written with relaxed stores from `&self` lookups.
    cache: AtomicU64,
    /// Lookups answered from the descent cache (~1 visit instead of a
    /// full walk).
    descent_hits: AtomicU64,
}

impl<K: Clone, V: Clone> Clone for BPlusTree<K, V> {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            arrays: self.arrays.clone(),
            root: self.root,
            len: self.len,
            max_keys: self.max_keys,
            height: self.height,
            epoch: self.epoch,
            cache: AtomicU64::new(self.cache.load(Relaxed)),
            descent_hits: AtomicU64::new(self.descent_hits.load(Relaxed)),
        }
    }
}

impl<K: IndexKey, V: Progression> BPlusTree<K, V> {
    /// A tree whose nodes hold at most `max_keys` keys (fan-out
    /// `max_keys + 1`). Databases use fan-outs in the tens to hundreds;
    /// the default elsewhere in this workspace is 64.
    ///
    /// # Panics
    /// Panics if `max_keys < 3`.
    pub fn new(max_keys: usize) -> Self {
        assert!(max_keys >= 3, "max_keys must be at least 3");
        Self {
            nodes: vec![Node::Leaf(Leaf::empty())],
            free: Vec::new(),
            arrays: ValueArrays::new(max_keys + 1),
            root: 0,
            len: 0,
            max_keys,
            height: 1,
            epoch: 0,
            cache: AtomicU64::new(0),
            descent_hits: AtomicU64::new(0),
        }
    }

    /// Builds the tree bottom-up from strictly ascending `(key, value)`
    /// entries: full leaves, no per-key descent, each leaf a run where its
    /// values form one. A [`SortedLoad`] run to completion — the streaming
    /// form `Database`'s bulk build drives.
    ///
    /// # Panics
    /// Panics if `max_keys < 3` or the keys are not strictly ascending.
    pub fn from_sorted<I>(max_keys: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let mut load = SortedLoad::new(max_keys);
        for (k, v) in entries {
            load.push(k, v);
        }
        load.finish()
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 for a lone leaf). Uncached lookup cost is exactly
    /// `height` node visits.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Lookups answered by the descent cache since the tree was built.
    pub fn descent_hits(&self) -> u64 {
        self.descent_hits.load(Relaxed)
    }

    /// Heap bytes the index occupies: every arena slot (in use or not) plus
    /// every node array's and value chunk's capacity times its element
    /// size. A deterministic diagnostic of the layout's bytes per key, not
    /// a resident-set figure.
    pub fn heap_bytes(&self) -> usize {
        let arrays: usize = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Inner(inner) => inner.heap_bytes(),
                Node::Leaf(leaf) => leaf.heap_bytes(),
            })
            .sum();
        self.nodes.capacity() * size_of::<Node<K>>()
            + self.free.capacity() * size_of::<u32>()
            + self.arrays.heap_bytes()
            + arrays
    }

    fn min_keys(&self) -> usize {
        self.max_keys / 2
    }

    fn alloc(&mut self, node: Node<K>) -> u32 {
        self.epoch += 1;
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn free_node(&mut self, idx: u32) {
        self.epoch += 1;
        self.nodes[idx as usize] = Node::Leaf(Leaf::empty());
        self.free.push(idx);
    }

    /// Remembers `leaf` (with the current epoch) as the next lookup's
    /// first guess. Callable from `&self`: a lost race only loses a hint.
    fn cache_store(&self, leaf: u32) {
        if u64::from(leaf) <= MAX_CACHED_LEAF {
            self.cache.store(
                ((u64::from(leaf) + 1) << EPOCH_BITS) | (self.epoch & EPOCH_MASK),
                Relaxed,
            );
        }
    }

    fn cached_leaf(&self) -> Option<u32> {
        let packed = self.cache.load(Relaxed);
        let leaf = packed >> EPOCH_BITS;
        if leaf == 0 || (packed & EPOCH_MASK) != (self.epoch & EPOCH_MASK) {
            None
        } else {
            Some((leaf - 1) as u32)
        }
    }

    /// Looks up `key` with a full root-to-leaf descent, returning the value
    /// and the number of nodes visited (always the tree height). This is
    /// the cost-model entry point; hot paths use [`Self::lookup_hot`].
    pub fn lookup(&self, key: &K) -> (Option<V>, usize) {
        self.lookup_cold(key, key.rank64())
    }

    fn lookup_cold(&self, key: &K, rank: u64) -> (Option<V>, usize) {
        let mut cur = self.root;
        let mut visits = 0usize;
        loop {
            visits += 1;
            match &self.nodes[cur as usize] {
                Node::Inner(inner) => {
                    cur = inner.children[inner.child_for(key, rank)];
                }
                Node::Leaf(leaf) => {
                    leaf.note_point();
                    self.cache_store(cur);
                    return (leaf.get(key, rank, &self.arrays), visits);
                }
            }
        }
    }

    /// Looks up `key` through the descent cache: if the last-touched leaf's
    /// fence keys still cover `key`, the answer costs ~1 node visit;
    /// otherwise this falls back to a full descent (which re-arms the
    /// cache).
    pub fn lookup_hot(&self, key: &K) -> (Option<V>, usize) {
        let rank = key.rank64();
        if let Some(idx) = self.cached_leaf() {
            if let Node::Leaf(leaf) = &self.nodes[idx as usize] {
                // Conservative fence check: only keys within the leaf's
                // [first, last] span are decidable here. Leaves hold
                // disjoint key ranges, so a key inside this span cannot
                // live in any other leaf — a miss within the span is a
                // true miss.
                if !leaf.is_empty() && rank >= leaf.rank(0) && rank <= leaf.rank(leaf.len() - 1) {
                    self.descent_hits.fetch_add(1, Relaxed);
                    leaf.note_point();
                    return (leaf.get(key, rank, &self.arrays), 1);
                }
            }
        }
        self.lookup_cold(key, rank)
    }

    /// Looks up every key of `keys`, replacing `out`'s contents with each
    /// key's value in key order — what [`Self::lookup`] returns per key,
    /// at `height` visits each, but with the keys descending together.
    ///
    /// One key's walk is a chain of dependent cache misses (node, head
    /// array, child or value array, then the next node). The run walks
    /// level by level instead: at each level it first touches every key's
    /// node, head array and child or value array with loads that depend on
    /// nothing but that key's own node index, so the misses of up to
    /// `RUN_WIDTH` (16) keys are in flight at once, and only then steps each
    /// key through its already-fetched node. The descent cache is left
    /// pointing at the run's last leaf.
    pub fn lookup_run(&self, keys: &[K], out: &mut Vec<Option<V>>) {
        out.clear();
        for chunk in keys.chunks(RUN_WIDTH) {
            let mut cursors = [self.root; RUN_WIDTH];
            let cursors = &mut cursors[..chunk.len()];
            // Every leaf sits at depth `height`, so the keys change levels
            // in lockstep.
            for _ in 1..self.height {
                for (&node, key) in cursors.iter().zip(chunk) {
                    self.touch(node, key);
                }
                for (node, key) in cursors.iter_mut().zip(chunk) {
                    let Node::Inner(inner) = &self.nodes[*node as usize] else {
                        unreachable!("a leaf above the tree's height");
                    };
                    *node = inner.children[inner.child_for(key, key.rank64())];
                }
            }
            for (&node, key) in cursors.iter().zip(chunk) {
                self.touch(node, key);
            }
            for (&node, key) in cursors.iter().zip(chunk) {
                let Node::Leaf(leaf) = &self.nodes[node as usize] else {
                    unreachable!("an inner node at the tree's height");
                };
                leaf.note_point();
                out.push(leaf.get(key, key.rank64(), &self.arrays));
            }
            if let Some(&last) = cursors.last() {
                self.cache_store(last);
            }
        }
    }

    /// Starts the loads `key`'s step through `node` will make: the node
    /// itself, every cache line of its head array, and its child array
    /// (inner) or its bucket byte, tails and first array value (leaf; a
    /// run has no value line to fetch). The values are discarded; only the
    /// cache fills matter.
    fn touch(&self, node: u32, key: &K) {
        const LINE_U32S: usize = 16;
        let heads = match &self.nodes[node as usize] {
            Node::Inner(inner) => {
                for child in inner.children.iter().step_by(LINE_U32S) {
                    black_box(*child);
                }
                &inner.heads
            }
            Node::Leaf(leaf) => {
                if leaf.hash {
                    black_box(leaf.buckets[(key.hash64() as usize) & (INLINE_BUCKETS - 1)]);
                } else if let Vals::Array(id) = leaf.vals {
                    black_box(self.arrays.get(id)[0]);
                }
                for tail in leaf.tails.iter().step_by(LINE_U32S) {
                    black_box(*tail);
                }
                &leaf.heads
            }
        };
        for head in heads.iter().step_by(LINE_U32S) {
            black_box(*head);
        }
    }

    /// Plain lookup (descent-cache-aware).
    pub fn get(&self, key: &K) -> Option<V> {
        self.lookup_hot(key).0
    }

    /// Inserts `key → value`; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let mut carry = Some(value);
        let (leaf, slot, _) =
            self.find_or_insert(key, || carry.take().expect("fresh key consumes value"));
        // No carry left: the factory ran, the value is already in the tree.
        let value = carry?;
        Some(std::mem::replace(self.slot_mut(leaf, slot), value))
    }

    /// Resolves `key` to its value in **one** root-to-leaf walk, inserting
    /// `make()` if absent. This is the single-walk upsert the database
    /// layer uses instead of a `get` + `insert` pair; finding a key leaves
    /// its leaf as it was.
    pub fn upsert_with<F>(&mut self, key: K, make: F) -> Upsert<V>
    where
        F: FnOnce() -> V,
    {
        let (leaf, slot, existed) = self.find_or_insert(key, make);
        let Node::Leaf(leaf) = &self.nodes[leaf as usize] else {
            unreachable!("upsert landed on an inner node")
        };
        Upsert {
            value: leaf.value(slot, &self.arrays),
            existed,
            visits: self.height,
        }
    }

    /// Slot `slot` of leaf `leaf`'s array, for writing (a run leaf turns
    /// into an array first).
    fn slot_mut(&mut self, leaf: u32, slot: usize) -> &mut V {
        let Node::Leaf(leaf) = &mut self.nodes[leaf as usize] else {
            unreachable!("upsert landed on an inner node")
        };
        &mut leaf.array(&mut self.arrays)[slot]
    }

    /// The walk behind every upsert: the leaf and slot now holding `key`
    /// (after any split), and whether it existed.
    fn find_or_insert<F>(&mut self, key: K, make: F) -> (u32, usize, bool)
    where
        F: FnOnce() -> V,
    {
        let rank = key.rank64();
        let (leaf, slot, existed, split) = self.upsert_rec(self.root, key, rank, make);
        if let Some((sep, right)) = split {
            let old_root = self.root;
            let new_root = self.alloc(Node::Inner(Inner::from_parts(
                vec![sep],
                vec![old_root, right],
            )));
            self.root = new_root;
            self.height += 1;
        }
        if !existed {
            self.len += 1;
        }
        self.cache_store(leaf);
        (leaf, slot, existed)
    }

    #[allow(clippy::type_complexity)]
    fn upsert_rec<F>(
        &mut self,
        node: u32,
        key: K,
        rank: u64,
        make: F,
    ) -> (u32, usize, bool, Option<(K, u32)>)
    where
        F: FnOnce() -> V,
    {
        let child = match &self.nodes[node as usize] {
            Node::Inner(inner) => Some(inner.child_for(&key, rank)),
            Node::Leaf(_) => None,
        };
        match child {
            None => {
                let max_keys = self.max_keys;
                let leaf = match &mut self.nodes[node as usize] {
                    Node::Leaf(l) => l,
                    Node::Inner(_) => unreachable!(),
                };
                match leaf.search(rank) {
                    Ok(i) => {
                        leaf.adapt();
                        (node, i, true, None)
                    }
                    Err(i) => {
                        leaf.insert_entry(i, rank, make(), &mut self.arrays);
                        if leaf.len() <= max_keys {
                            leaf.adapt();
                            return (node, i, false, None);
                        }
                        // Split: right half to a fresh node; separator =
                        // first key of the right half (it stays in the
                        // leaf — B+ style).
                        let mid = leaf.len() / 2;
                        let (r_ranks, r_vals) = leaf.split_off(mid, &mut self.arrays);
                        leaf.hash = false;
                        *leaf.mix.get_mut() = 0;
                        let sep = K::from_rank64(r_ranks[0]);
                        let in_right = i >= mid;
                        let slot = if in_right { i - mid } else { i };
                        let right = self.alloc(Node::Leaf(Leaf::from_parts(&r_ranks, r_vals)));
                        let home = if in_right { right } else { node };
                        (home, slot, false, Some((sep, right)))
                    }
                }
            }
            Some(ci) => {
                let child_idx = match &self.nodes[node as usize] {
                    Node::Inner(inner) => inner.children[ci],
                    Node::Leaf(_) => unreachable!(),
                };
                let (leaf, slot, existed, split) = self.upsert_rec(child_idx, key, rank, make);
                let Some((sep, right)) = split else {
                    return (leaf, slot, existed, None);
                };
                let max_keys = self.max_keys;
                let inner = match &mut self.nodes[node as usize] {
                    Node::Inner(x) => x,
                    Node::Leaf(_) => unreachable!(),
                };
                inner.insert_sep(ci, sep, right);
                if inner.keys.len() <= max_keys {
                    return (leaf, slot, existed, None);
                }
                // Split internal: the middle key moves *up*.
                let mid = inner.keys.len() / 2;
                let r_keys = inner.keys.split_off(mid + 1);
                let sep_up = inner.keys.pop().expect("mid key exists");
                let r_children = inner.children.split_off(mid + 1);
                inner.rebuild_meta();
                let right_idx = self.alloc(Node::Inner(Inner::from_parts(r_keys, r_children)));
                (leaf, slot, existed, Some((sep_up, right_idx)))
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let rank = key.rank64();
        let (old, _) = self.remove_rec(self.root, key, rank);
        if old.is_some() {
            self.len -= 1;
        }
        // Collapse an empty internal root.
        if let Node::Inner(inner) = &self.nodes[self.root as usize] {
            if inner.keys.is_empty() {
                let only = inner.children[0];
                let old_root = self.root;
                self.root = only;
                self.height -= 1;
                self.free_node(old_root);
            }
        }
        old
    }

    fn remove_rec(&mut self, node: u32, key: &K, rank: u64) -> (Option<V>, bool) {
        let child = match &self.nodes[node as usize] {
            Node::Inner(inner) => Some(inner.child_for(key, rank)),
            Node::Leaf(_) => None,
        };
        match child {
            None => {
                let min = self.min_keys();
                match &mut self.nodes[node as usize] {
                    Node::Leaf(leaf) => match leaf.search(rank) {
                        Ok(i) => {
                            let (_, v) = leaf.remove_entry(i, &mut self.arrays);
                            leaf.adapt();
                            (Some(v), leaf.len() < min)
                        }
                        Err(_) => (None, false),
                    },
                    Node::Inner(_) => unreachable!(),
                }
            }
            Some(i) => {
                let child_idx = match &self.nodes[node as usize] {
                    Node::Inner(inner) => inner.children[i],
                    Node::Leaf(_) => unreachable!(),
                };
                let (old, underflow) = self.remove_rec(child_idx, key, rank);
                if old.is_none() || !underflow {
                    return (old, false);
                }
                self.fix_underflow(node, i);
                let min = self.min_keys();
                let me_underflow = match &self.nodes[node as usize] {
                    Node::Inner(inner) => inner.keys.len() < min,
                    Node::Leaf(_) => unreachable!(),
                };
                (old, me_underflow)
            }
        }
    }

    /// Repairs child `i` of internal `node` after an underflow, by borrowing
    /// from an adjacent sibling or merging with it.
    fn fix_underflow(&mut self, node: u32, i: usize) {
        self.epoch += 1;
        let (child_idx, left_idx, right_idx) = match &self.nodes[node as usize] {
            Node::Inner(inner) => (
                inner.children[i],
                i.checked_sub(1).map(|j| inner.children[j]),
                inner.children.get(i + 1).copied(),
            ),
            Node::Leaf(_) => unreachable!(),
        };
        let min = self.min_keys();

        // Try borrowing from the left sibling.
        if let Some(l) = left_idx {
            if self.node_keys(l) > min {
                self.borrow_from_left(node, i, l, child_idx);
                return;
            }
        }
        // Try borrowing from the right sibling.
        if let Some(r) = right_idx {
            if self.node_keys(r) > min {
                self.borrow_from_right(node, i, child_idx, r);
                return;
            }
        }
        // Merge with a sibling (left preferred).
        if let Some(l) = left_idx {
            self.merge_children(node, i - 1, l, child_idx);
        } else if let Some(r) = right_idx {
            self.merge_children(node, i, child_idx, r);
        }
    }

    fn node_keys(&self, idx: u32) -> usize {
        match &self.nodes[idx as usize] {
            Node::Inner(inner) => inner.keys.len(),
            Node::Leaf(leaf) => leaf.len(),
        }
    }

    /// Recomputes a node's head metadata (and hash sidecar) after a
    /// rebalance rearranged its keys.
    fn refresh_meta(&mut self, idx: u32) {
        match &mut self.nodes[idx as usize] {
            Node::Leaf(leaf) => {
                leaf.rebuild_meta();
                leaf.adapt();
            }
            Node::Inner(inner) => inner.rebuild_meta(),
        }
    }

    fn borrow_from_left(&mut self, parent: u32, sep_pos: usize, left: u32, child: u32) {
        // sep_pos is the index of `child` in parent.children; the separator
        // between left and child is parent.keys[sep_pos - 1].
        let sep_idx = sep_pos - 1;
        let is_leaf = matches!(self.nodes[child as usize], Node::Leaf(_));
        if is_leaf {
            let (r, v) = match &mut self.nodes[left as usize] {
                Node::Leaf(leaf) => leaf.remove_entry(leaf.len() - 1, &mut self.arrays),
                Node::Inner(_) => unreachable!(),
            };
            let new_sep = K::from_rank64(r);
            match &mut self.nodes[child as usize] {
                Node::Leaf(leaf) => leaf.insert_entry(0, r, v, &mut self.arrays),
                Node::Inner(_) => unreachable!(),
            }
            match &mut self.nodes[parent as usize] {
                Node::Inner(inner) => inner.keys[sep_idx] = new_sep,
                Node::Leaf(_) => unreachable!(),
            }
        } else {
            // Rotate through the parent separator.
            let (donor_key, donor_child) = match &mut self.nodes[left as usize] {
                Node::Inner(inner) => {
                    inner.heads.pop();
                    (
                        inner.keys.pop().expect("donor"),
                        inner.children.pop().expect("donor"),
                    )
                }
                Node::Leaf(_) => unreachable!(),
            };
            let sep = match &mut self.nodes[parent as usize] {
                Node::Inner(inner) => std::mem::replace(&mut inner.keys[sep_idx], donor_key),
                Node::Leaf(_) => unreachable!(),
            };
            match &mut self.nodes[child as usize] {
                Node::Inner(inner) => {
                    inner.keys.insert(0, sep);
                    inner.children.insert(0, donor_child);
                }
                Node::Leaf(_) => unreachable!(),
            }
        }
        self.refresh_meta(left);
        self.refresh_meta(child);
        self.refresh_meta(parent);
    }

    fn borrow_from_right(&mut self, parent: u32, sep_pos: usize, child: u32, right: u32) {
        // Separator between child and right is parent.keys[sep_pos].
        let is_leaf = matches!(self.nodes[child as usize], Node::Leaf(_));
        if is_leaf {
            let (r, v, new_sep) = match &mut self.nodes[right as usize] {
                Node::Leaf(leaf) => {
                    let (r, v) = leaf.remove_entry(0, &mut self.arrays);
                    (r, v, leaf.key(0))
                }
                Node::Inner(_) => unreachable!(),
            };
            match &mut self.nodes[child as usize] {
                Node::Leaf(leaf) => leaf.insert_entry(leaf.len(), r, v, &mut self.arrays),
                Node::Inner(_) => unreachable!(),
            }
            match &mut self.nodes[parent as usize] {
                Node::Inner(inner) => inner.keys[sep_pos] = new_sep,
                Node::Leaf(_) => unreachable!(),
            }
        } else {
            let (donor_key, donor_child) = match &mut self.nodes[right as usize] {
                Node::Inner(inner) => {
                    inner.heads.remove(0);
                    (inner.keys.remove(0), inner.children.remove(0))
                }
                Node::Leaf(_) => unreachable!(),
            };
            let sep = match &mut self.nodes[parent as usize] {
                Node::Inner(inner) => std::mem::replace(&mut inner.keys[sep_pos], donor_key),
                Node::Leaf(_) => unreachable!(),
            };
            match &mut self.nodes[child as usize] {
                Node::Inner(inner) => {
                    inner.keys.push(sep);
                    inner.children.push(donor_child);
                }
                Node::Leaf(_) => unreachable!(),
            }
        }
        self.refresh_meta(right);
        self.refresh_meta(child);
        self.refresh_meta(parent);
    }

    /// Merges children `left` and `right` (adjacent, separator at
    /// `parent.keys[sep_idx]`) into `left`.
    fn merge_children(&mut self, parent: u32, sep_idx: usize, left: u32, right: u32) {
        let sep = match &mut self.nodes[parent as usize] {
            Node::Inner(inner) => {
                inner.heads.remove(sep_idx);
                let sep = inner.keys.remove(sep_idx);
                inner.children.remove(sep_idx + 1);
                sep
            }
            Node::Leaf(_) => unreachable!(),
        };
        let right_node =
            std::mem::replace(&mut self.nodes[right as usize], Node::Leaf(Leaf::empty()));
        self.epoch += 1;
        self.free.push(right);
        match (&mut self.nodes[left as usize], right_node) {
            (Node::Leaf(leaf), Node::Leaf(r)) => leaf.append(r, &mut self.arrays),
            (Node::Inner(inner), Node::Inner(r)) => {
                inner.keys.push(sep);
                inner.keys.extend(r.keys);
                inner.children.extend(r.children);
            }
            _ => unreachable!("siblings are at the same level"),
        }
        self.refresh_meta(left);
        self.refresh_meta(parent);
    }

    /// In-order iteration over `(key, value)` pairs.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            tree: self,
            stack: vec![(self.root, 0)],
        }
    }

    /// In-order iteration starting at the first key `>= start` — the range
    /// scan a database layer issues for `SELECT … WHERE k >= ?`.
    pub fn iter_from(&self, start: &K) -> Iter<'_, K, V> {
        let rank = start.rank64();
        // Build the descent stack: at each internal node, record the child
        // position we took; at the leaf, the first in-range entry index.
        let mut stack = Vec::new();
        let mut cur = self.root;
        loop {
            match &self.nodes[cur as usize] {
                Node::Inner(inner) => {
                    let pos = inner.child_for(start, rank);
                    // Resume *after* child `pos` once it is exhausted.
                    stack.push((cur, pos + 1));
                    cur = inner.children[pos];
                }
                Node::Leaf(leaf) => {
                    let pos = match leaf.search(rank) {
                        Ok(i) | Err(i) => i,
                    };
                    stack.push((cur, pos));
                    break;
                }
            }
        }
        Iter { tree: self, stack }
    }

    /// All `(key, value)` pairs with `start <= key < end`.
    pub fn range<'a>(&'a self, start: &K, end: &'a K) -> impl Iterator<Item = (K, V)> + 'a {
        self.iter_from(start).take_while(move |(k, _)| k < end)
    }

    /// Re-evaluates every leaf's hash-mode decision now instead of waiting
    /// for each leaf's next mutation — a maintenance sweep for quiescent
    /// moments (e.g. right after a snapshot scan flagged every leaf).
    pub fn apply_adaptation(&mut self) {
        for node in &mut self.nodes {
            if let Node::Leaf(leaf) = node {
                leaf.adapt();
            }
        }
    }

    /// Structural invariants for property tests: uniform depth, sorted keys,
    /// separator bounds, occupancy ≥ min for non-root nodes, `len`
    /// consistency — plus the slot-layout extras: head arrays matching the
    /// keys' prefix-truncated encodings, leaf tails present exactly while
    /// the leaf prefix is under four bytes, every leaf key (rebuilt from
    /// its prefix, head and tail) sorting strictly between its neighbours,
    /// and hash sidecars resolving every resident key — and for values:
    /// every run value fits the value type ([`Progression::MAX`]), and
    /// every array the tree made is owned by exactly one array leaf or is
    /// free, so no run leaf owns one and `heap_bytes` counts an array only
    /// for an array leaf or the free list.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        let depth = self.check_rec(self.root, None, None, true, &mut count)?;
        if depth != self.height {
            return Err(format!("height {} but measured depth {depth}", self.height));
        }
        if count != self.len {
            return Err(format!("len {} but counted {count}", self.len));
        }
        // Every array made is owned by exactly one array leaf or is free.
        let width = self.arrays.width;
        let mut seen: Vec<Vec<bool>> = self
            .arrays
            .chunks
            .iter()
            .map(|c| vec![false; c.len() / width])
            .collect();
        let leaves = self.nodes.iter().filter_map(|node| match node {
            Node::Leaf(Leaf {
                vals: Vals::Array(id),
                ..
            }) => Some(*id),
            _ => None,
        });
        for id in leaves.chain(self.arrays.free.iter().copied()) {
            let slot = seen
                .get_mut(id.chunk as usize)
                .and_then(|chunk| chunk.get_mut(id.at as usize))
                .ok_or_else(|| format!("value array {id:?} was never made"))?;
            if std::mem::replace(slot, true) {
                return Err(format!("value array {id:?} is owned twice"));
            }
        }
        if seen.iter().flatten().any(|&owned| !owned) {
            return Err("a value array is neither owned nor free".to_owned());
        }
        Ok(())
    }

    fn check_heads(
        node: u32,
        heads: &[u32],
        keys: &[K],
        skip: u8,
        prefix: u64,
    ) -> Result<(), String> {
        if heads.len() != keys.len() {
            return Err(format!("node {node}: head/key arity mismatch"));
        }
        if skip > 8 {
            return Err(format!("node {node}: skip {skip} out of range"));
        }
        for (i, k) in keys.iter().enumerate() {
            let r = k.rank64();
            if be_prefix(r, skip) != prefix {
                return Err(format!("node {node}: key {i} outside stored prefix"));
            }
            if heads[i] != head_at(r, skip) {
                return Err(format!("node {node}: stale head at {i}"));
            }
        }
        Ok(())
    }

    fn check_rec(
        &self,
        node: u32,
        lo: Option<&K>,
        hi: Option<&K>,
        is_root: bool,
        count: &mut usize,
    ) -> Result<usize, String> {
        let in_bounds = |k: &K| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k < h);
        match &self.nodes[node as usize] {
            Node::Leaf(leaf) => {
                if !is_root && leaf.len() < self.min_keys() {
                    return Err(format!("leaf {node}: underfull ({} keys)", leaf.len()));
                }
                if leaf.len() > self.max_keys {
                    return Err(format!("leaf {node}: overfull"));
                }
                match leaf.vals {
                    Vals::Array(_) => {}
                    Vals::Run { first, step } => {
                        let last = (leaf.len() as u64)
                            .checked_sub(1)
                            .map(|i| step.checked_mul(i)?.checked_add(first));
                        if last.is_some_and(|x| x.is_none_or(|x| x > V::MAX)) {
                            return Err(format!(
                                "leaf {node}: run ({first}, {step}) over {} keys passes \
                                 the value type's max {}",
                                leaf.len(),
                                V::MAX
                            ));
                        }
                    }
                }
                let want_tails = if leaf.skip < 4 { leaf.len() } else { 0 };
                if leaf.tails.len() != want_tails {
                    return Err(format!(
                        "leaf {node}: {} tails at skip {} over {} keys",
                        leaf.tails.len(),
                        leaf.skip,
                        leaf.len()
                    ));
                }
                let keys: Vec<K> = (0..leaf.len()).map(|i| leaf.key(i)).collect();
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("leaf {node}: keys unsorted"));
                }
                if !keys.iter().all(in_bounds) {
                    return Err(format!("leaf {node}: key out of separator bounds"));
                }
                Self::check_heads(node, &leaf.heads, &keys, leaf.skip, leaf.prefix)?;
                if let Some(i) =
                    (0..leaf.tails.len()).find(|&i| leaf.tails[i] != keys[i].rank64() as u32)
                {
                    return Err(format!("leaf {node}: stale tail at {i}"));
                }
                if leaf.hash {
                    if leaf.len() > INLINE_BUCKET_CAP {
                        return Err(format!(
                            "leaf {node}: hash mode past directory capacity ({} keys)",
                            leaf.len()
                        ));
                    }
                    for (i, k) in keys.iter().enumerate() {
                        if leaf.hash_find(k, k.rank64()) != Some(i) {
                            return Err(format!("leaf {node}: hash directory misses key {i}"));
                        }
                    }
                }
                *count += leaf.len();
                Ok(1)
            }
            Node::Inner(inner) => {
                if inner.children.len() != inner.keys.len() + 1 {
                    return Err(format!("internal {node}: arity mismatch"));
                }
                if !is_root && inner.keys.len() < self.min_keys() {
                    return Err(format!("internal {node}: underfull"));
                }
                if inner.keys.len() > self.max_keys {
                    return Err(format!("internal {node}: overfull"));
                }
                if !inner.keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("internal {node}: keys unsorted"));
                }
                if !inner.keys.iter().all(in_bounds) {
                    return Err(format!("internal {node}: separator out of bounds"));
                }
                Self::check_heads(node, &inner.heads, &inner.keys, inner.skip, inner.prefix)?;
                let mut depth = None;
                for (i, &c) in inner.children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(&inner.keys[i - 1]) };
                    let chi = if i == inner.keys.len() {
                        hi
                    } else {
                        Some(&inner.keys[i])
                    };
                    let d = self.check_rec(c, clo, chi, false, count)?;
                    if let Some(prev) = depth {
                        if prev != d {
                            return Err(format!("internal {node}: ragged depth"));
                        }
                    }
                    depth = Some(d);
                }
                Ok(depth.expect("internal has children") + 1)
            }
        }
    }
}

/// A [`BPlusTree`] bulk load in progress: strictly ascending entries go
/// straight into leaves, and each leaf is placed in the arena as soon as it
/// fills — as a run when its values form one, so no value array is ever
/// allocated for it. Only the newest full leaf is held back, so
/// [`Self::finish`] can rebalance it with an underfull tail; the level
/// above needs one `(low key, node)` pair per leaf.
#[derive(Debug)]
pub(crate) struct SortedLoad<K, V> {
    tree: BPlusTree<K, V>,
    /// The newest full leaf, not yet placed.
    held: Vec<(K, V)>,
    /// The leaf being filled. It and `held` swap buffers, so the load
    /// allocates no entry buffer per leaf.
    cur: Vec<(K, V)>,
    /// Every placed leaf's lowest key and node index.
    leaves: Vec<(K, u32)>,
    /// Scratch for the ranks of the leaf being placed.
    ranks: Vec<u64>,
}

impl<K: IndexKey, V: Progression> SortedLoad<K, V> {
    /// An empty load into leaves of `max_keys` entries.
    ///
    /// # Panics
    /// Panics if `max_keys < 3`.
    pub(crate) fn new(max_keys: usize) -> Self {
        let mut tree = BPlusTree::new(max_keys);
        tree.nodes.clear();
        Self {
            tree,
            held: Vec::with_capacity(max_keys),
            cur: Vec::with_capacity(max_keys),
            leaves: Vec::new(),
            ranks: Vec::with_capacity(max_keys),
        }
    }

    /// The largest key pushed so far.
    pub(crate) fn last_key(&self) -> Option<&K> {
        // Once a leaf is placed, `held` is never empty again.
        self.cur.last().or(self.held.last()).map(|(k, _)| k)
    }

    /// Appends an entry.
    ///
    /// # Panics
    /// Panics unless `key` is above every key pushed so far.
    pub(crate) fn push(&mut self, key: K, value: V) {
        if let Some(last) = self.last_key() {
            assert!(*last < key, "from_sorted requires strictly ascending keys");
        }
        self.cur.push((key, value));
        self.tree.len += 1;
        if self.cur.len() == self.tree.max_keys {
            if !self.held.is_empty() {
                let mut ready = std::mem::take(&mut self.held);
                self.place(&ready);
                ready.clear();
                self.held = ready;
            }
            std::mem::swap(&mut self.cur, &mut self.held);
        }
    }

    fn place(&mut self, entries: &[(K, V)]) {
        let idx = self.tree.nodes.len() as u32;
        self.ranks.clear();
        self.ranks.extend(entries.iter().map(|(k, _)| k.rank64()));
        let values = entries.iter().map(|&(_, v)| v);
        let vals = Vals::run_of(values.clone()).unwrap_or_else(|| {
            let id = self.tree.arrays.alloc();
            for (slot, v) in self.tree.arrays.get_mut(id).iter_mut().zip(values) {
                *slot = v;
            }
            Vals::Array(id)
        });
        self.tree
            .nodes
            .push(Node::Leaf(Leaf::from_parts(&self.ranks, vals)));
        self.leaves.push((entries[0].0.clone(), idx));
    }

    /// Places the last leaves and stacks inner levels until one node
    /// remains.
    pub(crate) fn finish(mut self) -> BPlusTree<K, V> {
        let max_keys = self.tree.max_keys;
        let min_keys = self.tree.min_keys();
        let mut held = std::mem::take(&mut self.held);
        let mut cur = std::mem::take(&mut self.cur);
        // Fix an underfull tail leaf by rebalancing it with the full one
        // before it.
        if !held.is_empty() && !cur.is_empty() && cur.len() < min_keys {
            let take = (max_keys + cur.len()).div_ceil(2);
            let moved = held.split_off(take);
            let old = std::mem::replace(&mut cur, moved);
            cur.extend(old);
        }
        for entries in [held, cur] {
            if !entries.is_empty() {
                self.place(&entries);
            }
        }
        let Self {
            mut tree,
            leaves: mut level,
            ..
        } = self;
        if level.is_empty() {
            tree.nodes.push(Node::Leaf(Leaf::empty()));
            return tree;
        }

        // Build inner levels until one node remains.
        let fanout = max_keys + 1;
        while level.len() > 1 {
            let mut sizes: Vec<usize> = Vec::new();
            let mut remaining = level.len();
            while remaining > 0 {
                let s = remaining.min(fanout);
                sizes.push(s);
                remaining -= s;
            }
            // An underfull tail group steals children from its left
            // neighbour (non-root inner nodes need ≥ min_keys separators).
            let t = sizes.len() - 1;
            if sizes.len() > 1 && sizes[t] < min_keys + 1 {
                let total = sizes[t - 1] + sizes[t];
                sizes[t - 1] = total.div_ceil(2);
                sizes[t] = total - sizes[t - 1];
            }
            let mut next: Vec<(K, u32)> = Vec::with_capacity(sizes.len());
            let mut it = level.into_iter();
            for s in sizes {
                let group: Vec<(K, u32)> = it.by_ref().take(s).collect();
                let low = group[0].0.clone();
                let keys: Vec<K> = group[1..].iter().map(|(k, _)| k.clone()).collect();
                let children: Vec<u32> = group.iter().map(|&(_, c)| c).collect();
                let idx = tree.nodes.len() as u32;
                tree.nodes
                    .push(Node::Inner(Inner::from_parts(keys, children)));
                next.push((low, idx));
            }
            level = next;
            tree.height += 1;
        }
        tree.root = level[0].1;
        // The arena grew by doubling; a bulk-built tree keeps no spare slots.
        tree.nodes.shrink_to_fit();
        tree
    }
}

/// In-order iterator (depth-first through the arena).
///
/// Iteration counts as a scan: every leaf it yields from is flagged, so a
/// hash-mode leaf reverts to plain sorted mode at its next mutation.
pub struct Iter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    /// (node, next child/entry index) stack.
    stack: Vec<(u32, usize)>,
}

impl<K: IndexKey, V: Progression> Iterator for Iter<'_, K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, pos) = *self.stack.last()?;
            match &self.tree.nodes[node as usize] {
                Node::Leaf(leaf) => {
                    if pos < leaf.len() {
                        leaf.note_scan();
                        self.stack.last_mut().expect("non-empty").1 += 1;
                        return Some((leaf.key(pos), leaf.value(pos, &self.tree.arrays)));
                    }
                    self.stack.pop();
                }
                Node::Inner(inner) => {
                    if pos < inner.children.len() {
                        self.stack.last_mut().expect("non-empty").1 += 1;
                        self.stack.push((inner.children[pos], 0));
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_lookup_misses() {
        let t = BPlusTree::<u64, u32>::new(4);
        assert_eq!(t.get(&1), None);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_get_roundtrip_ascending() {
        let mut t = BPlusTree::new(4);
        for k in 0..1000u64 {
            assert_eq!(t.insert(k, k * 2), None);
        }
        for k in 0..1000u64 {
            assert_eq!(t.get(&k), Some(k * 2));
        }
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_get_roundtrip_random_order() {
        let mut t = BPlusTree::new(5);
        let mut keys: Vec<u64> = (0..2000).collect();
        // Deterministic shuffle.
        let mut x = 3u64;
        for i in (1..keys.len()).rev() {
            x = p4lru_core_hash(x);
            keys.swap(i, (x % (i as u64 + 1)) as usize);
        }
        for &k in &keys {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        for &k in &keys {
            assert_eq!(t.get(&k), Some(k));
        }
        // In-order iteration is sorted.
        let collected: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(collected, (0..2000).collect::<Vec<_>>());
    }

    /// Local mix to avoid a dev-dependency cycle.
    fn p4lru_core_hash(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z ^ (z >> 31)
    }

    #[test]
    fn reinsert_replaces_value() {
        let mut t = BPlusTree::new(4);
        assert_eq!(t.insert(7, 1), None);
        assert_eq!(t.insert(7, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&7), Some(2));
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut t = BPlusTree::new(4);
        for k in 0..10_000u64 {
            t.insert(k, ());
        }
        // Fan-out ≥ 3 after splits ⇒ height ≤ log3(10000)+2 ≈ 10.
        assert!(t.height() >= 4, "height {}", t.height());
        assert!(t.height() <= 12, "height {}", t.height());
        let (v, visits) = t.lookup(&5000);
        assert!(v.is_some());
        assert_eq!(visits, t.height());
    }

    #[test]
    fn remove_returns_value_and_shrinks() {
        let mut t = BPlusTree::new(4);
        for k in 0..500u64 {
            t.insert(k, k);
        }
        for k in (0..500u64).step_by(2) {
            assert_eq!(t.remove(&k), Some(k));
            assert_eq!(t.remove(&k), None);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 250);
        for k in 0..500u64 {
            assert_eq!(t.get(&k).is_some(), k % 2 == 1);
        }
    }

    #[test]
    fn remove_everything_collapses_to_empty_root() {
        let mut t = BPlusTree::new(4);
        for k in 0..300u64 {
            t.insert(k, k);
        }
        for k in 0..300u64 {
            assert_eq!(t.remove(&k), Some(k));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
        // And the tree is still usable.
        t.insert(42, 42);
        assert_eq!(t.get(&42), Some(42));
        t.check_invariants().unwrap();
    }

    #[test]
    fn mixed_workload_keeps_invariants() {
        let mut t = BPlusTree::new(6);
        let mut model = std::collections::BTreeMap::new();
        let mut x = 11u64;
        for step in 0..20_000u64 {
            x = p4lru_core_hash(x);
            let key = x % 700;
            if x & 3 == 0 {
                assert_eq!(t.remove(&key), model.remove(&key), "step {step}");
            } else {
                assert_eq!(t.insert(key, step), model.insert(key, step), "step {step}");
            }
            if step % 2500 == 0 {
                t.check_invariants().unwrap();
                assert_eq!(t.len(), model.len());
            }
        }
        t.check_invariants().unwrap();
        let got: Vec<(u64, u64)> = t.iter().collect();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn iter_from_resumes_mid_tree() {
        let mut t = BPlusTree::new(4);
        for k in (0..1000u64).step_by(2) {
            t.insert(k, k);
        }
        // Start at a present key.
        let got: Vec<u64> = t.iter_from(&100).take(5).map(|(k, _)| k).collect();
        assert_eq!(got, vec![100, 102, 104, 106, 108]);
        // Start between keys.
        let got: Vec<u64> = t.iter_from(&101).take(3).map(|(k, _)| k).collect();
        assert_eq!(got, vec![102, 104, 106]);
        // Start past the end.
        assert_eq!(t.iter_from(&10_000).count(), 0);
        // Start before the beginning covers everything.
        assert_eq!(t.iter_from(&0).count(), 500);
    }

    #[test]
    fn range_is_half_open() {
        let mut t = BPlusTree::new(5);
        for k in 0..100u64 {
            t.insert(k, k * 2);
        }
        let got: Vec<(u64, u64)> = t.range(&10, &15).collect();
        assert_eq!(got, vec![(10, 20), (11, 22), (12, 24), (13, 26), (14, 28)]);
        assert_eq!(t.range(&50, &50).count(), 0);
        assert_eq!(t.range(&95, &1000).count(), 5);
    }

    #[test]
    fn iter_from_matches_btreemap_on_random_data() {
        let mut t = BPlusTree::new(6);
        let mut model = std::collections::BTreeMap::new();
        let mut x = 77u64;
        for i in 0..3000u64 {
            x = p4lru_core_hash(x);
            let k = x % 5000;
            t.insert(k, i);
            model.insert(k, i);
        }
        for probe in [0u64, 17, 999, 2500, 4999, 6000] {
            let got: Vec<u64> = t.iter_from(&probe).map(|(k, _)| k).collect();
            let want: Vec<u64> = model.range(probe..).map(|(k, _)| *k).collect();
            assert_eq!(got, want, "probe {probe}");
        }
    }

    #[test]
    fn large_fanout_lowers_height() {
        let build = |max_keys| {
            let mut t = BPlusTree::new(max_keys);
            for k in 0..50_000u64 {
                t.insert(k, ());
            }
            t.check_invariants().unwrap();
            t.height()
        };
        assert!(build(64) < build(4));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_fanout_rejected() {
        let _ = BPlusTree::<u64, ()>::new(2);
    }

    // ——— slot-layout additions ———

    #[test]
    fn from_sorted_matches_insert_built_tree() {
        for n in [0usize, 1, 3, 63, 64, 65, 1000, 4097] {
            let entries: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 3, k)).collect();
            let bulk = BPlusTree::from_sorted(64, entries.clone());
            bulk.check_invariants()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            let mut built = BPlusTree::new(64);
            for &(k, v) in &entries {
                built.insert(k, v);
            }
            assert_eq!(bulk.len(), built.len(), "n={n}");
            let a: Vec<(u64, u64)> = bulk.iter().collect();
            let b: Vec<(u64, u64)> = built.iter().collect();
            assert_eq!(a, b, "n={n}");
            assert!(bulk.height() <= built.height(), "n={n}: bulk is denser");
        }
    }

    #[test]
    fn from_sorted_tail_rebalance_keeps_occupancy() {
        // n = k * max_keys + 1 leaves a 1-entry tail without the fix.
        for max_keys in [4usize, 5, 7, 64] {
            for tail in 1..=2usize {
                let n = 10 * max_keys + tail;
                let t = BPlusTree::from_sorted(max_keys, (0..n as u64).map(|k| (k, ())));
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("max_keys={max_keys} n={n}: {e}"));
                assert_eq!(t.len(), n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted_input() {
        let _ = BPlusTree::from_sorted(4, [(3u64, ()), (2, ())]);
    }

    #[test]
    fn from_sorted_tree_is_mutable_afterwards() {
        let mut t = BPlusTree::from_sorted(8, (0..1000u64).map(|k| (k * 2, k)));
        for k in 0..500u64 {
            t.insert(k * 2 + 1, k);
        }
        for k in (0..2000u64).step_by(3) {
            t.remove(&k);
        }
        t.check_invariants().unwrap();
        let keys: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        let mut model: std::collections::BTreeSet<u64> =
            (0..2000u64).filter(|k| *k < 1000 || k % 2 == 0).collect();
        model.retain(|k| k % 3 != 0);
        assert_eq!(keys, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn upsert_with_is_single_walk_upsert() {
        let mut t = BPlusTree::new(8);
        let up = t.upsert_with(10u64, || 1);
        assert!(!up.existed);
        assert_eq!(up.value, 1);
        let up = t.upsert_with(10u64, || unreachable!("key exists"));
        assert!(up.existed);
        assert_eq!(up.visits, 1, "single-leaf tree: one visit");
        assert_eq!(t.insert(10, 5), Some(1));
        assert_eq!(t.get(&10), Some(5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_hot_hits_cost_one_visit() {
        let t = BPlusTree::from_sorted(8, (0..10_000u64).map(|k| (k, k)));
        assert!(t.height() > 2);
        let (_, cold) = t.lookup_hot(&5000);
        assert_eq!(cold, t.height(), "first touch walks the tree");
        let before = t.descent_hits();
        let (v, hot) = t.lookup_hot(&5000);
        assert_eq!(v, Some(5000));
        assert_eq!(hot, 1, "repeat lands in the cached leaf");
        assert_eq!(t.descent_hits(), before + 1);
        // A miss inside the cached leaf's span is decidable in one visit
        // too — but only via the hot path; `lookup` still walks fully.
        let (_, visits) = t.lookup(&5000);
        assert_eq!(visits, t.height());
    }

    #[test]
    fn descent_cache_survives_rebalances_correctly() {
        let mut t = BPlusTree::new(4);
        for k in 0..500u64 {
            t.insert(k, k);
        }
        // Warm the cache on one leaf, then force merges/borrows around it.
        assert_eq!(t.lookup_hot(&250).0, Some(250));
        assert_eq!(t.lookup_hot(&250).0, Some(250));
        for k in 200..300u64 {
            if k != 250 {
                t.remove(&k);
            }
        }
        t.check_invariants().unwrap();
        // The cached leaf index is stale now; answers must stay right.
        assert_eq!(t.lookup_hot(&250).0, Some(250));
        assert_eq!(t.lookup_hot(&299).0, None);
        assert_eq!(t.lookup_hot(&199).0, Some(199));
        t.remove(&250);
        assert_eq!(t.lookup_hot(&250).0, None);
    }

    #[test]
    fn hash_mode_flips_on_point_streak_and_reverts_on_scan() {
        let mut t = BPlusTree::from_sorted(16, (0..12u64).map(|k| (k, k)));
        let leaf_of = |t: &BPlusTree<u64, u64>| match &t.nodes[t.root as usize] {
            Node::Leaf(l) => (l.hash, l.mix.load(Relaxed)),
            Node::Inner(_) => panic!("single-leaf tree expected"),
        };
        assert!(!leaf_of(&t).0, "starts in sorted mode");
        for _ in 0..(FLIP_STREAK + 2) {
            assert_eq!(t.get(&7), Some(7));
        }
        t.insert(100, 100); // mutation applies the pending flip
        assert!(leaf_of(&t).0, "point streak flips to hash mode");
        t.check_invariants().unwrap();
        for k in 0..12u64 {
            assert_eq!(t.get(&k), Some(k));
        }
        assert_eq!(t.get(&100), Some(100));
        // A scan flags the leaf; the next mutation drops the sidecar.
        assert_eq!(t.range(&0, &5).count(), 5);
        t.insert(101, 101);
        assert!(!leaf_of(&t).0, "scan touch reverts to sorted mode");
        t.check_invariants().unwrap();
    }

    #[test]
    fn apply_adaptation_flips_without_a_mutation() {
        let mut t = BPlusTree::from_sorted(16, (0..16u64).map(|k| (k, k)));
        for _ in 0..(FLIP_STREAK + 2) {
            assert_eq!(t.get(&3), Some(3));
        }
        t.apply_adaptation();
        match &t.nodes[t.root as usize] {
            Node::Leaf(l) => assert!(l.hash),
            Node::Inner(_) => panic!("single-leaf tree expected"),
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn lookup_run_reads_armed_hash_leaves() {
        let mut t = BPlusTree::from_sorted(8, (0..200u64).map(|k| (k * 3, k)));
        for _ in 0..(FLIP_STREAK + 2) {
            for k in 0..200u64 {
                t.get(&(k * 3));
            }
        }
        t.apply_adaptation();
        assert!(t.height() > 2);
        assert!(
            t.nodes
                .iter()
                .all(|n| matches!(n, Node::Inner(_)) || matches!(n, Node::Leaf(l) if l.hash)),
            "every leaf armed"
        );
        let probes: Vec<u64> = (0..620).rev().collect();
        let mut out = Vec::new();
        t.lookup_run(&probes, &mut out);
        let want: Vec<Option<u64>> = probes.iter().map(|k| t.lookup(k).0).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn signed_and_narrow_keys_work() {
        let mut t = BPlusTree::new(8);
        let keys: Vec<i32> = vec![i32::MIN, -100, -1, 0, 1, 100, i32::MAX];
        for &k in &keys {
            t.insert(k, i64::from(k));
        }
        t.check_invariants().unwrap();
        let got: Vec<i32> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(got, keys, "signed keys iterate in order");
        for &k in &keys {
            assert_eq!(t.get(&k), Some(i64::from(k)));
        }

        let mut t = BPlusTree::new(4);
        for k in (0..=u16::MAX).step_by(7) {
            t.insert(k, ());
        }
        t.check_invariants().unwrap();
        assert_eq!(t.get(&7), Some(()));
        assert_eq!(t.get(&8), None);
    }

    #[test]
    fn heads_discriminate_dense_keys() {
        // The regression this layout exists for: dense u64 keys must get
        // non-degenerate heads via prefix truncation.
        let t = BPlusTree::from_sorted(64, (0..100_000u64).map(|k| (k, ())));
        t.check_invariants().unwrap();
        let mut saw_discriminating_leaf = false;
        for node in &t.nodes {
            if let Node::Leaf(leaf) = node {
                if leaf.len() > 1 {
                    let distinct: std::collections::BTreeSet<u32> =
                        leaf.heads.iter().copied().collect();
                    assert_eq!(
                        distinct.len(),
                        leaf.heads.len(),
                        "dense consecutive keys must have fully distinct heads"
                    );
                    saw_discriminating_leaf = true;
                }
            }
        }
        assert!(saw_discriminating_leaf);
    }

    // ——— run leaves ———

    /// `(run leaves, array leaves)` among the non-empty leaves.
    fn leaf_forms<V>(t: &BPlusTree<u64, V>) -> (usize, usize) {
        let leaves = t.nodes.iter().filter_map(|n| match n {
            Node::Leaf(l) if !l.heads.is_empty() => Some(&l.vals),
            _ => None,
        });
        leaves.fold((0, 0), |(runs, arrays), vals| match vals {
            Vals::Run { .. } => (runs + 1, arrays),
            Vals::Array(_) => (runs, arrays + 1),
        })
    }

    #[test]
    fn a_bulk_load_of_a_progression_places_only_run_leaves() {
        let t = BPlusTree::from_sorted(8, (0..1000u64).map(|k| (k * 3, 500 + k)));
        t.check_invariants().unwrap();
        assert_eq!(leaf_forms(&t), (125, 0));
        for k in 0..1000u64 {
            assert_eq!(t.lookup(&(k * 3)).0, Some(500 + k));
            assert_eq!(t.get(&(k * 3 + 1)), None);
        }
        assert!(t.iter().map(|(_, v)| v).eq(500..1500));
        // The same keys with one value out of step: that leaf alone is an
        // array, and only its array pays value bytes.
        let bumped = BPlusTree::from_sorted(
            8,
            (0..1000u64).map(|k| (k * 3, if k == 9 { 0 } else { 500 + k })),
        );
        bumped.check_invariants().unwrap();
        assert_eq!(leaf_forms(&bumped), (124, 1));
        assert_eq!((t.arrays.made(), bumped.arrays.made()), (0, 1));
        assert_eq!(t.arrays.heap_bytes(), 0);
        assert_eq!(
            bumped.heap_bytes(),
            t.heap_bytes() + bumped.arrays.heap_bytes()
        );
        assert_eq!(bumped.get(&27), Some(0));
        assert_eq!(bumped.get(&30), Some(510));
    }

    #[test]
    fn an_upsert_keeps_a_run_and_any_write_turns_it_into_an_array() {
        let mut t = BPlusTree::from_sorted(8, (0..8u64).map(|k| (k, 100 + k)));
        assert_eq!(leaf_forms(&t), (1, 0));
        let found = t.upsert_with(5, || unreachable!("key exists"));
        assert_eq!((found.value, found.existed, found.visits), (105, true, 1));
        assert_eq!(leaf_forms(&t), (1, 0), "finding a key: still a run");
        assert_eq!(t.insert(5, 7), Some(105));
        assert_eq!(leaf_forms(&t), (0, 1), "an overwrite: an array");
        t.check_invariants().unwrap();
        let want: Vec<(u64, u64)> = (0..8)
            .map(|k| (k, if k == 5 { 7 } else { 100 + k }))
            .collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), want);

        // A fresh key, even the run's next value at its end, makes the full
        // leaf an array before it splits.
        let mut t = BPlusTree::from_sorted(4, (0..4u64).map(|k| (k * 10, 100 + k)));
        assert_eq!(t.upsert_with(40, || 104).value, 104);
        assert_eq!((t.height(), leaf_forms(&t)), (2, (0, 2)));
        t.check_invariants().unwrap();
        assert!(t.iter().eq((0..5u64).map(|k| (k * 10, 100 + k))));
    }

    #[test]
    fn a_remove_turns_the_run_into_an_array_first() {
        let mut t = BPlusTree::from_sorted(8, (0..16u64).map(|k| (k, 100 + k)));
        assert_eq!(leaf_forms(&t), (2, 0));
        assert_eq!(t.remove(&3), Some(103));
        assert_eq!(leaf_forms(&t), (1, 1));
        t.check_invariants().unwrap();
        for k in (0..16u64).filter(|&k| k != 3) {
            assert_eq!(t.get(&k), Some(100 + k), "key {k}");
        }
        // Rebalancing moves entries between a run and an array.
        for k in 4..7u64 {
            assert_eq!(t.remove(&k), Some(100 + k));
        }
        t.check_invariants().unwrap();
        assert!(t.iter().eq((0..16u64)
            .filter(|k| !(3..7).contains(k))
            .map(|k| (k, 100 + k))));
    }
}
