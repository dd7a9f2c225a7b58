//! Order-preserving key projections for the slot-layout B+Tree.
//!
//! The rewritten [`crate::btree::BPlusTree`] never compares full keys on the
//! hot path. Instead every node stores a contiguous array of 4-byte *heads*
//! derived from each key's big-endian encoding (the `head()` trick from the
//! btree-techniques thesis): an order-preserving `u32` that a binary search
//! can scan without touching the key storage at all.
//!
//! For that to discriminate anything on dense integer keys (the workspace
//! reality: `u64` record ids counting up from zero, whose top four
//! big-endian bytes are all zero), heads are combined with per-node *prefix
//! truncation*: a node whose keys share their first `skip` big-endian bytes
//! derives heads from bytes `[skip, skip + 4)` instead. A node covering 64
//! consecutive dense keys shares at least six prefix bytes, so its heads
//! become the low key bytes — fully discriminating.
//!
//! [`IndexKey`] is the one hook a key type provides: [`IndexKey::rank64`],
//! a *lossless* order-preserving projection onto `u64`, and its inverse
//! [`IndexKey::from_rank64`]. Everything else (prefixes, heads, tails,
//! hashes for hash-mode leaves) derives from the rank. Because the rank is
//! the key, a leaf stores no key at all: `prefix ‖ head` is the whole rank
//! once a leaf shares four or more prefix bytes, and a 4-byte *tail* (the
//! rank's low bytes) completes it otherwise (`compose_rank`). Equal
//! `(prefix, head[, tail])` means equal keys; there is no tie fallback.

/// A key usable by the slot-layout B+Tree.
///
/// Implementations must make [`rank64`](IndexKey::rank64) a *lossless*,
/// order-preserving projection: `a < b` iff `a.rank64() < b.rank64()`, and
/// [`from_rank64`](IndexKey::from_rank64) inverts it
/// (`K::from_rank64(k.rank64()) == k`). Leaves keep only the rank's bytes,
/// so there are no ties to fall back on: a type wider than eight bytes
/// cannot be an `IndexKey`.
pub trait IndexKey: Ord + Clone {
    /// An order-preserving, lossless projection of this key onto `u64`.
    fn rank64(&self) -> u64;

    /// The key whose [`rank64`](IndexKey::rank64) is `rank`. Only ever
    /// called with ranks of keys of this type.
    fn from_rank64(rank: u64) -> Self;

    /// The hash used by hash-mode leaves. The default is a single
    /// multiplicative (Fibonacci) hash — one multiply on the critical path
    /// before the bucket load, where a full finalizing mix costs a serial
    /// chain of them. Only the low 32 bits carry entropy (the mixed high
    /// half is shifted down, because bucket masks use the low bits); that
    /// is plenty for per-leaf directories of at most a few hundred slots.
    fn hash64(&self) -> u64 {
        self.rank64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
    }
}

macro_rules! unsigned_index_key {
    ($($t:ty),*) => {$(
        impl IndexKey for $t {
            #[inline]
            fn rank64(&self) -> u64 {
                *self as u64
            }

            #[inline]
            fn from_rank64(rank: u64) -> Self {
                rank as $t
            }
        }
    )*};
}

macro_rules! signed_index_key {
    ($($t:ty),*) => {$(
        impl IndexKey for $t {
            #[inline]
            fn rank64(&self) -> u64 {
                // Sign-flip the two's-complement encoding so negative keys
                // rank below positive ones.
                (*self as i64 as u64) ^ (1 << 63)
            }

            #[inline]
            fn from_rank64(rank: u64) -> Self {
                ((rank ^ (1 << 63)) as i64) as $t
            }
        }
    )*};
}

unsigned_index_key!(u8, u16, u32, u64, usize);
signed_index_key!(i8, i16, i32, i64, isize);

/// The first `skip` big-endian bytes of a rank, right-aligned.
///
/// Two keys live in the same prefix class iff their `be_prefix` values are
/// equal for the node's `skip`. `skip` must be in `0..=8`; `skip == 0`
/// means "no shared prefix" and every key trivially matches.
#[inline]
pub(crate) fn be_prefix(rank: u64, skip: u8) -> u64 {
    if skip == 0 {
        0
    } else {
        rank >> (64 - 8 * u32::from(skip.min(8)))
    }
}

/// Big-endian bytes `[skip, skip + 4)` of a rank as an order-preserving
/// `u32` head (zero-padded past the end; all-tie zero when `skip >= 8`).
#[inline]
pub(crate) fn head_at(rank: u64, skip: u8) -> u32 {
    if skip >= 8 {
        0
    } else {
        ((rank << (8 * u32::from(skip))) >> 32) as u32
    }
}

/// The rank that [`be_prefix`], [`head_at`] and (for `skip < 4`) the low
/// four bytes `tail` were cut from — their inverse. With `skip >= 4`,
/// `prefix ‖ head` already spans all eight bytes and `tail` is ignored;
/// with `skip < 4` the head and the tail overlap on bytes `[4, skip + 4)`,
/// which agree for any rank they came from.
#[inline]
pub(crate) fn compose_rank(prefix: u64, skip: u8, head: u32, tail: u32) -> u64 {
    match skip {
        0 => (u64::from(head) << 32) | u64::from(tail),
        1..=3 => {
            let s = 8 * u32::from(skip);
            (prefix << (64 - s)) | (u64::from(head) << (32 - s)) | u64::from(tail)
        }
        4..=7 => {
            let s = 8 * u32::from(skip);
            (prefix << (64 - s)) | (u64::from(head) >> (s - 32))
        }
        _ => prefix,
    }
}

/// How many leading big-endian bytes two ranks share (0..=8).
#[inline]
pub(crate) fn shared_prefix_bytes(lo: u64, hi: u64) -> u8 {
    let x = lo ^ hi;
    if x == 0 {
        8
    } else {
        (x.leading_zeros() / 8) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_preserves_order_unsigned() {
        let keys: Vec<u16> = vec![0, 1, 9, 255, 256, 65535];
        for w in keys.windows(2) {
            assert!(w[0].rank64() < w[1].rank64());
        }
    }

    #[test]
    fn rank_preserves_order_signed() {
        let keys: Vec<i32> = vec![i32::MIN, -5, -1, 0, 1, 7, i32::MAX];
        for w in keys.windows(2) {
            assert!(w[0].rank64() < w[1].rank64());
        }
    }

    #[test]
    fn dense_keys_get_discriminating_heads_after_truncation() {
        // The motivating case: 64 consecutive u64 keys. Without truncation
        // every head is zero; with it they are fully distinct.
        let base = 123_456u64;
        let ranks: Vec<u64> = (base..base + 64).map(|k| k.rank64()).collect();
        assert_eq!(head_at(ranks[0], 0), 0, "untruncated heads are useless");
        let skip = shared_prefix_bytes(ranks[0], ranks[63]);
        assert!(skip >= 4);
        let heads: Vec<u32> = ranks.iter().map(|&r| head_at(r, skip)).collect();
        for w in heads.windows(2) {
            assert!(w[0] < w[1], "heads must discriminate and stay ordered");
        }
    }

    #[test]
    fn heads_are_order_preserving_within_a_prefix_class() {
        for skip in 0..=8u8 {
            let a = 0x1122_3344_5566_7788u64;
            let b = a + 0x10;
            if be_prefix(a, skip) == be_prefix(b, skip) {
                assert!(head_at(a, skip) <= head_at(b, skip));
            }
        }
    }

    #[test]
    fn from_rank64_inverts_rank64() {
        for k in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(i64::from_rank64(k.rank64()), k);
        }
        for k in [i8::MIN, -1, 0, i8::MAX] {
            assert_eq!(i8::from_rank64(k.rank64()), k);
        }
        for k in [0u64, 1, u64::MAX] {
            assert_eq!(u64::from_rank64(k.rank64()), k);
        }
        assert_eq!(u16::from_rank64(65535u16.rank64()), 65535);
    }

    #[test]
    fn compose_rank_inverts_every_skip() {
        let ranks = [0u64, 1, 0x1122_3344_5566_7788, u64::MAX, 1 << 63];
        for &r in &ranks {
            for skip in 0..=8u8 {
                let back = compose_rank(be_prefix(r, skip), skip, head_at(r, skip), r as u32);
                assert_eq!(back, r, "rank {r:#x} skip {skip}");
            }
        }
    }

    #[test]
    fn prefix_and_head_edges() {
        assert_eq!(be_prefix(u64::MAX, 0), 0);
        assert_eq!(be_prefix(u64::MAX, 8), u64::MAX);
        assert_eq!(head_at(u64::MAX, 8), 0);
        assert_eq!(head_at(0xAABB_CCDD_0000_0000, 0), 0xAABB_CCDD);
        assert_eq!(head_at(0x0000_0000_AABB_CCDD, 4), 0xAABB_CCDD);
        assert_eq!(shared_prefix_bytes(7, 7), 8);
        assert_eq!(shared_prefix_bytes(0, u64::MAX), 0);
        assert_eq!(shared_prefix_bytes(0x0100, 0x01FF), 7);
    }
}
