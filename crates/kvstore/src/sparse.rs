//! The sparse record codec: a record as the mask of its non-zero 8-byte
//! words and those words, in order.
//!
//! Bit `i` of the mask is set when bytes `8i..8i+8` of the record are not
//! all zero. A served value is padded to [`VALUE_SIZE`] with zeros, so
//! most of a record is elided: a preloaded record keeps two of its eight
//! words. The record heap stores records in this form ([`crate::slab`]),
//! and a version 2 snapshot entry is `[u64 key]` followed by
//! [`Sparse::write_le`]'s bytes. This module is the one place that maps a
//! record to that form and back.

use crate::slab::{Record, VALUE_SIZE};

/// Bytes in a word.
pub const WORD_BYTES: usize = 8;
/// Words in a record: a mask has one bit for each.
pub const WORDS: usize = VALUE_SIZE / WORD_BYTES;
const _: () = assert!(WORDS == u8::BITS as usize);

/// The longest encoding [`Sparse::write_le`] makes: the mask and every
/// word.
pub const MAX_ENCODED_BYTES: usize = 1 + VALUE_SIZE;

/// A record in sparse form, borrowing its words from the heap or from a
/// caller's buffer: one word per set bit of the mask, lowest bit first,
/// each non-zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sparse<'a> {
    /// Bit `i`: word `i` of the record is kept.
    pub(crate) mask: u8,
    /// The kept words, in word order.
    pub(crate) words: &'a [u64],
}

impl<'a> Sparse<'a> {
    /// Encodes `record` into `buf`. Every word is copied to the next free
    /// place and only a non-zero one advances it, so the loop compares
    /// whole words and takes no branch on the data.
    pub fn encode(record: &Record, buf: &'a mut [u64; WORDS]) -> Self {
        let (mut mask, mut len) = (0u8, 0);
        for (i, word) in record.chunks_exact(WORD_BYTES).enumerate() {
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            buf[len] = word;
            let kept = word != 0;
            mask |= u8::from(kept) << i;
            len += usize::from(kept);
        }
        Self {
            mask,
            words: &buf[..len],
        }
    }

    /// Reads the encoding [`Sparse::write_le`] made, from the start of
    /// `bytes` (which must hold all of it: [`encoded_len`] of its first
    /// byte), into `buf`. A word that is zero after all is dropped and
    /// its bit cleared, so the result is what [`Sparse::encode`] makes of
    /// the same record.
    pub fn read_le(bytes: &[u8], buf: &'a mut [u64; WORDS]) -> Self {
        let mut rest = bytes[0];
        let (mut mask, mut len) = (0u8, 0);
        for word in bytes[1..encoded_len(rest)].chunks_exact(WORD_BYTES) {
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            buf[len] = word;
            let kept = word != 0;
            mask |= u8::from(kept) << rest.trailing_zeros();
            len += usize::from(kept);
            rest &= rest - 1;
        }
        Self {
            mask,
            words: &buf[..len],
        }
    }

    /// Writes the mask, then each word little-endian (the record's own
    /// bytes), to the start of `out`; returns the bytes written.
    pub fn write_le(self, out: &mut [u8]) -> usize {
        out[0] = self.mask;
        for (at, word) in out[1..].chunks_exact_mut(WORD_BYTES).zip(self.words) {
            at.copy_from_slice(&word.to_le_bytes());
        }
        1 + WORD_BYTES * self.words.len()
    }

    /// The record.
    pub fn decode(self) -> Record {
        let mut record = [0u8; VALUE_SIZE];
        let mut mask = self.mask;
        for word in self.words {
            let i = mask.trailing_zeros() as usize * WORD_BYTES;
            record[i..i + WORD_BYTES].copy_from_slice(&word.to_le_bytes());
            mask &= mask.wrapping_sub(1);
        }
        record
    }
}

/// The length of an encoding whose mask is `mask`.
pub fn encoded_len(mask: u8) -> usize {
    1 + WORD_BYTES * mask.count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record with word `i` set to `i + 1` for each set bit of `mask`.
    fn record_of(mask: u8) -> Record {
        let mut r = [0u8; VALUE_SIZE];
        for i in 0..WORDS {
            if mask & (1 << i) != 0 {
                r[i * WORD_BYTES] = i as u8 + 1;
            }
        }
        r
    }

    #[test]
    fn every_mask_round_trips_through_both_forms() {
        for mask in 0..=u8::MAX {
            let record = record_of(mask);
            let mut buf = [0; WORDS];
            let sparse = Sparse::encode(&record, &mut buf);
            assert_eq!(sparse.mask, mask);
            assert_eq!(sparse.words.len(), mask.count_ones() as usize);
            assert_eq!(sparse.decode(), record);
            let mut bytes = [0u8; MAX_ENCODED_BYTES];
            let len = sparse.write_le(&mut bytes);
            assert_eq!(len, encoded_len(mask));
            let mut again = [0; WORDS];
            assert_eq!(Sparse::read_le(&bytes[..len], &mut again), sparse);
        }
    }

    #[test]
    fn a_kept_word_that_is_zero_reads_as_dropped() {
        // Mask 0b101 with words [0, 7]: word 0 is zero after all.
        let mut bytes = [0u8; 17];
        bytes[0] = 0b101;
        bytes[9] = 7;
        let mut buf = [0; WORDS];
        let sparse = Sparse::read_le(&bytes, &mut buf);
        assert_eq!((sparse.mask, sparse.words), (0b100, &[7][..]));
    }

    #[test]
    fn words_are_the_records_own_bytes() {
        let mut record = [0u8; VALUE_SIZE];
        record[8..16].copy_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        let mut buf = [0; WORDS];
        let mut bytes = [0u8; MAX_ENCODED_BYTES];
        let len = Sparse::encode(&record, &mut buf).write_le(&mut bytes);
        assert_eq!(&bytes[..len], &[&[0b10][..], &record[8..16]].concat()[..]);
    }
}
