//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slicing-by-8.
//!
//! Every WAL record and snapshot body carries this checksum so recovery can
//! tell a valid record from a torn or corrupted one without trusting the
//! length prefix alone. The tables are built at compile time. The hot path
//! folds eight bytes per step through eight 256-entry tables (table `k`
//! advances a byte's contribution by `k` more zero bytes), so a snapshot
//! checksums at memory speed; the values are those of the classic
//! one-table, one-byte-per-step loop, which the tests keep as a reference.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Incremental CRC-32 state, for checksumming streamed writes (snapshots).
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything updated so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The classic one-byte-per-step CRC-32 loop: the reference the
/// slicing-by-8 tables must reproduce, and the encoder older data
/// directories were written with.
#[cfg(test)]
pub(crate) fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn known_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let clean = crc32(&data);
        for byte in 0..64 {
            data[byte] ^= 0x10;
            assert_ne!(crc32(&data), clean, "flip at byte {byte} undetected");
            data[byte] ^= 0x10;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_equals_the_bytewise_loop(
            bytes in vec(any::<u8>(), 0..=300),
            cuts in vec(0usize..=300, 0..8),
        ) {
            let want = crc32_bytewise(&bytes);
            prop_assert_eq!(crc32(&bytes), want);
            // Any chunking of the same bytes folds to the same value.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                c.update(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(c.finish(), want);
        }
    }
}
