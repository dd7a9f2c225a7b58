//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slicing-by-8.
//!
//! Every WAL record and snapshot body carries this checksum so recovery can
//! tell a valid record from a torn or corrupted one without trusting the
//! length prefix alone. The tables are built at compile time. The hot path
//! folds eight bytes per step through eight 256-entry tables (table `k`
//! advances a byte's contribution by `k` more zero bytes). A long input is
//! cut into three equal lanes folded side by side, so three independent
//! chains of table loads overlap instead of waiting on one another; the
//! lanes are joined by multiplying by `x^(8·len) mod P` in GF(2), zlib's
//! `crc32_combine` step. The values are those of the classic one-table,
//! one-byte-per-step loop, which the tests keep as a reference.

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

/// Inputs at least this long are folded in three lanes; shorter ones (a
/// WAL record) in one, where joining the lanes would cost more than it
/// saves.
const LANES_MIN_BYTES: usize = 8 << 10;

/// `a(x)·b(x) mod P`, both in the reflected representation (bit 31 is
/// `x^0`), as zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `X2N[k]` is `x^(2^k) mod P`; the powers repeat with period 32, as
/// zlib's `x2n_table` relies on.
const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = build_x2n();

/// `x^(8·bytes) mod P`: the factor that moves a CRC register past `bytes`
/// zero bytes (zlib's `x2nmodp(bytes, 3)`).
fn shift_factor(bytes: usize) -> u32 {
    let (mut n, mut k, mut p) = (bytes as u64, 3, 1u32 << 31);
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Folds one 8-byte word into the register `crc`.
#[inline(always)]
fn fold_word(crc: u32, w: &[u8]) -> u32 {
    let t = &TABLES;
    let v = u64::from_le_bytes(w.try_into().expect("an 8-byte word")) ^ crc as u64;
    let byte = |i: u32| ((v >> (8 * i)) & 0xFF) as usize;
    t[7][byte(0)]
        ^ t[6][byte(1)]
        ^ t[5][byte(2)]
        ^ t[4][byte(3)]
        ^ t[3][byte(4)]
        ^ t[2][byte(5)]
        ^ t[1][byte(6)]
        ^ t[0][byte(7)]
}

/// Folds `bytes` into the register `crc`, one stream.
fn fold(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = fold_word(crc, w);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Folds `bytes` into the register `crc` as three lanes of equal length, a
/// multiple of eight bytes, then the rest as one stream. The second and
/// third lanes start from a zero register; a register run on past `len`
/// more bytes is the register times `x^(8·len)` plus the CRC of those
/// bytes from zero, so `((a·s) ^ b)·s ^ c` is the register over all three.
fn fold_three(crc: u32, bytes: &[u8]) -> u32 {
    let lane = bytes.len() / 24 * 8;
    let (lanes, rest) = bytes.split_at(3 * lane);
    let (a, bc) = lanes.split_at(lane);
    let (b, c) = bc.split_at(lane);
    let (mut ra, mut rb, mut rc) = (crc, 0, 0);
    for ((wa, wb), wc) in a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8))
    {
        ra = fold_word(ra, wa);
        rb = fold_word(rb, wb);
        rc = fold_word(rc, wc);
    }
    let shift = shift_factor(lane);
    let joined = multmodp(shift, multmodp(shift, ra) ^ rb) ^ rc;
    fold(joined, rest)
}

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
        self.state = if bytes.len() >= LANES_MIN_BYTES {
            fold_three(self.state, bytes)
        } else {
            fold(self.state, bytes)
        };
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

    /// Every short length, and every length around the cut-over to three
    /// lanes and the lanes' 24-byte granule.
    #[test]
    fn lengths_around_the_lane_cut_over_equal_the_bytewise_loop() {
        let bytes: Vec<u8> = (0..LANES_MIN_BYTES as u32 + 64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for len in (0..=64).chain(LANES_MIN_BYTES - 24..=LANES_MIN_BYTES + 64) {
            assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]), "{len}");
        }
    }

    #[test]
    fn shift_factor_moves_a_register_past_zero_bytes() {
        // x^(2^32) = x: the period the table's wrap-around relies on.
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
        for (crc, len) in [(0xFFFF_FFFF, 1), (0x1234_5678, 8), (0xDEAD_BEEF, 4099)] {
            let zeros = vec![0u8; len];
            assert_eq!(multmodp(shift_factor(len), crc), fold(crc, &zeros), "{len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_equals_the_bytewise_loop(
            bytes in vec(any::<u8>(), 0..=64 << 10),
            cuts in vec(0usize..=64 << 10, 0..8),
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
