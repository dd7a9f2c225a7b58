//! Adversarial request patterns for the two-tier evaluation.
//!
//! A static Zipf workload flatters any cache once it is warm; the cases
//! that separate recency-tracking (LRU) from frequency or static placement
//! are the ones where popularity *moves*. [`HotFlipConfig`] is Zipf-skewed
//! traffic whose hot set rotates every `flip_every` operations. Each phase
//! shifts the popularity ranking by a golden-ratio stride before the usual
//! rank→key scramble, so successive hot sets are nearly disjoint. An LRU
//! tier re-converges within one cache-fill of the flip; a frequency-biased
//! or static tier keeps serving yesterday's celebrities.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ycsb::{Op, ScrambledIndex};
use crate::zipf::Zipf;

/// Zipf workload with a periodically rotating hot set.
#[derive(Clone, Debug)]
pub struct HotFlipConfig {
    /// Number of items in the database.
    pub items: u64,
    /// Zipf skew of key popularity within a phase.
    pub alpha: f64,
    /// Fraction of reads (the remainder are updates).
    pub read_fraction: f64,
    /// Operations between hot-set rotations.
    pub flip_every: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HotFlipConfig {
    fn default() -> Self {
        Self {
            items: 100_000,
            alpha: 0.9,
            read_fraction: 0.95,
            flip_every: 50_000,
            seed: 0xF11B,
        }
    }
}

impl HotFlipConfig {
    /// An infinite deterministic operation stream.
    ///
    /// # Panics
    /// Panics if `items == 0` or `flip_every == 0`.
    pub fn stream(&self) -> HotFlipStream {
        assert!(self.flip_every > 0, "flip_every must be positive");
        // Golden-ratio stride: phase offsets φ·items, 2φ·items, … are
        // maximally spread over the key space (a Weyl sequence), so the
        // rotated hot heads of consecutive phases barely overlap.
        let stride = ((self.items as f64 * 0.618_033_988_749_894_9) as u64).max(1);
        HotFlipStream {
            zipf: Zipf::new(self.items, self.alpha),
            scramble: ScrambledIndex::new(self.items, self.seed ^ 0x5EED),
            rng: SmallRng::seed_from_u64(self.seed),
            read_fraction: self.read_fraction,
            flip_every: self.flip_every,
            stride,
            items: self.items,
            emitted: 0,
        }
    }

    /// Generates `ops` operations eagerly.
    pub fn generate(&self, ops: usize) -> Vec<Op> {
        self.stream().take(ops).collect()
    }
}

/// Iterator of hot-key-flip operations.
#[derive(Clone, Debug)]
pub struct HotFlipStream {
    zipf: Zipf,
    scramble: ScrambledIndex,
    rng: SmallRng,
    read_fraction: f64,
    flip_every: u64,
    stride: u64,
    items: u64,
    emitted: u64,
}

impl HotFlipStream {
    /// The key that holds popularity rank `rank` (1-based) during `phase`.
    fn key_for(&self, rank: u64, phase: u64) -> u64 {
        let rotated = (rank - 1 + phase.wrapping_mul(self.stride)) % self.items;
        self.scramble.apply(rotated)
    }

    /// The current phase index (increments every `flip_every` ops).
    pub fn phase(&self) -> u64 {
        self.emitted / self.flip_every
    }
}

impl Iterator for HotFlipStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let phase = self.phase();
        self.emitted += 1;
        let rank = self.zipf.sample(&mut self.rng);
        let key = self.key_for(rank, phase);
        Some(if self.rng.gen::<f64>() < self.read_fraction {
            Op::Read(key)
        } else {
            Op::Update(key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_head(ops: &[Op], top: usize) -> Vec<u64> {
        let mut counts = std::collections::HashMap::new();
        for op in ops {
            *counts.entry(op.key()).or_insert(0usize) += 1;
        }
        let mut freq: Vec<(u64, usize)> = counts.into_iter().collect();
        freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        freq.into_iter().take(top).map(|(k, _)| k).collect()
    }

    #[test]
    fn flip_rotates_the_hot_set() {
        let cfg = HotFlipConfig {
            items: 10_000,
            flip_every: 30_000,
            ..Default::default()
        };
        let ops = cfg.generate(60_000);
        let before: std::collections::HashSet<u64> =
            hot_head(&ops[..30_000], 50).into_iter().collect();
        let after: std::collections::HashSet<u64> =
            hot_head(&ops[30_000..], 50).into_iter().collect();
        let overlap = before.intersection(&after).count();
        assert!(overlap < 10, "hot sets overlap in {overlap}/50 keys");
    }

    #[test]
    fn flip_keys_stay_in_range_and_deterministic() {
        let cfg = HotFlipConfig {
            items: 777,
            flip_every: 100,
            ..Default::default()
        };
        let ops = cfg.generate(1_000);
        assert!(ops.iter().all(|o| o.key() < cfg.items));
        assert_eq!(ops, cfg.generate(1_000));
    }

    #[test]
    fn flip_respects_read_fraction() {
        let cfg = HotFlipConfig {
            items: 1_000,
            read_fraction: 0.5,
            flip_every: 1_000,
            ..Default::default()
        };
        let ops = cfg.generate(20_000);
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let frac = reads as f64 / ops.len() as f64;
        assert!((frac - 0.5).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn phase_counter_advances() {
        let cfg = HotFlipConfig {
            items: 100,
            flip_every: 10,
            ..Default::default()
        };
        let mut s = cfg.stream();
        assert_eq!(s.phase(), 0);
        for _ in 0..10 {
            s.next();
        }
        assert_eq!(s.phase(), 1);
    }
}
