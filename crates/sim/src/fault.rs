//! Random fault injection, after smoltcp's `--drop-chance` /
//! `--corrupt-chance` examples.
//!
//! The injector sits on every link transmission (when configured) and
//! either drops the packet, flips one random bit, or passes it through.
//! Corruption exercises the data plane's checksum / magic validation: a
//! corrupted tunnel packet must be *counted and discarded*, never turned
//! into a bogus one-way-delay sample.

use rand::Rng;

/// What the injector decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver unchanged.
    Pass,
    /// Drop silently.
    Drop,
    /// One bit was flipped in place.
    Corrupted,
}

/// Configuration for random packet faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    /// Probability a packet is dropped.
    pub drop_chance: f64,
    /// Probability one bit of a surviving packet is flipped.
    pub corrupt_chance: f64,
}

impl FaultInjector {
    /// An injector with the given probabilities (clamped to [0, 1]).
    pub fn new(drop_chance: f64, corrupt_chance: f64) -> Self {
        FaultInjector {
            drop_chance: drop_chance.clamp(0.0, 1.0),
            corrupt_chance: corrupt_chance.clamp(0.0, 1.0),
        }
    }

    /// Apply to a packet buffer. May flip one bit in place.
    pub fn apply<R: Rng + ?Sized>(&self, rng: &mut R, bytes: &mut [u8]) -> FaultDecision {
        if self.drop_chance > 0.0 && rng.gen_bool(self.drop_chance) {
            return FaultDecision::Drop;
        }
        if self.corrupt_chance > 0.0 && !bytes.is_empty() && rng.gen_bool(self.corrupt_chance) {
            let idx = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u32);
            // tango-lint: allow(hot-path-panic) gen_range(0..len) is in bounds; is_empty checked above
            bytes[idx] ^= 1u8 << bit;
            return FaultDecision::Corrupted;
        }
        FaultDecision::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_rates_always_pass() {
        let f = FaultInjector::new(0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = [1u8, 2, 3];
        for _ in 0..100 {
            assert_eq!(f.apply(&mut rng, &mut b), FaultDecision::Pass);
        }
        assert_eq!(b, [1, 2, 3]);
    }

    #[test]
    fn full_drop_rate_always_drops() {
        let f = FaultInjector::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = [0u8; 4];
        assert_eq!(f.apply(&mut rng, &mut b), FaultDecision::Drop);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let f = FaultInjector::new(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let orig = [0xaau8; 16];
        let mut b = orig;
        assert_eq!(f.apply(&mut rng, &mut b), FaultDecision::Corrupted);
        let flipped: u32 = orig.iter().zip(&b).map(|(a, c)| (a ^ c).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn empty_packet_never_corrupts() {
        let f = FaultInjector::new(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut b: [u8; 0] = [];
        assert_eq!(f.apply(&mut rng, &mut b), FaultDecision::Pass);
    }

    #[test]
    fn rates_clamp() {
        let f = FaultInjector::new(7.0, -2.0);
        assert_eq!(f.drop_chance, 1.0);
        assert_eq!(f.corrupt_chance, 0.0);
    }

    #[test]
    fn statistical_rates_roughly_match() {
        let f = FaultInjector::new(0.15, 0.15);
        let mut rng = StdRng::seed_from_u64(4);
        let (mut drops, mut corrupts) = (0u32, 0u32);
        let n = 20_000;
        for _ in 0..n {
            let mut b = [0u8; 8];
            match f.apply(&mut rng, &mut b) {
                FaultDecision::Drop => drops += 1,
                FaultDecision::Corrupted => corrupts += 1,
                FaultDecision::Pass => {}
            }
        }
        let drop_rate = f64::from(drops) / f64::from(n);
        // Corruption applies only to survivors: expected 0.15 * 0.85.
        let corrupt_rate = f64::from(corrupts) / f64::from(n);
        assert!((drop_rate - 0.15).abs() < 0.01, "drop {drop_rate}");
        assert!(
            (corrupt_rate - 0.1275).abs() < 0.01,
            "corrupt {corrupt_rate}"
        );
    }
}
