//! SplitMix64: a counter-based generator with O(1) random access.
//!
//! State is a plain counter advanced by a fixed odd increment (the golden
//! gamma); each output is an avalanche hash of the counter. Because the
//! state after `i` steps is just `seed + (i+1)·GAMMA`, the `i`-th output
//! is computable directly — ideal for VCR-style block access where we need
//! `X_0^{(i)}` for an arbitrary block without replaying the stream.
//!
//! Constants are from Steele, Lea & Flood, "Fast Splittable Pseudorandom
//! Number Generators" (OOPSLA 2014), the same variant used by
//! `java.util.SplittableRandom`.

use crate::traits::{IndexedRng, SeededRng};

/// Weyl-sequence increment: 2^64 / φ rounded to odd.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalization mix (variant "mix13" of Stafford's MurmurHash3 finalizers).
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scrambles a seed into a well-mixed 64-bit state. Used by other
/// generators in this crate to decorrelate small consecutive seeds.
pub(crate) fn scramble_seed(seed: u64) -> u64 {
    mix(seed.wrapping_add(GAMMA))
}

/// The SplitMix64 generator.
///
/// ```
/// use scaddar_prng::{SeededRng, IndexedRng, SplitMix64};
/// let mut g = SplitMix64::from_seed(7);
/// let first = g.next_u64();
/// assert_eq!(SplitMix64::value_at(7, 0), first);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SeededRng for SplitMix64 {
    fn from_seed(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    fn advance(&mut self, n: u64) {
        self.state = self.state.wrapping_add(GAMMA.wrapping_mul(n));
    }
}

impl IndexedRng for SplitMix64 {
    #[inline]
    fn value_at(seed: u64, index: u64) -> u64 {
        mix(seed.wrapping_add(GAMMA.wrapping_mul(index.wrapping_add(1))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::contract;
    use proptest::prelude::*;

    /// Reference values computed with java.util.SplittableRandom(0):
    /// the first three longs of `new SplittableRandom(0)` (which uses the
    /// same mix13/gamma pair on a zero seed).
    #[test]
    fn known_answer_seed_zero() {
        let mut g = SplitMix64::from_seed(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn indexed_matches_sequential() {
        contract::indexed_matches_sequential::<SplitMix64>(0xDEAD_BEEF, 200);
    }

    #[test]
    fn advance_matches_stepping() {
        contract::advance_matches_stepping::<SplitMix64>(3, 1000);
        contract::advance_matches_stepping::<SplitMix64>(3, 0);
    }

    #[test]
    fn looks_uniform() {
        contract::looks_uniform::<SplitMix64>(11);
    }

    proptest! {
        #[test]
        fn prop_indexed_contract(seed in any::<u64>(), i in 0u64..512) {
            let mut g = SplitMix64::from_seed(seed);
            g.advance(i);
            prop_assert_eq!(SplitMix64::value_at(seed, i), g.next_u64());
        }

        #[test]
        fn prop_advance_composes(seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
            let mut one = SplitMix64::from_seed(seed);
            one.advance(a + b);
            let mut two = SplitMix64::from_seed(seed);
            two.advance(a);
            two.advance(b);
            prop_assert_eq!(one, two);
        }
    }
}
