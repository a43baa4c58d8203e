//! Seeded, reproducible pseudo-random number generators — the substrate of
//! *pseudo-random placement* (Definition 3.1 of the SCADDAR paper).
//!
//! A continuous media (CM) object `m` is split into blocks; the disk of
//! block `i` is derived from `X_0^{(i)}`, the `i`-th output of a seeded
//! generator `p_r(s_m)`. Two properties are non-negotiable:
//!
//! 1. **Reproducibility** — the same seed must regenerate the exact same
//!    sequence forever, across process restarts and machines. This is what
//!    lets SCADDAR avoid a block directory: the placement *is* the
//!    generator. Every generator in this crate is a pure, documented
//!    integer recurrence with fixed constants; none depends on platform
//!    randomness, hashing order, or library version.
//! 2. **`b`-bit range** — the paper draws `X_0` from `0..=R` with
//!    `R = 2^b - 1` (Definition 3.2). The bit width `b` (32 or 64 in the
//!    paper) caps how many scaling operations preserve fairness (§4.3), so
//!    it is an explicit, first-class parameter here ([`Bits`]).
//!
//! # Generators
//!
//! | Type | Recurrence | Random access to the `i`-th value |
//! |------|-----------|------------------------------------|
//! | [`SplitMix64`] | counter + avalanche | O(1) |
//! | [`Lcg64`] | 64-bit LCG (MMIX constants) | O(log i) jump-ahead |
//! | [`XorShift64Star`] | xorshift* | O(i) |
//! | [`Pcg64`] | PCG-XSL-RR 128/64 | O(log i) jump-ahead |
//! | [`Philox4x32`] | 10-round counter-block cipher | O(1) |
//!
//! For block placement the crate's workhorse is [`BlockRandoms`], which
//! wraps a generator choice ([`RngKind`]), a seed, and a bit width, and
//! answers "what is `X_0` for block `i`?" using the cheapest mechanism the
//! generator supports.
//!
//! [`jump_consistent_hash`] (Lamping & Veach) lives here too: a
//! key-seeded LCG walk that the cluster router and the E11 comparator
//! share, so neither depends on the other.
//!
//! # Quick example
//!
//! ```
//! use scaddar_prng::{BlockRandoms, Bits, RngKind};
//!
//! let seq = BlockRandoms::new(RngKind::SplitMix64, 0xC0FFEE, Bits::B32);
//! let x0 = seq.value_at(0);
//! let x7 = seq.value_at(7);
//! assert!(x0 <= Bits::B32.max_value());
//! // Reproducible: a second instance yields the same values.
//! let again = BlockRandoms::new(RngKind::SplitMix64, 0xC0FFEE, Bits::B32);
//! assert_eq!(again.value_at(7), x7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod jump_hash;
mod lcg;
mod pcg;
mod philox;
mod seed;
mod seq;
mod splitmix;
mod traits;
mod xorshift;

pub use bits::Bits;
pub use jump_hash::jump_consistent_hash;
pub use lcg::Lcg64;
pub use pcg::Pcg64;
pub use philox::Philox4x32;
pub use seed::{derive_object_seed, SeedDeriver};
pub use seq::{BlockRandoms, RngKind};
pub use splitmix::SplitMix64;
pub use traits::{IndexedRng, SeededRng};
pub use xorshift::XorShift64Star;

#[cfg(test)]
mod tests {
    use super::*;

    /// All generators must survive a round-trip through their seed: the
    /// whole point of pseudo-random placement is replayability.
    #[test]
    fn generators_are_deterministic() {
        fn check<R: SeededRng>() {
            let mut a = R::from_seed(42);
            let mut b = R::from_seed(42);
            for _ in 0..1000 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
        check::<SplitMix64>();
        check::<Lcg64>();
        check::<XorShift64Star>();
        check::<Pcg64>();
        check::<Philox4x32>();
    }

    #[test]
    fn different_seeds_give_different_streams() {
        fn check<R: SeededRng>() {
            let mut a = R::from_seed(1);
            let mut b = R::from_seed(2);
            let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
            assert!(same < 4, "streams from different seeds look identical");
        }
        check::<SplitMix64>();
        check::<Lcg64>();
        check::<XorShift64Star>();
        check::<Pcg64>();
        check::<Philox4x32>();
    }
}
