//! xorshift64*: Marsaglia's xorshift with a multiplicative finalizer.
//!
//! The xorshift state transition is **linear over GF(2)** — each bit of
//! the next state is an XOR of bits of the current state — so advancing
//! the stream by `n` steps is multiplication by the n-th power of a
//! 64×64 bit matrix. [`XorShift64Star::advance`] exploits this with
//! precomputed squarings `M^(2^k)`, giving O(log n) jump-ahead (at most
//! 64 matrix–vector products of 64 XORs each), which in turn makes
//! [`IndexedRng::value_at`] O(log i) instead of the O(i) walk this
//! generator historically forced on [`crate::BlockRandoms`].

use crate::splitmix;
use crate::traits::{IndexedRng, SeededRng};
use std::sync::OnceLock;

/// xorshift64* generator (Vigna's variant, multiplier 2685821657736338717).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64Star {
    state: u64,
}

/// The linear part of one step (the output multiplier is *not* part of
/// the state recurrence, so the recurrence stays GF(2)-linear).
#[inline]
fn linear_step(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// A 64×64 bit matrix over GF(2), stored as the images of the 64 basis
/// vectors: `m[b]` is `M · e_b`.
type BitMatrix = [u64; 64];

/// `M · v`: XOR of the columns selected by `v`'s set bits.
#[inline]
fn mat_vec(m: &BitMatrix, mut v: u64) -> u64 {
    let mut out = 0u64;
    while v != 0 {
        let b = v.trailing_zeros();
        out ^= m[b as usize];
        v &= v - 1;
    }
    out
}

/// `A · B` as composition: column `b` of the product is `A · (B · e_b)`.
fn mat_mul(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
    let mut out = [0u64; 64];
    for (col, &bcol) in out.iter_mut().zip(b.iter()) {
        *col = mat_vec(a, bcol);
    }
    out
}

/// `M^(2^k)` for `k = 0..64`, where `M` is the one-step matrix. Built
/// once per process (~32 KiB) by repeated squaring.
fn step_matrix_powers() -> &'static [BitMatrix; 64] {
    static POWERS: OnceLock<Box<[BitMatrix; 64]>> = OnceLock::new();
    POWERS.get_or_init(|| {
        let mut powers = Box::new([[0u64; 64]; 64]);
        let mut m: BitMatrix = [0u64; 64];
        for (b, col) in m.iter_mut().enumerate() {
            *col = linear_step(1u64 << b);
        }
        powers[0] = m;
        for k in 1..64 {
            powers[k] = mat_mul(&powers[k - 1], &powers[k - 1]);
        }
        powers
    })
}

/// Below this distance, plain stepping beats the matrix products.
const MATRIX_JUMP_THRESHOLD: u64 = 1024;

impl SeededRng for XorShift64Star {
    /// The state must be nonzero (zero is a fixed point of xorshift), so
    /// the seed is scrambled and zero is remapped.
    fn from_seed(seed: u64) -> Self {
        let mut state = splitmix::scramble_seed(seed);
        if state == 0 {
            state = 0x9E37_79B9_7F4A_7C15;
        }
        XorShift64Star { state }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// O(log n) for large `n` via GF(2) matrix powers; plain stepping
    /// below `MATRIX_JUMP_THRESHOLD` (1024 steps), where it is cheaper.
    fn advance(&mut self, n: u64) {
        if n < MATRIX_JUMP_THRESHOLD {
            for _ in 0..n {
                self.next_u64();
            }
            return;
        }
        let powers = step_matrix_powers();
        let mut state = self.state;
        let mut remaining = n;
        while remaining != 0 {
            let k = remaining.trailing_zeros();
            state = mat_vec(&powers[k as usize], state);
            remaining &= remaining - 1;
        }
        self.state = state;
    }
}

impl IndexedRng for XorShift64Star {
    /// O(log `index`) by jumping the linear recurrence (see
    /// [`XorShift64Star::advance`]), then one step for the output.
    fn value_at(seed: u64, index: u64) -> u64 {
        let mut g = XorShift64Star::from_seed(seed);
        g.advance(index);
        g.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::contract;

    #[test]
    fn state_never_zero() {
        // Directly probe the zero-state remap.
        let g = XorShift64Star::from_seed(0);
        assert_ne!(g.state, 0);
        // And confirm the stream does not get stuck for many seeds.
        for seed in 0..64 {
            let mut g = XorShift64Star::from_seed(seed);
            let a = g.next_u64();
            let b = g.next_u64();
            assert_ne!(a, b, "stream stuck for seed {seed}");
        }
    }

    #[test]
    fn indexed_matches_sequential() {
        contract::indexed_matches_sequential::<XorShift64Star>(1, 128);
    }

    #[test]
    fn advance_matches_stepping() {
        contract::advance_matches_stepping::<XorShift64Star>(8, 500);
    }

    #[test]
    fn matrix_jump_matches_stepping_above_threshold() {
        // Exercises the GF(2) path (n >= MATRIX_JUMP_THRESHOLD) against
        // the ground truth of plain stepping.
        for n in [
            MATRIX_JUMP_THRESHOLD,
            MATRIX_JUMP_THRESHOLD + 1,
            5_000,
            65_537,
            1_000_000,
        ] {
            let mut jumped = XorShift64Star::from_seed(42);
            jumped.advance(n);
            let mut stepped = XorShift64Star::from_seed(42);
            for _ in 0..n {
                stepped.next_u64();
            }
            assert_eq!(jumped.state, stepped.state, "divergence at n={n}");
        }
    }

    #[test]
    fn matrix_jump_composes() {
        // advance(a) then advance(b) == advance(a + b) across the
        // threshold boundary in both orders.
        let (a, b) = (700u64, 80_000u64);
        let mut split = XorShift64Star::from_seed(9);
        split.advance(a);
        split.advance(b);
        let mut whole = XorShift64Star::from_seed(9);
        whole.advance(a + b);
        assert_eq!(split, whole);
    }

    #[test]
    fn value_at_far_index_is_fast_and_consistent() {
        // A distant index must round-trip: value_at(i) equals stepping.
        // (With the O(i) fallback this test would take ~2^32 steps.)
        let far = 1u64 << 32;
        let v1 = XorShift64Star::value_at(3, far);
        let v2 = XorShift64Star::value_at(3, far);
        assert_eq!(v1, v2);
        // Cross-check against advance + next at a smaller-but-matrix
        // distance where stepping is still affordable.
        let n = 200_000u64;
        let mut stepped = XorShift64Star::from_seed(3);
        for _ in 0..n {
            stepped.next_u64();
        }
        assert_eq!(XorShift64Star::value_at(3, n), stepped.next_u64());
    }

    #[test]
    fn looks_uniform() {
        contract::looks_uniform::<XorShift64Star>(3);
    }
}
