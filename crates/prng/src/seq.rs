//! [`BlockRandoms`]: the `p_r(s_m)` of the paper, packaged for placement.
//!
//! Given a generator family, an object seed and a bit width `b`, this type
//! answers the one question placement asks: *what is `X_0^{(i)}`, the
//! `i`-th `b`-bit random number of the object's stream?* (Definition 3.2.)
//! It also exposes a sequential cursor for bulk walks over a whole object
//! (initial loading, full redistribution scans), which is cheaper than
//! repeated random access for the non-counter-based generators.

use crate::bits::Bits;
use crate::lcg::Lcg64;
use crate::multiversion;
use crate::pcg::Pcg64;
use crate::philox::Philox4x32;
use crate::splitmix::SplitMix64;
use crate::traits::{IndexedRng, SeededRng};
use crate::xorshift::XorShift64Star;
use std::fmt;

/// Which generator family backs a placement sequence.
///
/// Placement quality is insensitive to the choice (each is far better
/// than the uniformity SCADDAR's analysis requires — verified empirically
/// by experiment E12); the knob exists because the *cost model* differs:
/// the counter-based families give O(1) random access while the
/// sequential families pay O(log i) for an algebraic or GF(2)-linear
/// jump-ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RngKind {
    /// Counter-based; O(1) indexed access. The default.
    SplitMix64,
    /// 64-bit LCG; O(log i) indexed access.
    Lcg64,
    /// PCG-XSL-RR 128/64; O(log i) indexed access, best quality.
    Pcg64,
    /// Philox4x32-10 counter block cipher; O(1) indexed access,
    /// Crush-resistant mixing.
    Philox4x32,
    /// xorshift64*; O(log i) indexed access via GF(2) matrix jump-ahead
    /// (the largest per-jump constant of the suite).
    XorShift64Star,
}

impl RngKind {
    /// All kinds, for parameter sweeps in tests and experiments.
    pub const ALL: [RngKind; 5] = [
        RngKind::SplitMix64,
        RngKind::Lcg64,
        RngKind::Pcg64,
        RngKind::XorShift64Star,
        RngKind::Philox4x32,
    ];
}

impl fmt::Display for RngKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RngKind::SplitMix64 => "splitmix64",
            RngKind::Lcg64 => "lcg64",
            RngKind::Pcg64 => "pcg64",
            RngKind::XorShift64Star => "xorshift64star",
            RngKind::Philox4x32 => "philox4x32",
        };
        f.write_str(name)
    }
}

/// The random sequence `p_r(s_m)` of one object: seed + generator family +
/// bit width, with indexed and sequential access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRandoms {
    kind: RngKind,
    seed: u64,
    bits: Bits,
}

impl BlockRandoms {
    /// Binds a generator family and seed at width `b`.
    pub fn new(kind: RngKind, seed: u64, bits: Bits) -> Self {
        BlockRandoms { kind, seed, bits }
    }

    /// The generator family.
    pub fn kind(&self) -> RngKind {
        self.kind
    }

    /// The object seed `s_m`.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The bit width `b` of the values.
    pub fn bits(&self) -> Bits {
        self.bits
    }

    /// `X_0^{(i)}`: the `i`-th `b`-bit random number of this stream.
    pub fn value_at(&self, block_index: u64) -> u64 {
        let raw = match self.kind {
            RngKind::SplitMix64 => SplitMix64::value_at(self.seed, block_index),
            RngKind::Lcg64 => Lcg64::value_at(self.seed, block_index),
            RngKind::Pcg64 => Pcg64::value_at(self.seed, block_index),
            RngKind::XorShift64Star => XorShift64Star::value_at(self.seed, block_index),
            RngKind::Philox4x32 => Philox4x32::value_at(self.seed, block_index),
        };
        self.bits.truncate(raw)
    }

    /// A sequential cursor over `X_0^{(0)}, X_0^{(1)}, …`.
    pub fn cursor(&self) -> BlockRandomCursor {
        BlockRandomCursor::new(*self)
    }

    /// The first `n` values, materialized.
    pub fn take_values(&self, n: u64) -> Vec<u64> {
        let mut values = Vec::with_capacity(n as usize);
        self.fill_values(n as usize, &mut values);
        values
    }

    /// Appends `X_0^{(0)}, …, X_0^{(n-1)}` to `out` — the bulk path for
    /// admitting a whole object. Dispatches on the generator family once
    /// per call rather than once per value (as the cursor must), and
    /// extends from a counted range, so `out` reserves exactly `n` slots
    /// and never regrows mid-fill.
    pub fn fill_values(&self, n: usize, out: &mut Vec<u64>) {
        self.fill_with(n, out, |v| v);
    }

    /// [`BlockRandoms::fill_values`] into 32-bit words, for widths
    /// `b <= 32`: half the bytes per value, the same values.
    ///
    /// # Panics
    /// If `b > 32`.
    pub fn fill_values_u32(&self, n: usize, out: &mut Vec<u32>) {
        assert!(self.bits.get() <= 32, "{} values do not fit u32", self.bits);
        self.fill_with(n, out, |v| v as u32);
    }

    /// The family dispatch shared by both fills: once per call.
    /// SplitMix64's values are a pure function of the block index, so
    /// its fill is one index-parallel loop, run at the host's widest
    /// vector tier ([`multiversion::run`]).
    fn fill_with<T>(&self, n: usize, out: &mut Vec<T>, word: impl Fn(u64) -> T) {
        let (seed, bits) = (self.seed, self.bits);
        match self.kind {
            RngKind::SplitMix64 => multiversion::run(SplitMixFill {
                seed,
                bits,
                n,
                out,
                word,
            }),
            RngKind::Lcg64 => extend_from::<Lcg64, T>(seed, bits, n, out, word),
            RngKind::Pcg64 => extend_from::<Pcg64, T>(seed, bits, n, out, word),
            RngKind::XorShift64Star => extend_from::<XorShift64Star, T>(seed, bits, n, out, word),
            RngKind::Philox4x32 => extend_from::<Philox4x32, T>(seed, bits, n, out, word),
        }
    }
}

/// The first `n` `bits`-wide values of generator `G` seeded with `seed`,
/// stored as `word(value)` and appended to `out`. `(0..n).map(..)`
/// reports an exact length, so the extend reserves once and writes
/// without per-element capacity checks.
fn extend_from<G: SeededRng, T>(
    seed: u64,
    bits: Bits,
    n: usize,
    out: &mut Vec<T>,
    word: impl Fn(u64) -> T,
) {
    let mut g = G::from_seed(seed);
    out.extend((0..n).map(|_| word(bits.truncate(g.next_u64()))));
}

/// SplitMix64's first `n` `bits`-wide values for `seed`, stored as
/// `word(value)` and appended to `out`: value `i` is
/// [`SplitMix64::value_at`]`(seed, i)`, so no iteration waits on the
/// last and the loop vectorises. The same values as [`extend_from`]'s
/// sequential walk.
struct SplitMixFill<'a, T, W> {
    seed: u64,
    bits: Bits,
    n: usize,
    out: &'a mut Vec<T>,
    word: W,
}

impl<T, W: Fn(u64) -> T> multiversion::Kernel for SplitMixFill<'_, T, W> {
    type Output = ();

    #[inline(always)]
    fn apply(self) {
        let SplitMixFill {
            seed,
            bits,
            n,
            out,
            word,
        } = self;
        out.extend((0..n as u64).map(|i| word(bits.truncate(SplitMix64::value_at(seed, i)))));
    }
}

/// Dispatch-free sequential state for one stream.
#[derive(Debug, Clone)]
enum CursorState {
    SplitMix64(SplitMix64),
    Lcg64(Lcg64),
    Pcg64(Pcg64),
    XorShift64Star(XorShift64Star),
    Philox4x32(Philox4x32),
}

/// Sequential iterator over a [`BlockRandoms`] stream.
///
/// Infinite; use `take` to bound it. Whole-object walks go through
/// [`BlockRandoms::fill_values`] instead.
#[derive(Debug, Clone)]
pub struct BlockRandomCursor {
    state: CursorState,
    bits: Bits,
}

impl BlockRandomCursor {
    /// Skips `n` values using the underlying generator's jump-ahead.
    pub fn advance(&mut self, n: u64) {
        match &mut self.state {
            CursorState::SplitMix64(g) => g.advance(n),
            CursorState::Lcg64(g) => g.advance(n),
            CursorState::Pcg64(g) => g.advance(n),
            CursorState::XorShift64Star(g) => g.advance(n),
            CursorState::Philox4x32(g) => g.advance(n),
        }
    }

    fn new(seq: BlockRandoms) -> Self {
        let state = match seq.kind {
            RngKind::SplitMix64 => CursorState::SplitMix64(SplitMix64::from_seed(seq.seed)),
            RngKind::Lcg64 => CursorState::Lcg64(Lcg64::from_seed(seq.seed)),
            RngKind::Pcg64 => CursorState::Pcg64(Pcg64::from_seed(seq.seed)),
            RngKind::XorShift64Star => {
                CursorState::XorShift64Star(XorShift64Star::from_seed(seq.seed))
            }
            RngKind::Philox4x32 => CursorState::Philox4x32(Philox4x32::from_seed(seq.seed)),
        };
        BlockRandomCursor {
            state,
            bits: seq.bits,
        }
    }
}

impl Iterator for BlockRandomCursor {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let raw = match &mut self.state {
            CursorState::SplitMix64(g) => g.next_u64(),
            CursorState::Lcg64(g) => g.next_u64(),
            CursorState::Pcg64(g) => g.next_u64(),
            CursorState::XorShift64Star(g) => g.next_u64(),
            CursorState::Philox4x32(g) => g.next_u64(),
        };
        Some(self.bits.truncate(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cursor_matches_value_at_for_all_kinds() {
        for kind in RngKind::ALL {
            let seq = BlockRandoms::new(kind, 0xFEED, Bits::B32);
            let walked = seq.take_values(64);
            for (i, &v) in walked.iter().enumerate() {
                assert_eq!(seq.value_at(i as u64), v, "kind {kind} index {i}");
            }
        }
    }

    #[test]
    fn fill_values_matches_cursor_and_value_at() {
        for kind in RngKind::ALL {
            for bits in [Bits::B32, Bits::B64, Bits::new(17).unwrap()] {
                let seq = BlockRandoms::new(kind, 0x5EED_F111, bits);
                for n in [0usize, 1, 4095, 4096] {
                    let mut filled = Vec::new();
                    seq.fill_values(n, &mut filled);
                    let walked: Vec<u64> = seq.cursor().take(n).collect();
                    assert_eq!(filled, walked, "{kind} {bits} n={n}");
                    for (i, &v) in filled.iter().enumerate() {
                        assert_eq!(seq.value_at(i as u64), v, "{kind} {bits} index {i}");
                    }
                    assert_eq!(seq.take_values(n as u64), filled, "{kind} {bits} n={n}");
                }
            }
        }
    }

    #[test]
    fn fill_values_appends_after_existing_values() {
        let seq = BlockRandoms::new(RngKind::Pcg64, 3, Bits::B32);
        let mut out = vec![7, 8];
        seq.fill_values(5, &mut out);
        assert_eq!(out[..2], [7, 8]);
        assert_eq!(out[2..], seq.take_values(5)[..]);
    }

    #[test]
    fn u32_fill_holds_the_same_values() {
        for kind in RngKind::ALL {
            for b in [1u8, 17, 32] {
                let seq = BlockRandoms::new(kind, 0xC0FFEE, Bits::new(b).unwrap());
                let mut narrow = vec![9u32];
                seq.fill_values_u32(300, &mut narrow);
                assert_eq!(narrow[0], 9);
                let widened: Vec<u64> = narrow[1..].iter().map(|&v| u64::from(v)).collect();
                assert_eq!(widened, seq.take_values(300), "{kind} {b}-bit");
            }
        }
    }

    #[test]
    fn every_tier_fills_what_the_sequential_walk_yields() {
        // The walk is the baseline: what every tier, the baseline
        // included, must reproduce at both word widths.
        use crate::multiversion::{run_at, tests::tiers};
        for bits in [Bits::B32, Bits::B64, Bits::new(17).unwrap()] {
            for seed in [0, 21, 0x5EED_F111, u64::MAX] {
                let walked: Vec<u64> = BlockRandoms::new(RngKind::SplitMix64, seed, bits)
                    .cursor()
                    .take(4099)
                    .collect();
                for tier in tiers() {
                    for n in [0usize, 1, 7, 4096, 4099] {
                        let mut wide = vec![5u64];
                        let fill = SplitMixFill {
                            seed,
                            bits,
                            n,
                            out: &mut wide,
                            word: |v| v,
                        };
                        run_at(tier, fill);
                        assert_eq!(wide[0], 5);
                        assert_eq!(wide[1..], walked[..n], "{tier:?} {bits} seed {seed} n={n}");
                        if bits.get() <= 32 {
                            let mut narrow = Vec::new();
                            let fill = SplitMixFill {
                                seed,
                                bits,
                                n,
                                out: &mut narrow,
                                word: |v| v as u32,
                            };
                            run_at(tier, fill);
                            let widened: Vec<u64> = narrow.iter().map(|&v| v.into()).collect();
                            assert_eq!(widened, walked[..n], "{tier:?} {bits} seed {seed} n={n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not fit u32")]
    fn u32_fill_refuses_wide_values() {
        BlockRandoms::new(RngKind::SplitMix64, 1, Bits::new(33).unwrap())
            .fill_values_u32(1, &mut Vec::new());
    }

    #[test]
    fn values_respect_bit_width() {
        for kind in RngKind::ALL {
            for b in [1u8, 8, 31, 32, 33, 63, 64] {
                let bits = Bits::new(b).unwrap();
                let seq = BlockRandoms::new(kind, 5, bits);
                for v in seq.take_values(128) {
                    assert!(v <= bits.max_value(), "{kind} {b}-bit produced {v}");
                }
            }
        }
    }

    #[test]
    fn display_names_are_stable() {
        // Experiment CSVs key on these strings.
        assert_eq!(RngKind::SplitMix64.to_string(), "splitmix64");
        assert_eq!(RngKind::Lcg64.to_string(), "lcg64");
        assert_eq!(RngKind::Pcg64.to_string(), "pcg64");
        assert_eq!(RngKind::XorShift64Star.to_string(), "xorshift64star");
        assert_eq!(RngKind::Philox4x32.to_string(), "philox4x32");
    }

    proptest! {
        #[test]
        fn prop_value_at_deterministic(seed in any::<u64>(), i in 0u64..10_000) {
            let seq = BlockRandoms::new(RngKind::SplitMix64, seed, Bits::B64);
            prop_assert_eq!(seq.value_at(i), seq.value_at(i));
        }

        #[test]
        fn prop_32bit_values_fill_the_range(seed in any::<u64>()) {
            // With 256 draws of 32-bit values, the max should usually be
            // large; a tiny max would indicate broken truncation.
            let seq = BlockRandoms::new(RngKind::Pcg64, seed, Bits::B32);
            let max = seq.take_values(256).into_iter().max().unwrap();
            prop_assert!(max > (1u64 << 24));
        }
    }
}
