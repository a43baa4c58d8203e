//! One dispatch point for the workspace's index-parallel loops.
//!
//! Admission is a pure map over block indices: `X_0^{(i)}` is a function
//! of `i` alone for a counter-based generator, and `D_0 = X_0 mod N_0`
//! a function of `X_0` alone; so is the division in each `REMAP` step
//! of a fold. Written as plain counted loops, these vectorise — but only
//! as wide as the instruction set the build targets, which for a
//! portable x86-64 binary is SSE2. [`run`] applies
//! a [`Kernel`] inside a `#[target_feature]` trampoline for the widest
//! [`Tier`] the host supports. A kernel's `apply` is `#[inline(always)]`,
//! so each trampoline compiles its own copy of the same generic loop,
//! vectorised for that tier's registers. (A closure would not do: LLVM
//! inlines a closure into three trampolines only while it is small, and
//! a larger one runs, uninlined, at the baseline.)
//!
//! There is one implementation of every loop: a trampoline only widens
//! the instruction set its callee is compiled for, so every tier
//! computes the same integers as the baseline (the tests assert it for
//! each tier the host supports). The tier is detected once per process
//! with `is_x86_feature_detected!`; on other architectures, and on x86
//! hosts without the features, the baseline tier runs. There is no knob.
//!
//! This module is the workspace's only `unsafe` code: calling a
//! `#[target_feature]` function is `unsafe` because running it on a CPU
//! without the feature is undefined behaviour, and each call below names
//! the detection that rules that out.

use std::sync::atomic::{AtomicU8, Ordering};

/// An instruction-set tier a kernel can be compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// x86-64 AVX-512F, DQ and VL: 512-bit registers and a native
    /// 64-bit lane multiply.
    Avx512,
    /// x86-64 AVX2: 256-bit registers.
    Avx2,
    /// What the build's target allows everywhere (SSE2 on x86-64).
    Baseline,
}

impl Tier {
    /// Every tier, widest first.
    pub const ALL: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Baseline];

    /// True when this host can run code compiled for the tier.
    pub fn supported(self) -> bool {
        match self {
            Tier::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest supported tier, detected on the first call in the
    /// process and remembered.
    pub fn detected() -> Tier {
        static DETECTED: AtomicU8 = AtomicU8::new(u8::MAX);
        match DETECTED.load(Ordering::Relaxed) {
            u8::MAX => {
                let tier = Tier::ALL
                    .into_iter()
                    .find(|t| t.supported())
                    .unwrap_or(Tier::Baseline);
                DETECTED.store(tier as u8, Ordering::Relaxed);
                tier
            }
            i => Tier::ALL[usize::from(i)],
        }
    }
}

/// A loop to compile once per [`Tier`]. Implementations mark
/// [`Kernel::apply`] `#[inline(always)]`: that is what puts a copy of
/// the loop inside each tier's trampoline.
pub trait Kernel {
    /// What the loop returns.
    type Output;
    /// Runs the loop.
    fn apply(self) -> Self::Output;
}

/// Applies `kernel` compiled for the widest tier this host supports.
#[inline]
pub fn run<K: Kernel>(kernel: K) -> K::Output {
    let tier = Tier::detected();
    // SAFETY: `Tier::detected` returns only a tier whose
    // `is_x86_feature_detected!` checks in `Tier::supported` passed.
    unsafe { dispatch(tier, kernel) }
}

/// Applies `kernel` compiled for `tier`: how the tests hold every tier
/// to the baseline's output.
///
/// # Panics
/// If the host does not support `tier`.
pub fn run_at<K: Kernel>(tier: Tier, kernel: K) -> K::Output {
    assert!(tier.supported(), "this host cannot run the {tier:?} tier");
    // SAFETY: the assertion above ran `tier`'s `is_x86_feature_detected!`
    // checks.
    unsafe { dispatch(tier, kernel) }
}

/// Applies `kernel` through `tier`'s trampoline.
///
/// # Safety
/// The host must support `tier` ([`Tier::supported`]).
#[inline(always)]
unsafe fn dispatch<K: Kernel>(tier: Tier, kernel: K) -> K::Output {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller established that the host has AVX-512F, DQ,
        // VL and AVX2.
        Tier::Avx512 => unsafe { avx512(kernel) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller established that the host has AVX2.
        Tier::Avx2 => unsafe { avx2(kernel) },
        _ => kernel.apply(),
    }
}

/// `kernel`, inlined and compiled with AVX-512F/DQ/VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2")]
unsafe fn avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.apply()
}

/// `kernel`, inlined and compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.apply()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every tier this host supports, the baseline last.
    pub(crate) fn tiers() -> impl Iterator<Item = Tier> {
        Tier::ALL.into_iter().filter(|t| t.supported())
    }

    #[test]
    fn the_baseline_runs_everywhere_and_detection_is_stable() {
        assert!(Tier::Baseline.supported());
        assert_eq!(tiers().last(), Some(Tier::Baseline));
        let tier = Tier::detected();
        assert!(tier.supported());
        assert_eq!(Tier::detected(), tier, "detected once, remembered");
        assert_eq!(tiers().next(), Some(tier), "the widest supported tier");
    }

    /// `0² + 1² + … + (n−1)²`.
    struct SumOfSquares(u64);

    impl Kernel for SumOfSquares {
        type Output = u64;
        #[inline(always)]
        fn apply(self) -> u64 {
            (0..self.0).map(|i| i * i).sum()
        }
    }

    #[test]
    fn every_tier_runs_the_kernel_it_is_given() {
        for tier in tiers() {
            assert_eq!(run_at(tier, SumOfSquares(1000)), 332_833_500, "{tier:?}");
        }
        assert_eq!(run(SumOfSquares(4)), 14);
    }

    #[test]
    fn unsupported_tiers_are_refused() {
        if let Some(tier) = Tier::ALL.into_iter().find(|t| !t.supported()) {
            let refused = std::panic::catch_unwind(|| run_at(tier, SumOfSquares(1)));
            assert!(refused.is_err(), "{tier:?} ran on a host without it");
        }
    }
}
