//! The `REMAP_j` functions — the heart of SCADDAR (§4.2, Eqs. 3 & 5).
//!
//! Each scaling operation `j` remaps a block's random number
//! `X_{j-1} -> X_j` such that `D_j = X_j mod N_j` is the block's disk
//! after the operation. The trick satisfying RO2 is that every remap
//! embeds a **fresh source of randomness** — the quotient
//! `q_{j-1} = X_{j-1} div N_{j-1}` — into the new number, instead of
//! reusing the already-spent residue. The cost is that the usable random
//! range shrinks by roughly a factor `N_{j-1}` per operation (§4.3;
//! quantified in [`crate::bounds`]).
//!
//! Overflow note: all arithmetic stays within `u64`. For removal,
//! `X_j = q·N_j + new(r) <= q·N_{j-1} + N_j <= X_{j-1} + N_j`, and whenever
//! `X_{j-1}` is large enough for that to matter, `q >= N_j` so
//! `q·N_j <= q·(N_{j-1}-1) = q·N_{j-1} - q <= X_{j-1} - q` keeps the sum
//! below `X_{j-1}`. For addition, `X_j <= q_{j-1} + N_{j-1} << 2^64`.
//! Debug builds carry overflow checks; the property tests sweep the
//! extremes of the 64-bit range.

use crate::ops::RemovedSet;

/// The outcome of one `REMAP_j` application to one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Remapped {
    /// The new random number `X_j`.
    pub x: u64,
    /// Did the block change disks (`D_j != D_{j-1}` in post-op numbering
    /// semantics — see [`remap_remove`] for the removal subtlety)?
    pub moved: bool,
}

/// Definition 4.1: splits `X` into `(q, r) = (X div N, X mod N)`.
///
/// `r` is the block's disk at this epoch; `q` is the remaining
/// randomness that later operations will draw on.
#[inline]
pub fn split_qr(x: u64, n: u64) -> (u64, u64) {
    debug_assert!(n > 0, "disk count must be positive");
    (x / n, x % n)
}

/// `REMAP_j` for a **disk addition** (Eq. 5), `n_prev -> n_new` disks,
/// `n_new > n_prev`.
///
/// The fresh random draw is `t = q_{j-1} mod N_j`:
/// * `t <  N_{j-1}` — the block *stays* on `r_{j-1}`
///   (`X_j = (q_{j-1} div N_j)·N_j + r_{j-1}`, Eq. 5a);
/// * `t >= N_{j-1}` — the block *moves* to added disk `t`
///   (`X_j = (q_{j-1} div N_j)·N_j + t = q_{j-1}`, Eq. 5b).
///
/// Since `t` is uniform over `0..N_j`, exactly the optimal fraction
/// `(N_j - N_{j-1})/N_j` of blocks moves (RO1) and movers land uniformly
/// on the added disks (RO2).
#[inline]
pub fn remap_add(x_prev: u64, n_prev: u64, n_new: u64) -> Remapped {
    debug_assert!(n_new > n_prev && n_prev > 0);
    let (q, r) = split_qr(x_prev, n_prev);
    let t = q % n_new;
    if t < n_prev {
        Remapped {
            x: (q / n_new) * n_new + r,
            moved: false,
        }
    } else {
        // (q div N_j)·N_j + (q mod N_j) == q.
        Remapped { x: q, moved: true }
    }
}

/// `REMAP_j` for a **disk removal** (Eq. 3), with survivors renumbered by
/// rank (the paper's `new()`).
///
/// * `r_{j-1}` survives — the block stays put; its disk merely gets a new
///   logical index: `X_j = q_{j-1}·N_j + new(r_{j-1})` (Eq. 3a). `moved`
///   is `false`.
/// * `r_{j-1}` is removed — the block must leave: `X_j = q_{j-1}`
///   (Eq. 3b), so its new disk is `q_{j-1} mod N_j`, uniform over the
///   survivors. `moved` is `true`.
///
/// `n_prev` is `N_{j-1}`; `N_j = n_prev - removed.len()`.
#[inline]
pub fn remap_remove(x_prev: u64, n_prev: u64, removed: &RemovedSet) -> Remapped {
    debug_assert!(n_prev > u64::from(removed.len()));
    let n_new = n_prev - u64::from(removed.len());
    let (q, r) = split_qr(x_prev, n_prev);
    let r32 = r as u32; // r < n_prev <= u32::MAX + 1, and disk counts are u32.
    if removed.contains(r32) {
        Remapped { x: q, moved: true }
    } else {
        Remapped {
            x: q * n_new + u64::from(removed.renumber(r32)),
            moved: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn split_qr_reconstructs() {
        let (q, r) = split_qr(28, 6);
        assert_eq!((q, r), (4, 4));
        assert_eq!(q * 6 + r, 28);
    }

    /// §4.2.1 worked example, case 1: block on removed disk 4 of 0..=5,
    /// X_{j-1} = 28 -> X_j = q = 4, new disk index 4 (physical "Disk 5").
    #[test]
    fn paper_removal_example_moved_block() {
        let removed = RemovedSet::new(&[4], 6).unwrap();
        let out = remap_remove(28, 6, &removed);
        assert!(out.moved);
        assert_eq!(out.x, 4);
        assert_eq!(out.x % 5, 4); // 4th disk of the survivors == old Disk 5
    }

    /// §4.2.1 worked example, case 2: block on surviving disk 5,
    /// X_{j-1} = 41 -> X_j = q·N_j + new(5) = 6·5 + 4 = 34; stays put.
    #[test]
    fn paper_removal_example_staying_block() {
        let removed = RemovedSet::new(&[4], 6).unwrap();
        let out = remap_remove(41, 6, &removed);
        assert!(!out.moved);
        assert_eq!(out.x, 34);
        assert_eq!(out.x % 5, 4); // still the disk formerly numbered 5
    }

    #[test]
    fn addition_keeps_or_moves_to_added_disks_only() {
        let n_prev = 4u64;
        let n_new = 6u64;
        for x in 0..100_000u64 {
            let before = x % n_prev;
            let out = remap_add(x, n_prev, n_new);
            let after = out.x % n_new;
            if out.moved {
                assert!(
                    after >= n_prev,
                    "x={x} claimed moved but landed on old disk {after}"
                );
            } else {
                assert_eq!(after, before, "x={x} claimed stay but changed disk");
            }
        }
    }

    #[test]
    fn addition_move_fraction_is_optimal() {
        // Over a full residue cycle of q the fraction moved is exactly
        // (n_new - n_prev)/n_new; over a large uniform sample it is close.
        let n_prev = 4u64;
        let n_new = 5u64;
        let total = 1_000_000u64;
        let moved = (0..total)
            .filter(|&x| remap_add(x, n_prev, n_new).moved)
            .count() as f64;
        let frac = moved / total as f64;
        assert!((frac - 0.2).abs() < 0.01, "moved fraction {frac}");
    }

    #[test]
    fn removal_moves_exactly_the_removed_disks_blocks() {
        let n_prev = 5u64;
        let removed = RemovedSet::new(&[2], 5).unwrap();
        for x in 0..50_000u64 {
            let out = remap_remove(x, n_prev, &removed);
            assert_eq!(out.moved, x % n_prev == 2);
            assert!(out.x % 4 < 4);
        }
    }

    #[test]
    fn removal_group_renumbers_consistently() {
        // Remove disks 1 and 3 of 0..=4; survivors 0,2,4 -> 0,1,2.
        let removed = RemovedSet::new(&[1, 3], 5).unwrap();
        for x in 0..10_000u64 {
            let r = x % 5;
            let out = remap_remove(x, 5, &removed);
            match r {
                0 => assert!(!out.moved && out.x.is_multiple_of(3)),
                2 => assert!(!out.moved && out.x % 3 == 1),
                4 => assert!(!out.moved && out.x % 3 == 2),
                _ => assert!(out.moved),
            }
        }
    }

    #[test]
    fn fresh_randomness_is_preserved_for_future_ops() {
        // Eq. 3a stores q_{j-1} as the new quotient: X_j div N_j == q_{j-1}.
        let removed = RemovedSet::new(&[4], 6).unwrap();
        let x_prev = 41u64;
        let (q_prev, _) = split_qr(x_prev, 6);
        let out = remap_remove(x_prev, 6, &removed);
        assert_eq!(out.x / 5, q_prev);
        // Eq. 5a stores q_{j-1} div N_j: X_j div N_j == q_{j-1} div N_j.
        let x_prev = 1234u64;
        let (q_prev, _) = split_qr(x_prev, 4);
        let out = remap_add(x_prev, 4, 6);
        assert_eq!(out.x / 6, q_prev / 6);
    }

    proptest! {
        /// No overflow and disk indices stay in range across the whole
        /// u64 input space (overflow checks are on under `cargo test`).
        #[test]
        fn prop_add_in_range(
            x in any::<u64>(),
            n_prev in 1u64..5000,
            extra in 1u64..5000,
        ) {
            let n_new = n_prev + extra;
            let out = remap_add(x, n_prev, n_new);
            prop_assert!(out.x % n_new < n_new);
            if !out.moved {
                prop_assert_eq!(out.x % n_new, x % n_prev);
            } else {
                prop_assert!(out.x % n_new >= n_prev);
            }
        }

        #[test]
        fn prop_remove_in_range(
            x in any::<u64>(),
            n_prev in 2u64..5000,
            seedling in any::<u64>(),
        ) {
            // Remove one pseudo-randomly chosen disk.
            let victim = (seedling % n_prev) as u32;
            let removed = RemovedSet::new(&[victim], n_prev as u32).unwrap();
            let out = remap_remove(x, n_prev, &removed);
            let n_new = n_prev - 1;
            prop_assert!(out.x % n_new < n_new);
            prop_assert_eq!(out.moved, x % n_prev == u64::from(victim));
        }

        /// The documented non-overflow argument, checked at the extremes.
        #[test]
        fn prop_no_overflow_near_u64_max(
            offset in 0u64..1_000_000,
            n_prev in 2u64..1_000_000,
        ) {
            let x = u64::MAX - offset;
            let removed = RemovedSet::new(&[0], n_prev as u32).unwrap();
            let _ = remap_remove(x, n_prev, &removed);
            let _ = remap_add(x, n_prev, n_prev + 1);
        }

        /// RO2 for a single addition: among moved blocks, all added disks
        /// are hit roughly equally.
        #[test]
        fn prop_added_disks_hit_uniformly(seed in any::<u32>()) {
            let n_prev = 4u64;
            let n_new = 8u64;
            let mut counts = [0u64; 8];
            // A cheap uniform sweep: consecutive x values cycle residues.
            let base = u64::from(seed);
            for x in base..base + 200_000 {
                let out = remap_add(x, n_prev, n_new);
                if out.moved {
                    counts[(out.x % n_new) as usize] += 1;
                }
            }
            for &old_disk_hits in &counts[..4] {
                prop_assert_eq!(old_disk_hits, 0);
            }
            let hits: Vec<u64> = counts[4..].to_vec();
            let min = *hits.iter().min().unwrap() as f64;
            let max = *hits.iter().max().unwrap() as f64;
            prop_assert!(max / min < 1.1, "uneven added-disk usage {hits:?}");
        }
    }
}
