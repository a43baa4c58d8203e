//! Fault tolerance by mirroring (§6): "Mirrored blocks could be placed at
//! a fixed offset determined by a function f(N_j). For example, f(N_j)
//! could return N_j/2 as an offset."
//!
//! The mirror of a block on logical disk `d` sits on logical disk
//! `(d + f(N)) mod N`. Because the offset is a pure function of the disk
//! count, mirrors stay directory-free: `AF()` gives the primary, one add
//! and one mod give the mirror. The guarantee is loss of any *single*
//! disk never loses data (for `N >= 2`, the offset is nonzero, so primary
//! and mirror never coincide); a pair of disks exactly `f(N)` apart is
//! the minimal fatal combination.

use crate::server::{CmServer, ServerError};
use scaddar_core::{DiskIndex, ObjectId};

/// The paper's example offset function: `f(N) = N/2`, floored, but never
/// zero for `N >= 2` (for `N = 1` mirroring is impossible and the offset
/// is 0).
///
/// # Scaling-epoch edge
///
/// The offset is a pure function of the **current** disk count `N_j`.
/// It is *not* stable across scaling operations: after a removal both
/// the offset value and the survivors' logical indices (the paper's
/// `new()` renumbering) change, so the disk that mirrored a primary at
/// epoch `j-1` is in general **not** the renumbering of that primary's
/// mirror at epoch `j`. Concretely, removing disk 0 from `N = 6`:
/// primary 1 renumbers to 0 and its old mirror 4 (offset 3) renumbers
/// to 3, but the epoch-`j` mirror of 0 among 5 disks (offset 2) is
/// disk 2.
///
/// Correct use is therefore: a mirror written before an operation must
/// be **re-derived, never renumbered** — readers compute
/// `mirror_of(AF(block), N_now)` per access, and the redistribution
/// that moves primaries implicitly re-pairs every mirror. Callers that
/// cache a partner disk across an epoch (or mix a write-epoch offset
/// with read-epoch indices) silently lose single-failure tolerance;
/// the regression tests below pin this invariant.
pub fn mirror_offset(disks: u32) -> u32 {
    if disks < 2 {
        0
    } else {
        (disks / 2).max(1)
    }
}

/// The mirror disk of logical `primary` among `disks` disks.
///
/// `disks` must be the disk count of the **same epoch** `primary` was
/// resolved at (see the epoch edge on [`mirror_offset`]): both the
/// offset and the logical numbering are per-epoch, so pairing an old
/// primary with a new count (or vice versa) names the wrong disk.
pub fn mirror_of(primary: DiskIndex, disks: u32) -> DiskIndex {
    DiskIndex((primary.0 + mirror_offset(disks)) % disks)
}

/// Mirrored read-path resolution over a [`CmServer`]: where can block
/// `(object, block)` be read from if the given logical disks have failed?
///
/// The primary is the block's placement under the generation serving
/// it ([`PlacementState::locate`](crate::PlacementState::locate)):
/// mid-compaction, a migrated block lives where the staging generation
/// places it.
///
/// Returns the surviving logical disk holding a copy, or `None` if both
/// primary and mirror are down (data loss for that block).
pub fn locate_with_failures(
    server: &CmServer,
    object: ObjectId,
    block: u64,
    failed: &[DiskIndex],
) -> Result<Option<DiskIndex>, ServerError> {
    let placement = server.placement();
    let primary = placement.locate(object, block)?;
    Ok(surviving_copy(primary, placement.disks().disks(), failed))
}

/// The surviving copy of a block whose primary is `primary` among
/// `disks` disks: the primary if it is up, else its mirror if that is
/// up and distinct, else `None`.
fn surviving_copy(primary: DiskIndex, disks: u32, failed: &[DiskIndex]) -> Option<DiskIndex> {
    let mirror = mirror_of(primary, disks);
    let down = |d: DiskIndex| failed.contains(&d);
    if !down(primary) {
        Some(primary)
    } else if !down(mirror) && mirror != primary {
        Some(mirror)
    } else {
        None
    }
}

/// Availability census under a failure set: `(readable, lost)` block
/// counts across the whole catalog. Whether a block is lost depends
/// only on its primary under the generation serving it, so the rule of
/// [`locate_with_failures`] is decided once per disk and read off one
/// bulk placement read per object.
pub fn availability_census(
    server: &CmServer,
    failed: &[DiskIndex],
) -> Result<(u64, u64), ServerError> {
    let placement = server.placement();
    let n = placement.disks().disks();
    let lost_on: Vec<bool> = (0..n)
        .map(|d| surviving_copy(DiskIndex(d), n, failed).is_none())
        .collect();
    let mut total = 0u64;
    let mut lost = 0u64;
    for obj in placement.engine().catalog().objects() {
        total += obj.blocks;
        let disks = placement.placements(obj.id)?;
        lost += disks.iter().filter(|d| lost_on[d.0 as usize]).count() as u64;
    }
    Ok((total - lost, lost))
}

/// The storage overhead of mirroring: a factor of exactly 2 (every block
/// has one mirror). The paper's §6 notes parity as the future
/// lower-overhead alternative; [`parity_group_overhead`] quantifies what
/// that would save.
pub fn mirroring_overhead() -> f64 {
    2.0
}

/// Storage overhead of an (n, n-1) parity scheme with group size `g`:
/// `g/(g-1)` (one parity block per `g-1` data blocks).
pub fn parity_group_overhead(group: u32) -> f64 {
    assert!(group >= 2, "parity group needs at least 2 members");
    f64::from(group) / f64::from(group - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use scaddar_core::ScalingOp;

    fn server(disks: u32, blocks: u64) -> (CmServer, ObjectId) {
        let mut s = CmServer::new(ServerConfig::new(disks).with_catalog_seed(13)).unwrap();
        let id = s.add_object(blocks).unwrap();
        (s, id)
    }

    #[test]
    fn offset_function_matches_paper() {
        assert_eq!(mirror_offset(6), 3);
        assert_eq!(mirror_offset(7), 3);
        assert_eq!(mirror_offset(2), 1);
        assert_eq!(mirror_offset(1), 0);
    }

    #[test]
    fn mirror_never_coincides_with_primary_for_n_ge_2() {
        for n in 2u32..50 {
            for d in 0..n {
                assert_ne!(mirror_of(DiskIndex(d), n), DiskIndex(d), "n={n} d={d}");
            }
        }
    }

    #[test]
    fn single_disk_failure_loses_nothing() {
        let (s, _) = server(6, 3_000);
        for d in 0..6 {
            let (readable, lost) = availability_census(&s, &[DiskIndex(d)]).unwrap();
            assert_eq!(lost, 0, "disk {d} failure lost data");
            assert_eq!(readable, 3_000);
        }
    }

    #[test]
    fn opposite_pair_failure_loses_exactly_their_shared_blocks() {
        let (s, id) = server(6, 3_000);
        // Disks 0 and 3 are mirror partners (offset 3).
        let (readable, lost) = availability_census(&s, &[DiskIndex(0), DiskIndex(3)]).unwrap();
        assert!(lost > 0, "opposite pair must be fatal for some blocks");
        assert_eq!(readable + lost, 3_000);
        // The lost blocks are exactly those whose primary is 0 or 3
        // (mirror on the other failed disk).
        let mut expected_lost = 0;
        for b in 0..3_000 {
            let p = s.placement().locate(id, b).unwrap();
            if p == DiskIndex(0) || p == DiskIndex(3) {
                expected_lost += 1;
            }
        }
        assert_eq!(lost, expected_lost);
    }

    #[test]
    fn non_partner_pair_failure_loses_nothing() {
        let (s, _) = server(6, 3_000);
        // Disks 0 and 2 are not partners under offset 3 (0<->3, 2<->5).
        let (_, lost) = availability_census(&s, &[DiskIndex(0), DiskIndex(2)]).unwrap();
        assert_eq!(lost, 0);
    }

    #[test]
    fn mirror_offset_tracks_scaling() {
        let (mut s, id) = server(6, 100);
        s.scale_offline(ScalingOp::Add { count: 2 }).unwrap();
        // Now 8 disks: offset must be 4.
        let p = s.placement().locate(id, 0).unwrap();
        assert_eq!(mirror_of(p, 8).0, (p.0 + 4) % 8);
    }

    /// Regression (mid-compaction): migrated blocks are judged by where
    /// the staging generation placed them, not by their old-generation
    /// disks. With the live engine alone the census reported 1349 lost
    /// blocks here while 1359 sat on the failed pair.
    #[test]
    fn census_follows_the_serving_generation_through_a_compaction() {
        let mut s = CmServer::new(ServerConfig::new(5).with_catalog_seed(6)).unwrap();
        let id = s.add_object(4_000).unwrap();
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.begin_compaction().unwrap() > 0);
        for _ in 0..5 {
            s.tick();
        }
        let progress = s.compaction_progress().expect("still migrating");
        assert!(progress.migrated_blocks > 0, "some blocks migrated");
        let n = s.placement().disks().disks();
        let failed = [DiskIndex(0), mirror_of(DiskIndex(0), n)];
        let on_pair: Vec<u64> = (0..4_000)
            .filter(|&b| failed.contains(&s.placement().locate(id, b).unwrap()))
            .collect();
        let (readable, lost) = availability_census(&s, &failed).unwrap();
        assert_eq!(lost, on_pair.len() as u64);
        assert_eq!(readable + lost, 4_000);
        for b in 0..4_000 {
            let copy = locate_with_failures(&s, id, b, &failed).unwrap();
            assert_eq!(
                copy.is_none(),
                on_pair.binary_search(&b).is_ok(),
                "block {b}"
            );
        }
    }

    #[test]
    fn parity_beats_mirroring_on_overhead() {
        assert!(parity_group_overhead(5) < mirroring_overhead());
        assert!((parity_group_overhead(2) - 2.0).abs() < 1e-12);
    }

    /// Regression (removal-epoch edge): renumbering an old mirror is not
    /// the same disk as re-deriving the mirror at the new epoch. Pins
    /// the concrete example from the `mirror_offset` docs.
    #[test]
    fn renumbered_old_mirror_is_not_the_new_mirror() {
        use scaddar_core::RemovedSet;
        // Remove disk 0 from N=6. Survivor primary 1 renumbers to 0.
        let removed = RemovedSet::new(&[0], 6).unwrap();
        let old_primary = DiskIndex(1);
        let old_mirror = mirror_of(old_primary, 6);
        assert_eq!(old_mirror, DiskIndex(4), "offset 3 at N=6");
        let new_primary = DiskIndex(removed.renumber(old_primary.0));
        assert_eq!(new_primary, DiskIndex(0));
        let renumbered_old_mirror = DiskIndex(removed.renumber(old_mirror.0));
        let rederived_mirror = mirror_of(new_primary, 5);
        assert_eq!(renumbered_old_mirror, DiskIndex(3));
        assert_eq!(rederived_mirror, DiskIndex(2), "offset 2 at N=5");
        assert_ne!(
            renumbered_old_mirror, rederived_mirror,
            "a cached mirror partner must not survive a removal epoch"
        );
    }

    /// Regression (removal-epoch edge, end to end): across a removal,
    /// single-disk failure tolerance holds at the *new* epoch exactly
    /// when mirrors are re-derived from current `AF()` and current `N` —
    /// i.e. `availability_census` (which re-derives per access) reports
    /// zero loss for every single failure, before and after the op.
    #[test]
    fn single_failure_tolerance_survives_removal_epoch() {
        let (mut s, _) = server(6, 2_000);
        for d in 0..6 {
            let (_, lost) = availability_census(&s, &[DiskIndex(d)]).unwrap();
            assert_eq!(lost, 0, "pre-op: disk {d}");
        }
        s.scale_offline(ScalingOp::remove_one(0)).unwrap();
        // 5 disks now; every logical index changed meaning, the offset
        // changed from 3 to 2, and yet re-derived mirroring is whole.
        for d in 0..5 {
            let (readable, lost) = availability_census(&s, &[DiskIndex(d)]).unwrap();
            assert_eq!(lost, 0, "post-op: disk {d}");
            assert_eq!(readable, 2_000);
        }
        // The minimal fatal pair also moved: it is now (d, d+2) mod 5,
        // not the old (d, d+3) mod 6.
        let (_, lost) = availability_census(&s, &[DiskIndex(1), DiskIndex(3)]).unwrap();
        assert!(lost > 0, "new-offset partners must be the fatal pair");
    }

    /// Regression (epoch mixing): pairing a pre-removal primary index
    /// with the post-removal disk count (or vice versa) names a wrong
    /// disk — the failure mode the `mirror_of` docs warn about.
    #[test]
    fn mixing_epochs_names_the_wrong_partner() {
        let (mut s, id) = server(6, 500);
        let pre: Vec<DiskIndex> = (0..500)
            .map(|b| s.placement().locate(id, b).unwrap())
            .collect();
        s.scale_offline(ScalingOp::remove_one(2)).unwrap();
        let n_now = s.placement().disks().disks();
        let mut mixed_diverges = false;
        for (b, &old_primary) in pre.iter().enumerate() {
            let current = s.placement().locate(id, b as u64).unwrap();
            let correct = mirror_of(current, n_now);
            // Write-epoch primary with read-epoch count: out of range or
            // simply a different disk than the true partner.
            let mixed = mirror_of(old_primary, n_now);
            if mixed != correct {
                mixed_diverges = true;
            }
            assert!(correct.0 < n_now);
        }
        assert!(
            mixed_diverges,
            "stale-primary mirror derivation must diverge somewhere"
        );
    }
}
