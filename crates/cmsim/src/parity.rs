//! Parity-based fault tolerance — the paper's stated future work (§6:
//! "We also plan to investigate using data parity bits to handle faults
//! with less required storage space").
//!
//! Scheme: each object's blocks are partitioned into **parity groups**
//! of `g-1` consecutive data blocks plus one parity block (XOR of the
//! group). Parity blocks are placed by the same directory-free
//! discipline as data: a pseudo-random number derived from
//! `(object seed, group index)` run through the ordinary access
//! function, with a deterministic probe past any disk already holding a
//! group member (the parity must never share a disk with a member it
//! protects).
//!
//! Reconstruction of an unreadable block requires *every other* group
//! member: a failure set that hits two members of one group loses the
//! group's blocks on failed disks. With random placement, two *data*
//! members of a group share a disk with probability ~`g²/2N` — the
//! declustering problem that makes parity genuinely harder than the §6
//! mirroring sketch, and the reason real deployments re-stripe parity
//! after scaling. [`parity_availability_census`] measures exactly this
//! trade-off against mirroring's strict 2x storage (experiment E13).

use crate::server::CmServer;
use scaddar_core::{DiskIndex, ObjectId, ScaddarError};

/// Number of data blocks per parity group for group size `g` (`g-1`).
fn data_per_group(group_size: u32) -> u64 {
    u64::from(group_size - 1)
}

/// The parity group index of a data block.
pub fn group_of(block: u64, group_size: u32) -> u64 {
    assert!(group_size >= 2, "parity group needs >= 2 members");
    block / data_per_group(group_size)
}

/// The data-block indices of group `group` within an object of
/// `object_blocks` blocks (the last group may be short).
pub fn group_members(group: u64, group_size: u32, object_blocks: u64) -> std::ops::Range<u64> {
    let per = data_per_group(group_size);
    let start = group * per;
    start..object_blocks.min(start + per)
}

/// Number of parity groups an object of `blocks` blocks needs.
pub fn group_count(blocks: u64, group_size: u32) -> u64 {
    blocks.div_ceil(data_per_group(group_size))
}

/// Deterministic placement randomness for a parity block: an avalanche
/// over (object seed, group), independent of the data blocks' stream.
fn parity_x0(object_seed: u64, group: u64, bits: scaddar_prng::Bits) -> u64 {
    // Same mixing family as the seed deriver; any fixed avalanche works
    // as long as it is reproducible and decorrelated from p_r(s_m).
    let folded = scaddar_prng::derive_object_seed(object_seed ^ 0xA5A5_5A5A_F00D_BEEF, group);
    bits.truncate(folded)
}

/// Where the parity block of `group` of `object` lives, at the current
/// epoch, given the disks of the group's data members (to probe past).
///
/// Members are placed under the generation serving each; the parity
/// block's own pseudo-random base stays on the live log. The probe walks
/// logical disks from that base until it finds one not hosting a member
/// — still a pure function of metadata, so the parity block needs no
/// directory entry either.
pub fn parity_disk(
    server: &CmServer,
    object: ObjectId,
    group: u64,
    group_size: u32,
) -> Result<DiskIndex, ScaddarError> {
    let placement = server.placement();
    let engine = placement.engine();
    let obj = *engine
        .catalog()
        .object(object)
        .ok_or(ScaddarError::UnknownObject(object))?;
    let members = group_members(group, group_size, obj.blocks);
    let mut member_disks = Vec::with_capacity(group_size as usize);
    for b in members {
        member_disks.push(placement.locate(object, b)?);
    }
    let n = placement.disks().disks();
    let x = parity_x0(obj.seed, group, engine.catalog().bits());
    let base = scaddar_core::locate(x, engine.log());
    for probe in 0..n {
        let candidate = DiskIndex((base.0 + probe) % n);
        if !member_disks.contains(&candidate) {
            return Ok(candidate);
        }
    }
    // Only possible when the group spans every disk (g-1 >= N) — the
    // caller chose an unservable configuration.
    Ok(base)
}

/// Outcome of reading one data block under a failure set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParityRead {
    /// The block's own disk is alive: one access.
    Direct(DiskIndex),
    /// Rebuilt from the surviving members + parity: `g-1` accesses.
    Reconstructed {
        /// The disks read to reconstruct (other data members + parity).
        from: Vec<DiskIndex>,
    },
    /// Two or more group members are down: unrecoverable.
    Lost,
}

/// Resolves a data-block read under failures, with reconstruction.
pub fn parity_read(
    server: &CmServer,
    object: ObjectId,
    block: u64,
    group_size: u32,
    failed: &[DiskIndex],
) -> Result<ParityRead, ScaddarError> {
    let placement = server.placement();
    let obj = *placement
        .engine()
        .catalog()
        .object(object)
        .ok_or(ScaddarError::UnknownObject(object))?;
    let down = |d: DiskIndex| failed.contains(&d);
    let own = placement.locate(object, block)?;
    if !down(own) {
        return Ok(ParityRead::Direct(own));
    }
    // Gather the rest of the group (data siblings + parity).
    let group = group_of(block, group_size);
    let mut sources = Vec::with_capacity(group_size as usize);
    for sibling in group_members(group, group_size, obj.blocks) {
        if sibling == block {
            continue;
        }
        let d = placement.locate(object, sibling)?;
        if down(d) {
            return Ok(ParityRead::Lost);
        }
        sources.push(d);
    }
    let p = parity_disk(server, object, group, group_size)?;
    if down(p) {
        return Ok(ParityRead::Lost);
    }
    sources.push(p);
    Ok(ParityRead::Reconstructed { from: sources })
}

/// Availability census of the whole catalog under a failure set:
/// `(direct, reconstructed, lost)` block counts.
pub fn parity_availability_census(
    server: &CmServer,
    group_size: u32,
    failed: &[DiskIndex],
) -> Result<(u64, u64, u64), ScaddarError> {
    let mut direct = 0u64;
    let mut reconstructed = 0u64;
    let mut lost = 0u64;
    let objects: Vec<(ObjectId, u64)> = server
        .engine()
        .catalog()
        .objects()
        .iter()
        .map(|o| (o.id, o.blocks))
        .collect();
    for (id, blocks) in objects {
        for b in 0..blocks {
            match parity_read(server, id, b, group_size, failed)? {
                ParityRead::Direct(_) => direct += 1,
                ParityRead::Reconstructed { .. } => reconstructed += 1,
                ParityRead::Lost => lost += 1,
            }
        }
    }
    Ok((direct, reconstructed, lost))
}

/// Expected fraction of groups with an internal data-data co-location
/// (the declustering hazard): `1 - prod_{i<g-1}(1 - i/N)`, the birthday
/// bound over group members on `N` disks.
pub fn colocation_hazard(group_size: u32, disks: u32) -> f64 {
    let n = f64::from(disks);
    let mut p_clean = 1.0;
    for i in 0..(group_size - 1) {
        p_clean *= 1.0 - f64::from(i) / n;
    }
    1.0 - p_clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use scaddar_core::ScalingOp;

    fn server(disks: u32, blocks: u64) -> (CmServer, ObjectId) {
        let mut s = CmServer::new(ServerConfig::new(disks).with_catalog_seed(42)).unwrap();
        let id = s.add_object(blocks).unwrap();
        (s, id)
    }

    #[test]
    fn group_arithmetic() {
        // g=5: 4 data blocks per group.
        assert_eq!(group_of(0, 5), 0);
        assert_eq!(group_of(3, 5), 0);
        assert_eq!(group_of(4, 5), 1);
        assert_eq!(group_count(8, 5), 2);
        assert_eq!(group_count(9, 5), 3);
        assert_eq!(group_members(2, 5, 10), 8..10); // short tail group
    }

    #[test]
    fn parity_never_shares_a_disk_with_members() {
        let (s, id) = server(8, 4_000);
        for group in 0..group_count(4_000, 5) {
            let p = parity_disk(&s, id, group, 5).unwrap();
            for b in group_members(group, 5, 4_000) {
                assert_ne!(p, s.placement().locate(id, b).unwrap(), "group {group}");
            }
        }
    }

    #[test]
    fn parity_disk_is_deterministic_and_tracks_scaling() {
        let (mut s, id) = server(8, 1_000);
        let before = parity_disk(&s, id, 3, 5).unwrap();
        assert_eq!(before, parity_disk(&s, id, 3, 5).unwrap());
        s.scale_offline(ScalingOp::Add { count: 2 }).unwrap();
        let after = parity_disk(&s, id, 3, 5).unwrap();
        assert!(after.0 < 10);
        // Still valid (collision-free) at the new epoch.
        for b in group_members(3, 5, 1_000) {
            assert_ne!(after, s.placement().locate(id, b).unwrap());
        }
    }

    #[test]
    fn healthy_array_reads_directly() {
        let (s, id) = server(8, 500);
        for b in (0..500).step_by(17) {
            assert!(matches!(
                parity_read(&s, id, b, 5, &[]).unwrap(),
                ParityRead::Direct(_)
            ));
        }
    }

    #[test]
    fn single_failure_reconstructs_unless_coresident() {
        let (s, _id) = server(12, 6_000);
        let g = 4u32;
        for d in 0..12 {
            let (direct, reconstructed, lost) =
                parity_availability_census(&s, g, &[DiskIndex(d)]).unwrap();
            assert_eq!(direct + reconstructed + lost, 6_000);
            // Loss happens only for groups with two members on disk d;
            // the hazard bound says it is rare but nonzero at g=4, N=12.
            let loss_rate = lost as f64 / 6_000.0;
            let hazard = colocation_hazard(g, 12);
            assert!(
                loss_rate < hazard,
                "disk {d}: loss {loss_rate} exceeds hazard bound {hazard}"
            );
        }
    }

    #[test]
    fn reconstruction_reads_g_minus_one_disks() {
        let (s, id) = server(10, 300);
        let own = s.placement().locate(id, 42).unwrap();
        match parity_read(&s, id, 42, 5, &[own]).unwrap() {
            ParityRead::Reconstructed { from } => {
                // 3 data siblings + 1 parity.
                assert_eq!(from.len(), 4);
                assert!(!from.contains(&own));
            }
            ParityRead::Lost => {
                // Possible if a sibling shares `own` — verify that's why.
                let group = group_of(42, 5);
                let shared = group_members(group, 5, 300)
                    .filter(|&b| b != 42)
                    .any(|b| s.placement().locate(id, b).unwrap() == own);
                assert!(shared, "Lost without a co-resident sibling");
            }
            ParityRead::Direct(_) => panic!("own disk is down"),
        }
    }

    #[test]
    fn hazard_bound_shape() {
        // Bigger groups and fewer disks are riskier.
        assert!(colocation_hazard(8, 16) > colocation_hazard(4, 16));
        assert!(colocation_hazard(4, 8) > colocation_hazard(4, 32));
        assert_eq!(colocation_hazard(2, 10), 0.0); // one data member only
    }

    /// Regression (mid-compaction): members are placed by the generation
    /// serving them, as `locate` places them. With the live engine alone
    /// the census counted 3311 direct reads here, the blocks the old
    /// generation keeps off disk 0, where `locate` keeps 3315 off it.
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
        let dead = DiskIndex(0);
        let off_dead = (0..4_000)
            .filter(|&b| s.placement().locate(id, b).unwrap() != dead)
            .count() as u64;
        assert_eq!(off_dead, 3_315);
        let (direct, reconstructed, lost) = parity_availability_census(&s, 4, &[dead]).unwrap();
        assert_eq!(direct, off_dead);
        assert_eq!(direct + reconstructed + lost, 4_000);
        for b in 0..4_000 {
            if let ParityRead::Reconstructed { from } = parity_read(&s, id, b, 4, &[dead]).unwrap()
            {
                for sibling in group_members(group_of(b, 4), 4, 4_000).filter(|&m| m != b) {
                    let disk = s.placement().locate(id, sibling).unwrap();
                    assert!(from.contains(&disk), "block {b}: sibling {sibling}");
                }
            }
        }
    }

    #[test]
    fn unknown_object_errors() {
        let (s, _) = server(4, 10);
        assert!(parity_disk(&s, ObjectId(99), 0, 4).is_err());
        assert!(parity_read(&s, ObjectId(99), 0, 4, &[]).is_err());
    }

    /// Reconstruction after loss, spanning a scaling epoch: a disk dies
    /// *after* the array has been scaled, and every block it held is
    /// either rebuilt from live disks only, or lost for exactly the
    /// co-location reason (a group sibling or the parity shared the
    /// dead disk).
    #[test]
    fn reconstruction_after_loss_spans_scaling() {
        let (mut s, id) = server(9, 2_500);
        let g = 5u32;
        s.scale_offline(ScalingOp::Add { count: 3 }).unwrap();
        s.scale_offline(ScalingOp::remove_one(1)).unwrap();
        let n = s.placement().disks().disks();
        let dead = DiskIndex(4);
        let mut reconstructed = 0u64;
        for b in 0..2_500u64 {
            let own = s.placement().locate(id, b).unwrap();
            if own != dead {
                continue;
            }
            match parity_read(&s, id, b, g, &[dead]).unwrap() {
                ParityRead::Reconstructed { from } => {
                    reconstructed += 1;
                    // 3 or fewer data siblings (tail group) + 1 parity,
                    // all alive, all valid at the current epoch.
                    let group = group_of(b, g);
                    let members = group_members(group, g, 2_500);
                    assert_eq!(from.len() as u64, members.end - members.start);
                    for d in &from {
                        assert_ne!(*d, dead, "block {b} read from the dead disk");
                        assert!(d.0 < n);
                    }
                }
                ParityRead::Lost => {
                    let group = group_of(b, g);
                    let sibling_down = group_members(group, g, 2_500)
                        .filter(|&sib| sib != b)
                        .any(|sib| s.placement().locate(id, sib).unwrap() == dead);
                    let parity_down = parity_disk(&s, id, group, g).unwrap() == dead;
                    assert!(
                        sibling_down || parity_down,
                        "block {b} lost without a co-located group member"
                    );
                }
                ParityRead::Direct(_) => panic!("block {b}'s own disk is down"),
            }
        }
        assert!(reconstructed > 0, "no block exercised reconstruction");
    }
}
