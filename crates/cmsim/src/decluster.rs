//! Declustered parity: the repair-cost answer to [`crate::parity`]'s
//! co-location losses.
//!
//! Static consecutive parity groups (E13) lose blocks on single-disk
//! failures whenever two group members share a disk (~`g²/2N` of groups,
//! by the birthday bound). The fix every RAID-style system uses is
//! **declustering**: choose group membership so members sit on distinct
//! disks. Under SCADDAR, membership must then be *state* — blocks move on
//! every scaling operation, and a move can push two members of a group
//! onto one disk — so the declustering layer repairs itself after each
//! operation by regrouping conflicted blocks and rewriting the affected
//! parity. That repair traffic is the price of 100% single-failure
//! availability, and experiment E18 weighs it against the static
//! scheme's data loss.
//!
//! The membership table is the one place this crate deliberately departs
//! from the paper's "no per-block state" discipline: one group id per
//! block. The point of the experiment is to make the cost of *not*
//! having that state (E13's losses) and of having it (this module's
//! repair traffic + table) both measurable.

use crate::server::CmServer;
use scaddar_core::{DiskIndex, ObjectId, ScaddarError};
use std::collections::HashMap;

/// Group membership for one object.
#[derive(Debug, Clone, Default)]
struct ObjectGroups {
    /// `member_of[block] = group id`.
    member_of: Vec<u32>,
    /// `groups[gid] = member block indices` (each on a distinct disk).
    groups: Vec<Vec<u64>>,
}

/// Statistics of one build or repair pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Blocks whose group assignment changed.
    pub regrouped_blocks: u64,
    /// Parity blocks that must be rewritten (old groups that lost a
    /// member plus new/extended groups).
    pub parity_rewrites: u64,
}

/// The declustering layer over a [`CmServer`]'s placement.
#[derive(Debug, Clone)]
pub struct DeclusteredParity {
    group_size: u32,
    objects: HashMap<ObjectId, ObjectGroups>,
}

impl DeclusteredParity {
    /// Builds declustered groups of `group_size` (1 parity + up to
    /// `group_size - 1` data members) for every object currently on the
    /// server.
    ///
    /// # Panics
    /// If `group_size < 2` or `group_size - 1` exceeds the disk count
    /// (distinct-disk groups would be impossible).
    pub fn build(server: &CmServer, group_size: u32) -> Result<Self, ScaddarError> {
        assert!(group_size >= 2, "parity group needs >= 2 members");
        assert!(
            group_size - 1 <= server.placement().disks().disks(),
            "cannot decluster: group data members exceed disk count"
        );
        let mut layer = DeclusteredParity {
            group_size,
            objects: HashMap::new(),
        };
        for obj in server.engine().catalog().objects().to_vec() {
            let placements = server.placement().placements(obj.id)?;
            layer
                .objects
                .insert(obj.id, Self::group_greedily(&placements, group_size));
        }
        Ok(layer)
    }

    /// Greedy grouping: walk blocks in order, put each into the first
    /// open group (fewer than `g-1` members) that does not already use
    /// the block's disk; open a new group otherwise.
    fn group_greedily(placements: &[DiskIndex], group_size: u32) -> ObjectGroups {
        let capacity = (group_size - 1) as usize;
        let mut og = ObjectGroups {
            member_of: vec![0; placements.len()],
            groups: Vec::new(),
        };
        // Open groups: (gid, member disks).
        let mut open: Vec<(u32, Vec<DiskIndex>)> = Vec::new();
        for (block, &disk) in placements.iter().enumerate() {
            let slot = open
                .iter()
                .position(|(_, disks)| disks.len() < capacity && !disks.contains(&disk));
            let gid = match slot {
                Some(i) => {
                    open[i].1.push(disk);
                    let gid = open[i].0;
                    if open[i].1.len() == capacity {
                        open.swap_remove(i);
                    }
                    gid
                }
                None => {
                    let gid = og.groups.len() as u32;
                    og.groups.push(Vec::new());
                    open.push((gid, vec![disk]));
                    if capacity == 1 {
                        open.pop();
                    }
                    gid
                }
            };
            og.member_of[block] = gid;
            og.groups[gid as usize].push(block as u64);
        }
        og
    }

    /// The configured group size.
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// Total groups across all objects (== parity blocks stored).
    pub fn total_groups(&self) -> u64 {
        self.objects.values().map(|og| og.groups.len() as u64).sum()
    }

    /// Effective storage overhead: `(data + parity) / data`.
    pub fn storage_overhead(&self, server: &CmServer) -> f64 {
        let data = server.engine().catalog().total_blocks() as f64;
        if data == 0.0 {
            return 1.0;
        }
        (data + self.total_groups() as f64) / data
    }

    /// Membership-table footprint: 4 bytes (group id) per block — the
    /// per-block state the paper's discipline avoids, quantified.
    pub fn table_bytes(&self) -> usize {
        self.objects.values().map(|og| og.member_of.len() * 4).sum()
    }

    /// Verifies the declustering invariant: within every group, member
    /// disks are pairwise distinct at the server's *current* placement.
    /// Returns the number of conflicted groups (0 = invariant holds).
    pub fn conflicted_groups(&self, server: &CmServer) -> Result<u64, ScaddarError> {
        let mut conflicts = 0;
        for (&id, og) in &self.objects {
            let placements = server.placement().placements(id)?;
            for members in &og.groups {
                let mut disks: Vec<DiskIndex> =
                    members.iter().map(|&b| placements[b as usize]).collect();
                disks.sort_unstable();
                let len_before = disks.len();
                disks.dedup();
                if disks.len() != len_before {
                    conflicts += 1;
                }
            }
        }
        Ok(conflicts)
    }

    /// Repairs the invariant after a scaling operation: conflicted
    /// members are pulled out of their groups and regrouped greedily.
    /// Returns the repair traffic.
    pub fn repair(&mut self, server: &CmServer) -> Result<RepairStats, ScaddarError> {
        let capacity = (self.group_size - 1) as usize;
        let mut stats = RepairStats::default();
        let ids: Vec<ObjectId> = self.objects.keys().copied().collect();
        for id in ids {
            let placements = server.placement().placements(id)?;
            let og = self.objects.get_mut(&id).expect("known object");
            // 1. Evict duplicate-disk members (keep the first per disk).
            let mut evicted: Vec<u64> = Vec::new();
            for members in og.groups.iter_mut() {
                let mut seen: Vec<DiskIndex> = Vec::with_capacity(members.len());
                let mut keep = Vec::with_capacity(members.len());
                let mut lost_member = false;
                for &b in members.iter() {
                    let d = placements[b as usize];
                    if seen.contains(&d) {
                        evicted.push(b);
                        lost_member = true;
                    } else {
                        seen.push(d);
                        keep.push(b);
                    }
                }
                if lost_member {
                    stats.parity_rewrites += 1; // the shrunken group's parity
                }
                *members = keep;
            }
            if evicted.is_empty() {
                continue;
            }
            stats.regrouped_blocks += evicted.len() as u64;
            // 2. Reinsert evicted members greedily into compatible groups.
            let mut touched: Vec<u32> = Vec::new();
            for b in evicted {
                let disk = placements[b as usize];
                let slot = og.groups.iter().position(|members| {
                    members.len() < capacity
                        && members.iter().all(|&m| placements[m as usize] != disk)
                });
                let gid = match slot {
                    Some(g) => g as u32,
                    None => {
                        og.groups.push(Vec::new());
                        (og.groups.len() - 1) as u32
                    }
                };
                og.groups[gid as usize].push(b);
                og.member_of[b as usize] = gid;
                if !touched.contains(&gid) {
                    touched.push(gid);
                    stats.parity_rewrites += 1; // the grown group's parity
                }
            }
        }
        Ok(stats)
    }

    /// Availability under a failure set: a data block is readable if its
    /// own disk survives, or if every *other* member of its group
    /// survives (XOR reconstruction; parity disks are modelled as
    /// surviving-by-construction because they are placed with the same
    /// distinct-disk probe — the pessimistic case for the static scheme,
    /// optimistic by at most one disk here, noted in E18).
    pub fn availability(
        &self,
        server: &CmServer,
        failed: &[DiskIndex],
    ) -> Result<(u64, u64), ScaddarError> {
        let mut readable = 0u64;
        let mut lost = 0u64;
        for (&id, og) in &self.objects {
            let placements = server.placement().placements(id)?;
            let down = |b: u64| failed.contains(&placements[b as usize]);
            for (block, &gid) in og.member_of.iter().enumerate() {
                let block = block as u64;
                if !down(block) {
                    readable += 1;
                    continue;
                }
                let siblings_ok = og.groups[gid as usize]
                    .iter()
                    .all(|&m| m == block || !down(m));
                if siblings_ok {
                    readable += 1;
                } else {
                    lost += 1;
                }
            }
        }
        Ok((readable, lost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use scaddar_core::ScalingOp;

    fn server(disks: u32, blocks: u64) -> CmServer {
        let mut s = CmServer::new(ServerConfig::new(disks).with_catalog_seed(64)).unwrap();
        s.add_object(blocks).unwrap();
        s
    }

    #[test]
    fn build_satisfies_the_invariant() {
        let s = server(10, 8_000);
        let layer = DeclusteredParity::build(&s, 5).unwrap();
        assert_eq!(layer.conflicted_groups(&s).unwrap(), 0);
        // Storage overhead near g/(g-1) = 1.25 (tail groups add a bit).
        let overhead = layer.storage_overhead(&s);
        assert!((1.24..1.30).contains(&overhead), "overhead {overhead}");
        assert_eq!(layer.table_bytes(), 8_000 * 4);
    }

    #[test]
    fn single_failure_loses_nothing_after_build() {
        let s = server(10, 5_000);
        let layer = DeclusteredParity::build(&s, 4).unwrap();
        for d in 0..10 {
            let (readable, lost) = layer.availability(&s, &[DiskIndex(d)]).unwrap();
            assert_eq!(lost, 0, "disk {d}");
            assert_eq!(readable, 5_000);
        }
    }

    #[test]
    fn scaling_conflicts_and_repair_restores_invariant() {
        let mut s = server(10, 8_000);
        let mut layer = DeclusteredParity::build(&s, 5).unwrap();
        s.scale_offline(ScalingOp::Add { count: 2 }).unwrap();
        let conflicts = layer.conflicted_groups(&s).unwrap();
        assert!(conflicts > 0, "an addition should break some groups");
        let stats = layer.repair(&s).unwrap();
        assert!(stats.regrouped_blocks > 0);
        assert!(stats.parity_rewrites > 0);
        assert_eq!(layer.conflicted_groups(&s).unwrap(), 0);
        // And single-failure safety is back.
        for d in 0..12 {
            let (_, lost) = layer.availability(&s, &[DiskIndex(d)]).unwrap();
            assert_eq!(lost, 0, "disk {d} after repair");
        }
    }

    #[test]
    fn repair_traffic_is_bounded_by_movement() {
        // Only moved blocks (plus their displaced group-mates) can need
        // regrouping; the repair must not reshuffle the world.
        let mut s = server(12, 20_000);
        let mut layer = DeclusteredParity::build(&s, 4).unwrap();
        let moved = s.scale_offline(ScalingOp::Add { count: 1 }).unwrap();
        let stats = layer.repair(&s).unwrap();
        assert!(
            stats.regrouped_blocks <= moved,
            "regrouped {} > moved {moved}",
            stats.regrouped_blocks
        );
    }

    #[test]
    fn removal_then_repair() {
        let mut s = server(9, 6_000);
        let mut layer = DeclusteredParity::build(&s, 4).unwrap();
        s.scale_offline(ScalingOp::remove_one(2)).unwrap();
        layer.repair(&s).unwrap();
        assert_eq!(layer.conflicted_groups(&s).unwrap(), 0);
        let (readable, lost) = layer.availability(&s, &[DiskIndex(0)]).unwrap();
        assert_eq!((readable, lost), (6_000, 0));
    }

    #[test]
    #[should_panic(expected = "cannot decluster")]
    fn group_larger_than_array_is_rejected() {
        let s = server(3, 100);
        let _ = DeclusteredParity::build(&s, 5);
    }
}
