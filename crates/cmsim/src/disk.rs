//! The disk array: stable physical disks behind SCADDAR's dense logical
//! indices.
//!
//! SCADDAR's arithmetic lives in a world of logical indices `0..N_j` that
//! renumber on removal; an operator lives in a world of physical spindles
//! with serial numbers. [`DiskArray`] keeps the two aligned, reusing the
//! same rank-renumbering convention as the core (`new()` in the paper).

use scaddar_baselines::{PhysicalDiskId, PhysicalMap};
use scaddar_core::{DiskIndex, ScalingError, ScalingOp};
use std::collections::HashMap;

/// A physical disk's static properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskSpec {
    /// Blocks the disk can deliver per service round.
    pub bandwidth: u32,
    /// Block capacity.
    pub capacity: u64,
}

/// The array of live physical disks with a logical ordering.
#[derive(Debug, Clone)]
pub struct DiskArray {
    map: PhysicalMap,
    specs: HashMap<PhysicalDiskId, DiskSpec>,
    default_spec: DiskSpec,
}

impl DiskArray {
    /// Creates an array of `initial` identical disks.
    pub fn new(initial: u32, spec: DiskSpec) -> Self {
        let map = PhysicalMap::new(initial);
        let mut specs = HashMap::new();
        for l in 0..initial {
            specs.insert(map.physical(l), spec);
        }
        DiskArray {
            map,
            specs,
            default_spec: spec,
        }
    }

    /// Number of live disks.
    pub fn disks(&self) -> u32 {
        self.map.disks()
    }

    /// Physical identity of a logical index.
    pub fn physical(&self, logical: DiskIndex) -> PhysicalDiskId {
        self.map.physical(logical.0)
    }

    /// Physical identities of a run of logical indices (one object's
    /// `locate_all`, say), in order.
    pub(crate) fn physical_all(&self, logical: &[DiskIndex]) -> Vec<PhysicalDiskId> {
        logical.iter().map(|&l| self.physical(l)).collect()
    }

    /// The spec of a live physical disk.
    pub fn spec(&self, id: PhysicalDiskId) -> DiskSpec {
        self.specs[&id]
    }

    /// Live physical ids in logical order.
    pub fn physical_ids(&self) -> Vec<PhysicalDiskId> {
        (0..self.disks()).map(|l| self.map.physical(l)).collect()
    }

    /// Applies a scaling operation. New disks take the default spec
    /// (homogeneous array; heterogeneity is modelled one level up, in
    /// [`crate::hetero`]). Removed disks' specs are dropped.
    pub fn apply(&mut self, op: &ScalingOp) -> Result<(), ScalingError> {
        let before: Vec<PhysicalDiskId> = self.physical_ids();
        self.map.apply(op)?;
        match op {
            ScalingOp::Add { .. } => {
                for l in 0..self.disks() {
                    let id = self.map.physical(l);
                    self.specs.entry(id).or_insert(self.default_spec);
                }
            }
            ScalingOp::Remove { .. } => {
                let after: std::collections::HashSet<PhysicalDiskId> =
                    self.physical_ids().into_iter().collect();
                for id in before {
                    if !after.contains(&id) {
                        self.specs.remove(&id);
                    }
                }
            }
        }
        Ok(())
    }

    /// Total stream bandwidth of the array (blocks per round).
    pub fn total_bandwidth(&self) -> u64 {
        self.physical_ids()
            .iter()
            .map(|id| u64::from(self.specs[id].bandwidth))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: DiskSpec = DiskSpec {
        bandwidth: 32,
        capacity: 1_000,
    };

    #[test]
    fn identity_survives_scaling() {
        let mut a = DiskArray::new(4, SPEC);
        let ids0 = a.physical_ids();
        a.apply(&ScalingOp::Add { count: 2 }).unwrap();
        a.apply(&ScalingOp::remove_one(1)).unwrap();
        let ids = a.physical_ids();
        assert_eq!(ids.len(), 5);
        // Physical 1 gone, everything else intact, new ids appended.
        assert!(!ids.contains(&ids0[1]));
        assert!(ids.contains(&ids0[0]));
        assert_eq!(a.disks(), 5);
        assert_eq!(a.total_bandwidth(), 5 * 32);
    }

    #[test]
    fn specs_follow_membership() {
        let mut a = DiskArray::new(2, SPEC);
        a.apply(&ScalingOp::Add { count: 1 }).unwrap();
        let new_id = a.physical(DiskIndex(2));
        assert_eq!(a.spec(new_id), SPEC);
        a.apply(&ScalingOp::remove_one(0)).unwrap();
        assert_eq!(a.physical_ids().len(), 2);
    }

    #[test]
    fn invalid_op_is_rejected() {
        let mut a = DiskArray::new(2, SPEC);
        assert!(a.apply(&ScalingOp::remove_one(5)).is_err());
        assert_eq!(a.disks(), 2);
    }
}
