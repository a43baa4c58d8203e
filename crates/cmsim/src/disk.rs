//! The disk array: stable physical disks behind SCADDAR's dense logical
//! indices.
//!
//! SCADDAR's arithmetic lives in a world of logical indices `0..N_j` that
//! renumber on removal; an operator lives in a world of physical spindles
//! with serial numbers. [`DiskArray`] keeps the two aligned, reusing the
//! same rank-renumbering convention as the core (`new()` in the paper),
//! and tracks every physical disk's lifecycle in one dense table.

use crate::store::BlockStore;
use scaddar_baselines::{PhysicalDiskId, PhysicalMap};
use scaddar_core::{DiskIndex, ScalingError, ScalingOp};

/// A physical disk's static properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskSpec {
    /// Blocks the disk can deliver per service round.
    pub bandwidth: u32,
    /// Block capacity.
    pub capacity: u64,
}

/// Where a physical disk is in its life (DESIGN §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DiskState {
    /// In the array and healthy.
    Live,
    /// In the array, failed unexpectedly (§1): reads go to the §6 mirror.
    Failed,
    /// Removed with notice (§1): serves reads and moves until empty.
    Draining,
    /// Failed, then removed: its blocks await reconstruction.
    Pulled,
    /// Removed and empty. Ids are never reused.
    Retired,
}

impl DiskState {
    /// Reads of its blocks fall back to the mirror.
    pub(crate) fn failed(self) -> bool {
        matches!(self, DiskState::Failed | DiskState::Pulled)
    }

    /// Serves streams and moves in a round.
    pub(crate) fn serves(self) -> bool {
        matches!(self, DiskState::Live | DiskState::Draining)
    }

    /// In the array, failed or not, or draining.
    pub(crate) fn attached(self) -> bool {
        !matches!(self, DiskState::Pulled | DiskState::Retired)
    }
}

/// The array of physical disks with a logical ordering: the live disks
/// in logical order, plus one table slot per physical id ever minted
/// (a `Vec` indexed by `PhysicalDiskId.0`) holding its spec and state.
#[derive(Debug, Clone)]
pub struct DiskArray {
    map: PhysicalMap,
    slots: Vec<(DiskSpec, DiskState)>,
    default_spec: DiskSpec,
}

impl DiskArray {
    /// Creates an array of `initial` identical disks.
    pub fn new(initial: u32, spec: DiskSpec) -> Self {
        DiskArray {
            map: PhysicalMap::new(initial),
            slots: vec![(spec, DiskState::Live); initial as usize],
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

    /// The spec of a physical disk the array has minted.
    pub fn spec(&self, id: PhysicalDiskId) -> DiskSpec {
        self.slots[id.0 as usize].0
    }

    /// The lifecycle state of a physical disk the array has minted.
    pub(crate) fn state(&self, id: PhysicalDiskId) -> DiskState {
        self.slots[id.0 as usize].1
    }

    /// Live physical ids in logical order (ascending: additions append
    /// fresh ids, removals keep the survivors' order).
    pub fn physical_ids(&self) -> Vec<PhysicalDiskId> {
        (0..self.disks()).map(|l| self.map.physical(l)).collect()
    }

    /// [`DiskArray::physical_ids`] as residency stores them, 4 bytes each.
    pub(crate) fn physical_words(&self) -> Vec<u32> {
        (0..self.disks())
            .map(|l| crate::store::id_word(self.map.physical(l)))
            .collect()
    }

    /// The error [`DiskArray::apply`] would return for `op`, without
    /// applying it: an invalid op, or an addition past the physical id
    /// ceiling ([`PhysicalMap::MAX_ID`]).
    pub(crate) fn check(&self, op: &ScalingOp) -> Result<(), ScalingError> {
        self.map.check(op)
    }

    /// The ids whose state satisfies `pred`, ascending.
    pub(crate) fn ids_where(
        &self,
        pred: fn(DiskState) -> bool,
    ) -> impl Iterator<Item = PhysicalDiskId> + '_ {
        (0..self.slots.len() as u64)
            .map(PhysicalDiskId)
            .filter(move |&id| pred(self.state(id)))
    }

    /// Applies a scaling operation. New disks take the default spec
    /// (homogeneous array; heterogeneity is modelled one level up, in
    /// [`crate::hetero`]). A removed disk drains, or is pulled if it had
    /// failed, until it is retired once empty. An addition past the
    /// physical id ceiling is refused before anything is allocated.
    pub fn apply(&mut self, op: &ScalingOp) -> Result<(), ScalingError> {
        let before = self.physical_ids();
        self.map.apply(op)?;
        if let ScalingOp::Add { count } = op {
            // `PhysicalMap` mints the next `count` ids in sequence.
            let fresh = (self.default_spec, DiskState::Live);
            self.slots.resize(self.slots.len() + *count as usize, fresh);
        }
        let after = self.physical_ids();
        for id in before
            .into_iter()
            .filter(|id| after.binary_search(id).is_err())
        {
            let state = &mut self.slots[id.0 as usize].1;
            *state = match *state {
                DiskState::Failed => DiskState::Pulled,
                _ => DiskState::Draining,
            };
        }
        Ok(())
    }

    /// Fails the disk at `logical`; returns its physical id.
    pub(crate) fn fail(&mut self, logical: DiskIndex) -> PhysicalDiskId {
        let id = self.physical(logical);
        self.slots[id.0 as usize].1 = DiskState::Failed;
        id
    }

    /// Retires every draining or pulled disk that holds no block in
    /// `store`; returns their ids.
    pub(crate) fn retire_empty(&mut self, store: &BlockStore) -> Vec<PhysicalDiskId> {
        let gone: Vec<PhysicalDiskId> = self
            .ids_where(|state| matches!(state, DiskState::Draining | DiskState::Pulled))
            .filter(|&id| store.blocks_on(id) == 0)
            .collect();
        for id in &gone {
            self.slots[id.0 as usize].1 = DiskState::Retired;
        }
        gone
    }

    /// A per-disk table (a round's budgets, say) indexed by
    /// `PhysicalDiskId.0`: `f` of every minted disk's spec and state.
    pub(crate) fn table<T>(&self, f: impl Fn(DiskSpec, DiskState) -> T) -> Vec<T> {
        self.slots
            .iter()
            .map(|&(spec, state)| f(spec, state))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tally;
    use scaddar_core::ObjectId;

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
        assert!(ids.iter().all(|&id| a.spec(id) == SPEC));
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
    fn lifecycle_walks_the_table() {
        let mut a = DiskArray::new(4, SPEC);
        let (healthy, dead) = (a.physical(DiskIndex(1)), a.fail(DiskIndex(2)));
        assert_eq!(a.state(dead), DiskState::Failed);
        a.apply(&ScalingOp::Remove { disks: vec![1, 2] }).unwrap();
        a.apply(&ScalingOp::Add { count: 1 }).unwrap();
        assert_eq!(a.state(healthy), DiskState::Draining);
        assert_eq!(a.state(dead), DiskState::Pulled);
        assert_eq!(
            a.physical(DiskIndex(2)),
            PhysicalDiskId(4),
            "ids never reused"
        );
        assert_eq!(a.state(PhysicalDiskId(4)), DiskState::Live);
        assert_eq!(a.slots.len(), 5);
        // Only removed disks retire, and only when empty.
        let mut store = BlockStore::new();
        let resident = vec![dead.0 as u32, 0];
        store.ingest_object(ObjectId(0), resident.clone(), tally(&resident));
        assert_eq!(a.retire_empty(&store), vec![healthy]);
        store.evict_object(ObjectId(0)).unwrap();
        assert_eq!(a.retire_empty(&store), vec![dead]);
        assert_eq!(a.state(dead), DiskState::Retired);
        let attached: Vec<PhysicalDiskId> = a.ids_where(DiskState::attached).collect();
        assert_eq!(attached, a.physical_ids());
    }

    #[test]
    fn states_carry_the_two_budget_rules() {
        let mut a = DiskArray::new(5, SPEC);
        a.fail(DiskIndex(0));
        a.fail(DiskIndex(1));
        // Disk 1 is pulled with blocks, 2 drains, 3 is retired.
        a.apply(&ScalingOp::Remove {
            disks: vec![1, 2, 3],
        })
        .unwrap();
        let mut store = BlockStore::new();
        let resident = vec![1, 2];
        store.ingest_object(ObjectId(0), resident.clone(), tally(&resident));
        a.retire_empty(&store);
        // A round serves on live and draining disks only.
        let serves = a.table(|_, state| state.serves());
        assert_eq!(serves, vec![false, false, true, false, true]);
        // An offline drain covers the array, failed or not, and the
        // draining disks.
        let attached = a.table(|_, state| state.attached());
        assert_eq!(attached, vec![true, false, true, false, true]);
        let failed = a.table(|_, state| state.failed());
        assert_eq!(failed, vec![true, true, false, false, false]);
    }

    #[test]
    fn additions_past_the_id_ceiling_are_refused_before_allocating() {
        // Three ids minted, two removed: one live disk. Adding
        // u32::MAX - 1 keeps the live count within u32, but the ids
        // would run to u32::MAX + 1. The check counts; it never pushes.
        let mut a = DiskArray::new(3, SPEC);
        a.apply(&ScalingOp::Remove { disks: vec![0, 1] }).unwrap();
        let op = ScalingOp::Add {
            count: u32::MAX - 1,
        };
        assert_eq!(a.check(&op), Err(ScalingError::PhysicalIdsExhausted));
        assert_eq!(a.apply(&op), Err(ScalingError::PhysicalIdsExhausted));
        assert_eq!(a.disks(), 1);
        assert_eq!(a.slots.len(), 3, "nothing minted");
        assert_eq!(a.check(&ScalingOp::Add { count: 2 }), Ok(()));
    }

    #[test]
    fn invalid_op_is_rejected() {
        let mut a = DiskArray::new(2, SPEC);
        assert!(a.apply(&ScalingOp::remove_one(5)).is_err());
        assert_eq!(a.disks(), 2);
    }
}
