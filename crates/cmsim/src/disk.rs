//! The disk array: stable physical disks behind SCADDAR's dense logical
//! indices.
//!
//! SCADDAR's arithmetic lives in a world of logical indices `0..N_j` that
//! renumber on removal; an operator lives in a world of physical spindles
//! with serial numbers. [`PhysicalMap`] keeps the two aligned, reusing the
//! same rank-renumbering convention as the core (`new()` in the paper),
//! and [`DiskArray`] tracks every physical disk's lifecycle in one dense
//! table beside it. The map is the server's, not the algorithm's: the
//! baselines' comparison harness borrows it to count physical movement.

use crate::store::BlockStore;
use scaddar_core::{DiskIndex, RemovedSet, ScalingError, ScalingOp};

/// Stable physical disk identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysicalDiskId(pub u64);

/// Maps dense logical indices (SCADDAR's world) to stable physical disk
/// ids across a schedule of scaling operations, using the same rank
/// renumbering the core implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalMap {
    logical_to_physical: Vec<PhysicalDiskId>,
    next_physical: u64,
}

impl PhysicalMap {
    /// Starts with `initial_disks` physical disks `0..initial_disks`.
    pub fn new(initial_disks: u32) -> Self {
        PhysicalMap {
            logical_to_physical: (0..u64::from(initial_disks)).map(PhysicalDiskId).collect(),
            next_physical: u64::from(initial_disks),
        }
    }

    /// Number of live disks.
    pub fn disks(&self) -> u32 {
        self.logical_to_physical.len() as u32
    }

    /// The physical disk behind a logical index.
    pub fn physical(&self, logical: u32) -> PhysicalDiskId {
        self.logical_to_physical[logical as usize]
    }

    /// The largest physical id a map mints. Ids are never reused, so a
    /// long history of additions and removals can reach it before the
    /// live count does; residency stores ids in 4 bytes.
    pub const MAX_ID: u64 = u32::MAX as u64;

    /// Validates `op` against the live count and the id ceiling without
    /// applying it: the error [`PhysicalMap::apply`] would return.
    pub fn check(&self, op: &ScalingOp) -> Result<(), ScalingError> {
        op.disks_after(self.disks())?;
        if let ScalingOp::Add { count } = op {
            if self.next_physical + u64::from(*count) > Self::MAX_ID + 1 {
                return Err(ScalingError::PhysicalIdsExhausted);
            }
        }
        Ok(())
    }

    /// Applies a scaling operation: additions mint fresh physical ids,
    /// removals drop the victims and compact (rank renumbering). An
    /// addition past [`PhysicalMap::MAX_ID`] is refused before anything
    /// is allocated.
    pub fn apply(&mut self, op: &ScalingOp) -> Result<(), ScalingError> {
        let n_prev = self.disks();
        self.check(op)?;
        match op {
            ScalingOp::Add { count } => {
                for _ in 0..*count {
                    self.logical_to_physical
                        .push(PhysicalDiskId(self.next_physical));
                    self.next_physical += 1;
                }
            }
            ScalingOp::Remove { disks } => {
                let removed = RemovedSet::new(disks, n_prev)?;
                let mut kept = Vec::with_capacity(self.logical_to_physical.len());
                for (logical, &phys) in self.logical_to_physical.iter().enumerate() {
                    if !removed.contains(logical as u32) {
                        kept.push(phys);
                    }
                }
                self.logical_to_physical = kept;
            }
        }
        Ok(())
    }
}

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

    /// The most live disks a scaling op may leave. Every tick and
    /// every addition allocates per disk, so this bounds what one `Add`
    /// from a client can make a server allocate (DESIGN §17).
    pub const MAX_LIVE_DISKS: u32 = 1 << 16;

    /// The error [`DiskArray::apply`] would return for `op`, without
    /// applying it: an invalid op, an addition past the physical id
    /// ceiling ([`PhysicalMap::MAX_ID`]), or one past
    /// [`DiskArray::MAX_LIVE_DISKS`].
    pub(crate) fn check(&self, op: &ScalingOp) -> Result<(), ScalingError> {
        self.map.check(op)?;
        if let ScalingOp::Add { count } = op {
            let max = Self::MAX_LIVE_DISKS;
            if u64::from(self.disks()) + u64::from(*count) > u64::from(max) {
                return Err(ScalingError::TooManyLiveDisks { max });
            }
        }
        Ok(())
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
    /// physical id ceiling or the live-disk ceiling is refused before
    /// anything is allocated.
    pub fn apply(&mut self, op: &ScalingOp) -> Result<(), ScalingError> {
        self.check(op)?;
        match op {
            ScalingOp::Add { count } => {
                // `PhysicalMap` mints the next `count` ids in sequence.
                let fresh = (self.default_spec, DiskState::Live);
                self.slots.resize(self.slots.len() + *count as usize, fresh);
            }
            // The checked op names distinct, in-range logical victims.
            ScalingOp::Remove { disks } => {
                for &logical in disks {
                    let state = &mut self.slots[self.map.physical(logical).0 as usize].1;
                    *state = match *state {
                        DiskState::Failed => DiskState::Pulled,
                        _ => DiskState::Draining,
                    };
                }
            }
        }
        self.map.apply(op)
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
    fn additions_past_the_live_disk_ceiling_are_refused_before_allocating() {
        let max = DiskArray::MAX_LIVE_DISKS;
        let mut a = DiskArray::new(8, SPEC);
        let over = ScalingOp::Add { count: max - 7 };
        assert_eq!(a.check(&over), Err(ScalingError::TooManyLiveDisks { max }));
        assert_eq!(a.apply(&over), Err(ScalingError::TooManyLiveDisks { max }));
        assert_eq!((a.disks(), a.slots.len()), (8, 8), "nothing minted");
        a.apply(&ScalingOp::Add { count: max - 8 }).unwrap();
        assert_eq!(a.disks(), max, "exactly at the ceiling is allowed");
        // A removal frees room under the ceiling again.
        a.apply(&ScalingOp::remove_one(0)).unwrap();
        assert_eq!(a.check(&ScalingOp::Add { count: 1 }), Ok(()));
    }

    #[test]
    fn physical_map_tracks_identity_through_removal() {
        let mut m = PhysicalMap::new(4);
        m.apply(&ScalingOp::Add { count: 2 }).unwrap(); // physical 4, 5
        m.apply(&ScalingOp::remove_one(1)).unwrap(); // drop physical 1
        assert_eq!(m.disks(), 5);
        let physes: Vec<u64> = (0..5).map(|l| m.physical(l).0).collect();
        assert_eq!(physes, vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn additions_stop_at_the_id_ceiling() {
        // A map whose history already minted ids up to MAX_ID - 1.
        let mut m = PhysicalMap {
            logical_to_physical: vec![PhysicalDiskId(PhysicalMap::MAX_ID - 1)],
            next_physical: PhysicalMap::MAX_ID,
        };
        let two = ScalingOp::Add { count: 2 };
        assert_eq!(m.check(&two), Err(ScalingError::PhysicalIdsExhausted));
        assert_eq!(m.apply(&two), Err(ScalingError::PhysicalIdsExhausted));
        assert_eq!(m.disks(), 1, "a refused addition mints nothing");
        m.apply(&ScalingOp::add_one()).unwrap();
        assert_eq!(m.physical(1), PhysicalDiskId(PhysicalMap::MAX_ID));
        assert_eq!(
            m.apply(&ScalingOp::add_one()),
            Err(ScalingError::PhysicalIdsExhausted)
        );
        // Removals never mint, so they still apply at the ceiling.
        m.apply(&ScalingOp::remove_one(0)).unwrap();
        assert_eq!(m.disks(), 1);
    }

    /// [`DiskArray::apply`] as it was before it marked victims from the
    /// op: list the live ids, apply, list them again, and mark every id
    /// that left.
    fn apply_by_diff(a: &mut DiskArray, op: &ScalingOp) -> Result<(), ScalingError> {
        let before = a.physical_ids();
        a.map.apply(op)?;
        if let ScalingOp::Add { count } = op {
            let fresh = (a.default_spec, DiskState::Live);
            a.slots.resize(a.slots.len() + *count as usize, fresh);
        }
        let after = a.physical_ids();
        for id in before
            .into_iter()
            .filter(|id| after.binary_search(id).is_err())
        {
            let state = &mut a.slots[id.0 as usize].1;
            *state = match *state {
                DiskState::Failed => DiskState::Pulled,
                _ => DiskState::Draining,
            };
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Over random add, remove, fail and retire schedules, marking
        /// the victims straight from the op leaves the same map and
        /// table as the before/after diff, refuses the same ops (an
        /// addition past the id ceiling among them) without touching
        /// either, and never mints an id twice.
        #[test]
        fn victim_marking_matches_the_diff(
            initial in 2u32..8,
            schedule in proptest::collection::vec((0u32..6, 0u32..64, 0u32..64), 1..24),
        ) {
            let mut fast = DiskArray::new(initial, SPEC);
            let mut oracle = fast.clone();
            let mut minted: std::collections::BTreeSet<PhysicalDiskId> =
                fast.physical_ids().into_iter().collect();
            for (kind, a, b) in schedule {
                let n = fast.disks();
                let op = match kind {
                    0 => ScalingOp::Add { count: 1 + a % 3 },
                    1 => ScalingOp::remove_one(a % n),
                    // Two victims; the same one twice, or all of the
                    // array, is refused.
                    2 => ScalingOp::Remove { disks: vec![a % n, b % n] },
                    3 => {
                        fast.fail(DiskIndex(a % n));
                        oracle.fail(DiskIndex(a % n));
                        continue;
                    }
                    4 => {
                        let empty = BlockStore::new();
                        proptest::prop_assert_eq!(
                            fast.retire_empty(&empty),
                            oracle.retire_empty(&empty)
                        );
                        continue;
                    }
                    // The live count stays within u32, but with two ids
                    // spent the ids would not: refused before allocating.
                    // With fewer spent it would mint ~2^32 slots, so skip.
                    _ if fast.slots.len() - n as usize >= 2 => {
                        ScalingOp::Add { count: u32::MAX - n }
                    }
                    _ => continue,
                };
                let (slots, live) = (fast.slots.clone(), fast.physical_ids());
                let result = fast.apply(&op);
                proptest::prop_assert_eq!(&result, &apply_by_diff(&mut oracle, &op));
                proptest::prop_assert_eq!(&fast.map, &oracle.map);
                proptest::prop_assert_eq!(&fast.slots, &oracle.slots);
                if result.is_err() {
                    proptest::prop_assert_eq!(&fast.slots, &slots);
                    proptest::prop_assert_eq!(&fast.physical_ids(), &live);
                }
                if kind == 5 {
                    proptest::prop_assert_eq!(result, Err(ScalingError::PhysicalIdsExhausted));
                }
                for id in fast.physical_ids() {
                    proptest::prop_assert!(
                        live.contains(&id) || minted.insert(id),
                        "{id:?} minted twice"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_op_is_rejected() {
        let mut a = DiskArray::new(2, SPEC);
        assert!(a.apply(&ScalingOp::remove_one(5)).is_err());
        assert_eq!(a.disks(), 2);
    }
}
