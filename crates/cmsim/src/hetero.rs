//! Heterogeneous disk arrays via logical disks (§6 future work, following
//! Zimmermann & Ghandeharizadeh's heterogeneous-display technique, the
//! paper's reference \[18\]).
//!
//! SCADDAR places over *homogeneous logical disks*. A heterogeneous
//! physical array is presented to it by carving each physical disk into a
//! number of logical disks proportional to its capability (its weight):
//! a disk twice as fast/large backs twice as many logical disks and so
//! receives twice the blocks and twice the expected demand. Scaling a
//! physical disk in or out becomes a *group* addition or removal of its
//! logical disks — exactly the disk-group operations SCADDAR supports.

use scaddar_core::{DiskIndex, ScalingError, ScalingOp};

/// Stable identity of a heterogeneous physical disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HeteroDiskId(pub u64);

/// The logical-over-physical mapping of a heterogeneous array.
#[derive(Debug, Clone, Default)]
pub struct HeteroMap {
    /// One entry per logical disk (dense, in SCADDAR's logical order):
    /// the physical disk backing it.
    backing: Vec<HeteroDiskId>,
    /// `(id, weight)` of live physical disks, insertion order.
    physicals: Vec<(HeteroDiskId, u32)>,
    next_id: u64,
}

impl HeteroMap {
    /// An empty array.
    pub fn new() -> Self {
        HeteroMap::default()
    }

    /// Live physical disks and their weights.
    pub fn physicals(&self) -> &[(HeteroDiskId, u32)] {
        &self.physicals
    }

    /// The physical disk backing a logical index.
    pub fn backing(&self, logical: DiskIndex) -> HeteroDiskId {
        self.backing[logical.0 as usize]
    }

    /// Attaches a physical disk of the given weight (number of logical
    /// disks it backs; proportional to its bandwidth/capacity). Returns
    /// its id and the scaling operation to feed SCADDAR.
    pub fn attach(&mut self, weight: u32) -> Result<(HeteroDiskId, ScalingOp), ScalingError> {
        if weight == 0 {
            return Err(ScalingError::EmptyAddition);
        }
        let id = HeteroDiskId(self.next_id);
        self.next_id += 1;
        for _ in 0..weight {
            self.backing.push(id);
        }
        self.physicals.push((id, weight));
        Ok((id, ScalingOp::Add { count: weight }))
    }

    /// Detaches a physical disk: returns the group-removal operation for
    /// its logical disks and updates the mapping (with the same rank
    /// renumbering SCADDAR applies).
    pub fn detach(&mut self, id: HeteroDiskId) -> Result<ScalingOp, ScalingError> {
        let logical_indices: Vec<u32> = self
            .backing
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == id).then_some(i as u32))
            .collect();
        if logical_indices.is_empty() {
            return Err(ScalingError::EmptyRemoval);
        }
        if logical_indices.len() == self.backing.len() {
            return Err(ScalingError::WouldRemoveAllDisks);
        }
        self.backing.retain(|&b| b != id);
        self.physicals.retain(|&(p, _)| p != id);
        Ok(ScalingOp::Remove {
            disks: logical_indices,
        })
    }

    /// Expected share of the total load on each physical disk
    /// (weight / total weight), in `physicals()` order — the target
    /// distribution a balanced heterogeneous placement should achieve.
    pub fn expected_shares(&self) -> Vec<f64> {
        let total: u32 = self.physicals.iter().map(|&(_, w)| w).sum();
        self.physicals
            .iter()
            .map(|&(_, w)| f64::from(w) / f64::from(total.max(1)))
            .collect()
    }

    /// Aggregates a logical-disk census into a physical-disk census
    /// (in `physicals()` order).
    pub fn aggregate_census(&self, logical_census: &[u64]) -> Vec<u64> {
        assert_eq!(
            logical_census.len(),
            self.backing.len(),
            "census size mismatch"
        );
        self.physicals
            .iter()
            .map(|&(id, _)| {
                self.backing
                    .iter()
                    .zip(logical_census)
                    .filter_map(|(&b, &c)| (b == id).then_some(c))
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_core::{Scaddar, ScaddarConfig};

    #[test]
    fn attach_detach_bookkeeping() {
        let mut h = HeteroMap::new();
        let (a, op_a) = h.attach(2).unwrap();
        let (b, op_b) = h.attach(4).unwrap();
        assert_eq!(op_a, ScalingOp::Add { count: 2 });
        assert_eq!(op_b, ScalingOp::Add { count: 4 });
        assert_eq!(h.backing.len() as u32, 6);
        assert_eq!(h.physicals.len(), 2);
        // Detach the first: its logical indices are 0 and 1.
        let op = h.detach(a).unwrap();
        assert_eq!(op, ScalingOp::Remove { disks: vec![0, 1] });
        assert_eq!(h.backing.len() as u32, 4);
        assert!(h.backing.iter().all(|&x| x == b));
    }

    #[test]
    fn shares_follow_weights() {
        let mut h = HeteroMap::new();
        h.attach(1).unwrap();
        h.attach(3).unwrap();
        let shares = h.expected_shares();
        assert!((shares[0] - 0.25).abs() < 1e-12);
        assert!((shares[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn detach_errors() {
        let mut h = HeteroMap::new();
        let (a, _) = h.attach(2).unwrap();
        assert_eq!(h.detach(HeteroDiskId(99)), Err(ScalingError::EmptyRemoval));
        assert_eq!(h.detach(a), Err(ScalingError::WouldRemoveAllDisks));
    }

    /// Detach renumbering agrees with SCADDAR's own `new()` rank map:
    /// applying the detach op's [`RemovedSet`] renumbering to every
    /// surviving pre-detach logical index reproduces the map's updated
    /// backing table, through interleaved attach/detach churn.
    #[test]
    fn detach_renumbering_matches_removed_set_ranks() {
        use scaddar_core::RemovedSet;
        let mut h = HeteroMap::new();
        let (_a, _) = h.attach(3).unwrap();
        let (b, _) = h.attach(2).unwrap();
        let (_c, _) = h.attach(4).unwrap();
        let before = h.backing.clone();
        let disks_before = h.backing.len() as u32;
        let op = h.detach(b).unwrap();
        let removed = match &op {
            ScalingOp::Remove { disks } => RemovedSet::new(disks, disks_before).unwrap(),
            _ => unreachable!("detach emits removals"),
        };
        for (old_idx, &backer) in before.iter().enumerate() {
            let old_idx = old_idx as u32;
            if removed.contains(old_idx) {
                assert_eq!(backer, b, "only b's logical disks are removed");
            } else {
                let new_idx = removed.renumber(old_idx);
                assert_eq!(
                    h.backing(DiskIndex(new_idx)),
                    backer,
                    "survivor {old_idx} -> {new_idx} changed backers"
                );
            }
        }
        assert_eq!(h.backing.len() as u32, disks_before - removed.len());
    }

    /// Weighting sanity under churn: shares always sum to 1, follow the
    /// declared weights, and the census aggregation conserves blocks.
    #[test]
    fn weighting_sanity_through_churn() {
        let mut h = HeteroMap::new();
        let (a, _) = h.attach(1).unwrap();
        h.attach(5).unwrap();
        h.attach(2).unwrap();
        let shares = h.expected_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[0] - 1.0 / 8.0).abs() < 1e-12);
        assert!((shares[1] - 5.0 / 8.0).abs() < 1e-12);
        h.detach(a).unwrap();
        let shares = h.expected_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[0] - 5.0 / 7.0).abs() < 1e-12);

        let logical_census: Vec<u64> = (0..h.backing.len() as u64).map(|i| 10 + i).collect();
        let phys = h.aggregate_census(&logical_census);
        assert_eq!(
            phys.iter().sum::<u64>(),
            logical_census.iter().sum::<u64>(),
            "aggregation conserves blocks"
        );
        assert_eq!(phys.len(), h.physicals.len());
    }

    /// End to end with SCADDAR: a 1:3 weighted pair receives load in a
    /// 1:3 ratio, and detaching a physical disk moves only its share.
    #[test]
    fn scaddar_over_heterogeneous_array_balances_by_weight() {
        let mut h = HeteroMap::new();
        let (_, op1) = h.attach(2).unwrap();
        // SCADDAR starts once the first group exists.
        let count1 = match op1 {
            ScalingOp::Add { count } => count,
            _ => unreachable!(),
        };
        let mut engine = Scaddar::new(ScaddarConfig::new(count1).with_catalog_seed(4)).unwrap();
        engine.add_object(60_000);
        let (fat, op2) = h.attach(6).unwrap();
        engine.scale(op2).unwrap();

        let logical_census = engine.load_distribution();
        let phys = h.aggregate_census(&logical_census);
        let shares = h.expected_shares();
        let total: u64 = phys.iter().sum();
        for (i, (&got, &want)) in phys.iter().zip(&shares).enumerate() {
            let frac = got as f64 / total as f64;
            assert!(
                (frac - want).abs() < 0.02,
                "physical {i}: share {frac} vs expected {want}"
            );
        }

        // Detaching the heavy disk moves ~its share and no more.
        let op = h.detach(fat).unwrap();
        let plan = engine.scale(op).unwrap();
        assert!((plan.moved_fraction() - 0.75).abs() < 0.02);
    }
}
