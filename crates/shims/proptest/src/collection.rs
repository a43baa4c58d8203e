//! Collection strategies: `vec` and `btree_set` with flexible size
//! specifications.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// An inclusive size band for generated collections; converts from the
/// same forms upstream proptest accepts in this workspace.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        Self {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        Self {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { min: n, max: n }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.min + rng.below((self.max - self.min + 1) as u64) as usize
    }
}

/// A strategy for `Vec<S::Value>` with sizes drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Clone,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        // Structural candidates first (shorter vectors are strictly
        // simpler), then element-wise shrinks at a bounded number of
        // positions so wide vectors don't explode the candidate list.
        let mut out = Vec::new();
        for (start, end) in crate::shrink::removal_spans(value.len(), self.size.min, 16) {
            let mut v = value.clone();
            v.drain(start..end);
            out.push(v);
        }
        let stride = (value.len() / 16).max(1);
        let mut i = 0;
        while i < value.len() {
            for cand in self.element.shrink(&value[i]).into_iter().take(2) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
            i += stride;
        }
        out
    }
}

/// A strategy for `BTreeSet<S::Value>` targeting a size within `size`
/// (best effort: duplicates are retried a bounded number of times, so a
/// narrow element domain may yield a smaller set).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// The result of [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord + Clone,
{
    type Value = BTreeSet<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.pick(rng);
        let mut set = BTreeSet::new();
        let mut attempts = 0usize;
        while set.len() < target && attempts < target.saturating_mul(64).max(64) {
            set.insert(self.element.generate(rng));
            attempts += 1;
        }
        set
    }

    fn shrink(&self, value: &BTreeSet<S::Value>) -> Vec<BTreeSet<S::Value>> {
        if value.len() <= self.size.min {
            return Vec::new();
        }
        value
            .iter()
            .map(|e| {
                let mut s = value.clone();
                s.remove(e);
                s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn vec_sizes_stay_in_band() {
        let mut rng = TestRng::new(3);
        let strat = vec(any::<u8>(), 2..6);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()), "len {}", v.len());
        }
    }

    #[test]
    fn vec_exact_size() {
        let mut rng = TestRng::new(3);
        assert_eq!(vec(any::<u64>(), 7usize).generate(&mut rng).len(), 7);
    }

    #[test]
    fn btree_set_respects_target_when_domain_allows() {
        let mut rng = TestRng::new(11);
        let strat = btree_set(0u32..1000, 4..=8);
        for _ in 0..100 {
            let s = strat.generate(&mut rng);
            assert!((4..=8).contains(&s.len()), "len {}", s.len());
        }
    }

    #[test]
    fn btree_set_narrow_domain_terminates() {
        let mut rng = TestRng::new(11);
        // Only 2 possible values but target up to 8: must not loop forever.
        let s = btree_set(0u32..2, 1..=8).generate(&mut rng);
        assert!(!s.is_empty() && s.len() <= 2);
    }

    #[test]
    fn vec_shrink_never_violates_min_size() {
        let mut rng = TestRng::new(19);
        let strat = vec(0u64..100, 3..10);
        for _ in 0..50 {
            let v = strat.generate(&mut rng);
            for cand in strat.shrink(&v) {
                assert!(cand.len() >= 3, "shrunk below min: {cand:?}");
                for &e in &cand {
                    assert!(e < 100, "element left the domain");
                }
            }
        }
    }

    #[test]
    fn vec_shrink_proposes_shorter_and_smaller() {
        let strat = vec(0u64..100, 0..10);
        let cands = strat.shrink(&vec![50u64, 60, 70, 80]);
        assert!(cands.iter().any(|c| c.len() < 4), "no structural shrink");
        assert!(
            cands
                .iter()
                .any(|c| c.len() == 4 && c.iter().sum::<u64>() < 260),
            "no element-wise shrink"
        );
        assert!(strat.shrink(&Vec::new()).is_empty());
    }

    #[test]
    fn btree_set_shrink_drops_single_elements() {
        let strat = btree_set(0u32..1000, 1..=8);
        let value: BTreeSet<u32> = [5, 9, 21].into_iter().collect();
        let cands = strat.shrink(&value);
        assert_eq!(cands.len(), 3);
        for c in &cands {
            assert_eq!(c.len(), 2);
            assert!(c.is_subset(&value));
        }
        let single: BTreeSet<u32> = [5].into_iter().collect();
        assert!(strat.shrink(&single).is_empty(), "min size respected");
    }
}
