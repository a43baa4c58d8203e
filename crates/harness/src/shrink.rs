//! Greedy scenario minimization: given a failing scenario, find a
//! smaller one that fails the *same* invariant.
//!
//! Delta-debugging over the scenario structure, written once for every
//! [`Mode`]: everything after the failing step is dropped, then each
//! one-edit-smaller candidate is re-executed; the first one that still
//! fails with the same invariant is adopted and the pass restarts,
//! until a fixpoint or the mode's execution budget is reached.
//! Candidates drop spans of steps first, then apply the mode's own
//! edits (the single-node ones below: drop faults, simplify scaling
//! operations, shrink sizes). All of them come from the `proptest`
//! shim's numeric/sequence generators ([`proptest::shrink`]), so the
//! harness and the property tests share one shrinking vocabulary.

use crate::scenario::{Scenario, Step};
use crate::Mode;
use proptest::shrink::{halvings, removal_spans};

/// The result of minimizing a failing scenario.
#[derive(Debug, Clone)]
pub struct Shrunk<M: Mode> {
    /// The minimal scenario found (fails the same invariant).
    pub scenario: M::Scenario,
    /// Its outcome (kept so callers can print the failing trace).
    pub outcome: M::Outcome,
    /// Number of candidate executions spent.
    pub executions: usize,
    /// Number of adopted shrink steps.
    pub adopted: usize,
}

/// Minimizes `scenario`, which must fail under `mutation` with the
/// invariant named `invariant`.
pub fn minimize<M: Mode>(scenario: &M::Scenario, mutation: M, invariant: &str) -> Shrunk<M> {
    let fails_the_same =
        |outcome: &M::Outcome| M::failure(outcome).is_some_and(|f| f.invariant == invariant);
    let mut current = scenario.clone();
    let mut outcome = M::execute(&current, mutation);
    let mut executions = 1usize;
    let mut adopted = 0usize;
    debug_assert!(
        fails_the_same(&outcome),
        "caller must pass a failing scenario"
    );

    // Everything after the failing step is dead weight.
    if let Some(fs) = M::failed_step(&outcome) {
        let steps = M::steps(&mut current);
        if fs + 1 < steps.len() {
            steps.truncate(fs + 1);
            outcome = M::execute(&current, mutation);
            executions += 1;
            adopted += 1;
        }
    }

    'pass: loop {
        // Drop spans of steps (halves first, then single steps), then
        // try the mode's own edits.
        let spans = removal_spans(M::steps(&mut current).len(), 0, 16);
        let mut candidates: Vec<M::Scenario> = spans
            .into_iter()
            .map(|(start, end)| {
                let mut c = current.clone();
                M::steps(&mut c).drain(start..end);
                c
            })
            .collect();
        candidates.extend(M::candidates(&current));
        for candidate in candidates {
            if executions >= M::SHRINK_BUDGET {
                break 'pass;
            }
            let o = M::execute(&candidate, mutation);
            executions += 1;
            if fails_the_same(&o) {
                current = candidate;
                outcome = o;
                adopted += 1;
                continue 'pass; // restart the pass from the smaller scenario
            }
        }
        break;
    }
    Shrunk {
        scenario: current,
        outcome,
        executions,
        adopted,
    }
}

/// The single-node edits, most aggressive first.
pub(crate) fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();

    // 1. Simplify individual steps.
    for (i, step) in s.steps.iter().enumerate() {
        match step {
            Step::Scale { op, faults } => {
                if !faults.is_empty() {
                    let mut c = s.clone();
                    c.steps[i] = Step::Scale {
                        op: op.clone(),
                        faults: Vec::new(),
                    };
                    out.push(c);
                    for k in 0..faults.len() {
                        let mut kept = faults.clone();
                        kept.remove(k);
                        let mut c = s.clone();
                        c.steps[i] = Step::Scale {
                            op: op.clone(),
                            faults: kept,
                        };
                        out.push(c);
                    }
                }
                for simpler in op.shrink_candidates() {
                    let mut c = s.clone();
                    c.steps[i] = Step::Scale {
                        op: simpler,
                        faults: faults.clone(),
                    };
                    out.push(c);
                }
            }
            Step::AddObject { blocks } => {
                for b in halvings(1, *blocks) {
                    let mut c = s.clone();
                    c.steps[i] = Step::AddObject { blocks: b };
                    out.push(c);
                }
            }
            Step::RemoveObject { pick } => {
                for p in halvings(0, *pick) {
                    let mut c = s.clone();
                    c.steps[i] = Step::RemoveObject { pick: p };
                    out.push(c);
                }
            }
            Step::Workload { rounds } => {
                for r in halvings(0, u64::from(*rounds)) {
                    let mut c = s.clone();
                    c.steps[i] = Step::Workload { rounds: r as u32 };
                    out.push(c);
                }
            }
            Step::Compact { kill } => {
                if kill.is_some() {
                    let mut c = s.clone();
                    c.steps[i] = Step::Compact { kill: None };
                    out.push(c);
                }
            }
        }
    }

    // 2. Drop initial objects (keep one) and shrink their sizes.
    if s.objects.len() > 1 {
        for k in 0..s.objects.len() {
            let mut c = s.clone();
            c.objects.remove(k);
            out.push(c);
        }
    }
    for (k, &size) in s.objects.iter().enumerate() {
        for smaller in halvings(1, size) {
            let mut c = s.clone();
            c.objects[k] = smaller;
            out.push(c);
        }
    }

    // 3. Shrink the initial array (never below the executor's floor).
    for d in halvings(2, u64::from(s.initial_disks)) {
        let mut c = s.clone();
        c.initial_disks = d as u32;
        out.push(c);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::scenario::Mutation;

    /// The acceptance criterion: a planted RO1 off-by-one is caught and
    /// shrunk to at most 3 scaling operations, well inside the budget.
    #[test]
    fn planted_ro1_bug_shrinks_to_three_ops_or_fewer() {
        let mut caught = 0;
        for seed in 0..64u64 {
            let scenario = Scenario::generate(seed);
            let outcome = exec::execute(&scenario, Mutation::Ro1AddOffByOne);
            let Some(failure) = &outcome.failure else {
                continue; // this seed's history never hit the boundary draw
            };
            assert_eq!(failure.invariant, "ro1-model", "seed {seed}");
            let shrunk = minimize(&scenario, Mutation::Ro1AddOffByOne, failure.invariant);
            assert!(
                shrunk.scenario.scale_ops() <= 3,
                "seed {seed}: shrunk to {} scale ops\n{}",
                shrunk.scenario.scale_ops(),
                shrunk.scenario.describe()
            );
            assert!(!shrunk.outcome.passed());
            caught += 1;
            if caught >= 3 {
                return; // three independent catches is plenty for CI time
            }
        }
        assert!(caught > 0, "no seed in 0..64 tripped the planted bug");
    }

    /// Delta-debugging composes with compaction: a failing scenario that
    /// also contains compact steps still minimizes (irrelevant compact
    /// steps drop out or lose their kill), and the reproducer still
    /// fails the same invariant.
    #[test]
    fn scenarios_with_compact_steps_still_shrink() {
        for seed in 0..200u64 {
            let scenario = Scenario::generate(seed);
            if !scenario
                .steps
                .iter()
                .any(|st| matches!(st, Step::Compact { .. }))
            {
                continue;
            }
            let outcome = exec::execute(&scenario, Mutation::Ro1AddOffByOne);
            let Some(failure) = &outcome.failure else {
                continue;
            };
            if failure.invariant != "ro1-model" {
                continue;
            }
            let shrunk = minimize(&scenario, Mutation::Ro1AddOffByOne, "ro1-model");
            assert!(!shrunk.outcome.passed());
            assert!(
                shrunk.scenario.scale_ops() <= 3,
                "seed {seed}: shrunk to {} scale ops\n{}",
                shrunk.scenario.scale_ops(),
                shrunk.scenario.describe()
            );
            return;
        }
        panic!("no failing seed with a compact step in 0..200");
    }

    /// Shrinking is deterministic: same input, same minimal scenario.
    #[test]
    fn minimization_is_deterministic() {
        for seed in 0..32u64 {
            let scenario = Scenario::generate(seed);
            let outcome = exec::execute(&scenario, Mutation::Ro1AddOffByOne);
            let Some(failure) = &outcome.failure else {
                continue;
            };
            let a = minimize(&scenario, Mutation::Ro1AddOffByOne, failure.invariant);
            let b = minimize(&scenario, Mutation::Ro1AddOffByOne, failure.invariant);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.executions, b.executions);
            return;
        }
        panic!("no failing seed found in 0..32");
    }
}
