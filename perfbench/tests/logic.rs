//! The benchmark's own logic: input generation, percentiles, metric
//! names and the answer oracle. Run with
//! `cargo test --manifest-path perfbench/Cargo.toml`.

use scaddar_core::ScalingOp;
use scaddar_perfbench::metrics::{
    per_layer_metrics, result_line, valid_name, valid_unit, Metric, END_TO_END,
};
use scaddar_perfbench::oracle::{Placement, Timeline, View};
use scaddar_perfbench::scenario::{mean_of, server_config, slice_medians, SLICE};
use scaddar_perfbench::stats::{median, percentile, tail_quantile, Summary};
use scaddar_perfbench::workload::{
    input_digest, script, workload, Request, Session, Step, Workload, INITIAL_DISKS, WORKLOADS,
};
use std::collections::HashSet;
use std::sync::atomic::Ordering;

/// A catalog small enough for exhaustive checks.
fn tiny() -> Workload {
    Workload {
        name: "tiny",
        objects: 3,
        blocks_per_object: 256,
        ..workload("reorganize").expect("known workload")
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in WORKLOADS {
        assert_eq!(input_digest(&w, 7), input_digest(&w, 7), "{}", w.name);
        assert_ne!(input_digest(&w, 7), input_digest(&w, 8), "{}", w.name);
        let requests = |seed| {
            let mut s = Session::new(seed, 0, &w);
            (0..1000).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(requests(7), requests(7));
        assert_ne!(requests(7), requests(8));
        assert_eq!(
            script(7, 0, INITIAL_DISKS, !w.reorganize),
            script(7, 0, INITIAL_DISKS, !w.reorganize)
        );
    }
}

#[test]
fn sessions_mix_windows_and_seeks_inside_the_catalog() {
    let w = tiny();
    let mut s = Session::new(3, 0, &w);
    let mut seeks = 0;
    for _ in 0..8000 {
        let r = s.next_request();
        assert!(r.object() < w.objects);
        assert!(r.blocks().end <= w.blocks_per_object, "{r:?}");
        if matches!(r, Request::Seek { .. }) {
            seeks += 1;
        }
    }
    // One in eight, give or take.
    assert!((800..1200).contains(&seeks), "{seeks} seeks");
}

#[test]
fn scripts_add_and_remove_two_disks_and_compact_once() {
    for seed in 0..50 {
        for compact_first in [false, true] {
            let steps = script(seed, seed % 3, INITIAL_DISKS, compact_first);
            assert_eq!(steps.len(), 5);
            let compact_at = if compact_first { 0 } else { 4 };
            assert_eq!(steps[compact_at], Step::Compact);
            let mut n = INITIAL_DISKS;
            for step in &steps {
                if let Step::Scale(op) = step {
                    n = op.disks_after(n).expect("valid op");
                    assert!(n >= INITIAL_DISKS, "seed {seed}: {steps:?}");
                }
            }
            assert_eq!(n, INITIAL_DISKS, "two adds, two removes");
        }
    }
}

#[test]
fn percentiles_use_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 50.0);
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&v, 0.001), 1.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn slice_medians_follow_the_share_of_slow_periods() {
    // Two host speed levels: the median of all samples jumps from one to
    // the other as the slow share crosses a half; the mean of the slice
    // medians moves in proportion.
    let run = |slow_slices: usize| {
        let mut v = Vec::new();
        for i in 0..10 {
            let level = if i < slow_slices { 12.0 } else { 8.0 };
            v.extend((0..SLICE).map(|k| level + (k % 3) as f64 * 0.01));
        }
        v
    };
    let lookup = |v: &[f64]| mean_of("x", &slice_medians(v).collect::<Vec<_>>()).unwrap();
    assert!((lookup(&run(4)) - 9.61).abs() < 0.01);
    assert!((lookup(&run(6)) - 10.41).abs() < 0.01);
    assert!(median(&run(4)) < 8.1 && median(&run(6)) > 11.9);
    // A short session still yields one slice; no samples yield none.
    assert_eq!(slice_medians(&[5.0, 1.0, 3.0]).collect::<Vec<_>>(), [3.0]);
    assert_eq!(slice_medians(&[]).count(), 0);
    assert!(mean_of("x", &[]).is_err());
}

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_quantile(10_000), Some(0.999));
    assert_eq!(tail_quantile(9_999), Some(0.99));
    assert_eq!(tail_quantile(1_000), Some(0.99));
    assert_eq!(tail_quantile(999), Some(0.95));
    assert_eq!(tail_quantile(100), Some(0.9));
    assert_eq!(tail_quantile(40), Some(0.75));
    assert_eq!(tail_quantile(39), None);
    let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>()).expect("samples");
    assert_eq!(s.n, 1000);
    assert_eq!(s.p50, 500.5);
    assert_eq!(s.tail, Some((0.99, 990.0)));
    assert!(Summary::of(&[]).is_none());
}

#[test]
fn metric_names_and_units_are_valid_and_unique() {
    let mut seen = HashSet::new();
    for m in END_TO_END {
        assert!(valid_name(m.name) && valid_unit(m.unit), "{m:?}");
        assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
    }
    for (name, unit, _) in per_layer_metrics() {
        assert!(valid_name(&name) && valid_unit(unit), "{name} {unit}");
        assert!(seen.insert(name.clone()), "duplicate {name}");
    }
    for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    assert!(valid_name("net.reactor.decode_ns.p50") && valid_name("9-a_b.c"));
    assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("m s"));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names: Vec<String> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote").to_string())
        .collect();
    let mut expected: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    expected.extend(END_TO_END.iter().map(|m| m.name.to_string()));
    expected.extend(per_layer_metrics().into_iter().map(|(n, _, _)| n));
    assert_eq!(names, expected);
    let entry = |name: &str, unit: &str, better: &str| {
        format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
    };
    for m in END_TO_END {
        assert!(
            json.contains(&entry(m.name, m.unit, m.better.label())),
            "{m:?}"
        );
    }
    for (name, unit, better) in per_layer_metrics() {
        assert!(json.contains(&entry(&name, unit, better.label())), "{name}");
    }
}

#[test]
fn result_line_has_the_four_keys_and_refuses_non_finite_values() {
    let m = |value| Metric {
        name: "lookup_p50_us".into(),
        unit: "us",
        value,
    };
    let line = result_line(true, 10, 0, &[m(1.25)]).expect("finite");
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
         {\"lookup_p50_us\": {\"value\": 1.25, \"unit\": \"us\"}}}"
    );
    assert!(result_line(true, 1, 0, &[m(f64::NAN)]).is_err());
    assert!(result_line(true, 1, 0, &[m(f64::INFINITY)]).is_err());
}

#[test]
fn the_oracle_accepts_right_answers_and_catches_wrong_ones() {
    let w = tiny();
    let config = server_config(&w, 11);
    let p = Placement::initial(&w, &config);
    let disk = |b: u64| u64::from(p.engine.locate(scaddar_core::ObjectId(1), b).unwrap().0);
    let epoch = p.engine.epoch() as u64;
    assert!(p.check_one(1, 5, epoch, INITIAL_DISKS, disk(5)));
    assert!(!p.check_one(1, 5, epoch, INITIAL_DISKS, (disk(5) + 1) % 8));
    assert!(
        !p.check_one(1, 5, epoch + 1, INITIAL_DISKS, disk(5)),
        "wrong epoch"
    );
    assert!(
        !p.check_one(1, 5, epoch, INITIAL_DISKS + 1, disk(5)),
        "wrong disk count"
    );
    assert!(
        !p.check_one(9, 5, epoch, INITIAL_DISKS, disk(5)),
        "unknown object"
    );
    let physical: Vec<u64> = (0..16)
        .map(|b| p.disks.physical(scaddar_core::DiskIndex(disk(b) as u32)).0)
        .collect();
    assert!(p.check_batch(1, 0..16, epoch, INITIAL_DISKS, &physical));
    let mut wrong = physical.clone();
    wrong[7] = (wrong[7] + 1) % 8;
    assert!(!p.check_batch(1, 0..16, epoch, INITIAL_DISKS, &wrong));
    assert!(!p.check_batch(1, 0..16, epoch, INITIAL_DISKS, &physical[..15]));
}

#[test]
fn the_timeline_follows_scaling_and_compaction() {
    let w = tiny();
    let start = Placement::initial(&w, &server_config(&w, 4));
    let steps = vec![Step::Scale(ScalingOp::Add { count: 1 }), Step::Compact];
    let t = Timeline::build(start, &steps);
    assert_eq!(t.states.len(), 4, "start, scaled, compacting, flipped");
    assert_eq!(t.steps[0].first, 1);
    assert_eq!((t.steps[1].first, t.steps[1].last), (2, 3));
    assert!(t.steps[0].moves > 0 && t.steps[1].moves > 0);
    let (old, new) = (&t.states[1], &t.states[3]);
    assert_eq!(new.engine.generation(), old.engine.generation() + 1);
    assert_eq!(new.engine.epoch(), 0, "compaction empties the chain");
    // Mid-compaction a block may answer from either generation, with the
    // old generation's epoch; after the flip only the new one is right.
    let compacting = &t.states[2];
    let id = scaddar_core::ObjectId(0);
    let block = (0..w.blocks_per_object)
        .find(|&b| old.engine.locate(id, b).unwrap() != new.engine.locate(id, b).unwrap())
        .expect("a block that moves");
    let old_disk = u64::from(old.engine.locate(id, block).unwrap().0);
    let new_disk = u64::from(new.engine.locate(id, block).unwrap().0);
    let disks = old.disks.disks();
    assert!(compacting.check_one(0, block, 1, disks, old_disk));
    assert!(compacting.check_one(0, block, 1, disks, new_disk));
    assert!(new.check_one(0, block, 0, disks, new_disk));
    assert!(!new.check_one(0, block, 0, disks, old_disk));
    // A view only admits placements between its bounds.
    let view = View::at(&t.states, 0);
    assert_eq!(view.candidates(0).len(), 1);
    view.upper.store(3, Ordering::SeqCst);
    assert_eq!(view.candidates(view.low()).len(), 4);
    view.lower.store(3, Ordering::SeqCst);
    assert_eq!(view.candidates(view.low()).len(), 1);
}

#[test]
fn batches_after_a_restore_may_use_either_physical_mapping() {
    let w = tiny();
    let start = Placement::initial(&w, &server_config(&w, 5));
    let steps = script(5, 0, INITIAL_DISKS, false);
    let before = Timeline::build(start, &steps).states.pop().expect("states");
    let restored = before.restored();
    let kept = restored.kept.as_ref().expect("the pre-restore mapping");
    let (object, blocks) = (1, 0..64);
    let engine = &restored.engine;
    let under = |m: &cmsim::DiskArray| -> Vec<u64> {
        blocks
            .clone()
            .map(|b| {
                m.physical(engine.locate(scaddar_core::ObjectId(object), b).unwrap())
                    .0
            })
            .collect()
    };
    let (renumbered, history) = (under(&restored.disks), under(kept));
    assert_ne!(renumbered, history, "the script compacts, so ids renumber");
    let (epoch, disks) = (engine.epoch() as u64, restored.disks.disks());
    assert!(restored.check_batch(object, blocks.clone(), epoch, disks, &renumbered));
    assert!(restored.check_batch(object, blocks.clone(), epoch, disks, &history));
    // One answer must use one mapping throughout.
    let i = (0..64).find(|&i| renumbered[i] != history[i]).unwrap();
    let mut mixed = renumbered.clone();
    mixed[i] = history[i];
    assert!(!restored.check_batch(object, blocks.clone(), epoch, disks, &mixed));
    // Later scaling carries both mappings forward.
    let next = Timeline::build(restored, &[Step::Scale(ScalingOp::Add { count: 1 })]);
    let after = &next.states[1];
    assert_eq!(after.kept.as_ref().unwrap().disks(), after.disks.disks());
}

#[test]
fn only_the_reorganize_workload_reorganizes() {
    for w in WORKLOADS {
        assert_eq!(w.reorganize, w.name == "reorganize");
        let steps = script(1, 0, INITIAL_DISKS, !w.reorganize);
        assert_eq!(steps[0] == Step::Compact, !w.reorganize, "{}", w.name);
        assert_eq!(w.redistribution_bandwidth() == 4, w.reorganize);
    }
}

#[test]
fn restored_placement_keeps_logical_disks() {
    let w = tiny();
    let start = Placement::initial(&w, &server_config(&w, 5));
    let steps = script(5, 0, INITIAL_DISKS, false);
    let t = Timeline::build(start, &steps);
    let last = t.states.last().expect("states");
    let restored = last.restored();
    assert_eq!(restored.disks.disks(), last.disks.disks());
    let id = scaddar_core::ObjectId(2);
    for b in 0..w.blocks_per_object {
        assert_eq!(restored.engine.locate(id, b), last.engine.locate(id, b));
    }
}
