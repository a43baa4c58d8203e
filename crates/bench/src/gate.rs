//! The bench gate table: every ratio and ceiling CI enforces on the
//! criterion-shim JSON, one row each.
//!
//! A row names one criterion id (`group/bench`) or a ratio of two, a
//! comparator and a bound. The shim measures the two sides of a
//! [`Metric::Paired`] ratio in alternating windows and the row reads
//! the median per-pair ratio (`scaddard-load` writes one for its
//! overhead pass too); a [`Metric::Ratio`] divides two separately
//! measured ids. Overhead ratios put the instrumented side over the
//! bare side; speedups put the baseline over the candidate.
//! A row whose input is missing, non-finite or divides by zero fails:
//! nothing is skipped. `cargo run -p scaddar-bench --bin bench_gate`
//! checks the table against the JSON the benches wrote.

use std::collections::BTreeMap;

/// What a row measures.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// One criterion id's `ns_per_iter`.
    Value(&'static str),
    /// `numerator / denominator`, both criterion ids, each measured in
    /// its own window.
    Ratio(&'static str, &'static str),
    /// The median of per-pair `numerator / denominator` ratios, the two
    /// criterion ids measured in alternating windows by the shim's
    /// `bench_pair`, which writes the median under the row's id.
    Paired(&'static str, &'static str),
}

/// How a row's value must relate to its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `value <= bound`.
    AtMost,
    /// `value >= bound`.
    AtLeast,
    /// `value == bound`.
    Equals,
}

/// One gate.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The measured quantity.
    pub metric: Metric,
    /// The comparator against `bound`.
    pub cmp: Cmp,
    /// The single bound, on every runner.
    pub bound: f64,
    /// Why the bound sits where it does.
    pub reason: &'static str,
}

/// Every gate CI enforces. Latency values are nanoseconds.
pub const GATES: &[Gate] = &[
    Gate {
        metric: Metric::Paired(
            "obs_locate_overhead/instrumented",
            "obs_locate_overhead/bare",
        ),
        cmp: Cmp::AtMost,
        bound: 1.10,
        reason: "metric handles on the cached locate cost at most 10%",
    },
    Gate {
        metric: Metric::Paired(
            "obs_profile_overhead/instrumented",
            "obs_profile_overhead/bare",
        ),
        cmp: Cmp::AtMost,
        bound: 1.10,
        reason: "an armed cooperative profiler costs the locate path at most 10%",
    },
    Gate {
        metric: Metric::Paired(
            "monitor_locate_overhead/attached",
            "monitor_locate_overhead/detached",
        ),
        cmp: Cmp::AtMost,
        bound: 1.10,
        reason: "the polled health monitor amortizes to at most 10% of a locate",
    },
    Gate {
        metric: Metric::Paired(
            "net_locate_overhead/instrumented",
            "net_locate_overhead/bare",
        ),
        cmp: Cmp::AtMost,
        bound: 1.10,
        reason: "serving instrumentation costs a loopback locate at most 10%",
    },
    Gate {
        metric: Metric::Value("net_load/locate_p99"),
        cmp: Cmp::AtMost,
        bound: 50_000_000.0,
        reason: "closed-loop locate p99 under 50 ms catches lock stalls and lost wakeups, not runner noise",
    },
    Gate {
        metric: Metric::Value("net_load/pipelined_p999"),
        cmp: Cmp::AtMost,
        bound: 2_000_000.0,
        reason: "pipelined amortized locate p999 stays under 2 ms on a shared runner",
    },
    Gate {
        metric: Metric::Ratio(
            "net_load/throughput_rps",
            "net_load_threaded/throughput_rps",
        ),
        cmp: Cmp::AtLeast,
        bound: 0.5,
        reason: "the reactor keeps at least half the threaded core's pipelined throughput, even on one core",
    },
    Gate {
        metric: Metric::Value("net_load/protocol_errors"),
        cmp: Cmp::Equals,
        bound: 0.0,
        reason: "no malformed or unanswered frame on loopback",
    },
    Gate {
        metric: Metric::Value("net_load/consistency_violations"),
        cmp: Cmp::Equals,
        bound: 0.0,
        reason: "no reply from a torn epoch",
    },
    Gate {
        metric: Metric::Paired("rf_plan_1m_blocks/serial", "rf_plan_1m_blocks/cached"),
        cmp: Cmp::AtLeast,
        bound: 1.5,
        reason: "the X-cache planner scale() runs plans 1M blocks 1.5x faster than the record fold",
    },
    Gate {
        metric: Metric::Paired("compact_locate/post_flip", "compact_locate/fresh"),
        cmp: Cmp::AtMost,
        bound: 1.2,
        reason: "a compacted generation locates within 1.2x of a fresh chain-length-0 engine",
    },
];

impl Gate {
    /// The row's id: its criterion id, or `numerator / denominator`.
    pub fn id(&self) -> String {
        match self.metric {
            Metric::Value(id) => id.to_string(),
            Metric::Ratio(num, den) | Metric::Paired(num, den) => format!("{num} / {den}"),
        }
    }

    /// The row's value over `results` (criterion id → `ns_per_iter`),
    /// or why it has none.
    fn value(&self, results: &BTreeMap<String, f64>) -> Result<f64, String> {
        let get = |id: &str| {
            let v = *results.get(id).ok_or_else(|| format!("missing {id}"))?;
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("{id} is {v}"))
            }
        };
        match self.metric {
            Metric::Value(id) => get(id),
            Metric::Ratio(num, den) => {
                let (n, d) = (get(num)?, get(den)?);
                if d == 0.0 {
                    return Err(format!("{den} is zero"));
                }
                Ok(n / d)
            }
            Metric::Paired(..) => get(&self.id()),
        }
    }

    /// Checks the row against `results`: `Ok(value)` when it holds.
    pub fn check(&self, results: &BTreeMap<String, f64>) -> Result<f64, String> {
        let v = self.value(results)?;
        let holds = match self.cmp {
            Cmp::AtMost => v <= self.bound,
            Cmp::AtLeast => v >= self.bound,
            Cmp::Equals => v == self.bound,
        };
        if holds {
            Ok(v)
        } else {
            Err(format!(
                "{v:.4} is not {} {}",
                self.cmp.symbol(),
                self.bound
            ))
        }
    }
}

impl Cmp {
    /// The comparator as printed in verdict lines.
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::AtMost => "<=",
            Cmp::AtLeast => ">=",
            Cmp::Equals => "==",
        }
    }
}

/// Scans a criterion-shim JSON report for `(group/bench, ns_per_iter)`
/// pairs, and for `(pair, ratio_median)` from the shim's paired runs,
/// keyed by the [`Metric::Paired`] row's id. The shim writes one flat
/// object per result, with no nesting and no escapes in the ids this
/// workspace generates, so a field-by-field scan suffices.
pub fn parse_results(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in json.split('{').skip(1) {
        let obj = chunk.split('}').next().unwrap_or("");
        let (mut group, mut bench, mut ns) = (None, None, None);
        let (mut pair, mut median) = (None, None);
        for field in obj.split(',') {
            let Some((key, value)) = field.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match key.trim().trim_matches('"') {
                "group" => group = Some(value.trim_matches('"')),
                "bench" => bench = Some(value.trim_matches('"')),
                "ns_per_iter" => ns = value.parse::<f64>().ok(),
                "pair" => pair = Some(value.trim_matches('"')),
                "ratio_median" => median = value.parse::<f64>().ok(),
                _ => {}
            }
        }
        if let (Some(g), Some(b), Some(n)) = (group, bench, ns) {
            out.push((format!("{g}/{b}"), n));
        }
        if let (Some(p), Some(m)) = (pair, median) {
            out.push((p.to_string(), m));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shim_report() {
        let rows = parse_results(
            r#"{"bench": "remap", "results": [
              {"group": "x_fold", "bench": "records/8", "ns_per_iter": 120.5, "iterations": 1000},
              {"group": "x_fold", "bench": "pipeline/8", "ns_per_iter": 30.1, "iterations": 4000}
            ]}"#,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "x_fold/records/8");
        assert!((rows[0].1 - 120.5).abs() < 1e-9);
        assert_eq!(rows[1].0, "x_fold/pipeline/8");
    }

    #[test]
    fn parses_paired_median_under_the_row_id() {
        let rows = parse_results(
            r#"{"bench": "obs", "results": [
              {"group": "obs_locate_overhead", "bench": "instrumented", "ns_per_iter": 33.0, "iterations": 10},
              {"pair": "obs_locate_overhead/instrumented / obs_locate_overhead/bare", "ratio_median": 1.0312, "ratio_iqr": 0.0200, "pairs": 32}
            ]}"#,
        );
        let gate = GATES
            .iter()
            .find(|g| g.id().starts_with("obs_locate_overhead/"))
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].0, gate.id());
        let results: BTreeMap<String, f64> = rows.into_iter().collect();
        assert_eq!(gate.check(&results), Ok(1.0312));
    }

    /// Inputs that put the row's value at exactly `value`.
    fn inputs(gate: &Gate, value: f64) -> BTreeMap<String, f64> {
        match gate.metric {
            Metric::Value(id) => [(id.to_string(), value)].into(),
            Metric::Ratio(num, den) => [(num.to_string(), value), (den.to_string(), 1.0)].into(),
            Metric::Paired(..) => [(gate.id(), value)].into(),
        }
    }

    /// A value just inside the bound, and one just outside it.
    fn inside_and_outside(gate: &Gate) -> (f64, f64) {
        let step = gate.bound.abs().max(1.0) * 0.01;
        match gate.cmp {
            Cmp::AtMost => (gate.bound - step, gate.bound + step),
            Cmp::AtLeast => (gate.bound + step, gate.bound - step),
            Cmp::Equals => (gate.bound, gate.bound + step),
        }
    }

    #[test]
    fn every_row_passes_in_bound() {
        for gate in GATES {
            let (inside, _) = inside_and_outside(gate);
            let v = gate.check(&inputs(gate, inside));
            assert!(v.is_ok(), "{}: {v:?}", gate.id());
            // The bound itself is in bound for every comparator.
            assert!(
                gate.check(&inputs(gate, gate.bound)).is_ok(),
                "{}",
                gate.id()
            );
        }
    }

    #[test]
    fn every_row_fails_out_of_bound() {
        for gate in GATES {
            let (_, outside) = inside_and_outside(gate);
            assert!(gate.check(&inputs(gate, outside)).is_err(), "{}", gate.id());
        }
    }

    #[test]
    fn every_row_fails_on_missing_input() {
        for gate in GATES {
            let (inside, _) = inside_and_outside(gate);
            let full = inputs(gate, inside);
            assert!(gate.check(&BTreeMap::new()).is_err(), "{}", gate.id());
            for id in full.keys() {
                let mut partial = full.clone();
                partial.remove(id);
                let err = gate.check(&partial).expect_err(id);
                assert!(err.contains("missing"), "{}: {err}", gate.id());
            }
        }
    }

    #[test]
    fn every_row_fails_on_zero_or_nan_denominator() {
        for gate in GATES {
            let (inside, _) = inside_and_outside(gate);
            let bad_input = match gate.metric {
                Metric::Value(id) | Metric::Ratio(_, id) => id.to_string(),
                Metric::Paired(..) => gate.id(),
            };
            let mut nan = inputs(gate, inside);
            nan.insert(bad_input, f64::NAN);
            assert!(gate.check(&nan).is_err(), "{}: NaN passed", gate.id());
            if let Metric::Ratio(_, den) = gate.metric {
                let mut zero = inputs(gate, inside);
                zero.insert(den.to_string(), 0.0);
                assert!(gate.check(&zero).is_err(), "{}: zero passed", gate.id());
            }
        }
    }

    #[test]
    fn rows_have_reasons_and_unique_ids() {
        let mut ids = std::collections::BTreeSet::new();
        for gate in GATES {
            assert!(
                !gate.reason.trim().is_empty(),
                "{} has no reason",
                gate.id()
            );
            assert!(ids.insert(gate.id()), "duplicate row {}", gate.id());
        }
    }
}
