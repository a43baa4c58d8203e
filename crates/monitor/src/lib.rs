//! # scaddar-monitor — the semantic health layer
//!
//! The `obs` crate records *generic* telemetry (counters, histograms,
//! spans); this crate watches the signals the SCADDAR paper actually
//! promises and turns them into typed, alertable health events:
//!
//! * **RO1 conformance** — every applied scaling operation's measured
//!   moved-block fraction is compared against the optimal `z_j`
//!   (Def. 3.4), with a binomial 6σ allowance; excess movement alerts.
//! * **RO2 conformance** — sliding-window per-disk load checks
//!   ([`CensusWindow`]: incremental chi-square + CoV over recent
//!   censuses, fed from the `cmsim_disk_load_blocks` gauges), plus an
//!   *exact* expected-vs-actual census comparison that catches a single
//!   silently misplaced block the statistics never could.
//! * **§4.3 unfairness budget** — a [`FairnessTracker`] replay exposing
//!   the remaining safe operations as a gauge and firing
//!   `rehash-advised` when `next_op_is_safe` would fail for the
//!   configured `eps`.
//!
//! Signals run through a small rule engine (threshold + hysteresis +
//! cooldown, see [`rules`]) under the fixed thresholds of [`SIGNALS`]
//! (DESIGN §10) and emit [`HealthEvent`]s into a
//! structured JSONL [`EventLog`] stamped by the injected
//! [`Clock`] — under a `VirtualClock`, harness runs produce
//! byte-identical event streams per seed.
//!
//! ```
//! use scaddar_core::{Scaddar, ScaddarConfig, ScalingOp};
//! use scaddar_monitor::{HealthMonitor, Severity};
//! use scaddar_obs::VirtualClock;
//! use std::sync::Arc;
//!
//! let mut engine = Scaddar::new(ScaddarConfig::new(4)).unwrap();
//! engine.add_object(10_000);
//! let clock = Arc::new(VirtualClock::new());
//! let mut monitor = HealthMonitor::for_engine(clock, &engine);
//!
//! engine.scale(ScalingOp::Add { count: 1 }).unwrap();
//! monitor.observe_engine(&engine);
//! monitor.observe_census(&engine.load_distribution());
//!
//! assert_eq!(monitor.report().verdict(), Severity::Ok);
//! assert_eq!(monitor.alerts_emitted(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod probes;
pub mod report;
pub mod rules;
pub mod slo;

pub use event::{HealthEvent, Severity};
pub use report::{HealthReport, ProbeStatus};
pub use rules::{Rule, RuleState, Signal};
pub use slo::{SloMonitor, CAPTURE_SPANS, SLO_SIGNALS};

use scaddar_analysis::CensusWindow;
use scaddar_core::{FairnessTracker, OpMovement, Scaddar};
use scaddar_obs::{Clock, Counter, EventLog, Gauge, Registry};
use std::sync::Arc;

/// Census snapshots retained by the RO2 sliding window.
pub const CENSUS_WINDOW: usize = 32;
/// Minimum blocks in the window-mean census before the statistical
/// RO2 checks run (chi-square on a near-empty server is noise).
pub const MIN_POPULATION: u64 = 200;
/// Remaining-ops count at which the budget probe warns.
pub const BUDGET_WARN_REMAINING: u32 = 2;
/// Simulation cap for the remaining-ops estimate.
pub const BUDGET_SIM_CAP: u32 = 64;

/// Minimum clock time between re-emissions of an unchanged alert.
const COOLDOWN_NS: u64 = 1_000_000;

/// The four health signals in report order, with the thresholds of
/// DESIGN §10's signal table: RO1 slack past 6σ alerts at 0.5% excess,
/// the chi-square crit floor matches the harness `CHI_SQUARE_P_FLOOR`
/// (`1e-9`), and any exact-census discrepancy is critical.
pub const SIGNALS: [Signal; 4] = [
    // The excess deviation (`probes::ro1_excess_deviation`, a raw
    // fraction).
    Signal {
        probe: "ro1",
        kind: "ro1-deviation",
        rule: Rule {
            warn: 0.005,
            crit: 0.02,
            hysteresis: 0.25,
            cooldown_ns: COOLDOWN_NS,
        },
    },
    // `-log10(p)` of the windowed chi-square (warn 6 ⇒ `p < 1e-6`,
    // crit 9 ⇒ `p < 1e-9`).
    Signal {
        probe: "ro2",
        kind: "ro2-chi-square",
        rule: Rule {
            warn: 6.0,
            crit: 9.0,
            hysteresis: 0.25,
            cooldown_ns: COOLDOWN_NS,
        },
    },
    // The census discrepancy in blocks
    // (`probes::census_discrepancy`): any discrepancy is critical.
    Signal {
        probe: "ro2",
        kind: "ro2-misplacement",
        rule: Rule {
            warn: 1.0,
            crit: 1.0,
            hysteresis: 0.0,
            cooldown_ns: COOLDOWN_NS,
        },
    },
    // `probes::budget_pressure`'s 0/1/2 scale.
    Signal {
        probe: "budget",
        kind: "rehash-advised",
        rule: Rule {
            warn: 1.0,
            crit: 2.0,
            hysteresis: 0.0,
            cooldown_ns: COOLDOWN_NS,
        },
    },
];

/// Per-signal bookkeeping: rule state plus the last evaluation, for
/// reports.
#[derive(Debug, Clone)]
struct Slot {
    signal: Signal,
    state: RuleState,
    last_value: Option<f64>,
    last_detail: String,
}

impl Slot {
    fn new(signal: Signal) -> Self {
        Slot {
            signal,
            state: RuleState::new(),
            last_value: None,
            last_detail: String::new(),
        }
    }

    fn status(&self) -> ProbeStatus {
        ProbeStatus {
            probe: self.signal.probe,
            kind: self.signal.kind,
            severity: self.state.severity(),
            value: self.last_value,
            detail: self.last_detail.clone(),
        }
    }
}

/// Registry mirror of the monitor's own state (optional; see
/// [`HealthMonitor::attach_registry`]).
#[derive(Debug)]
struct MonitorGauges {
    budget_remaining: Gauge,
    severity: Gauge,
    events: Counter,
    alerts: Counter,
}

/// The streaming health monitor: feeds observations through the probe
/// computations and the rule engine, accumulating [`HealthEvent`]s and
/// a JSONL [`EventLog`].
#[derive(Debug)]
pub struct HealthMonitor {
    clock: Arc<dyn Clock>,
    log: EventLog,
    events: Vec<HealthEvent>,
    alerts_emitted: usize,
    window: CensusWindow,
    tracker: FairnessTracker,
    epsilon: f64,
    disks: u32,
    /// RO1 cursor: how much of `movements_generation`'s trail the probe
    /// has consumed.
    movements_seen: usize,
    movements_generation: u64,
    /// One slot per [`SIGNALS`] entry, indexed by [`SlotId`].
    slots: [Slot; 4],
    gauges: Option<MonitorGauges>,
}

impl HealthMonitor {
    /// A monitor synced to a live engine: the budget tracker replays
    /// the engine's scaling log and `eps` comes from the engine's
    /// configuration. Operations already in [`Scaddar::op_movements`]
    /// count as seen (their RO1 conformance was the *harness*'s to
    /// check at apply time); subsequent [`HealthMonitor::observe_engine`]
    /// calls pick up new ones.
    pub fn for_engine(clock: Arc<dyn Clock>, engine: &Scaddar) -> Self {
        HealthMonitor {
            log: EventLog::new(clock.clone()),
            events: Vec::new(),
            alerts_emitted: 0,
            window: CensusWindow::new(CENSUS_WINDOW),
            tracker: FairnessTracker::from_log(engine.catalog().bits(), engine.log()),
            epsilon: engine.epsilon(),
            disks: engine.disks(),
            movements_seen: engine.op_movements().len(),
            movements_generation: engine.generation(),
            slots: SIGNALS.map(Slot::new),
            gauges: None,
            clock,
        }
    }

    /// Mirrors monitor state (`monitor_*` metrics) into `registry`:
    /// remaining budget ops, current worst severity (0/1/2), event and
    /// alert totals.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.gauges = Some(MonitorGauges {
            budget_remaining: registry.gauge(
                "monitor_budget_remaining_ops",
                "Scaling operations the §4.3 budget still admits at the current disk count",
            ),
            severity: registry.gauge(
                "monitor_health_severity",
                "Current worst probe severity (0=ok, 1=warn, 2=crit)",
            ),
            events: registry.counter("monitor_events_total", "Health events emitted"),
            alerts: registry.counter(
                "monitor_alerts_total",
                "Health alerts emitted (warn or crit)",
            ),
        });
    }

    /// Consumes everything new the engine can report: fresh
    /// [`OpMovement`]s run through the RO1 probe, and the budget probe
    /// re-evaluates against a fresh replay of the scaling log (so a
    /// rehash to the next generation resets the budget here too). The
    /// trail restarts with each generation, so the cursor does too: an
    /// op applied after a generation flip reaches the RO1 probe even
    /// when this monitor last saw a longer trail of the old generation.
    pub fn observe_engine(&mut self, engine: &Scaddar) {
        self.tracker = FairnessTracker::from_log(engine.catalog().bits(), engine.log());
        self.epsilon = engine.epsilon();
        self.disks = engine.disks();
        let movements = engine.op_movements();
        // A new generation starts a fresh trail; a snapshot restore
        // keeps the generation but empties the trail.
        if engine.generation() != self.movements_generation || movements.len() < self.movements_seen
        {
            self.movements_seen = 0;
            self.movements_generation = engine.generation();
        }
        let seen = self.movements_seen;
        for m in &movements[seen..] {
            self.observe_movement(m);
        }
        self.movements_seen = movements.len();
        self.evaluate_budget();
    }

    /// Feeds one per-disk load census (e.g. from cmsim's
    /// `CmServer::load_census` or
    /// [`Scaddar::load_distribution`]) into the RO2 sliding window and
    /// re-evaluates the statistical uniformity checks. Below two disks
    /// or [`MIN_POPULATION`] blocks the checks are
    /// skipped (a single bin is trivially uniform — see
    /// `chi_square_uniform`).
    pub fn observe_census(&mut self, census: &[u64]) {
        self.window.push(census);
        let mean = self.window.mean_census();
        if mean.len() < 2 || mean.iter().sum::<u64>() < MIN_POPULATION {
            return;
        }
        let Some(chi) = self.window.chi_square() else {
            return;
        };
        // -log10(p): 0 for p=1, 6 at the warn floor 1e-6, 9 at 1e-9.
        let value = -(chi.p_value.max(1e-300)).log10();
        let detail = format!(
            "window of {} censuses over {} disks: chi2={:.3} p={:.3e} cov={:.4}",
            self.window.len(),
            mean.len(),
            chi.statistic,
            chi.p_value,
            self.window.cov().unwrap_or(0.0),
        );
        self.evaluate(SlotId::Ro2Chi, value, detail);
    }

    /// RO2 exact conformance: compares the census the engine derives
    /// (expected placement) against the census the store reports.
    /// Both in logical disk order; any discrepancy is a misplacement.
    pub fn observe_conformance(&mut self, expected: &[u64], actual: &[u64]) {
        let discrepancy = probes::census_discrepancy(expected, actual);
        let detail = if discrepancy == 0 {
            format!("censuses agree across {} disks", expected.len())
        } else {
            format!("{discrepancy} block(s) misplaced: expected {expected:?}, observed {actual:?}")
        };
        self.evaluate(SlotId::Ro2Misplace, discrepancy as f64, detail);
    }

    /// Re-evaluates the §4.3 budget probe at the current disk count.
    pub fn evaluate_budget(&mut self) {
        let remaining = self.budget_remaining();
        let pressure = probes::budget_pressure(remaining, BUDGET_WARN_REMAINING);
        let report = self.tracker.report();
        let detail = if remaining == 0 {
            format!(
                "next op unsafe at N={} for eps={}: sigma={} after {} ops — full redistribution advised",
                self.disks, self.epsilon, report.sigma, report.operations,
            )
        } else {
            format!(
                "{remaining} op(s) remaining at N={} for eps={} (sigma={} after {} ops)",
                self.disks, self.epsilon, report.sigma, report.operations,
            )
        };
        if let Some(g) = &self.gauges {
            g.budget_remaining.set(i64::from(remaining));
        }
        self.evaluate(SlotId::Budget, pressure, detail);
    }

    /// Records the start of a rehash compaction as a
    /// `compaction-active` event (informational — severity Ok): the
    /// serving layer opened generation `to_generation` and queued
    /// `backlog` migration moves. Compaction is the *remedy* for the
    /// `rehash-advised` alert, so its lifecycle belongs in the same
    /// event stream the alert fired into.
    pub fn note_compaction_started(
        &mut self,
        from_generation: u64,
        to_generation: u64,
        backlog: u64,
    ) {
        self.note_compaction(
            "compaction-active",
            backlog as f64,
            format!(
                "rehash compaction started: generation {from_generation} -> {to_generation}, \
                 {backlog} block move(s) queued"
            ),
        );
    }

    /// Records a completed compaction flip as a `compaction-complete`
    /// event and discards generation-scoped probe state: the RO1/RO2
    /// slots and the census window all describe placements of the dead
    /// generation, so they reset to "never evaluated". The caller
    /// should follow up with [`HealthMonitor::observe_engine`] on the
    /// flipped engine — its fresh scaling log resets the §4.3 budget
    /// probe to Ok.
    pub fn note_compaction_completed(&mut self, generation: u64, total_blocks: u64) {
        self.note_compaction(
            "compaction-complete",
            total_blocks as f64,
            format!(
                "rehash compaction complete: serving generation {generation}, \
                 {total_blocks} block(s) at chain length 0"
            ),
        );
        self.window = CensusWindow::new(CENSUS_WINDOW);
        for id in [SlotId::Ro1, SlotId::Ro2Chi, SlotId::Ro2Misplace] {
            self.slots[id as usize] = Slot::new(SIGNALS[id as usize]);
        }
    }

    fn note_compaction(&mut self, kind: &'static str, value: f64, detail: String) {
        let event = HealthEvent {
            ts_ns: self.clock.now_ns(),
            probe: "compaction",
            kind,
            severity: Severity::Ok,
            value,
            threshold: 0.0,
            detail,
        };
        event.emit_into(&self.log);
        if let Some(g) = &self.gauges {
            g.events.inc();
        }
        self.events.push(event);
    }

    /// Every event emitted so far, oldest first.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Alert events (severity warn/crit) emitted so far.
    pub fn alerts_emitted(&self) -> usize {
        self.alerts_emitted
    }

    /// The whole event stream rendered as JSON Lines.
    pub fn events_jsonl(&self) -> String {
        self.log.render_jsonl()
    }

    /// Remaining §4.3-safe operations at the current disk count.
    pub fn budget_remaining(&self) -> u32 {
        probes::remaining_safe_ops(&self.tracker, self.disks, self.epsilon, BUDGET_SIM_CAP)
    }

    /// Point-in-time report across every probe.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            statuses: self.slots.iter().map(Slot::status).collect(),
            alerts_emitted: self.alerts_emitted,
        }
    }

    fn observe_movement(&mut self, movement: &OpMovement) {
        let value = probes::ro1_excess_deviation(movement);
        let detail = format!(
            "op {} ({} -> {} disks): moved {}/{} ({:.4}), optimal z_j={:.4}",
            movement.epoch,
            movement.disks_before,
            movement.disks_after,
            movement.moved,
            movement.total,
            movement.moved_fraction(),
            movement.optimal_fraction,
        );
        self.evaluate(SlotId::Ro1, value, detail);
    }

    fn evaluate(&mut self, id: SlotId, value: f64, detail: String) {
        let now = self.clock.now_ns();
        let slot = &mut self.slots[id as usize];
        slot.last_value = Some(value);
        slot.last_detail = detail.clone();
        let Signal { probe, kind, rule } = slot.signal;
        let decision = slot.state.update(&rule, value, now);
        if let Some(severity) = decision {
            let threshold = match severity {
                Severity::Crit => rule.crit,
                _ => rule.warn,
            };
            let event = HealthEvent {
                ts_ns: now,
                probe,
                kind,
                severity,
                value,
                threshold,
                detail,
            };
            event.emit_into(&self.log);
            if let Some(g) = &self.gauges {
                g.events.inc();
                if severity.is_alert() {
                    g.alerts.inc();
                }
            }
            if severity.is_alert() {
                self.alerts_emitted += 1;
            }
            self.events.push(event);
        }
        if let Some(g) = &self.gauges {
            let worst = self
                .report()
                .statuses
                .iter()
                .map(|s| s.severity)
                .max()
                .unwrap_or(Severity::Ok);
            g.severity.set(worst as i64);
        }
    }
}

/// A signal's index in [`SIGNALS`] and in the monitor's slots.
#[derive(Debug, Clone, Copy)]
enum SlotId {
    Ro1,
    Ro2Chi,
    Ro2Misplace,
    Budget,
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_core::{ScaddarConfig, ScalingOp};
    use scaddar_obs::VirtualClock;

    fn engine_with_blocks(disks: u32, blocks: u64) -> Scaddar {
        let mut e = Scaddar::new(ScaddarConfig::new(disks).with_catalog_seed(7)).unwrap();
        e.add_object(blocks);
        e
    }

    fn monitor_for(engine: &Scaddar) -> (HealthMonitor, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        let m = HealthMonitor::for_engine(clock.clone(), engine);
        (m, clock)
    }

    #[test]
    fn clean_scaling_history_raises_no_alerts() {
        let mut engine = engine_with_blocks(4, 20_000);
        let (mut monitor, clock) = monitor_for(&engine);
        for op in [
            ScalingOp::Add { count: 1 },
            ScalingOp::Add { count: 2 },
            ScalingOp::remove_one(0),
        ] {
            engine.scale(op).unwrap();
            clock.advance(1_000);
            monitor.observe_engine(&engine);
            monitor.observe_census(&engine.load_distribution());
            let d = engine.load_distribution();
            monitor.observe_conformance(&d, &d);
        }
        assert_eq!(monitor.alerts_emitted(), 0, "{}", monitor.events_jsonl());
        assert_eq!(monitor.report().verdict(), Severity::Ok);
    }

    #[test]
    fn excess_movement_raises_an_ro1_alert() {
        let (mut monitor, _clock) = monitor_for(&engine_with_blocks(4, 10_000));
        // A remap bug moving 2× optimal.
        monitor.observe_movement(&OpMovement {
            epoch: 1,
            disks_before: 4,
            disks_after: 5,
            moved: 4_000,
            total: 10_000,
            optimal_fraction: 0.2,
        });
        let alerts: Vec<_> = monitor
            .events()
            .iter()
            .filter(|e| e.severity.is_alert())
            .collect();
        assert!(
            alerts
                .iter()
                .any(|e| e.kind == "ro1-deviation" && e.severity == Severity::Crit),
            "events: {:?}",
            monitor.events(),
        );
    }

    #[test]
    fn skewed_census_stream_raises_an_ro2_alert() {
        let engine = engine_with_blocks(4, 10_000);
        let (mut monitor, clock) = monitor_for(&engine);
        for _ in 0..8 {
            clock.advance(10);
            monitor.observe_census(&[9_000, 300, 350, 350]);
        }
        assert!(
            monitor
                .events()
                .iter()
                .any(|e| e.kind == "ro2-chi-square" && e.severity == Severity::Crit),
            "events: {:?}",
            monitor.events(),
        );
    }

    #[test]
    fn single_misplaced_block_is_detected_exactly() {
        let (mut monitor, _clock) = monitor_for(&engine_with_blocks(4, 1_000));
        let expected = vec![250u64, 250, 250, 250];
        let mut actual = expected.clone();
        actual[0] -= 1;
        actual[3] += 1;
        monitor.observe_conformance(&expected, &actual);
        let e = monitor
            .events()
            .iter()
            .find(|e| e.kind == "ro2-misplacement")
            .expect("misplacement event");
        assert_eq!(e.severity, Severity::Crit);
        assert_eq!(e.value, 2.0);
        // And the recovery path: agreement downgrades to Ok.
        monitor.observe_conformance(&expected, &expected);
        assert_eq!(monitor.report().verdict(), Severity::Ok);
    }

    #[test]
    fn exhausted_budget_advises_a_rehash() {
        // b=32, hovering at 8 disks, eps=0.05 admits ~9 ops; burn the
        // budget via the engine so the monitor replays a real log.
        let mut engine = engine_with_blocks(8, 100);
        let (mut monitor, clock) = monitor_for(&engine);
        let mut saw_warn = false;
        for i in 0..40 {
            let (op, after) = if i % 2 == 0 {
                (ScalingOp::remove_one(0), 7)
            } else {
                (ScalingOp::Add { count: 1 }, 8)
            };
            if !engine.next_op_is_safe(after) {
                break;
            }
            engine.scale(op).unwrap();
            clock.advance(100);
            monitor.observe_engine(&engine);
            saw_warn |= monitor
                .events()
                .iter()
                .any(|e| e.kind == "rehash-advised" && e.severity == Severity::Warn);
        }
        assert!(saw_warn, "warning should precede exhaustion");
        // Exhaust fully (as an unguarded operator would).
        while monitor.budget_remaining() > 0 {
            engine.scale(ScalingOp::Add { count: 1 }).unwrap();
            engine.scale(ScalingOp::remove_one(0)).unwrap();
            clock.advance(100);
            monitor.observe_engine(&engine);
        }
        assert!(
            monitor
                .events()
                .iter()
                .any(|e| e.kind == "rehash-advised" && e.severity == Severity::Crit),
            "events: {}",
            monitor.events_jsonl(),
        );
        // A rehash to the next generation resets the budget (fresh log).
        engine.rehash_to_next_generation();
        monitor.observe_engine(&engine);
        assert!(monitor.budget_remaining() > 0);
        assert_eq!(monitor.report().verdict(), Severity::Ok);
    }

    #[test]
    fn ro1_sees_the_first_op_after_a_generation_flip() {
        let mut engine = engine_with_blocks(4, 10_000);
        let (mut monitor, _clock) = monitor_for(&engine);
        let ro1_detail = |m: &HealthMonitor| m.report().statuses[0].detail.clone();
        engine.scale(ScalingOp::Add { count: 1 }).unwrap();
        monitor.observe_engine(&engine);
        assert!(ro1_detail(&monitor).contains("(4 -> 5 disks)"));
        // The flip restarts the trail; the next op is again the trail's
        // first entry, as long as the trail the monitor last saw.
        engine.rehash_to_next_generation();
        engine.scale(ScalingOp::Add { count: 1 }).unwrap();
        monitor.observe_engine(&engine);
        let detail = ro1_detail(&monitor);
        assert!(
            detail.contains("(5 -> 6 disks)"),
            "RO1 skipped the op: {detail}"
        );
    }

    #[test]
    fn compaction_lifecycle_lands_in_the_event_stream() {
        let engine = engine_with_blocks(4, 1_000);
        let (mut monitor, clock) = monitor_for(&engine);
        monitor.note_compaction_started(0, 1, 750);
        clock.advance(5_000);
        monitor.note_compaction_completed(1, 1_000);
        let kinds: Vec<&str> = monitor.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["compaction-active", "compaction-complete"]);
        // Lifecycle events are informational, never alerts.
        assert_eq!(monitor.alerts_emitted(), 0);
        assert_eq!(monitor.report().verdict(), Severity::Ok);
        let jsonl = monitor.events_jsonl();
        assert!(jsonl.contains("generation 0 -> 1"), "{jsonl}");
        assert!(jsonl.contains("750 block move(s) queued"), "{jsonl}");
        assert!(jsonl.contains("serving generation 1"), "{jsonl}");
    }

    #[test]
    fn registry_mirror_tracks_events_and_budget() {
        let engine = engine_with_blocks(4, 1_000);
        let (mut monitor, _clock) = monitor_for(&engine);
        let registry = Registry::new();
        monitor.attach_registry(&registry);
        monitor.evaluate_budget();
        let expected = vec![250u64, 250, 250, 250];
        let mut actual = expected.clone();
        actual[0] -= 1;
        actual[1] += 1;
        monitor.observe_conformance(&expected, &actual);
        use scaddar_obs::MetricValue;
        assert!(matches!(
            registry.value("monitor_budget_remaining_ops"),
            Some(MetricValue::Gauge(g)) if g > 0
        ));
        assert_eq!(
            registry.value("monitor_alerts_total"),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(
            registry.value("monitor_health_severity"),
            Some(MetricValue::Gauge(2))
        );
    }

    #[test]
    fn event_streams_are_deterministic_per_seed() {
        let run = || {
            let mut engine = engine_with_blocks(4, 5_000);
            let (mut monitor, clock) = monitor_for(&engine);
            for op in [ScalingOp::Add { count: 2 }, ScalingOp::remove_one(1)] {
                engine.scale(op).unwrap();
                clock.advance(777);
                monitor.observe_engine(&engine);
                monitor.observe_census(&engine.load_distribution());
            }
            // Force at least one event so the comparison is non-trivial.
            monitor.observe_conformance(&[1, 2], &[2, 1]);
            monitor.events_jsonl()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty());
    }

    #[test]
    fn cooldown_suppresses_repeat_alerts_until_clock_advances() {
        let engine = engine_with_blocks(4, 1_000);
        let (mut monitor, clock) = monitor_for(&engine);
        let expected = vec![500u64, 500];
        let actual = vec![499u64, 501];
        monitor.observe_conformance(&expected, &actual);
        monitor.observe_conformance(&expected, &actual);
        monitor.observe_conformance(&expected, &actual);
        assert_eq!(monitor.alerts_emitted(), 1, "cooldown holds repeats");
        clock.advance(SIGNALS[SlotId::Ro2Misplace as usize].rule.cooldown_ns);
        monitor.observe_conformance(&expected, &actual);
        assert_eq!(monitor.alerts_emitted(), 2, "heartbeat after cooldown");
    }
}
