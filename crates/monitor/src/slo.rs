//! The SLO bridge: burn rates → hysteresis rules → health events.
//!
//! `scaddar_obs::slo` computes multi-window burn rates but knows
//! nothing about alerting (obs sits below this crate). This module
//! closes the loop: each objective's **gating** burn (`min(short,
//! long)` — high only when the budget spend is both sustained and
//! still happening) runs through the same [`Rule`]/[`RuleState`]
//! machinery as the RO1/RO2 probes, emitting [`HealthEvent`]s into the
//! shared JSONL [`EventLog`]. On any transition *into* `Crit` the span
//! flight recorder is captured into the same log, so the post-mortem
//! timeline ships with the alert that demanded it.

use crate::event::{HealthEvent, Severity};
use crate::rules::{Rule, RuleState, Signal};
use scaddar_obs::slo::SloTracker;
use scaddar_obs::{EventLog, Gauge, Registry, Tracer};

/// Alert threshold over a gating burn rate. A burn of 1.0 spends the
/// budget exactly; the rule alerts at 2× (warn) and 10× (crit) with a
/// 10% hysteresis and the monitor's usual cooldown.
const BURN_RULE: Rule = Rule {
    warn: 2.0,
    crit: 10.0,
    hysteresis: 0.1,
    cooldown_ns: crate::COOLDOWN_NS,
};

/// The two SLO signals, each over its objective's gating burn:
/// availability first, then latency (DESIGN §13).
pub const SLO_SIGNALS: [Signal; 2] = [
    Signal {
        probe: "slo",
        kind: "availability-burn",
        rule: BURN_RULE,
    },
    Signal {
        probe: "slo",
        kind: "latency-p999-burn",
        rule: BURN_RULE,
    },
];

/// Spans captured from the flight recorder on a CRIT transition.
pub const CAPTURE_SPANS: usize = 32;

/// Evaluates one [`SloTracker`] against [`SLO_SIGNALS`], emitting
/// health events and mirroring state into registry gauges.
#[derive(Debug)]
pub struct SloMonitor {
    tracker: SloTracker,
    log: EventLog,
    /// One state per [`SLO_SIGNALS`] entry.
    states: [RuleState; 2],
    alerts: u64,
    captures: u64,
    burn_gauges: Option<(Gauge, Gauge)>,
    severity_gauge: Option<Gauge>,
}

impl SloMonitor {
    /// A monitor over `tracker`, emitting into `log` (whose clock also
    /// times cooldowns).
    pub fn new(tracker: SloTracker, log: EventLog) -> Self {
        SloMonitor {
            tracker,
            log,
            states: [RuleState::new(); 2],
            alerts: 0,
            captures: 0,
            burn_gauges: None,
            severity_gauge: None,
        }
    }

    /// The tracked SLO accounting (feed requests / scrape deltas here).
    pub fn tracker(&self) -> &SloTracker {
        &self.tracker
    }

    /// Mirrors gating burns (×1000, rounded) and the worst severity
    /// into `registry` on every evaluation.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.burn_gauges = Some((
            registry.gauge(
                "monitor_slo_burn_x1000{objective=\"availability\"}",
                "availability gating burn rate, ×1000",
            ),
            registry.gauge(
                "monitor_slo_burn_x1000{objective=\"latency\"}",
                "latency gating burn rate, ×1000",
            ),
        ));
        self.severity_gauge = Some(registry.gauge(
            "monitor_slo_severity",
            "worst SLO severity (0 ok, 1 warn, 2 crit)",
        ));
    }

    /// Worst current severity across both objectives.
    pub fn severity(&self) -> Severity {
        self.states[0].severity().max(self.states[1].severity())
    }

    /// Health events emitted so far (alerts and recoveries).
    pub fn alerts_emitted(&self) -> u64 {
        self.alerts
    }

    /// Flight-recorder captures performed so far.
    pub fn captures(&self) -> u64 {
        self.captures
    }

    /// Evaluates both objectives once: reads the burn rates, runs the
    /// rule state machines, emits any due [`HealthEvent`]s into the
    /// log, and — on a transition into `Crit` — captures the last
    /// [`CAPTURE_SPANS`] spans of `flight` into the log. Returns the
    /// emitted events.
    pub fn evaluate(&mut self, flight: Option<&Tracer>) -> Vec<HealthEvent> {
        let now = self.log.clock().now_ns();
        let burns = self.tracker.burn_rates();
        if let Some((avail, lat)) = &self.burn_gauges {
            avail.set((burns.availability.gating() * 1000.0).round() as i64);
            lat.set((burns.latency.gating() * 1000.0).round() as i64);
        }
        let mut events = Vec::new();
        let mut entered_crit = false;
        let objectives = [burns.availability, burns.latency];
        for ((signal, burn), state) in SLO_SIGNALS.iter().zip(objectives).zip(&mut self.states) {
            let Signal { probe, kind, rule } = *signal;
            let (gating, short, long) = (burn.gating(), burn.short, burn.long);
            let was = state.severity();
            if let Some(severity) = state.update(&rule, gating, now) {
                let event = HealthEvent {
                    ts_ns: now,
                    probe,
                    kind,
                    severity,
                    value: gating,
                    threshold: if severity == Severity::Crit {
                        rule.crit
                    } else {
                        rule.warn
                    },
                    detail: format!("burn short={short:.3} long={long:.3}"),
                };
                event.emit_into(&self.log);
                self.alerts += 1;
                if severity == Severity::Crit && was != Severity::Crit {
                    entered_crit = true;
                }
                events.push(event);
            }
        }
        if entered_crit {
            if let Some(tracer) = flight {
                let captured = tracer.capture_into(&self.log, CAPTURE_SPANS);
                self.log.emit(
                    "flight-capture",
                    [
                        ("probe", "slo".to_string()),
                        ("spans", captured.to_string()),
                    ],
                );
                self.captures += 1;
            }
        }
        if let Some(gauge) = &self.severity_gauge {
            gauge.set(match self.severity() {
                Severity::Ok => 0,
                Severity::Warn => 1,
                Severity::Crit => 2,
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_obs::VirtualClock;
    use std::sync::Arc;

    fn fixture() -> (Arc<VirtualClock>, SloMonitor) {
        let clock = Arc::new(VirtualClock::new());
        let tracker = SloTracker::new(clock.clone());
        let log = EventLog::new(clock.clone());
        (clock.clone(), SloMonitor::new(tracker, log))
    }

    fn burn_errors(monitor: &SloMonitor, errors: u64, total: u64) {
        monitor.tracker().record_batch(total, errors, 0);
    }

    #[test]
    fn quiet_traffic_emits_nothing() {
        let (_clock, mut monitor) = fixture();
        burn_errors(&monitor, 0, 10_000);
        assert!(monitor.evaluate(None).is_empty());
        assert_eq!(monitor.severity(), Severity::Ok);
        assert_eq!(monitor.alerts_emitted(), 0);
    }

    #[test]
    fn sustained_burn_trips_warn_then_recovers() {
        let (clock, mut monitor) = fixture();
        // 0.5% errors against the 0.1% budget: gating burn 5 ≥ warn 2.
        burn_errors(&monitor, 50, 10_000);
        let events = monitor.evaluate(None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "availability-burn");
        assert_eq!(events[0].severity, Severity::Warn);
        assert_eq!(events[0].probe, "slo");
        assert!(events[0].detail.contains("short=5.000"));
        // Clean traffic dilutes the burn below warn·(1−hysteresis).
        clock.advance(1_000_000);
        burn_errors(&monitor, 0, 500_000);
        let events = monitor.evaluate(None);
        assert_eq!(events.len(), 1, "recovery emits");
        assert_eq!(events[0].severity, Severity::Ok);
        assert_eq!(monitor.severity(), Severity::Ok);
    }

    #[test]
    fn crit_transition_captures_the_flight_recorder_once() {
        let (clock, mut monitor) = fixture();
        let tracer = Tracer::new(clock.clone(), 16);
        {
            let mut span = tracer.span("shard.locate");
            clock.advance(42);
            span.event("verdict", "slow");
        }
        // 5% errors: gating burn 50 ≥ crit 10.
        burn_errors(&monitor, 500, 10_000);
        let events = monitor.evaluate(Some(&tracer));
        assert_eq!(events[0].severity, Severity::Crit);
        assert_eq!(monitor.captures(), 1);
        let jsonl = monitor.log.render_jsonl();
        assert!(jsonl.contains("\"kind\": \"span-capture\""));
        assert!(jsonl.contains("\"kind\": \"flight-capture\""));
        assert!(jsonl.contains("shard.locate"));
        // Steady crit (after cooldown) heartbeats but does not re-dump.
        clock.advance(2_000_000);
        burn_errors(&monitor, 500, 10_000);
        let events = monitor.evaluate(Some(&tracer));
        assert_eq!(events.len(), 1, "heartbeat");
        assert_eq!(monitor.captures(), 1, "no second capture");
    }

    #[test]
    fn latency_objective_alerts_independently() {
        let (_clock, mut monitor) = fixture();
        // 2% of requests past the objective: latency burn 20 ≥ crit 10.
        monitor.tracker().record_batch(10_000, 0, 200);
        let events = monitor.evaluate(None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "latency-p999-burn");
        assert_eq!(events[0].severity, Severity::Crit);
    }

    #[test]
    fn gauges_mirror_burns_and_severity() {
        let (_clock, mut monitor) = fixture();
        let registry = Registry::new();
        monitor.attach_registry(&registry);
        burn_errors(&monitor, 50, 10_000);
        monitor.evaluate(None);
        let burn = registry
            .gauges_with_prefix("monitor_slo_burn_x1000{objective=\"availability\"}")
            .pop()
            .unwrap()
            .1;
        assert_eq!(burn, 5_000);
        assert_eq!(
            registry
                .gauges_with_prefix("monitor_slo_severity")
                .pop()
                .unwrap()
                .1,
            1
        );
    }

    #[test]
    fn evaluation_streams_are_deterministic_per_seed() {
        let run = || {
            let (clock, mut monitor) = fixture();
            let tracer = Tracer::new(clock.clone(), 8);
            let mut state = 99u64;
            for _ in 0..40 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                monitor.tracker().record_batch(100, state % 13, state % 7);
                {
                    let _span = tracer.span("step");
                }
                clock.advance(500_000);
                monitor.evaluate(Some(&tracer));
            }
            monitor.log.render_jsonl()
        };
        assert_eq!(run(), run());
    }
}
