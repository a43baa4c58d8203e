//! The alert state machine: threshold classification with hysteresis
//! and cooldown, no external deps.
//!
//! Each [`Signal`] has a [`Rule`] (static thresholds) and a [`RuleState`]
//! (current severity + last emission time). [`RuleState::update`]
//! classifies a fresh value and decides whether an event should be
//! emitted:
//!
//! * **upgrade** (severity rose) — emit immediately;
//! * **steady alert** (severity unchanged, `Warn`/`Crit`) — re-emit
//!   only after `cooldown_ns` of clock time, so a persistent condition
//!   heartbeats instead of flooding;
//! * **downgrade** — only when the value clears the lower threshold by
//!   the hysteresis margin (`value < threshold · (1 − hysteresis)`),
//!   which stops a value oscillating around a threshold from emitting
//!   an event per sample; a downgrade that happens emits immediately
//!   (including the recovery to `Ok`).

use crate::event::Severity;

/// Static thresholds for one signal. Values are judged upward: a value
/// `>= crit` is critical, `>= warn` is a warning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Warning threshold (inclusive).
    pub warn: f64,
    /// Critical threshold (inclusive); must be `>= warn`.
    pub crit: f64,
    /// Downgrade margin as a fraction of the threshold being cleared
    /// (`0.0` = downgrade as soon as the value dips below).
    pub hysteresis: f64,
    /// Minimum clock time between re-emissions of an unchanged alert.
    pub cooldown_ns: u64,
}

impl Rule {
    /// Severity of `value` under these thresholds, ignoring history.
    pub fn classify(&self, value: f64) -> Severity {
        if value >= self.crit {
            Severity::Crit
        } else if value >= self.warn {
            Severity::Warn
        } else {
            Severity::Ok
        }
    }
}

/// One health signal: the probe that computes it, the event kind it
/// emits, and the thresholds its [`RuleState`] judges it by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signal {
    /// Probe name stamped on the signal's events.
    pub probe: &'static str,
    /// Event kind stamped on the signal's events.
    pub kind: &'static str,
    /// The signal's thresholds.
    pub rule: Rule,
}

/// Mutable per-signal state: where the state machine currently sits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleState {
    severity: Severity,
    last_emit_ns: Option<u64>,
}

impl Default for RuleState {
    fn default() -> Self {
        RuleState {
            severity: Severity::Ok,
            last_emit_ns: None,
        }
    }
}

impl RuleState {
    /// A fresh state at [`Severity::Ok`].
    pub fn new() -> Self {
        RuleState::default()
    }

    /// The current severity.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// Feeds one sample; returns `Some(severity)` when an event should
    /// be emitted at that severity, `None` to stay silent.
    pub fn update(&mut self, rule: &Rule, value: f64, now_ns: u64) -> Option<Severity> {
        let target = rule.classify(value);
        let next = if target >= self.severity {
            target
        } else {
            // Downgrading: the value must clear the threshold of every
            // level it leaves by the hysteresis margin, else hold.
            let clears = |threshold: f64| value < threshold * (1.0 - rule.hysteresis);
            match (self.severity, target) {
                (Severity::Crit, _) if !clears(rule.crit) => Severity::Crit,
                (Severity::Crit, Severity::Ok) if !clears(rule.warn) => Severity::Warn,
                (Severity::Warn, Severity::Ok) if !clears(rule.warn) => Severity::Warn,
                (_, t) => t,
            }
        };
        let emit = if next != self.severity {
            // Upgrades and real (post-hysteresis) downgrades always
            // fire, including recovery to Ok.
            true
        } else if next.is_alert() {
            // Steady alert: heartbeat after cooldown.
            match self.last_emit_ns {
                Some(last) => now_ns.saturating_sub(last) >= rule.cooldown_ns,
                None => true,
            }
        } else {
            false // steady Ok is silent
        };
        self.severity = next;
        if emit {
            self.last_emit_ns = Some(now_ns);
            Some(next)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULE: Rule = Rule {
        warn: 1.0,
        crit: 2.0,
        hysteresis: 0.2,
        cooldown_ns: 100,
    };

    #[test]
    fn classification_is_inclusive_at_thresholds() {
        assert_eq!(RULE.classify(0.99), Severity::Ok);
        assert_eq!(RULE.classify(1.0), Severity::Warn);
        assert_eq!(RULE.classify(1.99), Severity::Warn);
        assert_eq!(RULE.classify(2.0), Severity::Crit);
    }

    #[test]
    fn upgrades_emit_immediately() {
        let mut s = RuleState::new();
        assert_eq!(s.update(&RULE, 0.5, 0), None);
        assert_eq!(s.update(&RULE, 1.5, 1), Some(Severity::Warn));
        assert_eq!(s.update(&RULE, 2.5, 2), Some(Severity::Crit));
    }

    #[test]
    fn steady_alerts_heartbeat_on_cooldown() {
        let mut s = RuleState::new();
        assert_eq!(s.update(&RULE, 1.5, 0), Some(Severity::Warn));
        assert_eq!(s.update(&RULE, 1.5, 50), None, "inside cooldown");
        assert_eq!(s.update(&RULE, 1.5, 100), Some(Severity::Warn));
        assert_eq!(s.update(&RULE, 1.5, 150), None);
    }

    #[test]
    fn hysteresis_holds_the_level_near_the_threshold() {
        let mut s = RuleState::new();
        s.update(&RULE, 1.5, 0);
        // 0.9 is below warn=1.0, but not below 1.0·(1−0.2)=0.8: hold.
        assert_eq!(s.update(&RULE, 0.9, 1), None);
        assert_eq!(s.severity(), Severity::Warn);
        // 0.7 clears the margin: recover, emitting the Ok transition.
        assert_eq!(s.update(&RULE, 0.7, 2), Some(Severity::Ok));
        assert_eq!(s.severity(), Severity::Ok);
    }

    #[test]
    fn crit_downgrade_passes_through_warn_when_only_crit_clears() {
        let mut s = RuleState::new();
        s.update(&RULE, 2.5, 0);
        // 1.5 clears crit·0.8=1.6 but is still above warn: Warn.
        assert_eq!(s.update(&RULE, 1.5, 1), Some(Severity::Warn));
        // 0.9 targets Ok but does not clear warn·0.8: hold Warn.
        assert_eq!(s.update(&RULE, 0.9, 2), None);
        assert_eq!(s.update(&RULE, 0.1, 3), Some(Severity::Ok));
    }

    #[test]
    fn steady_ok_never_emits() {
        let mut s = RuleState::new();
        for t in 0..10 {
            assert_eq!(s.update(&RULE, 0.1, t * 1_000), None);
        }
    }
}
