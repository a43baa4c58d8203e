//! # scaddar-compact — the generation manager
//!
//! SCADDAR's §4.3 budget is a *diagnosis*: after enough scaling
//! operations the REMAP chain (§4.2) grows long and the b-bit
//! randomness thins out, and the monitor fires `rehash-advised`. This
//! crate is the *remedy*. A [`CompactionController`] closes the loop
//! from that health signal to an **online rehash compaction**: the
//! serving layer opens a fresh placement generation (a new `X_0 mod
//! N_j` seed with an empty scaling log), migrates every block to its
//! new home through the same rate-limited executor that serves
//! redistribution, keeps serving from *both* generations during the
//! cutover, and flips atomically once the last move lands — collapsing
//! every lookup back to a single O(1) hash and refilling the fairness
//! budget.
//!
//! Two triggers, one mechanism:
//!
//! * **manual** — an operator's `compact` command calls
//!   [`CompactionController::request`];
//! * **auto** — with [`cmsim::ServerConfig::auto_compact`] set to
//!   `Some(threshold)`, the controller watches the monitor's
//!   remaining-safe-ops number and fires once it sinks to `threshold`.
//!
//! Either way, [`CompactionController::step`] is the whole control
//! loop: call it once per service round (right after
//! [`cmsim::CmServer::tick`]) and it begins, tracks, and completes
//! compactions, narrating each transition into the health monitor's
//! event stream (`compaction-active` / `compaction-complete`).
//!
//! ```
//! use cmsim::{CmServer, ServerConfig};
//! use scaddar_compact::CompactionController;
//! use scaddar_monitor::HealthMonitor;
//! use scaddar_obs::VirtualClock;
//! use std::sync::Arc;
//!
//! let config = ServerConfig::new(6).with_catalog_seed(7);
//! let mut server = CmServer::new(config).unwrap();
//! server.add_object(5_000).unwrap();
//! let mut monitor = HealthMonitor::for_engine(Arc::new(VirtualClock::new()), server.engine());
//! let mut controller = CompactionController::from_config(&config);
//!
//! controller.request(); // operator: `compact`
//! while {
//!     controller.step(&mut server, &mut monitor);
//!     server.compaction_active() || controller.in_flight()
//! } {
//!     server.tick();
//! }
//! assert_eq!(server.generation(), 1); // chain length 0 again
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cmsim::{CmServer, ServerConfig, ServerError, SharedServer};
use scaddar_monitor::HealthMonitor;

/// One observable transition of the compaction control loop, returned
/// by [`CompactionController::step`] so callers (daemons, consoles,
/// harnesses) can narrate without re-deriving state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerEvent {
    /// A compaction began: generation `from` -> `to` with `queued`
    /// migration moves.
    Started {
        /// Generation being compacted away.
        from_generation: u64,
        /// Generation being migrated toward.
        to_generation: u64,
        /// Migration moves queued on the executor.
        queued: u64,
    },
    /// A trigger fired but the server could not begin (e.g. scaling
    /// redistribution still draining); the controller retries on the
    /// next step.
    Deferred {
        /// The server's refusal, verbatim.
        reason: String,
    },
    /// The cutover flipped: every lookup is a single hash again.
    Completed {
        /// Generation now serving.
        generation: u64,
        /// Blocks accounted for at flip time.
        total_blocks: u64,
    },
}

impl std::fmt::Display for ControllerEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerEvent::Started {
                from_generation,
                to_generation,
                queued,
            } => write!(
                f,
                "compaction started: generation {from_generation} -> {to_generation} \
                 ({queued} block move(s) queued)"
            ),
            ControllerEvent::Deferred { reason } => {
                write!(f, "compaction deferred: {reason}")
            }
            ControllerEvent::Completed {
                generation,
                total_blocks,
            } => write!(
                f,
                "compaction complete: serving generation {generation} \
                 ({total_blocks} block(s), chain length 0)"
            ),
        }
    }
}

/// The generation manager: decides *when* to begin a rehash compaction
/// and narrates its lifecycle; the mechanics (dual-generation serving,
/// rate-limited migration, the atomic flip) live in
/// [`cmsim::CmServer`].
///
/// The controller is deliberately stateless about block-level progress
/// — the server owns that. It remembers only the trigger policy, a
/// pending manual request, and which generation hand-off it is
/// watching, so it survives being rebuilt mid-compaction (it re-adopts
/// an in-flight compaction it did not start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionController {
    auto: Option<u32>,
    requested: bool,
    /// `(from, to)` generations of the compaction being watched.
    watching: Option<(u64, u64)>,
}

impl CompactionController {
    /// A controller with the trigger policy a [`ServerConfig`]
    /// declares: [`ServerConfig::auto_compact`] is the remaining-safe-ops
    /// level the auto policy fires at (`None`: manual requests only).
    pub fn from_config(config: &ServerConfig) -> Self {
        CompactionController {
            auto: config.auto_compact,
            requested: false,
            watching: None,
        }
    }

    /// Queues a manual compaction (the `compact` command). Honored on
    /// the next [`step`](Self::step); sticky across refusals, so a
    /// request placed while scaling redistribution drains fires as
    /// soon as the executor is idle.
    pub fn request(&mut self) {
        self.requested = true;
    }

    /// Is the controller watching an in-flight compaction?
    pub fn in_flight(&self) -> bool {
        self.watching.is_some()
    }

    /// One control-loop iteration against a directly owned server.
    ///
    /// In order: (1) syncs the monitor with the engine (so the budget
    /// probe reads current reality — and resets after a flip), (2)
    /// completes a watched compaction that has flipped, (3) adopts an
    /// in-flight compaction it did not start, (4) fires a pending
    /// manual request or the auto policy. Returns every transition
    /// that happened, oldest first.
    pub fn step(
        &mut self,
        server: &mut CmServer,
        monitor: &mut HealthMonitor,
    ) -> Vec<ControllerEvent> {
        monitor.observe_engine(server.engine());
        let mut events = Vec::new();
        // Completion: the watched hand-off flipped since last step.
        if let Some((_, to)) = self.watching {
            if !server.compaction_active() {
                self.watching = None;
                let total_blocks = server.engine().catalog().total_blocks();
                monitor.note_compaction_completed(to, total_blocks);
                // The flipped engine carries a fresh scaling log; this
                // replay is what refills the §4.3 budget probe.
                monitor.observe_engine(server.engine());
                events.push(ControllerEvent::Completed {
                    generation: to,
                    total_blocks,
                });
            }
        }
        // Adoption: someone else (another console, a restore) began a
        // compaction; watch it to completion rather than double-firing.
        if self.watching.is_none() {
            if let Some(p) = server.compaction_progress() {
                self.watching = Some((p.from_generation, p.to_generation));
            }
        }
        // Trigger: manual request, or the auto policy's budget floor.
        if self.watching.is_none() && self.should_fire(monitor) {
            let from = server.generation();
            match server.begin_compaction() {
                Ok(queued) => {
                    self.requested = false;
                    let to = from + 1;
                    monitor.note_compaction_started(from, to, queued);
                    events.push(ControllerEvent::Started {
                        from_generation: from,
                        to_generation: to,
                        queued,
                    });
                    if server.compaction_active() {
                        self.watching = Some((from, to));
                    } else {
                        // Nothing to migrate: begin flipped instantly.
                        let total_blocks = server.engine().catalog().total_blocks();
                        monitor.note_compaction_completed(to, total_blocks);
                        monitor.observe_engine(server.engine());
                        events.push(ControllerEvent::Completed {
                            generation: to,
                            total_blocks,
                        });
                    }
                }
                Err(e) => {
                    debug_assert!(
                        !matches!(e, ServerError::CompactionActive),
                        "trigger path only runs when no compaction is active"
                    );
                    events.push(ControllerEvent::Deferred {
                        reason: e.to_string(),
                    });
                }
            }
        }
        events
    }

    /// [`step`](Self::step) through a [`SharedServer`]'s exclusive
    /// lock — the daemon-side control loop.
    pub fn step_shared(
        &mut self,
        server: &SharedServer,
        monitor: &mut HealthMonitor,
    ) -> Vec<ControllerEvent> {
        server.with_write(|s| self.step(s, monitor))
    }

    fn should_fire(&self, monitor: &HealthMonitor) -> bool {
        self.requested
            || self
                .auto
                .is_some_and(|threshold| monitor.budget_remaining() <= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmsim::ServerConfig;
    use scaddar_core::ScalingOp;
    use scaddar_monitor::Severity;
    use scaddar_obs::VirtualClock;
    use std::sync::Arc;

    fn rig(config: ServerConfig, blocks: u64) -> (CmServer, HealthMonitor, CompactionController) {
        let mut server = CmServer::new(config).unwrap();
        if blocks > 0 {
            server.add_object(blocks).unwrap();
        }
        let monitor = HealthMonitor::for_engine(Arc::new(VirtualClock::new()), server.engine());
        let controller = CompactionController::from_config(&config);
        (server, monitor, controller)
    }

    /// Remove/add round-trips burn the §4.3 budget fastest; each op is
    /// drained offline so the executor stays idle.
    fn exhaust_budget(server: &mut CmServer) {
        while server.next_op_is_safe(&ScalingOp::remove_one(0)) {
            server.scale_offline(ScalingOp::remove_one(0)).unwrap();
            server.scale_offline(ScalingOp::Add { count: 1 }).unwrap();
        }
    }

    fn drive_to_completion(
        server: &mut CmServer,
        monitor: &mut HealthMonitor,
        controller: &mut CompactionController,
    ) -> Vec<ControllerEvent> {
        let mut events = Vec::new();
        for _ in 0..10_000 {
            events.extend(controller.step(server, monitor));
            if !server.compaction_active() && !controller.in_flight() && !controller.requested {
                return events;
            }
            server.tick();
        }
        panic!("compaction never completed; events so far: {events:?}");
    }

    #[test]
    fn manual_request_compacts_and_refills_the_budget() {
        let (mut server, mut monitor, mut controller) =
            rig(ServerConfig::new(8).with_catalog_seed(3), 4_000);
        exhaust_budget(&mut server);
        controller.step(&mut server, &mut monitor);
        assert_eq!(monitor.budget_remaining(), 0);
        assert_eq!(monitor.report().verdict(), Severity::Crit);

        controller.request();
        let events = drive_to_completion(&mut server, &mut monitor, &mut controller);
        assert!(matches!(
            events.first(),
            Some(ControllerEvent::Started {
                from_generation: 0,
                to_generation: 1,
                ..
            })
        ));
        assert!(matches!(
            events.last(),
            Some(ControllerEvent::Completed {
                generation: 1,
                total_blocks: 4_000,
            })
        ));
        assert_eq!(server.generation(), 1);
        assert!(server.residency_consistent());
        // The closed loop: CRIT -> compact -> budget refilled -> Ok.
        assert!(monitor.budget_remaining() > 0);
        assert_eq!(monitor.report().verdict(), Severity::Ok);
        let kinds: Vec<&str> = monitor.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"rehash-advised"));
        assert!(kinds.contains(&"compaction-active"));
        assert!(kinds.contains(&"compaction-complete"));
    }

    #[test]
    fn auto_policy_fires_at_the_budget_floor_and_only_once() {
        let config = ServerConfig::new(8)
            .with_catalog_seed(5)
            .with_auto_compact(Some(0));
        let (mut server, mut monitor, mut controller) = rig(config, 3_000);
        // Healthy budget: the policy must hold fire.
        assert!(controller.step(&mut server, &mut monitor).is_empty());
        assert_eq!(server.generation(), 0);

        exhaust_budget(&mut server);
        let events = drive_to_completion(&mut server, &mut monitor, &mut controller);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::Started { .. }))
                .count(),
            1,
            "{events:?}"
        );
        assert_eq!(server.generation(), 1);
        // Post-flip the budget is full again; further steps are quiet.
        for _ in 0..5 {
            assert!(controller.step(&mut server, &mut monitor).is_empty());
        }
        assert_eq!(server.generation(), 1);
    }

    #[test]
    fn request_defers_while_redistribution_drains_then_fires() {
        let (mut server, mut monitor, mut controller) =
            rig(ServerConfig::new(4).with_catalog_seed(2), 3_000);
        server.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert!(server.backlog() > 0);
        controller.request();
        let events = controller.step(&mut server, &mut monitor);
        assert!(
            matches!(events.as_slice(), [ControllerEvent::Deferred { .. }]),
            "{events:?}"
        );
        assert!(controller.requested, "request is sticky");
        let events = drive_to_completion(&mut server, &mut monitor, &mut controller);
        assert!(events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Completed { generation: 1, .. })));
    }

    #[test]
    fn controller_adopts_a_compaction_it_did_not_start() {
        let (mut server, mut monitor, mut controller) =
            rig(ServerConfig::new(5).with_catalog_seed(9), 2_000);
        server.begin_compaction().unwrap();
        assert!(controller.step(&mut server, &mut monitor).is_empty());
        assert!(controller.in_flight());
        let events = drive_to_completion(&mut server, &mut monitor, &mut controller);
        assert!(
            matches!(
                events.as_slice(),
                [ControllerEvent::Completed { generation: 1, .. }]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn empty_catalog_compaction_is_a_single_step() {
        let (mut server, mut monitor, mut controller) =
            rig(ServerConfig::new(4).with_catalog_seed(1), 0);
        controller.request();
        let events = controller.step(&mut server, &mut monitor);
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(matches!(
            events[0],
            ControllerEvent::Started { queued: 0, .. }
        ));
        assert!(matches!(
            events[1],
            ControllerEvent::Completed {
                generation: 1,
                total_blocks: 0,
            }
        ));
        assert!(!controller.in_flight());
    }

    #[test]
    fn step_shared_drives_a_shared_server() {
        let config = ServerConfig::new(6).with_catalog_seed(4);
        let mut server = CmServer::new(config).unwrap();
        server.add_object(2_500).unwrap();
        let mut monitor = HealthMonitor::for_engine(Arc::new(VirtualClock::new()), server.engine());
        let shared = SharedServer::new(server);
        let mut controller = CompactionController::from_config(&config);
        controller.request();
        let mut events = Vec::new();
        for _ in 0..10_000 {
            events.extend(controller.step_shared(&shared, &mut monitor));
            if !controller.in_flight() && !controller.requested {
                break;
            }
            // Reads stay serviceable mid-cutover through the shared lock.
            assert!(shared.locate(scaddar_core::ObjectId(0), 1_234).is_ok());
            shared.tick();
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Completed { generation: 1, .. })));
        assert_eq!(shared.with_read(|s| s.generation()), 1);
    }

    #[test]
    fn events_render_for_operator_logs() {
        let started = ControllerEvent::Started {
            from_generation: 0,
            to_generation: 1,
            queued: 42,
        };
        assert_eq!(
            started.to_string(),
            "compaction started: generation 0 -> 1 (42 block move(s) queued)"
        );
        let done = ControllerEvent::Completed {
            generation: 1,
            total_blocks: 42,
        };
        assert!(done.to_string().contains("chain length 0"));
        assert!(ControllerEvent::Deferred { reason: "x".into() }
            .to_string()
            .contains("deferred"));
    }
}
