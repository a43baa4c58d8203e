//! The closed-loop simulation driver: workload generator + server.
//!
//! [`Simulation`] owns a [`CmServer`] and a [`WorkloadGen`] and advances
//! them together: each round it admits Poisson arrivals onto
//! Zipf-selected objects, lets existing streams issue VCR operations,
//! and ticks the server. Experiments use it to measure service quality
//! *while scaling operations run*.

use crate::config::ServerConfig;
use crate::server::{CmServer, ServerError};
use crate::stream::{PlayState, StreamId};
use crate::workload::{VcrAction, WorkloadConfig, WorkloadGen};
use scaddar_core::ObjectId;

/// A self-driving simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    server: CmServer,
    workload: WorkloadGen,
    rejected: u64,
}

impl Simulation {
    /// Builds a server with `objects` objects of `blocks_per_object`
    /// blocks each and wires up the workload generator.
    pub fn new(
        config: ServerConfig,
        workload: WorkloadConfig,
        workload_seed: u64,
        objects: u32,
        blocks_per_object: u64,
    ) -> Result<Self, ServerError> {
        let mut server = CmServer::new(config)?;
        let mut catalog = Vec::with_capacity(objects as usize);
        for _ in 0..objects {
            let id = server.add_object(blocks_per_object)?;
            catalog.push((id, blocks_per_object));
        }
        Ok(Simulation {
            server,
            workload: WorkloadGen::new(workload_seed, workload, catalog),
            rejected: 0,
        })
    }

    /// Wraps an *existing* server in a simulation, deriving the workload
    /// catalog from the server's current object catalog. This is the
    /// entry point for drivers (like the deterministic harness) that
    /// interleave object churn with workload phases: `WorkloadGen`'s
    /// catalog is fixed at construction, so after adding or removing
    /// objects a fresh wrap is required or [`Simulation::round`] would
    /// open streams on stale objects.
    pub fn from_server(server: CmServer, workload: WorkloadConfig, workload_seed: u64) -> Self {
        let catalog: Vec<(ObjectId, u64)> = server
            .engine()
            .catalog()
            .objects()
            .iter()
            .map(|o| (o.id, o.blocks))
            .collect();
        Simulation {
            server,
            workload: WorkloadGen::new(workload_seed, workload, catalog),
            rejected: 0,
        }
    }

    /// Unwraps the simulation, handing the server back to the caller
    /// (the inverse of [`Simulation::from_server`]).
    pub fn into_server(self) -> CmServer {
        self.server
    }

    /// The server (read-only).
    pub fn server(&self) -> &CmServer {
        &self.server
    }

    /// Mutable server access, for scaling operations mid-run.
    pub fn server_mut(&mut self) -> &mut CmServer {
        &mut self.server
    }

    /// Streams rejected by admission control so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Advances one round: arrivals, VCR actions, service.
    pub fn round(&mut self) {
        // Arrivals.
        for _ in 0..self.workload.arrivals() {
            let (object, _) = self.workload.pick_object();
            match self.server.open_stream(object) {
                Ok(_) => {}
                Err(ServerError::AdmissionRejected) => self.rejected += 1,
                Err(e) => panic!("unexpected open_stream error: {e}"),
            }
        }
        // VCR actions on a snapshot of live stream ids.
        let ids: Vec<(StreamId, ObjectId, bool, u64)> = self
            .server
            .streams_snapshot()
            .into_iter()
            .map(|s| {
                (
                    s.id,
                    s.object,
                    s.state == PlayState::Playing,
                    s.object_blocks,
                )
            })
            .collect();
        for (id, _object, playing, blocks) in ids {
            match self.workload.vcr_action(playing, blocks) {
                VcrAction::None => {}
                VcrAction::Pause => self.server.stream_mut(id).expect("live").pause(),
                VcrAction::Resume => self.server.stream_mut(id).expect("live").resume(),
                VcrAction::Seek(to) => self.server.stream_mut(id).expect("live").seek(to),
            }
        }
        // Service.
        self.server.tick();
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.round();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_core::ScalingOp;

    fn sim(arrival: f64) -> Simulation {
        Simulation::new(
            ServerConfig::new(8).with_catalog_seed(7),
            WorkloadConfig::interactive(arrival),
            99,
            20,
            1_000,
        )
        .unwrap()
    }

    #[test]
    fn runs_and_serves() {
        let mut s = sim(2.0);
        s.run(200);
        assert_eq!(s.server().metrics().len(), 200);
        assert!(s.server().metrics().total_served() > 0);
        // 8 disks x 32 bandwidth, ~2 arrivals/round on 1000-block
        // objects: far below capacity, so service is clean.
        assert!(s.server().metrics().hiccup_rate() < 0.01);
    }

    #[test]
    fn survives_scaling_mid_run() {
        let mut s = sim(1.0);
        s.run(50);
        s.server_mut().scale(ScalingOp::Add { count: 2 }).unwrap();
        s.run(300);
        assert_eq!(s.server().backlog(), 0, "redistribution must drain");
        assert!(s.server().residency_consistent() || s.server().active_streams() > 0);
        // After draining, residency must agree with AF().
        while s.server().backlog() > 0 {
            s.round();
        }
        assert!(s.server().residency_consistent());
    }

    #[test]
    fn heavy_load_triggers_rejections() {
        // Capacity: 0.8 * 1 disk * 4 = 3 streams; arrivals 5/round.
        let mut s = Simulation::new(
            ServerConfig::new(1).with_bandwidth(4).with_catalog_seed(2),
            WorkloadConfig::interactive(5.0),
            3,
            5,
            10_000,
        )
        .unwrap();
        s.run(20);
        assert!(s.rejected() > 0);
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut s = sim(1.5);
            s.run(100);
            (
                s.server().metrics().total_served(),
                s.server().metrics().total_hiccups(),
                s.rejected(),
            )
        };
        assert_eq!(run(), run());
    }
}
