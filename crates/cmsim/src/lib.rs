//! # cmsim — a continuous media server simulator around SCADDAR
//!
//! The paper's setting is a CM (video/audio) server that must keep
//! streaming while disks are added and removed. This crate builds that
//! setting so the placement algorithm can be evaluated *in situ*:
//!
//! * [`disk`] — physical disks with bandwidth/capacity behind SCADDAR's
//!   logical indices: the stable [`PhysicalDiskId`]s, the
//!   [`PhysicalMap`] that renumbers logical indices on removal, and the
//!   [`DiskArray`] lifecycle table;
//! * [`store`] — actual block residency (which lags placement during
//!   online redistribution);
//! * [`stream`], [`workload`], [`admission`] — client sessions with VCR
//!   interactivity, Zipf popularity, Poisson arrivals, statistical
//!   admission control;
//! * [`redistribute`] — the rate-limited online redistribution executor;
//! * [`compaction`] — online rehash to the next placement generation
//!   (dual-generation serving during cutover, atomic flip);
//! * [`placement`] — the one place a block's disk is decided;
//! * [`server`] — the round-based server tying it all together;
//! * [`sim`] — the closed-loop driver (workload + server);
//! * [`concurrent`] — thread-safe online access during scaling
//!   (lookups never see torn epochs);
//! * [`faults`] — §6's mirroring extension (`f(N_j) = N_j/2` offset);
//! * [`hetero`] — §6's heterogeneous-array extension via weighted
//!   logical disks;
//! * [`metrics`], [`config`] — measurement and configuration.
//!
//! ## Quick example
//!
//! ```
//! use cmsim::{CmServer, ServerConfig};
//! use scaddar_core::ScalingOp;
//!
//! let mut server = CmServer::new(ServerConfig::new(4)).unwrap();
//! let movie = server.add_object(1_000).unwrap();
//! let viewer = server.open_stream(movie).unwrap();
//!
//! // Scale online: moves are queued, streams keep playing.
//! server.scale(ScalingOp::Add { count: 1 }).unwrap();
//! while server.backlog() > 0 {
//!     server.tick();
//! }
//! assert!(server.residency_consistent());
//! assert_eq!(server.metrics().total_hiccups(), 0);
//! # let _ = viewer;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod compaction;
pub mod concurrent;
pub mod config;
pub mod decluster;
pub mod disk;
pub mod diskmodel;
pub mod faults;
pub mod hetero;
pub mod metrics;
pub mod parity;
pub mod placement;
pub mod redistribute;
pub mod scrub;
pub mod server;
pub mod sim;
pub mod stats;
pub mod store;
pub mod stream;
pub mod workload;

pub use admission::AdmissionController;
pub use compaction::CompactionProgress;
pub use concurrent::{
    BatchRead, CoalescedRead, EpochRead, LocateAnswer, LocateQuery, SharedServer,
};
pub use config::ServerConfig;
pub use decluster::{DeclusteredParity, RepairStats};
pub use disk::{DiskArray, DiskSpec, PhysicalDiskId, PhysicalMap};
pub use diskmodel::{provisioning_table, DiskModel};
pub use faults::{availability_census, locate_with_failures, mirror_of, mirror_offset};
pub use hetero::{HeteroDiskId, HeteroMap};
pub use metrics::{Metrics, RoundRecord, DEFAULT_RETENTION};
pub use parity::{parity_availability_census, parity_disk, parity_read, ParityRead};
pub use placement::PlacementState;
pub use redistribute::{PendingMove, RedistributionExecutor};
pub use scrub::{ScrubReport, Scrubber};
pub use server::{CmServer, ServerError};
pub use sim::Simulation;
pub use stats::ServerStats;
pub use store::BlockStore;
pub use stream::{PlayState, Stream, StreamId};
pub use workload::{VcrAction, WorkloadConfig, WorkloadGen, Zipf};
