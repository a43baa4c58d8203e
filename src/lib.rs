//! # scaddar — SCAling Disks for Data Arranged Randomly
//!
//! A complete, from-scratch reproduction of
//!
//! > Ashish Goel, Cyrus Shahabi, Shu-Yuen Didi Yao, Roger Zimmermann.
//! > *SCADDAR: An Efficient Randomized Technique to Reorganize Continuous
//! > Media Blocks.* USC CS-TR-742 (2001) / ICDE 2002.
//!
//! SCADDAR stores continuous-media blocks pseudo-randomly across a disk
//! array and, when disks are added or removed, computes every block's new
//! location with a chain of cheap `mod`/`div` remaps — moving the
//! *minimum* number of blocks, keeping the load *balanced*, and requiring
//! *no per-block directory*: only the object seeds and a tiny log of
//! scaling operations.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] ([`scaddar_core`]) — the algorithm: `REMAP_j`, `AF()`,
//!   `RF()`, the §4.3 fairness analysis;
//! * [`prng`] ([`scaddar_prng`]) — reproducible seeded generators
//!   (`p_r(s)`) with indexed access;
//! * [`baselines`] ([`scaddar_baselines`]) — everything SCADDAR is
//!   compared against, naive remap to jump consistent hashing;
//! * [`cmsim`] — a round-based continuous-media server simulator with
//!   online redistribution, streams, mirroring, and heterogeneous disks;
//! * [`analysis`] ([`scaddar_analysis`]) — the measurement toolkit.
//!
//! ## Sixty seconds to a scaled server
//!
//! ```
//! use scaddar::prelude::*;
//!
//! // 1. A placement engine on 4 disks (paper defaults: b=32, eps=5%).
//! let mut engine = Scaddar::new(ScaddarConfig::new(4)).unwrap();
//! let movie = engine.add_object(100_000);
//!
//! // 2. Look up any block — no directory, just arithmetic.
//! let disk = engine.locate(movie, 31_337).unwrap();
//! assert!(disk.0 < 4);
//!
//! // 3. Add a disk group. Only ~1/3 of blocks move (the optimum), all
//! //    onto the new disks, and lookups follow automatically.
//! let plan = engine.scale(ScalingOp::Add { count: 2 }).unwrap();
//! assert!((plan.moved_fraction() - 1.0 / 3.0).abs() < 0.01);
//!
//! // 4. The §4.3 guard says how long this can go on before a full
//! //    redistribution is advisable.
//! assert!(engine.next_op_is_safe(7));
//! ```
//!
//! For the full simulated server (streams, bandwidth, online moves), see
//! [`cmsim::CmServer`] and `examples/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cmsim;
pub use scaddar_analysis as analysis;
pub use scaddar_baselines as baselines;
pub use scaddar_core as core;
pub use scaddar_prng as prng;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use crate::core::{
        locate, plan_last_op, rule_of_thumb_max_ops, BlockRef, Catalog, DiskIndex, FairnessTracker,
        MovePlan, ObjectId, RemapPipeline, Scaddar, ScaddarConfig, ScaddarError, ScalingLog,
        ScalingOp, XCache,
    };
    pub use crate::prng::{Bits, BlockRandoms, RngKind};
    pub use cmsim::{CmServer, ServerConfig, Simulation, WorkloadConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let mut engine = Scaddar::new(ScaddarConfig::new(2)).unwrap();
        let obj = engine.add_object(10);
        assert!(engine.locate(obj, 0).unwrap().0 < 2);
        let server = CmServer::new(ServerConfig::new(2)).unwrap();
        assert_eq!(server.placement().disks().disks(), 2);
    }
}
