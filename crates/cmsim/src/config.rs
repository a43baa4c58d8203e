//! Server configuration.

use scaddar_prng::{Bits, RngKind};

/// Static configuration of a simulated CM server.
///
/// Defaults mirror the paper's §5 setup where it is specified (32-bit
/// randomness, `eps = 5%`) and pick representative round-robin-era
/// hardware numbers elsewhere (documented per field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Initial number of disks `N_0`.
    pub initial_disks: u32,
    /// Blocks each disk can deliver per service round. A 2001-era disk
    /// streaming ~8 MB/s with 256 KB blocks and ~1 s rounds serves ~30
    /// blocks/round; we default to 32.
    pub disk_bandwidth: u32,
    /// Block capacity per disk (storage, not bandwidth). Defaults to
    /// "effectively infinite" for placement experiments; capacity-bound
    /// scenarios set it explicitly.
    pub disk_capacity: u64,
    /// Bit width of placement randomness (§5 uses 32).
    pub bits: Bits,
    /// Placement generator family.
    pub rng: RngKind,
    /// Catalog seed (decorrelates per-object seeds).
    pub catalog_seed: u64,
    /// Fairness tolerance `eps` for the §4.3 precondition (§5 uses 5%).
    pub epsilon: f64,
    /// Bandwidth per disk per round reserved for redistribution moves
    /// (source and target each spend one unit per moved block). The
    /// remainder serves streams first; redistribution may also consume
    /// leftover stream bandwidth.
    pub redistribution_bandwidth: u32,
    /// How many per-round metric records the server retains in memory
    /// (run totals are accumulators and outlive the window).
    pub metrics_retention: usize,
    /// When true, the serving layer's compaction controller may begin a
    /// rehash compaction on its own once the §4.3 budget runs low (see
    /// `auto_compact_threshold`); when false, compaction only happens on
    /// an operator's explicit `compact` command.
    pub auto_compact: bool,
    /// Remaining-safe-operations level at or below which auto-compaction
    /// fires (0 = only once no further op fits the fairness tolerance,
    /// i.e. at the monitor's `rehash-advised` CRIT).
    pub auto_compact_threshold: u32,
}

impl ServerConfig {
    /// A paper-flavoured default configuration.
    pub fn new(initial_disks: u32) -> Self {
        ServerConfig {
            initial_disks,
            disk_bandwidth: 32,
            disk_capacity: u64::MAX,
            bits: Bits::B32,
            rng: RngKind::SplitMix64,
            catalog_seed: 0,
            epsilon: 0.05,
            redistribution_bandwidth: 4,
            metrics_retention: crate::metrics::DEFAULT_RETENTION,
            auto_compact: false,
            auto_compact_threshold: 0,
        }
    }

    /// Enables (or disables) automatic rehash compaction.
    pub fn with_auto_compact(mut self, enabled: bool) -> Self {
        self.auto_compact = enabled;
        self
    }

    /// Overrides the remaining-safe-ops level that triggers
    /// auto-compaction (implies nothing about `auto_compact` itself).
    pub fn with_auto_compact_threshold(mut self, remaining_ops: u32) -> Self {
        self.auto_compact_threshold = remaining_ops;
        self
    }

    /// Overrides the per-disk stream bandwidth (blocks per round).
    pub fn with_bandwidth(mut self, blocks_per_round: u32) -> Self {
        self.disk_bandwidth = blocks_per_round;
        self
    }

    /// Derives bandwidth and capacity from a physical
    /// [`DiskModel`](crate::diskmodel::DiskModel) under the
    /// continuous-display round for `block_bytes` blocks consumed at
    /// `consume_bps` — grounding the simulator's abstract "blocks per
    /// round" in drive physics.
    pub fn with_disk_model(
        mut self,
        model: &crate::diskmodel::DiskModel,
        block_bytes: u64,
        consume_bps: f64,
    ) -> Self {
        self.disk_bandwidth = model.max_streams(block_bytes, consume_bps);
        self.disk_capacity = model.capacity_blocks(block_bytes);
        self
    }

    /// Overrides the redistribution bandwidth reservation.
    pub fn with_redistribution_bandwidth(mut self, blocks_per_round: u32) -> Self {
        self.redistribution_bandwidth = blocks_per_round;
        self
    }

    /// Overrides the catalog seed.
    pub fn with_catalog_seed(mut self, seed: u64) -> Self {
        self.catalog_seed = seed;
        self
    }

    /// Overrides the placement bit width.
    pub fn with_bits(mut self, bits: Bits) -> Self {
        self.bits = bits;
        self
    }

    /// Overrides the placement generator family.
    pub fn with_rng(mut self, rng: RngKind) -> Self {
        self.rng = rng;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_model_grounds_bandwidth() {
        let model = crate::diskmodel::DiskModel::cheetah_2001();
        let c = ServerConfig::new(8).with_disk_model(&model, 256 * 1024, 0.5e6);
        assert_eq!(c.disk_bandwidth, model.max_streams(256 * 1024, 0.5e6));
        assert_eq!(c.disk_capacity, model.capacity_blocks(256 * 1024));
        assert!(c.disk_bandwidth > 0);
    }

    #[test]
    fn builder_chain_applies() {
        let c = ServerConfig::new(8)
            .with_bandwidth(16)
            .with_redistribution_bandwidth(2)
            .with_catalog_seed(9)
            .with_bits(Bits::B64)
            .with_rng(RngKind::Pcg64)
            .with_auto_compact(true)
            .with_auto_compact_threshold(2);
        assert_eq!(c.initial_disks, 8);
        assert_eq!(c.disk_bandwidth, 16);
        assert_eq!(c.redistribution_bandwidth, 2);
        assert_eq!(c.catalog_seed, 9);
        assert_eq!(c.bits, Bits::B64);
        assert_eq!(c.rng, RngKind::Pcg64);
        assert!(c.auto_compact);
        assert_eq!(c.auto_compact_threshold, 2);
    }

    #[test]
    fn auto_compaction_defaults_off() {
        let c = ServerConfig::new(4);
        assert!(!c.auto_compact);
        assert_eq!(c.auto_compact_threshold, 0);
    }
}
