//! The three workloads and the seeded generators for everything the
//! server receives: the catalog, the playback request stream and the
//! operator script. The same seed always yields the same inputs.

use scaddar_core::ScalingOp;
use scaddar_prng::{IndexedRng, SeededRng, SplitMix64};

/// Disks every workload starts with.
pub const INITIAL_DISKS: u32 = 8;
/// Blocks in one playback window (`LocateBatch`).
pub const WINDOW_BLOCKS: u64 = 16;
/// One request in this many is a single-block seek (`Locate`).
pub const SEEK_ONE_IN: u64 = 8;
/// Scaling operations in one operator script.
pub const SCALE_OPS: usize = 4;
/// Requests per session folded into the input digest.
pub const DIGEST_REQUESTS: usize = 4096;

/// One workload: a catalog, a load shape and an operator script shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Objects in the catalog.
    pub objects: u64,
    /// Blocks per object.
    pub blocks_per_object: u64,
    /// Lookup threads, one connection each.
    pub lookup_threads: usize,
    /// Frames each lookup connection keeps in flight (1 = closed loop).
    pub window: usize,
    /// The paper's reorganization scenario: playback streams open up to
    /// the admission limit, the default redistribution bandwidth, the
    /// lookups running while the script scales and then compacts. A
    /// lookup workload has no streams and unbounded bandwidth, and its
    /// script compacts first, so the lookups that follow it meet a
    /// non-empty REMAP chain.
    pub reorganize: bool,
    /// Nominal seconds of one repetition (script, lookups, restarts):
    /// a run of `s` seconds has `ceil(s / rep_seconds)` of them.
    pub rep_seconds: f64,
}

impl Workload {
    /// Blocks in the catalog.
    pub fn total_blocks(&self) -> u64 {
        self.objects * self.blocks_per_object
    }

    /// Per-disk redistribution bandwidth (blocks per round): the
    /// server's default under reorganization, otherwise unbounded so
    /// every move lands in one round.
    pub fn redistribution_bandwidth(&self) -> u32 {
        if self.reorganize {
            4
        } else {
            u32::MAX / 2
        }
    }
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lookup_closed",
        objects: 64,
        blocks_per_object: 4_096,
        lookup_threads: 2,
        window: 1,
        reorganize: false,
        rep_seconds: 2.0,
    },
    Workload {
        name: "lookup_pipelined",
        objects: 64,
        blocks_per_object: 4_096,
        lookup_threads: 2,
        window: 64,
        reorganize: false,
        rep_seconds: 2.0,
    },
    Workload {
        name: "reorganize",
        objects: 32,
        blocks_per_object: 2_048,
        lookup_threads: 1,
        window: 1,
        reorganize: true,
        rep_seconds: 2.5,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Independent sub-seeds of the run seed, one per input stream.
pub mod stream_id {
    /// The catalog seed handed to the server.
    pub const CATALOG: u64 = 1;
    /// Stream start positions.
    pub const STREAMS: u64 = 2;
    /// Recovery probe blocks.
    pub const RECOVERY: u64 = 3;
    /// Replay and probe requests of the traced run.
    pub const PROBE: u64 = 4;
    /// Lookup session `i` uses `SESSION + i`.
    pub const SESSION: u64 = 1_000;
    /// Operator script of repetition `r` uses `SCRIPT + r`.
    pub const SCRIPT: u64 = 2_000;
}

/// The sub-seed for input stream `stream` of run seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::value_at(seed, stream)
}

/// A small seeded generator for the benchmark's own choices.
#[derive(Debug, Clone)]
pub struct Rng(SplitMix64);

impl Rng {
    /// A generator for input stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(SplitMix64::from_seed(sub_seed(seed, stream)))
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }
}

/// One lookup request of a playback session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Single-block `Locate` (a seek).
    Seek {
        /// Object id.
        object: u64,
        /// Block within the object.
        block: u64,
    },
    /// `LocateBatch` of consecutive blocks (the playback window).
    Window {
        /// Object id.
        object: u64,
        /// First block.
        start: u64,
        /// Blocks in the window.
        len: u64,
    },
}

impl Request {
    /// The block numbers this request asks for.
    pub fn blocks(&self) -> std::ops::Range<u64> {
        match *self {
            Request::Seek { block, .. } => block..block + 1,
            Request::Window { start, len, .. } => start..start + len,
        }
    }

    /// The object this request reads.
    pub fn object(&self) -> u64 {
        match *self {
            Request::Seek { object, .. } | Request::Window { object, .. } => object,
        }
    }
}

/// A playback session: plays consecutive windows and sometimes seeks to
/// a uniformly random block of a uniformly random object.
#[derive(Debug, Clone)]
pub struct Session {
    rng: Rng,
    objects: u64,
    blocks: u64,
    object: u64,
    cursor: u64,
}

impl Session {
    /// Session `index` of a run with seed `seed` over `w`'s catalog.
    pub fn new(seed: u64, index: u64, w: &Workload) -> Self {
        let mut rng = Rng::new(seed, stream_id::SESSION + index);
        let object = rng.below(w.objects);
        let cursor = rng.below(w.blocks_per_object);
        Session {
            rng,
            objects: w.objects,
            blocks: w.blocks_per_object,
            object,
            cursor,
        }
    }

    /// The session's next request.
    pub fn next_request(&mut self) -> Request {
        if self.rng.below(SEEK_ONE_IN) == 0 {
            self.object = self.rng.below(self.objects);
            let block = self.rng.below(self.blocks);
            self.cursor = block + 1;
            return Request::Seek {
                object: self.object,
                block,
            };
        }
        if self.cursor + WINDOW_BLOCKS > self.blocks {
            self.cursor = 0;
            self.object = (self.object + 1) % self.objects;
        }
        let start = self.cursor;
        self.cursor += WINDOW_BLOCKS;
        Request::Window {
            object: self.object,
            start,
            len: WINDOW_BLOCKS,
        }
    }
}

/// One step of the operator script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `Scale` over the wire, then `Tick` until the backlog is 0.
    Scale(ScalingOp),
    /// `Compact` over the wire, then `Tick` until the generation flips.
    Compact,
}

/// The operator script of repetition `rep`, starting at `disks` disks:
/// two single-disk additions and two single-disk removals in a seeded
/// order that never drops below `disks` (the size the streams were
/// admitted at), with seeded victims, plus one compaction first or
/// last. Every script moves about the same number of blocks, so seeds
/// change which blocks move, not how much work a run does.
pub fn script(seed: u64, rep: u64, disks: u32, compact_first: bool) -> Vec<Step> {
    let mut rng = Rng::new(seed, stream_id::SCRIPT + rep);
    let mut n = disks;
    let (mut adds, mut removes) = (SCALE_OPS / 2, SCALE_OPS / 2);
    let mut steps = Vec::with_capacity(SCALE_OPS + 1);
    if compact_first {
        steps.push(Step::Compact);
    }
    while adds + removes > 0 {
        let add = removes == 0 || (adds > 0 && (n == disks || rng.below(2) == 0));
        let op = if add {
            adds -= 1;
            ScalingOp::Add { count: 1 }
        } else {
            removes -= 1;
            ScalingOp::Remove {
                disks: vec![rng.below(u64::from(n)) as u32],
            }
        };
        n = op.disks_after(n).expect("generated ops stay valid");
        steps.push(Step::Scale(op));
    }
    if !compact_first {
        steps.push(Step::Compact);
    }
    steps
}

/// 64-bit FNV-1a, the digest of the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `v` in.
    pub fn add(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Digest of everything the server receives for `(w, seed)`: the
/// catalog, the first repetition's operator script and the first
/// [`DIGEST_REQUESTS`] requests of every lookup session.
pub fn input_digest(w: &Workload, seed: u64) -> u64 {
    let mut d = Digest::default();
    d.add(sub_seed(seed, stream_id::CATALOG));
    d.add(w.objects);
    d.add(w.blocks_per_object);
    for step in script(seed, 0, INITIAL_DISKS, !w.reorganize) {
        match step {
            Step::Compact => d.add(u64::MAX),
            Step::Scale(ScalingOp::Add { count }) => {
                d.add(1);
                d.add(u64::from(count));
            }
            Step::Scale(ScalingOp::Remove { disks }) => {
                d.add(2);
                disks.iter().for_each(|&x| d.add(u64::from(x)));
            }
        }
    }
    for i in 0..w.lookup_threads as u64 {
        let mut session = Session::new(seed, i, w);
        for _ in 0..DIGEST_REQUESTS {
            let r = session.next_request();
            d.add(r.object());
            let blocks = r.blocks();
            d.add(blocks.start);
            d.add(blocks.end);
        }
    }
    d.value()
}
