//! Continuous media objects and the server catalog.
//!
//! An object is fully described by `(id, seed, block count)` — per the
//! paper, *no per-block location is ever stored*. The catalog is the
//! directory-free metadata that, together with the scaling log, locates
//! every block in the server.

use scaddar_prng::{Bits, BlockRandoms, RngKind, SeedDeriver};

/// Identifier of a CM object (a movie, an audio track, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "object {}", self.0)
    }
}

/// A reference to one block of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// Owning object.
    pub object: ObjectId,
    /// Block index within the object, `0..blocks`.
    pub block: u64,
}

/// Metadata of one stored object. The seed `s_m` is all that is needed to
/// regenerate the placement of each of its `blocks` blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmObject {
    /// Identifier.
    pub id: ObjectId,
    /// Placement seed `s_m`.
    pub seed: u64,
    /// Number of fixed-size blocks the object is split into.
    pub blocks: u64,
}

/// The server's object catalog: generator family, bit width, per-object
/// seeds. This plus the scaling log is the *entire* placement state.
#[derive(Debug, Clone)]
pub struct Catalog {
    kind: RngKind,
    bits: Bits,
    deriver: SeedDeriver,
    objects: Vec<CmObject>,
    next_id: u64,
}

impl Catalog {
    /// Creates an empty catalog. `catalog_seed` decorrelates the object
    /// seeds of different server instances.
    pub fn new(kind: RngKind, bits: Bits, catalog_seed: u64) -> Self {
        Catalog {
            kind,
            bits,
            deriver: SeedDeriver::new(catalog_seed),
            objects: Vec::new(),
            next_id: 0,
        }
    }

    /// Reconstructs a catalog from persisted parts (see
    /// [`crate::persist`]). `None` unless the ids in `objects` are
    /// strictly ascending (the order a live catalog keeps, which
    /// [`Catalog::object`]'s binary search relies on) and `next_id` is
    /// past the last of them, so ids are never reused after a restore.
    pub fn restore(
        kind: RngKind,
        bits: Bits,
        catalog_seed: u64,
        objects: Vec<CmObject>,
        next_id: u64,
    ) -> Option<Self> {
        let ascending = objects.windows(2).all(|w| w[0].id < w[1].id);
        let below_next = objects.last().is_none_or(|o| o.id.0 < next_id);
        (ascending && below_next).then(|| Catalog {
            kind,
            bits,
            deriver: SeedDeriver::new(catalog_seed),
            objects,
            next_id,
        })
    }

    /// The generator family used for placement.
    pub fn rng_kind(&self) -> RngKind {
        self.kind
    }

    /// The server-wide catalog seed.
    pub fn catalog_seed(&self) -> u64 {
        self.deriver.catalog_seed()
    }

    /// The next object id to be allocated (persisted so restores never
    /// reuse ids).
    pub fn next_object_id(&self) -> u64 {
        self.next_id
    }

    /// The bit width `b` of placement random numbers.
    pub fn bits(&self) -> Bits {
        self.bits
    }

    /// Registers a new object of `blocks` blocks and returns its id.
    pub fn add_object(&mut self, blocks: u64) -> ObjectId {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        let seed = self.deriver.object_seed(id.0);
        self.objects.push(CmObject { id, seed, blocks });
        id
    }

    /// Removes an object (e.g. content retired from the service).
    /// Returns its metadata, or `None` if unknown.
    pub fn remove_object(&mut self, id: ObjectId) -> Option<CmObject> {
        let pos = self.position(id)?;
        Some(self.objects.remove(pos))
    }

    /// Looks up one object: a binary search by id.
    pub fn object(&self, id: ObjectId) -> Option<&CmObject> {
        self.position(id).map(|pos| &self.objects[pos])
    }

    /// Where `id` sits in `objects`. Ids are strictly ascending: new
    /// objects take `next_id`, removal keeps the order, and
    /// [`Catalog::restore`] refuses anything else.
    fn position(&self, id: ObjectId) -> Option<usize> {
        self.objects.binary_search_by_key(&id, |o| o.id).ok()
    }

    /// All stored objects, in ascending id order.
    pub fn objects(&self) -> &[CmObject] {
        &self.objects
    }

    /// Total number of blocks across the catalog (`B` in the paper).
    pub fn total_blocks(&self) -> u64 {
        self.objects.iter().map(|o| o.blocks).sum()
    }

    /// A catalog with the same objects (ids, block counts, id
    /// allocation) but every object seed re-derived from `new_seed` —
    /// the content side of opening a new placement *generation*: the
    /// same library, fresh `X_0` sequences.
    pub fn reseeded(&self, new_seed: u64) -> Catalog {
        let deriver = SeedDeriver::new(new_seed);
        let objects = self
            .objects
            .iter()
            .map(|o| CmObject {
                id: o.id,
                seed: deriver.object_seed(o.id.0),
                blocks: o.blocks,
            })
            .collect();
        Catalog {
            kind: self.kind,
            bits: self.bits,
            deriver,
            objects,
            next_id: self.next_id,
        }
    }

    /// The random sequence `p_r(s_m)` of an object.
    pub fn randoms(&self, object: &CmObject) -> BlockRandoms {
        BlockRandoms::new(self.kind, object.seed, self.bits)
    }

    /// `X_0` for one block of one object.
    pub fn x0(&self, object: &CmObject, block: u64) -> u64 {
        self.randoms(object).value_at(block)
    }

    /// Iterates `(BlockRef, X_0)` over every block of every object, in
    /// catalog order. The workhorse of full-scan operations (initial
    /// load, redistribution planning, load censuses).
    pub fn iter_x0(&self) -> impl Iterator<Item = (BlockRef, u64)> + '_ {
        self.objects.iter().flat_map(move |obj| {
            let seq = self.randoms(obj);
            (0..obj.blocks).map(move |block| {
                (
                    BlockRef {
                        object: obj.id,
                        block,
                    },
                    seq.value_at(block),
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn catalog() -> Catalog {
        Catalog::new(RngKind::SplitMix64, Bits::B32, 99)
    }

    /// The linear scan the binary search replaced.
    fn linear(c: &Catalog, id: ObjectId) -> Option<&CmObject> {
        c.objects().iter().find(|o| o.id == id)
    }

    proptest! {
        /// Over any history of additions and removals, the binary
        /// search finds exactly what a linear scan finds, for present,
        /// removed and never-allocated ids alike.
        #[test]
        fn prop_object_lookup_matches_linear_scan(
            ops in proptest::collection::vec((any::<bool>(), 0u64..40, 1u64..50), 0..60),
        ) {
            let mut c = catalog();
            for (add, pick, blocks) in ops {
                if add || c.objects().is_empty() {
                    c.add_object(blocks);
                } else {
                    let id = c.objects()[(pick % c.objects().len() as u64) as usize].id;
                    let expected = *linear(&c, id).unwrap();
                    prop_assert_eq!(c.remove_object(id), Some(expected));
                    prop_assert_eq!(c.remove_object(id), None);
                }
                for id in (0..c.next_object_id() + 2).map(ObjectId) {
                    prop_assert_eq!(c.object(id), linear(&c, id));
                }
            }
        }
    }

    #[test]
    fn restore_requires_ascending_ids_below_next_id() {
        let obj = |id| CmObject {
            id: ObjectId(id),
            seed: id,
            blocks: 1,
        };
        let restore = |objects: Vec<CmObject>, next_id| {
            Catalog::restore(RngKind::SplitMix64, Bits::B32, 1, objects, next_id)
        };
        assert!(restore(vec![], 0).is_some());
        assert!(restore(vec![obj(1), obj(4)], 5).is_some());
        assert!(restore(vec![obj(0), obj(0)], 5).is_none(), "repeated id");
        assert!(restore(vec![obj(3), obj(1)], 5).is_none(), "descending ids");
        assert!(restore(vec![obj(1), obj(4)], 4).is_none(), "next_id reused");
    }

    #[test]
    fn ids_are_sequential_and_stable_after_removal() {
        let mut c = catalog();
        let a = c.add_object(10);
        let b = c.add_object(20);
        assert_eq!((a, b), (ObjectId(0), ObjectId(1)));
        c.remove_object(a).unwrap();
        let d = c.add_object(5);
        assert_eq!(d, ObjectId(2), "ids must never be reused");
        assert!(c.object(a).is_none());
        assert_eq!(c.object(b).unwrap().blocks, 20);
    }

    #[test]
    fn seeds_differ_between_objects() {
        let mut c = catalog();
        let a = c.add_object(1);
        let b = c.add_object(1);
        assert_ne!(c.object(a).unwrap().seed, c.object(b).unwrap().seed);
    }

    #[test]
    fn iter_x0_covers_every_block_once() {
        let mut c = catalog();
        c.add_object(3);
        c.add_object(2);
        let pairs: Vec<_> = c.iter_x0().collect();
        assert_eq!(pairs.len(), 5);
        let refs: std::collections::HashSet<_> = pairs.iter().map(|(r, _)| *r).collect();
        assert_eq!(refs.len(), 5);
        assert_eq!(c.total_blocks(), 5);
    }

    #[test]
    fn reseeding_keeps_content_and_changes_placement() {
        let mut c = catalog();
        let a = c.add_object(10);
        let b = c.add_object(20);
        c.remove_object(a).unwrap();
        let r = c.reseeded(0xDEAD_BEEF);
        // Same library: ids, block counts, and id allocation survive.
        assert!(r.object(a).is_none());
        assert_eq!(r.object(b).unwrap().blocks, 20);
        assert_eq!(r.next_object_id(), c.next_object_id());
        assert_eq!(r.catalog_seed(), 0xDEAD_BEEF);
        // Fresh placement: seeds differ, and so do the X_0 streams.
        assert_ne!(r.object(b).unwrap().seed, c.object(b).unwrap().seed);
        assert_ne!(r.x0(r.object(b).unwrap(), 0), c.x0(c.object(b).unwrap(), 0));
        // New objects in the reseeded catalog derive from the new seed.
        let mut r2 = r.clone();
        let mut fresh = Catalog::new(c.rng_kind(), c.bits(), 0xDEAD_BEEF);
        fresh.add_object(10);
        fresh.add_object(20);
        let d = r2.add_object(5);
        let mut fresh2 = fresh.clone();
        assert_eq!(fresh2.add_object(5), d);
        assert_eq!(r2.object(d).unwrap().seed, fresh2.object(d).unwrap().seed);
        // Reseeding is idempotent in distribution: same seed, same result.
        assert_eq!(c.reseeded(0xDEAD_BEEF).objects(), r.objects());
    }

    #[test]
    fn x0_matches_iter_and_is_reproducible() {
        let mut c = catalog();
        let id = c.add_object(64);
        let obj = *c.object(id).unwrap();
        for (blockref, x0) in c.iter_x0() {
            assert_eq!(c.x0(&obj, blockref.block), x0);
        }
        // A freshly constructed identical catalog yields the same values.
        let mut c2 = catalog();
        let id2 = c2.add_object(64);
        let obj2 = *c2.object(id2).unwrap();
        assert_eq!(c.x0(&obj, 17), c2.x0(&obj2, 17));
    }
}
