//! Spatial index substrate for the ARSP reproduction.
//!
//! The paper's algorithms lean on four indexing building blocks, all of which
//! are implemented here from scratch:
//!
//! * [`rtree::RTree`] — a static, STR bulk-loaded R-tree over the instance
//!   set `I`. Algorithm 2 (B&B) traverses it in best-first order.
//! * [`aggregate_rtree::AggregateRTree`] — a dynamic R-tree whose nodes carry
//!   the sum of the weights (existence probabilities) stored underneath; it
//!   answers the window queries `σ[j] = Σ_{s ∈ T_j, SV(s) ⪯ SV(t)} p(s)` of
//!   Algorithm 2 and, more generally, weight sums over any *downward-closed*
//!   region (see [`region::DominanceRegion`]).
//! * [`kdtree::KdTree`] — a static median-split kd-tree with per-node weight
//!   aggregates; used by the non-fused KDTT variant and by the eclipse
//!   DUAL-S existence queries.
//! * [`angular::AngularSweepIndex`] — the d = 2 specialisation of §IV-B/§V-D:
//!   instances sorted by angle around a reference instance with per-object
//!   prefix sums, answering (possibly wrapping) angular range queries.
//!
//! For dynamic datasets the [`delta`] module adds the logarithmic-method
//! [`DeltaPolicy`]: when a mutating store compacts its tombstones and
//! appended tail. The indexes themselves are rebuilt per snapshot.
//!
//! The indexes know nothing about uncertain objects or rskyline semantics;
//! they operate on point entries (id, object id, weight, coordinates) and
//! downward-closed query regions. The static trees store their entries in the
//! columnar [`FlatEntries`] layout (one dim-strided coordinate array plus
//! parallel scalar columns) and their node structure in flat arenas whose
//! children are `(start, len)` ranges into a single shared index array — no
//! per-node heap allocations, so traversals stream contiguous memory.

#![deny(unsafe_code)]

pub mod aggregate_rtree;
pub mod angular;
pub mod delta;
pub mod kdtree;
pub mod region;
pub mod rtree;

pub use aggregate_rtree::AggregateRTree;
pub use angular::AngularSweepIndex;
pub use delta::DeltaPolicy;
pub use kdtree::KdTree;
pub use region::{DominanceRegion, FDominatorsOf, WindowTo};
pub use rtree::{NodeContent, NodeId, RTree};

/// A shareable, immutable handle to a bulk-loaded [`RTree`]. The tree is
/// read-only after construction, so a session-level cache can hand the same
/// handle to any number of concurrent queries.
pub type SharedRTree = std::sync::Arc<RTree>;

/// A shareable handle to a per-object forest of [`AggregateRTree`]s (the
/// layout the DUAL algorithm queries: one tree per uncertain object).
pub type SharedAggregateForest = std::sync::Arc<Vec<AggregateRTree>>;

/// A shareable, immutable handle to a bulk-loaded [`KdTree`]. Like
/// [`SharedRTree`], the arena tree is frozen after construction: every node
/// and entry lives in flat arrays that are only ever read, so an MVCC
/// snapshot can hand the same handle to any number of concurrent readers and
/// retire it (drop the arenas) only once the last reader lets go.
pub type SharedKdTree = std::sync::Arc<KdTree>;

/// A point stored in an index: an instance id, the id of the uncertain object
/// it belongs to, its weight (existence probability) and its coordinates.
#[derive(Clone, Debug, PartialEq)]
pub struct PointEntry {
    /// Globally unique instance identifier.
    pub id: usize,
    /// Identifier of the uncertain object the instance belongs to.
    pub object: usize,
    /// Weight associated with the entry (existence probability `p(t)`; 1.0
    /// for certain data).
    pub weight: f64,
    /// Coordinates of the entry.
    pub coords: Vec<f64>,
}

impl PointEntry {
    /// Creates a new entry.
    pub fn new(id: usize, object: usize, weight: f64, coords: Vec<f64>) -> Self {
        Self {
            id,
            object,
            weight,
            coords,
        }
    }

    /// Dimensionality of the entry.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }
}

/// A borrowed view of one entry of a [`FlatEntries`] store — the columnar
/// counterpart of [`PointEntry`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EntryRef<'a> {
    /// Globally unique instance identifier.
    pub id: usize,
    /// Identifier of the owning uncertain object.
    pub object: usize,
    /// Weight (existence probability) of the entry.
    pub weight: f64,
    /// Borrowed coordinates of the entry.
    pub coords: &'a [f64],
}

/// The columnar entry store the static indexes are built over: one contiguous
/// dim-strided coordinate array plus parallel id/object/weight columns. Row
/// `pos` (the *entry position*, the index the tree nodes reference) has
/// coordinates `coords()[pos*dim .. (pos+1)*dim]`.
///
/// Purely a layout change versus `Vec<PointEntry>`: values are copied
/// bit-for-bit, so queries over either representation agree exactly.
#[derive(Clone, Debug, Default)]
pub struct FlatEntries {
    dim: usize,
    ids: Vec<u32>,
    objects: Vec<u32>,
    weights: Vec<f64>,
    coords: Vec<f64>,
}

impl FlatEntries {
    /// Creates an empty store of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            ..Self::default()
        }
    }

    /// Creates an empty store with room for `n` entries.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        Self {
            dim,
            ids: Vec::with_capacity(n),
            objects: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            coords: Vec::with_capacity(n * dim),
        }
    }

    /// Columnarises a row-oriented entry vector (entry order preserved).
    pub fn from_entries(entries: &[PointEntry]) -> Self {
        let dim = entries.first().map_or(0, |e| e.dim());
        let mut flat = Self::with_capacity(dim, entries.len());
        for e in entries {
            flat.push(e.id, e.object, e.weight, &e.coords);
        }
        flat
    }

    /// Appends one entry.
    ///
    /// # Panics
    /// Panics if the coordinates have the wrong dimensionality, or if `id` /
    /// `object` exceed the columnar store's `u32` range (the old
    /// `Vec<PointEntry>` layout stored `usize`; failing fast here beats a
    /// silently wrapped id corrupting result indexing downstream).
    pub fn push(&mut self, id: usize, object: usize, weight: f64, coords: &[f64]) {
        assert_eq!(coords.len(), self.dim, "entry dimensionality mismatch");
        assert!(id <= u32::MAX as usize, "entry id {id} exceeds u32 range");
        assert!(
            object <= u32::MAX as usize,
            "object id {object} exceeds u32 range"
        );
        self.ids.push(id as u32);
        self.objects.push(object as u32);
        self.weights.push(weight);
        self.coords.extend_from_slice(coords);
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the store holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Coordinate stride (dimensionality).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The whole dim-strided coordinate column.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Coordinates of the entry at `pos`.
    #[inline]
    pub fn coords_of(&self, pos: usize) -> &[f64] {
        &self.coords[pos * self.dim..(pos + 1) * self.dim]
    }

    /// Instance id of the entry at `pos`.
    #[inline]
    pub fn id(&self, pos: usize) -> usize {
        self.ids[pos] as usize
    }

    /// Owning object of the entry at `pos`.
    #[inline]
    pub fn object(&self, pos: usize) -> usize {
        self.objects[pos] as usize
    }

    /// Weight of the entry at `pos`.
    #[inline]
    pub fn weight(&self, pos: usize) -> f64 {
        self.weights[pos]
    }

    /// Borrowed view of the entry at `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> EntryRef<'_> {
        EntryRef {
            id: self.id(pos),
            object: self.object(pos),
            weight: self.weight(pos),
            coords: self.coords_of(pos),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::PointEntry;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Deterministic random entries for index tests.
    pub fn random_entries(n: usize, dim: usize, objects: usize, seed: u64) -> Vec<PointEntry> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|id| {
                let coords = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let object = rng.gen_range(0..objects);
                let weight = rng.gen_range(0.01..1.0);
                PointEntry::new(id, object, weight, coords)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_entry_accessors() {
        let e = PointEntry::new(3, 1, 0.5, vec![1.0, 2.0]);
        assert_eq!(e.dim(), 2);
        assert_eq!(e.id, 3);
        assert_eq!(e.object, 1);
        assert_eq!(e.weight, 0.5);
    }

    #[test]
    fn flat_entries_mirror_point_entries() {
        let entries = vec![
            PointEntry::new(7, 2, 0.5, vec![1.0, 2.0]),
            PointEntry::new(3, 0, 0.25, vec![4.0, 5.0]),
        ];
        let flat = FlatEntries::from_entries(&entries);
        assert_eq!(flat.len(), 2);
        assert!(!flat.is_empty());
        assert_eq!(flat.dim(), 2);
        assert_eq!(flat.coords(), &[1.0, 2.0, 4.0, 5.0]);
        for (pos, e) in entries.iter().enumerate() {
            let r = flat.get(pos);
            assert_eq!(r.id, e.id);
            assert_eq!(r.object, e.object);
            assert_eq!(r.weight, e.weight);
            assert_eq!(r.coords, e.coords.as_slice());
        }
        assert!(FlatEntries::from_entries(&[]).is_empty());
        assert_eq!(FlatEntries::new(3).dim(), 3);
    }
}
