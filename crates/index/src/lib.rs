//! Spatial index substrate for the ARSP reproduction.
//!
//! The kernels lean on three indexing building blocks, all implemented here
//! from scratch:
//!
//! * [`rtree::RTree`] — a static, STR bulk-loaded R-tree over the instance
//!   set `I`. Algorithm 2 (B&B) traverses it in best-first order.
//! * [`aggregate_rtree::AggregateRTree`] — a dynamic R-tree whose nodes carry
//!   the sum of the weights (existence probabilities) stored underneath; it
//!   answers the window queries `σ[j] = Σ_{s ∈ T_j, SV(s) ⪯ SV(t)} p(s)` of
//!   Algorithm 2 and DUAL's per-object weight sums over the F-dominance
//!   region of Theorem 5 (see [`region::DominanceRegion`]).
//! * [`kdtree::KdTree`] — a static median-split kd-tree; kd-ASP\* splits
//!   along it, and the eclipse DUAL-S algorithm asks it existence queries.
//!
//! Dynamic datasets rebuild these indexes per snapshot; when a mutating
//! store compacts is its owner's call, not an index concern.
//!
//! The indexes know nothing about uncertain objects or rskyline semantics;
//! they operate on weighted points and downward-closed query regions. The
//! static trees are built over the columnar [`FlatEntries`] layout (one
//! dim-strided coordinate array plus parallel scalar columns) and keep their
//! node structure in flat arenas whose children are `(start, len)` ranges
//! into a single shared index array — no per-node heap allocations, so
//! traversals stream contiguous memory.

#![deny(unsafe_code)]

pub mod aggregate_rtree;
pub mod kdtree;
pub mod region;
pub mod rtree;

pub use aggregate_rtree::AggregateRTree;
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

/// The columnar entry store the static indexes are built over: one contiguous
/// dim-strided coordinate array plus parallel id/weight columns. Row
/// `pos` (the *entry position*, the index the tree nodes reference) has
/// coordinates `coords()[pos*dim .. (pos+1)*dim]`.
///
#[derive(Clone, Debug)]
pub struct FlatEntries {
    dim: usize,
    ids: Vec<u32>,
    weights: Vec<f64>,
    coords: Vec<f64>,
}

impl FlatEntries {
    /// Creates an empty store with room for `n` entries.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        Self {
            dim,
            ids: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            coords: Vec::with_capacity(n * dim),
        }
    }

    /// Appends one entry.
    ///
    /// # Panics
    /// Panics if the coordinates have the wrong dimensionality, or if `id`
    /// exceeds the columnar store's `u32` range (failing fast here beats a
    /// silently wrapped id corrupting result indexing downstream).
    pub fn push(&mut self, id: usize, weight: f64, coords: &[f64]) {
        assert_eq!(coords.len(), self.dim, "entry dimensionality mismatch");
        assert!(id <= u32::MAX as usize, "entry id {id} exceeds u32 range");
        self.ids.push(id as u32);
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

    /// Weight of the entry at `pos`.
    #[inline]
    pub fn weight(&self, pos: usize) -> f64 {
        self.weights[pos]
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::FlatEntries;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Deterministic random entries for index tests; entry `pos` has id
    /// `pos`.
    pub fn random_entries(n: usize, dim: usize, seed: u64) -> FlatEntries {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut entries = FlatEntries::with_capacity(dim, n);
        for id in 0..n {
            let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
            let weight = rng.gen_range(0.01..1.0);
            entries.push(id, weight, &coords);
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_entries_mirror_point_entries() {
        let mut flat = FlatEntries::with_capacity(2, 2);
        assert!(flat.is_empty());
        flat.push(7, 0.5, &[1.0, 2.0]);
        flat.push(3, 0.25, &[4.0, 5.0]);
        assert_eq!(flat.len(), 2);
        assert!(!flat.is_empty());
        assert_eq!(flat.dim(), 2);
        assert_eq!(flat.coords(), &[1.0, 2.0, 4.0, 5.0]);
        let rows = [(7, 0.5, [1.0, 2.0]), (3, 0.25, [4.0, 5.0])];
        for (pos, (id, weight, coords)) in rows.iter().enumerate() {
            assert_eq!(flat.id(pos), *id);
            assert_eq!(flat.weight(pos), *weight);
            assert_eq!(flat.coords_of(pos), coords);
        }
    }
}
