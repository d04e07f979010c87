//! The flat columnar instance store.
//!
//! Every hot loop of the ARSP algorithms streams instance coordinates and
//! per-instance scalars. [`crate::UncertainDataset`] stores one heap-allocated
//! `Vec<f64>` per [`crate::Instance`], so those loops chase a pointer per
//! instance and the allocator decides the memory layout. [`FlatStore`] is the
//! cache-friendly twin: one contiguous, dim-strided coordinate array plus
//! parallel columns for the existence probabilities and owning objects. It is
//! built once per dataset (the engine caches it) and is purely a *layout*
//! change — every value is copied bit-for-bit from the dataset, so algorithms
//! running over the flat store produce results bitwise identical to the
//! `Instance`-based paths.

use crate::dataset::UncertainDataset;
use std::ops::Range;

/// A column-oriented snapshot of an [`UncertainDataset`]: coordinates in one
/// dim-strided array, probabilities and object ids in parallel columns, and
/// the per-object instance ranges. Instance `id`'s coordinates are
/// `coords()[id*dim .. (id+1)*dim]` — ids are the dataset's dense instance
/// ids, so flat results index exactly like `Instance`-based results.
#[derive(Clone, Debug)]
pub struct FlatStore {
    dim: usize,
    coords: Vec<f64>,
    probs: Vec<f64>,
    objects: Vec<u32>,
    /// `object_start[j]..object_start[j+1]` is the instance-id range of
    /// object `j` (instances of one object are contiguous by construction of
    /// [`UncertainDataset::push_object`]).
    object_start: Vec<u32>,
}

impl FlatStore {
    /// Builds the columnar layout from a dataset. `O(n·d)` copies, no other
    /// work.
    pub fn from_dataset(dataset: &UncertainDataset) -> Self {
        let dim = dataset.dim();
        let n = dataset.num_instances();
        let m = dataset.num_objects();
        let mut coords = Vec::with_capacity(n * dim);
        let mut probs = Vec::with_capacity(n);
        let mut objects = Vec::with_capacity(n);
        for inst in dataset.instances() {
            coords.extend_from_slice(&inst.coords);
            probs.push(inst.prob);
            objects.push(inst.object as u32);
        }
        let mut object_start = Vec::with_capacity(m + 1);
        object_start.push(0u32);
        for obj in dataset.objects() {
            let start = *object_start.last().expect("seeded with 0") as usize;
            // Instance ids of one object are the contiguous range the pushes
            // assigned; the zip below asserts that invariant holds.
            for (k, &id) in obj.instance_ids.iter().enumerate() {
                debug_assert_eq!(id, start + k, "object instances must be contiguous");
            }
            object_start.push((start + obj.instance_ids.len()) as u32);
        }
        debug_assert_eq!(*object_start.last().unwrap() as usize, n);
        Self {
            dim,
            coords,
            probs,
            objects,
            object_start,
        }
    }

    /// Assembles a flat store directly from its columns — the constructor
    /// [`crate::VersionedStore::snapshot_flat`] uses to materialise a
    /// canonical snapshot without an intermediate [`UncertainDataset`]. The
    /// caller guarantees the canonical layout: instances of one object
    /// contiguous, `object_start` the cumulative instance counts.
    ///
    /// # Panics
    /// Debug-asserts the structural invariants; release builds trust the
    /// caller (the versioned store is the only producer).
    pub fn from_parts(
        dim: usize,
        coords: Vec<f64>,
        probs: Vec<f64>,
        objects: Vec<u32>,
        object_start: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(coords.len(), probs.len() * dim);
        debug_assert_eq!(objects.len(), probs.len());
        debug_assert_eq!(object_start.first().copied(), Some(0));
        debug_assert_eq!(
            object_start.last().copied().unwrap_or(0) as usize,
            probs.len()
        );
        debug_assert!(objects
            .iter()
            .enumerate()
            .all(|(id, &obj)| (object_start[obj as usize] as usize
                ..object_start[obj as usize + 1] as usize)
                .contains(&id)));
        Self {
            dim,
            coords,
            probs,
            objects,
            object_start,
        }
    }

    /// Dataset dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of instances `n`.
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.probs.len()
    }

    /// Number of uncertain objects `m`.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.object_start.len() - 1
    }

    /// The whole dim-strided coordinate column.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Coordinates of one instance.
    #[inline]
    pub fn coords_of(&self, id: usize) -> &[f64] {
        &self.coords[id * self.dim..(id + 1) * self.dim]
    }

    /// Existence probability column (indexed by instance id).
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Existence probability of one instance.
    #[inline]
    pub fn prob(&self, id: usize) -> f64 {
        self.probs[id]
    }

    /// Owning-object column (indexed by instance id).
    #[inline]
    pub fn objects(&self) -> &[u32] {
        &self.objects
    }

    /// Owning object of one instance.
    #[inline]
    pub fn object_of(&self, id: usize) -> usize {
        self.objects[id] as usize
    }

    /// The contiguous instance-id range of one object.
    #[inline]
    pub fn object_instances(&self, object: usize) -> Range<usize> {
        self.object_start[object] as usize..self.object_start[object + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_running_example;

    #[test]
    fn flat_store_mirrors_the_dataset_bit_for_bit() {
        let d = paper_running_example();
        let flat = FlatStore::from_dataset(&d);
        assert_eq!(flat.dim(), d.dim());
        assert_eq!(flat.num_instances(), d.num_instances());
        assert_eq!(flat.num_objects(), d.num_objects());
        assert_eq!(flat.coords().len(), d.num_instances() * d.dim());
        for inst in d.instances() {
            assert_eq!(flat.coords_of(inst.id), inst.coords.as_slice());
            assert_eq!(flat.prob(inst.id).to_bits(), inst.prob.to_bits());
            assert_eq!(flat.object_of(inst.id), inst.object);
        }
    }

    #[test]
    fn object_ranges_cover_exactly_the_objects_instances() {
        let d = paper_running_example();
        let flat = FlatStore::from_dataset(&d);
        let mut covered = 0;
        for obj in d.objects() {
            let range = flat.object_instances(obj.id);
            assert_eq!(range.len(), obj.num_instances());
            for id in range {
                assert_eq!(flat.object_of(id), obj.id);
                assert!(obj.instance_ids.contains(&id));
                covered += 1;
            }
        }
        assert_eq!(covered, d.num_instances());
    }

    #[test]
    fn empty_dataset_flattens_to_empty_columns() {
        let d = UncertainDataset::new(3);
        let flat = FlatStore::from_dataset(&d);
        assert_eq!(flat.num_instances(), 0);
        assert_eq!(flat.num_objects(), 0);
        assert!(flat.coords().is_empty());
    }
}
