//! The score-space mapping of §III-B.
//!
//! Theorem 2 states that under linear scoring functions with preference
//! region vertices `V = {ω_1, …, ω_{d'}}`, `t ≺_F s` iff `SV(t) ⪯ SV(s)`
//! where `SV(t) = (S_{ω_1}(t), …, S_{ω_{d'}}(t))`. Mapping the uncertain
//! dataset into this `d'`-dimensional score space turns the ARSP problem into
//! the all-skyline-probabilities (ASP) problem, which the KDTT/QDTT/B&B
//! algorithms then solve.

use crate::algorithms::kd_asp;
use arsp_data::FlatStore;
use arsp_geometry::fdom::LinearFDominance;
use std::sync::OnceLock;

/// The per-constraint projected scores of the whole dataset as one flat,
/// row-major matrix: row `id` is `SV(t_id)` (length `d' = |V|`), computed in
/// a single streaming pass over the [`FlatStore`]'s contiguous coordinate
/// column. Values are bitwise identical to
/// [`LinearFDominance::map_to_score_space`] on each instance, so score-space
/// dominance over matrix rows decides exactly like `f_dominates` on the
/// original coordinates (Theorem 2). [`crate::engine::ArspEngine`] caches one
/// matrix per distinct vertex set and shares it across LOOP, the KDTT family
/// and B&B.
///
/// The matrix also memoises kd-ASP\*'s zero certificate of its rows
/// ([`kd_asp::zero_certificate`]): the first KDTT-family query over it
/// computes the certificate once, and every later one, on any thread or
/// clone made after that, reuses it. Building a matrix never computes it, so
/// a write that patches matrices forward does not pay for it. The
/// certificate reads the flat store's objects and probabilities as well as
/// the rows, so the store a KDTT-family kernel is given with the matrix
/// must be the one the matrix was computed from (or patched to, for the
/// dynamic engine): a matrix is never shared between stores.
#[derive(Clone, Debug)]
pub struct ScoreMatrix {
    score_dim: usize,
    values: Vec<f64>,
    zero_certificate: OnceLock<Vec<bool>>,
}

impl ScoreMatrix {
    /// Projects every instance of the flat store onto the preference-region
    /// vertices — the one vectorizable `coords · ω` pass. Entry `k` of row
    /// `id` holds the bits of `arsp_geometry::point::score(coords, V[k])`,
    /// the dot product [`LinearFDominance::map_to_score_space_into`] takes,
    /// so B&B reads its best-first key `S_{V[0]}(t)` and its images `SV(t)`
    /// straight from the rows.
    pub fn compute(flat: &FlatStore, fdom: &LinearFDominance) -> Self {
        let score_dim = fdom.num_vertices();
        let n = flat.num_instances();
        let mut values = vec![0.0; n * score_dim];
        for (id, row) in values.chunks_exact_mut(score_dim).enumerate() {
            fdom.map_to_score_space_into(flat.coords_of(id), row);
        }
        Self::from_values(score_dim, values)
    }

    /// Assembles a matrix from precomputed row-major values — the dynamic
    /// engine's patch path: rows surviving a dataset mutation are copied out
    /// of the previous matrix bit-for-bit and only delta rows are freshly
    /// projected, so the patched matrix is bitwise identical to a full
    /// [`ScoreMatrix::compute`] over the new snapshot.
    pub fn from_values(score_dim: usize, values: Vec<f64>) -> Self {
        debug_assert!(score_dim >= 1);
        debug_assert_eq!(values.len() % score_dim, 0);
        Self {
            score_dim,
            values,
            zero_certificate: OnceLock::new(),
        }
    }

    /// Score-space dimensionality `d'`.
    #[inline]
    pub fn score_dim(&self) -> usize {
        self.score_dim
    }

    /// Number of rows (instances).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.values.len() / self.score_dim
    }

    /// The score vector `SV(t_id)` of one instance.
    #[inline]
    pub fn row(&self, id: usize) -> &[f64] {
        &self.values[id * self.score_dim..(id + 1) * self.score_dim]
    }

    /// The whole row-major value array (`num_rows × score_dim`).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The zero certificate of the rows over `flat`, the store this matrix
    /// was computed from: computed on the first call, memoised after (see
    /// the type docs). Empty when it flags no point.
    pub(crate) fn zero_certificate(&self, flat: &FlatStore) -> &[bool] {
        self.zero_certificate.get_or_init(|| {
            let pts = FlatScorePoints::new(flat, self);
            kd_asp::zero_certificate(pts, flat.num_objects(), &mut kd_asp::KdScratch::new())
                .to_vec()
        })
    }
}

/// The columnar view the kd-ASP\* traversal runs over: coordinates as one
/// dim-strided array plus the parallel object/probability columns, all
/// indexed by instance id. Point `id`'s coordinates are
/// `coords[id*dim .. (id+1)*dim]` — `SV(t_id)` for ARSP
/// ([`FlatScorePoints::new`]), the original coordinates for ASP
/// ([`crate::asp`]).
#[derive(Clone, Copy, Debug)]
pub struct FlatScorePoints<'a> {
    /// Coordinate stride (`d'` for score space, `d` for identity points).
    pub dim: usize,
    /// Dim-strided coordinates, indexed by instance id.
    pub coords: &'a [f64],
    /// Owning object of each instance.
    pub objects: &'a [u32],
    /// Existence probability of each instance.
    pub probs: &'a [f64],
}

impl<'a> FlatScorePoints<'a> {
    /// Assembles the view from a cached score matrix and the flat store's
    /// scalar columns.
    pub fn new(flat: &'a FlatStore, scores: &'a ScoreMatrix) -> Self {
        debug_assert_eq!(scores.num_rows(), flat.num_instances());
        Self {
            dim: scores.score_dim(),
            coords: scores.values(),
            objects: flat.objects(),
            probs: flat.probs(),
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` when there are no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Coordinates of one point.
    #[inline]
    pub fn coords_of(&self, id: usize) -> &'a [f64] {
        &self.coords[id * self.dim..(id + 1) * self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsp_data::paper_running_example;
    use arsp_geometry::constraints::WeightRatio;
    use arsp_geometry::fdom::FDominance;
    use arsp_geometry::point::dominates;

    #[test]
    fn mapping_preserves_structure() {
        let d = paper_running_example();
        let fdom = LinearFDominance::from_constraints(
            &WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set(),
        );
        let flat = FlatStore::from_dataset(&d);
        let matrix = ScoreMatrix::compute(&flat, &fdom);
        let view = FlatScorePoints::new(&flat, &matrix);
        assert_eq!(view.len(), d.num_instances());
        assert_eq!(view.dim, fdom.num_vertices());
        for inst in d.instances() {
            assert_eq!(view.objects[inst.id] as usize, inst.object);
            assert_eq!(view.probs[inst.id], inst.prob);
            assert_eq!(view.coords_of(inst.id).len(), fdom.num_vertices());
        }
    }

    #[test]
    fn theorem_2_equivalence_on_example() {
        let d = paper_running_example();
        let fdom = LinearFDominance::from_constraints(
            &WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set(),
        );
        let matrix = ScoreMatrix::compute(&FlatStore::from_dataset(&d), &fdom);
        for a in d.instances() {
            for b in d.instances() {
                let direct = fdom.f_dominates(&a.coords, &b.coords);
                let in_score_space = dominates(matrix.row(a.id), matrix.row(b.id));
                assert_eq!(direct, in_score_space, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn score_matrix_rows_are_bitwise_identical_to_lazy_mapping() {
        let d = paper_running_example();
        let fdom = LinearFDominance::from_constraints(
            &WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set(),
        );
        let flat = FlatStore::from_dataset(&d);
        let matrix = ScoreMatrix::compute(&flat, &fdom);
        assert_eq!(matrix.score_dim(), fdom.num_vertices());
        assert_eq!(matrix.num_rows(), d.num_instances());
        for inst in d.instances() {
            let lazy = fdom.map_to_score_space(&inst.coords);
            let row = matrix.row(inst.id);
            assert_eq!(row.len(), lazy.len());
            for (a, b) in row.iter().zip(&lazy) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let view = FlatScorePoints::new(&flat, &matrix);
        assert_eq!(view.len(), d.num_instances());
        assert!(!view.is_empty());
        assert_eq!(view.coords_of(3), matrix.row(3));
    }
}
