//! F-dominance tests.
//!
//! Given the preference region `Ω` (a set of linear scoring functions), an
//! instance `t` *F-dominates* `s` when `S_ω(t) ≤ S_ω(s)` for every `ω ∈ Ω`.
//! The paper provides three ways to decide this:
//!
//! * **Theorem 2 (vertex-based test)** — compare the scores under the vertex
//!   set `V` of `Ω`; implemented by [`LinearFDominance`]. Cost `O(d·d')`.
//! * **Theorem 5 (weight-ratio test)** — for weight ratio constraints the
//!   test collapses to a single `O(d)` expression; implemented by
//!   [`WeightRatioFDominance`].
//! * **LP-based test** — solve problem (4) directly; implemented by
//!   [`LpFDominance`] and used as the reference oracle in tests.
//!
//! All tests share the [`FDominance`] trait so the algorithms in `arsp-core`
//! can be written once and exercised with any of them.
//!
//! Coordinate-identical instances F-dominate each other under the paper's
//! definition (`t ≺_F s` only requires `s ≠ t` *as instances*, not distinct
//! coordinates); the implementations below are therefore reflexive at the
//! coordinate level and instance identity is handled by the algorithms.

use crate::constraints::{ConstraintSet, WeightRatio};
use crate::polytope::{preference_region_vertices, score_vector};

/// A decision procedure for the F-dominance relation `t ≺_F s`.
pub trait FDominance {
    /// Returns `true` when `t` F-dominates `s`, i.e. `S_ω(t) ≤ S_ω(s)` for
    /// every scoring function in `F`.
    fn f_dominates(&self, t: &[f64], s: &[f64]) -> bool;

    /// Dataset dimensionality the test operates on.
    fn dim(&self) -> usize;
}

/// Vertex-based F-dominance test (Theorem 2) for linear scoring functions
/// whose weights satisfy arbitrary linear constraints.
#[derive(Clone, Debug)]
pub struct LinearFDominance {
    dim: usize,
    vertices: Vec<Vec<f64>>,
}

impl LinearFDominance {
    /// Builds the test from a constraint set by enumerating the vertices of
    /// the preference region.
    ///
    /// # Panics
    /// Panics if the preference region is empty (an empty `F` would make
    /// every pair of instances mutually dominating, which the paper rules
    /// out).
    pub fn from_constraints(constraints: &ConstraintSet) -> Self {
        let vertices = preference_region_vertices(constraints);
        assert!(
            !vertices.is_empty(),
            "the preference region is empty; no scoring function satisfies the constraints"
        );
        Self {
            dim: constraints.dim(),
            vertices,
        }
    }

    /// Dataset dimensionality the test was built for (the length of every
    /// vertex).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The vertex set `V` of the preference region.
    pub fn vertices(&self) -> &[Vec<f64>] {
        &self.vertices
    }

    /// Number of vertices `d' = |V|` (the dimensionality of the score space).
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Maps an instance into the score space: `SV(t) = (S_{ω_1}(t), …)`.
    ///
    /// Theorem 2 implies `t ≺_F s ⇔ SV(t) ⪯ SV(s)`, which is what the
    /// KDTT/QDTT/B&B algorithms exploit.
    pub fn map_to_score_space(&self, coords: &[f64]) -> Vec<f64> {
        score_vector(coords, &self.vertices)
    }

    /// Allocation-free variant of [`LinearFDominance::map_to_score_space`]:
    /// writes `SV(t)` into a caller-owned buffer of length
    /// [`LinearFDominance::num_vertices`]. Values are bitwise identical to the
    /// allocating variant (same per-vertex dot product, same order), which is
    /// what lets the flat columnar paths precompute score matrices that agree
    /// exactly with lazily mapped points.
    ///
    /// # Panics
    /// Panics if `out.len() != self.num_vertices()`.
    pub fn map_to_score_space_into(&self, coords: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.vertices.len(), "score buffer length");
        for (o, omega) in out.iter_mut().zip(&self.vertices) {
            *o = crate::point::score(coords, omega);
        }
    }
}

impl FDominance for LinearFDominance {
    fn f_dominates(&self, t: &[f64], s: &[f64]) -> bool {
        debug_assert_eq!(t.len(), self.dim);
        debug_assert_eq!(s.len(), self.dim);
        self.vertices.iter().all(|omega| {
            let st: f64 = omega.iter().zip(t).map(|(w, x)| w * x).sum();
            let ss: f64 = omega.iter().zip(s).map(|(w, x)| w * x).sum();
            st <= ss
        })
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

/// The `O(d)` F-dominance test of Theorem 5 for weight ratio constraints.
///
/// `t ≺_F s` iff
/// `t[d] − s[d] ≤ Σ_{i<d} (l_i if s[i] > t[i] else h_i)·(s[i] − t[i])`.
#[derive(Clone, Debug)]
pub struct WeightRatioFDominance {
    ratio: WeightRatio,
}

impl WeightRatioFDominance {
    /// Creates the test from weight ratio constraints.
    pub fn new(ratio: WeightRatio) -> Self {
        Self { ratio }
    }
}

impl FDominance for WeightRatioFDominance {
    fn f_dominates(&self, t: &[f64], s: &[f64]) -> bool {
        let d = self.dim();
        debug_assert_eq!(t.len(), d);
        debug_assert_eq!(s.len(), d);
        // Minimise h'(r) = Σ_{i<d} (s[i]−t[i])·r[i] + s[d]−t[d] over the box;
        // the minimiser picks l_i when the coefficient is positive and h_i
        // otherwise (Lemma 1 / Theorem 5).  t ≺_F s iff the minimum is ≥ 0.
        let mut rhs = 0.0;
        for (i, &(l, h)) in self.ratio.ranges().iter().enumerate() {
            let diff = s[i] - t[i];
            let r = if diff > 0.0 { l } else { h };
            rhs += r * diff;
        }
        t[d - 1] - s[d - 1] <= rhs
    }

    fn dim(&self) -> usize {
        self.ratio.dim()
    }
}

/// LP-based reference F-dominance test: solves problem (4) of the paper
/// directly. Slow; used only to cross-validate the other tests.
#[derive(Clone, Debug)]
pub struct LpFDominance {
    constraints: ConstraintSet,
}

impl LpFDominance {
    /// Creates the reference test from a constraint set.
    pub fn new(constraints: ConstraintSet) -> Self {
        Self { constraints }
    }
}

impl FDominance for LpFDominance {
    fn f_dominates(&self, t: &[f64], s: &[f64]) -> bool {
        // t ≺_F s  ⇔  min_{ω∈Ω} Σ_i (s[i] − t[i])·ω[i] ≥ 0.
        let objective: Vec<f64> = s.iter().zip(t).map(|(si, ti)| si - ti).collect();
        match self.constraints.minimize_over_region(&objective) {
            crate::lp::LpOutcome::Optimal { objective, .. } => objective >= -1e-9,
            // Infeasible regions are rejected at construction elsewhere;
            // treat them conservatively as "no dominance".
            _ => false,
        }
    }

    fn dim(&self) -> usize {
        self.constraints.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The running example of the paper (Example 1 / Fig. 1):
    /// `F = {ω1·x1 + ω2·x2 | 0.5·ω2 ≤ ω1 ≤ 2·ω2}`, i.e. the ratio
    /// `ω1/ω2 ∈ [0.5, 2]`.
    fn example_ratio() -> WeightRatio {
        WeightRatio::uniform(2, 0.5, 2.0)
    }

    fn example_linear() -> LinearFDominance {
        LinearFDominance::from_constraints(&example_ratio().to_constraint_set())
    }

    #[test]
    fn vertex_based_matches_plain_dominance_when_unconstrained() {
        // With the whole simplex, F-dominance of linear functions is exactly
        // coordinate-wise dominance.
        let f = LinearFDominance::from_constraints(&ConstraintSet::new(3));
        assert!(f.f_dominates(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]));
        assert!(!f.f_dominates(&[1.0, 3.0, 1.0], &[2.0, 2.0, 2.0]));
        assert!(f.f_dominates(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]));
    }

    #[test]
    fn constrained_dominance_is_weaker_requirement() {
        // Under WR constraints a point may F-dominate another even when it
        // does not dominate it coordinate-wise.
        let cs = ConstraintSet::weak_ranking(2, 1); // ω1 ≥ ω2
        let f = LinearFDominance::from_constraints(&cs);
        // t = (1, 4), s = (2, 3.5): not coordinate-dominant, but under both
        // vertices (1,0) → 1 ≤ 2 and (0.5,0.5) → 2.5 ≤ 2.75.
        assert!(f.f_dominates(&[1.0, 4.0], &[2.0, 3.5]));
        assert!(!f.f_dominates(&[2.0, 3.5], &[1.0, 4.0]));
    }

    #[test]
    fn weight_ratio_test_matches_vertex_test_on_example() {
        let wr = WeightRatioFDominance::new(example_ratio());
        let lin = example_linear();
        let pts = [
            vec![2.0, 9.0],
            vec![3.0, 4.0],
            vec![9.0, 12.0],
            vec![6.0, 12.0],
            vec![8.0, 3.0],
            vec![11.0, 8.0],
            vec![4.0, 4.0],
        ];
        for a in &pts {
            for b in &pts {
                assert_eq!(
                    wr.f_dominates(a, b),
                    lin.f_dominates(a, b),
                    "disagreement on {a:?} ≺F {b:?}"
                );
            }
        }
    }

    #[test]
    fn lp_reference_agrees_with_vertex_test() {
        let cs = ConstraintSet::weak_ranking(3, 2);
        let lin = LinearFDominance::from_constraints(&cs);
        let lp = LpFDominance::new(cs);
        let pts = [
            vec![0.1, 0.5, 0.9],
            vec![0.4, 0.4, 0.4],
            vec![0.2, 0.9, 0.1],
            vec![0.9, 0.1, 0.2],
        ];
        for a in &pts {
            for b in &pts {
                assert_eq!(
                    lin.f_dominates(a, b),
                    lp.f_dominates(a, b),
                    "disagreement on {a:?} ≺F {b:?}"
                );
            }
        }
    }

    #[test]
    fn score_space_mapping_preserves_dominance() {
        let lin = example_linear();
        let a = [3.0, 4.0];
        let b = [9.0, 12.0];
        let sa = lin.map_to_score_space(&a);
        let sb = lin.map_to_score_space(&b);
        assert_eq!(sa.len(), lin.num_vertices());
        assert_eq!(lin.f_dominates(&a, &b), crate::point::dominates(&sa, &sb));
    }

    #[test]
    fn map_into_is_bitwise_identical_to_allocating_map() {
        let lin = example_linear();
        let pts = [[2.0, 9.0], [3.0, 4.0], [9.0, 12.0], [11.0, 8.0]];
        let mut buf = vec![0.0; lin.num_vertices()];
        for p in &pts {
            lin.map_to_score_space_into(p, &mut buf);
            assert_eq!(buf, lin.map_to_score_space(p));
        }
    }

    #[test]
    fn paper_example_relationships() {
        // From Example 3: t3,1 = (6, 12) and t3,2 ≈ (3, 13)?  The figure is
        // not fully specified, so we verify only the relationships the paper
        // states explicitly with coordinates we can infer:
        // t2,3 = (9, 12); t3,3 = (11, 8) lies on h_{t2,3,1} hence t3,3 ≺F t2,3;
        // t3,1 = (6, 12) lies below h_{t2,3,0} hence t3,1 ≺F t2,3.
        let wr = WeightRatioFDominance::new(example_ratio());
        let t23 = [9.0, 12.0];
        assert!(wr.f_dominates(&[11.0, 8.0], &t23));
        assert!(wr.f_dominates(&[6.0, 12.0], &t23));
        assert!(!wr.f_dominates(&t23, &[6.0, 12.0]));
    }

    #[test]
    #[should_panic]
    fn empty_preference_region_panics() {
        let mut cs = ConstraintSet::new(2);
        cs.push(crate::constraints::LinearConstraint::new(
            vec![1.0, 1.0],
            -5.0,
        ));
        let _ = LinearFDominance::from_constraints(&cs);
    }

    proptest! {
        /// Theorem 5's O(d) test must agree with the vertex-based test of
        /// Theorem 2 on random points and random ratio boxes.
        #[test]
        fn ratio_test_agrees_with_vertex_test(
            coords in proptest::collection::vec(
                proptest::collection::vec(0.0f64..10.0, 3), 2),
            l1 in 0.1f64..1.0, span1 in 0.0f64..3.0,
            l2 in 0.1f64..1.0, span2 in 0.0f64..3.0,
        ) {
            let ratio = WeightRatio::new(vec![(l1, l1 + span1), (l2, l2 + span2)]);
            let wr = WeightRatioFDominance::new(ratio.clone());
            let lin = LinearFDominance::from_constraints(&ratio.to_constraint_set());
            let (a, b) = (&coords[0], &coords[1]);
            prop_assert_eq!(wr.f_dominates(a, b), lin.f_dominates(a, b));
            prop_assert_eq!(wr.f_dominates(b, a), lin.f_dominates(b, a));
        }

        /// F-dominance under any constraint set is implied by coordinate-wise
        /// dominance (all scoring functions are monotone), and the vertex test
        /// agrees with the LP reference.
        #[test]
        fn coordinate_dominance_implies_f_dominance(
            a in proptest::collection::vec(0.0f64..10.0, 3),
            delta in proptest::collection::vec(0.0f64..5.0, 3),
            c in 1usize..3,
        ) {
            let b: Vec<f64> = a.iter().zip(&delta).map(|(x, d)| x + d).collect();
            let cs = ConstraintSet::weak_ranking(3, c);
            let lin = LinearFDominance::from_constraints(&cs);
            prop_assert!(lin.f_dominates(&a, &b));
            let lp = LpFDominance::new(cs);
            prop_assert!(lp.f_dominates(&a, &b));
        }

        /// F-dominance is transitive.
        #[test]
        fn f_dominance_transitive(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..10.0, 3), 3),
        ) {
            let cs = ConstraintSet::weak_ranking(3, 2);
            let lin = LinearFDominance::from_constraints(&cs);
            let (a, b, c) = (&pts[0], &pts[1], &pts[2]);
            if lin.f_dominates(a, b) && lin.f_dominates(b, c) {
                prop_assert!(lin.f_dominates(a, c));
            }
        }
    }
}
