//! Vertex enumeration of the preference region.
//!
//! Theorem 2 of the paper reduces the F-dominance test to comparing scores
//! under the set `V` of vertices of the preference region
//! `Ω = {ω ∈ S^{d−1} | A·ω ≤ b}`. This module computes `V`.
//!
//! The paper computes `V` via polar duality + quickhull; because `Ω` lives in
//! the (affine) simplex and both `c` and `d` are small in every workload the
//! paper evaluates (`c ≤ 7`, `d ≤ 8`), we instead use the textbook
//! characterisation that the paper itself states: *"a weight ω is a vertex of
//! Ω if and only if it is the unique solution to a d-subset of inequalities"*.
//! Concretely we enumerate every choice of `d − 1` constraints (user
//! constraints plus non-negativity constraints), make them tight together
//! with the simplex equality `Σω = 1`, solve the resulting `d × d` system and
//! keep the solutions that are feasible. This is exact, deterministic and
//! fast at these sizes; the asymptotic difference from quickhull is
//! irrelevant for the reproduction because vertex enumeration is a one-off
//! `O(c²)`–ish preprocessing step in all algorithms.

use crate::constraints::ConstraintSet;
use crate::linalg::{solve_linear_system, Matrix};

/// Computes the vertex set `V` of the preference region described by
/// `constraints` (user constraints + the unit simplex).
///
/// The vertices are returned sorted lexicographically so that the output is
/// deterministic; duplicates arising from different tight subsets selecting
/// the same geometric vertex are removed.
///
/// Returns an empty vector when the region is empty.
pub fn preference_region_vertices(constraints: &ConstraintSet) -> Vec<Vec<f64>> {
    let d = constraints.dim();

    // Special case: with a single weight the simplex is the point {1}.
    if d == 1 {
        return if constraints.contains(&[1.0]) {
            vec![vec![1.0]]
        } else {
            Vec::new()
        };
    }

    // Candidate tight rows: every user constraint and every non-negativity
    // constraint, each written as `coeffs · ω = rhs` when tight.
    let mut rows: Vec<(Vec<f64>, f64)> = Vec::with_capacity(constraints.len() + d);
    for c in constraints.constraints() {
        rows.push((c.coeffs.clone(), c.rhs));
    }
    for i in 0..d {
        let mut coeffs = vec![0.0; d];
        coeffs[i] = 1.0;
        rows.push((coeffs, 0.0));
    }

    let mut vertices: Vec<Vec<f64>> = Vec::new();
    let mut subset = vec![0usize; d - 1];
    enumerate_combinations(rows.len(), d - 1, &mut subset, 0, 0, &mut |chosen| {
        // Build the d×d system: the simplex equality plus the chosen rows.
        let mut mat_rows = Vec::with_capacity(d);
        let mut rhs = Vec::with_capacity(d);
        mat_rows.push(vec![1.0; d]);
        rhs.push(1.0);
        for &idx in chosen {
            mat_rows.push(rows[idx].0.clone());
            rhs.push(rows[idx].1);
        }
        let matrix = Matrix::from_rows(&mat_rows);
        if let Some(candidate) = solve_linear_system(&matrix, &rhs) {
            if is_feasible(constraints, &candidate) && !contains_vertex(&vertices, &candidate) {
                vertices.push(candidate);
            }
        }
    });

    vertices.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .find_map(|(x, y)| x.partial_cmp(y).filter(|o| o.is_ne()))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    vertices
}

/// Feasibility check with a tolerance suited to coordinates obtained from a
/// linear solve.
fn is_feasible(constraints: &ConstraintSet, omega: &[f64]) -> bool {
    const FEAS_EPS: f64 = 1e-7;
    if omega.iter().any(|&w| w < -FEAS_EPS || !w.is_finite()) {
        return false;
    }
    if (omega.iter().sum::<f64>() - 1.0).abs() > FEAS_EPS {
        return false;
    }
    constraints
        .constraints()
        .iter()
        .all(|c| c.slack(omega) <= FEAS_EPS)
}

fn contains_vertex(vertices: &[Vec<f64>], candidate: &[f64]) -> bool {
    vertices
        .iter()
        .any(|v| v.iter().zip(candidate).all(|(a, b)| (a - b).abs() <= 1e-6))
}

/// Calls `f` with every `k`-combination of `{0, …, n−1}`.
fn enumerate_combinations(
    n: usize,
    k: usize,
    scratch: &mut [usize],
    depth: usize,
    start: usize,
    f: &mut impl FnMut(&[usize]),
) {
    if depth == k {
        f(&scratch[..k]);
        return;
    }
    // Not enough remaining elements to fill the combination.
    if start + (k - depth) > n {
        return;
    }
    for i in start..n {
        scratch[depth] = i;
        enumerate_combinations(n, k, scratch, depth + 1, i + 1, f);
    }
}

/// Scores of a point under every vertex of `V`, i.e. the score-space mapping
/// `SV(t) = (S_{ω_1}(t), …, S_{ω_{d'}}(t))` of §III-B.
pub fn score_vector(coords: &[f64], vertices: &[Vec<f64>]) -> Vec<f64> {
    vertices
        .iter()
        .map(|v| crate::point::score(coords, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{ConstraintSet, LinearConstraint, WeightRatio};

    fn sorted(mut v: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn simplex_vertices_are_unit_vectors() {
        let cs = ConstraintSet::new(3);
        let v = preference_region_vertices(&cs);
        assert_eq!(v.len(), 3);
        let expected = sorted(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        for (got, want) in sorted(v).iter().zip(&expected) {
            assert!(crate::approx_eq_slice(got, want), "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn weak_ranking_full_chain_vertices() {
        // WR with c = d − 1 has exactly d vertices:
        // (1,0,..), (1/2,1/2,0,..), ..., (1/d,...,1/d).
        for d in 2..=6 {
            let cs = ConstraintSet::weak_ranking(d, d - 1);
            let v = preference_region_vertices(&cs);
            assert_eq!(v.len(), d, "d = {d}");
            for k in 1..=d {
                let mut expected = vec![1.0 / k as f64; k];
                expected.resize(d, 0.0);
                assert!(
                    v.iter().any(|u| crate::approx_eq_slice(u, &expected)
                        || u.iter().zip(&expected).all(|(a, b)| (a - b).abs() < 1e-6)),
                    "missing vertex {expected:?} for d = {d}, got {v:?}"
                );
            }
        }
    }

    #[test]
    fn weak_ranking_partial_chain() {
        // d = 3, c = 1 (ω1 ≥ ω2): vertices are (1,0,0), (1/2,1/2,0), (0,0,1),
        // (1/2, 0, 1/2)?  Let's check: region = simplex ∩ {ω1 ≥ ω2}.  Its
        // vertices are (1,0,0), (1/2,1/2,0), (0,0,1) and additionally the
        // intersection of ω2=... Actually the facets are ω1=ω2, ω2=0, ω3=0,
        // ω1=0(infeasible except where ω2=0 too).  Vertices: (1,0,0),
        // (1/2,1/2,0), (0,0,1).
        let cs = ConstraintSet::weak_ranking(3, 1);
        let v = preference_region_vertices(&cs);
        assert_eq!(v.len(), 3, "{v:?}");
        for expected in [
            vec![1.0, 0.0, 0.0],
            vec![0.5, 0.5, 0.0],
            vec![0.0, 0.0, 1.0],
        ] {
            assert!(
                v.iter()
                    .any(|u| u.iter().zip(&expected).all(|(a, b)| (a - b).abs() < 1e-6)),
                "missing {expected:?} in {v:?}"
            );
        }
    }

    #[test]
    fn weight_ratio_region_vertices_2d() {
        // d = 2, ratio ∈ [0.5, 2]: ω1/ω2 ∈ [0.5, 2] on the simplex gives the
        // segment ω1 ∈ [1/3, 2/3], so two vertices.
        let wr = WeightRatio::uniform(2, 0.5, 2.0);
        let cs = wr.to_constraint_set();
        let v = preference_region_vertices(&cs);
        assert_eq!(v.len(), 2, "{v:?}");
        let v = sorted(v);
        assert!((v[0][0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((v[1][0] - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn weight_ratio_region_vertices_3d() {
        // d = 3, both ratios in [0.5, 2]: the ratio rectangle has 4 vertices,
        // each mapping to one vertex of Ω.
        let wr = WeightRatio::uniform(3, 0.5, 2.0);
        let cs = wr.to_constraint_set();
        let v = preference_region_vertices(&cs);
        assert_eq!(v.len(), 4, "{v:?}");
        // Every returned vertex must satisfy the ratio bounds.
        for omega in &v {
            assert!(omega[2] > 0.0);
            for i in 0..2 {
                let ratio = omega[i] / omega[2];
                assert!((0.5 - 1e-6..=2.0 + 1e-6).contains(&ratio), "{omega:?}");
            }
        }
    }

    #[test]
    fn infeasible_region_has_no_vertices() {
        let mut cs = ConstraintSet::new(3);
        cs.push(LinearConstraint::new(vec![1.0, 1.0, 1.0], -1.0));
        assert!(preference_region_vertices(&cs).is_empty());
    }

    #[test]
    fn one_dimensional_region() {
        let cs = ConstraintSet::new(1);
        assert_eq!(preference_region_vertices(&cs), vec![vec![1.0]]);
        let mut infeasible = ConstraintSet::new(1);
        infeasible.push(LinearConstraint::new(vec![1.0], 0.5));
        assert!(preference_region_vertices(&infeasible).is_empty());
    }

    #[test]
    fn redundant_constraints_do_not_add_vertices() {
        let mut cs = ConstraintSet::weak_ranking(3, 2);
        // A constraint implied by the simplex: ω1 ≤ 1.
        cs.push(LinearConstraint::new(vec![1.0, 0.0, 0.0], 1.0));
        let v = preference_region_vertices(&cs);
        assert_eq!(v.len(), 3, "{v:?}");
    }

    #[test]
    fn score_vector_matches_manual_computation() {
        let vertices = vec![vec![1.0, 0.0], vec![0.5, 0.5]];
        let sv = score_vector(&[2.0, 4.0], &vertices);
        assert_eq!(sv, vec![2.0, 3.0]);
    }

    #[test]
    fn every_vertex_is_in_region_and_recognised() {
        let cs = ConstraintSet::weak_ranking(5, 4);
        let v = preference_region_vertices(&cs);
        for omega in &v {
            assert!(cs.contains(omega), "{omega:?}");
        }
        let interior = [0.4, 0.3, 0.15, 0.1, 0.05];
        assert!(cs.contains(&interior));
        assert!(!v.iter().any(|u| crate::approx_eq_slice(u, &interior)));
    }

    #[test]
    fn vertices_are_sorted_and_unique() {
        let cs = ConstraintSet::weak_ranking(4, 3);
        let v = preference_region_vertices(&cs);
        for w in v.windows(2) {
            assert!(w[0].partial_cmp(&w[1]).unwrap().is_lt());
        }
    }
}
