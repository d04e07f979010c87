//! Constraint generators (§V-A of the paper).
//!
//! Two families of linear constraints on the weight simplex are used in the
//! evaluation:
//!
//! * **WR (weak ranking)** — `ω[i] ≥ ω[i+1]` for `1 ≤ i ≤ c`; the preference
//!   region always has exactly `d` vertices when `c = d − 1`.
//! * **IM (interactive)** — the interactive-learning style generator: pick a
//!   hidden weight `ω*` uniformly on the simplex, then for each constraint
//!   draw two random objects `t_i, s_i ∈ [0,1]^d` and keep the half of the
//!   simplex split by `Σ_j (t_i[j] − s_i[j])·ω[j] = 0` that contains `ω*`.
//!   The number of region vertices typically grows with `c`.
//!
//! Weight-ratio ranges (the `q` parameter of Fig. 8) are also generated here.

use arsp_geometry::constraints::{ConstraintSet, LinearConstraint};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// WR constraints: a thin wrapper over
/// [`ConstraintSet::weak_ranking`] provided for symmetry with
/// [`im_constraints`].
pub fn weak_ranking_constraints(dim: usize, c: usize) -> ConstraintSet {
    ConstraintSet::weak_ranking(dim, c)
}

/// IM constraints: `c` random half-space constraints through the simplex,
/// each oriented so that a hidden random weight `ω*` stays feasible. The
/// returned region is therefore never empty.
pub fn im_constraints(dim: usize, c: usize, seed: u64) -> ConstraintSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let omega_star = random_simplex_weight(dim, &mut rng);
    let mut cs = ConstraintSet::new(dim);
    for _ in 0..c {
        let t: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
        let s: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut coeffs: Vec<f64> = t.iter().zip(&s).map(|(a, b)| a - b).collect();
        let at_star: f64 = coeffs.iter().zip(&omega_star).map(|(a, w)| a * w).sum();
        // Keep the side containing ω*: flip the constraint when ω* violates
        // `coeffs · ω ≤ 0`.
        if at_star > 0.0 {
            for v in coeffs.iter_mut() {
                *v = -*v;
            }
        }
        cs.push(LinearConstraint::new(coeffs, 0.0));
    }
    cs
}

/// A weight drawn uniformly from the unit simplex (via normalised
/// exponential samples).
pub fn random_simplex_weight(dim: usize, rng: &mut impl Rng) -> Vec<f64> {
    let raw: Vec<f64> = (0..dim)
        .map(|_| -f64::ln(rng.gen_range(f64::MIN_POSITIVE..1.0)))
        .collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / sum).collect()
}

/// The four ratio ranges the paper sweeps in Fig. 8(c), from widest to
/// narrowest.
pub fn fig8_ratio_ranges() -> Vec<(f64, f64)> {
    vec![(0.18, 5.67), (0.36, 2.75), (0.58, 1.73), (0.84, 1.19)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsp_geometry::polytope::preference_region_vertices;

    #[test]
    fn wr_matches_geometry_builder() {
        let a = weak_ranking_constraints(4, 3);
        let b = ConstraintSet::weak_ranking(4, 3);
        assert_eq!(a.constraints(), b.constraints());
    }

    #[test]
    fn im_region_is_always_feasible() {
        for seed in 0..20 {
            for c in 1..6 {
                let cs = im_constraints(4, c, seed);
                assert_eq!(cs.len(), c);
                assert!(cs.is_feasible(), "seed {seed}, c = {c}");
                assert!(!preference_region_vertices(&cs).is_empty());
            }
        }
    }

    #[test]
    fn im_vertex_count_tends_to_grow_with_c() {
        // The paper notes that the number of vertices of the IM region
        // usually increases with c, unlike WR.  Check the average over a few
        // seeds rather than a single instance.
        let avg_vertices = |c: usize| -> f64 {
            (0..12)
                .map(|seed| preference_region_vertices(&im_constraints(4, c, seed)).len())
                .sum::<usize>() as f64
                / 12.0
        };
        assert!(avg_vertices(5) > avg_vertices(1));
    }

    #[test]
    fn im_is_deterministic_per_seed() {
        let a = im_constraints(3, 4, 99);
        let b = im_constraints(3, 4, 99);
        assert_eq!(a.constraints(), b.constraints());
    }

    #[test]
    fn random_simplex_weight_is_on_simplex() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let w = random_simplex_weight(5, &mut rng);
            assert_eq!(w.len(), 5);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(w.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn fig8_ranges_are_ordered_wide_to_narrow() {
        let ranges = fig8_ratio_ranges();
        assert_eq!(ranges.len(), 4);
        for w in ranges.windows(2) {
            let width = |r: (f64, f64)| r.1 / r.0;
            assert!(width(w[0]) > width(w[1]));
        }
    }
}
