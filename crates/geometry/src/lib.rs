//! Computational geometry substrate for the ARSP reproduction.
//!
//! This crate contains everything geometric that the paper
//! *"Computing All Restricted Skyline Probabilities on Uncertain Datasets"*
//! (ICDE 2024) relies on but does not itself contribute:
//!
//! * [`point::Point`] — d-dimensional points with (weak) dominance tests,
//! * [`mbr::Mbr`] — minimum bounding rectangles used by every spatial index,
//! * [`linalg`] — small dense linear algebra (Gaussian elimination),
//! * [`lp`] — a dense simplex LP solver used by the LP-based reference
//!   F-dominance test and by feasibility checks during vertex enumeration,
//! * [`constraints`] — the preference region `Ω = {ω ∈ S^{d−1} | Aω ≤ b}`
//!   described by linear constraints, weak-ranking (WR) constraints and
//!   weight-ratio constraints,
//! * [`polytope`] — vertex enumeration of the preference region (the set `V`
//!   of Theorem 2),
//! * [`fdom`] — the F-dominance tests of Theorems 2 and 5 plus an LP-based
//!   reference implementation used for cross-validation in tests.
//!
//! Everything is implemented from scratch on `f64`; the only tolerance used is
//! [`EPS`], and only where geometric degeneracy actually matters (singular
//! systems, feasibility of computed vertices).

#![deny(unsafe_code)]

pub mod constraints;
pub mod fdom;
pub mod linalg;
pub mod lp;
pub mod mbr;
pub mod point;
pub mod polytope;

pub use constraints::{ConstraintSet, LinearConstraint, WeightRatio};
pub use fdom::{FDominance, LinearFDominance, WeightRatioFDominance};
pub use mbr::Mbr;
pub use point::Point;
pub use polytope::preference_region_vertices;

/// Tolerance used for geometric degeneracy decisions (singularity and
/// feasibility of enumerated vertices).
///
/// Dominance tests deliberately do **not** use a tolerance: the paper defines
/// `t ≺_F s` through plain `≤` comparisons of scores and the algorithms are
/// only consistent with each other if every component uses the same exact
/// comparison.
pub const EPS: f64 = 1e-9;

/// Returns `true` if `a` and `b` are within `EPS` of each other.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// Returns `true` if every pair of coordinates is within `EPS`.
pub fn approx_eq_slice(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| approx_eq(*x, *y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_within_eps() {
        assert!(approx_eq(1.0, 1.0 + EPS / 2.0));
        assert!(!approx_eq(1.0, 1.0 + EPS * 10.0));
    }

    #[test]
    fn approx_eq_slice_checks_length_and_values() {
        assert!(approx_eq_slice(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!approx_eq_slice(&[1.0, 2.0], &[1.0]));
        assert!(!approx_eq_slice(&[1.0, 2.0], &[1.0, 2.1]));
    }
}
