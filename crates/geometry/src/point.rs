//! d-dimensional points and the (weak) dominance relation.
//!
//! The paper assumes *lower values are preferred*, so an instance `t`
//! dominates `s` (written `t ⪯ s`) when `t[i] ≤ s[i]` in every dimension.
//! The F-dominance relation of the paper reduces to this plain dominance in
//! the score space (Theorem 2), which is why the whole algorithmic machinery
//! is built on top of this module.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A point in `R^d` with `f64` coordinates.
///
/// `Point` is deliberately a thin wrapper around `Vec<f64>`: the datasets used
/// by ARSP have small dimensionality (2–8 in the paper) and the hot loops
/// operate on borrowed coordinate slices, so there is nothing to gain from a
/// fixed-size representation while flexibility across `d` would be lost.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        Self { coords }
    }

    /// Dimensionality of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Borrow the coordinates.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

impl Index<usize> for Point {
    type Output = f64;

    #[inline]
    fn index(&self, index: usize) -> &f64 {
        &self.coords[index]
    }
}

impl IndexMut<usize> for Point {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.coords[index]
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Point::new(coords.to_vec())
    }
}

/// Weak dominance: `a ⪯ b` iff every coordinate of `a` is `≤` the
/// corresponding coordinate of `b`.
///
/// This is the relation written `⪯` throughout the paper (lower is better).
/// Note that a point weakly dominates itself; callers that need the paper's
/// "dominates another object `s ≠ t`" semantics must exclude identity at the
/// instance level, not at the coordinate level.
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

/// Linear score `S_ω(t) = Σ_i ω[i]·t[i]` of coordinates `t` under weight `ω`.
#[inline]
pub fn score(coords: &[f64], weight: &[f64]) -> f64 {
    debug_assert_eq!(coords.len(), weight.len());
    coords.iter().zip(weight.iter()).map(|(c, w)| c * w).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dominance_basic() {
        let (a, b, c) = ([1.0, 2.0], [1.0, 3.0], [0.5, 4.0]);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &c));
        assert!(!dominates(&c, &a));
        assert!(dominates(&a, &a));
    }

    #[test]
    fn score_is_weighted_sum() {
        assert_eq!(score(&[2.0, 4.0, 6.0], &[0.5, 0.25, 0.25]), 1.0 + 1.0 + 1.5);
    }

    #[test]
    fn indexing() {
        let mut p = Point::new(vec![1.0; 3]);
        p[1] = 7.0;
        assert_eq!(p[1], 7.0);
        assert_eq!(p[0], 1.0);
    }

    proptest! {
        /// Dominance is reflexive and transitive.
        #[test]
        fn dominance_partial_order(a in proptest::collection::vec(-10.0f64..10.0, 4),
                                   b in proptest::collection::vec(-10.0f64..10.0, 4),
                                   c in proptest::collection::vec(-10.0f64..10.0, 4)) {
            prop_assert!(dominates(&a, &a));
            if dominates(&a, &b) && dominates(&b, &c) {
                prop_assert!(dominates(&a, &c));
            }
        }

        /// Scores under non-negative weights are monotone with respect to dominance.
        #[test]
        fn score_monotone(a in proptest::collection::vec(0.0f64..10.0, 3),
                          delta in proptest::collection::vec(0.0f64..5.0, 3),
                          w in proptest::collection::vec(0.0f64..1.0, 3)) {
            let b: Vec<f64> = a.iter().zip(&delta).map(|(x, d)| x + d).collect();
            prop_assert!(dominates(&a, &b));
            prop_assert!(score(&a, &w) <= score(&b, &w) + 1e-12);
        }
    }
}
