//! Minimum bounding rectangles (MBRs).
//!
//! Every spatial index in the reproduction (R-tree, aggregated R-tree,
//! kd-tree and quadtree partitioners) summarises a set of points by its MBR
//! and reasons about dominance through the MBR corners, exactly as the paper
//! does with `P_min` / `P_max` in Algorithm 1 and `N_min` in Algorithm 2.

use crate::point::Point;

/// An axis-aligned minimum bounding rectangle `[min, max]` in `R^d`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mbr {
    min: Point,
    max: Point,
}

impl Mbr {
    /// Creates an MBR from explicit corners.
    ///
    /// # Panics
    /// Panics if the corners have different dimensionality or if any minimum
    /// coordinate exceeds the corresponding maximum.
    pub fn new(min: Point, max: Point) -> Self {
        assert_eq!(
            min.dim(),
            max.dim(),
            "MBR corners must share dimensionality"
        );
        assert!(
            min.coords().iter().zip(max.coords()).all(|(a, b)| a <= b),
            "MBR min corner must dominate max corner"
        );
        Self { min, max }
    }

    /// Computes the MBR of a non-empty set of coordinate slices.
    ///
    /// Returns `None` for an empty iterator.
    pub fn from_coord_slices<'a, I>(mut iter: I) -> Option<Self>
    where
        I: Iterator<Item = &'a [f64]>,
    {
        let first = iter.next()?;
        let mut min = first.to_vec();
        let mut max = first.to_vec();
        for coords in iter {
            for (i, &c) in coords.iter().enumerate() {
                if c < min[i] {
                    min[i] = c;
                }
                if c > max[i] {
                    max[i] = c;
                }
            }
        }
        Some(Self {
            min: Point::new(min),
            max: Point::new(max),
        })
    }

    /// Computes the MBR of a set of rows of a flat, `dim`-strided coordinate
    /// array (row `i` is `coords[i*dim..(i+1)*dim]`). Returns `None` for an
    /// empty row set. This is the columnar-store counterpart of
    /// [`Mbr::from_coord_slices`] and produces bitwise-identical corners
    /// (minimum/maximum are pure comparisons).
    pub fn from_flat_rows<I>(coords: &[f64], dim: usize, rows: I) -> Option<Self>
    where
        I: IntoIterator<Item = usize>,
    {
        Self::from_coord_slices(rows.into_iter().map(|i| &coords[i * dim..(i + 1) * dim]))
    }

    /// Minimum ("best") corner.
    #[inline]
    pub fn min(&self) -> &Point {
        &self.min
    }

    /// Maximum ("worst") corner.
    #[inline]
    pub fn max(&self) -> &Point {
        &self.max
    }

    /// Dimensionality of the MBR.
    #[inline]
    pub fn dim(&self) -> usize {
        self.min.dim()
    }

    /// Extends this MBR to cover the given coordinates.
    pub fn extend_coords(&mut self, coords: &[f64]) {
        debug_assert_eq!(coords.len(), self.dim());
        for (i, &c) in coords.iter().enumerate() {
            if c < self.min[i] {
                self.min[i] = c;
            }
            if c > self.max[i] {
                self.max[i] = c;
            }
        }
    }

    /// Extends this MBR to cover another MBR.
    pub fn extend_mbr(&mut self, other: &Mbr) {
        self.extend_coords(other.min.coords());
        self.extend_coords(other.max.coords());
    }

    /// Union of two MBRs.
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut out = self.clone();
        out.extend_mbr(other);
        out
    }

    /// Returns `true` when the point lies inside the rectangle (inclusive).
    pub fn contains(&self, coords: &[f64]) -> bool {
        debug_assert_eq!(coords.len(), self.dim());
        coords
            .iter()
            .enumerate()
            .all(|(i, &c)| self.min[i] <= c && c <= self.max[i])
    }

    /// Returns `true` when `other` is fully contained in `self` (inclusive).
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        (0..self.dim()).all(|i| self.min[i] <= other.min[i] && other.max[i] <= self.max[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::dominates;
    use proptest::prelude::*;

    fn mbr(min: &[f64], max: &[f64]) -> Mbr {
        Mbr::new(Point::from(min), Point::from(max))
    }

    fn mbr_of(points: &[Vec<f64>]) -> Option<Mbr> {
        Mbr::from_coord_slices(points.iter().map(Vec::as_slice))
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [vec![1.0, 5.0], vec![3.0, 2.0], vec![2.0, 4.0]];
        let r = mbr_of(&pts).unwrap();
        assert_eq!(r.min().coords(), &[1.0, 2.0]);
        assert_eq!(r.max().coords(), &[3.0, 5.0]);
        assert!(pts.iter().all(|p| r.contains(p)));
    }

    #[test]
    fn empty_set_has_no_mbr() {
        assert!(mbr_of(&[]).is_none());
    }

    #[test]
    fn flat_rows_match_pointwise_construction() {
        let coords = [1.0, 5.0, 3.0, 2.0, 2.0, 4.0]; // 3 rows × 2 dims
        let flat = Mbr::from_flat_rows(&coords, 2, 0..3).unwrap();
        let pts = [vec![1.0, 5.0], vec![3.0, 2.0], vec![2.0, 4.0]];
        assert_eq!(flat, mbr_of(&pts).unwrap());
        assert!(Mbr::from_flat_rows(&coords, 2, std::iter::empty()).is_none());
    }

    #[test]
    fn contains_and_intersects() {
        let a = mbr(&[0.0, 0.0], &[2.0, 2.0]);
        let b = mbr(&[1.0, 1.0], &[3.0, 3.0]);
        assert!(a.contains(&[1.0, 1.0]));
        assert!(!a.contains(&[1.0, 2.5]));
        assert!(a.contains_mbr(&mbr(&[0.5, 0.5], &[1.5, 1.5])));
        assert!(!a.contains_mbr(&b));
    }

    #[test]
    #[should_panic]
    fn invalid_corners_panic() {
        let _ = mbr(&[1.0, 0.0], &[0.0, 1.0]);
    }

    proptest! {
        /// The MBR of a point set contains every point, and its min/max corners
        /// dominate / are dominated by every point.
        #[test]
        fn mbr_envelopes_points(pts in proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, 3), 1..40)) {
            let r = mbr_of(&pts).unwrap();
            for p in &pts {
                prop_assert!(r.contains(p));
                prop_assert!(dominates(r.min().coords(), p));
                prop_assert!(dominates(p, r.max().coords()));
            }
        }

        /// Union is commutative and contains both operands.
        #[test]
        fn union_contains_operands(a in proptest::collection::vec(-10.0f64..10.0, 2),
                                   b in proptest::collection::vec(-10.0f64..10.0, 2),
                                   c in proptest::collection::vec(-10.0f64..10.0, 2),
                                   d in proptest::collection::vec(-10.0f64..10.0, 2)) {
            let r1 = mbr_of(&[a, b]).unwrap();
            let r2 = mbr_of(&[c, d]).unwrap();
            let u = r1.union(&r2);
            prop_assert!(u.contains_mbr(&r1));
            prop_assert!(u.contains_mbr(&r2));
            prop_assert_eq!(u, r2.union(&r1));
        }
    }
}
