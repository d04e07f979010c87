//! Downward-closed query regions.
//!
//! Every aggregate query the ARSP algorithms issue — "how much probability
//! mass F-dominates this instance?", "how much mass lies in the window
//! `[origin, q]`?" — asks for the weight of points inside a *downward-closed*
//! region: if a point belongs to the region then so does every point that
//! (coordinate-wise) dominates it. Downward closure is what makes MBR-corner
//! pruning sound:
//!
//! * if the **maximum** corner of an MBR is inside the region, every point of
//!   the MBR is (the whole subtree can be accounted with its aggregate),
//! * if the **minimum** corner is outside, no point of the MBR can be inside
//!   (the subtree can be skipped).
//!
//! The two region kinds used by the algorithms are provided here; the spatial
//! indexes are generic over the trait so the same traversal code serves both.

use arsp_geometry::fdom::FDominance;
use arsp_geometry::point::dominates;

/// A downward-closed region of the data space. Boxes are tested through
/// their corners, which downward closure makes exact.
pub trait DominanceRegion {
    /// Exact membership test for a single point.
    fn contains(&self, coords: &[f64]) -> bool;

    /// Returns `true` when every point of a box with max corner `max` lies
    /// inside the region (when `max` itself does).
    fn covers(&self, max: &[f64]) -> bool {
        self.contains(max)
    }

    /// Returns `true` when some point of a box with min corner `min` *may*
    /// lie inside the region; returning `false` (`min` lies outside)
    /// guarantees the box is disjoint from the region.
    fn may_intersect(&self, min: &[f64]) -> bool {
        self.contains(min)
    }
}

/// The window `{p | p ⪯ q}` (all points coordinate-wise dominating nothing —
/// i.e. dominated *region of the origin side*): the "window query with the
/// origin and `SV(t)`" of Algorithm 2.
#[derive(Clone, Debug)]
pub struct WindowTo<'a> {
    corner: &'a [f64],
}

impl<'a> WindowTo<'a> {
    /// Creates the window `[−∞, corner]` (in the "lower is better" sense:
    /// every point that dominates `corner`).
    pub fn new(corner: &'a [f64]) -> Self {
        Self { corner }
    }
}

impl DominanceRegion for WindowTo<'_> {
    fn contains(&self, coords: &[f64]) -> bool {
        dominates(coords, self.corner)
    }
}

/// The set of points that F-dominate a fixed target instance, under any
/// [`FDominance`] test. Downward-closed because every scoring function in `F`
/// is monotone.
#[derive(Clone, Debug)]
pub struct FDominatorsOf<'a, F: FDominance> {
    fdom: &'a F,
    target: &'a [f64],
}

impl<'a, F: FDominance> FDominatorsOf<'a, F> {
    /// Creates the region `{s | s ≺_F target}` (at the coordinate level, i.e.
    /// including points coordinate-identical to the target).
    pub fn new(fdom: &'a F, target: &'a [f64]) -> Self {
        Self { fdom, target }
    }
}

impl<F: FDominance> DominanceRegion for FDominatorsOf<'_, F> {
    fn contains(&self, coords: &[f64]) -> bool {
        self.fdom.f_dominates(coords, self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsp_geometry::constraints::WeightRatio;
    use arsp_geometry::fdom::WeightRatioFDominance;
    use arsp_geometry::{Mbr, Point};

    fn mbr(min: &[f64], max: &[f64]) -> Mbr {
        Mbr::new(Point::from(min), Point::from(max))
    }

    #[test]
    fn window_region_semantics() {
        let corner = [5.0, 5.0];
        let w = WindowTo::new(&corner);
        assert!(w.contains(&[5.0, 5.0]));
        assert!(w.contains(&[1.0, 2.0]));
        assert!(!w.contains(&[6.0, 1.0]));
        assert!(w.covers(mbr(&[0.0, 0.0], &[4.0, 4.0]).max().coords()));
        assert!(!w.covers(mbr(&[0.0, 0.0], &[6.0, 4.0]).max().coords()));
        assert!(w.may_intersect(mbr(&[0.0, 0.0], &[6.0, 4.0]).min().coords()));
        assert!(!w.may_intersect(mbr(&[6.0, 0.0], &[8.0, 4.0]).min().coords()));
    }

    #[test]
    fn fdominators_region_semantics() {
        let ratio = WeightRatio::uniform(2, 0.5, 2.0);
        let fdom = WeightRatioFDominance::new(ratio);
        let target = [9.0, 12.0];
        let r = FDominatorsOf::new(&fdom, &target);
        // From the paper's Example 3: (6, 12) and (11, 8) both F-dominate t2,3.
        assert!(r.contains(&[6.0, 12.0]));
        assert!(r.contains(&[11.0, 8.0]));
        assert!(!r.contains(&[20.0, 20.0]));
        // An MBR whose max corner F-dominates the target is fully covered.
        let inside = mbr(&[0.0, 0.0], &[6.0, 12.0]);
        assert!(r.covers(inside.max().coords()));
        assert!(r.may_intersect(inside.min().coords()));
        // An MBR whose min corner does not F-dominate the target is disjoint.
        let outside = mbr(&[20.0, 20.0], &[30.0, 30.0]);
        assert!(!r.may_intersect(outside.min().coords()));
    }

    #[test]
    fn cover_implies_may_intersect() {
        let corner = [3.0, 3.0, 3.0];
        let w = WindowTo::new(&corner);
        let boxes = [
            mbr(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]),
            mbr(&[0.0, 0.0, 0.0], &[5.0, 1.0, 1.0]),
            mbr(&[4.0, 4.0, 4.0], &[5.0, 5.0, 5.0]),
        ];
        for b in &boxes {
            if w.covers(b.max().coords()) {
                assert!(w.may_intersect(b.min().coords()));
            }
        }
    }
}
