//! Eclipse queries on certain datasets (§V-D, Fig. 8).
//!
//! The eclipse query of Liu et al. retrieves all points of a certain dataset
//! that are not *eclipse-dominated*, i.e. not F-dominated under weight ratio
//! constraints, by any other point. The paper shows that its DUAL machinery
//! yields a faster eclipse algorithm (DUAL-S) than the state-of-the-art
//! hyperplane-quadtree index (QUAD); Fig. 8 compares the two.
//!
//! Three implementations are provided:
//!
//! * [`eclipse_brute`] — quadratic reference used in tests,
//! * [`eclipse_quad`] — the QUAD-style baseline: compute the skyline `S`,
//!   then run pairwise eclipse-dominance tests inside `S`. Its cost is
//!   `O(|S|²)` dominance tests, which is the query cost the paper attributes
//!   to QUAD (iterating the hyperplanes reported by its window query). Like
//!   the original QUAD — which predates the paper's Theorem 5 — the baseline
//!   uses the vertex-based `O(d·2^{d−1})` eclipse-dominance test,
//! * [`eclipse_dual_s`] — the paper's DUAL-S: compute the skyline, index it
//!   with a kd-tree, use the `O(d)` test of Theorem 5, and for every skyline
//!   point ask a single existence query "does any other point F-dominate
//!   it?", which terminates early and costs `O(|S|)` per point in the worst
//!   case but `O(log |S|)`-ish in practice.

use arsp_data::CertainDataset;
use arsp_geometry::constraints::WeightRatio;
use arsp_geometry::fdom::{FDominance, WeightRatioFDominance};
use arsp_geometry::point::dominates;
use arsp_index::region::FDominatorsOf;
use arsp_index::{FlatEntries, KdTree};

/// The skyline of a certain dataset, computed with a sort-based sweep:
/// points are processed in ascending order of their coordinate sum, and each
/// point is only compared against the current skyline. Returns point ids in
/// ascending order.
pub fn skyline(data: &CertainDataset) -> Vec<usize> {
    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    let sums: Vec<f64> = data.points().iter().map(|p| p.iter().sum()).collect();
    order.sort_unstable_by(|&a, &b| {
        sums[a]
            .partial_cmp(&sums[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut sky: Vec<usize> = Vec::new();
    'outer: for &i in &order {
        let p = data.point(i);
        for &j in &sky {
            if dominates(data.point(j), p) {
                continue 'outer;
            }
        }
        sky.push(i);
    }
    sky.sort_unstable();
    sky
}

/// Brute-force eclipse: a point is in the result iff no *other* point
/// F-dominates it under the weight ratio constraints.
pub fn eclipse_brute(data: &CertainDataset, ratio: &WeightRatio) -> Vec<usize> {
    assert_eq!(data.dim(), ratio.dim());
    let fdom = WeightRatioFDominance::new(ratio.clone());
    let mut result = Vec::new();
    'outer: for i in 0..data.len() {
        for j in 0..data.len() {
            if i != j && fdom.f_dominates(data.point(j), data.point(i)) {
                continue 'outer;
            }
        }
        result.push(i);
    }
    result
}

/// QUAD-style baseline: skyline extraction followed by pairwise
/// eclipse-dominance tests within the skyline, using the vertex-based test
/// (the `O(d·2^{d−1})` test available before Theorem 5).
pub fn eclipse_quad(data: &CertainDataset, ratio: &WeightRatio) -> Vec<usize> {
    assert_eq!(data.dim(), ratio.dim());
    let fdom = arsp_geometry::fdom::LinearFDominance::from_constraints(&ratio.to_constraint_set());
    let sky = skyline(data);
    let mut result = Vec::new();
    'outer: for &i in &sky {
        for &j in &sky {
            if i != j && fdom.f_dominates(data.point(j), data.point(i)) {
                continue 'outer;
            }
        }
        result.push(i);
    }
    result
}

/// DUAL-S: skyline extraction, then one early-terminating existence query per
/// skyline point against a kd-tree over the skyline.
pub fn eclipse_dual_s(data: &CertainDataset, ratio: &WeightRatio) -> Vec<usize> {
    assert_eq!(data.dim(), ratio.dim());
    let fdom = WeightRatioFDominance::new(ratio.clone());
    let sky = skyline(data);
    let mut entries = FlatEntries::with_capacity(data.dim(), sky.len());
    for &id in &sky {
        entries.push(id, 1.0, data.point(id));
    }
    let tree = KdTree::build_flat_with_leaf_size(entries, 4);
    let mut result = Vec::new();
    for &id in &sky {
        let region = FDominatorsOf::new(&fdom, data.point(id));
        if !tree.any_in(&region, Some(id)) {
            result.push(id);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn random_certain(n: usize, dim: usize, seed: u64) -> CertainDataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = CertainDataset::new(dim);
        for _ in 0..n {
            d.push_point((0..dim).map(|_| rng.gen_range(0.0..1.0)).collect());
        }
        d
    }

    #[test]
    fn skyline_matches_quadratic_definition() {
        for seed in 0..3 {
            let d = random_certain(200, 3, seed);
            assert_eq!(skyline(&d), d.skyline());
        }
    }

    #[test]
    fn eclipse_is_subset_of_skyline() {
        let d = random_certain(300, 3, 11);
        let ratio = WeightRatio::uniform(3, 0.36, 2.75);
        let sky = skyline(&d);
        for id in eclipse_brute(&d, &ratio) {
            assert!(sky.contains(&id));
        }
    }

    #[test]
    fn all_three_algorithms_agree() {
        for (seed, dim) in [(1u64, 2usize), (2, 3), (3, 4)] {
            let d = random_certain(250, dim, seed);
            for (l, h) in [(0.5, 2.0), (0.18, 5.67), (0.84, 1.19)] {
                let ratio = WeightRatio::uniform(dim, l, h);
                let brute = eclipse_brute(&d, &ratio);
                let quad = eclipse_quad(&d, &ratio);
                let dual = eclipse_dual_s(&d, &ratio);
                assert_eq!(brute, quad, "seed {seed} dim {dim} range [{l},{h}]");
                assert_eq!(brute, dual, "seed {seed} dim {dim} range [{l},{h}]");
            }
        }
    }

    #[test]
    fn narrow_ratio_ranges_shrink_the_result() {
        // Narrowing the ratio box shrinks the preference region, which
        // *strengthens* the F-dominance ability of every point (the paper
        // makes the same observation for growing c in Fig. 5(p)-(q)), so the
        // eclipse result shrinks as the range narrows.
        let d = random_certain(400, 3, 7);
        let sizes: Vec<usize> = arsp_data::constraints_gen::fig8_ratio_ranges()
            .into_iter()
            .map(|(l, h)| eclipse_dual_s(&d, &WeightRatio::uniform(3, l, h)).len())
            .collect();
        // Ranges are ordered widest → narrowest, so sizes must be
        // non-increasing.
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "{sizes:?}");
        }
        // And the eclipse never exceeds the skyline.
        assert!(sizes[0] <= skyline(&d).len());
    }

    #[test]
    fn single_point_and_duplicates() {
        let mut d = CertainDataset::new(2);
        d.push_point(vec![0.5, 0.5]);
        let ratio = WeightRatio::uniform(2, 0.5, 2.0);
        assert_eq!(eclipse_dual_s(&d, &ratio), vec![0]);
        assert_eq!(eclipse_quad(&d, &ratio), vec![0]);

        // Two identical points eclipse-dominate each other: neither survives
        // the brute-force definition.
        let mut d2 = CertainDataset::new(2);
        d2.push_point(vec![0.5, 0.5]);
        d2.push_point(vec![0.5, 0.5]);
        assert!(eclipse_brute(&d2, &ratio).is_empty());
    }
}
