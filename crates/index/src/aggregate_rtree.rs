//! A dynamic R-tree with per-node weight aggregates.
//!
//! Algorithm 2 (B&B) maintains one *aggregated R-tree* `R_i` per uncertain
//! object: as instances are processed in best-first order, their score-space
//! images `SV(t)` are inserted together with their existence probabilities,
//! and for every new instance `t` the algorithm asks each other object's tree
//! for the probability mass inside the window `[origin, SV(t)]`
//! (`σ[j] = Σ_{s∈T_j, SV(s) ⪯ SV(t)} p(s)`).
//!
//! The tree also answers weight sums over arbitrary downward-closed regions
//! ([`DominanceRegion`]), which is how the practical DUAL algorithm of §IV
//! computes per-object dominating mass under weight-ratio constraints without
//! the theoretical point-location structure (see DESIGN.md, substitutions).
//!
//! Implementation notes: quadratic-cost split heuristics are unnecessary at
//! the fanouts used here; nodes split along the dimension with the largest
//! spread at the median, which keeps the tree balanced enough for the
//! best-first workloads of the paper while keeping insertion simple and
//! predictable.

use crate::region::DominanceRegion;
use arsp_geometry::Mbr;
use arsp_geometry::Point;

/// Maximum number of children / leaf entries per node.
const MAX_ENTRIES: usize = 16;

/// A weighted point stored in the tree.
#[derive(Clone, Debug)]
struct AggEntry {
    coords: Vec<f64>,
    weight: f64,
}

#[derive(Clone, Debug)]
enum AggContent {
    Leaf(Vec<AggEntry>),
    Internal(Vec<usize>),
}

#[derive(Clone, Debug)]
struct AggNode {
    mbr: Mbr,
    weight_sum: f64,
    content: AggContent,
}

/// A dynamic aggregated R-tree over weighted points.
#[derive(Clone, Debug)]
pub struct AggregateRTree {
    dim: usize,
    nodes: Vec<AggNode>,
    root: Option<usize>,
    len: usize,
}

impl AggregateRTree {
    /// Creates an empty tree over `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1);
        Self {
            dim,
            nodes: Vec::new(),
            root: None,
            len: 0,
        }
    }

    /// Empties the tree and re-targets it at `dim`-dimensional points,
    /// keeping the node arena's allocation for reuse across queries.
    pub fn reset(&mut self, dim: usize) {
        assert!(dim >= 1);
        self.dim = dim;
        self.nodes.clear();
        self.root = None;
        self.len = 0;
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no point has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a weighted point.
    ///
    /// # Panics
    /// Panics if the point has the wrong dimensionality.
    pub fn insert(&mut self, coords: &[f64], weight: f64) {
        assert_eq!(coords.len(), self.dim, "dimension mismatch on insert");
        self.len += 1;
        let entry = AggEntry {
            coords: coords.to_vec(),
            weight,
        };
        match self.root {
            None => {
                let mbr = Mbr::from_point(&Point::from(coords));
                self.nodes.push(AggNode {
                    mbr,
                    weight_sum: weight,
                    content: AggContent::Leaf(vec![entry]),
                });
                self.root = Some(self.nodes.len() - 1);
            }
            Some(root) => {
                if let Some(sibling) = self.insert_rec(root, entry) {
                    // The root split: create a new root with the two halves.
                    let mbr = self.nodes[root].mbr.union(&self.nodes[sibling].mbr);
                    let weight_sum = self.nodes[root].weight_sum + self.nodes[sibling].weight_sum;
                    self.nodes.push(AggNode {
                        mbr,
                        weight_sum,
                        content: AggContent::Internal(vec![root, sibling]),
                    });
                    self.root = Some(self.nodes.len() - 1);
                }
            }
        }
    }

    /// Recursive insertion; returns the id of a new sibling node when the
    /// visited node had to split.
    fn insert_rec(&mut self, node_id: usize, entry: AggEntry) -> Option<usize> {
        // Update this node's aggregate and MBR up front: the entry will end up
        // somewhere in this subtree regardless of splits below.
        self.nodes[node_id].weight_sum += entry.weight;
        self.nodes[node_id].mbr.extend_coords(&entry.coords);

        let child_action = match &self.nodes[node_id].content {
            AggContent::Leaf(_) => None,
            AggContent::Internal(children) => Some(self.choose_subtree(children, &entry.coords)),
        };

        match child_action {
            None => {
                // Leaf: push and split if necessary.
                if let AggContent::Leaf(entries) = &mut self.nodes[node_id].content {
                    entries.push(entry);
                    if entries.len() <= MAX_ENTRIES {
                        return None;
                    }
                }
                Some(self.split_leaf(node_id))
            }
            Some(child) => {
                if let Some(new_child) = self.insert_rec(child, entry) {
                    if let AggContent::Internal(children) = &mut self.nodes[node_id].content {
                        children.push(new_child);
                        if children.len() <= MAX_ENTRIES {
                            return None;
                        }
                    }
                    return Some(self.split_internal(node_id));
                }
                None
            }
        }
    }

    /// Chooses the child whose MBR needs the least enlargement to cover the
    /// point (ties broken by smaller volume).
    fn choose_subtree(&self, children: &[usize], coords: &[f64]) -> usize {
        let mut best = children[0];
        let mut best_enlargement = f64::INFINITY;
        let mut best_volume = f64::INFINITY;
        for &c in children {
            let mbr = &self.nodes[c].mbr;
            let mut extended = mbr.clone();
            extended.extend_coords(coords);
            let enlargement = extended.volume() - mbr.volume();
            let volume = mbr.volume();
            if enlargement < best_enlargement
                || (enlargement == best_enlargement && volume < best_volume)
            {
                best = c;
                best_enlargement = enlargement;
                best_volume = volume;
            }
        }
        best
    }

    /// Splits an over-full leaf along the dimension with the widest spread;
    /// the original node keeps the lower half, the new sibling gets the rest.
    fn split_leaf(&mut self, node_id: usize) -> usize {
        let dim = self.dim;
        let mut entries = match std::mem::replace(
            &mut self.nodes[node_id].content,
            AggContent::Leaf(Vec::new()),
        ) {
            AggContent::Leaf(e) => e,
            AggContent::Internal(_) => unreachable!("split_leaf called on internal node"),
        };
        let split_dim = widest_dimension(entries.iter().map(|e| e.coords.as_slice()), dim);
        entries.sort_unstable_by(|a, b| {
            a.coords[split_dim]
                .partial_cmp(&b.coords[split_dim])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let upper = entries.split_off(entries.len() / 2);
        let (low_mbr, low_sum) = leaf_summary(&entries);
        let (high_mbr, high_sum) = leaf_summary(&upper);

        self.nodes[node_id].content = AggContent::Leaf(entries);
        self.nodes[node_id].mbr = low_mbr;
        self.nodes[node_id].weight_sum = low_sum;

        self.nodes.push(AggNode {
            mbr: high_mbr,
            weight_sum: high_sum,
            content: AggContent::Leaf(upper),
        });
        self.nodes.len() - 1
    }

    /// Splits an over-full internal node by the centres of its children's
    /// MBRs along the widest dimension.
    fn split_internal(&mut self, node_id: usize) -> usize {
        let dim = self.dim;
        let mut children = match std::mem::replace(
            &mut self.nodes[node_id].content,
            AggContent::Internal(Vec::new()),
        ) {
            AggContent::Internal(c) => c,
            AggContent::Leaf(_) => unreachable!("split_internal called on leaf node"),
        };
        let centers: Vec<Vec<f64>> = children
            .iter()
            .map(|&c| self.nodes[c].mbr.center().into_coords())
            .collect();
        let split_dim = widest_dimension(centers.iter().map(|c| c.as_slice()), dim);
        children.sort_unstable_by(|&a, &b| {
            self.nodes[a].mbr.center()[split_dim]
                .partial_cmp(&self.nodes[b].mbr.center()[split_dim])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let upper = children.split_off(children.len() / 2);
        let (low_mbr, low_sum) = self.internal_summary(&children);
        let (high_mbr, high_sum) = self.internal_summary(&upper);

        self.nodes[node_id].content = AggContent::Internal(children);
        self.nodes[node_id].mbr = low_mbr;
        self.nodes[node_id].weight_sum = low_sum;

        self.nodes.push(AggNode {
            mbr: high_mbr,
            weight_sum: high_sum,
            content: AggContent::Internal(upper),
        });
        self.nodes.len() - 1
    }

    fn internal_summary(&self, children: &[usize]) -> (Mbr, f64) {
        let mbr = children
            .iter()
            .map(|&c| self.nodes[c].mbr.clone())
            .reduce(|a, b| a.union(&b))
            .expect("internal nodes have children");
        let sum = children.iter().map(|&c| self.nodes[c].weight_sum).sum();
        (mbr, sum)
    }

    /// Sum of the weights of all points `p ⪯ corner` (the window query of
    /// Algorithm 2).
    pub fn window_sum(&self, corner: &[f64]) -> f64 {
        self.sum_weights_in(&crate::region::WindowTo::new(corner))
    }

    /// Sum of weights of all points inside a downward-closed region.
    pub fn sum_weights_in<R: DominanceRegion>(&self, region: &R) -> f64 {
        match self.root {
            None => 0.0,
            Some(root) => self.sum_rec(root, region),
        }
    }

    fn sum_rec<R: DominanceRegion>(&self, node_id: usize, region: &R) -> f64 {
        let node = &self.nodes[node_id];
        if !region.may_intersect(&node.mbr) {
            return 0.0;
        }
        if region.covers(&node.mbr) {
            return node.weight_sum;
        }
        match &node.content {
            AggContent::Leaf(entries) => entries
                .iter()
                .filter(|e| region.contains(&e.coords))
                .map(|e| e.weight)
                .sum(),
            AggContent::Internal(children) => {
                children.iter().map(|&c| self.sum_rec(c, region)).sum()
            }
        }
    }
}

fn leaf_summary(entries: &[AggEntry]) -> (Mbr, f64) {
    let mbr = Mbr::from_coord_slices(entries.iter().map(|e| e.coords.as_slice()))
        .expect("leaf halves are non-empty");
    let sum = entries.iter().map(|e| e.weight).sum();
    (mbr, sum)
}

/// Index of the dimension with the largest coordinate spread.
fn widest_dimension<'a>(coords: impl Iterator<Item = &'a [f64]>, dim: usize) -> usize {
    let mut min = vec![f64::INFINITY; dim];
    let mut max = vec![f64::NEG_INFINITY; dim];
    for c in coords {
        for i in 0..dim {
            min[i] = min[i].min(c[i]);
            max[i] = max[i].max(c[i]);
        }
    }
    (0..dim)
        .max_by(|&a, &b| {
            (max[a] - min[a])
                .partial_cmp(&(max[b] - min[b]))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::FDominatorsOf;
    use crate::test_util::random_entries;
    use arsp_geometry::constraints::WeightRatio;
    use arsp_geometry::fdom::WeightRatioFDominance;
    use arsp_geometry::point::dominates;
    use proptest::prelude::*;

    #[test]
    fn empty_tree_sums_to_zero() {
        let tree = AggregateRTree::new(3);
        assert!(tree.is_empty());
        assert_eq!(tree.window_sum(&[1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn window_sum_matches_brute_force_after_incremental_inserts() {
        let entries = random_entries(600, 3, 42);
        let mut tree = AggregateRTree::new(3);
        for pos in 0..entries.len() {
            tree.insert(entries.coords_of(pos), entries.weight(pos));
        }
        assert_eq!(tree.len(), entries.len());

        for corner in [
            vec![0.5, 0.5, 0.5],
            vec![0.2, 0.8, 0.4],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 0.0, 0.0],
        ] {
            let want: f64 = (0..entries.len())
                .filter(|&pos| dominates(entries.coords_of(pos), &corner))
                .map(|pos| entries.weight(pos))
                .sum();
            let got = tree.window_sum(&corner);
            assert!(
                (got - want).abs() < 1e-9,
                "corner {corner:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn interleaved_inserts_and_queries() {
        // B&B interleaves insertions and window queries; check consistency at
        // every step on a small workload.
        let entries = random_entries(120, 2, 9);
        let mut tree = AggregateRTree::new(2);
        let mut inserted: Vec<(Vec<f64>, f64)> = Vec::new();
        for pos in 0..entries.len() {
            let (corner, weight) = (entries.coords_of(pos), entries.weight(pos));
            let want: f64 = inserted
                .iter()
                .filter(|(c, _)| dominates(c, corner))
                .map(|(_, w)| w)
                .sum();
            let got = tree.window_sum(corner);
            assert!((got - want).abs() < 1e-9);
            tree.insert(corner, weight);
            inserted.push((corner.to_vec(), weight));
        }
    }

    #[test]
    fn fdominance_region_sum() {
        let ratio = WeightRatio::uniform(2, 0.5, 2.0);
        let fdom = WeightRatioFDominance::new(ratio);
        let entries = random_entries(300, 2, 17);
        let mut tree = AggregateRTree::new(2);
        for pos in 0..entries.len() {
            tree.insert(entries.coords_of(pos), entries.weight(pos));
        }
        let target = [0.6, 0.6];
        let region = FDominatorsOf::new(&fdom, &target);
        use arsp_geometry::fdom::FDominance as _;
        let want: f64 = (0..entries.len())
            .filter(|&pos| fdom.f_dominates(entries.coords_of(pos), &target))
            .map(|pos| entries.weight(pos))
            .sum();
        let got = tree.sum_weights_in(&region);
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn reset_empties_and_retargets_the_tree() {
        let mut tree = AggregateRTree::new(2);
        let entries = random_entries(80, 2, 3);
        for pos in 0..entries.len() {
            tree.insert(entries.coords_of(pos), entries.weight(pos));
        }
        assert!(!tree.is_empty());
        tree.reset(3);
        assert!(tree.is_empty());
        assert_eq!(tree.window_sum(&[1.0, 1.0, 1.0]), 0.0);
        tree.insert(&[0.1, 0.2, 0.3], 0.5);
        assert_eq!(tree.len(), 1);
        assert!((tree.window_sum(&[1.0, 1.0, 1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_points_accumulate_weight() {
        let mut tree = AggregateRTree::new(2);
        for _ in 0..50 {
            tree.insert(&[0.5, 0.5], 0.1);
        }
        assert_eq!(tree.len(), 50);
        assert!((tree.window_sum(&[0.5, 0.5]) - 5.0).abs() < 1e-9);
        assert!((tree.window_sum(&[0.4, 0.6]) - 0.0).abs() < 1e-12);
    }

    proptest! {
        /// Incremental window sums always match a brute-force filter.
        #[test]
        fn window_sum_is_exact(
            pts in proptest::collection::vec(
                (proptest::collection::vec(0.0f64..1.0, 3), 0.0f64..1.0), 1..120),
            corner in proptest::collection::vec(0.0f64..1.0, 3),
        ) {
            let mut tree = AggregateRTree::new(3);
            for (coords, w) in &pts {
                tree.insert(coords, *w);
            }
            let want: f64 = pts
                .iter()
                .filter(|(c, _)| c.iter().zip(&corner).all(|(a, b)| a <= b))
                .map(|(_, w)| w)
                .sum();
            let got = tree.window_sum(&corner);
            prop_assert!((got - want).abs() < 1e-9);
        }
    }
}
