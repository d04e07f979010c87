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
//! the theoretical point-location structure (see README, "Substitutions").
//!
//! Implementation notes. The tree lives in flat arenas, so a window query
//! chases no per-entry or per-corner heap pointer, and [`reset`] empties
//! them without freeing:
//!
//! * entry coordinates in one `dim`-strided array, with the weights beside
//!   them, in insertion order;
//! * node corners in one `2·dim`-strided array (min corner, then max
//!   corner);
//! * one small record per node: its weight sum, whether it is a leaf, and
//!   its items (entry or child indices) in a fixed `[u32; MAX_ENTRIES + 1]`,
//!   whose one slot over the fanout holds the item that makes it split.
//!
//! An insert descends to the child whose box needs the least volume
//! enlargement (ties to the smaller volume). An over-full node splits at
//! the median of the axis with the widest spread (of entry coordinates in a
//! leaf, of child box centres in an internal node), after a *stable* sort of
//! its items along that axis; quadratic-cost split heuristics are
//! unnecessary at these fanouts. Every float step — corners widened by
//! `<`/`>`, volumes multiplied axis by axis, weight sums added in item order
//! — follows from the insertion sequence alone, so the tree's shape and
//! every sum's bits do too.
//!
//! [`reset`]: AggregateRTree::reset

use crate::region::DominanceRegion;

/// Maximum number of children / leaf entries per node.
const MAX_ENTRIES: usize = 16;

/// One node: its aggregate, its kind and its items (entry indices in a
/// leaf, child node indices in an internal node). Its corners live in the
/// tree's corner arena.
#[derive(Clone, Debug)]
struct AggNode {
    weight_sum: f64,
    leaf: bool,
    len: u8,
    items: [u32; MAX_ENTRIES + 1],
}

impl AggNode {
    fn new(leaf: bool, weight_sum: f64, items: &[u32]) -> Self {
        let mut node = Self {
            weight_sum,
            leaf,
            len: 0,
            items: [0; MAX_ENTRIES + 1],
        };
        node.set_items(items);
        node
    }

    #[inline]
    fn items(&self) -> &[u32] {
        &self.items[..usize::from(self.len)]
    }

    fn set_items(&mut self, items: &[u32]) {
        self.items[..items.len()].copy_from_slice(items);
        self.len = items.len() as u8;
    }
}

/// A dynamic aggregated R-tree over weighted points.
#[derive(Clone, Debug)]
pub struct AggregateRTree {
    dim: usize,
    /// Entry `e`'s coordinates are `coords[e·dim .. (e+1)·dim]`.
    coords: Vec<f64>,
    weights: Vec<f64>,
    /// Node `v`'s min corner is `corners[2v·dim ..][..dim]`, its max corner
    /// the next `dim` values.
    corners: Vec<f64>,
    nodes: Vec<AggNode>,
    root: Option<u32>,
}

impl AggregateRTree {
    /// Creates an empty tree over `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1);
        Self {
            dim,
            coords: Vec::new(),
            weights: Vec::new(),
            corners: Vec::new(),
            nodes: Vec::new(),
            root: None,
        }
    }

    /// Empties the tree and re-targets it at `dim`-dimensional points,
    /// keeping every arena's allocation for reuse across queries.
    pub fn reset(&mut self, dim: usize) {
        assert!(dim >= 1);
        self.dim = dim;
        self.coords.clear();
        self.weights.clear();
        self.corners.clear();
        self.nodes.clear();
        self.root = None;
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when no point has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Inserts a weighted point.
    ///
    /// # Panics
    /// Panics if the point has the wrong dimensionality.
    pub fn insert(&mut self, coords: &[f64], weight: f64) {
        assert_eq!(coords.len(), self.dim, "dimension mismatch on insert");
        let entry = u32::try_from(self.weights.len()).expect("entry count exceeds u32 range");
        self.coords.extend_from_slice(coords);
        self.weights.push(weight);
        let node = match self.root {
            None => AggNode::new(true, weight, &[entry]),
            Some(root) => match self.insert_rec(root, entry) {
                None => return,
                // The root split: a new root holds the two halves.
                Some(sibling) => {
                    let weight_sum = self.nodes[root as usize].weight_sum
                        + self.nodes[sibling as usize].weight_sum;
                    AggNode::new(false, weight_sum, &[root, sibling])
                }
            },
        };
        self.root = Some(self.push_node(node));
    }

    /// Recursive insertion of entry `e` below node `v`; returns the new
    /// sibling node when `v` had to split.
    fn insert_rec(&mut self, v: u32, e: u32) -> Option<u32> {
        let (dim, vu) = (self.dim, v as usize);
        // The entry ends up somewhere in this subtree whatever splits
        // below, so the aggregate and the box grow up front.
        self.nodes[vu].weight_sum += self.weights[e as usize];
        let min = 2 * vu * dim;
        for k in 0..dim {
            widen(
                &mut self.corners,
                min + k,
                dim,
                self.coords[e as usize * dim + k],
            );
        }
        let item = if self.nodes[vu].leaf {
            e
        } else {
            let child = self.choose_subtree(vu, e);
            self.insert_rec(child, e)?
        };
        let node = &mut self.nodes[vu];
        node.items[usize::from(node.len)] = item;
        node.len += 1;
        (usize::from(node.len) > MAX_ENTRIES).then(|| self.split(vu))
    }

    /// The child of internal node `v` whose box needs the least volume
    /// enlargement to cover entry `e` (ties broken by smaller volume).
    fn choose_subtree(&self, v: usize, e: u32) -> u32 {
        let point = self.entry(e);
        let children = self.nodes[v].items();
        let mut best = children[0];
        let mut best_enlargement = f64::INFINITY;
        let mut best_volume = f64::INFINITY;
        for &c in children {
            let (min, max) = self.box_of(c as usize);
            let volume: f64 = min.iter().zip(max).map(|(lo, hi)| hi - lo).product();
            let extended: f64 = min
                .iter()
                .zip(max)
                .zip(point)
                .map(|((&lo, &hi), &x)| {
                    let hi = if x > hi { x } else { hi };
                    let lo = if x < lo { x } else { lo };
                    hi - lo
                })
                .product();
            let enlargement = extended - volume;
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

    /// Splits over-full node `v` at the median of its widest axis: `v`
    /// keeps the lower half of its items, a new sibling, returned, the rest.
    fn split(&mut self, v: usize) -> u32 {
        let leaf = self.nodes[v].leaf;
        // Only a full node splits, so every slot holds an item.
        debug_assert_eq!(usize::from(self.nodes[v].len), MAX_ENTRIES + 1);
        let mut items = self.nodes[v].items;
        let axis = self.widest_axis(leaf, &items);
        items.sort_by(|&a, &b| {
            self.split_key(leaf, a, axis)
                .partial_cmp(&self.split_key(leaf, b, axis))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let (low, high) = items.split_at(items.len() / 2);
        let low_sum = self.items_sum(leaf, low);
        self.nodes[v].set_items(low);
        self.nodes[v].weight_sum = low_sum;
        self.set_box(v);
        let high_sum = self.items_sum(leaf, high);
        self.push_node(AggNode::new(leaf, high_sum, high))
    }

    /// The axis on which the split keys of `items` spread the most (the
    /// last such axis on a tie).
    fn widest_axis(&self, leaf: bool, items: &[u32]) -> usize {
        let spread = |axis| {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &i in items {
                let x = self.split_key(leaf, i, axis);
                lo = lo.min(x);
                hi = hi.max(x);
            }
            hi - lo
        };
        (0..self.dim)
            .map(|axis| (axis, spread(axis)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(axis, _)| axis)
    }

    /// An item's position on `axis`: an entry's coordinate in a leaf, a
    /// child box's centre in an internal node.
    fn split_key(&self, leaf: bool, item: u32, axis: usize) -> f64 {
        if leaf {
            self.entry(item)[axis]
        } else {
            let (min, max) = self.box_of(item as usize);
            0.5 * (min[axis] + max[axis])
        }
    }

    /// The weight sum of `items`: entry weights in a leaf, child aggregates
    /// in an internal node.
    fn items_sum(&self, leaf: bool, items: &[u32]) -> f64 {
        if leaf {
            items.iter().map(|&e| self.weights[e as usize]).sum()
        } else {
            items
                .iter()
                .map(|&c| self.nodes[c as usize].weight_sum)
                .sum()
        }
    }

    /// Appends a node, with its box computed from its items.
    fn push_node(&mut self, node: AggNode) -> u32 {
        let v = self.nodes.len();
        self.nodes.push(node);
        self.corners.resize(self.corners.len() + 2 * self.dim, 0.0);
        self.set_box(v);
        v as u32
    }

    /// Recomputes node `v`'s box from its items: the first item's box (an
    /// entry is a point box), widened by every further item's corners.
    fn set_box(&mut self, v: usize) {
        let dim = self.dim;
        let node = &self.nodes[v];
        let (min, corners) = (2 * v * dim, &mut self.corners);
        for (i, &item) in node.items().iter().enumerate() {
            let item = item as usize;
            for k in 0..dim {
                if node.leaf {
                    let x = self.coords[item * dim + k];
                    if i == 0 {
                        corners[min + k] = x;
                        corners[min + dim + k] = x;
                    } else {
                        widen(corners, min + k, dim, x);
                    }
                } else {
                    let (lo, hi) = (
                        corners[2 * item * dim + k],
                        corners[(2 * item + 1) * dim + k],
                    );
                    if i == 0 {
                        corners[min + k] = lo;
                        corners[min + dim + k] = hi;
                    } else {
                        widen(corners, min + k, dim, lo);
                        widen(corners, min + k, dim, hi);
                    }
                }
            }
        }
    }

    /// Entry `e`'s coordinates.
    #[inline]
    fn entry(&self, e: u32) -> &[f64] {
        &self.coords[e as usize * self.dim..][..self.dim]
    }

    /// Node `v`'s min and max corners.
    #[inline]
    fn box_of(&self, v: usize) -> (&[f64], &[f64]) {
        self.corners[2 * v * self.dim..][..2 * self.dim].split_at(self.dim)
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
            Some(root) => self.sum_rec(root as usize, region),
        }
    }

    fn sum_rec<R: DominanceRegion>(&self, v: usize, region: &R) -> f64 {
        let (min, max) = self.box_of(v);
        if !region.may_intersect(min) {
            return 0.0;
        }
        let node = &self.nodes[v];
        if region.covers(max) {
            return node.weight_sum;
        }
        if node.leaf {
            node.items()
                .iter()
                .filter(|&&e| region.contains(self.entry(e)))
                .map(|&e| self.weights[e as usize])
                .sum()
        } else {
            node.items()
                .iter()
                .map(|&c| self.sum_rec(c as usize, region))
                .sum()
        }
    }
}

/// Widens a box to cover `x` on one axis, `corners[min]` being the axis's
/// min-corner slot and `corners[min + dim]` its max-corner slot (`<`/`>`,
/// so a NaN leaves the box as it is).
#[inline]
fn widen(corners: &mut [f64], min: usize, dim: usize, x: f64) {
    if x < corners[min] {
        corners[min] = x;
    }
    if x > corners[min + dim] {
        corners[min + dim] = x;
    }
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

    /// FNV-1a digest of every window sum's bits, per d = 1..=11, over 400
    /// inserts of grid points with ties and duplicates, asking two windows
    /// after every insert. 400 entries make trees of three levels, so the
    /// digests hold leaf and internal splits to the tree shape they were
    /// recorded with (before the tree moved to flat arenas).
    #[test]
    fn window_sum_bits_are_pinned() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        const PINS: [u64; 11] = [
            0x89f9240a4bc01828,
            0x7696fffaa5e33515,
            0xb70282349ea26ab7,
            0xbd4e62ae841a1017,
            0xcb036e0e8a4bc615,
            0xa6db21c23d974505,
            0xc4093ea28e2b735e,
            0xcd3a6aab00456729,
            0x0d14840a875700c7,
            0xd5d21582b6711ffc,
            0x04237e894e3efa63,
        ];
        for (dim, &pin) in (1..=11).zip(&PINS) {
            let mut rng = ChaCha8Rng::seed_from_u64(0xa66 + dim as u64);
            let grid = |rng: &mut ChaCha8Rng| -> Vec<f64> {
                (0..dim)
                    .map(|_| rng.gen_range(0..8) as f64 * 0.25)
                    .collect()
            };
            let mut tree = AggregateRTree::new(dim);
            let mut points: Vec<Vec<f64>> = Vec::new();
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            for _ in 0..400 {
                let point = if !points.is_empty() && rng.gen_bool(0.25) {
                    points[rng.gen_range(0..points.len())].clone()
                } else {
                    grid(&mut rng)
                };
                let weight = f64::from(rng.gen_range(1..9)) / 48.0;
                tree.insert(&point, weight);
                let corner = grid(&mut rng);
                for sum in [tree.window_sum(&point), tree.window_sum(&corner)] {
                    for byte in sum.to_bits().to_le_bytes() {
                        digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
                points.push(point);
            }
            assert_eq!(digest, pin, "d = {dim}");
        }
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
