//! A static median-split kd-tree.
//!
//! Two consumers:
//!
//! * the **KDTT** variant of Algorithm 1 first builds the whole kd-tree over
//!   the score-space instance set `I'` and then performs the pre-order
//!   traversal of Afshani et al.'s kd-ASP; the tree therefore exposes its
//!   node structure (MBR and subtree size per node),
//! * the **eclipse DUAL-S** algorithm of §V-D asks existence queries ("is
//!   there any point inside the F-dominance region of `t`, other than `t`
//!   itself?") against the skyline of a certain dataset.
//!
//! Layout: entries live in a columnar [`FlatEntries`] store, leaf membership
//! is a `(start, len)` range into one shared `leaf_items` array (no per-leaf
//! `Vec`), and node MBRs are derived **bottom-up** during construction —
//! leaves scan only their own entries and internal nodes take the union of
//! their two children, so the build does `O(n·d)` coordinate
//! work per level instead of rescanning the full subtree at every recursion
//! depth.

use crate::region::DominanceRegion;
use crate::FlatEntries;
use arsp_geometry::Mbr;

/// Identifier of a node in the kd-tree arena.
pub type KdNodeId = usize;

/// Children of a kd-tree node.
#[derive(Clone, Copy, Debug)]
pub enum KdNodeContent {
    /// Internal node: split dimension plus the two children.
    Internal {
        /// Dimension along which the node's points were split.
        split_dim: usize,
        /// Child holding the lower half.
        left: KdNodeId,
        /// Child holding the upper half.
        right: KdNodeId,
    },
    /// Leaf node: a `(start, len)` range into [`KdTree::leaf_items`].
    Leaf {
        /// First slot of the leaf's range in the shared item array.
        start: u32,
        /// Number of entries in the leaf.
        len: u32,
    },
}

/// A kd-tree node.
#[derive(Clone, Debug)]
pub struct KdNode {
    mbr: Mbr,
    size: usize,
    content: KdNodeContent,
}

impl KdNode {
    /// Minimum bounding rectangle of the points under this node.
    pub fn mbr(&self) -> &Mbr {
        &self.mbr
    }

    /// Number of points under this node.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Children of this node.
    pub fn content(&self) -> &KdNodeContent {
        &self.content
    }
}

/// A static, median-split kd-tree over point entries.
#[derive(Clone, Debug)]
pub struct KdTree {
    entries: FlatEntries,
    nodes: Vec<KdNode>,
    /// Shared leaf-membership arena; each leaf owns one contiguous range of
    /// entry positions.
    leaf_items: Vec<u32>,
    root: Option<KdNodeId>,
    leaf_size: usize,
}

impl KdTree {
    /// Builds a kd-tree whose leaves hold a single entry (the granularity the
    /// paper's kd-ASP\* descends to).
    pub fn build_flat(entries: FlatEntries) -> Self {
        Self::build_flat_with_leaf_size(entries, 1)
    }

    /// [`KdTree::build_flat`] with a custom leaf capacity (≥ 1).
    pub fn build_flat_with_leaf_size(entries: FlatEntries, leaf_size: usize) -> Self {
        assert!(leaf_size >= 1);
        let n = entries.len();
        let mut tree = Self {
            entries,
            nodes: Vec::with_capacity(if n == 0 { 0 } else { 2 * n }),
            leaf_items: Vec::with_capacity(n),
            root: None,
            leaf_size,
        };
        if n == 0 {
            return tree;
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        let root = tree.build_rec(&mut order, 0);
        tree.root = Some(root);
        tree
    }

    fn build_rec(&mut self, order: &mut [u32], depth: usize) -> KdNodeId {
        if order.len() <= self.leaf_size {
            // Leaf: the only place coordinates are scanned during the build.
            let dim = self.entries.dim();
            let mbr = Mbr::from_flat_rows(
                self.entries.coords(),
                dim,
                order.iter().map(|&i| i as usize),
            )
            .expect("non-empty point set");
            let start = self.leaf_items.len() as u32;
            self.leaf_items.extend_from_slice(order);
            self.nodes.push(KdNode {
                mbr,
                size: order.len(),
                content: KdNodeContent::Leaf {
                    start,
                    len: order.len() as u32,
                },
            });
            return self.nodes.len() - 1;
        }

        let split_dim = depth % self.entries.dim();
        let mid = order.len() / 2;
        {
            let coords = self.entries.coords();
            let dim = self.entries.dim();
            order.select_nth_unstable_by(mid, |&a, &b| {
                coords[a as usize * dim + split_dim]
                    .partial_cmp(&coords[b as usize * dim + split_dim])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        let size = order.len();
        let (low, high) = order.split_at_mut(mid);
        // `mid >= 1` because `order.len() > leaf_size >= 1`, so both halves are
        // non-empty.
        let left = self.build_rec(low, depth + 1);
        let right = self.build_rec(high, depth + 1);
        // Bounds come from the children — min/max unions are exact, so the
        // MBR is bit-identical to a full subtree rescan without one.
        let mbr = self.nodes[left].mbr.union(&self.nodes[right].mbr);
        self.nodes.push(KdNode {
            mbr,
            size,
            content: KdNodeContent::Internal {
                split_dim,
                left,
                right,
            },
        });
        self.nodes.len() - 1
    }

    /// Root node id (`None` for an empty tree).
    pub fn root(&self) -> Option<KdNodeId> {
        self.root
    }

    /// Access a node by id.
    pub fn node(&self, id: KdNodeId) -> &KdNode {
        &self.nodes[id]
    }

    /// The columnar entry store, in original entry order.
    pub fn entries(&self) -> &FlatEntries {
        &self.entries
    }

    /// The entry positions of a leaf's `(start, len)` range.
    #[inline]
    pub fn leaf_items(&self, start: u32, len: u32) -> &[u32] {
        &self.leaf_items[start as usize..(start + len) as usize]
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Height of the tree.
    pub fn height(&self) -> usize {
        fn rec(tree: &KdTree, id: KdNodeId) -> usize {
            match tree.nodes[id].content {
                KdNodeContent::Leaf { .. } => 1,
                KdNodeContent::Internal { left, right, .. } => {
                    1 + rec(tree, left).max(rec(tree, right))
                }
            }
        }
        self.root.map_or(0, |r| rec(self, r))
    }

    /// Returns `true` when some entry with id different from `skip_id` lies
    /// inside the region.
    pub fn any_in<R: DominanceRegion>(&self, region: &R, skip_id: Option<usize>) -> bool {
        let Some(root) = self.root else { return false };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            if !region.may_intersect(node.mbr.min().coords()) {
                continue;
            }
            // Covered subtrees contain at least one qualifying point unless
            // the subtree holds only the excluded entry.
            if region.covers(node.mbr.max().coords()) && (skip_id.is_none() || node.size > 1) {
                return true;
            }
            match node.content {
                KdNodeContent::Internal { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
                KdNodeContent::Leaf { start, len } => {
                    for &ei in self.leaf_items(start, len) {
                        if Some(self.entries.id(ei as usize)) == skip_id {
                            continue;
                        }
                        if region.contains(self.entries.coords_of(ei as usize)) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::WindowTo;
    use crate::test_util::random_entries;

    #[test]
    fn empty_and_single() {
        let t = KdTree::build_flat(FlatEntries::with_capacity(1, 0));
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        let corner = [1.0];
        assert!(!t.any_in(&WindowTo::new(&corner), None));

        let mut entries = FlatEntries::with_capacity(2, 1);
        entries.push(0, 0.7, &[0.5, 0.5]);
        let t = KdTree::build_flat(entries);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        let corner = [0.6, 0.6];
        assert!(t.any_in(&WindowTo::new(&corner), None));
        assert!(!t.any_in(&WindowTo::new(&corner), Some(0)));
    }

    #[test]
    fn balanced_height() {
        let t = KdTree::build_flat(random_entries(1024, 3, 2));
        // A median-split kd-tree over 1024 points with unit leaves has height
        // exactly 11.
        assert_eq!(t.height(), 11);
    }

    #[test]
    fn node_invariants() {
        let t = KdTree::build_flat_with_leaf_size(random_entries(300, 2, 4), 4);
        let mut stack = vec![t.root().unwrap()];
        let mut leaf_slots = 0;
        while let Some(id) = stack.pop() {
            let node = t.node(id);
            match *node.content() {
                KdNodeContent::Internal { left, right, .. } => {
                    let (l, r) = (t.node(left), t.node(right));
                    assert_eq!(node.size(), l.size() + r.size());
                    assert!(node.mbr().contains_mbr(l.mbr()));
                    assert!(node.mbr().contains_mbr(r.mbr()));
                    stack.push(left);
                    stack.push(right);
                }
                KdNodeContent::Leaf { start, len } => {
                    let idx = t.leaf_items(start, len);
                    assert!(idx.len() <= 4);
                    assert_eq!(node.size(), idx.len());
                    for &ei in idx {
                        assert!(node.mbr().contains(t.entries().coords_of(ei as usize)));
                    }
                    leaf_slots += idx.len();
                }
            }
        }
        // Leaf ranges partition the shared item arena.
        assert_eq!(leaf_slots, t.len());
    }

    #[test]
    fn for_each_and_any_with_skip() {
        let mut entries = FlatEntries::with_capacity(2, 3);
        entries.push(0, 1.0, &[0.1, 0.1]);
        entries.push(1, 1.0, &[0.15, 0.12]);
        entries.push(2, 1.0, &[0.9, 0.9]);
        let t = KdTree::build_flat(entries);
        let corner = [0.2, 0.2];
        assert!(t.any_in(&WindowTo::new(&corner), Some(0)));
        let tight = [0.11, 0.11];
        assert!(t.any_in(&WindowTo::new(&tight), None));
        assert!(!t.any_in(&WindowTo::new(&tight), Some(0)));
        let below_all = [0.05, 0.05];
        assert!(!t.any_in(&WindowTo::new(&below_all), None));
    }
}
