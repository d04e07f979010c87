//! A static R-tree bulk loaded with the Sort-Tile-Recursive (STR) algorithm.
//!
//! The paper organises the instance set `I` with an in-memory R-tree
//! (§II-B) and Algorithm 2 (B&B) traverses that R-tree in best-first order,
//! pushing child nodes into its own priority queue. The tree therefore
//! exposes its node structure (`NodeId`, [`NodeContent`]) instead of region
//! queries.
//!
//! Layout: entries live in a columnar [`FlatEntries`] store and every node's
//! children — child node ids for internal nodes, entry positions for leaves —
//! are a `(start, len)` range into one shared item array ([`RTree::items`]).
//! The STR partitioning sorts a single permutation in place and records leaf
//! *boundaries* instead of materialising a `Vec<Vec<usize>>` of groups, so
//! bulk loading allocates O(1) vectors beyond the output arenas.

use crate::FlatEntries;
use arsp_geometry::Mbr;

/// Identifier of a node inside an [`RTree`] arena.
pub type NodeId = usize;

/// Children of an R-tree node, as a `(start, len)` range into the shared
/// item array ([`RTree::items`]).
#[derive(Clone, Copy, Debug)]
pub enum NodeContent {
    /// Internal node: the range holds child node ids.
    Internal {
        /// First slot of the node's range in the shared item array.
        start: u32,
        /// Number of children.
        len: u32,
    },
    /// Leaf node: the range holds entry positions.
    Leaf {
        /// First slot of the node's range in the shared item array.
        start: u32,
        /// Number of entries in the leaf.
        len: u32,
    },
}

/// One node of the R-tree.
#[derive(Clone, Debug)]
pub struct Node {
    mbr: Mbr,
    content: NodeContent,
}

impl Node {
    /// Minimum bounding rectangle of the node.
    pub fn mbr(&self) -> &Mbr {
        &self.mbr
    }

    /// Children of the node.
    pub fn content(&self) -> &NodeContent {
        &self.content
    }
}

/// A static STR bulk-loaded R-tree.
#[derive(Clone, Debug)]
pub struct RTree {
    entries: FlatEntries,
    nodes: Vec<Node>,
    /// Shared child arena: leaf ranges hold entry positions, internal ranges
    /// hold child node ids.
    items: Vec<u32>,
    root: Option<NodeId>,
    fanout: usize,
}

/// Default node fanout. Small enough that best-first traversal gets useful
/// pruning granularity, large enough to keep the tree shallow.
pub const DEFAULT_FANOUT: usize = 16;

impl RTree {
    /// Bulk loads an R-tree over a columnar entry store with the default
    /// fanout.
    pub fn bulk_load_flat(entries: FlatEntries) -> Self {
        Self::bulk_load_flat_with_fanout(entries, DEFAULT_FANOUT)
    }

    /// [`RTree::bulk_load_flat`] with an explicit fanout (≥ 2).
    pub fn bulk_load_flat_with_fanout(entries: FlatEntries, fanout: usize) -> Self {
        assert!(fanout >= 2, "R-tree fanout must be at least 2");
        let n = entries.len();
        let mut tree = Self {
            entries,
            nodes: Vec::new(),
            items: Vec::new(),
            root: None,
            fanout,
        };
        if n == 0 {
            return tree;
        }
        // 1. Partition one permutation of entry positions into spatially
        //    coherent leaf ranges: `order` is sorted in place and
        //    `boundaries` collects the end offset of each leaf group.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let dim = tree.entries.dim();
        let mut boundaries: Vec<u32> = Vec::new();
        str_partition(
            tree.entries.coords(),
            dim,
            &mut order,
            0,
            fanout,
            0,
            &mut boundaries,
        );

        // 2. Create the leaf level. The permutation becomes the front of the
        //    shared item array; each leaf is a range of it.
        tree.items.extend_from_slice(&order);
        let mut level: Vec<NodeId> = Vec::with_capacity(boundaries.len());
        let mut start = 0u32;
        for &end in &boundaries {
            let group = &order[start as usize..end as usize];
            let mbr = Mbr::from_flat_rows(
                tree.entries.coords(),
                dim,
                group.iter().map(|&i| i as usize),
            )
            .expect("leaf groups are non-empty");
            level.push(tree.push_node(Node {
                mbr,
                content: NodeContent::Leaf {
                    start,
                    len: end - start,
                },
            }));
            start = end;
        }

        // 3. Build upper levels by grouping consecutive nodes (the STR order
        //    keeps consecutive nodes spatially close).
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len().div_ceil(fanout));
            for chunk in level.chunks(fanout) {
                let mbr = chunk
                    .iter()
                    .map(|&id| tree.nodes[id].mbr.clone())
                    .reduce(|a, b| a.union(&b))
                    .expect("chunks are non-empty");
                let start = tree.items.len() as u32;
                tree.items.extend(chunk.iter().map(|&id| id as u32));
                next_level.push(tree.push_node(Node {
                    mbr,
                    content: NodeContent::Internal {
                        start,
                        len: chunk.len() as u32,
                    },
                }));
            }
            level = next_level;
        }
        tree.root = Some(level[0]);
        tree
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// The root node id, or `None` for an empty tree.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The item slots of a node's `(start, len)` range: child node ids for an
    /// internal node, entry positions for a leaf.
    #[inline]
    pub fn items(&self, start: u32, len: u32) -> &[u32] {
        &self.items[start as usize..(start + len) as usize]
    }

    /// The columnar entry store, in the order entries were supplied.
    pub fn entries(&self) -> &FlatEntries {
        &self.entries
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Height of the tree (0 for an empty tree, 1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 0;
        let mut cur = self.root;
        while let Some(id) = cur {
            h += 1;
            cur = match self.nodes[id].content {
                NodeContent::Internal { start, .. } => Some(self.items[start as usize] as usize),
                NodeContent::Leaf { .. } => None,
            };
        }
        h
    }
}

/// Recursive STR partitioning over a flat coordinate array: sorts
/// `order[..]` by dimension `dim` and splits it into vertical slabs whose
/// size is a multiple of the target leaf size, recursing on the remaining
/// dimensions. Instead of materialising per-leaf vectors, the function
/// records the *end offset* (relative to the full permutation, hence `base`)
/// of every leaf group in `boundaries` — the permutation itself carries the
/// membership.
#[allow(clippy::too_many_arguments)]
fn str_partition(
    coords: &[f64],
    total_dims: usize,
    order: &mut [u32],
    dim: usize,
    leaf_size: usize,
    base: u32,
    boundaries: &mut Vec<u32>,
) {
    if order.len() <= leaf_size {
        boundaries.push(base + order.len() as u32);
        return;
    }
    order.sort_unstable_by(|&a, &b| {
        coords[a as usize * total_dims + dim]
            .partial_cmp(&coords[b as usize * total_dims + dim])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if dim + 1 == total_dims {
        let mut start = 0;
        while start < order.len() {
            let end = (start + leaf_size).min(order.len());
            boundaries.push(base + end as u32);
            start = end;
        }
        return;
    }
    // Number of leaves still needed below this level and the slab width that
    // spreads them evenly over the remaining dimensions.
    let leaves = order.len().div_ceil(leaf_size);
    let remaining_dims = (total_dims - dim) as f64;
    let slices = (leaves as f64).powf(1.0 / remaining_dims).ceil() as usize;
    let slab = (order.len().div_ceil(slices)).max(leaf_size);
    let mut start = 0;
    while start < order.len() {
        let end = (start + slab).min(order.len());
        str_partition(
            coords,
            total_dims,
            &mut order[start..end],
            dim + 1,
            leaf_size,
            base + start as u32,
            boundaries,
        );
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::random_entries;

    #[test]
    fn empty_tree() {
        let tree = RTree::bulk_load_flat(FlatEntries::with_capacity(2, 0));
        assert!(tree.is_empty());
        assert_eq!(tree.root(), None);
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn single_entry_tree() {
        let mut entries = FlatEntries::with_capacity(2, 1);
        entries.push(0, 0.5, &[0.2, 0.3]);
        let tree = RTree::bulk_load_flat(entries);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        let root = tree.node(tree.root().unwrap());
        assert_eq!(root.mbr().min().coords(), &[0.2, 0.3]);
        assert_eq!(root.mbr().max().coords(), &[0.2, 0.3]);
        let NodeContent::Leaf { start, len } = *root.content() else {
            panic!("a one-entry tree is a single leaf");
        };
        assert_eq!(tree.items(start, len), &[0]);
    }

    #[test]
    fn node_mbrs_contain_children() {
        let tree = RTree::bulk_load_flat(random_entries(500, 3, 7));
        // Every entry must be inside the MBR of the leaf holding it, and every
        // child MBR must be inside its parent's MBR.
        let root = tree.root().unwrap();
        let mut stack = vec![root];
        let mut seen = 0usize;
        while let Some(id) = stack.pop() {
            let node = tree.node(id);
            match *node.content() {
                NodeContent::Internal { start, len } => {
                    for &c in tree.items(start, len) {
                        assert!(node.mbr().contains_mbr(tree.node(c as usize).mbr()));
                        stack.push(c as usize);
                    }
                }
                NodeContent::Leaf { start, len } => {
                    for &ei in tree.items(start, len) {
                        assert!(node.mbr().contains(tree.entries().coords_of(ei as usize)));
                        seen += 1;
                    }
                }
            }
        }
        assert_eq!(seen, tree.len());
    }

    #[test]
    fn leaf_sizes_respect_fanout() {
        let tree = RTree::bulk_load_flat_with_fanout(random_entries(300, 2, 11), 8);
        let root = tree.root().unwrap();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            match *tree.node(id).content() {
                NodeContent::Internal { start, len } => {
                    assert!(len <= 8);
                    stack.extend(tree.items(start, len).iter().map(|&c| c as usize));
                }
                NodeContent::Leaf { len, .. } => {
                    assert!(len >= 1);
                    assert!(len <= 8);
                }
            }
        }
    }

    #[test]
    fn larger_tree_has_multiple_levels() {
        let tree = RTree::bulk_load_flat(random_entries(2000, 4, 5));
        assert!(tree.height() >= 3, "height = {}", tree.height());
        assert_eq!(tree.fanout(), DEFAULT_FANOUT);
    }

    #[test]
    fn leaf_ranges_partition_the_permutation() {
        // The flattened STR load must cover every entry exactly once with
        // consecutive, non-overlapping leaf ranges at the front of the item
        // arena.
        let tree = RTree::bulk_load_flat(random_entries(731, 3, 13));
        let mut leaf_ranges: Vec<(u32, u32)> = Vec::new();
        let mut stack = vec![tree.root().unwrap()];
        while let Some(id) = stack.pop() {
            match *tree.node(id).content() {
                NodeContent::Internal { start, len } => {
                    stack.extend(tree.items(start, len).iter().map(|&c| c as usize));
                }
                NodeContent::Leaf { start, len } => leaf_ranges.push((start, len)),
            }
        }
        leaf_ranges.sort_unstable();
        let mut expect_start = 0u32;
        let mut seen: Vec<u32> = Vec::new();
        for (start, len) in leaf_ranges {
            assert_eq!(start, expect_start, "leaf ranges must be consecutive");
            seen.extend_from_slice(tree.items(start, len));
            expect_start = start + len;
        }
        assert_eq!(expect_start as usize, tree.len());
        seen.sort_unstable();
        let expected: Vec<u32> = (0..tree.len() as u32).collect();
        assert_eq!(seen, expected);
    }
}
