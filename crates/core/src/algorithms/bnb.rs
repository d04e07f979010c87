//! B&B — the branch-and-bound algorithm (Algorithm 2, §III-C).
//!
//! B&B traverses an R-tree over the *original* space in best-first order of
//! the score under one preference-region vertex, reads each popped
//! instance's score-space image `SV(t)` from the [`ScoreMatrix`] (the one the
//! engine caches and shares with LOOP and the KDTT family), and for every
//! instance queries one aggregated R-tree per other object for the
//! dominating probability mass `σ[j] = Σ_{s∈T_j, SV(s) ⪯ SV(t)} p(s)`.
//!
//! Two properties make this correct and output-sensitive:
//!
//! * best-first order by `S_ω(·)` guarantees every possible F-dominator of an
//!   instance has already been processed (and inserted into its object's
//!   aggregated R-tree) when the instance is popped,
//! * the pruning set `P` of per-object score-space maximum corners
//!   (Theorems 3 and 4) discards whole subtrees all of whose instances have
//!   zero rskyline probability, and instances with zero probability are never
//!   inserted into the aggregated R-trees.
//!
//! Expected time `O(m·n·log n)`.
//!
//! # Window loop
//!
//! Algorithm 2 folds `Π_j (1 − σ[j])` over every other object `j`, yet only
//! objects that already hold an instance in their aggregated R-tree can
//! contribute, and most of those hold nothing below `SV(t)`. So
//! [`BnbScratch`] keeps the min corner of every non-empty tree — the
//! componentwise minimum of the score images in it — in one dense
//! `d'`-strided array in activation order, with the object column beside
//! it. The loop first screens every corner against `SV(t)` with a
//! branch-free `⪯` test compiled per score width (`by_width!`), writing
//! the objects that pass (other than `t`'s own) to a hit list. It sorts the
//! few hits ascending and asks only their trees for `window_sum`.
//!
//! Why the bits hold: a corner that is not `⪯ SV(t)` exceeds `SV(t)` on
//! some axis, so does every point in the tree, and `window_sum` would
//! return zero; the factor `1 − 0` is exactly one. A walk over all `m`
//! trees in ascending order that asks only the trees whose corner passes
//! asks exactly the sorted hits, in that order, so the product takes the
//! same float steps and stops at the same object. `window_queries` keeps
//! the definition of that walk:
//! it counts every non-empty tree of another object up to the one where the
//! product hits zero (all of them when it never does), screened out or
//! not, read off the ascending list of non-empty trees by a
//! `partition_point`. A tie group's intra-group pass takes each object's
//! outside mass from the σ this loop already asked for, so it adds no
//! window query. The Theorem-4 pruning test runs the same width-compiled
//! `⪯` over the pruning set, for tie-group members and R-tree nodes alike.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::{one_shot, QueryAlgorithm};
use crate::result::ArspResult;
use crate::scorespace::ScoreMatrix;
use crate::stats::CounterStats;
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::fdom::LinearFDominance;
use arsp_geometry::point::{dominates, score};
use arsp_geometry::ConstraintSet;
use arsp_index::{AggregateRTree, FlatEntries, NodeContent, RTree};

use super::width::{by_width, Width};

/// Tolerance for deciding that an object's accumulated probability has
/// reached one (mirrors the saturation tolerance of kd-ASP\*).
const ONE_EPS: f64 = 1e-9;

/// Computes ARSP with the branch-and-bound algorithm, as a one-shot
/// [`ArspEngine`](crate::engine::ArspEngine) query with
/// [`QueryAlgorithm::BranchAndBound`] forced.
pub fn arsp_bnb(dataset: &UncertainDataset, constraints: &ConstraintSet) -> ArspResult {
    one_shot(dataset, constraints, QueryAlgorithm::BranchAndBound)
}

/// B&B without the pruning set `P` — every instance pays its window queries.
/// Exposed for the ablation study of the pruning set (README,
/// "Substitutions"); not part of the paper's evaluated configurations.
///
/// # Panics
/// Panics if `fdom` was built for a different dimension than the dataset's.
pub fn arsp_bnb_without_pruning(dataset: &UncertainDataset, fdom: &LinearFDominance) -> ArspResult {
    assert_eq!(dataset.dim(), fdom.dim(), "dimension mismatch");
    let rtree = build_instance_rtree(dataset);
    let scores = ScoreMatrix::compute(&FlatStore::from_dataset(dataset), fdom);
    let mut scratch = BnbScratch::default();
    arsp_bnb_impl(
        dataset,
        fdom,
        &rtree,
        &scores,
        false,
        None,
        &mut scratch,
        None,
    )
}

/// Builds the static R-tree over a dataset's instances that B&B traverses —
/// the index the paper assumes is maintained on `I`. It depends only on the
/// dataset (never on the constraints), which is why
/// [`crate::engine::ArspEngine`] builds it once and shares it across queries.
pub fn build_instance_rtree(dataset: &UncertainDataset) -> RTree {
    let mut entries = FlatEntries::with_capacity(dataset.dim(), dataset.num_instances());
    for inst in dataset.instances() {
        entries.push(inst.id, inst.prob, &inst.coords);
    }
    RTree::bulk_load_flat(entries)
}

/// The full-control B&B entry point used by [`crate::engine::ArspEngine`]:
/// optional prebuilt instance R-tree (must index the same dataset), optional
/// precomputed [`ScoreMatrix`] (must cover the same dataset and `fdom`),
/// execution mode (see below), optional work-counter sink, optional reusable
/// [`BnbScratch`]. Whatever is missing is built here, once, before the
/// traversal starts. Results are bitwise identical across every option
/// combination.
///
/// The execution flag is accepted and does not affect execution: B&B always
/// runs sequentially. Its best-first traversal and aggregated R-tree updates
/// are order-dependent, and fanning out each popped instance's window
/// queries measured 0.16–0.30× of sequential on 2 cores (see EXPERIMENTS.md).
#[allow(clippy::too_many_arguments)]
pub fn arsp_bnb_engine(
    dataset: &UncertainDataset,
    fdom: &LinearFDominance,
    rtree: Option<&RTree>,
    scores: Option<&ScoreMatrix>,
    _parallel: bool,
    stats: Option<&CounterStats>,
    scratch: Option<&mut BnbScratch>,
    budget: Option<&crate::fault::QueryBudget>,
) -> ArspResult {
    let owned_tree;
    let rtree = match rtree {
        Some(tree) => tree,
        None => {
            owned_tree = build_instance_rtree(dataset);
            &owned_tree
        }
    };
    let owned_scores;
    let scores = match scores {
        Some(matrix) => matrix,
        None => {
            owned_scores = ScoreMatrix::compute(&FlatStore::from_dataset(dataset), fdom);
            &owned_scores
        }
    };
    let mut owned_scratch;
    let scratch = match scratch {
        Some(s) => s,
        None => {
            owned_scratch = BnbScratch::default();
            &mut owned_scratch
        }
    };
    arsp_bnb_impl(dataset, fdom, rtree, scores, true, stats, scratch, budget)
}

/// Computes `prob · Π_j (1 − σ[j])` over the objects whose aggregated
/// R-tree holds an instance, stopping at zero — the inner object loop of
/// Algorithm 2. `corners` holds those trees' min corners in activation
/// order, `d'`-strided, beside their `objects`; `active` lists the same
/// objects ascending. Only the objects other than `own_object` whose
/// corner is ⪯ `sv` are asked for σ[j], in ascending order; every other
/// σ[j] is 0 and its factor exactly 1 (see the module docs). Every σ[j]
/// asked for lands in `sigmas` as `(j, σ[j])`, ascending in `j`.
#[allow(clippy::too_many_arguments)]
fn fold_window_products(
    agg: &[AggregateRTree],
    active: &[usize],
    corners: &[f64],
    objects: &[u32],
    own_object: usize,
    sv: &[f64],
    prob: f64,
    queries: &mut u64,
    hits: &mut Vec<u32>,
    sigmas: &mut Vec<(usize, f64)>,
) -> f64 {
    by_width!(sv.len(), |w| screen_corners(
        w,
        corners,
        objects,
        own_object as u32,
        sv,
        hits
    ));
    hits.sort_unstable();
    // The own object's tree, if any, is in `active` but never asked.
    let own_active = !agg[own_object].is_empty();
    let mut prob = prob;
    sigmas.clear();
    for &j in hits.iter() {
        let j = j as usize;
        let sigma = agg[j].window_sum(sv);
        sigmas.push((j, sigma));
        prob *= 1.0 - sigma;
        if prob <= 0.0 {
            let reached = active.partition_point(|&k| k <= j);
            *queries += (reached - usize::from(own_active && own_object < j)) as u64;
            return 0.0;
        }
    }
    *queries += (active.len() - usize::from(own_active)) as u64;
    prob
}

/// `a ⪯ b` on the first `w` coordinates, every coordinate compared with no
/// early exit.
#[inline(always)]
fn below<W: Width>(w: W, a: &[f64], b: &[f64]) -> bool {
    let d = w.dim();
    a[..d]
        .iter()
        .zip(&b[..d])
        .fold(true, |acc, (&x, &y)| acc & (x <= y))
}

/// The window loop's screen: writes to `hits`, in activation order, the
/// objects other than `own` whose min corner is ⪯ `sv`, with a branch-free
/// test and append.
#[inline(always)]
fn screen_corners<W: Width>(
    w: W,
    corners: &[f64],
    objects: &[u32],
    own: u32,
    sv: &[f64],
    hits: &mut Vec<u32>,
) {
    hits.clear();
    hits.resize(objects.len(), 0);
    let mut top = 0;
    for (corner, &j) in corners.chunks_exact(w.dim()).zip(objects) {
        hits[top] = j;
        top += usize::from(below(w, corner, sv) & (j != own));
    }
    hits.truncate(top);
}

/// Membership test against the flat pruning set (Theorem 4): some point
/// of `pruning` is ⪯ `sv`, tested per point with the width-compiled
/// [`below`].
#[inline]
fn is_pruned(pruning: &[f64], sv: &[f64]) -> bool {
    by_width!(sv.len(), |w| pruning
        .chunks_exact(w.dim())
        .any(|corner| below(w, corner, sv)))
}

/// Reusable working memory of one B&B run: the best-first heap's backing
/// vector, the tie-group staging buffers, the flat score-space images of the
/// current tie group, the pruning set, the per-object corner/probability
/// accumulators, the per-object aggregated R-trees and the list of objects
/// whose tree is non-empty. Take one out of the engine's scratch pool (or
/// `Default::default()` a fresh one) and pass it to any number of
/// [`arsp_bnb_engine`] calls; buffers grow to the high-water mark and are
/// then reused.
#[derive(Debug, Default)]
pub struct BnbScratch {
    heap: Vec<HeapItem>,
    group: Vec<usize>,
    /// Non-pruned tie-group member ids; member `k`'s score vector is
    /// `members_sv[k*d' .. (k+1)*d']`.
    members: Vec<usize>,
    members_sv: Vec<f64>,
    computed: Vec<(usize, f64)>,
    intra: Vec<(usize, f64)>,
    /// The σ[j] the window loop asked for the current member, ascending.
    sigmas: Vec<(usize, f64)>,
    /// Pruning set `P` as a flat `d'`-strided array.
    pruning: Vec<f64>,
    /// Per-object componentwise maximum of the score images inserted into
    /// the object's aggregated R-tree (flat, `d'`-strided), meaningful once
    /// the tree is non-empty: the first insert copies the image. It feeds
    /// `P`.
    max_corner: Vec<f64>,
    /// Componentwise minimum of each non-empty tree's score images, one
    /// `d'`-strided row per tree in activation order, beside the tree's
    /// object: the window loop's screen.
    min_corners: Vec<f64>,
    min_objects: Vec<u32>,
    /// An active object's row in `min_corners`.
    min_slot: Vec<u32>,
    /// The screen's hits for the current member.
    hits: Vec<u32>,
    acc_prob: Vec<f64>,
    /// Node-corner mapping buffer for the Theorem-4 subtree test.
    sv_buf: Vec<f64>,
    /// One aggregated R-tree per object (reset, not reallocated, per query).
    agg: Vec<AggregateRTree>,
    /// The objects whose aggregated R-tree is non-empty, ascending — the
    /// window loop counts its `window_queries` on these.
    active: Vec<usize>,
}

impl BnbScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

#[allow(clippy::too_many_arguments)]
fn arsp_bnb_impl(
    dataset: &UncertainDataset,
    fdom: &LinearFDominance,
    rtree: &RTree,
    scores: &ScoreMatrix,
    use_pruning_set: bool,
    stats: Option<&CounterStats>,
    s: &mut BnbScratch,
    budget: Option<&crate::fault::QueryBudget>,
) -> ArspResult {
    let n = dataset.num_instances();
    let m = dataset.num_objects();
    let mut result = ArspResult::zeros(n);
    if n == 0 {
        return result;
    }
    let d_prime = fdom.num_vertices();
    let omega = &fdom.vertices()[0];
    debug_assert!(
        scores.num_rows() == n && scores.score_dim() == d_prime,
        "score matrix covers a different dataset or constraint set"
    );
    debug_assert_eq!(rtree.len(), n, "R-tree indexes a different dataset");
    let mut nodes_popped = 0u64;
    let mut window_queries = 0u64;

    let BnbScratch {
        heap: heap_store,
        group,
        members,
        members_sv,
        computed,
        intra,
        sigmas,
        pruning,
        max_corner,
        min_corners,
        min_objects,
        min_slot,
        hits,
        acc_prob,
        sv_buf,
        agg,
        active,
    } = &mut *s;

    // One aggregated R-tree per object, holding the score-space images of the
    // instances processed so far that have non-zero rskyline probability.
    // Reset (not reallocated) when the scratch is reused.
    agg.truncate(m);
    for tree in agg.iter_mut() {
        tree.reset(d_prime);
    }
    while agg.len() < m {
        agg.push(AggregateRTree::new(d_prime));
    }

    // Pruning set P (score-space points, flat), the per-object running
    // corners and accumulated probability, and the (empty) active list.
    pruning.clear();
    max_corner.clear();
    max_corner.resize(m * d_prime, 0.0);
    min_corners.clear();
    min_objects.clear();
    min_slot.clear();
    min_slot.resize(m, 0);
    active.clear();
    acc_prob.clear();
    acc_prob.resize(m, 0.0);
    sv_buf.clear();
    sv_buf.resize(d_prime, 0.0);

    let mut heap_vec = std::mem::take(heap_store);
    heap_vec.clear();
    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::from(heap_vec);
    if let Some(root) = rtree.root() {
        let key = score(rtree.node(root).mbr().min().coords(), omega);
        heap.push(HeapItem {
            key,
            kind: ItemKind::Node(root),
        });
    }

    while let Some(item) = heap.pop() {
        crate::fault::poll(budget);
        match item.kind {
            ItemKind::Node(node_id) => {
                nodes_popped += 1;
                expand_node(
                    rtree,
                    node_id,
                    omega,
                    fdom,
                    use_pruning_set,
                    pruning,
                    scores,
                    sv_buf,
                    &mut heap,
                );
            }
            ItemKind::Instance(instance_id) => {
                // Gather every instance sharing this best-first key. Equal-key
                // instances can F-dominate each other (coincident points
                // always do) while the heap breaks ties arbitrarily, so the
                // whole tie group must be evaluated against the pre-group
                // index state with intra-group domination added explicitly —
                // the counterpart of kd-ASP*'s coincident-node handling.
                // Nodes tied at the same key may still hide group members,
                // so they are expanded during the gather.
                let key = item.key;
                group.clear();
                group.push(instance_id);
                while heap.peek().is_some_and(|top| top.key <= key) {
                    let tied = heap.pop().expect("peeked non-empty");
                    match tied.kind {
                        ItemKind::Node(node_id) => {
                            nodes_popped += 1;
                            expand_node(
                                rtree,
                                node_id,
                                omega,
                                fdom,
                                use_pruning_set,
                                pruning,
                                scores,
                                sv_buf,
                                &mut heap,
                            );
                        }
                        ItemKind::Instance(id) => group.push(id),
                    }
                }
                // Deterministic member order regardless of heap internals.
                group.sort_unstable();

                // Score-space images of the non-pruned members, copied from
                // the score matrix into the flat member buffer (no
                // per-instance allocation).
                members.clear();
                members_sv.clear();
                for &id in group.iter() {
                    let slot = members_sv.len();
                    members_sv.extend_from_slice(scores.row(id));
                    if use_pruning_set && is_pruned(pruning, &members_sv[slot..]) {
                        // Zero rskyline probability: never inserted into the
                        // aggregated R-trees, never contributes to P.
                        members_sv.truncate(slot);
                        continue;
                    }
                    members.push(id);
                }

                // Probabilities first (against the pre-group trees), index
                // updates afterwards.
                computed.clear();
                for (t_pos, &t_id) in members.iter().enumerate() {
                    let t = dataset.instance(t_id);
                    let sv_t = &members_sv[t_pos * d_prime..(t_pos + 1) * d_prime];
                    let mut prob = fold_window_products(
                        agg,
                        active,
                        min_corners,
                        min_objects,
                        t.object,
                        sv_t,
                        t.prob,
                        &mut window_queries,
                        hits,
                        sigmas,
                    );
                    if prob > 0.0 && members.len() > 1 {
                        // Per-object intra-group mass dominating t, folded on
                        // top of the outside mass the trees reported: the
                        // factor (1 − out) becomes (1 − out − in).
                        intra.clear();
                        for (s_pos, &s_id) in members.iter().enumerate() {
                            let s_inst = dataset.instance(s_id);
                            if s_pos == t_pos || s_inst.object == t.object {
                                continue;
                            }
                            let sv_s = &members_sv[s_pos * d_prime..(s_pos + 1) * d_prime];
                            if dominates(sv_s, sv_t) {
                                match intra.iter_mut().find(|(obj, _)| *obj == s_inst.object) {
                                    Some((_, mass)) => *mass += s_inst.prob,
                                    None => intra.push((s_inst.object, s_inst.prob)),
                                }
                            }
                        }
                        // The outside mass is the σ the window loop took,
                        // which ran to the end as prob > 0; an object it
                        // screened out or that holds no tree has σ = 0,
                        // exactly what `window_sum` returns there.
                        for &(obj, mass) in intra.iter() {
                            let outside = sigmas
                                .binary_search_by_key(&obj, |&(j, _)| j)
                                .map_or(0.0, |k| sigmas[k].1);
                            let denom = 1.0 - outside;
                            if denom <= 0.0 {
                                prob = 0.0;
                                break;
                            }
                            prob *= ((denom - mass) / denom).max(0.0);
                            if prob <= 0.0 {
                                prob = 0.0;
                                break;
                            }
                        }
                    }
                    computed.push((t_id, prob.max(0.0)));
                }

                for (t_pos, &(t_id, prob)) in computed.iter().enumerate() {
                    if prob > 0.0 {
                        let sv = &members_sv[t_pos * d_prime..(t_pos + 1) * d_prime];
                        let object = dataset.instance(t_id).object;
                        let p = dataset.instance(t_id).prob;
                        result.set(t_id, prob);
                        let span = object * d_prime..(object + 1) * d_prime;
                        if agg[object].is_empty() {
                            let at = active.partition_point(|&j| j < object);
                            active.insert(at, object);
                            max_corner[span.clone()].copy_from_slice(sv);
                            min_slot[object] = min_objects.len() as u32;
                            min_objects.push(object as u32);
                            min_corners.extend_from_slice(sv);
                        } else {
                            let row = min_slot[object] as usize * d_prime;
                            let corners = max_corner[span.clone()]
                                .iter_mut()
                                .zip(&mut min_corners[row..row + d_prime]);
                            for ((hi, lo), &sv_k) in corners.zip(sv) {
                                if sv_k > *hi {
                                    *hi = sv_k;
                                }
                                if sv_k < *lo {
                                    *lo = sv_k;
                                }
                            }
                        }
                        agg[object].insert(sv, p);
                        acc_prob[object] += p;
                        if use_pruning_set && acc_prob[object] >= 1.0 - ONE_EPS {
                            pruning.extend_from_slice(&max_corner[span]);
                        }
                    }
                }
            }
        }
    }
    // Hand the heap's allocation back to the scratch for the next query.
    let mut heap_vec = heap.into_vec();
    heap_vec.clear();
    *heap_store = heap_vec;

    if let Some(st) = stats {
        st.add_nodes_visited(nodes_popped);
        st.add_window_queries(window_queries);
    }
    result
}

/// Pushes a node's children (or leaf instances) onto the best-first heap,
/// unless the Theorem-4 pruning set already covers the node. `sv_buf` is the
/// reusable buffer for the node-corner mapping; an instance's key is its
/// score-matrix row's first entry, `S_ω(t)` for `ω = V[0]` (see
/// [`ScoreMatrix::compute`]).
#[allow(clippy::too_many_arguments)]
fn expand_node(
    rtree: &RTree,
    node_id: arsp_index::NodeId,
    omega: &[f64],
    fdom: &LinearFDominance,
    use_pruning_set: bool,
    pruning: &[f64],
    scores: &ScoreMatrix,
    sv_buf: &mut [f64],
    heap: &mut BinaryHeap<HeapItem>,
) {
    let node = rtree.node(node_id);
    if use_pruning_set && !pruning.is_empty() {
        fdom.map_to_score_space_into(node.mbr().min().coords(), sv_buf);
        if is_pruned(pruning, sv_buf) {
            return;
        }
    }
    match *node.content() {
        NodeContent::Internal { start, len } => {
            for &child in rtree.items(start, len) {
                let key = score(rtree.node(child as usize).mbr().min().coords(), omega);
                heap.push(HeapItem {
                    key,
                    kind: ItemKind::Node(child as usize),
                });
            }
        }
        NodeContent::Leaf { start, len } => {
            let entries = rtree.entries();
            for &ei in rtree.items(start, len) {
                let id = entries.id(ei as usize);
                heap.push(HeapItem {
                    key: scores.row(id)[0],
                    kind: ItemKind::Instance(id),
                });
            }
        }
    }
}

/// Min-heap item ordered by ascending score key.
#[derive(Debug)]
struct HeapItem {
    key: f64,
    kind: ItemKind,
}

#[derive(Debug)]
enum ItemKind {
    Node(arsp_index::NodeId),
    Instance(usize),
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse the comparison for best-first
        // (smallest score first) behaviour.
        other.key.total_cmp(&self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::enumerate::arsp_enum;
    use crate::algorithms::kdtt::arsp_kdtt_plus;
    use crate::algorithms::loop_scan::arsp_loop;
    use crate::algorithms::pins::{bits_digest, tie_heavy_rows, tie_heavy_rows_with};
    use arsp_data::{paper_running_example, SyntheticConfig, UncertainDataset};
    use arsp_geometry::constraints::WeightRatio;

    #[test]
    fn reproduces_example_1() {
        let d = paper_running_example();
        let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let result = arsp_bnb(&d, &constraints);
        assert!((result.instance_prob(0) - 2.0 / 9.0).abs() < 1e-9);
        assert!(result.instance_prob(1).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_enum_on_small_synthetic_data() {
        for seed in 0..4u64 {
            let d = SyntheticConfig {
                num_objects: 7,
                max_instances: 3,
                dim: 3,
                region_length: 0.4,
                phi: 0.25,
                seed,
                ..SyntheticConfig::default()
            }
            .generate();
            let constraints = ConstraintSet::weak_ranking(3, 2);
            let truth = arsp_enum(&d, &constraints);
            let got = arsp_bnb(&d, &constraints);
            assert!(
                truth.approx_eq(&got, 1e-9),
                "seed {seed}: diff {}",
                truth.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn agrees_with_other_algorithms_on_medium_data() {
        let d = SyntheticConfig {
            num_objects: 80,
            max_instances: 5,
            dim: 3,
            region_length: 0.3,
            phi: 0.1,
            seed: 31,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let reference = arsp_loop(&d, &constraints);
        let bnb = arsp_bnb(&d, &constraints);
        let kdtt = arsp_kdtt_plus(&d, &constraints);
        assert!(
            reference.approx_eq(&bnb, 1e-8),
            "{}",
            reference.max_abs_diff(&bnb)
        );
        assert!(reference.approx_eq(&kdtt, 1e-8));
    }

    #[test]
    fn pruning_ablation_gives_identical_results() {
        let d = SyntheticConfig {
            num_objects: 50,
            max_instances: 4,
            dim: 3,
            seed: 8,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let fdom = LinearFDominance::from_constraints(&constraints);
        let with = arsp_bnb_engine(&d, &fdom, None, None, false, None, None, None);
        let without = arsp_bnb_without_pruning(&d, &fdom);
        assert!(with.approx_eq(&without, 1e-9));
    }

    #[test]
    fn all_partial_objects_degenerate_case() {
        // ϕ = 1 (every object partial, like IIP): the pruning set stays empty
        // and B&B must still be correct.
        let mut d = UncertainDataset::new(2);
        d.push_object(vec![(vec![0.1, 0.2], 0.8)]);
        d.push_object(vec![(vec![0.2, 0.1], 0.7)]);
        d.push_object(vec![(vec![0.5, 0.5], 0.6)]);
        d.push_object(vec![(vec![0.05, 0.05], 0.6)]);
        let constraints = ConstraintSet::weak_ranking(2, 1);
        let truth = arsp_enum(&d, &constraints);
        let got = arsp_bnb(&d, &constraints);
        assert!(truth.approx_eq(&got, 1e-9));
    }

    #[test]
    fn empty_dataset() {
        let d = UncertainDataset::new(3);
        let result = arsp_bnb(&d, &ConstraintSet::new(3));
        assert!(result.is_empty());
    }

    #[test]
    fn coincident_instances_across_objects() {
        // Regression test: several objects with probability mass at exactly
        // the same point (equal best-first keys). The heap breaks such ties
        // arbitrarily, so B&B must evaluate the tie group jointly — mutual
        // F-domination between coincident instances reduces everyone.
        let mut d = UncertainDataset::new(2);
        d.push_object(vec![(vec![0.0, 0.0], 0.5), (vec![0.8, 0.8], 0.5)]);
        d.push_object(vec![(vec![0.0, 0.0], 0.4), (vec![0.9, 0.1], 0.6)]);
        d.push_object(vec![(vec![0.0, 0.0], 0.3)]);
        d.push_object(vec![(vec![0.5, 0.5], 1.0)]);
        let constraints = ConstraintSet::weak_ranking(2, 1);
        let truth = arsp_enum(&d, &constraints);
        let got = arsp_bnb(&d, &constraints);
        assert!(truth.approx_eq(&got, 1e-9), "{}", truth.max_abs_diff(&got));
        // The coincident instances genuinely lose mass to each other.
        assert!(got.instance_prob(0) < 0.5);
    }

    #[test]
    fn tied_scores_from_clamped_partial_objects() {
        // The stock_prediction example's shape: every object partial, many
        // coordinates clamped to the domain edges → equal-score ties under
        // the best-first vertex. B&B must agree with LOOP.
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let mut d = UncertainDataset::new(2);
        for _ in 0..120 {
            let quality: f64 = rng.gen_range(0.0..1.0);
            let volatility: f64 = rng.gen_range(0.1..0.4);
            let k = rng.gen_range(2..=4);
            let p = rng.gen_range(0.7..1.0) / k as f64;
            let instances = (0..k)
                .map(|_| {
                    let coords = (0..2)
                        .map(|_| {
                            (1.0 - quality + rng.gen_range(-volatility..volatility)).clamp(0.0, 1.0)
                        })
                        .collect();
                    (coords, p)
                })
                .collect();
            d.push_object(instances);
        }
        let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let reference = arsp_loop(&d, &constraints);
        let got = arsp_bnb(&d, &constraints);
        assert!(
            reference.approx_eq(&got, 1e-8),
            "{}",
            reference.max_abs_diff(&got)
        );
    }

    #[test]
    fn precomputed_scores_and_scratch_reuse_are_bitwise_identical() {
        let d = SyntheticConfig {
            num_objects: 60,
            max_instances: 5,
            dim: 3,
            region_length: 0.3,
            phi: 0.15,
            seed: 13,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let fdom = LinearFDominance::from_constraints(&constraints);
        let reference = arsp_bnb_engine(&d, &fdom, None, None, false, None, None, None);

        let flat = arsp_data::FlatStore::from_dataset(&d);
        let scores = ScoreMatrix::compute(&flat, &fdom);
        let rtree = build_instance_rtree(&d);
        // One scratch reused across runs — including a run against a second
        // constraint set in between, so stale state would be caught.
        let mut scratch = BnbScratch::new();
        for _ in 0..2 {
            let got = arsp_bnb_engine(
                &d,
                &fdom,
                Some(&rtree),
                Some(&scores),
                false,
                None,
                Some(&mut scratch),
                None,
            );
            assert_eq!(reference.probs(), got.probs());

            let other = ConstraintSet::weak_ranking(3, 1);
            let other_fdom = LinearFDominance::from_constraints(&other);
            let other_scores = ScoreMatrix::compute(&flat, &other_fdom);
            let other_ref = arsp_bnb_engine(&d, &other_fdom, None, None, false, None, None, None);
            let other_got = arsp_bnb_engine(
                &d,
                &other_fdom,
                Some(&rtree),
                Some(&other_scores),
                false,
                None,
                Some(&mut scratch),
                None,
            );
            assert_eq!(other_ref.probs(), other_got.probs());
        }

        // Work counters are identical whether the entry point builds its own
        // score matrix or is handed a shared one.
        let stats_lazy = CounterStats::new();
        let _ = arsp_bnb_engine(
            &d,
            &fdom,
            Some(&rtree),
            None,
            false,
            Some(&stats_lazy),
            None,
            None,
        );
        let stats_flat = CounterStats::new();
        let _ = arsp_bnb_engine(
            &d,
            &fdom,
            Some(&rtree),
            Some(&scores),
            false,
            Some(&stats_flat),
            Some(&mut scratch),
            None,
        );
        assert_eq!(
            stats_lazy.snapshot().window_queries,
            stats_flat.snapshot().window_queries
        );
        assert_eq!(
            stats_lazy.snapshot().nodes_visited,
            stats_flat.snapshot().nodes_visited
        );
    }

    /// [`tie_heavy_rows`] as a dataset, one object per run of rows.
    fn tie_heavy_dataset(dim: usize) -> UncertainDataset {
        dataset_of(dim, tie_heavy_rows(dim))
    }

    /// `(object, prob, coords)` rows as a dataset, one object per run of rows.
    fn dataset_of(dim: usize, rows: Vec<(usize, f64, Vec<f64>)>) -> UncertainDataset {
        let mut d = UncertainDataset::new(dim);
        let mut instances = Vec::new();
        let mut rows = rows.into_iter().peekable();
        while let Some((object, prob, coords)) = rows.next() {
            instances.push((coords, prob));
            if rows.peek().map_or(true, |next| next.0 != object) {
                d.push_object(std::mem::take(&mut instances));
            }
        }
        d
    }

    /// Seed of the pinned IM preference region: three constraints at d = 4
    /// whose region has ten vertices, the B&B regime of the serving
    /// benchmark's palette.
    const IM_SEED: u64 = 2;

    /// Pins per dimension d = 1..=18 under `ConstraintSet::new(d)` (d' = d),
    /// then the IM user at d = 4: `(digest, nodes_visited, window_queries)`.
    const PINS: [(u64, u64, u64); 19] = [
        (0x783361aeaf22bf47, 71, 65347),
        (0x6c97debb7ed49921, 78, 14093),
        (0x80064d3820772857, 86, 74878),
        (0x44bcc6c02e477656, 87, 126537),
        (0x2d725b401fd1ab71, 78, 171843),
        (0x21446827ae58bd98, 103, 179077),
        (0x9841cd47fa3b7228, 77, 183501),
        (0xf06502c143b1c564, 78, 192153),
        (0x6aace61011134f2, 79, 209509),
        (0x7dc99f45024b8414, 76, 206872),
        (0xa56a415912c3b89a, 79, 215450),
        (0x8b2f2cede590af76, 79, 212500),
        (0xb7fd3324948a8, 76, 209277),
        (0x189bff9d55f93f7d, 76, 206963),
        (0xee77112376654d2a, 77, 207366),
        (0x53eaa7f609cd4078, 79, 218251),
        (0x8bb3eba281aba19e, 77, 207211),
        (0xa3bc7bce248dee, 78, 214721),
        // IM user, d = 4, d' = 10
        (0x8d2166dc6b65d635, 87, 86989),
    ];

    /// B&B, sequential and under widths 2 and 3, must hit its pin on every
    /// tie-heavy input. The digests and node counts were recorded before the
    /// window loop gained its object screen, so they hold the screened loop
    /// to the unscreened loop's bits. The window counts were re-recorded when
    /// the intra-group pass stopped asking the trees a second time.
    #[test]
    fn kernel_output_and_counters_are_pinned() {
        let im = arsp_data::im_constraints(4, 3, IM_SEED);
        let cases = (1..=18)
            .map(|d| (tie_heavy_dataset(d), ConstraintSet::new(d)))
            .chain(std::iter::once((tie_heavy_dataset(4), im)));
        // One scratch across every run, so state left by a wider run would
        // show in a narrower one.
        let mut scratch = BnbScratch::new();
        for ((d, constraints), &pin) in cases.zip(&PINS) {
            let fdom = LinearFDominance::from_constraints(&constraints);
            assert!(fdom.num_vertices() >= d.dim(), "d' must reach d");
            let scores = ScoreMatrix::compute(&arsp_data::FlatStore::from_dataset(&d), &fdom);
            let rtree = build_instance_rtree(&d);
            for width in [None, Some(2), Some(3)] {
                let stats = CounterStats::new();
                let mut run = || {
                    arsp_bnb_engine(
                        &d,
                        &fdom,
                        Some(&rtree),
                        Some(&scores),
                        width.is_some(),
                        Some(&stats),
                        Some(&mut scratch),
                        None,
                    )
                };
                let result = match width {
                    None => run(),
                    Some(threads) => crate::parallel::with_width(threads, run),
                };
                let c = stats.snapshot();
                assert_eq!(
                    (
                        bits_digest(result.probs()),
                        c.nodes_visited,
                        c.window_queries
                    ),
                    pin,
                    "d = {}, d' = {}, width {width:?}",
                    d.dim(),
                    fdom.num_vertices()
                );
            }
        }
    }

    /// Dimensions of the multi-level pins, whose objects hold 20–40
    /// instances each.
    const MULTI_LEVEL_DIMS: [usize; 6] = [3, 4, 6, 8, 12, 16];

    /// `(digest, nodes_visited, window_queries)` per [`MULTI_LEVEL_DIMS`]
    /// entry under `ConstraintSet::new(d)`, then the IM user at d = 4.
    const MULTI_LEVEL_PINS: [(u64, u64, u64); 7] = [
        (0x5fb1bdca4be4e817, 86, 30636),
        (0x98cb79621c7e1d0c, 87, 31141),
        (0xa31fbc3ec6336b8e, 103, 32544),
        (0x039ebf9d56397a11, 80, 30135),
        (0x0c3961d4eef481d0, 86, 29546),
        (0xfed18273a4aacdb9, 100, 32731),
        // IM user, d = 4, d' = 10
        (0x872fc56241017840, 87, 30520),
    ];

    /// B&B on inputs whose aggregated R-trees outgrow one leaf and split:
    /// [`PINS`] gives every object 2–5 instances, so no tree there ever
    /// splits. Recorded before the aggregated R-tree moved to flat arenas.
    #[test]
    fn multi_level_trees_are_pinned() {
        let rows = |d| tie_heavy_rows_with(d, 20..41);
        let im = arsp_data::im_constraints(4, 3, IM_SEED);
        let cases = MULTI_LEVEL_DIMS
            .iter()
            .map(|&d| (dataset_of(d, rows(d)), ConstraintSet::new(d)))
            .chain(std::iter::once((dataset_of(4, rows(4)), im)));
        let mut scratch = BnbScratch::new();
        for ((d, constraints), &pin) in cases.zip(&MULTI_LEVEL_PINS) {
            let fdom = LinearFDominance::from_constraints(&constraints);
            let stats = CounterStats::new();
            let result = arsp_bnb_engine(
                &d,
                &fdom,
                None,
                None,
                false,
                Some(&stats),
                Some(&mut scratch),
                None,
            );
            let c = stats.snapshot();
            let got = (
                bits_digest(result.probs()),
                c.nodes_visited,
                c.window_queries,
            );
            let deepest = scratch.agg.iter().map(AggregateRTree::len).max();
            // A leaf holds at most 16 entries, so a larger tree has split.
            assert!(
                deepest.is_some_and(|len| len > 16),
                "d = {}: no aggregated tree split",
                d.dim()
            );
            assert_eq!(got, pin, "d = {}, d' = {}", d.dim(), fdom.num_vertices());
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn with_fdom_rejects_a_region_of_another_dimension() {
        let d = SyntheticConfig::small(5, 2, 2, 1).generate();
        let _ = arsp_bnb(&d, &ConstraintSet::weak_ranking(3, 1));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn without_pruning_rejects_a_region_of_another_dimension() {
        let d = SyntheticConfig::small(5, 2, 2, 1).generate();
        let fdom = LinearFDominance::from_constraints(&ConstraintSet::weak_ranking(3, 1));
        let _ = arsp_bnb_without_pruning(&d, &fdom);
    }
}
