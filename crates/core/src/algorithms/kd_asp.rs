//! The kd-ASP\* machinery (Algorithm 1 of the paper).
//!
//! Given a set of points in (score) space, each belonging to an uncertain
//! object and carrying an existence probability, these routines compute the
//! *skyline probability* of every point:
//!
//! ```text
//! Pr_sky(t) = p(t) · Π_{j ≠ i} (1 − Σ_{s ∈ T_j, s ⪯ t} p(s))
//! ```
//!
//! There are two entry points, both over a columnar [`FlatScorePoints`] view
//! (one dim-strided coordinate array plus parallel object/probability
//! columns, indexed by instance id):
//!
//! * [`kd_asp_flat_engine`] runs on the calling thread;
//! * [`kd_asp_flat_engine_parallel`] dispatches sibling subtrees of the first
//!   few recursion levels to worker threads, with a result bitwise identical
//!   to the sequential traversal.
//!
//! Each takes a [`KdVariant`], matching the algorithm variants the paper
//! evaluates:
//!
//! * **KDTT+** ([`KdVariant::FusedKd`]): the kd partitioning is created
//!   *during* the traversal, so subtrees whose instances all have zero
//!   probability are never even constructed;
//! * **KDTT** ([`KdVariant::Prebuilt`]): the kd-tree is fully built first and
//!   then traversed pre-order (the original formulation of Afshani et al.
//!   that the paper optimises). It stays sequential under both entry points,
//!   because it exists to measure the construction cost the fused variants
//!   remove;
//! * **QDTT+** ([`KdVariant::FusedQuad`]): the fused traversal with
//!   quadtree-style splitting of every dimension at once.
//!
//! ## Traversal state
//!
//! The state is exactly the quadruple of Algorithm 1: the candidate set `C`,
//! the per-object dominating mass `σ`, the running product
//! `β = Π_{σ[j] ≠ 1} (1 − σ[j])` and the saturation counter
//! `χ = |{j | σ[j] = 1}|`. At every node the invariants are:
//!
//! * `σ[j]` is the mass of object `j`'s instances that lie outside the node
//!   and dominate its minimum corner;
//! * `β` and `χ` are the product and the count above, over that `σ`;
//! * a leaf's probability is therefore `β · p(t) / (1 − σ[obj(t)])` when
//!   `χ = 0`, and `χ ≥ 1` at an inner node prunes its whole subtree.
//!
//! One refinement over the paper's pseudocode: a candidate is only folded
//! into `σ` once it lies *outside* the current node's point set. Points
//! inside the node keep riding along in the candidate set and are folded in
//! deeper down (at the latest at the leaf of the instance they dominate).
//! Without this, an instance sitting exactly at a node's minimum corner would
//! saturate its own object and incorrectly prune the node that contains it;
//! with it, `σ[j] = 1` at a node genuinely implies that object `j` lies
//! entirely outside the node and dominates everything in it, so the pruning
//! is exact.
//!
//! ## Exact undo
//!
//! On node exit the state is restored **exactly**, not recomputed: the σ
//! entries a node changed are written back from an undo stack, newest first
//! (so repeated additions to one object unwind correctly), and β/χ are
//! restored from the snapshot taken on node entry. Arithmetic "inverses"
//! like `β / (1 − σ)` would drift under floating point. Bitwise restoration
//! is what lets sibling subtrees observe identical states, which in turn is
//! what makes the parallel traversal exact: a worker seeded with a copy of
//! the parent's post-pass state sees bitwise the state the sequential
//! recursion would hand the same child.

use crate::scorespace::FlatScorePoints;
use crate::stats::CounterStats;
use arsp_geometry::mbr::{extend_bounds, reset_bounds};
use arsp_geometry::point::dominates;
use arsp_index::kdtree::KdNodeContent;
use arsp_index::{FlatEntries, KdTree};

/// The three traversal strategies of Algorithm 1, as a value — the engine
/// selects among them at query time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KdVariant {
    /// KDTT: fully prebuilt kd-tree, then pre-order traversal.
    Prebuilt,
    /// KDTT+: kd partitioning fused into the traversal.
    FusedKd,
    /// QDTT+: quadtree partitioning fused into the traversal.
    FusedQuad,
}

/// Tolerance for deciding that an object's dominating mass has reached one.
/// Probabilities are sums of `1/n_i` terms, so anything closer to one than
/// this is a genuine saturation, not rounding noise.
const ONE_EPS: f64 = 1e-9;

#[inline]
fn is_one(x: f64) -> bool {
    x >= 1.0 - ONE_EPS
}

/// Nodes smaller than this are traversed sequentially even when parallel
/// levels remain: a performance threshold only — results are bitwise
/// identical either way.
const MIN_PARALLEL_NODE: usize = 512;

#[derive(Clone, Copy, PartialEq, Eq)]
enum SplitKind {
    Kd,
    Quad,
}

/// Collects the positions (entry ids) of every point under a kd-tree node.
fn collect_positions(tree: &KdTree, node: usize, out: &mut Vec<u32>) {
    match *tree.node(node).content() {
        KdNodeContent::Leaf { start, len } => {
            out.extend(
                tree.leaf_items(start, len)
                    .iter()
                    .map(|&ei| tree.entries().id(ei as usize) as u32),
            );
        }
        KdNodeContent::Internal { left, right, .. } => {
            collect_positions(tree, left, out);
            collect_positions(tree, right, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Flat columnar traversal
// ---------------------------------------------------------------------------
//
// All per-node working memory lives in a reusable [`KdScratch`] arena:
// candidate lists and σ-undo records live on shared stacks truncated on node
// exit, node corners live in a depth-indexed bounds arena, and quadrant
// grouping sorts one `(mask, position)` pair list instead of building a map.
// After the first query warms the arena up, the traversal performs no heap
// allocation.
//
// The parallel traversal ([`kd_asp_flat_engine_parallel`]) dispatches
// sibling subtrees of the first few recursion levels to worker threads: each
// subtree checks a [`KdWorkerScratch`] arena out of a shared [`KdWorkerPool`],
// seeds σ and the candidate list from the parent's exact snapshot (bitwise
// the state the sequential recursion would hand it), recurses with the
// ordinary sequential machinery, and the parent merges the subtree's output
// slots. Exact snapshot + exact undo is what makes the fan-out invisible in
// the output.

/// Reusable working memory of the flat kd-ASP\* traversal. Create once (or
/// take one out of the engine's scratch pool), pass to any number of
/// [`kd_asp_flat_engine`] calls; buffers grow to the high-water mark and are
/// then reused.
#[derive(Debug, Default)]
pub struct KdScratch {
    /// Point permutation the recursion splits in place.
    order: Vec<u32>,
    /// Shared candidate-list stack: each node's surviving candidates are
    /// appended on entry and truncated on exit.
    cand: Vec<u32>,
    /// Shared σ-undo stack: `(object, σ before this node's addition)`.
    saved: Vec<(u32, f64)>,
    /// Depth-indexed node corners: `2·dim` slots per recursion level
    /// (`pmin` then `pmax`).
    bounds: Vec<f64>,
    /// Per-object dominating mass σ.
    sigma: Vec<f64>,
    /// "Point is inside the current node" marks.
    in_node: Vec<bool>,
    /// Quadrant-split centre (consumed before recursing).
    center: Vec<f64>,
    /// Quadrant `(mask, position)` sort pairs (consumed before recursing).
    qkeys: Vec<(u64, u32)>,
    /// Quadrant permutation staging buffer (consumed before recursing).
    qbuf: Vec<u32>,
    /// Stack arena of quadrant-group end offsets (survives recursion).
    qbounds: Vec<u32>,
    /// Prebuilt-traversal member list (consumed before recursing).
    members: Vec<u32>,
    /// Coincident-node per-object mass accumulator.
    node_mass: Vec<(u32, f64)>,
}

impl KdScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the arena for a traversal over `n` points and
    /// `num_objects` objects.
    fn prepare(&mut self, num_objects: usize, n: usize) {
        self.sigma.clear();
        self.sigma.resize(num_objects, 0.0);
        self.in_node.clear();
        self.in_node.resize(n, false);
        self.order.clear();
        self.order.extend(0..n as u32);
        self.cand.clear();
        self.cand.extend(0..n as u32);
        self.saved.clear();
        self.qbounds.clear();
    }
}

/// β/χ of Algorithm 1 — the two scalars of the traversal state that live on
/// the call stack (σ and the marks live in [`KdScratch`]).
struct FlatBc {
    beta: f64,
    chi: usize,
}

/// Registers that probability mass `p` of object `obj` dominates the
/// current node's minimum corner (lines 12–16 of Algorithm 1), updating β and
/// χ. Once `σ[obj]` is saturated it can only grow by zero-mass rounding, and
/// neither β nor χ change.
#[inline]
fn flat_sky_add(sigma: &mut [f64], bc: &mut FlatBc, obj: usize, p: f64) {
    let old = sigma[obj];
    let new = old + p;
    sigma[obj] = new;
    if is_one(new) && !is_one(old) {
        bc.chi += 1;
        bc.beta /= 1.0 - old;
    } else if !is_one(new) {
        bc.beta *= (1.0 - new) / (1.0 - old);
    }
}

/// Skyline probability of a single point forming a leaf: `σ` holds the
/// dominating mass of every object from *outside* the leaf, so the point's
/// own object's factor is simply divided back out of `β`. The `χ = 1` arm is
/// defensive: it is only reached through floating-point saturation of the
/// point's own object, whose factor equation (3) excludes anyway.
#[inline]
fn flat_leaf_probability(sigma: &[f64], bc: &FlatBc, object: usize, prob: f64) -> f64 {
    if bc.chi == 0 {
        bc.beta * prob / (1.0 - sigma[object])
    } else if bc.chi == 1 && is_one(sigma[object]) {
        bc.beta * prob
    } else {
        0.0
    }
}

/// Emits the probability of every point of a node whose points all share the
/// same coordinates (a degenerate node that cannot be split further). Points
/// of the node mutually dominate each other, so on top of the outside mass in
/// `σ` each point is also dominated by the node-internal mass of every other
/// object present in the node: its factor `(1 − outside)` is replaced by
/// `(1 − outside − inside)`.
fn emit_coincident_flat(
    pts: &FlatScorePoints<'_>,
    order: &[u32],
    sigma: &[f64],
    bc: &FlatBc,
    node_mass: &mut Vec<(u32, f64)>,
    out: &mut [f64],
) {
    node_mass.clear();
    for &idx in order {
        let obj = pts.objects[idx as usize];
        let p = pts.probs[idx as usize];
        match node_mass.iter_mut().find(|(o, _)| *o == obj) {
            Some((_, mass)) => *mass += p,
            None => node_mass.push((obj, p)),
        }
    }
    for &idx in order {
        let iu = idx as usize;
        let object = pts.objects[iu] as usize;
        let mut prob = flat_leaf_probability(sigma, bc, object, pts.probs[iu]);
        if prob > 0.0 {
            for &(obj, mass) in node_mass.iter() {
                if obj as usize == object {
                    continue;
                }
                let outside = sigma[obj as usize];
                let denom = 1.0 - outside;
                if denom <= 0.0 {
                    prob = 0.0;
                    break;
                }
                prob *= ((1.0 - outside - mass) / denom).max(0.0);
            }
        }
        out[iu] = prob.max(0.0);
    }
}

/// The candidate pass of lines 9–18 over the shared stacks: reads the
/// parent's candidate range `[c0, c1)` of `scratch.cand`, appends this node's
/// surviving candidates at the top of the stack, and records σ mutations on
/// the shared undo stack. Returns the number of F-dominance tests performed.
/// `bstart` locates this node's `pmin`/`pmax` inside the bounds arena.
fn flat_candidate_pass(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    c0: usize,
    c1: usize,
    bstart: usize,
) -> u64 {
    let dim = pts.dim;
    let mut tests = 0u64;
    for i in c0..c1 {
        let c = s.cand[i];
        let cu = c as usize;
        let row = pts.coords_of(cu);
        let outside_and_below = !s.in_node[cu] && {
            tests += 1;
            dominates(row, &s.bounds[bstart..bstart + dim])
        };
        if outside_and_below {
            let obj = pts.objects[cu] as usize;
            s.saved.push((obj as u32, s.sigma[obj]));
            flat_sky_add(&mut s.sigma, bc, obj, pts.probs[cu]);
        } else {
            tests += 1;
            if dominates(row, &s.bounds[bstart + dim..bstart + 2 * dim]) {
                s.cand.push(c);
            }
        }
    }
    tests
}

/// Writes the node's corners into the depth slot of the bounds arena
/// (coordinate-wise min then max corner).
fn flat_corners(pts: &FlatScorePoints<'_>, s: &mut KdScratch, order: &[u32], bstart: usize) {
    let dim = pts.dim;
    if s.bounds.len() < bstart + 2 * dim {
        s.bounds.resize(bstart + 2 * dim, 0.0);
    }
    let (pmin, pmax) = s.bounds[bstart..bstart + 2 * dim].split_at_mut(dim);
    reset_bounds(pmin, pmax);
    for &idx in order {
        extend_bounds(pmin, pmax, pts.coords_of(idx as usize));
    }
}

/// Median kd split of `order` on the depth axis (shared by the Kd arm and
/// the quadrant mask-collision fallback).
fn flat_kd_partition(pts: &FlatScorePoints<'_>, order: &mut [u32], depth: usize) -> usize {
    let dim = pts.dim;
    let axis = depth % dim;
    let mid = order.len() / 2;
    let coords = pts.coords;
    order.select_nth_unstable_by(mid, |&a, &b| {
        coords[a as usize * dim + axis]
            .partial_cmp(&coords[b as usize * dim + axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    mid
}

/// Snapshot of the traversal state a node's candidate pass mutated, plus the
/// node's candidate range on the shared stack, recorded by
/// [`flat_node_enter`] and restored exactly by [`flat_node_exit`].
struct FlatPass {
    /// σ-undo stack height before the pass.
    saved_start: usize,
    /// `β` before the pass.
    beta_before: f64,
    /// `χ` before the pass.
    chi_before: usize,
    /// This node's surviving-candidate range on the shared stack.
    cstart: usize,
    /// End of that range (the stack top after the pass).
    cend: usize,
}

/// The shared node prologue of the flat traversals: computes the corners
/// into the depth slot `bstart`, marks the node's points, runs the candidate
/// pass over the parent range `[c0, c1)` and reports to the stats sink.
#[allow(clippy::too_many_arguments)]
fn flat_node_enter(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    order: &[u32],
    c0: usize,
    c1: usize,
    bstart: usize,
    stats: Option<&CounterStats>,
) -> FlatPass {
    flat_corners(pts, s, order, bstart);
    for &idx in order.iter() {
        s.in_node[idx as usize] = true;
    }
    let saved_start = s.saved.len();
    let beta_before = bc.beta;
    let chi_before = bc.chi;
    let cstart = s.cand.len();
    let tests = flat_candidate_pass(pts, s, bc, c0, c1, bstart);
    for &idx in order.iter() {
        s.in_node[idx as usize] = false;
    }
    if let Some(st) = stats {
        st.add_nodes_visited(1);
        st.add_fdom_tests(tests);
    }
    let cend = s.cand.len();
    FlatPass {
        saved_start,
        beta_before,
        chi_before,
        cstart,
        cend,
    }
}

/// The shared node epilogue: exact undo — σ entries newest-first, β/χ from
/// the snapshot, candidate stack truncated to this node's base.
fn flat_node_exit(s: &mut KdScratch, bc: &mut FlatBc, pass: &FlatPass) {
    while s.saved.len() > pass.saved_start {
        let (obj, old) = s.saved.pop().expect("saved_start bounds the stack");
        s.sigma[obj as usize] = old;
    }
    bc.beta = pass.beta_before;
    bc.chi = pass.chi_before;
    s.cand.truncate(pass.cstart);
}

/// Quadrant-groups `order` around the centre of the bounds slot `bstart`:
/// ascending mask order (lower quadrants first, mirroring the kd split's
/// left-to-right order) with the original order preserved inside each group,
/// via one O(n log n) sort of (mask, position) pairs (sorting by the position
/// as the tie-breaker makes the unstable sort behave stably). Only non-empty
/// quadrants materialise, so high-dimensional score spaces do not explode
/// the fan-out beyond |P|. On success returns the base offset `qb0` of the
/// group end offsets pushed onto the `qbounds` stack arena (the caller
/// recurses group by group, then truncates back to `qb0`); returns `None` on
/// a mask collision (dimensions ≥ 64 put every point in one group), where the
/// caller falls back to a kd split to guarantee progress.
fn flat_quad_group(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    order: &mut [u32],
    bstart: usize,
) -> Option<usize> {
    let dim = pts.dim;
    s.center.clear();
    s.center
        .extend((0..dim).map(|k| 0.5 * (s.bounds[bstart + k] + s.bounds[bstart + dim + k])));
    s.qkeys.clear();
    let mut all_same = true;
    for (pos, &idx) in order.iter().enumerate() {
        let row = pts.coords_of(idx as usize);
        let mut mask: u64 = 0;
        for (k, &c) in row.iter().enumerate() {
            if k < 64 && c > s.center[k] {
                mask |= 1 << k;
            }
        }
        all_same &= mask == s.qkeys.first().map_or(mask, |&(m, _)| m);
        s.qkeys.push((mask, pos as u32));
    }
    if all_same {
        return None;
    }
    s.qkeys.sort_unstable();
    // Permute `order` into grouped form via a staging copy.
    s.qbuf.clear();
    s.qbuf.extend_from_slice(order);
    for (slot, &(_, pos)) in s.qkeys.iter().enumerate() {
        order[slot] = s.qbuf[pos as usize];
    }
    // Group end offsets survive the child recursions on the qbounds stack
    // arena.
    let qb0 = s.qbounds.len();
    for (slot, &(mask, _)) in s.qkeys.iter().enumerate() {
        if s.qkeys
            .get(slot + 1)
            .map_or(true, |&(next, _)| next != mask)
        {
            s.qbounds.push(slot as u32 + 1);
        }
    }
    Some(qb0)
}

/// **KDTT+** / **QDTT+**'s fused traversal: the node's partitioning is built
/// on the way down, so pruned subtrees are never constructed. `c0..c1` is
/// this node's candidate range in the shared stack.
#[allow(clippy::too_many_arguments)]
fn fused_rec_flat(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    order: &mut [u32],
    c0: usize,
    c1: usize,
    depth: usize,
    split: SplitKind,
    out: &mut [f64],
    stats: Option<&CounterStats>,
    budget: Option<&crate::fault::QueryBudget>,
) {
    crate::fault::poll(budget);
    let dim = pts.dim;
    let bstart = depth * 2 * dim;
    let pass = flat_node_enter(pts, s, bc, order, c0, c1, bstart, stats);
    let (cstart, cend) = (pass.cstart, pass.cend);

    if order.len() == 1 {
        let iu = order[0] as usize;
        out[iu] = flat_leaf_probability(&s.sigma, bc, pts.objects[iu] as usize, pts.probs[iu]);
    } else if s.bounds[bstart..bstart + dim] == s.bounds[bstart + dim..bstart + 2 * dim] {
        // All points of the node coincide; it cannot be split further.
        let (sigma, node_mass) = (&s.sigma, &mut s.node_mass);
        emit_coincident_flat(pts, order, sigma, bc, node_mass, out);
    } else if bc.chi == 0 {
        let grouped = match split {
            SplitKind::Kd => None,
            SplitKind::Quad => flat_quad_group(pts, s, order, bstart),
        };
        match grouped {
            Some(qb0) => {
                let groups = s.qbounds.len() - qb0;
                let mut gstart = 0usize;
                for g in 0..groups {
                    let gend = s.qbounds[qb0 + g] as usize;
                    fused_rec_flat(
                        pts,
                        s,
                        bc,
                        &mut order[gstart..gend],
                        cstart,
                        cend,
                        depth + 1,
                        split,
                        out,
                        stats,
                        budget,
                    );
                    gstart = gend;
                }
                s.qbounds.truncate(qb0);
            }
            None => {
                // Kd split, or the quad mask-collision fallback.
                let mid = flat_kd_partition(pts, order, depth);
                let (left, right) = order.split_at_mut(mid);
                fused_rec_flat(
                    pts,
                    s,
                    bc,
                    left,
                    cstart,
                    cend,
                    depth + 1,
                    split,
                    out,
                    stats,
                    budget,
                );
                fused_rec_flat(
                    pts,
                    s,
                    bc,
                    right,
                    cstart,
                    cend,
                    depth + 1,
                    split,
                    out,
                    stats,
                    budget,
                );
            }
        }
    }
    // χ ≥ 1 with |P| > 1: every point of the node is dominated by the entire
    // mass of some object lying outside the node — the subtree has zero
    // skyline probability everywhere and is pruned (never constructed).

    flat_node_exit(s, bc, &pass);
}

/// One worker's arena for the parallel flat traversal: a [`KdScratch`] for
/// the subtree's recursion plus a full-length output staging buffer (only
/// the subtree's own slots are zeroed and read, so the buffer is reused
/// without a full clear). Pooled in a [`KdWorkerPool`].
#[derive(Debug, Default)]
pub struct KdWorkerScratch {
    scratch: KdScratch,
    out: Vec<f64>,
}

impl KdWorkerScratch {
    /// Prepares the arena for a subtree over `n` points: σ and the candidate
    /// stack are seeded from the parent's exact snapshot, the undo stacks are
    /// emptied, and the staging buffer is grown to cover every point id.
    fn prepare(&mut self, n: usize, sigma: &[f64], cand: &[u32]) {
        let s = &mut self.scratch;
        s.sigma.clear();
        s.sigma.extend_from_slice(sigma);
        s.cand.clear();
        s.cand.extend_from_slice(cand);
        s.saved.clear();
        s.qbounds.clear();
        s.in_node.clear();
        s.in_node.resize(n, false);
        if self.out.len() < n {
            self.out.resize(n, 0.0);
        }
    }
}

/// A stealable stack of [`KdWorkerScratch`] arenas shared by the subtree
/// tasks of the parallel flat traversal. [`crate::engine::ArspEngine`] owns
/// one per session, so warmed-up parallel queries (and `run_batch` sweeps)
/// stop allocating arena memory per subtree; free-function callers get a throwaway pool
/// per call, which still reuses arenas across that call's subtrees.
pub type KdWorkerPool = crate::scratch::ScratchPool<KdWorkerScratch>;

/// One subtree of the parallel flat traversal, on a pooled worker arena: σ,
/// β, χ and the candidate list are seeded from the parent's exact snapshot
/// (bitwise the state the sequential recursion would hand the same subtree)
/// and the recursion writes into the arena's staging buffer. The arena is
/// returned — not pooled — so the parent can merge the subtree's output
/// slots straight out of the staging buffer (sibling subtrees cover
/// disjoint ids, so merging cannot reorder anything) and return the arena
/// itself; no per-subtree result vector is allocated.
#[allow(clippy::too_many_arguments)]
fn run_flat_subtree(
    pts: &FlatScorePoints<'_>,
    pool: &KdWorkerPool,
    order: &mut [u32],
    cand: &[u32],
    sigma: &[f64],
    beta: f64,
    chi: usize,
    depth: usize,
    split: SplitKind,
    levels: usize,
    stats: Option<&CounterStats>,
    budget: Option<&crate::fault::QueryBudget>,
) -> KdWorkerScratch {
    let mut worker = pool.take();
    worker.prepare(pts.len(), sigma, cand);
    // Zero exactly this subtree's output slots: pruned leaves must read as
    // zero, and the pooled buffer may hold another subtree's stale values.
    for &idx in order.iter() {
        worker.out[idx as usize] = 0.0;
    }
    let mut bc = FlatBc { beta, chi };
    let c1 = cand.len();
    let KdWorkerScratch { scratch, out } = &mut worker;
    fused_rec_flat_par(
        pts, pool, scratch, &mut bc, order, 0, c1, depth, split, out, levels, stats, budget,
    );
    worker
}

/// Merges one subtree's slots from its worker's staging buffer into the
/// shared output and parks the worker back in the pool.
fn merge_flat_subtree(
    pool: &KdWorkerPool,
    worker: KdWorkerScratch,
    order: &[u32],
    out: &mut [f64],
) {
    for &idx in order.iter() {
        out[idx as usize] = worker.out[idx as usize];
    }
    pool.put(worker);
}

/// The parallel form of [`fused_rec_flat`]: node processing is identical,
/// but while parallel `levels` remain, child subtrees are dispatched through
/// [`rayon::join`] (kd splits) or a parallel iterator (quad groups) onto
/// pooled worker arenas seeded with exact state snapshots. Because
/// [`flat_node_exit`] restores state exactly, the snapshot a child receives
/// is bitwise the state the sequential recursion would hand it, so outputs
/// cannot differ.
#[allow(clippy::too_many_arguments)]
fn fused_rec_flat_par(
    pts: &FlatScorePoints<'_>,
    pool: &KdWorkerPool,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    order: &mut [u32],
    c0: usize,
    c1: usize,
    depth: usize,
    split: SplitKind,
    out: &mut [f64],
    levels: usize,
    stats: Option<&CounterStats>,
    budget: Option<&crate::fault::QueryBudget>,
) {
    if levels == 0 || order.len() < MIN_PARALLEL_NODE {
        fused_rec_flat(pts, s, bc, order, c0, c1, depth, split, out, stats, budget);
        return;
    }
    crate::fault::poll(budget);
    let dim = pts.dim;
    let bstart = depth * 2 * dim;
    let pass = flat_node_enter(pts, s, bc, order, c0, c1, bstart, stats);

    if order.len() == 1 {
        let iu = order[0] as usize;
        out[iu] = flat_leaf_probability(&s.sigma, bc, pts.objects[iu] as usize, pts.probs[iu]);
    } else if s.bounds[bstart..bstart + dim] == s.bounds[bstart + dim..bstart + 2 * dim] {
        let (sigma, node_mass) = (&s.sigma, &mut s.node_mass);
        emit_coincident_flat(pts, order, sigma, bc, node_mass, out);
    } else if bc.chi == 0 {
        let grouped = match split {
            SplitKind::Kd => None,
            SplitKind::Quad => flat_quad_group(pts, s, order, bstart),
        };
        match grouped {
            Some(qb0) => {
                // Carve `order` into its per-group sub-slices (disjoint, in
                // ascending mask order), then run every group on a worker.
                let group_count = s.qbounds.len() - qb0;
                let mut slices: Vec<&mut [u32]> = Vec::with_capacity(group_count);
                let mut rest: &mut [u32] = &mut *order;
                let mut gstart = 0usize;
                for g in 0..group_count {
                    let gend = s.qbounds[qb0 + g] as usize;
                    let (head, tail) = rest.split_at_mut(gend - gstart);
                    slices.push(head);
                    rest = tail;
                    gstart = gend;
                }
                let sigma: &[f64] = &s.sigma;
                let cand: &[u32] = &s.cand[pass.cstart..pass.cend];
                let (beta, chi) = (bc.beta, bc.chi);
                use rayon::prelude::*;
                let workers: Vec<KdWorkerScratch> = slices
                    .into_par_iter()
                    .map(|group| {
                        run_flat_subtree(
                            pts,
                            pool,
                            group,
                            cand,
                            sigma,
                            beta,
                            chi,
                            depth + 1,
                            split,
                            levels - 1,
                            stats,
                            budget,
                        )
                    })
                    .collect();
                let mut gstart = 0usize;
                for (g, worker) in workers.into_iter().enumerate() {
                    let gend = s.qbounds[qb0 + g] as usize;
                    merge_flat_subtree(pool, worker, &order[gstart..gend], out);
                    gstart = gend;
                }
                s.qbounds.truncate(qb0);
            }
            None => {
                // Kd split, or the quad mask-collision fallback.
                let mid = flat_kd_partition(pts, order, depth);
                let (left, right) = order.split_at_mut(mid);
                let sigma: &[f64] = &s.sigma;
                let cand: &[u32] = &s.cand[pass.cstart..pass.cend];
                let (beta, chi) = (bc.beta, bc.chi);
                let (lworker, rworker) = rayon::join(
                    || {
                        run_flat_subtree(
                            pts,
                            pool,
                            left,
                            cand,
                            sigma,
                            beta,
                            chi,
                            depth + 1,
                            split,
                            levels - 1,
                            stats,
                            budget,
                        )
                    },
                    || {
                        run_flat_subtree(
                            pts,
                            pool,
                            right,
                            cand,
                            sigma,
                            beta,
                            chi,
                            depth + 1,
                            split,
                            levels - 1,
                            stats,
                            budget,
                        )
                    },
                );
                merge_flat_subtree(pool, lworker, &order[..mid], out);
                merge_flat_subtree(pool, rworker, &order[mid..], out);
            }
        }
    }

    flat_node_exit(s, bc, &pass);
}

/// **KDTT**'s traversal: pre-order over a fully prebuilt kd-tree (so pruned
/// subtrees have still paid their construction cost, which is exactly the
/// overhead KDTT+ removes), with the same node pass and exact undo as the
/// fused traversal.
#[allow(clippy::too_many_arguments)]
fn prebuilt_rec_flat(
    pts: &FlatScorePoints<'_>,
    tree: &KdTree,
    node: usize,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    c0: usize,
    c1: usize,
    out: &mut [f64],
    stats: Option<&CounterStats>,
    budget: Option<&crate::fault::QueryBudget>,
) {
    crate::fault::poll(budget);
    let dim = pts.dim;
    let n = tree.node(node);
    // The node corners come from the prebuilt tree. They are pushed onto the
    // bounds arena as a stack (this recursion does not track depth) and
    // popped again right after the candidate pass.
    let bstart = s.bounds.len();
    s.bounds.extend_from_slice(n.mbr().min().coords());
    s.bounds.extend_from_slice(n.mbr().max().coords());

    s.members.clear();
    collect_positions(tree, node, &mut s.members);
    for i in 0..s.members.len() {
        let idx = s.members[i];
        s.in_node[idx as usize] = true;
    }
    let saved_start = s.saved.len();
    let beta_before = bc.beta;
    let chi_before = bc.chi;
    let cstart = s.cand.len();
    let tests = flat_candidate_pass(pts, s, bc, c0, c1, bstart);
    for i in 0..s.members.len() {
        let idx = s.members[i];
        s.in_node[idx as usize] = false;
    }
    if let Some(st) = stats {
        st.add_nodes_visited(1);
        st.add_fdom_tests(tests);
    }
    let cend = s.cand.len();

    let coincident = s.bounds[bstart..bstart + dim] == s.bounds[bstart + dim..bstart + 2 * dim];
    s.bounds.truncate(bstart);

    match *n.content() {
        KdNodeContent::Leaf { .. } => {
            if s.members.len() == 1 {
                let iu = s.members[0] as usize;
                out[iu] =
                    flat_leaf_probability(&s.sigma, bc, pts.objects[iu] as usize, pts.probs[iu]);
            } else {
                let members = std::mem::take(&mut s.members);
                let (sigma, node_mass) = (&s.sigma, &mut s.node_mass);
                emit_coincident_flat(pts, &members, sigma, bc, node_mass, out);
                s.members = members;
            }
        }
        KdNodeContent::Internal { left, right, .. } => {
            if coincident {
                let members = std::mem::take(&mut s.members);
                let (sigma, node_mass) = (&s.sigma, &mut s.node_mass);
                emit_coincident_flat(pts, &members, sigma, bc, node_mass, out);
                s.members = members;
            } else if bc.chi == 0 {
                prebuilt_rec_flat(pts, tree, left, s, bc, cstart, cend, out, stats, budget);
                prebuilt_rec_flat(pts, tree, right, s, bc, cstart, cend, out, stats, budget);
            }
            // χ ≥ 1: prune the traversal (the tree itself was already built).
        }
    }

    while s.saved.len() > saved_start {
        let (obj, old) = s.saved.pop().expect("saved_start bounds the stack");
        s.sigma[obj as usize] = old;
    }
    bc.beta = beta_before;
    bc.chi = chi_before;
    s.cand.truncate(cstart);
}

/// The kd-ASP\* entry point: runs the traversal `variant` over a
/// [`FlatScorePoints`] view with all working memory drawn from a reusable
/// [`KdScratch`], optionally reporting work counters to `stats`. Point `id`'s
/// probability lands in slot `id` of the returned vector of length
/// `num_instances`. Runs on the calling thread — see
/// [`kd_asp_flat_engine_parallel`] for the worker-pool form.
pub fn kd_asp_flat_engine(
    pts: FlatScorePoints<'_>,
    num_objects: usize,
    num_instances: usize,
    variant: KdVariant,
    stats: Option<&CounterStats>,
    scratch: &mut KdScratch,
    budget: Option<&crate::fault::QueryBudget>,
) -> Vec<f64> {
    let mut out = vec![0.0; num_instances];
    if pts.is_empty() {
        return out;
    }
    let n = pts.len();
    scratch.prepare(num_objects, n);
    let mut bc = FlatBc { beta: 1.0, chi: 0 };
    match variant {
        KdVariant::Prebuilt => {
            // Build the full kd-tree over the flat points (the construction
            // cost is the point of the KDTT baseline), then traverse.
            let mut entries = FlatEntries::with_capacity(pts.dim, n);
            for id in 0..n {
                entries.push(
                    id,
                    pts.objects[id] as usize,
                    pts.probs[id],
                    pts.coords_of(id),
                );
            }
            let tree = KdTree::build_flat(entries);
            let root = tree.root().expect("non-empty tree");
            // The prebuilt traversal stages corners at the top of the bounds
            // arena; start empty.
            scratch.bounds.clear();
            prebuilt_rec_flat(
                &pts, &tree, root, scratch, &mut bc, 0, n, &mut out, stats, budget,
            );
        }
        KdVariant::FusedKd | KdVariant::FusedQuad => {
            let split = if variant == KdVariant::FusedKd {
                SplitKind::Kd
            } else {
                SplitKind::Quad
            };
            let mut order = std::mem::take(&mut scratch.order);
            fused_rec_flat(
                &pts, scratch, &mut bc, &mut order, 0, n, 0, split, &mut out, stats, budget,
            );
            scratch.order = order;
        }
    }
    out
}

/// The parallel form of [`kd_asp_flat_engine`]: the same fused traversal,
/// with sibling subtrees of the first few recursion levels dispatched to
/// worker threads on pooled [`KdWorkerScratch`] arenas. Exact-snapshot state
/// restore makes the result **bitwise identical** to the sequential engine
/// (see the module docs). The prebuilt (KDTT) traversal stays sequential by
/// design — it exists to measure the construction overhead the fused
/// variants remove. Pass `None` for `pool` to use a throwaway pool
/// (arenas still reused across this call's subtrees); the engine passes its
/// session-owned pool. The fan-out follows the ambient rayon width.
#[allow(clippy::too_many_arguments)]
pub fn kd_asp_flat_engine_parallel(
    pts: FlatScorePoints<'_>,
    num_objects: usize,
    num_instances: usize,
    variant: KdVariant,
    stats: Option<&CounterStats>,
    scratch: &mut KdScratch,
    pool: Option<&KdWorkerPool>,
    budget: Option<&crate::fault::QueryBudget>,
) -> Vec<f64> {
    let split = match variant {
        KdVariant::Prebuilt => None,
        KdVariant::FusedKd => Some(SplitKind::Kd),
        KdVariant::FusedQuad => Some(SplitKind::Quad),
    };
    let levels = crate::parallel::fan_out_levels();
    let Some(split) = split.filter(|_| levels > 0 && pts.len() >= MIN_PARALLEL_NODE) else {
        return kd_asp_flat_engine(
            pts,
            num_objects,
            num_instances,
            variant,
            stats,
            scratch,
            budget,
        );
    };
    let mut out = vec![0.0; num_instances];
    let n = pts.len();
    scratch.prepare(num_objects, n);
    let owned_pool;
    let pool = match pool {
        Some(p) => p,
        None => {
            owned_pool = KdWorkerPool::new();
            &owned_pool
        }
    };
    let mut bc = FlatBc { beta: 1.0, chi: 0 };
    let mut order = std::mem::take(&mut scratch.order);
    fused_rec_flat_par(
        &pts, pool, scratch, &mut bc, &mut order, 0, n, 0, split, &mut out, levels, stats, budget,
    );
    scratch.order = order;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A point set in flat columns; point `i` is instance `i`.
    #[derive(Default)]
    struct Points {
        dim: usize,
        coords: Vec<f64>,
        objects: Vec<u32>,
        probs: Vec<f64>,
    }

    impl Points {
        fn new(points: &[(usize, f64, &[f64])]) -> Self {
            let mut p = Self::default();
            for &(object, prob, coords) in points {
                p.push(object, prob, coords);
            }
            p
        }

        fn push(&mut self, object: usize, prob: f64, coords: &[f64]) {
            self.dim = coords.len();
            self.coords.extend_from_slice(coords);
            self.objects.push(object as u32);
            self.probs.push(prob);
        }

        fn view(&self) -> FlatScorePoints<'_> {
            FlatScorePoints {
                dim: self.dim,
                coords: &self.coords,
                objects: &self.objects,
                probs: &self.probs,
            }
        }

        fn len(&self) -> usize {
            self.probs.len()
        }

        fn num_objects(&self) -> usize {
            self.objects.iter().max().map_or(0, |&o| o as usize + 1)
        }

        fn seq(&self, variant: KdVariant, scratch: &mut KdScratch) -> Vec<f64> {
            let (m, n) = (self.num_objects(), self.len());
            kd_asp_flat_engine(self.view(), m, n, variant, None, scratch, None)
        }

        fn par(&self, variant: KdVariant, scratch: &mut KdScratch) -> Vec<f64> {
            let (m, n) = (self.num_objects(), self.len());
            kd_asp_flat_engine_parallel(self.view(), m, n, variant, None, scratch, None, None)
        }
    }

    const VARIANTS: [KdVariant; 3] = [
        KdVariant::FusedKd,
        KdVariant::FusedQuad,
        KdVariant::Prebuilt,
    ];

    /// Brute-force skyline probabilities straight from equation (3).
    fn brute(p: &Points) -> Vec<f64> {
        let view = p.view();
        (0..p.len())
            .map(|t| {
                let mut sigma = vec![0.0; p.num_objects()];
                for s in 0..p.len() {
                    if p.objects[s] != p.objects[t]
                        && dominates(view.coords_of(s), view.coords_of(t))
                    {
                        sigma[p.objects[s] as usize] += p.probs[s];
                    }
                }
                let mut prob = p.probs[t];
                for (j, &sj) in sigma.iter().enumerate() {
                    if j != p.objects[t] as usize {
                        prob *= 1.0 - sj;
                    }
                }
                prob.max(0.0)
            })
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "instance {i}: {x} vs {y}");
        }
    }

    /// Every variant, sequential and parallel.
    fn all_variants(p: &Points) -> Vec<Vec<f64>> {
        let mut scratch = KdScratch::new();
        VARIANTS
            .iter()
            .flat_map(|&v| [p.seq(v, &mut scratch), p.par(v, &mut scratch)])
            .collect()
    }

    #[test]
    fn single_object_keeps_its_probability() {
        let pts = Points::new(&[(0, 0.4, &[0.1, 0.9]), (0, 0.6, &[0.9, 0.1])]);
        for got in all_variants(&pts) {
            // Instances of the same object never affect each other.
            assert_close(&got, &[0.4, 0.6]);
        }
    }

    #[test]
    fn dominated_instance_loses_mass() {
        let pts = Points::new(&[(0, 1.0, &[0.1, 0.1]), (1, 1.0, &[0.5, 0.5])]);
        for got in all_variants(&pts) {
            assert_close(&got, &[1.0, 0.0]);
        }
    }

    #[test]
    fn partial_domination() {
        // Object 0 dominates instance 2 with only half of its mass.
        let pts = Points::new(&[
            (0, 0.5, &[0.1, 0.1]),
            (0, 0.5, &[0.9, 0.9]),
            (1, 1.0, &[0.5, 0.5]),
        ]);
        let want = brute(&pts);
        assert!((want[2] - 0.5).abs() < 1e-12);
        for got in all_variants(&pts) {
            assert_close(&got, &want);
        }
    }

    #[test]
    fn own_object_mass_never_hurts() {
        // Both instances of object 0 dominate everything; object 0's own
        // later instance keeps its probability, object 1's instance drops to
        // zero.
        let pts = Points::new(&[
            (0, 0.5, &[0.1, 0.1]),
            (0, 0.5, &[0.2, 0.2]),
            (1, 1.0, &[0.3, 0.3]),
        ]);
        let want = brute(&pts);
        assert!((want[1] - 0.5).abs() < 1e-12);
        assert!((want[2] - 0.0).abs() < 1e-12);
        for got in all_variants(&pts) {
            assert_close(&got, &want);
        }
    }

    #[test]
    fn chain_of_certain_points() {
        // A totally ordered chain of certain objects: only the first survives.
        let mut pts = Points::default();
        for i in 0..6 {
            pts.push(i, 1.0, &[i as f64, i as f64]);
        }
        let want = brute(&pts);
        assert_close(&want, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        for got in all_variants(&pts) {
            assert_close(&got, &want);
        }
    }

    #[test]
    fn coincident_points_dominate_each_other() {
        let pts = Points::new(&[
            (0, 1.0, &[0.5, 0.5]),
            (1, 1.0, &[0.5, 0.5]),
            (2, 1.0, &[0.5, 0.5]),
        ]);
        let want = brute(&pts);
        assert_close(&want, &[0.0, 0.0, 0.0]);
        for got in all_variants(&pts) {
            assert_close(&got, &want);
        }
    }

    #[test]
    fn coincident_points_with_partial_mass() {
        // Two objects with half their mass at the same location, half
        // elsewhere: the coincident node must combine inside and outside mass
        // exactly.
        let pts = Points::new(&[
            (0, 0.5, &[0.5, 0.5]),
            (0, 0.5, &[2.0, 2.0]),
            (1, 0.5, &[0.5, 0.5]),
            (1, 0.5, &[3.0, 3.0]),
            (2, 1.0, &[0.5, 0.5]),
        ]);
        let want = brute(&pts);
        for got in all_variants(&pts) {
            assert_close(&got, &want);
        }
    }

    #[test]
    fn point_at_node_min_corner_is_not_self_pruned() {
        // Regression test for the subtle issue the module documentation
        // describes: a certain instance at the global minimum corner must
        // keep probability one and must not prune its siblings' computation.
        let pts = Points::new(&[
            (0, 1.0, &[0.0, 0.0]),
            (1, 1.0, &[1.0, 2.0]),
            (2, 1.0, &[2.0, 1.0]),
        ]);
        let want = brute(&pts);
        assert_close(&want, &[1.0, 0.0, 0.0]);
        for got in all_variants(&pts) {
            assert_close(&got, &want);
        }
    }

    type TestRng = rand_chacha::ChaCha8Rng;

    /// `num_objects` objects with `1..max_k` equally likely instances each,
    /// every coordinate drawn by `coord`.
    fn random_points(
        seed: u64,
        dim: usize,
        num_objects: usize,
        max_k: usize,
        coord: fn(&mut TestRng) -> f64,
    ) -> Points {
        use rand::prelude::*;
        let mut rng = TestRng::seed_from_u64(seed);
        let mut pts = Points::default();
        for obj in 0..num_objects {
            let k = rng.gen_range(1..max_k);
            let p = 1.0 / k as f64;
            for _ in 0..k {
                let coords: Vec<f64> = (0..dim).map(|_| coord(&mut rng)).collect();
                pts.push(obj, p, &coords);
            }
        }
        pts
    }

    fn uniform(rng: &mut TestRng) -> f64 {
        use rand::Rng;
        rng.gen_range(0.0..1.0)
    }

    /// Grid-valued coordinates force many ties on split axes and many
    /// coincident points.
    fn grid(rng: &mut TestRng) -> f64 {
        use rand::Rng;
        rng.gen_range(0..3) as f64 * 0.5
    }

    #[test]
    fn random_points_match_brute_force_all_variants() {
        use rand::prelude::*;
        let mut rng = TestRng::seed_from_u64(77);
        for dim in [1usize, 2, 3, 4] {
            for _ in 0..5 {
                let num_objects = rng.gen_range(2..8);
                let pts = random_points(rng.gen_range(0..1_000_000), dim, num_objects, 5, uniform);
                let want = brute(&pts);
                for got in all_variants(&pts) {
                    assert_close(&got, &want);
                }
            }
        }
    }

    #[test]
    fn clustered_low_cardinality_coordinates() {
        // The degenerate paths (ties, coincident nodes) must stay exact.
        for seed in 5..10 {
            let pts = random_points(seed, 2, 6, 4, grid);
            let want = brute(&pts);
            for got in all_variants(&pts) {
                assert_close(&got, &want);
            }
        }
    }

    #[test]
    fn empty_input() {
        for got in all_variants(&Points::default()) {
            assert!(got.is_empty());
        }
    }

    /// A point set large enough to cross the parallel traversal's node-size
    /// threshold (512) several times over.
    fn large_random_points(seed: u64, dim: usize) -> Points {
        let pts = random_points(seed, dim, 400, 6, uniform);
        assert!(pts.len() > 512, "must cross the parallel threshold");
        pts
    }

    #[test]
    fn large_inputs_match_brute_force_in_every_variant() {
        // One scratch reused across every run exercises the arena reset and
        // the high-water-mark reuse on top of the agreement. A width-4 pool
        // makes the parallel recursion fan out even on one core.
        let mut scratch = KdScratch::new();
        for (seed, dim) in [(7u64, 2usize), (8, 3), (9, 4)] {
            let pts = large_random_points(seed, dim);
            let want = brute(&pts);
            for variant in VARIANTS {
                let seq = pts.seq(variant, &mut scratch);
                assert_close(&seq, &want);
                let par = crate::parallel::with_width(4, || pts.par(variant, &mut scratch));
                assert_eq!(seq, par, "{variant:?} diverged (seed {seed}, dim {dim})");
            }
        }
    }

    #[test]
    fn flat_traversal_handles_degenerate_inputs() {
        let mut scratch = KdScratch::new();
        // Coincident points across objects (the un-splittable node path).
        let pts = Points::new(&[
            (0, 1.0, &[0.5, 0.5]),
            (1, 1.0, &[0.5, 0.5]),
            (2, 1.0, &[0.5, 0.5]),
        ]);
        for variant in VARIANTS {
            assert_eq!(pts.seq(variant, &mut scratch), vec![0.0, 0.0, 0.0]);
        }
        // Clustered grid coordinates: ties on every split axis.
        let pts = random_points(55, 3, 8, 4, grid);
        let want = brute(&pts);
        for variant in VARIANTS {
            assert_close(&pts.seq(variant, &mut scratch), &want);
        }
    }

    #[test]
    fn parallel_traversal_is_bitwise_identical() {
        // Two threads (one fan-out level, where the large-input test uses
        // four) and no worker pool: every call draws its arenas from a
        // throwaway pool.
        let mut scratch = KdScratch::new();
        for (seed, dim) in [(101u64, 2usize), (102, 3), (103, 4)] {
            let pts = large_random_points(seed, dim);
            for variant in [KdVariant::FusedKd, KdVariant::FusedQuad] {
                let seq = pts.seq(variant, &mut scratch);
                let par = crate::parallel::with_width(2, || pts.par(variant, &mut scratch));
                assert_eq!(seq, par, "{variant:?} traversal diverged (seed {seed})");
            }
        }
    }

    #[test]
    fn parallel_flat_traversal_is_bitwise_identical_to_sequential_flat() {
        // One scratch and one worker pool reused across every run: the
        // second pass per configuration exercises warm-arena reuse on top of
        // the bitwise agreement.
        let mut scratch = KdScratch::new();
        let pool = KdWorkerPool::new();
        for threads in [2usize, 4] {
            for (seed, dim) in [(101u64, 2usize), (102, 3), (103, 4)] {
                let pts = large_random_points(seed, dim);
                let (view, m, n) = (pts.view(), pts.num_objects(), pts.len());
                assert!(n > MIN_PARALLEL_NODE, "must cross the parallel threshold");
                for variant in VARIANTS {
                    let seq = kd_asp_flat_engine(view, m, n, variant, None, &mut scratch, None);
                    for _ in 0..2 {
                        let par = crate::parallel::with_width(threads, || {
                            kd_asp_flat_engine_parallel(
                                view,
                                m,
                                n,
                                variant,
                                None,
                                &mut scratch,
                                Some(&pool),
                                None,
                            )
                        });
                        assert_eq!(
                            seq, par,
                            "parallel flat {variant:?} diverged \
                             (seed {seed}, dim {dim}, threads {threads})"
                        );
                    }
                }
            }
        }
        assert!(
            pool.hits() > 0,
            "repeated parallel runs must reuse pooled worker arenas"
        );
    }

    #[test]
    fn parallel_flat_traversal_reports_identical_stats() {
        let pts = large_random_points(104, 3);
        let (view, m, n) = (pts.view(), pts.num_objects(), pts.len());
        let mut scratch = KdScratch::new();
        for variant in [KdVariant::FusedKd, KdVariant::FusedQuad] {
            let seq_stats = CounterStats::new();
            let seq = kd_asp_flat_engine(view, m, n, variant, Some(&seq_stats), &mut scratch, None);
            let par_stats = CounterStats::new();
            let par = crate::parallel::with_width(4, || {
                kd_asp_flat_engine_parallel(
                    view,
                    m,
                    n,
                    variant,
                    Some(&par_stats),
                    &mut scratch,
                    None,
                    None,
                )
            });
            assert_eq!(seq, par);
            assert_eq!(
                seq_stats.snapshot(),
                par_stats.snapshot(),
                "work counters must not depend on the execution mode ({variant:?})"
            );
        }
    }
}
