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
//! There is one entry point, [`kd_asp_flat_engine`], over a columnar
//! [`FlatScorePoints`] view (one dim-strided coordinate array plus parallel
//! object/probability columns, indexed by instance id), and one traversal
//! behind it: one kernel, fanned out. With `parallel` set, sibling subtrees
//! of the first few recursion levels run on worker threads, with a result
//! bitwise identical to running every child on the calling thread.
//!
//! It takes a [`KdVariant`], matching the algorithm variants the paper
//! evaluates. They differ only in where a node's children come from:
//!
//! * **KDTT+** ([`KdVariant::FusedKd`]): the kd partitioning is created
//!   *during* the traversal, so subtrees whose instances all have zero
//!   probability are never even constructed;
//! * **KDTT** ([`KdVariant::Prebuilt`]): the kd-tree is fully built first and
//!   then traversed pre-order (the original formulation of Afshani et al.
//!   that the paper optimises). It stays sequential under `parallel`,
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
//! ## Candidate pass
//!
//! Every traversal, sequential or parallel, and ASP spend most of their time
//! in one loop: lines 9–18 of Algorithm 1, which check each of the parent's
//! candidates against the node's corners. There is one body for it,
//! `candidate_pass`, and it has no data-dependent branch in the dominance
//! tests or in the survivor append:
//!
//! 1. each candidate's row is compared with `pmin` and with `pmax` on every
//!    coordinate, with no early exit, and its `in_node` mark is read once;
//! 2. a candidate outside the node and below `pmin` is folded into σ (the
//!    only branch left, taken in candidate order, so σ/β/χ take exactly the
//!    float steps an early-exit pass takes);
//! 3. every candidate is written at the stack top, and the top advances by
//!    its "not folded and below `pmax`" flag, so the survivors keep their
//!    order.
//!
//! Dominance is a pure conjunction of the same `<=` comparisons, so the
//! folded and surviving candidates, and `fdom_tests` (one test per candidate
//! outside the node, one per candidate not folded), are those of an
//! early-exit pass, and every probability is the same bits.
//!
//! The score width is a type parameter of that body: `Fixed<D>` makes it a
//! compile-time constant, so the coordinate loop unrolls fully, and
//! `Runtime` carries it as a value. `flat_candidate_pass` dispatches on the
//! input's score dimension: d′ = 1..=16 each run their own compiled copy,
//! and larger d′ run the runtime-width copy. On the serving benchmark's
//! union, the compiled copies make KDTT+ about 1.6× faster than an
//! early-exit pass; a runtime-width loop alone recovers only part of that
//! (EXPERIMENTS.md).
//!
//! ## Exact undo
//!
//! On node exit the state is restored **exactly**, not recomputed: the σ
//! entries a node changed are written back from an undo stack, newest first
//! (so repeated additions to one object unwind correctly), and β/χ are
//! restored from the snapshot taken on node entry. Arithmetic "inverses"
//! like `β / (1 − σ)` would drift under floating point. Bitwise restoration
//! is what lets sibling subtrees observe identical states, which in turn is
//! what makes the fan-out exact: a worker seeded with a copy of the parent's
//! post-pass state sees bitwise the state the inline recursion would hand
//! the same child.

use crate::scorespace::FlatScorePoints;
use crate::stats::CounterStats;
use arsp_geometry::mbr::{extend_bounds, reset_bounds};
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

/// Where a node's children come from: the one thing, besides the fan-out,
/// that tells the three variants apart.
#[derive(Clone, Copy)]
enum Split<'t> {
    /// KDTT+: a median kd split on the depth axis.
    Kd,
    /// QDTT+: quadrant groups, or a kd split on a mask collision.
    Quad,
    /// KDTT: a node of the prebuilt tree, whose points are the node's range
    /// of the tree's leaf order.
    Prebuilt(&'t KdTree, usize),
}

impl Split<'_> {
    /// The split of child `g`, in the order [`flat_children`] lays them out.
    fn child(self, g: usize) -> Self {
        match self {
            Split::Prebuilt(tree, node) => Split::Prebuilt(tree, subtrees(tree, node)[g]),
            fused => fused,
        }
    }
}

/// The left and right subtrees of a prebuilt tree's node with children.
fn subtrees(tree: &KdTree, node: usize) -> [usize; 2] {
    let KdNodeContent::Internal { left, right, .. } = *tree.node(node).content() else {
        unreachable!("a prebuilt leaf holds one point, so it has no children");
    };
    [left, right]
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
// One recursion, `kd_rec_flat`, holds the node body for every variant; only
// the source of a node's children (`Split`) varies. Under `parallel` the same
// recursion fans the children of its first few levels out to worker threads:
// each child checks a [`KdWorkerScratch`] arena out of a shared
// [`KdWorkerPool`], seeds σ and the candidate list from the parent's exact
// snapshot (bitwise the state the inline recursion would hand it), recurses,
// and the parent merges the child's output slots. Exact snapshot + exact
// undo is what makes the fan-out invisible in the output.

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
    /// Stack arena of child end offsets (survives recursion).
    ends: Vec<u32>,
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
        self.ends.clear();
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

/// The score width of one candidate pass: a compile-time constant
/// ([`Fixed`]) or a runtime value ([`Runtime`]). [`candidate_pass`] is
/// generic over it, so each fixed width compiles to its own fully unrolled
/// copy of the one pass body.
trait Width: Copy {
    fn dim(self) -> usize;
}

/// A score width known at compile time.
#[derive(Clone, Copy)]
struct Fixed<const D: usize>;

impl<const D: usize> Width for Fixed<D> {
    #[inline(always)]
    fn dim(self) -> usize {
        D
    }
}

/// A score width known only at run time (d′ above the compiled widths).
#[derive(Clone, Copy)]
struct Runtime(usize);

impl Width for Runtime {
    #[inline(always)]
    fn dim(self) -> usize {
        self.0
    }
}

/// The candidate pass of lines 9–18 over the shared stacks: reads the
/// parent's candidate range `[c0, c1)` of `scratch.cand`, appends this node's
/// surviving candidates at the top of the stack, and records σ mutations on
/// the shared undo stack. Returns the number of F-dominance tests performed.
/// `bstart` locates this node's `pmin`/`pmax` inside the bounds arena.
///
/// Dispatches on the score dimension: d′ = 1..=16 run their own compiled
/// copy of [`candidate_pass`], larger d′ the runtime-width copy.
fn flat_candidate_pass(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    c0: usize,
    c1: usize,
    bstart: usize,
) -> u64 {
    macro_rules! by_width {
        ($($d:literal)*) => {
            match pts.dim {
                $($d => candidate_pass(Fixed::<$d>, pts, s, bc, c0, c1, bstart),)*
                dim => candidate_pass(Runtime(dim), pts, s, bc, c0, c1, bstart),
            }
        };
    }
    by_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
}

/// The one candidate-pass body, compiled once per [`Width`]: both corner
/// tests on every coordinate, σ folds in candidate order, and a branch-free
/// survivor append (see "Candidate pass" in the module docs for why the
/// result is bitwise that of an early-exit pass).
#[inline(always)]
fn candidate_pass<W: Width>(
    w: W,
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    c0: usize,
    c1: usize,
    bstart: usize,
) -> u64 {
    let dim = w.dim();
    let (pmin, pmax) = s.bounds[bstart..bstart + 2 * dim].split_at(dim);
    let coords = pts.coords;
    // Room for every candidate at the top, so the append never branches.
    let base = s.cand.len();
    s.cand.resize(base + (c1 - c0), 0);
    let mut top = base;
    let mut tests = 0u64;
    for i in c0..c1 {
        let c = s.cand[i];
        let cu = c as usize;
        let row = &coords[cu * dim..][..dim];
        let mut below_min = true;
        let mut below_max = true;
        for ((&x, &lo), &hi) in row.iter().zip(pmin).zip(pmax) {
            below_min &= x <= lo;
            below_max &= x <= hi;
        }
        let outside = !s.in_node[cu];
        let fold = outside & below_min;
        tests += u64::from(outside) + u64::from(!fold);
        if fold {
            let obj = pts.objects[cu] as usize;
            s.saved.push((obj as u32, s.sigma[obj]));
            flat_sky_add(&mut s.sigma, bc, obj, pts.probs[cu]);
        }
        s.cand[top] = c;
        top += usize::from(!fold & below_max);
    }
    s.cand.truncate(top);
    tests
}

/// Writes the node's corners into the depth slot of the bounds arena
/// (coordinate-wise min then max corner): KDTT reads them off its prebuilt
/// tree, the fused variants compute them from the node's points.
fn flat_corners(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    order: &[u32],
    bstart: usize,
    split: Split<'_>,
) {
    let dim = pts.dim;
    if s.bounds.len() < bstart + 2 * dim {
        s.bounds.resize(bstart + 2 * dim, 0.0);
    }
    let (pmin, pmax) = s.bounds[bstart..bstart + 2 * dim].split_at_mut(dim);
    if let Split::Prebuilt(tree, node) = split {
        let mbr = tree.node(node).mbr();
        pmin.copy_from_slice(mbr.min().coords());
        pmax.copy_from_slice(mbr.max().coords());
        return;
    }
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

/// The node prologue: writes the corners into the depth slot `bstart`,
/// marks the node's points, runs the candidate pass over the parent range
/// `[c0, c1)` and reports to the stats sink.
#[allow(clippy::too_many_arguments)]
fn flat_node_enter(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    order: &[u32],
    c0: usize,
    c1: usize,
    bstart: usize,
    split: Split<'_>,
    stats: Option<&CounterStats>,
) -> FlatPass {
    flat_corners(pts, s, order, bstart, split);
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

/// The node epilogue: exact undo — σ entries newest-first, β/χ from
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
/// the fan-out beyond |P|. On success pushes the group end offsets onto the
/// `ends` stack arena and returns `true`; returns `false` on a mask
/// collision (masks cover coordinates 0..64 only, so points that agree there
/// share one group), where the caller falls back to a kd split to guarantee
/// progress.
fn flat_quad_group(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    order: &mut [u32],
    bstart: usize,
) -> bool {
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
        return false;
    }
    s.qkeys.sort_unstable();
    // Permute `order` into grouped form via a staging copy.
    s.qbuf.clear();
    s.qbuf.extend_from_slice(order);
    for (slot, &(_, pos)) in s.qkeys.iter().enumerate() {
        order[slot] = s.qbuf[pos as usize];
    }
    // Group end offsets survive the child recursions on the ends stack
    // arena.
    for (slot, &(mask, _)) in s.qkeys.iter().enumerate() {
        if s.qkeys
            .get(slot + 1)
            .map_or(true, |&(next, _)| next != mask)
        {
            s.ends.push(slot as u32 + 1);
        }
    }
    true
}

/// What every node of one traversal shares.
struct Traversal<'a> {
    pts: FlatScorePoints<'a>,
    /// Worker arenas of the fan-out; `None` runs every child inline.
    pool: Option<&'a KdWorkerPool>,
    stats: Option<&'a CounterStats>,
    budget: Option<&'a crate::fault::QueryBudget>,
}

/// Partitions `order` into the node's children and pushes their end offsets
/// (ascending, the last one `order.len()`) onto the `ends` stack arena.
/// Returns the stack base, which the caller truncates back to once the
/// children have run. A kd split has two children at the median, a quad
/// split one per non-empty quadrant (or a kd split on a mask collision), and
/// a prebuilt node its tree's left and right subtrees.
fn flat_children(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    order: &mut [u32],
    depth: usize,
    bstart: usize,
    split: Split<'_>,
) -> usize {
    let base = s.ends.len();
    let mid = match split {
        Split::Quad if flat_quad_group(pts, s, order, bstart) => return base,
        Split::Kd | Split::Quad => flat_kd_partition(pts, order, depth),
        Split::Prebuilt(tree, node) => tree.node(subtrees(tree, node)[0]).size(),
    };
    s.ends.push(mid as u32);
    s.ends.push(order.len() as u32);
    base
}

/// The kd-ASP\* traversal of every variant, sequential or fanned out, one
/// node per call: the node pass ([`flat_node_enter`]), then a leaf, a
/// coincident node, or — only while χ = 0 — the children of
/// [`flat_children`], then the exact undo ([`flat_node_exit`]). The children
/// run inline, or on worker arenas ([`fan_out_children`]) while fan-out
/// `levels` remain and the node holds at least [`MIN_PARALLEL_NODE`] points.
/// `c0..c1` is this node's candidate range in the shared stack.
#[allow(clippy::too_many_arguments)]
fn kd_rec_flat(
    t: &Traversal<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    order: &mut [u32],
    c0: usize,
    c1: usize,
    depth: usize,
    split: Split<'_>,
    levels: usize,
    out: &mut [f64],
) {
    crate::fault::poll(t.budget);
    let pts = &t.pts;
    let dim = pts.dim;
    let bstart = depth * 2 * dim;
    let pass = flat_node_enter(pts, s, bc, order, c0, c1, bstart, split, t.stats);

    if order.len() == 1 {
        let iu = order[0] as usize;
        out[iu] = flat_leaf_probability(&s.sigma, bc, pts.objects[iu] as usize, pts.probs[iu]);
    } else if s.bounds[bstart..bstart + dim] == s.bounds[bstart + dim..bstart + 2 * dim] {
        // All points of the node coincide; it cannot be split further.
        let (sigma, node_mass) = (&s.sigma, &mut s.node_mass);
        emit_coincident_flat(pts, order, sigma, bc, node_mass, out);
    } else if bc.chi == 0 {
        let base = flat_children(pts, s, order, depth, bstart, split);
        match t.pool {
            Some(pool) if levels > 0 && order.len() >= MIN_PARALLEL_NODE => {
                fan_out_children(
                    t, pool, s, bc, &pass, order, base, depth, split, levels, out,
                );
            }
            _ => {
                let mut start = 0;
                for g in 0..s.ends.len() - base {
                    let end = s.ends[base + g] as usize;
                    kd_rec_flat(
                        t,
                        s,
                        bc,
                        &mut order[start..end],
                        pass.cstart,
                        pass.cend,
                        depth + 1,
                        split.child(g),
                        levels,
                        out,
                    );
                    start = end;
                }
            }
        }
        s.ends.truncate(base);
    }
    // χ ≥ 1 with |P| > 1: every point of the node is dominated by the entire
    // mass of some object lying outside the node — the subtree has zero
    // skyline probability everywhere and is pruned (the fused variants never
    // construct it).

    flat_node_exit(s, bc, &pass);
}

/// One worker's arena for the fan-out: a [`KdScratch`] for the subtree's
/// recursion plus a full-length output staging buffer (only the subtree's
/// own slots are zeroed and read, so the buffer is reused without a full
/// clear). Pooled in a [`KdWorkerPool`].
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
        s.ends.clear();
        s.in_node.clear();
        s.in_node.resize(n, false);
        if self.out.len() < n {
            self.out.resize(n, 0.0);
        }
    }
}

/// A stealable stack of [`KdWorkerScratch`] arenas shared by the subtree
/// tasks of the fan-out. [`crate::engine::ArspEngine`] owns one per session,
/// so warmed-up parallel queries (and `run_batch` sweeps) stop allocating
/// arena memory per subtree; free-function callers get a throwaway pool per
/// call, which still reuses arenas across that call's subtrees.
pub type KdWorkerPool = crate::scratch::ScratchPool<KdWorkerScratch>;

/// Runs a node's children (the `ends` stack from `base`) on pooled worker
/// arenas: two children through [`rayon::join`], more through a parallel
/// iterator. Every worker starts from the node's post-pass σ, β, χ and
/// candidate list, bitwise the state the inline recursion would hand the
/// same child, and the node merges each child's output slots afterwards.
#[allow(clippy::too_many_arguments)]
fn fan_out_children(
    t: &Traversal<'_>,
    pool: &KdWorkerPool,
    s: &KdScratch,
    bc: &FlatBc,
    pass: &FlatPass,
    order: &mut [u32],
    base: usize,
    depth: usize,
    split: Split<'_>,
    levels: usize,
    out: &mut [f64],
) {
    let ends = &s.ends[base..];
    let cand = &s.cand[pass.cstart..pass.cend];
    let run = |split: Split<'_>, child: &mut [u32]| {
        run_flat_subtree(
            t,
            pool,
            child,
            &s.sigma,
            cand,
            bc,
            depth + 1,
            split,
            levels - 1,
        )
    };
    if let [mid, _] = *ends {
        let (left, right) = order.split_at_mut(mid as usize);
        let (l, r) = rayon::join(|| run(split.child(0), left), || run(split.child(1), right));
        merge_flat_subtree(pool, l, left, out);
        merge_flat_subtree(pool, r, right, out);
        return;
    }
    let mut children = Vec::with_capacity(ends.len());
    let mut rest = &mut *order;
    let mut start = 0;
    for (g, &end) in ends.iter().enumerate() {
        let (head, tail) = rest.split_at_mut(end as usize - start);
        children.push((split.child(g), head));
        rest = tail;
        start = end as usize;
    }
    use rayon::prelude::*;
    let workers: Vec<KdWorkerScratch> = children
        .into_par_iter()
        .map(|(split, child)| run(split, child))
        .collect();
    let mut start = 0;
    for (worker, &end) in workers.into_iter().zip(ends) {
        merge_flat_subtree(pool, worker, &order[start..end as usize], out);
        start = end as usize;
    }
}

/// One subtree of the fan-out, on a pooled worker arena seeded with the
/// parent's exact post-pass state. The arena is returned — not pooled — so
/// the parent can merge the subtree's output slots straight out of the
/// staging buffer (sibling subtrees cover disjoint ids, so merging cannot
/// reorder anything) and then pool the arena itself; no per-subtree result
/// vector is allocated.
#[allow(clippy::too_many_arguments)]
fn run_flat_subtree(
    t: &Traversal<'_>,
    pool: &KdWorkerPool,
    order: &mut [u32],
    sigma: &[f64],
    cand: &[u32],
    bc: &FlatBc,
    depth: usize,
    split: Split<'_>,
    levels: usize,
) -> KdWorkerScratch {
    let mut worker = pool.take();
    worker.prepare(t.pts.len(), sigma, cand);
    // Zero exactly this subtree's output slots: pruned leaves must read as
    // zero, and the pooled buffer may hold another subtree's stale values.
    for &idx in order.iter() {
        worker.out[idx as usize] = 0.0;
    }
    let mut bc = FlatBc {
        beta: bc.beta,
        chi: bc.chi,
    };
    let KdWorkerScratch { scratch, out } = &mut worker;
    kd_rec_flat(
        t,
        scratch,
        &mut bc,
        order,
        0,
        cand.len(),
        depth,
        split,
        levels,
        out,
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

/// The kd-ASP\* entry point: runs the traversal `variant` over a
/// [`FlatScorePoints`] view with all working memory drawn from a reusable
/// [`KdScratch`], optionally reporting work counters to `stats`. Point `id`'s
/// probability lands in slot `id` of the returned vector of length
/// `num_instances`.
///
/// With `parallel` set, the fused variants fan the sibling subtrees of the
/// first few recursion levels out to worker threads, as many levels as the
/// ambient rayon width needs, on [`KdWorkerScratch`] arenas drawn from
/// `pool` (a throwaway pool when `None`; the engine passes its
/// session-owned one). Exact-snapshot state restore makes the result
/// **bitwise identical** to the inline run (see the module docs). KDTT runs
/// inline either way: it exists to measure the construction cost the fused
/// variants remove.
#[allow(clippy::too_many_arguments)]
pub fn kd_asp_flat_engine(
    pts: FlatScorePoints<'_>,
    num_objects: usize,
    num_instances: usize,
    variant: KdVariant,
    parallel: bool,
    stats: Option<&CounterStats>,
    scratch: &mut KdScratch,
    pool: Option<&KdWorkerPool>,
    budget: Option<&crate::fault::QueryBudget>,
) -> Vec<f64> {
    let mut out = vec![0.0; num_instances];
    if pts.is_empty() {
        return out;
    }
    let n = pts.len();
    scratch.prepare(num_objects, n);
    let mut order = std::mem::take(&mut scratch.order);
    let tree;
    let split = match variant {
        KdVariant::FusedKd => Split::Kd,
        KdVariant::FusedQuad => Split::Quad,
        KdVariant::Prebuilt => {
            // Build the full kd-tree over the flat points (the construction
            // cost is the point of the KDTT baseline); every node's points
            // are then a range of the tree's leaf order.
            let mut entries = FlatEntries::with_capacity(pts.dim, n);
            for id in 0..n {
                entries.push(
                    id,
                    pts.objects[id] as usize,
                    pts.probs[id],
                    pts.coords_of(id),
                );
            }
            tree = KdTree::build_flat(entries);
            let root = tree.root().expect("non-empty tree");
            order.clear();
            collect_positions(&tree, root, &mut order);
            Split::Prebuilt(&tree, root)
        }
    };
    let levels = if parallel && variant != KdVariant::Prebuilt {
        crate::parallel::fan_out_levels()
    } else {
        0
    };
    let owned_pool;
    let pool = match pool {
        _ if levels == 0 => None,
        Some(pool) => Some(pool),
        None => {
            owned_pool = KdWorkerPool::new();
            Some(&owned_pool)
        }
    };
    let t = Traversal {
        pts,
        pool,
        stats,
        budget,
    };
    let mut bc = FlatBc { beta: 1.0, chi: 0 };
    kd_rec_flat(
        &t, scratch, &mut bc, &mut order, 0, n, 0, split, levels, &mut out,
    );
    scratch.order = order;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsp_geometry::point::dominates;

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

        fn run(&self, variant: KdVariant, parallel: bool, scratch: &mut KdScratch) -> Vec<f64> {
            let (m, n) = (self.num_objects(), self.len());
            kd_asp_flat_engine(
                self.view(),
                m,
                n,
                variant,
                parallel,
                None,
                scratch,
                None,
                None,
            )
        }

        fn seq(&self, variant: KdVariant, scratch: &mut KdScratch) -> Vec<f64> {
            self.run(variant, false, scratch)
        }

        fn par(&self, variant: KdVariant, scratch: &mut KdScratch) -> Vec<f64> {
            self.run(variant, true, scratch)
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
                    let seq = kd_asp_flat_engine(
                        view,
                        m,
                        n,
                        variant,
                        false,
                        None,
                        &mut scratch,
                        None,
                        None,
                    );
                    for _ in 0..2 {
                        let par = crate::parallel::with_width(threads, || {
                            kd_asp_flat_engine(
                                view,
                                m,
                                n,
                                variant,
                                true,
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
            let seq = kd_asp_flat_engine(
                view,
                m,
                n,
                variant,
                false,
                Some(&seq_stats),
                &mut scratch,
                None,
                None,
            );
            let par_stats = CounterStats::new();
            let par = crate::parallel::with_width(4, || {
                kd_asp_flat_engine(
                    view,
                    m,
                    n,
                    variant,
                    true,
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

    /// ≥ 1,024 tie-heavy points in `dim` score dimensions: grid coordinates
    /// (ties on every split axis), a quarter of the instances copying an
    /// earlier instance's coordinates (duplicates across objects), and two
    /// objects holding half their mass at the minimum corner of the whole
    /// set. Every object has 2–5 instances, so no single instance saturates
    /// σ and prunes the traversal at the root.
    fn tie_heavy_points(dim: usize) -> Points {
        use rand::prelude::*;
        let mut rng = TestRng::seed_from_u64(0x7e57 + dim as u64);
        let grid_row = |rng: &mut TestRng| -> Vec<f64> {
            (0..dim)
                .map(|_| rng.gen_range(0..8) as f64 * 0.25)
                .collect()
        };
        let mut pts = Points::default();
        for obj in 0..2 {
            pts.push(obj, 0.5, &vec![0.0; dim]);
            let row = grid_row(&mut rng);
            pts.push(obj, 0.5, &row);
        }
        let mut obj = 2;
        while pts.len() < 1_030 {
            let k = rng.gen_range(2..6);
            for _ in 0..k {
                let row = if pts.len() > 4 && rng.gen_bool(0.25) {
                    let from = rng.gen_range(4..pts.len());
                    pts.view().coords_of(from).to_vec()
                } else {
                    grid_row(&mut rng)
                };
                pts.push(obj, 1.0 / k as f64, &row);
            }
            obj += 1;
        }
        pts
    }

    /// FNV-1a over every probability's bit pattern.
    fn bits_digest(probs: &[f64]) -> u64 {
        probs.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
            p.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Pins per score dimension 1..=18, one `(digest, fdom_tests,
    /// nodes_visited)` triple per variant in [`VARIANTS`] order. Dimensions
    /// 1..=16 run the pass's compiled widths, 17 and 18 its runtime width.
    const WIDTH_PINS: [[(u64, u64, u64); 3]; 18] = [
        // d' = 1
        [
            (0x48dbcec752eb56e5, 5535, 7),
            (0x48dbcec752eb56e5, 5523, 7),
            (0x48dbcec752eb56e5, 5535, 7),
        ],
        // d' = 2
        [
            (0xf0d45c9911a734f, 28992, 121),
            (0xfc6add3519c8b30a, 15449, 33),
            (0xbac55b56a3038832, 28992, 121),
        ],
        // d' = 3
        [
            (0x1d2ee4f092a30d84, 159031, 865),
            (0xc455f6985ffdb6ee, 73588, 273),
            (0xebc02b251afbfc86, 159031, 865),
        ],
        // d' = 4
        [
            (0x4ce6c921fa5e2c1d, 247138, 1389),
            (0x39cc9660580e250b, 171026, 723),
            (0x1be1e60902d0c3ad, 247138, 1389),
        ],
        // d' = 5
        [
            (0xbd4d41a218e3e8df, 351106, 1677),
            (0x743fb7e1d59a89fc, 309933, 875),
            (0x7168074ce39dc070, 351106, 1677),
        ],
        // d' = 6
        [
            (0x941f616e6bc07fc5, 348410, 1751),
            (0x556afcb9045751b7, 359368, 855),
            (0x34478a65f21d2ede, 348410, 1751),
        ],
        // d' = 7
        [
            (0x64ecff0e5260a3e2, 322085, 1793),
            (0x9aea29976e93feaf, 420481, 904),
            (0x88ec5eec67d03c2f, 322085, 1793),
        ],
        // d' = 8
        [
            (0xd72059b06cc60a62, 309667, 1833),
            (0x629d7cf6127e2b3, 599085, 992),
            (0x8087e681b7b466e4, 309667, 1833),
        ],
        // d' = 9
        [
            (0x281cae90e6c13644, 297215, 1845),
            (0x38f7c73deaa4b0b1, 864890, 1011),
            (0x6262975bb7e0990, 297215, 1845),
        ],
        // d' = 10
        [
            (0x6153794e13eac8fa, 262837, 1859),
            (0x6d8bc5716205acc8, 1088790, 958),
            (0x3b5360bf79402b6a, 262837, 1859),
        ],
        // d' = 11
        [
            (0x5335566bdee37d6a, 254470, 1835),
            (0x393ea8e1800e2d26, 1296776, 884),
            (0x24248ea19c315a25, 254470, 1835),
        ],
        // d' = 12
        [
            (0x9a6f060913b40185, 239611, 1813),
            (0x942bae31d9256475, 1435161, 809),
            (0x42fb86fddfa74183, 239611, 1813),
        ],
        // d' = 13
        [
            (0x464d579874993649, 210244, 1813),
            (0xbd12e5b9e5617d83, 1512977, 804),
            (0x68c7464a4fbf9735, 210244, 1813),
        ],
        // d' = 14
        [
            (0x60cfc141b28d03fa, 212216, 1821),
            (0x1d33f166a381b40b, 1518838, 779),
            (0xd02b8c77a1447a52, 212216, 1821),
        ],
        // d' = 15
        [
            (0x442c1fd226124276, 203536, 1847),
            (0xfbf817f1d4ad0193, 1553253, 777),
            (0x1ca4071999a4f7ad, 203536, 1847),
        ],
        // d' = 16
        [
            (0xad55316b4b965cc6, 200810, 1843),
            (0x2b4fbe46638375c1, 1589228, 777),
            (0xc5f4f8e315209c9c, 200810, 1843),
        ],
        // d' = 17
        [
            (0xaceda2a285a527cb, 183316, 1837),
            (0xc5fcc8e397a08e38, 1592331, 778),
            (0x1ab80844ae26acdb, 183316, 1837),
        ],
        // d' = 18
        [
            (0x351f9e488f556b7e, 185171, 1869),
            (0xa3bc7bce248dee, 1610400, 782),
            (0x4836f9464eed35b3, 185171, 1869),
        ],
    ];

    /// The quad mask-collision input: [`tie_heavy_points`] at d' = 2 behind
    /// 64 leading coordinates every point shares (d' = 66). A quadrant mask
    /// covers coordinates 0..64 only, so no mask tells two points apart and
    /// every QDTT+ node takes the kd fallback.
    fn collision_points() -> Points {
        let base = tie_heavy_points(2);
        let mut pts = Points::default();
        for i in 0..base.len() {
            let mut row = vec![0.5; 64];
            row.extend_from_slice(base.view().coords_of(i));
            pts.push(base.objects[i] as usize, base.probs[i], &row);
        }
        pts
    }

    /// [`collision_points`]' pin, one triple per variant in [`VARIANTS`]
    /// order.
    const COLLISION_PINS: [(u64, u64, u64); 3] = [
        (0x6da7c0a192c9b709, 1584293, 1161),
        (0x6da7c0a192c9b709, 1584293, 1161),
        (0x6da7c0a192c9b709, 1584293, 1161),
    ];

    /// Every variant, sequential and at widths 2 and 3, must hit its pin at
    /// every score dimension and on the quad mask-collision input. The width
    /// pins were recorded with the early-exit candidate pass, so they hold
    /// the branch-free pass to its bits and counters.
    #[test]
    fn kernel_output_is_pinned_at_every_width() {
        let mut scratch = KdScratch::new();
        let pool = KdWorkerPool::new();
        let cases = WIDTH_PINS
            .iter()
            .enumerate()
            .map(|(d, pins)| (tie_heavy_points(d + 1), pins))
            .chain(std::iter::once((collision_points(), &COLLISION_PINS)));
        for (pts, pins) in cases {
            let (view, m, n) = (pts.view(), pts.num_objects(), pts.len());
            assert!(
                n >= 2 * MIN_PARALLEL_NODE,
                "must fan out past the threshold"
            );
            for (&variant, &pin) in VARIANTS.iter().zip(pins) {
                for width in [None, Some(2), Some(3)] {
                    let stats = CounterStats::new();
                    let run = |scratch: &mut KdScratch| {
                        kd_asp_flat_engine(
                            view,
                            m,
                            n,
                            variant,
                            width.is_some(),
                            Some(&stats),
                            scratch,
                            Some(&pool),
                            None,
                        )
                    };
                    let probs = match width {
                        None => run(&mut scratch),
                        Some(threads) => crate::parallel::with_width(threads, || run(&mut scratch)),
                    };
                    let c = stats.snapshot();
                    assert_eq!(
                        (bits_digest(&probs), c.fdom_tests, c.nodes_visited),
                        pin,
                        "d' = {}, {variant:?}, width {width:?}",
                        pts.dim
                    );
                }
            }
        }
    }
}
