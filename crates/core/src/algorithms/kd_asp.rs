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
//! behind it: one kernel, fanned out. With `parallel` set, the children of
//! the first few recursion levels are split in halves offered to the rayon
//! pool, with a result bitwise identical to running every child on the
//! calling thread.
//!
//! ## Fan-out
//!
//! A median split halves a node's points but not its work: on a warm
//! union-size engine the root's two subtrees took 0.7 vs 5.4 ms for one
//! query. So the fan-out splits a few levels deeper than one subtree per
//! worker (`fan_out_levels` in [`crate::parallel`]) and lets the pool balance
//! them: at each split the first half of a node's children goes on inline,
//! and the second waits in the pool for an idle thread. A thread that takes
//! it starts from a seed of the node's exact post-pass state (σ, β, χ and
//! candidates) planted in a pooled traversal arena; a half nobody took runs
//! inline after the first, on the splitting thread's own arena. Leaves write
//! their probability by position in the node's slice of the point order,
//! so the halves write disjoint slices of one output and nothing is merged;
//! the traversal scatters positions to instance ids once at the end. A
//! traversal holds at most one seed and one arena per split, and an arena
//! grows only when a half actually ran on another thread.
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
//! 1. each candidate's row is compared with `pmin` and with `umax` on every
//!    coordinate, with no early exit, and its `in_node` mark is read once
//!    (`umax` is the node's max corner `pmax`, tightened by the zero
//!    certificate; see "Candidate filter" below);
//! 2. a candidate outside the node and below `pmin` is folded into σ (the
//!    only branch left, taken in candidate order, so σ/β/χ take exactly the
//!    float steps an early-exit pass takes);
//! 3. every candidate is written at the stack top, and the top advances by
//!    its "not folded and below `umax`" flag, so the survivors keep their
//!    order.
//!
//! Dominance is a pure conjunction of the same `<=` comparisons, so the
//! folded and surviving candidates, and `fdom_tests` (one test per candidate
//! outside the node, one per candidate not folded), are those of an
//! early-exit pass, and every probability is the same bits.
//!
//! The score width is a type parameter of that body (see
//! `algorithms::width`): `Fixed<D>` makes it a compile-time constant, so the
//! coordinate loop unrolls fully, and `Runtime` carries it as a value.
//! `by_width!` dispatches on the input's score dimension: d′ = 1..=16 each
//! run their own compiled copy, and larger d′ run the runtime-width copy. On
//! the serving benchmark's union, the compiled copies make KDTT+ about 1.6×
//! faster than an early-exit pass; a runtime-width loop alone recovers only
//! part of that (EXPERIMENTS.md).
//!
//! ## Node pass
//!
//! Before its candidate pass, a node makes one pass over its own points,
//! `node_pass`, compiled per width like the candidate pass and just as
//! branch-free. It takes a fresh stamp and writes it as each point's
//! `in_node` mark, so no second loop clears the marks: a point is inside the
//! current node exactly when its mark equals the current stamp (a wrapped
//! stamp clears every mark first). In the same loop it writes the node's
//! three corners into its depth slot of the bounds arena:
//!
//! * `pmin` and `pmax`, widened by `<`/`>` selects, which skip a NaN
//!   coordinate. KDTT overwrites them with its prebuilt tree's node corners
//!   after the loop, as it read them before;
//! * `umax`, raised by every point the certificate leaves unflagged to
//!   `max(umax, x)`, or to `+∞` on a NaN coordinate, then capped at `pmax`.
//!   A point's flag only selects whether `umax` takes the raised value. With
//!   no certificate `umax` is a copy of `pmax`.
//!
//! Every corner is thus the value a plain per-point `<`/`>` loop gives at
//! any width, and every probability the same bits (the width pins in the
//! unit tests hold each compiled copy to them).
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
//!
//! ## Zero certificate
//!
//! Most instances of a large input have probability exactly zero, and χ
//! finds that out only after a node's candidate pass has been paid. So before
//! the traversal starts, [`zero_certificate`] flags points whose probability
//! is provably `0.0` (Theorems 3–4, the pruning set of B&B), and a node
//! whose every point is flagged returns at entry: no corners, no marks, no
//! candidate pass, no undo, no subtree. Its output slots keep the `0.0` the
//! traversal starts from.
//!
//! One pass over the points in id order gives every object `j` its total
//! mass, its instance count `k_j` and its componentwise max corner `M_j`.
//! Object `j` is *saturated* when `total_j − slack_j ≥ 1 − ONE_EPS`, where
//! `slack_j = (k_j + 1)·4·ε·max(total_j, 1)` bounds the gap between this sum
//! and any other summation order of the same terms (an object with a
//! negative or NaN probability, or a NaN coordinate sum, is never
//! saturated). Point `t` of object `o` is certified when some saturated
//! corner satisfies `M_j ⪯ t` and `M_j ≠ t`; then `j ≠ o`, as `t ⪯ M_o`.
//!
//! Why the bits cannot move: every instance of `j` lies at `⪯ M_j ⪯ t` and
//! away from `t`'s coordinates, so none shares `t`'s leaf or coincident node,
//! and each is folded into `σ[j]` on the way down, as a candidate below
//! `pmax`, by the time that node is reached. There `σ[j]` holds all of `j`'s
//! mass in some order and passes `is_one`, so χ ≥ 1. The leaf or coincident
//! arm writes `0.0` unless χ = 1 with `σ[o]` saturated, and a saturated
//! `σ[o]` is counted in χ beside `σ[j]`, so χ ≥ 2 there: the arm writes
//! `0.0`. If an ancestor is pruned first, its slots stay `0.0` as well. A
//! skipped node changes no state another node reads (the exact undo would
//! restore all of it), so every other slot is computed by the same float
//! steps. A corner `M_a ⪯ M_b` certifies every point `M_b` does, so only
//! Pareto-minimal saturated corners are kept, in ascending coordinate-sum
//! order; a point's scan stops at the first corner whose sum exceeds the
//! point's, because a float sum taken in one order is monotone in every
//! term.
//!
//! The certificate's corner tests are capped at
//! `CERTIFICATE_TESTS_PER_POINT · n` (each test d′ comparisons, so a fixed
//! multiple of one pass over the `n × d′` score matrix). Points not
//! reached by then stay unflagged; a partial certificate is still sound, and
//! the cap depends on the input alone, so sequential == parallel and every
//! other bitwise contract keep holding. Skipped nodes count no
//! `nodes_visited` and no `fdom_tests`: the counters count work done. LOOP
//! does not use the certificate: its `Π(1 − σ)` leaves a tiny positive value
//! where kd-ASP\* writes `0.0`.
//!
//! ### Candidate filter
//!
//! The certified points also set most of a node's max corner, so a
//! candidate that lies below `pmax` may still dominate no point the
//! traversal will compute. A candidate therefore survives a node only if it
//! is ⪯ `umax`, the componentwise max over the node's *uncertified* points.
//! `pmin` (the fold) and `pmax` (QDTT+'s centre and the coincident test)
//! stay as they are, and so do the splits.
//!
//! Why the bits cannot move: a candidate `c` that is not ⪯ `umax(N)`
//! dominates no uncertified point of `N`. A fold needs `c ⪯ pmin(C) ⪯ u`
//! for some uncertified `u` in a visited descendant `C`, since a node whose
//! points are all certified is skipped. So `c` never folds in a node that is
//! visited, and dropping it changes no σ, β or χ; the survivors keep their
//! order. `fdom_tests` can only fall, and `nodes_visited` does not change.
//!
//! NaN coordinates need one more rule. `pmin` and `pmax` come from `<`/`>`
//! comparisons, which skip a NaN coordinate, so `pmin(C) ⪯ u` holds only on
//! `u`'s non-NaN axes. On an axis where some uncertified point is NaN,
//! `umax` is left at `pmax`; and `umax` is never above `pmax`, so the
//! survivors are always a subset of the unfiltered pass's. Opening a NaN
//! axis to +∞ instead would keep candidates the unfiltered pass drops, and
//! those can fold into a node whose points are all NaN on that axis (its
//! `pmin` is +∞ there): the NaN-row unit test catches that. `umax` is
//! computed in the loop over the node's points that computes `pmin` and
//! `pmax` (see "Node pass"); with no certificate, `umax = pmax`.
//!
//! The KDTT family runs with the certificate its
//! [`ScoreMatrix`](crate::ScoreMatrix) memoises, computed by the first query
//! over that matrix; ASP over identity points computes its own per call.

use super::width::{by_width, Width};
use crate::scorespace::FlatScorePoints;
use crate::stats::CounterStats;
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

/// Corner tests the zero certificate may spend per point, in total over the
/// whole input (see "Zero certificate" in the module docs).
const CERTIFICATE_TESTS_PER_POINT: usize = 8;

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
// recursion splits the children of its first few levels in halves
// (`split_children`): the second half of each split carries a
// [`KdWorkerScratch`] seed of the parent's exact post-pass σ and candidate
// list (bitwise the state the inline recursion would hand it), from a shared
// [`KdWorkerPool`]. Exact snapshot + exact undo is what makes the fan-out
// invisible in the output.

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
    /// Depth-indexed node corners: `3·dim` slots per recursion level
    /// (`pmin`, `pmax`, then `umax`, the max corner of the uncertified
    /// points).
    bounds: Vec<f64>,
    /// Per-object dominating mass σ.
    sigma: Vec<f64>,
    /// "Point is inside the current node" marks: point `i` is inside when
    /// `in_node[i] == stamp`. Each node pass takes a fresh stamp, so no pass
    /// has to clear the marks it set.
    in_node: Vec<u32>,
    /// The current node's stamp.
    stamp: u32,
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
    /// Probabilities by position in `order`, scattered to instance ids once
    /// the traversal ends.
    staged: Vec<f64>,
    /// The zero certificate's buffers and flags.
    cert: ZeroCertificate,
}

/// Working memory and result of the zero certificate (see the module docs).
#[derive(Debug, Default)]
struct ZeroCertificate {
    /// `zero[i]`: point `i`'s probability is certified to be `0.0`.
    zero: Vec<bool>,
    /// Per-object total mass, summed in id order (NaN for an object with a
    /// NaN coordinate sum or a probability that is not `≥ 0`, which the
    /// summation-order slack does not cover).
    total: Vec<f64>,
    /// Per-object instance count.
    count: Vec<u32>,
    /// Per-object componentwise max corner, `d′`-strided.
    max: Vec<f64>,
    /// Every point's coordinate sum, in coordinate order.
    point_sum: Vec<f64>,
    /// Saturated objects as `(corner sum, object)`, ascending.
    saturated: Vec<(f64, u32)>,
    /// Pareto-minimal saturated corners (`d′`-strided) and their sums, in
    /// ascending sum order.
    corners: Vec<f64>,
    corner_sum: Vec<f64>,
}

/// `(a ⪯ b, a ⪯ b with a ≠ b)`, every coordinate compared with no early
/// exit: where a test fails varies from point to point, and a
/// data-dependent exit cost more in mispredictions than the comparisons it
/// saved (0.67 against 0.44 ms on an 8,000-point anti-correlated input at
/// d′ = 8).
#[inline]
fn corner_test(a: &[f64], b: &[f64]) -> (bool, bool) {
    let (mut below, mut apart) = (true, false);
    for (&x, &y) in a.iter().zip(b) {
        below &= x <= y;
        apart |= x < y;
    }
    (below, below & apart)
}

/// Fills `c.zero` with the zero certificate of `pts` (see the module docs),
/// or leaves it empty when the certificate flags no point.
fn certify_zeros(pts: &FlatScorePoints<'_>, num_objects: usize, c: &mut ZeroCertificate) {
    let (n, dim) = (pts.len(), pts.dim);
    c.total.clear();
    c.total.resize(num_objects, 0.0);
    c.count.clear();
    c.count.resize(num_objects, 0);
    c.max.clear();
    c.max.resize(num_objects * dim, f64::NEG_INFINITY);
    c.point_sum.clear();
    for i in 0..n {
        let o = pts.objects[i] as usize;
        let p = pts.probs[i];
        let mut sum = 0.0;
        for (hi, &x) in c.max[o * dim..][..dim].iter_mut().zip(pts.coords_of(i)) {
            sum += x;
            *hi = hi.max(x);
        }
        c.point_sum.push(sum);
        c.total[o] += if sum.is_nan() || p.is_nan() || p < 0.0 {
            f64::NAN
        } else {
            p
        };
        c.count[o] += 1;
    }
    c.saturated.clear();
    for o in 0..num_objects {
        // The rounding gap between two summation orders of the object's
        // non-negative probabilities; a NaN total fails the test.
        let slack = (f64::from(c.count[o]) + 1.0) * 4.0 * f64::EPSILON * c.total[o].max(1.0);
        if c.total[o] - slack >= 1.0 - ONE_EPS {
            let sum = c.max[o * dim..][..dim].iter().fold(0.0, |acc, &x| acc + x);
            if !sum.is_nan() {
                c.saturated.push((sum, o as u32));
            }
        }
    }
    c.zero.clear();
    c.zero.resize(n, false);
    c.saturated
        .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut budget = CERTIFICATE_TESTS_PER_POINT * n;
    c.corners.clear();
    c.corner_sum.clear();
    'corners: for &(sum, o) in &c.saturated {
        let corner = &c.max[o as usize * dim..][..dim];
        for kept in c.corners.chunks_exact(dim) {
            if budget == 0 {
                break 'corners;
            }
            budget -= 1;
            if corner_test(kept, corner).0 {
                continue 'corners;
            }
        }
        c.corners.extend_from_slice(corner);
        c.corner_sum.push(sum);
    }
    let mut certified = false;
    'points: for i in 0..n {
        let row = pts.coords_of(i);
        for (corner, &sum) in c.corners.chunks_exact(dim).zip(&c.corner_sum) {
            if sum > c.point_sum[i] {
                break;
            }
            if budget == 0 {
                break 'points;
            }
            budget -= 1;
            if corner_test(corner, row).1 {
                c.zero[i] = true;
                certified = true;
                break;
            }
        }
    }
    if !certified {
        c.zero.clear();
    }
}

/// The zero certificate the traversal of `pts` runs with: entry `i` is
/// `true` when point `i`'s probability is provably `0.0`, and a node whose
/// points are all flagged is skipped (see "Zero certificate" in the module
/// docs). The slice is empty when no point is flagged. Computed in
/// `scratch`'s buffers, as [`kd_asp_flat_engine`] does without a
/// certificate.
pub fn zero_certificate<'s>(
    pts: FlatScorePoints<'_>,
    num_objects: usize,
    scratch: &'s mut KdScratch,
) -> &'s [bool] {
    certify_zeros(&pts, num_objects, &mut scratch.cert);
    &scratch.cert.zero
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
        self.in_node.resize(n, 0);
        self.stamp = 0;
        self.order.clear();
        self.order.extend(0..n as u32);
        self.cand.clear();
        self.cand.extend(0..n as u32);
        self.saved.clear();
        self.ends.clear();
        self.staged.clear();
        self.staged.resize(n, 0.0);
    }

    /// Advances the mark stamp for the next node. When it wraps, every mark
    /// is cleared first, so no mark can carry the new stamp.
    fn next_stamp(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.in_node.fill(0);
            self.stamp = 1;
        }
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
/// `(1 − outside − inside)`. `out[p]` receives the probability of `order[p]`.
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
    for (slot, &idx) in out.iter_mut().zip(order) {
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
        *slot = prob.max(0.0);
    }
}

/// The candidate pass of lines 9–18 over the shared stacks: reads the
/// parent's candidate range `[c0, c1)` of `scratch.cand`, appends this node's
/// surviving candidates at the top of the stack, and records σ mutations on
/// the shared undo stack. Returns the number of F-dominance tests performed.
/// `bstart` locates this node's `pmin`/`pmax` inside the bounds arena.
///
/// Runs the [`candidate_pass`] compiled for the score dimension (see
/// [`by_width!`]).
fn flat_candidate_pass(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    c0: usize,
    c1: usize,
    bstart: usize,
) -> u64 {
    by_width!(pts.dim, |w| candidate_pass(w, pts, s, bc, c0, c1, bstart))
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
    let corners = &s.bounds[bstart..bstart + 3 * dim];
    let (pmin, umax) = (&corners[..dim], &corners[2 * dim..]);
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
        for ((&x, &lo), &hi) in row.iter().zip(pmin).zip(umax) {
            below_min &= x <= lo;
            below_max &= x <= hi;
        }
        let outside = s.in_node[cu] != s.stamp;
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

/// Runs the [`node_pass`] compiled for the score dimension (see
/// [`by_width!`]).
fn flat_node_pass(
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    order: &[u32],
    bstart: usize,
    split: Split<'_>,
    zero: Option<&[bool]>,
) {
    by_width!(pts.dim, |w| node_pass(
        w, pts, s, order, bstart, split, zero
    ))
}

/// The one node-pass body, compiled once per [`Width`]: marks the node's
/// points with the current stamp and writes the node's corners into the
/// depth slot `bstart` of the bounds arena, in one branch-free loop over
/// the points (see "Node pass" in the module docs). `pmin` and `pmax` are
/// the coordinate-wise min and max corners, taken with `<`/`>` so a NaN
/// coordinate is skipped; KDTT then overwrites them with its prebuilt
/// tree's corners. `umax` is the max corner of the points `zero` leaves
/// uncertified, capped at `pmax` (a NaN coordinate leaves its axis at
/// `pmax`; `umax = pmax` with no certificate).
#[inline(always)]
fn node_pass<W: Width>(
    w: W,
    pts: &FlatScorePoints<'_>,
    s: &mut KdScratch,
    order: &[u32],
    bstart: usize,
    split: Split<'_>,
    zero: Option<&[bool]>,
) {
    let dim = w.dim();
    if s.bounds.len() < bstart + 3 * dim {
        s.bounds.resize(bstart + 3 * dim, 0.0);
    }
    let (pmin, rest) = s.bounds[bstart..bstart + 3 * dim].split_at_mut(dim);
    let (pmax, umax) = rest.split_at_mut(dim);
    pmin.fill(f64::INFINITY);
    pmax.fill(f64::NEG_INFINITY);
    umax.fill(f64::NEG_INFINITY);
    let coords = pts.coords;
    for &idx in order {
        let iu = idx as usize;
        s.in_node[iu] = s.stamp;
        let uncertified = zero.is_some_and(|zero| !zero[iu]);
        let row = &coords[iu * dim..][..dim];
        for (((lo, hi), up), &x) in pmin.iter_mut().zip(&mut *pmax).zip(&mut *umax).zip(row) {
            *lo = if x < *lo { x } else { *lo };
            *hi = if x > *hi { x } else { *hi };
            let raised = if x.is_nan() { f64::INFINITY } else { up.max(x) };
            *up = if uncertified { raised } else { *up };
        }
    }
    if let Split::Prebuilt(tree, node) = split {
        let mbr = tree.node(node).mbr();
        pmin.copy_from_slice(mbr.min().coords());
        pmax.copy_from_slice(mbr.max().coords());
    }
    if zero.is_none() {
        umax.copy_from_slice(pmax);
        return;
    }
    // `x <= umax` must imply `x <= pmax`, which ignores NaN coordinates: an
    // axis a NaN opened (or a NaN corner) falls back to `pmax`.
    for (up, &top) in umax.iter_mut().zip(&*pmax) {
        *up = if *up < top { *up } else { top };
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

/// The node prologue: the node pass writes the corners into the depth slot
/// `bstart` and marks the node's points under a fresh stamp, then the
/// candidate pass runs over the parent range `[c0, c1)`, and the work is
/// reported to the stats sink.
#[allow(clippy::too_many_arguments)]
fn flat_node_enter(
    t: &Traversal<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    order: &[u32],
    c0: usize,
    c1: usize,
    bstart: usize,
    split: Split<'_>,
) -> FlatPass {
    let pts = &t.pts;
    s.next_stamp();
    flat_node_pass(pts, s, order, bstart, split, t.zero.filter(|_| t.filter));
    let saved_start = s.saved.len();
    let beta_before = bc.beta;
    let chi_before = bc.chi;
    let cstart = s.cand.len();
    let tests = flat_candidate_pass(pts, s, bc, c0, c1, bstart);
    if let Some(st) = t.stats {
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
    /// Seeds and arenas of the fan-out; `None` runs every child inline.
    pool: Option<&'a KdWorkerPool>,
    stats: Option<&'a CounterStats>,
    budget: Option<&'a crate::fault::QueryBudget>,
    /// The zero certificate's flags, `None` when it flags no point: a node
    /// whose points are all flagged is skipped, and the candidate filter
    /// reads `umax` over the unflagged ones.
    zero: Option<&'a [bool]>,
    /// Whether `umax` leaves the flagged points out: always, but for the
    /// unit tests' reference traversal without the candidate filter.
    filter: bool,
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
/// [`flat_children`] ([`run_children`]), then the exact undo
/// ([`flat_node_exit`]). `c0..c1` is this node's candidate range in the
/// shared stack, and `out[p]` receives the probability of `order[p]` (a
/// pruned subtree leaves its slots as they are, which the callers zero).
#[allow(clippy::too_many_arguments)]
fn kd_rec_flat(
    t: &Traversal<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    order: &mut [u32],
    out: &mut [f64],
    c0: usize,
    c1: usize,
    depth: usize,
    split: Split<'_>,
    levels: usize,
) {
    crate::fault::poll(t.budget);
    if t.zero
        .is_some_and(|zero| order.iter().all(|&i| zero[i as usize]))
    {
        // Every point is certified zero: the slots keep their 0.0, and the
        // state stays as the node's exact undo would leave it.
        return;
    }
    let pts = &t.pts;
    let dim = pts.dim;
    let bstart = depth * 3 * dim;
    let pass = flat_node_enter(t, s, bc, order, c0, c1, bstart, split);

    if order.len() == 1 {
        let iu = order[0] as usize;
        out[0] = flat_leaf_probability(&s.sigma, bc, pts.objects[iu] as usize, pts.probs[iu]);
    } else if s.bounds[bstart..bstart + dim] == s.bounds[bstart + dim..bstart + 2 * dim] {
        // All points of the node coincide; it cannot be split further.
        let (sigma, node_mass) = (&s.sigma, &mut s.node_mass);
        emit_coincident_flat(pts, order, sigma, bc, node_mass, out);
    } else if bc.chi == 0 {
        let base = flat_children(pts, s, order, depth, bstart, split);
        let children = Children {
            split,
            depth: depth + 1,
            at: base,
            first: 0,
            count: s.ends.len() - base,
            offset: 0,
        };
        run_children(
            t,
            s,
            bc,
            order,
            out,
            pass.cstart,
            pass.cend,
            children,
            levels,
        );
        s.ends.truncate(base);
    }
    // χ ≥ 1 with |P| > 1: every point of the node is dominated by the entire
    // mass of some object lying outside the node — the subtree has zero
    // skyline probability everywhere and is pruned (the fused variants never
    // construct it).

    flat_node_exit(s, bc, &pass);
}

/// A run of consecutive children of one node: children
/// `first..first + count`, whose end offsets (measured from the node's first
/// point) sit on the `ends` stack arena from `at`. The run's points start at
/// `offset` within the node.
#[derive(Clone, Copy)]
struct Children<'t> {
    split: Split<'t>,
    /// The children's depth.
    depth: usize,
    at: usize,
    first: usize,
    count: usize,
    offset: usize,
}

/// Runs a run of children over `order` (their points) with the node's
/// candidate range `c0..c1`: split in two by [`split_children`] while
/// binary fan-out `levels` remain and the run has two or more children and
/// at least [`MIN_PARALLEL_NODE`] points, otherwise one child after the
/// other on `s`. Inlined, so the sequential traversal recurses straight
/// from node to node.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_children(
    t: &Traversal<'_>,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    order: &mut [u32],
    out: &mut [f64],
    c0: usize,
    c1: usize,
    ch: Children<'_>,
    levels: usize,
) {
    match t.pool {
        Some(pool) if ch.count > 1 && levels > 0 && order.len() >= MIN_PARALLEL_NODE => {
            split_children(t, pool, s, bc, order, out, c0, c1, ch, levels);
        }
        _ => {
            let mut start = 0;
            for g in 0..ch.count {
                let end = s.ends[ch.at + g] as usize - ch.offset;
                kd_rec_flat(
                    t,
                    s,
                    bc,
                    &mut order[start..end],
                    &mut out[start..end],
                    c0,
                    c1,
                    ch.depth,
                    ch.split.child(ch.first + g),
                    levels,
                );
                start = end;
            }
        }
    }
}

/// Splits a run of children in two: the first half goes on inline on `s`,
/// and the second is offered to the pool through [`rayon::join`] with a
/// pooled seed of the node's σ, β, χ and candidates — bitwise the state the
/// first half leaves behind, thanks to the exact undo. If another thread
/// takes the second half, it plants the seed in a pooled traversal arena and
/// runs there; otherwise the half runs on `s` after the first, as it would
/// inline. Each split spends one level, so a traversal splits at most
/// `2^levels − 1` times and holds at most that many seeds and arenas.
#[allow(clippy::too_many_arguments)]
fn split_children(
    t: &Traversal<'_>,
    pool: &KdWorkerPool,
    s: &mut KdScratch,
    bc: &mut FlatBc,
    order: &mut [u32],
    out: &mut [f64],
    c0: usize,
    c1: usize,
    ch: Children<'_>,
    levels: usize,
) {
    let half = ch.count / 2;
    let mid = s.ends[ch.at + half - 1] as usize - ch.offset;
    let first = Children { count: half, ..ch };
    let second = Children {
        at: ch.at + half,
        first: ch.first + half,
        count: ch.count - half,
        offset: ch.offset + mid,
        ..ch
    };
    let mut seed = pool.seeds.lease();
    seed.fill(
        &s.sigma,
        &s.cand[c0..c1],
        &s.ends[second.at..second.at + second.count],
    );
    let (beta, chi) = (bc.beta, bc.chi);
    let (order_a, order_b) = order.split_at_mut(mid);
    let (out_a, out_b) = out.split_at_mut(mid);
    let splitter = std::thread::current().id();
    let (_, inline) = rayon::join(
        || run_children(t, s, bc, order_a, out_a, c0, c1, first, levels - 1),
        move || {
            if std::thread::current().id() == splitter {
                return Some((order_b, out_b));
            }
            let mut arena = pool.arenas.lease();
            seed.plant(&mut arena, t.pts.len());
            drop(seed);
            let cands = arena.cand.len();
            let second = Children { at: 0, ..second };
            let mut bc = FlatBc { beta, chi };
            run_children(
                t,
                &mut arena,
                &mut bc,
                order_b,
                out_b,
                0,
                cands,
                second,
                levels - 1,
            );
            None
        },
    );
    if let Some((order_b, out_b)) = inline {
        run_children(t, s, bc, order_b, out_b, c0, c1, second, levels - 1);
    }
}

/// The seed of a split's second half: the node's exact post-pass σ, its
/// candidates, and the end offsets of the half's children. Pooled in a
/// [`KdWorkerPool`].
#[derive(Debug, Default)]
pub struct KdWorkerScratch {
    sigma: Vec<f64>,
    cand: Vec<u32>,
    ends: Vec<u32>,
}

impl KdWorkerScratch {
    fn fill(&mut self, sigma: &[f64], cand: &[u32], ends: &[u32]) {
        self.sigma.clear();
        self.sigma.extend_from_slice(sigma);
        self.cand.clear();
        self.cand.extend_from_slice(cand);
        self.ends.clear();
        self.ends.extend_from_slice(ends);
    }

    /// Readies `arena` for the half on another thread, over `n` points: σ,
    /// the candidates and the children's ends at the base of its stacks, the
    /// undo stack empty and every point unmarked.
    fn plant(&self, arena: &mut KdScratch, n: usize) {
        arena.sigma.clear();
        arena.sigma.extend_from_slice(&self.sigma);
        arena.cand.clear();
        arena.cand.extend_from_slice(&self.cand);
        arena.ends.clear();
        arena.ends.extend_from_slice(&self.ends);
        arena.saved.clear();
        arena.in_node.clear();
        arena.in_node.resize(n, 0);
        arena.stamp = 0;
    }
}

/// The fan-out's pooled memory, in two stacks that never trade arenas: one
/// seed per split (σ plus candidates, at most n entries), and one
/// [`KdScratch`] per half that another thread runs (as large as its
/// subtree's traversal needs). Halves that stay on the splitting thread
/// run on its own scratch, so only as many traversal arenas grow as halves
/// ever ran at once elsewhere. [`crate::engine::ArspEngine`] owns one per
/// session, so warmed-up parallel queries (and `run_batch` sweeps) stop
/// allocating; free-function callers get a throwaway pool per call.
#[derive(Debug, Default)]
pub struct KdWorkerPool {
    seeds: crate::scratch::ScratchPool<KdWorkerScratch>,
    arenas: crate::scratch::ScratchPool<KdScratch>,
}

impl KdWorkerPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checkouts served from a pooled seed or arena.
    pub fn hits(&self) -> u64 {
        self.seeds.hits() + self.arenas.hits()
    }

    /// Seeds and arenas ever built: the pool's growth.
    pub fn misses(&self) -> u64 {
        self.seeds.misses() + self.arenas.misses()
    }

    /// Grows both stacks to what a traversal of `splits` splits can hold at
    /// once, before it starts, so the pool's size follows the width and not
    /// the scheduling.
    fn warm(&self, splits: usize) {
        self.seeds.warm(splits);
        self.arenas.warm(splits);
    }
}

/// The kd-ASP\* entry point: runs the traversal `variant` over a
/// [`FlatScorePoints`] view with all working memory drawn from a reusable
/// [`KdScratch`], optionally reporting work counters to `stats`. Point `id`'s
/// probability lands in slot `id` of the returned vector of length
/// `num_instances`.
///
/// With `parallel` set, the fused variants fan the sibling subtrees of the
/// first few recursion levels out to the rayon pool, as many binary splits
/// deep as `fan_out_levels` in [`crate::parallel`] gives for the ambient width,
/// on [`KdWorkerScratch`] arenas drawn from `pool` (a throwaway pool when
/// `None`; the engine passes its session-owned one, which this call first
/// grows to the `2^levels − 1` arenas a traversal can hold at once).
/// Exact-snapshot state restore makes the result **bitwise identical** to
/// the inline run (see the module docs). KDTT runs inline either way: it
/// exists to measure the construction cost the fused variants remove.
///
/// The traversal's zero certificate is computed in `scratch` first; the
/// KDTT family passes the one its [`crate::ScoreMatrix`] memoises instead.
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
    certify_zeros(&pts, num_objects, &mut scratch.cert);
    let zero = std::mem::take(&mut scratch.cert.zero);
    let out = kd_asp_flat_engine_certified(
        pts,
        num_objects,
        num_instances,
        variant,
        parallel,
        stats,
        scratch,
        pool,
        budget,
        &zero,
    );
    scratch.cert.zero = zero;
    out
}

/// [`kd_asp_flat_engine`] with `pts`' zero certificate given, as
/// [`zero_certificate`] computes it (an empty slice flags no point).
#[allow(clippy::too_many_arguments)]
pub(crate) fn kd_asp_flat_engine_certified(
    pts: FlatScorePoints<'_>,
    num_objects: usize,
    num_instances: usize,
    variant: KdVariant,
    parallel: bool,
    stats: Option<&CounterStats>,
    scratch: &mut KdScratch,
    pool: Option<&KdWorkerPool>,
    budget: Option<&crate::fault::QueryBudget>,
    zero: &[bool],
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
                entries.push(id, pts.probs[id], pts.coords_of(id));
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
    if let Some(pool) = pool {
        pool.warm((1 << levels) - 1);
    }
    debug_assert!(zero.is_empty() || zero.len() == n);
    let t = Traversal {
        pts,
        pool,
        stats,
        budget,
        zero: (!zero.is_empty()).then_some(zero),
        filter: true,
    };
    let mut bc = FlatBc { beta: 1.0, chi: 0 };
    let mut staged = std::mem::take(&mut scratch.staged);
    kd_rec_flat(
        &t,
        scratch,
        &mut bc,
        &mut order,
        &mut staged,
        0,
        n,
        0,
        split,
        levels,
    );
    for (&id, &prob) in order.iter().zip(&staged) {
        out[id as usize] = prob;
    }
    scratch.order = order;
    scratch.staged = staged;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pins::{bits_digest, tie_heavy_rows};
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

    /// The fused traversal run by hand, sequentially, with `zero` as its
    /// certificate and its work counters. `filter: false` keeps every
    /// candidate below the node's full max corner, as before the candidate
    /// filter. With no certificate it is the reference the certified skips
    /// and the filter must reproduce bit for bit.
    fn reference(
        pts: &Points,
        variant: KdVariant,
        zero: Option<&[bool]>,
        filter: bool,
    ) -> (Vec<f64>, crate::stats::QueryCounters) {
        let (m, n) = (pts.num_objects(), pts.len());
        let mut s = KdScratch::new();
        s.prepare(m, n);
        let mut order = std::mem::take(&mut s.order);
        let mut staged = std::mem::take(&mut s.staged);
        let split = match variant {
            KdVariant::FusedKd => Split::Kd,
            KdVariant::FusedQuad => Split::Quad,
            KdVariant::Prebuilt => unreachable!("fused variants only"),
        };
        let stats = CounterStats::new();
        let t = Traversal {
            pts: pts.view(),
            pool: None,
            stats: Some(&stats),
            budget: None,
            zero,
            filter,
        };
        let mut bc = FlatBc { beta: 1.0, chi: 0 };
        kd_rec_flat(
            &t,
            &mut s,
            &mut bc,
            &mut order,
            &mut staged,
            0,
            n,
            0,
            split,
            0,
        );
        let mut out = vec![0.0; n];
        for (&id, &prob) in order.iter().zip(&staged) {
            out[id as usize] = prob;
        }
        (out, stats.snapshot())
    }

    /// The fused traversal with no zero certificate.
    fn unskipped(pts: &Points, variant: KdVariant) -> Vec<f64> {
        reference(pts, variant, None, true).0
    }

    /// Points at the certificate's edges: grid coordinates, instances
    /// copied across objects, object totals of exactly 1, 1 ± 1e-10 and
    /// 1 − 1e-9, instances of mass ≤ 1e-9 and partial objects. One row in
    /// ten copies an earlier row with one coordinate NaN: never certified,
    /// it sits among certified points, in the nodes the candidate filter
    /// reads `umax` over.
    fn edge_points(seed: u64, dim: usize, num_objects: usize) -> Points {
        use rand::prelude::*;
        let mut rng = TestRng::seed_from_u64(seed);
        let mut pts = Points::default();
        for obj in 0..num_objects {
            let k = rng.gen_range(1..=4);
            let mut probs = vec![1.0 / k as f64; k];
            match rng.gen_range(0..6) {
                0 | 1 => {}
                2 => probs[0] += 1e-10,
                3 => probs[0] -= 1e-10,
                4 => probs[0] -= 1e-9,
                _ => probs[0] = rng.gen_range(1e-12..1e-9),
            }
            if rng.gen_bool(0.2) {
                probs.iter_mut().for_each(|p| *p *= 0.6);
            }
            for p in probs {
                let mut row: Vec<f64> = if pts.len() > 0 && rng.gen_bool(0.25) {
                    pts.view().coords_of(rng.gen_range(0..pts.len())).to_vec()
                } else {
                    (0..dim).map(|_| grid(&mut rng)).collect()
                };
                if pts.len() > 0 && rng.gen_bool(0.1) {
                    row = pts.view().coords_of(rng.gen_range(0..pts.len())).to_vec();
                    row[rng.gen_range(0..dim)] = f64::NAN;
                }
                pts.push(obj, p, &row);
            }
        }
        pts
    }

    fn bits(probs: &[f64]) -> Vec<u64> {
        probs.iter().map(|p| p.to_bits()).collect()
    }

    /// Every certified point reads `0.0` in the unskipped traversal, and the
    /// traversal that skips certified subtrees gives every point the
    /// unskipped bits, sequential and at width 2.
    #[test]
    fn certified_skips_match_the_unskipped_traversal_bit_for_bit() {
        let mut scratch = KdScratch::new();
        let mut certified_total = 0;
        for seed in 0..60u64 {
            let dim = 1 + seed as usize % 4;
            let num_objects = if seed % 5 == 0 { 300 } else { 12 };
            let pts = edge_points(seed, dim, num_objects);
            let zero = zero_certificate(pts.view(), pts.num_objects(), &mut scratch).to_vec();
            certified_total += zero.iter().filter(|&&z| z).count();
            for variant in [KdVariant::FusedKd, KdVariant::FusedQuad] {
                let want = unskipped(&pts, variant);
                for (i, &z) in zero.iter().enumerate() {
                    assert!(
                        !z || want[i].to_bits() == 0.0f64.to_bits(),
                        "seed {seed}: point {i} certified but the traversal gives {}",
                        want[i]
                    );
                }
                let seq = pts.seq(variant, &mut scratch);
                assert_eq!(bits(&seq), bits(&want), "seed {seed}, {variant:?}");
                let par = crate::parallel::with_width(2, || pts.par(variant, &mut scratch));
                assert_eq!(bits(&par), bits(&want), "seed {seed}, {variant:?} width 2");
            }
        }
        assert!(certified_total > 0, "the inputs must certify some points");
    }

    /// The candidate filter on inputs with NaN rows: the filtered traversal
    /// (certificate, skips and `umax`) gives the unskipped bits, sequential
    /// and at width 2, with no more F-dominance tests than the unskipped
    /// traversal and as many nodes as the same skips without the filter.
    #[test]
    fn candidate_filter_is_bit_exact_on_nan_rows() {
        let mut scratch = KdScratch::new();
        let (mut nan_rows, mut dropped) = (0, 0);
        for seed in 0..60u64 {
            let dim = 1 + seed as usize % 4;
            let num_objects = if seed % 5 == 0 { 300 } else { 12 };
            let pts = edge_points(seed, dim, num_objects);
            nan_rows += pts.coords.iter().filter(|x| x.is_nan()).count();
            let zero = zero_certificate(pts.view(), pts.num_objects(), &mut scratch).to_vec();
            let flags = (!zero.is_empty()).then_some(&zero[..]);
            for variant in [KdVariant::FusedKd, KdVariant::FusedQuad] {
                let (want, full) = reference(&pts, variant, None, true);
                let (_, unfiltered) = reference(&pts, variant, flags, false);
                for width in [None, Some(2)] {
                    let stats = CounterStats::new();
                    let (m, n) = (pts.num_objects(), pts.len());
                    let run = |scratch: &mut KdScratch| {
                        kd_asp_flat_engine(
                            pts.view(),
                            m,
                            n,
                            variant,
                            width.is_some(),
                            Some(&stats),
                            scratch,
                            None,
                            None,
                        )
                    };
                    let got = match width {
                        None => run(&mut scratch),
                        Some(threads) => crate::parallel::with_width(threads, || run(&mut scratch)),
                    };
                    let c = stats.snapshot();
                    let at = format!("seed {seed}, {variant:?}, width {width:?}");
                    assert_eq!(bits(&got), bits(&want), "{at}");
                    assert!(c.fdom_tests <= full.fdom_tests, "{at}");
                    assert!(c.fdom_tests <= unfiltered.fdom_tests, "{at}");
                    assert_eq!(c.nodes_visited, unfiltered.nodes_visited, "{at}");
                    dropped += unfiltered.fdom_tests - c.fdom_tests;
                }
            }
        }
        assert!(nan_rows > 0, "the inputs must hold NaN rows");
        assert!(dropped > 0, "the filter must drop some candidate");
    }

    /// [`tie_heavy_rows`] as score-space points.
    fn tie_heavy_points(dim: usize) -> Points {
        let mut pts = Points::default();
        for (obj, prob, row) in tie_heavy_rows(dim) {
            pts.push(obj, prob, &row);
        }
        pts
    }

    /// Pins per score dimension 1..=18, one `(digest, fdom_tests,
    /// nodes_visited)` triple per variant in [`VARIANTS`] order. Dimensions
    /// 1..=16 run the pass's compiled widths, 17 and 18 its runtime width.
    const WIDTH_PINS: [[(u64, u64, u64); 3]; 18] = [
        // d' = 1
        [
            (0x48dbcec752eb56e5, 1642, 5),
            (0x48dbcec752eb56e5, 1489, 4),
            (0x48dbcec752eb56e5, 1642, 5),
        ],
        // d' = 2
        [
            (0xf0d45c9911a734f, 8229, 105),
            (0xfc6add3519c8b30a, 4701, 20),
            (0xbac55b56a3038832, 8229, 105),
        ],
        // d' = 3
        [
            (0x1d2ee4f092a30d84, 86211, 751),
            (0xc455f6985ffdb6ee, 45295, 207),
            (0xebc02b251afbfc86, 86211, 751),
        ],
        // d' = 4
        [
            (0x4ce6c921fa5e2c1d, 149298, 1247),
            (0x39cc9660580e250b, 107351, 610),
            (0x1be1e60902d0c3ad, 149298, 1247),
        ],
        // d' = 5
        [
            (0xbd4d41a218e3e8df, 246124, 1543),
            (0x743fb7e1d59a89fc, 221744, 748),
            (0x7168074ce39dc070, 246124, 1543),
        ],
        // d' = 6
        [
            (0x941f616e6bc07fc5, 284432, 1675),
            (0x556afcb9045751b7, 299806, 781),
            (0x34478a65f21d2ede, 284432, 1675),
        ],
        // d' = 7
        [
            (0x64ecff0e5260a3e2, 261495, 1728),
            (0x9aea29976e93feaf, 365953, 836),
            (0x88ec5eec67d03c2f, 261495, 1728),
        ],
        // d' = 8
        [
            (0xd72059b06cc60a62, 275760, 1801),
            (0x629d7cf6127e2b3, 573425, 963),
            (0x8087e681b7b466e4, 275760, 1801),
        ],
        // d' = 9
        [
            (0x281cae90e6c13644, 285279, 1840),
            (0x38f7c73deaa4b0b1, 858876, 1005),
            (0x6262975bb7e0990, 285279, 1840),
        ],
        // d' = 10
        [
            (0x6153794e13eac8fa, 258838, 1858),
            (0x6d8bc5716205acc8, 1088494, 957),
            (0x3b5360bf79402b6a, 258838, 1858),
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
        (0x6da7c0a192c9b709, 197082, 725),
        (0x6da7c0a192c9b709, 197082, 725),
        (0x6da7c0a192c9b709, 197082, 725),
    ];

    /// Every variant, sequential and at widths 2 and 3, must hit its pin at
    /// every score dimension and on the quad mask-collision input. The
    /// digests were recorded with the early-exit candidate pass and no zero
    /// certificate, so they hold the branch-free pass, the certified skips
    /// and the candidate filter to those bits. The counters were re-recorded
    /// with the certificate (the nodes and tests left once certified
    /// subtrees are skipped), and `fdom_tests` again with the candidate
    /// filter.
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
