//! LOOP — the sorted pairwise-scan baseline (§III-A).
//!
//! Evaluates equation (3) directly: sort the instances by their score under
//! one vertex of the preference region (which guarantees that an instance can
//! only be F-dominated by instances at or before its own position, or tied
//! with it), then for every instance accumulate the dominating probability
//! mass of every other object with the vertex-based F-dominance test of
//! Theorem 2. Complexity `O(c² + d·d'·n²)`.
//!
//! ## Layout
//!
//! Every entry point funnels into one pair kernel, `LoopScan::target_prob`,
//! over one layout, `LoopScan`: the scan inputs gathered once, in scan
//! (sort) order, into dimension-major columns. Position `p` carries the
//! score column values `cols[k·n + p]` (`k < d'`), the owning object
//! `objects[p]`, the probability `probs[p]`, the result id `ids[p]` and
//! `tie_end[p]`, the end of the equal-key run the scan for `p` must cover.
//! Column 0 is the sort key bit for bit, so the kernel never reads the
//! [`InstanceOrder`]'s keys. [`arsp_loop_flat_engine`] gathers the layout
//! from a [`FlatStore`], its [`ScoreMatrix`] and an [`InstanceOrder`] (the
//! static engine, the serving layer and the dynamic engine cache the last
//! two per snapshot). The buffers live in a [`LoopScratch`], so a warmed-up
//! scan allocates nothing.
//!
//! ## Kernel
//!
//! For the target at position `pos` the candidates are the positions
//! `[0, tie_end[pos])`, processed in blocks of `BLOCK` (256) lanes:
//!
//! 1. one pass per score column ANDs `((c <= t_k) as u64).wrapping_neg()`
//!    into a 64-bit lane mask — same-width lanes, no branches, so the
//!    passes vectorise. Column 0 is the sort key: when it is
//!    non-decreasing (always, for finite keys) its test holds on every
//!    candidate lane, and its pass is skipped;
//! 2. the lanes of the target's own object are cleared, from the layout's
//!    per-object position lists (this removes `pos` itself);
//! 3. the set lanes are compacted into an index list with a branch-free
//!    write;
//! 4. σ and the product fold run over that list in ascending position;
//!    each object's first touch is recorded branch-free against a
//!    per-object stamp.
//!
//! ## Why the result is bitwise the textbook scan
//!
//! The textbook scan visits `0..pos`, then `pos + 1..` up to the first
//! strictly greater key, skips same-object instances, and tests row
//! dominance with an early exit. Dominance is a pure conjunction of the same
//! `<=` comparisons, so evaluating all of them without an early exit
//! selects exactly the same dominators. A skipped column-0 pass changes
//! nothing: with non-decreasing keys every candidate's key is `<=` the
//! target's (earlier positions by the order, later ones by the tie-run
//! bound). The index list keeps the dominators in ascending position — the
//! old visiting order. σ accumulation and the product fold are the same
//! float operations in the same order, so every probability is the same
//! bits. (The textbook scan detects a first touch as `σ == 0`, which can
//! list an object again only after zero-mass dominators; that second
//! factor is `1 − 0 = 1`, an exact no-op, so the stamp's single listing
//! folds to the same bits.) The F-dominance test count (`fdom_tests`) is the number of
//! different-object lanes in `[0, tie_end[pos])`, which is the number of
//! pairs the textbook scan tested.

use crate::engine::{one_shot, QueryAlgorithm};
use crate::result::ArspResult;
use crate::scorespace::ScoreMatrix;
use crate::stats::CounterStats;
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::ConstraintSet;

/// Computes ARSP with the LOOP baseline, as a one-shot
/// [`ArspEngine`](crate::engine::ArspEngine) query with
/// [`QueryAlgorithm::Loop`] forced.
pub fn arsp_loop(dataset: &UncertainDataset, constraints: &ConstraintSet) -> ArspResult {
    one_shot(dataset, constraints, QueryAlgorithm::Loop)
}

/// The cold sort comparison of every LOOP order: ascending key, ties broken
/// by ascending id. This single definition is shared by
/// [`instance_order_from_scores`] **and** the dynamic engine's order patch
/// (`crate::dynamic`), whose bitwise-equal-to-cold guarantee rests on both
/// ordering ties identically.
#[inline]
pub(crate) fn cmp_key_id<I: Ord + Copy>(a: (f64, I), b: (f64, I)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// The instance sort order LOOP scans in: instance ids sorted ascending by
/// their score under the first vertex of the preference region, plus the
/// scores themselves. Reusable across every query whose preference region
/// shares that vertex — which is what [`crate::engine::ArspEngine`] caches.
#[derive(Clone, Debug)]
pub struct InstanceOrder {
    /// Instance ids in ascending score order.
    pub order: Vec<usize>,
    /// Score of each instance (indexed by instance id, not sort position).
    pub keys: Vec<f64>,
}

/// Builds the LOOP sort order from a precomputed [`ScoreMatrix`]: the keys
/// are the matrix's first column, the score under the first
/// preference-region vertex. Anything that F-dominates an instance must have
/// a score ≤ the instance's score under every vertex, in particular this one.
/// Equal keys are ordered by instance id, making the order a pure function
/// of `(keys, ids)` — which is what lets the dynamic engine *merge* a sorted
/// delta into a cached order and land on exactly the order a cold sort would
/// produce.
pub fn instance_order_from_scores(scores: &ScoreMatrix) -> InstanceOrder {
    let n = scores.num_rows();
    let d = scores.score_dim();
    let keys: Vec<f64> = (0..n).map(|i| scores.values()[i * d]).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| cmp_key_id((keys[a], a), (keys[b], b)));
    InstanceOrder { order, keys }
}

/// Lanes per kernel block: the lane masks and index list of one block stay
/// in L1 while the `d'` column passes sweep it.
const BLOCK: usize = 256;

/// LOOP's scan layout: every input of the pair scan, gathered in scan order
/// into dimension-major columns (see the [module docs](self)). Built by
/// `gather`; rebuilding keeps the allocations.
#[derive(Debug, Default)]
struct LoopScan {
    n: usize,
    /// `cols[k * n + p]`: score under vertex `k` of the instance at `p`.
    cols: Vec<f64>,
    objects: Vec<u32>,
    probs: Vec<f64>,
    /// The id each position's probability is reported under.
    ids: Vec<u32>,
    /// One past the last position whose key does not exceed `p`'s.
    tie_end: Vec<u32>,
    /// Column 0 is non-decreasing, so its test holds on every lane a
    /// target scans and the kernel skips that pass.
    sorted: bool,
    /// Positions of object `o`, ascending:
    /// `obj_pos[obj_start[o]..obj_start[o + 1]]`.
    obj_start: Vec<u32>,
    obj_pos: Vec<u32>,
}

impl LoopScan {
    /// Gathers the layout of a snapshot: position `p` is instance
    /// `ord.order[p]`, reported under its own id.
    fn gather(&mut self, flat: &FlatStore, scores: &ScoreMatrix, ord: &InstanceOrder) {
        let n = ord.order.len();
        assert!(u32::try_from(n).is_ok(), "LOOP scan exceeds u32 positions");
        self.n = n;
        self.cols.clear();
        self.cols.resize(n * scores.score_dim(), 0.0);
        self.objects.clear();
        self.probs.clear();
        self.ids.clear();
        for (p, &id) in ord.order.iter().enumerate() {
            for (k, &v) in scores.row(id).iter().enumerate() {
                self.cols[k * n + p] = v;
            }
            self.objects.push(flat.objects()[id]);
            self.probs.push(flat.prob(id));
            self.ids.push(id as u32);
        }
        self.index_positions();
    }

    /// Closes the layout: derives each position's tie-run end from column
    /// 0 with the textbook scan's stopping rule (the first later position
    /// whose key is strictly greater), and indexes the positions by object.
    fn index_positions(&mut self) {
        let n = self.n;
        let keys = &self.cols[..n];
        self.sorted = keys.windows(2).all(|w| w[0] <= w[1]);

        // Counting sort by object: inclusive prefix sums of the counts, then
        // a backward fill leaves `obj_start[o]` at object `o`'s first slot.
        let slots = self.objects.iter().max().map_or(0, |&o| o as usize + 1);
        self.obj_start.clear();
        self.obj_start.resize(slots + 1, 0);
        for &o in &self.objects {
            self.obj_start[o as usize] += 1;
        }
        let mut total = 0;
        for slot in &mut self.obj_start {
            total += *slot;
            *slot = total;
        }
        self.obj_pos.resize(n, 0);
        for (p, &o) in self.objects.iter().enumerate().rev() {
            let slot = &mut self.obj_start[o as usize];
            *slot -= 1;
            self.obj_pos[*slot as usize] = p as u32;
        }

        self.tie_end.resize(n, 0);
        for p in (0..n).rev() {
            let next = p + 1;
            self.tie_end[p] = if next == n || keys[next] > keys[p] {
                next as u32
            } else if keys[next] == keys[p] {
                self.tie_end[next]
            } else {
                // Only reachable for incomparable (NaN) or unsorted keys.
                (next..n).find(|&q| keys[q] > keys[p]).unwrap_or(n) as u32
            };
        }
    }

    /// Number of positions.
    fn len(&self) -> usize {
        self.n
    }

    /// The id position `p` reports under.
    #[inline]
    fn id(&self, p: usize) -> usize {
        self.ids[p] as usize
    }

    /// The LOOP pair kernel: the probability of the instance at position
    /// `pos` (see the [module docs](self) for the four steps and why the
    /// result is bitwise the textbook scan). Adds the pairs tested to
    /// `tests`. `work` must be prepared for this layout's objects.
    fn target_prob(&self, pos: usize, work: &mut LoopWork, tests: &mut u64) -> f64 {
        let n = self.n;
        let end = self.tie_end[pos] as usize;
        let LoopWork {
            sigma,
            touched,
            lanes,
            hits,
            stamp,
            epoch,
        } = work;
        // A fresh stamp per target marks its touched objects; on wrap-around
        // the stamps restart so no stale stamp can match.
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            stamp.fill(0);
            *epoch = 1;
        }
        let epoch = *epoch;
        let mut num_touched = 0;

        // The target's own object: its positions below `end` are the lanes
        // step 2 clears, and every other lane is one tested pair.
        let object = self.objects[pos] as usize;
        let same =
            &self.obj_pos[self.obj_start[object] as usize..self.obj_start[object + 1] as usize];
        *tests += (end - same.partition_point(|&q| (q as usize) < end)) as u64;
        let mut next_same = 0;

        let mut start = 0;
        while start < end {
            let stop = (start + BLOCK).min(end);
            let lanes = &mut lanes[..stop - start];
            // Step 1: one branch-free pass per score column; the first pass
            // initialises the lanes.
            let mut cols = self.cols.chunks_exact(n).skip(usize::from(self.sorted));
            match cols.next() {
                Some(col) => {
                    let t = col[pos];
                    for (lane, &c) in lanes.iter_mut().zip(&col[start..stop]) {
                        *lane = u64::from(c <= t).wrapping_neg();
                    }
                }
                None => lanes.fill(u64::MAX),
            }
            for col in cols {
                let t = col[pos];
                for (lane, &c) in lanes.iter_mut().zip(&col[start..stop]) {
                    *lane &= u64::from(c <= t).wrapping_neg();
                }
            }
            // Step 2: clear the target object's lanes in this block.
            while let Some(&q) = same.get(next_same) {
                let q = q as usize;
                if q >= stop {
                    break;
                }
                lanes[q - start] = 0;
                next_same += 1;
            }
            // Step 3: compact the set lanes, writing every lane's index
            // and advancing only past the set ones.
            let mut count = 0;
            for (i, &lane) in lanes.iter().enumerate() {
                hits[count] = (start + i) as u32;
                count += (lane & 1) as usize;
            }
            // Step 4 (σ half): accumulate in ascending position, recording
            // each object's first touch with a branch-free write.
            for &p in &hits[..count] {
                let obj = self.objects[p as usize] as usize;
                touched[num_touched] = obj;
                num_touched += usize::from(stamp[obj] != epoch);
                stamp[obj] = epoch;
                sigma[obj] += self.probs[p as usize];
            }
            start = stop;
        }

        let mut prob = self.probs[pos];
        for &obj in &touched[..num_touched] {
            prob *= 1.0 - sigma[obj];
            sigma[obj] = 0.0;
        }
        prob.max(0.0)
    }
}

/// One worker's kernel buffers: per-object accumulated dominating mass, the
/// objects touched for the current target in first-touch order (with the
/// per-object stamp of the last target that touched them, so each fold is
/// O(#dominators) rather than O(m)), and one block's lane masks and index
/// list.
#[derive(Debug, Default)]
struct LoopWork {
    sigma: Vec<f64>,
    touched: Vec<usize>,
    lanes: Vec<u64>,
    hits: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl LoopWork {
    /// Sizes (or re-sizes) the buffers for a dataset with `num_objects`
    /// objects, keeping existing allocations.
    fn prepare(&mut self, num_objects: usize) {
        self.sigma.clear();
        self.sigma.resize(num_objects, 0.0);
        self.touched.clear();
        self.touched.resize(num_objects + 1, 0);
        self.stamp.clear();
        self.stamp.resize(num_objects, 0);
        self.epoch = 0;
        self.lanes.resize(BLOCK, 0);
        self.hits.resize(BLOCK, 0);
    }
}

/// Reusable LOOP working memory: a scan layout plus one worker's kernel
/// buffers. Reusable across queries via [`crate::scratch::QueryScratch`];
/// the parallel arms draw worker scratches from a
/// [`crate::scratch::ScratchPool`] and use only their `LoopWork`.
#[derive(Debug, Default)]
pub struct LoopScratch {
    scan: LoopScan,
    work: LoopWork,
}

/// The LOOP scan over a snapshot: gathers the `LoopScan` layout from
/// `flat`, `scores` and `ord` (into `scratch` when given, so a warm scratch
/// makes the scan allocation-free beyond the result vector) and runs the
/// pair kernel for every instance: sequentially, or — under `parallel` —
/// over worker chunks of equal triangular work (the scan for position `p`
/// covers about `p` lanes). Each worker chunk draws its kernel buffers from
/// `pool` (a fresh scratch per chunk when absent), so warmed-up parallel
/// sweeps allocate nothing per task either. Probabilities and the test
/// count are bitwise identical across every option combination.
#[allow(clippy::too_many_arguments)]
pub fn arsp_loop_flat_engine(
    flat: &FlatStore,
    scores: &ScoreMatrix,
    ord: &InstanceOrder,
    parallel: bool,
    stats: Option<&CounterStats>,
    scratch: Option<&mut LoopScratch>,
    pool: Option<&crate::scratch::ScratchPool<LoopScratch>>,
    budget: Option<&crate::fault::QueryBudget>,
) -> ArspResult {
    debug_assert_eq!(
        ord.order.len(),
        flat.num_instances(),
        "order covers a different dataset"
    );
    debug_assert_eq!(
        scores.num_rows(),
        flat.num_instances(),
        "scores cover a different dataset"
    );
    let mut owned = LoopScratch::default();
    let LoopScratch { scan, work } = scratch.unwrap_or(&mut owned);
    scan.gather(flat, scores, ord);
    let scan = &*scan;
    let num_objects = flat.num_objects();
    let n = scan.len();
    let mut result = ArspResult::zeros(n);
    if n == 0 {
        return result;
    }

    if parallel {
        let chunks = crate::parallel::triangular_chunk_bounds(n);
        if chunks.len() > 1 {
            use rayon::prelude::*;

            let chunk_results: Vec<(Vec<f64>, u64)> = chunks
                .clone()
                .into_par_iter()
                .map(|range| {
                    let mut scratch = pool.map_or_else(LoopScratch::default, |p| p.take());
                    scratch.work.prepare(num_objects);
                    let mut tests = 0u64;
                    let probs = range
                        .map(|pos| {
                            crate::fault::poll(budget);
                            scan.target_prob(pos, &mut scratch.work, &mut tests)
                        })
                        .collect();
                    if let Some(p) = pool {
                        p.put(scratch);
                    }
                    (probs, tests)
                })
                .collect();

            for (range, (probs, tests)) in chunks.into_iter().zip(chunk_results) {
                if let Some(s) = stats {
                    s.add_fdom_tests(tests);
                }
                for (pos, prob) in range.zip(probs) {
                    result.set(scan.id(pos), prob);
                }
            }
            return result;
        }
    }
    work.prepare(num_objects);
    let mut tests = 0u64;
    for pos in 0..n {
        crate::fault::poll(budget);
        let prob = scan.target_prob(pos, work, &mut tests);
        result.set(scan.id(pos), prob);
    }
    if let Some(s) = stats {
        s.add_fdom_tests(tests);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::enumerate::arsp_enum;
    use arsp_data::{paper_running_example, SyntheticConfig, UncertainDataset};
    use arsp_geometry::constraints::WeightRatio;
    use arsp_geometry::fdom::LinearFDominance;

    #[test]
    fn reproduces_example_1() {
        let d = paper_running_example();
        let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let result = arsp_loop(&d, &constraints);
        assert!((result.instance_prob(0) - 2.0 / 9.0).abs() < 1e-9);
        assert!(result.instance_prob(1).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_enum_on_paper_example() {
        let d = paper_running_example();
        for constraints in [
            WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set(),
            ConstraintSet::new(2),
            ConstraintSet::weak_ranking(2, 1),
        ] {
            let a = arsp_enum(&d, &constraints);
            let b = arsp_loop(&d, &constraints);
            assert!(a.approx_eq(&b, 1e-9), "diff = {}", a.max_abs_diff(&b));
        }
    }

    #[test]
    fn agrees_with_enum_on_small_synthetic_data() {
        for seed in 0..4 {
            let d = SyntheticConfig {
                num_objects: 7,
                max_instances: 3,
                dim: 3,
                region_length: 0.4,
                phi: 0.3,
                ..SyntheticConfig::default()
            }
            .generate_with_seed_offset(seed);
            let constraints = ConstraintSet::weak_ranking(3, 2);
            let a = arsp_enum(&d, &constraints);
            let b = arsp_loop(&d, &constraints);
            assert!(
                a.approx_eq(&b, 1e-9),
                "seed {seed}: diff {}",
                a.max_abs_diff(&b)
            );
        }
    }

    #[test]
    fn empty_dataset() {
        let d = UncertainDataset::new(2);
        let result = arsp_loop(&d, &ConstraintSet::new(2));
        assert!(result.is_empty());
    }

    #[test]
    fn duplicate_coordinates_across_objects() {
        // Two certain objects at the same point F-dominate each other, so
        // both rskyline probabilities are zero; a third object elsewhere is
        // unaffected.
        let mut d = UncertainDataset::new(2);
        d.push_object(vec![(vec![0.5, 0.5], 1.0)]);
        d.push_object(vec![(vec![0.5, 0.5], 1.0)]);
        d.push_object(vec![(vec![0.4, 0.9], 1.0)]);
        let constraints = ConstraintSet::weak_ranking(2, 1);
        let a = arsp_enum(&d, &constraints);
        let b = arsp_loop(&d, &constraints);
        assert!(a.approx_eq(&b, 1e-9));
        assert_eq!(b.instance_prob(0), 0.0);
        assert_eq!(b.instance_prob(1), 0.0);
    }

    #[test]
    fn parallel_is_bitwise_identical() {
        let d = SyntheticConfig {
            num_objects: 120,
            max_instances: 5,
            dim: 3,
            region_length: 0.3,
            phi: 0.15,
            seed: 77,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let seq = arsp_loop(&d, &constraints);
        let flat = FlatStore::from_dataset(&d);
        let scores = ScoreMatrix::compute(&flat, &LinearFDominance::from_constraints(&constraints));
        let order = instance_order_from_scores(&scores);
        // Explicit widths force a fan-out even on single-core machines.
        for threads in [2, 3, 4] {
            let par = crate::parallel::with_width(threads, || {
                arsp_loop_flat_engine(&flat, &scores, &order, true, None, None, None, None)
            });
            assert_eq!(seq.probs(), par.probs(), "{threads} threads");
        }
    }

    #[test]
    fn prebuilt_order_and_stats_leave_results_unchanged() {
        let d = SyntheticConfig {
            num_objects: 40,
            max_instances: 4,
            dim: 3,
            region_length: 0.3,
            phi: 0.2,
            seed: 5,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let fdom = LinearFDominance::from_constraints(&constraints);
        let baseline = arsp_loop(&d, &constraints);

        let flat = FlatStore::from_dataset(&d);
        let scores = ScoreMatrix::compute(&flat, &fdom);
        let order = instance_order_from_scores(&scores);
        let stats = CounterStats::new();
        let got = arsp_loop_flat_engine(
            &flat,
            &scores,
            &order,
            false,
            Some(&stats),
            None,
            None,
            None,
        );
        assert_eq!(baseline.probs(), got.probs());
        assert!(stats.snapshot().fdom_tests > 0);

        // The parallel path reports through the same sink.
        let par_stats = CounterStats::new();
        let par = crate::parallel::with_width(4, || {
            arsp_loop_flat_engine(
                &flat,
                &scores,
                &order,
                true,
                Some(&par_stats),
                None,
                None,
                None,
            )
        });
        assert_eq!(baseline.probs(), par.probs());
        assert_eq!(
            par_stats.snapshot().fdom_tests,
            stats.snapshot().fdom_tests,
            "test count must not depend on the execution mode"
        );
    }

    /// The "point scan" is the free function, a one-shot engine query that
    /// builds the flat store, score matrix and order per call; the flat
    /// scan is the kernel called directly with reused scratch and worker
    /// pools. They must agree bitwise.
    #[test]
    fn flat_scan_is_bitwise_identical_to_point_scan() {
        let d = SyntheticConfig {
            num_objects: 70,
            max_instances: 5,
            dim: 3,
            region_length: 0.3,
            phi: 0.2,
            seed: 41,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let fdom = LinearFDominance::from_constraints(&constraints);
        let reference = arsp_loop(&d, &constraints);

        let flat = FlatStore::from_dataset(&d);
        let scores = ScoreMatrix::compute(&flat, &fdom);
        let order = instance_order_from_scores(&scores);
        // One scratch reused across runs, plus the no-scratch path.
        let mut scratch = LoopScratch::default();
        for _ in 0..2 {
            let got = arsp_loop_flat_engine(
                &flat,
                &scores,
                &order,
                false,
                None,
                Some(&mut scratch),
                None,
                None,
            );
            assert_eq!(reference.probs(), got.probs());
        }
        let no_scratch =
            arsp_loop_flat_engine(&flat, &scores, &order, false, None, None, None, None);
        assert_eq!(reference.probs(), no_scratch.probs());

        // The parallel scan agrees too — with and without a worker pool,
        // which must be reused across repeated sweeps.
        let pool = crate::scratch::ScratchPool::<LoopScratch>::new();
        crate::parallel::with_width(4, || {
            let par = arsp_loop_flat_engine(&flat, &scores, &order, true, None, None, None, None);
            assert_eq!(reference.probs(), par.probs());
            for _ in 0..2 {
                let pooled = arsp_loop_flat_engine(
                    &flat,
                    &scores,
                    &order,
                    true,
                    None,
                    None,
                    Some(&pool),
                    None,
                );
                assert_eq!(reference.probs(), pooled.probs());
            }
        });
        assert!(
            pool.hits() > 0,
            "the second pooled sweep must reuse the first sweep's arenas"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn with_fdom_rejects_a_region_of_another_dimension() {
        let d = SyntheticConfig::small(5, 2, 2, 1).generate();
        let _ = arsp_loop(&d, &ConstraintSet::weak_ranking(3, 1));
    }

    /// Helper so synthetic tests can vary the seed tersely.
    trait WithSeed {
        fn generate_with_seed_offset(self, offset: u64) -> UncertainDataset;
    }
    impl WithSeed for SyntheticConfig {
        fn generate_with_seed_offset(mut self, offset: u64) -> UncertainDataset {
            self.seed = self.seed.wrapping_add(offset);
            self.generate()
        }
    }
}
