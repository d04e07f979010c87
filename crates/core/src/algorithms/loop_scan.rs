//! LOOP — the sorted pairwise-scan baseline (§III-A).
//!
//! Evaluates equation (3) directly: sort the instances by their score under
//! one vertex of the preference region (which guarantees that an instance can
//! only be F-dominated by instances at or before its own position), then for
//! every instance accumulate the dominating probability mass of every other
//! object with the vertex-based F-dominance test of Theorem 2.
//! Complexity `O(c² + d·d'·n²)`.
//!
//! All entry points funnel into [`arsp_loop_flat_engine`], which scans a
//! [`FlatStore`] in the order of an [`InstanceOrder`] (the engine caches it
//! across queries that share a preference-region vertex) and decides each
//! F-dominance test as a comparison of two [`ScoreMatrix`] rows. The free
//! functions build all three per call.

use crate::result::ArspResult;
use crate::scorespace::ScoreMatrix;
use crate::stats::CounterStats;
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::fdom::LinearFDominance;
use arsp_geometry::{ConstraintSet, PointRef};

/// Computes ARSP with the LOOP baseline.
pub fn arsp_loop(dataset: &UncertainDataset, constraints: &ConstraintSet) -> ArspResult {
    let fdom = LinearFDominance::from_constraints(constraints);
    run_with_fdom(dataset, &fdom, false)
}

/// LOOP with a pre-built F-dominance test (used by benchmarks to exclude the
/// one-off vertex enumeration from the measured time).
///
/// # Panics
/// Panics if `fdom` was built for a different dimension than the dataset's.
pub fn arsp_loop_with_fdom(dataset: &UncertainDataset, fdom: &LinearFDominance) -> ArspResult {
    run_with_fdom(dataset, fdom, false)
}

/// LOOP with the per-instance scans fanned out over worker threads. Each
/// instance's probability is an independent product accumulated in exactly
/// the order of the sequential scan, so the result is bitwise identical to
/// [`arsp_loop`]. The worker count is bounded by
/// [`crate::parallel::set_num_threads`]; without the `parallel` feature this
/// is [`arsp_loop`].
pub fn arsp_loop_parallel(dataset: &UncertainDataset, constraints: &ConstraintSet) -> ArspResult {
    let fdom = LinearFDominance::from_constraints(constraints);
    run_with_fdom(dataset, &fdom, true)
}

/// The free functions' one-shot path: flatten the dataset, project it once
/// into a [`ScoreMatrix`], sort it and run [`arsp_loop_flat_engine`] with
/// fresh working memory.
fn run_with_fdom(
    dataset: &UncertainDataset,
    fdom: &LinearFDominance,
    parallel: bool,
) -> ArspResult {
    assert_eq!(dataset.dim(), fdom.dim(), "dimension mismatch");
    let flat = FlatStore::from_dataset(dataset);
    let scores = ScoreMatrix::compute(&flat, fdom);
    let order = instance_order_from_scores(&scores);
    arsp_loop_flat_engine(&flat, &scores, &order, parallel, None, None, None, None)
}

/// The cold sort comparison of every LOOP order: ascending key, ties broken
/// by ascending id. This single definition is shared by
/// [`instance_order_from_scores`] **and** the dynamic engine's delta merges
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

/// Reusable per-worker accumulation buffers: per-object accumulated
/// dominating mass plus the list of objects touched for the current
/// instance (reset between instances, so each iteration is
/// O(#dominators) rather than O(m)). Reusable across queries via
/// [`crate::scratch::QueryScratch`]; the dynamic engine's delta-merge scan
/// (`crate::dynamic`) shares the same buffers.
#[derive(Debug, Default)]
pub struct LoopScratch {
    pub(crate) sigma: Vec<f64>,
    pub(crate) touched: Vec<usize>,
}

impl LoopScratch {
    fn new(num_objects: usize) -> Self {
        Self {
            sigma: vec![0.0; num_objects],
            touched: Vec::new(),
        }
    }

    /// Sizes (or re-sizes) the buffers for a dataset with `num_objects`
    /// objects, keeping existing allocations.
    pub(crate) fn prepare(&mut self, num_objects: usize) {
        self.sigma.clear();
        self.sigma.resize(num_objects, 0.0);
        self.touched.clear();
    }
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

/// The LOOP scan: for every instance in sort order, accumulates the
/// dominating mass of every other object. Each F-dominance test is a
/// `d'`-component dominance comparison of two precomputed [`ScoreMatrix`]
/// rows (Theorem 2) instead of `d'` recomputed dot products, and the instance
/// columns stream out of the [`FlatStore`]. With a warm [`LoopScratch`] the sequential scan
/// performs no heap allocation beyond the result vector; under `parallel`
/// each worker chunk draws its σ arena from `pool` (a fresh arena per chunk
/// when absent), so warmed-up parallel sweeps allocate nothing per task
/// either. Results are bitwise identical across every option combination.
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
    let n = flat.num_instances();
    let mut result = ArspResult::zeros(n);
    if n == 0 {
        return result;
    }
    debug_assert_eq!(ord.order.len(), n, "order covers a different dataset");
    debug_assert_eq!(scores.num_rows(), n, "scores cover a different dataset");

    #[cfg(feature = "parallel")]
    if parallel {
        let chunks = crate::parallel::chunk_bounds(n);
        if chunks.len() > 1 {
            use rayon::prelude::*;

            let chunk_results: Vec<(Vec<(usize, f64)>, u64)> = crate::parallel::with_pool(|| {
                chunks
                    .into_par_iter()
                    .map(|range| {
                        let mut scratch = pool.map_or_else(LoopScratch::default, |p| p.take());
                        scratch.prepare(flat.num_objects());
                        let mut tests = 0u64;
                        let probs = range
                            .map(|pos| {
                                crate::fault::poll(budget);
                                let prob = instance_probability_flat(
                                    flat,
                                    scores,
                                    ord,
                                    pos,
                                    &mut scratch,
                                    &mut tests,
                                );
                                (ord.order[pos], prob)
                            })
                            .collect();
                        if let Some(p) = pool {
                            p.put(scratch);
                        }
                        (probs, tests)
                    })
                    .collect()
            });

            for (chunk, tests) in chunk_results {
                if let Some(s) = stats {
                    s.add_fdom_tests(tests);
                }
                for (t_id, prob) in chunk {
                    result.set(t_id, prob);
                }
            }
            return result;
        }
    }
    #[cfg(not(feature = "parallel"))]
    let _ = parallel;
    #[cfg(not(feature = "parallel"))]
    let _ = pool;

    let mut owned;
    let scratch = match scratch {
        Some(s) => {
            s.prepare(flat.num_objects());
            s
        }
        None => {
            owned = LoopScratch::new(flat.num_objects());
            &mut owned
        }
    };
    let mut tests = 0u64;
    for (pos, &t_id) in ord.order.iter().enumerate() {
        crate::fault::poll(budget);
        let prob = instance_probability_flat(flat, scores, ord, pos, scratch, &mut tests);
        result.set(t_id, prob);
    }
    if let Some(s) = stats {
        s.add_fdom_tests(tests);
    }
    result
}

/// The body of the LOOP scan for the instance at sort position `pos`: scans
/// every instance whose sort key does not exceed this one's (with strict
/// inequality later instances cannot F-dominate it, and instances with an
/// equal key are included to stay exact under score ties) and folds the
/// per-object dominating mass into the probability, always in sort order.
/// The Theorem-2 test is evaluated as row dominance.
/// `pub(crate)` for the standing-query subsystem (`crate::standing`), whose
/// dirty-set maintenance recomputes exactly the affected instances through
/// this kernel so the maintained result stays bitwise equal to a full scan.
pub(crate) fn instance_probability_flat(
    flat: &FlatStore,
    scores: &ScoreMatrix,
    ord: &InstanceOrder,
    pos: usize,
    scratch: &mut LoopScratch,
    tests: &mut u64,
) -> f64 {
    let (order, keys) = (&ord.order, &ord.keys);
    let t_id = order[pos];
    let t_object = flat.object_of(t_id);
    let sv_t = PointRef(scores.row(t_id));
    let sigma = &mut scratch.sigma;
    let touched = &mut scratch.touched;
    touched.clear();

    for &s_id in &order[..pos] {
        let s_object = flat.object_of(s_id);
        if s_object != t_object {
            *tests += 1;
            if PointRef(scores.row(s_id)).dominates(sv_t) {
                if sigma[s_object] == 0.0 {
                    touched.push(s_object);
                }
                sigma[s_object] += flat.prob(s_id);
            }
        }
    }
    for &s_id in &order[pos + 1..] {
        if keys[s_id] > keys[t_id] {
            break;
        }
        let s_object = flat.object_of(s_id);
        if s_object != t_object {
            *tests += 1;
            if PointRef(scores.row(s_id)).dominates(sv_t) {
                if sigma[s_object] == 0.0 {
                    touched.push(s_object);
                }
                sigma[s_object] += flat.prob(s_id);
            }
        }
    }

    let mut prob = flat.prob(t_id);
    for &obj in touched.iter() {
        prob *= 1.0 - sigma[obj];
        sigma[obj] = 0.0;
    }
    prob.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::enumerate::arsp_enum;
    use arsp_data::{paper_running_example, SyntheticConfig, UncertainDataset};
    use arsp_geometry::constraints::WeightRatio;

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
        // Force a fan-out even on single-core machines; the lock keeps
        // knob-value assertions in other tests from observing the transient
        // setting.
        let _guard = crate::parallel::knob_lock();
        crate::parallel::set_num_threads(4);
        let seq = arsp_loop(&d, &constraints);
        let par = arsp_loop_parallel(&d, &constraints);
        crate::parallel::set_num_threads(0);
        assert_eq!(seq.probs(), par.probs());
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
        let _guard = crate::parallel::knob_lock();
        crate::parallel::set_num_threads(4);
        let par_stats = CounterStats::new();
        let par = arsp_loop_flat_engine(
            &flat,
            &scores,
            &order,
            true,
            Some(&par_stats),
            None,
            None,
            None,
        );
        crate::parallel::set_num_threads(0);
        assert_eq!(baseline.probs(), par.probs());
        assert_eq!(
            par_stats.snapshot().fdom_tests,
            stats.snapshot().fdom_tests,
            "test count must not depend on the execution mode"
        );
    }

    /// The "point scan" is the free function, which takes the `Point`-layout
    /// [`UncertainDataset`] and builds the flat store, score matrix and
    /// order per call; the flat scan is the kernel called directly with
    /// reused scratch and worker pools. They must agree bitwise.
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
        let _guard = crate::parallel::knob_lock();
        crate::parallel::set_num_threads(4);
        let par = arsp_loop_flat_engine(&flat, &scores, &order, true, None, None, None, None);
        let pool = crate::scratch::ScratchPool::<LoopScratch>::new();
        for _ in 0..2 {
            let pooled =
                arsp_loop_flat_engine(&flat, &scores, &order, true, None, None, Some(&pool), None);
            assert_eq!(reference.probs(), pooled.probs());
        }
        crate::parallel::set_num_threads(0);
        assert_eq!(reference.probs(), par.probs());
        #[cfg(feature = "parallel")]
        assert!(
            pool.hits() > 0,
            "the second pooled sweep must reuse the first sweep's arenas"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn with_fdom_rejects_a_region_of_another_dimension() {
        let d = SyntheticConfig::small(5, 2, 2, 1).generate();
        let fdom = LinearFDominance::from_constraints(&ConstraintSet::weak_ranking(3, 1));
        let _ = arsp_loop_with_fdom(&d, &fdom);
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
