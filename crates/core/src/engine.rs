//! The session-oriented query engine — the primary public API.
//!
//! The ARSP workload is inherently *many queries over one uncertain dataset*:
//! every figure of the paper sweeps constraint sets, dimensions or algorithms
//! against a fixed dataset, and a serving deployment answers a stream of
//! preference queries against one catalogue. [`ArspEngine`] owns the dataset
//! and lazily builds, caches and shares everything that does not depend on
//! the individual query:
//!
//! * the **vertex enumeration** of each distinct constraint set (the
//!   [`LinearFDominance`](arsp_geometry::fdom::LinearFDominance) test —
//!   the `O(c²·LP)` one-off cost every algorithm pays), keyed by the
//!   constraint set's exact coefficients,
//! * the **flat columnar instance store** ([`FlatStore`] — the contiguous
//!   layout every kernel streams; dataset-only, built with the engine),
//! * the **projected score matrix**
//!   ([`ScoreMatrix`](crate::scorespace::ScoreMatrix) — the `coords · ω`
//!   pass shared by LOOP, the KDTT family and B&B), keyed by the
//!   preference region's exact vertex set,
//! * the **LOOP instance order** (sorted by score under the preference
//!   region's first vertex), keyed by that vertex,
//! * the **instance R-tree** B&B traverses (dataset-only, built once),
//! * the **per-object aggregated R-trees** of DUAL (dataset-only, built
//!   once),
//! * a pool of **per-query scratch arenas**
//!   ([`QueryScratch`](crate::scratch::QueryScratch) — candidate stacks,
//!   σ buffers, heap storage), checked out per query, plus
//!   **per-worker arena pools** for the parallel twins (kd split seeds and
//!   traversal arenas, LOOP chunk arenas — see
//!   [`crate::scratch::ScratchPool`]), so a warmed-up session allocates
//!   nothing per query or per worker task beyond the result vector.
//!
//! Every algorithm — under [`Execution::Sequential`] *and*
//! [`Execution::Parallel`] — runs its flat columnar path over these cached
//! structures.
//!
//! Queries are built fluently and return an [`ArspOutcome`] that wraps the
//! [`ArspResult`] with the algorithm that ran (and why, if auto-selected),
//! wall-clock timings split into index/build and execution time, and
//! optional work counters:
//!
//! ```
//! use arsp_core::engine::ArspEngine;
//!
//! let engine = ArspEngine::new(arsp_data::paper_running_example());
//! let ratio = arsp_geometry::constraints::WeightRatio::uniform(2, 0.5, 2.0);
//! let constraints = ratio.to_constraint_set();
//!
//! let outcome = engine
//!     .query(&constraints)
//!     .collect_stats(true)
//!     .run();
//! assert!((outcome.result().instance_prob(0) - 2.0 / 9.0).abs() < 1e-9);
//! assert!(outcome.auto_selected());
//!
//! // Weight-ratio queries unlock the DUAL algorithm (§IV).
//! let dual = engine.ratio_query(&ratio).run();
//! assert!(outcome.result().approx_eq(dual.result(), 1e-9));
//! ```
//!
//! [`ArspEngine::run_batch`] evaluates a whole constraint sweep, in parallel
//! across queries at the ambient rayon width, with all caches shared —
//! the per-query cost of a sweep drops to the traversal itself.
//!
//! The engine is one of four fronts over the same query pipeline
//! ([`crate::pipeline`]) and its one [`Query`] builder: its caches are one
//! serving-style snapshot of the frozen dataset. The free functions
//! ([`crate::arsp_kdtt_plus`] and friends) are one-shot queries on a fresh
//! engine, so a warm engine's results are **bitwise identical** to theirs —
//! checked end-to-end by the `engine_agreement` integration test.

use std::sync::Arc;

use crate::fault::{QueryBudget, QueryError};
use crate::pipeline::{
    execute, expect_outcome, Query, QueryConstraints, QueryFront, QueryOutcome, ServingSnapshot,
    SharedArtifacts,
};
use crate::result::ArspResult;
use crate::stats::ServingStats;
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};

/// The algorithms a query can request. `Auto` lets the engine pick per the
/// paper's §V guidance; the rest force one algorithm (DUAL requires a
/// weight-ratio query).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryAlgorithm {
    /// Let the engine decide (see [`auto_select`]).
    Auto,
    /// Possible-world enumeration (exponential; toy inputs only).
    Enum,
    /// Sorted pairwise scan baseline.
    Loop,
    /// Algorithm 1 with a fully prebuilt kd-tree.
    Kdtt,
    /// Algorithm 1 with fused construction + traversal.
    KdttPlus,
    /// Algorithm 1 with fused quadtree splitting.
    QdttPlus,
    /// Algorithm 2 (branch and bound over the shared instance R-tree).
    BranchAndBound,
    /// The weight-ratio DUAL algorithm (§IV); only valid for
    /// [`ArspEngine::ratio_query`] queries.
    Dual,
}

impl QueryAlgorithm {
    /// The name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            QueryAlgorithm::Auto => "AUTO",
            QueryAlgorithm::Enum => "ENUM",
            QueryAlgorithm::Loop => "LOOP",
            QueryAlgorithm::Kdtt => "KDTT",
            QueryAlgorithm::KdttPlus => "KDTT+",
            QueryAlgorithm::QdttPlus => "QDTT+",
            QueryAlgorithm::BranchAndBound => "B&B",
            QueryAlgorithm::Dual => "DUAL",
        }
    }
}

/// The five exact general-input algorithms (everything but the exponential
/// ENUM baseline, the ratio-only DUAL, and the Auto selector) — the set the
/// agreement suites sweep when asserting bitwise equivalence.
pub const EXACT_ALGORITHMS: [QueryAlgorithm; 5] = [
    QueryAlgorithm::Loop,
    QueryAlgorithm::Kdtt,
    QueryAlgorithm::KdttPlus,
    QueryAlgorithm::QdttPlus,
    QueryAlgorithm::BranchAndBound,
];

/// How a query executes: single-threaded, or with the algorithm's one
/// kernel fanned out over worker threads (bitwise-identical results — see
/// [`crate::parallel`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Execution {
    /// Run on the calling thread.
    #[default]
    Sequential,
    /// Fan the algorithm's kernel out over the rayon pool. A positive
    /// `threads` runs this query at that width, clamped to
    /// [`crate::parallel::MAX_WIDTH`]; `threads = 0` runs it at the ambient
    /// rayon width (all cores, unless the caller already runs at a set
    /// width). The width is the query's alone: concurrent queries of
    /// different widths cannot interfere, and no width changes a result.
    Parallel {
        /// Width of this query's fan-out (at most
        /// [`crate::parallel::MAX_WIDTH`]); `0` = the ambient rayon width.
        threads: usize,
    },
}

/// Instance-count threshold below which [`auto_select`] picks LOOP: on tiny
/// inputs the quadratic scan beats every index-based algorithm's setup cost.
pub const AUTO_LOOP_MAX_INSTANCES: usize = 96;

/// Score-space dimensionality (`d'` = number of preference-region vertices)
/// at which [`auto_select`] starts preferring B&B: the kd-ASP\* traversal's
/// `n^{2−1/d'}` bound degrades toward `n²` as `d'` grows, while B&B stays
/// output-sensitive (§III-C, §V).
pub const AUTO_BNB_MIN_SCORE_DIM: usize = 7;

/// Minimum average instances-per-object for [`auto_select`] to pick B&B:
/// the per-object aggregated R-trees and the Theorem-4 pruning set only pay
/// off when objects carry enough probability mass to saturate early.
pub const AUTO_BNB_MIN_AVG_INSTANCES: usize = 8;

/// Picks the algorithm for a query, per the paper's §V evaluation: DUAL
/// whenever the constraints are weight ratios (its `O(d)` Theorem-5 test and
/// dataset-resident index beat the general machinery), LOOP for tiny
/// instance counts, and otherwise KDTT+ except in the
/// high-score-dimension / instance-dense regime where B&B's pruning wins.
/// Returns the choice plus a human-readable reason, both surfaced by
/// [`ArspOutcome`].
pub fn auto_select(
    num_objects: usize,
    num_instances: usize,
    score_dim: usize,
    weight_ratio: bool,
) -> (QueryAlgorithm, &'static str) {
    if weight_ratio {
        return (
            QueryAlgorithm::Dual,
            "weight-ratio constraints: Theorem-5 O(d) dominance test applies",
        );
    }
    if num_instances <= AUTO_LOOP_MAX_INSTANCES {
        return (
            QueryAlgorithm::Loop,
            "tiny instance count: pairwise scan beats index setup",
        );
    }
    let avg_instances = num_instances / num_objects.max(1);
    if score_dim >= AUTO_BNB_MIN_SCORE_DIM && avg_instances >= AUTO_BNB_MIN_AVG_INSTANCES {
        (
            QueryAlgorithm::BranchAndBound,
            "high score dimension with dense objects: B&B pruning stays output-sensitive",
        )
    } else {
        (
            QueryAlgorithm::KdttPlus,
            "default regime: fused kd traversal is the paper's overall winner",
        )
    }
}

/// A query-session engine over one uncertain dataset. Cheap to query
/// repeatedly: all constraint-independent structures and all per-constraint
/// one-off costs are cached inside (interior mutability — `&self` queries
/// compose with sharing the engine across threads). The caches are one
/// serving-style snapshot of the frozen dataset (see [`crate::pipeline`]), so
/// concurrent queries needing the same missing artifact build it once.
pub struct ArspEngine {
    dataset: Arc<UncertainDataset>,
    snapshot: ServingSnapshot,
    shared: SharedArtifacts,
}

impl ArspEngine {
    /// Creates an engine owning the dataset. Only the columnar store is
    /// built up front; every index waits for a query that needs it.
    pub fn new(dataset: UncertainDataset) -> Self {
        let dataset = Arc::new(dataset);
        let shared = SharedArtifacts::new();
        let snapshot = shared.snapshot(0, Arc::new(FlatStore::from_dataset(&dataset)));
        snapshot.seed_dataset(Arc::clone(&dataset));
        Self {
            dataset,
            snapshot,
            shared,
        }
    }

    /// The dataset this engine serves.
    pub fn dataset(&self) -> &UncertainDataset {
        &self.dataset
    }

    /// Starts a query under general linear constraints.
    ///
    /// # Panics
    /// `run()` panics if the constraint dimensionality differs from the
    /// dataset's, or if the preference region is empty.
    pub fn query<'e, 'q>(&'e self, constraints: &'q ConstraintSet) -> ArspQuery<'e, 'q> {
        Query::new(self, QueryConstraints::Linear(constraints))
    }

    /// Starts a query under weight-ratio constraints (§IV). Unlocks the DUAL
    /// algorithm — which `Auto` then selects — while remaining runnable with
    /// every general algorithm via the derived linear constraints.
    pub fn ratio_query<'e, 'q>(&'e self, ratio: &'q WeightRatio) -> ArspQuery<'e, 'q> {
        Query::new(self, QueryConstraints::Ratio(ratio))
    }

    /// Evaluates a constraint sweep with every cache shared across the batch,
    /// in parallel across queries at the ambient rayon width (each query
    /// itself runs sequentially — one level of fan-out). Outcomes
    /// are returned in input order. Algorithms are auto-selected; use
    /// [`ArspEngine::run_batch_with`] to force one.
    pub fn run_batch(&self, sweep: &[ConstraintSet]) -> Vec<ArspOutcome> {
        self.run_batch_with(sweep, QueryAlgorithm::Auto)
    }

    /// [`ArspEngine::run_batch`] with a fixed algorithm for every query.
    pub fn run_batch_with(
        &self,
        sweep: &[ConstraintSet],
        algorithm: QueryAlgorithm,
    ) -> Vec<ArspOutcome> {
        use rayon::prelude::*;
        sweep
            .par_iter()
            .map(|constraints| self.query(constraints).algorithm(algorithm).run())
            .collect()
    }

    /// The session's [`ServingStats`]: hit/build counters over all internal
    /// caches — how much index construction the session has amortised so
    /// far — plus the scratch-pool counters (how much working-memory
    /// allocation it has amortised). A repeated query adds only hits, which
    /// is what the cache-reuse and pool-reuse tests assert. Every other
    /// field stays 0: a frozen dataset never invalidates or merges, and a
    /// single engine pins no snapshots and holds no subscriptions.
    pub fn serving_stats(&self) -> ServingStats {
        self.shared.stats()
    }
}

/// One query with `algorithm` forced, on a fresh engine over a copy of
/// `dataset`: the body of the free functions ([`crate::arsp_loop`],
/// [`crate::arsp_kdtt`], [`crate::arsp_kdtt_plus`], [`crate::arsp_qdtt_plus`],
/// [`crate::arsp_bnb`]).
///
/// # Panics
/// As [`Query::run`] does: on a dimension mismatch or an empty preference
/// region.
pub(crate) fn one_shot(
    dataset: &UncertainDataset,
    constraints: &ConstraintSet,
    algorithm: QueryAlgorithm,
) -> ArspResult {
    ArspEngine::new(dataset.clone())
        .query(constraints)
        .algorithm(algorithm)
        .run()
        .into_result()
}

/// A query on the static engine: the one [`Query`] builder, pinned to the
/// engine's snapshot.
pub type ArspQuery<'e, 'q> = Query<'e, 'q, ArspEngine>;

/// The result of one engine query (see [`QueryOutcome`]); the static engine
/// adds no view of its own.
pub type ArspOutcome = QueryOutcome<()>;

impl QueryFront for ArspEngine {
    type View = ();
    type Run = ArspOutcome;

    fn answer(
        query: &ArspQuery<'_, '_>,
        budget: Option<&QueryBudget>,
    ) -> Result<ArspOutcome, QueryError> {
        let engine = query.front;
        let source = engine.shared.source(&engine.snapshot, budget);
        Ok(execute(&source, &query.spec, budget, ()))
    }

    fn finish(outcome: Result<ArspOutcome, QueryError>) -> ArspOutcome {
        expect_outcome(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsp_data::{paper_running_example, SyntheticConfig};

    // ---- the Auto heuristic on paper-shaped inputs ----------------------

    #[test]
    fn auto_picks_dual_for_weight_ratio_constraints() {
        // Any shape: ratio constraints always route to DUAL (§IV).
        let (algo, why) = auto_select(16_000, 6_400_000, 4, true);
        assert_eq!(algo, QueryAlgorithm::Dual);
        assert!(why.contains("weight-ratio"));
    }

    #[test]
    fn auto_picks_loop_for_tiny_inputs() {
        // The paper's running example: 4 objects, 10 instances.
        let (algo, _) = auto_select(4, 10, 3, false);
        assert_eq!(algo, QueryAlgorithm::Loop);
    }

    #[test]
    fn auto_picks_kdtt_plus_in_the_default_regime() {
        // Fig. 5 default: m = 16K, cnt = 400, d = 4, WR(c = 3) → d' = 4.
        let (algo, _) = auto_select(16_000, 16_000 * 200, 4, false);
        assert_eq!(algo, QueryAlgorithm::KdttPlus);
    }

    #[test]
    fn auto_picks_bnb_for_high_dim_dense_objects() {
        // Fig. 5(g–i) right edge: d = 8, WR(c = 7) → d' = 8, cnt = 400.
        let (algo, why) = auto_select(500, 500 * 200, 8, false);
        assert_eq!(algo, QueryAlgorithm::BranchAndBound);
        assert!(why.contains("B&B"));

        // Same d' but sparse objects (IIP-like, one instance each): the
        // aggregated R-trees cannot saturate → stay with KDTT+.
        let (algo, _) = auto_select(20_000, 20_000, 8, false);
        assert_eq!(algo, QueryAlgorithm::KdttPlus);
    }

    // ---- engine behaviour ------------------------------------------------

    #[test]
    fn engine_reproduces_example_1_and_reports_the_decision() {
        let engine = ArspEngine::new(paper_running_example());
        let ratio = WeightRatio::uniform(2, 0.5, 2.0);
        let constraints = ratio.to_constraint_set();

        let outcome = engine.query(&constraints).collect_stats(true).run();
        assert!((outcome.instance_prob(0) - 2.0 / 9.0).abs() < 1e-9);
        // 10 instances → Auto picked LOOP and says so.
        assert_eq!(outcome.algorithm(), QueryAlgorithm::Loop);
        assert!(outcome.auto_selected());
        assert!(outcome.selection_reason().unwrap().contains("tiny"));
        assert!(outcome.counters().unwrap().fdom_tests > 0);

        // The ratio form auto-selects DUAL and agrees.
        let dual = engine.ratio_query(&ratio).run();
        assert_eq!(dual.algorithm(), QueryAlgorithm::Dual);
        assert!(outcome.result().approx_eq(dual.result(), 1e-9));
    }

    #[test]
    fn names_match_paper() {
        let all = [
            QueryAlgorithm::Auto,
            QueryAlgorithm::Enum,
            QueryAlgorithm::Loop,
            QueryAlgorithm::Kdtt,
            QueryAlgorithm::KdttPlus,
            QueryAlgorithm::QdttPlus,
            QueryAlgorithm::BranchAndBound,
            QueryAlgorithm::Dual,
        ];
        let names: Vec<&str> = all.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["AUTO", "ENUM", "LOOP", "KDTT", "KDTT+", "QDTT+", "B&B", "DUAL"]
        );
    }

    #[test]
    fn forced_algorithms_and_arsp_algorithm_conversion() {
        let engine = ArspEngine::new(paper_running_example());
        let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let reference = engine.query(&constraints).run();
        for algo in std::iter::once(QueryAlgorithm::Enum).chain(EXACT_ALGORITHMS) {
            let outcome = engine.query(&constraints).algorithm(algo).run();
            assert!(!outcome.auto_selected());
            assert_eq!(outcome.algorithm(), algo);
            assert!(
                reference.result().approx_eq(outcome.result(), 1e-9),
                "{} disagrees",
                outcome.algorithm().name()
            );
        }
    }

    #[test]
    fn repeated_queries_only_hit_caches() {
        let engine = ArspEngine::new(
            SyntheticConfig {
                num_objects: 30,
                max_instances: 4,
                dim: 3,
                seed: 7,
                ..SyntheticConfig::default()
            }
            .generate(),
        );
        let constraints = ConstraintSet::weak_ranking(3, 2);

        let first = engine
            .query(&constraints)
            .algorithm(QueryAlgorithm::BranchAndBound)
            .run();
        let after_first = engine.serving_stats();
        assert!(after_first.shared_builds >= 2, "fdom + rtree must be built");

        let second = engine
            .query(&constraints)
            .algorithm(QueryAlgorithm::BranchAndBound)
            .run();
        let after_second = engine.serving_stats();
        assert_eq!(
            after_first.shared_builds, after_second.shared_builds,
            "the repeat query must not rebuild anything"
        );
        assert!(after_second.cache_hits > after_first.cache_hits);
        assert_eq!(first.result().probs(), second.result().probs());
    }

    #[test]
    fn top_k_and_min_prob_views() {
        let dataset = paper_running_example();
        let engine = ArspEngine::new(dataset);
        let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let outcome = engine.query(&constraints).top_k(2).min_prob(1e-12).run();

        let top = outcome.top_objects().expect("top_k was requested");
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
        assert!((outcome.object_prob(top[0].0) - top[0].1).abs() < 1e-12);

        // The filtered iterator drops exactly the ~zero entries.
        let kept = outcome.iter_probs().count();
        assert_eq!(kept, outcome.result_size());
        assert!(kept < outcome.result().len());
        for (object, instance, prob) in outcome.iter_probs() {
            assert!(prob >= 1e-12);
            assert_eq!(object, engine.dataset().instance(instance).object);
        }
    }

    #[test]
    fn parallel_execution_is_bitwise_identical() {
        let engine = ArspEngine::new(
            SyntheticConfig {
                num_objects: 120,
                max_instances: 5,
                dim: 3,
                region_length: 0.3,
                phi: 0.1,
                seed: 3,
                ..SyntheticConfig::default()
            }
            .generate(),
        );
        let constraints = ConstraintSet::weak_ranking(3, 2);
        for algo in [
            QueryAlgorithm::Loop,
            QueryAlgorithm::KdttPlus,
            QueryAlgorithm::QdttPlus,
            QueryAlgorithm::BranchAndBound,
        ] {
            let seq = engine.query(&constraints).algorithm(algo).run();
            let par = engine
                .query(&constraints)
                .algorithm(algo)
                .execution(Execution::Parallel { threads: 4 })
                .run();
            assert_eq!(seq.result().probs(), par.result().probs());
        }
    }

    #[test]
    fn parallel_dual_execution_is_bitwise_identical() {
        let engine = ArspEngine::new(
            SyntheticConfig {
                num_objects: 90,
                max_instances: 4,
                dim: 3,
                region_length: 0.3,
                phi: 0.15,
                seed: 41,
                ..SyntheticConfig::default()
            }
            .generate(),
        );
        let ratio = WeightRatio::uniform(3, 0.5, 2.0);
        let seq = engine.ratio_query(&ratio).run();
        assert_eq!(seq.algorithm(), QueryAlgorithm::Dual);
        for threads in [2, 4] {
            let par = engine
                .ratio_query(&ratio)
                .execution(Execution::Parallel { threads })
                .run();
            assert_eq!(
                seq.result().probs(),
                par.result().probs(),
                "DUAL diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn scratch_pool_reuse_reaches_steady_state() {
        let engine = ArspEngine::new(
            SyntheticConfig {
                num_objects: 40,
                max_instances: 4,
                dim: 3,
                seed: 13,
                ..SyntheticConfig::default()
            }
            .generate(),
        );
        let constraints = ConstraintSet::weak_ranking(3, 2);

        // First query: the pool is dry, so exactly the arenas it needs are
        // built (sequential queries use one QueryScratch and no worker
        // arenas).
        let _ = engine.query(&constraints).run();
        let after_first = engine.serving_stats();
        assert_eq!(after_first.scratch_misses, 1, "one arena for one query");

        // Steady state: repeated queries — same or different algorithm, the
        // QueryScratch arena is shared — must reuse the pooled arena and
        // never grow the pool.
        for algorithm in [
            QueryAlgorithm::Loop,
            QueryAlgorithm::KdttPlus,
            QueryAlgorithm::BranchAndBound,
        ] {
            let _ = engine.query(&constraints).algorithm(algorithm).run();
        }
        let steady = engine.serving_stats();
        assert_eq!(
            after_first.scratch_misses, steady.scratch_misses,
            "steady-state queries must not build new arenas"
        );
        assert_eq!(steady.scratch_hits, after_first.scratch_hits + 3);
    }

    #[test]
    fn parallel_queries_reuse_worker_arenas() {
        // Large enough to cross the kd twin's parallel node threshold, so
        // subtree worker arenas are genuinely checked out.
        let engine = ArspEngine::new(
            SyntheticConfig {
                num_objects: 400,
                max_instances: 3,
                dim: 3,
                region_length: 0.3,
                phi: 0.1,
                seed: 47,
                ..SyntheticConfig::default()
            }
            .generate(),
        );
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let run_par = || {
            let _ = engine
                .query(&constraints)
                .algorithm(QueryAlgorithm::KdttPlus)
                .execution(Execution::Parallel { threads: 2 })
                .run();
        };
        run_par();
        let warm = engine.serving_stats();
        for _ in 0..8 {
            run_par();
        }
        let steady = engine.serving_stats();
        // One QueryScratch (repeats reuse it) plus the kd fan-out's seeds
        // and traversal arenas: a traversal with `levels` binary fan-out
        // levels splits at most 2^levels − 1 times, holds at most one seed
        // and one arena per split, and grows the pool to that many before it
        // starts, so the count is fixed by the width, never by the query
        // count or the scheduling.
        let levels = crate::parallel::with_width(2, crate::parallel::fan_out_levels);
        assert_eq!(warm.scratch_misses, 1 + 2 * ((1u64 << levels) - 1));
        assert_eq!(
            steady.scratch_misses, warm.scratch_misses,
            "worker-arena growth must be bounded by the fan-out depth"
        );
        assert!(
            steady.scratch_hits >= warm.scratch_hits + 8,
            "every repeat query must reuse at least its QueryScratch arena"
        );
    }

    #[test]
    fn union_size_parallel_kdtt_plus_keeps_a_fixed_arena_budget() {
        // The serving benchmark's dataset shape, a little past union size:
        // every node of the first fan-out levels crosses the parallel
        // threshold, so each query splits the full 2^levels − 1 times.
        let engine = ArspEngine::new(
            SyntheticConfig {
                num_objects: 1100,
                max_instances: 16,
                dim: 4,
                region_length: 0.2,
                phi: 0.5,
                seed: 7,
                ..SyntheticConfig::default()
            }
            .generate(),
        );
        assert!(engine.dataset().num_instances() >= 8_000);
        let constraints = ConstraintSet::weak_ranking(4, 2);
        let levels = crate::parallel::with_width(2, crate::parallel::fan_out_levels);
        let splits = (1u64 << levels) - 1;
        // One QueryScratch plus one seed and one traversal arena per split;
        // independent of the number of splits (tasks) the queries run.
        let budget = 1 + 2 * splits;
        let mut after_first = None;
        for _ in 0..20 {
            let _ = engine
                .query(&constraints)
                .algorithm(QueryAlgorithm::KdttPlus)
                .execution(Execution::Parallel { threads: 2 })
                .run();
            let misses = engine.serving_stats().scratch_misses;
            assert!(misses <= budget, "{misses} arenas, budget {budget}");
            assert_eq!(*after_first.get_or_insert(misses), misses);
        }
        // Every query split 2^levels − 1 times, each split taking a pooled
        // seed (the first query's too, from the warmed pool), and every query
        // after the first reused its QueryScratch: at least 159 checkouts
        // served by 15 arenas.
        assert!(
            engine.serving_stats().scratch_hits >= 19 + 20 * splits,
            "every split takes a pooled seed"
        );
    }

    #[test]
    fn batch_matches_one_at_a_time() {
        let engine = ArspEngine::new(
            SyntheticConfig {
                num_objects: 50,
                max_instances: 4,
                dim: 4,
                seed: 11,
                ..SyntheticConfig::default()
            }
            .generate(),
        );
        let sweep: Vec<ConstraintSet> = (1..4).map(|c| ConstraintSet::weak_ranking(4, c)).collect();
        let batch = engine.run_batch(&sweep);
        assert_eq!(batch.len(), sweep.len());
        for (constraints, outcome) in sweep.iter().zip(&batch) {
            let single = engine.query(constraints).run();
            assert_eq!(single.result().probs(), outcome.result().probs());
            assert_eq!(single.algorithm(), outcome.algorithm());
        }
    }

    #[test]
    #[should_panic]
    fn dual_on_linear_query_panics() {
        let engine = ArspEngine::new(paper_running_example());
        let constraints = ConstraintSet::weak_ranking(2, 1);
        let _ = engine
            .query(&constraints)
            .algorithm(QueryAlgorithm::Dual)
            .run();
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let engine = ArspEngine::new(paper_running_example()); // d = 2
        let constraints = ConstraintSet::weak_ranking(3, 1);
        let _ = engine.query(&constraints).run();
    }
}
