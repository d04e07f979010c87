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
//!   [`LinearFDominance`] test — the `O(c²·LP)` one-off cost every algorithm
//!   pays), keyed by the constraint set's exact coefficients,
//! * the **flat columnar instance store** ([`FlatStore`] — the contiguous
//!   layout every sequential hot path streams; dataset-only, built once),
//! * the **projected score matrix** ([`ScoreMatrix`] — the `coords · ω`
//!   pass shared by LOOP, the KDTT family and B&B), keyed by the
//!   preference region's exact vertex set,
//! * the **LOOP instance order** (sorted by score under the preference
//!   region's first vertex), keyed by that vertex,
//! * the **instance R-tree** B&B traverses (dataset-only, built once),
//! * the **per-object aggregated R-trees** of DUAL (dataset-only, built
//!   once),
//! * a pool of **per-query scratch arenas** ([`QueryScratch`] — candidate
//!   stacks, σ buffers, heap storage), checked out per query, plus
//!   **per-worker arena pools** for the parallel twins (kd subtree arenas,
//!   LOOP chunk arenas — see [`crate::scratch::ScratchPool`]), so a
//!   warmed-up session allocates nothing per query or per worker task
//!   beyond the result vector.
//!
//! Every algorithm — under [`Execution::Sequential`] *and*
//! [`Execution::Parallel`] — runs its flat columnar path over these cached
//! structures; the `Point`-based layouts survive only in the free functions.
//!
//! Queries are built fluently and return an [`ArspOutcome`] that wraps the
//! [`ArspResult`] with the algorithm that ran (and why, if auto-selected),
//! wall-clock timings split into index/build and execution time, and optional
//! work counters:
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
//! across queries when the `parallel` feature is on, with all caches shared —
//! the per-query cost of a sweep drops to the traversal itself.
//!
//! Every execution path funnels into the same algorithm entry points as the
//! free functions ([`crate::arsp_kdtt_plus`] and friends), so engine results
//! are **bitwise identical** to theirs — checked end-to-end by the
//! `engine_agreement` integration test.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::algorithms::bnb::{arsp_bnb_engine, build_instance_rtree};
use crate::algorithms::dual::{arsp_dual_flat_engine, build_dual_index};
use crate::algorithms::enumerate::arsp_enum;
use crate::algorithms::kd_asp::{KdVariant, KdWorkerPool};
use crate::algorithms::kdtt::arsp_kdtt_flat_engine;
use crate::algorithms::loop_scan::{
    arsp_loop_flat_engine, instance_order_from_scores, InstanceOrder, LoopScratch,
};
use crate::algorithms::ArspAlgorithm;
use crate::fault::{self, QueryBudget, QueryError};
use crate::result::ArspResult;
use crate::scorespace::ScoreMatrix;
use crate::scratch::{QueryScratch, ScratchLease, ScratchPool};
use crate::stats::{CounterStats, QueryCounters};
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};
use arsp_geometry::fdom::LinearFDominance;
use arsp_index::{SharedAggregateForest, SharedRTree};

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

impl From<ArspAlgorithm> for QueryAlgorithm {
    fn from(a: ArspAlgorithm) -> Self {
        match a {
            ArspAlgorithm::Enum => QueryAlgorithm::Enum,
            ArspAlgorithm::Loop => QueryAlgorithm::Loop,
            ArspAlgorithm::Kdtt => QueryAlgorithm::Kdtt,
            ArspAlgorithm::KdttPlus => QueryAlgorithm::KdttPlus,
            ArspAlgorithm::QdttPlus => QueryAlgorithm::QdttPlus,
            ArspAlgorithm::BranchAndBound => QueryAlgorithm::BranchAndBound,
        }
    }
}

/// How a query executes: single-threaded, or with the algorithm's parallel
/// twin (bitwise-identical results — see [`crate::parallel`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Execution {
    /// Run on the calling thread.
    #[default]
    Sequential,
    /// Run the algorithm's parallel twin. `threads = 0` keeps the
    /// process-wide setting (all cores unless
    /// [`crate::parallel::set_num_threads`] narrowed it); a positive count
    /// runs this query inside a dedicated scoped worker pool of that size
    /// (a process-wide override, when set, still wins — and the global knob
    /// itself is never touched, so concurrent queries cannot interfere).
    Parallel {
        /// Worker-thread bound for this query; `0` = process-wide default.
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

/// Aggregate cache effectiveness counters (see [`ArspEngine::cache_stats`]
/// and [`crate::dynamic::DynamicArspEngine::cache_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cached structure (for the dynamic engine this
    /// includes structures *patched* forward to the current version — a
    /// patch reuses the cached artifact, it does not rebuild it).
    pub hits: u64,
    /// Lookups that had to build the structure.
    pub misses: u64,
    /// Scratch-pool checkouts served by a warmed arena (per-query
    /// [`QueryScratch`] plus the per-worker arenas of the parallel twins).
    pub scratch_hits: u64,
    /// Scratch-pool checkouts that had to create an arena — the total number
    /// of arenas the session ever built. Constant across a steady-state
    /// workload (zero arena growth), which is what the pool-reuse tests
    /// assert.
    pub scratch_misses: u64,
    /// Cached structures dropped because a dataset mutation made them
    /// unpatchable (the bulk-loaded instance R-tree, the DUAL per-object
    /// index, the materialised snapshot dataset). Always 0 for the static
    /// [`ArspEngine`].
    pub caches_invalidated: u64,
    /// Logarithmic-method merges performed: versioned-store compactions.
    /// Always 0 for the static [`ArspEngine`].
    pub merges_performed: u64,
    /// Queries in flight *right now*. Always 0 for the single-caller static
    /// and dynamic engines; live only for the concurrent serving layer
    /// (`crate::service::ArspService`).
    pub inflight: u64,
    /// Cache lookups that joined another thread's in-progress build instead
    /// of duplicating it (the serving layer's batch coalescing). Always 0
    /// for the static and dynamic engines, whose keyed caches race
    /// duplicate builds and discard the losers.
    pub coalesced_builds: u64,
    /// Superseded snapshots whose cached artifacts were reclaimed after
    /// their last epoch pin dropped. Always 0 outside the serving layer.
    pub snapshots_retired: u64,
    /// Epoch pins currently outstanding across all snapshot versions.
    /// Always 0 outside the serving layer.
    pub active_pins: u64,
    /// Standing-query change-set notifications enqueued
    /// (`crate::standing`). Always 0 for the static [`ArspEngine`], which
    /// has no subscriptions.
    pub notifications_delivered: u64,
    /// Surviving instances the standing dirty-set maintenance pass
    /// recomputed. Always 0 for the static [`ArspEngine`].
    pub dirty_instances_scanned: u64,
    /// Standing subscriptions that fell back to a full re-evaluation (dirty
    /// set over the cost threshold, or a change-log gap). Always 0 for the
    /// static [`ArspEngine`].
    pub standing_full_fallbacks: u64,
}

/// The shared structures, all built lazily on first use.
#[derive(Default)]
struct EngineCaches {
    /// Vertex enumerations keyed by the constraint set's exact coefficients.
    fdom: Mutex<HashMap<Vec<u64>, Arc<LinearFDominance>>>,
    /// LOOP sort orders keyed by the first preference-region vertex.
    orders: Mutex<HashMap<Vec<u64>, Arc<InstanceOrder>>>,
    /// Per-constraint projected score matrices, keyed by the full vertex set.
    scores: Mutex<HashMap<Vec<u64>, Arc<ScoreMatrix>>>,
    /// The columnar instance store every flat path streams (dataset-only).
    flat: OnceLock<Arc<FlatStore>>,
    /// The instance R-tree B&B traverses (dataset-only).
    rtree: OnceLock<SharedRTree>,
    /// DUAL's per-object aggregated R-trees (dataset-only).
    dual_index: OnceLock<SharedAggregateForest>,
    /// Pool of reusable per-query scratch arenas: one checkout per query, so
    /// `run_batch`'s concurrent queries grow it to the sweep's fan-out and
    /// then reuse those arenas for the rest of the session.
    scratch_pool: ScratchPool<QueryScratch>,
    /// Per-worker subtree arenas of the parallel KDTT-family flat twins.
    kd_pool: KdWorkerPool,
    /// Per-worker chunk arenas of the parallel flat LOOP scan.
    loop_pool: ScratchPool<LoopScratch>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EngineCaches {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Shared lookup shape for the keyed caches: hit under the lock, build
    /// **outside** it (so a cold batch constructs distinct keys concurrently
    /// instead of serialising on the mutex), re-lock to publish. Losing a
    /// build race counts as a hit — misses always equal structures actually
    /// cached.
    fn keyed<T>(
        &self,
        map: &Mutex<HashMap<Vec<u64>, Arc<T>>>,
        key: Vec<u64>,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        {
            let guard = map.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(value) = guard.get(&key) {
                self.hit();
                return Arc::clone(value);
            }
        }
        let value = Arc::new(build());
        let mut guard = map.lock().unwrap_or_else(|p| p.into_inner());
        match guard.entry(key) {
            std::collections::hash_map::Entry::Occupied(existing) => {
                // Another query built it while we did; keep the published one.
                self.hit();
                Arc::clone(existing.get())
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.miss();
                slot.insert(Arc::clone(&value));
                value
            }
        }
    }

    /// Shared lookup shape for the build-once caches: only the thread whose
    /// closure actually ran counts the miss — concurrent first queries count
    /// hits, keeping `misses == builds`.
    fn once<T>(&self, cell: &OnceLock<Arc<T>>, build: impl FnOnce() -> T) -> Arc<T> {
        if let Some(value) = cell.get() {
            self.hit();
            return Arc::clone(value);
        }
        let mut built = false;
        let value = cell.get_or_init(|| {
            built = true;
            Arc::new(build())
        });
        if built {
            self.miss();
        } else {
            self.hit();
        }
        Arc::clone(value)
    }
}

/// Bit-exact fingerprint of a constraint set, used as the fdom cache key
/// (shared with the dynamic engine).
pub(crate) fn constraint_key(constraints: &ConstraintSet) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + constraints.len() * (constraints.dim() + 1));
    key.push(constraints.dim() as u64);
    key.push(constraints.len() as u64);
    for c in constraints.constraints() {
        key.extend(c.coeffs.iter().map(|a| a.to_bits()));
        key.push(c.rhs.to_bits());
    }
    key
}

/// Bit-exact fingerprint of a preference-region vertex, used as the LOOP
/// order cache key (shared with the dynamic engine).
pub(crate) fn omega_key(omega: &[f64]) -> Vec<u64> {
    omega.iter().map(|w| w.to_bits()).collect()
}

/// Bit-exact fingerprint of a whole vertex set, used as the score-matrix
/// cache key (the matrix depends on every vertex, not just the first;
/// shared with the dynamic engine).
pub(crate) fn vertices_key(fdom: &LinearFDominance) -> Vec<u64> {
    let mut key = Vec::with_capacity(1 + fdom.num_vertices() * fdom.vertices()[0].len());
    key.push(fdom.num_vertices() as u64);
    for v in fdom.vertices() {
        key.extend(v.iter().map(|w| w.to_bits()));
    }
    key
}

/// A query-session engine over one uncertain dataset. Cheap to query
/// repeatedly: all constraint-independent structures and all per-constraint
/// one-off costs are cached inside (interior mutability — `&self` queries
/// compose with sharing the engine across threads).
pub struct ArspEngine {
    dataset: Arc<UncertainDataset>,
    caches: EngineCaches,
}

impl ArspEngine {
    /// Creates an engine owning the dataset. No index is built until a query
    /// needs it.
    pub fn new(dataset: UncertainDataset) -> Self {
        Self::from_arc(Arc::new(dataset))
    }

    /// Creates an engine over an already-shared dataset.
    pub fn from_arc(dataset: Arc<UncertainDataset>) -> Self {
        Self {
            dataset,
            caches: EngineCaches::default(),
        }
    }

    /// The dataset this engine serves.
    pub fn dataset(&self) -> &UncertainDataset {
        &self.dataset
    }

    /// A shared handle to the dataset (what [`ArspOutcome`]s carry).
    pub fn dataset_arc(&self) -> Arc<UncertainDataset> {
        Arc::clone(&self.dataset)
    }

    /// Starts a query under general linear constraints.
    ///
    /// # Panics
    /// `run()` panics if the constraint dimensionality differs from the
    /// dataset's, or if the preference region is empty.
    pub fn query<'e, 'q>(&'e self, constraints: &'q ConstraintSet) -> ArspQuery<'e, 'q> {
        ArspQuery::new(self, QueryConstraints::Linear(constraints))
    }

    /// Starts a query under weight-ratio constraints (§IV). Unlocks the DUAL
    /// algorithm — which `Auto` then selects — while remaining runnable with
    /// every general algorithm via the derived linear constraints.
    pub fn ratio_query<'e, 'q>(&'e self, ratio: &'q WeightRatio) -> ArspQuery<'e, 'q> {
        ArspQuery::new(self, QueryConstraints::Ratio(ratio))
    }

    /// Evaluates a constraint sweep with every cache shared across the batch,
    /// in parallel across queries when the `parallel` feature is enabled
    /// (each query itself runs sequentially — one level of fan-out). Outcomes
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
        let run_one =
            |constraints: &ConstraintSet| self.query(constraints).algorithm(algorithm).run();
        #[cfg(feature = "parallel")]
        {
            use rayon::prelude::*;
            crate::parallel::with_pool(|| sweep.par_iter().map(run_one).collect())
        }
        #[cfg(not(feature = "parallel"))]
        {
            sweep.iter().map(run_one).collect()
        }
    }

    /// Aggregate hit/miss counters over all internal caches — how much index
    /// construction the session has amortised so far — plus the scratch-pool
    /// counters (how much working-memory allocation it has amortised). A
    /// repeated query adds only hits, which is what the cache-reuse and
    /// pool-reuse tests assert.
    pub fn cache_stats(&self) -> CacheStats {
        let caches = &self.caches;
        CacheStats {
            hits: caches.hits.load(Ordering::Relaxed),
            misses: caches.misses.load(Ordering::Relaxed),
            scratch_hits: caches.scratch_pool.hits()
                + caches.kd_pool.hits()
                + caches.loop_pool.hits(),
            scratch_misses: caches.scratch_pool.misses()
                + caches.kd_pool.misses()
                + caches.loop_pool.misses(),
            // A frozen dataset never invalidates, scans no delta, merges
            // nothing — these counters belong to the dynamic engine — and a
            // single-caller engine neither coalesces nor pins snapshots —
            // those belong to the serving layer.
            caches_invalidated: 0,
            merges_performed: 0,
            inflight: 0,
            coalesced_builds: 0,
            snapshots_retired: 0,
            active_pins: 0,
            // A frozen engine holds no subscriptions either — the standing
            // counters belong to `crate::standing`.
            notifications_delivered: 0,
            dirty_instances_scanned: 0,
            standing_full_fallbacks: 0,
        }
    }

    /// Cached vertex enumeration for a constraint set.
    fn fdom_for(&self, constraints: &ConstraintSet) -> Arc<LinearFDominance> {
        self.caches
            .keyed(&self.caches.fdom, constraint_key(constraints), || {
                LinearFDominance::from_constraints(constraints)
            })
    }

    /// The cached columnar instance store (dataset-only; built on the first
    /// query that runs a flat path).
    fn flat(&self) -> Arc<FlatStore> {
        self.caches
            .once(&self.caches.flat, || FlatStore::from_dataset(&self.dataset))
    }

    /// Cached projected-score matrix for a constraint set's vertex set — the
    /// one `coords · ω` pass shared by LOOP, the KDTT family and B&B.
    fn scores_for(&self, fdom: &LinearFDominance) -> Arc<ScoreMatrix> {
        let flat = self.flat();
        self.caches
            .keyed(&self.caches.scores, vertices_key(fdom), || {
                ScoreMatrix::compute(&flat, fdom)
            })
    }

    /// Cached LOOP sort order for a preference region's first vertex,
    /// derived from the cached score matrix (bitwise the same keys as
    /// recomputing the dot products).
    fn order_for(&self, fdom: &LinearFDominance, scores: &ScoreMatrix) -> Arc<InstanceOrder> {
        self.caches
            .keyed(&self.caches.orders, omega_key(&fdom.vertices()[0]), || {
                instance_order_from_scores(scores)
            })
    }

    /// The shared instance R-tree (built on first B&B query).
    fn rtree(&self) -> SharedRTree {
        self.caches
            .once(&self.caches.rtree, || build_instance_rtree(&self.dataset))
    }

    /// Checks a reusable scratch arena out of the pool as an RAII lease (a
    /// fresh arena when the pool is empty — e.g. the first query, or
    /// concurrent queries exceeding the number of arenas warmed so far). The
    /// lease returns the arena on drop even when the query unwinds, so a
    /// cancelled or panicked query never shrinks the pool.
    fn scratch_lease(&self) -> ScratchLease<'_, QueryScratch> {
        self.caches.scratch_pool.lease()
    }

    /// The shared DUAL per-object index (built on first DUAL query).
    fn dual_index(&self, flat: &FlatStore) -> SharedAggregateForest {
        self.caches
            .once(&self.caches.dual_index, || build_dual_index(flat))
    }
}

/// The constraints a query was built from.
enum QueryConstraints<'q> {
    Linear(&'q ConstraintSet),
    Ratio(&'q WeightRatio),
}

/// A fluent query under construction — see the [module docs](self) for the
/// full chain. Finish with [`ArspQuery::run`].
pub struct ArspQuery<'e, 'q> {
    engine: &'e ArspEngine,
    constraints: QueryConstraints<'q>,
    algorithm: QueryAlgorithm,
    execution: Execution,
    top_k: Option<usize>,
    min_prob: Option<f64>,
    collect_stats: bool,
    deadline: Option<Duration>,
    budget: Option<&'q QueryBudget>,
}

impl<'e, 'q> ArspQuery<'e, 'q> {
    fn new(engine: &'e ArspEngine, constraints: QueryConstraints<'q>) -> Self {
        Self {
            engine,
            constraints,
            algorithm: QueryAlgorithm::Auto,
            execution: Execution::Sequential,
            top_k: None,
            min_prob: None,
            collect_stats: false,
            deadline: None,
            budget: None,
        }
    }

    /// Forces an algorithm (default: [`QueryAlgorithm::Auto`]). Accepts
    /// [`ArspAlgorithm`] values too.
    ///
    /// # Panics
    /// `run()` panics if [`QueryAlgorithm::Dual`] is forced on a non-ratio
    /// query.
    pub fn algorithm(mut self, algorithm: impl Into<QueryAlgorithm>) -> Self {
        self.algorithm = algorithm.into();
        self
    }

    /// Chooses the execution mode (default: [`Execution::Sequential`]).
    /// Parallel execution is bitwise identical, only faster.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Precomputes the top-`k` objects by rskyline probability into the
    /// outcome ([`ArspOutcome::top_objects`]).
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Sets the reporting threshold for [`ArspOutcome::iter_probs`] — triples
    /// below the threshold are skipped. The underlying [`ArspResult`] always
    /// keeps every probability.
    pub fn min_prob(mut self, threshold: f64) -> Self {
        self.min_prob = Some(threshold);
        self
    }

    /// Collects work counters (F-dominance tests, tree nodes visited, window
    /// queries) into [`ArspOutcome::counters`]. Off by default — counting is
    /// cheap but not free.
    pub fn collect_stats(mut self, on: bool) -> Self {
        self.collect_stats = on;
        self
    }

    /// Sets a wall-clock deadline for the query. The flat kernels poll it
    /// cooperatively (per node / per instance / per heap pop); when it
    /// expires, [`try_run`](Self::try_run) returns
    /// [`QueryError::DeadlineExceeded`] and every cache, pool and scratch
    /// arena is left reusable and uncorrupted — the next identical query is
    /// bitwise equal to a cold rebuild.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Attaches a caller-owned [`QueryBudget`], for external cancellation
    /// (e.g. a client disconnect calling [`QueryBudget::cancel`] from
    /// another thread) and/or a shared deadline across several queries.
    /// Takes precedence over [`deadline`](Self::deadline).
    pub fn budget(mut self, budget: &'q QueryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Executes the query and returns the outcome.
    ///
    /// # Panics
    /// Panics if the query carries a deadline or budget that expires — use
    /// [`try_run`](Self::try_run) for a typed error instead.
    pub fn run(self) -> ArspOutcome {
        if self.deadline.is_some() || self.budget.is_some() {
            return self.try_run().unwrap_or_else(|err| {
                panic!("query failed: {err}; use try_run() for a typed error")
            });
        }
        self.run_inner(None)
    }

    /// Executes the query with fault containment: deadline expiry and
    /// cancellation surface as [`QueryError::DeadlineExceeded`], and any
    /// panic inside the query is caught at this boundary and surfaced as
    /// [`QueryError::Panicked`]. In every error case the engine remains
    /// fully usable: RAII leases return scratch arenas, cache builds either
    /// completed or were never published, and re-running the identical
    /// query yields results bitwise equal to a cold engine.
    pub fn try_run(mut self) -> Result<ArspOutcome, QueryError> {
        let owned = self.deadline.take().map(QueryBudget::with_deadline);
        let external = self.budget.take();
        let budget = external.or(owned.as_ref());
        // AssertUnwindSafe: the engine's shared state is only touched through
        // unwind-safe structures — coalescing/once caches publish complete
        // values or nothing, and scratch travels in an RAII lease — so
        // observing it after a caught unwind cannot see a broken invariant.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_inner(budget)));
        outcome.map_err(|payload| fault::classify_unwind(payload, budget))
    }

    /// The query body shared by [`run`](Self::run) and
    /// [`try_run`](Self::try_run).
    fn run_inner(self, budget: Option<&QueryBudget>) -> ArspOutcome {
        let total_start = Instant::now();
        let engine = self.engine;
        let dataset = &*engine.dataset;
        let dim = match &self.constraints {
            QueryConstraints::Linear(cs) => cs.dim(),
            QueryConstraints::Ratio(r) => r.dim(),
        };
        assert_eq!(dataset.dim(), dim, "dimension mismatch");

        let sink = if self.collect_stats {
            Some(CounterStats::new())
        } else {
            None
        };
        let stats = sink.as_ref();
        let parallel = matches!(self.execution, Execution::Parallel { .. });

        // Resolve Auto. Ratio queries resolve without touching any cache;
        // linear queries need the vertex count, so the (cached) vertex
        // enumeration is the first build step.
        let mut build_time = Duration::ZERO;
        let mut prefetched_fdom: Option<Arc<LinearFDominance>> = None;
        let (algorithm, selection_reason) = match self.algorithm {
            QueryAlgorithm::Auto => match &self.constraints {
                QueryConstraints::Ratio(_) => {
                    let (a, why) =
                        auto_select(dataset.num_objects(), dataset.num_instances(), 0, true);
                    (a, Some(why))
                }
                QueryConstraints::Linear(cs) => {
                    let build_start = Instant::now();
                    let fdom = engine.fdom_for(cs);
                    build_time += build_start.elapsed();
                    let (a, why) = auto_select(
                        dataset.num_objects(),
                        dataset.num_instances(),
                        fdom.num_vertices(),
                        false,
                    );
                    // Hand the Arc to the execute arm so the same query does
                    // not pay a second cache round-trip (or count a bogus
                    // extra hit).
                    prefetched_fdom = Some(fdom);
                    (a, Some(why))
                }
            },
            forced => (forced, None),
        };
        let fdom_for_query = move |build_time: &mut Duration, cs: &ConstraintSet| {
            prefetched_fdom.unwrap_or_else(|| {
                let build_start = Instant::now();
                let fdom = engine.fdom_for(cs);
                *build_time += build_start.elapsed();
                fdom
            })
        };

        // Materialise the linear constraint set when a general algorithm runs
        // a ratio query.
        let derived;
        let linear: Option<&ConstraintSet> = match (&self.constraints, algorithm) {
            (_, QueryAlgorithm::Dual) => None,
            (QueryConstraints::Linear(cs), _) => Some(cs),
            (QueryConstraints::Ratio(r), _) => {
                derived = r.to_constraint_set();
                Some(&derived)
            }
        };

        // Reusable per-query working memory, leased from the engine's pool
        // and returned when the lease drops — including through an unwind
        // (warm pools make the sequential hot paths allocation-free).
        let mut scratch = engine.scratch_lease();

        // The algorithm body, run either directly or — for a per-query
        // thread bound — inside a dedicated scoped pool. A scoped pool never
        // touches the process-wide `set_num_threads` knob, so concurrent
        // queries cannot race each other's settings and a panicking query
        // leaks nothing.
        let execute = |build_time: &mut Duration, scratch: &mut QueryScratch| {
            let run_start;
            let result = match algorithm {
                QueryAlgorithm::Auto => unreachable!("Auto was resolved above"),
                QueryAlgorithm::Dual => {
                    let ratio = match &self.constraints {
                        QueryConstraints::Ratio(r) => *r,
                        QueryConstraints::Linear(_) => panic!(
                            "the DUAL algorithm needs weight-ratio constraints; \
                         build the query with ArspEngine::ratio_query"
                        ),
                    };
                    let build_start = Instant::now();
                    let flat = engine.flat();
                    let index = engine.dual_index(&flat);
                    *build_time += build_start.elapsed();
                    run_start = Instant::now();
                    arsp_dual_flat_engine(&flat, ratio, &index, parallel, stats, budget)
                }
                QueryAlgorithm::Enum => {
                    let cs = linear.expect("linear constraints materialised above");
                    run_start = Instant::now();
                    arsp_enum(dataset, cs)
                }
                QueryAlgorithm::Loop => {
                    let cs = linear.expect("linear constraints materialised above");
                    let fdom = fdom_for_query(build_time, cs);
                    let build_start = Instant::now();
                    let flat = engine.flat();
                    let scores = engine.scores_for(&fdom);
                    let order = engine.order_for(&fdom, &scores);
                    *build_time += build_start.elapsed();
                    run_start = Instant::now();
                    arsp_loop_flat_engine(
                        &flat,
                        &scores,
                        &order,
                        parallel,
                        stats,
                        Some(scratch.loop_mut()),
                        Some(&engine.caches.loop_pool),
                        budget,
                    )
                }
                QueryAlgorithm::Kdtt | QueryAlgorithm::KdttPlus | QueryAlgorithm::QdttPlus => {
                    let cs = linear.expect("linear constraints materialised above");
                    let variant = match algorithm {
                        QueryAlgorithm::Kdtt => KdVariant::Prebuilt,
                        QueryAlgorithm::QdttPlus => KdVariant::FusedQuad,
                        _ => KdVariant::FusedKd,
                    };
                    let fdom = fdom_for_query(build_time, cs);
                    let build_start = Instant::now();
                    let flat = engine.flat();
                    let scores = engine.scores_for(&fdom);
                    *build_time += build_start.elapsed();
                    run_start = Instant::now();
                    arsp_kdtt_flat_engine(
                        &flat,
                        &scores,
                        variant,
                        parallel,
                        stats,
                        scratch.kd_mut(),
                        Some(&engine.caches.kd_pool),
                        budget,
                    )
                }
                QueryAlgorithm::BranchAndBound => {
                    let cs = linear.expect("linear constraints materialised above");
                    let fdom = fdom_for_query(build_time, cs);
                    let build_start = Instant::now();
                    let rtree = engine.rtree();
                    let scores = engine.scores_for(&fdom);
                    *build_time += build_start.elapsed();
                    run_start = Instant::now();
                    arsp_bnb_engine(
                        dataset,
                        &fdom,
                        Some(&rtree),
                        Some(&scores),
                        parallel,
                        stats,
                        Some(scratch.bnb_mut()),
                        budget,
                    )
                }
            };
            (result, run_start.elapsed())
        };

        let (result, run_time) = match self.execution {
            #[cfg(feature = "parallel")]
            Execution::Parallel { threads } if threads > 0 => {
                crate::parallel::with_pool_sized(threads, || execute(&mut build_time, &mut scratch))
            }
            _ => execute(&mut build_time, &mut scratch),
        };
        drop(scratch);

        let top_objects = self.top_k.map(|k| result.top_k_objects(dataset, k));
        ArspOutcome {
            dataset: engine.dataset_arc(),
            result,
            algorithm,
            selection_reason,
            execution: self.execution,
            build_time,
            run_time,
            total_time: total_start.elapsed(),
            counters: sink.map(|s| s.snapshot()),
            top_objects,
            min_prob: self.min_prob,
        }
    }
}

/// The result of one engine query: the probabilities plus everything worth
/// knowing about how they were computed.
pub struct ArspOutcome {
    dataset: Arc<UncertainDataset>,
    result: ArspResult,
    algorithm: QueryAlgorithm,
    selection_reason: Option<&'static str>,
    execution: Execution,
    build_time: Duration,
    run_time: Duration,
    total_time: Duration,
    counters: Option<QueryCounters>,
    top_objects: Option<Vec<(usize, f64)>>,
    min_prob: Option<f64>,
}

impl ArspOutcome {
    /// The computed probabilities.
    pub fn result(&self) -> &ArspResult {
        &self.result
    }

    /// Consumes the outcome, keeping only the probabilities.
    pub fn into_result(self) -> ArspResult {
        self.result
    }

    /// The algorithm that ran (never [`QueryAlgorithm::Auto`]).
    pub fn algorithm(&self) -> QueryAlgorithm {
        self.algorithm
    }

    /// `true` when the engine picked the algorithm (the query asked for
    /// `Auto`).
    pub fn auto_selected(&self) -> bool {
        self.selection_reason.is_some()
    }

    /// Why the engine picked [`ArspOutcome::algorithm`]; `None` when the
    /// query forced it.
    pub fn selection_reason(&self) -> Option<&'static str> {
        self.selection_reason
    }

    /// The execution mode the query requested.
    pub fn execution(&self) -> Execution {
        self.execution
    }

    /// Time spent building or fetching shared structures (vertex
    /// enumeration, R-trees, sort orders). Near zero on cache hits — the
    /// quantity a session amortises away.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Time spent inside the algorithm proper.
    pub fn run_time(&self) -> Duration {
        self.run_time
    }

    /// End-to-end wall-clock time of `run()`.
    pub fn total_time(&self) -> Duration {
        self.total_time
    }

    /// Work counters, when the query asked for them via `collect_stats`.
    pub fn counters(&self) -> Option<QueryCounters> {
        self.counters
    }

    /// The precomputed top-`k` objects, when the query asked via `top_k`.
    pub fn top_objects(&self) -> Option<&[(usize, f64)]> {
        self.top_objects.as_deref()
    }

    /// Rskyline probability of one instance.
    pub fn instance_prob(&self, instance: usize) -> f64 {
        self.result.instance_prob(instance)
    }

    /// Rskyline probability of one uncertain object.
    pub fn object_prob(&self, object: usize) -> f64 {
        self.result.object_prob(&self.dataset, object)
    }

    /// Iterates `(object, instance, probability)` triples, skipping entries
    /// below the query's `min_prob` threshold (all entries when none was
    /// set).
    pub fn iter_probs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let threshold = self.min_prob.unwrap_or(f64::NEG_INFINITY);
        self.result
            .iter_probs(&self.dataset)
            .filter(move |&(_, _, p)| p >= threshold)
    }

    /// Number of instances with non-zero rskyline probability.
    pub fn result_size(&self) -> usize {
        self.result.result_size()
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
    fn forced_algorithms_and_arsp_algorithm_conversion() {
        let engine = ArspEngine::new(paper_running_example());
        let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let reference = engine.query(&constraints).run();
        for algo in ArspAlgorithm::ALL {
            let outcome = engine.query(&constraints).algorithm(algo).run();
            assert!(!outcome.auto_selected());
            assert_eq!(outcome.algorithm(), QueryAlgorithm::from(algo));
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
        let after_first = engine.cache_stats();
        assert!(after_first.misses >= 2, "fdom + rtree must be built");

        let second = engine
            .query(&constraints)
            .algorithm(QueryAlgorithm::BranchAndBound)
            .run();
        let after_second = engine.cache_stats();
        assert_eq!(
            after_first.misses, after_second.misses,
            "the repeat query must not rebuild anything"
        );
        assert!(after_second.hits > after_first.hits);
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
            // The per-query bound uses a scoped pool, so the process-wide
            // knob is never touched (no knob_lock needed).
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
        let after_first = engine.cache_stats();
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
        let steady = engine.cache_stats();
        assert_eq!(
            after_first.scratch_misses, steady.scratch_misses,
            "steady-state queries must not build new arenas"
        );
        assert_eq!(steady.scratch_hits, after_first.scratch_hits + 3);
    }

    #[cfg(feature = "parallel")]
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
        let warm = engine.cache_stats();
        for _ in 0..8 {
            run_par();
        }
        let steady = engine.cache_stats();
        // Arena growth is bounded by the concurrency high-water mark, never
        // by the query count: one QueryScratch (repeats reuse it) plus at
        // most two concurrent kd subtree arenas (threads = 2 → one fan-out
        // level), no matter how many queries ran. Whether the second subtree
        // arena ever materialises depends on scheduling (the first subtree
        // may return its arena before the second checks one out), so the
        // bound — not an exact count — is the deterministic claim.
        assert!(
            steady.scratch_misses <= 3,
            "worker-arena growth must be bounded by the concurrency \
             high-water mark, got {} arenas",
            steady.scratch_misses
        );
        assert!(
            steady.scratch_hits >= warm.scratch_hits + 8,
            "every repeat query must reuse at least its QueryScratch arena"
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
