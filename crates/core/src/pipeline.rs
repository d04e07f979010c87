//! The one query pipeline behind every front, over the one artifact store.
//!
//! The static [`crate::engine::ArspEngine`], the mutable
//! [`crate::dynamic::DynamicArspEngine`], the serving layer's
//! [`crate::service::SnapshotPin`] and the cluster's
//! [`crate::cluster::ShardedService`] hand out one query builder, [`Query`],
//! and answer it the same way: resolve `Auto`
//! ([`crate::engine::auto_select`]), derive the linear constraints of a ratio
//! query when a general algorithm runs it, fetch the artifacts the chosen
//! algorithm needs, and run that algorithm's one flat kernel — at the
//! query's width when it asks for one. That body is
//! written once, here, and it fetches every artifact from one place: a
//! `ServingSnapshot` — one version's artifacts behind build-coalescing
//! caches — plus the `SharedArtifacts` every snapshot of one store shares
//! (the vertex enumerations, the scratch pools and the cache counters). The
//! static engine holds one snapshot over its frozen dataset; the dynamic
//! engine advances its current snapshot to each new version, delta-patching
//! the score matrices and LOOP orders forward, and the serving layer
//! publishes exactly that snapshot; the cluster serves each stitched union
//! as one more snapshot.
//!
//! Every artifact a snapshot hands out is bitwise equal to a cold build at
//! its version — built, seeded or patched forward — so every front returns
//! the cold result. The builder carries everything a query can ask for, and
//! its fault containment is the same on every front. A front supplies only
//! what is its own, through [`QueryFront`]: admission (a real limit only on
//! the service), how it pins the version it reads (the frozen snapshot, the
//! dynamic advance, the service pin or the cluster's union stitch) and its
//! view. Every outcome is a [`QueryOutcome`]: the result, the algorithm that
//! ran and why, the work counters, the timings and the object-level views,
//! plus the front's view.
//!
//! Per algorithm the artifact lookups run in one fixed sequence: `Auto` on
//! linear constraints looks the vertex enumeration up once to count the
//! preference region's vertices and the arm looks it up again; then LOOP
//! takes the score matrix and the order, the KDTT family the score matrix,
//! B&B the score matrix, the dataset and the R-tree, DUAL its per-object
//! index, ENUM the dataset.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::algorithms::bnb::{arsp_bnb_engine, build_instance_rtree};
use crate::algorithms::dual::{arsp_dual_flat_engine, build_dual_index};
use crate::algorithms::enumerate::arsp_enum;
use crate::algorithms::kd_asp::{KdVariant, KdWorkerPool};
use crate::algorithms::kdtt::arsp_kdtt_flat_engine;
use crate::algorithms::loop_scan::{
    arsp_loop_flat_engine, instance_order_from_scores, InstanceOrder, LoopScratch,
};
use crate::coalesce::{CoalesceCounters, CoalescingCache};
use crate::engine::{auto_select, Execution, QueryAlgorithm};
use crate::fault::{self, BuildTimeoutUnwind, QueryBudget, QueryError};
use crate::result::{top_k_ranked, ArspResult};
use crate::scorespace::ScoreMatrix;
use crate::scratch::{QueryScratch, ScratchPool};
use crate::stats::{CounterStats, PeakGaugeGuard, QueryCounters, ServingStats};
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::Arc;
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};
use arsp_geometry::fdom::LinearFDominance;
use arsp_index::{SharedAggregateForest, SharedRTree};

/// Bit-exact fingerprint of a constraint set: the vertex-enumeration cache
/// key.
fn constraint_key(constraints: &ConstraintSet) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + constraints.len() * (constraints.dim() + 1));
    key.push(constraints.dim() as u64);
    key.push(constraints.len() as u64);
    for c in constraints.constraints() {
        key.extend(c.coeffs.iter().map(|a| a.to_bits()));
        key.push(c.rhs.to_bits());
    }
    key
}

/// Bit-exact fingerprint of a preference-region vertex: the LOOP order cache
/// key.
fn omega_key(omega: &[f64]) -> Vec<u64> {
    omega.iter().map(|w| w.to_bits()).collect()
}

/// Bit-exact fingerprint of a whole vertex set: the score-matrix cache key
/// (the matrix depends on every vertex, not just the first).
fn vertices_key(fdom: &LinearFDominance) -> Vec<u64> {
    let mut key = Vec::with_capacity(1 + fdom.num_vertices() * fdom.vertices()[0].len());
    key.push(fdom.num_vertices() as u64);
    for v in fdom.vertices() {
        key.extend(v.iter().map(|w| w.to_bits()));
    }
    key
}

/// Rebuilds the row-oriented dataset (B&B and ENUM read it) from a columnar
/// snapshot. The flat store is a bit-for-bit copy of the snapshot dataset
/// (canonical order), so the rebuild round-trips every coordinate and
/// probability exactly — labels are dropped, which no algorithm reads.
pub(crate) fn dataset_from_flat(flat: &FlatStore) -> UncertainDataset {
    let mut dataset = UncertainDataset::new(flat.dim());
    for object in 0..flat.num_objects() {
        let instances = flat
            .object_instances(object)
            .map(|id| (flat.coords_of(id).to_vec(), flat.prob(id)))
            .collect();
        dataset.push_object(instances);
    }
    dataset
}

/// The constraints a query was built from.
#[derive(Clone, Copy)]
pub(crate) enum QueryConstraints<'q> {
    Linear(&'q ConstraintSet),
    /// Weight ratios (§IV): the only form DUAL accepts; every general
    /// algorithm runs the derived linear constraints.
    Ratio(&'q WeightRatio),
}

/// What [`execute`] needs of a [`Query`]: the constraints, the algorithm,
/// the execution mode and whether to count work.
pub(crate) struct QuerySpec<'q> {
    pub(crate) constraints: QueryConstraints<'q>,
    pub(crate) algorithm: QueryAlgorithm,
    pub(crate) execution: Execution,
    pub(crate) collect_stats: bool,
}

/// The scratch arenas a front lends its queries: one [`QueryScratch`] per
/// query, plus the per-worker arenas of the parallel LOOP and kd twins.
#[derive(Default)]
pub(crate) struct QueryPools {
    pub(crate) scratch: ScratchPool<QueryScratch>,
    pub(crate) loops: ScratchPool<LoopScratch>,
    pub(crate) kd: KdWorkerPool,
}

/// The query body every front runs: resolves `Auto`, fetches the chosen
/// algorithm's artifacts from `source` (in the sequence the
/// [module docs](self) list) and runs its flat kernel — at width `threads`
/// under `Execution::Parallel { threads > 0 }`, at the ambient rayon width
/// under `threads = 0`. The outcome carries the front's
/// `view`; [`Query::try_run`] fills in the rest.
///
/// # Panics
/// On a dimension mismatch, when DUAL is forced on linear constraints, and —
/// by the fault-containment unwinds [`Query::try_run`] classifies — when
/// `budget` expires or a deadline-bounded cache join times out.
pub(crate) fn execute<V>(
    source: &SnapshotSource<'_>,
    spec: &QuerySpec<'_>,
    budget: Option<&QueryBudget>,
    view: V,
) -> QueryOutcome<V> {
    let start = Instant::now();
    let flat = source.flat();
    let dim = match spec.constraints {
        QueryConstraints::Linear(cs) => cs.dim(),
        QueryConstraints::Ratio(r) => r.dim(),
    };
    assert_eq!(flat.dim(), dim, "dimension mismatch");
    // Surface an already-expired deadline (or external cancel) before
    // touching any cache.
    fault::poll(budget);
    let sink = spec.collect_stats.then(CounterStats::new);
    let stats = sink.as_ref();
    let parallel = matches!(spec.execution, Execution::Parallel { .. });

    let (algorithm, selection_reason) = match spec.algorithm {
        QueryAlgorithm::Auto => {
            // Ratio queries resolve without a lookup; linear ones need the
            // preference region's vertex count.
            let (score_dim, ratio) = match spec.constraints {
                QueryConstraints::Linear(cs) => (source.fdom(cs).num_vertices(), false),
                QueryConstraints::Ratio(_) => (0, true),
            };
            let (chosen, why) =
                auto_select(flat.num_objects(), flat.num_instances(), score_dim, ratio);
            (chosen, Some(why))
        }
        forced => (forced, None),
    };

    let derived = match spec.constraints {
        QueryConstraints::Ratio(r) if algorithm != QueryAlgorithm::Dual => {
            Some(r.to_constraint_set())
        }
        _ => None,
    };
    let linear = || match spec.constraints {
        QueryConstraints::Linear(cs) => cs,
        QueryConstraints::Ratio(_) => derived.as_ref().expect("derived for general algorithms"),
    };

    let run = || {
        let pools = source.pools();
        let mut scratch = pools.scratch.lease();
        match algorithm {
            QueryAlgorithm::Auto => unreachable!("Auto was resolved above"),
            QueryAlgorithm::Dual => {
                let QueryConstraints::Ratio(ratio) = spec.constraints else {
                    panic!(
                        "the DUAL algorithm needs weight-ratio constraints; \
                         build the query with ratio_query"
                    )
                };
                let index = source.dual_index();
                let run_start = Instant::now();
                let result = arsp_dual_flat_engine(&flat, ratio, &index, parallel, stats, budget);
                (result, run_start)
            }
            QueryAlgorithm::Enum => {
                let dataset = source.dataset();
                let run_start = Instant::now();
                (arsp_enum(&dataset, linear()), run_start)
            }
            QueryAlgorithm::Loop => {
                let fdom = source.fdom(linear());
                let scores = source.scores(&fdom);
                let order = source.order(&fdom, &scores);
                let run_start = Instant::now();
                let result = arsp_loop_flat_engine(
                    &flat,
                    &scores,
                    &order,
                    parallel,
                    stats,
                    Some(scratch.loop_mut()),
                    Some(&pools.loops),
                    budget,
                );
                (result, run_start)
            }
            QueryAlgorithm::Kdtt | QueryAlgorithm::KdttPlus | QueryAlgorithm::QdttPlus => {
                let variant = match algorithm {
                    QueryAlgorithm::Kdtt => KdVariant::Prebuilt,
                    QueryAlgorithm::QdttPlus => KdVariant::FusedQuad,
                    _ => KdVariant::FusedKd,
                };
                let fdom = source.fdom(linear());
                let scores = source.scores(&fdom);
                let run_start = Instant::now();
                let result = arsp_kdtt_flat_engine(
                    &flat,
                    &scores,
                    variant,
                    parallel,
                    stats,
                    scratch.kd_mut(),
                    Some(&pools.kd),
                    budget,
                );
                (result, run_start)
            }
            QueryAlgorithm::BranchAndBound => {
                let fdom = source.fdom(linear());
                let scores = source.scores(&fdom);
                let dataset = source.dataset();
                let rtree = source.rtree(&dataset);
                let run_start = Instant::now();
                let result = arsp_bnb_engine(
                    &dataset,
                    &fdom,
                    Some(&rtree),
                    Some(&scores),
                    parallel,
                    stats,
                    Some(scratch.bnb_mut()),
                    budget,
                );
                (result, run_start)
            }
        }
    };
    let (result, run_start) = match spec.execution {
        Execution::Parallel { threads } => crate::parallel::with_width(threads, run),
        Execution::Sequential => run(),
    };

    QueryOutcome {
        result,
        algorithm,
        selection_reason,
        counters: sink.map(|s| s.snapshot()),
        execution: spec.execution,
        build_time: run_start - start,
        run_time: run_start.elapsed(),
        total_time: Duration::ZERO,
        flat,
        top_objects: None,
        min_prob: None,
        view,
    }
}

/// The cache key of the per-snapshot singleton artifacts (dataset, R-tree,
/// DUAL index): one entry per snapshot, no constraint dependence.
const SINGLETON_KEY: &[u64] = &[];

/// An artifact derived under a preference region, cached together with the
/// vertex enumeration it was built from: the enumeration is what projects
/// new rows when the dynamic engine patches the artifact forward.
pub(crate) type Derived<T> = (Arc<LinearFDominance>, Arc<T>);

/// One version's artifacts behind build-coalescing caches — the one artifact
/// store. The static engine holds one over its frozen dataset, the dynamic
/// engine advances one per version (and the serving layer publishes exactly
/// that one), the cluster serves each stitched union as one. An artifact is
/// built lazily — and coalesced — by the first query that needs it, unless
/// it was seeded: patched forward from the previous version, or the static
/// engine's own dataset.
pub(crate) struct ServingSnapshot {
    pub(crate) version: u64,
    pub(crate) flat: Arc<FlatStore>,
    scores: CoalescingCache<Derived<ScoreMatrix>>,
    orders: CoalescingCache<Derived<InstanceOrder>>,
    dataset: CoalescingCache<Arc<UncertainDataset>>,
    rtree: CoalescingCache<SharedRTree>,
    dual: CoalescingCache<SharedAggregateForest>,
}

impl ServingSnapshot {
    /// The published score matrices, each with its vertex enumeration.
    /// In-flight builds are skipped, never waited on.
    pub(crate) fn ready_scores(&self) -> Vec<Derived<ScoreMatrix>> {
        self.scores.ready()
    }

    /// The published LOOP orders, each with an enumeration whose first
    /// vertex keys it. In-flight builds are skipped, never waited on.
    pub(crate) fn ready_orders(&self) -> Vec<Derived<InstanceOrder>> {
        self.orders.ready()
    }

    /// How many of the version-bound structures (dataset, R-tree, DUAL
    /// index) are published: what moving to another version drops.
    pub(crate) fn ready_indexes(&self) -> usize {
        self.dataset.ready().len() + self.rtree.ready().len() + self.dual.ready().len()
    }

    /// Publishes a score matrix bitwise equal to the cold build under `fdom`.
    pub(crate) fn seed_scores(&self, fdom: Arc<LinearFDominance>, matrix: Arc<ScoreMatrix>) {
        self.scores.seed(vertices_key(&fdom), (fdom, matrix));
    }

    /// Publishes a LOOP order bitwise equal to the cold build under `fdom`'s
    /// first vertex.
    pub(crate) fn seed_order(&self, fdom: Arc<LinearFDominance>, order: Arc<InstanceOrder>) {
        self.orders
            .seed(omega_key(&fdom.vertices()[0]), (fdom, order));
    }

    /// Publishes the row-oriented dataset of this snapshot.
    pub(crate) fn seed_dataset(&self, dataset: Arc<UncertainDataset>) {
        self.dataset.seed(SINGLETON_KEY.to_vec(), dataset);
    }
}

/// What every snapshot of one store shares: the version-independent vertex
/// enumerations, the scratch pools, the counters and rendezvous knob of
/// every coalescing cache, and the store's invalidation and merge counts. A
/// service's writer and readers share one; the cluster keeps one for all
/// its unions.
pub(crate) struct SharedArtifacts {
    fdoms: CoalescingCache<Arc<LinearFDominance>>,
    pub(crate) pools: QueryPools,
    coalesce: Arc<CoalesceCounters>,
    /// Joiners a builder waits for before publishing (`0` = publish at
    /// once; see `ArspService::set_coalescing_rendezvous`).
    pub(crate) rendezvous: Arc<AtomicUsize>,
    /// Cached structures a snapshot advance dropped as unpatchable.
    pub(crate) invalidated: AtomicU64,
    /// Store compactions.
    pub(crate) merges: AtomicU64,
}

impl SharedArtifacts {
    pub(crate) fn new() -> Self {
        let coalesce = Arc::new(CoalesceCounters::default());
        let rendezvous = Arc::new(AtomicUsize::new(0));
        Self {
            fdoms: CoalescingCache::new(&coalesce, &rendezvous),
            pools: QueryPools::default(),
            coalesce,
            rendezvous,
            invalidated: AtomicU64::new(0),
            merges: AtomicU64::new(0),
        }
    }

    fn cache<V: Clone>(&self) -> CoalescingCache<V> {
        CoalescingCache::new(&self.coalesce, &self.rendezvous)
    }

    /// An empty snapshot of `version` over `flat`: every artifact waits for
    /// a query that needs it, or for a seed.
    pub(crate) fn snapshot(&self, version: u64, flat: Arc<FlatStore>) -> ServingSnapshot {
        ServingSnapshot {
            version,
            flat,
            scores: self.cache(),
            orders: self.cache(),
            dataset: self.cache(),
            rtree: self.cache(),
            dual: self.cache(),
        }
    }

    /// `snapshot` and these shared caches as the [`SnapshotSource`] a query
    /// runs on, whose cache joins honour `budget`'s deadline.
    pub(crate) fn source<'a>(
        &'a self,
        snapshot: &'a ServingSnapshot,
        budget: Option<&QueryBudget>,
    ) -> SnapshotSource<'a> {
        SnapshotSource {
            snapshot,
            shared: self,
            deadline: budget.and_then(|b| b.deadline_instant()),
        }
    }

    /// The store fields of [`ServingStats`]: cache lookups answered, built
    /// and joined (a join counts under `coalesced_builds`, not as a build),
    /// the scratch pools' checkouts, invalidations and merges. Every other
    /// field is 0.
    pub(crate) fn stats(&self) -> ServingStats {
        let pools = &self.pools;
        ServingStats {
            cache_hits: self.coalesce.hits(),
            shared_builds: self.coalesce.builds(),
            coalesced_builds: self.coalesce.coalesced(),
            scratch_hits: pools.scratch.hits() + pools.loops.hits() + pools.kd.hits(),
            scratch_misses: pools.scratch.misses() + pools.loops.misses() + pools.kd.misses(),
            caches_invalidated: self.invalidated.load(Ordering::Relaxed),
            merges_performed: self.merges.load(Ordering::Relaxed),
            ..ServingStats::default()
        }
    }
}

/// A pinned snapshot plus its shared caches: where [`execute`] fetches a
/// query's artifacts. Each fetch returns the artifact bitwise equal to a
/// cold build at the snapshot's version — published, or built now and
/// coalesced with every concurrent request for it. A join on another
/// query's in-flight build waits at most until the query's deadline, then
/// detaches by unwinding with `BuildTimeoutUnwind`, which
/// [`Query::try_run`] classifies as [`QueryError::BuildTimeout`].
pub(crate) struct SnapshotSource<'a> {
    snapshot: &'a ServingSnapshot,
    shared: &'a SharedArtifacts,
    deadline: Option<Instant>,
}

impl SnapshotSource<'_> {
    fn join<V: Clone>(
        &self,
        cache: &CoalescingCache<V>,
        key: &[u64],
        build: impl FnOnce() -> V,
    ) -> V {
        match cache.get_or_build_deadline(key, self.deadline, build) {
            Ok(value) => value,
            Err(_) => std::panic::resume_unwind(Box::new(BuildTimeoutUnwind)),
        }
    }

    /// The columnar snapshot the kernels stream.
    fn flat(&self) -> Arc<FlatStore> {
        Arc::clone(&self.snapshot.flat)
    }

    /// The vertex enumeration of a constraint set (shared by every snapshot).
    fn fdom(&self, constraints: &ConstraintSet) -> Arc<LinearFDominance> {
        self.join(&self.shared.fdoms, &constraint_key(constraints), || {
            Arc::new(LinearFDominance::from_constraints(constraints))
        })
    }

    /// The score matrix under every vertex of `fdom`.
    fn scores(&self, fdom: &Arc<LinearFDominance>) -> Arc<ScoreMatrix> {
        let (_, matrix) = self.join(&self.snapshot.scores, &vertices_key(fdom), || {
            let matrix = ScoreMatrix::compute(&self.snapshot.flat, fdom);
            (Arc::clone(fdom), Arc::new(matrix))
        });
        matrix
    }

    /// LOOP's instance order under `fdom`'s first vertex.
    fn order(&self, fdom: &Arc<LinearFDominance>, scores: &ScoreMatrix) -> Arc<InstanceOrder> {
        let key = omega_key(&fdom.vertices()[0]);
        let (_, order) = self.join(&self.snapshot.orders, &key, || {
            (
                Arc::clone(fdom),
                Arc::new(instance_order_from_scores(scores)),
            )
        });
        order
    }

    /// The row-oriented dataset (B&B and ENUM).
    fn dataset(&self) -> Arc<UncertainDataset> {
        self.join(&self.snapshot.dataset, SINGLETON_KEY, || {
            Arc::new(dataset_from_flat(&self.snapshot.flat))
        })
    }

    /// B&B's instance R-tree over `dataset`.
    fn rtree(&self, dataset: &UncertainDataset) -> SharedRTree {
        self.join(&self.snapshot.rtree, SINGLETON_KEY, || {
            Arc::new(build_instance_rtree(dataset))
        })
    }

    /// DUAL's per-object aggregated R-trees.
    fn dual_index(&self) -> SharedAggregateForest {
        self.join(&self.snapshot.dual, SINGLETON_KEY, || {
            Arc::new(build_dual_index(&self.snapshot.flat))
        })
    }

    /// The scratch arenas queries lease.
    fn pools(&self) -> &QueryPools {
        &self.shared.pools
    }
}

/// A query under construction: the one builder every front hands out, from
/// `query(&constraints)` and `ratio_query(&ratio)` on
/// [`ArspEngine`](crate::engine::ArspEngine),
/// [`DynamicArspEngine`](crate::dynamic::DynamicArspEngine),
/// [`SnapshotPin`](crate::service::SnapshotPin) and
/// [`ShardedService`](crate::cluster::ShardedService). `F` is the front it
/// pins. Every setter is optional; finish with [`try_run`](Self::try_run)
/// for a typed error, or with [`run`](Self::run).
///
/// ```
/// use arsp_core::prelude::*;
/// use std::time::Duration;
///
/// let engine = ArspEngine::new(arsp_data::paper_running_example());
/// let constraints = ConstraintSet::weak_ranking(2, 1);
/// let outcome = engine
///     .query(&constraints)
///     .algorithm(QueryAlgorithm::KdttPlus)
///     .top_k(2)
///     .deadline(Duration::from_secs(60))
///     .try_run()
///     .expect("a minute is plenty");
/// assert_eq!(outcome.top_objects().unwrap().len(), 2);
/// ```
pub struct Query<'f, 'q, F> {
    pub(crate) front: &'f F,
    pub(crate) spec: QuerySpec<'q>,
    top_k: Option<usize>,
    min_prob: Option<f64>,
    deadline: Option<Duration>,
    budget: Option<&'q QueryBudget>,
    /// Set by the cluster's own `allow_partial`; no other front reads it.
    pub(crate) allow_partial: bool,
}

impl<'f, 'q, F: QueryFront> Query<'f, 'q, F> {
    /// An `Auto`, sequential, uncounted query on `front`.
    pub(crate) fn new(front: &'f F, constraints: QueryConstraints<'q>) -> Self {
        Self {
            front,
            spec: QuerySpec {
                constraints,
                algorithm: QueryAlgorithm::Auto,
                execution: Execution::Sequential,
                collect_stats: false,
            },
            top_k: None,
            min_prob: None,
            deadline: None,
            budget: None,
            allow_partial: false,
        }
    }

    /// Forces an algorithm (default: [`QueryAlgorithm::Auto`]). DUAL needs a
    /// `ratio_query`: forced on linear constraints, the query fails with
    /// [`QueryError::Panicked`].
    pub fn algorithm(mut self, algorithm: QueryAlgorithm) -> Self {
        self.spec.algorithm = algorithm;
        self
    }

    /// Chooses the execution mode (default: [`Execution::Sequential`]).
    /// Parallel execution is bitwise identical, only faster.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.spec.execution = execution;
        self
    }

    /// Collects work counters (F-dominance tests, tree nodes visited, window
    /// queries) into [`QueryOutcome::counters`]. Off by default — counting
    /// is cheap but not free.
    pub fn collect_stats(mut self, on: bool) -> Self {
        self.spec.collect_stats = on;
        self
    }

    /// Precomputes the top-`k` objects by rskyline probability into
    /// [`QueryOutcome::top_objects`].
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Sets the reporting threshold for [`QueryOutcome::iter_probs`] —
    /// triples below the threshold are skipped. The underlying
    /// [`ArspResult`] always keeps every probability.
    pub fn min_prob(mut self, threshold: f64) -> Self {
        self.min_prob = Some(threshold);
        self
    }

    /// Sets a wall-clock deadline, counted from the query's admission in
    /// [`try_run`](Self::try_run). It is checked before the front pins, so
    /// an expired one never advances the dynamic engine or restitches the
    /// cluster's union, and the kernels poll it cooperatively (per node /
    /// per instance / per heap pop). Expiry surfaces as
    /// [`QueryError::DeadlineExceeded`] — or as [`QueryError::BuildTimeout`]
    /// when it expires while joining another query's in-flight cache build.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Attaches a caller-owned [`QueryBudget`], for external cancellation
    /// (e.g. a client disconnect calling [`QueryBudget::cancel`] from
    /// another thread) and/or a deadline shared across several queries.
    /// Takes precedence over [`deadline`](Self::deadline).
    pub fn budget(mut self, budget: &'q QueryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Executes the query with fault containment, the same on every front.
    /// Admission comes first: only a service pin can shed, with
    /// [`QueryError::Overloaded`]. Then, under the query's budget, the front
    /// pins the version it reads and the pipeline runs. Deadline expiry and
    /// cancellation surface as [`QueryError::DeadlineExceeded`], a timed-out
    /// join on another query's cache build as [`QueryError::BuildTimeout`],
    /// a cluster shard that is down as [`QueryError::ShardUnavailable`], and
    /// any panic inside the query as [`QueryError::Panicked`]. In every
    /// error case the front stays fully usable — scratch returns through
    /// RAII leases, coalescing caches publish complete artifacts or nothing,
    /// pins are `Arc`s — and re-running the identical query yields results
    /// bitwise equal to a cold engine.
    pub fn try_run(self) -> Result<QueryOutcome<F::View>, QueryError> {
        let start = Instant::now();
        let _admitted = self.front.admit()?;
        let owned = self.deadline.map(QueryBudget::with_deadline);
        let budget = self.budget.or(owned.as_ref());
        // AssertUnwindSafe holds because shared query state is only touched
        // through unwind-safe structures (see above), so observing it after
        // a caught unwind cannot see a broken invariant.
        let answered = catch_unwind(AssertUnwindSafe(|| {
            fault::poll(budget);
            F::answer(&self, budget)
        }));
        let mut outcome = answered.map_err(|payload| fault::classify_unwind(payload, budget))??;
        outcome.top_objects = self.top_k.map(|k| outcome.top_k_objects(k));
        outcome.min_prob = self.min_prob;
        outcome.total_time = start.elapsed();
        Ok(outcome)
    }

    /// Executes the query without a typed error. On the engine, the dynamic
    /// engine and a service pin it returns the outcome, and panics where
    /// [`try_run`](Self::try_run) returns an error. On the cluster it returns
    /// `try_run`'s result as a [`PartialResult`](crate::cluster::PartialResult).
    pub fn run(self) -> F::Run {
        F::finish(self.try_run())
    }
}

/// What a front supplies to [`Query`]: admission, how it pins the version a
/// query reads, and its view on the outcome. The four fronts implement it.
pub trait QueryFront: Sized {
    /// The front's own part of every [`QueryOutcome`]: nothing on the
    /// static engine, the version answered at on the dynamic engine and a
    /// service pin, the answered and missing shards on the cluster.
    type View;

    /// What [`Query::run`] returns.
    type Run;

    /// Reserves an in-flight slot before the query's budget starts, or sheds
    /// the query with [`QueryError::Overloaded`]. Only the service has an
    /// admission limit; every other front admits every query.
    #[doc(hidden)]
    fn admit(&self) -> Result<Option<PeakGaugeGuard<'_>>, QueryError> {
        Ok(None)
    }

    /// Pins the version `query` reads and runs the pipeline on it under
    /// `budget`, inside the query's fault containment.
    #[doc(hidden)]
    fn answer(
        query: &Query<'_, '_, Self>,
        budget: Option<&QueryBudget>,
    ) -> Result<QueryOutcome<Self::View>, QueryError>;

    /// Turns [`Query::try_run`]'s result into [`Query::run`]'s.
    #[doc(hidden)]
    fn finish(outcome: Result<QueryOutcome<Self::View>, QueryError>) -> Self::Run;
}

/// [`QueryFront::finish`] of every front whose `run` returns the outcome.
pub(crate) fn expect_outcome<V>(outcome: Result<QueryOutcome<V>, QueryError>) -> QueryOutcome<V> {
    outcome.unwrap_or_else(|err| panic!("query failed: {err}; use try_run() for a typed error"))
}

/// The result of one query on any front: the probabilities plus how they
/// were computed, and the front's own view `V` —
/// [`ArspOutcome`](crate::engine::ArspOutcome),
/// [`DynamicOutcome`](crate::dynamic::DynamicOutcome),
/// [`ServiceOutcome`](crate::service::ServiceOutcome) and
/// [`ClusterOutcome`](crate::cluster::ClusterOutcome) name the four.
/// Instance and object ids are the snapshot's: the `i`-th live instance in
/// canonical order, exactly the ids a cold engine on that version's dataset
/// uses (on the cluster, the union's: answered shards in shard order).
pub struct QueryOutcome<V> {
    result: ArspResult,
    algorithm: QueryAlgorithm,
    selection_reason: Option<&'static str>,
    counters: Option<QueryCounters>,
    execution: Execution,
    build_time: Duration,
    run_time: Duration,
    total_time: Duration,
    /// The snapshot answered over: where the object-level views read
    /// object ids.
    flat: Arc<FlatStore>,
    top_objects: Option<Vec<(usize, f64)>>,
    min_prob: Option<f64>,
    pub(crate) view: V,
}

impl<V> QueryOutcome<V> {
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

    /// `true` when the query asked for `Auto` and the pipeline picked the
    /// algorithm.
    pub fn auto_selected(&self) -> bool {
        self.selection_reason.is_some()
    }

    /// Why the pipeline picked [`algorithm`](Self::algorithm); `None` when
    /// the query forced it.
    pub fn selection_reason(&self) -> Option<&'static str> {
        self.selection_reason
    }

    /// Rskyline probability of one (snapshot) instance.
    pub fn instance_prob(&self, instance: usize) -> f64 {
        self.result.instance_prob(instance)
    }

    /// Number of instances with non-zero rskyline probability.
    pub fn result_size(&self) -> usize {
        self.result.result_size()
    }

    /// Work counters, when the query asked for them via `collect_stats`.
    pub fn counters(&self) -> Option<QueryCounters> {
        self.counters
    }

    /// The execution mode the query requested.
    pub fn execution(&self) -> Execution {
        self.execution
    }

    /// Time spent building or fetching shared structures (vertex
    /// enumeration, score matrix, sort order, R-trees). Near zero on cache
    /// hits — the quantity a session amortises away.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Time spent inside the algorithm proper.
    pub fn run_time(&self) -> Duration {
        self.run_time
    }

    /// End-to-end wall-clock time of `try_run` (or `run`).
    pub fn total_time(&self) -> Duration {
        self.total_time
    }

    /// The precomputed top-`k` objects, when the query asked via `top_k`.
    pub fn top_objects(&self) -> Option<&[(usize, f64)]> {
        self.top_objects.as_deref()
    }

    /// Rskyline probability of one (snapshot) object: the sum of its
    /// instances' probabilities.
    pub fn object_prob(&self, object: usize) -> f64 {
        self.flat
            .object_instances(object)
            .fold(0.0, |sum, id| sum + self.result.instance_prob(id))
    }

    /// Iterates `(object, instance, probability)` triples in instance order,
    /// skipping entries below the query's `min_prob` threshold (all entries
    /// when none was set).
    pub fn iter_probs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let threshold = self.min_prob.unwrap_or(f64::NEG_INFINITY);
        self.result
            .probs()
            .iter()
            .enumerate()
            .map(|(id, &prob)| (self.flat.object_of(id), id, prob))
            .filter(move |&(_, _, prob)| prob >= threshold)
    }

    /// The `k` objects with the highest rskyline probability: bitwise what
    /// [`ArspResult::top_k_objects`] returns on the snapshot's dataset.
    fn top_k_objects(&self, k: usize) -> Vec<(usize, f64)> {
        let object_probs = (0..self.flat.num_objects())
            .map(|object| self.object_prob(object))
            .collect();
        top_k_ranked(object_probs, k)
    }
}
