//! The one query pipeline behind every front.
//!
//! The static [`crate::engine::ArspEngine`], the mutable
//! [`crate::dynamic::DynamicArspEngine`] and the serving layer's
//! [`crate::service::SnapshotPin`] answer a query the same way: resolve
//! `Auto` ([`crate::engine::auto_select`]), derive the linear constraints of
//! a ratio query when a general algorithm runs it, fetch the artifacts the
//! chosen algorithm needs, and run that algorithm's one flat kernel — inside
//! a scoped worker pool when the query asks for a thread bound. That body is
//! written once, here. The fronts differ only in where the artifacts come
//! from:
//!
//! * a **pinned snapshot** — one version's artifacts behind build-coalescing
//!   caches, plus the vertex enumerations and scratch pools every snapshot
//!   of a service shares. The serving layer publishes one per version; the
//!   static engine holds one over its frozen dataset;
//! * the **dynamic engine's snapshot state**, advanced to the store's
//!   current version with its score matrices and LOOP orders delta-patched
//!   forward. Standing-query refreshes run through it as ordinary queries.
//!
//! Both sources hand out artifacts bitwise equal to a cold build at their
//! version, so every front returns the cold result. Each front's builder
//! keeps only its own extras (the engine's `top_k`/`min_prob` views, the
//! dynamic engine's row map, the service's version, admission and query
//! counter), and every outcome is a [`QueryOutcome`]: the result, the
//! algorithm that ran and why, the work counters and the build/run times,
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
use crate::dynamic::SnapshotExport;
use crate::engine::{auto_select, CacheStats, Execution, QueryAlgorithm};
use crate::fault::{self, BuildTimeoutUnwind, QueryBudget, QueryError};
use crate::result::ArspResult;
use crate::scorespace::ScoreMatrix;
use crate::scratch::{QueryScratch, ScratchPool};
use crate::stats::{CounterStats, QueryCounters};
use crate::sync::atomic::AtomicUsize;
use crate::sync::Arc;
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};
use arsp_geometry::fdom::LinearFDominance;
use arsp_index::{SharedAggregateForest, SharedRTree};

/// Bit-exact fingerprint of a constraint set: the vertex-enumeration cache
/// key.
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

/// Bit-exact fingerprint of a preference-region vertex: the LOOP order cache
/// key.
pub(crate) fn omega_key(omega: &[f64]) -> Vec<u64> {
    omega.iter().map(|w| w.to_bits()).collect()
}

/// Bit-exact fingerprint of a whole vertex set: the score-matrix cache key
/// (the matrix depends on every vertex, not just the first).
pub(crate) fn vertices_key(fdom: &LinearFDominance) -> Vec<u64> {
    let mut key = Vec::with_capacity(1 + fdom.num_vertices() * fdom.vertices()[0].len());
    key.push(fdom.num_vertices() as u64);
    for v in fdom.vertices() {
        key.extend(v.iter().map(|w| w.to_bits()));
    }
    key
}

/// Rebuilds the row-oriented dataset from a columnar snapshot. The flat
/// store is a bit-for-bit copy of the snapshot dataset (canonical order), so
/// the rebuild round-trips every coordinate and probability exactly — labels
/// are dropped, which no algorithm reads. (Also the cross-shard merge's
/// bridge from a stitched union [`FlatStore`] back to a servable dataset —
/// see [`crate::cluster`].)
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

/// What every front's builder collects before it runs: the constraints, the
/// algorithm, the execution mode and whether to count work.
pub(crate) struct QuerySpec<'q> {
    pub(crate) constraints: QueryConstraints<'q>,
    pub(crate) algorithm: QueryAlgorithm,
    pub(crate) execution: Execution,
    pub(crate) collect_stats: bool,
}

impl<'q> QuerySpec<'q> {
    /// An `Auto`, sequential, uncounted query.
    pub(crate) fn new(constraints: QueryConstraints<'q>) -> Self {
        Self {
            constraints,
            algorithm: QueryAlgorithm::Auto,
            execution: Execution::Sequential,
            collect_stats: false,
        }
    }
}

/// The scratch arenas a front lends its queries: one [`QueryScratch`] per
/// query, plus the per-worker arenas of the parallel LOOP and kd twins.
#[derive(Default)]
pub(crate) struct QueryPools {
    pub(crate) scratch: ScratchPool<QueryScratch>,
    pub(crate) loops: ScratchPool<LoopScratch>,
    pub(crate) kd: KdWorkerPool,
}

impl QueryPools {
    /// The pools' checkout counters in the [`CacheStats`] shape (every other
    /// field zero).
    pub(crate) fn cache_stats(&self) -> CacheStats {
        CacheStats {
            scratch_hits: self.scratch.hits() + self.loops.hits() + self.kd.hits(),
            scratch_misses: self.scratch.misses() + self.loops.misses() + self.kd.misses(),
            ..CacheStats::default()
        }
    }
}

/// Where [`execute`] fetches a query's artifacts. Every method returns the
/// artifact bitwise equal to a cold build at the source's version — cached,
/// patched forward or freshly built — so the kernels cannot tell sources
/// apart. `Sync` because a thread-bounded query runs on a worker pool's
/// thread.
pub(crate) trait ArtifactSource: Sync {
    /// The columnar snapshot the kernels stream.
    fn flat(&self) -> Arc<FlatStore>;
    /// The vertex enumeration of a constraint set.
    fn fdom(&self, constraints: &ConstraintSet) -> Arc<LinearFDominance>;
    /// The score matrix under every vertex of `fdom`.
    fn scores(&self, fdom: &Arc<LinearFDominance>) -> Arc<ScoreMatrix>;
    /// LOOP's instance order under `fdom`'s first vertex.
    fn order(&self, fdom: &LinearFDominance, scores: &ScoreMatrix) -> Arc<InstanceOrder>;
    /// The row-oriented dataset (B&B and ENUM).
    fn dataset(&self) -> Arc<UncertainDataset>;
    /// B&B's instance R-tree over `dataset`.
    fn rtree(&self, dataset: &UncertainDataset) -> SharedRTree;
    /// DUAL's per-object aggregated R-trees.
    fn dual_index(&self) -> SharedAggregateForest;
    /// The scratch arenas queries lease.
    fn pools(&self) -> &QueryPools;
}

/// The query body every front runs: resolves `Auto`, fetches the chosen
/// algorithm's artifacts from `source` (in the sequence the
/// [module docs](self) list) and runs its flat kernel — inside a scoped pool
/// of `threads` workers under `Execution::Parallel { threads > 0 }`, which
/// never touches the process-wide knob. The outcome carries no view yet.
///
/// # Panics
/// On a dimension mismatch, when DUAL is forced on linear constraints, and —
/// by the fault-containment unwinds the fronts' `try_run` classifies — when
/// `budget` expires or a deadline-bounded cache join times out.
pub(crate) fn execute(
    source: &dyn ArtifactSource,
    spec: &QuerySpec<'_>,
    budget: Option<&QueryBudget>,
) -> QueryOutcome<()> {
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
        #[cfg(feature = "parallel")]
        Execution::Parallel { threads } if threads > 0 => {
            crate::parallel::with_pool_sized(threads, run)
        }
        _ => run(),
    };

    QueryOutcome {
        result,
        algorithm,
        selection_reason,
        counters: sink.map(|s| s.snapshot()),
        build_time: run_start - start,
        run_time: run_start.elapsed(),
        view: (),
    }
}

/// Fault containment for the fronts' `try_run`: runs `body` under the
/// caller's budget (else one owned for `deadline`) and turns any unwind out
/// of it into a typed [`QueryError`]. AssertUnwindSafe holds because shared
/// query state is only touched through unwind-safe structures — coalescing
/// caches publish complete artifacts or nothing (and un-claim on unwind),
/// scratch travels in RAII leases, epoch pins in RAII guards — so observing
/// it after a caught unwind cannot see a broken invariant.
pub(crate) fn contain<T>(
    deadline: Option<Duration>,
    budget: Option<&QueryBudget>,
    body: impl FnOnce(Option<&QueryBudget>) -> T,
) -> Result<T, QueryError> {
    let owned = deadline.map(QueryBudget::with_deadline);
    let budget = budget.or(owned.as_ref());
    catch_unwind(AssertUnwindSafe(|| body(budget)))
        .map_err(|payload| fault::classify_unwind(payload, budget))
}

/// The cache key of the per-snapshot singleton artifacts (dataset, R-tree,
/// DUAL index): one entry per snapshot, no constraint dependence.
const SINGLETON_KEY: &[u64] = &[];

/// One version's artifacts behind build-coalescing caches: a published
/// serving snapshot, or the static engine's frozen dataset. Whatever the
/// writer had cached is seeded in (shared, not rebuilt); everything else is
/// built lazily — and coalesced — by the first queries to need it.
pub(crate) struct ServingSnapshot {
    pub(crate) version: u64,
    pub(crate) flat: Arc<FlatStore>,
    scores: CoalescingCache<Arc<ScoreMatrix>>,
    orders: CoalescingCache<Arc<InstanceOrder>>,
    dataset: CoalescingCache<Arc<UncertainDataset>>,
    rtree: CoalescingCache<SharedRTree>,
    dual: CoalescingCache<SharedAggregateForest>,
}

/// What every snapshot of one service (or the static engine's one snapshot)
/// shares: the version-independent vertex enumerations, the scratch pools,
/// and the counters and rendezvous knob of every coalescing cache.
pub(crate) struct SharedArtifacts {
    fdoms: CoalescingCache<Arc<LinearFDominance>>,
    pub(crate) pools: QueryPools,
    coalesce: Arc<CoalesceCounters>,
    /// Joiners a builder waits for before publishing (`0` = publish at
    /// once; see `ArspService::set_coalescing_rendezvous`).
    pub(crate) rendezvous: Arc<AtomicUsize>,
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
        }
    }

    fn cache<V: Clone>(&self) -> CoalescingCache<V> {
        CoalescingCache::new(&self.coalesce, &self.rendezvous)
    }

    /// A snapshot of `export`'s version, seeded with every artifact the
    /// export carries (the vertex enumerations go to the shared cache).
    /// Seeding counts neither hits nor builds.
    pub(crate) fn snapshot(&self, export: SnapshotExport) -> ServingSnapshot {
        for (key, fdom) in export.fdoms {
            self.fdoms.seed(key, fdom);
        }
        let snapshot = ServingSnapshot {
            version: export.version,
            flat: export.flat,
            scores: self.cache(),
            orders: self.cache(),
            dataset: self.cache(),
            rtree: self.cache(),
            dual: self.cache(),
        };
        for (fdom, matrix) in export.scores {
            snapshot.scores.seed(vertices_key(&fdom), matrix);
        }
        for (omega, order) in export.orders {
            snapshot.orders.seed(omega_key(&omega), order);
        }
        if let Some(dataset) = export.dataset {
            snapshot.dataset.seed(SINGLETON_KEY.to_vec(), dataset);
        }
        if let Some(rtree) = export.rtree {
            snapshot.rtree.seed(SINGLETON_KEY.to_vec(), rtree);
        }
        snapshot
    }

    /// `snapshot` and these shared caches as an [`ArtifactSource`] whose
    /// cache joins honour `budget`'s deadline.
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

    /// The coalescing and scratch counters in the [`CacheStats`] shape:
    /// `hits`/`misses` are cache lookups answered/built (a join counts
    /// under `coalesced_builds`, not as a miss).
    pub(crate) fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.coalesce.hits(),
            misses: self.coalesce.builds(),
            coalesced_builds: self.coalesce.coalesced(),
            ..self.pools.cache_stats()
        }
    }
}

/// A pinned snapshot plus its shared caches, as an [`ArtifactSource`]. A
/// join on another query's in-flight build waits at most until the query's
/// deadline, then detaches by unwinding with `BuildTimeoutUnwind`, which the
/// fronts' `try_run` classifies as [`QueryError::BuildTimeout`].
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
            Err(timeout) => std::panic::resume_unwind(Box::new(BuildTimeoutUnwind {
                waited: timeout.waited,
            })),
        }
    }
}

impl ArtifactSource for SnapshotSource<'_> {
    fn flat(&self) -> Arc<FlatStore> {
        Arc::clone(&self.snapshot.flat)
    }

    fn fdom(&self, constraints: &ConstraintSet) -> Arc<LinearFDominance> {
        self.join(&self.shared.fdoms, &constraint_key(constraints), || {
            Arc::new(LinearFDominance::from_constraints(constraints))
        })
    }

    fn scores(&self, fdom: &Arc<LinearFDominance>) -> Arc<ScoreMatrix> {
        self.join(&self.snapshot.scores, &vertices_key(fdom), || {
            Arc::new(ScoreMatrix::compute(&self.snapshot.flat, fdom))
        })
    }

    fn order(&self, fdom: &LinearFDominance, scores: &ScoreMatrix) -> Arc<InstanceOrder> {
        self.join(
            &self.snapshot.orders,
            &omega_key(&fdom.vertices()[0]),
            || Arc::new(instance_order_from_scores(scores)),
        )
    }

    fn dataset(&self) -> Arc<UncertainDataset> {
        self.join(&self.snapshot.dataset, SINGLETON_KEY, || {
            Arc::new(dataset_from_flat(&self.snapshot.flat))
        })
    }

    fn rtree(&self, dataset: &UncertainDataset) -> SharedRTree {
        self.join(&self.snapshot.rtree, SINGLETON_KEY, || {
            Arc::new(build_instance_rtree(dataset))
        })
    }

    fn dual_index(&self) -> SharedAggregateForest {
        self.join(&self.snapshot.dual, SINGLETON_KEY, || {
            Arc::new(build_dual_index(&self.snapshot.flat))
        })
    }

    fn pools(&self) -> &QueryPools {
        &self.shared.pools
    }
}

/// The result of one query on any front: the probabilities plus how they
/// were computed, and the front's own view `V` —
/// [`ArspOutcome`](crate::engine::ArspOutcome),
/// [`DynamicOutcome`](crate::dynamic::DynamicOutcome) and
/// [`ServiceOutcome`](crate::service::ServiceOutcome) name the three.
/// Instance ids are the snapshot's: the `i`-th live instance in canonical
/// order, exactly the ids a cold engine on that version's dataset uses.
pub struct QueryOutcome<V> {
    result: ArspResult,
    algorithm: QueryAlgorithm,
    selection_reason: Option<&'static str>,
    counters: Option<QueryCounters>,
    pub(crate) build_time: Duration,
    pub(crate) run_time: Duration,
    pub(crate) view: V,
}

impl QueryOutcome<()> {
    /// Attaches a front's view.
    pub(crate) fn with_view<V>(self, view: V) -> QueryOutcome<V> {
        QueryOutcome {
            result: self.result,
            algorithm: self.algorithm,
            selection_reason: self.selection_reason,
            counters: self.counters,
            build_time: self.build_time,
            run_time: self.run_time,
            view,
        }
    }
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
}
