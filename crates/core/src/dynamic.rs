//! The mutable, version-aware query engine over a [`VersionedStore`].
//!
//! [`crate::engine::ArspEngine`] amortises index construction across queries
//! — but only over a dataset frozen at construction time. [`DynamicArspEngine`]
//! keeps that amortisation under **mutation**: instances arrive
//! ([`DynamicArspEngine::insert_instance`]), probabilities and positions get
//! revised ([`DynamicArspEngine::update_instance`]), objects retire
//! ([`DynamicArspEngine::retire_object`]) — and queries at every version
//! return results **exactly equal, bit for bit,** to a cold engine rebuilt on
//! the equivalent snapshot dataset (enforced by the `dynamic_agreement`
//! proptest, for every algorithm, sequential and parallel).
//!
//! ## How each cached structure survives a mutation
//!
//! The engine's artifacts live in one [`ServingSnapshot`](crate::pipeline)
//! per version, the same store every front serves from. The first query
//! after a mutation advances the engine to the store's version by building
//! the next snapshot from the current one:
//!
//! | structure | strategy |
//! |---|---|
//! | vertex enumerations (`LinearFDominance`) | **version-independent** — shared by every snapshot, never invalidated |
//! | row ↔ snapshot-id map | recomputed per version (one integer pass) |
//! | [`FlatStore`] snapshot | re-gathered from the store columns (bit copies) |
//! | [`ScoreMatrix`] per constraint | **delta-patched**: surviving rows copied bit-for-bit, only delta rows re-projected |
//! | LOOP [`InstanceOrder`] per vertex | **delta-patched**: sorted delta *merged* into the cached order — lands on exactly the cold `(key, id)` sort |
//! | B&B instance R-tree, DUAL per-object index, snapshot dataset | **invalidated** and lazily rebuilt from the flat snapshot (STR bulk loads cannot be patched bitwise; DUAL's insertion-built trees could be folded forward, but such a fold measured 0.89–1.01× of a cold rebuild) |
//!
//! Every score matrix and order the current snapshot has published is
//! patched, whichever query built it — a serving-layer reader's as much as
//! the engine's own. The advance copies published artifacts only: it never
//! waits on a build still in flight, which simply stays with the old
//! version.
//!
//! ## One query path
//!
//! Queries are the one [`Query`] builder every front hands out, with the
//! same setters and fault containment, and they run the pipeline every
//! front shares ([`crate::pipeline`]) over the current snapshot: each
//! artifact is fetched from it — published, patched forward, or built now,
//! coalesced with every concurrent query needing the same one — and the
//! pipeline runs the one flat kernel a cold [`crate::engine::ArspEngine`]
//! runs over the same artifacts. Each artifact is bitwise the cold build at
//! this version, so each result is the cold result. Standing-query refreshes
//! ([`DynamicArspEngine::refresh_standing`]) are ordinary queries on this
//! path. The logarithmic-method [`DeltaPolicy`] only decides when the store
//! compacts ([`DynamicArspEngine::merge_now`]): it bounds the tombstoned
//! rows and the appended tail a store carries, not any query's work.
//!
//! ```
//! use arsp_core::dynamic::DynamicArspEngine;
//! use arsp_core::engine::QueryAlgorithm;
//! use arsp_geometry::constraints::WeightRatio;
//!
//! let mut engine = DynamicArspEngine::from_dataset(&arsp_data::paper_running_example());
//! let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
//! assert!((engine.query(&constraints).run().instance_prob(0) - 2.0 / 9.0).abs() < 1e-9);
//!
//! // A revision: T2's first prediction gets much less likely.
//! let handle = engine.store().handle_of_row(2);
//! engine.update_instance(handle, &[3.0, 4.0], 0.05);
//!
//! // The next query reflects it — bitwise equal to a cold rebuild.
//! let outcome = engine.query(&constraints).run();
//! let cold = arsp_core::engine::ArspEngine::new(engine.snapshot_dataset());
//! assert_eq!(outcome.result().probs(), cold.query(&constraints).run().result().probs());
//! ```
//!
//! [`DeltaPolicy`]: arsp_index::DeltaPolicy
//! [`FlatStore`]: arsp_data::FlatStore
//! [`InstanceOrder`]: crate::algorithms::loop_scan::InstanceOrder

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{lock, Arc, Mutex};

use crate::algorithms::loop_scan::{cmp_key_id, InstanceOrder};
use crate::engine::CacheStats;
use crate::fault::{QueryBudget, QueryError};
use crate::pipeline::{
    execute, expect_outcome, Query, QueryConstraints, QueryFront, QueryOutcome, ServingSnapshot,
    SharedArtifacts,
};
use crate::scorespace::ScoreMatrix;
use crate::standing::{StandingQueryRegistry, StandingSpec, SubscriptionGuard};
use arsp_data::{InstanceHandle, UncertainDataset, VersionedStore};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};
use arsp_geometry::fdom::LinearFDominance;
use arsp_index::DeltaPolicy;

/// Sentinel for "row has no snapshot id".
const NONE32: u32 = u32::MAX;

/// The row ↔ snapshot-id correspondence at one (version, epoch): snapshot id
/// `i` is position `i` of the store's canonical live-row order — exactly the
/// instance id a cold dataset build would assign.
#[derive(Debug)]
struct RowMap {
    version: u64,
    epoch: u64,
    /// store row → snapshot id (`NONE32` for tombstoned rows; rows appended
    /// later are beyond the vector).
    snap_of_row: Vec<u32>,
    /// snapshot id → store row.
    row_of_snap: Vec<u32>,
}

fn build_rowmap(store: &VersionedStore) -> RowMap {
    let mut snap_of_row = vec![NONE32; store.num_rows()];
    let mut row_of_snap = Vec::with_capacity(store.num_live_instances());
    for row in store.canonical_rows() {
        snap_of_row[row] = row_of_snap.len() as u32;
        row_of_snap.push(row as u32);
    }
    RowMap {
        version: store.version(),
        epoch: store.epoch(),
        snap_of_row,
        row_of_snap,
    }
}

/// The engine's current snapshot and the row map of its version, in the
/// store's current-epoch row ids — what the next advance relates the live
/// rows through.
struct Current {
    snapshot: Arc<ServingSnapshot>,
    rowmap: Arc<RowMap>,
}

/// `true` when `a` sorts strictly before `b` under the cold `(key, id)`
/// comparison ([`cmp_key_id`] — the one definition the cold sorts and the
/// order patch in this module share).
#[inline]
fn sorts_before(a: (f64, u32), b: (f64, u32)) -> bool {
    cmp_key_id(a, b) == std::cmp::Ordering::Less
}

/// A query-session engine over a **mutable** uncertain dataset. Mutations
/// take `&mut self` (they are serialised by ownership); queries take `&self`
/// and are safe to issue concurrently. A query holds the engine's lock only
/// to advance the current snapshot to the store's version (a patch pass,
/// once per version) and to take a handle to it; artifact builds and the
/// kernel run outside it, and concurrent queries needing the same missing
/// artifact share one build. See the [module docs](self).
pub struct DynamicArspEngine {
    store: VersionedStore,
    policy: DeltaPolicy,
    /// The vertex enumerations, scratch pools and cache counters every
    /// snapshot shares — with a serving layer's readers too.
    artifacts: Arc<SharedArtifacts>,
    current: Mutex<Current>,
    invalidated: AtomicU64,
    merges: AtomicU64,
    standing: StandingQueryRegistry,
}

impl DynamicArspEngine {
    /// An empty dynamic engine of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        Self::from_store(VersionedStore::new(dim))
    }

    /// Bulk-loads a frozen dataset as the canonical base (version 0).
    pub fn from_dataset(dataset: &UncertainDataset) -> Self {
        Self::from_store(VersionedStore::from_dataset(dataset))
    }

    /// Wraps an existing versioned store.
    pub fn from_store(store: VersionedStore) -> Self {
        let artifacts = Arc::new(SharedArtifacts::new());
        let snapshot = artifacts.snapshot(store.version(), Arc::new(store.snapshot_flat()));
        let current = Current {
            snapshot: Arc::new(snapshot),
            rowmap: Arc::new(build_rowmap(&store)),
        };
        Self {
            store,
            policy: DeltaPolicy::default(),
            artifacts,
            current: Mutex::new(current),
            invalidated: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            standing: StandingQueryRegistry::new(),
        }
    }
    /// Replaces the logarithmic-method merge policy (default:
    /// [`DeltaPolicy::default`]). [`DeltaPolicy::manual`] disables automatic
    /// compaction; [`DeltaPolicy::eager`] compacts after every mutation.
    pub fn set_delta_policy(&mut self, policy: DeltaPolicy) {
        self.policy = policy;
    }

    /// The active merge policy.
    pub fn delta_policy(&self) -> DeltaPolicy {
        self.policy
    }

    /// Read access to the underlying versioned store.
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    /// The store's current logical version.
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// The current logical content as a frozen [`UncertainDataset`] — what a
    /// cold [`crate::engine::ArspEngine`] rebuild would be seeded with.
    pub fn snapshot_dataset(&self) -> UncertainDataset {
        self.store.snapshot_dataset()
    }

    // ---- mutations --------------------------------------------------------

    /// Adds a new uncertain object; returns its store object id.
    pub fn insert_object(
        &mut self,
        label: Option<String>,
        instances: Vec<(Vec<f64>, f64)>,
    ) -> usize {
        let object = self.store.insert_object(label, instances);
        self.after_mutation();
        object
    }

    /// Appends an instance to an object; returns its stable handle.
    pub fn insert_instance(&mut self, object: usize, coords: &[f64], prob: f64) -> InstanceHandle {
        let handle = self.store.insert_instance(object, coords, prob);
        self.after_mutation();
        handle
    }

    /// Deletes one instance (tombstone).
    pub fn remove_instance(&mut self, handle: InstanceHandle) {
        self.store.remove_instance(handle);
        self.after_mutation();
    }

    /// Overwrites one instance (revised coordinates and/or probability). The
    /// handle stays valid; the instance moves to its object's logical tail
    /// (see [`VersionedStore::update_instance`]).
    pub fn update_instance(&mut self, handle: InstanceHandle, coords: &[f64], prob: f64) {
        self.store.update_instance(handle, coords, prob);
        self.after_mutation();
    }

    /// Retires a whole object.
    pub fn retire_object(&mut self, object: usize) {
        self.store.retire_object(object);
        self.after_mutation();
    }

    /// Compacts the store now (folds the delta tail and tombstones into a
    /// fresh canonical base) regardless of the policy. The cached artifacts
    /// are patched forward to the current version first; the compaction
    /// then moves rows but no snapshot id, so only the row map is rebuilt.
    /// A no-op when nothing is pending.
    pub fn merge_now(&mut self) {
        if self.store.pending_rows() == 0 {
            return;
        }
        // Advance while the row ids still relate the current snapshot to
        // the live rows.
        self.current();
        self.store.merge();
        self.merges.fetch_add(1, Ordering::Relaxed);
        // The canonical order survives the compaction, so the snapshot and
        // its artifacts stay valid; only their rows moved.
        let current = self.current.get_mut().unwrap_or_else(|p| p.into_inner());
        current.rowmap = Arc::new(build_rowmap(&self.store));
    }

    fn after_mutation(&mut self) {
        if self
            .policy
            .should_merge(self.store.num_live_instances(), self.store.pending_rows())
        {
            self.merge_now();
        }
    }

    // ---- queries ----------------------------------------------------------

    /// Starts a query under general linear constraints (fluent, like
    /// [`crate::engine::ArspEngine::query`]).
    pub fn query<'e, 'q>(&'e self, constraints: &'q ConstraintSet) -> DynamicQuery<'e, 'q> {
        Query::new(self, QueryConstraints::Linear(constraints))
    }

    /// Starts a query under weight-ratio constraints (§IV); unlocks DUAL.
    pub fn ratio_query<'e, 'q>(&'e self, ratio: &'q WeightRatio) -> DynamicQuery<'e, 'q> {
        Query::new(self, QueryConstraints::Ratio(ratio))
    }

    // ---- standing queries -------------------------------------------------

    /// Registers a standing query and refreshes it immediately: the guard's
    /// first [`crate::standing::ChangeBatch`] is the full result at the
    /// current version. Later batches arrive per
    /// [`refresh_standing`](Self::refresh_standing) call (the serving layer
    /// calls it from [`crate::service::ServiceWriter::publish`]).
    pub fn subscribe(&self, spec: StandingSpec) -> SubscriptionGuard {
        let guard = self.standing.subscribe(spec);
        self.standing.refresh(self);
        guard
    }

    /// The engine's standing-query registry (shared with the serving layer
    /// when the engine backs an [`crate::service::ArspService`]).
    pub fn standing(&self) -> &StandingQueryRegistry {
        &self.standing
    }

    /// Brings every standing subscription to the current version, enqueueing
    /// one change batch per subscription whose result moved (see
    /// [`crate::standing`]). A no-op for subscriptions already current.
    pub fn refresh_standing(&self) {
        self.standing.refresh(self);
    }

    /// The stable handle of each snapshot id at the current version — the
    /// re-keying the standing layer needs to diff results across versions.
    pub(crate) fn snapshot_handles(&self) -> Vec<InstanceHandle> {
        let (_, rowmap) = self.current();
        rowmap
            .row_of_snap
            .iter()
            .map(|&row| self.store.handle_of_row(row as usize))
            .collect()
    }

    /// The current snapshot id of a live instance (`None` once removed).
    pub fn snapshot_id(&self, handle: InstanceHandle) -> Option<usize> {
        let row = self.store.row_of(handle)?;
        let (_, rowmap) = self.current();
        match rowmap.snap_of_row.get(row).copied() {
            Some(s) if s != NONE32 => Some(s as usize),
            _ => None,
        }
    }

    /// Resolves one instance's probability out of an outcome. Returns `None`
    /// when the handle is gone or the engine has moved on (mutated or
    /// compacted) since the outcome's version — resolve promptly.
    pub fn prob_of(&self, outcome: &DynamicOutcome, handle: InstanceHandle) -> Option<f64> {
        let rowmap = &outcome.view.rowmap;
        if rowmap.version != self.store.version() || rowmap.epoch != self.store.epoch() {
            return None;
        }
        let row = self.store.row_of(handle)?;
        match rowmap.snap_of_row.get(row).copied() {
            Some(s) if s != NONE32 => Some(outcome.instance_prob(s as usize)),
            _ => None,
        }
    }

    /// Aggregate cache counters: the coalescing-cache lookups of every
    /// snapshot (shared with a serving layer's readers when the engine backs
    /// one), the scratch pools, and the dynamic-only invalidation and merge
    /// counters. A mutation-free repeat query adds only hits; see the
    /// steady-state tests.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            caches_invalidated: self.invalidated.load(Ordering::Relaxed),
            merges_performed: self.merges.load(Ordering::Relaxed),
            notifications_delivered: self.standing.counters().notifications_delivered(),
            ..self.artifacts.cache_stats()
        }
    }

    // ---- the current snapshot ---------------------------------------------

    /// The caches every snapshot of this engine shares; a serving layer's
    /// readers query through them too.
    pub(crate) fn artifacts(&self) -> &Arc<SharedArtifacts> {
        &self.artifacts
    }

    /// The snapshot at the store's current version (what the serving layer
    /// publishes).
    pub(crate) fn snapshot(&self) -> Arc<ServingSnapshot> {
        self.current().0
    }

    /// The current snapshot and its row map, first advanced to the store's
    /// version. The engine's lock is held for the advance only; builds and
    /// kernels run on the returned handles.
    fn current(&self) -> (Arc<ServingSnapshot>, Arc<RowMap>) {
        let mut current = lock(&self.current);
        if current.rowmap.version != self.store.version() {
            *current = self.advance(&current);
        }
        (Arc::clone(&current.snapshot), Arc::clone(&current.rowmap))
    }

    /// The snapshot at the store's version, built from `current`: the flat
    /// store is re-gathered, every published score matrix and LOOP order is
    /// delta-patched and seeded in, and the version-bound structures
    /// (R-tree, DUAL index, dataset) stay behind — counted as invalidated,
    /// rebuilt lazily. Builds still in flight on `current` are not waited
    /// for.
    fn advance(&self, current: &Current) -> Current {
        let store = &self.store;
        let old = &current.rowmap;
        debug_assert_eq!(old.epoch, store.epoch(), "merges advance first");
        let rowmap = build_rowmap(store);
        let next = self
            .artifacts
            .snapshot(store.version(), Arc::new(store.snapshot_flat()));
        for (fdom, matrix) in current.snapshot.ready_scores() {
            let patched = self.patch_scores(old, &rowmap, &fdom, &matrix);
            next.seed_scores(fdom, Arc::new(patched));
        }
        for (fdom, order) in current.snapshot.ready_orders() {
            let patched = self.patch_order(old, &rowmap, &fdom.vertices()[0], &order);
            next.seed_order(fdom, Arc::new(patched));
        }
        let dropped = current.snapshot.ready_indexes() as u64;
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        Current {
            snapshot: Arc::new(next),
            rowmap: Arc::new(rowmap),
        }
    }

    /// `matrix` (in `old`'s snapshot ids) at `new`'s version: surviving rows
    /// copied bit for bit, rows new since `old` projected under `fdom`.
    fn patch_scores(
        &self,
        old: &RowMap,
        new: &RowMap,
        fdom: &LinearFDominance,
        matrix: &ScoreMatrix,
    ) -> ScoreMatrix {
        let d = fdom.num_vertices();
        let mut values = vec![0.0; new.row_of_snap.len() * d];
        for (chunk, &row) in values.chunks_exact_mut(d).zip(&new.row_of_snap) {
            match old.snap_of_row.get(row as usize).copied() {
                Some(os) if os != NONE32 => chunk.copy_from_slice(matrix.row(os as usize)),
                _ => fdom.map_to_score_space_into(self.store.coords_of(row as usize), chunk),
            }
        }
        ScoreMatrix::from_values(d, values)
    }

    /// `order` (in `old`'s snapshot ids, keyed by scores under `omega`, the
    /// preference region's first vertex) at `new`'s version. Survivors keep
    /// their cached (bitwise) keys and their relative order — old snapshot
    /// ids map monotonically onto new ones — so merging the sorted rows new
    /// since `old` in reproduces exactly the cold `(key, id)` sort: each new
    /// key equals the row's score-matrix column 0 bit for bit.
    fn patch_order(
        &self,
        old: &RowMap,
        new: &RowMap,
        omega: &[f64],
        order: &InstanceOrder,
    ) -> InstanceOrder {
        let store = &self.store;
        let n = new.row_of_snap.len();
        let survivors = order.order.iter().filter_map(|&os| {
            let row = old.row_of_snap[os] as usize;
            store
                .is_live(row)
                .then(|| (order.keys[os], new.snap_of_row[row]))
        });
        // Within an epoch the rows new since `old` are exactly the live
        // tail beyond its map (an update appends its row too).
        let mut fresh: Vec<(f64, u32)> = (old.snap_of_row.len()..store.num_rows())
            .filter(|&row| store.is_live(row))
            .map(|row| {
                let key = arsp_geometry::point::score(store.coords_of(row), omega);
                (key, new.snap_of_row[row])
            })
            .collect();
        fresh.sort_unstable_by(|&a, &b| cmp_key_id(a, b));
        let mut merged = Vec::with_capacity(n);
        let mut keys = vec![0.0; n];
        let mut fi = 0;
        for (key, ns) in survivors {
            while fi < fresh.len() && sorts_before(fresh[fi], (key, ns)) {
                keys[fresh[fi].1 as usize] = fresh[fi].0;
                merged.push(fresh[fi].1 as usize);
                fi += 1;
            }
            keys[ns as usize] = key;
            merged.push(ns as usize);
        }
        for &(key, ns) in &fresh[fi..] {
            keys[ns as usize] = key;
            merged.push(ns as usize);
        }
        debug_assert_eq!(merged.len(), n);
        InstanceOrder {
            order: merged,
            keys,
        }
    }
}

/// A query on the dynamic engine: the one [`Query`] builder, answered at the
/// store's current version.
pub type DynamicQuery<'e, 'q> = Query<'e, 'q, DynamicArspEngine>;

impl QueryFront for DynamicArspEngine {
    type View = DynamicView;
    type Run = DynamicOutcome;

    fn answer(
        query: &DynamicQuery<'_, '_>,
        budget: Option<&QueryBudget>,
    ) -> Result<DynamicOutcome, QueryError> {
        let engine = query.front;
        let (snapshot, rowmap) = engine.current();
        let source = engine.artifacts.source(&snapshot, budget);
        let view = DynamicView { rowmap };
        Ok(execute(&source, &query.spec, budget, view))
    }

    fn finish(outcome: Result<DynamicOutcome, QueryError>) -> DynamicOutcome {
        expect_outcome(outcome)
    }
}

/// The result of one dynamic query (see [`QueryOutcome`]): snapshot-space
/// probabilities — instance id `i` is the `i`-th live instance in canonical
/// order, exactly the ids a cold engine on
/// [`DynamicArspEngine::snapshot_dataset`] would use — plus, in a
/// [`DynamicView`], the version it answered at.
pub type DynamicOutcome = QueryOutcome<DynamicView>;

/// The dynamic engine's part of a [`DynamicOutcome`]: the row map of the
/// version it answered at, which [`DynamicArspEngine::prob_of`] resolves
/// handles through.
pub struct DynamicView {
    rowmap: Arc<RowMap>,
}

impl QueryOutcome<DynamicView> {
    /// The store version this outcome answered at.
    pub fn version(&self) -> u64 {
        self.view.rowmap.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ArspEngine, Execution, QueryAlgorithm};
    use arsp_data::{paper_running_example, SyntheticConfig};

    /// Every general algorithm (and both execution modes) the agreement
    /// assertions sweep.
    const ALGOS: [QueryAlgorithm; 5] = [
        QueryAlgorithm::Loop,
        QueryAlgorithm::Kdtt,
        QueryAlgorithm::KdttPlus,
        QueryAlgorithm::QdttPlus,
        QueryAlgorithm::BranchAndBound,
    ];

    /// Dynamic results must equal a cold rebuild bitwise, for every
    /// algorithm, sequential and parallel.
    fn assert_matches_cold_rebuild(engine: &DynamicArspEngine, constraints: &ConstraintSet) {
        let cold = ArspEngine::new(engine.snapshot_dataset());
        for algorithm in ALGOS {
            let reference = cold.query(constraints).algorithm(algorithm).run();
            for execution in [Execution::Sequential, Execution::Parallel { threads: 2 }] {
                let got = engine
                    .query(constraints)
                    .algorithm(algorithm)
                    .execution(execution)
                    .run();
                assert_eq!(
                    reference.result().probs(),
                    got.result().probs(),
                    "{} diverged from the cold rebuild ({execution:?}, version {})",
                    algorithm.name(),
                    engine.version(),
                );
            }
        }
    }

    fn assert_dual_matches_cold_rebuild(engine: &DynamicArspEngine, ratio: &WeightRatio) {
        let cold = ArspEngine::new(engine.snapshot_dataset());
        let reference = cold.ratio_query(ratio).run();
        assert_eq!(reference.algorithm(), QueryAlgorithm::Dual);
        for execution in [Execution::Sequential, Execution::Parallel { threads: 2 }] {
            let got = engine.ratio_query(ratio).execution(execution).run();
            assert_eq!(got.algorithm(), QueryAlgorithm::Dual);
            assert_eq!(
                reference.result().probs(),
                got.result().probs(),
                "DUAL diverged from the cold rebuild ({execution:?}, version {})",
                engine.version(),
            );
        }
    }

    #[test]
    fn version_zero_matches_the_static_engine() {
        let dataset = SyntheticConfig {
            num_objects: 40,
            max_instances: 4,
            dim: 3,
            region_length: 0.3,
            phi: 0.2,
            seed: 11,
            ..SyntheticConfig::default()
        }
        .generate();
        let engine = DynamicArspEngine::from_dataset(&dataset);
        assert_eq!(engine.version(), 0);
        let constraints = ConstraintSet::weak_ranking(3, 2);
        assert_matches_cold_rebuild(&engine, &constraints);
        assert_dual_matches_cold_rebuild(&engine, &WeightRatio::uniform(3, 0.5, 2.0));
    }

    #[test]
    fn mutation_script_stays_exact_at_every_version() {
        let dataset = SyntheticConfig {
            num_objects: 18,
            max_instances: 3,
            dim: 3,
            region_length: 0.35,
            phi: 0.3,
            seed: 4,
            ..SyntheticConfig::default()
        }
        .generate();
        let mut engine = DynamicArspEngine::from_dataset(&dataset);
        engine.set_delta_policy(DeltaPolicy::manual());
        let constraints = ConstraintSet::weak_ranking(3, 1);
        let ratio = WeightRatio::uniform(3, 0.5, 2.0);

        // Insert into an existing object (probability slack permitting).
        let target = (0..engine.store().num_objects())
            .find(|&o| engine.store().live_total_prob(o) < 0.8)
            .unwrap_or(0);
        let slack = 1.0 - engine.store().live_total_prob(target);
        let h = engine.insert_instance(target, &[0.21, 0.42, 0.13], (slack * 0.5).min(0.4));
        assert_matches_cold_rebuild(&engine, &constraints);
        assert_dual_matches_cold_rebuild(&engine, &ratio);

        // Overwrite it (moves to the object's tail).
        engine.update_instance(h, &[0.33, 0.11, 0.27], 0.05);
        assert_matches_cold_rebuild(&engine, &constraints);
        assert_dual_matches_cold_rebuild(&engine, &ratio);

        // Remove an early bulk instance (exercises tombstone skipping).
        let victim = engine.store().handle_of_row(0);
        engine.remove_instance(victim);
        assert_matches_cold_rebuild(&engine, &constraints);
        assert_dual_matches_cold_rebuild(&engine, &ratio);

        // A brand-new object and a retirement.
        let _ = engine.insert_object(
            Some("late".into()),
            vec![(vec![0.05, 0.9, 0.4], 0.5), (vec![0.6, 0.07, 0.33], 0.45)],
        );
        engine.retire_object(3);
        assert_matches_cold_rebuild(&engine, &constraints);
        assert_dual_matches_cold_rebuild(&engine, &ratio);

        // A manual compaction must not change anything either.
        engine.merge_now();
        assert!(engine.cache_stats().merges_performed >= 1);
        assert_matches_cold_rebuild(&engine, &constraints);
        assert_dual_matches_cold_rebuild(&engine, &ratio);

        // And a second constraint set exercises patching of multiple cached
        // artifacts at once.
        let other = ConstraintSet::weak_ranking(3, 2);
        let h2 = engine.insert_instance(target, &[0.5, 0.5, 0.5], 0.02);
        assert_matches_cold_rebuild(&engine, &other);
        assert_matches_cold_rebuild(&engine, &constraints);
        engine.remove_instance(h2);
        assert_matches_cold_rebuild(&engine, &other);
    }

    #[test]
    fn delta_merge_handles_score_ties_between_bulk_and_delta() {
        // Coincident coordinates produce exactly equal sort keys; the merge
        // of the sorted delta into the cached bulk order must then land on
        // the cold (key, id) tie order — this is the one case random
        // coordinates never exercise.
        let mut dataset = UncertainDataset::new(2);
        dataset.push_object(vec![(vec![0.5, 0.5], 0.5), (vec![0.9, 0.1], 0.3)]);
        dataset.push_object(vec![(vec![0.5, 0.5], 0.4)]);
        dataset.push_object(vec![(vec![0.3, 0.8], 0.6)]);
        dataset.push_object(vec![(vec![0.7, 0.7], 0.5)]);
        let mut engine = DynamicArspEngine::from_dataset(&dataset);
        engine.set_delta_policy(DeltaPolicy::manual());
        let constraints = ConstraintSet::weak_ranking(2, 1);

        // Warm the LOOP caches, then append delta rows coincident with bulk
        // rows (same keys, higher snapshot ids) and with each other.
        let _ = engine
            .query(&constraints)
            .algorithm(QueryAlgorithm::Loop)
            .run();
        let _ = engine.insert_instance(2, &[0.5, 0.5], 0.2);
        assert_matches_cold_rebuild(&engine, &constraints);
        let _ = engine.insert_instance(3, &[0.5, 0.5], 0.3);
        let _ = engine.insert_instance(0, &[0.3, 0.8], 0.1);
        assert_matches_cold_rebuild(&engine, &constraints);

        // Removing one of the coincident bulk rows keeps the tie group
        // consistent too.
        engine.remove_instance(engine.store().handle_of_row(0));
        assert_matches_cold_rebuild(&engine, &constraints);
    }

    #[test]
    fn auto_selection_uses_live_counts() {
        let mut engine = DynamicArspEngine::new(2);
        let constraints = ConstraintSet::weak_ranking(2, 1);
        for i in 0..4 {
            let x = 0.1 + 0.2 * i as f64;
            let _ = engine.insert_object(None, vec![(vec![x, 1.0 - x], 0.8)]);
        }
        let outcome = engine.query(&constraints).run();
        assert!(outcome.auto_selected());
        assert_eq!(outcome.algorithm(), QueryAlgorithm::Loop);
        let ratio = WeightRatio::uniform(2, 0.5, 2.0);
        assert_eq!(
            engine.ratio_query(&ratio).run().algorithm(),
            QueryAlgorithm::Dual
        );
    }

    #[test]
    fn empty_and_tiny_stores() {
        let mut engine = DynamicArspEngine::new(2);
        let constraints = ConstraintSet::weak_ranking(2, 1);
        let outcome = engine.query(&constraints).run();
        assert!(outcome.result().is_empty());
        assert_eq!(outcome.version(), 0);

        let obj = engine.insert_object(None, vec![(vec![0.3, 0.4], 0.9)]);
        assert_matches_cold_rebuild(&engine, &constraints);
        let h = engine
            .store()
            .handle_of_row(engine.store().object_rows(obj)[0] as usize);
        engine.remove_instance(h);
        let outcome = engine.query(&constraints).run();
        assert!(outcome.result().is_empty());
    }

    #[test]
    fn handles_resolve_probabilities_across_versions() {
        let mut engine = DynamicArspEngine::from_dataset(&paper_running_example());
        let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let h = engine.store().handle_of_row(0);
        let outcome = engine.query(&constraints).run();
        let p = engine
            .prob_of(&outcome, h)
            .expect("live handle, same version");
        assert!((p - 2.0 / 9.0).abs() < 1e-9);
        assert_eq!(engine.snapshot_id(h), Some(0));

        // After a mutation the old outcome no longer resolves.
        engine.update_instance(h, &[2.0, 9.0], 0.25);
        assert_eq!(engine.prob_of(&outcome, h), None);
        let fresh = engine.query(&constraints).run();
        assert!(engine.prob_of(&fresh, h).is_some());
        // The overwrite moved t1,1 to its object's tail: snapshot id 1.
        assert_eq!(engine.snapshot_id(h), Some(1));
    }

    #[test]
    #[should_panic]
    fn dual_on_linear_query_panics() {
        let engine = DynamicArspEngine::from_dataset(&paper_running_example());
        let constraints = ConstraintSet::weak_ranking(2, 1);
        let _ = engine
            .query(&constraints)
            .algorithm(QueryAlgorithm::Dual)
            .run();
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let engine = DynamicArspEngine::from_dataset(&paper_running_example());
        let constraints = ConstraintSet::weak_ranking(3, 1);
        let _ = engine.query(&constraints).run();
    }

    // ---- counter behaviour (satellite: cache_stats extension) -------------

    #[test]
    fn steady_state_queries_add_only_hits() {
        let dataset = SyntheticConfig {
            num_objects: 30,
            max_instances: 4,
            dim: 3,
            seed: 9,
            ..SyntheticConfig::default()
        }
        .generate();
        let mut engine = DynamicArspEngine::from_dataset(&dataset);
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let ratio = WeightRatio::uniform(3, 0.5, 2.0);
        let run_all = |engine: &DynamicArspEngine| {
            for algorithm in [
                QueryAlgorithm::Loop,
                QueryAlgorithm::KdttPlus,
                QueryAlgorithm::BranchAndBound,
            ] {
                let _ = engine.query(&constraints).algorithm(algorithm).run();
            }
            let dual = engine.ratio_query(&ratio).run();
            assert_eq!(dual.algorithm(), QueryAlgorithm::Dual);
        };
        run_all(&engine);
        let warm = engine.cache_stats();
        assert!(warm.misses > 0);
        assert_eq!(warm.caches_invalidated, 0, "no mutation, no invalidation");
        assert_eq!(warm.merges_performed, 0);

        run_all(&engine);
        let steady = engine.cache_stats();
        assert_eq!(
            warm.misses, steady.misses,
            "repeat queries rebuilt something"
        );
        assert_eq!(warm.scratch_misses, steady.scratch_misses);
        assert!(steady.hits > warm.hits);

        // One mutation drops the three unpatchable per-version artifacts
        // (R-tree, DUAL index, snapshot dataset) exactly once each.
        let h = engine.store().handle_of_row(0);
        engine.remove_instance(h);
        run_all(&engine);
        assert_eq!(engine.cache_stats().caches_invalidated, 3);

        // With only DUAL warm, one mutation costs exactly one invalidation:
        // its index.
        let mut engine = DynamicArspEngine::from_dataset(&dataset);
        let _ = engine.ratio_query(&ratio).run();
        let h = engine.store().handle_of_row(0);
        engine.remove_instance(h);
        let _ = engine.ratio_query(&ratio).run();
        let after = engine.cache_stats();
        assert_eq!(after.caches_invalidated, 1);
        let _ = engine.ratio_query(&ratio).run();
        let repeat = engine.cache_stats();
        assert_eq!(repeat.misses, after.misses, "repeat DUAL rebuilt something");
        assert_eq!(repeat.caches_invalidated, 1);
    }

    #[test]
    fn mutate_query_loop_counts_deltas_patches_and_merges() {
        let dataset = SyntheticConfig {
            num_objects: 24,
            max_instances: 3,
            dim: 3,
            phi: 0.5,
            seed: 21,
            ..SyntheticConfig::default()
        }
        .generate();
        let mut engine = DynamicArspEngine::from_dataset(&dataset);
        engine.set_delta_policy(DeltaPolicy::manual());
        let constraints = ConstraintSet::weak_ranking(3, 2);

        // Warm the LOOP artifacts, then run a mutate → query loop.
        let _ = engine
            .query(&constraints)
            .algorithm(QueryAlgorithm::Loop)
            .run();
        let warm = engine.cache_stats();
        for i in 0..4u64 {
            let _ = engine.insert_object(None, vec![(vec![0.2, 0.3, 0.1 + 0.1 * i as f64], 0.5)]);
            let _ = engine
                .query(&constraints)
                .algorithm(QueryAlgorithm::Loop)
                .run();
        }
        let churned = engine.cache_stats();
        // Each round builds nothing: the score matrix and the order are
        // patched forward, and the query hits them (the per-version row map
        // is not a cache lookup).
        assert_eq!(churned.misses, warm.misses);
        assert!(churned.hits > warm.hits);
        assert_eq!(
            churned.merges_performed, warm.merges_performed,
            "manual policy: the store must not have compacted"
        );
        // LOOP never builds the R-tree or dataset, so no invalidations
        // either.
        assert_eq!(churned.caches_invalidated, warm.caches_invalidated);

        // A B&B query now advances the snapshot; nothing is cached to
        // invalidate yet (the R-tree was never built), but a second round of
        // mutation + B&B drops the now-cached R-tree and dataset.
        let _ = engine
            .query(&constraints)
            .algorithm(QueryAlgorithm::BranchAndBound)
            .run();
        let after_bnb = engine.cache_stats();
        let _ = engine.insert_object(None, vec![(vec![0.9, 0.9, 0.9], 0.4)]);
        let _ = engine
            .query(&constraints)
            .algorithm(QueryAlgorithm::BranchAndBound)
            .run();
        let after_second = engine.cache_stats();
        assert_eq!(
            after_second.caches_invalidated,
            after_bnb.caches_invalidated + 2,
            "the cached R-tree and snapshot dataset must both drop"
        );

        // Crossing the merge threshold compacts the store.
        engine.set_delta_policy(DeltaPolicy::eager());
        let _ = engine.insert_object(None, vec![(vec![0.8, 0.1, 0.2], 0.6)]);
        let merged = engine.cache_stats();
        assert_eq!(merged.merges_performed, churned.merges_performed + 1);
        assert_eq!(engine.store().delta_rows(), 0);

        // Results stay exact through all of it.
        assert_matches_cold_rebuild(&engine, &constraints);
    }
}
