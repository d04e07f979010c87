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
//! Every cached structure records the version it was built at and is
//! *selectively* carried forward rather than globally dropped:
//!
//! | structure | strategy |
//! |---|---|
//! | vertex enumerations (`LinearFDominance`) | **version-independent** — they depend only on the constraints, never invalidated |
//! | row ↔ snapshot-id map | recomputed per version (one integer pass) |
//! | [`FlatStore`] snapshot | re-gathered from the store columns (bit copies) |
//! | [`ScoreMatrix`] per constraint | **delta-patched**: surviving rows copied bit-for-bit, only delta rows re-projected |
//! | LOOP [`InstanceOrder`] per vertex | **delta-patched**: sorted delta *merged* into the cached order — lands on exactly the cold `(key, id)` sort |
//! | B&B instance R-tree, DUAL per-object index, snapshot dataset | **invalidated** and lazily rebuilt from the flat snapshot (STR bulk loads cannot be patched bitwise; DUAL's insertion-built trees could be folded forward, but such a fold measured 0.89–1.01× of a cold rebuild) |
//!
//! ## One query path
//!
//! Every algorithm arm takes the same three steps: advance the snapshot
//! state to the store's current version, fetch (or build) the per-version
//! artifacts it needs from that state, and run the one flat kernel a cold
//! [`crate::engine::ArspEngine`] runs over the same artifacts. Each artifact
//! is bitwise the cold build at this version, so each result is the cold
//! result. The logarithmic-method [`DeltaPolicy`] only decides when the
//! store compacts ([`DynamicArspEngine::merge_now`]): it bounds the
//! tombstoned rows and the appended tail a store carries, not any query's
//! work.
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
//! [`InstanceOrder`]: crate::algorithms::loop_scan::InstanceOrder

use std::collections::HashMap;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{lock, Arc, Mutex};

use crate::algorithms::bnb::{arsp_bnb_engine, build_instance_rtree};
use crate::algorithms::dual::{arsp_dual_flat_engine, build_dual_index};
use crate::algorithms::enumerate::arsp_enum;
use crate::algorithms::kd_asp::{KdVariant, KdWorkerPool};
use crate::algorithms::kdtt::arsp_kdtt_flat_engine;
use crate::algorithms::loop_scan::{
    arsp_loop_flat_engine, cmp_key_id, instance_order_from_scores, InstanceOrder, LoopScratch,
};
use crate::engine::{
    auto_select, constraint_key, omega_key, vertices_key, CacheStats, Execution, QueryAlgorithm,
};
use crate::result::ArspResult;
use crate::scorespace::ScoreMatrix;
use crate::scratch::{QueryScratch, ScratchLease, ScratchPool};
use crate::standing::{StandingQueryRegistry, StandingSpec, SubscriptionGuard};
use crate::stats::{CounterStats, QueryCounters};
use arsp_data::{FlatStore, InstanceHandle, UncertainDataset, VersionedStore};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};
use arsp_geometry::fdom::LinearFDominance;
use arsp_index::{DeltaPolicy, SharedAggregateForest, SharedRTree};

/// Sentinel for "row has no snapshot id" / "snapshot id has no row".
const NONE32: u32 = u32::MAX;

/// The row ↔ snapshot-id correspondence at one (version, epoch): snapshot id
/// `i` is position `i` of the store's canonical live-row order — exactly the
/// instance id a cold dataset build would assign.
#[derive(Debug)]
struct RowMap {
    version: u64,
    epoch: u64,
    /// store row → snapshot id (`NONE32` for tombstoned rows).
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

/// A cached score matrix in snapshot space, together with the vertex
/// enumeration that projects new rows during patches.
struct SnapScores {
    fdom: Arc<LinearFDominance>,
    matrix: Arc<ScoreMatrix>,
}

/// A cached LOOP order in snapshot space, together with the vertex whose
/// scores key it (used to compute keys for delta rows during patches).
struct SnapOrder {
    omega: Vec<f64>,
    order: Arc<InstanceOrder>,
}

/// The engine's synchronised snapshot state: every artifact in here is in
/// *snapshot-id space* at `version`. The row maps are kept in current-epoch
/// row ids (translated in place when the store merges), so the next
/// advance can relate them to live rows at any later version.
struct SnapState {
    version: u64,
    /// store row → snapshot id at `version` (`NONE32`: not part of the
    /// snapshot; rows appended later are beyond the vector).
    snap_of_row: Vec<u32>,
    /// snapshot id at `version` → store row (`NONE32` once a merge dropped
    /// the — by then tombstoned — row).
    row_of_snap: Vec<u32>,
    flat: Arc<FlatStore>,
    /// Lazily materialised snapshot dataset (B&B and ENUM need the
    /// row-oriented form); invalidated on every version change.
    dataset: Option<Arc<UncertainDataset>>,
    /// Lazily built instance R-tree (STR bulk load — unpatchable);
    /// invalidated on every version change.
    rtree: Option<SharedRTree>,
    /// Lazily built DUAL per-object index; invalidated on every version
    /// change.
    dual: Option<SharedAggregateForest>,
    /// Per-constraint score matrices, keyed by the vertex-set fingerprint;
    /// delta-patched forward on version changes.
    scores: HashMap<Vec<u64>, SnapScores>,
    /// Per-vertex LOOP orders, keyed by the first-vertex fingerprint;
    /// delta-patched (merged) forward on version changes.
    orders: HashMap<Vec<u64>, SnapOrder>,
}

/// Version-aware caches plus the engine's counters.
struct DynCaches {
    /// Constraint-set → vertex enumeration. Depends only on the constraints,
    /// so it survives every mutation untouched.
    fdom: Mutex<HashMap<Vec<u64>, Arc<LinearFDominance>>>,
    /// The current-version row map (cheap; rebuilt per version).
    rowmap: Mutex<Option<Arc<RowMap>>>,
    /// The synchronised snapshot state (see [`SnapState`]).
    snap: Mutex<SnapState>,
    scratch_pool: ScratchPool<QueryScratch>,
    loop_pool: ScratchPool<LoopScratch>,
    kd_pool: KdWorkerPool,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    merges: AtomicU64,
}

impl DynCaches {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn invalidate(&self) {
        self.invalidated.fetch_add(1, Ordering::Relaxed);
    }
}

/// `true` when `a` sorts strictly before `b` under the cold `(key, id)`
/// comparison ([`cmp_key_id`] — the one definition the cold sorts and the
/// order patch in this module share).
#[inline]
fn sorts_before(a: (f64, u32), b: (f64, u32)) -> bool {
    cmp_key_id(a, b) == std::cmp::Ordering::Less
}

/// Sorts `(key, id)` items under the cold `(key, id)` comparison.
fn sort_keyed(items: &mut [(f64, u32)]) {
    items.sort_unstable_by(|&a, &b| cmp_key_id(a, b));
}

/// A query-session engine over a **mutable** uncertain dataset. Mutations
/// take `&mut self` (they are serialised by ownership); queries take `&self`
/// and are safe to issue concurrently — though the snapshot state sits
/// behind one mutex, so concurrent queries partially serialise: each holds
/// the snapshot lock while it advances the state and builds any missing
/// artifact, and releases it before running its kernel. See the
/// [module docs](self).
pub struct DynamicArspEngine {
    store: VersionedStore,
    policy: DeltaPolicy,
    caches: DynCaches,
    standing: StandingQueryRegistry,
}

/// The delta-patched LOOP artifacts at the engine's current version — what
/// the LOOP arm and the standing-query maintenance pass run the pair kernel
/// over. Every artifact is bitwise the cold build at this version.
pub(crate) struct LoopArtifacts {
    pub(crate) flat: Arc<FlatStore>,
    pub(crate) scores: Arc<ScoreMatrix>,
    pub(crate) order: Arc<InstanceOrder>,
    pub(crate) fdom: Arc<LinearFDominance>,
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

    /// Wraps an existing versioned store. Change tracking is switched on so
    /// standing-query subscriptions can maintain incrementally (see
    /// [`crate::standing`]); it costs nothing until rows actually mutate.
    pub fn from_store(store: VersionedStore) -> Self {
        let mut store = store;
        store.enable_change_tracking();
        let rowmap = build_rowmap(&store);
        let snap = SnapState {
            version: store.version(),
            snap_of_row: rowmap.snap_of_row.clone(),
            row_of_snap: rowmap.row_of_snap.clone(),
            flat: Arc::new(store.snapshot_flat()),
            dataset: None,
            rtree: None,
            dual: None,
            scores: HashMap::new(),
            orders: HashMap::new(),
        };
        Self {
            store,
            policy: DeltaPolicy::default(),
            caches: DynCaches {
                fdom: Mutex::new(HashMap::new()),
                rowmap: Mutex::new(Some(Arc::new(rowmap))),
                snap: Mutex::new(snap),
                scratch_pool: ScratchPool::new(),
                loop_pool: ScratchPool::new(),
                kd_pool: KdWorkerPool::default(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                invalidated: AtomicU64::new(0),
                merges: AtomicU64::new(0),
            },
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
    /// fresh canonical base) regardless of the policy, translating every
    /// cached row reference in place — and patches the cached artifacts
    /// forward to the current version. A no-op when nothing is pending.
    pub fn merge_now(&mut self) {
        if self.store.pending_rows() == 0 {
            return;
        }
        let remap = self.store.merge();
        {
            let caches = &mut self.caches;
            caches.merges.fetch_add(1, Ordering::Relaxed);
            // Row ids changed: the per-version row map is stale (epoch key),
            // and the snapshot state's maps are translated through the
            // remap. The snapshot artifacts themselves live in snapshot-id
            // space and are untouched — the compaction itself is physical,
            // not logical.
            *caches.rowmap.get_mut().unwrap_or_else(|p| p.into_inner()) = None;
            let snap = caches.snap.get_mut().unwrap_or_else(|p| p.into_inner());
            for row in snap.row_of_snap.iter_mut() {
                if *row != NONE32 {
                    *row = remap[*row as usize];
                }
            }
            let mut snap_of_row = vec![NONE32; self.store.num_rows()];
            for (s, &row) in snap.row_of_snap.iter().enumerate() {
                if row != NONE32 {
                    snap_of_row[row as usize] = s as u32;
                }
            }
            snap.snap_of_row = snap_of_row;
        }

        // Bring the caches to the current version while we are compacting
        // anyway (delta-patch, not rebuild).
        let mut snap = lock(&self.caches.snap);
        self.advance_snap(&mut snap);
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
        DynamicQuery::new(self, DynConstraints::Linear(constraints))
    }

    /// Starts a query under weight-ratio constraints (§IV); unlocks DUAL.
    pub fn ratio_query<'e, 'q>(&'e self, ratio: &'q WeightRatio) -> DynamicQuery<'e, 'q> {
        DynamicQuery::new(self, DynConstraints::Ratio(ratio))
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

    /// The delta-patched LOOP artifacts at the current version — the same
    /// fold [`Self::export_snapshot`] performs — for the LOOP arm and the
    /// standing maintenance pass.
    pub(crate) fn loop_artifacts(&self, constraints: &ConstraintSet) -> LoopArtifacts {
        let fdom = self.fdom_for(constraints);
        let mut snap = lock(&self.caches.snap);
        self.advance_snap(&mut snap);
        let scores = self.ensure_scores(&mut snap, &fdom);
        let order = self.ensure_order(&mut snap, &fdom, &scores);
        LoopArtifacts {
            flat: Arc::clone(&snap.flat),
            scores,
            order,
            fdom,
        }
    }

    /// A leased LOOP scratch from the engine's pool, for the standing
    /// maintenance pass's layout gather and dirty recompute.
    pub(crate) fn loop_scratch(&self) -> ScratchLease<'_, LoopScratch> {
        self.caches.loop_pool.lease()
    }

    /// Per snapshot id at the current version: the instance's stable handle
    /// and owning store object — the re-keying the standing layer needs to
    /// diff results across versions.
    pub(crate) fn snapshot_handles(&self) -> (Vec<InstanceHandle>, Vec<u32>) {
        let rowmap = self.rowmap();
        let mut handles = Vec::with_capacity(rowmap.row_of_snap.len());
        let mut objects = Vec::with_capacity(rowmap.row_of_snap.len());
        for &row in &rowmap.row_of_snap {
            handles.push(self.store.handle_of_row(row as usize));
            objects.push(self.store.object_of(row as usize) as u32);
        }
        (handles, objects)
    }

    /// The current snapshot id of a live instance (`None` once removed).
    pub fn snapshot_id(&self, handle: InstanceHandle) -> Option<usize> {
        let row = self.store.row_of(handle)?;
        let rowmap = self.rowmap();
        match rowmap.snap_of_row.get(row).copied() {
            Some(s) if s != NONE32 => Some(s as usize),
            _ => None,
        }
    }

    /// Resolves one instance's probability out of an outcome. Returns `None`
    /// when the handle is gone or the engine has moved on (mutated or
    /// compacted) since the outcome's version — resolve promptly.
    pub fn prob_of(&self, outcome: &DynamicOutcome, handle: InstanceHandle) -> Option<f64> {
        if outcome.rowmap.version != self.store.version()
            || outcome.rowmap.epoch != self.store.epoch()
        {
            return None;
        }
        let row = self.store.row_of(handle)?;
        match outcome.rowmap.snap_of_row.get(row).copied() {
            Some(s) if s != NONE32 => Some(outcome.result.instance_prob(s as usize)),
            _ => None,
        }
    }

    /// Aggregate cache counters, including the dynamic-only invalidation and
    /// merge counters. A mutation-free repeat query adds only hits;
    /// see the steady-state tests.
    pub fn cache_stats(&self) -> CacheStats {
        let caches = &self.caches;
        CacheStats {
            hits: caches.hits.load(Ordering::Relaxed),
            misses: caches.misses.load(Ordering::Relaxed),
            scratch_hits: caches.scratch_pool.hits()
                + caches.loop_pool.hits()
                + caches.kd_pool.hits(),
            scratch_misses: caches.scratch_pool.misses()
                + caches.loop_pool.misses()
                + caches.kd_pool.misses(),
            caches_invalidated: caches.invalidated.load(Ordering::Relaxed),
            merges_performed: caches.merges.load(Ordering::Relaxed),
            // Coalescing and epoch pinning live one layer up, in the serving
            // layer (`crate::service`); a single-caller dynamic engine has
            // neither.
            inflight: 0,
            coalesced_builds: 0,
            snapshots_retired: 0,
            active_pins: 0,
            notifications_delivered: self.standing.counters().notifications_delivered(),
            dirty_instances_scanned: self.standing.counters().dirty_instances_scanned(),
            standing_full_fallbacks: self.standing.counters().standing_full_fallbacks(),
        }
    }

    /// Exports the engine's synchronised snapshot state at the store's
    /// current version as a bundle of shared handles — what the serving
    /// layer's publish step (`crate::service::ServiceWriter::publish`) turns
    /// into an immutable [`ServingSnapshot`](crate::service) for lock-free
    /// readers.
    ///
    /// The export is *cheap snapshot cloning*: every artifact comes out as an
    /// `Arc` clone of the engine's cached structure (the caches are first
    /// delta-patched forward to the current version, the same fold a query
    /// would trigger), so artifacts that survived the latest mutations —
    /// including the version-independent vertex enumerations — are shared
    /// with the new snapshot rather than rebuilt. Each exported score matrix
    /// and order is bitwise the cold build at this version (the standing
    /// delta-patch guarantee), so readers running the flat engines over the
    /// export agree bitwise with a cold rebuild.
    pub fn export_snapshot(&self) -> SnapshotExport {
        let mut snap = lock(&self.caches.snap);
        self.advance_snap(&mut snap);
        let fdoms = lock(&self.caches.fdom)
            .iter()
            .map(|(key, fdom)| (key.clone(), Arc::clone(fdom)))
            .collect();
        SnapshotExport {
            version: snap.version,
            flat: Arc::clone(&snap.flat),
            fdoms,
            scores: snap
                .scores
                .values()
                .map(|entry| (Arc::clone(&entry.fdom), Arc::clone(&entry.matrix)))
                .collect(),
            orders: snap
                .orders
                .values()
                .map(|entry| (entry.omega.clone(), Arc::clone(&entry.order)))
                .collect(),
            dataset: snap.dataset.clone(),
            rtree: snap.rtree.clone(),
        }
    }

    // ---- cached structures ------------------------------------------------

    /// Cached vertex enumeration — never invalidated (constraint-only).
    fn fdom_for(&self, constraints: &ConstraintSet) -> Arc<LinearFDominance> {
        let key = constraint_key(constraints);
        let mut guard = lock(&self.caches.fdom);
        if let Some(fdom) = guard.get(&key) {
            self.caches.hit();
            return Arc::clone(fdom);
        }
        self.caches.miss();
        let fdom = Arc::new(LinearFDominance::from_constraints(constraints));
        guard.insert(key, Arc::clone(&fdom));
        fdom
    }

    /// The row map at the current (version, epoch), rebuilt on demand.
    fn rowmap(&self) -> Arc<RowMap> {
        let mut guard = lock(&self.caches.rowmap);
        if let Some(rowmap) = guard.as_ref() {
            if rowmap.version == self.store.version() && rowmap.epoch == self.store.epoch() {
                self.caches.hit();
                return Arc::clone(rowmap);
            }
        }
        self.caches.miss();
        let rowmap = Arc::new(build_rowmap(&self.store));
        *guard = Some(Arc::clone(&rowmap));
        rowmap
    }

    /// Brings the snapshot state to the store's current version: the flat
    /// store is re-gathered, every cached score matrix and order is
    /// delta-patched (each counts a hit — the artifact is reused, not
    /// rebuilt), and the unpatchable structures (R-tree, DUAL index,
    /// dataset) are invalidated. No-op (a hit) when already current.
    fn advance_snap(&self, snap: &mut SnapState) {
        let store = &self.store;
        if snap.version == store.version() {
            self.caches.hit();
            return;
        }
        let rowmap = self.rowmap();
        let n = rowmap.row_of_snap.len();

        // Flat snapshot: a gather of bit copies, same result as a cold
        // FlatStore::from_dataset.
        snap.flat = Arc::new(store.snapshot_flat());

        // Score matrices: copy surviving rows, project only delta rows.
        for entry in snap.scores.values_mut() {
            let d = entry.fdom.num_vertices();
            let old = Arc::clone(&entry.matrix);
            let mut values = vec![0.0; n * d];
            for (s, chunk) in values.chunks_exact_mut(d).enumerate() {
                let row = rowmap.row_of_snap[s] as usize;
                match snap.snap_of_row.get(row).copied() {
                    Some(os) if os != NONE32 => chunk.copy_from_slice(old.row(os as usize)),
                    _ => entry
                        .fdom
                        .map_to_score_space_into(store.coords_of(row), chunk),
                }
            }
            entry.matrix = Arc::new(ScoreMatrix::from_values(d, values));
            self.caches.hit();
        }

        // LOOP orders: survivors keep their cached (bitwise) keys and their
        // relative order — old snapshot ids map monotonically onto new ones —
        // so merging the sorted delta in reproduces exactly the cold
        // (key, id) sort.
        for entry in snap.orders.values_mut() {
            let old = &entry.order;
            let mut survivors: Vec<(f64, u32)> = Vec::with_capacity(n);
            for &os in &old.order {
                let row = snap.row_of_snap[os];
                if row == NONE32 || !store.is_live(row as usize) {
                    continue;
                }
                let ns = rowmap.snap_of_row[row as usize];
                survivors.push((old.keys[os], ns));
            }
            let fresh = self.fresh_keyed_rows(&snap.snap_of_row, &rowmap, &entry.omega);
            let mut order = Vec::with_capacity(n);
            let mut keys = vec![0.0; n];
            let mut fi = 0;
            for &(key, ns) in &survivors {
                while fi < fresh.len() && sorts_before(fresh[fi], (key, ns)) {
                    keys[fresh[fi].1 as usize] = fresh[fi].0;
                    order.push(fresh[fi].1 as usize);
                    fi += 1;
                }
                keys[ns as usize] = key;
                order.push(ns as usize);
            }
            for &(key, ns) in &fresh[fi..] {
                keys[ns as usize] = key;
                order.push(ns as usize);
            }
            debug_assert_eq!(order.len(), n);
            entry.order = Arc::new(InstanceOrder { order, keys });
            self.caches.hit();
        }

        // The bulk-loaded R-tree, the DUAL index and the row-oriented
        // dataset are not patched — invalidate, rebuild lazily.
        if snap.rtree.take().is_some() {
            self.caches.invalidate();
        }
        if snap.dual.take().is_some() {
            self.caches.invalidate();
        }
        if snap.dataset.take().is_some() {
            self.caches.invalidate();
        }

        snap.snap_of_row = rowmap.snap_of_row.clone();
        snap.row_of_snap = rowmap.row_of_snap.clone();
        snap.version = store.version();
    }

    /// The live rows the snapshot state does not know about (the unindexed
    /// delta), keyed by their score under `omega` and sorted under the cold
    /// `(key, snapshot id)` comparison. `omega` must be the preference
    /// region's first vertex: each key then equals the row's score-matrix
    /// column 0 bit for bit, and merging these rows into the surviving
    /// order lands on the cold sort.
    fn fresh_keyed_rows(
        &self,
        snap_of_row: &[u32],
        rowmap: &RowMap,
        omega: &[f64],
    ) -> Vec<(f64, u32)> {
        let store = &self.store;
        let mut fresh: Vec<(f64, u32)> = Vec::new();
        // Membership scan, deliberately not a tail walk: within an epoch the
        // delta is the live tail beyond `snap_of_row.len()`, but during a
        // merge's cache fold the translated map covers the *post-merge* row
        // space, where surviving delta rows sit interleaved below that
        // horizon. The O(n) scan is exact in both states and is dwarfed by
        // the O(n·d') work every caller performs around it.
        for (s, &r) in rowmap.row_of_snap.iter().enumerate() {
            let row = r as usize;
            if snap_of_row.get(row).copied().unwrap_or(NONE32) == NONE32 {
                let key = arsp_geometry::point::score(store.coords_of(row), omega);
                fresh.push((key, s as u32));
            }
        }
        sort_keyed(&mut fresh);
        fresh
    }

    /// The score matrix for `fdom` at the snapshot state's version.
    fn ensure_scores(
        &self,
        snap: &mut SnapState,
        fdom: &Arc<LinearFDominance>,
    ) -> Arc<ScoreMatrix> {
        let key = vertices_key(fdom);
        if let Some(entry) = snap.scores.get(&key) {
            self.caches.hit();
            return Arc::clone(&entry.matrix);
        }
        self.caches.miss();
        let matrix = Arc::new(ScoreMatrix::compute(&snap.flat, fdom));
        snap.scores.insert(
            key,
            SnapScores {
                fdom: Arc::clone(fdom),
                matrix: Arc::clone(&matrix),
            },
        );
        matrix
    }

    /// The LOOP order for `fdom`'s first vertex at the snapshot state's
    /// version.
    fn ensure_order(
        &self,
        snap: &mut SnapState,
        fdom: &LinearFDominance,
        scores: &ScoreMatrix,
    ) -> Arc<InstanceOrder> {
        let omega = &fdom.vertices()[0];
        let key = omega_key(omega);
        if let Some(entry) = snap.orders.get(&key) {
            self.caches.hit();
            return Arc::clone(&entry.order);
        }
        self.caches.miss();
        let order = Arc::new(instance_order_from_scores(scores));
        snap.orders.insert(
            key,
            SnapOrder {
                omega: omega.clone(),
                order: Arc::clone(&order),
            },
        );
        order
    }

    /// The snapshot dataset at the (advanced) snapshot state's version.
    fn ensure_dataset(&self, snap: &mut SnapState) -> Arc<UncertainDataset> {
        if let Some(dataset) = snap.dataset.as_ref() {
            self.caches.hit();
            return Arc::clone(dataset);
        }
        self.caches.miss();
        let dataset = Arc::new(self.store.snapshot_dataset());
        snap.dataset = Some(Arc::clone(&dataset));
        dataset
    }

    /// The instance R-tree at the (advanced) snapshot state's version.
    fn ensure_rtree(&self, snap: &mut SnapState, dataset: &UncertainDataset) -> SharedRTree {
        if let Some(rtree) = snap.rtree.as_ref() {
            self.caches.hit();
            return Arc::clone(rtree);
        }
        self.caches.miss();
        let rtree: SharedRTree = Arc::new(build_instance_rtree(dataset));
        snap.rtree = Some(Arc::clone(&rtree));
        rtree
    }

    /// The DUAL per-object index at the (advanced) snapshot state's version.
    fn ensure_dual_index(&self, snap: &mut SnapState) -> SharedAggregateForest {
        if let Some(index) = snap.dual.as_ref() {
            self.caches.hit();
            return Arc::clone(index);
        }
        self.caches.miss();
        let index: SharedAggregateForest = Arc::new(build_dual_index(&snap.flat));
        snap.dual = Some(Arc::clone(&index));
        index
    }

    // ---- per-algorithm execution -----------------------------------------

    /// LOOP over the advanced snapshot: patched flat store, score matrix and
    /// order, same flat engine as the static path.
    fn run_loop(
        &self,
        constraints: &ConstraintSet,
        parallel: bool,
        stats: Option<&CounterStats>,
    ) -> ArspResult {
        let art = self.loop_artifacts(constraints);
        let mut scratch = self.caches.loop_pool.lease();
        arsp_loop_flat_engine(
            &art.flat,
            &art.scores,
            &art.order,
            parallel,
            stats,
            Some(&mut scratch),
            Some(&self.caches.loop_pool),
            None,
        )
    }

    /// KDTT-family execution over the advanced snapshot: patched flat store
    /// and score matrix, same flat engines as the static path.
    fn run_kd(
        &self,
        constraints: &ConstraintSet,
        variant: KdVariant,
        parallel: bool,
        stats: Option<&CounterStats>,
    ) -> ArspResult {
        let fdom = self.fdom_for(constraints);
        let (flat, scores) = {
            let mut snap = lock(&self.caches.snap);
            self.advance_snap(&mut snap);
            let scores = self.ensure_scores(&mut snap, &fdom);
            (Arc::clone(&snap.flat), scores)
        };
        let mut scratch = self.caches.scratch_pool.lease();
        arsp_kdtt_flat_engine(
            &flat,
            &scores,
            variant,
            parallel,
            stats,
            scratch.kd_mut(),
            Some(&self.caches.kd_pool),
            None,
        )
    }

    /// B&B execution over the advanced snapshot: the instance R-tree is the
    /// one lazily rebuilt structure (STR bulk loads cannot be patched).
    fn run_bnb(
        &self,
        constraints: &ConstraintSet,
        parallel: bool,
        stats: Option<&CounterStats>,
    ) -> ArspResult {
        let fdom = self.fdom_for(constraints);
        let (dataset, rtree, scores) = {
            let mut snap = lock(&self.caches.snap);
            self.advance_snap(&mut snap);
            let scores = self.ensure_scores(&mut snap, &fdom);
            let dataset = self.ensure_dataset(&mut snap);
            let rtree = self.ensure_rtree(&mut snap, &dataset);
            (dataset, rtree, scores)
        };
        let mut scratch = self.caches.scratch_pool.lease();
        arsp_bnb_engine(
            &dataset,
            &fdom,
            Some(&rtree),
            Some(&scores),
            parallel,
            stats,
            Some(scratch.bnb_mut()),
            None,
        )
    }

    /// ENUM over the advanced snapshot dataset (toy sizes only).
    fn run_enum(&self, constraints: &ConstraintSet) -> ArspResult {
        let dataset = {
            let mut snap = lock(&self.caches.snap);
            self.advance_snap(&mut snap);
            self.ensure_dataset(&mut snap)
        };
        arsp_enum(&dataset, constraints)
    }

    /// DUAL over the advanced snapshot: the per-object index is rebuilt
    /// lazily per version, like the R-tree.
    fn run_dual(
        &self,
        ratio: &WeightRatio,
        parallel: bool,
        stats: Option<&CounterStats>,
    ) -> ArspResult {
        let (flat, index) = {
            let mut snap = lock(&self.caches.snap);
            self.advance_snap(&mut snap);
            let index = self.ensure_dual_index(&mut snap);
            (Arc::clone(&snap.flat), index)
        };
        arsp_dual_flat_engine(&flat, ratio, &index, parallel, stats, None)
    }
}

/// One version's cached artifacts, exported as shared handles (see
/// [`DynamicArspEngine::export_snapshot`]). Everything in here is immutable
/// and in snapshot-id space at `version`; `dataset` and `rtree` are present
/// only when the engine had them cached (they are lazily built, so an engine
/// that never ran B&B/ENUM has none to share).
pub struct SnapshotExport {
    /// The store version the artifacts describe.
    pub version: u64,
    /// The columnar snapshot — bitwise `FlatStore::from_dataset` of the
    /// snapshot dataset.
    pub flat: Arc<FlatStore>,
    /// Version-independent vertex enumerations, keyed by the constraint-set
    /// fingerprint the engine caches them under.
    pub fdoms: Vec<(Vec<u64>, Arc<LinearFDominance>)>,
    /// Per-constraint score matrices (with the enumeration that keys each).
    pub scores: Vec<(Arc<LinearFDominance>, Arc<ScoreMatrix>)>,
    /// Per-vertex LOOP orders (with the vertex that keys each).
    pub orders: Vec<(Vec<f64>, Arc<InstanceOrder>)>,
    /// The row-oriented snapshot dataset, when cached.
    pub dataset: Option<Arc<UncertainDataset>>,
    /// The B&B instance R-tree, when cached.
    pub rtree: Option<SharedRTree>,
}

/// The constraints a dynamic query was built from.
enum DynConstraints<'q> {
    Linear(&'q ConstraintSet),
    Ratio(&'q WeightRatio),
}

/// A fluent dynamic query — mirror of [`crate::engine::ArspQuery`]. Finish
/// with [`DynamicQuery::run`].
pub struct DynamicQuery<'e, 'q> {
    engine: &'e DynamicArspEngine,
    constraints: DynConstraints<'q>,
    algorithm: QueryAlgorithm,
    execution: Execution,
    collect_stats: bool,
}

impl<'e, 'q> DynamicQuery<'e, 'q> {
    fn new(engine: &'e DynamicArspEngine, constraints: DynConstraints<'q>) -> Self {
        Self {
            engine,
            constraints,
            algorithm: QueryAlgorithm::Auto,
            execution: Execution::Sequential,
            collect_stats: false,
        }
    }

    /// Forces an algorithm (default: [`QueryAlgorithm::Auto`]).
    ///
    /// # Panics
    /// `run()` panics if [`QueryAlgorithm::Dual`] is forced on a non-ratio
    /// query.
    pub fn algorithm(mut self, algorithm: impl Into<QueryAlgorithm>) -> Self {
        self.algorithm = algorithm.into();
        self
    }

    /// Chooses the execution mode (default: [`Execution::Sequential`]);
    /// parallel execution is bitwise identical.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Collects work counters into [`DynamicOutcome::counters`].
    pub fn collect_stats(mut self, on: bool) -> Self {
        self.collect_stats = on;
        self
    }

    /// Executes the query at the store's current version.
    pub fn run(self) -> DynamicOutcome {
        let engine = self.engine;
        let store = &engine.store;
        let dim = match &self.constraints {
            DynConstraints::Linear(cs) => cs.dim(),
            DynConstraints::Ratio(r) => r.dim(),
        };
        assert_eq!(store.dim(), dim, "dimension mismatch");

        let sink = if self.collect_stats {
            Some(CounterStats::new())
        } else {
            None
        };
        let stats = sink.as_ref();
        let parallel = matches!(self.execution, Execution::Parallel { .. });

        let (algorithm, selection_reason) = match self.algorithm {
            QueryAlgorithm::Auto => match &self.constraints {
                DynConstraints::Ratio(_) => {
                    let (a, why) = auto_select(
                        store.num_live_objects(),
                        store.num_live_instances(),
                        0,
                        true,
                    );
                    (a, Some(why))
                }
                DynConstraints::Linear(cs) => {
                    let fdom = engine.fdom_for(cs);
                    let (a, why) = auto_select(
                        store.num_live_objects(),
                        store.num_live_instances(),
                        fdom.num_vertices(),
                        false,
                    );
                    (a, Some(why))
                }
            },
            forced => (forced, None),
        };

        // Materialise the linear constraint set when a general algorithm
        // runs a ratio query.
        let derived;
        let linear: Option<&ConstraintSet> = match (&self.constraints, algorithm) {
            (_, QueryAlgorithm::Dual) => None,
            (DynConstraints::Linear(cs), _) => Some(cs),
            (DynConstraints::Ratio(r), _) => {
                derived = r.to_constraint_set();
                Some(&derived)
            }
        };

        let execute = || match algorithm {
            QueryAlgorithm::Auto => unreachable!("Auto was resolved above"),
            QueryAlgorithm::Dual => {
                let ratio = match &self.constraints {
                    DynConstraints::Ratio(r) => *r,
                    DynConstraints::Linear(_) => panic!(
                        "the DUAL algorithm needs weight-ratio constraints; \
                         build the query with DynamicArspEngine::ratio_query"
                    ),
                };
                engine.run_dual(ratio, parallel, stats)
            }
            QueryAlgorithm::Enum => {
                engine.run_enum(linear.expect("linear constraints materialised above"))
            }
            QueryAlgorithm::Loop => engine.run_loop(
                linear.expect("linear constraints materialised above"),
                parallel,
                stats,
            ),
            QueryAlgorithm::Kdtt | QueryAlgorithm::KdttPlus | QueryAlgorithm::QdttPlus => {
                let variant = match algorithm {
                    QueryAlgorithm::Kdtt => KdVariant::Prebuilt,
                    QueryAlgorithm::QdttPlus => KdVariant::FusedQuad,
                    _ => KdVariant::FusedKd,
                };
                engine.run_kd(
                    linear.expect("linear constraints materialised above"),
                    variant,
                    parallel,
                    stats,
                )
            }
            QueryAlgorithm::BranchAndBound => engine.run_bnb(
                linear.expect("linear constraints materialised above"),
                parallel,
                stats,
            ),
        };

        let result = match self.execution {
            #[cfg(feature = "parallel")]
            Execution::Parallel { threads } if threads > 0 => {
                crate::parallel::with_pool_sized(threads, execute)
            }
            _ => execute(),
        };

        DynamicOutcome {
            result,
            algorithm,
            selection_reason,
            rowmap: engine.rowmap(),
            counters: sink.map(|s| s.snapshot()),
        }
    }
}

/// The result of one dynamic query: snapshot-space probabilities (instance
/// id `i` = the `i`-th live instance in canonical order — exactly the ids a
/// cold engine on [`DynamicArspEngine::snapshot_dataset`] would use) plus
/// the version it answered at.
pub struct DynamicOutcome {
    result: ArspResult,
    algorithm: QueryAlgorithm,
    selection_reason: Option<&'static str>,
    rowmap: Arc<RowMap>,
    counters: Option<QueryCounters>,
}

impl DynamicOutcome {
    /// The computed probabilities, in snapshot-instance-id space.
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

    /// `true` when the engine picked the algorithm.
    pub fn auto_selected(&self) -> bool {
        self.selection_reason.is_some()
    }

    /// Why the engine picked [`DynamicOutcome::algorithm`], when it did.
    pub fn selection_reason(&self) -> Option<&'static str> {
        self.selection_reason
    }

    /// The store version this outcome answered at.
    pub fn version(&self) -> u64 {
        self.rowmap.version
    }

    /// Rskyline probability of one snapshot instance.
    pub fn instance_prob(&self, snapshot_id: usize) -> f64 {
        self.result.instance_prob(snapshot_id)
    }

    /// Number of instances with non-zero rskyline probability.
    pub fn result_size(&self) -> usize {
        self.result.result_size()
    }

    /// Work counters, when requested via `collect_stats`.
    pub fn counters(&self) -> Option<QueryCounters> {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ArspEngine;
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
        // Each round rebuilds only the per-version row map: the score
        // matrix and the order are patched forward (hits), not rebuilt.
        assert_eq!(churned.misses, warm.misses + 4);
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
