//! The concurrent MVCC serving layer: many lock-free readers, one writer.
//!
//! [`crate::dynamic::DynamicArspEngine`] made the dataset mutable, but its
//! API boundary is still a single `&mut` engine — mutations and queries
//! serialise. [`ArspService`] splits that boundary in two:
//!
//! * **Readers** hold an [`ArspService`] handle (cheaply cloneable) and call
//!   [`ArspService::pin`] to pin the current version. A [`SnapshotPin`] is an
//!   immutable view: the columnar [`FlatStore`], the per-constraint
//!   [`ScoreMatrix`](crate::ScoreMatrix)s, vertex enumerations and index
//!   arenas of that version, all behind `Arc`s. Queries on a pin never take the writer's locks and
//!   never observe a later version (snapshot isolation) — they are bitwise
//!   equal to a cold single-threaded engine rebuilt on the pinned version's
//!   dataset, the same exactness contract every other layer of this repo
//!   honours (enforced by `tests/service_stress.rs` under real concurrency).
//! * **The writer** owns a [`ServiceWriter`]: mutations go through the
//!   underlying dynamic engine (`&mut self`, invisible to readers), and
//!   [`ServiceWriter::publish`] atomically swaps in a new snapshot built from
//!   the engine's delta-patched caches ([`DynamicArspEngine::export_snapshot`]
//!   — artifacts that survived the mutations are *shared* with the new
//!   snapshot, not rebuilt).
//!
//! A pinned query runs the same pipeline as the static and dynamic engines
//! ([`crate::pipeline`]): the pin's snapshot is its artifact source, and
//! [`ServiceQuery`] keeps only what is the service's own — admission
//! control, the query counter and the pinned version on the outcome.
//!
//! ## Epoch-based reclamation
//!
//! Every pin registers with an [`EpochPinRegistry`]. When a publish
//! supersedes a snapshot that still has pins, the snapshot moves to a
//! graveyard instead of being dropped; the **last** pin's release retires it
//! (drops its cached arenas). Registration and release happen under the same
//! lock as the publish swap, so a pin can never race a retirement: only the
//! current snapshot can gain new pins, and a snapshot with pins is never
//! dropped. A leaked pin (one that is never dropped) keeps its snapshot alive
//! forever — conservative by construction, no unsafe code anywhere.
//!
//! ## Batch coalescing
//!
//! The static and dynamic engines let concurrent cache misses race and
//! discard the losing builds. Under serving-level concurrency that wastes
//! real work: ten readers arriving with the same new constraint set would
//! project ten identical score matrices. The serving caches therefore
//! *coalesce*: the first requester claims the build, later requesters with
//! the same key block on a condvar and share the published artifact
//! ([`ServingStats::coalesced_builds`] counts the joins). Distinct keys never
//! wait on each other. The `#[doc(hidden)]`
//! [`ArspService::set_coalescing_rendezvous`] knob makes a builder wait for a
//! fixed number of joiners before publishing — deterministic-test machinery,
//! not a production setting.
//!
//! ## Fault tolerance
//!
//! Queries on a pin carry the same deadline/budget plumbing as the static
//! engine ([`ServiceQuery::deadline`], [`ServiceQuery::try_run`]): expiry
//! surfaces as a typed [`crate::fault::QueryError`], and — because scratch
//! travels in RAII leases, epoch pins in RAII [`arsp_data::PinGuard`]s, and
//! coalescing caches publish complete artifacts or nothing — the service
//! stays fully usable afterwards; the next identical query is bitwise equal
//! to a cold rebuild. [`ArspService::set_admission_limit`] bounds
//! concurrently *executing* queries, shedding the excess with a typed
//! [`Overloaded`](crate::fault::QueryError::Overloaded) error instead of
//! queueing (pair with [`crate::fault::RetryPolicy`] for jittered backoff).
//! A joiner whose deadline expires while waiting on another thread's
//! in-flight cache build detaches with a typed
//! [`BuildTimeout`](crate::fault::QueryError::BuildTimeout); the builder
//! keeps going and still publishes for everyone else.
//!
//! ```
//! use arsp_core::service::ArspService;
//! use arsp_geometry::constraints::ConstraintSet;
//!
//! let (service, mut writer) = ArspService::from_dataset(&arsp_data::paper_running_example());
//! let constraints = ConstraintSet::weak_ranking(2, 1);
//!
//! // A reader pins version 0 …
//! let pin = service.pin();
//!
//! // … the writer revises an instance and publishes version 1 …
//! let handle = writer.store().handle_of_row(2);
//! writer.update_instance(handle, &[3.0, 4.0], 0.05);
//! writer.publish();
//!
//! // … and the pinned reader still answers at version 0, while a fresh pin
//! // sees version 1.
//! assert_eq!(pin.version(), 0);
//! assert_eq!(service.pin().version(), 1);
//! let v0 = pin.query(&constraints).run();
//! assert_eq!(v0.version(), 0);
//! drop(pin); // releases the epoch pin; version 0's caches may now retire
//! ```

use std::collections::HashMap;
use std::time::Duration;

use crate::dynamic::DynamicArspEngine;
use crate::engine::{CacheStats, Execution, QueryAlgorithm};
use crate::fault::{QueryBudget, QueryError};
use crate::pipeline::{
    contain, execute, QueryConstraints, QueryOutcome, QuerySpec, ServingSnapshot, SharedArtifacts,
};
use crate::standing::{StandingQueryRegistry, StandingSpec, SubscriptionGuard};
use crate::stats::{PeakGauge, PeakGaugeGuard};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{lock, Arc, Mutex};
use arsp_data::{
    EpochPinRegistry, FlatStore, InstanceHandle, PinGuard, UncertainDataset, VersionedStore,
};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};

/// Monotone service counters.
#[derive(Debug, Default)]
struct ServiceCounters {
    queries: AtomicU64,
    published: AtomicU64,
    retired: AtomicU64,
    shed: AtomicU64,
}

/// The swap point: the current snapshot plus the superseded-but-still-pinned
/// ones. Pin registration/release and the publish swap all run under this
/// one mutex, which is what makes "a pinned snapshot is never retired" a
/// lock-ordering fact rather than a best-effort race.
struct ServiceState {
    current: Arc<ServingSnapshot>,
    /// Superseded snapshots that still have pins, by version. An entry drops
    /// (retires) when its last pin releases.
    graveyard: HashMap<u64, Arc<ServingSnapshot>>,
}

/// Everything readers and writer share.
struct ServiceShared {
    state: Mutex<ServiceState>,
    pins: Arc<EpochPinRegistry>,
    /// Admission cap on concurrently executing queries; `0` = unlimited.
    admission_limit: AtomicU64,
    /// The vertex enumerations (shared across *all* snapshots — constraints
    /// never go stale), scratch pools and coalescing counters.
    artifacts: SharedArtifacts,
    gauge: PeakGauge,
    counters: ServiceCounters,
    /// The writer engine's standing-query registry, shared so readers can
    /// subscribe through the service handle (see [`ArspService::subscribe`]).
    standing: StandingQueryRegistry,
}

/// The reader half of the serving layer: cheap to clone (an `Arc` inside),
/// shareable across any number of threads. See the [module docs](self).
#[derive(Clone)]
pub struct ArspService {
    shared: Arc<ServiceShared>,
}

impl ArspService {
    /// Builds a service over a frozen dataset (the bulk load becomes
    /// version 0, published immediately). Returns the reader handle and the
    /// single writer.
    pub fn from_dataset(dataset: &UncertainDataset) -> (Self, ServiceWriter) {
        Self::from_store(VersionedStore::from_dataset(dataset))
    }

    /// Builds a service over an existing versioned store (its current
    /// version is published immediately).
    pub fn from_store(store: VersionedStore) -> (Self, ServiceWriter) {
        Self::from_engine(DynamicArspEngine::from_store(store))
    }

    /// Wraps an existing dynamic engine — its warmed caches seed the first
    /// published snapshot.
    pub fn from_engine(engine: DynamicArspEngine) -> (Self, ServiceWriter) {
        let artifacts = SharedArtifacts::new();
        let current = Arc::new(artifacts.snapshot(engine.export_snapshot()));
        let shared = Arc::new(ServiceShared {
            state: Mutex::new(ServiceState {
                current,
                graveyard: HashMap::new(),
            }),
            pins: Arc::new(EpochPinRegistry::new()),
            admission_limit: AtomicU64::new(0),
            artifacts,
            gauge: PeakGauge::new(),
            counters: ServiceCounters::default(),
            standing: engine.standing().clone(),
        });
        shared.counters.published.fetch_add(1, Ordering::Relaxed);
        let service = Self {
            shared: Arc::clone(&shared),
        };
        (service, ServiceWriter { engine, shared })
    }

    /// Pins the currently published version: the returned [`SnapshotPin`]
    /// keeps answering at that version — its caches cannot be retired —
    /// until it is dropped. Registration is atomic with the publish swap, so
    /// a pin always lands on a snapshot that is current at registration
    /// time.
    pub fn pin(&self) -> SnapshotPin {
        let shared = &self.shared;
        let state = lock(&shared.state);
        let snapshot = Arc::clone(&state.current);
        let guard = shared.pins.register_guarded(snapshot.version);
        drop(state);
        SnapshotPin {
            snapshot,
            shared: Arc::clone(shared),
            guard,
        }
    }

    /// The currently published version.
    pub fn current_version(&self) -> u64 {
        lock(&self.shared.state).current.version
    }

    /// Registers a standing query against this service. The subscription is
    /// *pending* until the writer next refreshes —
    /// [`ServiceWriter::publish`] after a mutation batch, or
    /// [`ServiceWriter::sync_subscriptions`] when nothing is pending — at
    /// which point the guard's first [`crate::standing::ChangeBatch`] is the
    /// full result at the published version. All later batches arrive in
    /// publish order with gapless per-subscription result versions; dropping
    /// the guard unsubscribes (see [`crate::standing`]).
    pub fn subscribe(&self, spec: StandingSpec) -> SubscriptionGuard {
        self.shared.standing.subscribe(spec)
    }

    /// Pre-builds `readers` reusable per-query scratch arenas (and as many
    /// parallel-worker arenas), so admission of the first wave of reader
    /// threads does not pay arena construction on the query path. Purely an
    /// allocation-timing knob — results never depend on scratch state.
    pub fn warm_scratch(&self, readers: usize) {
        let pools = &self.shared.artifacts.pools;
        pools.scratch.warm(readers);
        pools.loops.warm(readers);
    }

    /// **Deterministic-test knob** — makes every cache builder wait for `n`
    /// joiners (or a liveness timeout) before publishing its artifact, so a
    /// test can *prove* a join happened rather than winning a race. `0`
    /// (the default) publishes immediately. Not a production setting: it
    /// trades latency for determinism.
    #[doc(hidden)]
    pub fn set_coalescing_rendezvous(&self, n: usize) {
        self.shared.artifacts.rendezvous.store(n, Ordering::Relaxed);
    }

    /// Caps the number of concurrently *executing* queries at `limit`:
    /// beyond it, [`ServiceQuery::try_run`] sheds the query with a typed
    /// [`QueryError::Overloaded`] instead of queueing it (pair with
    /// [`crate::fault::RetryPolicy`] for jittered retry). `None` — the
    /// default — admits everything. The bound is exact under every
    /// interleaving: admission reserves the gauge slot optimistically and
    /// undoes the reservation on shed, so `limit` is never exceeded even
    /// momentarily by an admitted query. A shed query touches no cache,
    /// scratch pool or snapshot state. `Some(0)` is treated as `None`.
    pub fn set_admission_limit(&self, limit: Option<u64>) {
        self.shared
            .admission_limit
            .store(limit.unwrap_or(0), Ordering::Relaxed);
    }

    /// Serving-layer runtime statistics. Monotone counters describe the
    /// whole session; `inflight`, `active_pins` and `pinned_snapshots` are
    /// live gauges.
    pub fn serving_stats(&self) -> ServingStats {
        let shared = &self.shared;
        let cache = shared.artifacts.cache_stats();
        ServingStats {
            inflight: shared.gauge.current(),
            peak_inflight: shared.gauge.peak(),
            queries_served: shared.counters.queries.load(Ordering::Relaxed),
            queries_shed: shared.counters.shed.load(Ordering::Relaxed),
            shared_builds: cache.misses,
            coalesced_builds: cache.coalesced_builds,
            cache_hits: cache.hits,
            snapshots_published: shared.counters.published.load(Ordering::Relaxed),
            snapshots_retired: shared.counters.retired.load(Ordering::Relaxed),
            active_pins: shared.pins.active_pins(),
            pinned_snapshots: shared.pins.pinned_versions().len() as u64,
            notifications_delivered: shared.standing.counters().notifications_delivered(),
            dirty_instances_scanned: 0,
            standing_full_fallbacks: 0,
        }
    }

    /// The serving layer's cache counters in the engine-wide [`CacheStats`]
    /// shape: `hits`/`misses` are coalescing-cache lookups (a join counts
    /// under [`CacheStats::coalesced_builds`], not as a miss), the scratch
    /// counters aggregate the shared pools, and the serving-only fields
    /// (`inflight`, `coalesced_builds`, `snapshots_retired`, `active_pins`)
    /// are live. The writer's engine keeps its own
    /// [`DynamicArspEngine::cache_stats`].
    pub fn cache_stats(&self) -> CacheStats {
        let shared = &self.shared;
        CacheStats {
            inflight: shared.gauge.current(),
            snapshots_retired: shared.counters.retired.load(Ordering::Relaxed),
            active_pins: shared.pins.active_pins(),
            notifications_delivered: shared.standing.counters().notifications_delivered(),
            ..shared.artifacts.cache_stats()
        }
    }
}

/// Serving-layer runtime statistics (see [`ArspService::serving_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Queries in flight right now.
    pub inflight: u64,
    /// Highest concurrent in-flight query count ever observed.
    pub peak_inflight: u64,
    /// Queries served (monotone).
    pub queries_served: u64,
    /// Queries shed by admission control ([`ArspService::set_admission_limit`])
    /// without executing.
    pub queries_shed: u64,
    /// Artifact builds actually performed across all serving caches —
    /// exactly one per distinct missing key, however many readers asked.
    pub shared_builds: u64,
    /// Lookups that joined another thread's in-progress build instead of
    /// duplicating it.
    pub coalesced_builds: u64,
    /// Lookups answered from an already-published artifact.
    pub cache_hits: u64,
    /// Snapshots published (the constructor's initial snapshot counts).
    pub snapshots_published: u64,
    /// Superseded snapshots reclaimed after their last pin dropped (or that
    /// had no pins at publish time).
    pub snapshots_retired: u64,
    /// Epoch pins currently outstanding.
    pub active_pins: u64,
    /// Distinct versions currently pinned.
    pub pinned_snapshots: u64,
    /// Standing-query change-set notifications enqueued by the writer's
    /// refreshes (one per subscription per published version change, plus
    /// each subscription's initial full batch).
    pub notifications_delivered: u64,
    /// Always 0: every standing refresh is one ordinary query, so no pass
    /// recomputes a dirty subset any more. Kept only because the serving
    /// benchmark reads it; the next change to the benchmark drops it.
    pub dirty_instances_scanned: u64,
    /// Always 0, for the same reason as
    /// [`dirty_instances_scanned`](Self::dirty_instances_scanned): no
    /// refresh has a cheaper path to fall back from.
    pub standing_full_fallbacks: u64,
}

/// The writer half: owns the dynamic engine. Mutations are invisible to
/// readers until [`ServiceWriter::publish`].
pub struct ServiceWriter {
    engine: DynamicArspEngine,
    shared: Arc<ServiceShared>,
}

impl ServiceWriter {
    /// Publishes the engine's current version: builds a serving snapshot
    /// from the engine's delta-patched caches and atomically swaps it in.
    /// The superseded snapshot retires immediately when unpinned, or moves
    /// to the graveyard until its last pin drops. A no-op (returning the
    /// already-published version) when nothing changed since the last
    /// publish. Returns the published version.
    pub fn publish(&mut self) -> u64 {
        let shared = &self.shared;
        {
            let state = lock(&shared.state);
            if state.current.version == self.engine.version() {
                // Nothing new to publish — but pending subscriptions still
                // get their initial batch at the already-published version.
                self.engine.refresh_standing();
                return state.current.version;
            }
        }
        let snapshot = Arc::new(shared.artifacts.snapshot(self.engine.export_snapshot()));
        let version = snapshot.version;
        let mut state = lock(&shared.state);
        let old = std::mem::replace(&mut state.current, snapshot);
        shared.counters.published.fetch_add(1, Ordering::Relaxed);
        if shared.pins.pin_count(old.version) > 0 {
            state.graveyard.insert(old.version, old);
        } else {
            // Unpinned at the swap: retire (drop the caches) right away. New
            // pins can no longer land on it — pinning is under this lock.
            shared.counters.retired.fetch_add(1, Ordering::Relaxed);
        }
        drop(state);
        // Drain the notification queue on the writer thread, right after the
        // swap: every subscription moves to exactly this version, so
        // subscribers observe change-sets in publish order with no missed or
        // duplicated result versions (the publish-vs-notify protocol the
        // model checker exercises).
        self.engine.refresh_standing();
        version
    }

    /// Delivers initial batches to subscriptions registered since the last
    /// publish, without publishing anything. A no-op (and the safe choice)
    /// while unpublished mutations are pending — readers must never learn of
    /// state that has not been published, so this refreshes only when the
    /// engine is exactly at the published version; otherwise the next
    /// [`publish`](Self::publish) delivers.
    pub fn sync_subscriptions(&mut self) {
        let published = lock(&self.shared.state).current.version;
        if published == self.engine.version() {
            self.engine.refresh_standing();
        }
    }

    /// Adds a new uncertain object; returns its store object id. (Invisible
    /// to readers until [`ServiceWriter::publish`], like every mutation.)
    pub fn insert_object(
        &mut self,
        label: Option<String>,
        instances: Vec<(Vec<f64>, f64)>,
    ) -> usize {
        self.engine.insert_object(label, instances)
    }

    /// Appends an instance to an object; returns its stable handle.
    pub fn insert_instance(&mut self, object: usize, coords: &[f64], prob: f64) -> InstanceHandle {
        self.engine.insert_instance(object, coords, prob)
    }

    /// Overwrites one instance (revised coordinates and/or probability).
    pub fn update_instance(&mut self, handle: InstanceHandle, coords: &[f64], prob: f64) {
        self.engine.update_instance(handle, coords, prob)
    }

    /// Deletes one instance (tombstone).
    pub fn remove_instance(&mut self, handle: InstanceHandle) {
        self.engine.remove_instance(handle)
    }

    /// Retires a whole object.
    pub fn retire_object(&mut self, object: usize) {
        self.engine.retire_object(object)
    }

    /// Compacts the store now (see [`DynamicArspEngine::merge_now`]).
    /// Published snapshots are unaffected — they hold their own artifacts.
    pub fn merge_now(&mut self) {
        self.engine.merge_now()
    }

    /// Read access to the underlying versioned store.
    pub fn store(&self) -> &VersionedStore {
        self.engine.store()
    }

    /// The store's current (possibly unpublished) version.
    pub fn version(&self) -> u64 {
        self.engine.version()
    }

    /// The engine's current logical content as a frozen dataset — what a
    /// cold rebuild at [`ServiceWriter::version`] would be seeded with.
    pub fn snapshot_dataset(&self) -> UncertainDataset {
        self.engine.snapshot_dataset()
    }

    /// The underlying dynamic engine (for writer-side queries or stats).
    pub fn engine(&self) -> &DynamicArspEngine {
        &self.engine
    }

    /// Mutable access to the underlying dynamic engine — for mutation
    /// batches driven through the [`DynamicArspEngine`] API (e.g. the shared
    /// agreement-test harness). Readers still see nothing until
    /// [`ServiceWriter::publish`].
    pub fn engine_mut(&mut self) -> &mut DynamicArspEngine {
        &mut self.engine
    }

    /// A fresh reader handle for this writer's service.
    pub fn service(&self) -> ArspService {
        ArspService {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// A pinned, immutable view of one published version. Queries run lock-free
/// against the snapshot's `Arc`'d artifacts; the pin's existence keeps those
/// artifacts alive (epoch-based reclamation). Clone to add pins; drop to
/// release — the last release of a superseded version retires it.
pub struct SnapshotPin {
    snapshot: Arc<ServingSnapshot>,
    shared: Arc<ServiceShared>,
    /// RAII epoch pin: releases exactly once even if a query on this pin
    /// panics and the pin is dropped mid-unwind.
    guard: PinGuard,
}

impl SnapshotPin {
    /// The pinned version.
    pub fn version(&self) -> u64 {
        self.snapshot.version
    }

    /// Number of live instances in the pinned snapshot.
    pub fn num_instances(&self) -> usize {
        self.snapshot.flat.num_instances()
    }

    /// Number of objects in the pinned snapshot.
    pub fn num_objects(&self) -> usize {
        self.snapshot.flat.num_objects()
    }

    /// The pinned columnar snapshot.
    pub fn flat(&self) -> &FlatStore {
        &self.snapshot.flat
    }

    /// Starts a query under general linear constraints against the pinned
    /// version (fluent, like [`crate::engine::ArspEngine::query`]).
    pub fn query<'p, 'q>(&'p self, constraints: &'q ConstraintSet) -> ServiceQuery<'p, 'q> {
        ServiceQuery::new(self, QueryConstraints::Linear(constraints))
    }

    /// Starts a query under weight-ratio constraints (§IV); unlocks DUAL.
    pub fn ratio_query<'p, 'q>(&'p self, ratio: &'q WeightRatio) -> ServiceQuery<'p, 'q> {
        ServiceQuery::new(self, QueryConstraints::Ratio(ratio))
    }
}

impl Clone for SnapshotPin {
    /// Another pin on the same version (registered with the reclamation
    /// accounting, like a fresh [`ArspService::pin`] would be).
    fn clone(&self) -> Self {
        let _state = lock(&self.shared.state);
        let guard = self.shared.pins.register_guarded(self.snapshot.version);
        Self {
            snapshot: Arc::clone(&self.snapshot),
            shared: Arc::clone(&self.shared),
            guard,
        }
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let shared = &self.shared;
        let mut state = lock(&shared.state);
        // Release explicitly under the state lock so the registry count and
        // the graveyard decision are atomic with any concurrent publish; the
        // guard's own Drop then no-ops (release is idempotent).
        let remaining = self.guard.release();
        if remaining == 0 && state.graveyard.remove(&self.snapshot.version).is_some() {
            // Last pin on a superseded version: its caches drop here.
            shared.counters.retired.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A fluent query against a pinned snapshot — mirror of
/// [`crate::engine::ArspQuery`]. Finish with [`ServiceQuery::run`].
pub struct ServiceQuery<'p, 'q> {
    pin: &'p SnapshotPin,
    spec: QuerySpec<'q>,
    deadline: Option<Duration>,
    budget: Option<&'q QueryBudget>,
}

impl<'p, 'q> ServiceQuery<'p, 'q> {
    fn new(pin: &'p SnapshotPin, constraints: QueryConstraints<'q>) -> Self {
        Self {
            pin,
            spec: QuerySpec::new(constraints),
            deadline: None,
            budget: None,
        }
    }

    /// Forces an algorithm (default: [`QueryAlgorithm::Auto`]).
    ///
    /// # Panics
    /// `run()` panics if [`QueryAlgorithm::Dual`] is forced on a non-ratio
    /// query.
    pub fn algorithm(mut self, algorithm: impl Into<QueryAlgorithm>) -> Self {
        self.spec.algorithm = algorithm.into();
        self
    }

    /// Chooses the execution mode (default: [`Execution::Sequential`]);
    /// parallel execution is bitwise identical.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.spec.execution = execution;
        self
    }

    /// Collects work counters into [`ServiceOutcome::counters`].
    pub fn collect_stats(mut self, on: bool) -> Self {
        self.spec.collect_stats = on;
        self
    }

    /// Sets a wall-clock deadline for the query, exactly like
    /// [`crate::engine::ArspQuery::deadline`]: the flat kernels poll it
    /// cooperatively, and expiry surfaces from
    /// [`try_run`](Self::try_run) as [`QueryError::DeadlineExceeded`] — or
    /// as [`QueryError::BuildTimeout`] when the deadline expires while
    /// joining another reader's in-flight cache build. Either way the pin,
    /// the snapshot caches and the scratch pools stay fully usable.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Attaches a caller-owned [`QueryBudget`] for external cancellation
    /// and/or a deadline shared across queries. Takes precedence over
    /// [`deadline`](Self::deadline).
    pub fn budget(mut self, budget: &'q QueryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Admission control: reserves an in-flight slot, shedding the query
    /// with [`QueryError::Overloaded`] when an admission limit is set and
    /// already saturated.
    fn admit(shared: &ServiceShared) -> Result<PeakGaugeGuard<'_>, QueryError> {
        let limit = shared.admission_limit.load(Ordering::Relaxed);
        if limit == 0 {
            return Ok(shared.gauge.enter());
        }
        shared.gauge.try_enter(limit).ok_or_else(|| {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            QueryError::Overloaded {
                inflight: shared.gauge.current(),
                limit,
            }
        })
    }

    /// Executes the query at the pinned version. Bitwise equal to a cold
    /// single-threaded engine on the pinned version's snapshot dataset, for
    /// every algorithm and execution mode.
    ///
    /// # Panics
    /// Panics when the query carries a deadline or budget that expires, or
    /// when admission control sheds it — use [`try_run`](Self::try_run) for
    /// a typed error instead.
    pub fn run(self) -> ServiceOutcome {
        if self.deadline.is_some() || self.budget.is_some() {
            return self.try_run().unwrap_or_else(|err| {
                panic!("query failed: {err}; use try_run() for a typed error")
            });
        }
        let pin = self.pin;
        let _inflight = Self::admit(&pin.shared)
            .unwrap_or_else(|err| panic!("query failed: {err}; use try_run() for a typed error"));
        self.run_inner(None)
    }

    /// Executes the query with fault containment, mirroring
    /// [`crate::engine::ArspQuery::try_run`]: admission shedding surfaces as
    /// [`QueryError::Overloaded`], deadline expiry and cancellation as
    /// [`QueryError::DeadlineExceeded`], a timed-out join on another
    /// reader's cache build as [`QueryError::BuildTimeout`], and any other
    /// panic inside the query as [`QueryError::Panicked`]. In every error
    /// case the pin and the service remain fully usable: scratch returns
    /// through RAII leases, epoch pins release through RAII guards,
    /// coalescing caches publish complete artifacts or nothing, and
    /// re-running the identical query yields results bitwise equal to a
    /// cold engine.
    pub fn try_run(mut self) -> Result<ServiceOutcome, QueryError> {
        let _inflight = Self::admit(&self.pin.shared)?;
        let (deadline, budget) = (self.deadline.take(), self.budget.take());
        contain(deadline, budget, |budget| self.run_inner(budget))
    }

    /// The query body shared by [`run`](Self::run) and
    /// [`try_run`](Self::try_run). The in-flight slot is already held.
    fn run_inner(self, budget: Option<&QueryBudget>) -> ServiceOutcome {
        let pin = self.pin;
        let shared = &pin.shared;
        shared.counters.queries.fetch_add(1, Ordering::Relaxed);
        let source = shared.artifacts.source(&pin.snapshot, budget);
        execute(&source, &self.spec, budget).with_view(ServiceView {
            version: pin.snapshot.version,
        })
    }
}

/// The result of one pinned query (see [`QueryOutcome`]): snapshot-space
/// probabilities — instance id `i` is the `i`-th live instance of the pinned
/// version in canonical order, exactly the ids a cold engine on that
/// version's dataset would use — plus, in a [`ServiceView`], the version it
/// answered at.
pub type ServiceOutcome = QueryOutcome<ServiceView>;

/// The serving layer's part of a [`ServiceOutcome`]: the pinned version.
pub struct ServiceView {
    version: u64,
}

impl QueryOutcome<ServiceView> {
    /// The pinned version this outcome answered at.
    pub fn version(&self) -> u64 {
        self.view.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ArspEngine;
    use arsp_data::paper_running_example;

    fn constraints() -> ConstraintSet {
        ConstraintSet::weak_ranking(2, 1)
    }

    /// A mutation that changes the version without upsetting any probability
    /// budget.
    fn mutate_once(writer: &mut ServiceWriter) {
        let handle = writer.store().handle_of_row(
            writer
                .store()
                .canonical_rows()
                .next()
                .expect("non-empty store"),
        );
        let row = writer
            .store()
            .row_of(handle)
            .expect("handle taken from a live row above");
        let coords = writer.store().coords_of(row).to_vec();
        let prob = writer.store().prob(row);
        writer.update_instance(handle, &coords, prob);
    }

    #[test]
    fn unpinned_snapshots_retire_at_publish() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        assert_eq!(service.serving_stats().snapshots_published, 1);
        assert_eq!(service.serving_stats().snapshots_retired, 0);

        mutate_once(&mut writer);
        writer.publish();
        mutate_once(&mut writer);
        writer.publish();

        let stats = service.serving_stats();
        assert_eq!(stats.snapshots_published, 3);
        // No reader ever pinned: every superseded snapshot retired at the
        // swap, the current one is alive.
        assert_eq!(stats.snapshots_retired, 2);
        assert_eq!(stats.active_pins, 0);
        assert_eq!(stats.pinned_snapshots, 0);
    }

    #[test]
    fn publish_without_mutations_is_a_no_op() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        assert_eq!(writer.publish(), 0);
        assert_eq!(writer.publish(), 0);
        let stats = service.serving_stats();
        assert_eq!(stats.snapshots_published, 1);
        assert_eq!(stats.snapshots_retired, 0);
    }

    #[test]
    fn pinned_snapshot_retires_only_after_the_last_pin_drops() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        let pin = service.pin();
        let pin2 = pin.clone();
        assert_eq!(service.serving_stats().active_pins, 2);
        assert_eq!(service.serving_stats().pinned_snapshots, 1);

        mutate_once(&mut writer);
        writer.publish();

        // Superseded but pinned: not retired.
        let stats = service.serving_stats();
        assert_eq!(stats.snapshots_published, 2);
        assert_eq!(stats.snapshots_retired, 0);

        // The pinned view still answers at version 0, bitwise the cold
        // engine on the version-0 dataset.
        assert_eq!(pin.version(), 0);
        let cold = ArspEngine::new(paper_running_example());
        let reference = cold.query(&constraints()).run();
        let got = pin.query(&constraints()).run();
        assert_eq!(got.version(), 0);
        assert_eq!(got.result().probs(), reference.result().probs());

        // First release: still pinned, still alive.
        drop(pin);
        assert_eq!(service.serving_stats().snapshots_retired, 0);
        assert_eq!(service.serving_stats().active_pins, 1);

        // Last release: retired.
        drop(pin2);
        let stats = service.serving_stats();
        assert_eq!(stats.snapshots_retired, 1);
        assert_eq!(stats.active_pins, 0);
        assert_eq!(stats.pinned_snapshots, 0);
    }

    #[test]
    fn dropping_a_pin_on_the_current_version_retires_nothing() {
        let (service, _writer) = ArspService::from_dataset(&paper_running_example());
        let pin = service.pin();
        drop(pin);
        let stats = service.serving_stats();
        assert_eq!(stats.snapshots_retired, 0);
        assert_eq!(stats.active_pins, 0);
    }

    #[test]
    fn a_leaked_pin_keeps_its_snapshot_alive() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        let pin = service.pin();
        std::mem::forget(pin.clone()); // deliberately leaked reader
        drop(pin);

        for _ in 0..3 {
            mutate_once(&mut writer);
            writer.publish();
        }

        let stats = service.serving_stats();
        assert_eq!(stats.snapshots_published, 4);
        // Version 0 is leaked-pinned forever; the two other superseded
        // snapshots retired normally.
        assert_eq!(stats.snapshots_retired, 2);
        assert_eq!(stats.active_pins, 1);
        assert_eq!(stats.pinned_snapshots, 1);

        // And the leaked version's caches are still fully queryable.
        let leaked = service.pin(); // current, not the leaked one — sanity
        assert_eq!(leaked.version(), 3);
    }

    #[test]
    fn queries_count_and_gauge_settles_to_zero() {
        let (service, _writer) = ArspService::from_dataset(&paper_running_example());
        let pin = service.pin();
        for _ in 0..3 {
            let _ = pin.query(&constraints()).run();
        }
        let stats = service.serving_stats();
        assert_eq!(stats.queries_served, 3);
        assert_eq!(stats.inflight, 0);
        assert!(stats.peak_inflight >= 1);
        assert_eq!(service.cache_stats().inflight, 0);
    }

    #[test]
    fn all_algorithms_agree_with_a_cold_engine_on_the_pin() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        mutate_once(&mut writer);
        let handle = writer.store().handle_of_row(2);
        writer.update_instance(handle, &[2.5, 3.5], 0.2);
        writer.publish();

        let pin = service.pin();
        let cold = ArspEngine::new(writer.snapshot_dataset());
        let cs = constraints();
        for algorithm in [
            QueryAlgorithm::Enum,
            QueryAlgorithm::Loop,
            QueryAlgorithm::Kdtt,
            QueryAlgorithm::KdttPlus,
            QueryAlgorithm::QdttPlus,
            QueryAlgorithm::BranchAndBound,
        ] {
            let reference = cold.query(&cs).algorithm(algorithm).run();
            let got = pin.query(&cs).algorithm(algorithm).run();
            assert_eq!(
                got.result().probs(),
                reference.result().probs(),
                "{algorithm:?} disagrees with the cold rebuild"
            );
        }
        let ratio = WeightRatio::uniform(2, 0.5, 2.0);
        let reference = cold
            .ratio_query(&ratio)
            .algorithm(QueryAlgorithm::Dual)
            .run();
        let got = pin
            .ratio_query(&ratio)
            .algorithm(QueryAlgorithm::Dual)
            .run();
        assert_eq!(got.result().probs(), reference.result().probs());
        assert!(!got.auto_selected());

        // Auto selection matches the cold engine's choice (same inputs).
        let auto_cold = cold.query(&cs).run();
        let auto_got = pin.query(&cs).run();
        assert_eq!(auto_got.algorithm(), auto_cold.algorithm());
        assert!(auto_got.auto_selected());
        assert!(auto_got.selection_reason().is_some());
        assert_eq!(auto_got.result().probs(), auto_cold.result().probs());
    }

    #[test]
    fn counters_and_scratch_warmup_flow_through() {
        let (service, _writer) = ArspService::from_dataset(&paper_running_example());
        service.warm_scratch(2);
        let stats = service.cache_stats();
        assert_eq!(stats.scratch_misses, 4); // 2 query arenas + 2 loop arenas
        let pin = service.pin();
        let outcome = pin
            .query(&constraints())
            .algorithm(QueryAlgorithm::KdttPlus)
            .collect_stats(true)
            .run();
        assert!(
            outcome
                .counters()
                .expect("collect_stats(true) was requested")
                .nodes_visited
                > 0
        );
        assert!(service.cache_stats().scratch_hits >= 1);
        assert_eq!(outcome.result_size(), outcome.result().result_size());
    }
}
