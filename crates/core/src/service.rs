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
//!   [`ServiceWriter::publish`] atomically swaps in the engine's snapshot of
//!   the new version. Readers and writer share one artifact store: every
//!   score matrix and LOOP order published at the old version — whether a
//!   reader's query or the writer's standing refresh built it — is
//!   delta-patched into the new snapshot, not rebuilt, and the writer's
//!   standing refreshes and the readers' queries share each build at a
//!   version.
//!
//! A pinned query is the one [`Query`] builder every front hands out, run
//! through the same pipeline ([`crate::pipeline`]) over the pinned snapshot;
//! the pin supplies only what is the service's own — admission control, the
//! query counter and the pinned version on the outcome.
//!
//! ## Reference-counted reclamation
//!
//! A pin is a plain `Arc` clone, and the `Arc` is what keeps a snapshot
//! alive. The service state and the pins are the only holders of one
//! version's `Arc`, so its strong count is the pin count, plus one while
//! the version is current. Pinning clones the current `Arc` under the same
//! lock as the publish swap, so only the current version can gain new pins
//! (cloning a pin needs a live pin, so a version whose count reached zero
//! never comes back). When a publish supersedes a version that still has
//! pins, it keeps only a `Weak` to it for the statistics; the **last** pin's
//! drop reclaims the snapshot's cached arenas, and dropping a pin takes no
//! lock. A leaked pin (one that is never dropped) keeps its snapshot alive
//! forever — conservative by construction, no unsafe code anywhere.
//!
//! ## Batch coalescing
//!
//! Under serving-level concurrency, racing cache misses would waste real
//! work: ten readers arriving with the same new constraint set would project
//! ten identical score matrices. The snapshot caches therefore *coalesce*:
//! the first requester claims the build, later requesters with the same key
//! — readers or the writer's standing refresh — block on a condvar and
//! share the published artifact ([`ServingStats::coalesced_builds`] counts
//! the joins). Distinct keys never wait on each other. The `#[doc(hidden)]`
//! [`ArspService::set_coalescing_rendezvous`] knob makes a builder wait for a
//! fixed number of joiners before publishing — deterministic-test machinery,
//! not a production setting.
//!
//! ## Fault tolerance
//!
//! Queries on a pin carry the same deadline/budget plumbing as every other
//! front ([`Query::deadline`], [`Query::try_run`]): expiry surfaces as a
//! typed [`crate::fault::QueryError`], and — because scratch
//! travels in RAII leases, a pin is an `Arc` that unwinding drops, and
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
//! drop(pin); // the last pin on version 0: its caches are reclaimed here
//! ```

use crate::dynamic::DynamicArspEngine;
use crate::engine::CacheStats;
use crate::fault::{QueryBudget, QueryError};
use crate::pipeline::{
    execute, expect_outcome, Query, QueryConstraints, QueryFront, QueryOutcome, ServingSnapshot,
    SharedArtifacts,
};
use crate::standing::{StandingQueryRegistry, StandingSpec, SubscriptionGuard};
use crate::stats::{PeakGauge, PeakGaugeGuard};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{lock, Arc, Mutex, Weak};
use arsp_data::{FlatStore, InstanceHandle, UncertainDataset, VersionedStore};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};

/// Monotone service counters.
#[derive(Debug, Default)]
struct ServiceCounters {
    queries: AtomicU64,
    published: AtomicU64,
    retired: AtomicU64,
    shed: AtomicU64,
}

/// One published version as the service hands it out: a wrapper around the
/// engine's snapshot `Arc` that only [`ServiceState::current`] and the
/// [`SnapshotPin`]s hold, so its strong count is the pin count, plus one
/// while it is current.
struct Published(Arc<ServingSnapshot>);

/// The swap point. Pinning and the publish swap run under this one mutex,
/// so only the current version can gain new pins.
struct ServiceState {
    current: Arc<Published>,
    /// Superseded versions that had pins when they were swapped out. An
    /// entry is dead once its last pin dropped; [`ServiceState::prune`]
    /// counts it as retired.
    superseded: Vec<Weak<Published>>,
}

impl ServiceState {
    /// Removes the superseded entries whose last pin has dropped, counting
    /// each as retired, and returns `(active_pins, pinned_snapshots)`.
    fn prune(&mut self, retired: &AtomicU64) -> (u64, u64) {
        let current = Arc::strong_count(&self.current) as u64 - 1;
        let (mut active, mut pinned) = (current, u64::from(current > 0));
        self.superseded.retain(|weak| {
            let pins = weak.strong_count() as u64;
            if pins == 0 {
                retired.fetch_add(1, Ordering::Relaxed);
            }
            active += pins;
            pinned += u64::from(pins > 0);
            pins > 0
        });
        (active, pinned)
    }
}

/// Everything readers and writer share.
struct ServiceShared {
    state: Mutex<ServiceState>,
    /// Admission cap on concurrently executing queries; `0` = unlimited.
    admission_limit: AtomicU64,
    /// The writer engine's vertex enumerations (shared across *all*
    /// snapshots — constraints never go stale), scratch pools and
    /// coalescing counters.
    artifacts: Arc<SharedArtifacts>,
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

    /// Wraps an existing dynamic engine: its current snapshot, with every
    /// artifact its queries built, is published as the first version.
    pub fn from_engine(engine: DynamicArspEngine) -> (Self, ServiceWriter) {
        let artifacts = Arc::clone(engine.artifacts());
        let shared = Arc::new(ServiceShared {
            state: Mutex::new(ServiceState {
                current: Arc::new(Published(engine.snapshot())),
                superseded: Vec::new(),
            }),
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
    /// until it and all its clones are dropped. The clone of the current
    /// version's `Arc` is taken under the publish swap's lock, so a pin
    /// always lands on a snapshot that is current at that moment.
    pub fn pin(&self) -> SnapshotPin {
        let published = Arc::clone(&lock(&self.shared.state).current);
        SnapshotPin {
            published,
            shared: Arc::clone(&self.shared),
        }
    }

    /// The currently published version.
    pub fn current_version(&self) -> u64 {
        lock(&self.shared.state).current.0.version
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
    /// beyond it, [`Query::try_run`] on a pin sheds the query with a typed
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
        let (active_pins, pinned_snapshots) = lock(&shared.state).prune(&shared.counters.retired);
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
            active_pins,
            pinned_snapshots,
            notifications_delivered: shared.standing.counters().notifications_delivered(),
            dirty_instances_scanned: 0,
            standing_full_fallbacks: 0,
        }
    }

    /// The serving layer's cache counters in the engine-wide [`CacheStats`]
    /// shape: `hits`/`misses` are coalescing-cache lookups (a join counts
    /// under [`CacheStats::coalesced_builds`], not as a miss) of the readers
    /// and the writer alike, the scratch counters aggregate the shared
    /// pools, and the serving-only fields (`inflight`, `snapshots_retired`,
    /// `active_pins`) are live. The writer's
    /// [`DynamicArspEngine::cache_stats`] reports the same lookups, plus its
    /// invalidations and merges.
    pub fn cache_stats(&self) -> CacheStats {
        let shared = &self.shared;
        let (active_pins, _) = lock(&shared.state).prune(&shared.counters.retired);
        CacheStats {
            inflight: shared.gauge.current(),
            snapshots_retired: shared.counters.retired.load(Ordering::Relaxed),
            active_pins,
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
    /// Artifact builds actually performed across all snapshot caches —
    /// exactly one per distinct missing key, however many readers asked.
    /// Includes the builds of the writer's standing refreshes, which share
    /// the readers' caches.
    pub shared_builds: u64,
    /// Lookups that joined another thread's in-progress build instead of
    /// duplicating it.
    pub coalesced_builds: u64,
    /// Lookups answered from an already-published artifact (the writer's
    /// standing refreshes included).
    pub cache_hits: u64,
    /// Snapshots published (the constructor's initial snapshot counts).
    pub snapshots_published: u64,
    /// Superseded snapshots reclaimed after their last pin dropped (or that
    /// had no pins at publish time).
    pub snapshots_retired: u64,
    /// Pins (and pin clones) currently outstanding.
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
    /// Publishes the engine's current version: advances the engine's
    /// snapshot to it (the patch pass every first query at a new version
    /// runs) and atomically swaps that snapshot in.
    /// The superseded snapshot retires immediately when unpinned; otherwise
    /// its pins keep it alive and the last one's drop reclaims it, while the
    /// service keeps only a `Weak` to count it. A no-op (returning the
    /// already-published version) when nothing changed since the last
    /// publish. Returns the published version.
    pub fn publish(&mut self) -> u64 {
        let shared = &self.shared;
        {
            let state = lock(&shared.state);
            let published = state.current.0.version;
            if published == self.engine.version() {
                // Nothing new to publish — but pending subscriptions still
                // get their initial batch at the already-published version.
                self.engine.refresh_standing();
                return published;
            }
        }
        let snapshot = self.engine.snapshot();
        let version = snapshot.version;
        let mut state = lock(&shared.state);
        let old = std::mem::replace(&mut state.current, Arc::new(Published(snapshot)));
        shared.counters.published.fetch_add(1, Ordering::Relaxed);
        state.prune(&shared.counters.retired);
        if Arc::strong_count(&old) > 1 {
            state.superseded.push(Arc::downgrade(&old));
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
        let published = lock(&self.shared.state).current.0.version;
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
    /// Published snapshots are unaffected — compaction moves rows, not
    /// snapshot ids.
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
/// against the snapshot's `Arc`'d artifacts; the pin is an `Arc` clone of
/// the published version, so its existence keeps those artifacts alive.
/// Clone to add pins; drop to release (no lock is taken) — the last drop on
/// a superseded version reclaims it, mid-unwind included.
#[derive(Clone)]
pub struct SnapshotPin {
    published: Arc<Published>,
    shared: Arc<ServiceShared>,
}

impl SnapshotPin {
    fn snapshot(&self) -> &Arc<ServingSnapshot> {
        &self.published.0
    }

    /// The pinned version.
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    /// Number of live instances in the pinned snapshot.
    pub fn num_instances(&self) -> usize {
        self.snapshot().flat.num_instances()
    }

    /// Number of objects in the pinned snapshot.
    pub fn num_objects(&self) -> usize {
        self.snapshot().flat.num_objects()
    }

    /// The pinned columnar snapshot.
    pub fn flat(&self) -> &FlatStore {
        &self.snapshot().flat
    }

    /// Starts a query under general linear constraints against the pinned
    /// version (fluent, like [`crate::engine::ArspEngine::query`]).
    pub fn query<'p, 'q>(&'p self, constraints: &'q ConstraintSet) -> ServiceQuery<'p, 'q> {
        Query::new(self, QueryConstraints::Linear(constraints))
    }

    /// Starts a query under weight-ratio constraints (§IV); unlocks DUAL.
    pub fn ratio_query<'p, 'q>(&'p self, ratio: &'q WeightRatio) -> ServiceQuery<'p, 'q> {
        Query::new(self, QueryConstraints::Ratio(ratio))
    }
}

/// A query against a pinned snapshot: the one [`Query`] builder, answered at
/// the pinned version — bitwise equal to a cold single-threaded engine on
/// that version's snapshot dataset, for every algorithm and execution mode.
pub type ServiceQuery<'p, 'q> = Query<'p, 'q, SnapshotPin>;

impl QueryFront for SnapshotPin {
    type View = ServiceView;
    type Run = ServiceOutcome;

    /// Admission control: reserves an in-flight slot and counts the query,
    /// or sheds it with [`QueryError::Overloaded`] when an admission limit
    /// is set and already saturated.
    fn admit(&self) -> Result<Option<PeakGaugeGuard<'_>>, QueryError> {
        let shared = &self.shared;
        let limit = shared.admission_limit.load(Ordering::Relaxed);
        let slot = if limit == 0 {
            Some(shared.gauge.enter())
        } else {
            shared.gauge.try_enter(limit)
        };
        let Some(slot) = slot else {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(QueryError::Overloaded {
                inflight: shared.gauge.current(),
                limit,
            });
        };
        shared.counters.queries.fetch_add(1, Ordering::Relaxed);
        Ok(Some(slot))
    }

    fn answer(
        query: &ServiceQuery<'_, '_>,
        budget: Option<&QueryBudget>,
    ) -> Result<ServiceOutcome, QueryError> {
        let pin = query.front;
        let source = pin.shared.artifacts.source(pin.snapshot(), budget);
        let view = ServiceView {
            version: pin.version(),
        };
        Ok(execute(&source, &query.spec, budget, view))
    }

    fn finish(outcome: Result<ServiceOutcome, QueryError>) -> ServiceOutcome {
        expect_outcome(outcome)
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
    use crate::engine::{ArspEngine, QueryAlgorithm};
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
    fn a_superseded_snapshot_lives_exactly_as_long_as_its_pins() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        let pin = service.pin();
        let snapshot = Arc::downgrade(pin.snapshot());
        let clone = pin.clone();
        let elsewhere = pin.clone();
        mutate_once(&mut writer);
        writer.publish();

        // (alive, active_pins, snapshots_retired) at each step.
        let observe = || {
            let stats = service.serving_stats();
            (
                snapshot.strong_count() > 0,
                stats.active_pins,
                stats.snapshots_retired,
            )
        };
        assert_eq!(observe(), (true, 3, 0));
        drop(pin);
        assert_eq!(observe(), (true, 2, 0));
        std::thread::spawn(move || drop(elsewhere))
            .join()
            .expect("the dropping thread panicked");
        assert_eq!(observe(), (true, 1, 0));
        drop(clone);
        assert_eq!(observe(), (false, 0, 1));
        assert_eq!(service.serving_stats().pinned_snapshots, 0);
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
