//! Standing queries: a subscription registry that delivers change-sets.
//!
//! A standing query is registered once ([`StandingQueryRegistry::subscribe`])
//! and then *maintained*: after each mutation batch the registry computes the
//! subscription's result at the new version and enqueues only the changed
//! `(handle, old_prob, new_prob)` pairs as a [`ChangeBatch`], stamped with a
//! monotone per-subscription result version. A dashboard that re-ran a full
//! query per tick now consumes change-sets instead (see
//! `examples/stock_prediction.rs`).
//!
//! ## The evaluation path
//!
//! One function refreshes every subscription that is behind a version: it
//! runs each as one ordinary query through the pipeline every other query
//! runs ([`crate::pipeline`]), over that version's snapshot with its
//! delta-patched artifacts and the subscription's algorithm and execution
//! mode, re-keys the snapshot-space result by stable instance handle, and
//! diffs it bitwise against the maintained result. There is no incremental
//! variant: the paper answers each query from scratch, and a dirty-set
//! narrowing pass for LOOP subscriptions was measured not to pay for itself
//! in the serving benchmark, so it was removed. The contract is the standing
//! one: **after every refresh, the maintained result is bitwise equal to a
//! cold [`crate::engine::ArspEngine`] full query on the equivalent
//! snapshot** (enforced by `tests/standing_agreement.rs`).
//!
//! ## Serving integration
//!
//! [`crate::service::ArspService::subscribe`] registers against the shared
//! registry. [`crate::service::ServiceWriter::publish`] swaps the new
//! snapshot in and hands the published version — the pinned snapshot and
//! the stable handle of each of its instances — to the registry's
//! *notifier*, then returns: the write is acknowledged before its refresh.
//! The notifier is one thread per registry, started by the first hand-off
//! (a subscription's initial sync, or the first publish after one
//! registers) and joined when the registry drops, after it has refreshed
//! everything handed to it. It refreshes every subscription in publish
//! order, exactly once per published version, never coalescing two
//! versions; it evaluates against the pinned snapshot, not the writer's
//! engine, which may already have moved on, so the refresh queries share
//! every artifact build with the readers' queries at that version. The
//! queue is bounded: a hand-off waits while the notifier already holds
//! [`HAND_OFF_BOUND`] unrefreshed versions, so a writer that publishes
//! faster than the refreshes run slows to their pace rather than pinning
//! an ever longer tail of snapshots. A publish or sync at an unchanged
//! version hands nothing off unless a subscription registered since the
//! last hand-off. A refresh never passes reader admission: a shed refresh
//! would leave a gap in the feed. A refresh that panics is caught on the
//! notifier and counted, and the writer's next `publish` or
//! `sync_subscriptions` re-raises it, so a supervisor that contains writer
//! panics (the cluster's `apply_batch`) handles it like any other crash.
//!
//! **Read-your-writes.** Every [`SubscriptionGuard`] accessor
//! ([`poll`](SubscriptionGuard::poll), [`drain`](SubscriptionGuard::drain),
//! [`maintained`](SubscriptionGuard::maintained),
//! [`result_version`](SubscriptionGuard::result_version),
//! [`is_pending`](SubscriptionGuard::is_pending)) first waits until the
//! notifier has finished every version handed to it before the call. A
//! consumer that reads its feed after a publish returned therefore sees
//! that publish; [`crate::service::ServiceWriter::sync_subscriptions`]
//! delivers initial batches through the same queue and waits for them.
//! Without a service — [`crate::dynamic::DynamicArspEngine::subscribe`] and
//! [`refresh_standing`](crate::dynamic::DynamicArspEngine::refresh_standing)
//! — the same refresh runs inline over the engine's current snapshot and no
//! thread starts.
//!
//! [`crate::cluster::ShardedService::subscribe`] fans one spec out per
//! shard and concatenates the per-shard change-sets shard-major. Each
//! shard's feed holds that shard's own ARSP, scored against its shard's
//! objects only, so it is not the cluster's union result (a
//! `ClusterQuery`); driving cluster feeds from the union is the open
//! ROADMAP item on standing queries that answer the cluster's question.
//! Dropping a [`SubscriptionGuard`] unsubscribes (RAII — safe at any time,
//! including while its refresh is queued: nothing more is delivered).

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::engine::{Execution, QueryAlgorithm};
use crate::fault::{classify_unwind, QueryBudget, QueryError};
use crate::pipeline::{
    execute, expect_outcome, Query, QueryConstraints, QueryFront, QueryOutcome, ServingSnapshot,
    SharedArtifacts,
};
use crate::stats::ServingStats;
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{lock, thread, Arc, Condvar, Mutex, MutexGuard};
use arsp_data::{failpoint, InstanceHandle};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};

/// What a subscription watches: general linear constraints or a weight
/// ratio (§IV — unlocks DUAL).
#[derive(Clone, Debug)]
enum SpecKind {
    Linear(ConstraintSet),
    Ratio(WeightRatio),
}

/// One standing query: what to watch and how to maintain it. Built fluently:
///
/// ```
/// use arsp_core::standing::StandingSpec;
/// use arsp_core::engine::{Execution, QueryAlgorithm};
/// use arsp_geometry::constraints::ConstraintSet;
///
/// let cs = ConstraintSet::weak_ranking(2, 1);
/// let spec = StandingSpec::constraints(&cs)
///     .algorithm(QueryAlgorithm::Loop)
///     .execution(Execution::Sequential);
/// # let _ = spec;
/// ```
#[derive(Clone, Debug)]
pub struct StandingSpec {
    kind: SpecKind,
    algorithm: QueryAlgorithm,
    execution: Execution,
}

impl StandingSpec {
    /// A standing query under general linear constraints.
    pub fn constraints(constraints: &ConstraintSet) -> Self {
        Self {
            kind: SpecKind::Linear(constraints.clone()),
            algorithm: QueryAlgorithm::Auto,
            execution: Execution::Sequential,
        }
    }

    /// A standing query under weight-ratio constraints.
    pub fn ratio(ratio: &WeightRatio) -> Self {
        Self {
            kind: SpecKind::Ratio(ratio.clone()),
            algorithm: QueryAlgorithm::Auto,
            execution: Execution::Sequential,
        }
    }

    /// Pins the algorithm (default [`QueryAlgorithm::Auto`]) every refresh
    /// evaluates the subscription with.
    pub fn algorithm(mut self, algorithm: QueryAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Chooses the execution mode of each refresh's query (default
    /// [`Execution::Sequential`]); parallel execution is bitwise identical.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }
}

/// One changed probability in a [`ChangeBatch`]. `old_prob` is `None` for an
/// instance that entered the snapshot this batch, `new_prob` is `None` for
/// one that left; both `Some` means the probability changed (compared
/// bitwise — a pair is only reported when the bits differ).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChangedPair {
    /// The stable store handle of the instance.
    pub handle: InstanceHandle,
    /// The maintained probability before the batch (`None`: newly live).
    pub old_prob: Option<f64>,
    /// The maintained probability after the batch (`None`: removed).
    pub new_prob: Option<f64>,
}

/// One refresh's change-set: everything that differed between the
/// subscription's previous maintained result and the result at `version`.
/// Batches carry a gapless per-subscription `result_version` (1, 2, 3, …),
/// so a consumer can prove it missed nothing. An empty `changes` vector is
/// still delivered — it is the proof that a version change did not affect
/// this subscription.
#[derive(Clone, Debug, PartialEq)]
pub struct ChangeBatch {
    /// Monotone per-subscription sequence number, starting at 1.
    pub result_version: u64,
    /// The store version the maintained result now reflects.
    pub version: u64,
    /// The changed pairs, in ascending handle order.
    pub changes: Vec<ChangedPair>,
}

/// The full state of one subscription.
struct SubscriptionState {
    spec: StandingSpec,
    /// The store version the maintained result reflects; `None` until the
    /// first refresh (a *pending* subscription).
    last_version: Option<u64>,
    /// Gapless per-subscription notification sequence.
    result_version: u64,
    /// The maintained result: probability per live instance handle.
    maintained: BTreeMap<InstanceHandle, f64>,
    /// Undelivered change batches, oldest first.
    queue: VecDeque<ChangeBatch>,
}

/// The subscription table. A `BTreeMap` so refresh order is deterministic
/// (ascending subscription id).
struct SubMap {
    next_id: u64,
    subs: BTreeMap<u64, SubscriptionState>,
}

/// One version as a refresh reads it: the snapshot, the caches every
/// snapshot of its store shares, and the stable handle of each snapshot id
/// at that version. A hand-off pins the published snapshot, so the refresh
/// answers at exactly that version whatever the writer does next.
pub(crate) struct RefreshTarget {
    pub(crate) artifacts: Arc<SharedArtifacts>,
    pub(crate) snapshot: Arc<ServingSnapshot>,
    pub(crate) handles: Vec<InstanceHandle>,
}

/// A refresh's query front: the target's snapshot, admitted
/// unconditionally (the default [`QueryFront::admit`]) — a shed refresh
/// would leave a gap in the feed.
impl QueryFront for RefreshTarget {
    type View = ();
    type Run = QueryOutcome<()>;

    fn answer(
        query: &Query<'_, '_, Self>,
        budget: Option<&QueryBudget>,
    ) -> Result<QueryOutcome<()>, QueryError> {
        let target = query.front;
        let source = target.artifacts.source(&target.snapshot, budget);
        Ok(execute(&source, &query.spec, budget, ()))
    }

    fn finish(outcome: Result<QueryOutcome<()>, QueryError>) -> QueryOutcome<()> {
        expect_outcome(outcome)
    }
}

/// Versions handed to the notifier and not yet refreshed (the one in
/// progress included) at which the writer's next hand-off waits for it.
/// Each queued version pins a published snapshot and a handle per
/// instance, and a writer that publishes faster than the notifier
/// refreshes would otherwise grow the queue, its memory and the feeds'
/// lag without limit; at the bound it runs at the notifier's pace instead.
pub const HAND_OFF_BOUND: u64 = 4;

/// The hand-off between the writer and the notifier.
#[derive(Default)]
struct Feed {
    /// Versions handed over and not yet taken by the notifier, oldest
    /// first, each with its hand-off instant.
    queue: VecDeque<(RefreshTarget, Instant)>,
    /// Hand-offs so far: the ticket a read-your-writes barrier waits for.
    handed: u64,
    /// Hand-offs whose refresh has finished (or panicked).
    refreshed: u64,
    /// The version of the last hand-off and the registrations it covered:
    /// a hand-off at the same version with no registration since would
    /// refresh nothing. Cleared by a refresh panic, so the next hand-off
    /// retries.
    last_handed: Option<(u64, u64)>,
    /// Longest hand-off-to-refresh-done time seen, in microseconds.
    lag_max_us: u64,
    /// Refreshes that panicked on the notifier.
    panics: u64,
    /// The message of a caught refresh panic the writer has not re-raised.
    unraised: Option<String>,
    /// The notifier thread, once the first hand-off started it.
    thread: Option<thread::JoinHandle<()>>,
    /// Set when the registry drops: the notifier exits once the queue is
    /// empty.
    shutdown: bool,
}

struct RegistryInner {
    subs: Mutex<SubMap>,
    /// Live subscriptions, readable without the subscription lock (which a
    /// refresh holds throughout). `Relaxed`: it publishes no data, and a
    /// subscribe that happens before a publish is still seen by it.
    live: AtomicUsize,
    /// Subscriptions ever registered. Bumped under the subscription lock
    /// after the insert with `Release`, so a writer that reads the bump
    /// (`Acquire`) hands off a version whose refresh sees the entry.
    registered: AtomicU64,
    /// Change-set notifications enqueued so far.
    notifications: AtomicU64,
    feed: Mutex<Feed>,
    /// Signalled on every hand-off, finished refresh and shutdown.
    fed: Condvar,
}

impl RegistryInner {
    fn wait<'a>(&self, feed: MutexGuard<'a, Feed>) -> MutexGuard<'a, Feed> {
        self.fed
            .wait(feed)
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The read-your-writes barrier: waits until the notifier has finished
    /// every hand-off made before the call.
    fn settle(&self) {
        let mut feed = lock(&self.feed);
        let ticket = feed.handed;
        while feed.refreshed < ticket {
            feed = self.wait(feed);
        }
    }

    /// The one refresh: brings every subscription not yet at `target`'s
    /// version to it, enqueueing one [`ChangeBatch`] each (pending
    /// subscriptions get their initial full batch). Holds the subscription
    /// lock throughout, so refreshes never interleave and a dropped guard's
    /// entry is either refreshed whole or never seen.
    fn refresh(&self, target: &RefreshTarget) {
        failpoint::hit("standing.refresh").unwrap_or_else(|err| panic!("{err}"));
        let version = target.snapshot.version;
        let mut map = lock(&self.subs);
        for state in map.subs.values_mut() {
            if state.last_version == Some(version) {
                continue;
            }
            let fresh = evaluate(target, &state.spec);
            let changes = diff_maintained(&state.maintained, &fresh);
            state.maintained = fresh;
            state.last_version = Some(version);
            state.result_version += 1;
            state.queue.push_back(ChangeBatch {
                result_version: state.result_version,
                version,
                changes,
            });
            self.notifications.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The notifier thread: refreshes each hand-off in order, exactly once,
    /// until the registry drops and the queue is empty. A refresh panic is
    /// caught, counted and kept for the writer to re-raise.
    fn notify(&self) {
        loop {
            let (target, handed_at) = {
                let mut feed = lock(&self.feed);
                loop {
                    if let Some(next) = feed.queue.pop_front() {
                        break next;
                    }
                    if feed.shutdown {
                        return;
                    }
                    feed = self.wait(feed);
                }
            };
            let refreshed = catch_unwind(AssertUnwindSafe(|| self.refresh(&target)));
            let lag_us = u64::try_from(handed_at.elapsed().as_micros()).unwrap_or(u64::MAX);
            let mut feed = lock(&self.feed);
            feed.refreshed += 1;
            feed.lag_max_us = feed.lag_max_us.max(lag_us);
            if let Err(payload) = refreshed {
                feed.panics += 1;
                feed.last_handed = None;
                let message = match classify_unwind(payload, None) {
                    QueryError::Panicked { message } => message,
                    other => other.to_string(),
                };
                feed.unraised.get_or_insert(message);
            }
            drop(feed);
            self.fed.notify_all();
        }
    }
}

/// Stops and joins the notifier when the last registry handle drops. Only
/// registry handles hold it — guards and the notifier itself hold the
/// inner state only — so dropping the engine and service that share a
/// registry ends its thread.
struct NotifierOwner {
    inner: Arc<RegistryInner>,
}

impl Drop for NotifierOwner {
    fn drop(&mut self) {
        let thread = {
            let mut feed = lock(&self.inner.feed);
            feed.shutdown = true;
            feed.thread.take()
        };
        self.inner.fed.notify_all();
        if let Some(thread) = thread {
            // Refresh panics are caught inside the loop; nothing else in it
            // panics, and a drop has no caller to report to.
            let _ = thread.join();
        }
    }
}

/// The standing-query registry: owns every subscription's maintained state
/// and queue, and the notifier that refreshes them for a service. Cheap to
/// clone (an `Arc` inside) — the dynamic engine and the serving layer share
/// one; the notifier stops when the last clone drops. See the
/// [module docs](self).
#[derive(Clone)]
pub struct StandingQueryRegistry {
    owner: Arc<NotifierOwner>,
}

impl StandingQueryRegistry {
    pub(crate) fn new() -> Self {
        Self {
            owner: Arc::new(NotifierOwner {
                inner: Arc::new(RegistryInner {
                    subs: Mutex::new(SubMap {
                        next_id: 0,
                        subs: BTreeMap::new(),
                    }),
                    live: AtomicUsize::new(0),
                    registered: AtomicU64::new(0),
                    notifications: AtomicU64::new(0),
                    feed: Mutex::new(Feed::default()),
                    fed: Condvar::new(),
                }),
            }),
        }
    }

    fn inner(&self) -> &Arc<RegistryInner> {
        &self.owner.inner
    }

    /// Registers a standing query. The subscription starts *pending*: its
    /// first [`ChangeBatch`] (the full initial result, all `old_prob: None`)
    /// arrives at the next refresh — immediately for
    /// [`DynamicArspEngine::subscribe`](crate::dynamic::DynamicArspEngine::subscribe),
    /// through the notifier at the next
    /// [`publish`](crate::service::ServiceWriter::publish) (or
    /// [`sync_subscriptions`](crate::service::ServiceWriter::sync_subscriptions))
    /// for service-level subscriptions. Dropping the returned guard
    /// unsubscribes.
    pub fn subscribe(&self, spec: StandingSpec) -> SubscriptionGuard {
        let inner = self.inner();
        let mut map = lock(&inner.subs);
        let id = map.next_id;
        map.next_id += 1;
        map.subs.insert(
            id,
            SubscriptionState {
                spec,
                last_version: None,
                result_version: 0,
                maintained: BTreeMap::new(),
                queue: VecDeque::new(),
            },
        );
        inner.live.fetch_add(1, Ordering::Relaxed);
        inner.registered.fetch_add(1, Ordering::Release);
        drop(map);
        SubscriptionGuard {
            registry: Arc::clone(inner),
            id,
        }
    }

    /// Number of live subscriptions.
    pub fn num_subscriptions(&self) -> usize {
        lock(&self.inner().subs).subs.len()
    }

    /// Refreshes every subscription to `target` on the caller's thread —
    /// the inline path of a dynamic engine without a service.
    pub(crate) fn refresh(&self, target: &RefreshTarget) {
        self.inner().refresh(target);
    }

    /// Whether the notifier thread has been started.
    #[cfg(test)]
    pub(crate) fn notifier_started(&self) -> bool {
        lock(&self.inner().feed).thread.is_some()
    }

    /// Hand-offs so far.
    #[cfg(test)]
    pub(crate) fn hand_offs(&self) -> u64 {
        lock(&self.inner().feed).handed
    }

    /// Hands the published `version` to the notifier, starting it on the
    /// first hand-off; `target` builds what its refresh reads. Hands off
    /// nothing when the refresh would change nothing: no subscription is
    /// live (so a registry nobody subscribes to starts no thread), or the
    /// last hand-off carried this version and no subscription registered
    /// since. Returns once the version is queued, which waits only while
    /// the notifier already holds [`HAND_OFF_BOUND`] unrefreshed versions.
    /// Only the service's one writer hands off.
    pub(crate) fn hand_off(&self, version: u64, target: impl FnOnce() -> RefreshTarget) {
        let inner = self.inner();
        if inner.live.load(Ordering::Relaxed) == 0 {
            return;
        }
        let registered = inner.registered.load(Ordering::Acquire);
        if lock(&inner.feed).last_handed == Some((version, registered)) {
            return;
        }
        let target = target();
        let mut feed = lock(&inner.feed);
        while feed.handed - feed.refreshed >= HAND_OFF_BOUND {
            feed = inner.wait(feed);
        }
        if feed.thread.is_none() {
            let notifier = Arc::clone(inner);
            feed.thread = Some(thread::spawn(move || notifier.notify()));
        }
        feed.queue.push_back((target, Instant::now()));
        feed.handed += 1;
        feed.last_handed = Some((version, registered));
        drop(feed);
        inner.fed.notify_all();
    }

    /// Waits until the notifier has finished every hand-off made so far.
    pub(crate) fn settle(&self) {
        self.inner().settle();
    }

    /// Re-raises, on the writer's thread, the first refresh panic the
    /// notifier caught since the last call.
    pub(crate) fn reraise_refresh_panic(&self) {
        let unraised = lock(&self.inner().feed).unraised.take();
        if let Some(message) = unraised {
            panic!("standing refresh panicked on the notifier: {message}");
        }
    }

    /// `base` with the standing fields of [`ServingStats`] filled in: the
    /// notifications enqueued, and the notifier's backlog, worst lag and
    /// caught panics (one lock of its feed).
    pub(crate) fn stats(&self, base: ServingStats) -> ServingStats {
        let inner = self.inner();
        let feed = lock(&inner.feed);
        ServingStats {
            notifications_delivered: inner.notifications.load(Ordering::Relaxed),
            standing_backlog: feed.handed - feed.refreshed,
            standing_lag_max_us: feed.lag_max_us,
            standing_refresh_panics: feed.panics,
            ..base
        }
    }
}

/// A subscription's result at `target`'s version: one query through the
/// pipeline, re-keyed from snapshot-instance-id space to handles.
fn evaluate(target: &RefreshTarget, spec: &StandingSpec) -> BTreeMap<InstanceHandle, f64> {
    let constraints = match &spec.kind {
        SpecKind::Linear(cs) => QueryConstraints::Linear(cs),
        SpecKind::Ratio(r) => QueryConstraints::Ratio(r),
    };
    let outcome = Query::new(target, constraints)
        .algorithm(spec.algorithm)
        .execution(spec.execution)
        .run();
    target
        .handles
        .iter()
        .enumerate()
        .map(|(s, &h)| (h, outcome.instance_prob(s)))
        .collect()
}

/// The changed pairs between two maintained results, in ascending handle
/// order. Probabilities compare bitwise: a pair enters the diff only when
/// the bits differ (the exactness contract makes "equal bits" the precise
/// notion of "unchanged").
fn diff_maintained(
    old: &BTreeMap<InstanceHandle, f64>,
    new: &BTreeMap<InstanceHandle, f64>,
) -> Vec<ChangedPair> {
    let mut changes = Vec::new();
    let mut old_iter = old.iter().peekable();
    let mut new_iter = new.iter().peekable();
    loop {
        match (old_iter.peek(), new_iter.peek()) {
            (Some(&(&oh, &op)), Some(&(&nh, &np))) => {
                if oh < nh {
                    changes.push(ChangedPair {
                        handle: oh,
                        old_prob: Some(op),
                        new_prob: None,
                    });
                    old_iter.next();
                } else if nh < oh {
                    changes.push(ChangedPair {
                        handle: nh,
                        old_prob: None,
                        new_prob: Some(np),
                    });
                    new_iter.next();
                } else {
                    if op.to_bits() != np.to_bits() {
                        changes.push(ChangedPair {
                            handle: oh,
                            old_prob: Some(op),
                            new_prob: Some(np),
                        });
                    }
                    old_iter.next();
                    new_iter.next();
                }
            }
            (Some(&(&oh, &op)), None) => {
                changes.push(ChangedPair {
                    handle: oh,
                    old_prob: Some(op),
                    new_prob: None,
                });
                old_iter.next();
            }
            (None, Some(&(&nh, &np))) => {
                changes.push(ChangedPair {
                    handle: nh,
                    old_prob: None,
                    new_prob: Some(np),
                });
                new_iter.next();
            }
            (None, None) => break,
        }
    }
    changes
}

/// RAII handle of one live subscription: consume change batches through it,
/// drop it to unsubscribe. Every accessor below first waits until the
/// notifier has finished the versions handed to it before the call (the
/// read-your-writes barrier of the [module docs](self)). Dropping is safe
/// at any time from any thread — the registry entry (maintained state and
/// queue) is removed under the subscription lock, so a concurrent refresh
/// either completes the entry's batch first or never sees it, and a
/// refresh still queued for it delivers nothing; the guard's `Arc` keeps
/// the registry's state alive either way.
pub struct SubscriptionGuard {
    registry: Arc<RegistryInner>,
    id: u64,
}

impl SubscriptionGuard {
    /// The registry-unique subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Holders of the registry state this guard reads: the guards, plus
    /// one each for a registry handle and a running notifier.
    #[cfg(test)]
    pub(crate) fn registry_refs(&self) -> usize {
        Arc::strong_count(&self.registry)
    }

    /// The subscription table, once every earlier hand-off is refreshed.
    fn settled(&self) -> MutexGuard<'_, SubMap> {
        self.registry.settle();
        lock(&self.registry.subs)
    }

    /// Dequeues the oldest undelivered change batch, if any.
    pub fn poll(&self) -> Option<ChangeBatch> {
        self.settled().subs.get_mut(&self.id)?.queue.pop_front()
    }

    /// Dequeues every undelivered change batch, oldest first.
    pub fn drain(&self) -> Vec<ChangeBatch> {
        match self.settled().subs.get_mut(&self.id) {
            Some(state) => state.queue.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// A copy of the maintained result: `(handle, probability)` in ascending
    /// handle order. Empty while the subscription is pending.
    pub fn maintained(&self) -> Vec<(InstanceHandle, f64)> {
        match self.settled().subs.get(&self.id) {
            Some(state) => state.maintained.iter().map(|(&h, &p)| (h, p)).collect(),
            None => Vec::new(),
        }
    }

    /// The latest per-subscription result version (0 while pending —
    /// batches number from 1).
    pub fn result_version(&self) -> u64 {
        self.settled()
            .subs
            .get(&self.id)
            .map_or(0, |state| state.result_version)
    }

    /// `true` until the first refresh delivers the initial full batch.
    pub fn is_pending(&self) -> bool {
        self.settled()
            .subs
            .get(&self.id)
            .is_some_and(|state| state.last_version.is_none())
    }
}

impl std::fmt::Debug for SubscriptionGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriptionGuard")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl Drop for SubscriptionGuard {
    fn drop(&mut self) {
        let mut map = lock(&self.registry.subs);
        map.subs.remove(&self.id);
        self.registry.live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicArspEngine;
    use crate::service::{ArspService, ServiceWriter};
    use arsp_data::paper_running_example;

    /// A version-changing mutation that keeps every probability budget.
    fn mutate(writer: &mut ServiceWriter, step: f64) {
        let row = writer
            .store()
            .canonical_rows()
            .next()
            .expect("the running example has live rows");
        let handle = writer.store().handle_of_row(row);
        writer.update_instance(handle, &[3.0 + step, 4.0], 0.05);
    }

    #[test]
    fn a_service_nobody_subscribes_to_starts_no_notifier() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        for step in 0..3 {
            mutate(&mut writer, f64::from(step));
            writer.publish();
        }
        writer.sync_subscriptions();
        assert!(!writer.engine().standing().notifier_started());
        let stats = service.serving_stats();
        assert_eq!((stats.standing_backlog, stats.standing_lag_max_us), (0, 0));
    }

    #[test]
    fn the_inline_engine_path_starts_no_notifier() {
        let engine = DynamicArspEngine::from_dataset(&paper_running_example());
        let cs = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let sub = engine.subscribe(StandingSpec::constraints(&cs));
        engine.refresh_standing();
        assert_eq!(sub.drain().len(), 1);
        assert!(!engine.standing().notifier_started());
    }

    /// Dropping the service and its writer with refreshes still queued
    /// joins the notifier after it has refreshed every hand-off: the feed
    /// is complete and the guard holds the last reference to the
    /// registry's state (the notifier's clone went with its thread).
    #[test]
    fn dropping_the_service_with_refreshes_pending_joins_the_notifier() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        let cs = ConstraintSet::weak_ranking(2, 1);
        let sub = service.subscribe(StandingSpec::constraints(&cs));
        writer.sync_subscriptions();
        assert!(writer.engine().standing().notifier_started());
        for step in 1..=4 {
            mutate(&mut writer, f64::from(step));
            writer.publish();
        }
        drop(service);
        drop(writer);
        assert_eq!(sub.registry_refs(), 1);
        let versions: Vec<u64> = sub.drain().iter().map(|b| b.version).collect();
        assert_eq!(versions, vec![0, 1, 2, 3, 4]);
    }

    /// A publish or sync at an unchanged version hands off only for a
    /// subscription registered since the last hand-off, and then only that
    /// subscription gets a batch.
    #[test]
    fn an_unchanged_version_is_handed_off_only_for_new_subscriptions() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        let cs = ConstraintSet::weak_ranking(2, 1);
        let first = service.subscribe(StandingSpec::constraints(&cs));
        writer.sync_subscriptions();
        let registry = writer.engine().standing().clone();
        assert_eq!(registry.hand_offs(), 1);
        writer.sync_subscriptions();
        assert_eq!(writer.publish(), 0);
        assert_eq!(registry.hand_offs(), 1, "a current feed was handed off");

        let second = service.subscribe(StandingSpec::constraints(&cs));
        assert_eq!(writer.publish(), 0);
        writer.sync_subscriptions();
        assert_eq!(registry.hand_offs(), 2);
        assert_eq!((first.result_version(), second.result_version()), (1, 1));

        mutate(&mut writer, 1.0);
        writer.publish();
        assert_eq!(registry.hand_offs(), 3);
        assert_eq!((first.result_version(), second.result_version()), (2, 2));
    }

    /// A writer that publishes back to back while the notifier is stalled
    /// stops at [`HAND_OFF_BOUND`] unrefreshed versions; once the notifier
    /// runs again, every version arrives in order.
    #[test]
    fn a_writer_ahead_of_the_notifier_waits_at_the_bound() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        let cs = ConstraintSet::weak_ranking(2, 1);
        let sub = service.subscribe(StandingSpec::constraints(&cs));
        writer.sync_subscriptions();
        let registry = writer.engine().standing().clone();
        // Holding the subscription lock stalls the notifier inside its next
        // refresh, the way a slow refresh would.
        let stall = lock(&registry.inner().subs);
        let acked = Arc::new(AtomicU64::new(0));
        let acks = Arc::clone(&acked);
        let total = HAND_OFF_BOUND + 2;
        let closed_loop = thread::spawn(move || {
            for step in 1..=total {
                mutate(&mut writer, step as f64);
                writer.publish();
                acks.store(step, Ordering::SeqCst);
            }
            writer
        });
        while service.serving_stats().standing_backlog < HAND_OFF_BOUND {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(acked.load(Ordering::SeqCst), HAND_OFF_BOUND);
        assert_eq!(service.serving_stats().standing_backlog, HAND_OFF_BOUND);
        drop(stall);
        let _writer = closed_loop.join().expect("writer panicked");
        let versions: Vec<u64> = sub.drain().iter().map(|b| b.version).collect();
        assert_eq!(versions, (0..=total).collect::<Vec<_>>());
        assert_eq!(service.serving_stats().standing_backlog, 0);
    }

    #[test]
    fn backlog_drains_to_zero_and_lag_is_recorded() {
        let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
        let cs = ConstraintSet::weak_ranking(2, 1);
        let sub = service.subscribe(StandingSpec::constraints(&cs));
        writer.sync_subscriptions();
        mutate(&mut writer, 1.0);
        writer.publish();
        assert_eq!(sub.result_version(), 2);
        let stats = service.serving_stats();
        assert_eq!(stats.standing_backlog, 0);
        assert!(stats.standing_lag_max_us > 0);
        assert_eq!(stats.standing_refresh_panics, 0);
        assert_eq!(stats.notifications_delivered, 2);
    }

    #[test]
    fn subscribe_and_drop_bookkeeping() {
        let engine = DynamicArspEngine::from_dataset(&paper_running_example());
        let registry = engine.standing().clone();
        assert_eq!(registry.num_subscriptions(), 0);
        let cs = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let guard = registry.subscribe(StandingSpec::constraints(&cs));
        assert_eq!(registry.num_subscriptions(), 1);
        assert!(guard.is_pending());
        assert_eq!(guard.result_version(), 0);
        assert!(guard.maintained().is_empty());
        drop(guard);
        assert_eq!(registry.num_subscriptions(), 0);
    }

    #[test]
    fn initial_batch_is_the_full_result() {
        let engine = DynamicArspEngine::from_dataset(&paper_running_example());
        let cs = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let sub = engine.subscribe(StandingSpec::constraints(&cs));
        assert!(!sub.is_pending());
        let batch = sub.poll().expect("initial batch");
        assert_eq!(batch.result_version, 1);
        assert_eq!(batch.version, 0);
        assert_eq!(batch.changes.len(), 10);
        assert!(batch.changes.iter().all(|c| c.old_prob.is_none()));
        assert!((batch.changes[0].new_prob.expect("live") - 2.0 / 9.0).abs() < 1e-9);
        assert!(sub.poll().is_none());
    }

    #[test]
    fn unchanged_version_enqueues_nothing() {
        let engine = DynamicArspEngine::from_dataset(&paper_running_example());
        let cs = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let sub = engine.subscribe(StandingSpec::constraints(&cs));
        sub.drain();
        engine.refresh_standing();
        engine.refresh_standing();
        assert!(sub.poll().is_none(), "no version change, no batch");
        assert_eq!(sub.result_version(), 1);
    }

    #[test]
    fn diff_reports_bitwise_changes_only() {
        let a = InstanceHandle::from_index(0);
        let b = InstanceHandle::from_index(1);
        let c = InstanceHandle::from_index(2);
        let old: BTreeMap<_, _> = [(a, 0.25), (b, 0.5)].into_iter().collect();
        let new: BTreeMap<_, _> = [(b, 0.5), (c, 0.75)].into_iter().collect();
        let changes = diff_maintained(&old, &new);
        assert_eq!(
            changes,
            vec![
                ChangedPair {
                    handle: a,
                    old_prob: Some(0.25),
                    new_prob: None
                },
                ChangedPair {
                    handle: c,
                    old_prob: None,
                    new_prob: Some(0.75)
                },
            ]
        );
        assert!(diff_maintained(&new, &new).is_empty());
    }
}
