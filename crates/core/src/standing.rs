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
//! A refresh evaluates every subscription that is behind the engine's
//! version as one ordinary query through the engine's builder — the same
//! pipeline ([`crate::pipeline`]) every other query runs, over the engine's
//! delta-patched artifacts, with the subscription's algorithm and execution
//! mode — re-keys the snapshot-space result by stable instance handle, and
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
//! registry; [`crate::service::ServiceWriter::publish`] refreshes every
//! subscription on the writer thread right after the snapshot swap, so
//! subscribers observe change-sets in publish order with no missed or
//! duplicated result versions. The refresh queries run on the snapshot just
//! published, so they share every artifact build with the readers' queries
//! at that version. [`crate::cluster::ShardedService::subscribe`]
//! fans one spec out per shard and stitches the per-shard change-sets
//! shard-major, exactly like the cross-shard result merge. Dropping a
//! [`SubscriptionGuard`] unsubscribes (RAII — safe at any time, including
//! mid-publish from another thread).

use std::collections::{BTreeMap, VecDeque};

use crate::dynamic::DynamicArspEngine;
use crate::engine::{Execution, QueryAlgorithm};
use crate::stats::StandingCounters;
use crate::sync::{lock, Arc, Mutex};
use arsp_data::InstanceHandle;
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

struct RegistryInner {
    subs: Mutex<SubMap>,
    counters: StandingCounters,
}

/// The standing-query registry: owns every subscription's maintained state
/// and queue. Cheap to clone (an `Arc` inside) — the dynamic engine, the
/// serving layer and every [`SubscriptionGuard`] share one. See the
/// [module docs](self).
#[derive(Clone)]
pub struct StandingQueryRegistry {
    inner: Arc<RegistryInner>,
}

impl StandingQueryRegistry {
    pub(crate) fn new() -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                subs: Mutex::new(SubMap {
                    next_id: 0,
                    subs: BTreeMap::new(),
                }),
                counters: StandingCounters::new(),
            }),
        }
    }

    /// Registers a standing query. The subscription starts *pending*: its
    /// first [`ChangeBatch`] (the full initial result, all `old_prob: None`)
    /// arrives at the next refresh — immediately for
    /// [`DynamicArspEngine::subscribe`], at the next
    /// [`publish`](crate::service::ServiceWriter::publish) (or
    /// [`sync_subscriptions`](crate::service::ServiceWriter::sync_subscriptions))
    /// for service-level subscriptions. Dropping the returned guard
    /// unsubscribes.
    pub fn subscribe(&self, spec: StandingSpec) -> SubscriptionGuard {
        let mut map = lock(&self.inner.subs);
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
        drop(map);
        SubscriptionGuard {
            registry: Arc::clone(&self.inner),
            id,
        }
    }

    /// Number of live subscriptions.
    pub fn num_subscriptions(&self) -> usize {
        lock(&self.inner.subs).subs.len()
    }

    /// The registry's monotone notification counter.
    pub(crate) fn counters(&self) -> &StandingCounters {
        &self.inner.counters
    }

    /// Brings every subscription to the engine's current version, enqueueing
    /// one [`ChangeBatch`] per subscription whose `last_version` differs
    /// (pending subscriptions get their initial full batch). Runs on the
    /// caller's thread under the subscription lock — the serving layer calls
    /// this from the single writer thread, which is what makes notification
    /// order the publish order.
    pub(crate) fn refresh(&self, engine: &DynamicArspEngine) {
        let version = engine.version();
        let mut map = lock(&self.inner.subs);
        for state in map.subs.values_mut() {
            if state.last_version == Some(version) {
                continue;
            }
            let fresh = evaluate(engine, &state.spec);
            let changes = diff_maintained(&state.maintained, &fresh);
            state.maintained = fresh;
            state.last_version = Some(version);
            state.result_version += 1;
            state.queue.push_back(ChangeBatch {
                result_version: state.result_version,
                version,
                changes,
            });
            self.inner.counters.add_notification();
        }
    }
}

/// A subscription's result at the engine's current version: one query
/// through the engine's builder, re-keyed from snapshot-instance-id space to
/// handles.
fn evaluate(engine: &DynamicArspEngine, spec: &StandingSpec) -> BTreeMap<InstanceHandle, f64> {
    let query = match &spec.kind {
        SpecKind::Linear(cs) => engine.query(cs),
        SpecKind::Ratio(r) => engine.ratio_query(r),
    };
    let outcome = query
        .algorithm(spec.algorithm)
        .execution(spec.execution)
        .run();
    engine
        .snapshot_handles()
        .into_iter()
        .enumerate()
        .map(|(s, h)| (h, outcome.instance_prob(s)))
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
/// drop it to unsubscribe. Dropping is safe at any time from any thread —
/// the registry entry (maintained state and queue) is removed under the
/// subscription lock, so a concurrent refresh either completes the entry's
/// batch first or never sees it; the guard's `Arc` keeps the registry alive
/// either way.
pub struct SubscriptionGuard {
    registry: Arc<RegistryInner>,
    id: u64,
}

impl SubscriptionGuard {
    /// The registry-unique subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Dequeues the oldest undelivered change batch, if any.
    pub fn poll(&self) -> Option<ChangeBatch> {
        let mut map = lock(&self.registry.subs);
        map.subs.get_mut(&self.id)?.queue.pop_front()
    }

    /// Dequeues every undelivered change batch, oldest first.
    pub fn drain(&self) -> Vec<ChangeBatch> {
        let mut map = lock(&self.registry.subs);
        match map.subs.get_mut(&self.id) {
            Some(state) => state.queue.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// A copy of the maintained result: `(handle, probability)` in ascending
    /// handle order. Empty while the subscription is pending.
    pub fn maintained(&self) -> Vec<(InstanceHandle, f64)> {
        let map = lock(&self.registry.subs);
        match map.subs.get(&self.id) {
            Some(state) => state.maintained.iter().map(|(&h, &p)| (h, p)).collect(),
            None => Vec::new(),
        }
    }

    /// The latest per-subscription result version (0 while pending —
    /// batches number from 1).
    pub fn result_version(&self) -> u64 {
        let map = lock(&self.registry.subs);
        map.subs
            .get(&self.id)
            .map_or(0, |state| state.result_version)
    }

    /// `true` until the first refresh delivers the initial full batch.
    pub fn is_pending(&self) -> bool {
        let map = lock(&self.registry.subs);
        map.subs
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsp_data::paper_running_example;

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
