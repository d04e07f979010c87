//! Standing queries: a subscription registry with incremental result
//! maintenance.
//!
//! A standing query is registered once ([`StandingQueryRegistry::subscribe`])
//! and then *maintained*: after each mutation batch the registry computes the
//! subscription's result at the new version and enqueues only the changed
//! `(handle, old_prob, new_prob)` pairs as a [`ChangeBatch`], stamped with a
//! monotone per-subscription result version. A dashboard that re-ran a full
//! query per tick now consumes change-sets instead (see
//! `examples/stock_prediction.rs`).
//!
//! ## The maintenance path
//!
//! For a subscription pinned to [`QueryAlgorithm::Loop`] under linear
//! constraints, maintenance replays the delta against the engine's
//! delta-patched artifacts rather than rescanning the bulk:
//!
//! 1. The [`arsp_data::VersionedStore`]'s change log yields the batch's
//!    [`ChangeSummary`](arsp_data::ChangeSummary): touched handles plus the
//!    pre-images of removed/overwritten rows.
//! 2. The engine's snapshot caches are delta-patched forward (the same fold a
//!    query triggers), producing the current delta-patched
//!    [`ScoreMatrix`](crate::scorespace::ScoreMatrix) and merge-patched
//!    LOOP order — bitwise the cold builds.
//! 3. A **dirty-set narrowing pass** marks the surviving instances the delta
//!    can affect: an instance is dirty iff it was itself touched, or some
//!    delta row of another object — a touched row's current score vector, or
//!    a removed row's pre-image projected through the same vertex enumeration
//!    — dominates it in score space (the exact window in which a row
//!    contributes to an instance's σ accounting).
//! 4. The cached artifacts are gathered once into the LOOP scan layout
//!    (`LoopScan` in [`crate::algorithms::loop_scan`]), and only the
//!    dirty positions run the *same pair kernel the full LOOP scan runs*;
//!    clean instances carry their previous probability over bit-for-bit.
//!    This is exact, not approximate: a clean instance's dominator
//!    subsequence (and its scan order, hence its σ sums and product fold)
//!    is untouched by the delta, so recomputation would reproduce the same
//!    bits.
//! 5. When the dirty set exceeds the subscription's cost-model threshold
//!    ([`StandingSpec::max_dirty_fraction`]) — or the change log no longer
//!    covers the gap — the subscription falls back to one full re-evaluation
//!    ([`StandingCounters::standing_full_fallbacks`] counts these).
//!
//! Subscriptions on the tree algorithms, B&B, `Auto`, or weight-ratio
//! constraints re-evaluate through the engine's (cached, delta-aware) query
//! path each refresh; their change-sets are diffed the same way. Either way
//! the contract is the standing one: **after every refresh, the maintained
//! result is bitwise equal to a cold [`crate::engine::ArspEngine`] full query
//! on the equivalent snapshot** (enforced by `tests/standing_agreement.rs`).
//!
//! ## Serving integration
//!
//! [`crate::service::ArspService::subscribe`] registers against the shared
//! registry; [`crate::service::ServiceWriter::publish`] refreshes every
//! subscription on the writer thread right after the snapshot swap, so
//! subscribers observe change-sets in publish order with no missed or
//! duplicated result versions. [`crate::cluster::ShardedService::subscribe`]
//! fans one spec out per shard and stitches the per-shard change-sets
//! shard-major, exactly like the cross-shard result merge. Dropping a
//! [`SubscriptionGuard`] unsubscribes (RAII — safe at any time, including
//! mid-publish from another thread).

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::algorithms::loop_scan::LoopScratch;
use crate::dynamic::DynamicArspEngine;
use crate::engine::{Execution, QueryAlgorithm};
use crate::stats::StandingCounters;
use crate::sync::{lock, Arc, Mutex};
use arsp_data::InstanceHandle;
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};
use arsp_geometry::point;

/// Default [`StandingSpec::max_dirty_fraction`]: beyond this share of dirty
/// survivors the per-instance recompute loses to one full LOOP query over
/// the engine's patched artifacts, so the subscription falls back.
const DEFAULT_MAX_DIRTY_FRACTION: f64 = 0.35;

/// What a subscription watches: general linear constraints or a weight
/// ratio (§IV — unlocks DUAL on the full-evaluation path).
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
///     .execution(Execution::Sequential)
///     .max_dirty_fraction(0.5);
/// # let _ = spec;
/// ```
#[derive(Clone, Debug)]
pub struct StandingSpec {
    kind: SpecKind,
    algorithm: QueryAlgorithm,
    execution: Execution,
    max_dirty_fraction: f64,
}

impl StandingSpec {
    /// A standing query under general linear constraints.
    pub fn constraints(constraints: &ConstraintSet) -> Self {
        Self {
            kind: SpecKind::Linear(constraints.clone()),
            algorithm: QueryAlgorithm::Auto,
            execution: Execution::Sequential,
            max_dirty_fraction: DEFAULT_MAX_DIRTY_FRACTION,
        }
    }

    /// A standing query under weight-ratio constraints.
    pub fn ratio(ratio: &WeightRatio) -> Self {
        Self {
            kind: SpecKind::Ratio(ratio.clone()),
            algorithm: QueryAlgorithm::Auto,
            execution: Execution::Sequential,
            max_dirty_fraction: DEFAULT_MAX_DIRTY_FRACTION,
        }
    }

    /// Pins the algorithm (default [`QueryAlgorithm::Auto`]). Only
    /// [`QueryAlgorithm::Loop`] under linear constraints maintains
    /// incrementally; everything else re-evaluates through the engine's
    /// cached query path per refresh.
    pub fn algorithm(mut self, algorithm: QueryAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Chooses the execution mode of the evaluation paths (default
    /// [`Execution::Sequential`]); parallel execution is bitwise identical.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// The cost-model threshold: when more than this fraction of surviving
    /// instances is dirty, maintenance falls back to one full re-evaluation.
    /// Clamped to `[0, 1]`; `0` forces the fallback on every non-empty
    /// delta, `1` never falls back on cost grounds (a change-log gap still
    /// does).
    pub fn max_dirty_fraction(mut self, fraction: f64) -> Self {
        self.max_dirty_fraction = fraction.clamp(0.0, 1.0);
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

    /// The registry's monotone maintenance counters.
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
            let fresh = self.evaluate(engine, state, version);
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

    /// The subscription's result at `version` — incrementally when the spec
    /// allows it, through the engine's cached query path otherwise.
    fn evaluate(
        &self,
        engine: &DynamicArspEngine,
        state: &SubscriptionState,
        version: u64,
    ) -> BTreeMap<InstanceHandle, f64> {
        if let (SpecKind::Linear(cs), QueryAlgorithm::Loop, Some(since)) =
            (&state.spec.kind, state.spec.algorithm, state.last_version)
        {
            match self.maintain_loop(
                engine,
                cs,
                since,
                state.spec.max_dirty_fraction,
                &state.maintained,
            ) {
                Some(fresh) => return fresh,
                None => {
                    // Change-log gap or dirty set over the threshold: one
                    // full re-evaluation re-anchors the subscription.
                    self.inner.counters.add_full_fallback();
                }
            }
        }
        let _ = version;
        self.full_evaluate(engine, &state.spec)
    }

    /// One full evaluation through the engine's (cached, delta-aware) query
    /// builder, re-keyed from snapshot-instance-id space to handles.
    fn full_evaluate(
        &self,
        engine: &DynamicArspEngine,
        spec: &StandingSpec,
    ) -> BTreeMap<InstanceHandle, f64> {
        let outcome = match &spec.kind {
            SpecKind::Linear(cs) => engine
                .query(cs)
                .algorithm(spec.algorithm)
                .execution(spec.execution)
                .run(),
            SpecKind::Ratio(r) => engine
                .ratio_query(r)
                .algorithm(spec.algorithm)
                .execution(spec.execution)
                .run(),
        };
        let (handles, _) = engine.snapshot_handles();
        handles
            .iter()
            .enumerate()
            .map(|(s, &h)| (h, outcome.instance_prob(s)))
            .collect()
    }

    /// The incremental LOOP maintenance pass. `None` means "fall back":
    /// either the store's change log no longer covers `since`, or the dirty
    /// set exceeded the cost-model threshold.
    fn maintain_loop(
        &self,
        engine: &DynamicArspEngine,
        constraints: &ConstraintSet,
        since: u64,
        max_dirty_fraction: f64,
        old: &BTreeMap<InstanceHandle, f64>,
    ) -> Option<BTreeMap<InstanceHandle, f64>> {
        let summary = engine.store().changes_since(since)?;
        // Delta-patched artifacts at the current version — bitwise the cold
        // builds (the engine's standing delta-patch guarantee), so the
        // per-instance kernel below computes exactly what a full scan would.
        let art = engine.loop_artifacts(constraints);
        let (handles, objects) = engine.snapshot_handles();
        let n = handles.len();
        let d = art.scores.score_dim();

        let snap_of: HashMap<InstanceHandle, usize> =
            handles.iter().enumerate().map(|(s, &h)| (h, s)).collect();

        // The delta rows' score vectors: current vectors of touched rows
        // that are still live, plus removed/overwritten pre-images projected
        // through the same vertex enumeration the cached matrix used.
        let mut dirty = vec![false; n];
        let mut delta: Vec<(usize, Vec<f64>)> =
            Vec::with_capacity(summary.touched.len() + summary.removed.len());
        for &h in &summary.touched {
            if let Some(&s) = snap_of.get(&h) {
                dirty[s] = true;
                delta.push((objects[s] as usize, art.scores.row(s).to_vec()));
            }
        }
        for rr in &summary.removed {
            let mut sv = vec![0.0; d];
            art.fdom.map_to_score_space_into(&rr.coords, &mut sv);
            delta.push((rr.object, sv));
        }

        // Dominance-window narrowing: a surviving untouched instance can
        // only change if some delta row of another object dominates it in
        // score space (the exact condition under which the row contributes
        // to — or used to contribute to — the instance's σ accounting).
        for s in 0..n {
            if dirty[s] {
                continue;
            }
            let sv_s = art.scores.row(s);
            let obj_s = objects[s] as usize;
            if delta
                .iter()
                .any(|(obj_d, sv_d)| *obj_d != obj_s && point::dominates(sv_d, sv_s))
            {
                dirty[s] = true;
            }
        }

        let dirty_count = dirty.iter().filter(|&&b| b).count() as u64;
        if dirty_count as f64 > max_dirty_fraction * n as f64 {
            return None;
        }

        // Inverse of the merge-patched order: snapshot id → scan position,
        // what the pair kernel indexes by.
        let mut pos_of = vec![0usize; n];
        for (p, &id) in art.order.order.iter().enumerate() {
            pos_of[id] = p;
        }

        // One gather of the scan layout per refresh; only the dirty
        // positions run the kernel.
        let mut scratch = engine.loop_scratch();
        let LoopScratch { scan, work } = &mut *scratch;
        scan.gather(&art.flat, &art.scores, &art.order);
        work.prepare(art.flat.num_objects());
        let mut tests = 0u64;
        let mut scanned = 0u64;
        let mut fresh = BTreeMap::new();
        for (s, &h) in handles.iter().enumerate() {
            let carried = if dirty[s] { None } else { old.get(&h).copied() };
            let prob = match carried {
                Some(p) => p,
                None => {
                    scanned += 1;
                    scan.target_prob(pos_of[s], work, &mut tests)
                }
            };
            fresh.insert(h, prob);
        }
        self.inner.counters.add_dirty_scanned(scanned);
        Some(fresh)
    }
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

    #[test]
    fn max_dirty_fraction_zero_always_falls_back() {
        let mut engine = DynamicArspEngine::from_dataset(&paper_running_example());
        let cs = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let sub = engine.subscribe(
            StandingSpec::constraints(&cs)
                .algorithm(QueryAlgorithm::Loop)
                .max_dirty_fraction(0.0),
        );
        sub.drain();
        let handle = engine.store().handle_of_row(2);
        engine.update_instance(handle, &[3.0, 4.0], 0.05);
        engine.refresh_standing();
        assert_eq!(engine.standing().counters().standing_full_fallbacks(), 1);
        assert_eq!(engine.standing().counters().dirty_instances_scanned(), 0);
        assert_eq!(sub.drain().len(), 1);
    }
}
