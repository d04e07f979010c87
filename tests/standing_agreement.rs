//! The standing-query contract (see `arsp::core::standing`): a subscription
//! registered once is *maintained* — after every mutation batch its change
//! feed replays to a result **bitwise equal** (`f64::to_bits`, no tolerance)
//! to a cold [`ArspEngine`] full query on the equivalent snapshot, at every
//! version, for every algorithm the spec can pin and both execution modes.
//!
//! Four layers are property- and stress-tested here:
//!
//! 1. **Engine-level replay** — random mutation/query interleavings, a dozen
//!    concurrent subscriptions (all five algorithms × Sequential/Parallel,
//!    plus `Auto` and a weight-ratio watch); every change batch is replayed
//!    client-side with gapless result versions and compared bitwise against
//!    a cold rebuild after *every* operation.
//! 2. **Counters** — the static engine reports zeroed standing counters;
//!    the dynamic maintenance path accounts dirty-set scans, fallbacks and
//!    notifications exactly.
//! 3. **Service-level stress** — subscriber threads drain concurrently with
//!    reader threads while the single writer churns and publishes: nobody
//!    ever misses or double-sees a result version, and the replayed feeds
//!    land bitwise on a cold rebuild of the final published dataset.
//! 4. **Cluster fan-out** — a sharded subscription maintains one feed per
//!    shard, each bitwise equal to a cold engine on that shard's snapshot,
//!    and subscription fails closed (typed `ShardUnavailable`) while any
//!    shard is down.
//!
//! The publish-vs-notify race itself (lost/duplicated versions under forced
//! interleavings) is model-checked in `tests/model_check.rs`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use arsp::core::cluster::{ApplyOutcome, ClusterConfig, ShardedService};
use arsp::core::dynamic::DynamicArspEngine;
use arsp::core::engine::{ArspEngine, Execution, QueryAlgorithm};
use arsp::core::service::ArspService;
use arsp::core::standing::{ChangeBatch, StandingSpec, SubscriptionGuard};
use arsp::prelude::*;
use arsp_data::failpoint::{self, FailAction};
use arsp_data::{partition_dataset, InstanceHandle, VersionedStore};
use proptest::prelude::*;

const ALGOS: [QueryAlgorithm; 5] = [
    QueryAlgorithm::Loop,
    QueryAlgorithm::Kdtt,
    QueryAlgorithm::KdttPlus,
    QueryAlgorithm::QdttPlus,
    QueryAlgorithm::BranchAndBound,
];

const EXECUTIONS: [Execution; 2] = [Execution::Sequential, Execution::Parallel { threads: 2 }];

/// A unique scratch directory under the workspace `target/` (never `/tmp`).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/standing-agreement-tests")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// The client-side replay: a consumer that holds no reference to the engine
// and reconstructs the result purely from the change feed. Its invariants
// (gapless result versions, strictly increasing store versions, old_prob
// matching its own state bit-for-bit) are the subscription protocol.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Replay {
    maintained: BTreeMap<InstanceHandle, f64>,
    batches_seen: u64,
    last_store_version: Option<u64>,
}

impl Replay {
    fn apply(&mut self, batch: &ChangeBatch, context: &str) {
        self.batches_seen += 1;
        assert_eq!(
            batch.result_version, self.batches_seen,
            "{context}: result versions must be gapless"
        );
        if let Some(last) = self.last_store_version {
            assert!(
                batch.version > last,
                "{context}: store versions must strictly increase \
                 ({} after {last})",
                batch.version
            );
        }
        self.last_store_version = Some(batch.version);
        for pair in &batch.changes {
            let previous = match pair.new_prob {
                Some(new_prob) => self.maintained.insert(pair.handle, new_prob),
                None => self.maintained.remove(&pair.handle),
            };
            assert_eq!(
                previous.map(f64::to_bits),
                pair.old_prob.map(f64::to_bits),
                "{context}: old_prob of {:?} disagrees with the replayed state",
                pair.handle
            );
        }
    }
}

/// Re-keys a cold result (snapshot-instance-id indexed) to stable handles —
/// the store's canonical row order **is** the snapshot instance order.
fn expected_map(store: &VersionedStore, probs: &[f64]) -> BTreeMap<InstanceHandle, f64> {
    let handles: Vec<InstanceHandle> = store
        .canonical_rows()
        .map(|row| store.handle_of_row(row))
        .collect();
    assert_eq!(handles.len(), probs.len(), "snapshot/result size mismatch");
    handles.into_iter().zip(probs.iter().copied()).collect()
}

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

fn assert_bitwise_eq(
    got: &BTreeMap<InstanceHandle, f64>,
    want: &BTreeMap<InstanceHandle, f64>,
    context: &str,
) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{context}: live handle sets differ"
    );
    for (handle, got_prob) in got {
        let want_prob = want[handle];
        assert_eq!(
            got_prob.to_bits(),
            want_prob.to_bits(),
            "{context}: {handle:?} replayed to {got_prob} but the cold \
             rebuild says {want_prob}"
        );
    }
}

// ---------------------------------------------------------------------------
// Operation interpretation, driven off the store's own state (the snapshot
// semantics themselves are mirror-proven by `tests/dynamic_agreement.rs`;
// here the store is trusted and the standing feed is on trial).
// ---------------------------------------------------------------------------

/// One raw sampled operation: (kind, selector, coords, fraction).
type RawOp = (u8, u16, (f64, f64, f64), f64);

fn coords_vec(dim: usize, raw: (f64, f64, f64)) -> Vec<f64> {
    [raw.0, raw.1, raw.2][..dim].to_vec()
}

/// Applies one raw operation as a *valid* mutation against the engine's
/// current state; returns a short tag for failure messages.
fn apply_op(engine: &mut DynamicArspEngine, op: RawOp, dim: usize) -> &'static str {
    let (kind, selector, raw_coords, fraction) = op;
    let coords = coords_vec(dim, raw_coords);
    match kind % 6 {
        // Insert a new object (two instances splitting the sampled mass).
        0 => {
            let mass = 0.2 + 0.75 * fraction;
            let second: Vec<f64> = coords.iter().map(|c| (c * 0.7 + 0.1).min(1.0)).collect();
            engine.insert_object(None, vec![(coords, mass * 0.6), (second, mass * 0.4)]);
            "insert_object"
        }
        // Insert an instance into an existing object with probability slack.
        1 | 2 => {
            let store = engine.store();
            let candidates: Vec<usize> = (0..store.num_objects())
                .filter(|&o| !store.is_retired(o) && store.live_total_prob(o) < 0.85)
                .collect();
            if candidates.is_empty() {
                return "skip";
            }
            let object = candidates[selector as usize % candidates.len()];
            let slack = 1.0 - store.live_total_prob(object);
            let prob = (slack * (0.1 + 0.8 * fraction)).max(1e-3);
            engine.insert_instance(object, &coords, prob);
            "insert_instance"
        }
        // Remove an instance.
        3 => {
            let store = engine.store();
            let rows: Vec<usize> = store.canonical_rows().collect();
            if rows.len() <= 2 {
                return "skip";
            }
            let handle = store.handle_of_row(rows[selector as usize % rows.len()]);
            engine.remove_instance(handle);
            "remove_instance"
        }
        // Overwrite an instance (coords and probability).
        4 => {
            let store = engine.store();
            let rows: Vec<usize> = store.canonical_rows().collect();
            if rows.is_empty() {
                return "skip";
            }
            let row = rows[selector as usize % rows.len()];
            let handle = store.handle_of_row(row);
            let others = store.live_total_prob(store.object_of(row)) - store.prob(row);
            let prob = ((1.0 - others) * (0.1 + 0.8 * fraction)).max(1e-3);
            engine.update_instance(handle, &coords, prob);
            "update_instance"
        }
        // Retire an object (kept rare by the selector guard) or compact —
        // compaction must be invisible to the feed (epoch bump, no version).
        _ => {
            if selector % 3 == 0 {
                let store = engine.store();
                let candidates: Vec<usize> = (0..store.num_objects())
                    .filter(|&o| !store.is_retired(o))
                    .collect();
                if candidates.len() <= 3 {
                    return "skip";
                }
                engine.retire_object(candidates[selector as usize % candidates.len()]);
                "retire_object"
            } else {
                engine.merge_now();
                "merge_now"
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 1. Engine-level replay agreement.
// ---------------------------------------------------------------------------

/// What one test subscription watches (the reference picks the matching cold
/// query).
enum Watch {
    Linear(QueryAlgorithm),
    Ratio,
}

proptest! {
    // Random mutation/query interleavings: a dozen standing subscriptions —
    // all five algorithms × both execution modes, plus Auto and a
    // weight-ratio watch — are maintained across a random op sequence, and
    // after *every* op each replayed feed must equal a cold rebuild
    // bitwise. Delta policies rotate so maintenance runs across un-merged,
    // threshold-merged and eagerly-merged change logs.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn replayed_feeds_equal_a_cold_rebuild_at_every_version(
        seed in 0u64..1_000_000,
        shape in (4usize..9, 1usize..4, 2usize..4),
        ops in proptest::collection::vec(
            (0u8..12, 0u16..4096, (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 0.0f64..1.0),
            5..10),
        policy_pick in 0u8..3,
    ) {
        let (num_objects, max_instances, dim) = shape;
        let dataset = SyntheticConfig {
            num_objects,
            max_instances,
            dim,
            region_length: 0.4,
            phi: 0.5,
            seed,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(dim, dim - 1);
        let ratio = WeightRatio::uniform(dim, 0.5, 2.0);

        let mut engine = DynamicArspEngine::from_store(VersionedStore::from_dataset(&dataset));
        engine.set_delta_policy(match policy_pick {
            0 => DeltaPolicy::manual(),
            1 => DeltaPolicy::eager(),
            _ => DeltaPolicy { min_pending: 4, max_fraction: 0.05 },
        });

        // The subscription panel: every pinnable algorithm × both execution
        // modes, one Auto, one ratio watch. `DynamicArspEngine::subscribe`
        // refreshes immediately, so none stays pending.
        let mut panel: Vec<(Watch, SubscriptionGuard, Replay)> = Vec::new();
        for &algorithm in &ALGOS {
            for execution in EXECUTIONS {
                let guard = engine.subscribe(
                    StandingSpec::constraints(&constraints)
                        .algorithm(algorithm)
                        .execution(execution),
                );
                panel.push((Watch::Linear(algorithm), guard, Replay::default()));
            }
        }
        panel.push((
            Watch::Linear(QueryAlgorithm::Auto),
            engine.subscribe(StandingSpec::constraints(&constraints)),
            Replay::default(),
        ));
        panel.push((
            Watch::Ratio,
            engine.subscribe(StandingSpec::ratio(&ratio)),
            Replay::default(),
        ));
        prop_assert_eq!(engine.standing().num_subscriptions(), panel.len());
        prop_assert!(panel.iter().all(|(_, g, _)| !g.is_pending()));

        for step in 0..=ops.len() {
            let tag = if step == 0 {
                "initial"
            } else {
                let tag = apply_op(&mut engine, ops[step - 1], dim);
                engine.refresh_standing();
                tag
            };

            // One cold rebuild per step; reference maps per watched config.
            let cold = ArspEngine::new(engine.snapshot_dataset());
            let auto_ref = expected_map(engine.store(), cold.query(&constraints).run().result().probs());
            let ratio_ref = expected_map(engine.store(), cold.ratio_query(&ratio).run().result().probs());
            let linear_refs: Vec<BTreeMap<InstanceHandle, f64>> = ALGOS
                .iter()
                .map(|&a| {
                    expected_map(
                        engine.store(),
                        cold.query(&constraints).algorithm(a).run().result().probs(),
                    )
                })
                .collect();

            for (k, (watch, guard, replay)) in panel.iter_mut().enumerate() {
                let context = format!("seed {seed}, step {step} ({tag}), sub {k}");
                for batch in guard.drain() {
                    replay.apply(&batch, &context);
                }
                let want = match watch {
                    Watch::Linear(QueryAlgorithm::Auto) => &auto_ref,
                    Watch::Linear(a) => {
                        &linear_refs[ALGOS.iter().position(|x| x == a).expect("pinned")]
                    }
                    Watch::Ratio => &ratio_ref,
                };
                assert_bitwise_eq(&replay.maintained, want, &context);
                // The registry's own maintained copy agrees with the replay.
                let registry_view: BTreeMap<InstanceHandle, f64> =
                    guard.maintained().into_iter().collect();
                assert_bitwise_eq(&registry_view, &replay.maintained, &context);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Counter steady states.
// ---------------------------------------------------------------------------

/// The static engine has no standing machinery: its stats report a
/// permanent zero for `notifications_delivered`.
#[test]
fn static_engine_reports_zero_standing_counters() {
    let engine = ArspEngine::new(paper_running_example());
    let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
    engine.query(&constraints).run();
    let stats = engine.cache_stats();
    assert_eq!(stats.notifications_delivered, 0);
}

/// A fresh service with no subscriptions stays at zero standing counters no
/// matter how much it serves and publishes.
#[test]
fn unsubscribed_service_reports_zero_standing_counters() {
    let store = VersionedStore::from_dataset(&paper_running_example());
    let (service, mut writer) = ArspService::from_store(store);
    let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
    service.pin().query(&constraints).run();
    writer.insert_object(None, vec![(vec![5.0, 5.0], 0.4)]);
    writer.publish();
    let stats = service.serving_stats();
    assert_eq!(stats.notifications_delivered, 0);
    assert_eq!(stats.dirty_instances_scanned, 0);
    assert_eq!(stats.standing_full_fallbacks, 0);
}

/// Refreshes account their notifications exactly: one per refresh that
/// changed the version, none for a refresh at the same version.
#[test]
fn dynamic_engine_accounts_notifications() {
    let mut engine = DynamicArspEngine::from_dataset(&paper_running_example());
    let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
    let sub =
        engine.subscribe(StandingSpec::constraints(&constraints).algorithm(QueryAlgorithm::Loop));
    // The initial full batch is one notification.
    assert_eq!(engine.cache_stats().notifications_delivered, 1);

    let handle = engine.store().handle_of_row(2);
    engine.update_instance(handle, &[3.5, 4.5], 0.05);
    engine.refresh_standing();
    assert_eq!(engine.cache_stats().notifications_delivered, 2);
    assert_eq!(sub.drain().len(), 2);

    // A refresh with no version change notifies nobody.
    engine.refresh_standing();
    assert_eq!(engine.cache_stats().notifications_delivered, 2);
}

// ---------------------------------------------------------------------------
// 3. Service-level stress: subscriber + reader threads vs the writer.
// ---------------------------------------------------------------------------

/// Subscriber threads drain their feeds concurrently with reader queries
/// while the writer churns and publishes. After the dust settles: every
/// subscriber saw **exactly** the published version sequence (gapless result
/// versions, no loss, no duplication — asserted by the replay), and each
/// replayed feed equals a cold rebuild of the final published dataset,
/// bitwise.
#[test]
fn service_subscribers_never_miss_or_double_see_a_publish() {
    const ROUNDS: usize = 30;
    let dataset = SyntheticConfig {
        num_objects: 10,
        max_instances: 3,
        dim: 2,
        region_length: 0.4,
        phi: 0.5,
        seed: 23,
        ..SyntheticConfig::default()
    }
    .generate();
    let constraints = ConstraintSet::weak_ranking(2, 1);

    let store = VersionedStore::from_dataset(&dataset);
    let (service, mut writer) = ArspService::from_store(store);

    let sub_algos = [
        QueryAlgorithm::Loop,
        QueryAlgorithm::KdttPlus,
        QueryAlgorithm::Auto,
    ];
    let guards: Vec<SubscriptionGuard> = sub_algos
        .iter()
        .map(|&a| service.subscribe(StandingSpec::constraints(&constraints).algorithm(a)))
        .collect();
    assert!(guards.iter().all(|g| g.is_pending()));
    // Nothing unpublished is pending, so this delivers the initial batches.
    writer.sync_subscriptions();
    assert!(guards.iter().all(|g| !g.is_pending()));

    let stop = Arc::new(AtomicBool::new(false));
    let mut subscriber_threads = Vec::new();
    for guard in guards {
        let stop = Arc::clone(&stop);
        subscriber_threads.push(thread::spawn(move || {
            let mut batches: Vec<ChangeBatch> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                batches.extend(guard.drain());
                thread::yield_now();
            }
            batches.extend(guard.drain());
            batches
        }));
    }
    // Each reader finishes one query before the writer starts, so even a
    // writer that outruns the scheduler leaves every reader with a read.
    const READERS: usize = 2;
    let readers_started = Arc::new(Barrier::new(READERS + 1));
    let mut reader_threads = Vec::new();
    for _ in 0..READERS {
        let service = writer.service();
        let stop = Arc::clone(&stop);
        let readers_started = Arc::clone(&readers_started);
        let constraints = constraints.clone();
        reader_threads.push(thread::spawn(move || {
            let read = || {
                let pin = service.pin();
                let outcome = pin.query(&constraints).run();
                assert_eq!(outcome.version(), pin.version());
            };
            read();
            readers_started.wait();
            let mut observed = 1u64;
            while !stop.load(Ordering::Relaxed) {
                read();
                observed += 1;
            }
            observed
        }));
    }
    readers_started.wait();

    // The writer: one small batch per round, published immediately. Every
    // publish changes the version (each round mutates), so each round must
    // produce exactly one change batch per subscription.
    let mut published = vec![writer.version()];
    for round in 0..ROUNDS {
        let r = round as f64;
        let object = writer.insert_object(None, vec![(vec![0.3 + r * 0.02, 0.9 - r * 0.02], 0.45)]);
        if round % 3 == 0 {
            writer.insert_instance(object, &[0.8 - r * 0.01, 0.2 + r * 0.01], 0.3);
        }
        published.push(writer.publish());
    }
    stop.store(true, Ordering::Relaxed);

    let feeds: Vec<Vec<ChangeBatch>> = subscriber_threads
        .into_iter()
        .map(|t| t.join().expect("subscriber thread"))
        .collect();
    for t in reader_threads {
        assert!(t.join().expect("reader thread") > 0);
    }

    let cold = ArspEngine::new(writer.snapshot_dataset());
    for (k, batches) in feeds.iter().enumerate() {
        let context = format!("subscriber {k} ({:?})", sub_algos[k]);
        // Exactly one batch per published version, in publish order.
        assert_eq!(
            batches.iter().map(|b| b.version).collect::<Vec<_>>(),
            published,
            "{context}: feed must be exactly the publish sequence"
        );
        let mut replay = Replay::default();
        for batch in batches {
            replay.apply(batch, &context);
        }
        let reference = cold.query(&constraints).algorithm(sub_algos[k]).run();
        let want = expected_map(writer.store(), reference.result().probs());
        assert_bitwise_eq(&replay.maintained, &want, &context);
    }
    assert_eq!(
        service.serving_stats().notifications_delivered,
        (sub_algos.len() * (ROUNDS + 1)) as u64
    );
}

/// Unpublished mutations stay invisible to subscribers: a refresh between
/// mutation and publish delivers nothing, and dropping a guard mid-stream
/// unsubscribes cleanly (RAII) without disturbing the other feeds.
#[test]
fn subscribers_observe_only_published_state_and_drop_unsubscribes() {
    let store = VersionedStore::from_dataset(&paper_running_example());
    let (service, mut writer) = ArspService::from_store(store);
    let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();

    let keeper = service.subscribe(StandingSpec::constraints(&constraints));
    let dropper = service.subscribe(StandingSpec::constraints(&constraints));
    assert_ne!(keeper.id(), dropper.id(), "subscription ids are unique");
    writer.sync_subscriptions();
    assert_eq!(keeper.drain().len(), 1);
    assert_eq!(dropper.drain().len(), 1);

    // Mutate but do not publish: sync refuses to leak the unpublished
    // version to subscribers.
    writer.insert_object(None, vec![(vec![4.0, 4.0], 0.5)]);
    writer.sync_subscriptions();
    assert!(keeper.poll().is_none(), "unpublished state leaked");
    assert_eq!(keeper.result_version(), 1);

    drop(dropper);
    assert_eq!(service.serving_stats().notifications_delivered, 2);

    writer.publish();
    let batch = keeper.poll().expect("published change-set");
    assert_eq!(batch.result_version, 2);
    assert!(!batch.changes.is_empty());
    // Only the surviving subscription was notified of the publish.
    assert_eq!(service.serving_stats().notifications_delivered, 3);
}

/// The writer's DUAL subscription and a reader's DUAL query on the same
/// published version share one DUAL-index build: the refresh at publish
/// builds it in the published snapshot and the reader's query hits it. The
/// other way round too: a subscription whose first refresh comes after a
/// reader's query builds nothing. Both answer exactly as a cold engine.
#[test]
fn writer_dual_refresh_and_reader_dual_query_share_one_index_build() {
    let store = VersionedStore::from_dataset(&paper_running_example());
    let (service, mut writer) = ArspService::from_store(store);
    let ratio = WeightRatio::uniform(2, 0.5, 2.0);
    let sub = service.subscribe(StandingSpec::ratio(&ratio).algorithm(QueryAlgorithm::Dual));
    writer.sync_subscriptions();

    writer.insert_object(None, vec![(vec![4.0, 4.0], 0.5)]);
    let before = service.serving_stats();
    writer.publish();
    let refreshed = service.serving_stats();
    let reader = service
        .pin()
        .ratio_query(&ratio)
        .algorithm(QueryAlgorithm::Dual)
        .run();
    let after = service.serving_stats();
    assert_eq!(
        refreshed.shared_builds - before.shared_builds,
        1,
        "the writer's refresh builds the new version's DUAL index"
    );
    assert_eq!(
        after.shared_builds, refreshed.shared_builds,
        "the reader's DUAL query must reuse the refresh's index"
    );
    let cold = ArspEngine::new(writer.snapshot_dataset());
    let reference = cold
        .ratio_query(&ratio)
        .algorithm(QueryAlgorithm::Dual)
        .run();
    assert_eq!(
        bits(reader.result().probs()),
        bits(reference.result().probs())
    );
    let mut replay = Replay::default();
    for batch in sub.drain() {
        replay.apply(&batch, "dual feed");
    }
    assert_eq!(replay.batches_seen, 2);
    assert_bitwise_eq(
        &replay.maintained,
        &expected_map(writer.store(), reference.result().probs()),
        "dual feed at the published version",
    );

    // Reader first: a new subscription's initial refresh reuses the index
    // the reader's query built at the next version.
    writer.insert_object(None, vec![(vec![4.5, 3.5], 0.25)]);
    writer.publish();
    let late = service.subscribe(StandingSpec::ratio(&ratio).algorithm(QueryAlgorithm::Dual));
    let reader = service
        .pin()
        .ratio_query(&ratio)
        .algorithm(QueryAlgorithm::Dual)
        .run();
    let before = writer.engine().cache_stats();
    writer.sync_subscriptions();
    assert_eq!(late.drain().len(), 1);
    assert_eq!(
        writer.engine().cache_stats().misses,
        before.misses,
        "the late subscription's refresh must reuse the reader's index"
    );
    let cold = ArspEngine::new(writer.snapshot_dataset());
    let reference = cold
        .ratio_query(&ratio)
        .algorithm(QueryAlgorithm::Dual)
        .run();
    assert_eq!(
        bits(reader.result().probs()),
        bits(reference.result().probs())
    );
}

// ---------------------------------------------------------------------------
// 4. Cluster fan-out.
// ---------------------------------------------------------------------------

/// A sharded subscription maintains one feed per shard; each feed replays —
/// at every batch — to a result bitwise equal to a cold engine on that
/// shard's own snapshot (per-shard semantics: rskyline probabilities are
/// population-wide, so a shard's standing result is the result *of that
/// shard's population*, exactly as its serving layer answers).
#[test]
fn cluster_subscriptions_maintain_every_shard_bitwise() {
    const NUM_SHARDS: usize = 3;
    const ROUNDS: u64 = 4;
    let dataset = SyntheticConfig {
        num_objects: 15,
        max_instances: 3,
        dim: 2,
        region_length: 0.35,
        phi: 0.2,
        seed: 19,
        ..SyntheticConfig::default()
    }
    .generate();
    let constraints = ConstraintSet::weak_ranking(2, 1);
    // Not a fail-point test itself, but it shares the binary with one:
    // holding the gate keeps its shards clear of armed sites.
    let _gate = failpoint::exclusive();
    failpoint::reset();
    let dir = scratch_dir("fanout");
    let cluster = ShardedService::create(
        &dir,
        &dataset,
        ClusterConfig {
            num_shards: NUM_SHARDS,
            ..ClusterConfig::default()
        },
    )
    .expect("create cluster");

    let sub = cluster
        .subscribe(&StandingSpec::constraints(&constraints).algorithm(QueryAlgorithm::Loop))
        .expect("all shards up");
    assert_eq!(sub.num_shards(), NUM_SHARDS);
    assert_eq!(sub.result_versions(), vec![1; NUM_SHARDS]);

    // Per-shard mirrors (handle allocation is deterministic, so mirror
    // handles are the shard stores' handles — same invariant the recovery
    // suite leans on).
    let mut mirrors: Vec<VersionedStore> = partition_dataset(&dataset, NUM_SHARDS)
        .iter()
        .map(VersionedStore::from_dataset)
        .collect();
    let mut replays: Vec<Replay> = (0..NUM_SHARDS).map(|_| Replay::default()).collect();

    fn check_all(
        sub: &arsp::core::cluster::ClusterSubscription,
        mirrors: &[VersionedStore],
        replays: &mut [Replay],
        constraints: &ConstraintSet,
        round: u64,
    ) {
        for change in sub.drain() {
            replays[change.shard].apply(&change.batch, &format!("round {round}"));
        }
        for (shard, mirror) in mirrors.iter().enumerate() {
            let cold = ArspEngine::new(mirror.snapshot_dataset());
            let reference = cold
                .query(constraints)
                .algorithm(QueryAlgorithm::Loop)
                .run();
            let want = expected_map(mirror, reference.result().probs());
            assert_bitwise_eq(
                &replays[shard].maintained,
                &want,
                &format!("round {round}, shard {shard}"),
            );
        }
    }
    check_all(&sub, &mirrors, &mut replays, &constraints, 0);

    for round in 1..=ROUNDS {
        for (shard, mirror) in mirrors.iter_mut().enumerate() {
            let new_object = mirror.num_objects() as u64;
            let ops = vec![
                MutationOp::InsertObject {
                    label: None,
                    instances: vec![(vec![2.5 + round as f64, 1.5 + shard as f64], 0.5)],
                },
                MutationOp::InsertInstance {
                    object: new_object,
                    coords: vec![0.1 * round as f64, 0.05 * shard as f64],
                    prob: 0.3,
                },
            ];
            assert_eq!(
                cluster.apply_batch(shard, ops.clone()).expect("healthy"),
                ApplyOutcome::Applied
            );
            for op in &ops {
                op.apply_to(mirror);
            }
        }
        check_all(&sub, &mirrors, &mut replays, &constraints, round);
        assert_eq!(sub.result_versions(), vec![round + 1; NUM_SHARDS]);
    }

    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Subscribing fails closed while any shard is down — the typed error names
/// the missing shard and no partial subscription survives (the fanned-out
/// guards unwind by RAII) — and succeeds again after recovery.
#[test]
fn cluster_subscribe_fails_closed_while_a_shard_is_down() {
    const NUM_SHARDS: usize = 3;
    let dataset = SyntheticConfig {
        num_objects: 12,
        max_instances: 2,
        dim: 2,
        region_length: 0.35,
        phi: 0.2,
        seed: 29,
        ..SyntheticConfig::default()
    }
    .generate();
    let constraints = ConstraintSet::weak_ranking(2, 1);
    let spec = StandingSpec::constraints(&constraints);
    let _gate = failpoint::exclusive();
    failpoint::reset();

    let dir = scratch_dir("fail-closed");
    let cluster = ShardedService::create(
        &dir,
        &dataset,
        ClusterConfig {
            num_shards: NUM_SHARDS,
            ..ClusterConfig::default()
        },
    )
    .expect("create cluster");

    // Quarantine shard 1 via a contained probe crash.
    let victim = 1usize;
    failpoint::arm("shard.probe", FailAction::Panic);
    cluster.probe(victim).expect("panic contained");
    failpoint::reset();

    let err = cluster.subscribe(&spec).expect_err("fail closed");
    assert_eq!(
        err,
        QueryError::ShardUnavailable {
            shards_missing: vec![victim]
        }
    );

    assert!(cluster.recover_now(victim).expect("recovery succeeds"));
    let sub = cluster.subscribe(&spec).expect("all shards up again");
    assert_eq!(sub.num_shards(), NUM_SHARDS);
    assert_eq!(sub.drain().len(), NUM_SHARDS, "one initial batch per shard");

    fs::remove_dir_all(&dir).expect("cleanup");
}
