//! Model-checked protocol tests for the MVCC serving layer.
//!
//! Compiled only under `--cfg arsp_model_check` (run via `cargo xtask
//! model-check`), where the `arsp_core::sync` façade resolves to the
//! vendored `interleave` model checker. Every test body runs under a
//! deterministic cooperative scheduler that explores a different thread
//! interleaving per run — exhaustively, or bounded by a preemption budget
//! where the state space demands it — so the assertions hold over
//! *all* explored schedules, not the ones the OS happened to produce.
//!
//! Seven protocols are proven, plus two counter checks:
//!
//! 1. **pin/publish/retire** — every superseded snapshot is retired exactly
//!    once and no pin outlives its reader (2 readers × 1 writer on the real
//!    [`ArspService`]; that an `Arc` pin keeps its snapshot alive, with a
//!    seeded weak-pin variant the checker must catch, is protocol 5's
//!    restart-vs-pin);
//! 2. **CoalescingCache claim/join/wait** — identical keys get exactly one
//!    build, waiters always wake, a builder panic releases waiters;
//! 3. **publish-vs-pin races** at the state lock the publish swaps under;
//! 4. **fault-path cleanup** — a query cancelled mid-race with a publish,
//!    and a reader that panics while holding a pin, both release the pin in
//!    every interleaving (the superseded snapshot still retires);
//! 5. **shard quarantine/recovery** — the [`SupervisorCore`] state machine
//!    stays on registered [`TRANSITION_EDGES`] under concurrent reporters,
//!    a quarantined or recovering shard rejects new pins with the typed
//!    error in every interleaving, and a restart never retires a snapshot a
//!    reader still pins (the seeded broken variant is caught);
//! 6. **publish-vs-notify** — a standing-query subscriber draining
//!    concurrently with the writer's publish+refresh cycles observes every
//!    published version exactly once, in order, with gapless result
//!    versions (the seeded split-lock drain that loses a notification is
//!    caught);
//! 7. **advance-vs-build** — the writer advancing and publishing the next
//!    version while a reader builds an artifact on the current one never
//!    waits on (or joins) the reader's in-flight build, and the next
//!    version still answers bitwise as a cold engine (the seeded advance
//!    that joins in-flight builds deadlocks and is caught).
//!
//! Run `cargo xtask model-check` to execute with `--nocapture`: each test
//! prints the interleaving count it explored (EXPERIMENTS.md records them).

#![cfg(arsp_model_check)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use arsp_core::cluster::{ShardHealth, SupervisorCore, TRANSITION_EDGES};
use arsp_core::coalesce::{CoalesceCounters, CoalescingCache};
use arsp_core::engine::{ArspEngine, QueryAlgorithm};
use arsp_core::fault::{QueryBudget, QueryError};
use arsp_core::service::{ArspService, ServiceWriter};
use arsp_core::standing::StandingSpec;
use arsp_core::stats::PeakGauge;
use arsp_core::sync::atomic::AtomicUsize;
use arsp_core::sync::{lock, Arc, Condvar, Mutex};
use arsp_data::paper_running_example;
use arsp_geometry::constraints::ConstraintSet;
use interleave::{thread, Builder, FailureKind};

/// A version-changing mutation (same shape as the service stress tests);
/// `step` varies the coordinates so successive mutations are never no-ops.
/// Updates tombstone their row, so re-resolve a live row every time.
fn mutate_once(writer: &mut ServiceWriter, step: f64) {
    let row = writer
        .store()
        .canonical_rows()
        .next()
        .expect("the running example has live rows");
    let handle = writer.store().handle_of_row(row);
    writer.update_instance(handle, &[3.0 + step, 4.0], 0.05);
}

// ---------------------------------------------------------------------------
// Protocol (a): pin/publish/retire on the real service
// ---------------------------------------------------------------------------

/// 2 readers (pin, read, clone, drop) × 1 writer (mutate + publish, twice)
/// on the real [`ArspService`]: in every interleaving, every superseded
/// snapshot is retired exactly once and no pin outlives the run.
#[test]
fn pin_publish_retire_two_readers_one_writer() {
    let dataset = paper_running_example();
    let instances = dataset.num_instances();
    let report = Builder::new().preemption_bound(2).check(move || {
        let (service, mut writer) = ArspService::from_dataset(&dataset);
        let (s1, s2) = (service.clone(), service.clone());
        let r1 = thread::spawn(move || {
            let pin = s1.pin();
            let v = pin.version();
            // While pinned, the snapshot's caches must stay fully usable —
            // a cloned pin answers at the same version.
            let pin2 = pin.clone();
            assert_eq!(pin2.version(), v, "cloned pin changed version");
            drop(pin);
            assert_eq!(pin2.num_instances(), instances);
            drop(pin2);
            v
        });
        let r2 = thread::spawn(move || {
            let pin = s2.pin();
            let v = pin.version();
            assert_eq!(pin.num_instances(), instances);
            drop(pin);
            v
        });
        mutate_once(&mut writer, 1.0);
        writer.publish();
        mutate_once(&mut writer, 2.0);
        writer.publish();
        let v1 = r1.join().expect("reader 1 panicked");
        let v2 = r2.join().expect("reader 2 panicked");
        assert!(v1 <= 2 && v2 <= 2, "impossible pinned versions {v1}/{v2}");

        let stats = service.serving_stats();
        assert_eq!(stats.snapshots_published, 3);
        assert_eq!(stats.active_pins, 0, "a pin leaked");
        assert_eq!(stats.pinned_snapshots, 0);
        // Exactly the two superseded snapshots retired: none double-retired
        // (> 2 would mean retiring the current or a pinned one counted
        // twice), none left pinned (< 2).
        assert_eq!(stats.snapshots_retired, 2);
    });
    println!(
        "pin_publish_retire_two_readers_one_writer: {} interleavings explored",
        report.schedules
    );
    assert!(
        report.schedules >= 1_000,
        "expected >= 1000 distinct schedules, explored {}",
        report.schedules
    );
}

// ---------------------------------------------------------------------------
// Protocol (b): CoalescingCache claim/join/wait
// ---------------------------------------------------------------------------

fn fresh_cache() -> (Arc<CoalesceCounters>, Arc<CoalescingCache<u64>>) {
    let counters = Arc::new(CoalesceCounters::new());
    let rendezvous = Arc::new(AtomicUsize::new(0));
    let cache = Arc::new(CoalescingCache::new(&counters, &rendezvous));
    (counters, cache)
}

/// Two threads looking up the same missing key: exactly one build ever
/// runs, the other thread either joins it (waits and wakes) or hits the
/// published value, and both observe the identical artifact.
#[test]
fn coalescing_identical_keys_build_once() {
    let report = Builder::new().preemption_bound(2).check(|| {
        let (counters, cache) = fresh_cache();
        let c1 = Arc::clone(&cache);
        let t = thread::spawn(move || c1.get_or_build(&[7], || 41));
        let v_main = cache.get_or_build(&[7], || 41);
        let v_thread = t.join().expect("lookup thread panicked");
        assert_eq!((v_main, v_thread), (41, 41));
        assert_eq!(counters.builds(), 1, "identical keys must build once");
        // The non-building lookup always exits through the ready artifact
        // (one hit), after having joined the in-flight build iff it arrived
        // while the build was still running.
        assert_eq!(counters.hits(), 1);
        assert!(counters.coalesced() <= 1, "a lookup joined twice");
    });
    println!(
        "coalescing_identical_keys_build_once: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 50);
}

/// Distinct keys never wait on each other: both build, nobody joins.
#[test]
fn coalescing_distinct_keys_never_coalesce() {
    let report = Builder::new().preemption_bound(2).check(|| {
        let (counters, cache) = fresh_cache();
        let c1 = Arc::clone(&cache);
        let t = thread::spawn(move || c1.get_or_build(&[1], || 10));
        let v_main = cache.get_or_build(&[2], || 20);
        let v_thread = t.join().expect("lookup thread panicked");
        assert_eq!((v_main, v_thread), (20, 10));
        assert_eq!(counters.builds(), 2);
        assert_eq!(counters.coalesced(), 0, "distinct keys must not join");
        assert_eq!(counters.hits(), 0);
    });
    println!(
        "coalescing_distinct_keys_never_coalesce: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 50);
}

/// A builder that panics releases its claim and wakes the waiters — in
/// every interleaving somebody completes the build and both threads end up
/// with the artifact (no deadlocked waiter, no poisoned key).
#[test]
fn coalescing_builder_panic_releases_waiters() {
    let report = Builder::new().preemption_bound(2).check(|| {
        let (counters, cache) = fresh_cache();
        let c1 = Arc::clone(&cache);
        let t = thread::spawn(move || {
            // This thread's builder always dies; its lookup must still
            // complete — via a hit on the other thread's build, or by
            // re-claiming after its own panic and building for real.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                c1.get_or_build(&[9], || panic!("seeded builder panic"))
            }));
            match attempt {
                Ok(value) => value, // someone else built it; this was a join/hit
                Err(_) => c1.get_or_build(&[9], || 55),
            }
        });
        let v_main = cache.get_or_build(&[9], || 55);
        let v_thread = t.join().expect("panicking-builder thread deadlocked");
        assert_eq!((v_main, v_thread), (55, 55));
        assert!(counters.builds() >= 1);
    });
    println!(
        "coalescing_builder_panic_releases_waiters: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 50);
}

/// Mutation test: a wait protocol whose publisher forgets to notify MUST be
/// reported as a lost wakeup — proves waiter liveness is actually checked
/// (this is the bug class the coalescing condvar discipline guards
/// against).
#[test]
fn mutation_lost_wakeup_is_caught() {
    let failure = Builder::new()
        .check_result(|| {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            let s = Arc::clone(&state);
            let publisher = thread::spawn(move || {
                *lock(&s.0) = true; // publishes, but forgets notify_all()
            });
            let mut ready = lock(&state.0);
            while !*ready {
                ready = state
                    .1
                    .wait(ready)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            drop(ready);
            publisher.join().expect("publisher panicked");
        })
        .expect_err("the checker missed a lost wakeup");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    println!(
        "mutation_lost_wakeup_is_caught: failing schedule #{}",
        failure.schedule
    );
}

// ---------------------------------------------------------------------------
// Protocol (c): publish-vs-pin races at the state lock
// ---------------------------------------------------------------------------

/// One reader pinning/unpinning around one publish: whatever the
/// interleaving, the pin lands on a coherent version (0 or 1), the live
/// gauges read while it is held count it, and after both finish the
/// superseded snapshot is retired exactly once — at the pin's drop when
/// the pin straddled the publish, at the swap when not.
#[test]
fn publish_vs_pin_race_retires_exactly_once() {
    let dataset = paper_running_example();
    let report = Builder::new().preemption_bound(2).check(move || {
        let (service, mut writer) = ArspService::from_dataset(&dataset);
        let s1 = service.clone();
        let reader = thread::spawn(move || {
            let pin = s1.pin();
            let v = pin.version();
            // Racing the publish: the held pin is counted, and version 0 is
            // retired only if the pin landed on version 1.
            let stats = s1.serving_stats();
            assert_eq!(stats.active_pins, 1, "a held pin is missing");
            assert_eq!(stats.pinned_snapshots, 1);
            assert_eq!(stats.snapshots_retired, v, "retired a pinned version");
            drop(pin);
            v
        });
        mutate_once(&mut writer, 1.0);
        let published = writer.publish();
        assert_eq!(published, 1);
        let pinned = reader.join().expect("reader panicked");
        assert!(pinned <= 1, "pin observed impossible version {pinned}");

        let stats = service.serving_stats();
        assert_eq!(stats.snapshots_published, 2);
        assert_eq!(stats.snapshots_retired, 1);
        assert_eq!(stats.active_pins, 0);
        assert_eq!(stats.pinned_snapshots, 0);
    });
    println!(
        "publish_vs_pin_race_retires_exactly_once: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 100);
}

// ---------------------------------------------------------------------------
// Protocol (d): fault-path cleanup — cancellation and panics release pins
// ---------------------------------------------------------------------------

/// A query cancelled while a publish lands concurrently: in every
/// interleaving the cancellation surfaces as a typed
/// [`QueryError::DeadlineExceeded`], the reader's pin is released, the
/// admission gauge settles, and the superseded snapshot retires exactly
/// once — whether the pin straddled the publish or not.
#[test]
fn cancel_vs_publish_race_releases_the_pin() {
    let dataset = paper_running_example();
    let report = Builder::new().preemption_bound(2).check(move || {
        let (service, mut writer) = ArspService::from_dataset(&dataset);
        let s1 = service.clone();
        let reader = thread::spawn(move || {
            let budget = QueryBudget::unbounded();
            budget.cancel();
            let pin = s1.pin();
            let v = pin.version();
            let err = pin
                .query(&ConstraintSet::weak_ranking(2, 1))
                .budget(&budget)
                .try_run()
                .err()
                .expect("a cancelled budget must yield a typed error");
            assert!(
                matches!(err, QueryError::DeadlineExceeded { .. }),
                "unexpected error: {err:?}"
            );
            drop(pin);
            v
        });
        mutate_once(&mut writer, 1.0);
        writer.publish();
        let pinned = reader.join().expect("cancelled reader panicked");
        assert!(pinned <= 1, "pin observed impossible version {pinned}");

        let stats = service.serving_stats();
        assert_eq!(stats.active_pins, 0, "a cancelled query leaked its pin");
        assert_eq!(stats.pinned_snapshots, 0);
        assert_eq!(stats.snapshots_retired, 1);
        assert_eq!(stats.inflight, 0, "the admission gauge did not settle");
    });
    println!(
        "cancel_vs_publish_race_releases_the_pin: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 50);
}

/// A reader that panics while holding a pin, racing a publish: unwinding
/// drops the [`SnapshotPin`]'s `Arc` in every interleaving, so no pin leaks
/// and the superseded snapshot still retires exactly once.
#[test]
fn pin_guard_releases_on_reader_panic() {
    let dataset = paper_running_example();
    let report = Builder::new().preemption_bound(2).check(move || {
        let (service, mut writer) = ArspService::from_dataset(&dataset);
        let s1 = service.clone();
        let reader = thread::spawn(move || {
            let pin = s1.pin();
            let v = pin.version();
            let died = catch_unwind(AssertUnwindSafe(move || {
                let _held = pin; // the pin unwinds with the panic
                panic!("seeded reader panic");
            }));
            assert!(died.is_err(), "seeded panic vanished");
            v
        });
        mutate_once(&mut writer, 1.0);
        writer.publish();
        let pinned = reader.join().expect("reader thread died outside the guard");
        assert!(pinned <= 1, "pin observed impossible version {pinned}");

        let stats = service.serving_stats();
        assert_eq!(stats.active_pins, 0, "a panicked reader leaked its pin");
        assert_eq!(stats.pinned_snapshots, 0);
        assert_eq!(stats.snapshots_retired, 1);
    });
    println!(
        "pin_guard_releases_on_reader_panic: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 50);
}

// ---------------------------------------------------------------------------
// Protocol (e): shard quarantine / recovery (arsp_core::cluster)
// ---------------------------------------------------------------------------

/// The real [`SupervisorCore`] behind a mutex, raced by a failure reporter
/// (two I/O failures — the threshold) and a success reporter: in every
/// interleaving the machine only ever takes registered
/// [`TRANSITION_EDGES`], and once quarantined it is sticky — no late
/// success report can revive it without going through recovery.
#[test]
fn supervisor_core_takes_only_registered_edges_under_races() {
    let report = Builder::new().preemption_bound(2).check(|| {
        let core = Arc::new(Mutex::new(SupervisorCore::new(2)));
        let c1 = Arc::clone(&core);
        let failures = thread::spawn(move || {
            let mut edges = Vec::new();
            for _ in 0..2 {
                if let Some(edge) = lock(&c1).record_failure() {
                    edges.push(edge);
                }
            }
            edges
        });
        let edge = lock(&core).record_success();
        let mut edges = failures.join().expect("failure reporter panicked");
        edges.extend(edge);
        for edge in &edges {
            assert!(
                TRANSITION_EDGES.contains(edge),
                "unregistered edge `{edge}`"
            );
        }

        let mut core = lock(&core);
        let health = core.health();
        assert!(
            matches!(
                health,
                ShardHealth::Healthy | ShardHealth::Degraded | ShardHealth::Quarantined
            ),
            "impossible health {health:?} from failure/success races"
        );
        if health == ShardHealth::Quarantined {
            // Sticky: only begin_recovery leaves quarantine.
            assert_eq!(core.record_success(), None);
            assert_eq!(core.record_failure(), None);
            assert_eq!(core.health(), ShardHealth::Quarantined);
        }
    });
    println!(
        "supervisor_core_takes_only_registered_edges_under_races: {} interleavings explored",
        report.schedules
    );
    // Three lock acquisitions across two threads under preemption_bound(2):
    // a small but complete schedule space.
    assert!(report.schedules >= 15);
}

/// The distilled restart-vs-pin protocol — the exact lock discipline of
/// `cluster.rs` (health gate and snapshot clone under one slot mutex, pins
/// as `Arc` clones, teardown dropping the slot's reference): a reader
/// pinning while a crashed shard recovers. Proves, in every interleaving:
///
/// * a quarantined or recovering shard rejects the pin with the typed
///   [`QueryError::ShardUnavailable`] — never a stale snapshot;
/// * a granted pin keeps its snapshot alive across the whole restart (the
///   recovery never retires a pinned snapshot);
/// * after the restart, new pins see the recovered snapshot.
fn restart_vs_pin_protocol(broken_weak_pin: bool) {
    struct Slot {
        core: SupervisorCore,
        snapshot: Option<Arc<u64>>,
    }
    let slot = Arc::new(Mutex::new(Slot {
        core: SupervisorCore::new(2),
        snapshot: Some(Arc::new(0)),
    }));

    let s1 = Arc::clone(&slot);
    let reader = thread::spawn(move || {
        // Pin under the slot lock, exactly like `ShardedService::pin_shard`:
        // gate on supervisor health, then clone the snapshot Arc. The broken
        // variant downgrades to a Weak — modelling a pin that does not hold
        // the snapshot — which the checker must catch below.
        let pinned = {
            let slot = lock(&s1);
            if slot.core.health().is_available() {
                let snapshot = slot.snapshot.as_ref().expect("available implies serving");
                let strong = if broken_weak_pin {
                    None
                } else {
                    Some(Arc::clone(snapshot))
                };
                Ok((Arc::downgrade(snapshot), strong))
            } else {
                Err(QueryError::ShardUnavailable {
                    shards_missing: vec![0],
                })
            }
        };
        match pinned {
            Ok((weak, _strong)) => {
                // Re-locking is a real scheduling point: the whole teardown +
                // restart can land here. THE invariant: while the pin is
                // held, its snapshot is alive, whatever the shard does.
                let slot = lock(&s1);
                assert!(
                    weak.upgrade().is_some(),
                    "a recovering shard retired a pinned snapshot"
                );
                drop(slot);
                true
            }
            Err(QueryError::ShardUnavailable { shards_missing }) => {
                assert_eq!(shards_missing, vec![0]);
                false
            }
            Err(other) => panic!("wrong rejection type: {other:?}"),
        }
    });

    // The supervisor (main thread): contain a crash — teardown drops the
    // slot's snapshot reference, exactly like `ShardSlot::teardown` — then
    // restart and publish the recovered snapshot.
    {
        let mut slot = lock(&slot);
        slot.core.record_crash();
        slot.snapshot = None;
    }
    {
        let mut slot = lock(&slot);
        assert_eq!(slot.core.begin_recovery(), Some("quarantined->recovering"));
        // While recovering, pins must already be rejected (checked by the
        // reader whenever it lands in this window).
        assert!(!slot.core.health().is_available());
        slot.snapshot = Some(Arc::new(1));
        assert_eq!(slot.core.recovery_succeeded(), Some("recovering->healthy"));
    }

    let got_pin = reader.join().expect("reader panicked");
    let slot = lock(&slot);
    assert_eq!(slot.core.health(), ShardHealth::Healthy);
    let current = slot.snapshot.as_ref().expect("recovered");
    assert_eq!(**current, 1, "recovery did not publish the new snapshot");
    // Whether the reader pinned (before the crash) or was rejected (after),
    // nothing leaks: the old snapshot is gone once the pin dropped.
    drop(slot);
    let _ = got_pin;
}

#[test]
fn quarantined_shards_reject_pins_and_recovery_never_retires_pinned() {
    let report = Builder::new()
        .preemption_bound(2)
        .check(|| restart_vs_pin_protocol(false));
    println!(
        "quarantined_shards_reject_pins_and_recovery_never_retires_pinned: \
         {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 10);
}

/// Mutation test: a pin that holds only a `Weak` (the slot teardown frees
/// the snapshot under the reader) MUST be caught as retire-while-pinned —
/// proves the checker actually guards the cluster's pin lifetime, not just
/// the happy path.
#[test]
fn mutation_shard_pin_that_does_not_hold_the_snapshot_is_caught() {
    let failure = Builder::new()
        .preemption_bound(2)
        .check_result(|| restart_vs_pin_protocol(true))
        .expect_err("the checker missed a shard retire-while-pinned regression");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("retired a pinned snapshot"),
        "unexpected failure: {failure}"
    );
    println!(
        "mutation_shard_pin_that_does_not_hold_the_snapshot_is_caught: failing schedule #{}",
        failure.schedule
    );
}

// ---------------------------------------------------------------------------
// Protocol (f): publish-vs-notify (standing queries)
// ---------------------------------------------------------------------------

/// A subscriber draining its standing-query feed concurrently with the
/// writer publishing twice, on the real [`ArspService`]: in every
/// interleaving the reassembled feed is exactly one batch per published
/// version, in publish order, with gapless result versions — no
/// notification is lost to the drain/refresh race and none is duplicated.
#[test]
fn publish_vs_notify_feeds_every_version_exactly_once() {
    let dataset = paper_running_example();
    let report = Builder::new().preemption_bound(2).check(move || {
        let (service, mut writer) = ArspService::from_dataset(&dataset);
        let constraints = ConstraintSet::weak_ranking(2, 1);
        let sub = service
            .subscribe(StandingSpec::constraints(&constraints).algorithm(QueryAlgorithm::Loop));
        writer.sync_subscriptions();
        let subscriber = thread::spawn(move || {
            // Two mid-stream drains land at arbitrary points of the writer's
            // two publish+refresh cycles.
            let mut batches = sub.drain();
            batches.extend(sub.drain());
            (sub, batches)
        });
        mutate_once(&mut writer, 1.0);
        writer.publish();
        mutate_once(&mut writer, 2.0);
        writer.publish();
        let (sub, mut batches) = subscriber.join().expect("subscriber panicked");
        batches.extend(sub.drain());

        let rvs: Vec<u64> = batches.iter().map(|b| b.result_version).collect();
        assert_eq!(
            rvs,
            vec![1, 2, 3],
            "a result version was lost or duplicated"
        );
        let versions: Vec<u64> = batches.iter().map(|b| b.version).collect();
        assert_eq!(versions, vec![0, 1, 2], "feed out of publish order");
        assert!(
            !sub.is_pending() && sub.result_version() == 3,
            "subscription bookkeeping diverged from the feed"
        );
    });
    println!(
        "publish_vs_notify_feeds_every_version_exactly_once: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 50);
}

/// The distilled drain-vs-refresh protocol — the exact lock discipline of
/// `standing.rs` (enqueue and drain each atomic under the one subscription
/// mutex). The broken variant splits the drain into a read and a clear
/// under separate lock acquisitions: a refresh landing in between gets its
/// batch cleared unseen — the lost-notification regression the checker
/// must catch.
fn drain_vs_refresh_protocol(broken_split_drain: bool) {
    struct Sub {
        result_version: u64,
        queue: Vec<u64>,
    }
    let sub = Arc::new(Mutex::new(Sub {
        result_version: 0,
        queue: Vec::new(),
    }));

    let s1 = Arc::clone(&sub);
    let consumer = thread::spawn(move || {
        let mut seen = Vec::new();
        for _ in 0..2 {
            if broken_split_drain {
                let snapshot = lock(&s1).queue.clone();
                lock(&s1).queue.clear();
                seen.extend(snapshot);
            } else {
                let mut sub = lock(&s1);
                seen.append(&mut sub.queue);
            }
        }
        seen
    });

    // The writer (main thread): three publish+notify cycles, each atomic
    // under the subscription lock.
    for _ in 0..3 {
        let mut sub = lock(&sub);
        sub.result_version += 1;
        let rv = sub.result_version;
        sub.queue.push(rv);
    }

    let mut seen = consumer.join().expect("consumer panicked");
    seen.append(&mut lock(&sub).queue);
    assert_eq!(seen, vec![1, 2, 3], "a notification was lost or duplicated");
}

#[test]
fn drain_vs_refresh_protocol_holds_in_every_interleaving() {
    let report = interleave::model(|| drain_vs_refresh_protocol(false));
    println!(
        "drain_vs_refresh_protocol_holds_in_every_interleaving: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 10);
}

/// Mutation test: the split-lock drain MUST be caught as a lost
/// notification — proves the checker actually guards the standing feed's
/// exactly-once delivery, not just the happy path.
#[test]
fn mutation_split_lock_drain_loses_a_notification_and_is_caught() {
    let failure = Builder::new()
        .check_result(|| drain_vs_refresh_protocol(true))
        .expect_err("the checker missed a lost standing notification");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("lost or duplicated"),
        "unexpected failure: {failure}"
    );
    println!(
        "mutation_split_lock_drain_loses_a_notification_and_is_caught: failing schedule #{}",
        failure.schedule
    );
}

// ---------------------------------------------------------------------------
// Protocol (g): advance-vs-build (one artifact store)
// ---------------------------------------------------------------------------

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// A reader builds the vertex enumeration and the score matrix of a KDTT+
/// query on version 0 while the writer mutates and publishes version 1,
/// on the real [`ArspService`]. The publish advances the writer's snapshot,
/// copying whatever the reader had already published. In every
/// interleaving nobody joins anybody's build — in particular the advance
/// never joins the reader's — and the same query on version 1, answered
/// from a carried-forward matrix or a fresh build, is bitwise the cold
/// engine's.
#[test]
fn advance_never_joins_a_reader_build_and_the_next_version_is_cold() {
    let dataset = paper_running_example();
    let report = Builder::new().preemption_bound(2).check(move || {
        let constraints = ConstraintSet::weak_ranking(2, 1);
        let (service, mut writer) = ArspService::from_dataset(&dataset);
        let s1 = service.clone();
        let cs = constraints.clone();
        let reader = thread::spawn(move || {
            let pin = s1.pin();
            let outcome = pin.query(&cs).algorithm(QueryAlgorithm::KdttPlus).run();
            (pin.version(), bits(outcome.result().probs()))
        });
        mutate_once(&mut writer, 1.0);
        assert_eq!(writer.publish(), 1);
        let (pinned, _) = reader.join().expect("reader panicked");
        assert!(pinned <= 1, "pin observed impossible version {pinned}");
        assert_eq!(
            service.serving_stats().coalesced_builds,
            0,
            "a lookup joined an in-flight build"
        );

        let got = service
            .pin()
            .query(&constraints)
            .algorithm(QueryAlgorithm::KdttPlus)
            .run();
        let cold = ArspEngine::new(writer.snapshot_dataset())
            .query(&constraints)
            .algorithm(QueryAlgorithm::KdttPlus)
            .run();
        assert_eq!(got.version(), 1);
        assert_eq!(
            bits(got.result().probs()),
            bits(cold.result().probs()),
            "version 1 diverged from the cold engine"
        );
    });
    println!(
        "advance_never_joins_a_reader_build_and_the_next_version_is_cold: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 50);
}

/// The distilled hand-off on the real [`CoalescingCache`]: the reader's
/// build cannot finish until the writer has published, exactly like a
/// build that outlives the advance. The advance copies the published
/// artifacts (`ready`) into the next version's cache, so it always
/// finishes and publishes. The broken variant fetches through the
/// coalescing lookup instead, which joins the in-flight build and
/// deadlocks against it.
fn advance_vs_build_protocol(broken_join: bool) {
    let (_, cache) = fresh_cache();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let (c1, g1) = (Arc::clone(&cache), Arc::clone(&gate));
    let reader = thread::spawn(move || {
        c1.get_or_build(&[7], || {
            let mut published = lock(&g1.0);
            while !*published {
                published =
                    g1.1.wait(published)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            41
        })
    });

    // The writer: advance into the next version's cache, then publish.
    let (_, next) = fresh_cache();
    if broken_join {
        next.seed(vec![7], cache.get_or_build(&[7], || 41));
    } else {
        for value in cache.ready() {
            next.seed(vec![7], value);
        }
    }
    *lock(&gate.0) = true;
    gate.1.notify_all();

    assert_eq!(reader.join().expect("reader panicked"), 41);
    assert!(next.ready().iter().all(|&v| v == 41));
}

#[test]
fn advance_vs_build_protocol_holds_in_every_interleaving() {
    let report = interleave::model(|| advance_vs_build_protocol(false));
    println!(
        "advance_vs_build_protocol_holds_in_every_interleaving: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 10);
}

/// Mutation test: an advance that joins in-flight builds MUST be caught —
/// it waits on a build that waits on its publish.
#[test]
fn mutation_advance_that_joins_a_build_is_caught() {
    let failure = Builder::new()
        .check_result(|| advance_vs_build_protocol(true))
        .expect_err("the checker missed an advance waiting on a reader's build");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    println!(
        "mutation_advance_that_joins_a_build_is_caught: failing schedule #{}",
        failure.schedule
    );
}

// ---------------------------------------------------------------------------
// Satellites: PeakGauge and CoalesceCounters under the model checker
// ---------------------------------------------------------------------------

/// Two concurrent `enter`/drop pairs: the gauge can never underflow (a
/// wrapped u64 would explode the assertions), always settles to zero, and
/// across the explored schedules both peak=1 (serialized) and peak=2
/// (overlapping) are observed — evidence the exploration actually varies
/// the overlap.
#[test]
fn peak_gauge_never_underflows_or_double_counts() {
    let peaks = std::sync::Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));
    let sink = std::sync::Arc::clone(&peaks);
    let report = interleave::model(move || {
        let gauge = Arc::new(PeakGauge::new());
        let g = Arc::clone(&gauge);
        let t = thread::spawn(move || {
            let _entered = g.enter();
        });
        {
            let _entered = gauge.enter();
        }
        t.join().expect("gauged thread panicked");
        assert_eq!(gauge.current(), 0, "gauge did not settle (underflow?)");
        let peak = gauge.peak();
        assert!((1..=2).contains(&peak), "impossible peak {peak}");
        sink.lock().expect("peak sink").insert(peak);
    });
    let seen = peaks.lock().expect("peak sink");
    assert_eq!(
        *seen,
        std::collections::BTreeSet::from([1, 2]),
        "exploration missed a peak shape"
    );
    println!(
        "peak_gauge_never_underflows_or_double_counts: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 10);
}

/// Two concurrent hits on a seeded key: the relaxed counters count each
/// lookup exactly once in every interleaving (no lost increment, no
/// double-count).
#[test]
fn coalesce_counters_count_exactly_under_races() {
    let report = interleave::model(|| {
        let (counters, cache) = fresh_cache();
        cache.seed(vec![3], 30);
        let c1 = Arc::clone(&cache);
        let t = thread::spawn(move || c1.get_or_build(&[3], || 99));
        let v_main = cache.get_or_build(&[3], || 99);
        assert_eq!(v_main, 30);
        assert_eq!(t.join().expect("hit thread panicked"), 30);
        assert_eq!(counters.hits(), 2, "hit lost or double-counted");
        assert_eq!(counters.builds(), 0);
        assert_eq!(counters.coalesced(), 0);
    });
    println!(
        "coalesce_counters_count_exactly_under_races: {} interleavings explored",
        report.schedules
    );
    assert!(report.schedules >= 10);
}
