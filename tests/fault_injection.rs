//! Fault-tolerance contract of the query layers: deadline expiry,
//! cancellation, admission-control shedding, join timeouts and contained
//! panics all surface as **typed errors** — and none of them poisons shared
//! state. After every induced failure the same engine/service answers the
//! identical query with results bitwise equal (`f64::to_bits`) to a cold
//! single-threaded rebuild, the repo's exactness guarantee. Every front
//! hands out the one query builder, so deadline, cancel and panic are typed
//! the same on the engine, the dynamic engine, a service pin and the
//! cluster; shedding belongs to the service, the one front with an
//! admission limit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use arsp::core::engine::{ArspEngine, QueryAlgorithm};
use arsp::core::pipeline::QueryFront;
use arsp::core::service::ArspService;
use arsp::prelude::*;
use arsp_data::paper_running_example;

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// A unique scratch directory under the workspace `target/` (never `/tmp`).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/fault-injection-tests")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The coalescing tests below decide only while their builder is still held
/// at its rendezvous: `RENDEZVOUS_TIMEOUT` (2 s) releases it, and from then
/// on a shed or a join timeout can no longer happen. Until it is released,
/// the builder is still in flight and has made at most one build (the vertex
/// enumeration it holds), so the serving stats show whether the
/// precondition held.
fn assert_builder_still_held(service: &ArspService, when: &str) {
    let stats = service.serving_stats();
    assert!(
        stats.shared_builds <= 1 && stats.inflight >= 1,
        "precondition failed {when}: the builder was no longer held at its \
         rendezvous (RENDEZVOUS_TIMEOUT, 2 s, released it), so this run \
         cannot decide the fault under test; serving_stats = {stats:?}"
    );
}

fn dataset() -> UncertainDataset {
    SyntheticConfig {
        num_objects: 120,
        max_instances: 4,
        dim: 2,
        region_length: 0.35,
        phi: 0.2,
        seed: 11,
        ..SyntheticConfig::default()
    }
    .generate()
}

#[test]
fn engine_deadline_expiry_is_typed_and_leaves_no_poison() {
    let dataset = dataset();
    let cs = ConstraintSet::weak_ranking(2, 1);
    let engine = ArspEngine::new(dataset.clone());
    let cold = ArspEngine::new(dataset);

    // An already-expired deadline trips at the first cooperative poll.
    let err = engine
        .query(&cs)
        .deadline(Duration::ZERO)
        .try_run()
        .err()
        .expect("a zero deadline must expire");
    assert!(matches!(err, QueryError::DeadlineExceeded { .. }));
    assert!(!err.is_retryable());

    // The engine is uncorrupted: the identical query, every algorithm,
    // bitwise equal to the cold rebuild.
    for algorithm in [
        QueryAlgorithm::Loop,
        QueryAlgorithm::Kdtt,
        QueryAlgorithm::KdttPlus,
        QueryAlgorithm::QdttPlus,
        QueryAlgorithm::BranchAndBound,
    ] {
        let cancelled = engine
            .query(&cs)
            .algorithm(algorithm)
            .deadline(Duration::ZERO)
            .try_run();
        assert!(
            matches!(cancelled, Err(QueryError::DeadlineExceeded { .. })),
            "{algorithm:?} must honour the deadline"
        );
        let reference = cold.query(&cs).algorithm(algorithm).run();
        let retried = engine.query(&cs).algorithm(algorithm).run();
        assert_eq!(
            bits(retried.result().probs()),
            bits(reference.result().probs()),
            "{algorithm:?} poisoned state after a cancelled run"
        );
    }
}

#[test]
fn external_cancellation_stops_a_running_query() {
    let dataset = dataset();
    let cs = ConstraintSet::weak_ranking(2, 1);
    let engine = ArspEngine::new(dataset);

    // Pre-cancelled budget: the query aborts at its first poll, with the
    // explicit-cancel flavour of the error (no configured time budget).
    let budget = QueryBudget::unbounded();
    budget.cancel();
    let err = engine
        .query(&cs)
        .budget(&budget)
        .try_run()
        .err()
        .expect("a cancelled budget must abort the query");
    match err {
        QueryError::DeadlineExceeded { budget: limit, .. } => assert_eq!(limit, None),
        other => panic!("expected DeadlineExceeded, got {other}"),
    }

    // Cancel mid-flight from another thread: a worker loops queries under a
    // shared budget until the cancel lands; the typed error must eventually
    // surface at the boundary.
    let budget = Arc::new(QueryBudget::unbounded());
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let budget = Arc::clone(&budget);
        let stop = Arc::clone(&stop);
        let dataset = engine.dataset().clone();
        thread::spawn(move || {
            let engine = ArspEngine::new(dataset);
            let cs = ConstraintSet::weak_ranking(2, 1);
            loop {
                match engine.query(&cs).budget(&budget).try_run() {
                    Ok(_) if !stop.load(Ordering::Relaxed) => continue,
                    Ok(_) => return None,
                    Err(err) => return Some(err),
                }
            }
        })
    };
    thread::sleep(Duration::from_millis(10));
    budget.cancel();
    stop.store(true, Ordering::Relaxed);
    if let Some(err) = worker.join().expect("worker must not crash") {
        assert!(matches!(err, QueryError::DeadlineExceeded { .. }));
    }
}

#[test]
fn service_deadline_expiry_is_typed_and_leaves_no_poison() {
    let dataset = dataset();
    let cs = ConstraintSet::weak_ranking(2, 1);
    let (service, _writer) = ArspService::from_dataset(&dataset);
    let cold = ArspEngine::new(dataset);
    let reference = cold.query(&cs).run();

    let pin = service.pin();
    let err = pin
        .query(&cs)
        .deadline(Duration::ZERO)
        .try_run()
        .err()
        .expect("a zero deadline must expire");
    assert!(matches!(err, QueryError::DeadlineExceeded { .. }));

    // Nothing leaked or wedged: gauge settles, pools stay balanced, and the
    // identical query is bitwise the cold rebuild.
    let stats = service.serving_stats();
    assert_eq!(stats.inflight, 0);
    let retried = pin.query(&cs).run();
    assert_eq!(
        bits(retried.result().probs()),
        bits(reference.result().probs())
    );
}

#[test]
fn admission_control_sheds_typed_and_retry_recovers() {
    let cs = ConstraintSet::weak_ranking(2, 1);
    let (service, _writer) = ArspService::from_dataset(&paper_running_example());
    let cold = ArspEngine::new(paper_running_example());
    let reference = cold.query(&cs).algorithm(QueryAlgorithm::Loop).run();

    // Hold one query in flight deterministically: the rendezvous knob makes
    // the first reader's f-dom build wait for one joiner before publishing.
    service.set_admission_limit(Some(1));
    service.set_coalescing_rendezvous(1);
    let holder = {
        let service = service.clone();
        thread::spawn(move || {
            let pin = service.pin();
            pin.query(&ConstraintSet::weak_ranking(2, 1))
                .algorithm(QueryAlgorithm::Loop)
                .run()
                .result()
                .probs()
                .to_vec()
        })
    };
    let start = Instant::now();
    while service.serving_stats().inflight < 1 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "holder never ran"
        );
        std::hint::spin_loop();
    }

    // Saturated: the next query sheds with a typed, retryable error and
    // executes nothing.
    let pin = service.pin();
    let attempt = pin.query(&cs).algorithm(QueryAlgorithm::Loop).try_run();
    assert_builder_still_held(&service, "after the shed attempt");
    let err = attempt
        .err()
        .expect("admission limit 1 with one in flight must shed");
    match &err {
        QueryError::Overloaded { inflight, limit } => {
            assert_eq!(*limit, 1);
            assert!(*inflight >= 1);
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    assert!(err.is_retryable());
    assert_eq!(service.serving_stats().queries_shed, 1);

    // Jittered retry: the first attempt sheds again, then the limit lifts
    // and the retry joins the held build (releasing the rendezvous) and
    // succeeds.
    let policy = RetryPolicy {
        base: Duration::from_micros(100),
        max_retries: 3,
        ..RetryPolicy::default()
    };
    let outcome = policy
        .retry(|attempt| {
            if attempt > 0 {
                service.set_admission_limit(None);
            }
            let result = pin.query(&cs).algorithm(QueryAlgorithm::Loop).try_run();
            if attempt == 0 {
                assert_builder_still_held(&service, "after the first retry attempt");
            }
            result
        })
        .expect("retry must succeed once the limit lifts");
    assert_eq!(
        bits(outcome.result().probs()),
        bits(reference.result().probs())
    );
    let held = holder.join().expect("holder must finish");
    assert_eq!(bits(&held), bits(reference.result().probs()));

    // Shedding executed nothing: served = holder + retry success + retry
    // attempts that were admitted; shed = the two rejected attempts.
    let stats = service.serving_stats();
    assert_eq!(stats.queries_shed, 2);
    assert_eq!(stats.inflight, 0);
}

#[test]
fn a_deadline_expired_join_detaches_with_a_typed_build_timeout() {
    let cs = ConstraintSet::weak_ranking(2, 1);
    let (service, _writer) = ArspService::from_dataset(&paper_running_example());
    let cold = ArspEngine::new(paper_running_example());
    let reference = cold.query(&cs).algorithm(QueryAlgorithm::Loop).run();

    // The builder waits for two joiners before publishing; only one joiner
    // (with a deadline) ever arrives, so its join must time out and detach
    // while the builder keeps going (liveness backstop).
    service.set_coalescing_rendezvous(2);
    let builder = {
        let service = service.clone();
        thread::spawn(move || {
            let pin = service.pin();
            pin.query(&ConstraintSet::weak_ranking(2, 1))
                .algorithm(QueryAlgorithm::Loop)
                .run()
                .result()
                .probs()
                .to_vec()
        })
    };
    let start = Instant::now();
    while service.serving_stats().shared_builds < 1 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "builder never claimed"
        );
        std::hint::spin_loop();
    }

    let pin = service.pin();
    let attempt = pin
        .query(&cs)
        .algorithm(QueryAlgorithm::Loop)
        .deadline(Duration::from_millis(50))
        .try_run();
    assert_builder_still_held(&service, "after the deadline-bounded join");
    let err = attempt
        .err()
        .expect("joining a rendezvous-held build must time out");
    match &err {
        QueryError::BuildTimeout { waited } => {
            assert!(*waited >= Duration::from_millis(50), "waited {waited:?}")
        }
        other => panic!("expected BuildTimeout, got {other}"),
    }
    assert!(err.is_retryable());

    // The detached joiner left the build intact: the builder publishes for
    // everyone (after its liveness timeout) and later readers share it.
    service.set_coalescing_rendezvous(0);
    let held = builder.join().expect("builder must finish");
    assert_eq!(bits(&held), bits(reference.result().probs()));
    let retried = pin.query(&cs).algorithm(QueryAlgorithm::Loop).run();
    assert_eq!(
        bits(retried.result().probs()),
        bits(reference.result().probs())
    );
    assert_eq!(service.serving_stats().inflight, 0);
}

#[test]
fn panics_inside_a_query_are_contained_at_the_boundary() {
    let cs = ConstraintSet::weak_ranking(2, 1);
    let (service, _writer) = ArspService::from_dataset(&paper_running_example());
    let cold = ArspEngine::new(paper_running_example());
    let reference = cold.query(&cs).run();

    let pin = service.pin();
    // Forcing DUAL onto linear constraints panics inside the query body;
    // try_run must contain it as a typed error, not unwind the caller.
    let err = pin
        .query(&cs)
        .algorithm(QueryAlgorithm::Dual)
        .deadline(Duration::from_secs(3600))
        .try_run()
        .err()
        .expect("DUAL on linear constraints panics");
    match &err {
        QueryError::Panicked { message } => assert!(
            message.contains("weight-ratio"),
            "unexpected panic message: {message}"
        ),
        other => panic!("expected Panicked, got {other}"),
    }
    assert!(!err.is_retryable());

    // Containment left the service fully usable.
    let stats = service.serving_stats();
    assert_eq!(stats.inflight, 0);
    let retried = pin.query(&cs).run();
    assert_eq!(
        bits(retried.result().probs()),
        bits(reference.result().probs())
    );
}

#[test]
fn a_panicking_reader_releases_its_pin_and_the_snapshot_still_retires() {
    let (service, mut writer) = ArspService::from_dataset(&paper_running_example());
    let pin = service.pin();
    assert_eq!(service.serving_stats().active_pins, 1);

    // Supersede the pinned version so its retirement is observable.
    let handle = writer.store().handle_of_row(0);
    let coords = writer.store().coords_of(0).to_vec();
    let prob = writer.store().prob(0);
    writer.update_instance(handle, &coords, prob);
    writer.publish();
    assert_eq!(service.serving_stats().snapshots_retired, 0);

    // A reader dies mid-work while holding the pin: the unwind drops the
    // pin's `Arc`, and the superseded snapshot retires.
    let caught = catch_unwind(AssertUnwindSafe(move || {
        let _held = pin;
        panic!("reader thread died");
    }));
    assert!(caught.is_err());
    let stats = service.serving_stats();
    assert_eq!(stats.active_pins, 0, "the unwound pin must release");
    assert_eq!(
        stats.snapshots_retired, 1,
        "the superseded snapshot retires"
    );
}

/// A dataset whose LOOP query runs for many milliseconds, so a 1 ms deadline
/// expires while the kernel is running.
fn slow_loop_dataset() -> UncertainDataset {
    SyntheticConfig {
        num_objects: 700,
        max_instances: 4,
        dim: 2,
        region_length: 0.35,
        phi: 0.2,
        seed: 29,
        ..SyntheticConfig::default()
    }
    .generate()
}

/// Runs deadline (zero and mid-flight), cancel (through `cancelled`, one
/// budget every front shares) and panic (DUAL forced on linear constraints)
/// through one front's `query`, each followed by the identical query, which
/// must be bitwise equal to `reference`.
fn assert_faults_typed_and_retries_cold<'f, 'q, F: QueryFront + 'f>(
    front: &str,
    query: impl Fn() -> Query<'f, 'q, F>,
    cancelled: &'q QueryBudget,
    reference: &[u64],
) {
    let retry = |fault: &str| {
        let retried = query()
            .try_run()
            .unwrap_or_else(|err| panic!("{front}: the retry after {fault} failed: {err}"));
        assert_eq!(
            bits(retried.result().probs()),
            reference,
            "{front}: {fault} poisoned state"
        );
    };

    let err = query().deadline(Duration::ZERO).try_run().err();
    assert!(
        matches!(
            err,
            Some(QueryError::DeadlineExceeded {
                budget: Some(_),
                ..
            })
        ),
        "{front}: a zero deadline gave {err:?}"
    );
    retry("a zero deadline");

    let err = query().deadline(Duration::from_millis(1)).try_run().err();
    assert!(
        matches!(
            err,
            Some(QueryError::DeadlineExceeded {
                budget: Some(_),
                ..
            })
        ),
        "{front}: a mid-flight deadline gave {err:?}"
    );
    retry("a mid-flight deadline");

    let err = query().budget(cancelled).try_run().err();
    assert!(
        matches!(err, Some(QueryError::DeadlineExceeded { budget: None, .. })),
        "{front}: a cancelled budget gave {err:?}"
    );
    retry("a cancel");

    let err = query().algorithm(QueryAlgorithm::Dual).try_run().err();
    assert!(
        matches!(&err, Some(QueryError::Panicked { message }) if message.contains("weight-ratio")),
        "{front}: DUAL on linear constraints gave {err:?}"
    );
    retry("a panic");
}

#[test]
fn every_front_types_deadline_cancel_and_panic_the_same() {
    let dataset = slow_loop_dataset();
    let cs = ConstraintSet::weak_ranking(2, 1);
    let cold = ArspEngine::new(dataset.clone());
    let reference = bits(
        cold.query(&cs)
            .algorithm(QueryAlgorithm::Loop)
            .run()
            .result()
            .probs(),
    );
    let cancelled = QueryBudget::unbounded();
    cancelled.cancel();

    let engine = ArspEngine::new(dataset.clone());
    assert_faults_typed_and_retries_cold(
        "engine",
        || engine.query(&cs).algorithm(QueryAlgorithm::Loop),
        &cancelled,
        &reference,
    );

    let dynamic = DynamicArspEngine::from_dataset(&dataset);
    assert_faults_typed_and_retries_cold(
        "dynamic engine",
        || dynamic.query(&cs).algorithm(QueryAlgorithm::Loop),
        &cancelled,
        &reference,
    );

    let (service, _writer) = ArspService::from_dataset(&dataset);
    let pin = service.pin();
    assert_faults_typed_and_retries_cold(
        "service pin",
        || pin.query(&cs).algorithm(QueryAlgorithm::Loop),
        &cancelled,
        &reference,
    );
    assert_eq!(service.serving_stats().inflight, 0);

    let dir = scratch_dir("matrix");
    let config = ClusterConfig {
        num_shards: 3,
        ..ClusterConfig::default()
    };
    let cluster = ShardedService::create(&dir, &dataset, config).expect("create cluster");
    assert_faults_typed_and_retries_cold(
        "cluster",
        || cluster.query(&cs).algorithm(QueryAlgorithm::Loop),
        &cancelled,
        &reference,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cluster_deadline_covers_the_union_stitch() {
    let dataset = dataset();
    let cs = ConstraintSet::weak_ranking(2, 1);
    let dir = scratch_dir("stitch");
    let config = ClusterConfig {
        num_shards: 2,
        ..ClusterConfig::default()
    };
    let cluster = ShardedService::create(&dir, &dataset, config).expect("create cluster");
    cluster.query(&cs).run().expect("all shards up");
    let stitched = cluster.cluster_stats().union_rebuilds;

    // A write to the last shard moves the version vector, so the next read
    // must restitch — unless its deadline has already expired.
    let object = vec![(vec![0.05, 0.05], 0.5)];
    let batch = vec![MutationOp::InsertObject {
        label: None,
        instances: object.clone(),
    }];
    cluster.apply_batch(1, batch).expect("apply");
    let err = cluster.query(&cs).deadline(Duration::ZERO).try_run().err();
    assert!(
        matches!(err, Some(QueryError::DeadlineExceeded { .. })),
        "a zero deadline gave {err:?}"
    );
    assert_eq!(
        cluster.cluster_stats().union_rebuilds,
        stitched,
        "an expired query restitched the union"
    );

    // The retry restitches once and is bitwise the cold engine on the union.
    let mut union = dataset;
    union.push_object(object);
    let reference = ArspEngine::new(union).query(&cs).run();
    let retried = cluster.query(&cs).try_run().expect("all shards up");
    assert!(retried.shards_missing().is_empty());
    assert_eq!(retried.shards_answered(), [0, 1]);
    let first_block = cluster.pin_shard(0).expect("shard 0 is up").num_instances();
    assert_eq!(retried.shard_offsets(), [0, first_block]);
    assert_eq!(cluster.cluster_stats().union_rebuilds, stitched + 1);
    assert_eq!(
        bits(retried.result().probs()),
        bits(reference.result().probs())
    );
    let _ = std::fs::remove_dir_all(&dir);
}
