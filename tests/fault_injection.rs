//! Fault-tolerance contract of the query layers: deadline expiry,
//! cancellation, admission-control shedding, join timeouts and contained
//! panics all surface as **typed errors** — and none of them poisons shared
//! state. After every induced failure the same engine/service answers the
//! identical query with results bitwise equal (`f64::to_bits`) to a cold
//! single-threaded rebuild, the repo's exactness guarantee.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use arsp::core::engine::{ArspEngine, QueryAlgorithm};
use arsp::core::service::ArspService;
use arsp::prelude::*;
use arsp_data::paper_running_example;

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
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
    let err = pin
        .query(&cs)
        .algorithm(QueryAlgorithm::Loop)
        .try_run()
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
            pin.query(&cs).algorithm(QueryAlgorithm::Loop).try_run()
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
    let err = pin
        .query(&cs)
        .algorithm(QueryAlgorithm::Loop)
        .deadline(Duration::from_millis(50))
        .try_run()
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
