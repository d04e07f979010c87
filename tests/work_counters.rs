//! Work-counter gate for every parallel twin: on a dense seeded dataset,
//! each algorithm under `Execution::Parallel { threads: 2 }` must return
//! probabilities bitwise equal to `Execution::Sequential` **and** report
//! exactly the same `QueryCounters`. Dominance tests, visited nodes and
//! window queries are deterministic, so an exact comparison catches a
//! parallel path that does more (or different) work without timing noise.
//! LOOP's count is also pinned against a recorded baseline, so a kernel
//! rewrite that tests different pairs fails here in either mode.

use arsp::data::im_constraints;
use arsp::geometry::fdom::LinearFDominance;
use arsp::prelude::*;

/// The serving benchmark's dataset shape: 1000 objects of up to 16
/// instances in d = 4, half of them partial.
fn dense_engine() -> ArspEngine {
    ArspEngine::new(
        SyntheticConfig {
            num_objects: 1000,
            max_instances: 16,
            dim: 4,
            region_length: 0.2,
            phi: 0.5,
            seed: 7,
            ..SyntheticConfig::default()
        }
        .generate(),
    )
}

/// The first IM user with three constraints whose preference region has at
/// least seven vertices: the high-d' regime where Auto picks B&B.
fn wide_im_user() -> ConstraintSet {
    (0u64..)
        .map(|seed| im_constraints(4, 3, seed))
        .find(|cs| LinearFDominance::from_constraints(cs).num_vertices() >= 7)
        .expect("some seed yields d' >= 7")
}

/// Runs one query both ways and asserts bitwise-equal probabilities and
/// equal work counters.
fn assert_parallel_matches(name: &str, run: impl Fn(Execution) -> ArspOutcome) {
    let seq = run(Execution::Sequential);
    let par = run(Execution::Parallel { threads: 2 });
    assert_eq!(
        seq.result().probs(),
        par.result().probs(),
        "{name}: parallel probabilities diverged"
    );
    let counters = seq.counters().expect("stats requested");
    assert!(counters.total() > 0, "{name}: no work counted");
    assert_eq!(
        Some(counters),
        par.counters(),
        "{name}: parallel did different work"
    );
}

#[test]
fn parallel_twins_report_the_sequential_work_counters() {
    let engine = dense_engine();
    let wr = ConstraintSet::weak_ranking(4, 2);
    let im = wide_im_user();
    for (algorithm, constraints) in [
        (QueryAlgorithm::Loop, &wr),
        (QueryAlgorithm::Kdtt, &wr),
        (QueryAlgorithm::KdttPlus, &wr),
        (QueryAlgorithm::QdttPlus, &wr),
        (QueryAlgorithm::BranchAndBound, &im),
    ] {
        assert_parallel_matches(algorithm.name(), |execution| {
            engine
                .query(constraints)
                .algorithm(algorithm)
                .execution(execution)
                .collect_stats(true)
                .run()
        });
    }
    let ratio = WeightRatio::uniform(4, 0.5, 2.0);
    assert_parallel_matches("DUAL", |execution| {
        engine
            .ratio_query(&ratio)
            .algorithm(QueryAlgorithm::Dual)
            .execution(execution)
            .collect_stats(true)
            .run()
    });
}

/// LOOP's F-dominance test count on the dense dataset under
/// `weak_ranking(4, 2)`, recorded with the row-at-a-time scan that the
/// column-pass kernel replaced. The kernel must test exactly the same pairs:
/// every different-object instance up to the end of the target's tie run.
const LOOP_DENSE_WR42_FDOM_TESTS: u64 = 30_895_417;

#[test]
fn loop_work_count_matches_the_recorded_baseline() {
    let engine = dense_engine();
    let wr = ConstraintSet::weak_ranking(4, 2);
    for execution in [Execution::Sequential, Execution::Parallel { threads: 2 }] {
        let outcome = engine
            .query(&wr)
            .algorithm(QueryAlgorithm::Loop)
            .execution(execution)
            .collect_stats(true)
            .run();
        let counters = outcome.counters().expect("stats requested");
        assert_eq!(
            counters.fdom_tests, LOOP_DENSE_WR42_FDOM_TESTS,
            "{execution:?}: LOOP tested a different set of pairs"
        );
    }
}
