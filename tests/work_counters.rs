//! Work-counter gate for every parallel twin: on a dense seeded dataset,
//! each algorithm under `Execution::Parallel { threads: 2 }` must return
//! probabilities bitwise equal to `Execution::Sequential` **and** report
//! exactly the same `QueryCounters`. Dominance tests, visited nodes and
//! window queries are deterministic, so an exact comparison catches a
//! parallel path that does more (or different) work without timing noise.
//! Every kernel's counts are also pinned against recorded baselines, so a
//! kernel rewrite — or a query front that feeds a kernel different
//! artifacts — fails here in either mode.

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

/// Work counters of the other kernels on the dense dataset, recorded before
/// the three query fronts were folded into one pipeline: KDTT, KDTT+ and
/// QDTT+ under `weak_ranking(4, 2)`, B&B under the wide IM user, DUAL under
/// `WeightRatio::uniform(4, 0.5, 2.0)`. Every front must do exactly this
/// work, sequential or parallel.
const DENSE_PINNED_COUNTERS: [(QueryAlgorithm, QueryCounters); 5] = [
    (
        QueryAlgorithm::Kdtt,
        QueryCounters {
            fdom_tests: 2_142_123,
            nodes_visited: 3_469,
            window_queries: 0,
        },
    ),
    (
        QueryAlgorithm::KdttPlus,
        QueryCounters {
            fdom_tests: 2_142_123,
            nodes_visited: 3_469,
            window_queries: 0,
        },
    ),
    (
        QueryAlgorithm::QdttPlus,
        QueryCounters {
            fdom_tests: 2_227_303,
            nodes_visited: 2_647,
            window_queries: 0,
        },
    ),
    (
        QueryAlgorithm::BranchAndBound,
        QueryCounters {
            fdom_tests: 0,
            nodes_visited: 451,
            window_queries: 43_721,
        },
    ),
    (
        QueryAlgorithm::Dual,
        QueryCounters {
            fdom_tests: 0,
            nodes_visited: 0,
            window_queries: 4_440_403,
        },
    ),
];

#[test]
fn kernel_work_counts_match_the_recorded_baselines() {
    let engine = dense_engine();
    let wr = ConstraintSet::weak_ranking(4, 2);
    let im = wide_im_user();
    let ratio = WeightRatio::uniform(4, 0.5, 2.0);
    for (algorithm, pinned) in DENSE_PINNED_COUNTERS {
        for execution in [Execution::Sequential, Execution::Parallel { threads: 2 }] {
            let query = match algorithm {
                QueryAlgorithm::Dual => engine.ratio_query(&ratio),
                QueryAlgorithm::BranchAndBound => engine.query(&im),
                _ => engine.query(&wr),
            };
            let outcome = query
                .algorithm(algorithm)
                .execution(execution)
                .collect_stats(true)
                .run();
            assert_eq!(
                outcome.counters(),
                Some(pinned),
                "{} ({execution:?}) did different work than the baseline",
                algorithm.name()
            );
        }
    }
}

/// The dynamic engine and a pinned service snapshot run the same kernels
/// over bitwise-equal artifacts, so they must report the pinned counters
/// too.
#[test]
fn dynamic_and_service_fronts_do_the_pinned_work() {
    let dataset = dense_engine().dataset().clone();
    let dynamic = DynamicArspEngine::from_dataset(&dataset);
    let (service, _writer) = ArspService::from_dataset(&dataset);
    let pin = service.pin();
    let wr = ConstraintSet::weak_ranking(4, 2);
    let im = wide_im_user();
    let ratio = WeightRatio::uniform(4, 0.5, 2.0);
    for (algorithm, pinned) in DENSE_PINNED_COUNTERS {
        let (dyn_counters, pin_counters) = match algorithm {
            QueryAlgorithm::Dual => (
                dynamic
                    .ratio_query(&ratio)
                    .algorithm(algorithm)
                    .collect_stats(true)
                    .run()
                    .counters(),
                pin.ratio_query(&ratio)
                    .algorithm(algorithm)
                    .collect_stats(true)
                    .run()
                    .counters(),
            ),
            _ => {
                let cs = if algorithm == QueryAlgorithm::BranchAndBound {
                    &im
                } else {
                    &wr
                };
                (
                    dynamic
                        .query(cs)
                        .algorithm(algorithm)
                        .collect_stats(true)
                        .run()
                        .counters(),
                    pin.query(cs)
                        .algorithm(algorithm)
                        .collect_stats(true)
                        .run()
                        .counters(),
                )
            }
        };
        assert_eq!(dyn_counters, Some(pinned), "dynamic {}", algorithm.name());
        assert_eq!(pin_counters, Some(pinned), "service {}", algorithm.name());
    }
}
