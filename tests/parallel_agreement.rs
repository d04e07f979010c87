//! The parallel execution layer's contract: an engine query under
//! `Execution::Parallel { threads }` produces results **bitwise identical**
//! to the sequential free function — not merely within tolerance — for every
//! algorithm, dataset shape and width. Each query names its width, so the
//! fan-out exercised here does not depend on the host's core count, and no
//! experiment or regression test can be perturbed by choosing a width.

use arsp::core::engine::EXACT_ALGORITHMS;
use arsp::prelude::*;

/// The sequential free function of `algorithm`.
fn free_function(
    algorithm: QueryAlgorithm,
    dataset: &UncertainDataset,
    constraints: &ConstraintSet,
) -> ArspResult {
    match algorithm {
        QueryAlgorithm::Enum => arsp_enum(dataset, constraints),
        QueryAlgorithm::Loop => arsp_loop(dataset, constraints),
        QueryAlgorithm::Kdtt => arsp_kdtt(dataset, constraints),
        QueryAlgorithm::KdttPlus => arsp_kdtt_plus(dataset, constraints),
        QueryAlgorithm::QdttPlus => arsp_qdtt_plus(dataset, constraints),
        QueryAlgorithm::BranchAndBound => arsp_bnb(dataset, constraints),
        other => unreachable!("{} has no linear-constraint free function", other.name()),
    }
}

/// One engine query with `algorithm` at width `threads`.
fn parallel_run(
    engine: &ArspEngine,
    algorithm: QueryAlgorithm,
    constraints: &ConstraintSet,
    threads: usize,
) -> ArspResult {
    engine
        .query(constraints)
        .algorithm(algorithm)
        .execution(Execution::Parallel { threads })
        .run()
        .into_result()
}

/// Dataset shapes covering both sides of the fused traversals' internal
/// parallel node-size threshold.
fn shapes() -> Vec<SyntheticConfig> {
    vec![
        // Small: below every parallel threshold (exercises the sequential
        // fallbacks inside the parallel entry points).
        SyntheticConfig {
            num_objects: 12,
            max_instances: 3,
            dim: 2,
            region_length: 0.4,
            phi: 0.25,
            seed: 1,
            ..SyntheticConfig::default()
        },
        // Medium, 3-d.
        SyntheticConfig {
            num_objects: 100,
            max_instances: 4,
            dim: 3,
            region_length: 0.3,
            phi: 0.1,
            seed: 2,
            ..SyntheticConfig::default()
        },
        // Large, 2-d: crosses the fused traversals' node-size threshold, so
        // subtree fan-out genuinely runs on worker threads.
        SyntheticConfig {
            num_objects: 260,
            max_instances: 5,
            dim: 2,
            region_length: 0.35,
            phi: 0.2,
            seed: 3,
            ..SyntheticConfig::default()
        },
    ]
}

/// ENUM enumerates possible worlds — beyond toy object counts it is
/// intractable, exactly as in the paper's figures.
fn feasible(algorithm: QueryAlgorithm, config: &SyntheticConfig) -> bool {
    algorithm != QueryAlgorithm::Enum || config.num_objects <= 12
}

#[test]
fn parallel_queries_are_bitwise_identical_for_every_algorithm() {
    for config in shapes() {
        let dataset = config.generate();
        let engine = ArspEngine::new(dataset.clone());
        for c in 1..config.dim {
            let constraints = ConstraintSet::weak_ranking(config.dim, c);
            for algorithm in std::iter::once(QueryAlgorithm::Enum).chain(EXACT_ALGORITHMS) {
                if !feasible(algorithm, &config) {
                    continue;
                }
                let sequential = free_function(algorithm, &dataset, &constraints);
                let parallel = parallel_run(&engine, algorithm, &constraints, 2);
                assert_eq!(
                    sequential.probs(),
                    parallel.probs(),
                    "{} diverged on seed {} (dim {}, c {c})",
                    algorithm.name(),
                    config.seed,
                    config.dim,
                );
            }
        }
    }
}

#[test]
fn thread_count_never_changes_results() {
    let config = SyntheticConfig {
        num_objects: 200,
        max_instances: 5,
        dim: 3,
        region_length: 0.3,
        phi: 0.15,
        seed: 9,
        ..SyntheticConfig::default()
    };
    let dataset = config.generate();
    let engine = ArspEngine::new(dataset.clone());
    let constraints = ConstraintSet::weak_ranking(3, 2);
    for algorithm in [
        QueryAlgorithm::Loop,
        QueryAlgorithm::KdttPlus,
        QueryAlgorithm::QdttPlus,
        QueryAlgorithm::BranchAndBound,
    ] {
        let want = free_function(algorithm, &dataset, &constraints);
        for threads in [1, 2, 3, 8] {
            let got = parallel_run(&engine, algorithm, &constraints, threads);
            assert_eq!(
                got.probs(),
                want.probs(),
                "{} diverged at {threads} threads",
                algorithm.name()
            );
        }
    }
}

#[test]
fn parallel_agrees_with_independent_reference_algorithm() {
    // Cross-algorithm sanity on top of bitwise self-agreement: the parallel
    // KDTT+ result matches LOOP (a completely different algorithm) within
    // float tolerance.
    let dataset = SyntheticConfig {
        num_objects: 150,
        max_instances: 4,
        dim: 3,
        region_length: 0.3,
        phi: 0.1,
        seed: 4,
        ..SyntheticConfig::default()
    }
    .generate();
    let constraints = ConstraintSet::weak_ranking(3, 1);
    let loop_result = arsp_loop(&dataset, &constraints);
    let engine = ArspEngine::new(dataset);
    let parallel = parallel_run(&engine, QueryAlgorithm::KdttPlus, &constraints, 2);
    assert!(
        loop_result.approx_eq(&parallel, 1e-8),
        "diff = {}",
        loop_result.max_abs_diff(&parallel)
    );
}

#[test]
fn concurrent_queries_at_different_widths_do_not_interfere() {
    // Each query's width is its own: queries at widths 1, 2, 4 and 8 on
    // concurrent threads over one shared engine all return the sequential
    // bits, with the same work counters.
    let dataset = SyntheticConfig {
        num_objects: 260,
        max_instances: 5,
        dim: 2,
        region_length: 0.35,
        phi: 0.2,
        seed: 3,
        ..SyntheticConfig::default()
    }
    .generate();
    let engine = ArspEngine::new(dataset);
    let constraints = ConstraintSet::weak_ranking(2, 1);
    let algorithms = [
        QueryAlgorithm::Loop,
        QueryAlgorithm::KdttPlus,
        QueryAlgorithm::QdttPlus,
    ];
    let sequential: Vec<_> = algorithms
        .iter()
        .map(|&algorithm| {
            engine
                .query(&constraints)
                .algorithm(algorithm)
                .collect_stats(true)
                .run()
        })
        .collect();
    std::thread::scope(|s| {
        for threads in [1, 2, 4, 8] {
            let (engine, constraints, sequential) = (&engine, &constraints, &sequential);
            s.spawn(move || {
                for _ in 0..3 {
                    for (algorithm, want) in algorithms.iter().zip(sequential) {
                        let got = engine
                            .query(constraints)
                            .algorithm(*algorithm)
                            .execution(Execution::Parallel { threads })
                            .collect_stats(true)
                            .run();
                        assert_eq!(
                            got.result().probs(),
                            want.result().probs(),
                            "{algorithm:?} diverged at {threads} threads"
                        );
                        assert_eq!(got.counters(), want.counters(), "{algorithm:?}");
                    }
                }
            });
        }
    });
}
