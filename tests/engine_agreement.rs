//! The engine's contract: queries through [`ArspEngine`] produce results
//! **bitwise identical** to the free functions — with caches cold or warm,
//! forced or auto-selected, one at a time or batched — and repeated queries
//! are served entirely from the session's caches.
//!
//! Both sides run the same kernel: the engine feeds it cached state (the
//! [`arsp::core::ScoreMatrix`], arena indexes, reusable scratch), while each
//! free function builds that state from scratch for one call. Every
//! comparison below is therefore exact (`==` on the probability vectors, not
//! a tolerance): it checks that caching, scratch reuse and arena pools never
//! change a result. The contract covers [`Execution::Parallel`] too: the
//! parallel form of every algorithm (including DUAL) must be bitwise
//! identical to the sequential path at every thread count, with cold and
//! warm arena pools. The property tests at the bottom drive the same
//! contract over randomly generated datasets and constraint sets; the
//! independent oracles (ENUM and cross-algorithm agreement) live in
//! `flat_engine_agreement` and `cross_algorithm_agreement`.

use arsp::core::engine::{CacheStats, EXACT_ALGORITHMS};
use arsp::prelude::*;
use proptest::prelude::*;

/// The free function of `algorithm`: a one-shot query on a cold engine.
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

fn shapes() -> Vec<SyntheticConfig> {
    vec![
        // Tiny: Auto resolves to LOOP.
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
            num_objects: 80,
            max_instances: 4,
            dim: 3,
            region_length: 0.3,
            phi: 0.1,
            seed: 2,
            ..SyntheticConfig::default()
        },
        // 4-d with partial objects.
        SyntheticConfig {
            num_objects: 60,
            max_instances: 5,
            dim: 4,
            region_length: 0.25,
            phi: 0.3,
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
fn engine_is_bitwise_identical_to_free_functions() {
    for config in shapes() {
        let dataset = config.generate();
        let engine = ArspEngine::new(dataset.clone());
        for c in 1..config.dim {
            let constraints = ConstraintSet::weak_ranking(config.dim, c);
            for algorithm in std::iter::once(QueryAlgorithm::Enum).chain(EXACT_ALGORITHMS) {
                if !feasible(algorithm, &config) {
                    continue;
                }
                let free = free_function(algorithm, &dataset, &constraints);
                // Twice: once cold (building caches), once warm (pure reuse).
                for attempt in ["cold", "warm"] {
                    let outcome = engine.query(&constraints).algorithm(algorithm).run();
                    assert_eq!(
                        free.probs(),
                        outcome.result().probs(),
                        "{} diverged from the free function ({attempt} cache, seed {}, c {c})",
                        algorithm.name(),
                        config.seed,
                    );
                }
            }
        }
    }
}

#[test]
fn engine_dual_is_bitwise_identical_to_free_function() {
    let dataset = SyntheticConfig {
        num_objects: 50,
        max_instances: 4,
        dim: 3,
        region_length: 0.3,
        phi: 0.2,
        seed: 9,
        ..SyntheticConfig::default()
    }
    .generate();
    let engine = ArspEngine::new(dataset.clone());
    for (l, h) in [(0.5, 2.0), (0.36, 2.75), (1.0, 1.0)] {
        let ratio = WeightRatio::uniform(3, l, h);
        let free = arsp_dual(&dataset, &ratio);
        let outcome = engine.ratio_query(&ratio).run();
        assert_eq!(outcome.algorithm(), QueryAlgorithm::Dual);
        assert_eq!(
            free.probs(),
            outcome.result().probs(),
            "DUAL diverged on ratio [{l}, {h}]"
        );
    }
}

#[test]
fn auto_selection_agrees_with_forced_reference() {
    // Whatever Auto picks, the probabilities must match LOOP within float
    // tolerance (different algorithm, same answer).
    for config in shapes() {
        let dataset = config.generate();
        let engine = ArspEngine::new(dataset.clone());
        let constraints = ConstraintSet::weak_ranking(config.dim, config.dim - 1);
        let auto = engine.query(&constraints).run();
        assert!(auto.auto_selected());
        assert!(auto.selection_reason().is_some());
        let reference = arsp_loop(&dataset, &constraints);
        assert!(
            reference.approx_eq(auto.result(), 1e-8),
            "Auto ({}) diverged from LOOP by {}",
            auto.algorithm().name(),
            reference.max_abs_diff(auto.result())
        );
    }
}

#[test]
fn batch_is_bitwise_identical_to_one_at_a_time() {
    let engine = ArspEngine::new(
        SyntheticConfig {
            num_objects: 70,
            max_instances: 4,
            dim: 4,
            region_length: 0.3,
            phi: 0.1,
            seed: 17,
            ..SyntheticConfig::default()
        }
        .generate(),
    );
    let sweep: Vec<ConstraintSet> = (1..4).map(|c| ConstraintSet::weak_ranking(4, c)).collect();

    // Cold engine: batch first …
    let batch = engine.run_batch(&sweep);
    assert_eq!(batch.len(), sweep.len());
    // … then the same queries one at a time on the warm engine, plus against
    // a completely fresh engine (cold caches).
    let fresh = ArspEngine::new(engine.dataset().clone());
    for (constraints, from_batch) in sweep.iter().zip(&batch) {
        let warm = engine.query(constraints).run();
        let cold = fresh.query(constraints).run();
        assert_eq!(from_batch.result().probs(), warm.result().probs());
        assert_eq!(from_batch.result().probs(), cold.result().probs());
        assert_eq!(from_batch.algorithm(), warm.algorithm());
    }
}

#[test]
fn repeated_queries_and_batches_never_rebuild() {
    let engine = ArspEngine::new(
        SyntheticConfig {
            num_objects: 40,
            max_instances: 4,
            dim: 3,
            seed: 23,
            ..SyntheticConfig::default()
        }
        .generate(),
    );
    let sweep: Vec<ConstraintSet> = (1..3).map(|c| ConstraintSet::weak_ranking(3, c)).collect();

    // Warm every cache the sweep can touch (every algorithm × every set).
    for constraints in &sweep {
        for algorithm in [
            QueryAlgorithm::Loop,
            QueryAlgorithm::KdttPlus,
            QueryAlgorithm::BranchAndBound,
        ] {
            let _ = engine.query(constraints).algorithm(algorithm).run();
        }
    }
    let warm: CacheStats = engine.cache_stats();
    assert!(warm.misses > 0, "the warm-up must have built something");

    // Re-running the whole workload — single queries and a batch — must be
    // pure cache hits: zero further construction.
    let _ = engine.run_batch(&sweep);
    for constraints in &sweep {
        let _ = engine
            .query(constraints)
            .algorithm(QueryAlgorithm::BranchAndBound)
            .run();
    }
    let after = engine.cache_stats();
    assert_eq!(
        warm.misses, after.misses,
        "repeat workload rebuilt a cached structure"
    );
    assert!(after.hits > warm.hits);
}

#[test]
fn parallel_engine_queries_match_sequential() {
    let engine = ArspEngine::new(
        SyntheticConfig {
            num_objects: 150,
            max_instances: 5,
            dim: 3,
            region_length: 0.3,
            phi: 0.15,
            seed: 31,
            ..SyntheticConfig::default()
        }
        .generate(),
    );
    let constraints = ConstraintSet::weak_ranking(3, 2);
    for algorithm in [
        QueryAlgorithm::Loop,
        QueryAlgorithm::KdttPlus,
        QueryAlgorithm::QdttPlus,
        QueryAlgorithm::BranchAndBound,
    ] {
        let seq = engine.query(&constraints).algorithm(algorithm).run();
        let par = engine
            .query(&constraints)
            .algorithm(algorithm)
            .execution(Execution::Parallel { threads: 2 })
            .run();
        assert_eq!(
            seq.result().probs(),
            par.result().probs(),
            "{} parallel diverged",
            seq.algorithm().name()
        );
    }
}

#[test]
fn parallel_flat_twins_match_sequential_above_the_fanout_threshold() {
    // Large enough (~800 instances) that the kd-family flat twins genuinely
    // fan subtrees out to worker threads rather than falling back to the
    // sequential recursion; every algorithm (including DUAL, via the ratio
    // query below) must stay exactly `==` at every thread count, cold and
    // warm.
    let engine = ArspEngine::new(
        SyntheticConfig {
            num_objects: 400,
            max_instances: 3,
            dim: 3,
            region_length: 0.3,
            phi: 0.1,
            seed: 37,
            ..SyntheticConfig::default()
        }
        .generate(),
    );
    let constraints = ConstraintSet::weak_ranking(3, 2);
    for algorithm in [
        QueryAlgorithm::Loop,
        QueryAlgorithm::Kdtt,
        QueryAlgorithm::KdttPlus,
        QueryAlgorithm::QdttPlus,
        QueryAlgorithm::BranchAndBound,
    ] {
        let seq = engine.query(&constraints).algorithm(algorithm).run();
        for threads in [2, 4] {
            for attempt in ["cold", "warm"] {
                let par = engine
                    .query(&constraints)
                    .algorithm(algorithm)
                    .execution(Execution::Parallel { threads })
                    .run();
                assert_eq!(
                    seq.result().probs(),
                    par.result().probs(),
                    "{} parallel flat twin diverged ({attempt} arenas, {threads} threads)",
                    seq.algorithm().name()
                );
            }
        }
    }

    let ratio = WeightRatio::uniform(3, 0.5, 2.0);
    let seq = engine.ratio_query(&ratio).run();
    assert_eq!(seq.algorithm(), QueryAlgorithm::Dual);
    for threads in [2, 4] {
        let par = engine
            .ratio_query(&ratio)
            .execution(Execution::Parallel { threads })
            .run();
        assert_eq!(
            seq.result().probs(),
            par.result().probs(),
            "DUAL parallel flat twin diverged ({threads} threads)"
        );
    }
}

proptest! {
    // Random-dataset agreement: a warm engine, with cached score matrices,
    // orders, indexes and pooled arenas, must agree **bitwise** with the
    // one-shot cold kernel a free function runs, on arbitrary datasets and
    // constraint sets — under sequential *and* parallel execution
    // (threads ∈ {2, 4}). A modest case count keeps the suite fast; every
    // case covers LOOP, KDTT, KDTT+, QDTT+ and B&B, cold + warm per
    // execution mode, so warm runs also exercise scratch-arena and
    // worker-pool reuse.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn warm_engine_matches_cold_kernel_bitwise_on_random_datasets(
        seed in 0u64..1_000_000,
        num_objects in 5usize..40,
        max_instances in 1usize..6,
        dim in 2usize..5,
        ranking in 1usize..4,
        region_length in 0.1f64..0.6,
        phi in 0.0f64..0.5,
    ) {
        let dataset = SyntheticConfig {
            num_objects,
            max_instances,
            dim,
            region_length,
            phi,
            seed,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(dim, ranking.min(dim - 1));
        let engine = ArspEngine::new(dataset.clone());
        for algorithm in EXACT_ALGORITHMS {
            let free = free_function(algorithm, &dataset, &constraints);
            for execution in [
                Execution::Sequential,
                Execution::Parallel { threads: 2 },
                Execution::Parallel { threads: 4 },
            ] {
                for attempt in ["cold", "warm"] {
                    let outcome = engine
                        .query(&constraints)
                        .algorithm(algorithm)
                        .execution(execution)
                        .run();
                    prop_assert_eq!(
                        free.probs(),
                        outcome.result().probs(),
                        "{} engine diverged from the cold kernel ({} cache, {:?}, seed {})",
                        algorithm.name(),
                        attempt,
                        execution,
                        seed
                    );
                }
            }
        }
    }

}

proptest! {
    // The weight-ratio pipeline: the engine's DUAL path must agree with the
    // free function **bitwise** (same kernel, cached forests), stay bitwise
    // identical under parallel execution, and keep agreeing with the
    // general-constraint paths within float tolerance on random ratio
    // boxes.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ratio_queries_agree_across_flat_and_dual_paths(
        seed in 0u64..1_000_000,
        low in 0.2f64..1.0,
        span in 0.0f64..2.0,
    ) {
        let dataset = SyntheticConfig {
            num_objects: 25,
            max_instances: 4,
            dim: 3,
            region_length: 0.3,
            phi: 0.2,
            seed,
            ..SyntheticConfig::default()
        }
        .generate();
        let ratio = WeightRatio::uniform(3, low, low + span);
        let engine = ArspEngine::new(dataset.clone());
        let dual = engine.ratio_query(&ratio).run();
        let free = arsp_dual(&dataset, &ratio);
        prop_assert_eq!(
            free.probs(),
            dual.result().probs(),
            "flat DUAL diverged from the free function (seed {})",
            seed
        );
        for threads in [2usize, 4] {
            let par = engine
                .ratio_query(&ratio)
                .execution(Execution::Parallel { threads })
                .run();
            prop_assert_eq!(
                dual.result().probs(),
                par.result().probs(),
                "parallel DUAL diverged (seed {}, {} threads)",
                seed,
                threads
            );
        }
        let kdtt = engine
            .ratio_query(&ratio)
            .algorithm(QueryAlgorithm::KdttPlus)
            .run();
        prop_assert!(
            dual.result().approx_eq(kdtt.result(), 1e-9),
            "DUAL vs flat KDTT+ diverged by {} (seed {seed})",
            dual.result().max_abs_diff(kdtt.result())
        );
    }
}

#[test]
fn outcome_views_are_consistent_with_the_result() {
    let engine = ArspEngine::new(
        SyntheticConfig {
            num_objects: 30,
            max_instances: 4,
            dim: 3,
            seed: 5,
            ..SyntheticConfig::default()
        }
        .generate(),
    );
    let constraints = ConstraintSet::weak_ranking(3, 1);
    let outcome = engine
        .query(&constraints)
        .top_k(3)
        .min_prob(1e-12)
        .collect_stats(true)
        .run();

    // Counters were collected and the timings add up.
    let counters = outcome.counters().expect("stats requested");
    assert!(counters.total() > 0);
    assert!(outcome.total_time() >= outcome.run_time());

    // Views agree with direct ArspResult accessors.
    assert_eq!(outcome.iter_probs().count(), outcome.result_size());
    let top = outcome.top_objects().unwrap();
    let direct = outcome.result().top_k_objects(engine.dataset(), 3);
    assert_eq!(top, direct.as_slice());
    for (object, instance, prob) in outcome.iter_probs() {
        assert_eq!(object, engine.dataset().instance(instance).object);
        assert_eq!(prob, outcome.instance_prob(instance));
    }
}
