//! Work-counter gate for every parallel twin: on a dense seeded dataset,
//! each algorithm under `Execution::Parallel { threads: 2 }` must return
//! probabilities bitwise equal to `Execution::Sequential` **and** report
//! exactly the same `QueryCounters`. Dominance tests, visited nodes and
//! window queries are deterministic, so an exact comparison catches a
//! parallel path that does more (or different) work without timing noise.
//! Every kernel's counts are also pinned against recorded baselines, so a
//! kernel rewrite — or a query front that feeds a kernel different
//! artifacts — fails here in either mode.

use std::path::{Path, PathBuf};

use arsp::data::im_constraints;
use arsp::geometry::fdom::LinearFDominance;
use arsp::prelude::*;

/// A unique scratch directory under the workspace `target/` (never `/tmp`).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/work-counter-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
/// the engine, dynamic and service fronts were folded into one pipeline: KDTT, KDTT+ and
/// QDTT+ under `weak_ranking(4, 2)`, B&B under the wide IM user, DUAL under
/// `WeightRatio::uniform(4, 0.5, 2.0)`. The kd rows were re-recorded with
/// the zero certificate, which skips subtrees of certified-zero instances
/// (their bits are held by [`DENSE_KD_BITS`]), and their `fdom_tests` once
/// more with the candidate filter, which drops candidates that dominate no
/// uncertified point of a node. Every front must do exactly this work,
/// sequential or parallel.
const DENSE_PINNED_COUNTERS: [(QueryAlgorithm, QueryCounters); 5] = [
    (
        QueryAlgorithm::Kdtt,
        QueryCounters {
            fdom_tests: 441_788,
            nodes_visited: 2_807,
            window_queries: 0,
        },
    ),
    (
        QueryAlgorithm::KdttPlus,
        QueryCounters {
            fdom_tests: 441_788,
            nodes_visited: 2_807,
            window_queries: 0,
        },
    ),
    (
        QueryAlgorithm::QdttPlus,
        QueryCounters {
            fdom_tests: 457_976,
            nodes_visited: 1_691,
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

/// The dynamic engine, a pinned service snapshot and a 4-shard cluster run
/// the same kernels over bitwise-equal artifacts (the cluster's union is
/// bitwise the dataset), so they must report the pinned counters too.
#[test]
fn dynamic_and_service_fronts_do_the_pinned_work() {
    let dataset = dense_engine().dataset().clone();
    let dynamic = DynamicArspEngine::from_dataset(&dataset);
    let (service, _writer) = ArspService::from_dataset(&dataset);
    let pin = service.pin();
    let dir = scratch_dir("fronts");
    let config = ClusterConfig {
        num_shards: 4,
        ..ClusterConfig::default()
    };
    let cluster = ShardedService::create(&dir, &dataset, config).expect("create cluster");
    let wr = ConstraintSet::weak_ranking(4, 2);
    let im = wide_im_user();
    let ratio = WeightRatio::uniform(4, 0.5, 2.0);
    for (algorithm, pinned) in DENSE_PINNED_COUNTERS {
        let (dyn_query, svc_query, cluster_query) = match algorithm {
            QueryAlgorithm::Dual => (
                dynamic.ratio_query(&ratio),
                pin.ratio_query(&ratio),
                cluster.ratio_query(&ratio),
            ),
            QueryAlgorithm::BranchAndBound => {
                (dynamic.query(&im), pin.query(&im), cluster.query(&im))
            }
            _ => (dynamic.query(&wr), pin.query(&wr), cluster.query(&wr)),
        };
        let counted = |outcome: Option<QueryCounters>, front: &str| {
            assert_eq!(outcome, Some(pinned), "{front} {}", algorithm.name());
        };
        counted(
            dyn_query
                .algorithm(algorithm)
                .collect_stats(true)
                .run()
                .counters(),
            "dynamic",
        );
        counted(
            svc_query
                .algorithm(algorithm)
                .collect_stats(true)
                .run()
                .counters(),
            "service",
        );
        let cluster_outcome = cluster_query
            .algorithm(algorithm)
            .collect_stats(true)
            .try_run()
            .expect("all shards up");
        counted(cluster_outcome.counters(), "cluster");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a over every probability's bit pattern.
fn bits_digest(probs: &[f64]) -> u64 {
    probs.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        p.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Probability-bit digests of the kd kernels on the dense dataset, one
/// `(weak_ranking(4, 2), wide IM user)` pair per algorithm. Most of the
/// dataset's instances have probability exactly zero, so a kernel change
/// that skips or reorders zero work must leave these bits untouched.
const DENSE_KD_BITS: [(QueryAlgorithm, [u64; 2]); 3] = [
    (
        QueryAlgorithm::Kdtt,
        [0x295e_bf6e_9492_bf20, 0xd3df_7321_286f_3b91],
    ),
    (
        QueryAlgorithm::KdttPlus,
        [0x295e_bf6e_9492_bf20, 0xd3df_7321_286f_3b91],
    ),
    (
        QueryAlgorithm::QdttPlus,
        [0x01d4_7889_2da9_577c, 0x1782_f9ba_5a9a_dfd2],
    ),
];

#[test]
fn kd_probability_bits_are_pinned_on_the_dense_dataset() {
    let engine = dense_engine();
    let wr = ConstraintSet::weak_ranking(4, 2);
    let im = wide_im_user();
    for (algorithm, pinned) in DENSE_KD_BITS {
        for (constraints, pin) in [&wr, &im].into_iter().zip(pinned) {
            for execution in [Execution::Sequential, Execution::Parallel { threads: 2 }] {
                let outcome = engine
                    .query(constraints)
                    .algorithm(algorithm)
                    .execution(execution)
                    .run();
                let digest = bits_digest(outcome.result().probs());
                assert_eq!(
                    digest,
                    pin,
                    "{} ({execution:?}) moved a probability bit",
                    algorithm.name()
                );
            }
        }
    }
}
