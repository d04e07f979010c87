//! The sharded-serving contract (see `arsp::core::cluster`):
//!
//! 1. **Exact cross-shard merge** — queries through a [`ShardedService`]
//!    are **bitwise** equal (`f64::to_bits`) to a cold unsharded
//!    [`ArspEngine`] on the union dataset, for every shard count, every
//!    exact algorithm and both execution modes (property-tested over
//!    random datasets below).
//! 2. **Fault isolation** — killing any single shard at any registered
//!    `shard.*` fail-point mid-workload never poisons the cluster: the
//!    other shards keep answering bitwise-correct, partial results are
//!    exact over the shards that answered, fail-closed queries surface a
//!    typed `ShardUnavailable`, and recovery lands the crashed shard
//!    bitwise on its applied-batch state (exactly once per batch).
//!
//! This suite owns the `shard.*` fail-point sites ([`SHARD_MATRIX`]); the
//! persistence sites belong to `tests/crash_recovery.rs`, and together the
//! two matrices partition `arsp_data::failpoint::SITES` (asserted below,
//! linted by `cargo xtask lint`). The lint's supervisor-coverage rule also
//! checks every `TRANSITION_EDGES` edge is named by a test — the state
//! machine walk at the bottom names all of them.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use arsp::core::cluster::{
    ApplyOutcome, ClusterConfig, ShardHealth, ShardedService, SupervisorCore, TRANSITION_EDGES,
};
use arsp::core::engine::{ArspEngine, EXACT_ALGORITHMS};
use arsp::prelude::*;
use arsp_data::failpoint::{self, FailAction};
use arsp_data::{partition_dataset, MutationOp, VersionedStore};
use proptest::prelude::*;

/// Every shard fail-point site this suite kills the cluster at. Must stay
/// in sync with the `shard.*` half of `arsp_data::failpoint::SITES`
/// (asserted below, linted by `cargo xtask lint`).
const SHARD_MATRIX: &[&str] = &[
    "shard.apply",
    "shard.publish",
    "shard.probe",
    "shard.recover",
];

/// A unique scratch directory under the workspace `target/` (never `/tmp`).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/shard-agreement-tests")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Concatenates datasets in shard order — the union a stitched cluster
/// query answers over.
fn concat_datasets(parts: &[UncertainDataset]) -> UncertainDataset {
    let mut union = UncertainDataset::new(parts[0].dim());
    for part in parts {
        for object in 0..part.num_objects() {
            let instances = part
                .object_instances(object)
                .map(|inst| (inst.coords.clone(), inst.prob))
                .collect();
            union.push_labeled_object(part.object(object).label.clone(), instances);
        }
    }
    union
}

#[test]
fn the_shard_matrix_covers_every_shard_failpoint() {
    let expected: Vec<&str> = arsp_data::failpoint::SITES
        .iter()
        .copied()
        .filter(|site| site.starts_with("shard."))
        .collect();
    assert_eq!(
        SHARD_MATRIX, expected,
        "a shard fail-point site was added or renamed without updating \
         the shard matrix"
    );
}

proptest! {
    // The exact-merge contract: sharded == unsharded, bitwise, over random
    // datasets × shard counts × all five exact algorithms and Auto on linear
    // constraints, DUAL and Auto on a weight ratio × both execution modes. A
    // modest case count keeps the fsync-heavy suite fast; every case still
    // covers 4 shard counts × 8 queries × 2 modes.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_queries_are_bitwise_equal_to_the_unsharded_engine(
        seed in 0u64..1_000_000,
        num_objects in 8usize..28,
        dim in 2usize..4,
        c in 1usize..2,
    ) {
        let dataset = SyntheticConfig {
            num_objects,
            max_instances: 3,
            dim,
            region_length: 0.35,
            phi: 0.2,
            seed,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(dim, c);
        let ratio = WeightRatio::uniform(dim, 0.5, 2.0);
        let queries: Vec<(QueryAlgorithm, bool)> = EXACT_ALGORITHMS
            .into_iter()
            .chain([QueryAlgorithm::Auto])
            .map(|algorithm| (algorithm, false))
            .chain([(QueryAlgorithm::Dual, true), (QueryAlgorithm::Auto, true)])
            .collect();
        let cold = ArspEngine::new(dataset.clone());
        let dir = scratch_dir("prop");
        for num_shards in [1usize, 2, 4, 7] {
            let cluster = ShardedService::create(
                dir.join(format!("s{num_shards}")),
                &dataset,
                ClusterConfig { num_shards, ..ClusterConfig::default() },
            )
            .expect("create cluster");
            for &(algorithm, by_ratio) in &queries {
                for execution in [
                    Execution::Sequential,
                    Execution::Parallel { threads: 2 },
                ] {
                    let (reference, got) = if by_ratio {
                        (cold.ratio_query(&ratio), cluster.ratio_query(&ratio))
                    } else {
                        (cold.query(&constraints), cluster.query(&constraints))
                    };
                    let reference = reference.algorithm(algorithm).execution(execution).run();
                    let got = got
                        .algorithm(algorithm)
                        .execution(execution)
                        .run()
                        .expect("all shards up");
                    prop_assert!(got.is_complete());
                    prop_assert_eq!(got.algorithm, reference.algorithm());
                    prop_assert_eq!(
                        bits(&got.probs),
                        bits(reference.result().probs()),
                        "{:?}/{:?} (ratio query: {}) with {} shards diverged",
                        algorithm,
                        execution,
                        by_ratio,
                        num_shards
                    );
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The deterministic kill-and-recover loop: for every `shard.*` site, run a
/// mixed writer/reader workload, crash one shard at that site, and prove
/// the cluster is never poisoned — healthy shards answer bitwise-correct
/// partial results, fail-closed queries get the typed error, and recovery
/// lands every queued batch exactly once.
#[test]
fn a_kill_at_every_shard_failpoint_never_poisons_the_cluster() {
    const NUM_SHARDS: usize = 3;
    let dataset = SyntheticConfig {
        num_objects: 18,
        max_instances: 3,
        dim: 2,
        region_length: 0.35,
        phi: 0.2,
        seed: 7,
        ..SyntheticConfig::default()
    }
    .generate();
    let constraints = ConstraintSet::weak_ranking(2, 1);
    let _gate = failpoint::exclusive();

    for &site in SHARD_MATRIX {
        failpoint::reset();
        let dir = scratch_dir(&site.replace('.', "-"));
        let cluster = ShardedService::create(
            &dir,
            &dataset,
            ClusterConfig {
                num_shards: NUM_SHARDS,
                ..ClusterConfig::default()
            },
        )
        .expect("create cluster");

        // Per-shard mirrors of what must eventually be durable: every batch
        // the cluster accepted (applied, queued, or crashed-and-queued) —
        // exactly-once replay makes the shard converge to its mirror.
        let mut mirrors: Vec<VersionedStore> = partition_dataset(&dataset, NUM_SHARDS)
            .iter()
            .map(VersionedStore::from_dataset)
            .collect();

        // `shard.probe` / `shard.recover` only fire on their own paths, so
        // crash those directly; the write-path sites crash mid-workload.
        let victim = 1usize;
        match site {
            "shard.probe" => {
                failpoint::arm(site, FailAction::Panic);
                assert_eq!(
                    cluster.probe(victim).expect("panic contained"),
                    ShardHealth::Quarantined
                );
            }
            "shard.recover" => {
                // Quarantine first (via a contained probe crash), then let
                // the first recovery attempt die at shard.recover.
                failpoint::arm("shard.probe", FailAction::Panic);
                cluster.probe(victim).expect("panic contained");
                failpoint::arm(site, FailAction::Panic);
                cluster
                    .recover_now(victim)
                    .expect_err("recovery crash surfaces as an error");
                assert_eq!(cluster.shard_health(victim), ShardHealth::Quarantined);
            }
            _ => {
                failpoint::arm(site, FailAction::Panic);
                let mut crashed = false;
                for round in 0..4u64 {
                    for (shard, mirror) in mirrors.iter_mut().enumerate() {
                        let ops = vec![MutationOp::InsertObject {
                            label: None,
                            instances: vec![(vec![3.0 + round as f64, 2.0 + shard as f64], 0.5)],
                        }];
                        let outcome = cluster
                            .apply_batch(shard, ops.clone())
                            .expect("panic, not error");
                        for op in &ops {
                            op.apply_to(mirror);
                        }
                        crashed |= outcome == ApplyOutcome::Crashed;
                        match outcome {
                            ApplyOutcome::Crashed | ApplyOutcome::Queued => {
                                assert_eq!(
                                    cluster.shard_health(shard),
                                    ShardHealth::Quarantined,
                                    "site `{site}`"
                                );
                            }
                            ApplyOutcome::Applied => {}
                        }
                    }
                }
                assert!(crashed, "site `{site}` never fired in the workload");
            }
        }
        failpoint::reset();

        // Exactly one shard is down; the cluster itself is not poisoned.
        let down: Vec<usize> = (0..NUM_SHARDS)
            .filter(|&s| !cluster.shard_health(s).is_available())
            .collect();
        assert_eq!(down.len(), 1, "site `{site}`: exactly one shard crashed");
        let victim = down[0];

        // Fail-closed: the default query names the missing shard.
        let err = cluster
            .query(&constraints)
            .run()
            .expect_err("fail closed while a shard is down");
        assert_eq!(
            err,
            QueryError::ShardUnavailable {
                shards_missing: vec![victim]
            },
            "site `{site}`"
        );
        assert!(err.is_retryable());

        // Degraded: the partial answer is bitwise what an unsharded engine
        // computes on the union of the shards that answered.
        let partial = cluster
            .query(&constraints)
            .allow_partial(true)
            .run()
            .expect("degraded service");
        assert_eq!(partial.shards_missing, vec![victim], "site `{site}`");
        let answered_union = concat_datasets(
            &partial
                .shards_answered
                .iter()
                .map(|&s| mirrors[s].snapshot_dataset())
                .collect::<Vec<_>>(),
        );
        let reference = ArspEngine::new(answered_union).query(&constraints).run();
        assert_eq!(
            bits(&partial.probs),
            bits(reference.result().probs()),
            "site `{site}`: the partial result diverges on the answered shards"
        );
        for (k, &shard) in partial.shards_answered.iter().enumerate() {
            assert_eq!(
                partial.shard_probs(k).len(),
                mirrors[shard].snapshot_dataset().num_instances(),
                "site `{site}`: shard {shard}'s block is missized"
            );
        }

        // Recovery converges (a prior failed attempt retries cleanly) and
        // lands the shard bitwise on its mirror — every accepted batch
        // applied exactly once, whether it crashed on or off the WAL.
        assert!(cluster.recover_now(victim).expect("recovery succeeds"));
        assert_eq!(cluster.shard_health(victim), ShardHealth::Healthy);
        let full_union = concat_datasets(
            &(0..NUM_SHARDS)
                .map(|s| mirrors[s].snapshot_dataset())
                .collect::<Vec<_>>(),
        );
        let reference = ArspEngine::new(full_union).query(&constraints).run();
        let got = cluster.query(&constraints).run().expect("all shards up");
        assert!(got.is_complete());
        assert_eq!(
            bits(&got.probs),
            bits(reference.result().probs()),
            "site `{site}`: the recovered cluster diverges from the mirror union"
        );

        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// The probabilistic stress loop: seeded `Chance` fail-points crash shards
/// at random apply/publish/recovery attempts while a writer streams batches
/// and a reader sweeps after every one. Every observation is
/// bitwise-checked against the mirrors; the run is deterministic per seed.
#[test]
fn seeded_random_crashes_never_break_agreement() {
    const NUM_SHARDS: usize = 3;
    const ROUNDS: u64 = 12;
    let dataset = SyntheticConfig {
        num_objects: 15,
        max_instances: 3,
        dim: 2,
        region_length: 0.35,
        phi: 0.2,
        seed: 11,
        ..SyntheticConfig::default()
    }
    .generate();
    let constraints = ConstraintSet::weak_ranking(2, 1);
    let _gate = failpoint::exclusive();
    failpoint::reset();
    failpoint::seed_rng(0xC0FFEE);

    let dir = scratch_dir("chance");
    let cluster = ShardedService::create(
        &dir,
        &dataset,
        ClusterConfig {
            num_shards: NUM_SHARDS,
            failure_threshold: 2,
        },
    )
    .expect("create cluster");
    let mut mirrors: Vec<VersionedStore> = partition_dataset(&dataset, NUM_SHARDS)
        .iter()
        .map(VersionedStore::from_dataset)
        .collect();

    // Each apply/publish attempt has an independent seeded 20% crash
    // probability; recovery attempts fail 20% of the time too.
    failpoint::arm("shard.apply", FailAction::chance(0.2));
    failpoint::arm("shard.publish", FailAction::chance(0.2));
    failpoint::arm("shard.recover", FailAction::chance(0.2));

    let mut crashes = 0u64;
    for round in 0..ROUNDS {
        for (shard, mirror) in mirrors.iter_mut().enumerate() {
            let ops = vec![MutationOp::InsertObject {
                label: None,
                instances: vec![(vec![2.5 + round as f64, 1.5 + shard as f64], 0.5)],
            }];
            let outcome = cluster
                .apply_batch(shard, ops.clone())
                .expect("chance mode only panics");
            // Accepted either way (applied now, or queued for exactly-once
            // replay): the mirror advances.
            for op in &ops {
                op.apply_to(mirror);
            }
            if outcome == ApplyOutcome::Crashed {
                crashes += 1;
            }
        }

        // Reader sweep: a partial query over whatever is up right now must
        // be exact on the shards that answered.
        let partial = cluster.query(&constraints).allow_partial(true).run();
        match partial {
            Ok(partial) => {
                let answered_union = concat_datasets(
                    &partial
                        .shards_answered
                        .iter()
                        .map(|&s| mirrors[s].snapshot_dataset())
                        .collect::<Vec<_>>(),
                );
                let reference = ArspEngine::new(answered_union).query(&constraints).run();
                assert_eq!(
                    bits(&partial.probs),
                    bits(reference.result().probs()),
                    "round {round}: partial result diverges"
                );
            }
            Err(QueryError::ShardUnavailable { shards_missing }) => {
                assert_eq!(shards_missing.len(), NUM_SHARDS, "round {round}");
            }
            Err(other) => panic!("round {round}: unexpected error {other}"),
        }

        // Supervisor turn: one recovery attempt per quarantined shard (may
        // itself crash at shard.recover and stay quarantined for the next
        // round — recovering->quarantined — which must never wedge it).
        for shard in 0..NUM_SHARDS {
            if cluster.shard_health(shard) == ShardHealth::Quarantined {
                let _ = cluster.recover_now(shard);
            }
        }
    }
    assert!(crashes > 0, "the seeded chance mode never fired; raise p");

    // Fault cleared: recover everything and converge on the mirrors.
    failpoint::reset();
    for shard in 0..NUM_SHARDS {
        while cluster.shard_health(shard) != ShardHealth::Healthy {
            let _ = cluster.recover_now(shard);
            let _ = cluster.probe(shard);
        }
    }
    let full_union = concat_datasets(
        &(0..NUM_SHARDS)
            .map(|s| mirrors[s].snapshot_dataset())
            .collect::<Vec<_>>(),
    );
    let reference = ArspEngine::new(full_union).query(&constraints).run();
    let got = cluster.query(&constraints).run().expect("all shards up");
    assert_eq!(
        bits(&got.probs),
        bits(reference.result().probs()),
        "the drained cluster diverges from the mirror union"
    );
    let stats = cluster.cluster_stats();
    assert_eq!(stats.crashes_contained, crashes);
    assert!(stats.recoveries > 0);

    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Walks the quarantine state machine through **every** registered edge by
/// its literal name, so `cargo xtask lint`'s supervisor-coverage rule can
/// tie each `TRANSITION_EDGES` entry to this test:
/// `"healthy->degraded"`, `"degraded->healthy"`, `"healthy->quarantined"`,
/// `"degraded->quarantined"`, `"quarantined->recovering"`,
/// `"recovering->healthy"`, `"recovering->quarantined"`.
#[test]
fn the_quarantine_state_machine_walks_every_registered_edge() {
    let mut core = SupervisorCore::new(2);
    assert_eq!(core.record_failure(), Some("healthy->degraded"));
    assert_eq!(core.record_success(), Some("degraded->healthy"));
    assert_eq!(core.record_crash(), Some("healthy->quarantined"));
    assert_eq!(core.begin_recovery(), Some("quarantined->recovering"));
    assert_eq!(core.recovery_failed(), Some("recovering->quarantined"));
    assert_eq!(core.begin_recovery(), Some("quarantined->recovering"));
    assert_eq!(core.recovery_succeeded(), Some("recovering->healthy"));
    assert_eq!(core.record_failure(), Some("healthy->degraded"));
    assert_eq!(core.record_failure(), Some("degraded->quarantined"));
    assert_eq!(core.health(), ShardHealth::Quarantined);

    // A crash mid-recovery is a failed recovery, not a new state.
    let mut mid = SupervisorCore::new(2);
    mid.record_crash();
    mid.begin_recovery();
    assert_eq!(mid.record_crash(), Some("recovering->quarantined"));

    // The walk above used every registered edge at least once.
    let walked = [
        "healthy->degraded",
        "degraded->healthy",
        "healthy->quarantined",
        "degraded->quarantined",
        "quarantined->recovering",
        "recovering->healthy",
        "recovering->quarantined",
    ];
    assert_eq!(walked.as_slice(), TRANSITION_EDGES);
}
