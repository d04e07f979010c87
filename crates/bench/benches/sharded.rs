//! Micro-benchmark: what sharded serving costs and what recovery buys.
//!
//! The shard-agreement suite proves a [`ShardedService`] answers bitwise
//! equal to the unsharded engine; this bench times the machinery around
//! that guarantee:
//!
//! * **query/cached** — a steady-state query per shard count: every shard
//!   pin hits the cached union, so this is the fan-out overhead a reader
//!   pays over a single-engine query (pin the version vector, compare it
//!   to the cache key, run the kernel on the cached union);
//! * **query/after_write** — a write to one shard followed by a query: the
//!   version vector moved, so the union must be restitched (per-shard flat
//!   concatenation + object-id rebase into a fresh union snapshot, whose
//!   score matrix the query rebuilds; the vertex enumeration survives)
//!   before the kernel runs. The WAL fsync of the write is inside the
//!   sample — this is the
//!   end-to-end "first read after a write" latency;
//! * **open** — `ShardedService::open` of a 4-shard cluster at per-shard
//!   WAL depths of 0, 16 and 64 batches: restart latency as the replay
//!   tail grows (snapshot read + WAL replay per shard, serving twin
//!   cloned from the recovered store);
//! * **crash_recover** — the quarantine path end to end on one shard of
//!   four: a `shard.apply` panic is contained (teardown + queue), then
//!   `recover_now` reopens the durable store, drains the replay queue
//!   exactly once and rebuilds the serving twin. Each sample ends with a
//!   `Merge` batch and a checkpoint so the WAL and tombstone population
//!   are identical at every iteration.
//!
//! Numbers are recorded in `BENCH_sharded.json` and EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::{Path, PathBuf};

use arsp_core::cluster::{ApplyOutcome, ClusterConfig, ShardedService};
use arsp_core::engine::QueryAlgorithm;
use arsp_data::failpoint::{self, FailAction};
use arsp_data::{MutationOp, SyntheticConfig, UncertainDataset};
use arsp_geometry::ConstraintSet;

fn dataset() -> UncertainDataset {
    SyntheticConfig {
        num_objects: 240,
        max_instances: 5,
        dim: 3,
        region_length: 0.3,
        phi: 0.5,
        seed: 47,
        ..SyntheticConfig::default()
    }
    .generate()
}

fn constraints() -> ConstraintSet {
    ConstraintSet::weak_ranking(3, 1)
}

/// A handle-free batch (inserts only), valid against any shard at any
/// version — WAL-depth setup applies these without a per-shard shadow.
fn insert_batch(round: usize) -> Vec<MutationOp> {
    vec![MutationOp::InsertObject {
        label: None,
        instances: vec![(
            vec![
                0.1 + 0.8 * ((round % 7) as f64 / 7.0),
                0.2 + 0.6 * ((round % 5) as f64 / 5.0),
                0.3 + 0.4 * ((round % 3) as f64 / 3.0),
            ],
            0.5,
        )],
    }]
}

/// Scratch directory under the workspace `target/` (never `/tmp`).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/sharded-bench")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded");
    group.sample_size(10);

    let base = dataset();
    let cs = constraints();

    // Query fan-out vs shard count: cached-union steady state, and the
    // restitch forced by a write.
    for num_shards in [1usize, 2, 4, 8] {
        let dir = scratch_dir(&format!("query{num_shards}"));
        let cluster = ShardedService::create(
            &dir,
            &base,
            ClusterConfig {
                num_shards,
                ..ClusterConfig::default()
            },
        )
        .expect("create cluster");

        // Warm the union cache so the first measured sample is steady-state.
        group.bench_function(format!("query/cached/shards{num_shards}"), |b| {
            b.iter(|| {
                let got = cluster
                    .query(&cs)
                    .algorithm(QueryAlgorithm::KdttPlus)
                    .run()
                    .expect("all shards up");
                black_box(got.probs.len())
            })
        });

        // Each sample: one durable write to the last shard (WAL append +
        // fsync), then the query that restitches the union.
        let mut round = 0usize;
        group.bench_function(format!("query/after_write/shards{num_shards}"), |b| {
            b.iter(|| {
                let outcome = cluster
                    .apply_batch(num_shards - 1, insert_batch(round))
                    .expect("apply");
                assert_eq!(outcome, ApplyOutcome::Applied);
                round += 1;
                let got = cluster
                    .query(&cs)
                    .algorithm(QueryAlgorithm::KdttPlus)
                    .run()
                    .expect("all shards up");
                black_box(got.probs.len())
            })
        });

        drop(cluster);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    // Restart latency vs per-shard WAL depth: snapshot read + WAL replay +
    // serving-twin rebuild for every shard of a 4-shard cluster.
    const SHARDS: usize = 4;
    for wal_depth in [0usize, 16, 64] {
        let dir = scratch_dir(&format!("open-wal{wal_depth}"));
        {
            let cluster = ShardedService::create(
                &dir,
                &base,
                ClusterConfig {
                    num_shards: SHARDS,
                    ..ClusterConfig::default()
                },
            )
            .expect("create cluster");
            for shard in 0..SHARDS {
                // Fold creation history into the checkpoint so the WAL
                // holds exactly `wal_depth` batches.
                assert!(cluster.checkpoint(shard).expect("checkpoint"));
                for round in 0..wal_depth {
                    let outcome = cluster
                        .apply_batch(shard, insert_batch(round))
                        .expect("apply");
                    assert_eq!(outcome, ApplyOutcome::Applied);
                }
            }
        }
        group.bench_function(format!("open/shards{SHARDS}_wal{wal_depth}"), |b| {
            b.iter(|| {
                let (cluster, reports) = ShardedService::open(&dir, 3).expect("open cluster");
                assert_eq!(reports.len(), SHARDS);
                for report in &reports {
                    assert_eq!(report.records_replayed as usize, wal_depth);
                }
                black_box(cluster.num_shards())
            })
        });
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    // The quarantine path end to end: contain a shard.apply panic, recover
    // the shard (reopen + drain the queued batch exactly once), then Merge
    // + checkpoint so every sample starts from the same durable shape.
    {
        let _gate = failpoint::exclusive();
        failpoint::reset();
        let dir = scratch_dir("crash-recover");
        let cluster = ShardedService::create(
            &dir,
            &base,
            ClusterConfig {
                num_shards: SHARDS,
                ..ClusterConfig::default()
            },
        )
        .expect("create cluster");
        let victim = SHARDS - 1;
        let mut round = 0usize;
        // The injected panics are contained by `apply_batch`; keep their
        // backtraces out of the bench output.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        group.bench_function(format!("crash_recover/shards{SHARDS}"), |b| {
            b.iter(|| {
                failpoint::arm("shard.apply", FailAction::Panic);
                let outcome = cluster
                    .apply_batch(victim, insert_batch(round))
                    .expect("contained");
                assert_eq!(outcome, ApplyOutcome::Crashed);
                round += 1;
                assert!(cluster.recover_now(victim).expect("recovery succeeds"));
                let outcome = cluster
                    .apply_batch(victim, vec![MutationOp::Merge])
                    .expect("merge");
                assert_eq!(outcome, ApplyOutcome::Applied);
                assert!(cluster.checkpoint(victim).expect("checkpoint"));
                black_box(round)
            })
        });
        std::panic::set_hook(prev_hook);
        failpoint::reset();
        drop(cluster);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    group.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
