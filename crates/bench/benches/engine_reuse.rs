//! Micro-benchmark: the index-reuse speedup of `ArspEngine::run_batch` over
//! calling the free functions once per query.
//!
//! A constraint sweep over one dataset is the paper's own workload shape
//! (every figure is such a sweep). Each free function is a one-shot query
//! on a fresh engine, so it rebuilds the instance R-tree (B&B) and
//! re-enumerates preference-region vertices on every call; a session builds
//! each structure once and serves the rest of the sweep from its caches.
//! Numbers recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use arsp_core::engine::{ArspEngine, QueryAlgorithm};
use arsp_core::{arsp_bnb, arsp_kdtt_plus};
use arsp_data::SyntheticConfig;
use arsp_geometry::ConstraintSet;

fn dataset() -> arsp_data::UncertainDataset {
    SyntheticConfig {
        num_objects: 300,
        max_instances: 6,
        dim: 4,
        region_length: 0.2,
        phi: 0.0,
        seed: 19,
        ..SyntheticConfig::default()
    }
    .generate()
}

/// The sweep of Fig. 5(p)-(q): one dataset, WR constraints with c = 1..=3.
fn sweep() -> Vec<ConstraintSet> {
    (1..=3).map(|c| ConstraintSet::weak_ranking(4, c)).collect()
}

fn bench_engine_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_reuse");
    group.sample_size(10);

    let data = dataset();
    let constraint_sweep = sweep();

    // B&B is where sharing bites hardest: the free function bulk-loads the
    // instance R-tree on every call, the engine once per session.
    group.bench_function("bnb/free_fn_per_call", |b| {
        b.iter(|| {
            constraint_sweep
                .iter()
                .map(|cs| arsp_bnb(black_box(&data), cs).result_size())
                .sum::<usize>()
        })
    });
    group.bench_function("bnb/engine_per_call", |b| {
        // Sequential engine queries: isolates pure index reuse from the
        // batch's across-query parallelism.
        let engine = ArspEngine::new(data.clone());
        b.iter(|| {
            constraint_sweep
                .iter()
                .map(|cs| {
                    engine
                        .query(cs)
                        .algorithm(QueryAlgorithm::BranchAndBound)
                        .run()
                        .result_size()
                })
                .sum::<usize>()
        })
    });
    group.bench_function("bnb/engine_batch", |b| {
        let engine = ArspEngine::new(data.clone());
        b.iter(|| {
            engine
                .run_batch_with(black_box(&constraint_sweep), QueryAlgorithm::BranchAndBound)
                .iter()
                .map(|o| o.result_size())
                .sum::<usize>()
        })
    });

    // KDTT+ shares only the vertex enumeration — the lower bound of what a
    // session saves.
    group.bench_function("kdtt_plus/free_fn_per_call", |b| {
        b.iter(|| {
            constraint_sweep
                .iter()
                .map(|cs| arsp_kdtt_plus(black_box(&data), cs).result_size())
                .sum::<usize>()
        })
    });
    group.bench_function("kdtt_plus/engine_batch", |b| {
        let engine = ArspEngine::new(data.clone());
        b.iter(|| {
            engine
                .run_batch_with(black_box(&constraint_sweep), QueryAlgorithm::KdttPlus)
                .iter()
                .map(|o| o.result_size())
                .sum::<usize>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_engine_reuse);
criterion_main!(benches);
