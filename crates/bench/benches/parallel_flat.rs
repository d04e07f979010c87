//! Micro-benchmark: the flat parallel paths versus the warm engine's
//! sequential path, across thread counts.
//!
//! At threads ∈ {1, 2, 4}:
//!
//! * **flat_par** — warm [`ArspEngine`] queries under
//!   `Execution::Parallel`: cached `FlatStore` + `ScoreMatrix`, flat
//!   parallel kernels, pooled per-query and per-worker arenas;
//! * **flat_seq** — the warm engine's sequential flat path, the baseline the
//!   per-algorithm parallel speedups in `BENCH_parallel_flat.json` are
//!   reported against.
//!
//! The thread count is driven through `set_num_threads` (exactly what the
//! `ARSP_NUM_THREADS` CI hook seeds). Results are bitwise identical across
//! all variants — enforced by `tests/engine_agreement.rs`; numbers are
//! recorded in EXPERIMENTS.md and `BENCH_parallel_flat.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use arsp_core::engine::{ArspEngine, Execution, QueryAlgorithm};
use arsp_core::parallel::set_num_threads;
use arsp_data::SyntheticConfig;
use arsp_geometry::constraints::WeightRatio;
use arsp_geometry::ConstraintSet;

fn dataset() -> arsp_data::UncertainDataset {
    SyntheticConfig {
        num_objects: 300,
        max_instances: 5,
        dim: 4,
        region_length: 0.25,
        phi: 0.1,
        seed: 23,
        ..SyntheticConfig::default()
    }
    .generate()
}

/// WR constraint sweep (c = 1..=3), as in the paper's Fig. 5(p)–(q); the
/// ~900-instance dataset crosses the kd twins' parallel node threshold.
fn sweep() -> Vec<ConstraintSet> {
    (1..=3).map(|c| ConstraintSet::weak_ranking(4, c)).collect()
}

fn bench_parallel_flat(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_flat");
    group.sample_size(10);

    let data = dataset();
    let constraint_sweep = sweep();
    let ratio = WeightRatio::uniform(4, 0.5, 2.0);

    // Warm engine: every cache and arena pool is populated before
    // measurement, so the engine side times the flat hot paths alone.
    let engine = ArspEngine::new(data.clone());
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for cs in &constraint_sweep {
            for algo in [
                QueryAlgorithm::Loop,
                QueryAlgorithm::KdttPlus,
                QueryAlgorithm::BranchAndBound,
            ] {
                let _ = engine
                    .query(cs)
                    .algorithm(algo)
                    .execution(Execution::Parallel { threads: 0 })
                    .run();
            }
        }
        let _ = engine
            .ratio_query(&ratio)
            .execution(Execution::Parallel { threads: 0 })
            .run();
    }
    set_num_threads(0);

    // Sequential flat baselines (the denominator of the reported speedups).
    for (name, algo) in [
        ("loop", QueryAlgorithm::Loop),
        ("kdtt_plus", QueryAlgorithm::KdttPlus),
        ("bnb", QueryAlgorithm::BranchAndBound),
    ] {
        group.bench_function(format!("{name}/flat_seq"), |b| {
            b.iter(|| {
                constraint_sweep
                    .iter()
                    .map(|cs| engine.query(cs).algorithm(algo).run().result_size())
                    .sum::<usize>()
            })
        });
    }
    group.bench_function("dual/flat_seq", |b| {
        b.iter(|| engine.ratio_query(&ratio).run().result_size())
    });

    for threads in [1usize, 2, 4] {
        set_num_threads(threads);

        for (name, algo) in [
            ("loop", QueryAlgorithm::Loop),
            ("kdtt_plus", QueryAlgorithm::KdttPlus),
            ("bnb", QueryAlgorithm::BranchAndBound),
        ] {
            group.bench_function(format!("{name}/flat_par/t{threads}"), |b| {
                b.iter(|| {
                    constraint_sweep
                        .iter()
                        .map(|cs| {
                            engine
                                .query(cs)
                                .algorithm(algo)
                                .execution(Execution::Parallel { threads: 0 })
                                .run()
                                .result_size()
                        })
                        .sum::<usize>()
                })
            });
        }
        group.bench_function(format!("dual/flat_par/t{threads}"), |b| {
            b.iter(|| {
                engine
                    .ratio_query(&ratio)
                    .execution(Execution::Parallel { threads: 0 })
                    .run()
                    .result_size()
            })
        });
    }
    set_num_threads(0);

    group.finish();
}

criterion_group!(benches, bench_parallel_flat);
criterion_main!(benches);
