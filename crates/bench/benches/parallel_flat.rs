//! Micro-benchmark: the parallel twins versus the warm engine's sequential
//! path, at two dataset sizes and explicit widths.
//!
//! * **small** (rows without a prefix) — 300 objects, about 900 instances,
//!   at widths 1, 2 and 4;
//! * **union** (rows prefixed `union/`) — the serving benchmark's dataset
//!   shape: 1,000 objects of up to 16 instances in d = 4 (independent,
//!   region length 0.2, φ = 0.5), 7,866 instances, at width 2.
//!
//! Per size and algorithm:
//!
//! * **flat_seq** — warm [`ArspEngine`] queries under
//!   `Execution::Sequential`, the baseline the parallel speedups in
//!   `BENCH_parallel_flat.json` are reported against;
//! * **flat_par/t<w>** — the same queries under
//!   `Execution::Parallel { threads: w }`: cached `FlatStore` +
//!   `ScoreMatrix`, the parallel twins, pooled per-query and per-worker
//!   arenas.
//!
//! Results are bitwise identical across all variants — enforced by
//! `tests/engine_agreement.rs` and `tests/parallel_agreement.rs`; numbers
//! are recorded in EXPERIMENTS.md and `BENCH_parallel_flat.json`.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};

use arsp_core::engine::{ArspEngine, Execution, QueryAlgorithm};
use arsp_data::SyntheticConfig;
use arsp_geometry::constraints::WeightRatio;
use arsp_geometry::ConstraintSet;

const ALGORITHMS: [(&str, QueryAlgorithm); 4] = [
    ("loop", QueryAlgorithm::Loop),
    ("kdtt_plus", QueryAlgorithm::KdttPlus),
    ("qdtt_plus", QueryAlgorithm::QdttPlus),
    ("bnb", QueryAlgorithm::BranchAndBound),
];

/// WR constraint sweep (c = 1..=3), as in the paper's Fig. 5(p)–(q); both
/// datasets cross the kd twins' parallel node threshold.
fn sweep() -> Vec<ConstraintSet> {
    (1..=3).map(|c| ConstraintSet::weak_ranking(4, c)).collect()
}

/// Times the sweep (and the DUAL ratio query) on a warm engine over
/// `config`, sequentially and at each of `widths`. Row ids start with
/// `prefix`.
fn bench_size(
    group: &mut BenchmarkGroup<'_>,
    prefix: &str,
    config: SyntheticConfig,
    widths: &[usize],
) {
    let engine = ArspEngine::new(config.generate());
    let constraint_sweep = sweep();
    let ratio = WeightRatio::uniform(4, 0.5, 2.0);
    let executions: Vec<(String, Execution)> =
        std::iter::once(("flat_seq".into(), Execution::Sequential))
            .chain(widths.iter().map(|&threads| {
                (
                    format!("flat_par/t{threads}"),
                    Execution::Parallel { threads },
                )
            }))
            .collect();

    // Warm engine: every cache and arena pool is populated before
    // measurement, so the rows time the flat hot paths alone.
    for (_, execution) in &executions {
        for cs in &constraint_sweep {
            for (_, algo) in ALGORITHMS {
                let _ = engine.query(cs).algorithm(algo).execution(*execution).run();
            }
        }
        let _ = engine.ratio_query(&ratio).execution(*execution).run();
    }

    for (mode, execution) in &executions {
        for (name, algo) in ALGORITHMS {
            group.bench_function(format!("{prefix}{name}/{mode}"), |b| {
                b.iter(|| {
                    constraint_sweep
                        .iter()
                        .map(|cs| {
                            engine
                                .query(cs)
                                .algorithm(algo)
                                .execution(*execution)
                                .run()
                                .result_size()
                        })
                        .sum::<usize>()
                })
            });
        }
        group.bench_function(format!("{prefix}dual/{mode}"), |b| {
            b.iter(|| {
                engine
                    .ratio_query(&ratio)
                    .execution(*execution)
                    .run()
                    .result_size()
            })
        });
    }
}

fn bench_parallel_flat(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_flat");
    group.sample_size(10);
    bench_size(
        &mut group,
        "",
        SyntheticConfig {
            num_objects: 300,
            max_instances: 5,
            dim: 4,
            region_length: 0.25,
            phi: 0.1,
            seed: 23,
            ..SyntheticConfig::default()
        },
        &[1, 2, 4],
    );
    bench_size(
        &mut group,
        "union/",
        SyntheticConfig {
            num_objects: 1000,
            max_instances: 16,
            dim: 4,
            region_length: 0.2,
            phi: 0.5,
            seed: 7,
            ..SyntheticConfig::default()
        },
        &[2],
    );
    group.finish();
}

criterion_group!(benches, bench_parallel_flat);
criterion_main!(benches);
