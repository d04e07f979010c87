//! Micro-benchmark: warm engine queries on the flat columnar layout.
//!
//! **flat_engine** rows time warm [`ArspEngine`] queries: a cached
//! `FlatStore` and `ScoreMatrix` (one `coords · ω` pass per constraint set),
//! arena indexes, `O(d')` score-dominance tests and pooled scratch memory.
//! The vertex enumeration and, for B&B, the instance R-tree are cached too,
//! so each row times the kernel alone. Numbers are recorded in
//! EXPERIMENTS.md and BENCH_flat_layout.json.

use criterion::{criterion_group, criterion_main, Criterion};

use arsp_core::engine::{ArspEngine, QueryAlgorithm};
use arsp_data::SyntheticConfig;
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

/// WR constraint sweep (c = 1..=3), as in the paper's Fig. 5(p)–(q).
fn sweep() -> Vec<ConstraintSet> {
    (1..=3).map(|c| ConstraintSet::weak_ranking(4, c)).collect()
}

const ALGORITHMS: [(&str, QueryAlgorithm); 3] = [
    ("loop", QueryAlgorithm::Loop),
    ("kdtt_plus", QueryAlgorithm::KdttPlus),
    ("bnb", QueryAlgorithm::BranchAndBound),
];

fn bench_flat_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("flat_layout");
    group.sample_size(10);

    let constraint_sweep = sweep();

    // Warm engine: every cache (flat store, score matrices, orders, R-tree)
    // and the scratch pool are populated before measurement, so each row
    // times the flat hot path alone.
    let engine = ArspEngine::new(dataset());
    for cs in &constraint_sweep {
        for (_, algo) in ALGORITHMS {
            let _ = engine.query(cs).algorithm(algo).run();
        }
    }

    for (name, algo) in ALGORITHMS {
        group.bench_function(format!("{name}/flat_engine"), |b| {
            b.iter(|| {
                constraint_sweep
                    .iter()
                    .map(|cs| engine.query(cs).algorithm(algo).run().result_size())
                    .sum::<usize>()
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_flat_layout);
criterion_main!(benches);
