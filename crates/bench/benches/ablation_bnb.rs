//! Ablation benchmark: B&B with and without the Theorem-4 pruning set `P`,
//! and with a narrow vs wide preference region (which controls how much the
//! pruning set can help) — the design-choice ablation README's
//! "Substitutions" section names.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use arsp_core::algorithms::bnb::{arsp_bnb_engine, arsp_bnb_without_pruning};
use arsp_data::{Distribution, SyntheticConfig};
use arsp_geometry::fdom::LinearFDominance;
use arsp_geometry::ConstraintSet;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bnb");
    group.sample_size(10);

    for (label, dist) in [
        ("IND", Distribution::Independent),
        ("CORR", Distribution::Correlated),
    ] {
        let dataset = SyntheticConfig {
            num_objects: 400,
            max_instances: 6,
            dim: 3,
            region_length: 0.2,
            phi: 0.0,
            distribution: dist,
            seed: 11,
        }
        .generate();
        let fdom = LinearFDominance::from_constraints(&ConstraintSet::weak_ranking(3, 2));

        group.bench_with_input(
            BenchmarkId::new("with_pruning_set", label),
            &dataset,
            |b, d| {
                b.iter(|| {
                    arsp_bnb_engine(black_box(d), &fdom, None, None, false, None, None, None)
                        .result_size()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("without_pruning_set", label),
            &dataset,
            |b, d| b.iter(|| arsp_bnb_without_pruning(black_box(d), &fdom).result_size()),
        );
    }

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
