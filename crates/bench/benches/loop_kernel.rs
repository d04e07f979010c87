//! Micro-benchmark: LOOP's pair kernel alone, sequential, at the serving
//! benchmark's shard size and at the size of its four-shard union.
//!
//! Each row runs [`arsp_loop_flat_engine`] over a prebuilt `FlatStore`,
//! `ScoreMatrix` and `InstanceOrder` with a warm `LoopScratch`, as the
//! engines and the standing refresh do, so it times the scan (layout gather
//! plus the O(n²) pair kernel) and nothing else. The dataset has the serving
//! benchmark's shape (up to 16 instances per object in d = 4, half of the
//! objects partial); 240 objects give n = 1,880 instances (one shard, about
//! 1.85k), 1000 objects give n = 7,866 (the union). The preference regions
//! are the first IM users with d' = 4, 6 and 8 vertices. Numbers are
//! recorded in EXPERIMENTS.md and `BENCH_loop_kernel.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use arsp_core::algorithms::loop_scan::{
    arsp_loop_flat_engine, instance_order_from_scores, LoopScratch,
};
use arsp_core::ScoreMatrix;
use arsp_data::{im_constraints, FlatStore, SyntheticConfig};
use arsp_geometry::fdom::LinearFDominance;

fn flat(num_objects: usize) -> FlatStore {
    FlatStore::from_dataset(
        &SyntheticConfig {
            num_objects,
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

/// The first IM user (3 constraints, d = 4) whose region has `d_prime`
/// vertices.
fn region(d_prime: usize) -> LinearFDominance {
    (0u64..)
        .map(|seed| LinearFDominance::from_constraints(&im_constraints(4, 3, seed)))
        .find(|fdom| fdom.num_vertices() == d_prime)
        .expect("some IM user has this many vertices")
}

fn bench_loop_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("loop_kernel");
    group.sample_size(10);

    for (size, num_objects) in [("shard", 240usize), ("union", 1000)] {
        let flat = flat(num_objects);
        for d_prime in [4usize, 6, 8] {
            let scores = ScoreMatrix::compute(&flat, &region(d_prime));
            let order = instance_order_from_scores(&scores);
            let mut scratch = LoopScratch::default();
            group.bench_function(format!("{size}/d{d_prime}"), |b| {
                b.iter(|| {
                    arsp_loop_flat_engine(
                        &flat,
                        &scores,
                        &order,
                        false,
                        None,
                        Some(&mut scratch),
                        None,
                        None,
                    )
                    .result_size()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_loop_kernel);
criterion_main!(benches);
