//! Micro-benchmark: the index operations the kernels run — the instance
//! R-tree bulk load (B&B), the kd-tree build (kd-ASP\*, DUAL-S), aggregated
//! R-tree insertion + window sums (the inner loop of Algorithm 2) and the
//! kd-tree existence query over an F-dominance region (DUAL-S).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use arsp_geometry::constraints::WeightRatio;
use arsp_geometry::fdom::WeightRatioFDominance;
use arsp_index::region::FDominatorsOf;
use arsp_index::{AggregateRTree, FlatEntries, KdTree, RTree};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const DIM: usize = 4;

fn random_entries(n: usize, seed: u64) -> FlatEntries {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut entries = FlatEntries::with_capacity(DIM, n);
    for id in 0..n {
        let weight = rng.gen_range(0.01..1.0);
        let coords: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
        entries.push(id, weight, &coords);
    }
    entries
}

fn bench_indexes(c: &mut Criterion) {
    let mut group = c.benchmark_group("indexes");
    group.sample_size(20);
    let fdom = WeightRatioFDominance::new(WeightRatio::uniform(DIM, 0.5, 2.0));

    for n in [1_000usize, 10_000] {
        let entries = random_entries(n, 3);

        group.bench_with_input(BenchmarkId::new("rtree_bulk_load", n), &entries, |b, e| {
            b.iter(|| RTree::bulk_load_flat(black_box(e.clone())).len())
        });

        group.bench_with_input(BenchmarkId::new("kdtree_build", n), &entries, |b, e| {
            b.iter(|| KdTree::build_flat(black_box(e.clone())).len())
        });

        group.bench_with_input(
            BenchmarkId::new("aggregate_rtree_insert", n),
            &entries,
            |b, e| {
                b.iter(|| {
                    let mut tree = AggregateRTree::new(DIM);
                    for pos in 0..e.len() {
                        tree.insert(e.coords_of(pos), e.weight(pos));
                    }
                    tree.len()
                })
            },
        );

        // Window query throughput against a pre-built aggregated R-tree.
        let mut agg = AggregateRTree::new(DIM);
        for pos in 0..entries.len() {
            agg.insert(entries.coords_of(pos), entries.weight(pos));
        }
        let queries = random_entries(256, 17);
        group.bench_with_input(
            BenchmarkId::new("aggregate_rtree_window_sum", n),
            &queries,
            |b, qs| {
                b.iter(|| {
                    let mut total = 0.0;
                    for pos in 0..qs.len() {
                        total += agg.window_sum(black_box(qs.coords_of(pos)));
                    }
                    total
                })
            },
        );

        // DUAL-S's existence query: does any other indexed point F-dominate
        // this one? Asked for the first 256 indexed points, each skipping
        // itself, against a leaf-size-4 tree as `eclipse_dual_s` builds it.
        let kdtree = KdTree::build_flat_with_leaf_size(entries.clone(), 4);
        group.bench_with_input(BenchmarkId::new("kdtree_any_in", n), &entries, |b, e| {
            b.iter(|| {
                let mut dominated = 0usize;
                for pos in 0..256 {
                    let region = FDominatorsOf::new(&fdom, black_box(e.coords_of(pos)));
                    dominated += usize::from(kdtree.any_in(&region, Some(e.id(pos))));
                }
                dominated
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_indexes);
criterion_main!(benches);
