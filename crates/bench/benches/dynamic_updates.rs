//! Micro-benchmark: the dynamic dataset subsystem under churn.
//!
//! Two questions, both against the alternative the dynamic engine replaces —
//! throwing the engine away and rebuilding it cold on the mutated snapshot:
//!
//! * **update throughput** — how fast the versioned store absorbs a stream
//!   of overwrites (tombstone + delta append + cache bookkeeping), with an
//!   explicit `merge_now` folding the delta back in after every batch;
//! * **query latency under churn** — the cost of `(mutate a δ-row batch,
//!   query, fold)` cycles at delta fractions ≈ {1 %, 5 %, 20 %} of the live
//!   rows, for LOOP (patched score matrix + order), KDTT+ (patched score
//!   matrix + flat store) and DUAL (per-object index rebuilt from the
//!   patched flat snapshot), each running the same flat kernel on both
//!   sides: measured on the warm dynamic engine (`dyn`, with the fold
//!   charged to every cycle — a conservative upper bound) and as a cold rebuild per cycle (`cold` —
//!   `ArspEngine::new(snapshot)` plus the query, which is what reflecting a
//!   mutation used to require).
//!
//! Results agree bitwise between the two columns at every cycle — that is
//! the `dynamic_agreement` suite's contract; this bench only times it.
//! Numbers are recorded in `BENCH_dynamic_updates.json` and EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use arsp_core::dynamic::DynamicArspEngine;
use arsp_core::engine::{ArspEngine, QueryAlgorithm};
use arsp_data::{InstanceHandle, SyntheticConfig, UncertainDataset, VersionedStore};
use arsp_geometry::constraints::WeightRatio;
use arsp_geometry::ConstraintSet;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn dataset() -> UncertainDataset {
    SyntheticConfig {
        num_objects: 300,
        max_instances: 5,
        dim: 3,
        region_length: 0.3,
        phi: 0.5, // probability slack so revisions always fit the budget
        seed: 41,
        ..SyntheticConfig::default()
    }
    .generate()
}

/// A deterministic stream of revision targets over the live instances.
struct Churn {
    rng: ChaCha8Rng,
    handles: Vec<InstanceHandle>,
}

impl Churn {
    fn new(store: &VersionedStore) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(7),
            handles: (0..store.num_rows())
                .filter(|&r| store.is_live(r))
                .map(|r| store.handle_of_row(r))
                .collect(),
        }
    }

    /// One revision: nudge a random live instance's coordinates and rescale
    /// its probability within the owner's remaining budget.
    fn revise(&mut self, apply: &mut dyn FnMut(InstanceHandle, Vec<f64>, f64) -> bool) {
        loop {
            let handle = self.handles[self.rng.gen_range(0..self.handles.len())];
            let drift: f64 = self.rng.gen_range(-0.02..0.02);
            let scale: f64 = self.rng.gen_range(0.7..1.2);
            if apply(handle, vec![drift; 3], scale) {
                return;
            }
        }
    }
}

/// Applies one revision to a store; returns false when the picked handle is
/// unusable (dead — cannot happen here, but keeps the closure total).
fn revise_store(
    store_read: &VersionedStore,
    handle: InstanceHandle,
    drift: &[f64],
    scale: f64,
) -> Option<(Vec<f64>, f64)> {
    let row = store_read.row_of(handle)?;
    let coords: Vec<f64> = store_read
        .coords_of(row)
        .iter()
        .zip(drift)
        .map(|(c, d)| (c + d).clamp(0.0, 1.0))
        .collect();
    let object = store_read.object_of(row);
    let slack = 1.0 - (store_read.live_total_prob(object) - store_read.prob(row));
    let prob = (store_read.prob(row) * scale).clamp(1e-4, slack.max(1e-4));
    Some((coords, prob))
}

fn bench_dynamic_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_updates");
    group.sample_size(10);

    let base = dataset();
    let n = base.num_instances();
    let constraints = ConstraintSet::weak_ranking(3, 2);
    let ratio = WeightRatio::uniform(3, 0.5, 2.0);

    // ---- update throughput ------------------------------------------------
    // Batches of 100 overwrites against a warm engine, each ending in a
    // `merge_now` that keeps the state bounded (the engine never compacts
    // on its own; the compaction is inside the measured time).
    {
        let mut engine = DynamicArspEngine::from_dataset(&base);
        let _ = engine.query(&constraints).run(); // warm the caches
        let mut churn = Churn::new(engine.store());
        group.bench_function("updates/overwrite_x100", |b| {
            b.iter(|| {
                for _ in 0..100 {
                    churn.revise(&mut |handle, drift, scale| match revise_store(
                        engine.store(),
                        handle,
                        &drift,
                        scale,
                    ) {
                        Some((coords, prob)) => {
                            engine.update_instance(handle, &coords, prob);
                            true
                        }
                        None => false,
                    });
                }
                engine.merge_now();
                black_box(engine.version())
            })
        });
    }

    // ---- query latency under churn ---------------------------------------
    // One cycle = δ overwrites + one query + (dyn only) the fold. The
    // explicit per-cycle `merge_now` pins the delta the query fuses at
    // exactly the labeled fraction and keeps state bounded across
    // criterion iterations; the fold
    // cost is charged to the dyn side, making its numbers a conservative
    // upper bound. `cold` rebuilds an engine on the mutated snapshot every
    // cycle — what the same workload cost before this subsystem existed.
    for (label, delta_rows) in [("d1pct", n / 100), ("d5pct", n / 20), ("d20pct", n / 5)] {
        for (algo_label, algorithm) in [
            ("loop", QueryAlgorithm::Loop),
            ("kdtt_plus", QueryAlgorithm::KdttPlus),
        ] {
            let mut engine = DynamicArspEngine::from_dataset(&base);
            let _ = engine.query(&constraints).algorithm(algorithm).run();
            let mut churn = Churn::new(engine.store());
            group.bench_function(format!("churn/{algo_label}/dyn/{label}"), |b| {
                b.iter(|| {
                    for _ in 0..delta_rows {
                        churn.revise(&mut |handle, drift, scale| match revise_store(
                            engine.store(),
                            handle,
                            &drift,
                            scale,
                        ) {
                            Some((coords, prob)) => {
                                engine.update_instance(handle, &coords, prob);
                                true
                            }
                            None => false,
                        });
                    }
                    let size = engine
                        .query(&constraints)
                        .algorithm(algorithm)
                        .run()
                        .result_size();
                    // The cycle ends with the fold, so
                    // the query above really saw a delta of the labeled
                    // fraction and state stays bounded across iterations;
                    // the fold's cost is charged to the dyn side.
                    engine.merge_now();
                    size
                })
            });

            let mut store = VersionedStore::from_dataset(&base);
            let mut churn = Churn::new(&store);
            group.bench_function(format!("churn/{algo_label}/cold/{label}"), |b| {
                b.iter(|| {
                    for _ in 0..delta_rows {
                        churn.revise(&mut |handle, drift, scale| match revise_store(
                            &store, handle, &drift, scale,
                        ) {
                            Some((coords, prob)) => {
                                store.update_instance(handle, &coords, prob);
                                true
                            }
                            None => false,
                        });
                    }
                    let cold = ArspEngine::new(store.snapshot_dataset());
                    cold.query(&constraints)
                        .algorithm(algorithm)
                        .run()
                        .result_size()
                })
            });
        }

        // DUAL: the index rebuilt over the patched flat snapshot vs a cold
        // engine build.
        {
            let mut engine = DynamicArspEngine::from_dataset(&base);
            let _ = engine.ratio_query(&ratio).run();
            let mut churn = Churn::new(engine.store());
            group.bench_function(format!("churn/dual/dyn/{label}"), |b| {
                b.iter(|| {
                    for _ in 0..delta_rows {
                        churn.revise(&mut |handle, drift, scale| match revise_store(
                            engine.store(),
                            handle,
                            &drift,
                            scale,
                        ) {
                            Some((coords, prob)) => {
                                engine.update_instance(handle, &coords, prob);
                                true
                            }
                            None => false,
                        });
                    }
                    let size = engine.ratio_query(&ratio).run().result_size();
                    engine.merge_now();
                    size
                })
            });

            let mut store = VersionedStore::from_dataset(&base);
            let mut churn = Churn::new(&store);
            group.bench_function(format!("churn/dual/cold/{label}"), |b| {
                b.iter(|| {
                    for _ in 0..delta_rows {
                        churn.revise(&mut |handle, drift, scale| match revise_store(
                            &store, handle, &drift, scale,
                        ) {
                            Some((coords, prob)) => {
                                store.update_instance(handle, &coords, prob);
                                true
                            }
                            None => false,
                        });
                    }
                    let cold = ArspEngine::new(store.snapshot_dataset());
                    cold.ratio_query(&ratio).run().result_size()
                })
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench_dynamic_updates);
criterion_main!(benches);
