//! LOOP's pair kernel against an independent naive reference, bit for bit.
//!
//! The kernel (`LoopScan::target_prob` in `arsp_core::algorithms::loop_scan`)
//! tests dominance with branch-free column passes over a dimension-major
//! layout. [`naive_loop`] below is the textbook per-instance formula it
//! replaced, kept verbatim as an oracle: for every instance in sort order,
//! scan every earlier instance and every later one up to the first strictly
//! greater key, skip same-object instances, test row dominance with an early
//! exit, and fold `prob · Π (1 − σ_object)` in first-touch order. The kernel
//! must reproduce its probabilities with `f64::to_bits` equality and its
//! F-dominance test count exactly.
//!
//! Inputs are seeded and tie-heavy — equal first-vertex keys, coincident
//! instances across objects, a single object — over n ∈ {0, 1, 63, 64, 65}
//! (the 64-lane boundary) plus the kernel's 256-lane block boundary, and
//! d' ∈ {1, 2, 7}. Every case runs through `arsp_loop_flat_engine`
//! sequentially and on two threads, through the dynamic engine after a
//! mutation (its patched score matrix and order feed the same kernel), and
//! through a standing LOOP subscription refreshed after a mutation.

use arsp::core::algorithms::loop_scan::{
    arsp_loop_flat_engine, instance_order_from_scores, InstanceOrder,
};
use arsp::core::stats::CounterStats;
use arsp::core::ScoreMatrix;
use arsp::data::FlatStore;
use arsp::geometry::fdom::LinearFDominance;
use arsp::geometry::point;
use arsp::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The textbook LOOP scan: probabilities indexed by instance id, plus the
/// number of F-dominance tests it made.
fn naive_loop(flat: &FlatStore, scores: &ScoreMatrix, ord: &InstanceOrder) -> (Vec<f64>, u64) {
    let n = flat.num_instances();
    let mut probs = vec![0.0; n];
    let mut sigma = vec![0.0; flat.num_objects()];
    let mut touched: Vec<usize> = Vec::new();
    let mut tests = 0u64;
    for (pos, &t_id) in ord.order.iter().enumerate() {
        let t_object = flat.object_of(t_id);
        let sv_t = scores.row(t_id);
        touched.clear();
        let mut visit = |s_id: usize| {
            let s_object = flat.object_of(s_id);
            if s_object != t_object {
                tests += 1;
                if point::dominates(scores.row(s_id), sv_t) {
                    if sigma[s_object] == 0.0 {
                        touched.push(s_object);
                    }
                    sigma[s_object] += flat.prob(s_id);
                }
            }
        };
        for &s_id in &ord.order[..pos] {
            visit(s_id);
        }
        for &s_id in &ord.order[pos + 1..] {
            if ord.keys[s_id] > ord.keys[t_id] {
                break;
            }
            visit(s_id);
        }
        let mut prob = flat.prob(t_id);
        for &obj in &touched {
            prob *= 1.0 - sigma[obj];
            sigma[obj] = 0.0;
        }
        probs[t_id] = prob.max(0.0);
    }
    (probs, tests)
}

/// The oracle over a dataset's cold artifacts.
fn oracle(dataset: &UncertainDataset, fdom: &LinearFDominance) -> (Vec<f64>, u64) {
    let flat = FlatStore::from_dataset(dataset);
    let scores = ScoreMatrix::compute(&flat, fdom);
    let order = instance_order_from_scores(&scores);
    naive_loop(&flat, &scores, &order)
}

fn assert_bits(expected: &[f64], got: &[f64], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: length");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        assert_eq!(e.to_bits(), g.to_bits(), "{what}: instance {i}: {e} vs {g}");
    }
}

/// The shapes of tie-heavy input.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Coordinates on a 3-point grid: frequent key ties and repeats.
    Grid,
    /// Coordinate 0 constant: every first-vertex key is equal.
    EqualKeys,
    /// Every instance duplicated into a second object at the same point.
    Coincident,
    /// All instances belong to one object.
    SingleObject,
}

const SHAPES: [Shape; 4] = [
    Shape::Grid,
    Shape::EqualKeys,
    Shape::Coincident,
    Shape::SingleObject,
];

/// A seeded dataset of exactly `n` instances in `dim` dimensions.
fn tie_heavy(shape: Shape, n: usize, dim: usize, seed: u64) -> UncertainDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dataset = UncertainDataset::new(dim);
    let point = |rng: &mut ChaCha8Rng| -> Vec<f64> {
        (0..dim)
            .map(|k| match shape {
                Shape::EqualKeys if k == 0 => 0.5,
                _ => f64::from(rng.gen_range(0..3u8)) / 2.0,
            })
            .collect()
    };
    if let Shape::SingleObject = shape {
        if n > 0 {
            let instances = (0..n).map(|_| (point(&mut rng), 1.0 / n as f64)).collect();
            dataset.push_object(instances);
        }
        return dataset;
    }
    let mut left = n;
    while left > 0 {
        let k = rng.gen_range(1..=4usize).min(left);
        let mut instances: Vec<(Vec<f64>, f64)> = (0..k)
            .map(|_| (point(&mut rng), rng.gen_range(0.05..1.0) / k as f64))
            .collect();
        if let Shape::Coincident = shape {
            if left >= 2 * k {
                // A twin object at the same points, with other masses.
                let twin = instances
                    .iter()
                    .map(|(c, _)| (c.clone(), rng.gen_range(0.05..1.0) / k as f64))
                    .collect();
                dataset.push_object(twin);
                left -= k;
            }
        }
        // Coincident instances inside one object too.
        if k >= 2 && rng.gen_bool(0.5) {
            instances[1].0 = instances[0].0.clone();
        }
        dataset.push_object(instances);
        left -= k;
    }
    assert_eq!(dataset.num_instances(), n);
    dataset
}

/// The constraint set giving `d_prime` preference-region vertices, and the
/// dimension it lives in.
fn region(d_prime: usize) -> ConstraintSet {
    let cs = match d_prime {
        1 => ConstraintSet::new(1),
        d => ConstraintSet::weak_ranking(d, d - 1),
    };
    assert_eq!(
        LinearFDominance::from_constraints(&cs).num_vertices(),
        d_prime
    );
    cs
}

const SIZES: [usize; 8] = [0, 1, 63, 64, 65, 255, 256, 257];
const D_PRIMES: [usize; 3] = [1, 2, 7];

/// Every (shape, n, d', seed) case with its constraint set.
fn cases() -> Vec<(String, UncertainDataset, ConstraintSet)> {
    let mut out = Vec::new();
    for (s, shape) in SHAPES.into_iter().enumerate() {
        for n in SIZES {
            for d_prime in D_PRIMES {
                let cs = region(d_prime);
                let seed = (s * 1000 + n * 10 + d_prime) as u64;
                let dataset = tie_heavy(shape, n, cs.dim(), seed);
                out.push((format!("{shape:?} n={n} d'={d_prime}"), dataset, cs));
            }
        }
    }
    out
}

#[test]
fn flat_engine_matches_the_naive_scan_sequential_and_on_two_threads() {
    for (what, dataset, cs) in cases() {
        let fdom = LinearFDominance::from_constraints(&cs);
        let (expected, expected_tests) = oracle(&dataset, &fdom);
        let flat = FlatStore::from_dataset(&dataset);
        let scores = ScoreMatrix::compute(&flat, &fdom);
        let order = instance_order_from_scores(&scores);
        let two_threads = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool");
        for parallel in [false, true] {
            let stats = CounterStats::new();
            let got = two_threads.install(|| {
                arsp_loop_flat_engine(
                    &flat,
                    &scores,
                    &order,
                    parallel,
                    Some(&stats),
                    None,
                    None,
                    None,
                )
            });
            let what = format!("{what} parallel={parallel}");
            assert_bits(&expected, got.probs(), &what);
            assert_eq!(stats.snapshot().fdom_tests, expected_tests, "{what}: tests");
        }
    }
}

#[test]
fn engine_queries_match_the_naive_scan() {
    for (what, dataset, cs) in cases() {
        let fdom = LinearFDominance::from_constraints(&cs);
        let (expected, expected_tests) = oracle(&dataset, &fdom);
        let engine = ArspEngine::new(dataset);
        for execution in [Execution::Sequential, Execution::Parallel { threads: 2 }] {
            let outcome = engine
                .query(&cs)
                .algorithm(QueryAlgorithm::Loop)
                .execution(execution)
                .collect_stats(true)
                .run();
            let what = format!("{what} {execution:?}");
            assert_bits(&expected, outcome.result().probs(), &what);
            let counters = outcome.counters().expect("stats requested");
            assert_eq!(counters.fdom_tests, expected_tests, "{what}: tests");
        }
    }
}

/// Mutates a synced engine so the next LOOP query patches its cached order
/// with a delta: new instances (coincident with existing ones and on the grid), a
/// revision and a retired object.
fn mutate(engine: &mut DynamicArspEngine, rng: &mut ChaCha8Rng) {
    let dim = engine.store().dim();
    let live: Vec<usize> = (0..engine.store().num_objects())
        .filter(|&o| !engine.store().object_rows(o).is_empty())
        .collect();
    if live.is_empty() {
        engine.insert_object(None, vec![(vec![0.5; dim], 0.5)]);
        return;
    }
    let copy_row = engine.store().object_rows(live[0])[0] as usize;
    let coords = engine.store().coords_of(copy_row).to_vec();
    engine.insert_object(None, vec![(coords, 0.3)]);
    let grid: Vec<f64> = (0..dim)
        .map(|_| f64::from(rng.gen_range(0..3u8)) / 2.0)
        .collect();
    engine.insert_object(None, vec![(grid.clone(), 0.2), (grid, 0.1)]);
    if live.len() >= 2 {
        let row = engine.store().object_rows(live[1])[0] as usize;
        let handle = engine.store().handle_of_row(row);
        engine.update_instance(handle, &vec![0.0; dim], 0.01);
    }
    if live.len() >= 3 {
        engine.retire_object(live[2]);
    }
}

#[test]
fn dynamic_patched_order_matches_the_naive_scan() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for (what, dataset, cs) in cases() {
        let fdom = LinearFDominance::from_constraints(&cs);
        let mut engine = DynamicArspEngine::from_dataset(&dataset);
        // Warm the caches, then mutate: the query patches the cached
        // order and score matrix forward and runs the static kernel.
        let _ = engine.query(&cs).algorithm(QueryAlgorithm::Loop).run();
        mutate(&mut engine, &mut rng);
        let (expected, expected_tests) = oracle(&engine.snapshot_dataset(), &fdom);
        for execution in [Execution::Sequential, Execution::Parallel { threads: 2 }] {
            let outcome = engine
                .query(&cs)
                .algorithm(QueryAlgorithm::Loop)
                .execution(execution)
                .collect_stats(true)
                .run();
            let what = format!("{what} {execution:?}");
            assert_bits(&expected, outcome.result().probs(), &what);
            let counters = outcome.counters().expect("stats requested");
            assert_eq!(counters.fdom_tests, expected_tests, "{what}: tests");
        }
    }
}

#[test]
fn standing_refresh_matches_the_naive_scan() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for (what, dataset, cs) in cases() {
        let fdom = LinearFDominance::from_constraints(&cs);
        let mut engine = DynamicArspEngine::from_dataset(&dataset);
        let sub = engine.subscribe(StandingSpec::constraints(&cs).algorithm(QueryAlgorithm::Loop));
        mutate(&mut engine, &mut rng);
        engine.refresh_standing();

        let (expected, _) = oracle(&engine.snapshot_dataset(), &fdom);
        let maintained = sub.maintained();
        assert_eq!(maintained.len(), expected.len(), "{what}: result size");
        for (handle, prob) in maintained {
            let s = engine
                .snapshot_id(handle)
                .expect("maintained handles are live");
            assert_eq!(
                expected[s].to_bits(),
                prob.to_bits(),
                "{what}: snapshot instance {s}"
            );
        }
    }
}
