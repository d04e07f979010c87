//! Quickstart: compute all restricted skyline probabilities on the paper's
//! running example and on a small synthetic dataset, through the
//! session-oriented [`ArspEngine`] API.
//!
//! Run with `cargo run --release --example quickstart`.

use arsp::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. The paper's running example (Fig. 1 / Example 1): four uncertain
    //    objects with ten instances in two dimensions, and the preference
    //    "attribute 1 is between half and twice as important as attribute 2".
    // ------------------------------------------------------------------
    let engine = ArspEngine::new(paper_running_example());
    let ratio = WeightRatio::uniform(2, 0.5, 2.0);
    let constraints = ratio.to_constraint_set();

    // `Auto` picks the algorithm (LOOP here — ten instances are tiny) and the
    // outcome reports the decision.
    let outcome = engine.query(&constraints).run();
    println!(
        "Paper running example ({} objects, {} instances)",
        engine.dataset().num_objects(),
        engine.dataset().num_instances()
    );
    println!(
        "  algorithm: {} (auto-selected: {})",
        outcome.algorithm().name(),
        outcome.selection_reason().unwrap_or("forced")
    );
    for (object, instance, prob) in outcome.iter_probs() {
        let inst = engine.dataset().instance(instance);
        println!(
            "  instance t{},{}  at {:?}  p = {:.3}  Pr_rsky = {prob:.4}",
            object + 1,
            engine
                .dataset()
                .object(object)
                .instance_ids
                .iter()
                .position(|&id| id == instance)
                .unwrap()
                + 1,
            inst.coords,
            inst.prob,
        );
    }
    println!(
        "  Pr_rsky(T1) = {:.4} (the paper reports 2/9 ≈ 0.2222)",
        outcome.object_prob(0)
    );

    // Every algorithm agrees; ratio queries unlock the DUAL algorithm.
    let dual = engine.ratio_query(&ratio).run();
    let bnb = engine
        .query(&constraints)
        .algorithm(QueryAlgorithm::BranchAndBound)
        .run();
    assert_eq!(dual.algorithm().name(), "DUAL");
    assert!(outcome.result().approx_eq(dual.result(), 1e-9));
    assert!(outcome.result().approx_eq(bnb.result(), 1e-9));
    println!(
        "  {} (auto), B&B and DUAL agree to 1e-9.\n",
        outcome.algorithm().name()
    );

    // ------------------------------------------------------------------
    // 2. A synthetic workload: 2,000 objects, up to 8 instances each, three
    //    attributes, weak-ranking preferences. One engine serves repeated
    //    queries; the second run of the same constraints skips every index
    //    build.
    // ------------------------------------------------------------------
    let engine = ArspEngine::new(
        SyntheticConfig {
            num_objects: 2_000,
            max_instances: 8,
            dim: 3,
            region_length: 0.2,
            phi: 0.1,
            distribution: Distribution::Independent,
            seed: 42,
        }
        .generate(),
    );
    let constraints = ConstraintSet::weak_ranking(3, 2);

    let outcome = engine
        .query(&constraints)
        .top_k(5)
        .collect_stats(true)
        .run();

    println!(
        "Synthetic IND dataset: m = {}, n = {}, d = 3, WR constraints (c = 2)",
        engine.dataset().num_objects(),
        engine.dataset().num_instances()
    );
    println!(
        "  {} finished in {:?} (build {:?} + run {:?}); |ARSP| = {} instances",
        outcome.algorithm().name(),
        outcome.total_time(),
        outcome.build_time(),
        outcome.run_time(),
        outcome.result_size()
    );
    if let Some(counters) = outcome.counters() {
        println!(
            "  work: {} dominance tests, {} tree nodes visited",
            counters.fdom_tests, counters.nodes_visited
        );
    }
    println!("  Top-5 objects by rskyline probability:");
    for &(object, prob) in outcome.top_objects().unwrap() {
        println!("    object {object:4}  Pr_rsky = {prob:.4}");
    }

    // The same query again: every shared structure is served from the cache.
    let again = engine.query(&constraints).run();
    let stats = engine.serving_stats();
    println!(
        "  repeat query: build {:?} (cache: {} hits, {} misses)",
        again.build_time(),
        stats.cache_hits,
        stats.shared_builds
    );
    assert_eq!(outcome.result().probs(), again.result().probs());
}
