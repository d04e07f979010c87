//! Tables I & II and Fig. 4 — the effectiveness study on the simulated NBA
//! dataset: top-14 players by rskyline probability (with aggregated-rskyline
//! markers), top-14 by skyline probability, per-vertex score summaries, and
//! the "high skyline rank, low rskyline rank" phenomenon the paper
//! illustrates with Trae Young.
//!
//! Usage: cargo run --release -p arsp-bench --bin table1_table2

use arsp_bench::time;
use arsp_core::effectiveness::{rskyline_ranking, score_summaries, skyline_ranking};
use arsp_core::engine::ArspEngine;
use arsp_core::skyline_probabilities;
use arsp_data::real;
use arsp_geometry::polytope::preference_region_vertices;
use arsp_geometry::ConstraintSet;

fn main() {
    // The paper extracts the 2021 season and keeps rebounds / assists / points;
    // the simulated stand-in keeps the same shape (see README, "Substitutions").
    let engine = ArspEngine::new(real::nba_like(300, 60, 3, 2021));
    let dataset = engine.dataset();
    let constraints = ConstraintSet::weak_ranking(3, 2);

    println!(
        "Effectiveness study on NBA-like data: {} players, {} game records, F = WR(ω1 ≥ ω2 ≥ ω3)",
        dataset.num_objects(),
        dataset.num_instances()
    );

    let (outcome, arsp_time) = time(|| engine.query(&constraints).collect_stats(true).run());
    let (asp, asp_time) = time(|| skyline_probabilities(dataset));
    println!(
        "ARSP via {} in {arsp_time:.3}s ({} work units), ASP in {asp_time:.3}s\n",
        outcome.algorithm().name(),
        outcome.counters().map_or(0, |c| c.total())
    );
    let arsp = outcome.result();

    println!("=== Table I: top-14 players by rskyline probability (* = aggregated rskyline) ===");
    let table1 = rskyline_ranking(dataset, arsp, &constraints, 14);
    for r in &table1 {
        println!(
            "{:>3}. {} {:40} Pr_rsky = {:.3}",
            r.rank,
            if r.in_aggregated_rskyline { "*" } else { " " },
            r.label.as_deref().unwrap_or("?"),
            r.probability
        );
    }

    println!("\n=== Table II: top-14 players by skyline probability ===");
    let table2 = skyline_ranking(dataset, &constraints, 14);
    for r in &table2 {
        println!(
            "{:>3}.   {:40} Pr_sky  = {:.3}",
            r.rank,
            r.label.as_deref().unwrap_or("?"),
            r.probability
        );
    }

    // The Trae Young phenomenon: find the object with the largest rank drop
    // from the skyline ranking to the rskyline ranking.
    let sky_probs = asp.object_probs(dataset);
    let rsky_probs = arsp.object_probs(dataset);
    let rank_of = |probs: &[f64], object: usize| {
        probs.iter().filter(|&&p| p > probs[object] + 1e-12).count() + 1
    };
    let mut worst = (0usize, 0isize);
    for object in 0..dataset.num_objects() {
        let drop = rank_of(&rsky_probs, object) as isize - rank_of(&sky_probs, object) as isize;
        if drop > worst.1 {
            worst = (object, drop);
        }
    }
    println!(
        "\nLargest skyline→rskyline rank drop: {} (skyline rank {}, rskyline rank {}) — \
the paper's Trae Young effect.",
        dataset.object(worst.0).label.as_deref().unwrap_or("?"),
        rank_of(&sky_probs, worst.0),
        rank_of(&rsky_probs, worst.0)
    );

    // Fig. 4: score summaries of the top two Table-I players under every
    // vertex of the preference region.
    let vertices = preference_region_vertices(&constraints);
    println!("\n=== Fig. 4: per-vertex score summaries (lower is better) ===");
    for r in table1.iter().take(2) {
        println!("{}:", r.label.as_deref().unwrap_or("?"));
        for (omega, s) in vertices
            .iter()
            .zip(score_summaries(dataset, r.object, &vertices))
        {
            println!(
                "  ω = {:?}: min {:.3} | q1 {:.3} | med {:.3} | q3 {:.3} | max {:.3} (mean {:.3})",
                omega
                    .iter()
                    .map(|w| (w * 1000.0).round() / 1000.0)
                    .collect::<Vec<_>>(),
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max,
                s.mean
            );
        }
    }
}
