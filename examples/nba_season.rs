//! The effectiveness study of §V-B, rebuilt on the simulated NBA-like
//! dataset: Table I (top players by rskyline probability), Table II (top
//! players by skyline probability) and the Fig. 4 style score summaries.
//!
//! Players are uncertain objects, every game log is an instance with
//! probability `1/|games|`, and the analyst's preference is the weak ranking
//! `ω_rebound ≥ ω_assist ≥ ω_points` used in the paper.
//!
//! Run with `cargo run --release --example nba_season`.

use arsp::core::effectiveness::{rskyline_ranking, score_summaries, skyline_ranking};
use arsp::data::real;
use arsp::geometry::polytope::preference_region_vertices;
use arsp::prelude::*;

fn main() {
    // 150 players, 60 games each, 3 metrics (stand-ins for rebounds, assists,
    // points; see README, "Substitutions", for the real-data stand-in). The
    // engine owns the season and serves every analysis query below.
    let engine = ArspEngine::new(real::nba_like(150, 60, 3, 2021));
    let dataset = engine.dataset();
    let constraints = ConstraintSet::weak_ranking(3, 2);

    let outcome = engine.query(&constraints).collect_stats(true).run();
    println!(
        "ARSP via {} in {:?} ({} dominance tests)\n",
        outcome.algorithm().name(),
        outcome.total_time(),
        outcome.counters().map_or(0, |c| c.total())
    );
    let arsp = outcome.result();

    println!("=== Table I analogue: top-14 players by rskyline probability ===");
    println!("(players marked * are in the aggregated rskyline)\n");
    let table1 = rskyline_ranking(dataset, arsp, &constraints, 14);
    for row in &table1 {
        println!(
            "  {:>2}. {} {:38} Pr_rsky = {:.3}",
            row.rank,
            if row.in_aggregated_rskyline { "*" } else { " " },
            row.label.as_deref().unwrap_or("?"),
            row.probability
        );
    }

    println!("\n=== Table II analogue: top-14 players by skyline probability ===\n");
    let table2 = skyline_ranking(dataset, &constraints, 14);
    for row in &table2 {
        println!(
            "  {:>2}. {:40} Pr_sky = {:.3}",
            row.rank,
            row.label.as_deref().unwrap_or("?"),
            row.probability
        );
    }

    // The paper's observations, checked programmatically:
    // 1. rskyline probabilities are never larger than skyline probabilities,
    let asp = skyline_probabilities(dataset);
    let max_violation = (0..dataset.num_instances())
        .map(|id| arsp.instance_prob(id) - asp.instance_prob(id))
        .fold(f64::MIN, f64::max);
    println!("\nLargest Pr_rsky − Pr_sky over all instances: {max_violation:.2e} (never positive)");

    // 2. the two rankings overlap on the consistently strong players but are
    //    not identical (the paper's Trae Young example).
    let t1: Vec<usize> = table1.iter().map(|r| r.object).collect();
    let t2: Vec<usize> = table2.iter().map(|r| r.object).collect();
    let overlap = t1.iter().filter(|o| t2.contains(o)).count();
    println!("Overlap between the two top-14 rankings: {overlap} players");

    // Fig. 4 analogue: score summaries of the top player under each vertex of
    // the preference region.
    let vertices = preference_region_vertices(&constraints);
    let star = table1[0].object;
    println!(
        "\n=== Fig. 4 analogue: score distribution of {} under each vertex ===",
        dataset.object(star).label.as_deref().unwrap_or("?")
    );
    for (omega, summary) in vertices
        .iter()
        .zip(score_summaries(dataset, star, &vertices))
    {
        println!(
            "  ω = {:?}: min {:.3}  q1 {:.3}  median {:.3}  q3 {:.3}  max {:.3}  (mean {:.3})",
            omega
                .iter()
                .map(|w| (w * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            summary.min,
            summary.q1,
            summary.median,
            summary.q3,
            summary.max,
            summary.mean
        );
    }
}
