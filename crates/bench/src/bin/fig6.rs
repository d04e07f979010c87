//! Fig. 6 — running time and |ARSP| on the (simulated) real datasets:
//! IIP, CAR and NBA with a varying sample fraction m%, plus the NBA sweeps
//! over d and c.
//!
//! Usage: cargo run --release -p arsp-bench --bin fig6

use arsp_bench::{
    check_consistent_sizes, print_header, print_row, run_figure_algorithms, scale_factor,
    SweepRunner,
};
use arsp_core::engine::ArspEngine;
use arsp_data::{real, UncertainDataset};
use arsp_geometry::ConstraintSet;

/// Sample the first `pct`% of the objects of a dataset (the paper varies m as
/// a percentage of the real dataset).
fn sample_objects(full: &UncertainDataset, pct: usize) -> UncertainDataset {
    let keep = (full.num_objects() * pct).div_ceil(100).max(1);
    let mut out = UncertainDataset::new(full.dim());
    for obj in full.objects().iter().take(keep) {
        let instances = obj
            .instance_ids
            .iter()
            .map(|&id| {
                let inst = full.instance(id);
                (inst.coords.clone(), inst.prob)
            })
            .collect();
        out.push_labeled_object(obj.label.clone(), instances);
    }
    out
}

/// Project a dataset onto its first `d` attributes (the NBA d-sweep).
fn project(full: &UncertainDataset, d: usize) -> UncertainDataset {
    let mut out = UncertainDataset::new(d);
    for obj in full.objects() {
        let instances = obj
            .instance_ids
            .iter()
            .map(|&id| {
                let inst = full.instance(id);
                (inst.coords[..d].to_vec(), inst.prob)
            })
            .collect();
        out.push_labeled_object(obj.label.clone(), instances);
    }
    out
}

fn header() {
    print_header("value", &["LOOP", "KDTT", "KDTT+", "QDTT+", "B&B"]);
}

fn percentage_sweep(name: &str, full: &UncertainDataset, constraints: &ConstraintSet) {
    println!(
        "\n--- Fig. 6: {name} (full scaled size: {} objects, {} instances), vary m% ---",
        full.num_objects(),
        full.num_instances()
    );
    header();
    let mut runner = SweepRunner::default();
    for pct in [20, 40, 60, 80, 100] {
        let engine = ArspEngine::new(sample_objects(full, pct));
        let ms = run_figure_algorithms(&mut runner, &engine, constraints, true);
        check_consistent_sizes(&ms);
        print_row(&format!("m={pct}%"), &ms);
    }
}

fn main() {
    let scale = scale_factor();
    println!("Fig. 6 reproduction — simulated real datasets (see README, Substitutions)");
    println!(
        "scale = 1/{scale}, time limit = {}s",
        arsp_bench::time_limit_secs()
    );

    // (a) IIP: 19,668 sightings, 2 attributes, every object partial.
    let iip = real::iip_like((19_668 / scale).max(100), 1);
    percentage_sweep("IIP-like", &iip, &ConstraintSet::weak_ranking(2, 1));

    // (b) CAR: 184,810 cars grouped into models, 4 attributes. The scaled
    //     version keeps the paper's ~8 cars per model.
    let car_models = (184_810 / 8 / scale).max(50);
    let car = real::car_like(car_models, 8, 2);
    percentage_sweep("CAR-like", &car, &ConstraintSet::weak_ranking(4, 3));

    // (c) NBA: 354,698 game records of 1,878 players, 8 metrics. Scaled by
    //     reducing both the roster and the games per player.
    let players = (1_878 * 4 / scale).max(40);
    let games = (189 * 2 / scale).max(8);
    let nba_full = real::nba_like(players, games, 8, 3);
    let nba3 = project(&nba_full, 4);
    percentage_sweep("NBA-like (d=4)", &nba3, &ConstraintSet::weak_ranking(4, 3));

    // (d) NBA, vary d.
    println!("\n--- Fig. 6(d): NBA-like, vary d ---");
    header();
    let mut runner = SweepRunner::default();
    for d in 2..=8usize {
        let engine = ArspEngine::new(project(&nba_full, d));
        let constraints = ConstraintSet::weak_ranking(d, d - 1);
        let ms = run_figure_algorithms(&mut runner, &engine, &constraints, true);
        check_consistent_sizes(&ms);
        print_row(&format!("d={d}"), &ms);
    }

    // (e) NBA, vary c (d = 8). The dataset is fixed across the sweep, so a
    // single engine carries the B&B R-tree through all seven constraint sets.
    println!("\n--- Fig. 6(e): NBA-like, vary c (d = 8) ---");
    header();
    let mut runner = SweepRunner::default();
    let engine = ArspEngine::new(nba_full);
    for c in 1..=7usize {
        let constraints = ConstraintSet::weak_ranking(8, c);
        let ms = run_figure_algorithms(&mut runner, &engine, &constraints, true);
        check_consistent_sizes(&ms);
        print_row(&format!("c={c}"), &ms);
    }
}
