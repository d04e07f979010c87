//! The KDTT+/B&B crossover grid: on the shapes that decide Auto, how long
//! each kernel takes, how much work it does and what Auto picks.
//!
//! Grid: IND/ANTI/CORR × d ∈ {4, 8} × {WR c = 1, WR c = 3, IM c = 3 (seed 1)}
//! at the serving benchmark's union size (1,000 objects of up to 16
//! instances, region 0.2, half of the objects partial, seed 7). Each cell
//! runs KDTT+, B&B and Auto sequentially on one warm `ArspEngine`, the timed
//! runs in rotation, and takes the kernel time (`run_time`) of every run.
//! Per cell it records each kernel's median and quartiles, the rskyline
//! size, the kd zero certificate's count and cost, KDTT+'s `fdom_tests` and
//! `nodes_visited`, B&B's `nodes_visited` and `window_queries`, Auto's pick
//! and Auto's regret (Auto's median ÷ the faster kernel's median).
//!
//! ```sh
//! cargo bench -p arsp-bench --bench crossover -- \
//!     --file ../../BENCH_crossover.json --key change --rev <rev>
//! ```
//!
//! prints one line per cell and, with `--file`, replaces block `--key` of
//! that JSON file (its other blocks are kept) with the cells, `nproc` and
//! `--rev`. Runs in about 15 s on two cores.

use std::time::{Duration, Instant};

use arsp_core::algorithms::kd_asp::{zero_certificate, KdScratch};
use arsp_core::{
    ArspEngine, Execution, FlatScorePoints, QueryAlgorithm, QueryCounters, ScoreMatrix,
};
use arsp_data::{im_constraints, Distribution, FlatStore, SyntheticConfig, UncertainDataset};
use arsp_geometry::fdom::LinearFDominance;
use arsp_geometry::ConstraintSet;

/// Timed runs per kernel and cell, after one warm-up run.
const RUNS: usize = 9;

fn dataset(distribution: Distribution, dim: usize) -> UncertainDataset {
    SyntheticConfig {
        num_objects: 1000,
        max_instances: 16,
        dim,
        region_length: 0.2,
        phi: 0.5,
        distribution,
        seed: 7,
    }
    .generate()
}

/// The points the zero certificate flags in the cell, and the median time
/// of computing it on a warm scratch, in ms. An `Option` so that the same
/// bench, built against a revision without the certificate, records
/// `null` there.
fn certified(dataset: &UncertainDataset, constraints: &ConstraintSet) -> Option<(usize, f64)> {
    let flat = FlatStore::from_dataset(dataset);
    let scores = ScoreMatrix::compute(&flat, &LinearFDominance::from_constraints(constraints));
    let mut scratch = KdScratch::new();
    let mut certify = || {
        let start = Instant::now();
        let zero = zero_certificate(
            FlatScorePoints::new(&flat, &scores),
            flat.num_objects(),
            &mut scratch,
        );
        (zero.iter().filter(|&&z| z).count(), start.elapsed())
    };
    let (count, _) = certify();
    let mut times: Vec<Duration> = (0..RUNS).map(|_| certify().1).collect();
    Some((count, spread(&mut times).median))
}

/// Median and quartiles of one kernel's run times, in ms.
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

fn spread(times: &mut [Duration]) -> Spread {
    times.sort();
    let ms = |i: usize| times[i].as_secs_f64() * 1e3;
    let n = times.len();
    Spread {
        median: ms(n / 2),
        q1: ms(n / 4),
        q3: ms(3 * n / 4),
    }
}

/// One kernel in one cell: its timing spread, counters and pick.
struct Side {
    time: Spread,
    counters: QueryCounters,
    picked: QueryAlgorithm,
    result_size: usize,
}

/// Runs `algorithms` on one warm engine, the timed runs in rotation so that
/// a slow phase of the host slows every kernel alike.
fn measure<const K: usize>(
    engine: &ArspEngine,
    constraints: &ConstraintSet,
    algorithms: [QueryAlgorithm; K],
) -> [Side; K] {
    let run = |algorithm: QueryAlgorithm, stats: bool| {
        engine
            .query(constraints)
            .algorithm(algorithm)
            .execution(Execution::Sequential)
            .collect_stats(stats)
            .run()
    };
    let counted = algorithms.map(|algorithm| run(algorithm, true));
    let mut times = [(); K].map(|_| Vec::with_capacity(RUNS));
    for _ in 0..RUNS {
        for (algorithm, times) in algorithms.iter().zip(&mut times) {
            times.push(run(*algorithm, false).run_time());
        }
    }
    let mut times = times.into_iter();
    counted.map(|outcome| Side {
        time: spread(&mut times.next().expect("one per algorithm")),
        counters: outcome.counters().expect("stats requested"),
        picked: outcome.algorithm(),
        result_size: outcome.result_size(),
    })
}

fn side_json(side: &Side) -> String {
    format!(
        "{{\"median_ms\": {:.3}, \"q1_ms\": {:.3}, \"q3_ms\": {:.3}}}",
        side.time.median, side.time.q1, side.time.q3
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let mut cells = Vec::new();
    for (dist_name, distribution) in [
        ("IND", Distribution::Independent),
        ("ANTI", Distribution::AntiCorrelated),
        ("CORR", Distribution::Correlated),
    ] {
        for dim in [4usize, 8] {
            let data = dataset(distribution, dim);
            let engine = ArspEngine::new(data.clone());
            for (region, constraints) in [
                ("WR c=1", ConstraintSet::weak_ranking(dim, 1)),
                ("WR c=3", ConstraintSet::weak_ranking(dim, 3)),
                ("IM c=3", im_constraints(dim, 3, 1)),
            ] {
                let d_prime = LinearFDominance::from_constraints(&constraints).num_vertices();
                let [kd, bnb, auto] = measure(
                    &engine,
                    &constraints,
                    [
                        QueryAlgorithm::KdttPlus,
                        QueryAlgorithm::BranchAndBound,
                        QueryAlgorithm::Auto,
                    ],
                );
                let best = kd.time.median.min(bnb.time.median);
                let regret = auto.time.median / best;
                let certified = certified(&data, &constraints);
                let cert_text =
                    certified.map_or("-".to_string(), |(c, ms)| format!("{c} ({ms:.3} ms)"));
                println!(
                    "{dist_name:>4} d={dim} {region} d'={d_prime:>2} n={} rsky={:>4} \
                     cert={cert_text} kdtt+ {:>8.3} ms [{:.3}, {:.3}] fdom={} nodes={} \
                     | b&b {:>8.3} ms [{:.3}, {:.3}] nodes={} windows={} \
                     | auto {} {:>8.3} ms regret {regret:.2}",
                    data.num_instances(),
                    kd.result_size,
                    kd.time.median,
                    kd.time.q1,
                    kd.time.q3,
                    kd.counters.fdom_tests,
                    kd.counters.nodes_visited,
                    bnb.time.median,
                    bnb.time.q1,
                    bnb.time.q3,
                    bnb.counters.nodes_visited,
                    bnb.counters.window_queries,
                    auto.picked.name(),
                    auto.time.median,
                );
                cells.push(format!(
                    "{{\"dist\": \"{dist_name}\", \"d\": {dim}, \"region\": \"{region}\", \
                     \"d_prime\": {d_prime}, \"instances\": {}, \"rskyline\": {}, \
                     \"certified\": {}, \"certificate_ms\": {}, \"kdtt_plus\": {}, \"kdtt_plus_fdom_tests\": {}, \
                     \"kdtt_plus_nodes_visited\": {}, \"bnb\": {}, \"bnb_nodes_visited\": {}, \
                     \"bnb_window_queries\": {}, \"auto_pick\": \"{}\", \"auto\": {}, \
                     \"auto_regret\": {regret:.3}}}",
                    data.num_instances(),
                    kd.result_size,
                    certified.map_or("null".to_string(), |(c, _)| c.to_string()),
                    certified.map_or("null".to_string(), |(_, ms)| format!("{ms:.3}")),
                    side_json(&kd),
                    kd.counters.fdom_tests,
                    kd.counters.nodes_visited,
                    side_json(&bnb),
                    bnb.counters.nodes_visited,
                    bnb.counters.window_queries,
                    auto.picked.name(),
                    side_json(&auto),
                ));
            }
        }
    }
    let Some(file) = arg("--file") else {
        return;
    };
    let key = arg("--key").expect("--file needs --key");
    let rev = arg("--rev").unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let block = format!(
        "\"{key}\": {{\n    \"rev\": \"{rev}\", \"nproc\": {nproc}, \"runs_per_kernel\": {RUNS},\n    \
         \"cells\": [\n      {}\n    ]\n  }}",
        cells.join(",\n      ")
    );
    write_block(&file, &key, &block);
}

/// Replaces (or appends) the top-level block `key` of the JSON object in
/// `file`, which this bench alone writes: one `"key": {...}` block per
/// line-initial `  "key"`.
fn write_block(file: &str, key: &str, block: &str) {
    let old = std::fs::read_to_string(file).unwrap_or_default();
    let mut blocks: Vec<String> = Vec::new();
    let mut current = String::new();
    for line in old.lines() {
        if line == "{" || line == "}" {
            continue;
        }
        if line.starts_with("  \"") && !current.is_empty() {
            blocks.push(std::mem::take(&mut current));
        }
        current.push_str(line);
        current.push('\n');
    }
    if !current.is_empty() {
        blocks.push(current);
    }
    let prefix = format!("  \"{key}\":");
    let mut kept: Vec<String> = blocks
        .into_iter()
        .map(|b| b.trim_end().trim_end_matches(',').to_string())
        .filter(|b| !b.starts_with(&prefix))
        .collect();
    kept.push(format!("  {block}"));
    std::fs::write(file, format!("{{\n{}\n}}\n", kept.join(",\n"))).expect("write BENCH file");
}
