//! Shared harness utilities for the benchmark binaries that regenerate the
//! paper's tables and figures.
//!
//! The binaries (`fig5` … `fig8`, `table1_table2`) print the same series the
//! paper plots: per-algorithm running time plus the size of ARSP for every
//! parameter setting. Absolute scale is controlled by two environment
//! variables so the full sweeps stay laptop-sized (see EXPERIMENTS.md):
//!
//! * `ARSP_BENCH_SCALE` (default 32) — the paper's object counts and instance
//!   counts are divided by this factor,
//! * `ARSP_BENCH_TIME_LIMIT` (default 30 seconds) — an algorithm that exceeds
//!   the limit at one sweep point is reported as `INF` and skipped for the
//!   larger points of that sweep, mirroring the paper's 3,600 s timeout.

#![deny(unsafe_code)]

use std::collections::HashSet;
use std::time::Instant;

use arsp_core::engine::{ArspEngine, QueryAlgorithm};
use arsp_core::result::ArspResult;
use arsp_geometry::ConstraintSet;

/// Reads the workload scale factor from `ARSP_BENCH_SCALE`.
pub fn scale_factor() -> usize {
    std::env::var("ARSP_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(32)
}

/// Reads the per-algorithm time limit (seconds) from `ARSP_BENCH_TIME_LIMIT`.
pub fn time_limit_secs() -> f64 {
    std::env::var("ARSP_BENCH_TIME_LIMIT")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(30.0)
}

/// Measures the wall-clock time of a closure in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// One measurement of one algorithm at one sweep point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Algorithm name as used by the paper.
    pub algorithm: &'static str,
    /// Running time in seconds, or `None` when the algorithm was skipped
    /// (previously exceeded the time limit — printed as `INF`).
    pub seconds: Option<f64>,
    /// Number of instances with non-zero rskyline probability.
    pub arsp_size: usize,
}

impl Measurement {
    /// The time formatted the way the result tables print it.
    pub fn time_cell(&self) -> String {
        match self.seconds {
            Some(s) => format!("{s:.3}"),
            None => "INF".to_string(),
        }
    }
}

/// Runs a sweep while remembering which algorithms have already blown the
/// time budget so that larger sweep points skip them (the paper's `INF`).
pub struct SweepRunner {
    limit: f64,
    disabled: HashSet<&'static str>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new(time_limit_secs())
    }
}

impl SweepRunner {
    /// Creates a runner with an explicit time limit in seconds.
    pub fn new(limit: f64) -> Self {
        Self {
            limit,
            disabled: HashSet::new(),
        }
    }

    /// Runs one algorithm unless it is already disabled; disables it when it
    /// exceeds the time limit.
    pub fn run(&mut self, algorithm: &'static str, f: impl FnOnce() -> ArspResult) -> Measurement {
        if self.disabled.contains(algorithm) {
            return Measurement {
                algorithm,
                seconds: None,
                arsp_size: 0,
            };
        }
        let (result, seconds) = time(f);
        if seconds > self.limit {
            self.disabled.insert(algorithm);
        }
        Measurement {
            algorithm,
            seconds: Some(seconds),
            arsp_size: result.result_size(),
        }
    }

    /// Marks an algorithm as never run (reported as `INF`), used for ENUM on
    /// anything beyond toy scale.
    pub fn mark_infeasible(&mut self, algorithm: &'static str) -> Measurement {
        self.disabled.insert(algorithm);
        Measurement {
            algorithm,
            seconds: None,
            arsp_size: 0,
        }
    }
}

/// The algorithms compared in Fig. 5 / Fig. 6 (ENUM is reported as `INF`
/// beyond toy scale, exactly as in the paper).
pub const FIGURE_ALGORITHMS: [&str; 5] = ["LOOP", "KDTT", "KDTT+", "QDTT+", "B&B"];

/// Runs the Fig. 5 / Fig. 6 algorithm set against one engine + constraint
/// pair. All five algorithms share the engine's caches (vertex enumeration,
/// LOOP sort order, the B&B R-tree), so one-off construction costs are paid
/// once per sweep point instead of once per algorithm — see EXPERIMENTS.md.
pub fn run_figure_algorithms(
    runner: &mut SweepRunner,
    engine: &ArspEngine,
    constraints: &ConstraintSet,
    include_kdtt: bool,
) -> Vec<Measurement> {
    let query = |algorithm: QueryAlgorithm| {
        move || {
            engine
                .query(constraints)
                .algorithm(algorithm)
                .run()
                .into_result()
        }
    };
    let mut out = Vec::new();
    out.push(runner.run("LOOP", query(QueryAlgorithm::Loop)));
    if include_kdtt {
        out.push(runner.run("KDTT", query(QueryAlgorithm::Kdtt)));
    }
    out.push(runner.run("KDTT+", query(QueryAlgorithm::KdttPlus)));
    out.push(runner.run("QDTT+", query(QueryAlgorithm::QdttPlus)));
    out.push(runner.run("B&B", query(QueryAlgorithm::BranchAndBound)));
    out
}

/// Prints the header of a result table.
pub fn print_header(sweep_label: &str, algorithms: &[&str]) {
    print!("{sweep_label:>12} ");
    for a in algorithms {
        print!("{a:>10} ");
    }
    println!("{:>10}", "|ARSP|");
}

/// Prints one row of a result table (the |ARSP| column uses the maximum over
/// the algorithms that ran, which all agree).
pub fn print_row(sweep_value: &str, measurements: &[Measurement]) {
    print!("{sweep_value:>12} ");
    for m in measurements {
        print!("{:>10} ", m.time_cell());
    }
    let size = measurements.iter().map(|m| m.arsp_size).max().unwrap_or(0);
    println!("{size:>10}");
}

/// Cross-checks that every algorithm that ran produced the same |ARSP| (a
/// cheap sanity guard for the harness itself; full agreement is covered by
/// the test suite).
pub fn check_consistent_sizes(measurements: &[Measurement]) {
    let sizes: Vec<usize> = measurements
        .iter()
        .filter(|m| m.seconds.is_some())
        .map(|m| m.arsp_size)
        .collect();
    if let Some(first) = sizes.first() {
        assert!(
            sizes.iter().all(|s| s == first),
            "algorithms disagree on |ARSP|: {measurements:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsp_data::SyntheticConfig;

    #[test]
    fn sweep_runner_disables_slow_algorithms() {
        let mut runner = SweepRunner::new(0.0);
        let engine = ArspEngine::new(SyntheticConfig::small(10, 2, 2, 1).generate());
        let constraints = ConstraintSet::weak_ranking(2, 1);
        let query = || {
            engine
                .query(&constraints)
                .algorithm(QueryAlgorithm::KdttPlus)
                .run()
                .into_result()
        };
        let first = runner.run("KDTT+", query);
        assert!(first.seconds.is_some());
        // Limit 0 seconds: the second call is skipped.
        let second = runner.run("KDTT+", query);
        assert!(second.seconds.is_none());
        assert_eq!(second.time_cell(), "INF");
    }

    #[test]
    fn figure_algorithms_run_and_agree() {
        let mut runner = SweepRunner::new(60.0);
        let engine = ArspEngine::new(SyntheticConfig::small(25, 3, 3, 5).generate());
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let measurements = run_figure_algorithms(&mut runner, &engine, &constraints, true);
        assert_eq!(measurements.len(), 5);
        check_consistent_sizes(&measurements);
        print_header("m", &FIGURE_ALGORITHMS);
        print_row("25", &measurements);
        // The five algorithms shared the engine's caches: the constraint
        // set's vertex enumeration was built exactly once.
        let stats = engine.serving_stats();
        assert!(stats.cache_hits > 0, "sweep must reuse cached structures");
    }

    #[test]
    fn env_defaults() {
        assert!(scale_factor() >= 1);
        assert!(time_limit_secs() > 0.0);
    }
}
