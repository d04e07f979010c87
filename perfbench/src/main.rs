//! Runs one workload of the serving-stack benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_read|churn|restart> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: cluster directories go under
//! `target/perfbench/` there and are removed before exit. Standard output
//! ends with two JSON lines: a detail record (provenance, sample counts,
//! the percentile each tail figure reports, per-workload figures) and the
//! result line `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end figures; with `--trace 1`
//! they are the per-layer figures of a traced replay.

use std::path::Path;
use std::process::ExitCode;

use arsp_data::failpoint;
use arsp_perfbench::inputs::{num_shards, Scale};
use arsp_perfbench::report::{peak_rss_mb, provenance, result_line, Json, Metric};
use arsp_perfbench::trace;
use arsp_perfbench::workloads::{self, Inputs, Measured, Tally, Workload, SETUP_REPS, WRITE_RATE};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// The seeded inputs, with enough batches for churn's offered load over
/// `seconds` and for restart's directory.
fn make_inputs(seed: u64, seconds: f64, scale: Scale) -> Inputs {
    let churn = (WRITE_RATE * seconds).ceil() as usize + 1;
    let restart = 2 * scale.wal_tail * num_shards();
    Inputs::new(seed, scale, churn.max(restart))
}

fn measure(
    workload: Workload,
    root: &Path,
    inputs: &Inputs,
    seconds: f64,
    reps: usize,
    tally: &Tally,
) -> std::io::Result<Measured> {
    match workload {
        Workload::WarmRead => workloads::warm_read(root, inputs, seconds, reps, tally),
        Workload::Churn => workloads::churn(root, inputs, seconds, reps, tally),
        Workload::Restart => workloads::restart(root, inputs, seconds, reps, tally),
    }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        Metric::new("op_p50_ms", m.op.median(), "ms"),
        Metric::new("op_tail_ms", m.op.tail().1, "ms"),
        Metric::new("read_p50_ms", m.read.median(), "ms"),
        Metric::new("read_tail_ms", m.read.tail().1, "ms"),
        Metric::new("read_qps", m.read_qps(), "1/s"),
        Metric::new("setup_s", m.setup_median(), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The figures under the names the workload's users know them by.
fn named_figures(workload: Workload, m: &Measured) -> Json {
    let mut fields = match workload {
        Workload::WarmRead => vec![("read", m.read.summary())],
        Workload::Churn => vec![("write", m.op.summary()), ("read", m.read.summary())],
        Workload::Restart => vec![
            ("restart", m.op.summary()),
            ("first_read", m.read.summary()),
        ],
    };
    fields.push(("read_qps", Json::from(m.read_qps())));
    fields.push((
        "setup_s",
        Json::Arr(m.setup_s.iter().map(|&s| Json::from(s)).collect()),
    ));
    Json::obj(fields)
}

fn run(args: &Args) -> std::io::Result<(bool, u64, u64, Vec<Metric>, Json)> {
    let root = std::env::current_dir()?;
    let seconds = args.seconds as f64;
    let inputs = make_inputs(args.seed, seconds, Scale::FULL);
    let tally = Tally::default();
    let mut detail = vec![(
        "provenance".to_string(),
        provenance(args.seed, args.workload.name(), args.seconds, args.trace),
    )];
    let metrics = if args.trace {
        // Half the window untraced through the front door, half traced
        // through the layer below: the difference is the tracing overhead.
        let untraced = measure(args.workload, &root, &inputs, seconds / 2.0, 1, &tally)?;
        let traced = trace::traced(
            args.workload,
            &root,
            &inputs,
            seconds / 2.0,
            &untraced,
            &tally,
        )?;
        detail.push(("untraced".into(), named_figures(args.workload, &untraced)));
        detail.extend(untraced.detail);
        detail.push(("layers".into(), traced.detail));
        traced.metrics
    } else {
        let m = measure(args.workload, &root, &inputs, seconds, SETUP_REPS, &tally)?;
        detail.push(("figures".into(), named_figures(args.workload, &m)));
        detail.extend(m.detail.iter().cloned());
        end_to_end(&m)
    };
    let failed = tally.failed();
    let attempted = tally.attempted().max(1);
    detail.push((
        "error_frac".into(),
        Json::from(failed as f64 / attempted as f64),
    ));
    detail.push((
        "failures".into(),
        Json::Arr(tally.notes().into_iter().map(Json::from).collect()),
    ));
    Ok((failed == 0, attempted, failed, metrics, Json::Obj(detail)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // An armed fail-point would inject failures into the measured run.
    if std::env::var_os("ARSP_FAILPOINTS").is_some() {
        eprintln!("perfbench: refusing to run with ARSP_FAILPOINTS set");
        return ExitCode::from(2);
    }
    failpoint::reset();
    match run(&args) {
        Ok((correct, attempted, failed, metrics, detail)) => {
            println!("{}", detail.render());
            println!("{}", result_line(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
