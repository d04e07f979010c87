//! Workspace automation (`cargo xtask <command>`).

#![deny(unsafe_code)]

mod lint;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(),
        Some("model-check") => model_check(args.collect()),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\
         \n\
         commands:\n\
         \x20 lint          run the repo-invariant static-analysis pass\n\
         \x20 model-check   run the interleave model-checked protocol tests\n\
         \x20               (extra args are forwarded to `cargo test`)"
    );
}

/// Runs `tests/model_check.rs` with the `arsp_model_check` cfg enabled so
/// the sync façade resolves to the vendored `interleave` model checker.
/// Uses a dedicated target dir: the custom --cfg changes every crate's
/// fingerprint and would otherwise thrash the normal build cache.
fn model_check(extra: Vec<String>) -> ExitCode {
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.is_empty() {
        rustflags.push(' ');
    }
    rustflags.push_str("--cfg arsp_model_check");
    let status = std::process::Command::new(env!("CARGO"))
        .args(["test", "--release", "--test", "model_check"])
        .args(&extra)
        .args(["--", "--nocapture"])
        .env("RUSTFLAGS", rustflags)
        .env("CARGO_TARGET_DIR", "target/model-check")
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask: failed to run cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
