//! The benchmark's own determinism checks, at toy size: one seed replays
//! to exactly the same single-thread work counts, every shard's batches
//! mix all three mutation kinds, and another seed changes the inputs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use arsp_data::MutationOp;
use arsp_perfbench::inputs::{num_shards, Scale};
use arsp_perfbench::trace::{window, Stop};
use arsp_perfbench::workloads::{Inputs, Tally, Workload};

fn inputs(seed: u64) -> Inputs {
    Inputs::new(seed, Scale::TOY, 64)
}

/// The repository root: work directories go under its `target/`.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Work counts of `steps` single-thread ops; the window's own checks must
/// pass.
fn counts(workload: Workload, steps: usize) -> BTreeMap<&'static str, u64> {
    let tally = Tally::default();
    let window =
        window(workload, &root(), &inputs(7), Stop::Steps(steps), &tally).expect("traced window");
    assert_eq!(
        tally.failed(),
        0,
        "{}: {:?}",
        workload.name(),
        tally.notes()
    );
    window.counts.deterministic()
}

#[test]
fn single_thread_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let first = counts(workload, 20);
        let second = counts(workload, 20);
        assert_eq!(
            first,
            second,
            "{} counts differ between runs",
            workload.name()
        );
        assert_eq!(first["reads"], 20, "{}", workload.name());
        assert!(
            first["fdom_tests"] > 0,
            "{} ran no kernel work",
            workload.name()
        );
        match workload {
            // Set-up warmed every artifact: no read rebuilds anything.
            Workload::WarmRead => {
                assert_eq!(first["union_rebuilds"], 0);
                assert_eq!(first["program_builds"], 0);
                assert!(first["program_hits"] > 0);
            }
            Workload::Churn => {
                assert_eq!(first["wal_records"], 20);
                assert!(first["wal_bytes"] > 0);
                assert_eq!(first["union_rebuilds"], 20, "every write moves the union");
                assert!(first["program_builds"] > 0);
            }
            Workload::Restart => {
                let tail = (Scale::TOY.wal_tail * num_shards()) as u64;
                assert_eq!(first["records_replayed"], 20 * tail);
                assert_eq!(first["union_rebuilds"], 20, "every open restitches");
                assert!(first["program_builds"] > 0);
            }
        }
    }
}

#[test]
fn every_shard_gets_every_mutation_kind() {
    let inputs = inputs(7);
    for shard in 0..num_shards() {
        let ops: Vec<&MutationOp> = inputs
            .batches
            .iter()
            .filter(|(s, _)| *s == shard)
            .flat_map(|(_, ops)| ops)
            .collect();
        let has = |kind: fn(&MutationOp) -> bool| ops.iter().any(|op| kind(op));
        assert!(
            has(|op| matches!(op, MutationOp::InsertObject { .. })),
            "shard {shard} gets no insert"
        );
        assert!(
            has(|op| matches!(op, MutationOp::RemoveInstance { .. })),
            "shard {shard} gets no remove"
        );
        assert!(
            has(|op| matches!(op, MutationOp::UpdateInstance { .. })),
            "shard {shard} gets no update"
        );
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    let (a, b) = (inputs(1), inputs(2));
    assert_ne!(a.batches, b.batches, "the op sequence follows the seed");
    let coords = |i: &Inputs| i.dataset.instance(0).coords.clone();
    assert_ne!(
        coords(&a),
        coords(&b),
        "the dataset jitter follows the seed"
    );
    let again = inputs(1);
    assert_eq!(a.batches, again.batches, "one seed, one op sequence");
}
