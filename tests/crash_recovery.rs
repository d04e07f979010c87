//! The crash-recovery loop: kill the persistence write path at **every**
//! registered fail-point site, recover from disk, and prove the recovered
//! store is bitwise equal ([`VersionedStore::encode_state`]) to the store
//! after *some prefix* of the applied mutation batches — and that query
//! results on the recovered store are bitwise equal (`f64::to_bits`) to a
//! cold engine rebuilt on that prefix's dataset.
//!
//! `cargo xtask lint` (the failpoint-coverage rule) checks that every site
//! named in `arsp_data::failpoint::SITES` appears in a crash suite, so a
//! fail-point added to the write path without a kill test fails the lint,
//! not just code review. This suite owns the persistence sites
//! ([`CRASH_MATRIX`]); the serving-side sites (`shard.*` and
//! `standing.*`) belong to the sharded-serving suite
//! (`tests/shard_agreement.rs`), and together the matrices partition
//! `SITES` (asserted below).

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use arsp::core::engine::{ArspEngine, QueryAlgorithm};
use arsp::prelude::*;
use arsp_data::failpoint::{self, FailAction};
use arsp_data::persist::crc32;
use arsp_data::{paper_running_example, DurableStore, MutationOp, VersionedStore};
use proptest::prelude::*;

/// Every persistence fail-point site this suite kills the write path at.
/// Must stay in sync with the persistence half of
/// `arsp_data::failpoint::SITES` — every site but the serving-side
/// `shard.*` and `standing.*` ones (asserted below, linted by
/// `cargo xtask lint`).
const CRASH_MATRIX: &[&str] = &[
    "wal.append.header",
    "wal.append.payload",
    "wal.append.sync",
    "snapshot.write",
    "snapshot.sync",
    "snapshot.rename",
    "snapshot.dirsync",
    "wal.reset",
];

/// A unique scratch directory under the workspace `target/` (never `/tmp`).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/crash-recovery-tests")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seed_store() -> VersionedStore {
    VersionedStore::from_dataset(&paper_running_example())
}

/// One step of the crash workload: a durable mutation batch or a checkpoint
/// (checkpoints exercise the snapshot.* and wal.reset sites).
enum Step {
    Apply(Vec<MutationOp>),
    Checkpoint,
}

fn workload() -> Vec<Step> {
    vec![
        // Object 0's probability budget is exactly 1.0 in the paper example:
        // free headroom before inserting.
        Step::Apply(vec![
            MutationOp::UpdateInstance {
                handle: 0,
                coords: vec![2.0, 9.0],
                prob: 0.2,
            },
            MutationOp::InsertInstance {
                object: 0,
                coords: vec![1.5, 1.5],
                prob: 0.1,
            },
        ]),
        Step::Apply(vec![
            MutationOp::InsertObject {
                label: Some("late".into()),
                instances: vec![(vec![5.0, 5.0], 0.6)],
            },
            MutationOp::UpdateInstance {
                handle: 0,
                coords: vec![2.5, 9.5],
                prob: 0.05,
            },
        ]),
        Step::Checkpoint,
        Step::Apply(vec![MutationOp::Merge]),
        Step::Apply(vec![
            MutationOp::RemoveInstance { handle: 1 },
            MutationOp::RetireObject { object: 1 },
        ]),
        Step::Checkpoint,
    ]
}

/// The bitwise store state after each applied-batch prefix of the workload
/// (index 0 = the seed store, checkpoints change no logical state).
fn prefix_states() -> Vec<Vec<u8>> {
    let mut store = seed_store();
    let mut states = vec![store.encode_state()];
    for step in workload() {
        if let Step::Apply(ops) = step {
            for op in &ops {
                op.apply_to(&mut store);
            }
            states.push(store.encode_state());
        }
    }
    states
}

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn the_crash_matrix_covers_every_non_shard_failpoint() {
    let expected: Vec<&str> = arsp_data::failpoint::SITES
        .iter()
        .copied()
        .filter(|site| !site.starts_with("shard.") && !site.starts_with("standing."))
        .collect();
    assert_eq!(
        CRASH_MATRIX, expected,
        "a persistence fail-point site was added or renamed without \
         updating the crash matrix"
    );
}

#[test]
fn a_kill_at_every_failpoint_recovers_to_an_applied_batch_prefix() {
    let states = prefix_states();
    let cs = ConstraintSet::weak_ranking(2, 1);
    // The fail-point registry is process-global: hold the gate for the loop.
    let _gate = failpoint::exclusive();
    for &site in CRASH_MATRIX {
        failpoint::reset();
        let dir = scratch_dir(&site.replace('.', "-"));
        let durable = DurableStore::create(&dir, seed_store()).expect("create");

        // Arm after create (create also writes a snapshot) and kill the
        // write path at this site, mid-workload.
        failpoint::arm(site, FailAction::Panic);
        let crashed = catch_unwind(AssertUnwindSafe(move || {
            let mut durable = durable;
            for step in workload() {
                match step {
                    Step::Apply(ops) => durable.apply_batch(&ops).expect("apply"),
                    Step::Checkpoint => durable.checkpoint().expect("checkpoint"),
                }
            }
        }));
        assert!(
            crashed.is_err(),
            "site `{site}` never fired in the workload"
        );
        failpoint::reset();

        // Recover from whatever the "killed process" left on disk.
        let (recovered, report) =
            DurableStore::open(&dir).unwrap_or_else(|err| panic!("site `{site}`: open: {err}"));
        let got = recovered.store().encode_state();
        let matched = states
            .iter()
            .position(|state| *state == got)
            .unwrap_or_else(|| {
                panic!(
                    "site `{site}`: recovered state (version {}, {} torn bytes) \
                     is not an applied-batch prefix",
                    report.recovered_version, report.torn_bytes
                )
            });

        // Query equality on the recovered store: bitwise equal to a cold
        // engine rebuilt on the matched prefix's dataset.
        let prefix_store =
            VersionedStore::decode_state(&states[matched]).expect("prefix state decodes");
        let cold = ArspEngine::new(prefix_store.snapshot_dataset());
        let warm = ArspEngine::new(recovered.store().snapshot_dataset());
        for algorithm in [QueryAlgorithm::Loop, QueryAlgorithm::KdttPlus] {
            let reference = cold.query(&cs).algorithm(algorithm).run();
            let answered = warm.query(&cs).algorithm(algorithm).run();
            assert_eq!(
                bits(answered.result().probs()),
                bits(reference.result().probs()),
                "site `{site}`: {algorithm:?} on the recovered store diverges \
                 from the cold engine on prefix {matched}"
            );
        }

        // The recovered store is fully usable: replay the rest of the
        // workload's batches and land exactly on the full-sequence state.
        let mut durable = recovered;
        let remaining: Vec<Vec<MutationOp>> = workload()
            .into_iter()
            .filter_map(|step| match step {
                Step::Apply(ops) => Some(ops),
                Step::Checkpoint => None,
            })
            .skip(matched)
            .collect();
        for ops in &remaining {
            durable
                .apply_batch(ops)
                .unwrap_or_else(|err| panic!("site `{site}`: post-recovery apply: {err}"));
        }
        assert_eq!(
            durable.store().encode_state(),
            *states.last().expect("non-empty"),
            "site `{site}`: post-recovery batches diverge from the full sequence"
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn repeated_kills_at_the_same_site_still_converge() {
    // A process that crashes at the same site on every restart (arm anew
    // after each recovery) must still make progress once the fault clears —
    // recovery never loses the intact prefix.
    let states = prefix_states();
    let _gate = failpoint::exclusive();
    failpoint::reset();
    let dir = scratch_dir("repeat");
    let durable = DurableStore::create(&dir, seed_store()).expect("create");
    drop(durable);

    // Each round recovers, resumes the workload from the recovered prefix,
    // and is killed again at the same site.
    let batches: Vec<Vec<MutationOp>> = workload()
        .into_iter()
        .filter_map(|step| match step {
            Step::Apply(ops) => Some(ops),
            Step::Checkpoint => None,
        })
        .collect();
    let matched_at = |dir: &Path| {
        let (durable, _) = DurableStore::open(dir).expect("open");
        let got = durable.store().encode_state();
        states
            .iter()
            .position(|state| *state == got)
            .expect("recovered state is an applied-batch prefix")
    };
    for round in 0..3 {
        let matched = matched_at(&dir);
        assert!(matched < batches.len(), "faulty rounds finished early");
        failpoint::arm("wal.append.sync", FailAction::Panic);
        let remaining = batches[matched..].to_vec();
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            let (mut durable, _) = DurableStore::open(&dir).expect("open");
            for ops in &remaining {
                durable.apply_batch(ops).expect("apply");
            }
        }));
        assert!(
            crashed.is_err(),
            "round {round}: the armed site never fired"
        );
    }
    failpoint::reset();

    // Fault cleared: one clean run from the recovered prefix completes, and
    // no progress was ever lost to the repeated crashes.
    let matched = matched_at(&dir);
    let (mut durable, _) = DurableStore::open(&dir).expect("open after faults");
    for ops in &batches[matched..] {
        durable.apply_batch(ops).expect("clean apply");
    }
    assert_eq!(durable.store().encode_state(), *states.last().expect("x"));
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A live batch the store rejects is refused before anything is logged:
/// `InvalidInput`, the in-memory store bitwise as it was (ops staged ahead
/// of the bad one are undone), the WAL not one byte longer, and the
/// directory still opens to the same state.
#[test]
fn invalid_live_batches_leave_memory_and_disk_untouched() {
    let _gate = failpoint::exclusive();
    failpoint::reset();
    let dir = scratch_dir("invalid-live");
    let wal_len = || fs::metadata(dir.join("wal.log")).expect("wal").len();
    let mut durable = DurableStore::create(&dir, seed_store()).expect("create");
    // One valid batch first, so the log and the replay count are not empty.
    let Step::Apply(first) = &workload()[0] else {
        unreachable!("the workload opens with a batch")
    };
    durable.apply_batch(first).expect("valid batch");
    let before = durable.store().encode_state();
    let logged = wal_len();

    // The paper example after the first batch: object 0 holds handles 0
    // (0.2), 1 (0.5) and 10 (0.1); objects 1–3 are at budget 1.
    let cases = [
        (
            "dead handle",
            vec![MutationOp::RemoveInstance { handle: 999 }],
        ),
        (
            "insert over budget",
            vec![MutationOp::InsertInstance {
                object: 1,
                coords: vec![1.0, 1.0],
                prob: 0.25,
            }],
        ),
        (
            "wrong dimension",
            vec![MutationOp::InsertInstance {
                object: 0,
                coords: vec![1.0, 1.0, 1.0],
                prob: 0.05,
            }],
        ),
        (
            "invalid op after valid ones",
            vec![
                MutationOp::InsertObject {
                    label: Some("staged".into()),
                    instances: vec![(vec![6.0, 6.0], 0.5)],
                },
                MutationOp::UpdateInstance {
                    handle: 0,
                    coords: vec![2.5, 9.5],
                    prob: 0.1,
                },
                MutationOp::Merge,
                MutationOp::RemoveInstance { handle: 999 },
            ],
        ),
    ];
    for (case, ops) in &cases {
        let err = durable.apply_batch(ops).expect_err(case);
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{case}: {err}"
        );
        assert_eq!(
            durable.store().encode_state(),
            before,
            "{case}: memory moved"
        );
        assert_eq!(wal_len(), logged, "{case}: the WAL grew");
    }
    drop(durable);

    let (mut reopened, report) = DurableStore::open(&dir).expect("reopen after rejections");
    assert_eq!(report.records_replayed, 1);
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(reopened.store().encode_state(), before);

    // The store stays usable: a valid batch after the rejections lands.
    let Step::Apply(second) = &workload()[1] else {
        unreachable!("the workload's second step is a batch")
    };
    reopened
        .apply_batch(second)
        .expect("valid batch after rejections");
    assert_eq!(reopened.store().encode_state(), prefix_states()[2]);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Ops are checked one at a time against the store the ops before them
/// left, so a later op may name an object and a handle that an earlier op
/// in the same batch created.
#[test]
fn a_batch_may_name_what_its_own_earlier_ops_created() {
    let _gate = failpoint::exclusive();
    failpoint::reset();
    let dir = scratch_dir("self-naming");
    let seed = seed_store();
    let (object, handle) = (seed.num_objects() as u64, seed.num_rows() as u64);
    let mut durable = DurableStore::create(&dir, seed).expect("create");
    let ops = vec![
        MutationOp::InsertObject {
            label: None,
            instances: vec![(vec![6.0, 6.0], 0.5)],
        },
        MutationOp::InsertInstance {
            object,
            coords: vec![5.0, 7.0],
            prob: 0.25,
        },
        MutationOp::UpdateInstance {
            handle,
            coords: vec![6.5, 5.5],
            prob: 0.5,
        },
        MutationOp::RemoveInstance { handle: handle + 1 },
    ];
    durable
        .apply_batch(&ops)
        .expect("a self-naming batch is valid");
    let mut expected = seed_store();
    for op in &ops {
        op.apply_to(&mut expected);
    }
    assert_eq!(durable.store().encode_state(), expected.encode_state());
    drop(durable);
    let (reopened, report) = DurableStore::open(&dir).expect("reopen");
    assert_eq!(report.records_replayed, 1);
    assert_eq!(reopened.store().encode_state(), expected.encode_state());
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// The on-disk image of a store with a checkpoint and a WAL tail: the bytes
/// of `snapshot.bin` and `wal.log` after the workload minus its final
/// checkpoint, so the two batches after the middle checkpoint stay in the
/// WAL.
fn checkpoint_and_wal_tail() -> &'static (Vec<u8>, Vec<u8>) {
    static IMAGE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let _gate = failpoint::exclusive();
        failpoint::reset();
        let dir = scratch_dir("mutation-image");
        let mut durable = DurableStore::create(&dir, seed_store()).expect("create");
        let mut steps = workload();
        assert!(matches!(steps.pop(), Some(Step::Checkpoint)));
        for step in steps {
            match step {
                Step::Apply(ops) => durable.apply_batch(&ops).expect("apply"),
                Step::Checkpoint => durable.checkpoint().expect("checkpoint"),
            }
        }
        drop(durable);
        let image = (
            fs::read(dir.join("snapshot.bin")).expect("snapshot"),
            fs::read(dir.join("wal.log")).expect("wal"),
        );
        fs::remove_dir_all(&dir).expect("cleanup");
        image
    })
}

/// `(start, end)` of every record payload in a WAL image (each record is a
/// `u32` length, a `u32` CRC-32 and the payload).
fn wal_payloads(wal: &[u8]) -> Vec<(usize, usize)> {
    let mut records = Vec::new();
    let mut at = 0;
    while at + 8 <= wal.len() {
        let len = u32::from_le_bytes(wal[at..at + 4].try_into().expect("4")) as usize;
        records.push((at + 8, at + 8 + len));
        at += 8 + len;
    }
    records
}

proptest! {
    // Recovery must answer bad bytes with a typed error, never a panic —
    // including bytes whose checksum is correct, because the CRC proves only
    // that the bytes are the ones written. Each case overwrites random bytes
    // of the snapshot payload or of one WAL record payload, re-stamps that
    // payload's CRC-32, and reopens: `open` returns `Ok` or `Err`, and an
    // `Ok` store passes its structural self-check. Each edit writes either
    // an arbitrary byte or a small one (0–16): small values land in
    // lengths, counts, row ids and handles as plausible-but-wrong numbers,
    // which reach much deeper into recovery than random ones.
    #![proptest_config(ProptestConfig::with_cases(6000))]

    #[test]
    fn checksummed_corruption_never_panics_recovery(
        target in 0usize..3,
        edits in proptest::collection::vec((0usize..usize::MAX, 0u8..=255, 0u8..2), 1..6),
    ) {
        let edits: Vec<(usize, u8)> = edits
            .into_iter()
            .map(|(pos, byte, small)| (pos, if small == 1 { byte % 17 } else { byte }))
            .collect();
        let (mut snapshot, mut wal) = checkpoint_and_wal_tail().clone();
        let records = wal_payloads(&wal);
        prop_assert_eq!(records.len(), 2);
        if target == 0 {
            // Snapshot frame: 8-byte magic, CRC-32, u64 length, payload.
            let payload = &mut snapshot[20..];
            for &(pos, byte) in &edits {
                let n = payload.len();
                payload[pos % n] = byte;
            }
            let crc = crc32(&snapshot[20..]);
            snapshot[8..12].copy_from_slice(&crc.to_le_bytes());
        } else {
            let (start, end) = records[target - 1];
            for &(pos, byte) in &edits {
                wal[start + pos % (end - start)] = byte;
            }
            let crc = crc32(&wal[start..end]);
            wal[start - 4..start].copy_from_slice(&crc.to_le_bytes());
        }

        let dir = scratch_dir("mutation");
        fs::create_dir_all(&dir).expect("dir");
        fs::write(dir.join("snapshot.bin"), &snapshot).expect("write snapshot");
        fs::write(dir.join("wal.log"), &wal).expect("write wal");
        let opened = catch_unwind(AssertUnwindSafe(|| {
            DurableStore::open(&dir).map(|(durable, _)| durable.store().validate())
        }));
        fs::remove_dir_all(&dir).expect("cleanup");
        match opened {
            Err(_) => prop_assert!(
                false,
                "recovery panicked (target {}, edits {:?})",
                target,
                edits
            ),
            Ok(Ok(check)) => prop_assert!(
                check.is_ok(),
                "recovered store fails validate(): {:?} (target {}, edits {:?})",
                check,
                target,
                edits
            ),
            Ok(Err(_)) => {}
        }
    }
}
