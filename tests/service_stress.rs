//! The serving layer's contract under real concurrency: any number of reader
//! threads pin versions and query while a single writer churns mutation
//! batches and publishes, and **every** result a reader ever observes is
//! bitwise identical (`f64::to_bits` on the probability vector) to a cold
//! single-threaded [`ArspEngine`] rebuilt on the dataset of the version the
//! reader had pinned — snapshot isolation with the repo's exactness
//! guarantee, not an approximation of it.
//!
//! The readers record `(pinned version, constraint, algorithm, result bits)`
//! tuples while running; the writer records the logical dataset of every
//! version it publishes. Replay happens after all threads join, so the
//! recording side needs no synchronisation beyond a mutex push.
//!
//! The file also carries the deterministic batch-coalescing tests: with the
//! rendezvous knob set, two readers asking for the same missing DUAL index
//! provably share one build, and distinct constraint sets provably never
//! coalesce. Last comes the carry-forward test: a score matrix and a LOOP
//! order a reader built at one version are patched into the next published
//! version, so the same query there builds nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use arsp::core::engine::{ArspEngine, Execution, QueryAlgorithm};
use arsp::core::service::{ArspService, ServiceWriter};
use arsp::prelude::*;
use arsp_data::InstanceHandle;
use arsp_index::DeltaPolicy;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const DIM: usize = 3;
/// Writer batches — the ISSUE floor is 100.
const BATCHES: usize = 110;
/// Reader threads — the ISSUE floor is 4.
const READERS: usize = 4;
/// Minimum queries per reader (readers keep going until the writer is done).
const MIN_QUERIES: usize = 30;
/// Hard cap per reader, so a slow writer cannot make the replay unbounded.
const MAX_QUERIES: usize = 1500;

/// ENUM is left out: it is exponential in the object count and the churned
/// dataset grows past what possible-world enumeration can sweep in a test.
const ALGOS: [QueryAlgorithm; 5] = [
    QueryAlgorithm::Loop,
    QueryAlgorithm::Kdtt,
    QueryAlgorithm::KdttPlus,
    QueryAlgorithm::QdttPlus,
    QueryAlgorithm::BranchAndBound,
];

fn palette() -> Vec<ConstraintSet> {
    vec![
        ConstraintSet::weak_ranking(DIM, DIM - 1),
        ConstraintSet::weak_ranking(DIM, 1),
    ]
}

fn ratio() -> WeightRatio {
    WeightRatio::uniform(DIM, 0.5, 2.0)
}

/// One observation made by a reader while the writer was churning.
#[derive(Debug)]
struct Record {
    version: u64,
    /// Index into `palette()`, or `usize::MAX` for the ratio query (DUAL).
    constraint: usize,
    algorithm: QueryAlgorithm,
    execution: Execution,
    bits: Vec<u64>,
}

fn bits_of(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// The writer's view of one live instance.
struct Slot {
    object: usize,
    handle: InstanceHandle,
    prob: f64,
}

/// Drives `BATCHES` random mutation batches against the writer, publishing
/// after each batch and recording the published version's logical dataset.
/// Exercises every mutation kind plus periodic compaction.
fn churn(
    mut writer: ServiceWriter,
    versions: &Mutex<BTreeMap<u64, UncertainDataset>>,
    seed: u64,
) -> ServiceWriter {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut slots: Vec<Slot> = writer
        .store()
        .canonical_rows()
        .collect::<Vec<_>>()
        .into_iter()
        .map(|row| Slot {
            object: writer.store().object_of(row),
            handle: writer.store().handle_of_row(row),
            prob: writer.store().prob(row),
        })
        .collect();
    let mut retired: Vec<bool> = Vec::new();
    let mut num_objects = writer.snapshot_dataset().num_objects();
    retired.resize(num_objects, false);

    let object_prob = |slots: &[Slot], object: usize| -> f64 {
        slots
            .iter()
            .filter(|s| s.object == object)
            .map(|s| s.prob)
            .sum()
    };

    for batch in 0..BATCHES {
        let muts = 1 + rng.gen_range(0..3);
        let version_before = writer.version();
        for _ in 0..muts {
            let coords: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
            match rng.gen_range(0u8..10) {
                // Insert a brand-new object (two instances).
                0 => {
                    let second: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
                    let object =
                        writer.insert_object(None, vec![(coords.clone(), 0.3), (second, 0.2)]);
                    retired.resize(retired.len().max(object + 1), false);
                    num_objects = num_objects.max(object + 1);
                    for &row in writer.store().object_rows(object).iter() {
                        let row = row as usize;
                        slots.push(Slot {
                            object,
                            handle: writer.store().handle_of_row(row),
                            prob: writer.store().prob(row),
                        });
                    }
                }
                // Append an instance where probability budget allows.
                1..=3 => {
                    let candidates: Vec<usize> = (0..num_objects)
                        .filter(|&o| !retired[o] && object_prob(&slots, o) < 0.85)
                        .collect();
                    if let Some(&object) = candidates.as_slice().choose(&mut rng) {
                        let prob = 0.05;
                        let handle = writer.insert_instance(object, &coords, prob);
                        slots.push(Slot {
                            object,
                            handle,
                            prob,
                        });
                    }
                }
                // Overwrite an instance in place (same mass, new position).
                4..=6 => {
                    if !slots.is_empty() {
                        let pick = rng.gen_range(0..slots.len());
                        let prob = slots[pick].prob;
                        writer.update_instance(slots[pick].handle, &coords, prob);
                    }
                }
                // Remove an instance (keep the dataset comfortably non-empty).
                7 | 8 => {
                    if slots.len() > 8 {
                        let pick = rng.gen_range(0..slots.len());
                        let slot = slots.swap_remove(pick);
                        writer.remove_instance(slot.handle);
                    }
                }
                // Retire a whole object, rarely, while plenty remain.
                _ => {
                    let alive: Vec<usize> = (0..num_objects).filter(|&o| !retired[o]).collect();
                    if alive.len() > 6 {
                        let object = *alive.as_slice().choose(&mut rng).unwrap();
                        writer.retire_object(object);
                        retired[object] = true;
                        slots.retain(|s| s.object != object);
                    }
                }
            }
        }
        // Some mutation kinds legitimately no-op (guards against emptying
        // the dataset); make sure every batch still advances the version so
        // every publish is a real one.
        if writer.version() == version_before {
            let pick = rng.gen_range(0..slots.len());
            let coords: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
            let prob = slots[pick].prob;
            writer.update_instance(slots[pick].handle, &coords, prob);
        }
        if batch % 16 == 15 {
            writer.merge_now();
        }

        // Publish, and record what a cold rebuild at this version would see.
        // The map is only read after every thread has joined, so inserting
        // after the swap (readers may already have pinned the version) is
        // safe.
        let dataset = writer.snapshot_dataset();
        let version = writer.publish();
        versions.lock().unwrap().insert(version, dataset);
    }
    writer
}

/// One reader: pin, query, record, release — until the writer finishes.
fn read_loop(
    service: ArspService,
    done: &AtomicBool,
    start: &Barrier,
    records: &Mutex<Vec<Record>>,
    seed: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let palette = palette();
    let ratio = ratio();
    start.wait();
    let mut local = Vec::new();
    for i in 0..MAX_QUERIES {
        if i >= MIN_QUERIES && done.load(Ordering::Relaxed) {
            break;
        }
        let pin = service.pin();
        // Every fifth query runs in parallel, alternating widths 2 and 4:
        // reader threads times intra-query fan-out.
        let execution = if i % 5 == 4 {
            Execution::Parallel {
                threads: if i % 10 == 4 { 2 } else { 4 },
            }
        } else {
            Execution::Sequential
        };
        // Every sixth query goes through DUAL on the ratio constraints; the
        // rest rotate the five general algorithms over the palette.
        let (constraint, algorithm, outcome) = if i % 6 == 5 {
            let outcome = pin
                .ratio_query(&ratio)
                .algorithm(QueryAlgorithm::Dual)
                .execution(execution)
                .run();
            (usize::MAX, QueryAlgorithm::Dual, outcome)
        } else {
            let constraint = rng.gen_range(0..palette.len());
            let algorithm = ALGOS[i % ALGOS.len()];
            let outcome = pin
                .query(&palette[constraint])
                .algorithm(algorithm)
                .execution(execution)
                .run();
            (constraint, algorithm, outcome)
        };
        assert_eq!(
            outcome.version(),
            pin.version(),
            "an outcome must answer at its pin's version"
        );
        local.push(Record {
            version: pin.version(),
            constraint,
            algorithm,
            execution,
            bits: bits_of(outcome.result().probs()),
        });
    }
    records.lock().unwrap().extend(local);
}

#[test]
fn concurrent_readers_always_see_their_pinned_version_exactly() {
    let initial = SyntheticConfig {
        num_objects: 10,
        max_instances: 3,
        dim: DIM,
        region_length: 0.4,
        phi: 0.5,
        seed: 4242,
        ..SyntheticConfig::default()
    }
    .generate();

    let (service, writer) = ArspService::from_dataset(&initial);
    service.warm_scratch(READERS);

    let versions = Arc::new(Mutex::new(BTreeMap::new()));
    versions.lock().unwrap().insert(0, initial);
    let records = Arc::new(Mutex::new(Vec::new()));
    let done = Arc::new(AtomicBool::new(false));
    // Readers + writer start together, so the churn overlaps the queries.
    let start = Arc::new(Barrier::new(READERS + 1));

    // A pin held across the whole churn: version 0 must survive ~BATCHES
    // publishes untouched.
    let held = service.pin();

    let writer = thread::scope(|scope| {
        let mut readers = Vec::new();
        for r in 0..READERS {
            let service = service.clone();
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            let records = Arc::clone(&records);
            readers.push(
                scope.spawn(move || read_loop(service, &done, &start, &records, 9000 + r as u64)),
            );
        }
        let versions = Arc::clone(&versions);
        let writer = scope.spawn({
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            move || {
                start.wait();
                let writer = churn(writer, &versions, 7);
                done.store(true, Ordering::Relaxed);
                writer
            }
        });
        for reader in readers {
            reader.join().expect("reader thread panicked");
        }
        writer.join().expect("writer thread panicked")
    });

    // The writer's last publish is what the service now serves.
    assert_eq!(service.current_version(), writer.version());

    let records = Arc::try_unwrap(records).unwrap().into_inner().unwrap();
    let versions = Arc::try_unwrap(versions).unwrap().into_inner().unwrap();
    assert!(
        records.len() >= READERS * MIN_QUERIES,
        "every reader records at least its minimum"
    );

    // While the long pin is held: version 0 is superseded (the writer
    // published BATCHES times) but must not have been retired.
    let stats = service.serving_stats();
    assert_eq!(stats.snapshots_published as usize, 1 + BATCHES);
    assert_eq!(stats.active_pins, 1, "only the long-held pin remains");
    assert_eq!(stats.pinned_snapshots, 1);
    assert_eq!(
        stats.snapshots_retired,
        stats.snapshots_published - 2,
        "all superseded snapshots retired except the pinned version 0"
    );
    assert_eq!(held.version(), 0);

    // Replay: group the observations by pinned version and check every one
    // bitwise against a cold single-threaded engine on that version's
    // recorded dataset.
    let mut by_version: BTreeMap<u64, Vec<&Record>> = BTreeMap::new();
    for record in &records {
        by_version.entry(record.version).or_default().push(record);
    }
    let palette = palette();
    let ratio = ratio();
    for (&version, group) in &by_version {
        let dataset = versions
            .get(&version)
            .unwrap_or_else(|| panic!("a reader pinned unpublished version {version}"))
            .clone();
        let cold = ArspEngine::new(dataset);
        for record in group {
            let reference = if record.constraint == usize::MAX {
                cold.ratio_query(&ratio).algorithm(record.algorithm).run()
            } else {
                cold.query(&palette[record.constraint])
                    .algorithm(record.algorithm)
                    .run()
            };
            assert_eq!(
                record.bits,
                bits_of(reference.result().probs()),
                "a reader's {:?}/{:?} result at version {version} diverged \
                 from the cold rebuild",
                record.algorithm,
                record.execution,
            );
        }
    }

    // The held pin still answers version 0 exactly, after the full churn.
    let cold0 = ArspEngine::new(versions[&0].clone());
    for algorithm in ALGOS {
        let reference = cold0.query(&palette[0]).algorithm(algorithm).run();
        let got = held.query(&palette[0]).algorithm(algorithm).run();
        assert_eq!(got.version(), 0);
        assert_eq!(
            bits_of(got.result().probs()),
            bits_of(reference.result().probs()),
        );
    }

    // Releasing the last pin retires version 0; the accounting closes.
    drop(held);
    let stats = service.serving_stats();
    assert_eq!(stats.active_pins, 0);
    assert_eq!(stats.pinned_snapshots, 0);
    assert_eq!(stats.snapshots_retired, stats.snapshots_published - 1);
    assert_eq!(stats.inflight, 0);
    assert!(stats.queries_served as usize >= records.len());
}

/// Two readers racing on the *same* missing artifact share one build. The
/// rendezvous knob makes the schedule deterministic: the builder holds its
/// publish until the second reader has registered as a joiner, so the
/// assertion is exact, not a lucky race.
#[test]
fn identical_constraint_queries_coalesce_into_one_build() {
    let dataset = SyntheticConfig {
        num_objects: 10,
        max_instances: 3,
        dim: DIM,
        region_length: 0.4,
        phi: 0.5,
        seed: 99,
        ..SyntheticConfig::default()
    }
    .generate();
    let (service, mut writer) = ArspService::from_dataset(&dataset);
    let ratio = ratio();

    // Build the DUAL index on version 0. A DUAL query needs nothing else,
    // and the index is never carried forward to a new version, so the
    // concurrent phase on the next version has exactly one coalescible
    // artifact left to build: that version's index.
    let _ = service
        .pin()
        .ratio_query(&ratio)
        .algorithm(QueryAlgorithm::Dual)
        .run();

    // Publish a fresh version.
    let handle = writer.store().handle_of_row(0);
    let coords: Vec<f64> = writer.store().coords_of(0).to_vec();
    let prob = writer.store().prob(0);
    writer.update_instance(handle, &coords, prob);
    writer.publish();

    let before = service.serving_stats();
    service.set_coalescing_rendezvous(1);
    let pin = service.pin();
    let barrier = Barrier::new(2);
    let (bits_a, bits_b) = thread::scope(|scope| {
        let run = || {
            barrier.wait();
            bits_of(
                pin.ratio_query(&ratio)
                    .algorithm(QueryAlgorithm::Dual)
                    .run()
                    .result()
                    .probs(),
            )
        };
        let a = scope.spawn(run);
        let b = scope.spawn(run);
        (a.join().unwrap(), b.join().unwrap())
    });
    service.set_coalescing_rendezvous(0);

    let after = service.serving_stats();
    assert_eq!(bits_a, bits_b, "coalesced queries must agree bitwise");
    assert_eq!(
        after.shared_builds - before.shared_builds,
        1,
        "two identical queries perform exactly one DUAL-index build"
    );
    assert_eq!(
        after.coalesced_builds - before.coalesced_builds,
        1,
        "the second query joins the first one's build"
    );
    assert_eq!(
        after.peak_inflight, 2,
        "both queries were in flight at once"
    );

    // And the artifact is shared: the result is the cold rebuild's, bitwise.
    let cold = ArspEngine::new(writer.snapshot_dataset());
    let reference = cold
        .ratio_query(&ratio)
        .algorithm(QueryAlgorithm::Dual)
        .run();
    assert_eq!(bits_a, bits_of(reference.result().probs()));
}

/// Distinct constraint sets never coalesce: each reader builds its own score
/// matrix, and neither waits for the other.
#[test]
fn distinct_constraint_queries_never_coalesce() {
    let dataset = SyntheticConfig {
        num_objects: 10,
        max_instances: 3,
        dim: DIM,
        region_length: 0.4,
        phi: 0.5,
        seed: 100,
        ..SyntheticConfig::default()
    }
    .generate();
    let (service, _writer) = ArspService::from_dataset(&dataset);
    let first = ConstraintSet::weak_ranking(DIM, DIM - 1);
    let second = ConstraintSet::weak_ranking(DIM, 1);

    let pin = service.pin();
    let barrier = Barrier::new(2);
    thread::scope(|scope| {
        let pin = &pin;
        let barrier = &barrier;
        let a = scope.spawn(move || {
            barrier.wait();
            pin.query(&first).algorithm(QueryAlgorithm::KdttPlus).run();
        });
        let b = scope.spawn(move || {
            barrier.wait();
            pin.query(&second).algorithm(QueryAlgorithm::KdttPlus).run();
        });
        a.join().unwrap();
        b.join().unwrap();
    });

    let stats = service.serving_stats();
    assert_eq!(
        stats.coalesced_builds, 0,
        "distinct constraint keys must not join each other's builds"
    );
    // Two fdom builds + two score-matrix builds, one per constraint set.
    assert_eq!(stats.shared_builds, 4);
}

/// Builds what one pinned KDTT+ query and one pinned LOOP query need at the
/// published version and returns both results' bits.
fn kdtt_and_loop_bits(service: &ArspService, constraints: &ConstraintSet) -> Vec<Vec<u64>> {
    let pin = service.pin();
    [QueryAlgorithm::KdttPlus, QueryAlgorithm::Loop]
        .into_iter()
        .map(|algorithm| {
            let outcome = pin.query(constraints).algorithm(algorithm).run();
            bits_of(outcome.result().probs())
        })
        .collect()
}

/// The KDTT+ and LOOP results a cold engine computes on `dataset`.
fn cold_kdtt_and_loop_bits(
    dataset: UncertainDataset,
    constraints: &ConstraintSet,
) -> Vec<Vec<u64>> {
    let cold = ArspEngine::new(dataset);
    [QueryAlgorithm::KdttPlus, QueryAlgorithm::Loop]
        .into_iter()
        .map(|algorithm| {
            let outcome = cold.query(constraints).algorithm(algorithm).run();
            bits_of(outcome.result().probs())
        })
        .collect()
}

/// A score matrix and a LOOP order that a *reader* built at version v are
/// patched into the snapshot the writer publishes next — across a plain
/// mutation and across a compaction — so the same pinned queries at the
/// new version build nothing, and still answer exactly as a cold rebuild.
#[test]
fn reader_built_artifacts_carry_forward_across_publish() {
    let dataset = SyntheticConfig {
        num_objects: 12,
        max_instances: 3,
        dim: DIM,
        region_length: 0.4,
        phi: 0.5,
        seed: 77,
        ..SyntheticConfig::default()
    }
    .generate();
    let (service, mut writer) = ArspService::from_dataset(&dataset);
    writer.engine_mut().set_delta_policy(DeltaPolicy::manual());
    let constraints = ConstraintSet::weak_ranking(DIM, DIM - 1);

    // A reader builds the vertex enumeration, the score matrix and the
    // order at version 0; the writer never queries.
    let _ = kdtt_and_loop_bits(&service, &constraints);
    assert!(service.serving_stats().shared_builds >= 3);

    let revise = |writer: &mut ServiceWriter, coords: &[f64]| {
        let row = writer.store().canonical_rows().next().expect("non-empty");
        let handle = writer.store().handle_of_row(row);
        let prob = writer.store().prob(row);
        writer.update_instance(handle, coords, prob);
    };

    // A plain mutation, then a mutation followed by a compaction.
    for compact in [false, true] {
        revise(&mut writer, &[0.15, 0.6, 0.3]);
        let _ = writer.insert_object(None, vec![(vec![0.4, 0.2, 0.7], 0.5)]);
        if compact {
            writer.merge_now();
            assert_eq!(writer.store().pending_rows(), 0, "the store compacted");
        }
        let version = writer.publish();

        let before = service.serving_stats();
        let got = kdtt_and_loop_bits(&service, &constraints);
        let after = service.serving_stats();
        assert_eq!(
            after.shared_builds, before.shared_builds,
            "version {version} rebuilt an artifact the reader built at the previous version"
        );
        assert!(after.cache_hits > before.cache_hits);
        assert_eq!(
            got,
            cold_kdtt_and_loop_bits(writer.snapshot_dataset(), &constraints),
            "the carried-forward artifacts diverged from a cold rebuild at version {version}"
        );
    }
}
