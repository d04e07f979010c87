//! The dynamic engine's contract: after **any** interleaving of inserts,
//! deletes, overwrites, retirements, compactions and queries, a query at the
//! current version returns results **exactly equal** (`==` on the probability
//! vectors, no tolerance) to a cold [`ArspEngine`] rebuilt from scratch on
//! the equivalent snapshot dataset — for every algorithm, under sequential
//! and parallel execution.
//!
//! The snapshot semantics are validated independently: a *mirror model* (a
//! plain `Vec`-of-`Vec`s re-implementation of the documented mutation
//! semantics, sharing no code with [`VersionedStore`]) applies the same
//! operation sequence and materialises the expected dataset itself; the cold
//! engine is built on the mirror's dataset, so any disagreement between the
//! store's bookkeeping and the documented semantics fails the test just as
//! loudly as a float divergence would.

use arsp::core::dynamic::DynamicArspEngine;
use arsp::core::engine::{ArspEngine, Execution, QueryAlgorithm};
use arsp::core::service::{ArspService, SnapshotPin};
use arsp::prelude::*;
use arsp_data::{InstanceHandle, VersionedStore};
use proptest::prelude::*;

const ALGOS: [QueryAlgorithm; 5] = [
    QueryAlgorithm::Loop,
    QueryAlgorithm::Kdtt,
    QueryAlgorithm::KdttPlus,
    QueryAlgorithm::QdttPlus,
    QueryAlgorithm::BranchAndBound,
];

const EXECUTIONS: [Execution; 2] = [Execution::Sequential, Execution::Parallel { threads: 2 }];

// ---------------------------------------------------------------------------
// The mirror model: an independent implementation of the documented mutation
// semantics. Objects in creation order; an object's live instances in
// logical order (removals keep the rest in order, inserts append, overwrites
// move to the tail); retired or emptied objects are absent from the dataset.
// ---------------------------------------------------------------------------

struct MirrorObject {
    retired: bool,
    /// `(coords, prob, handle)` per live instance, in logical order.
    instances: Vec<(Vec<f64>, f64, InstanceHandle)>,
}

struct Mirror {
    dim: usize,
    objects: Vec<MirrorObject>,
}

impl Mirror {
    /// Mirrors a freshly bulk-loaded store (handles are the seed row ids).
    fn from_seed(store: &VersionedStore, dataset: &UncertainDataset) -> Self {
        let mut objects = Vec::new();
        for obj in dataset.objects() {
            let instances = obj
                .instance_ids
                .iter()
                .map(|&id| {
                    let inst = dataset.instance(id);
                    (inst.coords.clone(), inst.prob, store.handle_of_row(id))
                })
                .collect();
            objects.push(MirrorObject {
                retired: false,
                instances,
            });
        }
        Self {
            dim: dataset.dim(),
            objects,
        }
    }

    /// The expected snapshot dataset, built by the mirror alone.
    fn dataset(&self) -> UncertainDataset {
        let mut dataset = UncertainDataset::new(self.dim);
        for obj in &self.objects {
            if obj.instances.is_empty() {
                continue;
            }
            dataset.push_object(
                obj.instances
                    .iter()
                    .map(|(coords, prob, _)| (coords.clone(), *prob))
                    .collect(),
            );
        }
        dataset
    }

    fn total_prob(&self, object: usize) -> f64 {
        self.objects[object]
            .instances
            .iter()
            .map(|(_, p, _)| p)
            .sum()
    }

    /// Every `(object, position)` currently holding a live instance.
    fn live_slots(&self) -> Vec<(usize, usize)> {
        self.objects
            .iter()
            .enumerate()
            .flat_map(|(o, obj)| (0..obj.instances.len()).map(move |i| (o, i)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Operation interpretation: raw sampled tuples are turned into *valid*
// mutations against the current mirror state (so every generated case is a
// legal workload — invalid raw ops degrade to the nearest legal one).
// ---------------------------------------------------------------------------

/// One raw sampled operation: (kind, selector, coords, fraction).
type RawOp = (u8, u16, (f64, f64, f64), f64);

fn coords_vec(dim: usize, raw: (f64, f64, f64)) -> Vec<f64> {
    [raw.0, raw.1, raw.2][..dim].to_vec()
}

/// Applies one raw operation to both sides; returns a short tag for failure
/// messages.
fn apply_op(
    engine: &mut DynamicArspEngine,
    mirror: &mut Mirror,
    op: RawOp,
    dim: usize,
) -> &'static str {
    let (kind, selector, raw_coords, fraction) = op;
    let coords = coords_vec(dim, raw_coords);
    match kind % 6 {
        // Insert a new object (two instances splitting the sampled mass).
        0 => {
            let mass = 0.2 + 0.75 * fraction;
            let second = coords.iter().map(|c| (c * 0.7 + 0.1).min(1.0)).collect();
            let instances = vec![(coords, mass * 0.6), (second, mass * 0.4)];
            let object = engine.insert_object(None, instances.clone());
            assert_eq!(
                object,
                mirror.objects.len(),
                "object ids are creation-ordered"
            );
            // The mirror keeps its own copy of the data; only the handles
            // come from the store (its rows list the instances in insertion
            // order, matching `instances`).
            let handles: Vec<InstanceHandle> = engine
                .store()
                .object_rows(object)
                .iter()
                .map(|&r| engine.store().handle_of_row(r as usize))
                .collect();
            mirror.objects.push(MirrorObject {
                retired: false,
                instances: instances
                    .into_iter()
                    .zip(handles)
                    .map(|((c, p), h)| (c, p, h))
                    .collect(),
            });
            "insert_object"
        }
        // Insert an instance into an existing object with probability slack.
        1 | 2 => {
            let candidates: Vec<usize> = mirror
                .objects
                .iter()
                .enumerate()
                .filter(|(o, obj)| !obj.retired && mirror.total_prob(*o) < 0.85)
                .map(|(o, _)| o)
                .collect();
            if candidates.is_empty() {
                return "skip";
            }
            let object = candidates[selector as usize % candidates.len()];
            let slack = 1.0 - mirror.total_prob(object);
            let prob = (slack * (0.1 + 0.8 * fraction)).max(1e-3);
            let handle = engine.insert_instance(object, &coords, prob);
            mirror.objects[object]
                .instances
                .push((coords, prob, handle));
            "insert_instance"
        }
        // Remove an instance.
        3 => {
            let slots = mirror.live_slots();
            if slots.len() <= 2 {
                return "skip";
            }
            let (object, position) = slots[selector as usize % slots.len()];
            let handle = mirror.objects[object].instances.remove(position).2;
            engine.remove_instance(handle);
            "remove_instance"
        }
        // Overwrite an instance (moves to its object's logical tail).
        4 => {
            let slots = mirror.live_slots();
            if slots.is_empty() {
                return "skip";
            }
            let (object, position) = slots[selector as usize % slots.len()];
            let old = mirror.objects[object].instances.remove(position);
            let others = mirror.total_prob(object);
            let prob = ((1.0 - others) * (0.1 + 0.8 * fraction)).max(1e-3);
            engine.update_instance(old.2, &coords, prob);
            mirror.objects[object].instances.push((coords, prob, old.2));
            "update_instance"
        }
        // Retire an object (kept rare by the selector guard) or compact.
        _ => {
            if selector % 3 == 0 {
                let candidates: Vec<usize> = mirror
                    .objects
                    .iter()
                    .enumerate()
                    .filter(|(_, obj)| !obj.retired)
                    .map(|(o, _)| o)
                    .collect();
                if candidates.len() <= 3 {
                    return "skip";
                }
                let object = candidates[selector as usize % candidates.len()];
                engine.retire_object(object);
                mirror.objects[object].retired = true;
                mirror.objects[object].instances.clear();
                "retire_object"
            } else {
                engine.merge_now();
                "merge_now"
            }
        }
    }
}

/// Compacts `engine` once its pending rows reach `min_pending` and
/// `fraction` of its live rows. The engine never compacts on its own, so
/// the harness drives merges: never, after every op (`merge_past(e, 0,
/// 0.0)`), or past a threshold.
fn merge_past(engine: &mut DynamicArspEngine, min_pending: usize, fraction: f64) {
    let store = engine.store();
    let pending = store.pending_rows();
    if pending >= min_pending
        && pending as f64 >= fraction * store.num_live_instances().max(1) as f64
    {
        engine.merge_now();
    }
}

/// The three merge rules the proptests rotate through: never, after every
/// op, and once the pending rows reach 4 and 5% of the live rows.
fn harness_merge(engine: &mut DynamicArspEngine, rule: u8) {
    match rule {
        0 => {}
        1 => merge_past(engine, 0, 0.0),
        _ => merge_past(engine, 4, 0.05),
    }
}

/// Asserts exact agreement between the dynamic engine and a cold rebuild on
/// the mirror's dataset, for the given algorithms and both execution modes.
fn assert_exact(
    engine: &DynamicArspEngine,
    mirror: &Mirror,
    constraints: &ConstraintSet,
    ratio: &WeightRatio,
    algorithms: &[QueryAlgorithm],
    check_dual: bool,
    context: &str,
) {
    let expected = mirror.dataset();
    // The store's own snapshot must be the mirror's dataset, structurally.
    let snapshot = engine.snapshot_dataset();
    assert_eq!(
        snapshot.num_objects(),
        expected.num_objects(),
        "snapshot object count diverged from the mirror ({context})"
    );
    assert_eq!(snapshot.num_instances(), expected.num_instances());
    for (a, b) in snapshot.instances().iter().zip(expected.instances()) {
        assert_eq!(
            a.object, b.object,
            "snapshot structure diverged ({context})"
        );
        assert_eq!(a.coords, b.coords);
        assert_eq!(a.prob.to_bits(), b.prob.to_bits());
    }

    let cold = ArspEngine::new(expected);
    for &algorithm in algorithms {
        let reference = cold.query(constraints).algorithm(algorithm).run();
        for execution in EXECUTIONS {
            let got = engine
                .query(constraints)
                .algorithm(algorithm)
                .execution(execution)
                .run();
            assert_eq!(
                reference.result().probs(),
                got.result().probs(),
                "{} diverged from the cold rebuild ({execution:?}, {context})",
                algorithm.name(),
            );
        }
    }
    if check_dual {
        let reference = cold.ratio_query(ratio).run();
        for execution in EXECUTIONS {
            let got = engine.ratio_query(ratio).execution(execution).run();
            assert_eq!(got.algorithm(), QueryAlgorithm::Dual);
            assert_eq!(
                reference.result().probs(),
                got.result().probs(),
                "DUAL diverged from the cold rebuild ({execution:?}, {context})"
            );
        }
    }
}

proptest! {
    // Random mutation/query interleavings. Each case seeds a small dataset,
    // applies a random op sequence, and after *every* op checks exact
    // equality against a cold rebuild for a rotating algorithm (both
    // execution modes) — then sweeps all five algorithms plus DUAL at the
    // end. Three harness merge rules rotate across cases so the un-merged,
    // threshold-merged and eagerly-merged paths all see coverage.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dynamic_engine_is_exactly_a_cold_rebuild_at_every_version(
        seed in 0u64..1_000_000,
        shape in (4usize..9, 1usize..4, 2usize..4),
        ops in proptest::collection::vec(
            (0u8..12, 0u16..4096, (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 0.0f64..1.0),
            6..14),
        policy_pick in 0u8..3,
    ) {
        let (num_objects, max_instances, dim) = shape;
        let dataset = SyntheticConfig {
            num_objects,
            max_instances,
            dim,
            region_length: 0.4,
            phi: 0.5,
            seed,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(dim, dim - 1);
        let ratio = WeightRatio::uniform(dim, 0.5, 2.0);

        let store = VersionedStore::from_dataset(&dataset);
        let mut mirror = Mirror::from_seed(&store, &dataset);
        let mut engine = DynamicArspEngine::from_store(store);

        for (step, &op) in ops.iter().enumerate() {
            let tag = apply_op(&mut engine, &mut mirror, op, dim);
            harness_merge(&mut engine, policy_pick);
            // One rotating algorithm per step keeps the per-case cost sane
            // while every algorithm sees mid-sequence versions across steps
            // and cases; DUAL joins every third step.
            let algorithm = ALGOS[step % ALGOS.len()];
            assert_exact(
                &engine,
                &mirror,
                &constraints,
                &ratio,
                &[algorithm],
                step % 3 == 0,
                &format!("seed {seed}, step {step}: {tag}"),
            );
        }

        // Final full sweep: all five algorithms × both execution modes plus
        // DUAL, against the final version.
        assert_exact(
            &engine,
            &mirror,
            &constraints,
            &ratio,
            &ALGOS,
            true,
            &format!("seed {seed}, final sweep"),
        );
    }
}

proptest! {
    // The serving layer's snapshot-isolation contract, interleaved with
    // writer batches: pins taken at each published version keep answering at
    // *their* version — bitwise equal to a cold rebuild on the dataset the
    // mirror materialised at pin time — no matter how many later batches the
    // writer applies and publishes, and unpublished mutations are invisible
    // to new pins. All five general algorithms sweep every pinned version
    // after every batch.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn service_pins_are_snapshot_isolated_across_writer_batches(
        seed in 0u64..1_000_000,
        shape in (4usize..9, 1usize..4, 2usize..4),
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..12, 0u16..4096, (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 0.0f64..1.0),
                1..4),
            3..6),
    ) {
        let (num_objects, max_instances, dim) = shape;
        let dataset = SyntheticConfig {
            num_objects,
            max_instances,
            dim,
            region_length: 0.4,
            phi: 0.5,
            seed,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(dim, dim - 1);

        let store = VersionedStore::from_dataset(&dataset);
        let mut mirror = Mirror::from_seed(&store, &dataset);
        let (service, mut writer) = ArspService::from_store(store);

        // Every published version, paired with the dataset the mirror says
        // that version holds. The pins stay live across all later batches.
        let mut pinned: Vec<(SnapshotPin, UncertainDataset)> =
            vec![(service.pin(), mirror.dataset())];

        for (round, batch) in batches.iter().enumerate() {
            let published = service.current_version();
            for &op in batch {
                apply_op(writer.engine_mut(), &mut mirror, op, dim);
            }
            // Unpublished mutations are invisible: the service still serves
            // the last published version, and a fresh pin lands on it.
            prop_assert_eq!(service.current_version(), published);
            prop_assert_eq!(service.pin().version(), published);

            writer.publish();
            pinned.push((service.pin(), mirror.dataset()));

            // Every pin ever taken still answers at its own version.
            for (p, (pin, expected)) in pinned.iter().enumerate() {
                let cold = ArspEngine::new(expected.clone());
                for &algorithm in &ALGOS {
                    let reference = cold.query(&constraints).algorithm(algorithm).run();
                    let got = pin.query(&constraints).algorithm(algorithm).run();
                    prop_assert_eq!(
                        got.version(),
                        pin.version(),
                        "outcome version mismatch (seed {}, round {round}, pin {p})",
                        seed
                    );
                    prop_assert_eq!(
                        reference.result().probs(),
                        got.result().probs(),
                        "{:?} diverged at pin {p} (seed {}, round {round})",
                        algorithm,
                        seed
                    );
                }
            }
        }

        // Reclamation closes out once the pins go away: everything but the
        // currently served snapshot retires.
        drop(pinned);
        let stats = service.serving_stats();
        prop_assert_eq!(stats.active_pins, 0);
        prop_assert_eq!(stats.snapshots_retired, stats.snapshots_published - 1);
    }
}

/// A deterministic end-to-end script (no proptest) that drives every
/// mutation kind, crosses a harness merge threshold (6 pending rows and 10%
/// of the live rows) as well as merging by op, and checks the full
/// algorithm sweep at every version — the suite's fast smoke path.
#[test]
fn scripted_interleaving_stays_exact_under_the_default_policy() {
    let dataset = SyntheticConfig {
        num_objects: 12,
        max_instances: 3,
        dim: 3,
        region_length: 0.35,
        phi: 0.5,
        seed: 77,
        ..SyntheticConfig::default()
    }
    .generate();
    let constraints = ConstraintSet::weak_ranking(3, 2);
    let ratio = WeightRatio::uniform(3, 0.5, 2.0);
    let store = VersionedStore::from_dataset(&dataset);
    let mut mirror = Mirror::from_seed(&store, &dataset);
    let mut engine = DynamicArspEngine::from_store(store);

    let script: [RawOp; 10] = [
        (1, 7, (0.21, 0.84, 0.33), 0.5),
        (4, 3, (0.55, 0.12, 0.71), 0.4),
        (3, 11, (0.0, 0.0, 0.0), 0.0),
        (0, 0, (0.9, 0.05, 0.62), 0.8),
        (5, 0, (0.0, 0.0, 0.0), 0.0), // retire
        (2, 2, (0.14, 0.33, 0.95), 0.6),
        (4, 9, (0.44, 0.47, 0.05), 0.7),
        (5, 1, (0.0, 0.0, 0.0), 0.0), // merge_now
        (1, 5, (0.66, 0.22, 0.18), 0.3),
        (3, 4, (0.0, 0.0, 0.0), 0.0),
    ];
    for (step, &op) in script.iter().enumerate() {
        let tag = apply_op(&mut engine, &mut mirror, op, 3);
        merge_past(&mut engine, 6, 0.1);
        assert_exact(
            &engine,
            &mirror,
            &constraints,
            &ratio,
            &ALGOS,
            true,
            &format!("scripted step {step}: {tag}"),
        );
    }
    // The threshold merge must have fired at least once given the tiny
    // threshold above.
    assert!(engine.serving_stats().merges_performed >= 1);
}

/// [`ServiceWriter::apply`](arsp::core::service::ServiceWriter::apply), the
/// checked batch entry a shard's serving writer runs: a batch naming a dead
/// handle is refused with `InvalidInput` and changes nothing, and a valid
/// batch of every op kind, published through it, answers bitwise like a cold
/// engine on a store that took the same ops one call at a time.
#[test]
fn writer_apply_refuses_dead_handles_and_publishes_exact_batches() {
    let dataset = SyntheticConfig {
        num_objects: 14,
        max_instances: 3,
        dim: 3,
        region_length: 0.35,
        phi: 0.5,
        seed: 91,
        ..SyntheticConfig::default()
    }
    .generate();
    let constraints = ConstraintSet::weak_ranking(3, 2);
    let (service, mut writer) = ArspService::from_store(VersionedStore::from_dataset(&dataset));
    let before = writer.store().encode_state();

    let dead = dataset.num_instances() as u64 + 7;
    let err = writer
        .apply(&[MutationOp::RemoveInstance { handle: dead }])
        .expect_err("a dead handle must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(writer.store().encode_state(), before);
    assert_eq!(writer.version(), service.current_version());

    let new_object = dataset.num_objects();
    let kept = dataset.instance(0);
    let batch = [
        MutationOp::InsertObject {
            label: None,
            instances: vec![(vec![0.31, 0.12, 0.57], 0.5)],
        },
        MutationOp::InsertInstance {
            object: new_object as u64,
            coords: vec![0.08, 0.64, 0.22],
            prob: 0.25,
        },
        MutationOp::UpdateInstance {
            handle: 0,
            coords: vec![0.41, 0.05, 0.73],
            prob: kept.prob,
        },
        MutationOp::RemoveInstance { handle: 1 },
        MutationOp::Merge,
        MutationOp::RetireObject { object: 2 },
    ];
    writer.apply(&batch).expect("a valid batch applies");
    let published = writer.publish();

    let mut direct = VersionedStore::from_dataset(&dataset);
    let object = direct.insert_object(None, vec![(vec![0.31, 0.12, 0.57], 0.5)]);
    assert_eq!(object, new_object);
    direct.insert_instance(object, &[0.08, 0.64, 0.22], 0.25);
    direct.update_instance(
        InstanceHandle::from_index(0),
        &[0.41, 0.05, 0.73],
        kept.prob,
    );
    direct.remove_instance(InstanceHandle::from_index(1));
    direct.merge();
    direct.retire_object(2);
    assert_eq!(writer.store().encode_state(), direct.encode_state());

    let cold = ArspEngine::new(direct.snapshot_dataset());
    let pin = service.pin();
    assert_eq!(pin.version(), published);
    for algorithm in ALGOS {
        let reference = cold.query(&constraints).algorithm(algorithm).run();
        for execution in EXECUTIONS {
            let got = pin
                .query(&constraints)
                .algorithm(algorithm)
                .execution(execution)
                .run();
            assert_eq!(
                reference.result().probs(),
                got.result().probs(),
                "{} diverged from the cold engine ({execution:?})",
                algorithm.name()
            );
        }
    }
}
