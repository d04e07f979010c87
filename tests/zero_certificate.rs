//! Soundness of kd-ASP\*'s zero certificate: every instance it flags must
//! have probability zero under ENUM, the possible-world oracle (up to the
//! kernels' saturation tolerance), and exactly `0.0` in every kd kernel's
//! output, and the traversal that skips flagged subtrees must stay bitwise
//! equal across widths. That the skips leave every bit of the unskipped
//! traversal in place is checked inside the kernel's own unit tests, which
//! can run the traversal without the certificate.
//!
//! The inputs aim at the certificate's edges: tie-heavy grid coordinates,
//! instances that coincide across objects, objects whose total mass is
//! exactly 1, 1 ± 1e-10 or 1 − 1e-9, and instances with mass ≤ 1e-9 (which
//! leave the rest of their object within rounding of saturation).

use arsp_core::algorithms::kd_asp::{zero_certificate, KdScratch, KdVariant};
use arsp_core::algorithms::kdtt::arsp_kdtt_flat_engine;
use arsp_core::{arsp_enum, FlatScorePoints, ScoreMatrix};
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::constraints::ConstraintSet;
use arsp_geometry::fdom::LinearFDominance;
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const VARIANTS: [KdVariant; 3] = [
    KdVariant::Prebuilt,
    KdVariant::FusedKd,
    KdVariant::FusedQuad,
];

/// A random dataset of `num_objects` objects with up to `max_k` instances
/// in `dim` dimensions, built to hit the certificate's edges (see the
/// module docs).
fn edge_dataset(seed: u64, dim: usize, num_objects: usize, max_k: usize) -> UncertainDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let grid = rng.gen_bool(0.5);
    let mut seen: Vec<Vec<f64>> = Vec::new();
    let mut d = UncertainDataset::new(dim);
    for _ in 0..num_objects {
        let k = rng.gen_range(1..=max_k);
        let mut coords: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                if !seen.is_empty() && rng.gen_bool(0.25) {
                    // An instance coinciding with an earlier one, often of
                    // another object.
                    seen[rng.gen_range(0..seen.len())].clone()
                } else if grid {
                    (0..dim).map(|_| rng.gen_range(0..3) as f64 * 0.5).collect()
                } else {
                    (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()
                }
            })
            .collect();
        seen.extend(coords.iter().cloned());
        let mut probs = vec![1.0 / k as f64; k];
        match rng.gen_range(0..6) {
            // Exactly 1 up to rounding: k equal shares.
            0 | 1 => {}
            // 1 + 1e-10 and 1 - 1e-10 (the dataset accepts totals up to
            // 1 + 1e-9 with every instance at most 1 + 1e-12).
            2 if k > 1 => probs[0] += 1e-10,
            2 => probs[0] -= 1e-10,
            3 => probs[0] -= 1e-10,
            // 1 - 1e-9: just short of the kernels' saturation tolerance.
            4 => probs[0] -= 1e-9,
            // One instance of mass <= 1e-9 beside a remainder of 1 minus it.
            _ => {
                let tiny = rng.gen_range(1e-12..1e-9);
                if k > 1 {
                    let rest = (1.0 - tiny) / (k - 1) as f64;
                    probs = vec![rest; k];
                    probs[0] = tiny;
                } else {
                    probs[0] = tiny;
                }
            }
        }
        if rng.gen_bool(0.2) {
            // A partial object: never saturated.
            for p in &mut probs {
                *p *= 0.6;
            }
        }
        d.push_object(coords.drain(..).zip(probs).collect());
    }
    d
}

/// Runs `f` with an ambient width of two, so parallel runs fan out.
fn two_wide<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool")
        .install(f)
}

/// The certificate of `dataset` under `constraints`, every kd variant's
/// output (sequential), and KDTT+ at width 2.
struct Run {
    certified: Vec<bool>,
    outputs: Vec<Vec<f64>>,
    kdtt_plus_wide: Vec<f64>,
}

fn run(dataset: &UncertainDataset, constraints: &ConstraintSet) -> Run {
    let flat = FlatStore::from_dataset(dataset);
    let scores = ScoreMatrix::compute(&flat, &LinearFDominance::from_constraints(constraints));
    let mut scratch = KdScratch::new();
    let certified = zero_certificate(
        FlatScorePoints::new(&flat, &scores),
        flat.num_objects(),
        &mut scratch,
    )
    .to_vec();
    let mut kd = |variant, parallel| {
        arsp_kdtt_flat_engine(
            &flat,
            &scores,
            variant,
            parallel,
            None,
            &mut scratch,
            None,
            None,
        )
        .probs()
        .to_vec()
    };
    let outputs = VARIANTS.iter().map(|&v| kd(v, false)).collect();
    let kdtt_plus_wide = two_wide(|| kd(KdVariant::FusedKd, true));
    Run {
        certified,
        outputs,
        kdtt_plus_wide,
    }
}

/// Every flagged instance reads exactly `0.0` in every variant, and KDTT+
/// is bitwise the same at width 2.
fn assert_sound_in_kernels(run: &Run) {
    for (i, &flagged) in run.certified.iter().enumerate() {
        if flagged {
            for (variant, out) in VARIANTS.iter().zip(&run.outputs) {
                prop_assert!(
                    out[i].to_bits() == 0.0f64.to_bits(),
                    "instance {i} certified but {variant:?} wrote {}",
                    out[i]
                );
            }
        }
    }
    prop_assert!(
        run.outputs[1] == run.kdtt_plus_wide,
        "KDTT+ width 2 diverged from sequential"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small inputs against ENUM: a flagged instance has probability at
    /// most 1e-9, the kernels' saturation tolerance (an object holding
    /// 1 − 1e-10 of its mass counts as certain, and the kernels write `0.0`
    /// behind it too), and each kernel agrees with ENUM everywhere.
    #[test]
    fn certified_instances_are_zero_under_enum(seed in 0u64..u64::MAX, dim in 1usize..=3) {
        let dataset = edge_dataset(seed, dim, 6, 3);
        let constraints = ConstraintSet::weak_ranking(dim, dim.min(2) - 1);
        let truth = arsp_enum(&dataset, &constraints);
        let run = run(&dataset, &constraints);
        for (i, &flagged) in run.certified.iter().enumerate() {
            if flagged {
                prop_assert!(
                    truth.instance_prob(i) <= 1e-9,
                    "instance {i} certified but ENUM gives {}",
                    truth.instance_prob(i)
                );
            }
        }
        for out in &run.outputs {
            for (i, &p) in out.iter().enumerate() {
                prop_assert!((p - truth.instance_prob(i)).abs() < 1e-9);
            }
        }
        assert_sound_in_kernels(&run);
    }

    /// Inputs large enough to fan out at width 2 (past the traversal's
    /// 512-point threshold), where skipped subtrees sit under split nodes.
    #[test]
    fn certified_skips_keep_every_width_bitwise(seed in 0u64..u64::MAX) {
        let dataset = edge_dataset(seed, 3, 400, 4);
        let run = run(&dataset, &ConstraintSet::weak_ranking(3, 1));
        prop_assert!(run.certified.iter().any(|&z| z), "nothing certified");
        assert_sound_in_kernels(&run);
    }
}

/// Hand-built edges: an instance strictly above a saturated object's max
/// corner is certified, also when its own object keeps all but 1e-10 of
/// its mass elsewhere; an instance on that corner, or above an object
/// 1e-9 short of saturation, is not.
#[test]
fn certificate_edges() {
    let mut d = UncertainDataset::new(2);
    // Object 0: saturated, max corner (0.2, 0.2).
    d.push_object(vec![(vec![0.1, 0.2], 0.5), (vec![0.2, 0.1], 0.5)]);
    // Object 1: dominated strictly by object 0's corner -> certified.
    d.push_object(vec![(vec![0.5, 0.5], 1.0)]);
    // Object 2: sits exactly on object 0's corner -> not certified.
    d.push_object(vec![(vec![0.2, 0.2], 1.0)]);
    // Object 3: 1e-9 short of saturation, max corner (0.05, 0.05).
    d.push_object(vec![(vec![0.05, 0.05], 1.0 - 1e-9)]);
    // Object 4: a tiny instance above object 0's corner -> certified,
    // beside a remainder that saturates its own object.
    d.push_object(vec![(vec![0.6, 0.6], 1e-10), (vec![0.9, 0.0], 1.0 - 1e-10)]);
    let constraints = ConstraintSet::new(2);
    let run = run(&d, &constraints);
    assert_eq!(
        run.certified,
        vec![false, false, true, false, false, true, false],
        "only object 1's instance and object 4's tiny one may be certified"
    );
    let truth = arsp_enum(&d, &constraints);
    for i in [2, 5] {
        assert_eq!(truth.instance_prob(i), 0.0);
        for out in &run.outputs {
            assert_eq!(out[i].to_bits(), 0.0f64.to_bits());
        }
    }
}
