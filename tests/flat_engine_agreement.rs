//! Direct oracle tests for every `*_flat_engine*` entry point, and for B&B's
//! `arsp_bnb_engine`.
//!
//! The flat engines are the one kernel per algorithm: the query pipeline
//! behind the engine, service, dynamic and cluster fronts calls them, and
//! the free functions are one-shot engine queries. The engine-level
//! agreement suites exercise them indirectly — this suite calls each public
//! flat entry point *directly* on hand-built artifacts, on the paper's
//! running example and a small synthetic set, and checks it two ways:
//!
//! * against ENUM, the possible-world oracle, within 1e-9;
//! * bitwise against its "point path": the public free function of the same
//!   algorithm, which takes the `UncertainDataset` and the constraints and
//!   reaches the kernel through the pipeline's artifact fetches.
//!
//! A signature or semantics drift is caught even if the engine dispatch
//! moves off a function.
//! `cargo xtask lint` enforces the coupling: every public `*flat_engine*`
//! function must be named in a test under `tests/`.

use arsp_core::algorithms::bnb::{arsp_bnb_engine, build_instance_rtree, BnbScratch};
use arsp_core::algorithms::dual::{arsp_dual_flat_engine, build_dual_index};
use arsp_core::algorithms::kd_asp::{kd_asp_flat_engine, KdScratch, KdVariant, KdWorkerPool};
use arsp_core::algorithms::kdtt::arsp_kdtt_flat_engine;
use arsp_core::algorithms::loop_scan::{arsp_loop_flat_engine, instance_order_from_scores};
use arsp_core::{
    arsp_bnb, arsp_dual, arsp_enum, arsp_kdtt, arsp_kdtt_plus, arsp_loop, arsp_qdtt_plus,
    ArspResult, FlatScorePoints, ScoreMatrix,
};
use arsp_data::{paper_running_example, FlatStore, SyntheticConfig, UncertainDataset};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};
use arsp_geometry::fdom::LinearFDominance;

/// Small enough for ENUM: at most 4^8 possible worlds.
fn synthetic() -> UncertainDataset {
    SyntheticConfig {
        num_objects: 8,
        max_instances: 3,
        dim: 3,
        region_length: 0.3,
        phi: 0.15,
        seed: 11,
        ..SyntheticConfig::default()
    }
    .generate()
}

fn datasets() -> Vec<UncertainDataset> {
    vec![paper_running_example(), synthetic()]
}

fn constraints_for(dataset: &UncertainDataset) -> ConstraintSet {
    ConstraintSet::weak_ranking(dataset.dim(), 1)
}

type PointPath = fn(&UncertainDataset, &ConstraintSet) -> ArspResult;

/// Runs `f` at width 2, so the parallel arms fan out on any host.
fn two_wide<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool")
        .install(f)
}

fn assert_matches_enum(truth: &ArspResult, got: &ArspResult, what: &str) {
    assert!(
        truth.approx_eq(got, 1e-9),
        "{what} diverged from ENUM by {}",
        truth.max_abs_diff(got)
    );
}

#[test]
fn loop_flat_engine_matches_point_path_bitwise() {
    for dataset in datasets() {
        let constraints = constraints_for(&dataset);
        let truth = arsp_enum(&dataset, &constraints);
        let fdom = LinearFDominance::from_constraints(&constraints);
        let point_path = arsp_loop(&dataset, &constraints);

        let flat = FlatStore::from_dataset(&dataset);
        let scores = ScoreMatrix::compute(&flat, &fdom);
        let order = instance_order_from_scores(&scores);
        for parallel in [false, true] {
            let got = two_wide(|| {
                arsp_loop_flat_engine(&flat, &scores, &order, parallel, None, None, None, None)
            });
            assert_matches_enum(&truth, &got, "arsp_loop_flat_engine");
            assert_eq!(got.probs(), point_path.probs(), "arsp_loop_flat_engine");
        }
    }
}

#[test]
fn kdtt_flat_engine_matches_point_path_in_every_variant() {
    for dataset in datasets() {
        let constraints = constraints_for(&dataset);
        let truth = arsp_enum(&dataset, &constraints);
        let fdom = LinearFDominance::from_constraints(&constraints);

        let flat = FlatStore::from_dataset(&dataset);
        let scores = ScoreMatrix::compute(&flat, &fdom);
        let mut scratch = KdScratch::new();
        // Each variant is bitwise identical to its *own* point path (the
        // variants differ from each other by summation order, so only
        // same-variant comparisons are exact).
        let cases: [(KdVariant, PointPath); 3] = [
            (KdVariant::Prebuilt, arsp_kdtt),
            (KdVariant::FusedKd, arsp_kdtt_plus),
            (KdVariant::FusedQuad, arsp_qdtt_plus),
        ];
        for (variant, point_path) in cases {
            let want = point_path(&dataset, &constraints);
            for parallel in [false, true] {
                let got = two_wide(|| {
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
                });
                let what = format!("arsp_kdtt_flat_engine/{variant:?}");
                assert_matches_enum(&truth, &got, &what);
                assert_eq!(got.probs(), want.probs(), "{what}");
            }
        }
    }
}

#[test]
fn kd_asp_flat_engine_fan_out_is_bitwise_identical() {
    for dataset in datasets() {
        let constraints = constraints_for(&dataset);
        let truth = arsp_enum(&dataset, &constraints);

        let flat = FlatStore::from_dataset(&dataset);
        let scores = ScoreMatrix::compute(&flat, &LinearFDominance::from_constraints(&constraints));
        let pool = KdWorkerPool::default();
        for variant in [
            KdVariant::Prebuilt,
            KdVariant::FusedKd,
            KdVariant::FusedQuad,
        ] {
            let mut scratch = KdScratch::new();
            let sequential = kd_asp_flat_engine(
                FlatScorePoints::new(&flat, &scores),
                flat.num_objects(),
                flat.num_instances(),
                variant,
                false,
                None,
                &mut scratch,
                None,
                None,
            );
            let mut scratch = KdScratch::new();
            let parallel = two_wide(|| {
                kd_asp_flat_engine(
                    FlatScorePoints::new(&flat, &scores),
                    flat.num_objects(),
                    flat.num_instances(),
                    variant,
                    true,
                    None,
                    &mut scratch,
                    Some(&pool),
                    None,
                )
            });
            assert_eq!(
                parallel, sequential,
                "kd_asp_flat_engine parallel/{variant:?}"
            );
            assert_matches_enum(
                &truth,
                &ArspResult::from_probs(sequential),
                &format!("kd_asp_flat_engine/{variant:?}"),
            );
        }
    }
}

#[test]
fn dual_flat_engine_matches_point_path_bitwise() {
    for dataset in datasets() {
        let ratio = WeightRatio::uniform(dataset.dim(), 0.5, 2.0);
        let truth = arsp_enum(&dataset, &ratio.to_constraint_set());
        let point_path = arsp_dual(&dataset, &ratio);

        let flat = FlatStore::from_dataset(&dataset);
        let agg = build_dual_index(&flat);
        for parallel in [false, true] {
            let got = two_wide(|| arsp_dual_flat_engine(&flat, &ratio, &agg, parallel, None, None));
            let what = format!("arsp_dual_flat_engine parallel={parallel}");
            assert_matches_enum(&truth, &got, &what);
            assert_eq!(got.probs(), point_path.probs(), "{what}");
        }
    }
}

/// B&B's free function reaches `arsp_bnb_engine` through the pipeline, and
/// a direct call with no artifacts builds its own R-tree, score matrix and
/// scratch at entry; a direct call with shared ones builds none. All three
/// must give the same bits, sequentially and at width 2 (B&B runs
/// sequentially under either).
#[test]
fn bnb_engine_matches_point_path_bitwise() {
    for dataset in datasets() {
        let constraints = constraints_for(&dataset);
        let truth = arsp_enum(&dataset, &constraints);
        let point_path = arsp_bnb(&dataset, &constraints);
        assert_matches_enum(&truth, &point_path, "arsp_bnb");

        let fdom = LinearFDominance::from_constraints(&constraints);
        let scores = ScoreMatrix::compute(&FlatStore::from_dataset(&dataset), &fdom);
        let rtree = build_instance_rtree(&dataset);
        let mut scratch = BnbScratch::new();
        for width in [None, Some(2)] {
            let parallel = width.is_some();
            let mut run = || {
                arsp_bnb_engine(
                    &dataset,
                    &fdom,
                    Some(&rtree),
                    Some(&scores),
                    parallel,
                    None,
                    Some(&mut scratch),
                    None,
                )
            };
            let got = if parallel { two_wide(run) } else { run() };
            let what = format!("arsp_bnb_engine width={width:?}");
            assert_matches_enum(&truth, &got, &what);
            assert_eq!(got.probs(), point_path.probs(), "{what}");

            let self_built =
                || arsp_bnb_engine(&dataset, &fdom, None, None, parallel, None, None, None);
            let built = if parallel {
                two_wide(self_built)
            } else {
                self_built()
            };
            let what = format!("arsp_bnb_engine without artifacts width={width:?}");
            assert_eq!(built.probs(), got.probs(), "{what}");
        }
    }
}
