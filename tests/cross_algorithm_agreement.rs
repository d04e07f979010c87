//! Integration test: every ARSP algorithm computes the same probabilities on
//! a spread of workloads (distributions, dimensionalities, constraint
//! families, partial objects). LOOP serves as the reference implementation —
//! it evaluates equation (3) directly — and ENUM double-checks the smallest
//! configurations.

use arsp::core::engine::EXACT_ALGORITHMS;
use arsp::data::im_constraints;
use arsp::prelude::*;

fn synthetic(
    m: usize,
    cnt: usize,
    dim: usize,
    dist: Distribution,
    phi: f64,
    seed: u64,
) -> UncertainDataset {
    SyntheticConfig {
        num_objects: m,
        max_instances: cnt,
        dim,
        region_length: 0.3,
        phi,
        distribution: dist,
        seed,
    }
    .generate()
}

fn check_all(dataset: &UncertainDataset, constraints: &ConstraintSet, label: &str) {
    let reference = arsp_loop(dataset, constraints);
    let candidates = vec![
        ("KDTT", arsp_kdtt(dataset, constraints)),
        ("KDTT+", arsp_kdtt_plus(dataset, constraints)),
        ("QDTT+", arsp_qdtt_plus(dataset, constraints)),
        ("B&B", arsp_bnb(dataset, constraints)),
    ];
    for (name, got) in candidates {
        assert!(
            reference.approx_eq(&got, 1e-8),
            "{label}: {name} differs from LOOP by {}",
            reference.max_abs_diff(&got)
        );
    }
}

#[test]
fn agreement_across_distributions() {
    for dist in [
        Distribution::Independent,
        Distribution::Correlated,
        Distribution::AntiCorrelated,
    ] {
        let dataset = synthetic(60, 5, 3, dist, 0.1, 11);
        let constraints = ConstraintSet::weak_ranking(3, 2);
        check_all(&dataset, &constraints, dist.short_name());
    }
}

#[test]
fn agreement_across_dimensionalities() {
    for dim in 2..=5 {
        let dataset = synthetic(40, 4, dim, Distribution::Independent, 0.0, 23);
        let constraints = ConstraintSet::weak_ranking(dim, dim - 1);
        check_all(&dataset, &constraints, &format!("d = {dim}"));
    }
}

#[test]
fn agreement_under_im_constraints() {
    for c in 1..=4 {
        let dataset = synthetic(40, 4, 4, Distribution::Independent, 0.0, 37);
        let constraints = im_constraints(4, c, 100 + c as u64);
        check_all(&dataset, &constraints, &format!("IM c = {c}"));
    }
}

#[test]
fn agreement_with_partial_objects() {
    for phi in [0.0, 0.25, 0.5, 1.0] {
        let dataset = synthetic(50, 5, 3, Distribution::Independent, phi, 5);
        let constraints = ConstraintSet::weak_ranking(3, 2);
        check_all(&dataset, &constraints, &format!("phi = {phi}"));
    }
}

#[test]
fn agreement_of_weight_ratio_algorithms() {
    let dataset = synthetic(50, 5, 3, Distribution::Independent, 0.2, 9);
    let ratio = WeightRatio::uniform(3, 0.36, 2.75);
    let reference = arsp_loop(&dataset, &ratio.to_constraint_set());
    let dual = arsp_dual(&dataset, &ratio);
    assert!(
        reference.approx_eq(&dual, 1e-8),
        "DUAL differs by {}",
        reference.max_abs_diff(&dual)
    );

    let dataset_2d = synthetic(40, 4, 2, Distribution::AntiCorrelated, 0.3, 13);
    let prep = DualMs2d::preprocess(&dataset_2d);
    for (l, h) in [(0.5, 2.0), (0.84, 1.19), (0.18, 5.67)] {
        let ratio = WeightRatio::uniform(2, l, h);
        let reference = arsp_loop(&dataset_2d, &ratio.to_constraint_set());
        let got = prep.query(l, h);
        assert!(
            reference.approx_eq(&got, 1e-8),
            "DUAL-MS [{l},{h}] differs by {}",
            reference.max_abs_diff(&got)
        );
    }
}

#[test]
fn enum_confirms_small_configurations() {
    for seed in 0..3u64 {
        let dataset = synthetic(8, 3, 3, Distribution::AntiCorrelated, 0.4, seed);
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let truth = arsp_enum(&dataset, &constraints);
        let loop_result = arsp_loop(&dataset, &constraints);
        let kdtt = arsp_kdtt_plus(&dataset, &constraints);
        let bnb = arsp_bnb(&dataset, &constraints);
        assert!(truth.approx_eq(&loop_result, 1e-9));
        assert!(truth.approx_eq(&kdtt, 1e-9));
        assert!(truth.approx_eq(&bnb, 1e-9));
    }
}

#[test]
fn agreement_on_simulated_real_datasets() {
    // IIP-like: 2-d, every object partial, single instances.
    let iip = arsp::data::real::iip_like(300, 3);
    let constraints = ConstraintSet::weak_ranking(2, 1);
    check_all(&iip, &constraints, "IIP");

    // CAR-like: 4-d, grouped models.
    let car = arsp::data::real::car_like(60, 6, 3);
    let constraints = ConstraintSet::weak_ranking(4, 3);
    check_all(&car, &constraints, "CAR");

    // NBA-like: 3 of 8 metrics, many instances per object.
    let nba = arsp::data::real::nba_like(40, 10, 3, 7);
    let constraints = ConstraintSet::weak_ranking(3, 2);
    check_all(&nba, &constraints, "NBA");
}

#[test]
fn algorithm_enum_dispatch_matches_direct_calls() {
    let dataset = synthetic(20, 3, 3, Distribution::Independent, 0.0, 77);
    let constraints = ConstraintSet::weak_ranking(3, 2);
    let engine = ArspEngine::new(dataset.clone());
    for algo in std::iter::once(QueryAlgorithm::Enum).chain(EXACT_ALGORITHMS) {
        if algo == QueryAlgorithm::Enum && dataset.num_instances() > 25 {
            continue; // ENUM would be too slow; covered elsewhere.
        }
        let via_enum = engine
            .query(&constraints)
            .algorithm(algo)
            .run()
            .into_result();
        let direct = match algo {
            QueryAlgorithm::Enum => arsp_enum(&dataset, &constraints),
            QueryAlgorithm::Loop => arsp_loop(&dataset, &constraints),
            QueryAlgorithm::Kdtt => arsp_kdtt(&dataset, &constraints),
            QueryAlgorithm::KdttPlus => arsp_kdtt_plus(&dataset, &constraints),
            QueryAlgorithm::QdttPlus => arsp_qdtt_plus(&dataset, &constraints),
            QueryAlgorithm::BranchAndBound => arsp_bnb(&dataset, &constraints),
            other => unreachable!("{} is not swept", other.name()),
        };
        assert!(via_enum.approx_eq(&direct, 0.0));
    }
}
