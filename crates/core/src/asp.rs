//! ASP — all skyline probabilities (the special case `F` = all monotone
//! scoring functions).
//!
//! The paper's Table II compares rskyline probability rankings against plain
//! skyline probability rankings, and the related-work algorithms
//! (Atallah & Qi, Afshani et al., Kim et al.) all target this problem. In
//! the score-space formulation it is simply kd-ASP\* run on the original
//! coordinates, which is exactly what this module does.

use crate::algorithms::kd_asp::{kd_asp_flat_engine, KdScratch, KdVariant};
use crate::result::ArspResult;
use crate::scorespace::FlatScorePoints;
use arsp_data::{FlatStore, UncertainDataset};

/// Computes the skyline probability of every instance (and, via
/// [`ArspResult::object_probs`], of every object).
pub fn skyline_probabilities(dataset: &UncertainDataset) -> ArspResult {
    let flat = FlatStore::from_dataset(dataset);
    // The identity mapping: points keep their original coordinates.
    let pts = FlatScorePoints {
        dim: flat.dim(),
        coords: flat.coords(),
        objects: flat.objects(),
        probs: flat.probs(),
    };
    let probs = kd_asp_flat_engine(
        pts,
        flat.num_objects(),
        flat.num_instances(),
        KdVariant::FusedKd,
        false,
        None,
        &mut KdScratch::new(),
        None,
        None,
    );
    ArspResult::from_probs(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::enumerate::arsp_enum;
    use arsp_data::{paper_running_example, SyntheticConfig};
    use arsp_geometry::ConstraintSet;

    #[test]
    fn matches_enum_with_full_simplex_constraints() {
        // With the whole simplex as preference region, F-dominance equals
        // coordinate-wise dominance for linear functions, so ARSP == ASP.
        let d = paper_running_example();
        let truth = arsp_enum(&d, &ConstraintSet::new(2));
        let got = skyline_probabilities(&d);
        assert!(truth.approx_eq(&got, 1e-9), "{}", truth.max_abs_diff(&got));
    }

    #[test]
    fn skyline_probability_upper_bounds_rskyline_probability() {
        // F-dominance is weaker to escape than plain dominance, so rskyline
        // probabilities are never larger than skyline probabilities (§V-B).
        let d = SyntheticConfig {
            num_objects: 30,
            max_instances: 4,
            dim: 3,
            seed: 3,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = ConstraintSet::weak_ranking(3, 2);
        let rsky = crate::algorithms::kdtt::arsp_kdtt_plus(&d, &constraints);
        let sky = skyline_probabilities(&d);
        for id in 0..d.num_instances() {
            assert!(rsky.instance_prob(id) <= sky.instance_prob(id) + 1e-9);
        }
    }

    #[test]
    fn certain_skyline_objects_have_probability_one() {
        let mut d = arsp_data::UncertainDataset::new(2);
        d.push_object(vec![(vec![0.0, 1.0], 1.0)]);
        d.push_object(vec![(vec![1.0, 0.0], 1.0)]);
        d.push_object(vec![(vec![2.0, 2.0], 1.0)]);
        let asp = skyline_probabilities(&d);
        assert_eq!(asp.probs(), &[1.0, 1.0, 0.0]);
    }
}
