//! KDTT / KDTT+ / QDTT+ — Algorithm 1 of the paper.
//!
//! All three variants share the same three steps:
//!
//! 1. enumerate the vertices `V` of the preference region (Theorem 2),
//! 2. map the uncertain dataset into the `d' = |V|`-dimensional score space
//!    (`SV(t)`), turning ARSP into the all-skyline-probabilities problem,
//! 3. run the kd-ASP\* traversal of [`super::kd_asp`] over the mapped points.
//!
//! The variants differ only in how the space partitioning is produced:
//! prebuilt kd-tree (KDTT), fused kd partitioning (KDTT+), or fused quadtree
//! partitioning (QDTT+).  Overall complexity `O(c² + d'·d·n + n^{2−1/d'})`.

use super::kd_asp;
pub use super::kd_asp::KdVariant;
use crate::engine::{one_shot, QueryAlgorithm};
use crate::result::ArspResult;
use crate::scorespace::{FlatScorePoints, ScoreMatrix};
use crate::stats::CounterStats;
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::ConstraintSet;

/// KDTT: Algorithm 1 over a fully prebuilt kd-tree, as a one-shot
/// [`ArspEngine`](crate::engine::ArspEngine) query with
/// [`QueryAlgorithm::Kdtt`] forced.
pub fn arsp_kdtt(dataset: &UncertainDataset, constraints: &ConstraintSet) -> ArspResult {
    one_shot(dataset, constraints, QueryAlgorithm::Kdtt)
}

/// KDTT+: Algorithm 1 with construction fused into the traversal, as a
/// one-shot engine query with [`QueryAlgorithm::KdttPlus`] forced.
pub fn arsp_kdtt_plus(dataset: &UncertainDataset, constraints: &ConstraintSet) -> ArspResult {
    one_shot(dataset, constraints, QueryAlgorithm::KdttPlus)
}

/// QDTT+: Algorithm 1 with fused quadtree-style splitting, as a one-shot
/// engine query with [`QueryAlgorithm::QdttPlus`] forced.
pub fn arsp_qdtt_plus(dataset: &UncertainDataset, constraints: &ConstraintSet) -> ArspResult {
    one_shot(dataset, constraints, QueryAlgorithm::QdttPlus)
}

/// The KDTT-family entry point behind every query path, used by
/// [`crate::engine::ArspEngine`] under **every** execution mode: the
/// score-space mapping is already materialised as a cached [`ScoreMatrix`]
/// (one vectorizable pass, shared across queries and algorithms) and the
/// traversal runs allocation-free over the columnar view with a reusable
/// [`kd_asp::KdScratch`]. With `parallel` set, the one traversal fans
/// sibling subtrees out to worker threads drawing arenas from `pool` (see
/// [`kd_asp::kd_asp_flat_engine`]); results are bitwise identical across
/// every option combination. The traversal runs with the zero certificate
/// `scores` memoises, computed by the first call over the matrix, so
/// `scores` must have been computed from `flat` (see [`ScoreMatrix`]).
#[allow(clippy::too_many_arguments)]
pub fn arsp_kdtt_flat_engine(
    flat: &FlatStore,
    scores: &ScoreMatrix,
    variant: KdVariant,
    parallel: bool,
    stats: Option<&CounterStats>,
    scratch: &mut kd_asp::KdScratch,
    pool: Option<&kd_asp::KdWorkerPool>,
    budget: Option<&crate::fault::QueryBudget>,
) -> ArspResult {
    ArspResult::from_probs(kd_asp::kd_asp_flat_engine_certified(
        FlatScorePoints::new(flat, scores),
        flat.num_objects(),
        flat.num_instances(),
        variant,
        parallel,
        stats,
        scratch,
        pool,
        budget,
        scores.zero_certificate(flat),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::enumerate::arsp_enum;
    use crate::algorithms::loop_scan::arsp_loop;
    use arsp_data::{im_constraints, paper_running_example, SyntheticConfig};
    use arsp_geometry::constraints::WeightRatio;

    #[test]
    fn all_variants_reproduce_example_1() {
        let d = paper_running_example();
        let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        for result in [
            arsp_kdtt(&d, &constraints),
            arsp_kdtt_plus(&d, &constraints),
            arsp_qdtt_plus(&d, &constraints),
        ] {
            assert!((result.instance_prob(0) - 2.0 / 9.0).abs() < 1e-9);
            assert!(result.instance_prob(1).abs() < 1e-12);
        }
    }

    #[test]
    fn variants_agree_with_enum_on_small_synthetic_data() {
        for (seed, dim, c) in [(1u64, 2usize, 1usize), (2, 3, 2), (3, 4, 3)] {
            let d = SyntheticConfig {
                num_objects: 6,
                max_instances: 3,
                dim,
                region_length: 0.5,
                phi: 0.2,
                seed,
                ..SyntheticConfig::default()
            }
            .generate();
            let constraints = arsp_geometry::ConstraintSet::weak_ranking(dim, c);
            let truth = arsp_enum(&d, &constraints);
            for (name, got) in [
                ("KDTT", arsp_kdtt(&d, &constraints)),
                ("KDTT+", arsp_kdtt_plus(&d, &constraints)),
                ("QDTT+", arsp_qdtt_plus(&d, &constraints)),
            ] {
                assert!(
                    truth.approx_eq(&got, 1e-9),
                    "{name} disagrees with ENUM (seed {seed}): {}",
                    truth.max_abs_diff(&got)
                );
            }
        }
    }

    #[test]
    fn variants_agree_with_loop_on_medium_synthetic_data() {
        // Larger than ENUM can handle; LOOP is the reference here.
        let d = SyntheticConfig {
            num_objects: 60,
            max_instances: 6,
            dim: 3,
            region_length: 0.3,
            phi: 0.1,
            seed: 9,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = arsp_geometry::ConstraintSet::weak_ranking(3, 2);
        let reference = arsp_loop(&d, &constraints);
        for got in [
            arsp_kdtt(&d, &constraints),
            arsp_kdtt_plus(&d, &constraints),
            arsp_qdtt_plus(&d, &constraints),
        ] {
            assert!(
                reference.approx_eq(&got, 1e-8),
                "{}",
                reference.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn works_under_im_constraints() {
        let d = SyntheticConfig {
            num_objects: 40,
            max_instances: 4,
            dim: 4,
            seed: 12,
            ..SyntheticConfig::default()
        }
        .generate();
        let constraints = im_constraints(4, 3, 5);
        let reference = arsp_loop(&d, &constraints);
        let got = arsp_kdtt_plus(&d, &constraints);
        assert!(reference.approx_eq(&got, 1e-8));
        let got = arsp_qdtt_plus(&d, &constraints);
        assert!(reference.approx_eq(&got, 1e-8));
    }

    #[test]
    fn result_size_counts_nonzero_instances() {
        let d = paper_running_example();
        let constraints = WeightRatio::uniform(2, 0.5, 2.0).to_constraint_set();
        let result = arsp_kdtt_plus(&d, &constraints);
        // t1,2 is the only zero-probability instance in the fixture?  At the
        // very least the size is between 1 and n−1 because t1,1 is non-zero
        // and t1,2 is zero.
        let size = result.result_size();
        assert!(size >= 1 && size < d.num_instances());
        assert_eq!(size, result.probs().iter().filter(|&&p| p > 1e-12).count());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn with_fdom_rejects_a_region_of_another_dimension() {
        let d = SyntheticConfig::small(5, 2, 2, 1).generate();
        let _ = arsp_kdtt_plus(&d, &ConstraintSet::weak_ranking(3, 1));
    }
}
