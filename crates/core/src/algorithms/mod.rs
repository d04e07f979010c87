//! The ARSP algorithms of the paper.
//!
//! | Paper name | Function | Section |
//! |---|---|---|
//! | ENUM  | [`enumerate::arsp_enum`]        | §III-A (first baseline) |
//! | LOOP  | [`loop_scan::arsp_loop`]        | §III-A (second baseline) |
//! | KDTT  | [`kdtt::arsp_kdtt`]             | §III-B (Algorithm 1, prebuilt tree) |
//! | KDTT+ | [`kdtt::arsp_kdtt_plus`]        | §III-B (Algorithm 1, fused) |
//! | QDTT+ | [`kdtt::arsp_qdtt_plus`]        | §III-B (remark, quadtree splitting) |
//! | B&B   | [`bnb::arsp_bnb`]               | §III-C (Algorithm 2) |
//! | DUAL  | [`dual::arsp_dual`]             | §IV-A (weight ratio constraints) |
//! | DUAL-MS (d = 2) | [`dual::DualMs2d`]    | §IV-B / §V-D |

pub mod bnb;
pub mod dual;
pub mod enumerate;
pub mod kd_asp;
pub mod kdtt;
pub mod loop_scan;
#[cfg(test)]
pub(crate) mod pins;
mod width;

use crate::result::ArspResult;
use arsp_data::UncertainDataset;
use arsp_geometry::ConstraintSet;

/// The ARSP algorithms that accept arbitrary linear constraints, as a value —
/// convenient for benchmark harnesses that sweep over algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArspAlgorithm {
    /// Possible-world enumeration (exponential; toy inputs only).
    Enum,
    /// Sorted pairwise scan baseline.
    Loop,
    /// Algorithm 1 with a fully prebuilt kd-tree.
    Kdtt,
    /// Algorithm 1 with fused construction + traversal.
    KdttPlus,
    /// Algorithm 1 with fused quadtree splitting.
    QdttPlus,
    /// Algorithm 2 (branch and bound over an R-tree with aggregated R-trees).
    BranchAndBound,
}

impl ArspAlgorithm {
    /// Every algorithm, in the order the paper's figures list them.
    pub const ALL: [ArspAlgorithm; 6] = [
        ArspAlgorithm::Enum,
        ArspAlgorithm::Loop,
        ArspAlgorithm::Kdtt,
        ArspAlgorithm::KdttPlus,
        ArspAlgorithm::QdttPlus,
        ArspAlgorithm::BranchAndBound,
    ];

    /// The name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ArspAlgorithm::Enum => "ENUM",
            ArspAlgorithm::Loop => "LOOP",
            ArspAlgorithm::Kdtt => "KDTT",
            ArspAlgorithm::KdttPlus => "KDTT+",
            ArspAlgorithm::QdttPlus => "QDTT+",
            ArspAlgorithm::BranchAndBound => "B&B",
        }
    }

    /// Runs the algorithm on a dataset under linear constraints.
    pub fn run(&self, dataset: &UncertainDataset, constraints: &ConstraintSet) -> ArspResult {
        match self {
            ArspAlgorithm::Enum => enumerate::arsp_enum(dataset, constraints),
            ArspAlgorithm::Loop => loop_scan::arsp_loop(dataset, constraints),
            ArspAlgorithm::Kdtt => kdtt::arsp_kdtt(dataset, constraints),
            ArspAlgorithm::KdttPlus => kdtt::arsp_kdtt_plus(dataset, constraints),
            ArspAlgorithm::QdttPlus => kdtt::arsp_qdtt_plus(dataset, constraints),
            ArspAlgorithm::BranchAndBound => bnb::arsp_bnb(dataset, constraints),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = ArspAlgorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["ENUM", "LOOP", "KDTT", "KDTT+", "QDTT+", "B&B"]);
    }
}
