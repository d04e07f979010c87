//! # arsp — All Restricted Skyline Probabilities on Uncertain Datasets
//!
//! Facade crate for the reproduction of *"Computing All Restricted Skyline
//! Probabilities on Uncertain Datasets"* (ICDE 2024). It re-exports the four
//! underlying crates so that applications can depend on a single crate:
//!
//! * [`geometry`] (`arsp-geometry`) — points, dominance, preference regions,
//!   F-dominance tests,
//! * [`index`] (`arsp-index`) — R-tree, aggregated R-tree and kd-tree over
//!   the columnar `FlatEntries` layout,
//! * [`data`] (`arsp-data`) — the uncertain data model and workload
//!   generators,
//! * [`core`] (`arsp-core`) — the ARSP algorithms themselves.
//!
//! ## Example
//!
//! The primary API is the session-oriented [`core::engine::ArspEngine`]: it
//! owns the dataset, caches every shared index across queries, and picks the
//! algorithm automatically unless told otherwise.
//!
//! ```
//! use arsp::prelude::*;
//!
//! // Generate a small uncertain dataset (50 objects, ≤ 4 instances each)
//! // and wrap it in a query engine.
//! let engine = ArspEngine::new(SyntheticConfig::small(50, 4, 3, 7).generate());
//!
//! // "The first attribute matters at least as much as the second, which
//! //  matters at least as much as the third."
//! let constraints = ConstraintSet::weak_ranking(3, 2);
//!
//! // Compute the rskyline probability of every instance; ask for the top-5
//! // objects and the work counters while at it.
//! let outcome = engine
//!     .query(&constraints)
//!     .algorithm(QueryAlgorithm::KdttPlus)
//!     .top_k(5)
//!     .collect_stats(true)
//!     .run();
//! assert_eq!(outcome.result().len(), engine.dataset().num_instances());
//! assert_eq!(outcome.top_objects().unwrap().len(), 5);
//! assert!(outcome.counters().unwrap().nodes_visited > 0);
//!
//! // The per-algorithm free functions remain available and agree bitwise.
//! let direct = arsp_kdtt_plus(engine.dataset(), &constraints);
//! assert!(direct.approx_eq(outcome.result(), 0.0));
//! ```

#![deny(unsafe_code)]

pub use arsp_core as core;
pub use arsp_data as data;
pub use arsp_geometry as geometry;
pub use arsp_index as index;

/// Commonly used items from all crates.
pub mod prelude {
    pub use arsp_core::prelude::*;
    pub use arsp_data::{
        paper_running_example, Distribution, MutationOp, SyntheticConfig, UncertainDataset,
    };
    pub use arsp_geometry::constraints::{ConstraintSet, LinearConstraint, WeightRatio};
}
