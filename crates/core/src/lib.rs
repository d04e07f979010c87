//! # arsp-core — All Restricted Skyline Probabilities
//!
//! This crate implements the algorithmic contribution of
//! *"Computing All Restricted Skyline Probabilities on Uncertain Datasets"*
//! (ICDE 2024): computing, for every instance of an uncertain dataset, the
//! probability that it belongs to the restricted skyline of a random possible
//! world.
//!
//! ## Quick start
//!
//! The primary API is the session-oriented [`engine::ArspEngine`]: it owns
//! the dataset, amortises every index across queries, and picks the right
//! algorithm per query unless told otherwise.
//!
//! ```
//! use arsp_core::prelude::*;
//!
//! // The paper's running example: 4 uncertain objects, 10 instances.
//! let engine = ArspEngine::new(arsp_data::paper_running_example());
//!
//! // F = {ω1·x1 + ω2·x2 | 0.5 ≤ ω1/ω2 ≤ 2}, as in Example 1.
//! let ratio = WeightRatio::uniform(2, 0.5, 2.0);
//! let constraints = ratio.to_constraint_set();
//!
//! let outcome = engine.query(&constraints).run();
//! assert!((outcome.instance_prob(0) - 2.0 / 9.0).abs() < 1e-9);
//!
//! // Under weight ratio constraints the DUAL algorithm applies too — Auto
//! // selects it for ratio queries, and all algorithms agree.
//! let dual = engine.ratio_query(&ratio).run();
//! assert_eq!(dual.algorithm().name(), "DUAL");
//! assert!(outcome.result().approx_eq(dual.result(), 1e-9));
//! ```
//!
//! The per-algorithm free functions ([`arsp_kdtt_plus`] and friends) remain
//! available and agree bitwise with the engine: each one is a one-shot query
//! on a fresh [`ArspEngine`] with its algorithm forced. There is one kernel
//! per algorithm, one algorithm vocabulary ([`QueryAlgorithm`]) and one
//! query pipeline that builds every artifact a kernel reads.
//!
//! ## What is provided
//!
//! * the query engine ([`engine`]): builder-style sessions, cached shared
//!   indexes, automatic algorithm selection, batched constraint sweeps,
//!   per-query timings and work counters, and the one statistics snapshot
//!   every single-store front returns ([`ServingStats`], both in
//!   [`stats`]),
//! * ARSP algorithms for general linear constraints:
//!   [`arsp_enum`], [`arsp_loop`], [`arsp_kdtt`], [`arsp_kdtt_plus`],
//!   [`arsp_qdtt_plus`], [`arsp_bnb`] (see [`algorithms`] for the mapping to
//!   the paper's names; [`QueryAlgorithm`] names each one as a value),
//! * ARSP algorithms for weight ratio constraints: [`arsp_dual`] and the
//!   d = 2 specialisation [`DualMs2d`],
//! * a rayon-based parallel execution layer ([`parallel`]): every kernel
//!   fans out bitwise-deterministically when a query runs it with
//!   [`Execution::Parallel`], at the width that query names,
//! * the all-skyline-probabilities special case [`skyline_probabilities`],
//! * the dynamic-dataset engine ([`dynamic`]) and the concurrent MVCC
//!   serving layer on top of it ([`service`]): `Arc`-pinned snapshot
//!   isolation for any number of reader threads beside one writer,
//! * one query pipeline ([`pipeline`]) and one query builder ([`Query`])
//!   behind the static, dynamic, serving and cluster fronts: the setters,
//!   the fault containment, Auto selection, artifact fetches and the kernel
//!   call are written once,
//! * the supervised sharded serving layer ([`cluster`]): per-shard fault
//!   isolation and durability, a quarantine/recovery state machine, an
//!   exact (bitwise) cross-shard merge and opt-in degraded partial-result
//!   queries,
//! * the aggregated rskyline and effectiveness helpers used by the paper's
//!   §V-B study ([`aggregate`], [`effectiveness`]),
//! * eclipse queries on certain datasets ([`eclipse`]),
//! * the Orthogonal-Vectors hardness reduction ([`hardness`]).

#![deny(unsafe_code)]

pub mod aggregate;
pub mod algorithms;
pub mod asp;
pub mod cluster;
pub mod coalesce;
pub mod dynamic;
pub mod eclipse;
pub mod effectiveness;
pub mod engine;
pub mod fault;
pub mod hardness;
pub mod parallel;
pub mod pipeline;
pub mod result;
pub mod scorespace;
pub mod scratch;
pub mod service;
pub mod standing;
pub mod stats;
pub mod sync;

pub use algorithms::bnb::{arsp_bnb, arsp_bnb_without_pruning};
pub use algorithms::dual::{arsp_dual, DualMs2d};
pub use algorithms::enumerate::{arsp_enum, arsp_enum_with_limit};
pub use algorithms::kdtt::{arsp_kdtt, arsp_kdtt_plus, arsp_qdtt_plus};
pub use algorithms::loop_scan::arsp_loop;
pub use asp::skyline_probabilities;
pub use cluster::{
    ApplyOutcome, ClusterConfig, ClusterOutcome, ClusterQuery, ClusterStats, ClusterSubscription,
    PartialResult, ShardChange, ShardHealth, ShardSupervisor, ShardedService, SupervisorCore,
};
pub use dynamic::{DynamicArspEngine, DynamicOutcome, DynamicQuery};
pub use engine::{ArspEngine, ArspOutcome, ArspQuery, Execution, QueryAlgorithm};
pub use fault::{QueryBudget, QueryError, RetryPolicy};
pub use pipeline::{Query, QueryFront, QueryOutcome};
pub use result::ArspResult;
pub use scorespace::{FlatScorePoints, ScoreMatrix};
pub use scratch::{QueryScratch, ScratchLease, ScratchPool};
pub use service::{ArspService, ServiceOutcome, ServiceQuery, ServiceWriter, SnapshotPin};
pub use standing::{
    ChangeBatch, ChangedPair, StandingQueryRegistry, StandingSpec, SubscriptionGuard,
};
pub use stats::{QueryCounters, ServingStats};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::aggregate::aggregated_rskyline;
    pub use crate::asp::skyline_probabilities;
    pub use crate::cluster::{
        ClusterConfig, ClusterOutcome, PartialResult, ShardHealth, ShardSupervisor, ShardedService,
    };
    pub use crate::dynamic::{DynamicArspEngine, DynamicOutcome};
    pub use crate::eclipse::{eclipse_dual_s, eclipse_quad};
    pub use crate::effectiveness::{rskyline_ranking, skyline_ranking};
    pub use crate::engine::{ArspEngine, ArspOutcome, Execution, QueryAlgorithm};
    pub use crate::fault::{QueryBudget, QueryError, RetryPolicy};
    pub use crate::pipeline::{Query, QueryOutcome};
    pub use crate::result::ArspResult;
    pub use crate::service::{ArspService, ServiceOutcome, ServiceWriter, SnapshotPin};
    pub use crate::standing::{ChangeBatch, ChangedPair, StandingSpec, SubscriptionGuard};
    pub use crate::stats::QueryCounters;
    pub use crate::{
        arsp_bnb, arsp_dual, arsp_enum, arsp_kdtt, arsp_kdtt_plus, arsp_loop, arsp_qdtt_plus,
        DualMs2d,
    };
    pub use arsp_data::{InstanceHandle, SyntheticConfig, UncertainDataset, VersionedStore};
    pub use arsp_geometry::constraints::{ConstraintSet, WeightRatio};
}
