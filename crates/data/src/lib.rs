//! Uncertain dataset model and workload generators for the ARSP reproduction.
//!
//! * [`dataset`] — the uncertain data model of §II-B: objects, instances,
//!   existence probabilities, plus the certain-dataset type used by the
//!   eclipse experiments and the aggregated-rskyline comparison.
//! * [`flat`] — the columnar [`FlatStore`] twin of the dataset: one
//!   contiguous dim-strided coordinate array plus parallel probability and
//!   object columns, the layout every hot loop streams.
//! * [`versioned`] — the mutable [`VersionedStore`]: delta rows appended to
//!   the columnar tail, deletions as a tombstone bitmap, a monotonically
//!   increasing version, stable instance handles and logarithmic-method
//!   compaction — the substrate of the dynamic engine. Also home of the
//!   [`EpochPinRegistry`] and [`SnapshotCache`] the concurrent serving layer
//!   builds its epoch-based snapshot reclamation on.
//! * [`possible_world`] — possible-world enumeration (equation 1), used by
//!   the ENUM baseline and as the ground-truth oracle in tests.
//! * [`synthetic`] — the synthetic generator of §V-A: IND / ANTI / CORR
//!   object centres, per-object hyper-rectangles of edge length `~N(l/2, l/8)`,
//!   instance counts uniform in `[1, cnt]`, and the `ϕ` fraction of objects
//!   with total probability below one.
//! * [`persist`] — crash-consistent persistence for the versioned store: a
//!   checksummed write-ahead log of mutation batches, atomic snapshots, and
//!   a recovery path that truncates torn tails and replays the WAL onto the
//!   last snapshot ([`DurableStore`]).
//! * [`failpoint`] — the deterministic fail-point registry the crash and
//!   fault-injection suites drive: named sites on the persistence and
//!   shard write paths that tests arm to inject panics, I/O errors,
//!   delays, or seeded probabilistic crashes.
//! * [`real`] — simulated stand-ins for the IIP, CAR and NBA datasets (see
//!   DESIGN.md for the substitution rationale).
//! * [`constraints_gen`] — the WR and IM constraint generators of §V-A and
//!   helpers for weight-ratio ranges.

#![deny(unsafe_code)]

pub mod constraints_gen;
pub mod dataset;
pub mod failpoint;
pub mod flat;
pub mod persist;
pub mod possible_world;
pub mod real;
pub mod sync;
pub mod synthetic;
pub mod versioned;

pub use constraints_gen::{im_constraints, weak_ranking_constraints};
pub use dataset::{
    paper_running_example, CertainDataset, Instance, UncertainDataset, UncertainObject,
};
pub use flat::FlatStore;
pub use persist::{DurableStore, MutationOp, RecoveryReport};
pub use possible_world::{enumerate_possible_worlds, PossibleWorld};
pub use synthetic::{Distribution, SyntheticConfig};
pub use versioned::{
    partition_dataset, shard_of_object, shard_ranges, EpochPinRegistry, InstanceHandle, PinGuard,
    SnapshotCache, VersionedStore,
};
