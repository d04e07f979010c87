//! End-to-end benchmark of the sharded ARSP serving stack.
//!
//! Three seeded workloads drive `arsp_core::cluster::ShardedService`:
//! `warm_read` (one parallel reader, nothing changes), `churn` (an
//! open-loop writer, standing subscriptions and a reader) and `restart`
//! (reopen a checkpointed cluster with a WAL tail, then answer one query).
//! With tracing off a run reports end-to-end figures; with tracing on it
//! replays the same inputs through the public calls one level below
//! `ShardedService` ([`trace`]) and reports a per-layer breakdown. See
//! `main.rs` for the command line.

pub mod inputs;
pub mod report;
pub mod trace;
pub mod workloads;
