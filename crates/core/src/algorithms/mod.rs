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
//!
//! Each of ENUM … DUAL is named by a [`QueryAlgorithm`] value, which is
//! what a query forces and what an outcome reports. Every module owns one
//! kernel and its artifact builders; the query pipeline
//! ([`crate::pipeline`]) is the one caller that fetches the artifacts and
//! runs the kernel. The free functions in the table, except ENUM, are
//! one-shot [`ArspEngine`] queries with that algorithm forced, so they
//! return the engine's bits.
//!
//! [`QueryAlgorithm`]: crate::engine::QueryAlgorithm
//! [`ArspEngine`]: crate::engine::ArspEngine

pub mod bnb;
pub mod dual;
pub mod enumerate;
pub mod kd_asp;
pub mod kdtt;
pub mod loop_scan;
#[cfg(test)]
pub(crate) mod pins;
mod width;
