//! The synchronization façade for the serving/reclamation modules.
//!
//! Everything concurrent in this crate ([`crate::service`],
//! [`crate::coalesce`], [`crate::dynamic`], [`crate::scratch`],
//! [`crate::stats`]) imports its primitives from here instead of
//! `std::sync` directly (`cargo xtask lint` enforces it). In normal builds
//! the module is a zero-cost re-export of `std::sync`. Under
//! `--cfg arsp_model_check` (set by `cargo xtask model-check`) the same
//! names resolve to the vendored `interleave` model checker's twins, whose
//! deterministic scheduler exhaustively explores thread interleavings at
//! every synchronization point — that one swap is what lets
//! `tests/model_check.rs` prove the pin/publish/retire and coalescing
//! protocols over *all* schedules instead of the ones the OS happens to
//! produce.

#[cfg(not(arsp_model_check))]
pub use std::sync::atomic;
#[cfg(not(arsp_model_check))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};

#[cfg(arsp_model_check)]
pub use interleave::sync::atomic;
#[cfg(arsp_model_check)]
pub use interleave::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};

/// Locks a mutex, riding through poisoning: a panicking holder poisons the
/// `std` mutex, but every structure in this crate guarded by one stays
/// internally consistent across unwinds (counters and maps, no multi-step
/// invariants broken mid-panic), so the data is still usable. This helper is
/// the **only** sanctioned way to lock in the serving/reclamation modules —
/// `.lock().unwrap()` would turn one reader's panic into every later
/// reader's panic, and `cargo xtask lint` rejects it.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
