//! The rayon-based parallel execution layer.
//!
//! Every ARSP algorithm has a parallel entry point (see
//! [`crate::ArspAlgorithm::run_parallel`]) that produces **bitwise-identical**
//! results to its sequential counterpart:
//!
//! * **LOOP** parallelises over instances — each instance's probability is an
//!   independent product accumulated in a deterministic order,
//! * **KDTT+ / QDTT+** parallelise the fused kd-ASP\* traversal: sibling
//!   subtrees run on worker arenas seeded with copies of the
//!   exactly-restored traversal state (σ, β, χ), so every leaf sees the same
//!   float operations as in the sequential recursion,
//! * **KDTT** runs sequentially: its prebuilt-tree traversal is the
//!   construction-cost baseline the fused variants are measured against,
//! * **B&B** runs sequentially: its best-first traversal and aggregated
//!   R-tree updates are order-dependent, and fanning out each popped
//!   instance's window queries measured 0.16–0.30× of sequential,
//! * **DUAL** parallelises over instance chunks: each instance's probability
//!   is an independent fold over the (read-only) per-object forests,
//! * **ENUM** stays sequential: its per-instance sums over possible worlds
//!   are order-sensitive under floating point, so chunked summation would
//!   change results. It is an exponential toy baseline either way.
//!
//! Each algorithm has one kernel, over the flat columnar structures. The
//! engine's [`crate::engine::Execution::Parallel`] queries run it with
//! per-worker arenas drawn from pooled [`crate::scratch::ScratchPool`]
//! stacks (no per-task arena allocation at steady state); the free
//! functions run it with a throwaway pool per call.
//!
//! The determinism guarantee is checked end-to-end by the
//! `parallel_agreement` and `engine_agreement` integration tests.
//!
//! ## Thread-count knob
//!
//! [`set_num_threads`] bounds the fan-out of all parallel entry points
//! process-wide; `0` (the default) means "use all available cores". Because
//! parallel and sequential paths agree bitwise, changing the knob never
//! changes any result — only the wall-clock time.
//!
//! The `ARSP_NUM_THREADS` environment variable provides the knob's initial
//! value (read once, on first use): running a binary or a test suite under
//! `ARSP_NUM_THREADS=2` behaves exactly as if `set_num_threads(2)` had been
//! called at startup, and `set_num_threads(0)` restores that environment
//! default rather than "all cores". CI uses this to exercise every parallel
//! path deterministically on every push.
//!
//! Without the `parallel` cargo feature every parallel entry point runs the
//! sequential code path and [`num_threads`] reports `1`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The process-wide thread-count override; `0` = automatic.
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Bounds the number of worker threads used by the parallel ARSP entry
/// points. `0` restores the default (the `ARSP_NUM_THREADS` environment
/// value when set, otherwise all available cores). Takes effect for
/// computations started after the call.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::SeqCst);
}

/// Parses an `ARSP_NUM_THREADS` value: a positive integer bounds the worker
/// count, everything else (unset, empty, `0`, garbage) means "no bound".
fn parse_thread_env(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0)
}

/// The `ARSP_NUM_THREADS` environment default, read once on first use.
fn env_num_threads() -> usize {
    static ENV_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *ENV_THREADS.get_or_init(|| parse_thread_env(std::env::var("ARSP_NUM_THREADS").ok().as_deref()))
}

/// The effective knob value: the [`set_num_threads`] override when set,
/// otherwise the `ARSP_NUM_THREADS` environment default; `0` = no bound.
fn knob() -> usize {
    let n = NUM_THREADS.load(Ordering::SeqCst);
    if n > 0 {
        n
    } else {
        env_num_threads()
    }
}

/// The number of worker threads parallel entry points will fan out to:
/// the [`set_num_threads`] override when set, otherwise the
/// `ARSP_NUM_THREADS` environment default, otherwise all available cores.
/// Always `1` when the `parallel` feature is disabled.
pub fn num_threads() -> usize {
    let n = knob();
    if n > 0 {
        return n;
    }
    #[cfg(feature = "parallel")]
    {
        rayon::current_num_threads()
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

/// Number of binary fan-out levels needed to keep `num_threads()` workers
/// busy: the smallest `l` with `2^l >= num_threads()`.
#[cfg(feature = "parallel")]
pub(crate) fn fan_out_levels() -> usize {
    let threads = num_threads();
    threads.next_power_of_two().trailing_zeros() as usize
}

/// Runs `f` inside a rayon pool sized to the [`set_num_threads`] override, so
/// that *every* parallel driver under `f` — including plain `par_iter`s that
/// would otherwise split by the machine's core count — honours the knob.
/// With no override set this is a plain call (rayon's default sizing
/// applies); pool construction is only paid when the knob is active.
#[cfg(feature = "parallel")]
pub(crate) fn with_pool<R>(f: impl FnOnce() -> R) -> R {
    let n = knob();
    if n == 0 {
        return f();
    }
    install_sized(n, f)
}

/// Runs `f` inside a dedicated rayon pool of `threads` workers (`0` falls
/// back to [`with_pool`], i.e. the process-wide knob). Used for per-query
/// thread bounds: a scoped pool never touches the process-global override,
/// so concurrent callers cannot race each other's settings and a panic in
/// `f` leaks nothing. Note the plain-`par_iter` paths inherit the installed
/// pool, but when the process-wide knob *is* set, nested [`with_pool`] calls
/// still honour it — the global override wins over the per-call size.
#[cfg(feature = "parallel")]
pub(crate) fn with_pool_sized<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    if threads == 0 {
        return with_pool(f);
    }
    install_sized(threads, f)
}

/// Builds a `threads`-sized pool and installs `f` in it, running `f` plainly
/// if pool construction fails.
#[cfg(feature = "parallel")]
fn install_sized<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(pool) => pool.install(f),
        Err(_) => f(),
    }
}

/// Serialises unit tests that set **and assert** the process-global knob, so
/// concurrently running tests that also twiddle it cannot interleave between
/// a test's store and its load. (Result bitwise-equality never depends on the
/// knob, so tests that only *set* it stay correct either way — but they take
/// the lock too, to keep value assertions elsewhere stable.)
#[cfg(test)]
pub(crate) fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    KNOB_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Splits `0..len` into at most `num_threads()` contiguous chunks (fewer when
/// `len` is small), preserving order.
#[cfg(feature = "parallel")]
pub(crate) fn chunk_bounds(len: usize) -> Vec<std::ops::Range<usize>> {
    let parts = num_threads().clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size > 0 {
            out.push(start..start + size);
            start += size;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_roundtrip() {
        let _guard = knob_lock();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(parse_thread_env(None), 0);
        assert_eq!(parse_thread_env(Some("")), 0);
        assert_eq!(parse_thread_env(Some("0")), 0);
        assert_eq!(parse_thread_env(Some("garbage")), 0);
        assert_eq!(parse_thread_env(Some("2")), 2);
        assert_eq!(parse_thread_env(Some(" 8 ")), 8);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn chunks_partition_the_range() {
        for len in [0usize, 1, 5, 17, 1000] {
            let chunks = chunk_bounds(len);
            assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), len);
            let mut expected_start = 0;
            for c in &chunks {
                assert_eq!(c.start, expected_start);
                assert!(!c.is_empty());
                expected_start = c.end;
            }
            assert_eq!(expected_start, len);
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn fan_out_covers_thread_count() {
        let _guard = knob_lock();
        set_num_threads(5);
        assert!(1 << fan_out_levels() >= 5);
        set_num_threads(0);
        assert!(1 << fan_out_levels() >= num_threads());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn with_pool_bounds_ambient_parallelism() {
        let _guard = knob_lock();
        set_num_threads(2);
        let seen = with_pool(rayon::current_num_threads);
        assert_eq!(seen, 2);
        set_num_threads(0);
    }
}
