//! The rayon-based parallel execution layer.
//!
//! An engine query run with [`crate::engine::Execution::Parallel`] runs the
//! algorithm's one kernel fanned out over worker threads, with results
//! **bitwise identical** to the same kernel run on the calling thread:
//!
//! * **LOOP** parallelises over instances — each instance's probability is an
//!   independent product accumulated in a deterministic order,
//! * **KDTT+ / QDTT+** fan the one kd-ASP\* traversal out: sibling subtrees
//!   of its first few levels run on worker arenas seeded with copies of the
//!   exactly-restored traversal state (σ, β, χ), so every leaf sees the same
//!   float operations as when every child runs inline,
//! * **KDTT** runs sequentially: the same traversal over its prebuilt tree
//!   is the construction-cost baseline the fused variants are measured
//!   against,
//! * **B&B** runs sequentially: its best-first traversal and aggregated
//!   R-tree updates are order-dependent, and fanning out each popped
//!   instance's window queries measured 0.16–0.30× of sequential,
//! * **DUAL** parallelises over instance chunks: each instance's probability
//!   is an independent fold over the (read-only) per-object forests,
//! * **ENUM** stays sequential: its per-instance sums over possible worlds
//!   are order-sensitive under floating point, so chunked summation would
//!   change results. It is an exponential toy baseline either way.
//!
//! Each algorithm has one kernel, over the flat columnar structures. Fanned
//! out, it draws per-worker arenas from pooled
//! [`crate::scratch::ScratchPool`] stacks (no per-task arena allocation at
//! steady state).
//!
//! The determinism guarantee is checked end-to-end by the
//! `parallel_agreement` and `engine_agreement` integration tests.
//!
//! ## Width
//!
//! A query's width comes from the query alone: `Parallel { threads }` with
//! `threads > 0` installs a rayon pool of that width around the query,
//! clamped to [`MAX_WIDTH`], and `threads = 0` runs at the ambient rayon
//! width. The kernels size their fan-out from [`rayon::current_num_threads`].
//! Because parallel and sequential paths agree bitwise, the width never
//! changes any result, only the wall-clock time.

/// The widest pool a query runs in: `Execution::Parallel { threads }` above
/// this runs at this width. LOOP and DUAL cut their scan into one chunk per
/// worker and run each chunk on its own OS thread, so an unbounded width
/// would start one thread per instance.
pub const MAX_WIDTH: usize = 64;

/// Runs `f` inside a rayon pool of `threads` workers (at most
/// [`MAX_WIDTH`]), so every parallel driver under `f` (kd subtree joins,
/// LOOP and DUAL chunks) fans out to that width. `0` runs `f` at the
/// ambient width. A scoped pool touches no process-wide state, so
/// concurrent queries of different widths cannot interfere.
pub(crate) fn with_width<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    if threads == 0 {
        return f();
    }
    let threads = threads.min(MAX_WIDTH);
    match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(pool) => pool.install(f),
        Err(_) => f(),
    }
}

/// Number of binary fan-out levels needed to keep every worker of the
/// ambient pool busy: the smallest `l` with `2^l >= current_num_threads()`.
pub(crate) fn fan_out_levels() -> usize {
    rayon::current_num_threads()
        .next_power_of_two()
        .trailing_zeros() as usize
}

/// Splits `0..len` into at most `current_num_threads()` contiguous chunks
/// (fewer when `len` is small), preserving order.
pub(crate) fn chunk_bounds(len: usize) -> Vec<std::ops::Range<usize>> {
    let parts = rayon::current_num_threads().clamp(1, len.max(1));
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

/// Splits `0..len` into at most `current_num_threads()` contiguous chunks of
/// about equal *triangular* work, preserving order: for scans where position
/// `p` costs about `p` (LOOP), chunk `i` ends near `len·√(i / parts)`, so
/// every chunk covers about the same `p²/2` area.
pub(crate) fn triangular_chunk_bounds(len: usize) -> Vec<std::ops::Range<usize>> {
    let parts = rayon::current_num_threads().clamp(1, len.max(1));
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 1..=parts {
        let end = if i == parts {
            len
        } else {
            ((len as f64 * (i as f64 / parts as f64).sqrt()).round() as usize).clamp(start, len)
        };
        if end > start {
            out.push(start..end);
            start = end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_the_range() {
        for threads in [1usize, 2, 3, 8] {
            with_width(threads, || {
                for len in [0usize, 1, 5, 17, 1000] {
                    let chunks = chunk_bounds(len);
                    assert_eq!(chunks.len(), threads.min(len));
                    let mut expected_start = 0;
                    for c in &chunks {
                        assert_eq!(c.start, expected_start);
                        assert!(!c.is_empty());
                        expected_start = c.end;
                    }
                    assert_eq!(expected_start, len);
                }
            });
        }
    }

    #[test]
    fn triangular_chunks_partition_the_range_at_equal_work() {
        for threads in [1usize, 2, 3, 4] {
            with_width(threads, || {
                for len in [0usize, 1, 2, 5, 17, 1000, 1852] {
                    let chunks = triangular_chunk_bounds(len);
                    let mut expected_start = 0;
                    for c in &chunks {
                        assert_eq!(c.start, expected_start);
                        assert!(!c.is_empty());
                        expected_start = c.end;
                    }
                    assert_eq!(expected_start, len);
                    if len >= 1000 {
                        // Work of position p is ~p: every chunk gets its
                        // 1/parts share of the n²/2 total within 1%.
                        assert_eq!(chunks.len(), threads);
                        let total = (len * len) as f64 / 2.0;
                        for c in &chunks {
                            let work = (c.end * c.end - c.start * c.start) as f64 / 2.0;
                            assert!((work / total - 1.0 / threads as f64).abs() < 0.01);
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn fan_out_covers_thread_count() {
        for threads in [1usize, 2, 3, 5, 8] {
            with_width(threads, || assert!(1 << fan_out_levels() >= threads));
        }
        assert_eq!(with_width(1, fan_out_levels), 0);
        assert!(1 << fan_out_levels() >= rayon::current_num_threads());
    }

    #[test]
    fn with_width_bounds_ambient_parallelism() {
        assert_eq!(with_width(2, rayon::current_num_threads), 2);
        // Nested widths: the innermost query's width wins, and leaving it
        // restores the outer one.
        with_width(3, || {
            assert_eq!(with_width(5, rayon::current_num_threads), 5);
            assert_eq!(rayon::current_num_threads(), 3);
        });
        assert_eq!(
            with_width(0, rayon::current_num_threads),
            rayon::current_num_threads()
        );
    }

    #[test]
    fn with_width_clamps_to_the_cap() {
        // Installing a pool only sets the width; no thread starts here.
        assert_eq!(
            with_width(usize::MAX, rayon::current_num_threads),
            MAX_WIDTH
        );
        assert_eq!(
            with_width(MAX_WIDTH + 1, rayon::current_num_threads),
            MAX_WIDTH
        );
        assert_eq!(with_width(MAX_WIDTH, rayon::current_num_threads), MAX_WIDTH);
    }
}
