//! Reusable per-query and per-worker working memory.
//!
//! The flat columnar algorithm paths keep every piece of per-query working
//! state — candidate stacks, σ buffers, heap storage, score-vector staging —
//! in one [`QueryScratch`] arena instead of allocating it per query. The
//! engine maintains a pool of these ([`crate::engine::ArspEngine`] checks one
//! out per query and returns it afterwards), so a warmed-up session performs
//! no heap allocation on the sequential hot paths beyond the result vector
//! each query returns.
//!
//! [`ScratchPool`] generalises that pattern to *worker-level* arenas: the
//! parallel twins hand out reusable arenas to their subtree / chunk tasks
//! from a stealable stack, so intra-query fan-out and `run_batch` sweeps
//! stop allocating arena memory per task once the pool has warmed to the
//! session's concurrency high-water mark (only O(fan-out) dispatch
//! bookkeeping remains). Pools count their hits (arena reused) and misses
//! (arena created), surfaced as the scratch fields of
//! [`crate::stats::ServingStats`] — a steady-state workload adds only hits.
//!
//! Scratch reuse is purely a memory-management concern: results are bitwise
//! identical whether a scratch is fresh, reused, or absent (the algorithms
//! fall back to a throwaway arena).

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{lock, Mutex};

use crate::algorithms::bnb::BnbScratch;
use crate::algorithms::kd_asp::KdScratch;
use crate::algorithms::loop_scan::LoopScratch;

/// A stealable stack of reusable arenas. `take` pops a warmed arena (or
/// creates a fresh one when the pool is dry — concurrent tasks beyond the
/// high-water mark, or the first use); `put` returns it for the next task.
/// Shared by reference across worker threads (`&self` everywhere), with the
/// stack behind one uncontended-in-practice mutex: tasks check out an arena
/// once per subtree/chunk, not per element.
#[derive(Debug, Default)]
pub struct ScratchPool<T> {
    stack: Mutex<Vec<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T: Default> ScratchPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            stack: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Checks an arena out of the pool, creating a fresh one when the pool
    /// is empty. Counts a hit (reuse) or a miss (creation).
    pub fn take(&self) -> T {
        let popped = lock(&self.stack).pop();
        match popped {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                value
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                T::default()
            }
        }
    }

    /// Grows the pool to at least `n` parked arenas, building the shortfall
    /// up front. Each arena built counts a miss — the invariant "misses =
    /// arenas ever built" survives warming — but the build happens at a
    /// moment of the caller's choosing (e.g. before admitting reader
    /// threads, see `crate::service::ArspService::warm_scratch`) instead of
    /// on the first queries' critical path.
    pub fn warm(&self, n: usize) {
        let shortfall = n.saturating_sub(self.size());
        for _ in 0..shortfall {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.put(T::default());
        }
    }

    /// Returns an arena to the pool for the next task.
    pub fn put(&self, value: T) {
        lock(&self.stack).push(value);
    }

    /// Number of take-calls served from a pooled arena.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of take-calls that had to create an arena — the number of
    /// arenas ever built, i.e. the pool's growth. Constant across a
    /// steady-state workload.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of arenas currently parked in the pool.
    pub fn size(&self) -> usize {
        lock(&self.stack).len()
    }

    /// Checks an arena out as an RAII lease: the arena returns to the pool
    /// when the lease drops, **including during an unwind**. Query paths use
    /// leases instead of bare `take`/`put` pairs so a cancelled or panicked
    /// query can never strand an arena — pool accounting and reuse stay
    /// intact across faults. (Arenas are not reset on return; every
    /// algorithm re-prepares its buffers on checkout, so a lease returned
    /// mid-computation is safe to reuse.)
    pub fn lease(&self) -> ScratchLease<'_, T> {
        ScratchLease {
            pool: self,
            item: Some(self.take()),
        }
    }
}

/// An RAII checkout from a [`ScratchPool`] — see [`ScratchPool::lease`].
/// Derefs to the arena; Drop returns it to the pool even through a panic.
#[derive(Debug)]
pub struct ScratchLease<'p, T: Default> {
    pool: &'p ScratchPool<T>,
    item: Option<T>,
}

impl<T: Default> std::ops::Deref for ScratchLease<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.item.as_ref().expect("lease holds an arena until drop")
    }
}

impl<T: Default> std::ops::DerefMut for ScratchLease<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("lease holds an arena until drop")
    }
}

impl<T: Default> Drop for ScratchLease<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            self.pool.put(item);
        }
    }
}

/// The union of every algorithm's reusable buffers. One instance serves any
/// sequence of queries (of any algorithm) against any dataset — buffers are
/// re-sized on use and grow to the session's high-water mark.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// kd-ASP\* traversal arena (KDTT / KDTT+ / QDTT+).
    pub(crate) kd: KdScratch,
    /// LOOP accumulation buffers.
    pub(crate) loop_scan: LoopScratch,
    /// B&B heap, tie-group staging and per-object accumulators.
    pub(crate) bnb: BnbScratch,
}

impl QueryScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The kd-ASP\* arena.
    pub fn kd_mut(&mut self) -> &mut KdScratch {
        &mut self.kd
    }

    /// The LOOP buffers.
    pub fn loop_mut(&mut self) -> &mut LoopScratch {
        &mut self.loop_scan
    }

    /// The B&B buffers.
    pub fn bnb_mut(&mut self) -> &mut BnbScratch {
        &mut self.bnb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_arenas_and_counts_growth() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        assert_eq!(pool.size(), 0);

        // First take: the pool is dry — one miss, one arena built.
        let mut a = pool.take();
        assert_eq!((pool.hits(), pool.misses()), (0, 1));
        a.resize(64, 0);
        pool.put(a);
        assert_eq!(pool.size(), 1);

        // Steady state: every further take is a hit, the arena keeps its
        // capacity, and the pool never grows.
        for _ in 0..5 {
            let b = pool.take();
            assert!(b.capacity() >= 64, "pooled arena lost its warm buffer");
            pool.put(b);
        }
        assert_eq!((pool.hits(), pool.misses()), (5, 1));
        assert_eq!(pool.size(), 1);

        // Two concurrent checkouts: the pool grows exactly once more.
        let a = pool.take();
        let b = pool.take();
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.misses(), 2);
        assert_eq!(pool.size(), 2);
    }

    #[test]
    fn lease_returns_arena_even_through_a_panic() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        {
            let mut lease = pool.lease();
            lease.resize(32, 0);
        }
        assert_eq!(pool.size(), 1, "normal drop parks the arena");

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _lease = pool.lease();
            panic!("mid-query fault");
        }));
        assert!(caught.is_err());
        assert_eq!(pool.size(), 1, "unwound lease still parks the arena");
        let warm = pool.take();
        assert!(warm.capacity() >= 32, "the warmed arena survived the fault");
        pool.put(warm);
    }

    #[test]
    fn warming_builds_the_shortfall_and_counts_it() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        pool.warm(3);
        assert_eq!(pool.size(), 3);
        assert_eq!((pool.hits(), pool.misses()), (0, 3));

        // Warming to a smaller (or equal) target is a no-op.
        pool.warm(2);
        assert_eq!(pool.size(), 3);
        assert_eq!(pool.misses(), 3);

        // Warmed arenas are real hits afterwards.
        let a = pool.take();
        assert_eq!((pool.hits(), pool.misses()), (1, 3));
        pool.put(a);
    }
}
