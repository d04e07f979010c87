//! Work counters threaded through the ARSP algorithms, and the one
//! statistics snapshot of every single-store front ([`ServingStats`]).
//!
//! Every algorithm entry point accepts an optional [`CounterStats`] sink.
//! When one is supplied (the engine does so for queries built with
//! `collect_stats(true)`), the algorithm reports how much work it performed:
//! F-dominance / score-space dominance tests, partitioning-tree nodes
//! visited, and aggregated-R-tree window queries. The counters are purely
//! observational — supplying a sink never changes a single float operation,
//! which is what keeps the engine's results bitwise identical to the free
//! functions'.
//!
//! The counters are atomics so the parallel execution paths can report from
//! worker threads; algorithms accumulate locally and flush in batches (per
//! instance, per node pass) to keep the hot loops free of per-test atomic
//! traffic.
//!
//! [`ServingStats`] has one producer per field group: the artifact store
//! every snapshot of a store shares, the standing-query registry, and the
//! service (whose in-flight gauge is a [`PeakGauge`]).

use crate::sync::atomic::{AtomicU64, Ordering};

/// A thread-safe sink for algorithm work counters.
#[derive(Debug, Default)]
pub struct CounterStats {
    fdom_tests: AtomicU64,
    nodes_visited: AtomicU64,
    window_queries: AtomicU64,
}

impl CounterStats {
    /// Creates a sink with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` F-dominance (or score-space dominance) tests.
    #[inline]
    pub fn add_fdom_tests(&self, n: u64) {
        if n > 0 {
            self.fdom_tests.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` visited partitioning-tree nodes (kd/quad subtree nodes for
    /// the KDTT family, R-tree nodes popped from the best-first heap for B&B).
    #[inline]
    pub fn add_nodes_visited(&self, n: u64) {
        if n > 0 {
            self.nodes_visited.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` aggregated-R-tree window queries (B&B's σ\[j\] sums and
    /// DUAL's per-object dominating-mass queries).
    #[inline]
    pub fn add_window_queries(&self, n: u64) {
        if n > 0 {
            self.window_queries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> QueryCounters {
        QueryCounters {
            fdom_tests: self.fdom_tests.load(Ordering::Relaxed),
            nodes_visited: self.nodes_visited.load(Ordering::Relaxed),
            window_queries: self.window_queries.load(Ordering::Relaxed),
        }
    }
}

/// A concurrency gauge: tracks how many activities are *currently* in flight
/// and the highest that figure has ever been. The serving layer
/// (`crate::service`) wraps every query in a [`PeakGauge::enter`] guard, so
/// `current()` is the live in-flight query count and `peak()` proves how much
/// concurrency a run actually achieved (what the coalescing tests assert).
/// Purely observational, like every counter in this module.
#[derive(Debug, Default)]
pub struct PeakGauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl PeakGauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enters the gauged section; the returned guard exits it on drop (also
    /// on panic, so a crashed activity never wedges the gauge).
    pub fn enter(&self) -> PeakGaugeGuard<'_> {
        let now = self.current.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        PeakGaugeGuard { gauge: self }
    }

    /// Admission-controlled [`enter`](Self::enter): succeeds only while
    /// fewer than `limit` activities are in flight, otherwise sheds the
    /// caller with `None` and leaves the gauge untouched. The increment is
    /// optimistic — fetch-add, check, undo — so the bound is exact: with
    /// `limit = n`, no interleaving ever observes more than `n` admitted
    /// activities at once.
    pub fn try_enter(&self, limit: u64) -> Option<PeakGaugeGuard<'_>> {
        let now = self.current.fetch_add(1, Ordering::Relaxed) + 1;
        if now > limit {
            self.current.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        self.peak.fetch_max(now, Ordering::Relaxed);
        Some(PeakGaugeGuard { gauge: self })
    }

    /// Activities in flight right now.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// The highest concurrent in-flight count ever observed.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// RAII guard of one gauged activity (see [`PeakGauge::enter`]).
#[derive(Debug)]
pub struct PeakGaugeGuard<'g> {
    gauge: &'g PeakGauge,
}

impl Drop for PeakGaugeGuard<'_> {
    fn drop(&mut self) {
        self.gauge.current.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The one statistics snapshot of a single-store front: the static
/// [`ArspEngine`](crate::engine::ArspEngine), the dynamic
/// [`DynamicArspEngine`](crate::dynamic::DynamicArspEngine) and the
/// [`ArspService`](crate::service::ArspService) each return it from
/// `serving_stats()`. The store fields (cache lookups, builds and joins,
/// scratch checkouts, invalidations, merges) come from the artifacts every
/// snapshot of the store shares, so a service and its writer's engine
/// report the same figures. The serving fields (queries, pins, snapshots)
/// are 0 on the engines; the standing, invalidation and merge fields are 0
/// on the static engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Queries in flight right now.
    pub inflight: u64,
    /// Highest concurrent in-flight query count ever observed.
    pub peak_inflight: u64,
    /// Queries served (monotone).
    pub queries_served: u64,
    /// Queries shed by admission control
    /// ([`ArspService::set_admission_limit`](crate::service::ArspService::set_admission_limit))
    /// without executing.
    pub queries_shed: u64,
    /// Artifact builds actually performed across all snapshot caches —
    /// exactly one per distinct missing key, however many readers asked.
    /// Includes the builds of the standing refreshes, which share the
    /// readers' caches.
    pub shared_builds: u64,
    /// Lookups that joined another thread's in-progress build instead of
    /// duplicating it (batch coalescing: concurrent queries on any front —
    /// the serving layer, the dynamic engine, the static engine's
    /// [`run_batch`](crate::engine::ArspEngine::run_batch)).
    pub coalesced_builds: u64,
    /// Lookups answered from an already-published artifact (the standing
    /// refreshes included). A structure the dynamic engine patched forward
    /// to a new version counts when a query looks it up, not when it is
    /// patched.
    pub cache_hits: u64,
    /// Scratch-pool checkouts served by a warmed arena (per-query
    /// [`QueryScratch`](crate::scratch::QueryScratch) plus the per-worker
    /// arenas of the parallel twins).
    pub scratch_hits: u64,
    /// Scratch-pool checkouts that had to create an arena — the total number
    /// of arenas the store ever built. Constant across a steady-state
    /// workload (zero arena growth), which is what the pool-reuse tests
    /// assert.
    pub scratch_misses: u64,
    /// Cached structures dropped because a dataset mutation made them
    /// unpatchable (the bulk-loaded instance R-tree, the DUAL per-object
    /// index, the materialised snapshot dataset).
    pub caches_invalidated: u64,
    /// Logarithmic-method merges performed: versioned-store compactions.
    pub merges_performed: u64,
    /// Snapshots published (the constructor's initial snapshot counts).
    pub snapshots_published: u64,
    /// Superseded snapshots reclaimed after their last pin dropped (or that
    /// had no pins at publish time).
    pub snapshots_retired: u64,
    /// Pins (and pin clones) currently outstanding.
    pub active_pins: u64,
    /// Distinct versions currently pinned.
    pub pinned_snapshots: u64,
    /// Standing-query change-set notifications enqueued (one per
    /// subscription per refreshed version change, plus each subscription's
    /// initial full batch). A refresh still in the notifier's backlog is
    /// not counted yet.
    pub notifications_delivered: u64,
    /// Always 0: every standing refresh is one ordinary query, so no pass
    /// recomputes a dirty subset any more. Kept only because the serving
    /// benchmark reads it; the next change to the benchmark drops it.
    pub dirty_instances_scanned: u64,
    /// Always 0, for the same reason as
    /// [`dirty_instances_scanned`](Self::dirty_instances_scanned): no
    /// refresh has a cheaper path to fall back from.
    pub standing_full_fallbacks: u64,
    /// Gauge: versions handed to the standing notifier and not yet
    /// refreshed, the one in progress included. It stays near zero while
    /// the notifier keeps up with the writer and never exceeds
    /// [`HAND_OFF_BOUND`](crate::standing::HAND_OFF_BOUND), at which the
    /// writer waits.
    pub standing_backlog: u64,
    /// The longest time, in microseconds, from handing a version to the
    /// notifier to its refresh finishing (queueing included).
    pub standing_lag_max_us: u64,
    /// Standing refreshes that panicked on the notifier (each re-raised by
    /// the writer's next publish or sync).
    pub standing_refresh_panics: u64,
}

/// A plain-value snapshot of [`CounterStats`], carried by
/// [`crate::engine::ArspOutcome`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// F-dominance / score-space dominance tests performed.
    pub fdom_tests: u64,
    /// Partitioning-tree nodes visited.
    pub nodes_visited: u64,
    /// Aggregated-R-tree window queries answered.
    pub window_queries: u64,
}

impl QueryCounters {
    /// Sum of all counters — a single "work units" figure for quick logging.
    pub fn total(&self) -> u64 {
        self.fdom_tests + self.nodes_visited + self.window_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let sink = CounterStats::new();
        sink.add_fdom_tests(3);
        sink.add_fdom_tests(0); // no-op fast path
        sink.add_nodes_visited(2);
        sink.add_window_queries(5);
        let snap = sink.snapshot();
        assert_eq!(
            snap,
            QueryCounters {
                fdom_tests: 3,
                nodes_visited: 2,
                window_queries: 5,
            }
        );
        assert_eq!(snap.total(), 10);
    }

    #[test]
    fn peak_gauge_tracks_current_and_peak() {
        let gauge = PeakGauge::new();
        assert_eq!((gauge.current(), gauge.peak()), (0, 0));
        {
            let _a = gauge.enter();
            assert_eq!((gauge.current(), gauge.peak()), (1, 1));
            {
                let _b = gauge.enter();
                assert_eq!((gauge.current(), gauge.peak()), (2, 2));
            }
            assert_eq!((gauge.current(), gauge.peak()), (1, 2));
        }
        assert_eq!((gauge.current(), gauge.peak()), (0, 2));

        // A panic inside the gauged section still exits it.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = gauge.enter();
            panic!("boom");
        }));
        assert!(caught.is_err());
        assert_eq!(gauge.current(), 0);
    }

    #[test]
    fn try_enter_sheds_exactly_beyond_the_limit() {
        let gauge = PeakGauge::new();
        let a = gauge.try_enter(2).expect("first admit");
        let b = gauge.try_enter(2).expect("second admit");
        assert!(gauge.try_enter(2).is_none(), "third caller is shed");
        assert_eq!(gauge.current(), 2, "a shed caller leaves no residue");
        drop(a);
        let c = gauge.try_enter(2).expect("freed slot re-admits");
        drop(b);
        drop(c);
        assert_eq!((gauge.current(), gauge.peak()), (0, 2));
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let sink = std::sync::Arc::new(CounterStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = sink.clone();
                crate::sync::thread::spawn(move || s.add_nodes_visited(100))
            })
            .collect();
        for h in handles {
            h.join().expect("counter thread panicked");
        }
        assert_eq!(sink.snapshot().nodes_visited, 400);
    }
}
