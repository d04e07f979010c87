//! Build-coalescing caches: the claim/join/wait protocol behind every
//! serving-layer cache.
//!
//! Extracted from [`crate::service`] as a public module so the protocol can
//! be driven directly — by the service, by unit tests, and by the
//! model-checked interleaving tests in `tests/model_check.rs` (which prove
//! "identical keys get exactly one build, waiters always wake, and a
//! builder panic releases the waiters" across *all* schedules, not just the
//! ones the OS scheduler produces). All synchronization goes through
//! [`crate::sync`], so the same code runs under `std` and under the
//! `interleave` model checker.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{lock, Arc, Condvar, Mutex};

/// How long a rendezvous-holding builder waits for its joiners before
/// publishing anyway — a liveness backstop for the deterministic-test knob,
/// never hit when the knob is off (the default). Under the model checker
/// the duration is ignored: the modelled timeout fires exactly when no
/// other thread can make progress.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(2);

/// Service-wide coalescing counters, shared by every [`CoalescingCache`]
/// the service ever creates — they survive snapshot retirement, so the
/// stats describe the whole session.
#[derive(Debug, Default)]
pub struct CoalesceCounters {
    /// Lookups answered from a ready artifact.
    hits: AtomicU64,
    /// Builds actually performed (exactly one per distinct missing key).
    builds: AtomicU64,
    /// Lookups that joined another thread's in-progress build.
    coalesced: AtomicU64,
}

impl CoalesceCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups answered from a ready artifact.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Builds actually performed (exactly one per distinct missing key).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Lookups that joined another thread's in-progress build.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

/// Typed outcome of a [`CoalescingCache::get_or_build_deadline`] join whose
/// deadline elapsed while another thread's build was still in flight. The
/// service layer maps this to [`crate::fault::QueryError::BuildTimeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinTimeout {
    /// How long the joiner waited before detaching.
    pub waited: Duration,
}

impl std::fmt::Display for JoinTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "timed out after {:?} waiting to join an in-flight cache build",
            self.waited
        )
    }
}

impl std::error::Error for JoinTimeout {}

struct CoalescingInner<V> {
    /// Published artifacts.
    ready: HashMap<Vec<u64>, V>,
    /// In-progress builds: key → number of joiners waiting on it.
    inflight: HashMap<Vec<u64>, usize>,
}

/// A build-coalescing cache: concurrent lookups of the *same* missing key
/// produce **one** build — the first requester claims it (outside the lock),
/// later requesters wait on the condvar and share the published value.
/// Lookups of distinct keys proceed independently. Panic-safe: a builder
/// that unwinds un-claims the key and wakes the waiters, the first of which
/// becomes the new builder.
pub struct CoalescingCache<V> {
    inner: Mutex<CoalescingInner<V>>,
    cv: Condvar,
    counters: Arc<CoalesceCounters>,
    /// Joiners a builder waits for before publishing (0 = publish
    /// immediately; see `ArspService::set_coalescing_rendezvous`).
    rendezvous: Arc<AtomicUsize>,
}

/// Un-claims an in-flight build when the builder unwinds, so waiters retry
/// instead of blocking forever.
struct Unclaim<'a, V> {
    cache: &'a CoalescingCache<V>,
    key: &'a [u64],
    armed: bool,
}

impl<V> Drop for Unclaim<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            lock(&self.cache.inner).inflight.remove(self.key);
            self.cache.cv.notify_all();
        }
    }
}

impl<V: Clone> CoalescingCache<V> {
    /// A cache contributing to the given shared counters, honouring the
    /// shared rendezvous knob.
    pub fn new(counters: &Arc<CoalesceCounters>, rendezvous: &Arc<AtomicUsize>) -> Self {
        Self {
            inner: Mutex::new(CoalescingInner {
                ready: HashMap::new(),
                inflight: HashMap::new(),
            }),
            cv: Condvar::new(),
            counters: Arc::clone(counters),
            rendezvous: Arc::clone(rendezvous),
        }
    }

    /// Publishes an already-built artifact (an artifact carried forward from
    /// an earlier version); counts neither a hit nor a build. Keeps an
    /// existing entry — seeded artifacts and built artifacts are
    /// interchangeable bitwise, so first-published wins.
    pub fn seed(&self, key: Vec<u64>, value: V) {
        lock(&self.inner).ready.entry(key).or_insert(value);
        self.cv.notify_all();
    }

    /// Every published artifact, in no particular order. In-flight builds
    /// are skipped, never waited on; counts neither hits nor builds.
    pub fn ready(&self) -> Vec<V> {
        lock(&self.inner).ready.values().cloned().collect()
    }

    /// The coalescing lookup. `build` runs outside the lock, at most once
    /// per missing key across all concurrent callers.
    pub fn get_or_build(&self, key: &[u64], build: impl FnOnce() -> V) -> V {
        match self.get_or_build_deadline(key, None, build) {
            Ok(value) => value,
            Err(_) => unreachable!("joins without a deadline never time out"),
        }
    }

    /// [`get_or_build`](Self::get_or_build) with a deadline on the *join*
    /// path: a caller that would otherwise wait on another thread's
    /// in-progress build waits at most until `deadline`, then detaches with
    /// a typed [`JoinTimeout`] instead of hanging on a stuck or killed
    /// builder forever. Only waiting is bounded — if this caller claims the
    /// build itself, the build runs to completion (builds publish complete
    /// artifacts or nothing). A detached joiner leaves the build untouched:
    /// if the builder is alive it still publishes for future callers.
    pub fn get_or_build_deadline(
        &self,
        key: &[u64],
        deadline: Option<Instant>,
        build: impl FnOnce() -> V,
    ) -> Result<V, JoinTimeout> {
        let wait_start = Instant::now();
        {
            let mut inner = lock(&self.inner);
            loop {
                if let Some(value) = inner.ready.get(key) {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(value.clone());
                }
                if let Some(joiners) = inner.inflight.get_mut(key) {
                    // Someone is building this key: join rather than race.
                    *joiners += 1;
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    // A rendezvous-holding builder counts joiners — wake it.
                    self.cv.notify_all();
                    loop {
                        if inner.ready.contains_key(key) || !inner.inflight.contains_key(key) {
                            break;
                        }
                        match deadline {
                            None => {
                                inner = self
                                    .cv
                                    .wait(inner)
                                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                            }
                            Some(d) => {
                                let now = Instant::now();
                                if now >= d {
                                    // Detach: de-register from the joiner
                                    // count (the rendezvous knob must not
                                    // keep waiting for us) and give up.
                                    if let Some(j) = inner.inflight.get_mut(key) {
                                        *j = j.saturating_sub(1);
                                    }
                                    return Err(JoinTimeout {
                                        waited: wait_start.elapsed(),
                                    });
                                }
                                let (guard, _timed_out) = self
                                    .cv
                                    .wait_timeout(inner, d - now)
                                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                                inner = guard;
                            }
                        }
                    }
                    // Ready → returned by the outer re-check; in-flight gone
                    // without a publish (builder unwound) → the re-check
                    // claims the build for this thread.
                    continue;
                }
                break;
            }
            inner.inflight.insert(key.to_vec(), 0);
            self.counters.builds.fetch_add(1, Ordering::Relaxed);
        }

        let unclaim = Unclaim {
            cache: self,
            key,
            armed: true,
        };
        let value = build();

        let mut inner = lock(&self.inner);
        let want = self.rendezvous.load(Ordering::Relaxed);
        if want > 0 {
            // Test-only determinism: hold the publish until `want` joiners
            // have registered (or the liveness backstop fires).
            let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
            while inner.inflight.get(key).copied().unwrap_or(usize::MAX) < want {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = self
                    .cv
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                inner = guard;
                if timeout.timed_out() {
                    // Under the model checker the wall-clock deadline never
                    // fires; the modelled timeout is the liveness exit.
                    break;
                }
            }
        }
        inner.inflight.remove(key);
        inner.ready.insert(key.to_vec(), value.clone());
        std::mem::forget(unclaim); // published normally — nothing to undo
        drop(inner);
        self.cv.notify_all();
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn builds_once_per_key() {
        let counters = Arc::new(CoalesceCounters::new());
        let rendezvous = Arc::new(AtomicUsize::new(0));
        let cache: CoalescingCache<u64> = CoalescingCache::new(&counters, &rendezvous);
        assert_eq!(cache.get_or_build(&[1], || 10), 10);
        assert_eq!(cache.get_or_build(&[1], || 99), 10); // hit, build not run
        assert_eq!(cache.get_or_build(&[2], || 20), 20);
        assert_eq!(counters.builds(), 2);
        assert_eq!(counters.hits(), 1);
        assert_eq!(counters.coalesced(), 0);
    }

    #[test]
    fn rendezvous_joins_deterministically() {
        let counters = Arc::new(CoalesceCounters::new());
        let rendezvous = Arc::new(AtomicUsize::new(1));
        let cache: Arc<CoalescingCache<u64>> =
            Arc::new(CoalescingCache::new(&counters, &rendezvous));
        let barrier = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_build(&[7], || 42)
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().expect("coalescing thread panicked"), 42);
        }
        // Exactly one build; the other thread joined it (the rendezvous
        // held the publish until the join registered).
        assert_eq!(counters.builds(), 1);
        assert_eq!(counters.coalesced(), 1);
    }

    #[test]
    fn survives_a_builder_panic() {
        let counters = Arc::new(CoalesceCounters::new());
        let rendezvous = Arc::new(AtomicUsize::new(0));
        let cache: CoalescingCache<u64> = CoalescingCache::new(&counters, &rendezvous);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&[5], || panic!("builder died"))
        }));
        assert!(attempt.is_err());
        // The key is un-claimed: the next caller builds it normally.
        assert_eq!(cache.get_or_build(&[5], || 55), 55);
        assert_eq!(counters.builds(), 2);
    }

    #[test]
    fn joiner_deadline_detaches_instead_of_hanging() {
        let counters = Arc::new(CoalesceCounters::new());
        let rendezvous = Arc::new(AtomicUsize::new(0));
        let cache: Arc<CoalescingCache<u64>> =
            Arc::new(CoalescingCache::new(&counters, &rendezvous));

        // A builder that blocks until released — stands in for a stuck or
        // killed builder thread.
        let release = Arc::new(Barrier::new(2));
        let started = Arc::new(Barrier::new(2));
        let builder = {
            let cache = Arc::clone(&cache);
            let release = Arc::clone(&release);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                cache.get_or_build(&[9], || {
                    started.wait(); // build claimed and running
                    release.wait(); // ...and stuck until released
                    90
                })
            })
        };
        started.wait();

        // A joiner with a deadline detaches with a typed timeout instead of
        // waiting forever on the stuck build.
        let deadline = Instant::now() + Duration::from_millis(50);
        let err = cache
            .get_or_build_deadline(&[9], Some(deadline), || unreachable!("build is claimed"))
            .expect_err("the stuck build must time the joiner out");
        assert!(err.waited >= Duration::from_millis(50));

        // The detached joiner left the build intact: once the builder is
        // released it publishes normally and future callers hit the cache.
        release.wait();
        assert_eq!(builder.join().expect("builder thread panicked"), 90);
        let deadline = Instant::now() + Duration::from_secs(5);
        assert_eq!(
            cache.get_or_build_deadline(&[9], Some(deadline), || 99),
            Ok(90)
        );
        assert_eq!(counters.builds(), 1);
    }

    #[test]
    fn seeding_wins_only_when_first() {
        let counters = Arc::new(CoalesceCounters::new());
        let rendezvous = Arc::new(AtomicUsize::new(0));
        let cache: CoalescingCache<u64> = CoalescingCache::new(&counters, &rendezvous);
        cache.seed(vec![3], 30);
        cache.seed(vec![3], 31); // first-published wins
        assert_eq!(cache.get_or_build(&[3], || 99), 30);
        assert_eq!(counters.hits(), 1);
        assert_eq!(counters.builds(), 0);
        // Listing the published artifacts counts nothing.
        assert_eq!(cache.ready(), vec![30]);
        assert_eq!(counters.hits(), 1);
    }
}
