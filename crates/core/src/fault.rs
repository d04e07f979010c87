//! Fault-tolerance primitives for the serving layer: typed query errors,
//! cooperative cancellation budgets, and a jittered retry/backoff helper.
//!
//! The design splits responsibility three ways:
//!
//! * [`QueryBudget`] carries a wall-clock deadline and/or an explicit cancel
//!   flag. The flat kernels poll it at their natural work granularity
//!   (per kd-tree node, per instance, per heap pop) via [`poll`], which is a
//!   no-op branch when no budget is attached. Expiry raises a private
//!   sentinel unwind — not a `Result` threaded through every recursion — so
//!   the kernels stay pure and the cost of cancellation support is a single
//!   predictable branch on the hot path.
//! * [`Query::try_run`](crate::pipeline::Query::try_run) — the one query
//!   builder's, the same on every front — wraps execution in `catch_unwind`
//!   and translates the sentinel into a typed
//!   [`QueryError::DeadlineExceeded`], and any *other* panic into
//!   [`QueryError::Panicked`] — containment, not propagation. RAII guards
//!   (scratch leases, coalescing claims) release on the way out, and a
//!   snapshot pin is a plain `Arc`, so a cancelled or panicked query leaves
//!   every cache and pool reusable.
//! * [`RetryPolicy`] gives callers a deterministic, jittered exponential
//!   backoff for the retryable errors ([`QueryError::is_retryable`]):
//!   admission-control sheds are transient by design.

use std::error::Error;
use std::fmt;
use std::panic::resume_unwind;
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Typed failure modes of a fallible query ([`try_run`]).
///
/// [`try_run`]: crate::pipeline::Query::try_run
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query's [`QueryBudget`] expired (or was cancelled) before the
    /// kernels finished. State is uncorrupted: re-running the identical
    /// query with a fresh budget returns bitwise-identical results to a
    /// cold engine.
    DeadlineExceeded {
        /// Wall-clock time spent before cancellation was observed.
        elapsed: Duration,
        /// The configured budget, if the cancellation came from a deadline
        /// (`None` for an explicit [`QueryBudget::cancel`]).
        budget: Option<Duration>,
    },
    /// Admission control shed the query: the bounded in-flight gauge was at
    /// its limit. Nothing was executed; retry after backoff.
    Overloaded {
        /// In-flight queries observed at admission time.
        inflight: u64,
        /// The configured admission limit.
        limit: u64,
    },
    /// A builder for a shared cache artefact did not publish within the
    /// deadline-aware coalescing wait. The waiter detached cleanly; the
    /// build (if alive) continues for future queries.
    BuildTimeout {
        /// How long the query had run when its join detached, counted like
        /// the deadline that expired — from the start of the query's
        /// budget — so never less than that deadline.
        waited: Duration,
    },
    /// The query panicked for a reason other than cancellation. The panic
    /// was contained at the query boundary; guards released all shared
    /// state, so subsequent queries are unaffected.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A fail-closed sharded query ([`crate::cluster::ShardedService`])
    /// found at least one shard quarantined or mid-recovery. Retryable: the
    /// supervisor restores shards in the background. Callers that prefer an
    /// answer over completeness opt into `allow_partial(true)` and receive an
    /// answer over the shards that are up instead of this error.
    ShardUnavailable {
        /// The shards that could not answer, in ascending order.
        shards_missing: Vec<usize>,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::DeadlineExceeded { elapsed, budget } => match budget {
                Some(budget) => write!(
                    f,
                    "query deadline exceeded after {elapsed:?} (budget {budget:?})"
                ),
                None => write!(f, "query cancelled after {elapsed:?}"),
            },
            QueryError::Overloaded { inflight, limit } => write!(
                f,
                "query shed by admission control ({inflight} in flight, limit {limit})"
            ),
            QueryError::BuildTimeout { waited } => {
                write!(f, "shared cache build did not publish within {waited:?}")
            }
            QueryError::Panicked { message } => write!(f, "query panicked: {message}"),
            QueryError::ShardUnavailable { shards_missing } => {
                write!(f, "shards {shards_missing:?} are unavailable")
            }
        }
    }
}

impl Error for QueryError {}

impl QueryError {
    /// Whether the failure is transient and worth retrying (with backoff).
    ///
    /// Shed queries, build-wait timeouts and unavailable shards are
    /// transient (the supervisor recovers quarantined shards in the
    /// background); deadline expiry and panics are not (an identical retry
    /// would hit the same wall).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            QueryError::Overloaded { .. }
                | QueryError::BuildTimeout { .. }
                | QueryError::ShardUnavailable { .. }
        )
    }
}

/// Sentinel unwind payload used for cooperative cancellation.
///
/// [`QueryBudget::check`] raises it via `resume_unwind` (which skips the
/// panic hook — cancellation is control flow, not a bug report) and the
/// `catch_unwind` boundary in `try_run` downcasts it back into
/// [`QueryError::DeadlineExceeded`]. Deliberately private: the only
/// legitimate producer and consumer are in this crate.
pub(crate) struct CancelUnwind;

/// Sentinel unwind payload for a deadline-expired coalescing join (see
/// [`crate::coalesce::CoalescingCache::get_or_build_deadline`]): raised
/// inside the serving layer's cache getters, classified into
/// [`QueryError::BuildTimeout`] at the `try_run` boundary.
pub(crate) struct BuildTimeoutUnwind;

/// How many [`QueryBudget::check`] calls share one wall-clock sample.
///
/// The cancel flag is loaded on every check (one relaxed atomic load); the
/// `Instant::now` sample — the expensive part — is amortised over this many
/// checks. At the kernels' per-node/per-instance granularity this bounds
/// deadline overshoot to microseconds while keeping the hot-path cost of an
/// armed deadline near a single branch.
const CLOCK_SAMPLE_STRIDE: u64 = 64;

/// A cooperative cancellation budget for one query.
///
/// Thread a reference into a query via
/// [`Query::budget`](crate::pipeline::Query::budget) (or let
/// [`deadline`](crate::pipeline::Query::deadline) construct one
/// internally). Kernels poll it; expiry or [`cancel`](Self::cancel) aborts
/// the query with a typed [`QueryError::DeadlineExceeded`] at the
/// `try_run` boundary.
///
/// A budget is shared safely across the parallel worker threads of one
/// query; [`cancel`](Self::cancel) from any thread stops all of them at
/// their next poll.
#[derive(Debug)]
pub struct QueryBudget {
    started: Instant,
    deadline: Option<Instant>,
    limit: Option<Duration>,
    cancelled: AtomicBool,
    ticks: AtomicU64,
}

impl QueryBudget {
    /// A budget with no deadline: only explicit [`cancel`](Self::cancel)
    /// stops the query.
    pub fn unbounded() -> Self {
        QueryBudget {
            started: Instant::now(),
            deadline: None,
            limit: None,
            cancelled: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
        }
    }

    /// A budget that expires `limit` from now.
    pub fn with_deadline(limit: Duration) -> Self {
        let started = Instant::now();
        QueryBudget {
            started,
            deadline: started.checked_add(limit),
            limit: Some(limit),
            cancelled: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
        }
    }

    /// Requests cancellation: every worker polling this budget unwinds at
    /// its next [`check`](Self::check).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested or the deadline observed.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Time elapsed since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The configured time limit, if this budget carries a deadline.
    pub fn limit(&self) -> Option<Duration> {
        self.limit
    }

    /// The wall-clock instant this budget expires at, if any — what the
    /// serving layer feeds into deadline-aware coalescing joins.
    pub(crate) fn deadline_instant(&self) -> Option<Instant> {
        self.deadline
    }

    /// The typed error describing this budget's expiry.
    pub(crate) fn to_error(&self) -> QueryError {
        QueryError::DeadlineExceeded {
            elapsed: self.elapsed(),
            budget: self.limit,
        }
    }

    /// Hot-path poll: unwinds with the cancellation sentinel if the budget
    /// is cancelled or (every `CLOCK_SAMPLE_STRIDE` calls) past its
    /// deadline.
    ///
    /// Kernels never call this directly — they call [`poll`] with their
    /// `Option<&QueryBudget>` parameter, which compiles to nothing when no
    /// budget is attached.
    #[inline]
    pub fn check(&self) {
        if self.is_cancelled() {
            resume_unwind(Box::new(CancelUnwind));
        }
        if let Some(deadline) = self.deadline {
            let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
            if tick % CLOCK_SAMPLE_STRIDE == 0 && Instant::now() >= deadline {
                // Latch the flag so sibling workers stop at their next poll
                // without waiting for their own clock sample.
                self.cancel();
                resume_unwind(Box::new(CancelUnwind));
            }
        }
    }
}

/// Polls an optional budget: the kernels' cancellation hook.
///
/// `poll(None)` is a single predictable branch, so unbudgeted queries (and
/// every benchmark) pay nothing for cancellation support.
#[inline]
pub fn poll(budget: Option<&QueryBudget>) {
    if let Some(budget) = budget {
        budget.check();
    }
}

/// Deterministic jittered exponential backoff for retryable query errors.
///
/// The jitter is seeded (xorshift64*), not sampled from OS entropy, so
/// retry schedules are reproducible in tests and fleet-wide retry storms
/// de-synchronise by seeding with a per-caller value (e.g. a connection id).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier applied per attempt.
    pub factor: f64,
    /// Upper bound on any single delay (pre-jitter).
    pub cap: Duration,
    /// Maximum number of retries after the initial attempt.
    pub max_retries: u32,
    /// Fraction of the delay randomised away, in `[0, 1]`: the delay for an
    /// attempt is uniform in `[(1 - jitter) · d, d]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(10),
            factor: 2.0,
            cap: Duration::from_secs(1),
            max_retries: 5,
            jitter: 0.5,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The (jittered, capped) delay before retry number `attempt`
    /// (0-based: `attempt = 0` is the delay after the first failure).
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let exp = self.factor.powi(attempt.min(63) as i32);
        let raw = self.base.as_secs_f64() * exp;
        let capped = raw.min(self.cap.as_secs_f64());
        let jitter = self.jitter.clamp(0.0, 1.0);
        // xorshift64* keyed by (seed, attempt): deterministic, well mixed.
        let mut x = self.seed ^ (u64::from(attempt).wrapping_mul(0x2545_f491_4f6c_dd1d));
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 - jitter * unit;
        Duration::from_secs_f64(capped * scale)
    }

    /// Runs `op` until it succeeds, returns a non-retryable error, or the
    /// retry budget is exhausted, sleeping the jittered backoff between
    /// attempts. `op` receives the attempt number (0 for the first try).
    pub fn retry<T>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(value) => return Ok(value),
                Err(err) if err.is_retryable() && attempt < self.max_retries => {
                    std::thread::sleep(self.delay_for(attempt));
                    attempt += 1;
                }
                Err(err) => return Err(err),
            }
        }
    }
}

/// Classifies a caught unwind payload at the `try_run` boundary.
///
/// The sentinel (or a budget already marked cancelled — the payload may
/// have been re-boxed crossing a parallel join) means cancellation; any
/// other payload is a genuine contained panic.
pub(crate) fn classify_unwind(
    payload: Box<dyn std::any::Any + Send>,
    budget: Option<&QueryBudget>,
) -> QueryError {
    if payload.downcast_ref::<BuildTimeoutUnwind>().is_some() {
        // The join gave up at the budget's deadline, which counts from the
        // budget's start, not the join's: count `waited` from there too, or
        // it reads less than the deadline that fired.
        return QueryError::BuildTimeout {
            waited: budget.map_or(Duration::ZERO, QueryBudget::elapsed),
        };
    }
    if payload.downcast_ref::<CancelUnwind>().is_some() {
        if let Some(budget) = budget {
            return budget.to_error();
        }
        return QueryError::DeadlineExceeded {
            elapsed: Duration::ZERO,
            budget: None,
        };
    }
    if let Some(budget) = budget {
        if budget.is_cancelled() {
            return budget.to_error();
        }
    }
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    QueryError::Panicked { message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn unbounded_budget_never_trips() {
        let budget = QueryBudget::unbounded();
        for _ in 0..10_000 {
            budget.check();
        }
        assert!(!budget.is_cancelled());
    }

    #[test]
    fn cancel_trips_on_next_check() {
        let budget = QueryBudget::with_deadline(Duration::from_secs(3600));
        budget.check();
        budget.cancel();
        let caught = catch_unwind(AssertUnwindSafe(|| budget.check()));
        let payload = caught.expect_err("cancelled budget must unwind");
        let err = classify_unwind(payload, Some(&budget));
        assert!(matches!(err, QueryError::DeadlineExceeded { .. }));
    }

    #[test]
    fn zero_deadline_trips_within_one_stride() {
        let budget = QueryBudget::with_deadline(Duration::ZERO);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..=CLOCK_SAMPLE_STRIDE {
                budget.check();
            }
        }));
        assert!(
            caught.is_err(),
            "expired deadline must trip within a stride"
        );
        assert!(budget.is_cancelled(), "deadline expiry latches the flag");
    }

    #[test]
    fn foreign_panics_classify_as_panicked() {
        let caught = catch_unwind(|| panic!("kernel invariant violated"));
        let err = classify_unwind(caught.expect_err("must panic"), None);
        assert_eq!(
            err,
            QueryError::Panicked {
                message: "kernel invariant violated".to_string()
            }
        );
        assert!(!err.is_retryable());
    }

    #[test]
    fn retryability_split() {
        assert!(QueryError::Overloaded {
            inflight: 8,
            limit: 8
        }
        .is_retryable());
        assert!(QueryError::BuildTimeout {
            waited: Duration::from_millis(5)
        }
        .is_retryable());
        assert!(!QueryError::DeadlineExceeded {
            elapsed: Duration::ZERO,
            budget: None
        }
        .is_retryable());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy::default();
        for attempt in 0..12 {
            let d = policy.delay_for(attempt);
            assert_eq!(d, policy.delay_for(attempt), "same seed, same delay");
            assert!(d <= policy.cap);
            let pre_jitter = (policy.base.as_secs_f64() * policy.factor.powi(attempt as i32))
                .min(policy.cap.as_secs_f64());
            assert!(d.as_secs_f64() >= pre_jitter * (1.0 - policy.jitter) - 1e-12);
        }
        let other = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        assert_ne!(policy.delay_for(3), other.delay_for(3), "seed moves jitter");
    }

    #[test]
    fn retry_helper_retries_only_retryable_errors() {
        let policy = RetryPolicy {
            base: Duration::from_micros(1),
            max_retries: 3,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out = policy.retry(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err(QueryError::Overloaded {
                    inflight: 4,
                    limit: 4,
                })
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);

        let mut calls = 0;
        let out: Result<(), _> = policy.retry(|_| {
            calls += 1;
            Err(QueryError::Panicked {
                message: "boom".to_string(),
            })
        });
        assert!(matches!(out, Err(QueryError::Panicked { .. })));
        assert_eq!(calls, 1, "non-retryable errors fail fast");

        let mut calls = 0;
        let out: Result<(), _> = policy.retry(|_| {
            calls += 1;
            Err(QueryError::Overloaded {
                inflight: 9,
                limit: 8,
            })
        });
        assert!(matches!(out, Err(QueryError::Overloaded { .. })));
        assert_eq!(calls, 4, "initial attempt + max_retries");
    }
}
