//! Supervised sharded serving: shard-level fault isolation, automatic
//! recovery, and degraded partial-result queries.
//!
//! [`ShardedService`] partitions a dataset by object-id range
//! ([`arsp_data::shard_ranges`]) into N shards. Each shard owns its own
//! write/fault/durability domain: a [`DurableStore`] (checksummed WAL +
//! atomic snapshots in its own directory) and an [`ArspService`] snapshot
//! chain, kept in lockstep by applying every [`MutationOp`] batch to both
//! halves (handle allocation is deterministic, so the two
//! [`VersionedStore`]s stay bitwise equal).
//!
//! ## The exact cross-shard merge
//!
//! Rskyline probabilities are *not* shard-local: `Pr_rsky(t)` multiplies one
//! factor per **other object in the whole population**, so running the
//! kernels per shard and concatenating would silently drop the cross-shard
//! dominance factors. The merge is therefore done *before* the kernel, not
//! after: the read path stitches the shards' pinned columnar snapshots into
//! one union [`FlatStore`] (shard-order concatenation, object ids rebased —
//! bitwise the flat store of the unsharded union dataset, because each
//! shard's snapshot is canonical and the initial partition is contiguous)
//! and runs the query once on the union. Sharded results are therefore
//! bitwise equal (`f64::to_bits`) to an unsharded engine on the union
//! dataset, for every algorithm and execution mode — the standing
//! agreement-suite contract (`tests/shard_agreement.rs`). The union is one
//! more serving snapshot ([`crate::pipeline`]), cached per shard-version
//! vector: a query only pays the stitch when some shard has published since
//! the last one, and every union shares one cluster-wide set of vertex
//! enumerations and scratch pools, so a restitch rebuilds only the
//! version-bound artifacts.
//!
//! ## Fault isolation and the quarantine state machine
//!
//! Every shard-touching operation runs behind `catch_unwind`: a panic
//! (injected at the `shard.*` fail-point sites, or real) tears down only
//! that shard's in-memory halves and never poisons the cluster — the other
//! shards keep answering bitwise-correct. Each shard carries a
//! [`SupervisorCore`], a pure quarantine state machine
//! (Healthy → Degraded → Quarantined → Recovering → Healthy, edges in
//! [`TRANSITION_EDGES`]): consecutive I/O failures degrade then quarantine,
//! a crash quarantines immediately, a successful probe heals a degraded
//! shard. Recovery ([`ShardedService::recover_now`], or the background
//! [`ShardSupervisor`]) reopens the shard's [`DurableStore`] — landing
//! bitwise on its applied-batch prefix, exactly like the crash-recovery
//! suite proves for the unsharded store — then catches up by draining the
//! replay queue of batches that arrived while the shard was down. The batch
//! in flight at the crash is queued tagged with the shard's pre-batch
//! `(version, epoch)`; recovery applies it only when the disk does not
//! already hold it, so every batch lands exactly once.
//!
//! ## Degraded partial-result queries
//!
//! While a shard is down, queries fail closed by default with
//! [`QueryError::ShardUnavailable`]. Callers that prefer an answer over
//! completeness opt in via [`allow_partial`](Query::allow_partial) and
//! receive an outcome naming exactly which shards answered: the union is
//! stitched from the available shards only, so the probabilities are
//! bitwise equal to an unsharded engine on that sub-population.

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::engine::QueryAlgorithm;
use crate::fault::{QueryBudget, QueryError};
use crate::pipeline::{
    execute, Query, QueryConstraints, QueryFront, QueryOutcome, ServingSnapshot, SharedArtifacts,
};
use crate::service::{ArspService, ServiceWriter, SnapshotPin};
use crate::standing::{ChangeBatch, StandingSpec, SubscriptionGuard};
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{lock, Arc, Mutex};
use arsp_data::{
    failpoint, partition_dataset, DurableStore, FlatStore, InstanceHandle, MutationOp,
    RecoveryReport, UncertainDataset, VersionedStore,
};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};

/// Every edge of the quarantine state machine, as `"from->to"` strings (the
/// names [`SupervisorCore`]'s transition methods return). `cargo xtask
/// lint`'s supervisor-coverage rule checks this list against the test tree:
/// an edge added here without a test naming it fails the lint, and a
/// vanished edge is reported the same way.
pub const TRANSITION_EDGES: &[&str] = &[
    "healthy->degraded",
    "degraded->healthy",
    "healthy->quarantined",
    "degraded->quarantined",
    "quarantined->recovering",
    "recovering->healthy",
    "recovering->quarantined",
];

/// One shard's position in the quarantine state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving reads and writes normally.
    Healthy,
    /// Still serving, but accumulating consecutive I/O failures; heals on
    /// the next success, quarantines at the failure threshold.
    Degraded,
    /// Fenced off: rejects pins and queries, queues writes for replay.
    Quarantined,
    /// A restart is in progress; still fenced off.
    Recovering,
}

impl ShardHealth {
    /// Whether the shard currently serves reads and accepts direct writes.
    pub fn is_available(self) -> bool {
        matches!(self, ShardHealth::Healthy | ShardHealth::Degraded)
    }

    /// The lower-case name used in [`TRANSITION_EDGES`].
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Quarantined => "quarantined",
            ShardHealth::Recovering => "recovering",
        }
    }
}

/// The quarantine state machine of one shard — deliberately pure (no I/O,
/// no locks, no clock) so `cargo xtask model-check` can explore it under
/// every interleaving and the lint can tie each edge to a test. Each
/// transition method returns the [`TRANSITION_EDGES`] edge it took, or
/// `None` when the event does not move the machine.
#[derive(Clone, Debug)]
pub struct SupervisorCore {
    health: ShardHealth,
    consecutive_failures: u32,
    threshold: u32,
}

impl SupervisorCore {
    /// A healthy machine that quarantines after `threshold` consecutive
    /// I/O failures (minimum 1).
    pub fn new(threshold: u32) -> Self {
        Self {
            health: ShardHealth::Healthy,
            consecutive_failures: 0,
            threshold: threshold.max(1),
        }
    }

    /// The current state.
    pub fn health(&self) -> ShardHealth {
        self.health
    }

    /// Consecutive I/O failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// An I/O error on the shard's write or probe path. The first failure
    /// degrades a healthy shard; reaching the threshold quarantines a
    /// degraded one.
    pub fn record_failure(&mut self) -> Option<&'static str> {
        match self.health {
            ShardHealth::Healthy => {
                self.consecutive_failures = 1;
                self.health = ShardHealth::Degraded;
                Some("healthy->degraded")
            }
            ShardHealth::Degraded => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.health = ShardHealth::Quarantined;
                    Some("degraded->quarantined")
                } else {
                    None
                }
            }
            ShardHealth::Quarantined | ShardHealth::Recovering => None,
        }
    }

    /// A contained panic on the shard: quarantine immediately, whatever the
    /// failure count (a crash mid-recovery counts as a failed recovery).
    pub fn record_crash(&mut self) -> Option<&'static str> {
        match self.health {
            ShardHealth::Healthy => {
                self.health = ShardHealth::Quarantined;
                Some("healthy->quarantined")
            }
            ShardHealth::Degraded => {
                self.health = ShardHealth::Quarantined;
                Some("degraded->quarantined")
            }
            ShardHealth::Recovering => {
                self.health = ShardHealth::Quarantined;
                Some("recovering->quarantined")
            }
            ShardHealth::Quarantined => None,
        }
    }

    /// A successful apply or probe: resets the failure count and heals a
    /// degraded shard.
    pub fn record_success(&mut self) -> Option<&'static str> {
        self.consecutive_failures = 0;
        match self.health {
            ShardHealth::Degraded => {
                self.health = ShardHealth::Healthy;
                Some("degraded->healthy")
            }
            _ => None,
        }
    }

    /// The supervisor starts restarting a quarantined shard. Only a
    /// quarantined shard can enter recovery.
    pub fn begin_recovery(&mut self) -> Option<&'static str> {
        match self.health {
            ShardHealth::Quarantined => {
                self.health = ShardHealth::Recovering;
                Some("quarantined->recovering")
            }
            _ => None,
        }
    }

    /// The restart finished: the shard is healthy again.
    pub fn recovery_succeeded(&mut self) -> Option<&'static str> {
        match self.health {
            ShardHealth::Recovering => {
                self.health = ShardHealth::Healthy;
                self.consecutive_failures = 0;
                Some("recovering->healthy")
            }
            _ => None,
        }
    }

    /// The restart itself failed (or panicked): back to quarantine, where a
    /// later recovery attempt can pick the shard up again.
    pub fn recovery_failed(&mut self) -> Option<&'static str> {
        match self.health {
            ShardHealth::Recovering => {
                self.health = ShardHealth::Quarantined;
                Some("recovering->quarantined")
            }
            _ => None,
        }
    }
}

/// Cluster construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of shards to partition the dataset into.
    pub num_shards: usize,
    /// Consecutive I/O failures before a degraded shard is quarantined.
    pub failure_threshold: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            failure_threshold: 3,
        }
    }
}

/// What [`ShardedService::apply_batch`] did with a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// Durably applied and published to readers.
    Applied,
    /// The shard is down; the batch joined its replay queue and will be
    /// applied, in order, by the next successful recovery.
    Queued,
    /// The shard crashed while applying (panic contained). The batch was
    /// queued tagged with the shard's pre-batch `(version, epoch)`, so
    /// recovery applies it exactly once whether or not the crash tore it
    /// off the WAL.
    Crashed,
}

/// A batch waiting for the shard to come back. `pre` is the shard's
/// `(version, epoch)` immediately before the batch was first attempted:
/// recovery skips the entry when the recovered store is already past it
/// (the WAL held the whole batch), and applies it otherwise — the same
/// idempotence rule the WAL replay itself uses.
struct ReplayEntry {
    pre: Option<(u64, u64)>,
    ops: Vec<MutationOp>,
}

/// The serving half of a shard: the per-shard MVCC service plus its writer,
/// mutated in lockstep with the durable half.
struct ShardServing {
    service: ArspService,
    writer: ServiceWriter,
}

/// One shard's slot: both engine halves (absent while the shard is down),
/// its supervisor state machine, and the replay queue.
struct ShardSlot {
    dir: PathBuf,
    durable: Option<DurableStore>,
    serving: Option<ShardServing>,
    supervisor: SupervisorCore,
    replay: VecDeque<ReplayEntry>,
}

impl ShardSlot {
    /// Drops both in-memory halves — the in-process analogue of the shard
    /// process dying. Disk state is untouched; recovery reopens it.
    fn teardown(&mut self) {
        self.durable = None;
        self.serving = None;
    }
}

/// The cached cross-shard union: one serving snapshot over the
/// concatenated shard snapshots, keyed by the per-shard published versions
/// it stitched.
struct UnionEntry {
    /// Per-shard published version at stitch time; `None` = shard was down.
    key: Vec<Option<u64>>,
    /// The stitched union, queried through the cluster's shared artifacts.
    snapshot: ServingSnapshot,
    /// Which shards the union holds: every outcome over it carries a copy.
    view: ClusterView,
}

#[derive(Debug, Default)]
struct ClusterCounters {
    batches_applied: AtomicU64,
    batches_queued: AtomicU64,
    crashes_contained: AtomicU64,
    io_failures: AtomicU64,
    recoveries: AtomicU64,
    failed_recoveries: AtomicU64,
    union_rebuilds: AtomicU64,
    queries: AtomicU64,
    partial_queries: AtomicU64,
}

struct ClusterShared {
    dim: usize,
    shards: Vec<Mutex<ShardSlot>>,
    union: Mutex<Option<Arc<UnionEntry>>>,
    /// The vertex enumerations, scratch pools and cache counters of every
    /// union snapshot, across restitches.
    artifacts: SharedArtifacts,
    counters: ClusterCounters,
}

/// A supervised, fault-isolated cluster of shard engines — see the
/// [module docs](self). Cheap to clone (an `Arc` inside); writers,
/// readers and the [`ShardSupervisor`] all share one handle type.
#[derive(Clone)]
pub struct ShardedService {
    shared: Arc<ClusterShared>,
}

impl ShardedService {
    fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}"))
    }

    /// Creates a cluster at `dir`: partitions `dataset` into
    /// `config.num_shards` contiguous object ranges
    /// ([`arsp_data::partition_dataset`]) and gives each shard its own
    /// durable store (`dir/shard-<i>/`) and serving chain. The shard-order
    /// concatenation of the partitions is exactly `dataset`, which is what
    /// makes cluster queries bitwise equal to an unsharded engine on it.
    pub fn create(
        dir: impl AsRef<Path>,
        dataset: &UncertainDataset,
        config: ClusterConfig,
    ) -> io::Result<Self> {
        assert!(config.num_shards >= 1, "a cluster needs at least one shard");
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut shards = Vec::with_capacity(config.num_shards);
        for (shard, part) in partition_dataset(dataset, config.num_shards)
            .into_iter()
            .enumerate()
        {
            let shard_dir = Self::shard_dir(dir, shard);
            let durable = DurableStore::create(&shard_dir, VersionedStore::from_dataset(&part))?;
            let serving = Self::serving_from_durable(&durable);
            shards.push(Mutex::new(ShardSlot {
                dir: shard_dir,
                durable: Some(durable),
                serving: Some(serving),
                supervisor: SupervisorCore::new(config.failure_threshold),
                replay: VecDeque::new(),
            }));
        }
        Ok(Self {
            shared: Arc::new(ClusterShared {
                dim: dataset.dim(),
                shards,
                union: Mutex::new(None),
                artifacts: SharedArtifacts::new(),
                counters: ClusterCounters::default(),
            }),
        })
    }

    /// Reopens a cluster created at `dir`: recovers every `shard-<i>/`
    /// durable store (truncating torn WAL tails, replaying intact records)
    /// and rebuilds each serving chain from the recovered state. Returns
    /// the cluster and one [`RecoveryReport`] per shard.
    ///
    /// # Errors
    /// An [`io::ErrorKind::InvalidData`] error naming the missing index when
    /// the `shard-<i>` directories have a gap (`shard-1/` gone while
    /// `shard-2/` exists): opening the shards before the gap would silently
    /// drop every shard after it. Nothing is recovered in that case.
    pub fn open(
        dir: impl AsRef<Path>,
        failure_threshold: u32,
    ) -> io::Result<(Self, Vec<RecoveryReport>)> {
        let dir = dir.as_ref();
        let num_shards = (0..)
            .take_while(|&shard| Self::shard_dir(dir, shard).is_dir())
            .count();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let index = path
                .file_name()
                .and_then(|name| name.to_str()?.strip_prefix("shard-")?.parse::<usize>().ok());
            if let Some(beyond) = index.filter(|&k| k > num_shards && path.is_dir()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("shard-{num_shards} is missing but shard-{beyond} exists"),
                ));
            }
        }
        let mut shards = Vec::with_capacity(num_shards);
        let mut reports = Vec::with_capacity(num_shards);
        let mut dim = None;
        for shard in 0..num_shards {
            let shard_dir = Self::shard_dir(dir, shard);
            let (durable, report) = DurableStore::open(&shard_dir)?;
            match dim {
                None => dim = Some(durable.store().dim()),
                Some(d) => {
                    if d != durable.store().dim() {
                        return Err(io::Error::other("shard dimensionalities disagree"));
                    }
                }
            }
            let serving = Self::serving_from_durable(&durable);
            shards.push(Mutex::new(ShardSlot {
                dir: shard_dir,
                durable: Some(durable),
                serving: Some(serving),
                supervisor: SupervisorCore::new(failure_threshold),
                replay: VecDeque::new(),
            }));
            reports.push(report);
        }
        let dim = dim.ok_or_else(|| io::Error::other("no shard-0 directory: not a cluster"))?;
        Ok((
            Self {
                shared: Arc::new(ClusterShared {
                    dim,
                    shards,
                    union: Mutex::new(None),
                    artifacts: SharedArtifacts::new(),
                    counters: ClusterCounters::default(),
                }),
            },
            reports,
        ))
    }

    /// Builds the serving half from a clone of the durable store: an
    /// independent bitwise copy, handle allocation included, so the two
    /// halves keep evolving identically under the same ops.
    fn serving_from_durable(durable: &DurableStore) -> ShardServing {
        let (service, writer) = ArspService::from_store(durable.store().clone());
        ShardServing { service, writer }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Dataset dimensionality.
    pub fn dim(&self) -> usize {
        self.shared.dim
    }

    /// One shard's current health.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        lock(&self.shared.shards[shard]).supervisor.health()
    }

    /// Every shard's current health, by shard id.
    pub fn health(&self) -> Vec<ShardHealth> {
        (0..self.num_shards())
            .map(|s| self.shard_health(s))
            .collect()
    }

    /// One shard's published store version, or `None` while it is down.
    pub fn shard_version(&self, shard: usize) -> Option<u64> {
        let slot = lock(&self.shared.shards[shard]);
        if !slot.supervisor.health().is_available() {
            return None;
        }
        slot.serving.as_ref().map(|s| s.service.current_version())
    }

    /// Applies one mutation batch to `shard`, durably (WAL first) and to
    /// the serving chain, then publishes. An empty batch is a no-op.
    ///
    /// * Shard down → the batch is queued for replay ([`ApplyOutcome::Queued`]).
    /// * I/O error before anything durable changed → `Err`; the supervisor
    ///   counts the failure (degrade, then quarantine at the threshold).
    /// * Panic, or a failure after the batch became durable → the shard is
    ///   torn down and quarantined, the batch queued pre-tagged
    ///   ([`ApplyOutcome::Crashed`]); the cluster itself stays healthy.
    pub fn apply_batch(&self, shard: usize, ops: Vec<MutationOp>) -> io::Result<ApplyOutcome> {
        if ops.is_empty() {
            return Ok(ApplyOutcome::Applied);
        }
        let counters = &self.shared.counters;
        let mut slot = lock(&self.shared.shards[shard]);
        if !slot.supervisor.health().is_available() {
            slot.replay.push_back(ReplayEntry { pre: None, ops });
            counters.batches_queued.fetch_add(1, Ordering::Relaxed);
            return Ok(ApplyOutcome::Queued);
        }
        let pre = {
            let durable = slot
                .durable
                .as_ref()
                .expect("an available shard has a durable store");
            (durable.store().version(), durable.store().epoch())
        };
        let slot = &mut *slot;
        match catch_unwind(AssertUnwindSafe(|| Self::apply_to_slot(slot, &ops))) {
            Ok(Ok(())) => {
                slot.supervisor.record_success();
                counters.batches_applied.fetch_add(1, Ordering::Relaxed);
                Ok(ApplyOutcome::Applied)
            }
            Ok(Err(ApplyFailure::Clean(err))) => {
                // The WAL rolled back byte-for-byte: no durable trace, both
                // halves untouched. Count the failure, keep serving.
                slot.supervisor.record_failure();
                counters.io_failures.fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
            Ok(Err(ApplyFailure::Dirty(err))) => {
                // The batch is already durable but the shard failed before
                // publishing: treat it exactly like a crash so recovery
                // rebuilds serving from disk (which holds the batch).
                Self::contain_crash(slot, counters, Some(pre), ops);
                Err(err)
            }
            Err(_panic) => {
                Self::contain_crash(slot, counters, Some(pre), ops);
                Ok(ApplyOutcome::Crashed)
            }
        }
    }

    /// Quarantines a crashed shard: tears down its in-memory halves and
    /// queues the in-flight batch (pre-tagged) for exactly-once replay.
    fn contain_crash(
        slot: &mut ShardSlot,
        counters: &ClusterCounters,
        pre: Option<(u64, u64)>,
        ops: Vec<MutationOp>,
    ) {
        slot.teardown();
        slot.supervisor.record_crash();
        if !ops.is_empty() {
            slot.replay.push_back(ReplayEntry { pre, ops });
        }
        counters.crashes_contained.fetch_add(1, Ordering::Relaxed);
    }

    /// The fallible body of [`Self::apply_batch`]: WAL first, then the serving
    /// twin, then publish. `Clean` failures left no durable trace; `Dirty`
    /// ones happened after the batch hit the WAL.
    fn apply_to_slot(slot: &mut ShardSlot, ops: &[MutationOp]) -> Result<(), ApplyFailure> {
        failpoint::hit("shard.apply").map_err(ApplyFailure::Clean)?;
        slot.durable
            .as_mut()
            .expect("an available shard has a durable store")
            .apply_batch(ops)
            .map_err(ApplyFailure::Clean)?;
        let serving = slot
            .serving
            .as_mut()
            .expect("an available shard has a serving chain");
        for op in ops {
            apply_op_to_writer(&mut serving.writer, op);
        }
        failpoint::hit("shard.publish").map_err(ApplyFailure::Dirty)?;
        serving.writer.publish();
        Ok(())
    }

    /// Checkpoints one shard's durable store (snapshot + WAL reset),
    /// bounding its recovery replay. Returns `false` if the shard is down.
    /// Failures are supervised like [`Self::apply_batch`] failures: an I/O error
    /// counts toward quarantine, a panic quarantines immediately (disk
    /// stays recoverable at every kill point, as the crash matrix proves).
    pub fn checkpoint(&self, shard: usize) -> io::Result<bool> {
        let counters = &self.shared.counters;
        let mut slot = lock(&self.shared.shards[shard]);
        if !slot.supervisor.health().is_available() {
            return Ok(false);
        }
        let slot = &mut *slot;
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            slot.durable
                .as_mut()
                .expect("an available shard has a durable store")
                .checkpoint()
        }));
        match attempt {
            Ok(Ok(())) => {
                slot.supervisor.record_success();
                Ok(true)
            }
            Ok(Err(err)) => {
                slot.supervisor.record_failure();
                counters.io_failures.fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
            Err(_panic) => {
                Self::contain_crash(slot, counters, None, Vec::new());
                Ok(false)
            }
        }
    }

    /// Health-probes one shard: verifies its serving chain is published at
    /// the durable store's version. A success heals a degraded shard; an
    /// I/O failure counts toward quarantine; a panic quarantines. Down
    /// shards are left untouched (recovery is the supervisor's job).
    pub fn probe(&self, shard: usize) -> io::Result<ShardHealth> {
        let counters = &self.shared.counters;
        let mut slot = lock(&self.shared.shards[shard]);
        if !slot.supervisor.health().is_available() {
            return Ok(slot.supervisor.health());
        }
        let slot = &mut *slot;
        let attempt = catch_unwind(AssertUnwindSafe(|| -> io::Result<()> {
            failpoint::hit("shard.probe")?;
            let durable = slot
                .durable
                .as_ref()
                .expect("an available shard has a durable store");
            let serving = slot
                .serving
                .as_ref()
                .expect("an available shard has a serving chain");
            if serving.service.current_version() != durable.store().version() {
                return Err(io::Error::other("serving chain lags the durable store"));
            }
            Ok(())
        }));
        match attempt {
            Ok(Ok(())) => {
                slot.supervisor.record_success();
                Ok(slot.supervisor.health())
            }
            Ok(Err(err)) => {
                slot.supervisor.record_failure();
                counters.io_failures.fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
            Err(_panic) => {
                Self::contain_crash(slot, counters, None, Vec::new());
                Ok(ShardHealth::Quarantined)
            }
        }
    }

    /// Synchronously restarts a quarantined shard: reopens its
    /// [`DurableStore`] (bitwise the applied-batch prefix), drains the
    /// replay queue durably and exactly once, rebuilds the serving chain
    /// from the recovered state, and flips the shard healthy. Returns
    /// `false` when the shard is not quarantined (nothing to do). A failure
    /// or contained panic inside recovery puts the shard back in
    /// quarantine for a later attempt.
    pub fn recover_now(&self, shard: usize) -> io::Result<bool> {
        let counters = &self.shared.counters;
        let mut slot = lock(&self.shared.shards[shard]);
        if slot.supervisor.begin_recovery().is_none() {
            return Ok(false);
        }
        // A shard can be quarantined by errors without crashing; recovery
        // always restarts from disk, so drop the in-memory halves first.
        slot.teardown();
        let slot = &mut *slot;
        match catch_unwind(AssertUnwindSafe(|| Self::restore_slot(slot))) {
            Ok(Ok(())) => {
                slot.supervisor.recovery_succeeded();
                counters.recoveries.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Ok(Err(err)) => {
                slot.teardown();
                slot.supervisor.recovery_failed();
                counters.failed_recoveries.fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
            Err(_panic) => {
                slot.teardown();
                slot.supervisor.recovery_failed();
                counters.failed_recoveries.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other("shard recovery crashed (contained)"))
            }
        }
    }

    /// The recovery body: reopen, catch up, rebuild serving.
    fn restore_slot(slot: &mut ShardSlot) -> io::Result<()> {
        failpoint::hit("shard.recover")?;
        let (mut durable, _report) = DurableStore::open(&slot.dir)?;
        while let Some(entry) = slot.replay.front_mut() {
            let at = (durable.store().version(), durable.store().epoch());
            let already_durable = entry.pre.is_some_and(|pre| at > pre);
            if !already_durable {
                // Tag before attempting: if this apply crashes, the next
                // recovery can still decide exactly-once from the tag.
                entry.pre = Some(at);
                durable.apply_batch(&entry.ops)?;
            }
            slot.replay.pop_front();
        }
        slot.serving = Some(Self::serving_from_durable(&durable));
        slot.durable = Some(durable);
        Ok(())
    }

    /// Pins one shard's current snapshot for direct (shard-local) reads. A
    /// quarantined or recovering shard rejects the pin with a typed
    /// [`QueryError::ShardUnavailable`] — it cannot gain new readers while
    /// the supervisor may be rebuilding it.
    pub fn pin_shard(&self, shard: usize) -> Result<SnapshotPin, QueryError> {
        let slot = lock(&self.shared.shards[shard]);
        if !slot.supervisor.health().is_available() {
            return Err(QueryError::ShardUnavailable {
                shards_missing: vec![shard],
            });
        }
        let serving = slot
            .serving
            .as_ref()
            .expect("an available shard has a serving chain");
        Ok(serving.service.pin())
    }

    /// Starts a cluster query under general linear constraints (fluent,
    /// like [`SnapshotPin::query`]), answered over the stitched union.
    pub fn query<'c, 'q>(&'c self, constraints: &'q ConstraintSet) -> ClusterQuery<'c, 'q> {
        Query::new(self, QueryConstraints::Linear(constraints))
    }

    /// Starts a cluster query under weight-ratio constraints (§IV); unlocks
    /// DUAL.
    pub fn ratio_query<'c, 'q>(&'c self, ratio: &'q WeightRatio) -> ClusterQuery<'c, 'q> {
        Query::new(self, QueryConstraints::Ratio(ratio))
    }

    /// Fans a standing query out to every shard: each shard's serving chain
    /// gets its own subscription under the same spec, delivered its initial
    /// full batch immediately. After every
    /// [`apply_batch`](Self::apply_batch), the shard's publish refreshes its
    /// subscription, so [`ClusterSubscription::drain`] yields the per-shard
    /// change-sets in shard-major order — stitched exactly like the
    /// cross-shard result merge (shard-order concatenation; handles are
    /// shard-local, so every change is tagged with its shard). Fails closed
    /// with [`QueryError::ShardUnavailable`] when any shard is down —
    /// subscribing to a partial population would silently miss its changes.
    pub fn subscribe(&self, spec: &StandingSpec) -> Result<ClusterSubscription, QueryError> {
        let mut guards = Vec::with_capacity(self.num_shards());
        let mut missing = Vec::new();
        // One pass, one slot lock at a time (like the union stitch). An
        // unavailable shard fails the whole fan-out; the guards subscribed
        // so far unsubscribe on drop (RAII).
        for (shard, slot) in self.shared.shards.iter().enumerate() {
            let mut slot = lock(slot);
            let available = slot.supervisor.health().is_available();
            match slot.serving.as_mut() {
                Some(serving) if available => {
                    let guard = serving.service.subscribe(spec.clone());
                    // Between batches the shard engine sits exactly at its
                    // published version (apply_to_slot publishes), so the
                    // initial full batch is delivered right here.
                    serving.writer.sync_subscriptions();
                    guards.push(guard);
                }
                _ => missing.push(shard),
            }
        }
        if !missing.is_empty() {
            return Err(QueryError::ShardUnavailable {
                shards_missing: missing,
            });
        }
        Ok(ClusterSubscription { guards })
    }

    /// The stitched union snapshot over **all** shards — the exact columnar
    /// twin of an unsharded engine's flat store on the union dataset (the
    /// agreement suite asserts this bitwise). Fails closed with
    /// [`QueryError::ShardUnavailable`] when any shard is down.
    pub fn union_flat(&self) -> Result<Arc<FlatStore>, QueryError> {
        let entry = self.union_entry()?;
        if entry.view.shards_missing.is_empty() {
            Ok(Arc::clone(&entry.snapshot.flat))
        } else {
            Err(QueryError::ShardUnavailable {
                shards_missing: entry.view.shards_missing.clone(),
            })
        }
    }

    /// Pins every available shard and returns (or restitches) the cached
    /// union for the resulting shard-version vector. Errors only
    /// when *no* shard is available.
    fn union_entry(&self) -> Result<Arc<UnionEntry>, QueryError> {
        // Pin shard by shard (never holding two slot locks) so writers and
        // the supervisor are blocked for one slot at a time; the pins then
        // hold every snapshot alive, whatever happens to the shards while
        // we stitch.
        let mut pins: Vec<Option<SnapshotPin>> = Vec::with_capacity(self.num_shards());
        for slot in &self.shared.shards {
            let slot = lock(slot);
            let pin = match &slot.serving {
                Some(serving) if slot.supervisor.health().is_available() => {
                    Some(serving.service.pin())
                }
                _ => None,
            };
            pins.push(pin);
        }
        let key: Vec<Option<u64>> = pins
            .iter()
            .map(|pin| pin.as_ref().map(|p| p.version()))
            .collect();
        if key.iter().all(|v| v.is_none()) {
            return Err(QueryError::ShardUnavailable {
                shards_missing: (0..self.num_shards()).collect(),
            });
        }
        let mut cache = lock(&self.shared.union);
        if let Some(entry) = cache.as_ref() {
            if entry.key == key {
                return Ok(Arc::clone(entry));
            }
        }
        // The stitch ordinal doubles as the union snapshot's version.
        let stitch = self
            .shared
            .counters
            .union_rebuilds
            .fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(self.stitch_union(&pins, key, stitch));
        *cache = Some(Arc::clone(&entry));
        Ok(entry)
    }

    /// The exact cross-shard merge: concatenates the pinned shard snapshots
    /// into one union [`FlatStore`] (coords/probs verbatim, object ids and
    /// object starts rebased by the running offsets) and wraps it in an
    /// empty serving snapshot. Shard snapshots are canonical, so the
    /// stitched columns are bitwise what `snapshot_flat` of the union store
    /// would produce.
    fn stitch_union(
        &self,
        pins: &[Option<SnapshotPin>],
        key: Vec<Option<u64>>,
        stitch: u64,
    ) -> UnionEntry {
        let dim = self.shared.dim;
        let mut coords = Vec::new();
        let mut probs: Vec<f64> = Vec::new();
        let mut objects: Vec<u32> = Vec::new();
        let mut object_start: Vec<u32> = vec![0];
        let mut answered = Vec::new();
        let mut missing = Vec::new();
        let mut offsets = Vec::new();
        for (shard, pin) in pins.iter().enumerate() {
            let Some(pin) = pin else {
                missing.push(shard);
                continue;
            };
            let flat = pin.flat();
            answered.push(shard);
            let instance_base = probs.len() as u32;
            let object_base = (object_start.len() - 1) as u32;
            offsets.push(probs.len());
            coords.extend_from_slice(flat.coords());
            probs.extend_from_slice(flat.probs());
            objects.extend(flat.objects().iter().map(|&o| o + object_base));
            for object in 0..flat.num_objects() {
                object_start.push(instance_base + flat.object_instances(object).end as u32);
            }
        }
        let flat = FlatStore::from_parts(dim, coords, probs, objects, object_start);
        UnionEntry {
            key,
            snapshot: self.shared.artifacts.snapshot(stitch, Arc::new(flat)),
            view: ClusterView {
                shards_answered: answered,
                shards_missing: missing,
                offsets,
            },
        }
    }

    /// Cluster-level runtime counters.
    pub fn cluster_stats(&self) -> ClusterStats {
        let c = &self.shared.counters;
        ClusterStats {
            batches_applied: c.batches_applied.load(Ordering::Relaxed),
            batches_queued: c.batches_queued.load(Ordering::Relaxed),
            crashes_contained: c.crashes_contained.load(Ordering::Relaxed),
            io_failures: c.io_failures.load(Ordering::Relaxed),
            recoveries: c.recoveries.load(Ordering::Relaxed),
            failed_recoveries: c.failed_recoveries.load(Ordering::Relaxed),
            union_rebuilds: c.union_rebuilds.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            partial_queries: c.partial_queries.load(Ordering::Relaxed),
        }
    }
}

/// `Clean` failures happened before anything durable changed (the WAL
/// rolls an errored append back byte-for-byte); `Dirty` ones after the
/// batch hit the WAL, so the shard must be rebuilt from disk.
enum ApplyFailure {
    Clean(io::Error),
    Dirty(io::Error),
}

/// Replays one logged op through the serving writer — the serving-side
/// mirror of [`MutationOp::apply_to`], keeping both halves in lockstep.
fn apply_op_to_writer(writer: &mut ServiceWriter, op: &MutationOp) {
    match op {
        MutationOp::InsertObject { label, instances } => {
            writer.insert_object(label.clone(), instances.clone());
        }
        MutationOp::InsertInstance {
            object,
            coords,
            prob,
        } => {
            writer.insert_instance(*object as usize, coords, *prob);
        }
        MutationOp::UpdateInstance {
            handle,
            coords,
            prob,
        } => writer.update_instance(InstanceHandle::from_index(*handle as usize), coords, *prob),
        MutationOp::RemoveInstance { handle } => {
            writer.remove_instance(InstanceHandle::from_index(*handle as usize));
        }
        MutationOp::RetireObject { object } => writer.retire_object(*object as usize),
        MutationOp::Merge => writer.merge_now(),
    }
}

/// Cluster-level runtime counters (see [`ShardedService::cluster_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Batches durably applied and published.
    pub batches_applied: u64,
    /// Batches queued because their shard was down.
    pub batches_queued: u64,
    /// Shard panics contained behind the query/write boundary.
    pub crashes_contained: u64,
    /// I/O failures counted by the supervisors.
    pub io_failures: u64,
    /// Successful shard recoveries.
    pub recoveries: u64,
    /// Recovery attempts that failed (shard back to quarantine).
    pub failed_recoveries: u64,
    /// Unions stitched (one per changed shard-version vector).
    pub union_rebuilds: u64,
    /// Cluster queries served.
    pub queries: u64,
    /// Served queries that were partial (some shard missing).
    pub partial_queries: u64,
}

/// One change batch of one shard's standing subscription (see
/// [`ClusterSubscription::drain`]). Handles are shard-local, so the shard
/// index is part of the change's identity — exactly how the cross-shard
/// merge rebases per-shard ids.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardChange {
    /// The shard whose subscription produced the batch.
    pub shard: usize,
    /// The shard-local change batch.
    pub batch: ChangeBatch,
}

/// A standing query fanned out over every shard
/// ([`ShardedService::subscribe`]): one per-shard [`SubscriptionGuard`]
/// under a common spec. Dropping it unsubscribes everywhere (RAII, per
/// shard).
#[derive(Debug)]
pub struct ClusterSubscription {
    guards: Vec<SubscriptionGuard>,
}

impl ClusterSubscription {
    /// Number of per-shard subscriptions (= the cluster's shard count).
    pub fn num_shards(&self) -> usize {
        self.guards.len()
    }

    /// One shard's guard — for per-shard polling or result versions.
    pub fn shard(&self, shard: usize) -> &SubscriptionGuard {
        &self.guards[shard]
    }

    /// Drains every shard's undelivered batches, stitched shard-major
    /// (shard 0's batches oldest-first, then shard 1's, …) — the same
    /// shard-order concatenation the cross-shard result merge uses.
    pub fn drain(&self) -> Vec<ShardChange> {
        let mut changes = Vec::new();
        for (shard, guard) in self.guards.iter().enumerate() {
            for batch in guard.drain() {
                changes.push(ShardChange { shard, batch });
            }
        }
        changes
    }

    /// The stitched maintained result: `(shard, handle, probability)` in
    /// shard-major, then ascending-handle order.
    pub fn maintained(&self) -> Vec<(usize, InstanceHandle, f64)> {
        let mut rows = Vec::new();
        for (shard, guard) in self.guards.iter().enumerate() {
            for (handle, prob) in guard.maintained() {
                rows.push((shard, handle, prob));
            }
        }
        rows
    }

    /// Each shard's latest per-subscription result version.
    pub fn result_versions(&self) -> Vec<u64> {
        self.guards.iter().map(|g| g.result_version()).collect()
    }
}

/// A query on the cluster: the one [`Query`] builder, answered over the
/// stitched union of the shards — bitwise equal to an unsharded engine on
/// the union dataset of the shards that answered, for every algorithm
/// (DUAL through [`ShardedService::ratio_query`]) and execution mode.
/// Fail-closed by default: any unavailable shard surfaces as
/// [`QueryError::ShardUnavailable`]. Opt into
/// [`allow_partial`](Query::allow_partial) to answer over the available
/// shards instead.
pub type ClusterQuery<'c, 'q> = Query<'c, 'q, ShardedService>;

impl ClusterQuery<'_, '_> {
    /// Opts into degraded service: with `true`, a query against a
    /// partially-available cluster answers over the shards that are up (see
    /// [`shards_missing`](QueryOutcome::shards_missing)) instead of failing
    /// closed. At least one shard must be available either way.
    pub fn allow_partial(mut self, allow: bool) -> Self {
        self.allow_partial = allow;
        self
    }
}

impl QueryFront for ShardedService {
    type View = ClusterView;
    type Run = Result<PartialResult, QueryError>;

    fn answer(
        query: &ClusterQuery<'_, '_>,
        budget: Option<&QueryBudget>,
    ) -> Result<ClusterOutcome, QueryError> {
        let cluster = query.front;
        let entry = cluster.union_entry()?;
        let missing = &entry.view.shards_missing;
        if !query.allow_partial && !missing.is_empty() {
            return Err(QueryError::ShardUnavailable {
                shards_missing: missing.clone(),
            });
        }
        let source = cluster.shared.artifacts.source(&entry.snapshot, budget);
        let outcome = execute(&source, &query.spec, budget, entry.view.clone());
        let counters = &cluster.shared.counters;
        counters.queries.fetch_add(1, Ordering::Relaxed);
        if !missing.is_empty() {
            counters.partial_queries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(outcome)
    }

    fn finish(outcome: Result<ClusterOutcome, QueryError>) -> Self::Run {
        outcome.map(PartialResult::from)
    }
}

/// The result of one cluster query (see [`QueryOutcome`]): probabilities in
/// stitched (shard-order) instance-id space, plus, in a [`ClusterView`],
/// exactly which shards contributed.
pub type ClusterOutcome = QueryOutcome<ClusterView>;

/// The cluster's part of a [`ClusterOutcome`]: the shards that answered and
/// the shards that were down.
#[derive(Clone)]
pub struct ClusterView {
    shards_answered: Vec<usize>,
    shards_missing: Vec<usize>,
    offsets: Vec<usize>,
}

impl QueryOutcome<ClusterView> {
    /// Shards that contributed, ascending.
    pub fn shards_answered(&self) -> &[usize] {
        &self.view.shards_answered
    }

    /// Shards that were down, ascending. Empty = complete answer.
    pub fn shards_missing(&self) -> &[usize] {
        &self.view.shards_missing
    }

    /// Start of each answered shard's block of instance ids, aligned with
    /// [`shards_answered`](Self::shards_answered).
    pub fn shard_offsets(&self) -> &[usize] {
        &self.view.offsets
    }
}

/// What [`Query::run`] returns on the cluster: a [`ClusterOutcome`] with its
/// probabilities copied out and its counters and Auto reason dropped.
/// Complete answers have an empty [`shards_missing`](Self::shards_missing).
#[derive(Clone, Debug, PartialEq)]
pub struct PartialResult {
    /// Probabilities, indexed by union instance id (answered shards
    /// concatenated in shard order).
    pub probs: Vec<f64>,
    /// Shards that contributed, ascending.
    pub shards_answered: Vec<usize>,
    /// Shards that were down, ascending. Empty = complete answer.
    pub shards_missing: Vec<usize>,
    /// Start of each answered shard's block in [`probs`](Self::probs),
    /// aligned with [`shards_answered`](Self::shards_answered).
    pub offsets: Vec<usize>,
    /// The algorithm that ran (never [`QueryAlgorithm::Auto`]).
    pub algorithm: QueryAlgorithm,
}

impl PartialResult {
    /// Whether every shard answered.
    pub fn is_complete(&self) -> bool {
        self.shards_missing.is_empty()
    }

    /// Number of instances answered over.
    pub fn num_instances(&self) -> usize {
        self.probs.len()
    }

    /// The probability block contributed by the `k`-th **answered** shard
    /// (index into [`shards_answered`](Self::shards_answered), not a shard
    /// id).
    pub fn shard_probs(&self, k: usize) -> &[f64] {
        let start = self.offsets[k];
        let end = self.offsets.get(k + 1).copied().unwrap_or(self.probs.len());
        &self.probs[start..end]
    }
}

impl From<ClusterOutcome> for PartialResult {
    fn from(outcome: ClusterOutcome) -> Self {
        PartialResult {
            probs: outcome.result().probs().to_vec(),
            algorithm: outcome.algorithm(),
            shards_answered: outcome.view.shards_answered,
            shards_missing: outcome.view.shards_missing,
            offsets: outcome.view.offsets,
        }
    }
}

/// The background supervisor: a thread that periodically probes every
/// shard (healing degraded ones) and restarts quarantined ones via
/// [`ShardedService::recover_now`]. Stops — joining the thread — on
/// [`stop`](Self::stop) or drop.
pub struct ShardSupervisor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ShardSupervisor {
    /// Starts supervising `cluster`, sweeping all shards every `interval`.
    pub fn start(cluster: ShardedService, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                for shard in 0..cluster.num_shards() {
                    match cluster.shard_health(shard) {
                        ShardHealth::Quarantined => {
                            // A failed attempt leaves the shard quarantined;
                            // the next sweep retries.
                            let _ = cluster.recover_now(shard);
                        }
                        ShardHealth::Healthy | ShardHealth::Degraded => {
                            let _ = cluster.probe(shard);
                        }
                        ShardHealth::Recovering => {}
                    }
                }
                std::thread::sleep(interval);
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the supervisor and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardSupervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ArspEngine, EXACT_ALGORITHMS};
    use crate::pipeline::dataset_from_flat;
    use arsp_data::failpoint::FailAction;
    use arsp_data::paper_running_example;

    /// A unique scratch directory under the workspace `target/` (never
    /// `/tmp`), cleaned by the caller.
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/cluster-tests")
            .join(format!(
                "{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn constraints() -> ConstraintSet {
        ConstraintSet::weak_ranking(2, 1)
    }

    #[test]
    fn sharded_queries_match_the_unsharded_engine_bitwise() {
        let dataset = paper_running_example();
        let dir = scratch_dir("agree");
        for num_shards in [1, 2, 3] {
            let cluster = ShardedService::create(
                dir.join(format!("s{num_shards}")),
                &dataset,
                ClusterConfig {
                    num_shards,
                    ..ClusterConfig::default()
                },
            )
            .expect("create cluster");
            let cold = ArspEngine::new(dataset.clone());
            for algorithm in EXACT_ALGORITHMS {
                let reference = cold.query(&constraints()).algorithm(algorithm).run();
                let got = cluster
                    .query(&constraints())
                    .algorithm(algorithm)
                    .run()
                    .expect("all shards up");
                assert!(got.is_complete());
                assert_eq!(got.algorithm, algorithm);
                let reference: Vec<u64> = reference
                    .result()
                    .probs()
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                let got: Vec<u64> = got.probs.iter().map(|p| p.to_bits()).collect();
                assert_eq!(got, reference, "{algorithm:?} with {num_shards} shards");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crashed_shard_is_contained_queued_and_recovered_to_head() {
        let _gate = failpoint::exclusive();
        failpoint::reset();
        let dir = scratch_dir("crash");
        let cluster = ShardedService::create(
            &dir,
            &paper_running_example(),
            ClusterConfig {
                num_shards: 2,
                ..ClusterConfig::default()
            },
        )
        .expect("create cluster");

        let batch = |p: f64| {
            vec![MutationOp::InsertObject {
                label: None,
                instances: vec![(vec![6.0, 6.0], p)],
            }]
        };

        // Crash shard 1 mid-apply: the panic is contained, the batch queued.
        failpoint::arm("shard.apply", FailAction::Panic);
        assert_eq!(
            cluster.apply_batch(1, batch(0.25)).expect("contained"),
            ApplyOutcome::Crashed
        );
        assert_eq!(cluster.shard_health(1), ShardHealth::Quarantined);
        assert_eq!(cluster.shard_health(0), ShardHealth::Healthy);

        // The quarantined shard rejects pins and fail-closed queries…
        assert!(matches!(
            cluster.pin_shard(1),
            Err(QueryError::ShardUnavailable { shards_missing }) if shards_missing == vec![1]
        ));
        let err = cluster
            .query(&constraints())
            .run()
            .expect_err("fail closed");
        assert!(err.is_retryable());

        // …while shard 0 still answers, and partial queries name the gap.
        let partial = cluster
            .query(&constraints())
            .allow_partial(true)
            .run()
            .expect("degraded service");
        assert_eq!(partial.shards_answered, vec![0]);
        assert_eq!(partial.shards_missing, vec![1]);
        let sub = ArspEngine::new(dataset_from_flat(
            cluster.pin_shard(0).expect("shard 0 is up").flat(),
        ));
        let reference = sub.query(&constraints()).run();
        assert_eq!(partial.probs, reference.result().probs());

        // More writes to the dead shard queue up…
        assert_eq!(
            cluster.apply_batch(1, batch(0.125)).expect("queued"),
            ApplyOutcome::Queued
        );

        // …and recovery drains them exactly once, landing on head.
        assert!(cluster.recover_now(1).expect("recovery succeeds"));
        assert_eq!(cluster.shard_health(1), ShardHealth::Healthy);
        let stats = cluster.cluster_stats();
        assert_eq!(stats.crashes_contained, 1);
        assert_eq!(stats.recoveries, 1);

        // Head = both batches applied, bitwise the unsharded reference.
        let mut union = paper_running_example();
        union.push_object(vec![(vec![6.0, 6.0], 0.25)]);
        union.push_object(vec![(vec![6.0, 6.0], 0.125)]);
        let reference = ArspEngine::new(union).query(&constraints()).run();
        let got = cluster.query(&constraints()).run().expect("all shards up");
        assert!(got.is_complete());
        assert_eq!(got.probs, reference.result().probs());

        failpoint::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_errors_degrade_then_quarantine_and_probe_heals() {
        let _gate = failpoint::exclusive();
        failpoint::reset();
        let dir = scratch_dir("degrade");
        let cluster = ShardedService::create(
            &dir,
            &paper_running_example(),
            ClusterConfig {
                num_shards: 2,
                failure_threshold: 2,
            },
        )
        .expect("create cluster");
        let batch = vec![MutationOp::InsertObject {
            label: None,
            instances: vec![(vec![7.0, 7.0], 0.5)],
        }];

        // healthy->degraded on the first error; a probe success heals it
        // (degraded->healthy) and resets the failure count.
        failpoint::arm("shard.apply", FailAction::Error);
        cluster.apply_batch(0, batch.clone()).expect_err("injected");
        assert_eq!(cluster.shard_health(0), ShardHealth::Degraded);
        assert_eq!(
            cluster.probe(0).expect("probe passes"),
            ShardHealth::Healthy
        );

        // Two consecutive errors cross the threshold:
        // healthy->degraded, then degraded->quarantined.
        failpoint::arm("shard.apply", FailAction::Error);
        cluster.apply_batch(0, batch.clone()).expect_err("injected");
        failpoint::arm("shard.apply", FailAction::Error);
        cluster.apply_batch(0, batch.clone()).expect_err("injected");
        assert_eq!(cluster.shard_health(0), ShardHealth::Quarantined);

        // The failed batches left no durable trace; recovery restores the
        // original content and the shard serves again.
        assert!(cluster.recover_now(0).expect("recovery succeeds"));
        assert_eq!(cluster.shard_health(0), ShardHealth::Healthy);
        let reference = ArspEngine::new(paper_running_example())
            .query(&constraints())
            .run();
        let got = cluster.query(&constraints()).run().expect("all up");
        assert_eq!(got.probs, reference.result().probs());

        failpoint::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_recovery_returns_to_quarantine_and_can_retry() {
        let _gate = failpoint::exclusive();
        failpoint::reset();
        let dir = scratch_dir("retry");
        let cluster = ShardedService::create(
            &dir,
            &paper_running_example(),
            ClusterConfig {
                num_shards: 2,
                ..ClusterConfig::default()
            },
        )
        .expect("create cluster");

        failpoint::arm("shard.probe", FailAction::Panic);
        assert_eq!(
            cluster.probe(1).expect("contained"),
            ShardHealth::Quarantined
        );

        // quarantined->recovering, then recovering->quarantined on the
        // injected recovery failure…
        failpoint::arm("shard.recover", FailAction::Error);
        cluster.recover_now(1).expect_err("injected");
        assert_eq!(cluster.shard_health(1), ShardHealth::Quarantined);

        // …and a clean retry takes recovering->healthy.
        assert!(cluster.recover_now(1).expect("retry succeeds"));
        assert_eq!(cluster.shard_health(1), ShardHealth::Healthy);
        assert_eq!(cluster.cluster_stats().failed_recoveries, 1);

        failpoint::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_a_cluster_restores_every_shard() {
        let _gate = failpoint::exclusive();
        let dir = scratch_dir("reopen");
        let dataset = paper_running_example();
        let before = {
            let cluster = ShardedService::create(
                &dir,
                &dataset,
                ClusterConfig {
                    num_shards: 3,
                    ..ClusterConfig::default()
                },
            )
            .expect("create cluster");
            cluster
                .apply_batch(
                    2,
                    vec![MutationOp::InsertObject {
                        label: None,
                        instances: vec![(vec![5.5, 5.5], 0.75)],
                    }],
                )
                .expect("apply");
            cluster.query(&constraints()).run().expect("all up").probs
        };
        let (reopened, reports) = ShardedService::open(&dir, 3).expect("open cluster");
        assert_eq!(reports.len(), 3);
        let after = reopened.query(&constraints()).run().expect("all up");
        assert_eq!(after.probs, before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_a_cluster_with_a_shard_gap_is_an_error() {
        let _gate = failpoint::exclusive();
        let dir = scratch_dir("gap");
        let config = ClusterConfig {
            num_shards: 3,
            ..ClusterConfig::default()
        };
        drop(ShardedService::create(&dir, &paper_running_example(), config).expect("create"));
        std::fs::remove_dir_all(dir.join("shard-1")).expect("remove shard-1");
        let err = ShardedService::open(&dir, 3)
            .err()
            .expect("a gap must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard-1 is missing"), "{err}");
        // Without shard-0 the same gap rule names index 0.
        std::fs::remove_dir_all(dir.join("shard-0")).expect("remove shard-0");
        let err = ShardedService::open(&dir, 3)
            .err()
            .expect("a gap must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard-0 is missing"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every shard's serving store is a bitwise copy of its durable store.
    fn assert_serving_copies_durable(cluster: &ShardedService) {
        for (shard, slot) in cluster.shared.shards.iter().enumerate() {
            let slot = lock(slot);
            let durable = slot.durable.as_ref().expect("shard is up").store();
            let serving = slot.serving.as_ref().expect("shard is up").writer.store();
            assert_eq!(
                serving.encode_state(),
                durable.encode_state(),
                "shard {shard}: serving store is not a bitwise copy"
            );
        }
    }

    #[test]
    fn recovered_serving_stores_are_bitwise_copies_of_the_durable_ones() {
        let _gate = failpoint::exclusive();
        failpoint::reset();
        let dir = scratch_dir("clone");
        let batch = |p: f64| {
            vec![MutationOp::InsertObject {
                label: None,
                instances: vec![(vec![6.5, 6.5], p)],
            }]
        };
        {
            let cluster = ShardedService::create(
                &dir,
                &paper_running_example(),
                ClusterConfig {
                    num_shards: 2,
                    ..ClusterConfig::default()
                },
            )
            .expect("create cluster");
            cluster.apply_batch(0, batch(0.5)).expect("apply");
            cluster.apply_batch(1, batch(0.25)).expect("apply");
        }

        // Reopen: both shards replay a WAL record before the copy.
        let (cluster, reports) = ShardedService::open(&dir, 3).expect("open cluster");
        assert!(reports.iter().all(|r| r.records_replayed == 1));
        assert_serving_copies_durable(&cluster);

        // Crash shard 1 and queue two batches; recovery drains both.
        failpoint::arm("shard.apply", FailAction::Panic);
        assert_eq!(
            cluster.apply_batch(1, batch(0.125)).expect("contained"),
            ApplyOutcome::Crashed
        );
        assert_eq!(
            cluster.apply_batch(1, batch(0.0625)).expect("queued"),
            ApplyOutcome::Queued
        );
        assert_eq!(lock(&cluster.shared.shards[1]).replay.len(), 2);
        assert!(cluster.recover_now(1).expect("recovery succeeds"));
        assert!(lock(&cluster.shared.shards[1]).replay.is_empty());
        assert_serving_copies_durable(&cluster);

        failpoint::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_union_service_is_cached_per_version_vector() {
        let _gate = failpoint::exclusive();
        let dir = scratch_dir("cache");
        let cluster = ShardedService::create(
            &dir,
            &paper_running_example(),
            ClusterConfig {
                num_shards: 2,
                ..ClusterConfig::default()
            },
        )
        .expect("create cluster");
        for _ in 0..3 {
            cluster.query(&constraints()).run().expect("all up");
        }
        assert_eq!(cluster.cluster_stats().union_rebuilds, 1);
        cluster
            .apply_batch(
                0,
                vec![MutationOp::InsertObject {
                    label: None,
                    instances: vec![(vec![8.0, 8.0], 0.5)],
                }],
            )
            .expect("apply");
        cluster.query(&constraints()).run().expect("all up");
        assert_eq!(cluster.cluster_stats().union_rebuilds, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_background_supervisor_restarts_a_crashed_shard() {
        let _gate = failpoint::exclusive();
        failpoint::reset();
        let dir = scratch_dir("supervised");
        let cluster = ShardedService::create(
            &dir,
            &paper_running_example(),
            ClusterConfig {
                num_shards: 2,
                ..ClusterConfig::default()
            },
        )
        .expect("create cluster");
        // Crash the LAST shard so the recovered object keeps the same union
        // position as an append on the unsharded reference.
        failpoint::arm("shard.publish", FailAction::Panic);
        assert_eq!(
            cluster
                .apply_batch(
                    1,
                    vec![MutationOp::InsertObject {
                        label: None,
                        instances: vec![(vec![9.0, 9.0], 0.5)],
                    }],
                )
                .expect("contained"),
            ApplyOutcome::Crashed
        );
        assert_eq!(cluster.shard_health(1), ShardHealth::Quarantined);

        let supervisor = ShardSupervisor::start(cluster.clone(), Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while cluster.shard_health(1) != ShardHealth::Healthy {
            assert!(
                std::time::Instant::now() < deadline,
                "supervisor never recovered shard 1"
            );
            std::thread::yield_now();
        }
        supervisor.stop();

        // The crash hit after the WAL append: the batch is on disk, and
        // recovery must not double-apply it from the replay queue.
        let mut union = paper_running_example();
        union.push_object(vec![(vec![9.0, 9.0], 0.5)]);
        let reference = ArspEngine::new(union).query(&constraints()).run();
        let got = cluster.query(&constraints()).run().expect("all up");
        assert_eq!(got.probs, reference.result().probs());

        failpoint::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_core_edges_are_exactly_the_registered_ones() {
        let mut seen = Vec::new();
        let mut core = SupervisorCore::new(2);
        let mut push = |edge: Option<&'static str>| {
            if let Some(edge) = edge {
                seen.push(edge);
            }
        };
        push(core.record_failure()); // healthy->degraded
        push(core.record_success()); // degraded->healthy
        push(core.record_crash()); // healthy->quarantined
        push(core.begin_recovery()); // quarantined->recovering
        push(core.recovery_failed()); // recovering->quarantined
        push(core.begin_recovery());
        push(core.recovery_succeeded()); // recovering->healthy
        push(core.record_failure());
        push(core.record_failure()); // degraded->quarantined
        seen.sort_unstable();
        seen.dedup();
        let mut expected: Vec<&str> = TRANSITION_EDGES.to_vec();
        expected.sort_unstable();
        assert_eq!(seen, expected, "every edge is reachable and named");

        // Events that do not apply never move the machine.
        let mut idle = SupervisorCore::new(2);
        assert_eq!(idle.begin_recovery(), None);
        assert_eq!(idle.recovery_succeeded(), None);
        assert_eq!(idle.recovery_failed(), None);
        assert_eq!(idle.record_success(), None);
        assert_eq!(idle.health(), ShardHealth::Healthy);
    }
}
