//! The traced replay: the same seeded inputs, driven through the public
//! calls one level below `ShardedService` in the order it makes them, each
//! call wrapped in a span.
//!
//! [`Mirror`] repeats `ShardedService`'s bookkeeping with public parts:
//! per shard a `DurableStore` plus an `ArspService` built from its encoded
//! state; writes go WAL first, then the `ServiceWriter` mutations, then
//! `publish`; reads pin every shard, restitch the union `FlatStore` when
//! the shard-version vector moved (building a fresh `ArspService` over it,
//! as the cluster does), and then run the query pipeline of
//! `ServiceQuery` by hand: vertex enumeration, score matrix, dataset and
//! R-tree, kernel — each looked up in per-union caches exactly as the
//! serving caches are, so hits and builds repeat the real pattern.
//!
//! After each traced read, outside every span, the same query runs through
//! the union's own `ArspService`. Its answer must equal the replay's bit for
//! bit, and its `serving_stats()` give the cache figures: the hit fraction
//! is the program's, and the replay's lookups must match the program's hit
//! and build counts, so a change to the program's caching fails the traced
//! run until this replay follows it.
//!
//! Spans are kept in memory per thread and summarised at the end. A span's
//! self time is its duration minus its direct children's. The untraced
//! half of a `--trace 1` run measures the same workload through the front
//! door, so the difference of the two medians is the tracing overhead
//! (which includes the replay's own bookkeeping).

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use arsp_core::algorithms::bnb::{arsp_bnb_engine, build_instance_rtree};
use arsp_core::algorithms::kd_asp::{KdVariant, KdWorkerPool};
use arsp_core::algorithms::kdtt::arsp_kdtt_flat_engine;
use arsp_core::engine::{auto_select, Execution, QueryAlgorithm};
use arsp_core::scratch::{QueryScratch, ScratchPool};
use arsp_core::service::{ArspService, ServiceWriter};
use arsp_core::standing::{StandingSpec, SubscriptionGuard};
use arsp_core::stats::CounterStats;
use arsp_core::ScoreMatrix;
use arsp_data::persist::crc32;
use arsp_data::{
    partition_dataset, DurableStore, FlatStore, InstanceHandle, MutationOp, UncertainDataset,
    VersionedStore,
};
use arsp_geometry::fdom::LinearFDominance;
use arsp_index::RTree;

use crate::inputs::{num_shards, User};
use crate::report::{Json, Metric, Samples};
use crate::workloads::{
    bits, churn_specs, cold_bits, dataset_from_flat, open_loop, restart_prepare, Inputs, Measured,
    Seen, Tally, WorkDir, Workload, PARALLEL_2,
};

// ---- spans -------------------------------------------------------------------

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// One thread's span log.
#[derive(Default)]
pub(crate) struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end = Instant::now();
    }

    /// A span around one call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }
}

/// Root spans: one per workload operation. Every other span is a layer.
const OPS: &[&str] = &["read", "write", "checkpoint", "restart"];

/// Per span name: calls, total and self nanoseconds.
#[derive(Default, Debug, Clone, Copy)]
struct Totals {
    calls: u64,
    total_ns: f64,
    self_ns: f64,
}

fn summarise(tracers: &[Tracer]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for tracer in tracers {
        let mut child_ns = vec![0.0; tracer.spans.len()];
        for span in &tracer.spans {
            if let Some(p) = span.parent {
                child_ns[p] += (span.end - span.start).as_nanos() as f64;
            }
        }
        for (span, children) in tracer.spans.iter().zip(child_ns) {
            let total = (span.end - span.start).as_nanos() as f64;
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += total;
            t.self_ns += total - children;
        }
    }
    out
}

/// Work counts gathered at the same boundaries as the spans.
#[derive(Default, Debug)]
pub struct Counts {
    reads: AtomicU64,
    union_rebuilds: AtomicU64,
    vertex_enums: AtomicU64,
    score_matrices: AtomicU64,
    cache_hits: AtomicU64,
    cache_builds: AtomicU64,
    /// The union services' own cache lookups on the same reads.
    program_hits: AtomicU64,
    program_builds: AtomicU64,
    /// Reads whose program answer differed from the replay's.
    program_mismatches: AtomicU64,
    fdom_tests: AtomicU64,
    nodes_visited: AtomicU64,
    window_queries: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    opens: AtomicU64,
    records_replayed: AtomicU64,
    publishes: AtomicU64,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Counts {
    /// The counts that must repeat exactly for one seed on one thread.
    pub fn deterministic(&self) -> BTreeMap<&'static str, u64> {
        BTreeMap::from([
            ("reads", get(&self.reads)),
            ("union_rebuilds", get(&self.union_rebuilds)),
            ("vertex_enums", get(&self.vertex_enums)),
            ("score_matrices", get(&self.score_matrices)),
            ("cache_hits", get(&self.cache_hits)),
            ("cache_builds", get(&self.cache_builds)),
            ("program_hits", get(&self.program_hits)),
            ("program_builds", get(&self.program_builds)),
            ("fdom_tests", get(&self.fdom_tests)),
            ("nodes_visited", get(&self.nodes_visited)),
            ("window_queries", get(&self.window_queries)),
            ("wal_records", get(&self.wal_records)),
            ("wal_bytes", get(&self.wal_bytes)),
            ("records_replayed", get(&self.records_replayed)),
        ])
    }

    /// Fails the run when the program answered a read differently from the
    /// replay, or when its cache lookups no longer match the replay's.
    fn check_program(&self, tally: &Tally) {
        let mismatches = get(&self.program_mismatches);
        tally.check(mismatches == 0, || {
            format!("traced replay: {mismatches} reads differ from the union service's answer")
        });
        let replay = (get(&self.cache_hits), get(&self.cache_builds));
        let program = (get(&self.program_hits), get(&self.program_builds));
        tally.check(replay == program, || {
            format!(
                "traced replay made {replay:?} artifact (hits, builds), the union services \
                 {program:?}: trace.rs no longer mirrors the program's caching"
            )
        });
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a replay thread panicked while holding a lock")
}

// ---- the mirror cluster -------------------------------------------------------

struct Shard {
    dir: PathBuf,
    durable: DurableStore,
    service: ArspService,
    writer: ServiceWriter,
}

/// The artifacts of one union snapshot, cached like the serving caches.
#[derive(Default)]
struct Artifacts {
    fdoms: HashMap<usize, Arc<LinearFDominance>>,
    scores: HashMap<usize, Arc<ScoreMatrix>>,
    dataset: Option<Arc<UncertainDataset>>,
    rtree: Option<Arc<RTree>>,
}

struct Union {
    key: Vec<u64>,
    flat: Arc<FlatStore>,
    service: ArspService,
    artifacts: Mutex<Artifacts>,
    scratch: ScratchPool<QueryScratch>,
    kd_pool: KdWorkerPool,
}

/// `ShardedService`, one level down. See the [module docs](self).
pub(crate) struct Mirror {
    dim: usize,
    shards: Vec<Mutex<Shard>>,
    union: Mutex<Option<Arc<Union>>>,
}

/// The serving half of a shard, built like the cluster builds it: an
/// independent copy of the durable store through its encoded state.
fn serving(durable: &DurableStore, tr: &mut Tracer) -> io::Result<(ArspService, ServiceWriter)> {
    let bytes = tr.time("versioned.encode", || durable.store().encode_state());
    let store = tr
        .time("versioned.decode", || VersionedStore::decode_state(&bytes))
        .map_err(io::Error::other)?;
    Ok(tr.time("service.build", || ArspService::from_store(store)))
}

/// The serving-side mirror of one logged op.
fn apply_to_writer(writer: &mut ServiceWriter, op: &MutationOp) {
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

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl Mirror {
    fn from_shards(dim: usize, shards: Vec<Shard>) -> Self {
        Self {
            dim,
            shards: shards.into_iter().map(Mutex::new).collect(),
            union: Mutex::new(None),
        }
    }

    pub fn create(dir: &Path, dataset: &UncertainDataset) -> io::Result<Self> {
        let mut tr = Tracer::default();
        let mut shards = Vec::new();
        for (s, part) in partition_dataset(dataset, num_shards()).iter().enumerate() {
            let dir = shard_dir(dir, s);
            let durable = DurableStore::create(&dir, VersionedStore::from_dataset(part))?;
            let (service, writer) = serving(&durable, &mut tr)?;
            shards.push(Shard {
                dir,
                durable,
                service,
                writer,
            });
        }
        Ok(Self::from_shards(dataset.dim(), shards))
    }

    /// `ShardedService::open`, traced as one `restart` op.
    pub fn open(dir: &Path, tr: &mut Tracer, counts: &Counts) -> io::Result<Self> {
        let root = tr.begin("restart");
        let mut shards = Vec::new();
        while shard_dir(dir, shards.len()).is_dir() {
            let dir = shard_dir(dir, shards.len());
            let (durable, report) = tr.time("persist.open", || DurableStore::open(&dir))?;
            add(&counts.records_replayed, report.records_replayed);
            let (service, writer) = serving(&durable, tr)?;
            shards.push(Shard {
                dir,
                durable,
                service,
                writer,
            });
        }
        add(&counts.opens, 1);
        tr.end(root);
        let dim = shards
            .first()
            .ok_or_else(|| io::Error::other("no shard-0 directory: not a cluster"))?
            .durable
            .store()
            .dim();
        Ok(Self::from_shards(dim, shards))
    }

    /// `ShardedService::subscribe`: one subscription per shard, initial
    /// batch delivered at once.
    pub fn subscribe(&self, spec: &StandingSpec) -> Vec<SubscriptionGuard> {
        self.shards
            .iter()
            .map(|shard| {
                let mut shard = lock(shard);
                let guard = shard.service.subscribe(spec.clone());
                shard.writer.sync_subscriptions();
                guard
            })
            .collect()
    }

    /// `ShardedService::apply_batch`, traced as one `write` op.
    pub fn write(
        &self,
        shard: usize,
        ops: &[MutationOp],
        tr: &mut Tracer,
        counts: &Counts,
    ) -> io::Result<()> {
        let mut shard = lock(&self.shards[shard]);
        let wal = shard.dir.join("wal.log");
        let before = file_len(&wal);
        let root = tr.begin("write");
        let shard = &mut *shard;
        tr.time("persist.wal_append", || shard.durable.apply_batch(ops))?;
        tr.time("dynamic.apply", || {
            for op in ops {
                apply_to_writer(&mut shard.writer, op);
            }
        });
        tr.time("service.publish", || shard.writer.publish());
        tr.end(root);
        add(&counts.wal_records, 1);
        add(&counts.wal_bytes, file_len(&wal).saturating_sub(before));
        add(&counts.publishes, 1);
        Ok(())
    }

    /// `ShardedService::checkpoint`, traced as one `checkpoint` op.
    pub fn checkpoint(&self, shard: usize, tr: &mut Tracer) -> io::Result<()> {
        let mut shard = lock(&self.shards[shard]);
        let root = tr.begin("checkpoint");
        let out = tr.time("persist.checkpoint", || shard.durable.checkpoint());
        tr.end(root);
        out
    }

    /// Pins every shard and returns the union for the pinned version
    /// vector, restitching (and building a fresh service over it) when the
    /// vector moved — `ShardedService::union_flat`.
    fn union(&self, tr: &mut Tracer, counts: &Counts) -> Arc<Union> {
        let span = tr.begin("cluster.union");
        let pins: Vec<_> = self.shards.iter().map(|s| lock(s).service.pin()).collect();
        let key: Vec<u64> = pins.iter().map(|p| p.version()).collect();
        let mut cache = lock(&self.union);
        let entry = match cache.as_ref() {
            Some(entry) if entry.key == key => Arc::clone(entry),
            _ => {
                let mut coords = Vec::new();
                let mut probs = Vec::new();
                let mut objects: Vec<u32> = Vec::new();
                let mut object_start: Vec<u32> = vec![0];
                for pin in &pins {
                    let flat = pin.flat();
                    let instance_base = probs.len() as u32;
                    let object_base = (object_start.len() - 1) as u32;
                    coords.extend_from_slice(flat.coords());
                    probs.extend_from_slice(flat.probs());
                    objects.extend(flat.objects().iter().map(|&o| o + object_base));
                    for object in 0..flat.num_objects() {
                        object_start.push(instance_base + flat.object_instances(object).end as u32);
                    }
                }
                let flat = Arc::new(FlatStore::from_parts(
                    self.dim,
                    coords,
                    probs,
                    objects,
                    object_start,
                ));
                let (service, _writer) = tr.time("service.build", || {
                    ArspService::from_dataset(&dataset_from_flat(&flat))
                });
                add(&counts.union_rebuilds, 1);
                let entry = Arc::new(Union {
                    key,
                    flat,
                    service,
                    artifacts: Mutex::new(Artifacts::default()),
                    scratch: ScratchPool::new(),
                    kd_pool: KdWorkerPool::new(),
                });
                *cache = Some(Arc::clone(&entry));
                entry
            }
        };
        drop(cache);
        drop(pins);
        tr.end(span);
        entry
    }

    /// The stitched union snapshot, for the correctness gate.
    pub fn union_flat(&self) -> Arc<FlatStore> {
        Arc::clone(&self.union(&mut Tracer::default(), &Counts::default()).flat)
    }

    /// One Auto query: `ClusterQuery::run`, traced as one `read` op, then
    /// the same query untraced through the union's own service (see the
    /// [module docs](self)).
    pub fn read(
        &self,
        user_id: usize,
        user: &User,
        parallel: bool,
        tr: &mut Tracer,
        counts: &Counts,
    ) -> Read {
        let start = Instant::now();
        let root = tr.begin("read");
        let union = self.union(tr, counts);
        let pin = union.service.pin();
        let flat = &union.flat;
        let mut arts = lock(&union.artifacts);
        let fdom = fdom_for(&mut arts, user_id, user, tr, counts);
        let (algorithm, _) = auto_select(
            flat.num_objects(),
            flat.num_instances(),
            fdom.num_vertices(),
            false,
        );
        let stats = CounterStats::new();
        let mut scratch = union.scratch.lease();
        let result = match algorithm {
            QueryAlgorithm::KdttPlus => {
                let fdom = fdom_for(&mut arts, user_id, user, tr, counts);
                let scores = scores_for(&mut arts, flat, &fdom, user_id, tr, counts);
                let name = if parallel {
                    "algorithms.kdtt_plus.par"
                } else {
                    "algorithms.kdtt_plus.seq"
                };
                tr.time(name, || {
                    with_threads(parallel, || {
                        arsp_kdtt_flat_engine(
                            flat,
                            &scores,
                            KdVariant::FusedKd,
                            parallel,
                            Some(&stats),
                            scratch.kd_mut(),
                            Some(&union.kd_pool),
                            None,
                        )
                    })
                })
            }
            QueryAlgorithm::BranchAndBound => {
                let fdom = fdom_for(&mut arts, user_id, user, tr, counts);
                let scores = scores_for(&mut arts, flat, &fdom, user_id, tr, counts);
                let rtree = rtree_for(&mut arts, flat, tr, counts);
                let dataset = Arc::clone(arts.dataset.as_ref().expect("built with the R-tree"));
                let name = if parallel {
                    "algorithms.bnb.par"
                } else {
                    "algorithms.bnb.seq"
                };
                tr.time(name, || {
                    with_threads(parallel, || {
                        arsp_bnb_engine(
                            &dataset,
                            &fdom,
                            Some(&rtree),
                            Some(&scores),
                            parallel,
                            Some(&stats),
                            Some(scratch.bnb_mut()),
                            None,
                        )
                    })
                })
            }
            other => panic!("the palette never selects {}", other.name()),
        };
        drop(scratch);
        drop(arts);
        tr.end(root);
        let elapsed = start.elapsed();
        let c = stats.snapshot();
        add(&counts.fdom_tests, c.fdom_tests);
        add(&counts.nodes_visited, c.nodes_visited);
        add(&counts.window_queries, c.window_queries);
        add(&counts.reads, 1);

        let before = union.service.serving_stats();
        let execution = if parallel {
            PARALLEL_2
        } else {
            Execution::Sequential
        };
        let program = pin.query(&user.constraints).execution(execution).run();
        let after = union.service.serving_stats();
        add(&counts.program_hits, after.cache_hits - before.cache_hits);
        add(
            &counts.program_builds,
            after.shared_builds - before.shared_builds,
        );
        if program.algorithm() != algorithm
            || bits(program.result().probs()) != bits(result.probs())
        {
            add(&counts.program_mismatches, 1);
        }
        Read {
            algorithm,
            probs: result.probs().to_vec(),
            elapsed,
        }
    }

    /// Standing counters summed over the shard services:
    /// (notifications, dirty instances scanned, full fallbacks).
    pub fn standing_totals(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |acc, shard| {
            let s = lock(shard).service.serving_stats();
            (
                acc.0 + s.notifications_delivered,
                acc.1 + s.dirty_instances_scanned,
                acc.2 + s.standing_full_fallbacks,
            )
        })
    }

    /// Mean `snapshot.bin` size over the shards.
    pub fn snapshot_bytes(&self) -> f64 {
        let total: u64 = self
            .shards
            .iter()
            .map(|s| file_len(&lock(s).dir.join("snapshot.bin")))
            .sum();
        total as f64 / self.shards.len() as f64
    }
}

/// One traced read: the replay's answer and how long the traced part took.
pub(crate) struct Read {
    pub algorithm: QueryAlgorithm,
    pub probs: Vec<f64>,
    pub elapsed: Duration,
}

/// Runs a kernel inside a two-worker pool, as `Execution::Parallel {
/// threads: 2 }` does, or plainly.
fn with_threads<R>(parallel: bool, f: impl FnOnce() -> R) -> R {
    if !parallel {
        return f();
    }
    match rayon::ThreadPoolBuilder::new().num_threads(2).build() {
        Ok(pool) => pool.install(f),
        Err(_) => f(),
    }
}

fn hit(counts: &Counts) {
    add(&counts.cache_hits, 1);
}

fn fdom_for(
    arts: &mut Artifacts,
    user_id: usize,
    user: &User,
    tr: &mut Tracer,
    counts: &Counts,
) -> Arc<LinearFDominance> {
    if let Some(fdom) = arts.fdoms.get(&user_id) {
        hit(counts);
        return Arc::clone(fdom);
    }
    let fdom = Arc::new(tr.time("geometry.vertex_enum", || {
        LinearFDominance::from_constraints(&user.constraints)
    }));
    add(&counts.cache_builds, 1);
    add(&counts.vertex_enums, 1);
    arts.fdoms.insert(user_id, Arc::clone(&fdom));
    fdom
}

fn scores_for(
    arts: &mut Artifacts,
    flat: &FlatStore,
    fdom: &LinearFDominance,
    user_id: usize,
    tr: &mut Tracer,
    counts: &Counts,
) -> Arc<ScoreMatrix> {
    if let Some(scores) = arts.scores.get(&user_id) {
        hit(counts);
        return Arc::clone(scores);
    }
    let scores = Arc::new(tr.time("scorespace.score_matrix", || {
        ScoreMatrix::compute(flat, fdom)
    }));
    add(&counts.cache_builds, 1);
    add(&counts.score_matrices, 1);
    arts.scores.insert(user_id, Arc::clone(&scores));
    scores
}

/// The dataset materialisation and the instance R-tree over it (two cache
/// lookups, one span).
fn rtree_for(
    arts: &mut Artifacts,
    flat: &FlatStore,
    tr: &mut Tracer,
    counts: &Counts,
) -> Arc<RTree> {
    if let Some(rtree) = &arts.rtree {
        hit(counts);
        hit(counts);
        return Arc::clone(rtree);
    }
    let (dataset, rtree) = tr.time("algorithms.rtree", || {
        let dataset = Arc::new(dataset_from_flat(flat));
        let rtree = Arc::new(build_instance_rtree(&dataset));
        (dataset, rtree)
    });
    add(&counts.cache_builds, 2);
    arts.dataset = Some(dataset);
    arts.rtree = Some(Arc::clone(&rtree));
    rtree
}

// ---- traced workloads -----------------------------------------------------------

/// How long a traced window runs.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// This many seconds after set-up, with the workload's own threads and
    /// execution mode.
    Seconds(f64),
    /// This many ops (churn: write-then-read rounds), all on the calling
    /// thread with sequential kernels, so that the work counts repeat
    /// exactly.
    Steps(usize),
}

impl Stop {
    /// Whether op `i` of a window that started at `start` still runs.
    fn running(self, start: Instant, i: usize) -> bool {
        match self {
            Stop::Seconds(seconds) => start.elapsed().as_secs_f64() < seconds,
            Stop::Steps(steps) => i < steps,
        }
    }
}

/// The per-layer report of one traced run.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub detail: Json,
}

/// What a traced window produced, before it is turned into metrics.
pub struct Window {
    tracers: Vec<Tracer>,
    /// Work counts of the window's ops (set-up and gate excluded).
    pub counts: Counts,
    /// Latencies of the workload's defining op, as the untraced run
    /// measures them.
    op: Samples,
    standing: (u64, u64, u64),
    snapshot_bytes: f64,
    /// WAL bytes per record: appended (churn) or replayed (restart).
    wal_bytes_per_batch: f64,
}

fn mirror_gate(tally: &Tally, mirror: &Mirror, inputs: &Inputs) {
    let flat = mirror.union_flat();
    let counts = Counts::default();
    for (u, user) in inputs.palette.iter().enumerate() {
        let read = mirror.read(u, user, false, &mut Tracer::default(), &counts);
        let cold = cold_bits(&flat, &user.constraints, read.algorithm);
        tally.check(cold == bits(&read.probs), || {
            format!(
                "traced replay, user {u} {}: differs from a cold engine",
                read.algorithm.name()
            )
        });
    }
}

fn warm_window(root: &Path, inputs: &Inputs, stop: Stop, tally: &Tally) -> io::Result<Window> {
    let dir = WorkDir::new(root, "warm_read-traced")?;
    let mirror = Mirror::create(dir.path(), &inputs.dataset)?;
    // warm_read reads run under `PARALLEL_2`; step-counted windows stay
    // sequential.
    let parallel = matches!(stop, Stop::Seconds(_));
    for (u, user) in inputs.palette.iter().enumerate() {
        mirror.read(
            u,
            user,
            parallel,
            &mut Tracer::default(),
            &Counts::default(),
        );
    }
    let counts = Counts::default();
    let mut tr = Tracer::default();
    let mut op = Samples::default();
    let mut seen = Seen::default();
    let n = inputs.palette.len();
    let start = Instant::now();
    let mut i = 0;
    while stop.running(start, i) {
        let read = mirror.read(i % n, &inputs.palette[i % n], parallel, &mut tr, &counts);
        op.push(read.elapsed);
        seen.record(tally, i % n, read.algorithm, &read.probs);
        i += 1;
    }
    seen.gate(tally, &mirror.union_flat(), &inputs.palette);
    counts.check_program(tally);
    Ok(Window {
        tracers: vec![tr],
        counts,
        op,
        standing: (0, 0, 0),
        snapshot_bytes: mirror.snapshot_bytes(),
        wal_bytes_per_batch: 0.0,
    })
}

fn churn_window(root: &Path, inputs: &Inputs, stop: Stop, tally: &Tally) -> io::Result<Window> {
    let dir = WorkDir::new(root, "churn-traced")?;
    let mirror = Mirror::create(dir.path(), &inputs.dataset)?;
    let _subs: Vec<Vec<SubscriptionGuard>> = churn_specs(&inputs.palette)
        .iter()
        .map(|spec| mirror.subscribe(spec))
        .collect();
    for (u, user) in inputs.palette.iter().enumerate() {
        mirror.read(u, user, false, &mut Tracer::default(), &Counts::default());
    }
    let counts = Counts::default();
    let standing_before = mirror.standing_totals();
    let every = inputs.scale.checkpoint_every as u64;
    let applied: Vec<AtomicU64> = (0..num_shards()).map(|_| AtomicU64::new(0)).collect();
    let n = inputs.palette.len();
    // Batch `k`, then its shard's checkpoint when one is due: true if so.
    let write = |k: usize, tr: &mut Tracer| {
        let (shard, ops) = &inputs.batches[k];
        if let Err(e) = mirror.write(*shard, ops, tr, &counts) {
            tally.fail(format!("traced write: {e}"));
        }
        let done = applied[*shard].fetch_add(1, Ordering::Relaxed) + 1;
        if !done.is_multiple_of(every) {
            return false;
        }
        if let Err(e) = mirror.checkpoint(*shard, tr) {
            tally.fail(format!("traced checkpoint: {e}"));
        }
        true
    };
    let read = |i: usize, tr: &mut Tracer| {
        mirror.read(i % n, &inputs.palette[i % n], false, tr, &counts);
    };
    let (op, tracers) = match stop {
        Stop::Seconds(seconds) => {
            let writer_done = AtomicBool::new(false);
            let start = Instant::now();
            let deadline = start + Duration::from_secs_f64(seconds);
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let mut tr = Tracer::default();
                    let acc =
                        open_loop(inputs.batches.len(), start, deadline, |k| write(k, &mut tr));
                    writer_done.store(true, Ordering::Relaxed);
                    (acc.ack, tr)
                });
                let reader = scope.spawn(|| {
                    let mut tr = Tracer::default();
                    let mut i = 0;
                    while !writer_done.load(Ordering::Relaxed) && Instant::now() < deadline {
                        read(i, &mut tr);
                        i += 1;
                    }
                    tr
                });
                let (ack, write_tr) = writer.join().expect("traced writer thread");
                let read_tr = reader.join().expect("traced reader thread");
                (ack, vec![write_tr, read_tr])
            })
        }
        Stop::Steps(steps) => {
            let mut tr = Tracer::default();
            for k in 0..steps {
                write(k, &mut tr);
                read(k, &mut tr);
            }
            (Samples::default(), vec![tr])
        }
    };
    let after = mirror.standing_totals();
    mirror_gate(tally, &mirror, inputs);
    counts.check_program(tally);
    let records = get(&counts.wal_records).max(1);
    Ok(Window {
        wal_bytes_per_batch: get(&counts.wal_bytes) as f64 / records as f64,
        tracers,
        counts,
        op,
        standing: (
            after.0 - standing_before.0,
            after.1 - standing_before.1,
            after.2 - standing_before.2,
        ),
        snapshot_bytes: mirror.snapshot_bytes(),
    })
}

fn restart_window(root: &Path, inputs: &Inputs, stop: Stop, tally: &Tally) -> io::Result<Window> {
    let dir = WorkDir::new(root, "restart-traced")?;
    restart_prepare(dir.path(), inputs, tally)?;
    let counts = Counts::default();
    let mut tr = Tracer::default();
    let mut op = Samples::default();
    let mut seen = Seen::default();
    let n = inputs.palette.len();
    let start = Instant::now();
    let mut i = 0;
    while stop.running(start, i) {
        let t = Instant::now();
        let mirror = Mirror::open(dir.path(), &mut tr, &counts)?;
        op.push(t.elapsed());
        probe_crc32(&mirror, &mut tr)?;
        let read = mirror.read(i % n, &inputs.palette[i % n], false, &mut tr, &counts);
        seen.record(tally, i % n, read.algorithm, &read.probs);
        i += 1;
    }
    let mirror = Mirror::open(dir.path(), &mut Tracer::default(), &Counts::default())?;
    seen.gate(tally, &mirror.union_flat(), &inputs.palette);
    counts.check_program(tally);
    let wal: u64 = (0..num_shards())
        .map(|s| file_len(&shard_dir(dir.path(), s).join("wal.log")))
        .sum();
    let replayed_per_open = (inputs.scale.wal_tail * num_shards()) as f64;
    Ok(Window {
        tracers: vec![tr],
        snapshot_bytes: mirror.snapshot_bytes(),
        counts,
        op,
        standing: (0, 0, 0),
        wal_bytes_per_batch: wal as f64 / replayed_per_open,
    })
}

/// `persist::crc32` over each snapshot's bytes: the checksum share of
/// `DurableStore::open`, which verifies it inside. Recorded as a root span
/// of its own, outside every op, so it adds nothing to the op totals.
fn probe_crc32(mirror: &Mirror, tr: &mut Tracer) -> io::Result<()> {
    for shard in &mirror.shards {
        let bytes = std::fs::read(lock(shard).dir.join("snapshot.bin"))?;
        let payload = bytes.get(20..).unwrap_or_default();
        std::hint::black_box(tr.time("persist.crc32", || crc32(payload)));
    }
    Ok(())
}

/// Per-call mean duration, in microseconds, of each traced call.
const CALL_METRICS: &[(&str, &str)] = &[
    ("cluster.union", "cluster.union_us"),
    ("persist.wal_append", "persist.wal_append_us"),
    ("persist.checkpoint", "persist.checkpoint_us"),
    ("persist.open", "persist.open_us"),
    ("persist.crc32", "persist.crc32_us"),
    ("versioned.encode", "versioned.encode_us"),
    ("versioned.decode", "versioned.decode_us"),
    ("dynamic.apply", "dynamic.apply_us"),
    ("service.publish", "service.publish_us"),
    ("service.build", "service.build_us"),
    ("geometry.vertex_enum", "geometry.vertex_enum_us"),
    ("scorespace.score_matrix", "scorespace.score_matrix_us"),
    ("algorithms.rtree", "algorithms.rtree_us"),
    ("algorithms.kdtt_plus.seq", "algorithms.kdtt_plus.seq_us"),
    ("algorithms.kdtt_plus.par", "algorithms.kdtt_plus.par_us"),
    ("algorithms.bnb.seq", "algorithms.bnb.seq_us"),
    ("algorithms.bnb.par", "algorithms.bnb.par_us"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics(w: &Window, untraced: &Measured) -> (Vec<Metric>, Json) {
    let totals = summarise(&w.tracers);
    let mut metrics: Vec<Metric> = CALL_METRICS
        .iter()
        .map(|&(span, name)| {
            let t = totals.get(span).copied().unwrap_or_default();
            let mean_us = if t.calls == 0 {
                0.0
            } else {
                t.total_ns / t.calls as f64 / 1e3
            };
            Metric::new(name, mean_us, "us")
        })
        .collect();
    let c = &w.counts;
    let reads = get(&c.reads);
    let publishes = get(&c.publishes);
    let (notifications, dirty, fallbacks) = w.standing;
    let (op_ns, op_self_ns) = OPS.iter().fold((0.0, 0.0), |acc, op| {
        let t = totals.get(op).copied().unwrap_or_default();
        (acc.0 + t.total_ns, acc.1 + t.self_ns)
    });
    let untraced_p50 = untraced.op.median();
    metrics.extend([
        Metric::new(
            "cluster.union_rebuilds_per_read",
            ratio(untraced.union_rebuilds, untraced.read.len() as u64),
            "count",
        ),
        Metric::new(
            "persist.wal_bytes_per_batch",
            w.wal_bytes_per_batch,
            "bytes",
        ),
        Metric::new("persist.snapshot_bytes", w.snapshot_bytes, "bytes"),
        Metric::new(
            "persist.records_replayed",
            ratio(get(&c.records_replayed), get(&c.opens)),
            "count",
        ),
        Metric::new(
            "service.cache_hit_frac",
            ratio(
                get(&c.program_hits),
                get(&c.program_hits) + get(&c.program_builds),
            ),
            "frac",
        ),
        Metric::new(
            "standing.notifications_per_publish",
            ratio(notifications, publishes),
            "count",
        ),
        Metric::new(
            "standing.dirty_scanned_per_publish",
            ratio(dirty, publishes),
            "count",
        ),
        Metric::new(
            "standing.full_fallbacks_per_publish",
            ratio(fallbacks, publishes),
            "count",
        ),
        Metric::new(
            "geometry.vertex_enums",
            ratio(get(&c.vertex_enums), reads),
            "count",
        ),
        Metric::new(
            "scorespace.score_matrices",
            ratio(get(&c.score_matrices), reads),
            "count",
        ),
        Metric::new(
            "algorithms.fdom_tests",
            ratio(get(&c.fdom_tests), reads),
            "count",
        ),
        Metric::new(
            "algorithms.nodes_visited",
            ratio(get(&c.nodes_visited), reads),
            "count",
        ),
        Metric::new(
            "algorithms.window_queries",
            ratio(get(&c.window_queries), reads),
            "count",
        ),
        Metric::new(
            "trace.unattributed_frac",
            if op_ns > 0.0 { op_self_ns / op_ns } else { 0.0 },
            "frac",
        ),
        Metric::new(
            "trace.overhead_frac",
            w.op.median() / untraced_p50 - 1.0,
            "frac",
        ),
    ]);
    let spans = Json::Obj(
        totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("calls", Json::from(t.calls)),
                        ("total_ms", Json::from(t.total_ns / 1e6)),
                        ("self_ms", Json::from(t.self_ns / 1e6)),
                    ]),
                )
            })
            .collect(),
    );
    let detail = Json::obj([
        ("spans", spans),
        ("traced_op", w.op.summary()),
        ("reads", Json::from(reads)),
        ("publishes", Json::from(publishes)),
        (
            "counts",
            Json::obj(
                c.deterministic()
                    .into_iter()
                    .map(|(k, v)| (k, Json::from(v))),
            ),
        ),
    ]);
    (metrics, detail)
}

/// One traced window of `workload`, its set-up excluded.
pub fn window(
    workload: Workload,
    root: &Path,
    inputs: &Inputs,
    stop: Stop,
    tally: &Tally,
) -> io::Result<Window> {
    match workload {
        Workload::WarmRead => warm_window(root, inputs, stop, tally),
        Workload::Churn => churn_window(root, inputs, stop, tally),
        Workload::Restart => restart_window(root, inputs, stop, tally),
    }
}

/// The traced half of a `--trace 1` run.
pub fn traced(
    workload: Workload,
    root: &Path,
    inputs: &Inputs,
    seconds: f64,
    untraced: &Measured,
    tally: &Tally,
) -> io::Result<Traced> {
    let window = window(workload, root, inputs, Stop::Seconds(seconds), tally)?;
    let (metrics, detail) = layer_metrics(&window, untraced);
    Ok(Traced { metrics, detail })
}
