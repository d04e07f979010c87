//! The three workloads, driven through `ShardedService` (the front door)
//! with tracing off. Each returns its end-to-end figures and the outcome of
//! its correctness gate, which runs outside the timed region.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use arsp_core::cluster::{ApplyOutcome, ClusterConfig, ClusterSubscription, ShardedService};
use arsp_core::engine::{ArspEngine, Execution, QueryAlgorithm};
use arsp_core::standing::StandingSpec;
use arsp_data::{FlatStore, MutationOp, UncertainDataset};
use arsp_geometry::constraints::{ConstraintSet, WeightRatio};

use crate::inputs::{dataset, palette, OpGen, Scale, User, DIM};
use crate::report::{median, Json, Samples};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Execution mode of warm_read's reads.
pub const PARALLEL_2: Execution = Execution::Parallel { threads: 2 };
/// churn's offered write load, in batches per second (open loop). About a
/// quarter of what one writer sustains beside one reader on two cores. A
/// write holds its shard's lock for ~0.1 s, which a read waits out, so at
/// half capacity (5/s) the read median sat where half the reads wait: a
/// slower host tipped it into the waiting mode and moved it by 2-5x.
pub const WRITE_RATE: f64 = 2.5;
/// The failure threshold a reopened cluster gets: the default one.
fn failure_threshold() -> u32 {
    ClusterConfig::default().failure_threshold
}

/// The workloads, by CLI name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmRead,
    Churn,
    Restart,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::WarmRead, Workload::Churn, Workload::Restart];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRead => "warm_read",
            Workload::Churn => "churn",
            Workload::Restart => "restart",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A cluster directory under `<root>/target/perfbench/`, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(root: &Path, tag: &str) -> io::Result<Self> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = root.join("target").join("perfbench").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The row-oriented twin of a flat snapshot (canonical order), what a cold
/// engine is built on.
pub fn dataset_from_flat(flat: &FlatStore) -> UncertainDataset {
    let mut dataset = UncertainDataset::new(flat.dim());
    for object in 0..flat.num_objects() {
        let instances = flat
            .object_instances(object)
            .map(|id| (flat.coords_of(id).to_vec(), flat.prob(id)))
            .collect();
        dataset.push_object(instances);
    }
    dataset
}

pub fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// A cold single-threaded engine's answer on `flat`, as bit patterns.
pub fn cold_bits(
    flat: &FlatStore,
    constraints: &ConstraintSet,
    algorithm: QueryAlgorithm,
) -> Vec<u64> {
    let engine = ArspEngine::new(dataset_from_flat(flat));
    bits(
        engine
            .query(constraints)
            .algorithm(algorithm)
            .run()
            .result()
            .probs(),
    )
}

/// Counts operations and failures; a failure is any typed error, any
/// outcome other than `Applied`, or any result mismatch.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Tally {
    pub fn ok(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn fail(&self, note: String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut notes = self.notes.lock().expect("tally lock");
        if notes.len() < 8 {
            notes.push(note);
        }
    }

    pub fn check(&self, ok: bool, note: impl FnOnce() -> String) {
        if ok {
            self.ok()
        } else {
            self.fail(note())
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn notes(&self) -> Vec<String> {
        self.notes.lock().expect("tally lock").clone()
    }
}

/// Results seen so far per (user, algorithm) on an unchanging cluster:
/// the first answer is kept, every later one must repeat it bit for bit,
/// and the gate compares the kept answers against a cold engine.
#[derive(Default)]
pub struct Seen {
    map: BTreeMap<(usize, &'static str), (QueryAlgorithm, Vec<u64>)>,
}

impl Seen {
    pub fn record(&mut self, tally: &Tally, user: usize, algorithm: QueryAlgorithm, probs: &[f64]) {
        let got = bits(probs);
        match self.map.get(&(user, algorithm.name())) {
            Some((_, kept)) => tally.check(*kept == got, || {
                format!(
                    "user {user} {}: answer changed on an idle cluster",
                    algorithm.name()
                )
            }),
            None => {
                self.map.insert((user, algorithm.name()), (algorithm, got));
                tally.ok();
            }
        }
    }

    /// Compares every kept answer with a cold engine on `flat`.
    pub fn gate(&self, tally: &Tally, flat: &FlatStore, palette: &[User]) {
        for (&(user, name), (algorithm, kept)) in &self.map {
            let cold = cold_bits(flat, &palette[user].constraints, *algorithm);
            tally.check(cold == *kept, || {
                format!("user {user} {name}: differs from a cold engine")
            });
        }
    }

    pub fn algorithms(&self) -> Json {
        Json::Arr(
            self.map
                .keys()
                .map(|(user, name)| Json::from(format!("{user}:{name}")))
                .collect(),
        )
    }
}

/// What one untraced run measured.
pub struct Measured {
    /// The workload's defining operation: read (warm_read), write ack from
    /// its due time (churn), `open` (restart).
    pub op: Samples,
    /// `ClusterQuery::run` latency (restart: the first query after `open`).
    pub read: Samples,
    pub read_window: Duration,
    /// Union restitches during the window (`cluster_stats()`).
    pub union_rebuilds: u64,
    pub setup_s: Vec<f64>,
    pub detail: Vec<(String, Json)>,
}

impl Measured {
    fn new() -> Self {
        Self {
            op: Samples::default(),
            read: Samples::default(),
            read_window: Duration::ZERO,
            union_rebuilds: 0,
            setup_s: Vec::new(),
            detail: Vec::new(),
        }
    }

    pub fn read_qps(&self) -> f64 {
        self.read.len() as f64 / self.read_window.as_secs_f64()
    }

    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }
}

/// The shared, seeded inputs of one run.
pub struct Inputs {
    pub scale: Scale,
    pub dataset: UncertainDataset,
    pub palette: Vec<User>,
    /// churn's pre-generated batches (round-robin over shards).
    pub batches: Vec<(usize, Vec<MutationOp>)>,
}

impl Inputs {
    /// The seeded inputs of one run, with `batches` pre-generated mutation
    /// batches (round-robin over the shards).
    pub fn new(seed: u64, scale: Scale, batches: usize) -> Self {
        let dataset = dataset(seed, &scale);
        let palette = palette(seed, &scale);
        let batches = OpGen::new(&dataset, seed).round_robin(batches);
        Self {
            scale,
            dataset,
            palette,
            batches,
        }
    }
}

fn run_query(
    cluster: &ShardedService,
    user: &User,
    execution: Execution,
) -> Result<(QueryAlgorithm, Vec<f64>), String> {
    cluster
        .query(&user.constraints)
        .execution(execution)
        .run()
        .map(|r| (r.algorithm, r.probs))
        .map_err(|e| e.to_string())
}

fn dataset_detail(cluster: &ShardedService, dir: &Path) -> Vec<(String, Json)> {
    let flat = cluster.union_flat().ok();
    let snapshot_bytes: Vec<Json> = (0..cluster.num_shards())
        .map(|s| {
            let path = dir.join(format!("shard-{s}")).join("snapshot.bin");
            Json::from(std::fs::metadata(path).map_or(0, |m| m.len()))
        })
        .collect();
    vec![
        (
            "instances".into(),
            Json::from(flat.as_ref().map_or(0, |f| f.num_instances())),
        ),
        (
            "objects".into(),
            Json::from(flat.as_ref().map_or(0, |f| f.num_objects())),
        ),
        ("snapshot_bytes_per_shard".into(), Json::Arr(snapshot_bytes)),
    ]
}

// ---- warm_read --------------------------------------------------------------

pub fn warm_setup(dir: &Path, inputs: &Inputs, tally: &Tally) -> io::Result<ShardedService> {
    let cluster = ShardedService::create(dir, &inputs.dataset, ClusterConfig::default())?;
    for user in &inputs.palette {
        if let Err(e) = run_query(&cluster, user, PARALLEL_2) {
            tally.fail(format!("warm-up query: {e}"));
        }
    }
    Ok(cluster)
}

/// `reps` set-ups, each followed by a window of `seconds / reps`: the
/// samples of all windows are pooled, so no single process state (heap
/// layout, thread placement) decides the figures.
pub fn warm_read(
    root: &Path,
    inputs: &Inputs,
    seconds: f64,
    reps: usize,
    tally: &Tally,
) -> io::Result<Measured> {
    let mut m = Measured::new();
    let mut seen = Seen::default();
    let n = inputs.palette.len();
    let window = Duration::from_secs_f64(seconds / reps as f64);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let dir = WorkDir::new(root, "warm_read")?;
        let start = Instant::now();
        let cluster = warm_setup(dir.path(), inputs, tally)?;
        m.setup_s.push(start.elapsed().as_secs_f64());
        let rebuilds_before = cluster.cluster_stats().union_rebuilds;
        let start = Instant::now();
        let mut i = 0;
        while start.elapsed() < window {
            let user = i % n;
            let t = Instant::now();
            let got = run_query(&cluster, &inputs.palette[user], PARALLEL_2);
            let elapsed = t.elapsed();
            match got {
                Ok((algorithm, probs)) => {
                    m.op.push(elapsed);
                    m.read.push(elapsed);
                    // Every set-up serves the same data: one answer per
                    // (user, algorithm) across all windows.
                    seen.record(tally, user, algorithm, &probs);
                }
                Err(e) => tally.fail(format!("read: {e}")),
            }
            i += 1;
        }
        m.read_window += start.elapsed();
        m.union_rebuilds += cluster.cluster_stats().union_rebuilds - rebuilds_before;
        last = Some((cluster, dir));
    }
    let (cluster, dir) = last.expect("at least one set-up");
    match cluster.union_flat() {
        Ok(flat) => seen.gate(tally, &flat, &inputs.palette),
        Err(e) => tally.fail(format!("union_flat: {e}")),
    }
    m.detail.extend(dataset_detail(&cluster, dir.path()));
    m.detail
        .push(("union_rebuilds".into(), Json::from(m.union_rebuilds)));
    m.detail.push(("user_algorithms".into(), seen.algorithms()));
    Ok(m)
}

// ---- churn ----------------------------------------------------------------

/// churn's standing subscriptions: two LOOP-pinned (incremental), one Auto
/// on a KDTT+-regime user, one weight-ratio (DUAL).
pub fn churn_specs(palette: &[User]) -> Vec<StandingSpec> {
    let kd_user = palette
        .iter()
        .find(|u| !u.is_bnb())
        .expect("palette has a KDTT+ user");
    vec![
        StandingSpec::constraints(&palette[0].constraints).algorithm(QueryAlgorithm::Loop),
        StandingSpec::constraints(&palette[1].constraints).algorithm(QueryAlgorithm::Loop),
        StandingSpec::constraints(&kd_user.constraints),
        StandingSpec::ratio(&WeightRatio::uniform(DIM, 0.5, 2.0)),
    ]
}

pub fn churn_setup(
    dir: &Path,
    inputs: &Inputs,
    tally: &Tally,
) -> io::Result<(ShardedService, Vec<ClusterSubscription>)> {
    let cluster = ShardedService::create(dir, &inputs.dataset, ClusterConfig::default())?;
    let mut subs = Vec::new();
    for spec in churn_specs(&inputs.palette) {
        match cluster.subscribe(&spec) {
            Ok(sub) => subs.push(sub),
            Err(e) => tally.fail(format!("subscribe: {e}")),
        }
    }
    for user in &inputs.palette {
        if let Err(e) = run_query(&cluster, user, Execution::Sequential) {
            tally.fail(format!("warm-up query: {e}"));
        }
    }
    Ok((cluster, subs))
}

/// Open-loop accounting of a writer: due-time latency, how late sends
/// went out, and the due-but-unsent backlog at each send.
#[derive(Default)]
pub struct OpenLoop {
    pub ack: Samples,
    pub lateness: Samples,
    pub backlog: Vec<f64>,
    pub checkpoints: u64,
}

impl OpenLoop {
    /// Mean backlog over the last third of sends minus the first third.
    pub fn backlog_growth(&self) -> f64 {
        let n = self.backlog.len();
        if n < 3 {
            return 0.0;
        }
        let third = n / 3;
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        mean(&self.backlog[n - third..]) - mean(&self.backlog[..third])
    }

    pub fn detail(&self) -> Json {
        Json::obj([
            ("rate_per_s", Json::from(WRITE_RATE)),
            ("sent", Json::from(self.ack.len())),
            ("lateness_p50_ms", Json::from(self.lateness.median())),
            ("lateness_max_ms", Json::from(self.lateness.max())),
            (
                "backlog_max",
                Json::from(self.backlog.iter().copied().fold(0.0, f64::max)),
            ),
            ("backlog_growth", Json::from(self.backlog_growth())),
            ("checkpoints", Json::from(self.checkpoints)),
        ])
    }
}

/// Drives `send(k)` for batch `k` on an open-loop schedule of `WRITE_RATE`
/// batches per second until `deadline` or the batches run out; `send`
/// returns once the batch is acknowledged.
pub fn open_loop(
    batches: usize,
    start: Instant,
    deadline: Instant,
    mut send: impl FnMut(usize) -> bool,
) -> OpenLoop {
    let mut acc = OpenLoop::default();
    for k in 0..batches {
        let due = start + Duration::from_secs_f64(k as f64 / WRITE_RATE);
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        acc.lateness.push(sent - due);
        let due_so_far = ((sent - start).as_secs_f64() * WRITE_RATE).floor() + 1.0;
        acc.backlog.push(due_so_far - (k as f64 + 1.0));
        if send(k) {
            acc.checkpoints += 1;
        }
        acc.ack.push(due.elapsed());
    }
    acc
}

/// Checks that every per-shard feed of every subscription delivered
/// gapless result versions 1..=k, with one refresh per applied batch.
pub fn check_feeds(tally: &Tally, subs: &[ClusterSubscription], applied: &[u64]) {
    for (i, sub) in subs.iter().enumerate() {
        let mut next = vec![1u64; sub.num_shards()];
        for change in sub.drain() {
            let s = change.shard;
            tally.check(change.batch.result_version == next[s], || {
                format!(
                    "subscription {i} shard {s}: result version {} after {}",
                    change.batch.result_version,
                    next[s] - 1
                )
            });
            next[s] = change.batch.result_version + 1;
        }
        for (s, &versions) in sub.result_versions().iter().enumerate() {
            tally.check(
                versions == applied[s] + 1 && next[s] == versions + 1,
                || {
                    format!(
                        "subscription {i} shard {s}: {versions} result versions for {} batches",
                        applied[s]
                    )
                },
            );
        }
    }
}

/// After the writer stops: every user's answer equals a cold engine's.
pub fn gate_live(tally: &Tally, cluster: &ShardedService, palette: &[User]) {
    let flat = match cluster.union_flat() {
        Ok(flat) => flat,
        Err(e) => return tally.fail(format!("union_flat: {e}")),
    };
    for (u, user) in palette.iter().enumerate() {
        match run_query(cluster, user, Execution::Sequential) {
            Ok((algorithm, probs)) => {
                let cold = cold_bits(&flat, &user.constraints, algorithm);
                tally.check(cold == bits(&probs), || {
                    format!("user {u} {}: differs from a cold engine", algorithm.name())
                });
            }
            Err(e) => tally.fail(format!("gate query: {e}")),
        }
    }
}

pub fn churn(
    root: &Path,
    inputs: &Inputs,
    seconds: f64,
    reps: usize,
    tally: &Tally,
) -> io::Result<Measured> {
    let mut m = Measured::new();
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let dir = WorkDir::new(root, "churn")?;
        let start = Instant::now();
        let (cluster, subs) = churn_setup(dir.path(), inputs, tally)?;
        m.setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((cluster, subs, dir));
    }
    let (cluster, subs, dir) = kept.expect("at least one set-up");
    let shards = cluster.num_shards();
    let rebuilds_before = cluster.cluster_stats().union_rebuilds;
    let applied: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    let writer_done = AtomicBool::new(false);
    let n = inputs.palette.len();
    let every = inputs.scale.checkpoint_every as u64;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (writes, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let acc = open_loop(inputs.batches.len(), start, deadline, |k| {
                let (shard, ops) = &inputs.batches[k];
                match cluster.apply_batch(*shard, ops.clone()) {
                    Ok(ApplyOutcome::Applied) => tally.ok(),
                    Ok(other) => tally.fail(format!("apply_batch: {other:?}")),
                    Err(e) => tally.fail(format!("apply_batch: {e}")),
                }
                let done = applied[*shard].fetch_add(1, Ordering::Relaxed) + 1;
                if done.is_multiple_of(every) {
                    match cluster.checkpoint(*shard) {
                        Ok(true) => tally.ok(),
                        Ok(false) => tally.fail(format!("checkpoint: shard {shard} down")),
                        Err(e) => tally.fail(format!("checkpoint: {e}")),
                    }
                    return true;
                }
                false
            });
            writer_done.store(true, Ordering::Relaxed);
            acc
        });
        let reader = scope.spawn(|| {
            let mut read = Samples::default();
            let mut i = 0;
            while !writer_done.load(Ordering::Relaxed) && Instant::now() < deadline {
                let t = Instant::now();
                match run_query(&cluster, &inputs.palette[i % n], Execution::Sequential) {
                    Ok(_) => {
                        read.push(t.elapsed());
                        tally.ok();
                    }
                    Err(e) => tally.fail(format!("read: {e}")),
                }
                i += 1;
            }
            (read, start.elapsed())
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    m.op = writes.ack.clone();
    (m.read, m.read_window) = reads;
    m.union_rebuilds = cluster.cluster_stats().union_rebuilds - rebuilds_before;

    let applied: Vec<u64> = applied.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    check_feeds(tally, &subs, &applied);
    gate_live(tally, &cluster, &inputs.palette);
    tally.check(writes.backlog_growth() <= 1.0, || {
        format!(
            "write backlog grew by {:.2} batches: the offered rate is over capacity",
            writes.backlog_growth()
        )
    });
    m.detail.extend(dataset_detail(&cluster, dir.path()));
    m.detail
        .push(("union_rebuilds".into(), Json::from(m.union_rebuilds)));
    m.detail.push(("writer".into(), writes.detail()));
    m.detail.push((
        "batches_per_shard".into(),
        Json::Arr(applied.iter().map(|&a| Json::from(a)).collect()),
    ));
    Ok(m)
}

// ---- restart ---------------------------------------------------------------

/// Builds the restart directory: per shard, `wal_tail` batches, a
/// checkpoint, and `wal_tail` more batches left in the WAL.
pub fn restart_prepare(dir: &Path, inputs: &Inputs, tally: &Tally) -> io::Result<()> {
    let cluster = ShardedService::create(dir, &inputs.dataset, ClusterConfig::default())?;
    let per_phase = inputs.scale.wal_tail * cluster.num_shards();
    for (phase, chunk) in inputs.batches[..2 * per_phase]
        .chunks(per_phase)
        .enumerate()
    {
        for (shard, ops) in chunk {
            match cluster.apply_batch(*shard, ops.clone()) {
                Ok(ApplyOutcome::Applied) => tally.ok(),
                Ok(other) => tally.fail(format!("apply_batch: {other:?}")),
                Err(e) => tally.fail(format!("apply_batch: {e}")),
            }
        }
        if phase == 0 {
            for shard in 0..cluster.num_shards() {
                cluster.checkpoint(shard)?;
            }
        }
    }
    Ok(())
}

/// `reps` prepared directories, each followed by a window of
/// `seconds / reps` of restarts; samples are pooled as in [`warm_read`].
pub fn restart(
    root: &Path,
    inputs: &Inputs,
    seconds: f64,
    reps: usize,
    tally: &Tally,
) -> io::Result<Measured> {
    let mut m = Measured::new();
    let tail = inputs.scale.wal_tail as u64;
    let mut seen = Seen::default();
    let n = inputs.palette.len();
    let window = Duration::from_secs_f64(seconds / reps as f64);
    let mut last = None;
    let mut i = 0;
    for _ in 0..reps {
        drop(last.take());
        let dir = WorkDir::new(root, "restart")?;
        let start = Instant::now();
        restart_prepare(dir.path(), inputs, tally)?;
        m.setup_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        while start.elapsed() < window {
            let user = i % n;
            i += 1;
            let t = Instant::now();
            let opened = ShardedService::open(dir.path(), failure_threshold());
            let open_time = t.elapsed();
            let (cluster, reports) = match opened {
                Ok(opened) => opened,
                Err(e) => {
                    tally.fail(format!("open: {e}"));
                    continue;
                }
            };
            m.op.push(open_time);
            tally.check(
                reports
                    .iter()
                    .all(|r| r.records_replayed == tail && r.torn_bytes == 0),
                || format!("open replayed {reports:?}, expected {tail} records per shard"),
            );
            let t = Instant::now();
            match run_query(&cluster, &inputs.palette[user], Execution::Sequential) {
                Ok((algorithm, probs)) => {
                    m.read.push(t.elapsed());
                    seen.record(tally, user, algorithm, &probs);
                }
                Err(e) => tally.fail(format!("first read: {e}")),
            }
            m.union_rebuilds += cluster.cluster_stats().union_rebuilds;
        }
        m.read_window += start.elapsed();
        last = Some(dir);
    }
    let dir = last.expect("at least one set-up");
    let (cluster, _) = ShardedService::open(dir.path(), failure_threshold())?;
    match cluster.union_flat() {
        Ok(flat) => seen.gate(tally, &flat, &inputs.palette),
        Err(e) => tally.fail(format!("union_flat: {e}")),
    }
    m.detail.extend(dataset_detail(&cluster, dir.path()));
    m.detail
        .push(("union_rebuilds".into(), Json::from(m.union_rebuilds)));
    m.detail
        .push(("wal_tail_batches_per_shard".into(), Json::from(tail)));
    m.detail.push(("user_algorithms".into(), seen.algorithms()));
    Ok(m)
}
