//! Seeded inputs shared by every workload: the dataset, the query palette
//! and the per-shard mutation batches. Everything here is a pure function
//! of the seed and the [`Scale`]; the program under test only ever sees
//! the generated values.

use arsp_core::cluster::ClusterConfig;
use arsp_core::engine::AUTO_BNB_MIN_SCORE_DIM;
use arsp_data::{
    im_constraints, partition_dataset, Distribution, MutationOp, SyntheticConfig, UncertainDataset,
    VersionedStore,
};
use arsp_geometry::constraints::ConstraintSet;
use arsp_geometry::fdom::LinearFDominance;

/// Dataset dimensionality.
pub const DIM: usize = 4;
/// Half-space constraints per user preference region (IM constraints).
pub const CONSTRAINTS_PER_USER: usize = 3;
/// Most instances per generated object.
pub const MAX_INSTANCES: usize = 16;
/// Mutation ops per batch.
pub const BATCH_OPS: usize = 8;

/// Shards of every cluster the benchmark builds: the default cluster's.
pub fn num_shards() -> usize {
    ClusterConfig::default().num_shards
}

/// Size knobs. [`Scale::FULL`] is the measured configuration; [`Scale::TOY`]
/// keeps the determinism tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub num_objects: usize,
    /// Users in the query palette.
    pub users: usize,
    /// Palette users whose preference region has at least
    /// `AUTO_BNB_MIN_SCORE_DIM` vertices (Auto sends them to B&B); the rest
    /// go to KDTT+.
    pub bnb_users: usize,
    /// Batches per shard between checkpoints (churn).
    pub checkpoint_every: usize,
    /// Batches per shard before restart's checkpoint, and again after it
    /// (the WAL tail `open` replays).
    pub wal_tail: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        num_objects: 1000,
        users: 16,
        bnb_users: 4,
        checkpoint_every: 16,
        wal_tail: 64,
    };

    pub const TOY: Scale = Scale {
        num_objects: 48,
        users: 4,
        bnb_users: 1,
        checkpoint_every: 4,
        wal_tail: 4,
    };
}

/// SplitMix64: a tiny, fully specified generator, so the inputs depend on
/// nothing but the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Stream tags, so the dataset, palette and op sequence draw independent
/// values from one seed.
const DATASET_STREAM: u64 = 0xd1;
const PALETTE_STREAM: u64 = 0xa2;
const OPS_STREAM: u64 = 0x03;
const JITTER_STREAM: u64 = 0x74;
const ORDER_STREAM: u64 = 0x5e;

/// The seed of the workload's shape: the base dataset and the palette
/// users. The CLI seed varies the values on top of that shape (coordinate
/// jitter, palette order, every mutation) but not the shape itself: a
/// fresh dataset and palette per seed moved read latency by 12–17% between
/// seeds, which would drown the run-to-run figures the benchmark compares.
const SHAPE_SEED: u64 = 0x00c0_ffee;

fn stream(seed: u64, tag: u64) -> Rng {
    let mut mix = Rng::new(seed ^ tag.wrapping_mul(0x2545_f491_4f6c_dd1d));
    Rng::new(mix.next_u64())
}

/// Coordinate jitter applied per seed (uniform, this wide in total).
const JITTER: f64 = 0.002;

/// The synthetic dataset: IND centres, region length 0.2, ϕ = 0.5, every
/// coordinate then moved by a seeded jitter of at most ±0.001. With ϕ = 0.5
/// the expected instance count sits right at 8 per object, the threshold
/// at which Auto starts choosing B&B, so the base generator seed is the
/// first one whose dataset averages at least 8.1 instances per object: the
/// palette's B&B / KDTT+ split then holds, also after churn's inserts.
pub fn dataset(seed: u64, scale: &Scale) -> UncertainDataset {
    let mut shape = stream(SHAPE_SEED, DATASET_STREAM);
    let base = loop {
        let dataset = SyntheticConfig {
            num_objects: scale.num_objects,
            max_instances: MAX_INSTANCES,
            dim: DIM,
            region_length: 0.2,
            phi: 0.5,
            distribution: Distribution::Independent,
            seed: shape.next_u64(),
        }
        .generate();
        if dataset.num_instances() * 10 >= dataset.num_objects() * 81 {
            break dataset;
        }
    };
    let mut rng = stream(seed, JITTER_STREAM);
    let mut jittered = UncertainDataset::new(DIM);
    for object in 0..base.num_objects() {
        let instances = base
            .object_instances(object)
            .map(|inst| {
                let coords = inst
                    .coords
                    .iter()
                    .map(|&c| (c + (rng.unit() - 0.5) * JITTER).clamp(0.0, 1.0))
                    .collect();
                (coords, inst.prob)
            })
            .collect();
        jittered.push_object(instances);
    }
    jittered
}

/// One palette user: an IM preference region and its vertex count.
#[derive(Clone, Debug)]
pub struct User {
    pub constraints: ConstraintSet,
    pub score_dim: usize,
}

impl User {
    fn new(seed: u64) -> Self {
        let constraints = im_constraints(DIM, CONSTRAINTS_PER_USER, seed);
        let score_dim = LinearFDominance::from_constraints(&constraints).num_vertices();
        Self {
            constraints,
            score_dim,
        }
    }

    /// Whether Auto sends this user to B&B on a dense dataset.
    pub fn is_bnb(&self) -> bool {
        self.score_dim >= AUTO_BNB_MIN_SCORE_DIM
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The query palette: `scale.users` IM users, exactly `scale.bnb_users` of
/// them in the B&B regime. The users are the workload's shape; the seed
/// shuffles them within each regime. B&B users sit evenly spaced in the
/// cycle order, and the fixed mix keeps the latency median inside one cost
/// mode.
pub fn palette(seed: u64, scale: &Scale) -> Vec<User> {
    let mut shape = stream(SHAPE_SEED, PALETTE_STREAM);
    let mut bnb = Vec::new();
    let mut kd = Vec::new();
    let kd_users = scale.users - scale.bnb_users;
    while bnb.len() < scale.bnb_users || kd.len() < kd_users {
        let user = User::new(shape.next_u64());
        if user.is_bnb() {
            if bnb.len() < scale.bnb_users {
                bnb.push(user);
            }
        } else if kd.len() < kd_users {
            kd.push(user);
        }
    }
    let mut rng = stream(seed, ORDER_STREAM);
    shuffle(&mut bnb, &mut rng);
    shuffle(&mut kd, &mut rng);
    // Position i holds a B&B user when the running share of B&B users
    // falls behind the target share.
    let mut order: Vec<User> = Vec::with_capacity(scale.users);
    let (mut bnb, mut kd) = (bnb.into_iter(), kd.into_iter());
    for i in 0..scale.users {
        let want = (i + 1) * scale.bnb_users / scale.users;
        let have = order.iter().filter(|u| u.is_bnb()).count();
        let next = if have < want { bnb.next() } else { kd.next() };
        order.push(next.expect("palette counts add up"));
    }
    order
}

/// Instances per inserted object (probability 0.09 each), a little above
/// the dataset's average so inserts never drag the average under 8.
const INSERT_INSTANCES: usize = 10;

/// Mutation batches over per-shard shadow stores: each op is generated
/// against the shard's current state and applied to the shadow at once, so
/// every handle names a live instance and every object keeps a probability
/// budget of at most one.
pub struct OpGen {
    rng: Rng,
    shadows: Vec<VersionedStore>,
    /// Batches generated so far, per shard.
    batches: Vec<u64>,
}

impl OpGen {
    pub fn new(dataset: &UncertainDataset, seed: u64) -> Self {
        let shadows: Vec<VersionedStore> = partition_dataset(dataset, num_shards())
            .iter()
            .map(VersionedStore::from_dataset)
            .collect();
        Self {
            rng: stream(seed, OPS_STREAM),
            batches: vec![0; shadows.len()],
            shadows,
        }
    }

    /// The next batch for `shard`. Of each shard's batches, one in four
    /// inserts an object and one in four removes an instance; all other ops
    /// move an instance slightly.
    pub fn batch(&mut self, shard: usize) -> Vec<MutationOp> {
        let kind = self.batches[shard] % 4;
        self.batches[shard] += 1;
        let mut ops = Vec::with_capacity(BATCH_OPS);
        for i in 0..BATCH_OPS {
            let op = if i + 1 == BATCH_OPS && kind == 1 {
                self.insert_object()
            } else if i + 1 == BATCH_OPS && kind == 3 {
                self.remove_instance(shard)
            } else {
                self.update_instance(shard)
            };
            op.apply_to(&mut self.shadows[shard]);
            ops.push(op);
        }
        if let Err(err) = self.shadows[shard].validate() {
            panic!("generated batch broke shard {shard}'s shadow store: {err}");
        }
        ops
    }

    /// `n` batches, round-robin over the shards: `(shard, ops)`.
    pub fn round_robin(&mut self, n: usize) -> Vec<(usize, Vec<MutationOp>)> {
        (0..n)
            .map(|i| {
                let shard = i % self.shadows.len();
                (shard, self.batch(shard))
            })
            .collect()
    }

    fn random_live_row(&mut self, shard: usize) -> usize {
        let rows: Vec<usize> = self.shadows[shard].canonical_rows().collect();
        rows[self.rng.below(rows.len())]
    }

    fn update_instance(&mut self, shard: usize) -> MutationOp {
        let row = self.random_live_row(shard);
        let store = &self.shadows[shard];
        let prob = store.prob(row);
        let handle = store.handle_of_row(row).index() as u64;
        let coords = store
            .coords_of(row)
            .to_vec()
            .into_iter()
            .map(|c| (c + (self.rng.unit() - 0.5) * 0.04).clamp(0.0, 1.0))
            .collect();
        MutationOp::UpdateInstance {
            handle,
            coords,
            prob,
        }
    }

    fn remove_instance(&mut self, shard: usize) -> MutationOp {
        // An instance of an object that keeps at least one other instance.
        loop {
            let row = self.random_live_row(shard);
            let store = &self.shadows[shard];
            if store.object_rows(store.object_of(row)).len() >= 2 {
                return MutationOp::RemoveInstance {
                    handle: store.handle_of_row(row).index() as u64,
                };
            }
        }
    }

    fn insert_object(&mut self) -> MutationOp {
        let centre: Vec<f64> = (0..DIM).map(|_| 0.1 + 0.8 * self.rng.unit()).collect();
        let instances = (0..INSERT_INSTANCES)
            .map(|_| {
                let coords = centre
                    .iter()
                    .map(|&c| c + (self.rng.unit() - 0.5) * 0.2)
                    .collect();
                (coords, 0.09)
            })
            .collect();
        MutationOp::InsertObject {
            label: None,
            instances,
        }
    }
}
