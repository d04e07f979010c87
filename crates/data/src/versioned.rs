//! The mutable, versioned twin of the columnar instance store.
//!
//! Every structure built in the earlier layers — [`FlatStore`], the index
//! arenas, the engine caches — assumes a dataset frozen at construction time.
//! Real ARSP workloads are streams: instances arrive, probabilities get
//! revised, objects retire. [`VersionedStore`] is the substrate for that
//! workload:
//!
//! * **Delta appends** — every new row (insert or overwrite) is appended to
//!   the tail of the columnar arrays; rows already written are never moved or
//!   modified, so caches built over a prefix of the store stay valid.
//! * **Tombstones** — deletions flip a bit in the `alive` bitmap; the row's
//!   data stays in place (readers that recorded the row keep working, they
//!   just skip it).
//! * **Versions** — every mutation bumps a monotonically increasing
//!   [`VersionedStore::version`]. Caches record the version they were built
//!   at and patch themselves forward.
//! * **Merges** — [`VersionedStore::merge`] folds the delta tail and the
//!   tombstones back into a canonical base (the logarithmic-method step);
//!   physical row ids are re-assigned (the *epoch* bumps) but the logical
//!   content — and every [`InstanceHandle`] — is unchanged.
//!
//! ## Canonical order and snapshot semantics
//!
//! At any version the store describes exactly one [`UncertainDataset`]: the
//! objects that currently have at least one live instance, in creation order,
//! each carrying its live instances in *logical* order (insertion order;
//! removals preserve the order of the rest). An **overwrite moves the
//! instance to its object's logical tail** — mirroring the physical
//! delta-append — which is part of the documented semantics and what the
//! agreement tests' mirror model reproduces. [`VersionedStore::snapshot_dataset`]
//! and [`VersionedStore::snapshot_flat`] materialise that dataset; instance
//! ids of the snapshot ("snapshot ids") are dense in canonical order, so
//! results computed over a snapshot index exactly like results from a cold
//! engine built on the same dataset.
//!
//! Handles, not row ids, are the stable external names of instances: a row id
//! is only valid within one epoch (merges renumber rows), while an
//! [`InstanceHandle`] survives merges *and* overwrites (an overwrite
//! re-points the handle at the replacement row).

use crate::dataset::UncertainDataset;
use crate::flat::FlatStore;

/// Sentinel row id meaning "no row" (dead handle, unmapped slot).
const NO_ROW: u32 = u32::MAX;

/// Largest probability one instance may carry: one, plus rounding slack.
pub(crate) const MAX_INSTANCE_PROB: f64 = 1.0 + 1e-12;

/// Largest total probability the live instances of one object may carry.
pub(crate) const MAX_OBJECT_PROB: f64 = 1.0 + 1e-9;

/// A stable name for one logical instance of a [`VersionedStore`]. Survives
/// merges and overwrites; dies when the instance is removed (or its object
/// retired).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceHandle(u32);

impl InstanceHandle {
    /// The handle's dense slot index (handles are allocated `0, 1, 2, …` in
    /// insertion order and never reused).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a handle from its dense slot index — the inverse of
    /// [`index`](Self::index). Crash recovery uses it to re-materialise the
    /// handles a logged mutation batch named; a handle fabricated for a slot
    /// the store never allocated simply names no row.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        InstanceHandle(index as u32)
    }
}

/// A mutable uncertain dataset with delta-append storage, tombstone
/// deletions, a monotonically increasing version and logarithmic-method
/// compaction. See the [module docs](self) for the semantics.
#[derive(Clone, Debug)]
pub struct VersionedStore {
    dim: usize,
    /// Dim-strided coordinates of every physical row (live or tombstoned).
    coords: Vec<f64>,
    /// Existence probability of every physical row.
    probs: Vec<f64>,
    /// Owning (store) object id of every physical row.
    objects: Vec<u32>,
    /// Tombstone bitmap: `false` = the row was deleted or overwritten.
    alive: Vec<bool>,
    /// Rows `[0, base_rows)` formed the canonical base at the last merge;
    /// everything after is the unindexed delta tail.
    base_rows: usize,
    /// Number of tombstoned rows still physically present.
    dead_rows: usize,
    /// Live rows of each object in logical (canonical) order. Retired or
    /// emptied objects keep an empty list; store object ids never shift.
    object_rows: Vec<Vec<u32>>,
    object_retired: Vec<bool>,
    object_labels: Vec<Option<String>>,
    /// Handle slot → current row (`NO_ROW` once the instance is gone).
    handle_to_row: Vec<u32>,
    /// Row → handle slot (valid only while the row is live).
    row_to_handle: Vec<u32>,
    version: u64,
    epoch: u64,
}

impl VersionedStore {
    /// Creates an empty store of the given dimensionality (version 0).
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1, "stores must have at least one dimension");
        Self {
            dim,
            coords: Vec::new(),
            probs: Vec::new(),
            objects: Vec::new(),
            alive: Vec::new(),
            base_rows: 0,
            dead_rows: 0,
            object_rows: Vec::new(),
            object_retired: Vec::new(),
            object_labels: Vec::new(),
            handle_to_row: Vec::new(),
            row_to_handle: Vec::new(),
            version: 0,
            epoch: 0,
        }
    }

    /// Seeds a store from a frozen dataset (the bulk load). The dataset
    /// becomes the canonical base: row `i` is instance `i`, bit for bit, and
    /// the returned store is at version 0.
    pub fn from_dataset(dataset: &UncertainDataset) -> Self {
        let mut store = Self::new(dataset.dim());
        for obj in dataset.objects() {
            let object = store.push_object_slot(obj.label.clone());
            for &iid in &obj.instance_ids {
                let inst = dataset.instance(iid);
                store.push_row(object, &inst.coords, inst.prob);
            }
        }
        store.base_rows = store.probs.len();
        store.version = 0;
        store
    }

    // ---- mutations --------------------------------------------------------

    /// Adds a new uncertain object with its initial instances; returns the
    /// store object id. Bumps the version once.
    ///
    /// # Panics
    /// Panics on dimension mismatches, probabilities outside `(0, 1]`, an
    /// empty instance list, or a total probability above one.
    pub fn insert_object(
        &mut self,
        label: Option<String>,
        instances: Vec<(Vec<f64>, f64)>,
    ) -> usize {
        assert!(
            !instances.is_empty(),
            "objects must start with at least one instance"
        );
        let total: f64 = instances.iter().map(|(_, p)| p).sum();
        assert!(
            total <= MAX_OBJECT_PROB,
            "total probability of an object must not exceed 1 (got {total})"
        );
        let object = self.push_object_slot(label);
        for (coords, prob) in instances {
            self.push_row(object, &coords, prob);
        }
        self.version += 1;
        object
    }

    /// Appends a new instance to an existing object; returns its stable
    /// handle. Bumps the version.
    ///
    /// # Panics
    /// Panics if the object does not exist or is retired, on dimension or
    /// probability violations, or if the object's total probability would
    /// exceed one.
    pub fn insert_instance(&mut self, object: usize, coords: &[f64], prob: f64) -> InstanceHandle {
        assert!(object < self.object_rows.len(), "unknown object {object}");
        assert!(
            !self.object_retired[object],
            "object {object} is retired and cannot gain instances"
        );
        let total = self.live_total_prob(object) + prob;
        assert!(
            total <= MAX_OBJECT_PROB,
            "object {object} total probability would reach {total}"
        );
        let handle = self.push_row(object, coords, prob);
        self.version += 1;
        handle
    }

    /// Deletes one instance (tombstone). Bumps the version.
    ///
    /// # Panics
    /// Panics if the handle is already dead.
    pub fn remove_instance(&mut self, handle: InstanceHandle) {
        let row = self.handle_to_row[handle.index()];
        assert!(row != NO_ROW, "handle names a removed instance");
        self.kill(handle);
        self.version += 1;
    }

    /// Overwrites one instance (revised coordinates and/or probability): the
    /// old row is tombstoned and a replacement row is appended to the delta
    /// tail — the handle stays valid and now names the replacement. The
    /// instance moves to its object's logical tail (see the
    /// [module docs](self)). Bumps the version once.
    ///
    /// # Panics
    /// Panics if the handle is dead, on dimension or probability violations,
    /// or if the object's total probability would exceed one.
    pub fn update_instance(&mut self, handle: InstanceHandle, coords: &[f64], prob: f64) {
        let row = self.handle_to_row[handle.index()];
        assert!(row != NO_ROW, "handle names a removed instance");
        let object = self.objects[row as usize] as usize;
        let total = self.live_total_prob(object) - self.probs[row as usize] + prob;
        assert!(
            total <= MAX_OBJECT_PROB,
            "object {object} total probability would reach {total}"
        );
        self.kill(handle);
        // The handle keeps naming the logical instance: the replacement row
        // is appended under the *existing* handle slot, not a fresh one.
        let new_row = self.push_row_raw(object, coords, prob, handle.0);
        self.handle_to_row[handle.index()] = new_row;
        self.version += 1;
    }

    /// Retires a whole object: every live instance is tombstoned and the
    /// object can never gain instances again. Bumps the version once.
    ///
    /// # Panics
    /// Panics if the object does not exist or is already retired.
    pub fn retire_object(&mut self, object: usize) {
        assert!(object < self.object_rows.len(), "unknown object {object}");
        assert!(
            !self.object_retired[object],
            "object {object} is already retired"
        );
        let rows = std::mem::take(&mut self.object_rows[object]);
        for &row in &rows {
            self.alive[row as usize] = false;
            self.handle_to_row[self.row_to_handle[row as usize] as usize] = NO_ROW;
            self.dead_rows += 1;
        }
        self.object_retired[object] = true;
        self.version += 1;
    }

    /// Folds the delta tail and the tombstones into a fresh canonical base
    /// (the logarithmic-method merge): live rows are rewritten in canonical
    /// order, dead rows are dropped, and the epoch bumps. The logical content
    /// — and therefore the version — is unchanged. Returns the physical row
    /// remap (`old row → new row`, `u32::MAX` for dropped rows) so callers
    /// holding row references can translate them.
    pub fn merge(&mut self) -> Vec<u32> {
        let old_total = self.probs.len();
        let live = self.num_live_instances();
        let mut remap = vec![NO_ROW; old_total];
        let mut coords = Vec::with_capacity(live * self.dim);
        let mut probs = Vec::with_capacity(live);
        let mut objects = Vec::with_capacity(live);
        let mut row_to_handle = vec![0u32; live];
        let mut next = 0u32;
        for (object, rows) in self.object_rows.iter_mut().enumerate() {
            for row in rows.iter_mut() {
                let old = *row as usize;
                remap[old] = next;
                coords.extend_from_slice(&self.coords[old * self.dim..(old + 1) * self.dim]);
                probs.push(self.probs[old]);
                objects.push(object as u32);
                row_to_handle[next as usize] = self.row_to_handle[old];
                *row = next;
                next += 1;
            }
        }
        for slot in self.handle_to_row.iter_mut() {
            if *slot != NO_ROW {
                *slot = remap[*slot as usize];
            }
        }
        self.coords = coords;
        self.probs = probs;
        self.objects = objects;
        self.row_to_handle = row_to_handle;
        self.alive = vec![true; live];
        self.base_rows = live;
        self.dead_rows = 0;
        self.epoch += 1;
        remap
    }

    // ---- version / shape accessors ---------------------------------------

    /// The monotonically increasing logical version (bumped by every
    /// mutation, never by [`VersionedStore::merge`]).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The physical epoch: bumped by every [`VersionedStore::merge`]. Row ids
    /// are only comparable within one epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Dataset dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of physical rows (live and tombstoned) in the current epoch.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.probs.len()
    }

    /// Number of rows in the canonical base of the current epoch.
    #[inline]
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Number of rows appended since the last merge (the unindexed delta
    /// tail, live or already re-tombstoned).
    #[inline]
    pub fn delta_rows(&self) -> usize {
        self.probs.len() - self.base_rows
    }

    /// Number of tombstoned rows still physically present.
    #[inline]
    pub fn dead_rows(&self) -> usize {
        self.dead_rows
    }

    /// The merge-pressure figure the delta policy thresholds: delta appends
    /// plus tombstones. (A dead delta row counts on both sides — it burdens
    /// both the tail scan and the skip bitmap.)
    #[inline]
    pub fn pending_rows(&self) -> usize {
        self.delta_rows() + self.dead_rows
    }

    /// Number of live instances `n`.
    #[inline]
    pub fn num_live_instances(&self) -> usize {
        self.probs.len() - self.dead_rows
    }

    /// Number of store object slots ever created (live, emptied and retired).
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.object_rows.len()
    }

    /// Number of objects with at least one live instance — the `m` of the
    /// snapshot dataset.
    pub fn num_live_objects(&self) -> usize {
        self.object_rows.iter().filter(|r| !r.is_empty()).count()
    }

    // ---- row accessors ----------------------------------------------------

    /// Coordinates of one physical row (valid for tombstoned rows too).
    #[inline]
    pub fn coords_of(&self, row: usize) -> &[f64] {
        &self.coords[row * self.dim..(row + 1) * self.dim]
    }

    /// Existence probability of one physical row.
    #[inline]
    pub fn prob(&self, row: usize) -> f64 {
        self.probs[row]
    }

    /// Owning store object of one physical row.
    #[inline]
    pub fn object_of(&self, row: usize) -> usize {
        self.objects[row] as usize
    }

    /// `true` while the row has not been tombstoned.
    #[inline]
    pub fn is_live(&self, row: usize) -> bool {
        self.alive[row]
    }

    /// The current row named by a handle (`None` once the instance is gone).
    #[inline]
    pub fn row_of(&self, handle: InstanceHandle) -> Option<usize> {
        match self.handle_to_row.get(handle.index()) {
            Some(&row) if row != NO_ROW => Some(row as usize),
            _ => None,
        }
    }

    /// The handle of a live row.
    ///
    /// # Panics
    /// Panics if the row is tombstoned (dead rows have no handle).
    pub fn handle_of_row(&self, row: usize) -> InstanceHandle {
        assert!(self.alive[row], "tombstoned rows have no handle");
        InstanceHandle(self.row_to_handle[row])
    }

    // ---- object accessors -------------------------------------------------

    /// The live rows of one object in logical (canonical) order.
    #[inline]
    pub fn object_rows(&self, object: usize) -> &[u32] {
        &self.object_rows[object]
    }

    /// `true` once the object has been retired.
    #[inline]
    pub fn is_retired(&self, object: usize) -> bool {
        self.object_retired[object]
    }

    /// The label of one object, if any.
    pub fn object_label(&self, object: usize) -> Option<&str> {
        self.object_labels[object].as_deref()
    }

    /// Sum of the live instance probabilities of one object (in logical
    /// order — the same accumulation order the snapshot dataset validates).
    pub fn live_total_prob(&self, object: usize) -> f64 {
        self.object_rows[object]
            .iter()
            .map(|&r| self.probs[r as usize])
            .sum()
    }

    /// The dense snapshot object id of a store object (`None` when the
    /// object has no live instance and is therefore absent from the
    /// snapshot).
    pub fn snapshot_object_id(&self, object: usize) -> Option<usize> {
        if object >= self.object_rows.len() || self.object_rows[object].is_empty() {
            return None;
        }
        Some(
            self.object_rows[..object]
                .iter()
                .filter(|r| !r.is_empty())
                .count(),
        )
    }

    // ---- canonical snapshots ---------------------------------------------

    /// Iterates the live rows in canonical (object-major, logical) order —
    /// position `i` of this iteration is snapshot instance id `i`.
    pub fn canonical_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.object_rows
            .iter()
            .flat_map(|rows| rows.iter().map(|&r| r as usize))
    }

    /// Materialises the current logical content as an [`UncertainDataset`]
    /// (canonical order, labels preserved) — what a cold engine would be
    /// built on.
    pub fn snapshot_dataset(&self) -> UncertainDataset {
        let mut dataset = UncertainDataset::new(self.dim);
        for (object, rows) in self.object_rows.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let instances = rows
                .iter()
                .map(|&r| (self.coords_of(r as usize).to_vec(), self.probs[r as usize]))
                .collect();
            dataset.push_labeled_object(self.object_labels[object].clone(), instances);
        }
        dataset
    }

    /// Materialises the current logical content as a [`FlatStore`] — bitwise
    /// identical to `FlatStore::from_dataset(&self.snapshot_dataset())`, one
    /// gather pass, no intermediate dataset.
    pub fn snapshot_flat(&self) -> FlatStore {
        let n = self.num_live_instances();
        let mut coords = Vec::with_capacity(n * self.dim);
        let mut probs = Vec::with_capacity(n);
        let mut objects = Vec::with_capacity(n);
        let mut object_start = Vec::with_capacity(self.num_live_objects() + 1);
        object_start.push(0u32);
        let mut snapshot_object = 0u32;
        for rows in &self.object_rows {
            if rows.is_empty() {
                continue;
            }
            for &r in rows {
                let row = r as usize;
                coords.extend_from_slice(self.coords_of(row));
                probs.push(self.probs[row]);
                objects.push(snapshot_object);
            }
            object_start.push(probs.len() as u32);
            snapshot_object += 1;
        }
        FlatStore::from_parts(self.dim, coords, probs, objects, object_start)
    }

    /// Structural self-check: returns the first violation found. Also the
    /// gate [`decode_state`](Self::decode_state) applies to every decoded
    /// snapshot, so it must reject any state a later mutation would trip on.
    pub fn validate(&self) -> Result<(), String> {
        let total = self.probs.len();
        if self.coords.len() != total * self.dim || self.objects.len() != total {
            return Err("column lengths disagree".into());
        }
        let mut live_seen = 0;
        let mut listed = vec![false; total];
        for (object, rows) in self.object_rows.iter().enumerate() {
            if self.object_retired[object] && !rows.is_empty() {
                return Err(format!("retired object {object} still owns rows"));
            }
            for &r in rows {
                let row = r as usize;
                if std::mem::replace(&mut listed[row], true) {
                    return Err(format!("row {row} is listed twice"));
                }
                if !self.alive[row] {
                    return Err(format!("object {object} lists tombstoned row {row}"));
                }
                if self.objects[row] as usize != object {
                    return Err(format!("row {row} is mis-assigned"));
                }
                if self.handle_to_row[self.row_to_handle[row] as usize] != r {
                    return Err(format!("handle round-trip broken for row {row}"));
                }
                live_seen += 1;
            }
            let prob = self.live_total_prob(object);
            if prob > 1.0 + 1e-6 {
                return Err(format!("object {object} has total probability {prob}"));
            }
        }
        if live_seen != self.num_live_instances()
            || self.alive.iter().filter(|&&a| !a).count() != self.dead_rows
        {
            return Err("live-row accounting disagrees with the tombstone bitmap".into());
        }
        for (handle, &r) in self.handle_to_row.iter().enumerate() {
            if r == NO_ROW {
                continue;
            }
            let row = r as usize;
            if row >= total || !self.alive[row] || self.row_to_handle[row] as usize != handle {
                return Err(format!("handle {handle} does not name its live row {row}"));
            }
        }
        Ok(())
    }

    // ---- state serialisation ---------------------------------------------

    /// Serialises the complete store state — every column, map and counter,
    /// floats as IEEE-754 bit patterns — such that
    /// [`decode_state`](Self::decode_state) reconstructs a store
    /// indistinguishable from this one (same version, epoch, rows, handles).
    /// Two stores encode identically **iff** they are bitwise-equal, so the
    /// byte string doubles as an equality witness in the crash-recovery
    /// tests. The snapshot layer (`crate::persist`) wraps this payload in a
    /// checksummed frame.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        push_u64(&mut out, self.dim as u64);
        push_u64(&mut out, self.version);
        push_u64(&mut out, self.epoch);
        push_u64(&mut out, self.base_rows as u64);
        push_u64(&mut out, self.dead_rows as u64);
        push_u64(&mut out, self.coords.len() as u64);
        for &c in &self.coords {
            push_u64(&mut out, c.to_bits());
        }
        push_u64(&mut out, self.probs.len() as u64);
        for &p in &self.probs {
            push_u64(&mut out, p.to_bits());
        }
        push_u64(&mut out, self.objects.len() as u64);
        for &o in &self.objects {
            out.extend_from_slice(&o.to_le_bytes());
        }
        push_u64(&mut out, self.alive.len() as u64);
        out.extend(self.alive.iter().map(|&a| a as u8));
        push_u64(&mut out, self.object_rows.len() as u64);
        for rows in &self.object_rows {
            push_u64(&mut out, rows.len() as u64);
            for &r in rows {
                out.extend_from_slice(&r.to_le_bytes());
            }
        }
        push_u64(&mut out, self.object_retired.len() as u64);
        out.extend(self.object_retired.iter().map(|&r| r as u8));
        push_u64(&mut out, self.object_labels.len() as u64);
        for label in &self.object_labels {
            match label {
                None => out.push(0),
                Some(text) => {
                    out.push(1);
                    push_u64(&mut out, text.len() as u64);
                    out.extend_from_slice(text.as_bytes());
                }
            }
        }
        push_u64(&mut out, self.handle_to_row.len() as u64);
        for &h in &self.handle_to_row {
            out.extend_from_slice(&h.to_le_bytes());
        }
        push_u64(&mut out, self.row_to_handle.len() as u64);
        for &h in &self.row_to_handle {
            out.extend_from_slice(&h.to_le_bytes());
        }
        out
    }

    /// Reconstructs a store from [`encode_state`](Self::encode_state) bytes.
    /// Returns a description of the first structural problem found — a
    /// truncated or corrupted payload never yields a half-built store.
    pub fn decode_state(bytes: &[u8]) -> Result<Self, String> {
        let mut cursor = StateCursor { bytes, at: 0 };
        let dim = cursor.u64()? as usize;
        if dim == 0 {
            return Err("state declares a zero-dimensional store".into());
        }
        let version = cursor.u64()?;
        let epoch = cursor.u64()?;
        let base_rows = cursor.u64()? as usize;
        let dead_rows = cursor.u64()? as usize;
        let n_coords = cursor.len_prefix()?;
        let mut coords = Vec::with_capacity(n_coords);
        for _ in 0..n_coords {
            coords.push(f64::from_bits(cursor.u64()?));
        }
        let n_probs = cursor.len_prefix()?;
        let mut probs = Vec::with_capacity(n_probs);
        for _ in 0..n_probs {
            probs.push(f64::from_bits(cursor.u64()?));
        }
        let n_objects = cursor.len_prefix()?;
        let mut objects = Vec::with_capacity(n_objects);
        for _ in 0..n_objects {
            objects.push(cursor.u32()?);
        }
        let n_alive = cursor.len_prefix()?;
        let mut alive = Vec::with_capacity(n_alive);
        for _ in 0..n_alive {
            alive.push(cursor.u8()? != 0);
        }
        let n_object_rows = cursor.len_prefix()?;
        let mut object_rows = Vec::with_capacity(n_object_rows);
        for _ in 0..n_object_rows {
            let n_rows = cursor.len_prefix()?;
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                rows.push(cursor.u32()?);
            }
            object_rows.push(rows);
        }
        let n_retired = cursor.len_prefix()?;
        let mut object_retired = Vec::with_capacity(n_retired);
        for _ in 0..n_retired {
            object_retired.push(cursor.u8()? != 0);
        }
        let n_labels = cursor.len_prefix()?;
        let mut object_labels = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            object_labels.push(match cursor.u8()? {
                0 => None,
                1 => {
                    let len = cursor.len_prefix()?;
                    let raw = cursor.take(len)?;
                    Some(
                        String::from_utf8(raw.to_vec())
                            .map_err(|_| "label is not valid UTF-8".to_string())?,
                    )
                }
                other => return Err(format!("bad label tag {other}")),
            });
        }
        let n_handles = cursor.len_prefix()?;
        let mut handle_to_row = Vec::with_capacity(n_handles);
        for _ in 0..n_handles {
            handle_to_row.push(cursor.u32()?);
        }
        let n_row_handles = cursor.len_prefix()?;
        let mut row_to_handle = Vec::with_capacity(n_row_handles);
        for _ in 0..n_row_handles {
            row_to_handle.push(cursor.u32()?);
        }
        if cursor.at != bytes.len() {
            return Err(format!(
                "{} trailing bytes after the store state",
                bytes.len() - cursor.at
            ));
        }
        // Index-validity checks up front, so `validate()` (and every later
        // accessor) can index without panicking on a corrupt payload.
        let total = probs.len();
        if objects.len() != total
            || alive.len() != total
            || row_to_handle.len() != total
            || total.checked_mul(dim) != Some(coords.len())
        {
            return Err("column lengths disagree".into());
        }
        if base_rows > total || dead_rows > total {
            return Err("row counters exceed the physical row count".into());
        }
        if object_retired.len() != object_rows.len() || object_labels.len() != object_rows.len() {
            return Err("object column lengths disagree".into());
        }
        if object_rows.iter().flatten().any(|&r| r as usize >= total) {
            return Err("object lists a row beyond the store".into());
        }
        if row_to_handle
            .iter()
            .any(|&h| h as usize >= handle_to_row.len())
        {
            return Err("row names a handle slot beyond the table".into());
        }
        if handle_to_row
            .iter()
            .any(|&r| r != NO_ROW && r as usize >= total)
        {
            return Err("handle names a row beyond the store".into());
        }
        let store = Self {
            dim,
            coords,
            probs,
            objects,
            alive,
            base_rows,
            dead_rows,
            object_rows,
            object_retired,
            object_labels,
            handle_to_row,
            row_to_handle,
            version,
            epoch,
        };
        store.validate()?;
        Ok(store)
    }

    // ---- internals --------------------------------------------------------

    fn push_object_slot(&mut self, label: Option<String>) -> usize {
        self.object_rows.push(Vec::new());
        self.object_retired.push(false);
        self.object_labels.push(label);
        self.object_rows.len() - 1
    }

    /// Appends one physical row and allocates a fresh handle for it.
    fn push_row(&mut self, object: usize, coords: &[f64], prob: f64) -> InstanceHandle {
        let handle = InstanceHandle(self.handle_to_row.len() as u32);
        let row = self.push_row_raw(object, coords, prob, handle.0);
        self.handle_to_row.push(row);
        handle
    }

    /// Appends one physical row under an existing or about-to-exist handle
    /// slot; the caller wires up `handle_to_row`. Returns the new row id.
    fn push_row_raw(&mut self, object: usize, coords: &[f64], prob: f64, handle_slot: u32) -> u32 {
        assert_eq!(coords.len(), self.dim, "instance dimensionality mismatch");
        assert!(
            prob > 0.0 && prob <= MAX_INSTANCE_PROB,
            "instance probabilities must lie in (0, 1]"
        );
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "non-finite coordinate"
        );
        let row = self.probs.len() as u32;
        self.coords.extend_from_slice(coords);
        self.probs.push(prob);
        self.objects.push(object as u32);
        self.alive.push(true);
        self.object_rows[object].push(row);
        self.row_to_handle.push(handle_slot);
        row
    }

    /// Tombstones the row a handle names.
    fn kill(&mut self, handle: InstanceHandle) {
        let row = self.handle_to_row[handle.index()];
        assert!(row != NO_ROW, "handle names a removed instance");
        let object = self.objects[row as usize] as usize;
        let position = self.object_rows[object]
            .iter()
            .position(|&r| r == row)
            .expect("live rows are listed by their object");
        self.object_rows[object].remove(position);
        self.alive[row as usize] = false;
        self.handle_to_row[handle.index()] = NO_ROW;
        self.dead_rows += 1;
    }
}

/// Bounds-checked little-endian reader over an
/// [`encode_state`](VersionedStore::encode_state) payload.
struct StateCursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl StateCursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("state truncated at byte {}", self.at))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// A length prefix, sanity-bounded by the bytes actually remaining so a
    /// corrupt length can never trigger a huge allocation.
    fn len_prefix(&mut self) -> Result<usize, String> {
        let len = self.u64()? as usize;
        if len > self.bytes.len() - self.at {
            return Err(format!("length prefix {len} exceeds the payload"));
        }
        Ok(len)
    }
}

/// Splits `0..num_objects` into `num_shards` contiguous object-id ranges,
/// as balanced as possible (the first `num_objects % num_shards` ranges get
/// one extra object). Ranges tile the id space in order: concatenating the
/// per-range slices in shard order reproduces the original object order,
/// which is what makes a sharded engine's union dataset bitwise equal to
/// the unsharded one. Trailing ranges may be empty when there are fewer
/// objects than shards.
///
/// # Panics
/// Panics if `num_shards` is zero.
pub fn shard_ranges(num_objects: usize, num_shards: usize) -> Vec<std::ops::Range<usize>> {
    assert!(num_shards >= 1, "a cluster needs at least one shard");
    let base = num_objects / num_shards;
    let extra = num_objects % num_shards;
    let mut ranges = Vec::with_capacity(num_shards);
    let mut start = 0;
    for shard in 0..num_shards {
        let len = base + usize::from(shard < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// The shard owning `object` under [`shard_ranges`] partitioning — the
/// write-routing inverse of the range table.
///
/// # Panics
/// Panics if `object >= num_objects` or `num_shards` is zero.
pub fn shard_of_object(object: usize, num_objects: usize, num_shards: usize) -> usize {
    assert!(object < num_objects, "object id out of range");
    let base = num_objects / num_shards;
    let extra = num_objects % num_shards;
    let fat = extra * (base + 1);
    if object < fat {
        object / (base + 1)
    } else {
        extra + (object - fat) / base.max(1)
    }
}

/// Slices `dataset` into per-shard datasets along [`shard_ranges`], labels
/// preserved. Pushing each slice's objects in range order means shard-order
/// concatenation of the slices is exactly `dataset` again — the invariant
/// the cross-shard merge's bitwise-agreement contract rests on.
pub fn partition_dataset(dataset: &UncertainDataset, num_shards: usize) -> Vec<UncertainDataset> {
    shard_ranges(dataset.num_objects(), num_shards)
        .into_iter()
        .map(|range| {
            let mut shard = UncertainDataset::new(dataset.dim());
            for object in range {
                let meta = dataset.object(object);
                let instances = dataset
                    .object_instances(object)
                    .map(|inst| (inst.coords.clone(), inst.prob))
                    .collect();
                shard.push_labeled_object(meta.label.clone(), instances);
            }
            shard
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_running_example;

    fn flat_bits(flat: &FlatStore) -> (usize, Vec<u64>, Vec<u64>, Vec<u32>) {
        (
            flat.dim(),
            flat.coords().iter().map(|c| c.to_bits()).collect(),
            flat.probs().iter().map(|p| p.to_bits()).collect(),
            flat.objects().to_vec(),
        )
    }

    /// The store's one agreement obligation: `snapshot_flat` is bitwise the
    /// flat store a cold build would produce.
    fn assert_snapshot_consistent(store: &VersionedStore) {
        store.validate().expect("store invariants");
        let dataset = store.snapshot_dataset();
        dataset.validate().expect("snapshot dataset invariants");
        let direct = store.snapshot_flat();
        let via_dataset = FlatStore::from_dataset(&dataset);
        assert_eq!(flat_bits(&direct), flat_bits(&via_dataset));
        assert_eq!(direct.num_objects(), via_dataset.num_objects());
        assert_eq!(store.canonical_rows().count(), store.num_live_instances());
    }

    #[test]
    fn seed_store_mirrors_the_dataset() {
        let d = paper_running_example();
        let store = VersionedStore::from_dataset(&d);
        assert_eq!(store.version(), 0);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.num_live_instances(), d.num_instances());
        assert_eq!(store.num_live_objects(), d.num_objects());
        assert_eq!(store.delta_rows(), 0);
        assert_eq!(store.pending_rows(), 0);
        assert_snapshot_consistent(&store);
        for inst in d.instances() {
            assert_eq!(store.coords_of(inst.id), inst.coords.as_slice());
            assert_eq!(store.prob(inst.id).to_bits(), inst.prob.to_bits());
            assert_eq!(store.object_of(inst.id), inst.object);
        }
    }

    /// Paper-example shape but with probability slack so inserts fit the
    /// per-object budget.
    fn slack_store() -> VersionedStore {
        let mut d = UncertainDataset::new(2);
        d.push_object(vec![(vec![2.0, 9.0], 0.4), (vec![12.0, 14.0], 0.4)]);
        d.push_object(vec![
            (vec![3.0, 4.0], 0.3),
            (vec![8.0, 3.0], 0.3),
            (vec![9.0, 12.0], 0.3),
        ]);
        d.push_object(vec![(vec![1.0, 8.0], 0.5)]);
        d.push_object(vec![(vec![7.0, 15.0], 0.45), (vec![13.0, 6.0], 0.45)]);
        VersionedStore::from_dataset(&d)
    }

    #[test]
    fn mutations_bump_the_version_and_keep_snapshots_canonical() {
        let mut store = slack_store();
        let h = store.insert_instance(0, &[1.5, 1.5], 0.0001);
        assert_eq!(store.version(), 1);
        assert_eq!(store.delta_rows(), 1);
        assert_snapshot_consistent(&store);

        // The appended instance sits at its object's logical tail: object 0
        // had snapshot ids {0, 1}, the new row is snapshot id 2.
        let snap = store.snapshot_dataset();
        assert_eq!(snap.object(0).num_instances(), 3);
        assert_eq!(snap.instance(2).coords, vec![1.5, 1.5]);

        store.remove_instance(h);
        assert_eq!(store.version(), 2);
        assert_eq!(store.row_of(h), None);
        assert_eq!(store.dead_rows(), 1);
        assert_snapshot_consistent(&store);
        assert_eq!(store.snapshot_dataset().object(0).num_instances(), 2);
    }

    #[test]
    fn overwrite_keeps_the_handle_and_moves_to_the_tail() {
        let mut store = VersionedStore::from_dataset(&paper_running_example());
        let h = store.handle_of_row(2); // first instance of T2
        store.update_instance(h, &[2.5, 3.5], 0.25);
        let row = store.row_of(h).expect("handle survives overwrites");
        assert_eq!(store.coords_of(row), &[2.5, 3.5]);
        assert_eq!(store.prob(row), 0.25);
        assert_eq!(store.object_of(row), 1);
        // Logical tail: T2's canonical order is now (t2,2), (t2,3), revised.
        assert_eq!(store.object_rows(1).last().copied(), Some(row as u32));
        assert_snapshot_consistent(&store);
    }

    #[test]
    fn retire_object_drops_it_from_the_snapshot() {
        let mut store = VersionedStore::from_dataset(&paper_running_example());
        store.retire_object(1);
        assert!(store.is_retired(1));
        assert_eq!(store.num_live_objects(), 3);
        assert_eq!(store.snapshot_object_id(1), None);
        // Later objects compact down in the snapshot.
        assert_eq!(store.snapshot_object_id(2), Some(1));
        assert_snapshot_consistent(&store);
        let snap = store.snapshot_dataset();
        assert_eq!(snap.num_objects(), 3);
        assert_eq!(snap.num_instances(), 7);
    }

    #[test]
    fn merge_compacts_without_changing_the_logical_content() {
        let mut store = slack_store();
        let h_new = store.insert_instance(3, &[6.0, 6.0], 0.0001);
        let h_old = store.handle_of_row(0);
        store.remove_instance(store.handle_of_row(1));
        let before = flat_bits(&store.snapshot_flat());
        let before_version = store.version();

        let remap = store.merge();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.version(), before_version, "merges are physical only");
        assert_eq!(store.delta_rows(), 0);
        assert_eq!(store.dead_rows(), 0);
        assert_eq!(store.pending_rows(), 0);
        assert_eq!(remap[1], u32::MAX, "dropped rows map to the sentinel");
        assert_eq!(flat_bits(&store.snapshot_flat()), before);
        assert_snapshot_consistent(&store);

        // Handles survive the row renumbering.
        let row = store.row_of(h_new).expect("handle survives merges");
        assert_eq!(store.coords_of(row), &[6.0, 6.0]);
        assert_eq!(store.row_of(h_old), Some(0));

        // And the store keeps working after the merge.
        let h2 = store.insert_instance(0, &[9.0, 9.0], 0.0001);
        assert_eq!(store.delta_rows(), 1);
        store.remove_instance(h2);
        assert_snapshot_consistent(&store);
    }

    #[test]
    fn empty_and_reborn_objects() {
        let mut store = VersionedStore::new(2);
        let a = store.insert_object(Some("a".into()), vec![(vec![0.1, 0.2], 0.5)]);
        let b = store.insert_object(None, vec![(vec![0.3, 0.4], 1.0)]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.object_label(0), Some("a"));

        // Emptying an object removes it from the snapshot but does not
        // retire it: it can gain instances again.
        let h = store.handle_of_row(0);
        store.remove_instance(h);
        assert_eq!(store.num_live_objects(), 1);
        assert_eq!(store.snapshot_object_id(0), None);
        assert_snapshot_consistent(&store);
        let _ = store.insert_instance(a, &[0.5, 0.5], 0.7);
        assert_eq!(store.num_live_objects(), 2);
        assert_snapshot_consistent(&store);
    }

    #[test]
    #[should_panic]
    fn insert_on_retired_object_panics() {
        let mut store = VersionedStore::new(2);
        let a = store.insert_object(None, vec![(vec![0.1, 0.2], 0.5)]);
        store.retire_object(a);
        let _ = store.insert_instance(a, &[0.3, 0.3], 0.1);
    }

    #[test]
    #[should_panic]
    fn probability_budget_is_enforced_across_mutations() {
        let mut store = VersionedStore::new(2);
        let a = store.insert_object(None, vec![(vec![0.1, 0.2], 0.7)]);
        let _ = store.insert_instance(a, &[0.3, 0.3], 0.5);
    }

    #[test]
    #[should_panic]
    fn double_remove_panics() {
        let mut store = VersionedStore::new(2);
        let a = store.insert_object(None, vec![(vec![0.1, 0.2], 0.5)]);
        let h = store.handle_of_row(store.object_rows(a)[0] as usize);
        store.remove_instance(h);
        store.remove_instance(h);
    }

    #[test]
    fn update_budget_excludes_the_replaced_row() {
        let mut store = VersionedStore::new(2);
        let a = store.insert_object(None, vec![(vec![0.1, 0.2], 0.9)]);
        let h = store.handle_of_row(store.object_rows(a)[0] as usize);
        // 0.9 → 0.95 is fine because the old mass is released first.
        store.update_instance(h, &[0.1, 0.2], 0.95);
        assert!((store.live_total_prob(a) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn state_roundtrips_bitwise_through_encode_decode() {
        let mut store = slack_store();
        let h = store.insert_instance(0, &[1.5, 1.5], 0.0001);
        store.update_instance(h, &[1.25, 1.75], 0.0002);
        store.remove_instance(store.handle_of_row(1));
        store.retire_object(2);
        store.merge();
        let _ = store.insert_instance(0, &[9.0, 9.0], 0.0001);

        let bytes = store.encode_state();
        let decoded = VersionedStore::decode_state(&bytes).expect("state decodes");
        assert_eq!(decoded.encode_state(), bytes, "round-trip is bitwise");
        assert_eq!(decoded.version(), store.version());
        assert_eq!(decoded.epoch(), store.epoch());
        assert_eq!(
            flat_bits(&decoded.snapshot_flat()),
            flat_bits(&store.snapshot_flat())
        );
        // The decoded store is fully operational: handles keep working.
        assert_eq!(decoded.row_of(h), store.row_of(h));
    }

    #[test]
    fn truncated_or_corrupt_state_is_rejected_not_panicked() {
        let store = slack_store();
        let bytes = store.encode_state();
        for cut in [0, 1, 7, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                VersionedStore::decode_state(&bytes[..cut]).is_err(),
                "truncation at {cut} must be detected"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(VersionedStore::decode_state(&trailing).is_err());
    }

    #[test]
    fn inconsistent_row_bookkeeping_is_rejected() {
        // Each corruption keeps every index in range, so only the
        // cross-column checks can catch it; a store that passed with it
        // would panic later, on the first remove or merge that trusts it.
        let mut store = slack_store();
        store.remove_instance(store.handle_of_row(1));
        let corruptions: [fn(&mut VersionedStore); 4] = [
            // A live row listed twice, another live row not at all.
            |s| s.object_rows[1][1] = s.object_rows[1][0],
            // A tombstoned row revived but listed nowhere.
            |s| s.alive[1] = true,
            // A removed handle naming another handle's live row.
            |s| s.handle_to_row[1] = 2,
            // A removed handle naming its tombstoned row.
            |s| s.handle_to_row[1] = 1,
        ];
        for corrupt in corruptions {
            let mut bad = store.clone();
            corrupt(&mut bad);
            assert!(bad.validate().is_err());
            assert!(VersionedStore::decode_state(&bad.encode_state()).is_err());
        }
    }

    #[test]
    fn shard_ranges_tile_the_id_space_evenly() {
        for num_objects in 0..40 {
            for num_shards in 1..9 {
                let ranges = shard_ranges(num_objects, num_shards);
                assert_eq!(ranges.len(), num_shards);
                let mut next = 0;
                for range in &ranges {
                    assert_eq!(range.start, next, "ranges must tile contiguously");
                    next = range.end;
                }
                assert_eq!(next, num_objects, "ranges must cover every object");
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().copied(), sizes.iter().max().copied());
                assert!(
                    max.unwrap_or(0) - min.unwrap_or(0) <= 1,
                    "ranges must be balanced within one object"
                );
                for range in &ranges {
                    for object in range.clone() {
                        let shard = shard_of_object(object, num_objects, num_shards);
                        assert!(
                            ranges[shard].contains(&object),
                            "shard_of_object must invert shard_ranges"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partitioned_datasets_concatenate_back_bitwise() {
        let dataset = paper_running_example();
        for num_shards in [1, 2, 3, 7, 11] {
            let parts = partition_dataset(&dataset, num_shards);
            assert_eq!(parts.len(), num_shards);
            let mut union = UncertainDataset::new(dataset.dim());
            for part in &parts {
                for object in 0..part.num_objects() {
                    union.push_labeled_object(
                        part.object(object).label.clone(),
                        part.object_instances(object)
                            .map(|inst| (inst.coords.clone(), inst.prob))
                            .collect(),
                    );
                }
            }
            assert_eq!(
                flat_bits(&FlatStore::from_dataset(&union)),
                flat_bits(&FlatStore::from_dataset(&dataset)),
                "shard-order concatenation must reproduce the dataset"
            );
        }
    }
}
