//! Crash-consistent persistence for [`VersionedStore`]: a checksummed
//! write-ahead log of mutation batches plus atomic snapshots.
//!
//! [`DurableStore`] wraps a [`VersionedStore`] with a simple, provable
//! durability contract:
//!
//! * **Check-then-log** — [`DurableStore::apply_batch`] runs the batch
//!   through [`apply_checked`], the loop replay runs, then appends one
//!   length-prefixed, CRC-32-guarded record to `wal.log` and syncs it. A
//!   rejected batch is never logged, a failed append (injected or real I/O
//!   error) is cut off the file, and either way the store is reloaded from
//!   the directory, so memory and disk never drift apart on the error path.
//! * **Atomic snapshots** — [`DurableStore::checkpoint`] serialises the
//!   full store state ([`VersionedStore::encode_state`]) into
//!   `snapshot.tmp`, syncs, renames over `snapshot.bin` (atomic on POSIX),
//!   fsyncs the parent directory so the rename itself survives power loss,
//!   and then truncates the WAL. A crash at any point leaves either the
//!   old snapshot or the new one — never a torn snapshot.
//! * **Recovery** — [`DurableStore::open`] loads the last snapshot,
//!   truncates any torn WAL tail (a record whose length or checksum does
//!   not hold), replays the intact records that postdate the snapshot, and
//!   skips the ones it already contains (each record carries the store
//!   version and epoch it was logged at, making replay idempotent). The
//!   recovered store is bitwise equal — [`VersionedStore::encode_state`]
//!   equal — to the store after *some prefix* of the submitted batches,
//!   which is exactly what the crash-recovery suite asserts for a kill at
//!   every registered fail-point site.
//!
//! Every point on the write path where a crash or I/O failure is
//! interesting is a named [`crate::failpoint`] site, so the test suite can
//! kill the path deterministically at each one.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::failpoint;
use crate::versioned::{InstanceHandle, VersionedStore, MAX_INSTANCE_PROB, MAX_OBJECT_PROB};

/// Magic prefix of `snapshot.bin` (version 1 of the format).
const SNAPSHOT_MAGIC: &[u8; 8] = b"ARSPSNP1";

/// One logged mutation, mirroring the [`VersionedStore`] write API. A batch
/// of these is the unit of durability: either the whole batch survives a
/// crash or none of it does. Replaying a batch on the store it was logged
/// against reproduces the original mutations exactly (handle allocation is
/// deterministic, so logged handle indices stay valid).
#[derive(Clone, Debug, PartialEq)]
pub enum MutationOp {
    /// [`VersionedStore::insert_object`].
    InsertObject {
        /// Optional object label.
        label: Option<String>,
        /// Initial instances as `(coords, prob)` pairs.
        instances: Vec<(Vec<f64>, f64)>,
    },
    /// [`VersionedStore::insert_instance`].
    InsertInstance {
        /// Target store object id.
        object: u64,
        /// Instance coordinates.
        coords: Vec<f64>,
        /// Existence probability.
        prob: f64,
    },
    /// [`VersionedStore::update_instance`].
    UpdateInstance {
        /// The handle's slot index ([`InstanceHandle::index`]).
        handle: u64,
        /// Replacement coordinates.
        coords: Vec<f64>,
        /// Replacement probability.
        prob: f64,
    },
    /// [`VersionedStore::remove_instance`].
    RemoveInstance {
        /// The handle's slot index.
        handle: u64,
    },
    /// [`VersionedStore::retire_object`].
    RetireObject {
        /// Store object id to retire.
        object: u64,
    },
    /// [`VersionedStore::merge`] — physical compaction, logged so replay
    /// reproduces row ids (and therefore the bitwise store state) exactly.
    Merge,
}

impl MutationOp {
    /// Applies this op to a store, discarding the API's return value (replay
    /// needs only the state transition; handles are re-derived by index).
    pub fn apply_to(&self, store: &mut VersionedStore) {
        match self {
            MutationOp::InsertObject { label, instances } => {
                store.insert_object(label.clone(), instances.clone());
            }
            MutationOp::InsertInstance {
                object,
                coords,
                prob,
            } => {
                store.insert_instance(*object as usize, coords, *prob);
            }
            MutationOp::UpdateInstance {
                handle,
                coords,
                prob,
            } => {
                store.update_instance(InstanceHandle::from_index(*handle as usize), coords, *prob);
            }
            MutationOp::RemoveInstance { handle } => {
                store.remove_instance(InstanceHandle::from_index(*handle as usize));
            }
            MutationOp::RetireObject { object } => store.retire_object(*object as usize),
            MutationOp::Merge => {
                store.merge();
            }
        }
    }

    /// Checks that [`apply_to`](Self::apply_to) would not panic on `store`:
    /// the handle or object it names is live, its coordinates match the
    /// store's dimension and are finite, each probability lies in `(0, 1]`
    /// and the object's total stays within one. A checksum proves only that
    /// logged bytes are the ones written, and a caller's batch proves
    /// nothing, so every op passes here before it is applied.
    fn validate(&self, store: &VersionedStore) -> Result<(), String> {
        match self {
            MutationOp::InsertObject { instances, .. } => {
                if instances.is_empty() {
                    return Err("object inserted without instances".into());
                }
                for (coords, prob) in instances {
                    check_instance(store, coords, *prob)?;
                }
                check_budget(instances.iter().map(|(_, p)| p).sum())
            }
            MutationOp::InsertInstance {
                object,
                coords,
                prob,
            } => {
                let object = live_object(store, *object)?;
                check_instance(store, coords, *prob)?;
                check_budget(store.live_total_prob(object) + prob)
            }
            MutationOp::UpdateInstance {
                handle,
                coords,
                prob,
            } => {
                let row = live_row(store, *handle)?;
                check_instance(store, coords, *prob)?;
                let object = store.object_of(row);
                check_budget(store.live_total_prob(object) - store.prob(row) + prob)
            }
            MutationOp::RemoveInstance { handle } => live_row(store, *handle).map(drop),
            MutationOp::RetireObject { object } => live_object(store, *object).map(drop),
            MutationOp::Merge => Ok(()),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            MutationOp::InsertObject { label, instances } => {
                out.push(0);
                match label {
                    None => out.push(0),
                    Some(text) => {
                        out.push(1);
                        out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                        out.extend_from_slice(text.as_bytes());
                    }
                }
                out.extend_from_slice(&(instances.len() as u32).to_le_bytes());
                for (coords, prob) in instances {
                    encode_coords(out, coords);
                    out.extend_from_slice(&prob.to_bits().to_le_bytes());
                }
            }
            MutationOp::InsertInstance {
                object,
                coords,
                prob,
            } => {
                out.push(1);
                out.extend_from_slice(&object.to_le_bytes());
                encode_coords(out, coords);
                out.extend_from_slice(&prob.to_bits().to_le_bytes());
            }
            MutationOp::UpdateInstance {
                handle,
                coords,
                prob,
            } => {
                out.push(2);
                out.extend_from_slice(&handle.to_le_bytes());
                encode_coords(out, coords);
                out.extend_from_slice(&prob.to_bits().to_le_bytes());
            }
            MutationOp::RemoveInstance { handle } => {
                out.push(3);
                out.extend_from_slice(&handle.to_le_bytes());
            }
            MutationOp::RetireObject { object } => {
                out.push(4);
                out.extend_from_slice(&object.to_le_bytes());
            }
            MutationOp::Merge => out.push(5),
        }
    }

    fn decode_from(cursor: &mut WalCursor<'_>) -> io::Result<Self> {
        Ok(match cursor.u8()? {
            0 => {
                let label = match cursor.u8()? {
                    0 => None,
                    1 => {
                        let len = cursor.u32()? as usize;
                        let raw = cursor.take(len)?;
                        Some(String::from_utf8(raw.to_vec()).map_err(|_| {
                            io::Error::new(io::ErrorKind::InvalidData, "label is not UTF-8")
                        })?)
                    }
                    other => return Err(bad_data(format!("bad label tag {other}"))),
                };
                let n = cursor.u32()? as usize;
                // Each instance encodes to at least a coords length and a
                // probability, so a lying count cannot over-allocate.
                let mut instances = Vec::with_capacity(n.min(cursor.remaining() / 12));
                for _ in 0..n {
                    let coords = decode_coords(cursor)?;
                    instances.push((coords, f64::from_bits(cursor.u64()?)));
                }
                MutationOp::InsertObject { label, instances }
            }
            1 => MutationOp::InsertInstance {
                object: cursor.u64()?,
                coords: decode_coords(cursor)?,
                prob: f64::from_bits(cursor.u64()?),
            },
            2 => MutationOp::UpdateInstance {
                handle: cursor.u64()?,
                coords: decode_coords(cursor)?,
                prob: f64::from_bits(cursor.u64()?),
            },
            3 => MutationOp::RemoveInstance {
                handle: cursor.u64()?,
            },
            4 => MutationOp::RetireObject {
                object: cursor.u64()?,
            },
            5 => MutationOp::Merge,
            other => return Err(bad_data(format!("bad mutation tag {other}"))),
        })
    }
}

fn encode_coords(out: &mut Vec<u8>, coords: &[f64]) {
    out.extend_from_slice(&(coords.len() as u32).to_le_bytes());
    for &c in coords {
        out.extend_from_slice(&c.to_bits().to_le_bytes());
    }
}

fn decode_coords(cursor: &mut WalCursor<'_>) -> io::Result<Vec<f64>> {
    let n = cursor.u32()? as usize;
    let mut coords = Vec::with_capacity(n.min(cursor.remaining() / 8));
    for _ in 0..n {
        coords.push(f64::from_bits(cursor.u64()?));
    }
    Ok(coords)
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// The one path a mutation batch takes into a store, shared by WAL replay,
/// [`DurableStore::apply_batch`] and a shard's serving engine: op by op,
/// validate against the store (`store` reads it out of `target`), then
/// `apply`, so a later op may name what an earlier one created.
///
/// # Errors
/// The first rejected op's index and why; the ops before it stay applied.
pub fn apply_checked<T: ?Sized>(
    target: &mut T,
    ops: &[MutationOp],
    store: impl Fn(&T) -> &VersionedStore,
    mut apply: impl FnMut(&mut T, &MutationOp),
) -> Result<(), String> {
    for (i, op) in ops.iter().enumerate() {
        op.validate(store(target))
            .map_err(|reason| format!("op {i} rejected: {reason}"))?;
        apply(target, op);
    }
    Ok(())
}

/// The store object id an op names, if it exists and is not retired.
fn live_object(store: &VersionedStore, object: u64) -> Result<usize, String> {
    match usize::try_from(object) {
        Ok(id) if id < store.num_objects() && !store.is_retired(id) => Ok(id),
        _ => Err(format!("op names unknown or retired object {object}")),
    }
}

/// The row an op's handle names, if the handle is live.
fn live_row(store: &VersionedStore, handle: u64) -> Result<usize, String> {
    u32::try_from(handle)
        .ok()
        .and_then(|index| store.row_of(InstanceHandle::from_index(index as usize)))
        .ok_or_else(|| format!("op names dead handle {handle}"))
}

fn check_instance(store: &VersionedStore, coords: &[f64], prob: f64) -> Result<(), String> {
    if coords.len() != store.dim() {
        return Err(format!(
            "{}-d instance in a {}-d store",
            coords.len(),
            store.dim()
        ));
    }
    if !coords.iter().all(|c| c.is_finite()) {
        return Err("non-finite coordinate".into());
    }
    if !(prob > 0.0 && prob <= MAX_INSTANCE_PROB) {
        return Err(format!("instance probability {prob} outside (0, 1]"));
    }
    Ok(())
}

fn check_budget(total: f64) -> Result<(), String> {
    if total <= MAX_OBJECT_PROB {
        Ok(())
    } else {
        Err(format!("object total probability would reach {total}"))
    }
}

/// Bounds-checked reader over one WAL record payload.
struct WalCursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl WalCursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        if n > self.remaining() {
            return Err(bad_data("record payload truncated".into()));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables (Kounavis & Berry, 2005), built at compile time.
/// `CRC32_TABLES[0][b]` is the classic byte-at-a-time table; each further
/// table `k` pushes table `k - 1`'s entry through one more zero byte, so
/// `CRC32_TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes. That lets one step fold eight input bytes independently.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected) — the WAL's and snapshot's
/// integrity check. Table-driven slicing-by-8: eight bytes per step through
/// eight compile-time tables, then byte-at-a-time over the tail. The values
/// are the standard CRC-32 ones, so files written by any conforming
/// implementation verify.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes")) ^ u64::from(crc);
        let b = word.to_le_bytes();
        crc = t[7][b[0] as usize]
            ^ t[6][b[1] as usize]
            ^ t[5][b[2] as usize]
            ^ t[4][b[3] as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// What [`DurableStore::open`] found and did while recovering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records replayed onto the snapshot.
    pub records_replayed: u64,
    /// WAL records skipped because the snapshot already contained them
    /// (a crash between snapshot rename and WAL reset leaves such records).
    pub records_skipped: u64,
    /// Bytes of torn WAL tail truncated (an interrupted append).
    pub torn_bytes: u64,
    /// The store version after recovery.
    pub recovered_version: u64,
}

/// A [`VersionedStore`] with crash-consistent persistence — see the
/// [module docs](self) for the durability contract.
#[derive(Debug)]
pub struct DurableStore {
    store: VersionedStore,
    wal: File,
    wal_len: u64,
    dir: PathBuf,
}

impl DurableStore {
    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.bin")
    }

    /// Creates a durable store at `dir` (created if absent) seeded with
    /// `store`: writes the initial snapshot and an empty WAL. Fails if the
    /// directory already holds a store.
    pub fn create(dir: impl AsRef<Path>, store: VersionedStore) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if Self::snapshot_path(&dir).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "directory already holds a durable store",
            ));
        }
        write_snapshot(&dir, &store)?;
        let wal = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(Self::wal_path(&dir))?;
        wal.sync_data()?;
        Ok(Self {
            store,
            wal,
            wal_len: 0,
            dir,
        })
    }

    /// Opens and recovers the durable store at `dir`: loads the last
    /// snapshot, truncates any torn WAL tail, replays the intact records
    /// the snapshot predates. Returns the store and what recovery did.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();
        // A leftover snapshot.tmp is an interrupted checkpoint that never
        // reached the atomic rename — the live snapshot is intact; drop it.
        let tmp = dir.join("snapshot.tmp");
        if tmp.exists() {
            fs::remove_file(&tmp)?;
        }
        let mut store = read_snapshot(&dir)?;

        let wal_path = Self::wal_path(&dir);
        let bytes = match fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(err),
        };
        let mut report = RecoveryReport::default();
        let mut at = 0usize;
        loop {
            if bytes.len() - at < 8 {
                break; // clean end, or a tail shorter than a header
            }
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4")) as usize;
            let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4"));
            if bytes.len() - at - 8 < len {
                break; // torn payload
            }
            let payload = &bytes[at + 8..at + 8 + len];
            if crc32(payload) != crc {
                break; // interrupted write inside the payload
            }
            replay_record(&mut store, payload, &mut report)?;
            at += 8 + len;
        }
        report.torn_bytes = (bytes.len() - at) as u64;
        report.recovered_version = store.version();

        // Truncate the torn tail so future appends extend an intact log.
        // Keep the intact prefix: only the torn tail is cut, via `set_len`.
        let mut wal = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&wal_path)?;
        if report.torn_bytes > 0 {
            wal.set_len(at as u64)?;
            wal.sync_data()?;
        }
        wal.seek(SeekFrom::End(0))?;
        Ok((
            Self {
                store,
                wal,
                wal_len: at as u64,
                dir,
            },
            report,
        ))
    }

    /// The recovered / live store (read-only: mutations must go through
    /// [`apply_batch`](Self::apply_batch) to be durable).
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    /// Durably applies one mutation batch: every op passes
    /// [`apply_checked`] on the in-memory store before the batch is logged
    /// and synced, so the log never holds a batch replay would reject.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] for a rejected op, else the append's
    /// error (the log rolled back). Staged ops are undone by the recovery
    /// [`open`](Self::open) runs: memory and disk end as before the call.
    /// If the rollback or that reload fails too, the store may be left past
    /// its pre-call `(version, epoch)`, the batch in doubt: recover from
    /// the directory before trusting the store again.
    pub fn apply_batch(&mut self, ops: &[MutationOp]) -> io::Result<()> {
        let pre = (self.store.version(), self.store.epoch());
        let mut payload = Vec::new();
        payload.extend_from_slice(&pre.0.to_le_bytes());
        payload.extend_from_slice(&pre.1.to_le_bytes());
        payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
        for op in ops {
            op.encode_into(&mut payload);
        }
        let logged = match apply_checked(&mut self.store, ops, |s| s, |s, op| op.apply_to(s)) {
            Err(reason) => Err(io::Error::new(io::ErrorKind::InvalidInput, reason)),
            Ok(()) => self.append_record(&payload).or_else(|err| {
                // Roll the log back to its pre-append length; the injected
                // or real error then leaves no durable trace of the batch.
                self.wal.set_len(self.wal_len)?;
                self.wal.seek(SeekFrom::End(0))?;
                Err(err)
            }),
        };
        if let Err(err) = logged {
            if (self.store.version(), self.store.epoch()) != pre {
                *self = Self::open(&self.dir)
                    .map_err(|reload| {
                        io::Error::other(format!("{err}; reloading the store failed: {reload}"))
                    })?
                    .0;
            }
            return Err(err);
        }
        self.wal_len += 8 + payload.len() as u64;
        Ok(())
    }

    fn append_record(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        failpoint::hit("wal.append.header")?;
        self.wal.write_all(&header)?;
        // The payload lands in two writes with a kill point between them, so
        // the crash matrix covers a mid-payload tear as well as a
        // header-only tear.
        let mid = payload.len() / 2;
        self.wal.write_all(&payload[..mid])?;
        failpoint::hit("wal.append.payload")?;
        self.wal.write_all(&payload[mid..])?;
        failpoint::hit("wal.append.sync")?;
        self.wal.sync_data()?;
        Ok(())
    }

    /// Checkpoints: atomically replaces the snapshot with the current store
    /// state, then truncates the WAL. A crash anywhere inside leaves a
    /// recoverable directory (old snapshot + full WAL, or new snapshot +
    /// stale-but-skippable WAL).
    pub fn checkpoint(&mut self) -> io::Result<()> {
        write_snapshot(&self.dir, &self.store)?;
        failpoint::hit("wal.reset")?;
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.sync_data()?;
        self.wal_len = 0;
        Ok(())
    }
}

fn replay_record(
    store: &mut VersionedStore,
    payload: &[u8],
    report: &mut RecoveryReport,
) -> io::Result<()> {
    let mut cursor = WalCursor {
        bytes: payload,
        at: 0,
    };
    let pre_version = cursor.u64()?;
    let pre_epoch = cursor.u64()?;
    let n_ops = cursor.u32()? as usize;
    // The smallest op (a `Merge`) encodes to one byte.
    let mut ops = Vec::with_capacity(n_ops.min(cursor.remaining()));
    for _ in 0..n_ops {
        ops.push(MutationOp::decode_from(&mut cursor)?);
    }
    if cursor.remaining() != 0 {
        return Err(bad_data("trailing bytes in a WAL record".into()));
    }
    let at = (store.version(), store.epoch());
    if (pre_version, pre_epoch) < at {
        report.records_skipped += 1; // the snapshot already contains it
        return Ok(());
    }
    if (pre_version, pre_epoch) > at {
        return Err(bad_data(format!(
            "WAL gap: record logged at version {pre_version} epoch {pre_epoch}, \
             store is at version {} epoch {}",
            at.0, at.1
        )));
    }
    apply_checked(store, &ops, |s| s, |s, op| op.apply_to(s)).map_err(bad_data)?;
    report.records_replayed += 1;
    Ok(())
}

fn write_snapshot(dir: &Path, store: &VersionedStore) -> io::Result<()> {
    let payload = store.encode_state();
    let mut framed = Vec::with_capacity(payload.len() + 20);
    framed.extend_from_slice(SNAPSHOT_MAGIC);
    framed.extend_from_slice(&crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(&payload);

    let tmp = dir.join("snapshot.tmp");
    let mut file = File::create(&tmp)?;
    failpoint::hit("snapshot.write")?;
    file.write_all(&framed)?;
    failpoint::hit("snapshot.sync")?;
    file.sync_data()?;
    drop(file);
    failpoint::hit("snapshot.rename")?;
    fs::rename(&tmp, DurableStore::snapshot_path(dir))?;
    failpoint::hit("snapshot.dirsync")?;
    // The rename only updated the directory entry in memory; fsync the
    // parent directory so the publish itself survives power loss.
    File::open(dir)?.sync_all()?;
    Ok(())
}

fn read_snapshot(dir: &Path) -> io::Result<VersionedStore> {
    let mut file = File::open(DurableStore::snapshot_path(dir))?;
    let mut framed = Vec::new();
    file.read_to_end(&mut framed)?;
    if framed.len() < 20 || &framed[..8] != SNAPSHOT_MAGIC {
        return Err(bad_data("snapshot header is missing or foreign".into()));
    }
    let crc = u32::from_le_bytes(framed[8..12].try_into().expect("4"));
    let len = u64::from_le_bytes(framed[12..20].try_into().expect("8")) as usize;
    let payload = framed
        .get(20..20 + len)
        .ok_or_else(|| bad_data("snapshot payload truncated".into()))?;
    if crc32(payload) != crc {
        return Err(bad_data("snapshot checksum mismatch".into()));
    }
    VersionedStore::decode_state(payload).map_err(bad_data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::UncertainDataset;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory under the workspace `target/` (never
    /// `/tmp`), cleaned by the caller.
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/persist-tests")
            .join(format!(
                "{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seed_store() -> VersionedStore {
        let mut d = UncertainDataset::new(2);
        d.push_object(vec![(vec![2.0, 9.0], 0.4), (vec![12.0, 14.0], 0.4)]);
        d.push_object(vec![(vec![3.0, 4.0], 0.3), (vec![8.0, 3.0], 0.3)]);
        VersionedStore::from_dataset(&d)
    }

    fn batches() -> Vec<Vec<MutationOp>> {
        vec![
            vec![MutationOp::InsertInstance {
                object: 0,
                coords: vec![1.5, 1.5],
                prob: 0.1,
            }],
            vec![
                MutationOp::InsertObject {
                    label: Some("late".into()),
                    instances: vec![(vec![5.0, 5.0], 0.6)],
                },
                MutationOp::UpdateInstance {
                    handle: 4,
                    coords: vec![1.25, 1.75],
                    prob: 0.05,
                },
            ],
            vec![MutationOp::Merge],
            vec![
                MutationOp::RemoveInstance { handle: 4 },
                MutationOp::RetireObject { object: 1 },
            ],
        ]
    }

    #[test]
    fn ops_roundtrip_through_the_wire_format() {
        for batch in batches() {
            for op in batch {
                let mut encoded = Vec::new();
                op.encode_into(&mut encoded);
                let mut cursor = WalCursor {
                    bytes: &encoded,
                    at: 0,
                };
                let decoded = MutationOp::decode_from(&mut cursor).expect("decodes");
                assert_eq!(cursor.remaining(), 0);
                assert_eq!(decoded, op);
            }
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32(b"123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time CRC-32 definition: the oracle the table-driven
    /// [`crc32`] must match on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_offset() {
        // Seeded splitmix64 bytes; every start offset in 0..8 puts the
        // eight-byte steps on a different alignment, and every length in
        // 0..=1031 exercises each tail remainder many times over.
        let mut state = 0x5EED_u64;
        let bytes: Vec<u8> = (0..1031 + 8)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1031 {
                let input = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(input),
                    crc32_bitwise(input),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    /// One WAL record framed by hand: length, reference checksum, payload.
    fn framed_record(payload: &[u8]) -> Vec<u8> {
        let mut record = Vec::new();
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32_bitwise(payload).to_le_bytes());
        record.extend_from_slice(payload);
        record
    }

    /// A WAL record payload logged at `(version, epoch)` announcing `n_ops`
    /// ops, followed by `ops` (already-encoded op bytes).
    fn record_payload(version: u64, epoch: u64, n_ops: u32, ops: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&version.to_le_bytes());
        payload.extend_from_slice(&epoch.to_le_bytes());
        payload.extend_from_slice(&n_ops.to_le_bytes());
        payload.extend_from_slice(ops);
        payload
    }

    #[test]
    fn directories_framed_with_the_reference_checksum_still_open() {
        // Snapshot and WAL are written byte by byte here, not through
        // `DurableStore`, with checksums from the bitwise definition: what a
        // directory written by an earlier build of this format holds.
        let dir = scratch_dir("compat");
        fs::create_dir_all(&dir).expect("dir");
        let state = seed_store().encode_state();
        let mut snapshot = SNAPSHOT_MAGIC.to_vec();
        snapshot.extend_from_slice(&crc32_bitwise(&state).to_le_bytes());
        snapshot.extend_from_slice(&(state.len() as u64).to_le_bytes());
        snapshot.extend_from_slice(&state);
        fs::write(DurableStore::snapshot_path(&dir), snapshot).expect("snapshot");

        // InsertInstance { object: 0, coords: [1.5, 1.5], prob: 0.1 }.
        let mut op = vec![1];
        op.extend_from_slice(&0u64.to_le_bytes());
        op.extend_from_slice(&2u32.to_le_bytes());
        op.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        op.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        op.extend_from_slice(&0.1f64.to_bits().to_le_bytes());
        let wal = framed_record(&record_payload(0, 0, 1, &op));
        fs::write(DurableStore::wal_path(&dir), wal).expect("wal");

        let mut expected = seed_store();
        expected.insert_instance(0, &[1.5, 1.5], 0.1);
        let (recovered, report) = DurableStore::open(&dir).expect("open");
        assert_eq!(recovered.store().encode_state(), expected.encode_state());
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.torn_bytes, 0);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn lying_counts_in_a_checksum_valid_record_are_invalid_data() {
        let _gate = failpoint::exclusive();
        // InsertObject, no label, claiming u32::MAX instances; and a record
        // claiming u32::MAX ops. Both pass the CRC, so only the decoder's
        // bounds stand between them and a huge allocation.
        let mut insert = vec![0, 0];
        insert.extend_from_slice(&u32::MAX.to_le_bytes());
        let payloads = [
            record_payload(0, 0, 1, &insert),
            record_payload(0, 0, u32::MAX, &[5]),
        ];
        for payload in payloads {
            let dir = scratch_dir("lying");
            drop(DurableStore::create(&dir, seed_store()).expect("create"));
            fs::write(DurableStore::wal_path(&dir), framed_record(&payload)).expect("wal");
            let err = DurableStore::open(&dir).expect_err("malformed record");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    #[test]
    fn checksum_valid_ops_the_store_would_reject_are_invalid_data() {
        let _gate = failpoint::exclusive();
        // The seed store: object 0 holds handles 0 and 1 (0.4 each), object
        // 1 holds handles 2 and 3 (0.3 each).
        let insert = |object, coords: Vec<f64>, prob| MutationOp::InsertInstance {
            object,
            coords,
            prob,
        };
        let update = |handle, prob| MutationOp::UpdateInstance {
            handle,
            coords: vec![1.0, 1.0],
            prob,
        };
        let cases = [
            (
                "removed handle",
                vec![
                    MutationOp::RemoveInstance { handle: 0 },
                    MutationOp::RemoveInstance { handle: 0 },
                ],
            ),
            ("unallocated handle", vec![update(99, 0.1)]),
            (
                "handle beyond u32",
                vec![MutationOp::RemoveInstance { handle: 1 << 32 }],
            ),
            ("unknown object", vec![insert(7, vec![1.0, 1.0], 0.1)]),
            (
                "retired object",
                vec![
                    MutationOp::RetireObject { object: 1 },
                    insert(1, vec![1.0, 1.0], 0.1),
                ],
            ),
            (
                "object retired twice",
                vec![
                    MutationOp::RetireObject { object: 1 },
                    MutationOp::RetireObject { object: 1 },
                ],
            ),
            ("wrong dimension", vec![insert(0, vec![1.0], 0.1)]),
            (
                "non-finite coordinate",
                vec![insert(0, vec![f64::INFINITY, 1.0], 0.1)],
            ),
            ("zero probability", vec![insert(0, vec![1.0, 1.0], 0.0)]),
            ("NaN probability", vec![update(0, f64::NAN)]),
            ("probability above one", vec![update(0, 1.5)]),
            (
                "object without instances",
                vec![MutationOp::InsertObject {
                    label: None,
                    instances: vec![],
                }],
            ),
            (
                "new object over budget",
                vec![MutationOp::InsertObject {
                    label: None,
                    instances: vec![(vec![1.0, 1.0], 0.7), (vec![2.0, 2.0], 0.6)],
                }],
            ),
            ("insert over budget", vec![insert(0, vec![1.0, 1.0], 0.3)]),
            ("update over budget", vec![update(2, 0.8)]),
        ];
        for (case, ops) in cases {
            let dir = scratch_dir("invalid-op");
            drop(DurableStore::create(&dir, seed_store()).expect("create"));
            let mut encoded = Vec::new();
            for op in &ops {
                op.encode_into(&mut encoded);
            }
            let payload = record_payload(0, 0, ops.len() as u32, &encoded);
            fs::write(DurableStore::wal_path(&dir), framed_record(&payload)).expect("wal");
            let err = DurableStore::open(&dir).expect_err(case);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
            fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    #[test]
    fn recovery_replays_the_wal_over_the_snapshot() {
        let _gate = failpoint::exclusive();
        let dir = scratch_dir("replay");
        let mut durable = DurableStore::create(&dir, seed_store()).expect("create");
        for batch in batches() {
            durable.apply_batch(&batch).expect("apply");
        }
        let expected = durable.store().encode_state();
        drop(durable);

        let (recovered, report) = DurableStore::open(&dir).expect("open");
        assert_eq!(recovered.store().encode_state(), expected);
        assert_eq!(report.records_replayed, 4);
        assert_eq!(report.records_skipped, 0);
        assert_eq!(report.torn_bytes, 0);

        // Recovery is idempotent: open again, same state.
        drop(recovered);
        let (again, _) = DurableStore::open(&dir).expect("re-open");
        assert_eq!(again.store().encode_state(), expected);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_survives_reopen() {
        let _gate = failpoint::exclusive();
        let dir = scratch_dir("checkpoint");
        let mut durable = DurableStore::create(&dir, seed_store()).expect("create");
        let all = batches();
        durable.apply_batch(&all[0]).expect("apply");
        durable.apply_batch(&all[1]).expect("apply");
        durable.checkpoint().expect("checkpoint");
        durable.apply_batch(&all[2]).expect("apply");
        let expected = durable.store().encode_state();
        drop(durable);

        let (recovered, report) = DurableStore::open(&dir).expect("open");
        assert_eq!(recovered.store().encode_state(), expected);
        assert_eq!(
            report.records_replayed, 1,
            "only the post-checkpoint batch replays"
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tails_are_truncated_to_the_last_intact_record() {
        let _gate = failpoint::exclusive();
        let dir = scratch_dir("torn");
        let mut durable = DurableStore::create(&dir, seed_store()).expect("create");
        let all = batches();
        durable.apply_batch(&all[0]).expect("apply");
        let expected = durable.store().encode_state();
        drop(durable);

        // Simulate a crash mid-append: append garbage that looks like a
        // half-written record.
        let wal = DurableStore::wal_path(&dir);
        let mut file = OpenOptions::new().append(true).open(&wal).expect("wal");
        file.write_all(&[200, 0, 0, 0, 1, 2, 3, 4, 9, 9])
            .expect("torn bytes");
        drop(file);

        let (recovered, report) = DurableStore::open(&dir).expect("open");
        assert_eq!(recovered.store().encode_state(), expected);
        assert_eq!(report.torn_bytes, 10);

        // The tail is physically gone: a further batch appends cleanly and
        // the next recovery sees no tear.
        let mut recovered = recovered;
        recovered.apply_batch(&all[1]).expect("apply after repair");
        let expected = recovered.store().encode_state();
        drop(recovered);
        let (fresh, report) = DurableStore::open(&dir).expect("re-open");
        assert_eq!(fresh.store().encode_state(), expected);
        assert_eq!(report.torn_bytes, 0);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_failed_append_rolls_back_and_leaves_no_trace() {
        let dir = scratch_dir("rollback");
        let mut durable = DurableStore::create(&dir, seed_store()).expect("create");
        let all = batches();
        durable.apply_batch(&all[0]).expect("apply");
        let before = durable.store().encode_state();

        let _gate = failpoint::exclusive();
        failpoint::reset();
        failpoint::arm("wal.append.sync", failpoint::FailAction::Error);
        let err = durable.apply_batch(&all[1]).expect_err("injected failure");
        assert!(err.to_string().contains("wal.append.sync"));
        failpoint::reset();

        assert_eq!(
            durable.store().encode_state(),
            before,
            "the failed batch never touched the in-memory store"
        );
        // ...nor the durable state: recovery sees only the first batch.
        drop(durable);
        let (recovered, report) = DurableStore::open(&dir).expect("open");
        assert_eq!(recovered.store().encode_state(), before);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.torn_bytes, 0);
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
