//! # xsim-fs — the simulated parallel file system
//!
//! The paper treats checkpoint file/storage systems as a first-class
//! co-design axis ("the capabilities offered by different checkpoint
//! file/storage systems and by the I/O network infrastructure", §I) while
//! noting that "xSim's file system model is a work in progress" and that
//! Table II therefore does not charge file system overhead (§V-C). This
//! crate builds that substrate:
//!
//! * [`FsStore`] — a named object store **shared across simulated runs**,
//!   so checkpoints written before an abort are visible to the restarted
//!   application (paper §IV-E).
//! * [`FsModel`] — the I/O cost model: metadata latency plus per-rank
//!   bandwidth, or [`FsModel::free`] to reproduce the paper's Table II
//!   configuration exactly.
//! * Two-phase writes — a file is registered (partial) when the write
//!   starts and committed when the simulated transfer finishes, so a
//!   process failure mid-write leaves a *corrupted* file ("checkpoint
//!   file that exists, but misses some information", §V-B). A "file
//!   I/O error reported by the parallel file system" (§III-B) is
//!   reproduced by injecting the process failure it causes.
//!
//! Determinism note: the store is shared mutable state. Simulated
//! applications must keep concurrently written names rank-distinct (the
//! checkpoint layer does), otherwise parallel-engine runs may order
//! same-name commits differently than sequential runs.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, Mutex, MutexGuard};
use xsim_core::vp::WaitClass;
use xsim_core::{ctx, Bytes, SimTime};
use xsim_obs::service as obs;
use xsim_obs::{ids, ObsService, ObsSpan, PhaseKind};

pub mod pfs;

pub(crate) use pfs::{file_hash, PfsModel, PfsState};

/// State of one stored file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileState {
    /// Fully written.
    Complete(Bytes),
    /// A write began but never committed (writer failed mid-transfer):
    /// the carried bytes are the prefix that reached storage.
    Partial(Bytes),
}

impl FileState {
    /// The stored bytes regardless of completeness.
    pub fn bytes(&self) -> &Bytes {
        match self {
            FileState::Complete(b) | FileState::Partial(b) => b,
        }
    }

    /// Whether the file committed completely.
    pub fn is_complete(&self) -> bool {
        matches!(self, FileState::Complete(_))
    }
}

/// The shared object store. Clone the [`Arc`] and hand it to each run's
/// setup; contents survive simulated application aborts and restarts,
/// exactly like a real parallel file system outlives jobs.
#[derive(Default)]
pub struct FsStore {
    files: Mutex<BTreeMap<String, FileState>>,
}

/// A read-only view of a store's file names, lent by [`FsStore::names`].
#[derive(Clone, Copy)]
pub struct Names<'a>(&'a BTreeMap<String, FileState>);

impl<'a> Names<'a> {
    /// The first name at or after `cursor` (lexicographic).
    pub fn first_at_or_after(self, cursor: &str) -> Option<&'a str> {
        self.0
            .range::<str, _>((Bound::Included(cursor), Bound::Unbounded))
            .next()
            .map(|(k, _)| k.as_str())
    }

    /// The names that start with `prefix`, sorted.
    pub(crate) fn with_prefix(self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.0
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(k, _)| k.as_str())
            .take_while(move |k| k.starts_with(prefix))
    }

    /// Whether a file of this name exists (complete or partial).
    pub fn contains(self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

impl FsStore {
    /// Fresh, empty store.
    pub fn new() -> Arc<Self> {
        Arc::new(FsStore::default())
    }

    /// No caller code runs under the lock, so poison can only mean a
    /// store operation itself panicked.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, FileState>> {
        self.files.lock().expect("FsStore operation panicked")
    }

    /// Begin a two-phase write: the name becomes visible as a partial
    /// file (its contents are not durable until commit).
    pub fn begin_write(&self, name: &str) {
        self.lock()
            .insert(name.to_string(), FileState::Partial(Bytes::new()));
    }

    /// Commit a write begun with [`begin_write`](Self::begin_write). An
    /// owned `name` becomes a new file's key without a copy.
    pub(crate) fn commit_write(&self, name: impl Into<String>, data: Bytes) {
        self.lock().insert(name.into(), FileState::Complete(data));
    }

    /// Atomically write a complete file (used by the free cost model,
    /// where there is no mid-transfer window).
    pub fn put(&self, name: impl Into<String>, data: Bytes) {
        self.commit_write(name, data);
    }

    /// Read a file's state (complete or partial).
    pub fn get(&self, name: &str) -> Option<FileState> {
        self.lock().get(name).cloned()
    }

    /// Whether a file exists (complete or partial).
    pub fn exists(&self, name: &str) -> bool {
        self.lock().contains_key(name)
    }

    /// Delete a file; returns whether it existed.
    pub fn delete(&self, name: &str) -> bool {
        self.lock().remove(name).is_some()
    }

    /// All file names with the given prefix, sorted.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.names(|names| names.with_prefix(prefix).map(str::to_string).collect())
    }

    /// Run `f` over the stored names under one lock acquisition: a walk
    /// of many lookups borrows its keys and bounds instead of cloning
    /// them out one lock at a time. `f` must not call back into the
    /// store.
    pub fn names<R>(&self, f: impl FnOnce(Names<'_>) -> R) -> R {
        f(Names(&self.lock()))
    }

    /// Delete every file with the given prefix; returns how many were
    /// removed. This is the simulated analogue of the paper's cleanup
    /// shell script ("incomplete checkpoints … are deleted using a shell
    /// script", §V-B).
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let mut files = self.lock();
        let before = files.len();
        files.retain(|name, _| !name.starts_with(prefix));
        before - files.len()
    }

    /// Number of stored files.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The I/O cost model.
#[derive(Debug, Clone, Copy)]
pub struct FsModel {
    /// Fixed metadata cost per operation (open/create/stat/unlink),
    /// charged client-side.
    pub meta_latency: SimTime,
    /// Per-rank write bandwidth, bytes/s (aggregate contention is not
    /// modeled — see the crate docs on determinism). Ignored when a
    /// striped [`PfsModel`] is configured.
    pub write_bw: f64,
    /// Per-rank read bandwidth, bytes/s. Ignored when `pfs` is set.
    pub read_bw: f64,
    /// Striped PFS extension: when set, transfers are striped across
    /// simulated I/O nodes and contend FCFS per node (see [`pfs`]),
    /// instead of charging the flat per-rank bandwidths above.
    pub pfs: Option<PfsModel>,
}

impl FsModel {
    /// The paper's Table II configuration: checkpoint I/O is free
    /// ("the file system overhead for checkpoint/restart was not
    /// considered in the experiments", §V-C).
    pub fn free() -> Self {
        FsModel {
            meta_latency: SimTime::ZERO,
            write_bw: f64::INFINITY,
            read_bw: f64::INFINITY,
            pfs: None,
        }
    }

    /// A representative parallel file system share: 50 µs metadata
    /// latency, 1 GB/s per-rank write, 2 GB/s per-rank read, no
    /// cross-rank contention.
    pub fn typical_pfs() -> Self {
        FsModel {
            meta_latency: SimTime::from_micros(50),
            write_bw: 1.0e9,
            read_bw: 2.0e9,
            pfs: None,
        }
    }

    /// A contended, striped PFS: `io_nodes` simulated I/O servers with
    /// `PfsModel::typical` per-node parameters, 50 µs client-side
    /// metadata latency. Client ↔ I/O-node transit is the engine
    /// lookahead (see [`pfs`]).
    pub fn striped(io_nodes: u32) -> Self {
        FsModel {
            meta_latency: SimTime::from_micros(50),
            write_bw: f64::INFINITY,
            read_bw: f64::INFINITY,
            pfs: Some(PfsModel::typical(io_nodes)),
        }
    }

    fn xfer(bytes: usize, bw: f64) -> SimTime {
        if bw.is_infinite() || bytes == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_secs_f64(bytes as f64 / bw)
        }
    }

    /// Virtual time to write `bytes`.
    pub fn write_time(&self, bytes: usize) -> SimTime {
        self.meta_latency + Self::xfer(bytes, self.write_bw)
    }

    /// Virtual time to read `bytes`.
    pub(crate) fn read_time(&self, bytes: usize) -> SimTime {
        self.meta_latency + Self::xfer(bytes, self.read_bw)
    }
}

/// Kernel service giving VPs access to the store and cost model. Install
/// one per shard (they share the same `Arc<FsStore>`, and — when a
/// striped PFS is configured — the same `Arc<PfsState>`).
pub struct FsService {
    /// The shared store.
    pub store: Arc<FsStore>,
    /// The cost model.
    pub model: FsModel,
    /// Shared I/O-server state; `Some` iff `model.pfs` is. Every shard
    /// of one run must hold the *same* instance (see
    /// [`FsService::shared_pfs`]).
    pub pfs: Option<Arc<PfsState>>,
}

impl FsService {
    /// Create a service sharing pre-built PFS server state (one
    /// instance per run, cloned into every shard).
    pub fn with_pfs(store: Arc<FsStore>, model: FsModel, pfs: Option<Arc<PfsState>>) -> Self {
        debug_assert_eq!(model.pfs.is_some(), pfs.is_some());
        FsService { store, model, pfs }
    }

    /// Build the per-run shared PFS server state for a model.
    pub fn shared_pfs(model: &FsModel) -> Option<Arc<PfsState>> {
        model.pfs.map(|p| Arc::new(PfsState::new(p)))
    }
}

/// Write a file from the current VP, charging the cost model. A process
/// failure during the transfer leaves the file in a partial (corrupted)
/// state. An owned `name` is kept as the stored key (see
/// `FsStore::commit_write`).
pub async fn write(name: impl AsRef<str> + Into<String>, data: Bytes) {
    let nbytes = data.len() as u64;
    let (cost, striped, store, t0) = ctx::with_kernel(|k, rank| {
        let name = name.as_ref();
        let svc = k.service::<FsService>();
        let striped = svc.model.pfs;
        let cost = if striped.is_some() {
            svc.model.meta_latency
        } else {
            svc.model.write_time(data.len())
        };
        let store = svc.store.clone();
        let t0 = obs::enabled(k).then(|| k.vp(rank).clock());
        if cost > SimTime::ZERO || striped.is_some() {
            store.begin_write(name);
        }
        (cost, striped, store, t0)
    });
    if cost > SimTime::ZERO {
        fs_sleep(cost).await;
    }
    if let Some(p) = striped {
        pfs::transfer(p, nbytes, file_hash(name.as_ref()), true).await;
    }
    store.commit_write(name, data);
    note_io(
        t0,
        ids::FS_WRITES,
        ids::FS_WRITE_BYTES,
        ids::FS_WRITE_NS,
        nbytes,
    );
}

/// Read a file from the current VP, charging the cost model. Partial
/// (corrupted) files are returned as [`FileState::Partial`] so callers
/// can implement corruption detection. A missing file is `None` and
/// charges nothing.
pub async fn read(name: &str) -> Option<FileState> {
    let (state, cost, striped, t0) = ctx::with_kernel(|k, rank| {
        let svc = k.service::<FsService>();
        let store = svc.store.clone();
        let model = svc.model;
        let t0 = obs::enabled(k).then(|| k.vp(rank).clock());
        let state = store.get(name)?;
        let striped = model.pfs;
        let cost = if striped.is_some() {
            model.meta_latency
        } else {
            model.read_time(state.bytes().len())
        };
        Some((state, cost, striped, t0))
    })?;
    if cost > SimTime::ZERO {
        fs_sleep(cost).await;
    }
    if let Some(p) = striped {
        pfs::transfer(p, state.bytes().len() as u64, file_hash(name), false).await;
    }
    let nbytes = state.bytes().len() as u64;
    note_io(
        t0,
        ids::FS_READS,
        ids::FS_READ_BYTES,
        ids::FS_READ_NS,
        nbytes,
    );
    Some(state)
}

/// Delete a file from the current VP, charging metadata latency. Returns
/// whether the file existed.
pub async fn delete(name: &str) -> bool {
    let (cost, store) = ctx::with_kernel(|k, _| {
        let svc = k.service::<FsService>();
        let out = (svc.model.meta_latency, svc.store.clone());
        obs::record(k, ids::FS_DELETES, 1);
        out
    });
    if cost > SimTime::ZERO {
        fs_sleep(cost).await;
    }
    store.delete(name)
}

/// Charge the I/O time of writing `bytes` without storing anything.
/// Used by modeled applications whose real state is not materialized
/// (e.g. the heat application in modeled-compute mode charges the cost
/// of its full grid checkpoint while persisting only a state token).
pub async fn charge_write(bytes: usize) {
    let (cost, striped, hash, t0) = ctx::with_kernel(|k, rank| {
        let model = k.service::<FsService>().model;
        let striped = model.pfs;
        let cost = if striped.is_some() {
            model.meta_latency
        } else {
            model.write_time(bytes)
        };
        (
            cost,
            striped,
            // Synthetic placement hash: spread the ranks' unnamed
            // transfers across home nodes like distinct files would.
            PfsModel::placement_hash(rank.idx() as u32),
            obs::enabled(k).then(|| k.vp(rank).clock()),
        )
    });
    if cost > SimTime::ZERO {
        fs_sleep(cost).await;
    }
    if let Some(p) = striped {
        pfs::transfer(p, bytes as u64, hash, true).await;
    }
    note_io(
        t0,
        ids::FS_WRITES,
        ids::FS_WRITE_BYTES,
        ids::FS_WRITE_NS,
        bytes as u64,
    );
}

/// Charge the I/O time of reading `bytes` without reading anything.
pub async fn charge_read(bytes: usize) {
    let (cost, striped, hash, t0) = ctx::with_kernel(|k, rank| {
        let model = k.service::<FsService>().model;
        let striped = model.pfs;
        let cost = if striped.is_some() {
            model.meta_latency
        } else {
            model.read_time(bytes)
        };
        (
            cost,
            striped,
            PfsModel::placement_hash(rank.idx() as u32),
            obs::enabled(k).then(|| k.vp(rank).clock()),
        )
    });
    if cost > SimTime::ZERO {
        fs_sleep(cost).await;
    }
    if let Some(p) = striped {
        pfs::transfer(p, bytes as u64, hash, false).await;
    }
    note_io(
        t0,
        ids::FS_READS,
        ids::FS_READ_BYTES,
        ids::FS_READ_NS,
        bytes as u64,
    );
}

/// Whether a file exists, charging metadata latency.
pub async fn exists(name: &str) -> bool {
    let (cost, store) = ctx::with_kernel(|k, _| {
        let svc = k.service::<FsService>();
        (svc.model.meta_latency, svc.store.clone())
    });
    if cost > SimTime::ZERO {
        fs_sleep(cost).await;
    }
    store.exists(name)
}

/// Account a finished I/O operation: counters, size/latency histograms
/// and a `FileIo` span for the trace. `t0` is `None` when observation is
/// disabled, making the whole function (including the kernel access) a
/// no-op.
fn note_io(t0: Option<SimTime>, n_id: usize, bytes_id: usize, ns_id: usize, nbytes: u64) {
    let Some(t0) = t0 else { return };
    ctx::with_kernel(|k, rank| {
        let t1 = k.vp(rank).clock();
        let Some(obs) = k.try_service_mut::<ObsService>() else {
            return;
        };
        obs.record(n_id, 1);
        obs.record(bytes_id, nbytes);
        obs.record(ns_id, (t1 - t0).as_nanos());
        obs.span(ObsSpan {
            rank,
            kind: PhaseKind::FileIo,
            start: t0,
            end: t1,
            peer: None,
            bytes: nbytes,
        });
    });
}

/// Sleep with the FileIo wait class, so failure/abort releases can
/// distinguish I/O-blocked VPs from computing ones.
async fn fs_sleep(d: SimTime) {
    let (deadline, token) = ctx::with_kernel(|k, rank| {
        let deadline = k.vp(rank).clock() + d;
        let token = k.vp_mut(rank).begin_wait(WaitClass::FileIo, "file I/O");
        k.schedule_at(deadline, rank, xsim_core::event::Action::WakeToken(token));
        (deadline, token)
    });
    loop {
        let now = ctx::block_prearmed(token).await;
        if now >= deadline {
            return;
        }
        ctx::with_kernel(|k, rank| {
            // Re-block on the same token: the scheduled wake stays valid.
            k.vp_mut(rank)
                .rearm_wait(WaitClass::FileIo, "file I/O", token);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_put_get_delete() {
        let s = FsStore::new();
        assert!(s.is_empty());
        s.put("a", Bytes::from_static(b"hello"));
        assert!(s.exists("a"));
        assert_eq!(
            s.get("a").unwrap(),
            FileState::Complete(Bytes::from_static(b"hello"))
        );
        assert!(s.delete("a"));
        assert!(!s.delete("a"));
        assert!(s.get("a").is_none());
    }

    #[test]
    fn partial_writes_are_visible_and_incomplete() {
        let s = FsStore::new();
        let data = Bytes::from_static(b"checkpoint-data");
        s.begin_write("ckpt/5/rank3");
        let st = s.get("ckpt/5/rank3").unwrap();
        assert!(!st.is_complete());
        s.commit_write("ckpt/5/rank3", data.clone());
        assert!(s.get("ckpt/5/rank3").unwrap().is_complete());
    }

    #[test]
    fn list_and_delete_prefix() {
        let s = FsStore::new();
        s.put("ckpt/1/r0", Bytes::new());
        s.put("ckpt/1/r1", Bytes::new());
        s.put("ckpt/2/r0", Bytes::new());
        s.put("other", Bytes::new());
        assert_eq!(s.list_prefix("ckpt/1/"), vec!["ckpt/1/r0", "ckpt/1/r1"]);
        assert_eq!(s.delete_prefix("ckpt/"), 3);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn model_costs() {
        let m = FsModel::typical_pfs();
        assert_eq!(
            m.write_time(1_000_000_000),
            SimTime::from_micros(50) + SimTime::from_secs(1)
        );
        assert_eq!(
            m.read_time(2_000_000_000),
            SimTime::from_micros(50) + SimTime::from_secs(1)
        );
        assert_eq!(FsModel::free().write_time(1 << 30), SimTime::ZERO);
    }
}
