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
//!   file that exists, but misses some information", §V-B).
//! * I/O error injection — "an error or failure of another component,
//!   such as a file I/O error reported by the parallel file system" is
//!   one of the paper's causes of MPI process failure (§III-B).
//!
//! Determinism note: the store is shared mutable state. Simulated
//! applications must keep concurrently written names rank-distinct (the
//! checkpoint layer does), otherwise parallel-engine runs may order
//! same-name commits differently than sequential runs.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use xsim_core::vp::WaitClass;
use xsim_core::{ctx, Bytes, Rank, SimTime};
use xsim_obs::service as obs;
use xsim_obs::{ids, ObsService, ObsSpan, PhaseKind};

pub mod pfs;

pub use pfs::{file_hash, PfsModel, PfsState};

/// Errors surfaced by simulated file system operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The named file does not exist.
    NotFound,
    /// An injected I/O error fired for this operation.
    Injected,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "file not found"),
            FsError::Injected => write!(f, "injected I/O error"),
        }
    }
}

impl std::error::Error for FsError {}

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

/// Which operations an injected fault rule hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// Fail write operations.
    Write,
    /// Fail read operations.
    Read,
}

/// An injected I/O fault: operations of `kind` on names starting with
/// `prefix` (optionally restricted to one rank) return [`FsError::Injected`].
#[derive(Debug, Clone)]
pub struct IoFaultRule {
    /// Name prefix the rule applies to (empty = all files).
    pub prefix: String,
    /// Operation kind the rule applies to.
    pub kind: IoFaultKind,
    /// Restrict to a single rank, or `None` for all ranks.
    pub rank: Option<Rank>,
    /// Remaining number of operations to fail (decrements per hit;
    /// `u64::MAX` ≈ permanent).
    pub remaining: u64,
}

/// The shared object store. Clone the [`Arc`] and hand it to each run's
/// setup; contents survive simulated application aborts and restarts,
/// exactly like a real parallel file system outlives jobs.
#[derive(Default)]
pub struct FsStore {
    inner: Mutex<StoreInner>,
}

#[derive(Default)]
struct StoreInner {
    files: BTreeMap<String, FileState>,
    faults: Vec<IoFaultRule>,
    writes: u64,
    reads: u64,
    bytes_written: u64,
    bytes_read: u64,
}

/// Aggregate I/O statistics of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsStats {
    /// Completed write operations.
    pub writes: u64,
    /// Completed read operations.
    pub reads: u64,
    /// Total bytes committed by writes.
    pub bytes_written: u64,
    /// Total bytes returned by reads.
    pub bytes_read: u64,
}

impl FsStore {
    /// Fresh, empty store.
    pub fn new() -> Arc<Self> {
        Arc::new(FsStore::default())
    }

    /// No caller code runs under the lock, so poison can only mean a
    /// store operation itself panicked.
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("FsStore operation panicked")
    }

    /// Install an I/O fault rule.
    pub fn inject_fault(&self, rule: IoFaultRule) {
        self.lock().faults.push(rule);
    }

    /// Remove all fault rules.
    pub fn clear_faults(&self) {
        self.lock().faults.clear();
    }

    fn check_fault(&self, name: &str, kind: IoFaultKind, rank: Rank) -> Result<(), FsError> {
        let mut inner = self.lock();
        for rule in &mut inner.faults {
            if rule.kind == kind
                && rule.remaining > 0
                && name.starts_with(&rule.prefix)
                && rule.rank.is_none_or(|r| r == rank)
            {
                rule.remaining = rule.remaining.saturating_sub(1);
                return Err(FsError::Injected);
            }
        }
        Ok(())
    }

    /// Begin a two-phase write: the name becomes visible as a partial
    /// file (its contents are not durable until commit).
    pub fn begin_write(&self, name: &str) {
        let mut inner = self.lock();
        inner
            .files
            .insert(name.to_string(), FileState::Partial(Bytes::new()));
    }

    /// Commit a write begun with [`begin_write`](Self::begin_write).
    pub fn commit_write(&self, name: &str, data: Bytes) {
        let mut inner = self.lock();
        inner.writes += 1;
        inner.bytes_written += data.len() as u64;
        inner
            .files
            .insert(name.to_string(), FileState::Complete(data));
    }

    /// Atomically write a complete file (used by the free cost model,
    /// where there is no mid-transfer window).
    pub fn put(&self, name: &str, data: Bytes) {
        self.commit_write(name, data);
    }

    /// Read a file's state (complete or partial).
    pub fn get(&self, name: &str) -> Option<FileState> {
        let mut inner = self.lock();
        let state = inner.files.get(name).cloned();
        if let Some(s) = &state {
            inner.reads += 1;
            inner.bytes_read += s.bytes().len() as u64;
        }
        state
    }

    /// Whether a file exists (complete or partial).
    pub fn exists(&self, name: &str) -> bool {
        self.lock().files.contains_key(name)
    }

    /// Delete a file; returns whether it existed.
    pub fn delete(&self, name: &str) -> bool {
        self.lock().files.remove(name).is_some()
    }

    /// The first stored file name at or after `cursor` (lexicographic).
    /// Enables O(log n) directory-style iteration without cloning whole
    /// listings.
    pub fn first_key_at_or_after(&self, cursor: &str) -> Option<String> {
        self.lock()
            .files
            .range(cursor.to_string()..)
            .next()
            .map(|(k, _)| k.clone())
    }

    /// All file names with the given prefix, sorted.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.lock()
            .files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Delete every file with the given prefix; returns how many were
    /// removed. This is the simulated analogue of the paper's cleanup
    /// shell script ("incomplete checkpoints … are deleted using a shell
    /// script", §V-B).
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let names = self.list_prefix(prefix);
        let mut inner = self.lock();
        for n in &names {
            inner.files.remove(n);
        }
        names.len()
    }

    /// Number of stored files.
    pub fn len(&self) -> usize {
        self.lock().files.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate I/O statistics.
    pub fn stats(&self) -> FsStats {
        let inner = self.lock();
        FsStats {
            writes: inner.writes,
            reads: inner.reads,
            bytes_written: inner.bytes_written,
            bytes_read: inner.bytes_read,
        }
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
    /// [`PfsModel::typical`] per-node parameters, 50 µs client-side
    /// metadata latency. Transit is derived from the network model by
    /// the builder.
    pub fn striped(io_nodes: u32) -> Self {
        FsModel {
            meta_latency: SimTime::from_micros(50),
            write_bw: f64::INFINITY,
            read_bw: f64::INFINITY,
            pfs: Some(PfsModel::typical(io_nodes)),
        }
    }

    /// Whether any operation costs virtual time.
    pub fn is_free(&self) -> bool {
        self.meta_latency == SimTime::ZERO
            && self.write_bw.is_infinite()
            && self.read_bw.is_infinite()
            && self.pfs.is_none()
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
    pub fn read_time(&self, bytes: usize) -> SimTime {
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
    /// Create a service over a shared store. Creates its own PFS server
    /// state when the model calls for one — fine for single-shard runs;
    /// multi-shard builders must share state via
    /// [`with_pfs`](Self::with_pfs).
    pub fn new(store: Arc<FsStore>, model: FsModel) -> Self {
        let pfs = Self::shared_pfs(&model);
        FsService { store, model, pfs }
    }

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
/// state.
pub async fn write(name: &str, data: Bytes) -> Result<(), FsError> {
    let nbytes = data.len() as u64;
    let (cost, striped, store, t0) = ctx::with_kernel(|k, rank| {
        let svc = k.service::<FsService>();
        let striped = svc.model.pfs;
        let cost = if striped.is_some() {
            svc.model.meta_latency
        } else {
            svc.model.write_time(data.len())
        };
        let store = svc.store.clone();
        let t0 = obs::enabled(k).then(|| k.vp(rank).clock());
        if let Err(e) = store.check_fault(name, IoFaultKind::Write, rank) {
            obs::record(k, ids::FS_FAULTS_INJECTED, 1);
            return Err(e);
        }
        if cost > SimTime::ZERO || striped.is_some() {
            store.begin_write(name);
        }
        Ok::<_, FsError>((cost, striped, store, t0))
    })?;
    if cost > SimTime::ZERO {
        fs_sleep(cost).await;
    }
    if let Some(p) = striped {
        pfs::transfer(p, nbytes, file_hash(name), true).await;
    }
    store.commit_write(name, data);
    note_io(
        t0,
        ids::FS_WRITES,
        ids::FS_WRITE_BYTES,
        ids::FS_WRITE_NS,
        nbytes,
    );
    Ok(())
}

/// Read a file from the current VP, charging the cost model. Partial
/// (corrupted) files are returned as [`FileState::Partial`] so callers
/// can implement corruption detection.
pub async fn read(name: &str) -> Result<FileState, FsError> {
    let (state, cost, striped, t0) = ctx::with_kernel(|k, rank| {
        let svc = k.service::<FsService>();
        let store = svc.store.clone();
        let model = svc.model;
        let t0 = obs::enabled(k).then(|| k.vp(rank).clock());
        if let Err(e) = store.check_fault(name, IoFaultKind::Read, rank) {
            obs::record(k, ids::FS_FAULTS_INJECTED, 1);
            return Err(e);
        }
        let state = store.get(name).ok_or(FsError::NotFound)?;
        let striped = model.pfs;
        let cost = if striped.is_some() {
            model.meta_latency
        } else {
            model.read_time(state.bytes().len())
        };
        Ok::<_, FsError>((state, cost, striped, t0))
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
    Ok(state)
}

/// Delete a file from the current VP, charging metadata latency. Returns
/// whether the file existed.
pub async fn delete(name: &str) -> Result<bool, FsError> {
    let (cost, store) = ctx::with_kernel(|k, rank| {
        let svc = k.service::<FsService>();
        let store = svc.store.clone();
        let cost = svc.model.meta_latency;
        if let Err(e) = store.check_fault(name, IoFaultKind::Write, rank) {
            obs::record(k, ids::FS_FAULTS_INJECTED, 1);
            return Err(e);
        }
        obs::record(k, ids::FS_DELETES, 1);
        Ok::<_, FsError>((cost, store))
    })?;
    if cost > SimTime::ZERO {
        fs_sleep(cost).await;
    }
    Ok(store.delete(name))
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
    fn fault_rules_fire_and_decrement() {
        let s = FsStore::new();
        s.inject_fault(IoFaultRule {
            prefix: "ckpt/".into(),
            kind: IoFaultKind::Write,
            rank: Some(Rank(3)),
            remaining: 1,
        });
        assert_eq!(
            s.check_fault("ckpt/x", IoFaultKind::Write, Rank(3)),
            Err(FsError::Injected)
        );
        // Rule exhausted.
        assert!(s.check_fault("ckpt/x", IoFaultKind::Write, Rank(3)).is_ok());
        // Wrong rank / kind / prefix never fire.
        s.inject_fault(IoFaultRule {
            prefix: "ckpt/".into(),
            kind: IoFaultKind::Write,
            rank: Some(Rank(3)),
            remaining: 5,
        });
        assert!(s.check_fault("ckpt/x", IoFaultKind::Write, Rank(4)).is_ok());
        assert!(s.check_fault("ckpt/x", IoFaultKind::Read, Rank(3)).is_ok());
        assert!(s.check_fault("data/x", IoFaultKind::Write, Rank(3)).is_ok());
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
        assert!(FsModel::free().is_free());
        assert_eq!(FsModel::free().write_time(1 << 30), SimTime::ZERO);
        assert!(!m.is_free());
    }

    #[test]
    fn stats_accumulate() {
        let s = FsStore::new();
        s.put("a", Bytes::from_static(b"12345"));
        let _ = s.get("a");
        let st = s.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.reads, 1);
        assert_eq!(st.bytes_written, 5);
        assert_eq!(st.bytes_read, 5);
    }

    #[test]
    fn clear_faults_removes_rules() {
        let s = FsStore::new();
        s.inject_fault(IoFaultRule {
            prefix: String::new(),
            kind: IoFaultKind::Read,
            rank: None,
            remaining: u64::MAX,
        });
        assert!(s.check_fault("x", IoFaultKind::Read, Rank(0)).is_err());
        s.clear_faults();
        assert!(s.check_fault("x", IoFaultKind::Read, Rank(0)).is_ok());
    }
}
