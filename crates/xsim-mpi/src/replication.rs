//! Crash-tolerant rank replication (TeaMPI / PartRePer-MPI lineage,
//! paper §II-C and §VI).
//!
//! Where [`crate::redundancy`] reproduces RedMPI's *soft-error* voting,
//! this module makes replicas survive *crashes*: every logical rank is
//! backed by a team of physical replicas, replica deaths are detected by
//! a deterministic virtual-time heartbeat protocol, and a surviving
//! replica transparently assumes the dead leader's logical rank — the
//! application never sees an error as long as one replica per logical
//! rank survives. A PartRePer-style *partial* mode replicates only a
//! configurable critical subset of logical ranks; an unprotected rank's
//! death surfaces as `MPI_ERR_PROC_FAILED` and falls back to the
//! ULFM-shrink + checkpoint/restart path.
//!
//! ## Protocol
//!
//! All replicas of a logical rank execute the same application code in
//! virtual-time lockstep (active replication), so their outgoing
//! payloads and per-channel sequence numbers are identical. A logical
//! message from `S` to `D` is realized as one physical copy from every
//! *believed-live* replica of `S` to every *believed-live* replica of
//! `D` (the rMPI "mirror" discipline; the r² amplification is part of
//! the measured replication overhead). A receiver consumes all copies it
//! posted for and uses the one from the lowest-indexed replica — the
//! channel's *leader*. When the leader dies, the next copy is already in
//! flight from a surviving replica: failover is a local re-selection, no
//! resend protocol and no application-visible error. Copies from
//! replicas that die mid-flight complete with `MPI_ERR_PROC_FAILED` at
//! the detector-bounded failure-error time; the replication layer
//! swallows those instead of escalating them to the communicator's error
//! handler — the team-traffic exemption that keeps `MPI_ERRORS_ARE_FATAL`
//! applications alive through replica deaths. Only when *every* replica
//! of a logical rank is dead does the layer surface `ProcFailed`.
//!
//! Liveness beliefs come from the simulator's failure notifications
//! gated by the heartbeat detector's per-pair detection time, so a
//! replica is routed around only once its death would actually have been
//! detected. Every quantity involved (time of failure, detection time,
//! jitter draw) is a pure function of virtual time and the master seed,
//! preserving byte-identical determinism across engines.
//!
//! Messages never match across sequence numbers: each logical channel
//! carries a monotonically increasing sequence encoded in the physical
//! tag, and a framed header carries the application tag for validation.
//! The layer therefore requires per-channel FIFO receive order and
//! explicit sources (no wildcards) — the restriction replication
//! libraries in the TeaMPI family also impose.

use crate::comm::Comm;
use crate::error::MpiError;
use crate::mpi_ctx::MpiCtx;
use crate::p2p;
use crate::request::ReqId;
use crate::state::Detector;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;
use xsim_core::{ctx, Bytes, DetRng, Rank, SimTime};
use xsim_obs::{ids, service as obs};

/// Tag space reserved for replication-layer traffic: below
/// `COLL_TAG_BASE` (1 << 30), disjoint from plain application tags by
/// convention (applications running under replication send through this
/// layer, never raw tags in this range).
pub const REP_TAG_BASE: u32 = 1 << 28;
const REP_SEQ_MASK: u32 = (1 << 28) - 1;

/// Internal application-tag used by the logical collectives.
const REP_COLL_TAG: u32 = 0x0C01_1EC7;

#[inline]
fn rep_tag(seq: u64) -> u32 {
    REP_TAG_BASE | (seq as u32 & REP_SEQ_MASK)
}

// ---------------------------------------------------------------------
// Protection schemes
// ---------------------------------------------------------------------

/// How checkpoint/restart writes its generations (Kohl et al.'s
/// scalable-checkpointing modes, layered on the striped PFS model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptMode {
    /// Every rank writes its own full checkpoint file each generation.
    #[default]
    Full,
    /// Rank-group coalescing: members forward their state to an elected
    /// aggregator (the lowest rank of each `group`-sized block), which
    /// writes one container file per group — trading intra-group
    /// messages for far fewer PFS requests.
    Aggregated {
        /// Ranks per aggregation group (≥ 2).
        group: usize,
    },
    /// In-memory buddy checkpointing: each rank keeps its checkpoint in
    /// a node-local tier on itself *and* its partner (`rank ^ 1`);
    /// nothing touches the PFS unless a rank has no partner (odd world
    /// sizes spill to a full PFS checkpoint). Node-local copies survive
    /// restarts but die with the rank's node.
    Buddy,
    /// Incremental checkpointing: every `full_every`-th generation is a
    /// full checkpoint, the ones between are block diffs against the
    /// immediately preceding generation; restore replays full + diffs.
    Incremental {
        /// Cadence of full checkpoints (≥ 1; 1 degenerates to `Full`).
        full_every: u64,
    },
}

impl CkptMode {
    /// Default aggregation group size for `cr:agg`.
    pub const DEFAULT_GROUP: usize = 8;
    /// Default full-checkpoint cadence for `cr:incr`.
    pub const DEFAULT_FULL_EVERY: u64 = 4;
}

impl fmt::Display for CkptMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptMode::Full => write!(f, "full"),
            CkptMode::Aggregated { group } => write!(f, "agg:{group}"),
            CkptMode::Buddy => write!(f, "buddy"),
            CkptMode::Incremental { full_every } => write!(f, "incr:{full_every}"),
        }
    }
}

/// The resilience scheme protecting a run — the `--protection` /
/// `XSIM_PROTECTION` axis of the FIT × scheme ablation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtectionScheme {
    /// No protection: a failure aborts the run; restart from scratch.
    None,
    /// Checkpoint/restart only (the paper's technique of record).
    CheckpointRestart {
        /// How checkpoint generations are written.
        mode: CkptMode,
    },
    /// Full replication: every logical rank backed by `degree` replicas.
    Replication {
        /// Replication degree (≥ 2).
        degree: usize,
    },
    /// Partial replication: only `critical` logical ranks get `degree`
    /// replicas; the rest stay singletons protected by C/R + ULFM shrink.
    Partial {
        /// Replication degree for the critical set (≥ 2).
        degree: usize,
        /// The protected logical ranks.
        critical: BTreeSet<usize>,
    },
}

/// Error parsing a protection-scheme string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectionParseError(pub String);

impl fmt::Display for ProtectionParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid protection scheme: {}", self.0)
    }
}

impl std::error::Error for ProtectionParseError {}

impl ProtectionScheme {
    /// Whether the scheme replicates any rank.
    pub fn is_replicated(&self) -> bool {
        matches!(
            self,
            ProtectionScheme::Replication { .. } | ProtectionScheme::Partial { .. }
        )
    }

    /// The replication degree (1 for unreplicated schemes).
    pub fn degree(&self) -> usize {
        match self {
            ProtectionScheme::Replication { degree } | ProtectionScheme::Partial { degree, .. } => {
                *degree
            }
            _ => 1,
        }
    }

    /// The checkpoint mode the scheme's C/R component uses
    /// ([`CkptMode::Full`] for every non-`cr` scheme — replication's
    /// fallback checkpoints stay plain full files).
    pub fn ckpt_mode(&self) -> CkptMode {
        match self {
            ProtectionScheme::CheckpointRestart { mode } => *mode,
            _ => CkptMode::Full,
        }
    }
}

/// Parse a critical-set expression: comma-free list of `N` and `A-B`
/// ranges separated by `+` (the scheme string itself is `:`-separated
/// and typically lives inside a comma-separated environment).
fn parse_critical(s: &str) -> Result<BTreeSet<usize>, ProtectionParseError> {
    let mut out = BTreeSet::new();
    for part in s.split('+') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((a, b)) = part.split_once('-') {
            let a: usize = a
                .trim()
                .parse()
                .map_err(|_| ProtectionParseError(format!("bad range start in '{part}'")))?;
            let b: usize = b
                .trim()
                .parse()
                .map_err(|_| ProtectionParseError(format!("bad range end in '{part}'")))?;
            if b < a {
                return Err(ProtectionParseError(format!("empty range '{part}'")));
            }
            out.extend(a..=b);
        } else {
            out.insert(
                part.parse()
                    .map_err(|_| ProtectionParseError(format!("bad rank in '{part}'")))?,
            );
        }
    }
    if out.is_empty() {
        return Err(ProtectionParseError("empty critical set".into()));
    }
    Ok(out)
}

impl FromStr for ProtectionScheme {
    type Err = ProtectionParseError;

    /// Parse `none` | `cr[:MODE[:PARAM]]` | `replication[:DEGREE]` |
    /// `partial[:DEGREE[:SET]]`.
    ///
    /// `MODE` selects the checkpoint mode: `full` (default),
    /// `agg[:GROUP]` (aggregated writes, default group 8),
    /// `buddy` (in-memory partner copies), `incr[:K]` (incremental with
    /// a full checkpoint every `K` generations, default 4) — e.g.
    /// `cr:buddy`, `cr:incr:4`, `cr:agg:16`.
    ///
    /// `SET` is `+`-separated ranks and `A-B` ranges (e.g.
    /// `partial:2:0-3+8`). A partial scheme without a set defaults to
    /// logical rank 0 (callers usually override).
    fn from_str(s: &str) -> Result<Self, ProtectionParseError> {
        let mut parts = s.trim().split(':');
        let kind = parts.next().unwrap_or("").trim().to_ascii_lowercase();
        let scheme = match kind.as_str() {
            "none" => ProtectionScheme::None,
            "cr" | "checkpoint" | "checkpoint-restart" => {
                let mode = match parts.next().map(|m| m.trim().to_ascii_lowercase()) {
                    None => CkptMode::Full,
                    Some(m) => {
                        let param = parts.next();
                        let parse_param = |default: u64| -> Result<u64, ProtectionParseError> {
                            match param {
                                Some(p) => p.trim().parse::<u64>().map_err(|_| {
                                    ProtectionParseError(format!("bad mode parameter in '{s}'"))
                                }),
                                None => Ok(default),
                            }
                        };
                        match m.as_str() {
                            "full" => {
                                if param.is_some() {
                                    return Err(ProtectionParseError(format!(
                                        "cr:full takes no parameter in '{s}'"
                                    )));
                                }
                                CkptMode::Full
                            }
                            "agg" | "aggregated" => {
                                let group = parse_param(CkptMode::DEFAULT_GROUP as u64)? as usize;
                                if group < 2 {
                                    return Err(ProtectionParseError(
                                        "aggregation group must be >= 2".into(),
                                    ));
                                }
                                CkptMode::Aggregated { group }
                            }
                            "buddy" => {
                                if param.is_some() {
                                    return Err(ProtectionParseError(format!(
                                        "cr:buddy takes no parameter in '{s}'"
                                    )));
                                }
                                CkptMode::Buddy
                            }
                            "incr" | "incremental" => {
                                let full_every = parse_param(CkptMode::DEFAULT_FULL_EVERY)?;
                                if full_every == 0 {
                                    return Err(ProtectionParseError(
                                        "incremental cadence must be >= 1".into(),
                                    ));
                                }
                                CkptMode::Incremental { full_every }
                            }
                            other => {
                                return Err(ProtectionParseError(format!(
                                "unknown checkpoint mode '{other}' (expected full|agg|buddy|incr)"
                            )))
                            }
                        }
                    }
                };
                ProtectionScheme::CheckpointRestart { mode }
            }
            "replication" | "rep" | "full" => {
                let degree = match parts.next() {
                    Some(d) => d
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| ProtectionParseError(format!("bad degree in '{s}'")))?,
                    None => 2,
                };
                if degree < 2 {
                    return Err(ProtectionParseError("degree must be >= 2".into()));
                }
                ProtectionScheme::Replication { degree }
            }
            "partial" => {
                let degree = match parts.next() {
                    Some(d) => d
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| ProtectionParseError(format!("bad degree in '{s}'")))?,
                    None => 2,
                };
                if degree < 2 {
                    return Err(ProtectionParseError("degree must be >= 2".into()));
                }
                let critical = match parts.next() {
                    Some(set) => parse_critical(set)?,
                    None => BTreeSet::from([0]),
                };
                ProtectionScheme::Partial { degree, critical }
            }
            other => {
                return Err(ProtectionParseError(format!(
                    "unknown scheme '{other}' (expected none|cr|replication|partial)"
                )))
            }
        };
        if parts.next().is_some() {
            return Err(ProtectionParseError(format!("trailing fields in '{s}'")));
        }
        Ok(scheme)
    }
}

impl fmt::Display for ProtectionScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionScheme::None => write!(f, "none"),
            ProtectionScheme::CheckpointRestart {
                mode: CkptMode::Full,
            } => write!(f, "cr"),
            ProtectionScheme::CheckpointRestart { mode } => write!(f, "cr:{mode}"),
            ProtectionScheme::Replication { degree } => write!(f, "replication:{degree}"),
            ProtectionScheme::Partial { degree, critical } => {
                write!(f, "partial:{degree}:")?;
                for (i, r) in critical.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Heartbeat failure detection
// ---------------------------------------------------------------------

/// The simulated heartbeat protocol: every replica emits a heartbeat to
/// its observers each `period`; a heartbeat's one-way delivery takes
/// `latency` plus a deterministic per-(observer, target, beat) jitter in
/// `[0, jitter_bound]`. An observer declares a target dead when a
/// heartbeat has not arrived `timeout` past its worst-case arrival.
///
/// Everything is a pure function of virtual time and `seed` — no
/// messages are exchanged; the protocol's timing *is* its simulation
/// (the same modeling style as [`crate::state::LossyTransport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Heartbeat emission period.
    pub period: SimTime,
    /// Grace period past the worst-case arrival before declaring death.
    pub timeout: SimTime,
    /// Declared bound on per-heartbeat delivery jitter.
    pub jitter_bound: SimTime,
    /// Base one-way heartbeat latency.
    pub latency: SimTime,
    /// Seed for the jitter draws.
    pub seed: u64,
}

/// Domain separator for heartbeat jitter draws.
const HB_STREAM: u64 = 0x48EA_7B3A_7000_0000;

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: SimTime::from_millis(50),
            timeout: SimTime::from_millis(200),
            jitter_bound: SimTime::from_millis(10),
            latency: SimTime::from_micros(10),
            seed: 0x5EED_BEA7,
        }
    }
}

impl HeartbeatConfig {
    /// The deterministic delivery jitter of heartbeat `k` from `target`
    /// to `observer`, in `[0, jitter_bound]`.
    pub fn jitter(&self, observer: usize, target: usize, k: u64) -> SimTime {
        let tag = HB_STREAM
            ^ (observer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (target as u64).rotate_left(23)
            ^ k.rotate_left(44);
        let mut rng = DetRng::stream(self.seed, tag);
        SimTime(rng.gen_range_u64(self.jitter_bound.as_nanos() + 1))
    }

    /// When heartbeat `k` (emitted at `k · period`) from a live `target`
    /// arrives at `observer`.
    pub fn arrival(&self, observer: usize, target: usize, k: u64) -> SimTime {
        SimTime(k * self.period.as_nanos()) + self.latency + self.jitter(observer, target, k)
    }

    /// The deadline by which heartbeat `k` must have arrived before the
    /// observer declares the target dead. By construction
    /// `arrival(k) ≤ deadline(k)` for a live target — no false positives
    /// as long as the jitter honors its declared bound.
    pub fn deadline(&self, k: u64) -> SimTime {
        SimTime(k * self.period.as_nanos()) + self.latency + self.jitter_bound + self.timeout
    }

    /// When `observer` detects that `target` died at `tof`: the deadline
    /// of the first heartbeat the dead target failed to emit.
    pub fn detection_time(&self, _observer: usize, _target: usize, tof: SimTime) -> SimTime {
        let k_miss = tof.as_nanos().div_ceil(self.period.as_nanos().max(1));
        self.deadline(k_miss)
    }

    /// Worst-case detection latency: `detection_time(tof) - tof` never
    /// exceeds this bound (and is at least `timeout`).
    pub fn detection_bound(&self) -> SimTime {
        self.period + self.latency + self.jitter_bound + self.timeout
    }

    /// The MPI-layer failure detector matching this protocol: pending
    /// operations toward a dead peer error out exactly when the
    /// heartbeat detector would have declared the death, so failover
    /// latency is bounded by [`Self::detection_bound`].
    pub fn detector(&self) -> Detector {
        Detector::Monitor {
            latency: self.detection_bound(),
        }
    }
}

// ---------------------------------------------------------------------
// Logical ↔ physical rank map
// ---------------------------------------------------------------------

/// The deterministic logical↔physical layout of a replicated world.
///
/// Primaries occupy physical ranks `0..logical_size` (identity mapping,
/// so the application's topology placement is undisturbed); shadow
/// replicas are appended after. Under full replication, replica `t > 0`
/// of logical `L` is physical `t · logical_size + L`; under partial
/// replication the shadows of the critical set pack densely after the
/// primaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMap {
    /// Number of logical ranks (the application's world size).
    pub logical_size: usize,
    /// Replication degree of protected ranks.
    pub degree: usize,
    /// Protected logical ranks; `None` = all (full replication).
    pub critical: Option<BTreeSet<usize>>,
    /// Critical set in ascending order for shadow-slot arithmetic.
    crit_order: Vec<usize>,
}

impl ReplicaMap {
    /// Full replication: every logical rank gets `degree` replicas.
    pub fn full(logical_size: usize, degree: usize) -> Result<Self, MpiError> {
        if degree < 2 || logical_size == 0 {
            return Err(MpiError::Invalid("replication needs degree >= 2 and ranks"));
        }
        Ok(ReplicaMap {
            logical_size,
            degree,
            critical: None,
            crit_order: Vec::new(),
        })
    }

    /// Partial replication of `critical` logical ranks only.
    pub fn partial(
        logical_size: usize,
        degree: usize,
        critical: BTreeSet<usize>,
    ) -> Result<Self, MpiError> {
        if degree < 2 || logical_size == 0 {
            return Err(MpiError::Invalid("replication needs degree >= 2 and ranks"));
        }
        if critical.is_empty() || critical.iter().any(|&r| r >= logical_size) {
            return Err(MpiError::Invalid("critical set empty or out of range"));
        }
        let crit_order: Vec<usize> = critical.iter().copied().collect();
        Ok(ReplicaMap {
            logical_size,
            degree,
            critical: Some(critical),
            crit_order,
        })
    }

    /// Build the map a scheme implies; `None` for unreplicated schemes
    /// and for layouts [`full`](Self::full) / [`partial`](Self::partial)
    /// reject (call those for the error).
    pub fn from_scheme(scheme: &ProtectionScheme, logical_size: usize) -> Option<Self> {
        match scheme {
            ProtectionScheme::Replication { degree } => {
                ReplicaMap::full(logical_size, *degree).ok()
            }
            ProtectionScheme::Partial { degree, critical } => {
                ReplicaMap::partial(logical_size, *degree, critical.clone()).ok()
            }
            _ => None,
        }
    }

    /// Number of protected logical ranks.
    fn crit_count(&self) -> usize {
        match &self.critical {
            Some(c) => c.len(),
            None => self.logical_size,
        }
    }

    /// Total physical world size.
    pub fn physical_size(&self) -> usize {
        self.logical_size + (self.degree - 1) * self.crit_count()
    }

    /// Whether a logical rank is replicated.
    pub fn is_protected(&self, logical: usize) -> bool {
        match &self.critical {
            Some(c) => c.contains(&logical),
            None => true,
        }
    }

    /// Replication degree of one logical rank (1 if unprotected).
    pub fn degree_of(&self, logical: usize) -> usize {
        if self.is_protected(logical) {
            self.degree
        } else {
            1
        }
    }

    /// Physical ranks of a logical rank's replicas, in replica order
    /// (index 0 = the primary).
    pub fn replicas(&self, logical: usize) -> Vec<usize> {
        assert!(logical < self.logical_size, "logical rank out of range");
        let mut out = vec![logical];
        if self.is_protected(logical) {
            for t in 1..self.degree {
                out.push(self.shadow_phys(logical, t));
            }
        }
        out
    }

    fn shadow_phys(&self, logical: usize, t: usize) -> usize {
        match &self.critical {
            None => t * self.logical_size + logical,
            Some(_) => {
                let idx = self
                    .crit_order
                    .binary_search(&logical)
                    .expect("protected rank is in the critical set");
                self.logical_size + (t - 1) * self.crit_order.len() + idx
            }
        }
    }

    /// `(logical rank, replica index)` of a physical rank.
    pub fn replica_of(&self, phys: usize) -> (usize, usize) {
        assert!(phys < self.physical_size(), "physical rank out of range");
        if phys < self.logical_size {
            return (phys, 0);
        }
        let s = phys - self.logical_size;
        match &self.critical {
            None => (s % self.logical_size, 1 + s / self.logical_size),
            Some(_) => {
                let n = self.crit_order.len();
                (self.crit_order[s % n], 1 + s / n)
            }
        }
    }
}

// ---------------------------------------------------------------------
// The replicated runtime
// ---------------------------------------------------------------------

/// One posted logical receive: the physical copies awaited (the replicas
/// believed dead at post time were already routed around).
#[derive(Debug)]
pub struct PendingRecv {
    app_tag: u32,
    seq: u64,
    /// `(replica physical rank, posted request)` in replica order.
    parts: Vec<(usize, ReqId)>,
}

/// A logical (replicated) request handle, returned by
/// [`Replicated::isend_logical`]/[`Replicated::irecv_logical`].
#[derive(Debug)]
pub enum RepReq {
    /// Outstanding physical send copies.
    Send(Vec<ReqId>),
    /// Outstanding logical receive.
    Recv(PendingRecv),
}

/// The application-facing replicated context: logical-rank communication
/// with transparent failover, layered over the raw world-communicator
/// message path.
pub struct Replicated {
    /// The physical MPI context.
    pub mpi: MpiCtx,
    /// The logical↔physical layout.
    pub map: ReplicaMap,
    /// The heartbeat detector model.
    pub hb: HeartbeatConfig,
    /// This process's logical rank.
    pub logical_rank: usize,
    /// This process's replica index within its team (0 = primary).
    pub replica: usize,
    /// Per-destination-logical send sequence numbers.
    send_seq: BTreeMap<usize, u64>,
    /// Per-source-logical receive sequence numbers.
    recv_seq: BTreeMap<usize, u64>,
    /// Physical replicas already counted as detections.
    detected: BTreeSet<usize>,
    /// Physical replicas already counted as failovers.
    failed_over: BTreeSet<usize>,
}

impl Replicated {
    /// Attach to the current VP. The builder's world size must equal the
    /// map's physical size.
    pub fn attach(mpi: MpiCtx, map: ReplicaMap, hb: HeartbeatConfig) -> Result<Self, MpiError> {
        if mpi.size != map.physical_size() {
            return Err(MpiError::Invalid(
                "world size does not match the replica map's physical size",
            ));
        }
        let (logical_rank, replica) = map.replica_of(mpi.rank);
        Ok(Replicated {
            mpi,
            map,
            hb,
            logical_rank,
            replica,
            send_seq: BTreeMap::new(),
            recv_seq: BTreeMap::new(),
            detected: BTreeSet::new(),
            failed_over: BTreeSet::new(),
        })
    }

    /// The application's (logical) world size.
    pub fn logical_size(&self) -> usize {
        self.map.logical_size
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.mpi.now()
    }

    /// The world communicator (for escalation paths: revoke/shrink).
    pub fn world(&self) -> Comm {
        self.mpi.world()
    }

    /// Whether a dead physical rank is *believed* dead here: its failure
    /// notification has arrived and the heartbeat detector's per-pair
    /// detection time has passed.
    fn believed_failed(&self, phys: usize) -> Option<SimTime> {
        let now = self.now();
        self.mpi
            .known_failures()
            .into_iter()
            .find(|(r, _)| r.idx() == phys)
            .map(|(_, tof)| tof)
            .filter(|&tof| now >= self.hb.detection_time(self.mpi.rank, phys, tof))
    }

    /// Record a detection and (if the dead replica was a copy source we
    /// routed around) a failover, with the failover latency histogram
    /// sample. Deduplicated per dead physical rank.
    fn note_routed_around(&mut self, phys: usize, tof: SimTime) {
        let now = self.now();
        let fresh_detect = self.detected.insert(phys);
        let fresh_failover = self.failed_over.insert(phys);
        if !(fresh_detect || fresh_failover) {
            return;
        }
        ctx::with_kernel(|k, _me| {
            if !obs::enabled(k) {
                return;
            }
            if fresh_detect {
                obs::record(k, ids::REP_DETECTIONS, 1);
            }
            if fresh_failover {
                obs::record(k, ids::REP_FAILOVERS, 1);
                obs::record(k, ids::REP_FAILOVER_NS, (now - tof).as_nanos());
            }
        });
    }

    fn record_copies(&self, logical_msgs: u64, copies: u64) {
        ctx::with_kernel(|k, _me| {
            if obs::enabled(k) {
                obs::record(k, ids::REP_MSGS, logical_msgs);
                obs::record(k, ids::REP_COPIES, copies);
            }
        });
    }

    fn frame(app_tag: u32, seq: u64, data: &Bytes) -> Bytes {
        let mut buf = Vec::with_capacity(12 + data.len());
        buf.extend_from_slice(&app_tag.to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(data);
        buf.into()
    }

    fn unframe(app_tag: u32, seq: u64, data: &Bytes) -> Result<Bytes, MpiError> {
        if data.len() < 12 {
            return Err(MpiError::Invalid("truncated replication frame"));
        }
        let got_tag = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
        let got_seq = u64::from_le_bytes(data[4..12].try_into().expect("8 bytes"));
        if got_tag != app_tag || got_seq != seq {
            return Err(MpiError::Invalid("replication channel order violation"));
        }
        Ok(data.slice(12..))
    }

    // -----------------------------------------------------------------
    // Logical point-to-point
    // -----------------------------------------------------------------

    /// Post a logical send: one physical copy to every believed-live
    /// replica of `dst_logical`.
    pub async fn isend_logical(
        &mut self,
        dst_logical: usize,
        tag: u32,
        data: Bytes,
    ) -> Result<RepReq, MpiError> {
        if dst_logical >= self.map.logical_size {
            return Err(MpiError::Invalid("logical destination out of range"));
        }
        if tag >= REP_TAG_BASE {
            return Err(MpiError::Invalid("application tag in reserved range"));
        }
        let seq = {
            let c = self.send_seq.entry(dst_logical).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let framed = Self::frame(tag, seq, &data);
        let world = self.mpi.world().id;
        let mut reqs = Vec::new();
        for phys in self.map.replicas(dst_logical) {
            if let Some(tof) = self.believed_failed(phys) {
                self.note_routed_around(phys, tof);
                continue;
            }
            reqs.push(p2p::isend_raw(world, phys, rep_tag(seq), framed.clone()).await?);
        }
        self.record_copies(1, reqs.len() as u64);
        Ok(RepReq::Send(reqs))
    }

    /// Post a logical receive for the next message on the
    /// `src_logical → self` channel.
    pub fn irecv_logical(&mut self, src_logical: usize, tag: u32) -> Result<RepReq, MpiError> {
        if src_logical >= self.map.logical_size {
            return Err(MpiError::Invalid("logical source out of range"));
        }
        let seq = {
            let c = self.recv_seq.entry(src_logical).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let world = self.mpi.world().id;
        let mut parts = Vec::new();
        for phys in self.map.replicas(src_logical) {
            if let Some(tof) = self.believed_failed(phys) {
                self.note_routed_around(phys, tof);
                continue;
            }
            parts.push((phys, p2p::irecv_raw(world, Some(phys), Some(rep_tag(seq)))?));
        }
        if parts.is_empty() {
            // Every replica of the source is dead: the logical rank is
            // unrecoverable — surface the process failure (partial-mode
            // fallback to ULFM shrink + C/R).
            let (dead, tof) = self.dead_team_witness(src_logical);
            return Err(MpiError::ProcFailed {
                rank: Rank::new(dead),
                time_of_failure: tof,
            });
        }
        Ok(RepReq::Recv(PendingRecv {
            app_tag: tag,
            seq,
            parts,
        }))
    }

    /// The highest-`tof` dead replica of a fully-dead logical rank (for
    /// error reporting).
    fn dead_team_witness(&self, logical: usize) -> (usize, SimTime) {
        let failures = self.mpi.known_failures();
        let mut best = (self.map.replicas(logical)[0], SimTime::ZERO);
        for phys in self.map.replicas(logical) {
            if let Some((_, tof)) = failures.iter().find(|(r, _)| r.idx() == phys) {
                if *tof >= best.1 {
                    best = (phys, *tof);
                }
            }
        }
        best
    }

    /// Wait for one logical request. Sends complete when every copy is
    /// delivered (copies to replicas that died in flight are forgiven);
    /// receives complete with the lowest-replica-index surviving copy.
    pub async fn wait_logical(&mut self, req: RepReq) -> Result<Option<Bytes>, MpiError> {
        match req {
            RepReq::Send(reqs) => {
                for r in reqs {
                    match p2p::wait_raw(r).await {
                        Ok(_) => {}
                        // The copy's target died: its loss is harmless —
                        // the team-traffic exemption from the error-
                        // handler escalation path.
                        Err(MpiError::ProcFailed {
                            rank,
                            time_of_failure,
                        }) => {
                            self.note_routed_around(rank.idx(), time_of_failure);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(None)
            }
            RepReq::Recv(pending) => {
                let mut winner: Option<Bytes> = None;
                let mut last_err: Option<MpiError> = None;
                for (phys, r) in pending.parts {
                    match p2p::wait_raw(r).await {
                        Ok(out) => {
                            if winner.is_none() {
                                let msg = out.ok_or(MpiError::Invalid("recv without payload"))?;
                                winner =
                                    Some(Self::unframe(pending.app_tag, pending.seq, &msg.data)?);
                            }
                        }
                        Err(MpiError::ProcFailed {
                            rank: _,
                            time_of_failure,
                        }) => {
                            self.note_routed_around(phys, time_of_failure);
                            last_err = Some(MpiError::ProcFailed {
                                rank: Rank::new(phys),
                                time_of_failure,
                            });
                        }
                        Err(e) => return Err(e),
                    }
                }
                match winner {
                    Some(data) => Ok(Some(data)),
                    // All posted copies failed: the source team died
                    // after post — surface the logical failure.
                    None => Err(last_err.unwrap_or(MpiError::Invalid("empty logical recv"))),
                }
            }
        }
    }

    /// Wait for a batch of logical requests, in order. Returns the
    /// received payloads (None for sends).
    pub async fn waitall_logical(
        &mut self,
        reqs: Vec<RepReq>,
    ) -> Result<Vec<Option<Bytes>>, MpiError> {
        let mut out = Vec::with_capacity(reqs.len());
        for r in reqs {
            out.push(self.wait_logical(r).await?);
        }
        Ok(out)
    }

    /// Blocking logical send.
    pub async fn send(
        &mut self,
        dst_logical: usize,
        tag: u32,
        data: Bytes,
    ) -> Result<(), MpiError> {
        let req = self.isend_logical(dst_logical, tag, data).await?;
        self.wait_logical(req).await.map(|_| ())
    }

    /// Blocking logical receive (channel-FIFO, explicit source).
    pub async fn recv(&mut self, src_logical: usize, tag: u32) -> Result<Bytes, MpiError> {
        let req = self.irecv_logical(src_logical, tag)?;
        self.wait_logical(req)
            .await?
            .ok_or(MpiError::Invalid("logical recv returned no payload"))
    }

    // -----------------------------------------------------------------
    // Logical collectives (linear algorithms over logical ranks)
    // -----------------------------------------------------------------

    /// Logical barrier: gather-to-0 then release, linear.
    pub async fn barrier(&mut self) -> Result<(), MpiError> {
        let n = self.logical_size();
        if self.logical_rank == 0 {
            for src in 1..n {
                let _ = self.recv(src, REP_COLL_TAG).await?;
            }
            for dst in 1..n {
                self.send(dst, REP_COLL_TAG, Bytes::new()).await?;
            }
        } else {
            self.send(0, REP_COLL_TAG, Bytes::new()).await?;
            let _ = self.recv(0, REP_COLL_TAG).await?;
        }
        Ok(())
    }

    /// Logical broadcast from logical `root`, linear.
    pub async fn bcast(&mut self, root: usize, data: Bytes) -> Result<Bytes, MpiError> {
        let n = self.logical_size();
        if self.logical_rank == root {
            for dst in (0..n).filter(|&d| d != root) {
                self.send(dst, REP_COLL_TAG, data.clone()).await?;
            }
            Ok(data)
        } else {
            self.recv(root, REP_COLL_TAG).await
        }
    }

    /// Logical all-reduce of a `u64` vector with element-wise `max`
    /// (the agreement collective the replicated heat solver needs).
    pub async fn allreduce_u64_max(&mut self, vals: &[u64]) -> Result<Vec<u64>, MpiError> {
        let n = self.logical_size();
        let encode = |v: &[u64]| {
            let mut b = Vec::with_capacity(v.len() * 8);
            for x in v {
                b.extend_from_slice(&x.to_le_bytes());
            }
            b.into()
        };
        let decode = |d: &Bytes| -> Result<Vec<u64>, MpiError> {
            if !d.len().is_multiple_of(8) {
                return Err(MpiError::Invalid("corrupt u64 reduce payload"));
            }
            Ok(d.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect())
        };
        let reduced = if self.logical_rank == 0 {
            let mut acc = vals.to_vec();
            for src in 1..n {
                let part = decode(&self.recv(src, REP_COLL_TAG).await?)?;
                if part.len() != acc.len() {
                    return Err(MpiError::Invalid("reduce length mismatch"));
                }
                for (a, p) in acc.iter_mut().zip(part) {
                    *a = (*a).max(p);
                }
            }
            acc
        } else {
            self.send(0, REP_COLL_TAG, encode(vals)).await?;
            Vec::new()
        };
        let out = self.bcast(0, encode(&reduced)).await?;
        decode(&out)
    }

    // -----------------------------------------------------------------
    // Lifecycle
    // -----------------------------------------------------------------

    /// Mark a clean exit and account the heartbeats this replica emitted
    /// over the run (team-internal, `floor(now / period)` beats to each
    /// of its `degree − 1` teammates).
    pub fn finalize(&self) {
        let beats = self.now().as_nanos() / self.hb.period.as_nanos().max(1);
        let teammates = (self.map.degree_of(self.logical_rank) - 1) as u64;
        ctx::with_kernel(|k, _me| {
            if obs::enabled(k) && beats * teammates > 0 {
                obs::record(k, ids::REP_HEARTBEATS, beats * teammates);
            }
        });
        self.mpi.finalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_parsing_round_trips() {
        assert_eq!(
            "none".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::None
        );
        assert_eq!(
            "cr".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::CheckpointRestart {
                mode: CkptMode::Full
            }
        );
        assert_eq!(
            "cr:full".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::CheckpointRestart {
                mode: CkptMode::Full
            }
        );
        assert_eq!(
            "cr:agg".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::CheckpointRestart {
                mode: CkptMode::Aggregated { group: 8 }
            }
        );
        assert_eq!(
            "cr:agg:16".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::CheckpointRestart {
                mode: CkptMode::Aggregated { group: 16 }
            }
        );
        assert_eq!(
            "cr:buddy".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::CheckpointRestart {
                mode: CkptMode::Buddy
            }
        );
        assert_eq!(
            "cr:incr".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::CheckpointRestart {
                mode: CkptMode::Incremental { full_every: 4 }
            }
        );
        assert_eq!(
            "cr:incr:6".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::CheckpointRestart {
                mode: CkptMode::Incremental { full_every: 6 }
            }
        );
        assert_eq!(
            "replication".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::Replication { degree: 2 }
        );
        assert_eq!(
            "replication:3".parse::<ProtectionScheme>().unwrap(),
            ProtectionScheme::Replication { degree: 3 }
        );
        let p: ProtectionScheme = "partial:2:0-2+5".parse().unwrap();
        assert_eq!(
            p,
            ProtectionScheme::Partial {
                degree: 2,
                critical: BTreeSet::from([0, 1, 2, 5])
            }
        );
        // Display round-trips.
        for s in [
            "none",
            "cr",
            "cr:agg:8",
            "cr:buddy",
            "cr:incr:4",
            "replication:2",
            "partial:2:0-2+5",
        ] {
            let parsed: ProtectionScheme = s.parse().unwrap();
            assert_eq!(
                parsed.to_string().parse::<ProtectionScheme>().unwrap(),
                parsed
            );
        }
        assert!("replication:1".parse::<ProtectionScheme>().is_err());
        assert!("bogus".parse::<ProtectionScheme>().is_err());
        assert!("partial:2:".parse::<ProtectionScheme>().is_err());
        assert!("partial:2:3-1".parse::<ProtectionScheme>().is_err());
        assert!("replication:2:extra".parse::<ProtectionScheme>().is_err());
        assert!("cr:bogus".parse::<ProtectionScheme>().is_err());
        assert!("cr:agg:1".parse::<ProtectionScheme>().is_err());
        assert!("cr:incr:0".parse::<ProtectionScheme>().is_err());
        assert!("cr:full:3".parse::<ProtectionScheme>().is_err());
        assert!("cr:buddy:2".parse::<ProtectionScheme>().is_err());
        assert!("cr:incr:4:extra".parse::<ProtectionScheme>().is_err());
    }

    #[test]
    fn full_map_layout() {
        let m = ReplicaMap::full(4, 2).unwrap();
        assert_eq!(m.physical_size(), 8);
        assert_eq!(m.replicas(0), vec![0, 4]);
        assert_eq!(m.replicas(3), vec![3, 7]);
        for phys in 0..8 {
            let (l, t) = m.replica_of(phys);
            assert_eq!(m.replicas(l)[t], phys);
        }
        assert!(m.is_protected(2));
        assert_eq!(m.degree_of(2), 2);
    }

    #[test]
    fn partial_map_layout() {
        let m = ReplicaMap::partial(4, 2, BTreeSet::from([1, 3])).unwrap();
        assert_eq!(m.physical_size(), 6);
        assert_eq!(m.replicas(0), vec![0]);
        assert_eq!(m.replicas(1), vec![1, 4]);
        assert_eq!(m.replicas(3), vec![3, 5]);
        assert_eq!(m.replica_of(4), (1, 1));
        assert_eq!(m.replica_of(5), (3, 1));
        assert!(!m.is_protected(0));
        assert_eq!(m.degree_of(0), 1);
        assert_eq!(m.degree_of(3), 2);
        assert!(ReplicaMap::partial(4, 2, BTreeSet::from([9])).is_err());
        let out_of_range = "partial:2:9".parse().unwrap();
        assert_eq!(ReplicaMap::from_scheme(&out_of_range, 4), None, "no panic");
    }

    #[test]
    fn triple_partial_shadow_slots_are_disjoint() {
        let m = ReplicaMap::partial(6, 3, BTreeSet::from([0, 2, 5])).unwrap();
        assert_eq!(m.physical_size(), 12);
        let mut seen = BTreeSet::new();
        for l in 0..6 {
            for p in m.replicas(l) {
                assert!(seen.insert(p), "physical rank {p} assigned twice");
                assert_eq!(m.replica_of(p).0, l);
            }
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn heartbeat_detection_is_bounded_and_sound() {
        let hb = HeartbeatConfig::default();
        // Live-target arrivals never cross their deadlines.
        for k in 0..64 {
            assert!(hb.arrival(3, 7, k) <= hb.deadline(k), "beat {k}");
        }
        // Detection happens after death, within the bound.
        for tof_ms in [1u64, 49, 50, 51, 499, 1000] {
            let tof = SimTime::from_millis(tof_ms);
            let d = hb.detection_time(0, 1, tof);
            assert!(d >= tof + hb.timeout, "tof {tof_ms} ms: detected too early");
            assert!(d <= tof + hb.detection_bound(), "tof {tof_ms} ms: too late");
        }
    }

    #[test]
    fn rep_tags_stay_in_user_space() {
        assert!(rep_tag(u64::MAX) < crate::collective::COLL_TAG_BASE);
        assert!(rep_tag(0) >= REP_TAG_BASE);
    }
}
