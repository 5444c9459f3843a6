//! Per-rank MPI state, the kernel service holding it, and the
//! failure-notification machinery (paper §IV-B/C).

use crate::comm::{CommId, CommTable, CommView};
use crate::error::{ErrHandler, MpiError};
use crate::msg::{Envelope, MatchQueues};
use crate::request::{Pending, ReqId, ReqKind, Request, RequestTable};
use crate::smallmap::SmallMap;
use std::ops::Range;
use std::sync::Arc;
use xsim_core::event::{Action, Call};
use xsim_core::{DetRng, Kernel, Rank, SimTime};
use xsim_net::{NetClass, NetModel};
use xsim_obs::ids;
use xsim_obs::metrics::{MetricSet, SIZE_BUCKETS};
use xsim_proc::ProcModel;

/// How simulated MPI process failures are detected (paper §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// "The currently implemented simulated MPI process failure detection
    /// is purely based on simulated network communication timeouts":
    /// pending operations towards a failed peer error at
    /// `max(post, tof) + timeout(network class)`.
    Timeout,
    /// A simulated HPC monitoring system "that notifies the MPI layer
    /// about process failures" (the capability the paper reports as
    /// under development): every rank learns of the failure after
    /// `latency` and pending operations error as soon as the
    /// notification arrives.
    Monitor {
        /// Failure-report latency of the monitoring system.
        latency: SimTime,
    },
}

/// Which collective algorithms the MPI layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollAlgo {
    /// Linear algorithms — the paper's simulated system configuration
    /// ("MPI collectives utilize linear algorithms", §V-C).
    Linear,
    /// Log-P schedules: binomial-tree barrier/bcast/reduce/allreduce
    /// and ring allgather — O(log P) (resp. O(P) pipelined) rounds
    /// instead of a serialized root fan-out.
    Tree,
}

/// Outcome of one transmission attempt over a lossy transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxOutcome {
    /// The attempt reached the destination NIC intact.
    Delivered,
    /// The attempt was lost on the wire (no payload arrives).
    Dropped,
    /// The attempt arrived but failed the receiver's integrity check
    /// (CRC/checksum) and was discarded — indistinguishable from a drop
    /// to the protocol, but counted separately.
    Corrupted,
}

/// A lossy simulated transport: every transmission attempt may be
/// dropped or corrupted, and the simulated NIC retransmits with
/// exponential backoff up to a bounded retry budget. When the budget is
/// exhausted (or the network is partitioned) the peer is escalated into
/// the regular process-failure path, so ULFM/abort/checkpoint recovery
/// compose unchanged.
///
/// All loss decisions are drawn from counter-based deterministic
/// streams keyed by the run's seed and `(src, dst, seq, attempt)`: the
/// same seed produces the same drops regardless of worker count or
/// event interleaving.
#[derive(Debug, Clone, Copy)]
pub struct LossyTransport {
    /// Probability that one attempt is dropped in transit.
    pub drop_prob: f64,
    /// Probability that one attempt arrives corrupted (discarded at the
    /// receiver after the integrity check).
    pub corrupt_prob: f64,
    /// Retransmission budget: after `1 + max_retries` failed attempts
    /// the destination is declared unreachable.
    pub max_retries: u32,
    /// Backoff before retry `k` is `backoff_base << k` (exponential).
    pub backoff_base: SimTime,
    /// Restrict loss to messages to or from this world rank (`None` =
    /// every system-class message is lossy). Tests use this to keep
    /// recovery traffic between survivors reliable.
    pub victim: Option<Rank>,
}

impl Default for LossyTransport {
    fn default() -> Self {
        LossyTransport {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            max_retries: 8,
            backoff_base: SimTime::from_micros(10),
            victim: None,
        }
    }
}

/// Stream-tag domain separator for loss draws (see `DetRng::stream`).
const LOSSY_STREAM: u64 = 0x10_55_1E_57;

impl LossyTransport {
    /// Whether loss applies to a message between `src` and `dst`.
    pub(crate) fn applies(&self, src: Rank, dst: Rank) -> bool {
        self.victim.is_none_or(|v| v == src || v == dst)
    }

    /// The fate of transmission attempt `attempt` of message `seq` from
    /// `src` to `dst` — a pure function of the run's `seed` and the
    /// identifying tuple, so both engines and any shard layout agree on
    /// it.
    pub(crate) fn tx_outcome(
        &self,
        seed: u64,
        src: Rank,
        dst: Rank,
        seq: u64,
        attempt: u32,
    ) -> TxOutcome {
        if self.drop_prob <= 0.0 && self.corrupt_prob <= 0.0 {
            return TxOutcome::Delivered;
        }
        let tag = (src.idx() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((dst.idx() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(seq.wrapping_mul(0x1656_67B1_9E37_79F9))
            .wrapping_add(attempt as u64)
            ^ LOSSY_STREAM;
        let u = DetRng::stream(seed, tag).gen_f64();
        if u < self.drop_prob {
            TxOutcome::Dropped
        } else if u < self.drop_prob + self.corrupt_prob {
            TxOutcome::Corrupted
        } else {
            TxOutcome::Delivered
        }
    }

    /// Backoff delay preceding retransmission attempt `attempt + 1`.
    pub(crate) fn backoff(&self, attempt: u32) -> SimTime {
        SimTime(
            self.backoff_base
                .as_nanos()
                .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX)),
        )
    }
}

/// Immutable, shared configuration of the simulated MPI world. World
/// size, seed and verbosity are the core's (`Kernel::cfg`).
pub struct MpiWorld {
    /// The world group, `Rank(0)..Rank(n_ranks)`: built once per run and
    /// shared by every rank's `MPI_COMM_WORLD` view on every shard.
    pub members: Arc<Vec<Rank>>,
    /// The network model.
    pub net: NetModel,
    /// The processor model.
    pub proc: ProcModel,
    /// Default error handler for `MPI_COMM_WORLD` — the MPI default is
    /// `MPI_ERRORS_ARE_FATAL` (paper §IV-D).
    pub default_errhandler: ErrHandler,
    /// The failure detector in effect.
    pub detector: Detector,
    /// Collective algorithm selection.
    pub coll_algo: CollAlgo,
    /// Lossy-transport configuration; `None` (the default) keeps the
    /// reliable transport with no retransmission machinery.
    pub lossy: Option<LossyTransport>,
}

impl MpiWorld {
    /// Virtual delay of simulator-internal broadcast notifications
    /// (failure/abort/revoke): the network's minimum link latency, which
    /// is the engine lookahead, so every notice clears the window bound.
    pub(crate) fn notify_delay(&self) -> SimTime {
        self.net.min_latency()
    }

    /// When ranks learn of a failure that occurred at `tof`.
    pub(crate) fn notification_time(&self, tof: SimTime) -> SimTime {
        match self.detector {
            Detector::Timeout => tof + self.notify_delay(),
            Detector::Monitor { latency } => tof + latency.max(self.notify_delay()),
        }
    }

    /// When a pending operation between `me` and the failed `dead`
    /// (posted at `post`) completes with `MPI_ERR_PROC_FAILED`.
    pub(crate) fn failure_error_time(
        &self,
        me: Rank,
        dead: Rank,
        post: SimTime,
        tof: SimTime,
    ) -> SimTime {
        match self.detector {
            Detector::Timeout => post.max(tof) + self.net.timeout(me, dead),
            Detector::Monitor { .. } => post.max(self.notification_time(tof)),
        }
    }
}

/// Counters aggregated across shards, surfaced in
/// [`crate::builder::RunReport`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MpiStats {
    /// Point-to-point sends posted.
    pub sends: u64,
    /// Point-to-point receives posted.
    pub recvs: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Collective operations started.
    pub collectives: u64,
    /// Requests that completed with `MPI_ERR_PROC_FAILED`.
    pub proc_failed_errors: u64,
}

impl MpiStats {
    pub(crate) fn merge(&mut self, o: &MpiStats) {
        self.sends += o.sends;
        self.recvs += o.recvs;
        self.bytes_sent += o.bytes_sent;
        self.collectives += o.collectives;
        self.proc_failed_errors += o.proc_failed_errors;
    }
}

/// One entry of a rank's failed-process list.
#[derive(Debug, Clone, Copy)]
struct FailedPeer {
    rank: Rank,
    tof: SimTime,
    /// Acknowledged via `MPI_Comm_failure_ack`.
    acked: bool,
}

/// A rank's list of known-failed processes and their times of failure
/// — "each simulated MPI process maintains its own list of failed
/// simulated MPI processes" (paper §IV-B) — with the ULFM
/// acknowledgement mark of each. Sorted by rank; empty (no heap) until
/// the first failure notice.
#[derive(Debug, Default)]
pub(crate) struct FailedList(Vec<FailedPeer>);

impl FailedList {
    fn position(&self, rank: Rank) -> Result<usize, usize> {
        self.0.binary_search_by_key(&rank, |f| f.rank)
    }

    /// Time of failure of `rank`, if it is known to have failed.
    pub(crate) fn get(&self, rank: Rank) -> Option<SimTime> {
        self.position(rank).ok().map(|i| self.0[i].tof)
    }

    /// Record a failure. Returns `false` (and changes nothing) if the
    /// rank was already listed.
    pub(crate) fn insert(&mut self, rank: Rank, tof: SimTime) -> bool {
        match self.position(rank) {
            Ok(_) => false,
            Err(i) => {
                let acked = false; // until the next `MPI_Comm_failure_ack`
                self.0.insert(i, FailedPeer { rank, tof, acked });
                true
            }
        }
    }

    /// Acknowledge every failure listed so far.
    pub(crate) fn ack_all(&mut self) {
        self.0.iter_mut().for_each(|f| f.acked = true);
    }

    /// Known failures in ascending rank order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Rank, SimTime)> + '_ {
        self.0.iter().map(|f| (f.rank, f.tof))
    }

    /// Acknowledged failures in ascending rank order.
    pub(crate) fn acked(&self) -> impl Iterator<Item = Rank> + '_ {
        self.0.iter().filter(|f| f.acked).map(|f| f.rank)
    }

    /// The lowest-ranked failure not yet acknowledged (drives wildcard
    /// receive failures, paper §IV-C / ULFM semantics).
    pub(crate) fn first_unacked(&self) -> Option<(Rank, SimTime)> {
        self.0.iter().find(|f| !f.acked).map(|f| (f.rank, f.tof))
    }
}

/// The MPI state of one simulated rank.
///
/// Inline is only what a communicating rank touches on every operation:
/// its matching queues and requests (each with room for its first
/// entry, so a blocking operation follows no pointer), the world
/// communicator's collective counter and the completion feed.
/// Fault-path and configuration-gated state lives in one cold record
/// boxed on first use, so a rank that never meets a failure, an abort, a
/// revoke, a derived communicator, an error-handler override,
/// `serialize_recv` or a lossy transport pays a null pointer for all of
/// it. The containers give their memory back when they drain (DESIGN.md
/// §2.5 has the budget).
pub struct RankMpi {
    /// This rank.
    pub me: Rank,
    /// Whether `finalize` was called.
    pub finalized: bool,
    /// Matching queues (posted receives / unexpected messages).
    pub queues: MatchQueues,
    /// Outstanding requests.
    pub reqs: RequestTable,
    /// Collectives started on `MPI_COMM_WORLD` (a derived communicator
    /// counts in its [`CommTable`] entry).
    world_coll_seq: u64,
    /// Request ids completed since the owning VP last cleared the feed;
    /// `Some` only while a `waitall`/`waitany` of this rank is watching.
    /// Lets those re-check only fresh completions instead of rescanning
    /// every outstanding request (O(P²) at a linear collective root
    /// otherwise); a program that only ever blocks in `wait` records
    /// nothing. Boxed on purpose: 8 inline bytes instead of 24 for
    /// state that exists only during such a wait, in a struct every
    /// idle rank pays for. The box is lent by the shard's pool
    /// ([`MpiService::watch_completions`]) and returned when the wait
    /// ends.
    #[allow(clippy::box_collection)]
    completion_feed: Option<Box<Vec<u64>>>,
    /// Everything else; `None` until first written.
    cold: Option<Box<RankCold>>,
}

/// The part of a rank's MPI state that most ranks never write.
#[derive(Debug)]
struct RankCold {
    /// This rank's list of known-failed processes.
    failed: FailedList,
    /// World revoke and handler override, derived communicators.
    comms: CommTable,
    /// Receiver-NIC drain horizon for the optional contention model
    /// (`NetModel::serialize_recv`): no message completion at this rank
    /// may precede it.
    recv_free: SimTime,
    /// Per-destination send sequence numbers, counted only under a lossy
    /// transport, whose draws they key.
    send_seq: SmallMap<Rank, u64>,
}

impl RankCold {
    const EMPTY: RankCold = RankCold {
        failed: FailedList(Vec::new()),
        comms: CommTable::new(),
        recv_free: SimTime::ZERO,
        send_seq: SmallMap::new(),
    };
}

/// What a rank without a cold record reads.
static NO_COLD: RankCold = RankCold::EMPTY;

impl RankMpi {
    fn new(me: Rank) -> Self {
        RankMpi {
            me,
            finalized: false,
            queues: MatchQueues::default(),
            reqs: RequestTable::default(),
            world_coll_seq: 0,
            completion_feed: None,
            cold: None,
        }
    }

    fn cold(&self) -> &RankCold {
        self.cold.as_deref().unwrap_or(&NO_COLD)
    }

    fn cold_mut(&mut self) -> &mut RankCold {
        self.cold.get_or_insert_with(|| Box::new(RankCold::EMPTY))
    }

    /// This rank's list of known-failed processes.
    pub(crate) fn failed(&self) -> &FailedList {
        &self.cold().failed
    }

    pub(crate) fn failed_mut(&mut self) -> &mut FailedList {
        &mut self.cold_mut().failed
    }

    /// This rank's communicator table.
    pub(crate) fn comms(&self) -> &CommTable {
        &self.cold().comms
    }

    pub(crate) fn comms_mut(&mut self) -> &mut CommTable {
        &mut self.cold_mut().comms
    }

    /// Advance communicator `id`'s collective counter; `None` for an id
    /// this rank does not know.
    pub(crate) fn next_coll_seq(&mut self, id: CommId) -> Option<u64> {
        let seq = if id == CommId::WORLD {
            &mut self.world_coll_seq
        } else {
            self.cold.as_mut()?.comms.coll_seq_mut(id)?
        };
        *seq += 1;
        Some(*seq)
    }

    /// Serialize a receive completion behind this rank's previous one
    /// (`NetModel::serialize_recv`): it lands `overhead` after the later
    /// of `base` and the drain horizon, which moves there.
    pub(crate) fn drain_recv(&mut self, base: SimTime, overhead: SimTime) -> SimTime {
        let cold = self.cold_mut();
        cold.recv_free = base.max(cold.recv_free) + overhead;
        cold.recv_free
    }

    /// Next send sequence number towards `dst` (lossy transport only).
    pub(crate) fn next_send_seq(&mut self, dst: Rank) -> u64 {
        self.cold_mut().send_seq.next(dst)
    }

    /// Complete the pending request `id` with `err` at `at`: its posted
    /// receive (if any) leaves the matching queue, and a watching
    /// `waitall`/`waitany` is told. Returns `false` (and changes
    /// nothing) if the request is unknown or already complete.
    pub(crate) fn fail_request(&mut self, id: ReqId, at: SimTime, err: MpiError) -> bool {
        let Some(&Pending {
            kind, comm, peer, ..
        }) = self.reqs.get(id).and_then(Request::pending)
        else {
            return false;
        };
        if !self.reqs.complete(id, at, Err(err)) {
            return false;
        }
        if kind == ReqKind::Recv {
            self.queues.cancel_posted(id.0, comm, peer);
        }
        self.push_completion(id.0);
        true
    }

    /// Record a completed request id, if a `waitall`/`waitany` watches.
    pub(crate) fn push_completion(&mut self, id: u64) {
        if let Some(feed) = &mut self.completion_feed {
            feed.push(id);
        }
    }

    /// The `i`-th id recorded since the feed was last cleared, in
    /// completion order.
    pub(crate) fn completion(&self, i: usize) -> Option<u64> {
        self.completion_feed.as_ref()?.get(i).copied()
    }

    /// Forget the recorded ids, keeping the feed on and its buffer.
    pub(crate) fn clear_completions(&mut self) {
        if let Some(feed) = &mut self.completion_feed {
            feed.clear();
        }
    }
}

/// Per-shard busy-time accounting for the power model (paper §III-A
/// item (4)). Installed by the builder when a power model is configured;
/// `MpiCtx::compute` adds each compute phase's duration, and the
/// builder's shutdown hook copies the totals out.
#[derive(Debug)]
pub(crate) struct PowerService {
    /// Busy virtual time of each owned rank, indexed `rank − base`.
    busy: Vec<SimTime>,
    /// First owned world rank.
    base: usize,
}

impl PowerService {
    /// Service for the shard owning `owned`.
    pub(crate) fn new(owned: Range<usize>) -> Self {
        PowerService {
            busy: vec![SimTime::ZERO; owned.len()],
            base: owned.start,
        }
    }

    /// Add busy time to an owned rank.
    pub(crate) fn add_busy(&mut self, rank: Rank, d: SimTime) {
        self.busy[rank.idx() - self.base] += d;
    }

    /// Add the owned ranks' busy times into the world-rank-indexed
    /// `total`.
    pub(crate) fn add_into(&self, total: &mut [SimTime]) {
        for (slot, b) in total[self.base..].iter_mut().zip(&self.busy) {
            *slot += *b;
        }
    }
}

/// Batched hot-path network counters. Every send previously paid one
/// service (`TypeId`) lookup per metric — five per message. The batch
/// accumulates them as plain field adds inside the `MpiService` the send
/// path already holds, and lands the totals in the metric registry once
/// per shard at engine shutdown. All batched metrics are additive
/// (counters plus one histogram), so the merged totals — and with them
/// the deterministic snapshot surface — are unchanged.
#[derive(Debug, Default, Clone)]
pub struct NetBatch {
    /// Eager-protocol messages injected (`ids::NET_MSGS_EAGER`).
    pub msgs_eager: u64,
    /// Rendezvous-protocol messages injected (`ids::NET_MSGS_RENDEZVOUS`).
    pub msgs_rendezvous: u64,
    /// Payload bytes per network class: `[on-node, system]`.
    pub bytes_class: [u64; 2],
    /// Local parts of the `net.msg_bytes` histogram (`SIZE_BUCKETS` plus
    /// the overflow bucket).
    pub msg_bytes_counts: Vec<u64>,
    /// Sum of all observed payload sizes.
    pub msg_bytes_sum: u64,
}

impl NetBatch {
    /// Account one injected message.
    #[inline]
    pub(crate) fn observe(&mut self, eager: bool, class: NetClass, nbytes: u64) {
        if eager {
            self.msgs_eager += 1;
        } else {
            self.msgs_rendezvous += 1;
        }
        let ci = match class {
            NetClass::OnNode => 0,
            NetClass::System => 1,
        };
        self.bytes_class[ci] += nbytes;
        if self.msg_bytes_counts.is_empty() {
            self.msg_bytes_counts = vec![0; SIZE_BUCKETS.len() + 1];
        }
        self.msg_bytes_counts[SIZE_BUCKETS.partition_point(|&b| b < nbytes)] += 1;
        self.msg_bytes_sum += nbytes;
    }

    /// Land the batch in a metric set.
    pub(crate) fn flush_into(&self, set: &mut MetricSet) {
        if self.msgs_eager > 0 {
            set.add(ids::NET_MSGS_EAGER, self.msgs_eager);
        }
        if self.msgs_rendezvous > 0 {
            set.add(ids::NET_MSGS_RENDEZVOUS, self.msgs_rendezvous);
        }
        for (ci, id) in [ids::NET_BYTES_ONNODE, ids::NET_BYTES_SYSTEM]
            .into_iter()
            .enumerate()
        {
            if self.bytes_class[ci] > 0 {
                set.add(id, self.bytes_class[ci]);
            }
        }
        if !self.msg_bytes_counts.is_empty() {
            set.add_hist_parts(
                ids::NET_MSG_BYTES,
                &self.msg_bytes_counts,
                self.msg_bytes_sum,
            );
        }
    }
}

/// Recycled envelopes a shard keeps per owned rank: a degree-2
/// replicated 3-D halo has twelve copies in flight per rank. The pool
/// never holds more boxes than were live at once; the bound only gives
/// memory back after a burst.
const ENV_POOL_PER_RANK: usize = 16;

/// The kernel service owning the MPI state of this shard's ranks.
pub struct MpiService {
    /// Shared world configuration.
    pub world: Arc<MpiWorld>,
    /// State of the owned ranks only, indexed `rank − owned.start`:
    /// per-shard memory is O(owned ranks), never O(world).
    ranks: Vec<RankMpi>,
    owned: Range<usize>,
    /// This shard's counters (they are only ever summed), copied out
    /// by the builder's shutdown hook.
    pub(crate) stats: MpiStats,
    /// Recycled transport boxes: injection draws here, the receive
    /// completion returns here, so steady-state messaging performs no
    /// envelope allocation. The boxes themselves are the pooled resource
    /// (each is its message's event, `impl Call for Envelope`), hence
    /// `Vec<Box<_>>`; at most [`ENV_POOL_PER_RANK`] per owned rank.
    #[allow(clippy::vec_box)]
    env_pool: Vec<Box<Envelope>>,
    /// Recycled failure-notice events, one per owned rank at most: a
    /// failure fans out one notice per rank, drawn here by the dead
    /// rank's shard and returned to the target's when it fires.
    #[allow(clippy::vec_box)]
    notice_pool: Vec<Box<FailureNotice>>,
    /// Completion feeds of finished `waitall`/`waitany` waits, cleared,
    /// for the next wait of any owned rank. A feed is either lent to a
    /// watching rank or here, so the pool holds at most as many as the
    /// shard's ranks ever watched at once. Kept boxed, as a rank holds
    /// its feed, so lending one moves a pointer and allocates nothing.
    #[allow(clippy::vec_box)]
    feed_pool: Vec<Box<Vec<u64>>>,
    /// Batched hot-path counters, copied out at engine shutdown.
    pub(crate) net_batch: NetBatch,
}

impl MpiService {
    /// Create the service for one shard.
    pub fn new(world: Arc<MpiWorld>, owned: Range<usize>) -> Self {
        let ranks = owned.clone().map(|r| RankMpi::new(Rank::new(r))).collect();
        MpiService {
            world,
            ranks,
            owned,
            stats: MpiStats::default(),
            env_pool: Vec::new(),
            notice_pool: Vec::new(),
            feed_pool: Vec::new(),
            net_batch: NetBatch::default(),
        }
    }

    /// Box an envelope for transport, reusing a recycled allocation when
    /// one is pooled.
    pub(crate) fn env_box(&mut self, env: Envelope) -> Box<Envelope> {
        match self.env_pool.pop() {
            Some(mut b) => {
                *b = env;
                b
            }
            None => Box::new(env),
        }
    }

    /// Return a spent transport box to the pool (dropped instead once
    /// the pool is full).
    pub(crate) fn env_recycle(&mut self, b: Box<Envelope>) {
        if self.env_pool.len() < ENV_POOL_PER_RANK * self.owned.len() {
            self.env_pool.push(b);
        }
    }

    /// Box a failure notice, reusing a recycled allocation when one is
    /// pooled.
    fn notice_box(&mut self, notice: FailureNotice) -> Box<FailureNotice> {
        match self.notice_pool.pop() {
            Some(mut b) => {
                *b = notice;
                b
            }
            None => Box::new(notice),
        }
    }

    /// Start (or stop) recording `me`'s completed request ids. A
    /// watcher turns the feed on after its own full scan of the requests
    /// it holds, so completions before that point need no record. The
    /// feed is lent from this shard's pool and given back cleared, so a
    /// repeated wait allocates no feed.
    pub(crate) fn watch_completions(&mut self, me: Rank, on: bool) {
        let i = me.idx().wrapping_sub(self.owned.start);
        let slot = &mut self.ranks[i].completion_feed;
        if on {
            // A feed left on by a wait that was dropped starts over empty.
            match slot {
                Some(feed) => feed.clear(),
                None => *slot = Some(self.feed_pool.pop().unwrap_or_default()),
            }
        } else if let Some(mut feed) = slot.take() {
            feed.clear();
            self.feed_pool.push(feed);
        }
    }

    /// The MPI state of an owned rank.
    pub fn rank(&self, r: Rank) -> &RankMpi {
        // A rank below `owned.start` wraps to a huge index: one check
        // rejects both sides of the range.
        self.ranks
            .get(r.idx().wrapping_sub(self.owned.start))
            .expect("rank not on this shard")
    }

    /// The MPI state of an owned rank, mutably.
    pub(crate) fn rank_mut(&mut self, r: Rank) -> &mut RankMpi {
        self.ranks
            .get_mut(r.idx().wrapping_sub(self.owned.start))
            .expect("rank not on this shard")
    }

    /// Ranks owned by this shard.
    pub fn owned(&self) -> Range<usize> {
        self.owned.clone()
    }

    /// Owned rank `me`'s view of communicator `id`.
    pub(crate) fn view(&self, me: Rank, id: CommId) -> Option<CommView<'_>> {
        let world = &*self.world;
        self.rank(me).comms().view(&world.members, me, id)
    }
}

/// Install the failure hook on a kernel shard: when any VP fails, a
/// simulator-internal message is broadcast to notify all simulated MPI
/// processes of the failure and the time of failure (paper §IV-B).
pub(crate) fn install_failure_hook(k: &mut Kernel) {
    k.add_fail_hook(Arc::new(|k: &mut Kernel, dead: Rank, tof: SimTime| {
        let when = k.service::<MpiService>().world.notification_time(tof);
        if k.cfg.verbose {
            eprintln!("xsim-mpi: broadcasting failure of rank {dead} (tof {tof})");
        }
        xsim_obs::service::record(k, xsim_obs::ids::FAULT_ACTIVATIONS, 1);
        for r in 0..k.cfg.n_ranks {
            let target = Rank::new(r);
            if target == dead {
                continue;
            }
            let notice = FailureNotice { target, dead, tof };
            let notice = k.service_mut::<MpiService>().notice_box(notice);
            k.schedule_at(when, target, Action::Call(notice));
        }
    }));
}

/// The notification of one failure to one rank: its own pooled event,
/// as a message's envelope is.
#[derive(Debug)]
struct FailureNotice {
    target: Rank,
    dead: Rank,
    tof: SimTime,
}

impl Call for FailureNotice {
    fn call(self: Box<Self>, k: &mut Kernel) {
        let FailureNotice { target, dead, tof } = *self;
        let svc = k.service_mut::<MpiService>();
        if svc.notice_pool.len() < svc.owned.len() {
            svc.notice_pool.push(self);
        }
        on_failure_notice(k, target, dead, tof);
    }
}

/// Process a failure notification at `me`: record the failure and
/// release (fail) pending requests involving the dead peer with the
/// timeout-adjusted completion times of the paper (§IV-C).
fn on_failure_notice(k: &mut Kernel, me: Rank, dead: Rank, tof: SimTime) {
    if k.vp(me).is_done() {
        return;
    }
    let releases: Vec<(ReqId, SimTime)> = {
        let svc = k.service_mut::<MpiService>();
        let rm = svc.rank_mut(me);
        if !rm.failed_mut().insert(dead, tof) {
            return;
        }
        // Release unmatched receives from the dead peer and — per the
        // paper — unmatched MPI_ANY_SOURCE receives, plus pending send
        // requests towards the dead peer.
        let ids = rm.reqs.pending_involving(dead, true);
        let world = &svc.world;
        ids.into_iter()
            .map(|(id, posted_at)| (id, world.failure_error_time(me, dead, posted_at, tof)))
            .collect()
    };
    for (id, at) in releases {
        schedule_request_failure(k, me, id, at, dead, tof);
    }
}

/// Escalate an unreachable peer into the process-failure path: at `tof`
/// the peer's VP is failed (if still alive), which fires the regular
/// failure hook — broadcast notification, `MPI_ERR_PROC_FAILED` on
/// pending operations, and whatever recovery the application configured
/// (abort under `MPI_ERRORS_ARE_FATAL`, ULFM revoke/shrink, restart).
///
/// Called by the lossy transport when the retransmission budget towards
/// `peer` is exhausted, and on partition detection. `tof` must be at
/// least one notification delay in the future (lookahead safety).
pub(crate) fn escalate_unreachable(k: &mut Kernel, peer: Rank, tof: SimTime) {
    k.schedule_at(
        tof,
        peer,
        Action::call(move |k: &mut Kernel| {
            if !k.vp(peer).is_done() {
                k.kill_failed(peer, tof, tof);
            }
        }),
    );
}

/// Schedule the error completion of a request at `at` (unless something
/// else completes it first — e.g. a message that matches a wildcard
/// receive before the timeout expires).
pub(crate) fn schedule_request_failure(
    k: &mut Kernel,
    me: Rank,
    id: ReqId,
    at: SimTime,
    dead: Rank,
    tof: SimTime,
) {
    k.schedule_at(
        at,
        me,
        Action::call(move |k: &mut Kernel| {
            if k.vp(me).is_done() {
                return;
            }
            let completed = {
                let svc = k.service_mut::<MpiService>();
                let done = svc.rank_mut(me).fail_request(
                    id,
                    at,
                    MpiError::ProcFailed {
                        rank: dead,
                        time_of_failure: tof,
                    },
                );
                svc.stats.proc_failed_errors += u64::from(done);
                done
            };
            if completed {
                // A detector timeout fired and surfaced the failure to
                // this rank as MPI_ERR_PROC_FAILED.
                xsim_obs::service::record(k, xsim_obs::ids::NET_TIMEOUT_DETECTIONS, 1);
                k.wake_if_message_blocked(me, at);
            }
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: usize) -> Arc<MpiWorld> {
        Arc::new(MpiWorld {
            members: Arc::new((0..n).map(Rank::new).collect()),
            net: NetModel::small(n),
            proc: ProcModel::default(),
            default_errhandler: ErrHandler::Fatal,
            detector: Detector::Timeout,
            coll_algo: CollAlgo::Linear,
            lossy: None,
        })
    }

    #[test]
    fn service_owns_only_its_ranks() {
        let svc = MpiService::new(world(8), 2..5);
        assert_eq!(svc.rank(Rank(3)).me, Rank(3));
        assert_eq!(svc.owned(), 2..5);
    }

    #[test]
    #[should_panic(expected = "rank not on this shard")]
    fn foreign_rank_access_panics() {
        let svc = MpiService::new(world(8), 2..5);
        let _ = svc.rank(Rank(7));
    }

    #[test]
    #[should_panic(expected = "rank not on this shard")]
    fn foreign_rank_below_owned_panics() {
        let svc = MpiService::new(world(8), 2..5);
        let _ = svc.rank(Rank(1));
    }

    #[test]
    #[should_panic(expected = "rank not on this shard")]
    fn foreign_rank_above_owned_panics_mutably() {
        let mut svc = MpiService::new(world(8), 2..5);
        let _ = svc.rank_mut(Rank(5));
    }

    #[test]
    fn shard_stats_merge_by_summing() {
        let (mut lo, mut hi) = (MpiStats::default(), MpiStats::default());
        lo.sends = 3;
        hi.sends = 4;
        hi.bytes_sent = 100;
        let mut run = MpiStats::default();
        run.merge(&lo);
        run.merge(&hi);
        assert_eq!(run.sends, 7);
        assert_eq!(run.bytes_sent, 100);
    }

    #[test]
    fn send_seq_increments_per_destination() {
        let mut svc = MpiService::new(world(4), 0..4);
        let rm = svc.rank_mut(Rank(0));
        assert_eq!(rm.next_send_seq(Rank(1)), 0);
        assert_eq!(rm.next_send_seq(Rank(1)), 1);
        assert_eq!(rm.next_send_seq(Rank(2)), 0);
    }

    #[test]
    fn first_unacked_failure_respects_acks() {
        let mut svc = MpiService::new(world(4), 0..4);
        let failed = svc.rank_mut(Rank(0)).failed_mut();
        assert!(failed.first_unacked().is_none());
        assert!(failed.insert(Rank(2), SimTime(10)));
        assert!(!failed.insert(Rank(2), SimTime(99)), "first notice wins");
        assert_eq!(failed.first_unacked(), Some((Rank(2), SimTime(10))));
        failed.ack_all();
        assert!(failed.first_unacked().is_none());
        assert!(failed.insert(Rank(1), SimTime(20)));
        assert!(failed.insert(Rank(3), SimTime(30)));
        assert_eq!(failed.first_unacked(), Some((Rank(1), SimTime(20))));
        assert_eq!(failed.get(Rank(3)), Some(SimTime(30)));
        assert_eq!(failed.get(Rank(0)), None);
        assert_eq!(failed.acked().collect::<Vec<_>>(), vec![Rank(2)]);
        let ranks: Vec<Rank> = failed.iter().map(|(r, _)| r).collect();
        assert_eq!(ranks, vec![Rank(1), Rank(2), Rank(3)]);
    }

    #[test]
    fn completions_are_recorded_only_while_watched() {
        let mut svc = MpiService::new(world(2), 0..2);
        let fed = |svc: &MpiService| {
            let rm = svc.rank(Rank(0));
            (0..).map_while(|i| rm.completion(i)).collect::<Vec<_>>()
        };
        svc.rank_mut(Rank(0)).push_completion(1);
        assert!(fed(&svc).is_empty(), "nobody is watching");
        svc.watch_completions(Rank(0), true);
        svc.rank_mut(Rank(0)).push_completion(2);
        svc.rank_mut(Rank(0)).push_completion(3);
        assert_eq!(fed(&svc), vec![2, 3]);
        svc.rank_mut(Rank(0)).clear_completions();
        assert!(fed(&svc).is_empty());
        svc.rank_mut(Rank(0)).push_completion(4);
        let buf = svc.rank(Rank(0)).completion_feed.as_ref().unwrap().as_ptr();
        svc.watch_completions(Rank(0), false);
        svc.rank_mut(Rank(0)).push_completion(5);
        assert!(fed(&svc).is_empty());
        // The next watch, by any rank of the shard, gets the pooled feed
        // back empty, with its buffer.
        svc.watch_completions(Rank(1), true);
        let feed = svc.rank(Rank(1)).completion_feed.as_ref().unwrap();
        assert!(feed.is_empty());
        assert_eq!(feed.as_ptr(), buf);
    }

    #[test]
    fn power_service_covers_its_shard_only() {
        let mut hi = PowerService::new(6..8);
        let mut lo = PowerService::new(2..4);
        hi.add_busy(Rank(7), SimTime(5));
        lo.add_busy(Rank(2), SimTime(3));
        lo.add_busy(Rank(2), SimTime(1));
        let mut busy = vec![SimTime::ZERO; 8];
        hi.add_into(&mut busy);
        lo.add_into(&mut busy);
        assert_eq!((busy[2], busy[7]), (SimTime(4), SimTime(5)));
        assert_eq!(busy.iter().map(|t| t.as_nanos()).sum::<u64>(), 9);
    }

    #[test]
    fn net_batch_flush_matches_direct_records() {
        let mut batch = NetBatch::default();
        let sends: [(bool, NetClass, u64); 4] = [
            (true, NetClass::OnNode, 64),
            (false, NetClass::System, 1 << 20),
            (true, NetClass::System, 300),
            (false, NetClass::OnNode, 1 << 25),
        ];
        let mut direct = MetricSet::new();
        for &(eager, class, nbytes) in &sends {
            batch.observe(eager, class, nbytes);
            direct.add(
                if eager {
                    ids::NET_MSGS_EAGER
                } else {
                    ids::NET_MSGS_RENDEZVOUS
                },
                1,
            );
            let cid = match class {
                NetClass::OnNode => ids::NET_BYTES_ONNODE,
                NetClass::System => ids::NET_BYTES_SYSTEM,
            };
            direct.add(cid, nbytes);
            direct.add(ids::NET_MSG_BYTES, nbytes);
        }
        let mut batched = MetricSet::new();
        batch.flush_into(&mut batched);
        assert_eq!(direct, batched);
    }

    #[test]
    fn envelope_pool_recycles_boxes() {
        let mut svc = MpiService::new(world(2), 0..2);
        let b = svc.env_box(Envelope::blank());
        let addr = &*b as *const Envelope;
        svc.env_recycle(b);
        let b2 = svc.env_box(Envelope::blank());
        assert_eq!(addr, &*b2 as *const Envelope, "allocation is reused");
        svc.env_recycle(b2);
    }

    /// Abort teardown drops the queue with messages in flight: a
    /// delivery and a receive completion, both envelope events, release
    /// their payloads unfired.
    #[test]
    fn dropping_unfired_envelope_events_releases_their_payloads() {
        use xsim_core::{Bytes, EventKey, EventQueue, EventRec};
        let payloads: Vec<Bytes> = (0..2).map(|i| Bytes::from(vec![i; 4096])).collect();
        let mut q = EventQueue::new();
        for (seq, (data, matched)) in payloads
            .iter()
            .zip([None, Some((ReqId(3), SimTime(9)))])
            .enumerate()
        {
            let env = Box::new(Envelope {
                data: data.clone(),
                matched,
                ..Envelope::blank()
            });
            q.push(EventRec {
                key: EventKey {
                    time: SimTime(5),
                    dst: Rank(1),
                    src: Rank(0),
                    seq: seq as u64,
                },
                action: Action::Call(env),
            });
        }
        drop(q);
        for p in payloads {
            let at = p.as_ptr();
            let sole = p.into_vec();
            assert_eq!(sole.as_ptr(), at, "the event kept a reference");
        }
    }

    #[test]
    fn lossy_outcomes_are_deterministic() {
        let l = LossyTransport {
            drop_prob: 0.4,
            corrupt_prob: 0.1,
            ..LossyTransport::default()
        };
        let mut seen = [0usize; 3];
        for seq in 0..400u64 {
            let a = l.tx_outcome(42, Rank(1), Rank(2), seq, 0);
            assert_eq!(a, l.tx_outcome(42, Rank(1), Rank(2), seq, 0));
            seen[match a {
                TxOutcome::Delivered => 0,
                TxOutcome::Dropped => 1,
                TxOutcome::Corrupted => 2,
            }] += 1;
        }
        // 400 draws at 50%/40%/10%: each bucket must be populated.
        assert!(seen.iter().all(|&c| c > 0), "outcome mix {seen:?}");
        // A different attempt number redraws independently.
        assert!((0..400u64).any(|s| {
            l.tx_outcome(42, Rank(1), Rank(2), s, 0) != l.tx_outcome(42, Rank(1), Rank(2), s, 1)
        }));
    }

    #[test]
    fn lossy_victim_scopes_loss() {
        let l = LossyTransport {
            victim: Some(Rank(3)),
            ..LossyTransport::default()
        };
        assert!(l.applies(Rank(3), Rank(0)));
        assert!(l.applies(Rank(0), Rank(3)));
        assert!(!l.applies(Rank(0), Rank(1)));
        assert!(LossyTransport::default().applies(Rank(0), Rank(1)));
    }

    #[test]
    fn lossy_backoff_doubles_and_saturates() {
        let l = LossyTransport {
            backoff_base: SimTime::from_micros(10),
            ..LossyTransport::default()
        };
        assert_eq!(l.backoff(0), SimTime::from_micros(10));
        assert_eq!(l.backoff(1), SimTime::from_micros(20));
        assert_eq!(l.backoff(3), SimTime::from_micros(80));
        assert_eq!(l.backoff(200), SimTime(u64::MAX));
    }
}
