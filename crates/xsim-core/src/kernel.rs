//! The kernel: one shard of the simulation state.
//!
//! A kernel owns a contiguous block of VPs (a SoA `VpTable`), their
//! pending-event queue and the per-shard services of upper layers. The
//! sequential engine uses a single kernel; the parallel engine gives
//! every thread a fixed, interleaved set of kernels and exchanges
//! cross-shard events at conservative window boundaries.
//!
//! ## Determinism contract
//!
//! * Events are processed in ascending `(time, dst, src, seq)` order per
//!   destination rank.
//! * Every scheduled event is attributed to the rank whose poll or event
//!   is currently being processed; per-rank `seq` counters therefore
//!   advance identically in the sequential and parallel engines.
//! * `Call` actions must only mutate state belonging to their destination
//!   rank (they may schedule events to any rank). This is what makes
//!   shard-local processing equivalent to global-order processing.

use crate::config::CoreConfig;
use crate::error::{FailureRecord, Termination};
use crate::event::{Action, EventKey, EventRec};
use crate::queue::EventQueue;
use crate::rank::Rank;
use crate::service::{Service, ServiceMap};
use crate::time::SimTime;
use crate::vp::{VpExit, VpFuture, VpMut, VpProgram, VpRef, VpState, VpTable, WaitClass};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::task::Poll;

/// Hook invoked after a VP has been failed (by injection activation or by
/// its program reporting a failure). The MPI layer registers one to
/// broadcast the simulator-internal failure notification (paper §IV-B).
pub(crate) type FailHook = Arc<dyn Fn(&mut Kernel, Rank, SimTime) + Send + Sync>;

/// Hook invoked once per shard at engine shutdown, before the report is
/// assembled. Upper layers register these to flush per-shard state
/// (trace buffers, metric sets) deterministically instead of relying on
/// `Drop` order.
pub(crate) type ShutdownHook = Arc<dyn Fn(&mut Kernel) + Send + Sync>;

/// One executed event's share of the run digest: its key and action
/// kind (0 spawn, 1 token wake, 2 message wake, 3 call), folded into one
/// word and finished with the splitmix64 mixer, so any change to any
/// field moves the term. Neither the key nor the kind depends on the
/// engine or the shard layout, and the digest is a wrapping sum of
/// terms, so it does not depend on the order shards process events.
#[inline]
fn digest_term(key: &EventKey, kind: u64) -> u64 {
    let ranks = (u64::from(key.dst.0) << 32) | u64::from(key.src.0);
    let mut x = key.time.as_nanos().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ranks.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (key.seq << 2 | kind).wrapping_mul(0x1656_67B1_9E37_79F9);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One shard of the simulation.
pub struct Kernel {
    /// Index of this shard.
    pub shard_id: usize,
    /// Shared engine configuration.
    pub cfg: Arc<CoreConfig>,
    /// SoA table of the VPs this shard owns.
    vps: VpTable,
    /// Pending events for owned ranks.
    pub(crate) queue: EventQueue,
    /// Per-shard upper-layer state.
    services: ServiceMap,
    /// Event sequence counters for owned ranks, indexed by `rank − base`.
    /// Dense and shard-local: per-shard memory stays O(owned ranks).
    seq: Vec<u64>,
    /// Sequence counters for the rare foreign-src attributions (events
    /// scheduled outside any execution context to a foreign rank, e.g.
    /// setup-phase injections). Cold path.
    foreign_seq: BTreeMap<usize, u64>,
    /// Events destined for other shards, one batch lane per destination
    /// shard, flushed wholesale at window boundaries. Lane buffers are
    /// recycled through the engine's exchange-slot arena, so steady-state
    /// cross-shard traffic allocates nothing per event.
    pub(crate) outbox: Vec<Vec<EventRec>>,
    /// Earliest event time currently in any outbox lane (u64::MAX when
    /// all lanes are empty). The parallel engine clamps an exclusive
    /// drain (sole-active-shard window) to `outbox_min + lookahead`: a
    /// causal echo of an emission crosses shards twice, so nothing can
    /// come back before that. Reset by the engine after each flush.
    pub(crate) outbox_min: u64,
    /// Program factory used by spawn events.
    program: Arc<dyn VpProgram>,
    /// Hooks to run when a VP fails.
    fail_hooks: Vec<FailHook>,
    /// Hooks to run at engine shutdown.
    shutdown_hooks: Vec<ShutdownHook>,
    /// Rank currently attributed for scheduling (being polled, or dst of
    /// the event being processed).
    attrib: Option<Rank>,
    /// Failures activated on this shard.
    pub(crate) failures: Vec<FailureRecord>,
    /// Earliest abort observed on this shard.
    pub(crate) abort_time: Option<SimTime>,
    /// Events processed by this shard.
    pub(crate) events_processed: u64,
    /// Wrapping sum of [`digest_term`] over the events this shard
    /// processed (see [`SimReport::digest`](crate::SimReport::digest)).
    pub(crate) digest: u64,
    /// VP resumes performed by this shard.
    pub(crate) context_switches: u64,
    /// High-water mark of this shard's pending-event queue.
    pub(crate) queue_depth_hwm: u64,
}

impl Kernel {
    /// Create a shard owning `owned` and install its VPs.
    pub(crate) fn new(
        shard_id: usize,
        cfg: Arc<CoreConfig>,
        owned: Range<usize>,
        program: Arc<dyn VpProgram>,
    ) -> Self {
        let n_shards = cfg.n_shards();
        let outbox = (0..n_shards).map(|_| Vec::new()).collect();
        Kernel {
            shard_id,
            vps: VpTable::new(owned.clone(), cfg.start_time),
            cfg,
            queue: EventQueue::new(),
            services: ServiceMap::new(),
            seq: vec![0; owned.len()],
            foreign_seq: BTreeMap::new(),
            outbox,
            outbox_min: u64::MAX,
            program,
            fail_hooks: Vec::new(),
            shutdown_hooks: Vec::new(),
            attrib: None,
            failures: Vec::new(),
            abort_time: None,
            events_processed: 0,
            digest: 0,
            context_switches: 0,
            queue_depth_hwm: 0,
        }
    }

    /// The ranks this shard owns.
    pub fn owned_ranks(&self) -> Range<usize> {
        self.vps.owned_ranks()
    }

    /// Whether this shard owns `rank`.
    #[inline]
    pub fn owns(&self, rank: Rank) -> bool {
        self.vps.contains(rank)
    }

    /// Shared view of an owned VP.
    #[inline]
    pub fn vp(&self, rank: Rank) -> VpRef<'_> {
        self.vps.get(rank)
    }

    /// Mutable view of an owned VP.
    #[inline]
    pub fn vp_mut(&mut self, rank: Rank) -> VpMut<'_> {
        self.vps.get_mut(rank)
    }

    /// The rank currently being executed or processed.
    #[inline]
    pub(crate) fn attributed_rank(&self) -> Rank {
        self.attrib.expect("no rank in execution context")
    }

    /// Register a failure hook (MPI layer notification broadcast).
    pub fn add_fail_hook(&mut self, hook: FailHook) {
        self.fail_hooks.push(hook);
    }

    /// Register a hook to run at engine shutdown (before report assembly).
    pub fn add_shutdown_hook(&mut self, hook: ShutdownHook) {
        self.shutdown_hooks.push(hook);
    }

    /// Run the registered shutdown hooks. Called once per shard by the
    /// engines after the event loop drains.
    pub(crate) fn run_shutdown_hooks(&mut self) {
        let hooks = std::mem::take(&mut self.shutdown_hooks);
        for h in &hooks {
            h(self);
        }
    }

    /// Fold the current queue depth into the high-water mark. The engines
    /// call this after bulk ingest (cross-shard inbox drains).
    #[inline]
    pub(crate) fn note_queue_depth(&mut self) {
        self.queue_depth_hwm = self.queue_depth_hwm.max(self.queue.len() as u64);
    }

    /// Install a service.
    pub fn install_service<T: Service>(&mut self, svc: T) {
        self.services.insert(svc);
    }

    /// Access a service.
    pub fn service<T: Service>(&self) -> &T {
        self.services.get::<T>().expect("service not installed")
    }

    /// Mutable access to a service.
    pub fn service_mut<T: Service>(&mut self) -> &mut T {
        self.services.get_mut::<T>().expect("service not installed")
    }

    /// Mutable access to a service that may not be installed.
    pub fn try_service_mut<T: Service>(&mut self) -> Option<&mut T> {
        self.services.get_mut::<T>()
    }

    /// Shared access to a service that may not be installed.
    pub fn try_service<T: Service>(&self) -> Option<&T> {
        self.services.get::<T>()
    }

    /// Temporarily remove a service to call kernel methods while holding
    /// it; must be paired with [`put_back_service`](Self::put_back_service).
    pub fn take_service<T: Service>(&mut self) -> Box<T> {
        self.services.take::<T>().expect("service not installed")
    }

    /// Re-install a service removed with [`take_service`](Self::take_service).
    pub fn put_back_service<T: Service>(&mut self, svc: Box<T>) {
        self.services.put_back(svc);
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Bump and return the next sequence number attributed to `src`.
    #[inline]
    fn next_seq(&mut self, src: Rank) -> u64 {
        if self.vps.contains(src) {
            let local = src.idx() - self.owned_ranks().start;
            let s = &mut self.seq[local];
            *s += 1;
            *s
        } else {
            let s = self.foreign_seq.entry(src.idx()).or_insert(0);
            *s += 1;
            *s
        }
    }

    /// Schedule `action` to fire at `dst` at absolute virtual time `time`.
    ///
    /// In parallel mode, events crossing shards must respect the
    /// configured lookahead relative to the scheduling rank's clock; this
    /// is checked in debug builds.
    pub fn schedule_at(&mut self, time: SimTime, dst: Rank, action: Action) {
        let src = self.attrib.unwrap_or(dst);
        let seq = self.next_seq(src);
        let rec = EventRec {
            key: EventKey {
                time,
                dst,
                src,
                seq,
            },
            action,
        };
        if self.owns(dst) {
            self.queue.push(rec);
            self.queue_depth_hwm = self.queue_depth_hwm.max(self.queue.len() as u64);
        } else {
            debug_assert!(self.cfg.n_shards() > 1, "single shard must own every rank");
            let dst_shard = self.cfg.shard_of(dst.idx());
            self.outbox_min = self.outbox_min.min(time.as_nanos());
            self.outbox[dst_shard].push(rec);
        }
    }

    /// Schedule the initial spawn events for every owned rank: one
    /// `Spawn` per rank at the start time, keyed `(start, r, r, 0)`.
    /// The queue holds the wave as one virtual run
    /// ([`EventQueue::push_spawns`]) and yields its events in ascending
    /// rank order, merged with whatever else is queued, so a spawn costs
    /// no queue record, even at 2²⁷ VPs.
    pub(crate) fn schedule_spawns(&mut self) {
        self.queue
            .push_spawns(self.cfg.start_time, self.owned_ranks());
        self.note_queue_depth();
    }

    // ------------------------------------------------------------------
    // Event processing
    // ------------------------------------------------------------------

    /// Fire one event. The caller (engine loop) guarantees events arrive
    /// in non-decreasing key order per destination rank, and polls a VP
    /// the event made runnable once this returns.
    pub(crate) fn process(&mut self, ev: EventRec) {
        self.events_processed += 1;
        let kind = match ev.action {
            Action::Spawn => 0,
            Action::WakeToken(_) => 1,
            Action::WakeMessage => 2,
            Action::Call(_) => 3,
        };
        self.digest = self.digest.wrapping_add(digest_term(&ev.key, kind));
        let dst = ev.key.dst;
        self.attrib = Some(dst);
        match ev.action {
            Action::Spawn => {
                if self.vps.get(dst).state() == VpState::Fresh {
                    let fut = self.program.spawn(dst);
                    let mut vp = self.vps.get_mut(dst);
                    vp.put_future(fut);
                    vp.deliver_wake();
                }
            }
            Action::WakeToken(token) => {
                let vp = self.vps.get(dst);
                if vp.state() == VpState::Blocked && vp.wait_token() == token {
                    self.wake(dst, ev.key.time);
                }
            }
            Action::WakeMessage => {
                let vp = self.vps.get(dst);
                if vp.state() == VpState::Blocked && vp.wait_class() == WaitClass::Message {
                    self.wake(dst, ev.key.time);
                }
            }
            Action::Call(f) => f.call(self),
        }
    }

    /// Wake a blocked VP at virtual time `time` (clock advances to at
    /// least `time`); the engine polls it when this event returns. Only
    /// the destination of the event being processed can be woken.
    pub fn wake(&mut self, rank: Rank, time: SimTime) {
        let mut vp = self.vps.get_mut(rank);
        if vp.state() != VpState::Blocked {
            return;
        }
        debug_assert_eq!(
            self.attrib,
            Some(rank),
            "a wake must target the event's destination"
        );
        vp.deliver_wake();
        vp.advance_clock(time);
    }

    /// Wake a VP blocked on a message-class wait, if it is. Returns
    /// whether a wake happened; the engine polls the VP when this event
    /// returns. Upper layers call this after delivering data that may
    /// satisfy the wait.
    pub fn wake_if_message_blocked(&mut self, rank: Rank, time: SimTime) -> bool {
        let vp = self.vps.get(rank);
        if vp.state() == VpState::Blocked
            && matches!(vp.wait_class(), WaitClass::Message | WaitClass::FileIo)
        {
            self.wake(rank, time);
            true
        } else {
            false
        }
    }

    /// First half of a VP poll: if `rank` is runnable and survives the
    /// failure/abort activation rules of the paper, applied to its
    /// just-updated clock, mark it running and hand out its future.
    pub(crate) fn begin_poll(&mut self, rank: Rank) -> Option<VpFuture> {
        // Activation checks (paper §IV-B: "the simulated process is
        // failed with the simulated process time the simulator regains
        // control when it has reached or passed the time of failure").
        let vp = self.vps.get(rank);
        if vp.state() != VpState::Runnable {
            return None;
        }
        let clock = vp.clock();
        if let Some(tof) = vp.time_of_failure() {
            if clock >= tof {
                self.kill_failed(rank, tof, clock);
                return None;
            }
        }
        if let Some(ab) = vp.abort_at() {
            if clock >= ab {
                self.terminate_aborted(rank, clock);
                return None;
            }
        }

        self.context_switches += 1;
        let mut vp = self.vps.get_mut(rank);
        vp.set_state(VpState::Running);
        Some(vp.take_future().expect("runnable VP must have a future"))
    }

    /// Second half of a VP poll: park the future of a VP that blocked,
    /// or retire a VP whose program returned.
    pub(crate) fn end_poll(&mut self, rank: Rank, fut: VpFuture, poll: Poll<VpExit>) {
        match poll {
            Poll::Pending => {
                let mut vp = self.vps.get_mut(rank);
                debug_assert_eq!(
                    vp.state(),
                    VpState::Blocked,
                    "a VP future must only return Pending via ctx::block"
                );
                vp.put_future(fut);
            }
            Poll::Ready(exit) => {
                drop(fut);
                let clock = self.vps.get(rank).clock();
                match exit {
                    VpExit::Finished => {
                        let mut vp = self.vps.get_mut(rank);
                        vp.set_state(VpState::Done);
                        vp.set_termination(Termination::Finished);
                    }
                    VpExit::Failed => {
                        // Program-reported failure (e.g. returning from
                        // main without finalize): treat like an injected
                        // failure activating right now.
                        let mut vp = self.vps.get_mut(rank);
                        vp.set_state(VpState::Done);
                        vp.set_termination(Termination::Failed(clock));
                        self.record_failure(rank, clock, clock);
                        self.run_fail_hooks(rank, clock);
                    }
                    VpExit::Aborted => {
                        self.note_abort(clock);
                        let mut vp = self.vps.get_mut(rank);
                        vp.set_state(VpState::Done);
                        vp.set_termination(Termination::Aborted(clock));
                    }
                }
            }
        }
    }

    /// Forcibly fail a VP: drop its future, record the failure, notify
    /// upper layers. Must not target the VP currently being polled.
    pub fn kill_failed(&mut self, rank: Rank, scheduled: SimTime, actual: SimTime) {
        let mut vp = self.vps.get_mut(rank);
        if vp.state() == VpState::Done {
            return;
        }
        debug_assert!(
            vp.state() != VpState::Running,
            "cannot kill the VP currently being polled"
        );
        vp.drop_future();
        vp.set_state(VpState::Done);
        let actual = vp.advance_clock(actual);
        vp.set_termination(Termination::Failed(actual));
        if self.cfg.verbose {
            eprintln!("xsim: process failure injected at rank {rank} at time {actual}");
        }
        self.record_failure(rank, scheduled, actual);
        self.run_fail_hooks(rank, actual);
    }

    /// Terminate a VP due to (propagated) abort activation.
    pub(crate) fn terminate_aborted(&mut self, rank: Rank, time: SimTime) {
        let mut vp = self.vps.get_mut(rank);
        if vp.state() == VpState::Done {
            return;
        }
        debug_assert!(vp.state() != VpState::Running);
        vp.drop_future();
        vp.set_state(VpState::Done);
        let t = vp.advance_clock(time);
        vp.set_termination(Termination::Aborted(t));
        self.note_abort(t);
    }

    /// Record the earliest abort time seen on this shard.
    pub fn note_abort(&mut self, time: SimTime) {
        self.abort_time = Some(match self.abort_time {
            Some(t) => t.min(time),
            None => time,
        });
        if self.cfg.verbose {
            eprintln!("xsim: MPI abort observed at time {time}");
        }
    }

    fn record_failure(&mut self, rank: Rank, scheduled: SimTime, actual: SimTime) {
        self.failures.push(FailureRecord {
            rank,
            scheduled,
            actual,
        });
    }

    /// The failure path, kept out of line of the hot `end_poll`. One hook
    /// handle at a time: a refcount bump, not a copy of the list per
    /// failure.
    #[cold]
    #[inline(never)]
    fn run_fail_hooks(&mut self, rank: Rank, time: SimTime) {
        for i in 0..self.fail_hooks.len() {
            let hook = self.fail_hooks[i].clone();
            hook(self, rank, time);
        }
    }

    // ------------------------------------------------------------------
    // Failure injection API (used by xsim-fault)
    // ------------------------------------------------------------------

    /// Set the scheduled (earliest) time of failure for an owned rank. It
    /// activates only when the rank's own execution moves its clock past
    /// `tof` (paper §IV-B).
    pub fn set_time_of_failure(&mut self, rank: Rank, tof: SimTime) {
        self.vps.get_mut(rank).set_time_of_failure(tof);
    }

    /// Set the earliest time at which `rank` must observe a propagated
    /// abort (paper §IV-D activation semantics).
    pub fn set_abort_at(&mut self, rank: Rank, time: SimTime) {
        self.vps.get_mut(rank).note_abort_at(time);
    }

    /// Final clock and termination of each owned rank, read straight
    /// off the VP table by the engines as they assemble the report.
    pub(crate) fn results(&self) -> impl Iterator<Item = (usize, SimTime, Termination)> + '_ {
        self.vps.iter().map(|(rank, vp)| {
            let term = vp.termination().unwrap_or(Termination::Finished);
            (rank.idx(), vp.clock(), term)
        })
    }

    /// Blocked-VP diagnostics for deadlock reporting.
    pub(crate) fn blocked_summary(&self) -> Vec<(Rank, SimTime, &'static str)> {
        self.vps
            .iter()
            .filter_map(|(rank, vp)| match vp.state() {
                VpState::Done => None,
                _ => Some((rank, vp.clock(), vp.wait_desc())),
            })
            .collect()
    }
}
