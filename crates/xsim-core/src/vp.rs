//! Virtual processes (VPs).
//!
//! A VP is the simulated counterpart of one MPI process: a coroutine with
//! its own virtual clock, suspended whenever it performs a simulator call
//! (paper §IV-A). The kernel owns a `VpTable` and drives each VP's
//! future.
//!
//! ## Data-oriented layout
//!
//! Per-VP state lives in parallel SoA `Vec`s indexed by *local* VP index
//! (`rank − shard base`), not in an array of structs behind options:
//!
//! * the hot wake/dispatch fields each occupy their own dense array, so
//!   the kernel's wake checks and the engines' end-of-run scans touch a
//!   few contiguous cache lines per shard instead of striding over
//!   pointer-sized `Option<Vp>` slots sized to the *whole* machine;
//! * run state, wait class, the pending-wake flag and the termination
//!   kind pack into one byte per VP (3+2+1+2 bits); the termination
//!   *time* is always the VP's final clock (pinned by a debug assert in
//!   `VpMut::set_termination`), so it is reconstructed from the clock
//!   column instead of stored;
//! * wait descriptions are interned: the column holds a one-byte index
//!   into a tiny per-table string table (the simulator has a handful of
//!   distinct wait sites, all `&'static str`);
//! * the failure/abort activation columns are *lazy* — empty until the
//!   first injection touches the shard, so a failure-free run pays zero
//!   bytes per VP for them;
//! * each shard's table is sized to the ranks it owns — per-shard memory
//!   is O(owned), not O(n_ranks).
//!
//! The resident footprint is what lets one host hold the paper's 2²⁷
//! VPs: 8 (clock) + 8 (wait token) + 1 (flags) + 1 (wait desc) + 16
//! (future slot) = 34 bytes per VP of table, ≈ 4.6 GiB at 2²⁷ before
//! the coroutines themselves.
//!
//! Code outside the kernel goes through the [`VpRef`]/[`VpMut`] handles
//! returned by `Kernel::vp` / `Kernel::vp_mut`.

use crate::error::Termination;
use crate::rank::Rank;
use crate::time::SimTime;
use std::fmt;
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::sync::Arc;

/// The outcome a VP program reports when it returns.
///
/// Upper layers map their own semantics onto this: the MPI layer returns
/// [`VpExit::Failed`] for a program that returns without having called
/// finalize (one of the paper's failure-injection methods, §IV-B) and
/// [`VpExit::Aborted`] when `MPI_Abort` semantics unwound the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpExit {
    /// Clean exit.
    Finished,
    /// The program itself is reporting a process failure.
    Failed,
    /// The program unwound due to (local or propagated) abort semantics.
    Aborted,
}

/// The future type a VP runs.
pub type VpFuture = Pin<Box<dyn Future<Output = VpExit> + Send>>;

/// Factory for VP programs: the engine calls [`VpProgram::spawn`] once per
/// rank at startup. Implementations are typically provided by the MPI
/// layer, wrapping a user application.
pub trait VpProgram: Send + Sync {
    /// Create the coroutine for `rank`. The returned future may only
    /// interact with the simulator through the [`crate::ctx`] functions
    /// (and APIs layered on them), and only while being polled by the
    /// engine.
    fn spawn(&self, rank: Rank) -> VpFuture;

    /// A handle for one shard of a parallel run, or `None` (the default)
    /// to share this program as is. The parallel engine asks once per
    /// shard, at construction, and spawns that shard's ranks through the
    /// answer. A program whose rank futures clone and drop a refcount
    /// answers with a fresh `Arc` around it, so that traffic touches only
    /// the owning worker's count, never one every worker shares.
    fn shard_handle(&self) -> Option<Arc<dyn VpProgram>> {
        None
    }
}

impl<F> VpProgram for F
where
    F: Fn(Rank) -> VpFuture + Send + Sync,
{
    fn spawn(&self, rank: Rank) -> VpFuture {
        self(rank)
    }
}

/// Token identifying one particular `block()` call of a VP. Scheduled
/// wakeups carry the token of the wait they intend to satisfy, so stale
/// wakeups (e.g. a compute completion arriving after the VP was failed and
/// restarted into a different wait) are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WaitToken(pub u64);

/// Width of a wait token: the event queue packs a token into the low
/// 62 bits of a resident event's action word, so
/// [`VpMut::begin_wait`] mints none at or above `2^62`.
pub(crate) const WAIT_TOKEN_BITS: u32 = 62;

/// What kind of event can legitimately wake a blocked VP.
///
/// The distinction matters for failure semantics: xSim releases *message*
/// waits when a peer fails or the job aborts (paper §IV-C/D), but a VP in
/// the middle of a compute phase keeps computing and only observes the
/// failure/abort when the simulator regains control at the end of the
/// phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// Blocked until a scheduled wakeup (compute/sleep completion). Only a
    /// [`crate::event::Action::WakeToken`] with the matching token wakes it.
    Compute,
    /// Blocked on simulated communication (or any simulator-internal
    /// message). Woken by `WakeMessage`, by a matching `WakeToken`, or by
    /// upper-layer `Call` actions (failure/abort releases).
    Message,
    /// Blocked on a simulated file system operation.
    FileIo,
}

/// Scheduling state of a VP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpState {
    /// Never yet polled (spawn event pending).
    Fresh,
    /// Currently being polled by a worker.
    Running,
    /// Suspended; `wait_class`/`wait_token` describe what it waits for.
    Blocked,
    /// Woken; will be polled promptly by the kernel.
    Runnable,
    /// Terminated (see `termination` for how).
    Done,
}

// --- packed per-VP flags byte -----------------------------------------
// bits 0..=2: VpState, bits 3..=4: WaitClass, bit 5: pending wake,
// bits 6..=7: termination kind (0 none, 1 finished, 2 failed, 3 aborted).

const STATE_MASK: u8 = 0b0000_0111;
const CLASS_SHIFT: u32 = 3;
const CLASS_MASK: u8 = 0b0001_1000;
const WOKEN_BIT: u8 = 0b0010_0000;
const TERM_SHIFT: u32 = 6;

#[inline]
fn enc_state(s: VpState) -> u8 {
    match s {
        VpState::Fresh => 0,
        VpState::Running => 1,
        VpState::Blocked => 2,
        VpState::Runnable => 3,
        VpState::Done => 4,
    }
}

#[inline]
fn dec_state(b: u8) -> VpState {
    match b & STATE_MASK {
        0 => VpState::Fresh,
        1 => VpState::Running,
        2 => VpState::Blocked,
        3 => VpState::Runnable,
        _ => VpState::Done,
    }
}

#[inline]
fn enc_class(c: WaitClass) -> u8 {
    match c {
        WaitClass::Compute => 0,
        WaitClass::Message => 1,
        WaitClass::FileIo => 2,
    }
}

#[inline]
fn dec_class(b: u8) -> WaitClass {
    match (b & CLASS_MASK) >> CLASS_SHIFT {
        0 => WaitClass::Compute,
        1 => WaitClass::Message,
        _ => WaitClass::FileIo,
    }
}

/// Sentinel for "no scheduled time" in the lazy activation columns.
const NO_TIME: u64 = u64::MAX;

/// SoA table of the VPs one shard owns, indexed by `rank − base`.
pub(crate) struct VpTable {
    /// Ranks this table covers (`base..base+len`).
    owned: Range<usize>,
    // --- hot: touched on every wake check / dispatch ---
    /// Virtual clocks. Advance only at simulator calls. Also the
    /// termination time once a VP is `Done` (clocks are final then).
    clock: Vec<SimTime>,
    /// Packed state/class/woken/termination byte — see module docs.
    flags: Vec<u8>,
    /// Token of the current wait; bumped by every `begin_wait`.
    wait_token: Vec<WaitToken>,
    // --- warm: failure/abort activation checks on resume. Lazy: empty
    // until the first injection touches this shard ---
    /// Scheduled (earliest) time of failure in ns; `NO_TIME` = never
    /// (the paper encodes this as time 0).
    time_of_failure: Vec<u64>,
    /// Earliest time (ns) at which the VP must observe a propagated
    /// abort; `NO_TIME` = none.
    abort_at: Vec<u64>,
    // --- cold: diagnostics and the coroutines themselves ---
    /// Interned wait descriptions for deadlock diagnostics: per-VP index
    /// into `descs` (static to keep the hot path allocation-free).
    wait_desc: Vec<u8>,
    /// The handful of distinct wait-site descriptions seen by this
    /// shard; `descs[0]` is the empty string.
    descs: Vec<&'static str>,
    /// The coroutines, while alive and not being polled. `Option` so the
    /// kernel can move one out while polling (avoiding aliasing the
    /// table) and drop it to force-terminate the VP.
    futures: Vec<Option<VpFuture>>,
}

impl VpTable {
    /// A table of fresh VPs for `owned`, clocks at `start`.
    pub(crate) fn new(owned: Range<usize>, start: SimTime) -> Self {
        let n = owned.len();
        VpTable {
            owned,
            clock: vec![start; n],
            // Fresh, WaitClass::Message, not woken, no termination.
            flags: vec![enc_class(WaitClass::Message) << CLASS_SHIFT; n],
            wait_token: vec![WaitToken(0); n],
            time_of_failure: Vec::new(),
            abort_at: Vec::new(),
            wait_desc: vec![0; n],
            descs: vec![""],
            futures: (0..n).map(|_| None).collect(),
        }
    }

    /// The ranks this table covers.
    pub(crate) fn owned_ranks(&self) -> Range<usize> {
        self.owned.clone()
    }

    /// Number of VPs in the table.
    pub(crate) fn len(&self) -> usize {
        self.clock.len()
    }

    /// Whether `rank` is in the table.
    #[inline]
    pub(crate) fn contains(&self, rank: Rank) -> bool {
        self.owned.contains(&rank.idx())
    }

    /// Shared handle to an owned VP. Panics if `rank` is foreign.
    #[inline]
    pub(crate) fn get(&self, rank: Rank) -> VpRef<'_> {
        assert!(self.contains(rank), "VP not owned by this shard");
        VpRef {
            t: self,
            i: rank.idx() - self.owned.start,
        }
    }

    /// Mutable handle to an owned VP. Panics if `rank` is foreign.
    #[inline]
    pub(crate) fn get_mut(&mut self, rank: Rank) -> VpMut<'_> {
        assert!(self.contains(rank), "VP not owned by this shard");
        let i = rank.idx() - self.owned.start;
        VpMut { t: self, i }
    }

    /// Iterate `(rank, handle)` over every VP in the table.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Rank, VpRef<'_>)> {
        self.owned.clone().map(move |r| {
            (
                Rank::new(r),
                VpRef {
                    t: self,
                    i: r - self.owned.start,
                },
            )
        })
    }

    /// Intern a wait description, returning its column index. The
    /// simulator has a handful of distinct `&'static str` wait sites;
    /// pointer equality catches re-interning on the hot path.
    fn intern(&mut self, s: &'static str) -> u8 {
        if let Some(i) = self
            .descs
            .iter()
            .position(|d| std::ptr::eq(*d, s) || *d == s)
        {
            return i as u8;
        }
        assert!(self.descs.len() < 256, "too many distinct wait sites");
        self.descs.push(s);
        (self.descs.len() - 1) as u8
    }

    /// Materialize the lazy time-of-failure column.
    fn ensure_tof(&mut self) {
        if self.time_of_failure.is_empty() {
            self.time_of_failure = vec![NO_TIME; self.len()];
        }
    }

    /// Materialize the lazy abort-activation column.
    fn ensure_abort(&mut self) {
        if self.abort_at.is_empty() {
            self.abort_at = vec![NO_TIME; self.len()];
        }
    }
}

// `Debug` for the table prints occupancy, not a million rows.
impl fmt::Debug for VpTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VpTable")
            .field("owned", &self.owned)
            .field(
                "done",
                &self
                    .flags
                    .iter()
                    .filter(|b| dec_state(**b) == VpState::Done)
                    .count(),
            )
            .finish()
    }
}

/// Shared view of one VP in a `VpTable`.
#[derive(Clone, Copy)]
pub struct VpRef<'a> {
    t: &'a VpTable,
    i: usize,
}

macro_rules! vp_read_api {
    ($table:ident) => {
        /// The VP's virtual clock. Advances only at simulator calls.
        #[inline]
        pub fn clock(&self) -> SimTime {
            self.$table.clock[self.i]
        }

        /// Scheduling state.
        #[inline]
        pub fn state(&self) -> VpState {
            dec_state(self.$table.flags[self.i])
        }

        /// What the VP is blocked on (valid when [`VpState::Blocked`]).
        #[inline]
        pub fn wait_class(&self) -> WaitClass {
            dec_class(self.$table.flags[self.i])
        }

        /// Token of the current wait.
        #[inline]
        pub fn wait_token(&self) -> WaitToken {
            self.$table.wait_token[self.i]
        }

        /// Whether the VP has terminated (finished, failed, or aborted).
        #[inline]
        pub fn is_done(&self) -> bool {
            dec_state(self.$table.flags[self.i]) == VpState::Done
        }
    };
}

impl VpRef<'_> {
    vp_read_api!(t);

    /// This VP's rank.
    #[inline]
    pub(crate) fn rank(&self) -> Rank {
        Rank::new(self.t.owned.start + self.i)
    }

    /// Description of the current wait, for diagnostics.
    #[inline]
    pub(crate) fn wait_desc(&self) -> &'static str {
        self.t.descs[self.t.wait_desc[self.i] as usize]
    }

    /// Scheduled (earliest) time of failure, if any.
    #[inline]
    pub(crate) fn time_of_failure(&self) -> Option<SimTime> {
        match self.t.time_of_failure.get(self.i) {
            Some(&ns) if ns != NO_TIME => Some(SimTime(ns)),
            _ => None,
        }
    }

    /// Earliest propagated-abort activation time, if any: the one
    /// record of when this VP aborts, read by the MPI layer's entry
    /// checks as well as by the activation rule.
    #[inline]
    pub fn abort_at(&self) -> Option<SimTime> {
        match self.t.abort_at.get(self.i) {
            Some(&ns) if ns != NO_TIME => Some(SimTime(ns)),
            _ => None,
        }
    }

    /// How the VP terminated (valid when [`VpState::Done`]). The
    /// termination time is the VP's final clock — see
    /// [`VpMut::set_termination`].
    #[inline]
    pub(crate) fn termination(&self) -> Option<Termination> {
        match self.t.flags[self.i] >> TERM_SHIFT {
            0 => None,
            1 => Some(Termination::Finished),
            2 => Some(Termination::Failed(self.clock())),
            _ => Some(Termination::Aborted(self.clock())),
        }
    }
}

/// Mutable view of one VP in a `VpTable`.
pub struct VpMut<'a> {
    t: &'a mut VpTable,
    i: usize,
}

impl VpMut<'_> {
    vp_read_api!(t);

    /// Set the scheduling state.
    #[inline]
    pub fn set_state(&mut self, s: VpState) {
        let f = &mut self.t.flags[self.i];
        *f = (*f & !STATE_MASK) | enc_state(s);
    }

    /// Advance the clock to at least `time` (clocks never move backward).
    #[inline]
    pub(crate) fn advance_clock(&mut self, time: SimTime) -> SimTime {
        let c = &mut self.t.clock[self.i];
        *c = (*c).max(time);
        *c
    }

    /// Begin a new wait: bump the token, record the class and description.
    /// Returns the token the wakeup must carry.
    ///
    /// # Panics
    ///
    /// If the token would reach `2^62` (after 4.6·10¹⁸ waits of one VP):
    /// the event queue stores tokens in 62 bits.
    pub fn begin_wait(&mut self, class: WaitClass, desc: &'static str) -> WaitToken {
        debug_assert_eq!(dec_state(self.t.flags[self.i]), VpState::Running);
        let tok = WaitToken(self.t.wait_token[self.i].0 + 1);
        assert!(
            tok.0 >> WAIT_TOKEN_BITS == 0,
            "wait token {} reached the 2^{WAIT_TOKEN_BITS} bound of the event queue's action word",
            tok.0
        );
        self.t.wait_token[self.i] = tok;
        self.t.wait_desc[self.i] = self.t.intern(desc);
        let f = &mut self.t.flags[self.i];
        *f = (*f & !(STATE_MASK | CLASS_MASK | WOKEN_BIT))
            | enc_state(VpState::Blocked)
            | (enc_class(class) << CLASS_SHIFT);
        tok
    }

    /// Re-enter a wait under an *existing* token after a spurious wake,
    /// keeping the already-scheduled wake event valid. Used by `sleep`
    /// and the file-system layer when an upper layer released the wait
    /// early.
    pub fn rearm_wait(&mut self, class: WaitClass, desc: &'static str, token: WaitToken) {
        self.t.wait_token[self.i] = token;
        self.t.wait_desc[self.i] = self.t.intern(desc);
        let f = &mut self.t.flags[self.i];
        *f = (*f & !(STATE_MASK | CLASS_MASK | WOKEN_BIT))
            | enc_state(VpState::Blocked)
            | (enc_class(class) << CLASS_SHIFT);
    }

    /// Deliver a wakeup: mark runnable with the pending-wake flag set.
    #[inline]
    pub(crate) fn deliver_wake(&mut self) {
        let f = &mut self.t.flags[self.i];
        *f = (*f & !STATE_MASK) | enc_state(VpState::Runnable) | WOKEN_BIT;
    }

    /// Consume a delivered wakeup, if any. Called by blocking futures on
    /// re-poll.
    #[inline]
    pub fn take_woken(&mut self) -> bool {
        let f = &mut self.t.flags[self.i];
        let woken = *f & WOKEN_BIT != 0;
        *f &= !WOKEN_BIT;
        woken
    }

    /// Set the scheduled time of failure. Materializes the lazy column
    /// on a shard's first injection.
    #[inline]
    pub(crate) fn set_time_of_failure(&mut self, tof: SimTime) {
        self.t.ensure_tof();
        self.t.time_of_failure[self.i] = tof.as_nanos();
    }

    /// Min-merge a propagated-abort activation time. Materializes the
    /// lazy column on a shard's first abort.
    #[inline]
    pub(crate) fn note_abort_at(&mut self, time: SimTime) {
        self.t.ensure_abort();
        let slot = &mut self.t.abort_at[self.i];
        *slot = (*slot).min(time.as_nanos());
    }

    /// Record how the VP terminated. Only the *kind* is stored: every
    /// kernel termination path sets the time to the VP's final clock
    /// (it advances the clock first), so the time is reconstructed from
    /// the clock column — asserted here.
    #[inline]
    pub(crate) fn set_termination(&mut self, term: Termination) {
        let kind = match term {
            Termination::Finished => 1u8,
            Termination::Failed(t) => {
                debug_assert_eq!(t, self.clock(), "termination time must be the final clock");
                2
            }
            Termination::Aborted(t) => {
                debug_assert_eq!(t, self.clock(), "termination time must be the final clock");
                3
            }
        };
        let f = &mut self.t.flags[self.i];
        *f = (*f & !(0b11 << TERM_SHIFT)) | (kind << TERM_SHIFT);
    }

    /// Move the coroutine out for polling (or teardown).
    #[inline]
    pub(crate) fn take_future(&mut self) -> Option<VpFuture> {
        self.t.futures[self.i].take()
    }

    /// Put the coroutine back after a `Pending` poll (or install it at
    /// spawn).
    #[inline]
    pub(crate) fn put_future(&mut self, fut: VpFuture) {
        self.t.futures[self.i] = Some(fut);
    }

    /// Drop the coroutine (force-terminate).
    #[inline]
    pub(crate) fn drop_future(&mut self) {
        self.t.futures[self.i] = None;
    }
}

impl fmt::Debug for VpRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vp")
            .field("rank", &self.rank())
            .field("clock", &self.clock())
            .field("state", &self.state())
            .field("wait", &self.wait_desc())
            .field("tof", &self.time_of_failure())
            .finish()
    }
}

impl fmt::Debug for VpMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        VpRef {
            t: self.t,
            i: self.i,
        }
        .fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> VpTable {
        VpTable::new(4..8, SimTime::ZERO)
    }

    #[test]
    fn dense_indexing_offsets_by_base() {
        let mut t = table();
        assert_eq!(t.len(), 4);
        assert!(t.contains(Rank(4)) && t.contains(Rank(7)));
        assert!(!t.contains(Rank(3)) && !t.contains(Rank(8)));
        assert_eq!(t.get(Rank(5)).rank(), Rank(5));
        t.get_mut(Rank(6)).advance_clock(SimTime(9));
        assert_eq!(t.get(Rank(6)).clock(), SimTime(9));
        assert_eq!(t.get(Rank(5)).clock(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn foreign_rank_panics() {
        table().get(Rank(0));
    }

    #[test]
    fn begin_wait_bumps_token_and_blocks() {
        let mut t = table();
        let mut vp = t.get_mut(Rank(4));
        vp.set_state(VpState::Running);
        let t1 = vp.begin_wait(WaitClass::Compute, "compute");
        assert_eq!(vp.state(), VpState::Blocked);
        assert_eq!(t.get(Rank(4)).wait_desc(), "compute");
        let mut vp = t.get_mut(Rank(4));
        vp.set_state(VpState::Running);
        let t2 = vp.begin_wait(WaitClass::Message, "recv");
        assert_ne!(t1, t2);
    }

    #[test]
    fn rearm_wait_keeps_token_valid() {
        let mut t = table();
        let mut vp = t.get_mut(Rank(4));
        vp.set_state(VpState::Running);
        let tok = vp.begin_wait(WaitClass::Compute, "compute");
        vp.deliver_wake();
        assert!(vp.take_woken());
        vp.rearm_wait(WaitClass::Compute, "compute", tok);
        assert_eq!(vp.state(), VpState::Blocked);
        assert_eq!(vp.wait_token(), tok);
        assert!(!vp.take_woken());
    }

    #[test]
    fn take_woken_is_one_shot() {
        let mut t = table();
        let mut vp = t.get_mut(Rank(4));
        vp.deliver_wake();
        assert!(vp.take_woken());
        assert!(!vp.take_woken());
    }

    #[test]
    fn clocks_never_move_backward() {
        let mut t = table();
        let mut vp = t.get_mut(Rank(7));
        vp.advance_clock(SimTime(50));
        assert_eq!(vp.advance_clock(SimTime(10)), SimTime(50));
    }

    #[test]
    fn packed_flags_round_trip_independently() {
        // Every (state, class, woken) combination survives a round trip
        // and mutating one field never disturbs the others.
        let mut t = table();
        let states = [
            VpState::Fresh,
            VpState::Running,
            VpState::Blocked,
            VpState::Runnable,
            VpState::Done,
        ];
        let classes = [WaitClass::Compute, WaitClass::Message, WaitClass::FileIo];
        for &s in &states {
            for &c in &classes {
                let mut vp = t.get_mut(Rank(4));
                vp.set_state(VpState::Running);
                vp.begin_wait(c, "x");
                vp.set_state(s);
                assert_eq!(vp.state(), s);
                assert_eq!(vp.wait_class(), c);
                vp.deliver_wake();
                assert_eq!(vp.wait_class(), c, "wake must not clobber class");
                assert_eq!(vp.state(), VpState::Runnable);
                assert!(vp.take_woken());
            }
        }
    }

    #[test]
    fn termination_kind_packs_and_time_is_the_clock() {
        let mut t = table();
        assert_eq!(t.get(Rank(4)).termination(), None);
        let mut vp = t.get_mut(Rank(4));
        vp.advance_clock(SimTime(77));
        vp.set_termination(Termination::Failed(SimTime(77)));
        let failed = Some(Termination::Failed(SimTime(77)));
        assert_eq!(t.get(Rank(4)).termination(), failed);
        let mut vp = t.get_mut(Rank(5));
        vp.advance_clock(SimTime(9));
        vp.set_termination(Termination::Aborted(SimTime(9)));
        let aborted = Some(Termination::Aborted(SimTime(9)));
        assert_eq!(t.get(Rank(5)).termination(), aborted);
        t.get_mut(Rank(6)).set_termination(Termination::Finished);
        assert_eq!(t.get(Rank(6)).termination(), Some(Termination::Finished));
    }

    #[test]
    fn activation_columns_are_lazy() {
        let mut t = table();
        assert!(t.time_of_failure.is_empty() && t.abort_at.is_empty());
        assert_eq!(t.get(Rank(4)).time_of_failure(), None);
        assert_eq!(t.get(Rank(4)).abort_at(), None);
        t.get_mut(Rank(5)).set_time_of_failure(SimTime(123));
        assert_eq!(t.time_of_failure.len(), 4, "column materializes once");
        assert_eq!(t.get(Rank(5)).time_of_failure(), Some(SimTime(123)));
        assert_eq!(t.get(Rank(4)).time_of_failure(), None);
        t.get_mut(Rank(6)).note_abort_at(SimTime(50));
        t.get_mut(Rank(6)).note_abort_at(SimTime(40));
        t.get_mut(Rank(6)).note_abort_at(SimTime(60));
        assert_eq!(t.get(Rank(6)).abort_at(), Some(SimTime(40)), "min-merge");
    }

    #[test]
    fn wait_descs_intern_to_one_byte() {
        let mut t = table();
        for r in 4..8 {
            let mut vp = t.get_mut(Rank(r));
            vp.set_state(VpState::Running);
            vp.begin_wait(WaitClass::Message, "recv");
        }
        assert_eq!(t.descs.len(), 2, "one shared entry plus the empty slot");
        assert_eq!(t.get(Rank(7)).wait_desc(), "recv");
    }
}
