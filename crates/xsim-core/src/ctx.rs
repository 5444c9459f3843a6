//! Execution context for VP coroutines.
//!
//! A VP's simulator calls (`now`, `sleep`, MPI operations in upper
//! layers) reach the kernel through a per-thread slot, as xSim's
//! simulated processes trap into the simulator for every timing, MPI or
//! file system function (paper §IV-A).
//!
//! ## The slot
//!
//! An engine lends (`lend`) a shard's [`Kernel`] to its thread, for the run
//! (sequential) or for one shard's window (parallel). `Lent::drain`
//! processes each event inside a borrow of the slot and, if the event
//! made its destination runnable, polls that VP with the slot released.
//! [`with_kernel`] is therefore a plain `RefCell` borrow: a call outside
//! a poll finds the slot empty or borrowed and panics.

use crate::event::EventRec;
use crate::kernel::Kernel;
use crate::rank::Rank;
use crate::time::SimTime;
use crate::vp::{WaitClass, WaitToken};
use std::cell::RefCell;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

thread_local! {
    /// The kernel lent to this thread. `ManuallyDrop`: no drop glue, so no
    /// destructor registration; [`Lent`] empties it on return and unwind.
    static SLOT: RefCell<ManuallyDrop<Option<Kernel>>> =
        const { RefCell::new(ManuallyDrop::new(None)) };
}

const LENT: &str = "the lent kernel left its slot";

/// Put `k` in this thread's slot until the returned guard drops.
pub(crate) fn lend(k: Kernel) -> Lent {
    let prev = SLOT.with(|s| s.borrow_mut().replace(k));
    Lent { prev }
}

/// A kernel lent to this thread's slot. Dropping the guard, on unwind
/// too, drops the kernel unless [`take`](Self::take) moved it out and
/// restores what an enclosing run had lent.
pub(crate) struct Lent {
    prev: Option<Kernel>,
}

impl Lent {
    /// Process the events `pop` hands out until it returns `None`. After
    /// each event, if it made its destination runnable, poll that VP
    /// once with the slot released.
    pub(crate) fn drain(&self, mut pop: impl FnMut(&mut Kernel) -> Option<EventRec>) {
        SLOT.with(|slot| loop {
            let (rank, mut fut) = {
                let mut k = slot.borrow_mut();
                let k = k.as_mut().expect(LENT);
                let Some(ev) = pop(k) else { return };
                let dst = ev.key.dst;
                k.process(ev);
                match k.begin_poll(dst) {
                    Some(fut) => (dst, fut),
                    None => continue,
                }
            };
            let poll = fut.as_mut().poll(&mut Context::from_waker(Waker::noop()));
            let mut k = slot.borrow_mut();
            k.as_mut().expect(LENT).end_poll(rank, fut, poll);
        })
    }

    /// Move the kernel out of the slot.
    pub(crate) fn take(self) -> Kernel {
        SLOT.with(|s| s.borrow_mut().take()).expect(LENT)
    }
}

impl Drop for Lent {
    fn drop(&mut self) {
        let lent = SLOT.with(|s| std::mem::replace(&mut **s.borrow_mut(), self.prev.take()));
        drop(lent);
    }
}

/// Access the kernel and the rank currently being polled. Panics when
/// called outside a VP poll or reentrantly.
pub fn with_kernel<R>(f: impl FnOnce(&mut Kernel, Rank) -> R) -> R {
    // `try_with` is `#[inline]`, `with` is not: from another codegen unit,
    // `with` costs a call and an indirect lookup, ≈ 10 % of an MPI message.
    SLOT.try_with(|s| {
        let mut k = s.try_borrow_mut().expect("reentrant simulator call");
        let k = k
            .as_mut()
            .expect("simulator call outside of a virtual process context");
        let rank = k.attributed_rank();
        f(k, rank)
    })
    .expect("simulator call outside of a virtual process context")
}

/// The virtual clock of the VP currently executing. Corresponds to the
/// simulated `gettimeofday()` of the paper (§IV-A) — reading the clock is
/// free.
pub fn now() -> SimTime {
    with_kernel(|k, r| k.vp(r).clock())
}

/// The lookahead of the current run: the minimum virtual delay any
/// cross-shard event must carry. Programs scheduling raw cross-rank
/// events (tests, custom services) can use this to stay inside the
/// parallel engine's conservative window contract.
pub fn lookahead() -> SimTime {
    with_kernel(|k, _| k.cfg.lookahead)
}

/// Block the current VP until the kernel wakes it. Returns the VP clock
/// at wake time. `class` controls which wakeups apply (see
/// [`WaitClass`]); `desc` labels the wait for deadlock diagnostics.
///
/// This is the *only* legitimate way for a VP future to return `Pending`.
/// Wakeups may be spurious (e.g. a message arrival while waiting for a
/// different request); callers re-check their predicate and re-block.
pub fn block(class: WaitClass, desc: &'static str) -> BlockFuture {
    BlockFuture {
        armed: false,
        class,
        desc,
    }
}

/// Future returned by [`block`].
pub struct BlockFuture {
    armed: bool,
    class: WaitClass,
    desc: &'static str,
}

impl Future for BlockFuture {
    type Output = SimTime;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<SimTime> {
        with_kernel(|k, rank| {
            let mut vp = k.vp_mut(rank);
            if !self.armed {
                self.armed = true;
                vp.begin_wait(self.class, self.desc);
                Poll::Pending
            } else if vp.take_woken() {
                Poll::Ready(vp.clock())
            } else {
                // Spurious poll (should not happen with the kernel's
                // wake-then-poll discipline, but harmless).
                vp.set_state(crate::vp::VpState::Blocked);
                Poll::Pending
            }
        })
    }
}

/// Register a wait and return its token *without* blocking yet; used by
/// upper layers that must schedule a wake event targeting this precise
/// wait before suspending. Pair with [`block_prearmed`].
pub fn arm_wait(class: WaitClass, desc: &'static str) -> WaitToken {
    with_kernel(|k, r| {
        // begin_wait asserts Running; arming happens mid-poll, so the VP
        // is Running.
        k.vp_mut(r).begin_wait(class, desc)
    })
}

/// Complete a wait armed with [`arm_wait`]: suspend until woken.
pub fn block_prearmed(token: WaitToken) -> PrearmedFuture {
    PrearmedFuture { token }
}

/// Future returned by [`block_prearmed`].
pub struct PrearmedFuture {
    token: WaitToken,
}

impl Future for PrearmedFuture {
    type Output = SimTime;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<SimTime> {
        with_kernel(|k, rank| {
            let mut vp = k.vp_mut(rank);
            debug_assert_eq!(vp.wait_token(), self.token, "wait token mismatch");
            if vp.take_woken() {
                Poll::Ready(vp.clock())
            } else {
                vp.set_state(crate::vp::VpState::Blocked);
                Poll::Pending
            }
        })
    }
}

/// Advance the current VP's clock by `d` while yielding to the simulator:
/// the direct analogue of a compute phase between MPI calls. The paper's
/// failure-activation rule applies at the end: if a failure (or abort)
/// was scheduled for a time the clock has now reached, the VP terminates
/// there (§IV-B).
///
/// Like an `async fn`, it schedules nothing until its first poll. The
/// future is 24 bytes: a parked rank's compute phase costs no more.
pub fn sleep(d: SimTime) -> Sleep {
    Sleep(SleepState::Start(d))
}

/// The future [`sleep`] returns. Named, so an upper layer's poll-state
/// machine can hold one in a field.
#[must_use = "futures do nothing unless polled"]
pub struct Sleep(SleepState);

/// The duration until the first poll arms the wait, then the deadline
/// and token of the scheduled wake.
enum SleepState {
    Start(SimTime),
    Armed { deadline: SimTime, token: WaitToken },
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut self.get_mut().0;
        with_kernel(|k, rank| match *this {
            SleepState::Start(d) => {
                let deadline = k.vp(rank).clock() + d;
                let token = k.vp_mut(rank).begin_wait(WaitClass::Compute, "compute");
                k.schedule_at(deadline, rank, crate::event::Action::WakeToken(token));
                *this = SleepState::Armed { deadline, token };
                Poll::Pending
            }
            SleepState::Armed { deadline, token } => {
                let mut vp = k.vp_mut(rank);
                debug_assert_eq!(vp.wait_token(), token, "wait token mismatch");
                if !vp.take_woken() {
                    vp.set_state(crate::vp::VpState::Blocked);
                    Poll::Pending
                } else if vp.clock() >= deadline {
                    Poll::Ready(())
                } else {
                    // Released early (an upper layer woke this VP): re-block
                    // on the same token, so the scheduled wake stays valid.
                    vp.rearm_wait(WaitClass::Compute, "compute", token);
                    Poll::Pending
                }
            }
        })
    }
}

/// Yield control to the simulator without advancing the clock: schedules
/// an immediate wake and blocks once. Useful to let same-time events
/// interleave deterministically.
pub async fn yield_now() {
    let token = with_kernel(|k, rank| {
        let now = k.vp(rank).clock();
        let token = k.vp_mut(rank).begin_wait(WaitClass::Compute, "yield");
        k.schedule_at(now, rank, crate::event::Action::WakeToken(token));
        token
    });
    block_prearmed(token).await;
}

/// Inject an immediate process failure into the calling VP — the
/// "simulator-internal function \[to\] trigger a process failure …
/// immediately" of paper §IV-B. The VP never resumes.
pub async fn fail_now() -> ! {
    with_kernel(|k, rank| {
        let now = k.vp(rank).clock();
        k.vp_mut(rank).set_time_of_failure(now);
        k.schedule_at(
            now,
            rank,
            crate::event::Action::call(move |k: &mut Kernel| {
                let clock = k.vp(rank).clock();
                k.kill_failed(rank, now, clock);
            }),
        );
    });
    loop {
        block(WaitClass::Doomed, "failed").await;
    }
}

#[cfg(test)]
mod tests {
    use super::with_kernel;
    use crate::vp::{VpExit, VpFuture};
    use crate::{engine, CoreConfig, Kernel, Rank};
    use std::sync::Arc;

    /// No engine has lent a kernel: the slot is empty.
    #[test]
    #[should_panic(expected = "outside of a virtual process context")]
    fn with_kernel_outside_poll_panics() {
        with_kernel(|_, _| ());
    }

    /// The outer call holds the slot's borrow.
    #[test]
    #[should_panic(expected = "reentrant simulator call")]
    fn nested_with_kernel_panics() {
        let program = |_: Rank| -> VpFuture {
            Box::pin(async {
                with_kernel(|_, _| with_kernel(|_, _| ()));
                VpExit::Finished
            })
        };
        let cfg = CoreConfig {
            n_ranks: 1,
            ..Default::default()
        };
        let _ = engine::run(cfg, Arc::new(program), &|_: &mut Kernel| {});
    }
}
