//! Execution context for VP coroutines.
//!
//! While the kernel polls a VP future, a scoped thread-local holds a
//! pointer to the kernel so the future's simulator calls (`now`, `sleep`,
//! MPI operations in upper layers) can reach it. This mirrors how xSim's
//! simulated processes trap into the simulator for every timing, MPI or
//! file system function (paper §IV-A).
//!
//! ## Safety
//!
//! The raw pointer is derived from the `&mut Kernel` the engine holds and
//! is only dereferenced *inside* the dynamic extent of the poll, one
//! access at a time ([`with_kernel`] is non-reentrant, enforced at
//! runtime). The engine does not touch the kernel while the poll runs, so
//! no two live mutable references exist.

use crate::kernel::Kernel;
use crate::rank::Rank;
use crate::time::SimTime;
use crate::vp::{WaitClass, WaitToken};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

thread_local! {
    static CURRENT: Cell<*mut Kernel> = const { Cell::new(std::ptr::null_mut()) };
    static BORROWED: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the thread-local kernel pointer installed. Called by the
/// kernel around each VP poll.
pub(crate) fn enter<R>(k: &mut Kernel, f: impl FnOnce() -> R) -> R {
    struct Reset(*mut Kernel);
    impl Drop for Reset {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let prev = CURRENT.with(|c| c.replace(k as *mut Kernel));
    let _reset = Reset(prev);
    f()
}

/// Access the kernel and the rank currently being polled. Panics when
/// called outside a VP poll or reentrantly.
pub fn with_kernel<R>(f: impl FnOnce(&mut Kernel, Rank) -> R) -> R {
    let ptr = CURRENT.with(|c| c.get());
    assert!(
        !ptr.is_null(),
        "simulator call outside of a virtual process context"
    );
    BORROWED.with(|b| {
        assert!(!b.get(), "reentrant simulator call");
        b.set(true);
    });
    struct Unborrow;
    impl Drop for Unborrow {
        fn drop(&mut self) {
            BORROWED.with(|b| b.set(false));
        }
    }
    let _u = Unborrow;
    // SAFETY: `ptr` was installed by `enter` from a live `&mut Kernel`
    // for the duration of the poll; the runtime flag above guarantees no
    // overlapping reborrow.
    let k = unsafe { &mut *ptr };
    let rank = k.attributed_rank();
    f(k, rank)
}

/// The rank of the VP currently executing.
pub fn current_rank() -> Rank {
    with_kernel(|_, r| r)
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
    #[test]
    #[should_panic(expected = "outside of a virtual process context")]
    fn with_kernel_outside_poll_panics() {
        super::with_kernel(|_, _| ());
    }
}
