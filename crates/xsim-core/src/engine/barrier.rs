//! The parallel engine's window barrier: a generation counter that a
//! waiting worker spins on for at most [`SPIN`], then parks on.
//!
//! A window's two crossings are usually a few microseconds apart for
//! every worker, so parking at each one (as `std::sync::Barrier` does)
//! pays a futex sleep and wake-up per crossing for nothing. Spinning is
//! only worth it while every worker has a core of its own: with more
//! workers than the host's available parallelism a spinner would burn
//! the timeslice of the very worker it waits for, so such a barrier
//! parks at once. The parallel engine never starts more threads than
//! that, so only this module's own tests (eight threads on a host with
//! fewer cores) reach the park-at-once rule.

use std::hint::spin_loop;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a waiter spins before it parks. A window of a 4,096-rank
/// heat3d run lasts a few hundred microseconds on a 2-vCPU guest, and a
/// parked worker there pays ≈ 150 µs to be woken (5,355 parks per run
/// added 0.8 s of barrier wait), so a waiter spins past the usual skew
/// of a window's crossings (24–65 parks in 5,461 crossings at this
/// bound, 1,279–1,462 at 50 µs). The bound caps the CPU a waiter burns
/// when one worker's phase runs long.
const SPIN: Duration = Duration::from_millis(1);

/// Spins between two reads of the clock.
const SPINS_PER_CLOCK_READ: u32 = 64;

/// A reusable barrier for a fixed number of threads.
///
/// Every write a thread makes before [`WindowBarrier::wait`] is visible
/// to every thread after the same crossing: each arrival is a release
/// on `arrived`, the last arrival acquires them all and then releases
/// the new generation, which every waiter acquires.
pub(crate) struct WindowBarrier {
    n: usize,
    /// Whether waiters spin before parking (`n` ≤ available cores).
    spin: bool,
    /// Threads arrived at the current crossing.
    arrived: AtomicUsize,
    /// Crossings completed; a waiter leaves once it moves on.
    generation: AtomicU64,
    /// Guards the generation bump against a waiter about to park.
    lock: Mutex<()>,
    parked: Condvar,
}

impl WindowBarrier {
    pub(crate) fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        WindowBarrier {
            n,
            spin: n <= cores,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    /// Block until all `n` threads have called `wait` for this crossing.
    pub(crate) fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Nobody can arrive at the next crossing before the bump
            // below releases the waiters, so the reset cannot race.
            self.arrived.store(0, Ordering::Relaxed);
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.generation.store(generation + 1, Ordering::Release);
            self.parked.notify_all();
            return;
        }
        if self.spin && self.spin_until_crossed(generation) {
            return;
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while self.generation.load(Ordering::Acquire) == generation {
            guard = self
                .parked
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Spin for at most [`SPIN`]; whether the crossing completed.
    fn spin_until_crossed(&self, generation: u64) -> bool {
        let deadline = Instant::now() + SPIN;
        loop {
            for _ in 0..SPINS_PER_CLOCK_READ {
                if self.generation.load(Ordering::Acquire) != generation {
                    return true;
                }
                spin_loop();
            }
            if Instant::now() >= deadline {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every thread writes its slot before each crossing and, after it,
    /// reads every slot: each must hold that crossing's value. A lost
    /// release or acquire shows up as a stale slot; a lost wake-up as a
    /// hang.
    fn crossings_publish_every_write(threads: usize, crossings: u64) {
        let barrier = WindowBarrier::new(threads);
        let slots: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for me in 0..threads {
                let (barrier, slots) = (&barrier, &slots);
                scope.spawn(move || {
                    for c in 1..=crossings {
                        slots[me].store(c, Ordering::Relaxed);
                        barrier.wait();
                        for (t, slot) in slots.iter().enumerate() {
                            let seen = slot.load(Ordering::Relaxed);
                            assert_eq!(seen, c, "thread {me} saw thread {t}'s slot stale");
                        }
                        // Nobody writes the next value before everyone
                        // has read this one.
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(barrier.generation.load(Ordering::Relaxed), 2 * crossings);
        assert_eq!(barrier.arrived.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn one_thread_never_waits() {
        crossings_publish_every_write(1, 4_000);
    }

    #[test]
    fn two_threads_see_every_write() {
        crossings_publish_every_write(2, 4_000);
    }

    #[test]
    fn three_threads_see_every_write() {
        crossings_publish_every_write(3, 3_000);
    }

    #[test]
    fn four_threads_see_every_write() {
        crossings_publish_every_write(4, 3_000);
    }

    /// On a host with fewer than 8 cores this barrier parks at once
    /// instead of spinning.
    #[test]
    fn eight_threads_see_every_write() {
        crossings_publish_every_write(8, 2_000);
    }

    #[test]
    fn oversubscribed_barrier_parks_at_once() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert!(WindowBarrier::new(cores).spin);
        assert!(!WindowBarrier::new(cores + 1).spin);
    }
}
