//! Footprint and step gates of the pending-event queue, counted by a
//! first-party `#[global_allocator]` and the queue's own
//! [`QueueStats`](xsim_core::QueueStats): the queue costs what it
//! *holds*. None of these depend on how much virtual time the pending
//! events span — the shapes below are the ones a span-sized ring turned
//! into a 2²⁰-bucket, 25 MiB allocation per run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xsim_core::event::{Action, EventKey, EventRec};
use xsim_core::{EventQueue, QueueStats, Rank, SimTime};

struct Counting;

// Per thread, so that the tests — one thread each, none of them
// spawning — neither need a lock nor see the harness's own allocations.
// Const-initialised and without destructors: touching them from inside
// the allocator can neither allocate nor hit a torn-down slot.
thread_local! {
    /// Allocation calls so far (a `realloc` counts as one).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed (wrapping: frees of memory
    /// that predates a sample simply cancel in the difference).
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// Largest `LIVE` since the last reset.
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn resized(from: usize, to: usize) {
    ALLOCS.set(ALLOCS.get() + (to > 0) as u64);
    // Both blocks of a `realloc` are live while the contents move.
    PEAK.set(PEAK.get().max(LIVE.get().wrapping_add(to as u64)));
    LIVE.set(LIVE.get().wrapping_add(to as u64).wrapping_sub(from as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        resized(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resized(layout.size(), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        resized(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` cost this thread: `(its result, allocation calls, peak live
/// bytes above the level it started at)`.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (live0, allocs0) = (LIVE.get(), ALLOCS.get());
    PEAK.set(live0);
    let out = f();
    (out, ALLOCS.get() - allocs0, PEAK.get().wrapping_sub(live0))
}

fn ev(time: u64, dst: u32, seq: u64) -> EventRec {
    EventRec {
        key: EventKey {
            time: SimTime(time),
            dst: Rank(dst),
            src: Rank(0),
            seq,
        },
        action: Action::Spawn,
    }
}

/// Pop everything, checking the order; the queue's final counters.
fn drain(mut q: EventQueue) -> QueueStats {
    let mut last = None;
    while let Some(e) = q.pop() {
        assert!(last < Some(e.key), "popped out of order");
        last = Some(e.key);
    }
    q.stats()
}

const KIB: u64 = 1024;

/// 221 events: a 600 ns cluster and 21 timers out to 1,700 s.
#[test]
fn sparse_span_trace_stays_small() {
    let (stats, _, peak) = measured(|| {
        let mut q = EventQueue::new();
        for i in 0..200 {
            q.push(ev(1_000 + 3 * i, i as u32, i));
        }
        for s in 1..=20 {
            q.push(ev(s * 1_000_000_000, 0, 200 + s));
        }
        q.push(ev(1_700_000_000_000, 0, 221));
        drain(q)
    });
    eprintln!(
        "sparse span: peak {peak} B, {} buckets, {} empty steps",
        stats.ring_hwm, stats.empty_steps
    );
    assert!(peak < 64 * KIB, "{peak} B live for 221 events");
    assert!(stats.ring_hwm <= 512, "{} buckets", stats.ring_hwm);
}

/// The `protection_mix` shape as a hold model: 250 pending, one push in
/// 32 a timer 1 ms – 65 s out (log-uniform), the rest 1 – 4,096 ns.
#[test]
fn campaign_hold_trace_walks_few_empty_buckets() {
    const OPS: u64 = 100_000;
    let mut g = xsim_core::DetRng::stream(0xC0DE_0002, 0);
    let mut delta = move || {
        if g.gen_in(0..32) == 0 {
            let octave = 1_000_000u64 << g.gen_in(0..16);
            octave + g.gen_in(0..octave)
        } else {
            g.gen_in(1..4_097)
        }
    };
    let (stats, _, peak) = measured(|| {
        let mut q = EventQueue::new();
        for seq in 0..250 {
            q.push(ev(delta(), 0, seq));
        }
        for seq in 0..OPS {
            let now = q.pop().expect("hold model never empties").key.time;
            q.push(ev(now.as_nanos() + delta(), 0, 250 + seq));
        }
        drain(q)
    });
    let per_pop = stats.empty_steps as f64 / (OPS + 250) as f64;
    eprintln!(
        "campaign hold: peak {peak} B, {} buckets, {per_pop:.2} empty steps per pop, {} rebuilds",
        stats.ring_hwm, stats.rebuilds
    );
    assert!(stats.ring_hwm <= 512, "{} buckets", stats.ring_hwm);
    assert!(per_pop <= 4.0, "{per_pop:.2} empty steps per pop");
}

/// A spawn wave: 2¹⁸ events at one instant, ascending `dst`. It cannot
/// be spread over slices, so it must never be re-bucketed or copied:
/// the peak is the one doubling `realloc` of the buffer it sits in.
#[test]
fn same_time_flood_is_never_copied() {
    const N: u64 = 1 << 18;
    let (stats, _, peak) = measured(|| {
        let mut q = EventQueue::new();
        for i in 0..N {
            q.push(ev(0, i as u32, 0));
        }
        drain(q)
    });
    eprintln!(
        "flood: peak {:.2} x 40 B x n, {} buckets, {} rebuilds",
        peak as f64 / (40 * N) as f64,
        stats.ring_hwm,
        stats.rebuilds
    );
    assert_eq!(stats.rebuilds, 0, "a same-time flood was redistributed");
    assert_eq!(stats.bucket_hwm, N);
    assert!(
        peak <= 40 * N * 16 / 10 + 64 * KIB,
        "peak {peak} B for {N} resident 40 B events"
    );
}

/// An unused queue is free, and a 128-rank spawn wave costs a ring of
/// 256 headers plus the events.
#[test]
fn small_queues_cost_what_they_hold() {
    let ((), allocs, peak) = measured(|| drop(EventQueue::new()));
    assert_eq!((allocs, peak), (0, 0), "an empty queue allocated");

    let (stats, allocs, peak) = measured(|| {
        let mut q = EventQueue::new();
        for i in 0..128 {
            q.push(ev(0, i as u32, 0));
        }
        drain(q)
    });
    eprintln!("128 events: {allocs} allocations, peak {peak} B");
    assert_eq!(stats.pushes, 128);
    assert!(peak <= 16 * KIB, "{peak} B live for 128 events");
}
