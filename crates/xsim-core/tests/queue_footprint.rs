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
    // Both blocks of a growing `realloc` are live while the contents
    // move. A shrinking one trims the block in place (glibc splits the
    // chunk or `mremap`s it) and never raises the peak.
    if to > from {
        PEAK.set(PEAK.get().max(LIVE.get().wrapping_add(to as u64)));
    }
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

/// Bytes of one resident event record.
const REC: u64 = 32;

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
        "flood: peak {:.2} x {REC} B x n, {} buckets, {} rebuilds",
        peak as f64 / (REC * N) as f64,
        stats.ring_hwm,
        stats.rebuilds
    );
    assert_eq!(stats.rebuilds, 0, "a same-time flood was redistributed");
    assert_eq!(stats.bucket_hwm, N);
    assert!(
        peak <= REC * N * 16 / 10 + 64 * KIB,
        "peak {peak} B for {N} resident {REC} B events"
    );
}

/// The raw-core ring as a queue: a 2¹⁸-event wave at t = 0, each of
/// whose pops pushes one event 2 µs and one 10 µs out, drained to the
/// end. While the wave drains, its bucket must give memory back to the
/// two it is filling: holding all three at full size costs ≈ 146 B × n.
#[test]
fn draining_wave_gives_its_pages_back() {
    const N: u64 = 1 << 18;
    let (stats, _, peak) = measured(|| {
        let mut q = EventQueue::new();
        for i in 0..N {
            q.push(ev(0, i as u32, 0));
        }
        let mut seq = 1;
        let mut last = None;
        while let Some(e) = q.pop() {
            assert!(last < Some(e.key), "popped out of order");
            last = Some(e.key);
            if e.key.time == SimTime::ZERO {
                for dt in [2_000, 10_000] {
                    q.push(ev(dt, e.key.dst.0, seq));
                    seq += 1;
                }
            }
        }
        q.stats()
    });
    eprintln!(
        "drain wave: peak {:.1} B x n, {} buckets, bucket hwm {}",
        peak as f64 / N as f64,
        stats.ring_hwm,
        stats.bucket_hwm
    );
    assert_eq!(stats.pushes, 3 * N);
    assert!(peak <= 120 * N, "peak {peak} B for a {N}-event wave");
}

/// Alternating push/pop right at the drain threshold of a giant head
/// bucket: a shrink must not be undone by the next push and redone by
/// the next pop.
#[test]
fn drain_shrink_does_not_thrash() {
    const N: u64 = 1 << 18;
    const OPS: u64 = 100_000;
    let mut q = EventQueue::new();
    // Keys above every alternating push below, so each push is the new
    // minimum: an O(1) append, popped right back.
    for i in 0..N {
        q.push(ev(0, (OPS + i) as u32, 0));
    }
    // The wave's buffer holds exactly n records; stop one pop short of
    // half of it.
    for _ in 0..N / 2 - 1 {
        q.pop();
    }
    let ((), allocs, _) = measured(|| {
        for i in 0..OPS {
            q.pop();
            q.push(ev(0, i as u32, 1));
        }
    });
    eprintln!("no-thrash: {allocs} allocation calls over {OPS} pop/push pairs");
    assert!(allocs <= 8, "{allocs} allocation calls");
    assert_eq!(q.len() as u64, N / 2 + 1);
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
