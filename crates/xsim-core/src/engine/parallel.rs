//! Conservative windowed parallel engine with static shard ownership.
//!
//! The rank space is partitioned into contiguous shards,
//! `SHARDS_PER_WORKER` per requested worker, and every thread owns a
//! fixed, interleaved set of them for the whole run: with `T` threads,
//! thread `t` owns shards `t, t + T, t + 2T, …` — the shared-memory
//! analogue of xSim's native processes each owning simulated ranks
//! (paper §II-A, §IV-A). Interleaving spreads a collective's phases over
//! the threads: with contiguous blocks a tree's up-sweep runs on one
//! thread while its down-sweep waits on the other.
//!
//! `T` is the shard count over `SHARDS_PER_WORKER`, rounded up (the
//! requested worker count, unless there are fewer ranks than that many
//! shards), capped at the host's available parallelism: the shard
//! layout, and with it every simulated value, depends on the request
//! alone, while no thread waits for a core another thread holds.
//! Thread 0 is the calling thread, so a one-thread run starts no thread.
//! Every thread runs one loop, one iteration per global window:
//!
//! * **Phase A:** drain each owned shard's inbound exchange slots into
//!   its queue and publish its next pending event time. The first
//!   Phase A builds the thread's shards first, on the thread that runs
//!   them, so each shard's memory comes from that thread's heap.
//! * **Barrier 1**, after which every thread computes the two smallest
//!   published times (`min1`, `min2`) and takes the same exit decision.
//! * **Phase B:** process each owned shard's events below the window
//!   bound (or under the clamped exclusive drain described below), then
//!   swap its outbox lanes into the exchange slots (batched delivery,
//!   buffers recycled between windows).
//! * **Barrier 2**, then the next window.
//!
//! Both crossings use one [`WindowBarrier`]: a generation counter that a
//! waiter spins on for a bounded time before it parks.
//!
//! Every write of shared state is separated from every read of it by a
//! barrier: bounds and the panic flag are written in Phase A and read
//! between the barriers; exchange slots are filled in Phase B and
//! drained in Phase A; per-thread window event counts are written in
//! Phase B and read after barrier 2. All threads therefore derive
//! identical window parameters and leave the loop in the same iteration.
//!
//! Each shard spawns its ranks through its own program handle
//! ([`VpProgram::shard_handle`]), so a rank's spawn and exit touch no
//! refcount that another thread touches too.
//!
//! ## Window-bound safety
//!
//! Every shard's (exclusive) bound is the classic conservative
//! `min1 + la`, `la = cfg.lookahead`: every cross-shard event carries at
//! least `la` of virtual delay, so all events below that bound are
//! already queued when the window opens. Extending the bound further is
//! unsound in general — a shard processing past `min1 + la` can emit a
//! request whose *reply* arrives with only `2·la` of accumulated delay,
//! i.e. inside the region it already drained.
//!
//! One sound extension remains: when exactly one shard has pending work
//! (`min2 == MAX`) it drains with an unbounded window, *clamped as it
//! goes* to `outbox_min + la`, where `outbox_min` is the earliest
//! cross-shard event it has emitted so far this window. Until it emits,
//! nothing outside can ever act; once it emits an event arriving at
//! `A`, any causal echo crosses shards twice and returns no earlier
//! than `A + la`. An isolated shard (or a single-shard run) therefore
//! still drains to completion without per-event synchronization.
//!
//! ## Determinism
//!
//! Each shard processes its events in ascending `(time, dst, src, seq)`
//! key order; keys are globally unique and pop-min order is
//! insertion-order independent, so batching the exchange cannot reorder
//! anything. `Call` actions only mutate destination-rank state, and
//! per-source `seq` counters advance on the source's owning shard alone
//! — per-rank event histories, and therefore all virtual-time results,
//! are identical to the sequential engine's for any worker or thread
//! count. Only the [`EngineProfile`] execution-shape counters vary.
//!
//! ## Panic containment
//!
//! A thread that unwound out of the loop would leave the others blocked
//! at a barrier forever, so both phases — the shard build included —
//! run under `catch_unwind`: a thread whose phase panicked keeps the
//! payload, does no further work, keeps arriving at barriers and raises
//! a shared flag in its next Phase A — like the bounds, the flag is
//! stable when it is read, and everyone leaves together. [`run_parallel`]
//! then resumes the first payload in thread order on the calling thread,
//! as the sequential engine would have.

use super::barrier::WindowBarrier;
use super::{assemble_report, SetupFn};
use crate::config::{CoreConfig, SHARDS_PER_WORKER};
use crate::ctx;
use crate::error::SimError;
use crate::event::EventRec;
use crate::kernel::Kernel;
use crate::report::{EngineProfile, SimReport};
use crate::time::SimTime;
use crate::vp::VpProgram;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A poisoned slot lock means a thread panicked mid-swap: propagate.
const POISONED: &str = "a parallel-engine thread panicked while holding this lock";

/// Shared synchronization state of one parallel run.
struct Shared {
    /// Per-shard next pending event time (u64::MAX = idle). Written by
    /// the owner in Phase A, read by everyone between the barriers.
    next_times: Vec<AtomicU64>,
    /// `slots[dst][src]` carries the batch of events shard `src` produced
    /// for shard `dst` this window. Phase B swaps a full outbox lane in;
    /// Phase A drains it (keeping the allocation), so the two buffers per
    /// pair ping-pong and steady-state traffic allocates nothing. Never
    /// contended: a barrier separates the two phases.
    slots: Vec<Vec<Mutex<Vec<EventRec>>>>,
    /// Window barrier (two crossings per window).
    barrier: WindowBarrier,
    /// Events each thread processed in the current window. Written in
    /// Phase B, read by thread 0 after barrier 2.
    window_events: Vec<AtomicU64>,
    /// Aggregate processed-event counter for the budget check.
    events: AtomicU64,
    /// Window index during which the event budget first tripped
    /// (u64::MAX: never). The exit check compares it against the
    /// *current* window, so a trip during window `w` — which some threads
    /// may observe mid-scan and others not — halts everyone in `w + 1`.
    budget_window: AtomicU64,
    /// Raised (in Phase A only) by a thread holding a panic payload.
    panicked: AtomicBool,
}

/// Run the simulation on one thread per `SHARDS_PER_WORKER` shards, at
/// most one per CPU, the calling thread first; each owns an interleaved
/// set of shards.
pub(crate) fn run_parallel(
    cfg: CoreConfig,
    program: Arc<dyn VpProgram>,
    setup: SetupFn<'_>,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    let start = Instant::now();
    let cfg = Arc::new(cfg);
    let n_shards = cfg.n_shards();
    let per = cfg.ranks_per_shard();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let n_threads = n_shards.div_ceil(SHARDS_PER_WORKER).min(cores);
    let build = |s: usize| {
        let lo = s * per;
        let hi = ((s + 1) * per).min(cfg.n_ranks);
        let handle = program.shard_handle().unwrap_or_else(|| program.clone());
        let mut k = Kernel::new(s, cfg.clone(), lo..hi, handle);
        k.schedule_spawns();
        k
    };
    // Thread `t` builds and owns shards `t, t + n_threads, …`, in
    // ascending order. In an `Option`, so a thread can lend its shard to
    // its slot.
    let mut owned: Vec<Vec<Option<Kernel>>> = (0..n_threads).map(|_| Vec::new()).collect();
    let shared = Shared {
        next_times: (0..n_shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
        slots: (0..n_shards)
            .map(|_| (0..n_shards).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        barrier: WindowBarrier::new(n_threads),
        window_events: (0..n_threads).map(|_| AtomicU64::new(0)).collect(),
        events: AtomicU64::new(0),
        budget_window: AtomicU64::new(u64::MAX),
        panicked: AtomicBool::new(false),
    };
    let outcomes: Vec<std::thread::Result<EngineProfile>> = std::thread::scope(|scope| {
        let (shared, cfg, build) = (&shared, &*cfg, &build);
        let (first, rest) = owned.split_first_mut().expect("a run has a shard");
        let others: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(t, mine)| {
                scope.spawn(move || worker_loop(t + 1, mine, shared, cfg, setup, build))
            })
            .collect();
        // The caller is thread 0. Its loop re-raises a caught panic only
        // after every thread has left the last window, so catching it
        // here just puts it in line with the others' `join` results.
        let caller = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(0, first, shared, cfg, setup, build)
        }));
        std::iter::once(caller)
            .chain(others.into_iter().map(|t| t.join()))
            .collect()
    });
    let mut profile = EngineProfile::default();
    for outcome in outcomes {
        profile.merge(&outcome.unwrap_or_else(|payload| resume_unwind(payload)));
    }
    if shared.budget_window.load(Ordering::Relaxed) != u64::MAX {
        return Err(SimError::EventBudgetExceeded {
            processed: shared.events.load(Ordering::Relaxed),
        });
    }
    // Back into shard order: shard `s` is thread `s % n_threads`'s next.
    let mut owned: Vec<_> = owned.into_iter().map(Vec::into_iter).collect();
    let kernels = (0..n_shards)
        .map(|s| {
            owned[s % n_threads]
                .next()
                .flatten()
                .expect("a shard left its thread")
        })
        .collect();
    assemble_report(&cfg, kernels, profile, start.elapsed())
}

fn note_barrier_wait(prof: &mut EngineProfile, since: Instant) {
    let waited = since.elapsed().as_nanos() as u64;
    prof.barrier_wait_ns += waited;
    prof.window_barrier_hwm_ns = prof.window_barrier_hwm_ns.max(waited);
}

/// One thread's run over the shards it owns, which it builds from shard
/// indices with `build` in its first Phase A. A panic caught in a phase
/// is re-raised after the loop and reaches [`run_parallel`] in the
/// thread's outcome.
fn worker_loop(
    me: usize,
    mine: &mut Vec<Option<Kernel>>,
    shared: &Shared,
    cfg: &CoreConfig,
    setup: SetupFn<'_>,
    build: &(dyn Fn(usize) -> Kernel + Sync),
) -> EngineProfile {
    let mut prof = EngineProfile::default();
    // One event count per thread, one bound per shard.
    let (n_threads, n_shards) = (shared.window_events.len(), shared.next_times.len());
    // AssertUnwindSafe below: once a phase has panicked nobody touches
    // these kernels again — the run ends and the payload is re-raised.
    let mut caught = None;
    let mut window: u64 = 0;
    let mut busy_ns = 0u64;
    loop {
        // ---- Phase A: ingest exchanged batches, publish bounds.
        if caught.is_none() {
            caught = catch_unwind(AssertUnwindSafe(|| {
                if window == 0 {
                    // First touch: build the shards on this thread, then
                    // install their services and injections.
                    for s in (me..n_shards).step_by(n_threads) {
                        let mut k = build(s);
                        setup(&mut k);
                        mine.push(Some(k));
                    }
                }
                for k in mine.iter_mut().flatten() {
                    ingest(k, shared, &mut prof);
                }
            }))
            .err();
        }
        if caught.is_some() {
            shared.panicked.store(true, Ordering::SeqCst);
        }
        let arrived = Instant::now();
        shared.barrier.wait();
        note_barrier_wait(&mut prof, arrived);

        // ---- Everyone derives the same window from the published state.
        let mut min1 = u64::MAX;
        let mut min2 = u64::MAX;
        let mut min1_count = 0u32;
        for t in &shared.next_times {
            let v = t.load(Ordering::SeqCst);
            if v < min1 {
                min2 = min1;
                min1 = v;
                min1_count = 1;
            } else if v == min1 {
                min1_count = min1_count.saturating_add(1);
            } else if v < min2 {
                min2 = v;
            }
        }
        if min1 == u64::MAX
            || shared.budget_window.load(Ordering::Relaxed) < window
            || shared.panicked.load(Ordering::SeqCst)
        {
            // No pending work, a budget trip in a *previous* window, or
            // a held panic: over, for every thread alike. (A trip in this
            // window, which a thread already in Phase B may cause while
            // another is still here, does not count yet: `w < w`.)
            break;
        }
        prof.windows += 1;

        // ---- Phase B: execute each shard's window, flush its batches.
        // (Nobody holds a panic here, or the check above had fired.)
        let sole_active = min2 == u64::MAX && min1_count == 1;
        let began = Instant::now();
        let mut processed = 0;
        caught = catch_unwind(AssertUnwindSafe(|| {
            for k in mine.iter_mut() {
                processed += execute(k, shared, cfg, window, min1, sole_active);
            }
        }))
        .err();
        shared.window_events[me].store(processed, Ordering::Relaxed);
        let arrived = Instant::now();
        busy_ns += arrived.duration_since(began).as_nanos() as u64;
        shared.barrier.wait();
        note_barrier_wait(&mut prof, arrived);
        if me == 0 {
            prof.window_critical_events += shared
                .window_events
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
        }
        window += 1;
    }
    if let Some(payload) = caught {
        resume_unwind(payload);
    }
    prof.worker_busy_ns = vec![busy_ns];
    prof
}

/// Phase A for one shard: drain its inbound slots, publish its bound.
fn ingest(k: &mut Kernel, shared: &Shared, prof: &mut EngineProfile) {
    for slot in &shared.slots[k.shard_id] {
        let mut slot = slot.lock().expect(POISONED);
        prof.batched_events += slot.len() as u64;
        prof.batch_max_events = prof.batch_max_events.max(slot.len() as u64);
        // drain() keeps the slot's capacity: the buffer returns to the
        // producer, which swaps it back in as its next outbox lane.
        for ev in slot.drain(..) {
            debug_assert!(k.owns(ev.key.dst), "exchange misrouted an event");
            k.queue.push(ev);
        }
    }
    k.note_queue_depth();
    let next = k.queue.next_time().map_or(u64::MAX, |t| t.as_nanos());
    shared.next_times[k.shard_id].store(next, Ordering::SeqCst);
}

/// Phase B for one shard: lend it to this thread's slot, process its
/// window, take it back and flush its outbox lanes. Returns the number
/// of events it processed.
fn execute(
    shard: &mut Option<Kernel>,
    shared: &Shared,
    cfg: &CoreConfig,
    window: u64,
    min1: u64,
    sole_active: bool,
) -> u64 {
    let k = shard.take().expect("a shard left its thread");
    let s = k.shard_id;
    let la = cfg.lookahead.as_nanos();
    // The sole shard with pending work drains unboundedly, under the
    // emission clamp below; everyone else stops at `min1 + la`.
    let shared_bound = min1.saturating_add(la);
    let exclusive = sole_active && shared.next_times[s].load(Ordering::SeqCst) == min1;
    let bound = if exclusive { u64::MAX } else { shared_bound };
    let budget_limited = cfg.max_events != u64::MAX;
    let base = shared.events.load(Ordering::Relaxed);
    let mut processed = 0u64;
    let lent = ctx::lend(k);
    lent.drain(|k| {
        // Checked before every pop after the first: in an unclamped
        // exclusive drain a runaway program would otherwise never stop.
        if budget_limited
            && processed > 0
            && (base + processed > cfg.max_events
                || shared.budget_window.load(Ordering::Relaxed) != u64::MAX)
        {
            shared.budget_window.fetch_min(window, Ordering::Relaxed);
            return None;
        }
        // Re-clamped every pop: a later emission can carry an *earlier*
        // arrival time. The clamp never cuts below the current
        // processing point (an emission from time `t` arrives ≥ `t + la`,
        // putting the clamp ≥ `t + 2·la`).
        let eff = bound.min(k.outbox_min.saturating_add(la));
        let ev = k.queue.pop_before(SimTime(eff))?;
        debug_assert!(
            ev.key.time.as_nanos() >= min1,
            "event below the window's lower bound"
        );
        processed += 1;
        Some(ev)
    });
    let k = shard.insert(lent.take());
    let total = shared.events.fetch_add(processed, Ordering::Relaxed) + processed;
    if total > cfg.max_events {
        shared.budget_window.fetch_min(window, Ordering::Relaxed);
    }
    for (dst, lane) in k.outbox.iter_mut().enumerate() {
        if lane.is_empty() {
            continue;
        }
        // No receiver processed past the shared bound this window, so
        // every exchanged event must land at or beyond it.
        debug_assert!(
            lane.iter().all(|ev| ev.key.time.as_nanos() >= shared_bound),
            "cross-shard event below the receiver's window bound {:?}",
            SimTime(shared_bound)
        );
        let mut slot = shared.slots[dst][s].lock().expect(POISONED);
        debug_assert!(slot.is_empty(), "exchange slot not drained in Phase A");
        // The drained slot buffer comes back as next window's lane.
        std::mem::swap(&mut *slot, lane);
    }
    k.outbox_min = u64::MAX;
    processed
}
