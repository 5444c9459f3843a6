//! Conservative windowed parallel engine over a work-stealing pool.
//!
//! The rank space is partitioned into contiguous shards — more shards
//! than workers when `cfg.shard_factor > 1`, so the pool is
//! oversubscribed and an idle worker picks up a hot shard's window task
//! instead of spinning at the barrier. Execution proceeds in global
//! windows; within each window every shard is handled exactly once per
//! phase by whichever worker claims its ticket:
//!
//! * **Phase A (ingest + publish):** drain the shard's inbound exchange
//!   slots into its queue and publish its next pending event time.
//! * **Barrier 1**, after which every worker independently computes the
//!   two smallest published times (`min1`, `min2`) and the window's
//!   effective lookahead `la = max(cfg.lookahead, lookahead_fn(min1))`.
//! * **Phase B (execute + flush):** process the shard's events below
//!   the window bound (or under the clamped exclusive drain described
//!   below), then swap its outbox lanes into the exchange slots
//!   (batched delivery, buffers recycled between windows) and
//!   re-publish the shard's post-execution next event time.
//! * **Barrier 2**, then the next window.
//!
//! ## Skipped ingest windows
//!
//! Phase A exists to ingest the previous window's exchange and publish
//! bounds that account for it. When a window exchanges *nothing* —
//! overwhelmingly common for compute-heavy workloads, where many
//! windows pass between communication bursts — the next window's
//! Phase A (and barrier 1 with it) is pure overhead: the bounds each
//! shard published at the end of Phase B are already exact. The engine
//! tracks the last window that flushed any outbox lane in a monotonic
//! marker; after barrier 2 every worker reads it and deterministically
//! agrees whether the next window starts at Phase A or jumps straight
//! to Phase B. This halves the barrier count (and removes an
//! O(shards²) slot scan) on exchange-free windows. Window 0 always
//! runs Phase A: it doubles as per-shard setup.
//!
//! Because a worker that finishes its min-scan early enters Phase B
//! while slower workers are still scanning, the published bounds are
//! double-buffered: window `w` scans (and Phase A writes) buffer
//! `w % 2`, while Phase B publishes its post-execution bounds into
//! buffer `(w + 1) % 2`. Every write is thus separated from every
//! scan that reads it by a barrier, and all workers derive identical
//! window parameters.
//!
//! The slot scan itself is driven by per-destination atomic bitmasks of
//! non-empty exchange slots, so an ingest phase locks exactly the
//! (src → dst) lanes that carry traffic instead of all `n_shards²`.
//!
//! ## Window-bound safety
//!
//! Every shard's (exclusive) bound is the classic conservative
//! `min1 + la`: every cross-shard event carries at least `la` of
//! virtual delay, so all events below that bound are already queued
//! when the window opens. Extending the bound any further is unsound in
//! general — a shard processing past `min1 + la` can emit a request
//! whose *reply* arrives with only `2·la` of accumulated delay, i.e.
//! inside the region it already drained.
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
//! are identical to the sequential engine's for any worker or shard
//! count. Skipping an ingest phase only elides synchronization that had
//! nothing to synchronize; the window-bound arithmetic is unchanged.
//! Only the [`EngineProfile`] execution-shape counters (windows, skips,
//! steals, barrier waits, batch sizes) vary.

use super::{assemble_report, SetupFn};
use crate::config::CoreConfig;
use crate::error::SimError;
use crate::event::EventRec;
use crate::kernel::Kernel;
use crate::report::{EngineProfile, SimReport};
use crate::time::SimTime;
use crate::vp::VpProgram;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// A poisoned shard, slot or profile lock means another worker panicked
/// mid-window and left it half-updated: propagate instead of simulating on.
const POISONED: &str = "a parallel-engine worker panicked while holding this lock";

/// Shared synchronization state of one parallel run.
struct SyncState {
    /// Double-buffered per-shard next pending event time (u64::MAX =
    /// idle). Window `w` scans buffer `w % 2`; Phase A publishes into
    /// that same buffer, while Phase B publishes its post-execution
    /// bound into buffer `(w + 1) % 2` for the *next* window. The
    /// split matters: a worker that finishes its scan early enters
    /// Phase B while slower workers are still scanning, so Phase B
    /// must never write the buffer the current window reads — with
    /// one buffer the racing writes made workers derive different
    /// `min1` values (unsound bounds, divergent exits, deadlock at
    /// the barrier).
    next_times: [Vec<AtomicU64>; 2],
    /// Exchange slot matrix: `slots[dst][src]` carries the batch of
    /// events shard `src` produced for shard `dst` this window. Phase B
    /// swaps a full outbox lane in; Phase A drains it (keeping the
    /// allocation), so the two buffers per (src,dst) pair ping-pong and
    /// steady-state traffic allocates nothing.
    slots: Vec<Vec<Mutex<Vec<EventRec>>>>,
    /// Per-destination bitmask of source shards with a non-empty slot
    /// (`filled[dst][src / 64]` bit `src % 64`). Lets Phase A lock only
    /// the lanes that carry traffic.
    filled: Vec<Vec<AtomicU64>>,
    /// Index+1 of the most recent window that flushed any outbox lane.
    /// Monotonic; read after barrier 2 to decide whether the next
    /// window needs an ingest phase at all.
    exchanged: AtomicU64,
    /// Window barrier (at most two crossings per window).
    barrier: Barrier,
    /// Monotonic ticket counter driving the work-stealing pool: with
    /// `p` executed phases so far, tickets `p*n_shards..(p+1)*n_shards`
    /// map to the shards of the current phase. (Workers track `p`
    /// locally; skipped phases consume no tickets.)
    ticket: AtomicUsize,
    /// Aggregate processed-event counter for the budget check.
    events: AtomicU64,
    /// Window index during which the event budget first tripped
    /// (u64::MAX: never). The exit check compares it against the
    /// *current* window, so a trip during window `w` — which some
    /// workers may observe mid-scan and others not — halts everyone
    /// uniformly at the start of window `w + 1`.
    budget_window: AtomicU64,
    /// Merged execution profile (workers fold theirs in on exit).
    profile: Mutex<EngineProfile>,
}

/// Claim up to `chunk` consecutive tickets below `end`; returns the
/// claimed range. Chunking amortizes the contended atomic over several
/// shard-tasks when shards heavily outnumber workers.
#[inline]
fn claim(ticket: &AtomicUsize, end: usize, chunk: usize) -> Option<Range<usize>> {
    let mut got = 0..0;
    ticket
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
            if t < end {
                let take = chunk.min(end - t);
                got = t..t + take;
                Some(t + take)
            } else {
                None
            }
        })
        .ok()
        .map(|_| got)
}

/// Run the simulation across up to `cfg.workers` worker threads pulling
/// from `cfg.n_shards()` shard tasks.
pub fn run_parallel(
    cfg: CoreConfig,
    program: Arc<dyn VpProgram>,
    setup: SetupFn<'_>,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    let start = std::time::Instant::now();
    let cfg = Arc::new(cfg);
    let n_shards = cfg.n_shards();
    let per = cfg.ranks_per_shard();
    let nthreads = cfg.workers.min(n_shards).max(1);
    let mask_words = n_shards.div_ceil(64);

    let sync = SyncState {
        next_times: [
            (0..n_shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            (0..n_shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
        ],
        slots: (0..n_shards)
            .map(|_| {
                (0..n_shards)
                    .map(|_| Mutex::new(Vec::with_capacity(cfg.batch_hint)))
                    .collect()
            })
            .collect(),
        filled: (0..n_shards)
            .map(|_| (0..mask_words).map(|_| AtomicU64::new(0)).collect())
            .collect(),
        exchanged: AtomicU64::new(0),
        barrier: Barrier::new(nthreads),
        ticket: AtomicUsize::new(0),
        events: AtomicU64::new(0),
        budget_window: AtomicU64::new(u64::MAX),
        profile: Mutex::new(EngineProfile::default()),
    };

    let kernels: Vec<Mutex<Kernel>> = (0..n_shards)
        .map(|s| {
            let lo = s * per;
            let hi = ((s + 1) * per).min(cfg.n_ranks);
            let mut k = Kernel::new(s, cfg.clone(), lo..hi, program.clone());
            k.schedule_spawns();
            Mutex::new(k)
        })
        .collect();

    std::thread::scope(|scope| {
        for worker_id in 0..nthreads {
            let sync = &sync;
            let cfg = &cfg;
            let kernels = &kernels;
            scope.spawn(move || {
                worker_loop(worker_id, nthreads, kernels, sync, cfg, setup);
            });
        }
    });

    if sync.budget_window.load(Ordering::Relaxed) != u64::MAX {
        return Err(SimError::EventBudgetExceeded {
            processed: sync.events.load(Ordering::Relaxed),
        });
    }

    let kernels: Vec<Kernel> = kernels
        .into_iter()
        .map(|m| m.into_inner().expect(POISONED))
        .collect();
    let profile = *sync.profile.lock().expect(POISONED);
    assemble_report(&cfg, kernels, profile, start.elapsed())
}

/// The shared (exclusive) window bound, `min1 + la` (see module docs).
/// The sole-active-shard drain extends past this under its dynamic
/// `outbox_min + la` clamp, applied in the execution loop itself.
#[inline]
fn window_bound(min1: u64, la: u64) -> u64 {
    min1.saturating_add(la)
}

fn worker_loop(
    worker_id: usize,
    nthreads: usize,
    kernels: &[Mutex<Kernel>],
    sync: &SyncState,
    cfg: &CoreConfig,
    setup: SetupFn<'_>,
) {
    let n_shards = kernels.len();
    let budget_limited = cfg.max_events != u64::MAX;
    let mut prof = EngineProfile::default();
    let mut window: u64 = 0;
    // Executed-phase counter: every worker advances it identically (the
    // skip decision is derived from shared state read after a barrier),
    // so `phase * n_shards` bounds the ticket range without encoding
    // skipped phases.
    let mut phase: usize = 0;
    // Chunk ticket claims when shards heavily oversubscribe the pool;
    // keep the tail fine-grained so stealing still balances stragglers.
    let chunk = (n_shards / (nthreads * 4)).max(1);
    let mut need_ingest = true; // window 0: setup + initial publish

    loop {
        // This window's scan buffer; Phase B publishes into the other
        // one (see `SyncState::next_times`).
        let cur = (window % 2) as usize;
        if need_ingest {
            // ---- Phase A: ingest exchanged batches, publish bounds.
            let end = (phase + 1) * n_shards;
            while let Some(tickets) = claim(&sync.ticket, end, chunk) {
                for t in tickets {
                    let s = t % n_shards;
                    let mut k = kernels[s].lock().expect(POISONED);
                    if window == 0 {
                        // First touch of this shard: install services and
                        // scheduled injections before publishing its bound.
                        setup(&mut k);
                    }
                    for (w, word) in sync.filled[s].iter().enumerate() {
                        let mut bits = word.swap(0, Ordering::Relaxed);
                        while bits != 0 {
                            let src = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let mut slot = sync.slots[s][src].lock().expect(POISONED);
                            prof.batched_events += slot.len() as u64;
                            prof.batch_max_events = prof.batch_max_events.max(slot.len() as u64);
                            // drain() keeps the slot's capacity: the buffer
                            // returns to the arena for the producer to swap
                            // into next window.
                            for ev in slot.drain(..) {
                                debug_assert!(k.owns(ev.key.dst), "exchange misrouted an event");
                                k.queue.push(ev);
                            }
                        }
                    }
                    k.note_queue_depth();
                    let mine = k.queue.next_time().map_or(u64::MAX, |t| t.as_nanos());
                    sync.next_times[cur][s].store(mine, Ordering::SeqCst);
                }
            }
            phase += 1;
            let wait = std::time::Instant::now();
            sync.barrier.wait();
            let waited = wait.elapsed().as_nanos() as u64;
            prof.barrier_wait_ns += waited;
            prof.window_barrier_hwm_ns = prof.window_barrier_hwm_ns.max(waited);
        } else {
            prof.ingest_skips += 1;
        }

        // ---- Every worker independently derives the same window
        // parameters from the (stable) published bounds: after barrier 1
        // when Phase A ran, straight after barrier 2 of the previous
        // window when it was skipped.
        let mut min1 = u64::MAX;
        let mut min2 = u64::MAX;
        let mut min1_count = 0u32;
        for t in &sync.next_times[cur] {
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
        if min1 == u64::MAX || sync.budget_window.load(Ordering::Relaxed) < window {
            // No shard has pending work, or the budget tripped during a
            // *previous* window: the run is over, consistently for
            // every worker. (A trip during the current window — which a
            // worker already in Phase B may cause while another is
            // still here — deliberately does not exit yet: `w < w` is
            // false for both, so nobody diverges.)
            break;
        }
        prof.windows += 1;
        let la = match &cfg.lookahead_fn {
            // The provider can only widen the window: the static floor
            // stays a correct minimum cross-shard delay.
            Some(f) => cfg.lookahead.max(f.at(SimTime(min1))).as_nanos(),
            None => cfg.lookahead.as_nanos(),
        };

        // ---- Phase B: execute each shard's window, flush its batches.
        let end = (phase + 1) * n_shards;
        let mut window_steals = 0u64;
        while let Some(tickets) = claim(&sync.ticket, end, chunk) {
            for t in tickets {
                let s = t % n_shards;
                if s % nthreads != worker_id {
                    window_steals += 1;
                }
                let mut k = kernels[s].lock().expect(POISONED);
                let next = sync.next_times[cur][s].load(Ordering::SeqCst);
                // The sole shard with pending work drains unboundedly,
                // under the dynamic emission clamp below; everyone else
                // stops at the shared conservative bound.
                let exclusive = min2 == u64::MAX && next == min1 && min1_count == 1;
                let bound = if exclusive {
                    u64::MAX
                } else {
                    window_bound(min1, la)
                };
                let base = if budget_limited {
                    sync.events.load(Ordering::Relaxed)
                } else {
                    0
                };
                let mut processed = 0u64;
                loop {
                    // Re-clamped every iteration: processing may emit new
                    // cross-shard events, and a later emission can carry
                    // an *earlier* arrival time. The clamp never cuts
                    // below the current processing point (an emission
                    // from time `t` arrives ≥ `t + la`, putting the clamp
                    // ≥ `t + 2·la`).
                    let eff = bound.min(k.outbox_min.saturating_add(la));
                    let Some(ev) = k.queue.pop_before(SimTime(eff)) else {
                        break;
                    };
                    debug_assert!(
                        ev.key.time.as_nanos() >= min1,
                        "event below the window's lower bound"
                    );
                    k.process(ev);
                    processed += 1;
                    // In-loop check: in an unclamped exclusive drain a
                    // runaway program would otherwise never leave this
                    // loop.
                    if budget_limited
                        && (base + processed > cfg.max_events
                            || sync.budget_window.load(Ordering::Relaxed) != u64::MAX)
                    {
                        sync.budget_window.fetch_min(window, Ordering::Relaxed);
                        break;
                    }
                }
                if budget_limited {
                    let total = sync.events.fetch_add(processed, Ordering::Relaxed) + processed;
                    if total > cfg.max_events {
                        sync.budget_window.fetch_min(window, Ordering::Relaxed);
                    }
                } else {
                    sync.events.fetch_add(processed, Ordering::Relaxed);
                }
                let mut flushed = false;
                for dst in 0..n_shards {
                    if k.outbox[dst].is_empty() {
                        continue;
                    }
                    #[cfg(debug_assertions)]
                    {
                        // No receiver processed past the shared bound this
                        // window, so every exchanged event must land at or
                        // beyond it.
                        let dst_bound = window_bound(min1, la);
                        for ev in &k.outbox[dst] {
                            debug_assert!(
                                ev.key.time.as_nanos() >= dst_bound,
                                "cross-shard event below the receiver's window \
                                 bound: {:?} < {:?}",
                                ev.key.time,
                                SimTime(dst_bound)
                            );
                        }
                    }
                    let mut slot = sync.slots[dst][s].lock().expect(POISONED);
                    debug_assert!(slot.is_empty(), "exchange slot not drained in Phase A");
                    // Swap the filled lane in and take the drained slot
                    // buffer back as next window's lane: zero-copy
                    // handoff, capacities recycled.
                    std::mem::swap(&mut *slot, &mut k.outbox[dst]);
                    sync.filled[dst][s / 64].fetch_or(1 << (s % 64), Ordering::Relaxed);
                    flushed = true;
                }
                k.outbox_min = u64::MAX;
                if flushed {
                    sync.exchanged.fetch_max(window + 1, Ordering::Relaxed);
                }
                // Post-execution bound for the *next* window's scan
                // buffer: exact unless a peer exchanged events toward
                // this shard (in which case the next window runs
                // Phase A and overwrites it after ingest).
                let mine = k.queue.next_time().map_or(u64::MAX, |t| t.as_nanos());
                sync.next_times[1 - cur][s].store(mine, Ordering::SeqCst);
            }
        }
        prof.steals += window_steals;
        prof.window_steal_hwm = prof.window_steal_hwm.max(window_steals);
        phase += 1;
        let wait = std::time::Instant::now();
        sync.barrier.wait();
        let waited = wait.elapsed().as_nanos() as u64;
        prof.barrier_wait_ns += waited;
        prof.window_barrier_hwm_ns = prof.window_barrier_hwm_ns.max(waited);
        // All of this window's flushes happen-before this point
        // (barrier), so a marker of exactly `window + 1` is stable and
        // every worker takes the same branch. Exact equality matters:
        // when nothing was exchanged, a fast worker skips ahead into
        // the next window's Phase B and may flush (marker `window + 2`)
        // before a slow worker reads — `> window` would diverge here,
        // `== window + 1` cannot.
        need_ingest = sync.exchanged.load(Ordering::Relaxed) == window + 1;
        window += 1;
    }

    sync.profile.lock().expect(POISONED).merge(&prof);
}
