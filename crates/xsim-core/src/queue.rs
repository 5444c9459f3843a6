//! The pending-event queue.
//!
//! Two interchangeable implementations sit behind [`EventQueue`]:
//!
//! * **Calendar** (default): an O(1)-amortized calendar/ladder queue
//!   over flat, recycled `Vec` buckets — the data-oriented hot core.
//!   Pending events live in a ring of `nb` buckets, each covering one
//!   `2^shift`-nanosecond slice of virtual time; events beyond the
//!   ring's horizon wait in an overflow lane that is redistributed when
//!   the ring drains. Buckets are kept sorted (descending by key, so
//!   `Vec::pop` yields the minimum) by binary-search ordered insertion;
//!   the dirty-flag deferred sort survives only for bulk redistribution
//!   (ring growth, width re-fits, overflow migration) and for the
//!   bounded-memmove fallback below. Bucket/overflow buffers keep their
//!   capacity across the run, so steady-state push/pop performs zero
//!   allocations.
//! * **Heap**: the original `BinaryHeap` implementation, kept as the
//!   determinism oracle. Select it with `XSIM_ENGINE_QUEUE=heap` (the
//!   default is `calendar`; any other value falls back to the default).
//!
//! Both pop the *current minimum* [`EventKey`]; since keys are globally
//! unique, the two implementations produce byte-identical pop sequences
//! for any push/pop interleaving — pinned by the oracle property in
//! `tests/prop.rs` and the seeded differential test below.
//!
//! ## Compact records and the call slab
//!
//! Resident events are stored as a 40-byte [`CompactRec`] — the 24-byte
//! key plus a 16-byte action word — instead of the full [`EventRec`],
//! whose inline [`CallFn`] buffer makes it ~176 bytes. `Call` closures
//! park in a facade-owned slab ([`CallSlab`]) and the record carries
//! only the slot index; slots are recycled through a free list, so the
//! 112-byte closure buffer is paid once per *in-flight* `Call`, not per
//! resident event. At the paper's 2²⁷-VP scale the initial spawn wave
//! alone is ~134 M resident events: 40 B/event keeps that to ~5 GiB
//! where full records would need ~24 GiB. Dropping the queue drops the
//! slab, releasing unfired closures' captures (abort teardown).
//!
//! ## Tie-breaking audit
//!
//! Same-timestamp events are totally ordered by the remaining key
//! fields, compared lexicographically: `(time, dst, src, seq)` —
//! destination rank first, then source rank, then the source's
//! per-rank sequence number. The `seq` counter advances only on the
//! source rank's *owning* shard (event attribution), so the full key is
//! globally unique and its order is a property of the simulation alone,
//! never of sharding: no shard count, worker count, exchange batching
//! or heap insertion order can reorder ties. Neither `BinaryHeap` nor
//! the calendar buckets are insertion-order stable — determinism comes
//! entirely from key uniqueness, which `queue_order_is_push_order_independent`
//! below and the colliding-timestamp regression tests in
//! `tests/engine.rs` pin down.

use crate::event::{Action, CallFn, EventKey, EventRec};
use crate::time::SimTime;
use crate::vp::WaitToken;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which pending-event-queue implementation a kernel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueImpl {
    /// Calendar/ladder queue over flat buckets (the default).
    #[default]
    Calendar,
    /// `BinaryHeap` oracle (`XSIM_ENGINE_QUEUE=heap`).
    Heap,
}

impl QueueImpl {
    /// The implementation selected by `XSIM_ENGINE_QUEUE`, defaulting
    /// to the calendar queue. Read per call: tests flip the variable
    /// between runs, and a kernel constructs its queue exactly once.
    pub fn from_env() -> Self {
        match std::env::var("XSIM_ENGINE_QUEUE").as_deref() {
            Ok("heap") => QueueImpl::Heap,
            _ => QueueImpl::Calendar,
        }
    }
}

/// Allocation/occupancy counters of one queue, folded into the engine
/// profile at shutdown. Execution-shape data, never part of determinism
/// comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Total events pushed.
    pub pushes: u64,
    /// Pushes served from already-reserved bucket capacity (no
    /// allocation). `reused / pushes` is the pool reuse ratio.
    pub reused: u64,
    /// High-water mark of events resident in a single calendar bucket.
    pub bucket_hwm: u64,
}

// ---------------------------------------------------------------------
// Compact resident representation
// ---------------------------------------------------------------------

/// The action word of a resident event: [`Action`] with the `Call`
/// closure swapped for its [`CallSlab`] slot index.
enum CompactAction {
    Spawn,
    WakeToken(WaitToken),
    WakeMessage,
    Call(u32),
}

/// A resident event: 24-byte key + 16-byte action = 40 bytes.
struct CompactRec {
    key: EventKey,
    action: CompactAction,
}

/// Parking lot for in-flight `Call` closures, owned by the facade and
/// shared by both queue implementations. Slots are recycled through a
/// free list, so steady-state `Call` traffic allocates nothing once the
/// slab has grown to the in-flight high-water mark.
#[derive(Default)]
struct CallSlab {
    slots: Vec<Option<CallFn>>,
    free: Vec<u32>,
}

impl CallSlab {
    #[inline]
    fn insert(&mut self, f: CallFn) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(f);
                i
            }
            None => {
                self.slots.push(Some(f));
                (self.slots.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn remove(&mut self, slot: u32) -> CallFn {
        let f = self.slots[slot as usize].take().expect("live call slot");
        self.free.push(slot);
        f
    }
}

// ---------------------------------------------------------------------
// Heap implementation (oracle)
// ---------------------------------------------------------------------

struct HeapEntry(CompactRec);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest key first.
        other.0.key.cmp(&self.0.key)
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<HeapEntry>,
    stats: QueueStats,
}

impl HeapQueue {
    #[inline]
    fn push(&mut self, ev: CompactRec) {
        self.stats.pushes += 1;
        if self.heap.len() < self.heap.capacity() {
            self.stats.reused += 1;
        }
        self.heap.push(HeapEntry(ev));
    }

    #[inline]
    fn pop(&mut self) -> Option<CompactRec> {
        self.heap.pop().map(|e| e.0)
    }

    #[inline]
    fn next_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.0.key)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------
// Calendar implementation
// ---------------------------------------------------------------------

/// Initial bucket count (power of two).
const INITIAL_BUCKETS: usize = 256;
/// Initial bucket width: 2^10 ns ≈ 1 µs of virtual time per slice.
const INITIAL_SHIFT: u32 = 10;
/// Grow the ring when resident events exceed `buckets * GROW_LOAD`.
const GROW_LOAD: usize = 4;
/// Hard cap on the ring size (2^20 buckets ≈ 24 MiB of headers).
const MAX_BUCKETS: usize = 1 << 20;
/// Re-fit the bucket width when the bucket at the window head holds
/// more events than this. Dense clusters otherwise degenerate: every
/// ordered insert into an oversized bucket pays an O(len) memmove.
const SPLIT_OCCUPANCY: usize = 64;
/// Events per slice a width re-fit aims for: a few records per bucket
/// keeps ordered-insert memmoves to a cache line or two. Higher targets
/// measurably lose at the dense tiers — the deeper per-insert memmove
/// traffic outweighs the fewer header touches.
const SPLIT_TARGET_OCCUPANCY: usize = 8;
/// Spare bucket buffers kept for recycling. A sliding window marches
/// over buckets that have never held an event (the ring wraps only
/// every `nb` slices), so without recycling every few pushes pay a
/// fresh allocation; the settle scan instead strips capacity from the
/// drained buckets it passes and pushes install it into cold ones.
const SPARE_BUFFERS: usize = 32;
/// Ordered-insertion memmove bound: an insertion that would shift more
/// than this many records appends + dirties the bucket instead,
/// deferring to one sort when the bucket reaches the window head. This
/// caps the per-push cost at a ~2.5 KiB memmove while turning the two
/// degenerate fills — ascending-key floods into one slice, and dense
/// same-time ties whose order is decided by `(dst, src, seq)` alone —
/// into one O(n log n) sort instead of O(n²) memmoves.
const INSERT_MOVE_CAP: usize = 64;
/// Shrink a bucket's buffer back to this capacity when it empties.
/// One-shot giants (the initial spawn wave parks ~n events in a single
/// unsplittable same-time bucket) would otherwise pin their peak
/// allocation for the rest of the run.
const TRIM_CAP: usize = 1 << 16;

/// Smallest bucket-width log2 that lets `span` nanoseconds of resident
/// virtual time fit inside half the ring-size cap — the narrowest
/// slices the geometry can afford for a given span. Splits narrow no
/// further than this and migrations widen up to it, so the two can
/// never disagree about the width (the split ↔ widen ping-pong that
/// otherwise cycles the whole population through the overflow lane).
fn span_fit_shift(span: u64) -> u32 {
    let mut shift = 0;
    while (span >> shift) >= (MAX_BUCKETS as u64) / 2 {
        shift += 1;
    }
    shift
}

/// Route one event into its bucket during bulk redistribution
/// (rebuild / overflow migration), preserving a clean bucket's
/// descending order when the arrival order allows (keys are unique, so
/// `last.key < ev.key` is exactly an order break). Free function: the
/// overflow-migration caller holds a `Drain` borrow on another field.
#[inline]
fn route_bulk(ring: &mut [Vec<CompactRec>], dirty: &mut [bool], s: u64, ev: CompactRec) {
    let nb = ring.len() as u64;
    let b = (s & (nb - 1)) as usize;
    let bucket = &mut ring[b];
    if !dirty[b] {
        if let Some(l) = bucket.last() {
            if l.key < ev.key {
                dirty[b] = true;
            }
        }
    }
    bucket.push(ev);
}

struct CalendarQueue {
    /// Ring of buckets; bucket `i` holds events whose time slice `s`
    /// (`s = time >> shift`) satisfies `s % nb == i` and lies inside the
    /// current window `[cur_slice, cur_slice + nb)`. Clean buckets are
    /// sorted descending by key, so `Vec::pop` yields the minimum.
    ring: Vec<Vec<CompactRec>>,
    /// Per-bucket deferred-sort flag: set only by bulk redistribution
    /// and the bounded-memmove fallback (ordinary pushes insert in order), cleared
    /// after the bucket is sorted at the window head.
    dirty: Vec<bool>,
    /// `log2` of the bucket width in nanoseconds.
    shift: u32,
    /// Lowest time slice the ring currently represents. Monotonically
    /// non-decreasing; pops only advance it past empty buckets, so
    /// every resident event's slice is `>= cur_slice`.
    cur_slice: u64,
    /// Events beyond the ring horizon at push time, redistributed (and
    /// the geometry re-fitted) whenever the ring drains.
    overflow: Vec<CompactRec>,
    /// Time (ns) of the earliest overflow event; `u64::MAX` when the
    /// lane is empty. Ring pushes are gated strictly below this bound.
    /// Without it the sliding window is unsound: an event parked in
    /// overflow (beyond the horizon *at its push time*) falls inside the
    /// window as `cur_slice` advances, and a later push may then land in
    /// the ring at a later time yet pop first.
    overflow_min_ns: u64,
    /// Events resident in the ring.
    ring_len: usize,
    /// Total events (ring + overflow).
    len: usize,
    /// Latest resident time (ns): raised on push, recomputed exactly on
    /// rebuild, reset when the queue empties. Between rebuilds it may
    /// overestimate (the max-time event pops only when it is last), but
    /// it is never below the true maximum, which is the safe direction
    /// for the span-driven geometry below.
    max_ns: u64,
    /// Recycled bucket buffers — see [`SPARE_BUFFERS`].
    spare: Vec<Vec<CompactRec>>,
    /// Allocation/occupancy counters.
    stats: QueueStats,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue::with_geometry(INITIAL_BUCKETS, INITIAL_SHIFT, 0)
    }

    fn with_geometry(nb: usize, shift: u32, cur_slice: u64) -> Self {
        debug_assert!(nb.is_power_of_two());
        CalendarQueue {
            ring: (0..nb).map(|_| Vec::new()).collect(),
            dirty: vec![false; nb],
            shift,
            cur_slice,
            overflow: Vec::new(),
            overflow_min_ns: u64::MAX,
            ring_len: 0,
            len: 0,
            max_ns: 0,
            spare: Vec::new(),
            stats: QueueStats::default(),
        }
    }

    #[inline]
    fn slice_of(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.shift
    }

    #[inline]
    fn push(&mut self, ev: CompactRec) {
        self.stats.pushes += 1;
        self.len += 1;
        // Clamp below-window pushes into the current bucket: ordered
        // insertion still pops them first, preserving pop-min semantics.
        // (The engines never schedule into the popped past, but the
        // queue must not corrupt its geometry if a layer above ever
        // does.)
        let ns = ev.key.time.as_nanos();
        self.max_ns = self.max_ns.max(ns);
        let s = self.slice_of(ev.key.time).max(self.cur_slice);
        let nb = self.ring.len();
        // Ring placement requires being strictly earlier than everything
        // in the overflow lane (ties included), so the ring minimum is
        // always the global minimum — see `overflow_min_ns`.
        if s < self.cur_slice + nb as u64 && ns < self.overflow_min_ns {
            let b = (s & (nb as u64 - 1)) as usize;
            let bucket = &mut self.ring[b];
            if bucket.capacity() == 0 {
                // Cold bucket (never filled, or stripped by the settle
                // scan): seed it with a recycled buffer.
                if let Some(buf) = self.spare.pop() {
                    *bucket = buf;
                }
            }
            if bucket.len() < bucket.capacity() {
                self.stats.reused += 1;
            }
            if self.dirty[b] || bucket.last().is_none_or(|l| ev.key < l.key) {
                // Dirty buckets collect appends until their deferred
                // sort; clean buckets append when the event is the new
                // bucket minimum — the common hold-model case, O(1).
                bucket.push(ev);
            } else {
                // Binary-search ordered insertion into the descending
                // bucket. `partition_point` finds the first entry not
                // greater than the new key; keys are unique, so this is
                // the exact insertion point.
                let pos = bucket.partition_point(|x| x.key > ev.key);
                if bucket.len() - pos > INSERT_MOVE_CAP {
                    // Bounded-memmove fallback: a deep insertion appends
                    // and dirties the bucket; the deferred sort at the
                    // window head pays once — see `INSERT_MOVE_CAP`.
                    bucket.push(ev);
                    self.dirty[b] = true;
                } else {
                    bucket.insert(pos, ev);
                }
            }
            let blen = bucket.len();
            self.stats.bucket_hwm = self.stats.bucket_hwm.max(blen as u64);
            self.ring_len += 1;
            // Width re-fits trigger here too, not only at the window
            // head: a bulk fill (benchmark prefill, an engine's spawn
            // wave) then pays for its own redistribution while loading,
            // instead of deferring an O(n) rebuild into the first pop of
            // the measured/steady phase. Checked at the occupancy
            // threshold and at power-of-two crossings so a bucket is
            // re-examined O(log len) times, not per push.
            if blen == SPLIT_OCCUPANCY + 1 || (blen > SPLIT_OCCUPANCY && blen & (blen - 1) == 0) {
                if let Some(sh) = self.cluster_shift(b) {
                    self.rebuild(sh, 0);
                    return;
                }
            }
            if self.ring_len > self.ring.len() * GROW_LOAD && self.ring.len() < MAX_BUCKETS {
                self.grow();
            }
        } else {
            if self.overflow.len() < self.overflow.capacity() {
                self.stats.reused += 1;
            }
            self.overflow_min_ns = self.overflow_min_ns.min(ns);
            self.overflow.push(ev);
        }
    }

    /// Enlarge the ring and redistribute resident events. `rebuild`
    /// jumps straight to a size fitting the current load and span
    /// (instead of one doubling per call), so a bulk wave — the 2²⁷
    /// initial spawns — pays one redistribution, not one per doubling;
    /// the doubling floor only guards the exact-power-of-two boundary
    /// where the load-derived size equals the current one. Amortized
    /// O(1) per push.
    fn grow(&mut self) {
        self.rebuild(self.shift, self.ring.len() * 2);
    }

    /// Re-fit the ring to width `2^shift` and redistribute every
    /// resident event in bulk: slice-vs-horizon routing (as in
    /// `migrate_overflow`) with appends that defer sorting to the window
    /// head, O(n) total. Reuses the old buffers where possible. This is
    /// the one remaining producer of dirty buckets besides the
    /// bounded-memmove fallback.
    ///
    /// The bucket count is derived here, never passed in: at least
    /// `min_nb`, at least the load target (`len / GROW_LOAD` buckets),
    /// and — the load-bearing term — at least twice the resident
    /// *time-span* in slices, so the whole population rides inside the
    /// window whenever the cap allows. Sizing to load alone is the
    /// classic calendar-queue failure: a population whose span outgrows
    /// `nb` slices at the occupancy-driven width cycles ring → overflow
    /// → ring forever, three O(n) redistributions per lap. The count is
    /// monotone non-decreasing; empty buckets cost 24 B of header and
    /// make the geometry a high-water mark instead of a thrash point.
    fn rebuild(&mut self, shift: u32, min_nb: usize) {
        let mut events: Vec<CompactRec> = Vec::with_capacity(self.ring_len + self.overflow.len());
        // Drain from the window head forward and stop once every
        // resident event is collected: the live region sits just past
        // `cur_slice`, so a huge mostly-empty ring doesn't pay a full
        // header sweep per re-fit. Unvisited (empty) buckets may keep a
        // stale dirty flag; that only downgrades a later ordered insert
        // into the append-and-sort-once path, so it is cosmetic.
        let old_nb = self.ring.len();
        let start = (self.cur_slice as usize) & (old_nb - 1);
        for i in 0..old_nb {
            if events.len() == self.ring_len {
                break;
            }
            let b = (start + i) & (old_nb - 1);
            self.dirty[b] = false;
            events.append(&mut self.ring[b]);
        }
        events.append(&mut self.overflow);
        self.overflow_min_ns = u64::MAX;
        let mut min_ns = u64::MAX;
        let mut max_ns = 0u64;
        for e in &events {
            let ns = e.key.time.as_nanos();
            min_ns = min_ns.min(ns);
            max_ns = max_ns.max(ns);
        }
        if events.is_empty() {
            min_ns = 0;
        }
        self.max_ns = max_ns;
        let span_slices = max_ns.saturating_sub(min_ns) >> shift;
        let span_nb = if span_slices >= (MAX_BUCKETS as u64) / 2 {
            MAX_BUCKETS
        } else {
            (span_slices as usize * 2 + 1).next_power_of_two()
        };
        let load_nb = (events.len() / GROW_LOAD).max(1).next_power_of_two();
        let nb = self
            .ring
            .len()
            .max(min_nb)
            .max(load_nb)
            .max(span_nb)
            .min(MAX_BUCKETS);
        // Anchor the window at the resident minimum. Nothing below it is
        // pending, and a later push below the window start is clamped
        // into the current bucket by `push` (ordered insertion still
        // pops it first), so this floor can never reorder pops.
        self.shift = shift;
        self.cur_slice = min_ns >> shift;
        if self.ring.len() != nb {
            self.ring.resize_with(nb, Vec::new);
            self.dirty.resize(nb, false);
        }
        self.ring_len = 0;
        let horizon = self.cur_slice + nb as u64;
        for ev in events {
            let ns = ev.key.time.as_nanos();
            let s = ns >> shift;
            // Ring times stay below `horizon << shift` and overflow
            // times at or above it, so the overflow gate holds.
            if s < horizon {
                route_bulk(&mut self.ring, &mut self.dirty, s, ev);
                self.ring_len += 1;
            } else {
                self.overflow_min_ns = self.overflow_min_ns.min(ns);
                self.overflow.push(ev);
            }
        }
        // Redistribution is internal bookkeeping: `len` and the
        // allocation counters are deliberately untouched.
    }

    /// Position `cur_slice` at the bucket holding the minimum key; sort
    /// it if a bulk redistribution or bounded-memmove fallback left it dirty.
    /// Returns the bucket index, or `None` when empty.
    fn settle(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // The outer loop re-settles after a split re-fits the geometry;
        // `shift` strictly decreases across splits, bounding it.
        loop {
            if self.ring_len == 0 {
                self.migrate_overflow();
            }
            let nb = self.ring.len() as u64;
            let mut s = self.cur_slice;
            let b = loop {
                let b = (s & (nb - 1)) as usize;
                if !self.ring[b].is_empty() {
                    break b;
                }
                // The window has drained past this slice; strip its
                // buffer for the cold buckets ahead. Each slice is
                // passed exactly once per geometry, so this is O(1)
                // amortized per pop.
                let cap = self.ring[b].capacity();
                if cap > 0 && cap <= TRIM_CAP && self.spare.len() < SPARE_BUFFERS {
                    self.spare.push(std::mem::take(&mut self.ring[b]));
                }
                s += 1;
                debug_assert!(
                    s < self.cur_slice + nb,
                    "ring_len > 0 but no non-empty bucket in the window"
                );
            };
            self.cur_slice = s;
            if self.try_split(b) {
                continue;
            }
            if self.dirty[b] {
                // Descending by key: `Vec::pop` then yields the minimum.
                // Keys are unique, so unstable sorting is deterministic.
                self.ring[b].sort_unstable_by_key(|x| std::cmp::Reverse(x.key));
                self.dirty[b] = false;
            }
            return Some(b);
        }
    }

    /// The bucket at the window head is oversized: narrow the bucket
    /// width so the cluster spreads across many slices, restoring O(1)
    /// amortized pops under skewed time distributions. Returns whether
    /// the geometry changed (the caller must re-settle). Identical-time
    /// floods (span 0) cannot be split and simply sort. For a clean
    /// bucket the span check is O(1): descending order puts the latest
    /// time first and the earliest last.
    fn try_split(&mut self, b: usize) -> bool {
        match self.cluster_shift(b) {
            Some(shift) => {
                self.rebuild(shift, 0);
                true
            }
            None => false,
        }
    }

    /// The narrower bucket width an oversized bucket's cluster calls
    /// for, or `None` when narrowing is impossible (small bucket,
    /// identical-time flood, or the span cap already binds).
    fn cluster_shift(&self, b: usize) -> Option<u32> {
        let bucket = &self.ring[b];
        if bucket.len() <= SPLIT_OCCUPANCY || self.shift == 0 {
            return None;
        }
        let (min_ns, max_ns) = if self.dirty[b] {
            let mut min_ns = u64::MAX;
            let mut max_ns = 0u64;
            for e in bucket {
                let ns = e.key.time.as_nanos();
                min_ns = min_ns.min(ns);
                max_ns = max_ns.max(ns);
            }
            (min_ns, max_ns)
        } else {
            (
                bucket.last().unwrap().key.time.as_nanos(),
                bucket.first().unwrap().key.time.as_nanos(),
            )
        };
        let span = max_ns - min_ns;
        if span == 0 {
            return None;
        }
        // Aim for ~4 events per slice at the new width, but narrow no
        // further than the full resident span can afford under the
        // ring-size cap: past that point the tail would fall out of any
        // coverable window and every lap would migrate it back — the
        // other half of the split ↔ widen ping-pong guarded against in
        // `span_fit_shift`. A cluster denser than the clamped width can
        // express leans on the bounded-memmove insertion instead.
        let target = (bucket.len() / SPLIT_TARGET_OCCUPANCY).max(1) as u64;
        let mut shift = self.shift;
        while shift > 0 && (span >> shift) < target {
            shift -= 1;
        }
        let full_span = self.max_ns.saturating_sub(self.cur_slice << self.shift);
        shift = shift.max(span_fit_shift(full_span));
        if shift >= self.shift {
            return None;
        }
        Some(shift)
    }

    /// The ring is empty: jump the window to the earliest overflow event
    /// and redistribute. When even the re-anchored window cannot cover
    /// the lane's span, re-fit instead — `rebuild` grows the ring to
    /// cover it, widening the slices only when the span tops out the
    /// ring-size cap (sparse far-future schedules).
    fn migrate_overflow(&mut self) {
        debug_assert!(!self.overflow.is_empty());
        let mut min_ns = u64::MAX;
        let mut max_ns = 0u64;
        for e in &self.overflow {
            let ns = e.key.time.as_nanos();
            min_ns = min_ns.min(ns);
            max_ns = max_ns.max(ns);
        }
        let nb = self.ring.len() as u64;
        let span = max_ns - min_ns;
        if (span >> self.shift) >= nb {
            let shift = self.shift.max(span_fit_shift(span));
            self.rebuild(shift, 0);
            return;
        }
        self.cur_slice = min_ns >> self.shift;
        let horizon = self.cur_slice + nb;
        let mut keep = Vec::with_capacity(self.overflow.len());
        // Slice-vs-horizon routing keeps the ring/overflow time order:
        // every ring time is below `horizon << shift`, every kept time at
        // or above it. Re-derive the gating bound from the kept set.
        self.overflow_min_ns = u64::MAX;
        for ev in self.overflow.drain(..) {
            let ns = ev.key.time.as_nanos();
            let s = ns >> self.shift;
            if s < horizon {
                route_bulk(&mut self.ring, &mut self.dirty, s, ev);
                self.ring_len += 1;
            } else {
                self.overflow_min_ns = self.overflow_min_ns.min(ns);
                keep.push(ev);
            }
        }
        // Swap back so the overflow lane keeps (the larger of) its
        // capacity across migrations.
        std::mem::swap(&mut self.overflow, &mut keep);
        if self.overflow.capacity() < keep.capacity() {
            let mut bigger = keep;
            bigger.clear();
            bigger.append(&mut self.overflow);
            self.overflow = bigger;
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<CompactRec> {
        let b = self.settle()?;
        let ev = self.ring[b].pop();
        debug_assert!(ev.is_some());
        self.ring_len -= 1;
        self.len -= 1;
        if self.len == 0 {
            // A fresh epoch may start at much earlier times; a stale
            // maximum would overclamp `try_split` forever.
            self.max_ns = 0;
        }
        let bucket = &mut self.ring[b];
        if bucket.is_empty() && bucket.capacity() > TRIM_CAP {
            bucket.shrink_to(TRIM_CAP);
        }
        ev
    }

    #[inline]
    fn next_key(&mut self) -> Option<EventKey> {
        let b = self.settle()?;
        self.ring[b].last().map(|e| e.key)
    }
}

// ---------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------

enum Inner {
    Heap(HeapQueue),
    Calendar(Box<CalendarQueue>),
}

/// Min-queue of pending events with deterministic tie-breaking.
pub struct EventQueue {
    inner: Inner,
    /// In-flight `Call` closures; resident records carry slot indices.
    calls: CallSlab,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue using the `XSIM_ENGINE_QUEUE`-selected
    /// implementation (calendar by default).
    pub fn new() -> Self {
        EventQueue::with_impl(QueueImpl::from_env())
    }

    /// An empty queue with an explicit implementation.
    pub fn with_impl(imp: QueueImpl) -> Self {
        EventQueue {
            inner: match imp {
                QueueImpl::Heap => Inner::Heap(HeapQueue::default()),
                QueueImpl::Calendar => Inner::Calendar(Box::new(CalendarQueue::new())),
            },
            calls: CallSlab::default(),
        }
    }

    /// An empty `BinaryHeap`-backed queue (the determinism oracle).
    pub fn heap() -> Self {
        EventQueue::with_impl(QueueImpl::Heap)
    }

    /// An empty calendar queue.
    pub fn calendar() -> Self {
        EventQueue::with_impl(QueueImpl::Calendar)
    }

    /// An empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = EventQueue::new();
        if let Inner::Heap(h) = &mut q.inner {
            h.heap.reserve(cap);
        }
        q
    }

    /// Which implementation this queue runs.
    pub fn impl_kind(&self) -> QueueImpl {
        match &self.inner {
            Inner::Heap(_) => QueueImpl::Heap,
            Inner::Calendar(_) => QueueImpl::Calendar,
        }
    }

    /// Allocation/occupancy counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        match &self.inner {
            Inner::Heap(h) => h.stats,
            Inner::Calendar(c) => c.stats,
        }
    }

    /// Insert an event. `Call` closures park in the facade's slab and
    /// the resident record carries only the slot index — see the module
    /// docs.
    #[inline]
    pub fn push(&mut self, ev: EventRec) {
        let rec = CompactRec {
            key: ev.key,
            action: match ev.action {
                Action::Spawn => CompactAction::Spawn,
                Action::WakeToken(t) => CompactAction::WakeToken(t),
                Action::WakeMessage => CompactAction::WakeMessage,
                Action::Call(f) => CompactAction::Call(self.calls.insert(f)),
            },
        };
        match &mut self.inner {
            Inner::Heap(h) => h.push(rec),
            Inner::Calendar(c) => c.push(rec),
        }
    }

    /// Remove and return the earliest event (smallest key).
    #[inline]
    pub fn pop(&mut self) -> Option<EventRec> {
        let rec = match &mut self.inner {
            Inner::Heap(h) => h.pop(),
            Inner::Calendar(c) => c.pop(),
        }?;
        Some(EventRec {
            key: rec.key,
            action: match rec.action {
                CompactAction::Spawn => Action::Spawn,
                CompactAction::WakeToken(t) => Action::WakeToken(t),
                CompactAction::WakeMessage => Action::WakeMessage,
                CompactAction::Call(slot) => Action::Call(self.calls.remove(slot)),
            },
        })
    }

    /// Remove the earliest event only if it fires strictly before `bound`.
    /// This is the primitive the windowed parallel engine drains with.
    #[inline]
    pub fn pop_before(&mut self, bound: SimTime) -> Option<EventRec> {
        if self.next_time()? < bound {
            self.pop()
        } else {
            None
        }
    }

    /// Time of the earliest pending event, if any.
    #[inline]
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.next_key().map(|k| k.time)
    }

    /// Key of the earliest pending event, if any.
    #[inline]
    pub fn next_key(&mut self) -> Option<EventKey> {
        match &mut self.inner {
            Inner::Heap(h) => h.next_key(),
            Inner::Calendar(c) => c.next_key(),
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(h) => h.len(),
            Inner::Calendar(c) => c.len,
        }
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Action;
    use crate::rank::Rank;

    fn ev(t: u64, dst: u32, src: u32, seq: u64) -> EventRec {
        EventRec {
            key: EventKey {
                time: SimTime(t),
                dst: Rank(dst),
                src: Rank(src),
                seq,
            },
            action: Action::Spawn,
        }
    }

    fn both() -> [EventQueue; 2] {
        [EventQueue::heap(), EventQueue::calendar()]
    }

    #[test]
    fn pops_in_key_order() {
        for mut q in both() {
            q.push(ev(5, 0, 0, 0));
            q.push(ev(1, 2, 0, 1));
            q.push(ev(1, 1, 0, 2));
            q.push(ev(1, 1, 0, 0));
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.key).collect();
            assert_eq!(order[0].seq, 0);
            assert_eq!(order[0].dst, Rank(1));
            assert_eq!(order[1].seq, 2);
            assert_eq!(order[2].dst, Rank(2));
            assert_eq!(order[3].time, SimTime(5));
        }
    }

    #[test]
    fn pop_before_respects_bound() {
        for mut q in both() {
            q.push(ev(10, 0, 0, 0));
            q.push(ev(3, 0, 0, 1));
            assert_eq!(q.pop_before(SimTime(5)).unwrap().key.time, SimTime(3));
            assert!(q.pop_before(SimTime(5)).is_none());
            assert!(q.pop_before(SimTime(10)).is_none(), "bound is exclusive");
            assert_eq!(q.pop_before(SimTime(11)).unwrap().key.time, SimTime(10));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn colliding_timestamps_order_by_dst_src_seq() {
        // All four events collide at t=9; the pop order must be the
        // lexicographic (dst, src, seq) order regardless of push order.
        for mut q in both() {
            q.push(ev(9, 1, 0, 4));
            q.push(ev(9, 0, 1, 7));
            q.push(ev(9, 0, 0, 2));
            q.push(ev(9, 1, 0, 3));
            let order: Vec<_> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.key.dst.0, e.key.src.0, e.key.seq))
                .collect();
            assert_eq!(order, vec![(0, 0, 2), (0, 1, 7), (1, 0, 3), (1, 0, 4)]);
        }
    }

    #[test]
    fn queue_order_is_push_order_independent() {
        // Exchange batching changes insertion order between engines;
        // the pop sequence must not. Try several permutations of the
        // same colliding-key set, on both implementations.
        let evs = [
            ev(5, 0, 0, 1),
            ev(5, 0, 2, 1),
            ev(5, 1, 0, 2),
            ev(3, 2, 1, 9),
            ev(5, 0, 0, 3),
        ];
        for make in [EventQueue::heap, EventQueue::calendar] {
            let reference: Vec<EventKey> = {
                let mut q = make();
                for e in &evs {
                    q.push(clone_ev(e));
                }
                std::iter::from_fn(|| q.pop()).map(|e| e.key).collect()
            };
            let perms: [[usize; 5]; 3] = [[4, 3, 2, 1, 0], [1, 3, 0, 4, 2], [2, 0, 4, 1, 3]];
            for p in &perms {
                let mut q = make();
                for &i in p {
                    q.push(clone_ev(&evs[i]));
                }
                let got: Vec<EventKey> = std::iter::from_fn(|| q.pop()).map(|e| e.key).collect();
                assert_eq!(got, reference, "permutation {p:?} reordered ties");
            }
        }
    }

    fn clone_ev(e: &EventRec) -> EventRec {
        EventRec {
            key: e.key,
            action: Action::Spawn,
        }
    }

    #[test]
    fn next_time_tracks_min() {
        for mut q in both() {
            assert_eq!(q.next_time(), None);
            q.push(ev(7, 0, 0, 0));
            q.push(ev(2, 0, 0, 1));
            assert_eq!(q.next_time(), Some(SimTime(2)));
            assert_eq!(q.len(), 2);
        }
    }

    #[test]
    fn env_selects_implementation() {
        std::env::set_var("XSIM_ENGINE_QUEUE", "heap");
        assert_eq!(EventQueue::new().impl_kind(), QueueImpl::Heap);
        std::env::set_var("XSIM_ENGINE_QUEUE", "calendar");
        assert_eq!(EventQueue::new().impl_kind(), QueueImpl::Calendar);
        std::env::remove_var("XSIM_ENGINE_QUEUE");
        assert_eq!(EventQueue::new().impl_kind(), QueueImpl::Calendar);
    }

    /// Seeded randomized differential test: interleaved push/pop (with
    /// heavy timestamp collisions and far-future outliers that force
    /// overflow migrations, ring growth, and occupancy splits) pops
    /// byte-identically on both implementations.
    #[test]
    fn calendar_matches_heap_oracle_seeded() {
        for seed in [
            0x9e3779b97f4a7c15u64,
            0xdeadbeefcafef00d,
            0x0123456789abcdef,
            0x2545f4914f6cdd1d,
        ] {
            differential_churn(seed, 5_000);
        }
    }

    fn differential_churn(seed: u64, ops: usize) {
        // Deterministic xorshift so the test needs no external RNG.
        let mut state = seed;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut heap = EventQueue::heap();
        let mut cal = EventQueue::calendar();
        let mut seq = 0u64;
        let mut virt_now = 0u64;
        for _ in 0..ops {
            let r = rng();
            if r % 100 < 60 {
                // Push: mostly near-future, some colliding, some far.
                let dt = match r % 10 {
                    0..=5 => r % 2_000,            // dense near-future
                    6..=7 => 0,                    // exact-time collision
                    8 => (r >> 8) % 1_000_000,     // mid-range
                    _ => (r >> 8) % 4_000_000_000, // far overflow
                };
                seq += 1;
                let e = EventKey {
                    time: SimTime(virt_now + dt),
                    dst: Rank((r >> 32) as u32 % 64),
                    src: Rank((r >> 40) as u32 % 64),
                    seq,
                };
                heap.push(EventRec {
                    key: e,
                    action: Action::Spawn,
                });
                cal.push(EventRec {
                    key: e,
                    action: Action::Spawn,
                });
            } else {
                let a = heap.pop().map(|e| e.key);
                let b = cal.pop().map(|e| e.key);
                assert_eq!(a, b, "pop diverged (seed {seed:#x})");
                if let Some(k) = a {
                    virt_now = k.time.as_nanos();
                }
                assert_eq!(heap.next_time(), cal.next_time());
            }
            assert_eq!(heap.len(), cal.len());
        }
        loop {
            let a = heap.pop().map(|e| e.key);
            let b = cal.pop().map(|e| e.key);
            assert_eq!(a, b, "drain diverged (seed {seed:#x})");
            if a.is_none() {
                break;
            }
        }
        let s = cal.stats();
        assert!(s.pushes > 0 && s.bucket_hwm > 0);
        assert!(s.reused > 0, "steady state must reuse bucket capacity");
    }

    /// A dense same-slice cluster (thousands of events within one
    /// initial 1 µs bucket) must trigger the occupancy split and still
    /// pop byte-identically, including under hold-model churn that
    /// keeps landing in the pop bucket plus a far-future tail that
    /// exercises the overflow gating against the narrowed window.
    #[test]
    fn dense_cluster_splits_and_matches_heap() {
        let mut heap = EventQueue::heap();
        let mut cal = EventQueue::calendar();
        let push = |h: &mut EventQueue, c: &mut EventQueue, t: u64, seq: u64| {
            let e = ev(t, (seq % 7) as u32, (seq % 5) as u32, seq);
            h.push(clone_ev(&e));
            c.push(e);
        };
        let mut seq = 0;
        // 4000 events inside [0, 1024) ns: one initial calendar slice.
        for i in 0..4_000u64 {
            push(&mut heap, &mut cal, (i * 37) % 1_024, seq);
            seq += 1;
        }
        // A far tail that must stay behind the cluster in overflow.
        for i in 0..50u64 {
            push(&mut heap, &mut cal, 3_000_000_000 + i * 11, seq);
            seq += 1;
        }
        // Hold-model churn: pop the min, push a successor just ahead —
        // repeatedly landing in the pop bucket.
        let mut state = 0xabcdef12345678u64;
        for _ in 0..6_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let a = heap.pop().map(|e| e.key);
            let b = cal.pop().map(|e| e.key);
            assert_eq!(a, b, "cluster pop diverged");
            let t = a.unwrap().time.as_nanos() + 1 + state % 64;
            push(&mut heap, &mut cal, t, seq);
            seq += 1;
        }
        loop {
            let a = heap.pop().map(|e| e.key);
            let b = cal.pop().map(|e| e.key);
            assert_eq!(a, b, "cluster drain diverged");
            if a.is_none() {
                break;
            }
        }
        // Sanity-check the trigger precondition: the cluster really did
        // stack one bucket far above the split threshold.
        assert!(cal.stats().bucket_hwm > SPLIT_OCCUPANCY as u64);
    }

    /// Dense ties on one timestamp (span 0: unsplittable, so the split
    /// path can never rescue the bucket) hammer the ordered-insertion
    /// path directly: ascending, descending and shuffled key orders,
    /// far past the bounded-memmove cap, interleaved with pops. Pop
    /// order must match the heap oracle byte-for-byte.
    #[test]
    fn dense_tie_insertion_matches_heap() {
        // Three adversarial push orders over the same key set, sized so
        // both the in-order insert and the append-and-sort-once paths
        // are exercised many times over.
        let n: u64 = 32 * INSERT_MOVE_CAP as u64 + 137;
        let orders: [&dyn Fn(u64) -> u64; 3] = [
            &|i| i,                       // ascending (dst,src,seq)
            &|i| n - 1 - i,               // descending
            &|i| (i * 2_654_435_761) % n, // pseudo-shuffled
        ];
        for order in orders {
            let mut heap = EventQueue::heap();
            let mut cal = EventQueue::calendar();
            for i in 0..n {
                let j = order(i);
                let e = ev(500, (j % 61) as u32, (j % 53) as u32, j);
                heap.push(clone_ev(&e));
                cal.push(e);
            }
            // Interleave: pop a few, push a few more colliding events.
            for round in 0..64u64 {
                for _ in 0..8 {
                    let a = heap.pop().map(|e| e.key);
                    let b = cal.pop().map(|e| e.key);
                    assert_eq!(a, b, "tie pop diverged");
                }
                let j = n + round;
                let e = ev(500, (j % 61) as u32, (j % 53) as u32, j);
                heap.push(clone_ev(&e));
                cal.push(e);
            }
            loop {
                let a = heap.pop().map(|e| e.key);
                let b = cal.pop().map(|e| e.key);
                assert_eq!(a, b, "tie drain diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// `Call` closures round-trip through the facade slab: popped events
    /// carry the original closure, slots are recycled across push/pop
    /// cycles, and dropping the queue releases unfired captures.
    #[test]
    fn call_slab_recycles_slots_and_releases_unfired() {
        use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicU32::new(0));
        struct Bump(Arc<AtomicU32>);
        impl Drop for Bump {
            fn drop(&mut self) {
                self.0.fetch_add(1, AtomicOrdering::SeqCst);
            }
        }
        for mut q in both() {
            counter.store(0, AtomicOrdering::SeqCst);
            for i in 0..8u64 {
                let b = Bump(counter.clone());
                q.push(EventRec {
                    key: ev(i, 0, 0, i).key,
                    action: Action::call(move |_k| {
                        let _ = &b;
                    }),
                });
            }
            assert_eq!(q.calls.slots.len(), 8);
            for _ in 0..8 {
                let rec = q.pop().unwrap();
                assert!(matches!(rec.action, Action::Call(_)));
                drop(rec); // unfired: must release the capture
            }
            assert_eq!(counter.load(AtomicOrdering::SeqCst), 8);
            // All slots are free again: new calls reuse them.
            for i in 0..8u64 {
                let b = Bump(counter.clone());
                q.push(EventRec {
                    key: ev(100 + i, 0, 0, 100 + i).key,
                    action: Action::call(move |_k| {
                        let _ = &b;
                    }),
                });
            }
            assert_eq!(q.calls.slots.len(), 8, "slots must be recycled");
            drop(q);
            assert_eq!(
                counter.load(AtomicOrdering::SeqCst),
                16,
                "queue drop must release unfired captures"
            );
        }
    }

    /// The resident record must stay at 40 bytes (24-byte key + 16-byte
    /// action word): the 2²⁷-VP memory budget is sized to it.
    #[test]
    fn compact_rec_is_40_bytes() {
        assert_eq!(std::mem::size_of::<CompactRec>(), 40);
    }
}
