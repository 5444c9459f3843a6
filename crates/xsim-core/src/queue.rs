//! The pending-event queue.
//!
//! [`EventQueue`] is a calendar queue over flat, recycled `Vec`
//! buckets. Pending events live in a ring of `nb` buckets, each
//! covering one `2^shift`-nanosecond slice of virtual time; everything
//! else waits in an unsorted overflow lane, the earlier part of which
//! moves into the ring whenever the ring drains. Buckets are kept
//! sorted (descending by key, so `Vec::pop` yields the minimum) by
//! binary-search ordered insertion; a dirty flag defers the sort to the
//! window head for bulk redistribution and for the bounded-memmove
//! fallback below. Bucket and lane buffers keep their capacity across
//! the run, so steady-state push/pop performs zero allocations.
//!
//! ## Geometry
//!
//! The queue costs what it holds: the bucket count is a function of the
//! *population* alone ([`ring_size`]), never of the virtual time the
//! population spans, so construction, drop and every redistribution are
//! O(population high-water mark). The bucket *width* is set by the
//! dense front of the population (`migrate`) and narrowed only when
//! deep inserts keep hitting the bucket being popped (`settle`,
//! `split`); far timers beyond the window stay parked in the lane,
//! sound behind the `overflow_min_ns` gate. A new queue allocates
//! nothing.
//!
//! `pop` returns the *current minimum* [`EventKey`]; since keys are
//! globally unique, the pop sequence for any push/pop interleaving is
//! that of a binary heap over the keys — pinned by the oracle
//! properties in `tests/prop.rs` and the seeded differential tests
//! below.
//!
//! ## Compact records and the call slab
//!
//! Resident events are stored as a 32-byte [`CompactRec`] — the 24-byte
//! key plus an 8-byte action word — instead of the full [`EventRec`],
//! whose inline [`CallFn`] buffer makes it ~176 bytes. `Call` closures
//! park in a queue-owned slab ([`CallSlab`]) and the record carries
//! only the slot index; slots are recycled through a free list, so the
//! 112-byte closure buffer is paid once per *in-flight* `Call`, not per
//! resident event. At the paper's 2²⁷-VP scale the initial spawn wave
//! alone is ~134 M resident events: 32 B/event keeps that to ~4 GiB
//! where full records would need ~24 GiB. Dropping the queue drops the
//! slab, releasing unfired closures' captures (abort teardown).
//!
//! A bucket that grew past [`TRIM_CAP`] gives its memory back while it
//! drains, not only once it is empty: a draining spawn wave does not
//! stay resident next to the waves it is filling.
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
//! or insertion order can reorder ties. The calendar buckets are not
//! insertion-order stable — determinism comes entirely from key
//! uniqueness, which `queue_order_is_push_order_independent` below and
//! the colliding-timestamp regression tests in `tests/engine.rs` pin
//! down.

use crate::event::{Action, CallFn, EventKey, EventRec};
use crate::time::SimTime;
use crate::vp::{WaitToken, WAIT_TOKEN_BITS};

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
    /// High-water mark of the ring size, in buckets.
    pub ring_hwm: u64,
    /// Empty buckets the window head stepped over looking for the
    /// minimum.
    pub empty_steps: u64,
    /// Bulk redistribution passes: width splits, and lane migrations
    /// that re-bucket events one by one (a single-slice lane is handed
    /// over whole and not counted).
    pub rebuilds: u64,
}

/// The action word of a resident event: [`Action`] with the `Call`
/// closure swapped for its [`CallSlab`] slot index, packed into one
/// `u64`. The top two bits are the variant, the low 62 its payload — a
/// [`WaitToken`] or a slot index. Tokens are bounded to 62 bits where
/// they are minted (`VpMut::begin_wait`), so pushes do not check them.
#[derive(Clone, Copy)]
struct CompactAction(u64);

impl CompactAction {
    const SPAWN: u64 = 0;
    const WAKE_TOKEN: u64 = 1;
    const WAKE_MESSAGE: u64 = 2;
    const CALL: u64 = 3;
    const PAYLOAD: u64 = (1 << WAIT_TOKEN_BITS) - 1;

    #[inline]
    fn pack(tag: u64, payload: u64) -> Self {
        debug_assert!(
            payload <= Self::PAYLOAD,
            "payload {payload} exceeds {WAIT_TOKEN_BITS} bits"
        );
        CompactAction(tag << WAIT_TOKEN_BITS | payload)
    }

    /// `(tag, payload)`.
    #[inline]
    fn unpack(self) -> (u64, u64) {
        (self.0 >> WAIT_TOKEN_BITS, self.0 & Self::PAYLOAD)
    }
}

/// A resident event: 24-byte key + 8-byte action word = 32 bytes.
struct CompactRec {
    key: EventKey,
    action: CompactAction,
}

impl CompactRec {
    #[inline]
    fn ns(&self) -> u64 {
        self.key.time.as_nanos()
    }
}

/// Parking lot for in-flight `Call` closures. Slots are recycled
/// through a free list, so steady-state `Call` traffic allocates
/// nothing once the slab has grown to the in-flight high-water mark.
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

/// Smallest ring (power of two).
const INITIAL_BUCKETS: usize = 256;
/// Resident events per bucket the ring is sized for.
const GROW_LOAD: usize = 4;
/// Hard cap on the ring size (2^20 buckets ≈ 24 MiB of headers).
const MAX_BUCKETS: usize = 1 << 20;
/// Smallest head bucket a width split is considered for. Below it a
/// re-sort costs less than the redistribution.
const SPLIT_OCCUPANCY: usize = 64;
/// Events per slice a width split aims for: a few records per bucket
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
/// caps the per-push cost at a 2 KiB memmove while turning the two
/// degenerate fills — ascending-key floods into one slice, and dense
/// same-time ties whose order is decided by `(dst, src, seq)` alone —
/// into one O(n log n) sort instead of O(n²) memmoves.
const INSERT_MOVE_CAP: usize = 64;
/// The same bound for a bucket that is not at the window head. There
/// the deferred sort is not an extra cost paid at the very next pop but
/// the one sort the bucket gets when the window reaches it, so only a
/// shallow insertion is worth a memmove now: lock-step message waves
/// (`storm_faulted`: ≈ 100 events per clump, arriving in rank order)
/// otherwise memmove a kilobyte or two per push.
const DEFER_MOVE_CAP: usize = 16;
/// Floor of the drain rule: a bucket whose capacity is above this
/// shrinks, once its length falls to half its capacity, to 1.5× its
/// length (never below this). One-shot giants (the initial spawn wave
/// parks ~n events in a single unsplittable same-time bucket) would
/// otherwise pin their peak allocation while the waves they feed fill
/// up, and for the rest of the run. A shrink at length `L` puts the
/// next shrink `L/4` pops away and the next growth `L/2` pushes away,
/// so alternating push/pop at the threshold cannot thrash and the
/// shrinks cost amortized O(1) per pop.
const TRIM_CAP: usize = 1 << 16;

/// The one rule for the bucket count: a function of the population,
/// never of the time it spans.
fn ring_size(len: usize) -> usize {
    (len / GROW_LOAD)
        .next_power_of_two()
        .clamp(INITIAL_BUCKETS, MAX_BUCKETS)
}

/// Min-queue of pending events with deterministic tie-breaking.
pub struct EventQueue {
    /// Ring of buckets, unallocated until the first migration; bucket
    /// `i` holds the events of the one time slice `s` (`s = time >>
    /// shift`) with `s % nb == i` inside the current window
    /// `[cur_slice, cur_slice + nb)`. Clean buckets are sorted
    /// descending by key, so `Vec::pop` yields the minimum.
    ring: Vec<Vec<CompactRec>>,
    /// Per-bucket deferred-sort flag: set only by bulk redistribution
    /// and the bounded-memmove fallback (ordinary pushes insert in
    /// order), cleared after the bucket is sorted at the window head.
    /// An empty bucket is always clean.
    dirty: Vec<bool>,
    /// `log2` of the bucket width in nanoseconds.
    shift: u32,
    /// Lowest time slice the ring currently represents. Pops only
    /// advance it past empty buckets, so every resident event's slice
    /// is `>= cur_slice`.
    cur_slice: u64,
    /// Whether the bucket at `cur_slice` has already been sorted at the
    /// window head — see `settle`.
    head_sorted: bool,
    /// The unsorted lane: every event that did not fit the window (or
    /// pass the gate below) at push time, and everything pushed before
    /// the first pop. See `migrate`.
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
    /// Recycled bucket buffers — see [`SPARE_BUFFERS`].
    spare: Vec<Vec<CompactRec>>,
    /// In-flight `Call` closures; resident records carry slot indices.
    calls: CallSlab,
    stats: QueueStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue. Allocates nothing until events arrive.
    pub fn new() -> Self {
        EventQueue {
            ring: Vec::new(),
            dirty: Vec::new(),
            shift: 0,
            cur_slice: 0,
            head_sorted: false,
            overflow: Vec::new(),
            overflow_min_ns: u64::MAX,
            ring_len: 0,
            len: 0,
            spare: Vec::new(),
            calls: CallSlab::default(),
            stats: QueueStats::default(),
        }
    }

    /// Allocation/occupancy counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Insert an event. `Call` closures park in the slab and the
    /// resident record carries only the slot index — see the module
    /// docs.
    #[inline]
    pub fn push(&mut self, ev: EventRec) {
        let ev = CompactRec {
            key: ev.key,
            action: match ev.action {
                Action::Spawn => CompactAction::pack(CompactAction::SPAWN, 0),
                Action::WakeToken(t) => CompactAction::pack(CompactAction::WAKE_TOKEN, t.0),
                Action::WakeMessage => CompactAction::pack(CompactAction::WAKE_MESSAGE, 0),
                Action::Call(f) => {
                    CompactAction::pack(CompactAction::CALL, self.calls.insert(f).into())
                }
            },
        };
        self.stats.pushes += 1;
        self.len += 1;
        // Clamp below-window pushes into the current bucket: ordered
        // insertion still pops them first, preserving pop-min semantics.
        // (The engines never schedule into the popped past, but a
        // migration may anchor the window ahead of "now".)
        let ns = ev.ns();
        let s = (ns >> self.shift).max(self.cur_slice);
        let nb = self.ring.len() as u64;
        // Ring placement requires being strictly earlier than everything
        // in the overflow lane (ties included), so the ring minimum is
        // always the global minimum — see `overflow_min_ns`.
        if s - self.cur_slice < nb && ns < self.overflow_min_ns {
            let b = (s & (nb - 1)) as usize;
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
                let cap = if s == self.cur_slice {
                    INSERT_MOVE_CAP
                } else {
                    DEFER_MOVE_CAP
                };
                if bucket.len() - pos > cap {
                    // Bounded-memmove fallback: a deep insertion appends
                    // and dirties the bucket; the deferred sort at the
                    // window head pays once — see `INSERT_MOVE_CAP` and
                    // `DEFER_MOVE_CAP`.
                    bucket.push(ev);
                    self.dirty[b] = true;
                } else {
                    bucket.insert(pos, ev);
                }
            }
            self.stats.bucket_hwm = self.stats.bucket_hwm.max(bucket.len() as u64);
            self.ring_len += 1;
        } else {
            if self.overflow.len() < self.overflow.capacity() {
                self.stats.reused += 1;
            }
            self.overflow_min_ns = self.overflow_min_ns.min(ns);
            self.overflow.push(ev);
        }
    }

    /// Append one event to the bucket of slice `s` during a bulk
    /// redistribution, preserving a clean bucket's descending order
    /// when the arrival order allows (keys are unique, so
    /// `last.key < ev.key` is exactly an order break).
    #[inline]
    fn route_bulk(&mut self, s: u64, ev: CompactRec) {
        let b = (s & (self.ring.len() as u64 - 1)) as usize;
        let bucket = &mut self.ring[b];
        if bucket.last().is_some_and(|l| l.key < ev.key) {
            self.dirty[b] = true;
        }
        bucket.push(ev);
        self.stats.bucket_hwm = self.stats.bucket_hwm.max(bucket.len() as u64);
        self.ring_len += 1;
    }

    /// Position `cur_slice` at the bucket holding the minimum key and
    /// sort it if it is dirty. Returns the bucket index, or `None` when
    /// the queue is empty.
    fn settle(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // The outer loop re-settles after a split re-fits the geometry;
        // `shift` strictly decreases across splits, bounding it.
        loop {
            if self.ring_len == 0 {
                self.migrate();
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
                    s - self.cur_slice < nb,
                    "ring_len > 0 but no non-empty bucket in the window"
                );
            };
            if s != self.cur_slice {
                self.stats.empty_steps += s - self.cur_slice;
                self.cur_slice = s;
                self.head_sorted = false;
            }
            if self.dirty[b] {
                // A second sort of the same head slice means deep
                // inserts keep landing in the bucket being popped: the
                // slices are too wide for the cluster at the front.
                if self.head_sorted {
                    if let Some((shift, min_ns)) = self.cluster_shift(b) {
                        self.split(shift, min_ns);
                        continue;
                    }
                }
                // Descending by key: `Vec::pop` then yields the minimum.
                // Keys are unique, so unstable sorting is deterministic.
                self.ring[b].sort_unstable_by_key(|x| std::cmp::Reverse(x.key));
                self.dirty[b] = false;
                self.head_sorted = true;
            }
            return Some(b);
        }
    }

    /// The narrower bucket width the (dirty) head bucket's cluster
    /// calls for, with the cluster's earliest time — or `None` when
    /// narrowing cannot help (small bucket, identical-time flood, 1 ns
    /// slices).
    fn cluster_shift(&self, b: usize) -> Option<(u32, u64)> {
        let bucket = &self.ring[b];
        if bucket.len() <= SPLIT_OCCUPANCY {
            return None;
        }
        let (min_ns, max_ns) = bucket.iter().fold((u64::MAX, 0), |(lo, hi), e| {
            (lo.min(e.ns()), hi.max(e.ns()))
        });
        let target = (bucket.len() / SPLIT_TARGET_OCCUPANCY) as u64;
        let mut shift = self.shift;
        // A span of zero walks `shift` to 0 and fails the test below:
        // the flood cannot be spread, it simply sorts.
        while shift > 0 && ((max_ns - min_ns) >> shift) < target {
            shift -= 1;
        }
        (max_ns > min_ns && shift < self.shift).then_some((shift, min_ns))
    }

    /// Narrow the bucket width to `2^shift` so the cluster at the head
    /// spreads across many slices. Old buckets are drained one at a time
    /// into a fresh ring anchored at the cluster's earliest time
    /// `min_ns`; whatever the narrower window no longer covers goes back
    /// to the lane. That tail is later than every event kept and earlier
    /// than every event already parked, so the overflow gate holds.
    fn split(&mut self, shift: u32, min_ns: u64) {
        self.stats.rebuilds += 1;
        let nb = ring_size(self.len);
        self.stats.ring_hwm = self.stats.ring_hwm.max(nb as u64);
        let mut old = std::mem::replace(&mut self.ring, (0..nb).map(|_| Vec::new()).collect());
        self.dirty.clear();
        self.dirty.resize(nb, false);
        let mask = old.len() - 1;
        let start = self.cur_slice as usize & mask;
        self.shift = shift;
        self.cur_slice = min_ns >> shift;
        self.head_sorted = false;
        let mut left = std::mem::take(&mut self.ring_len);
        for i in 0..old.len() {
            if left == 0 {
                break;
            }
            let bucket = &mut old[(start + i) & mask];
            left -= bucket.len();
            for ev in bucket.drain(..) {
                let s = ev.ns() >> shift;
                if s - self.cur_slice < nb as u64 {
                    self.route_bulk(s, ev);
                } else {
                    self.overflow_min_ns = self.overflow_min_ns.min(ev.ns());
                    self.overflow.push(ev);
                }
            }
        }
    }

    /// The ring is empty: size it for the population, set the bucket
    /// width by the lane's *earlier half* — that half's span fits a
    /// quarter of the window at no less than one event per slice —
    /// anchor the window at the earliest lane event and move in
    /// everything the window covers. The rest stays parked: the width is
    /// never widened to cover what is not moved, so far timers cannot
    /// stretch the slices of a dense front, and at least half the lane
    /// moves every time, so the O(lane) pass is O(1) per pop.
    fn migrate(&mut self) {
        let n = self.overflow.len();
        debug_assert!(n > 0 && n == self.len);
        let nb = ring_size(n);
        if self.ring.len() != nb {
            self.ring.resize_with(nb, Vec::new);
            self.dirty.resize(nb, false);
            self.stats.ring_hwm = self.stats.ring_hwm.max(nb as u64);
        }
        let min_ns = self.overflow_min_ns;
        let max_ns = self.overflow.iter().map(CompactRec::ns).max().unwrap_or(0);
        let front = if max_ns == min_ns {
            0
        } else {
            let (_, median, _) = self
                .overflow
                .select_nth_unstable_by_key(n / 2, CompactRec::ns);
            median.ns() - min_ns
        };
        let target = (nb / 4).min(n / 2).max(2) as u64;
        let mut shift = 0;
        while (front >> shift) >= target {
            shift += 1;
        }
        self.shift = shift;
        self.cur_slice = min_ns >> shift;
        self.head_sorted = false;
        self.overflow_min_ns = u64::MAX;
        if max_ns >> shift == self.cur_slice {
            // The whole lane is one slice (a spawn wave): it becomes the
            // bucket as it stands, no second copy.
            let b = (self.cur_slice & (nb as u64 - 1)) as usize;
            std::mem::swap(&mut self.ring[b], &mut self.overflow);
            self.dirty[b] = true;
            self.ring_len = n;
            self.stats.bucket_hwm = self.stats.bucket_hwm.max(n as u64);
            return;
        }
        self.stats.rebuilds += 1;
        let mut i = 0;
        while i < self.overflow.len() {
            let ns = self.overflow[i].ns();
            if (ns >> shift) - self.cur_slice < nb as u64 {
                let ev = self.overflow.swap_remove(i);
                self.route_bulk(ns >> shift, ev);
            } else {
                self.overflow_min_ns = self.overflow_min_ns.min(ns);
                i += 1;
            }
        }
    }

    /// Remove and return the earliest event (smallest key).
    #[inline]
    pub fn pop(&mut self) -> Option<EventRec> {
        let b = self.settle()?;
        let bucket = &mut self.ring[b];
        let rec = bucket.pop()?;
        // The drain rule — see `TRIM_CAP`.
        if bucket.capacity() > TRIM_CAP && bucket.len() <= bucket.capacity() / 2 {
            bucket.shrink_to(TRIM_CAP.max(bucket.len() + bucket.len() / 2));
        }
        self.ring_len -= 1;
        self.len -= 1;
        let (tag, payload) = rec.action.unpack();
        Some(EventRec {
            key: rec.key,
            action: match tag {
                CompactAction::SPAWN => Action::Spawn,
                CompactAction::WAKE_TOKEN => Action::WakeToken(WaitToken(payload)),
                CompactAction::WAKE_MESSAGE => Action::WakeMessage,
                // A slot index was packed from a `u32`.
                _ => Action::Call(self.calls.remove(payload as u32)),
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
        let b = self.settle()?;
        self.ring[b].last().map(|e| e.key)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::Rank;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn key(t: u64, dst: u32, src: u32, seq: u64) -> EventKey {
        EventKey {
            time: SimTime(t),
            dst: Rank(dst),
            src: Rank(src),
            seq,
        }
    }

    fn ev(t: u64, dst: u32, src: u32, seq: u64) -> EventRec {
        EventRec {
            key: key(t, dst, src, seq),
            action: Action::Spawn,
        }
    }

    /// The queue in lock-step with the oracle, a binary heap over the
    /// keys: every pop is checked against it.
    #[derive(Default)]
    struct Checked {
        q: EventQueue,
        oracle: BinaryHeap<Reverse<EventKey>>,
    }

    impl Checked {
        fn push(&mut self, key: EventKey) {
            self.oracle.push(Reverse(key));
            self.q.push(EventRec {
                key,
                action: Action::Spawn,
            });
        }

        fn pop(&mut self) -> Option<EventKey> {
            let want = self.oracle.pop().map(|r| r.0);
            assert_eq!(self.q.next_key(), want, "next_key diverged");
            assert_eq!(self.q.pop().map(|e| e.key), want, "pop diverged");
            assert_eq!(self.q.len(), self.oracle.len());
            want
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = EventQueue::new();
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

    #[test]
    fn pop_before_respects_bound() {
        let mut q = EventQueue::new();
        q.push(ev(10, 0, 0, 0));
        q.push(ev(3, 0, 0, 1));
        assert_eq!(q.pop_before(SimTime(5)).unwrap().key.time, SimTime(3));
        assert!(q.pop_before(SimTime(5)).is_none());
        assert!(q.pop_before(SimTime(10)).is_none(), "bound is exclusive");
        assert_eq!(q.pop_before(SimTime(11)).unwrap().key.time, SimTime(10));
        assert!(q.is_empty());
    }

    #[test]
    fn colliding_timestamps_order_by_dst_src_seq() {
        // All four events collide at t=9; the pop order must be the
        // lexicographic (dst, src, seq) order regardless of push order.
        let mut q = EventQueue::new();
        q.push(ev(9, 1, 0, 4));
        q.push(ev(9, 0, 1, 7));
        q.push(ev(9, 0, 0, 2));
        q.push(ev(9, 1, 0, 3));
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.key.dst.0, e.key.src.0, e.key.seq))
            .collect();
        assert_eq!(order, vec![(0, 0, 2), (0, 1, 7), (1, 0, 3), (1, 0, 4)]);
    }

    #[test]
    fn queue_order_is_push_order_independent() {
        // Exchange batching changes insertion order between engines;
        // the pop sequence must not. Try several permutations of the
        // same colliding-key set.
        let keys = [
            key(5, 0, 0, 1),
            key(5, 0, 2, 1),
            key(5, 1, 0, 2),
            key(3, 2, 1, 9),
            key(5, 0, 0, 3),
        ];
        let pop_all = |order: [usize; 5]| -> Vec<EventKey> {
            let mut q = EventQueue::new();
            for i in order {
                q.push(EventRec {
                    key: keys[i],
                    action: Action::Spawn,
                });
            }
            std::iter::from_fn(|| q.pop()).map(|e| e.key).collect()
        };
        let reference = pop_all([0, 1, 2, 3, 4]);
        for p in [[4, 3, 2, 1, 0], [1, 3, 0, 4, 2], [2, 0, 4, 1, 3]] {
            assert_eq!(pop_all(p), reference, "permutation {p:?} reordered ties");
        }
    }

    #[test]
    fn next_time_tracks_min() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(ev(7, 0, 0, 0));
        q.push(ev(2, 0, 0, 1));
        assert_eq!(q.next_time(), Some(SimTime(2)));
        assert_eq!(q.len(), 2);
    }

    /// Seeded randomized differential test: interleaved push/pop (with
    /// heavy timestamp collisions and far-future outliers that park in
    /// the lane and force migrations) pops exactly as the oracle does.
    #[test]
    fn matches_oracle_under_seeded_churn() {
        for seed in [
            0x9e3779b97f4a7c15u64,
            0xdeadbeefcafef00d,
            0x0123456789abcdef,
            0x2545f4914f6cdd1d,
        ] {
            let mut state = seed;
            let mut c = Checked::default();
            let mut virt_now = 0u64;
            for seq in 0..5_000u64 {
                let r = xorshift(&mut state);
                if r % 100 < 60 {
                    // Push: mostly near-future, some colliding, some far.
                    let dt = match r % 10 {
                        0..=5 => r % 2_000,            // dense near-future
                        6..=7 => 0,                    // exact-time collision
                        8 => (r >> 8) % 1_000_000,     // mid-range
                        _ => (r >> 8) % 4_000_000_000, // far overflow
                    };
                    c.push(key(
                        virt_now + dt,
                        (r >> 32) as u32 % 64,
                        (r >> 40) as u32 % 64,
                        seq,
                    ));
                } else if let Some(k) = c.pop() {
                    virt_now = k.time.as_nanos();
                }
            }
            c.drain();
            let s = c.q.stats();
            assert!(s.pushes > 0 && s.bucket_hwm > 0 && s.rebuilds > 0);
            assert!(s.reused > 0, "steady state must reuse bucket capacity");
        }
    }

    /// A dense self-feeding cluster arriving inside one slice of a ring
    /// whose width was set by a sparse population must narrow the width
    /// (deep inserts keep dirtying the head bucket) and still pop
    /// exactly as the oracle does, with the sparse tail and a far timer
    /// parked behind it in the lane.
    #[test]
    fn dense_cluster_splits_and_matches_oracle() {
        let mut c = Checked::default();
        let mut seq = 0..;
        let mut push = |c: &mut Checked, t: u64| {
            let seq: u64 = seq.next().unwrap();
            c.push(key(t, (seq % 7) as u32, (seq % 5) as u32, seq));
        };
        // 300 events 1 ms apart and one far timer: millisecond slices.
        for i in 0..300u64 {
            push(&mut c, i * 1_000_000);
        }
        push(&mut c, 3_000_000_000_000);
        c.pop();
        let wide = c.q.shift;
        assert!(wide >= 16, "sparse population, shift {wide}");
        // 4000 events inside one microsecond: one slice of that ring.
        for i in 0..4_000u64 {
            push(&mut c, 1_000_000 + (i * 37) % 1_024);
        }
        // Hold-model churn: pop the min, push a successor just ahead —
        // repeatedly landing deep in the pop bucket.
        let mut state = 0xabcdef12345678u64;
        for _ in 0..6_000 {
            let t = c.pop().unwrap().time.as_nanos() + 1 + xorshift(&mut state) % 64;
            push(&mut c, t);
        }
        assert!(c.q.shift < 10, "width not narrowed: shift {}", c.q.shift);
        assert!(c.q.stats().bucket_hwm > SPLIT_OCCUPANCY as u64);
        c.drain();
    }

    /// Dense ties on one timestamp (span 0: unsplittable, so the split
    /// path can never rescue the bucket) hammer the ordered-insertion
    /// path directly: ascending, descending and shuffled key orders,
    /// far past the bounded-memmove cap, interleaved with pops.
    #[test]
    fn dense_tie_insertion_matches_oracle() {
        // Three adversarial push orders over the same key set, sized so
        // both the in-order insert and the append-and-sort-once paths
        // are exercised many times over.
        let n: u64 = 32 * INSERT_MOVE_CAP as u64 + 137;
        let tie = |j: u64| key(500, (j % 61) as u32, (j % 53) as u32, j);
        let orders: [&dyn Fn(u64) -> u64; 3] = [
            &|i| i,                       // ascending (dst,src,seq)
            &|i| n - 1 - i,               // descending
            &|i| (i * 2_654_435_761) % n, // pseudo-shuffled
        ];
        for order in orders {
            let mut c = Checked::default();
            for i in 0..n {
                c.push(tie(order(i)));
            }
            // Interleave: pop a few, push a few more colliding events.
            for round in 0..64u64 {
                for _ in 0..8 {
                    c.pop();
                }
                c.push(tie(n + round));
            }
            c.drain();
            assert_eq!(
                c.q.stats().rebuilds,
                0,
                "a same-time flood is never re-bucketed"
            );
        }
    }

    /// `Call` closures round-trip through the slab: popped events carry
    /// the original closure, slots are recycled across push/pop cycles,
    /// and dropping the queue releases unfired captures.
    #[test]
    fn call_slab_recycles_slots_and_releases_unfired() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicU32::new(0));
        struct Bump(Arc<AtomicU32>);
        impl Drop for Bump {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let call = |t: u64| {
            let b = Bump(counter.clone());
            EventRec {
                key: key(t, 0, 0, t),
                action: Action::call(move |_k| {
                    let _ = &b;
                }),
            }
        };
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(call(i));
        }
        assert_eq!(q.calls.slots.len(), 8);
        for _ in 0..8 {
            let rec = q.pop().unwrap();
            assert!(matches!(rec.action, Action::Call(_)));
            drop(rec); // unfired: must release the capture
        }
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        // All slots are free again: new calls reuse them.
        for i in 0..8 {
            q.push(call(100 + i));
        }
        assert_eq!(q.calls.slots.len(), 8, "slots must be recycled");
        drop(q);
        assert_eq!(
            counter.load(Ordering::SeqCst),
            16,
            "queue drop must release unfired captures"
        );
    }

    /// The resident record must stay at 32 bytes (24-byte key + 8-byte
    /// action word): the 2²⁷-VP memory budget is sized to it.
    #[test]
    fn compact_rec_is_32_bytes() {
        assert_eq!(std::mem::size_of::<CompactRec>(), 32);
    }

    /// The largest token `begin_wait` can mint.
    fn max_minted_token() -> WaitToken {
        use crate::vp::{VpState, VpTable, WaitClass};
        let mut t = VpTable::new(0..1, SimTime::ZERO);
        let mut vp = t.get_mut(Rank(0));
        vp.rearm_wait(WaitClass::Compute, "wait", WaitToken((1 << 62) - 2));
        vp.set_state(VpState::Running);
        vp.begin_wait(WaitClass::Compute, "wait")
    }

    /// Every action variant survives the 8-byte word at its payload
    /// extremes: tokens 0 and `2^62 − 1`, and call slots 0 through the
    /// top of a 4,096-call slab, each popped with its own closure; the
    /// tag bits cannot bleed into a payload and back.
    #[test]
    fn every_action_round_trips_at_its_payload_extremes() {
        use std::sync::{Arc, Mutex};
        let top = max_minted_token();
        assert_eq!(top, WaitToken((1 << 62) - 1));
        // A closure's capture logs its id when dropped: the popped
        // `Call`s, dropped in pop order, must log 0, 1, 2, ….
        struct Tag(u64, Arc<Mutex<Vec<u64>>>);
        impl Drop for Tag {
            fn drop(&mut self) {
                self.1.lock().unwrap().push(self.0);
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut q = EventQueue::new();
        let at = |t: u64, action| EventRec {
            key: key(t, 0, 0, t),
            action,
        };
        const CALLS: u64 = 4_096;
        for i in 0..CALLS {
            let tag = Tag(i, log.clone());
            q.push(at(10 + i, Action::call(move |_k| drop(tag))));
        }
        q.push(at(1, Action::WakeToken(WaitToken(0))));
        q.push(at(2, Action::WakeToken(top)));
        q.push(at(3, Action::Spawn));
        q.push(at(4, Action::WakeMessage));
        assert_eq!(q.calls.slots.len() as u64, CALLS);
        let mut popped = std::iter::from_fn(|| q.pop()).map(|e| e.action);
        assert!(matches!(
            popped.next(),
            Some(Action::WakeToken(WaitToken(0)))
        ));
        assert!(matches!(popped.next(), Some(Action::WakeToken(t)) if t == top));
        assert!(matches!(popped.next(), Some(Action::Spawn)));
        assert!(matches!(popped.next(), Some(Action::WakeMessage)));
        for a in popped {
            assert!(matches!(a, Action::Call(_)));
        }
        assert_eq!(*log.lock().unwrap(), (0..CALLS).collect::<Vec<_>>());
        assert_eq!(q.calls.free.len() as u64, CALLS, "every slot came back");

        // The largest slot index a `u32` slab can hand out.
        let word = CompactAction::pack(CompactAction::CALL, u32::MAX.into());
        assert_eq!(word.unpack(), (CompactAction::CALL, u32::MAX.into()));
        for tag in [CompactAction::SPAWN, CompactAction::WAKE_MESSAGE] {
            assert_eq!(CompactAction::pack(tag, 0).unpack(), (tag, 0));
        }
    }

    /// A token at `2^62` would overwrite the tag bits, so it is refused
    /// where it is minted.
    #[test]
    #[should_panic(expected = "bound of the event queue's action word")]
    fn token_at_two_pow_62_is_refused_where_minted() {
        use crate::vp::{VpState, VpTable, WaitClass};
        let mut t = VpTable::new(0..1, SimTime::ZERO);
        let mut vp = t.get_mut(Rank(0));
        vp.rearm_wait(WaitClass::Compute, "wait", max_minted_token());
        vp.set_state(VpState::Running);
        vp.begin_wait(WaitClass::Compute, "wait");
    }
}
