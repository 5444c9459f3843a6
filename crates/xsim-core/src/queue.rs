//! The pending-event queue.
//!
//! [`EventQueue`] is a calendar queue over recycled, segmented `Vec`
//! buckets. Pending events live in a ring of `nb` buckets, each
//! covering one `2^shift`-nanosecond slice of virtual time; everything
//! else waits in an unsorted overflow lane, the earlier part of which
//! moves into the ring whenever the ring drains. Buckets are kept
//! sorted (descending by key, so `Vec::pop` yields the minimum) by
//! binary-search ordered insertion; a dirty flag defers ordering the
//! bucket to the window head for bulk redistribution and for the
//! bounded-memmove fallback below. Bucket and lane buffers keep their
//! capacity across the run, so steady-state push/pop performs zero
//! allocations.
//!
//! ## Settling a dirty bucket
//!
//! A dirty bucket is rarely unordered: a lock-step wave arrives in
//! ascending rank order behind a short in-order prefix, and a
//! same-instant flood pushed in key order is one run. `settle_bucket`
//! scans for maximal monotone runs,
//! moves the longest to the front in descending order, sorts the few
//! records outside it in a fixed stack array and merges them in from
//! the back — linear time, no allocation, no change of capacity. Only
//! a bucket with more than `MAX_RUNS` runs or `STRAY_CAP` strays,
//! or one below `MERGE_MIN_LEN`, takes the comparison sort.
//!
//! ## Geometry
//!
//! The queue costs what it holds: the bucket count is a function of the
//! *population* alone (`ring_size`), never of the virtual time the
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
//! Resident events are stored as a 32-byte `CompactRec` — the 24-byte
//! key plus an 8-byte action word — instead of the 48-byte
//! [`EventRec`]. A `Call`'s box parks in a queue-owned slab
//! (`CallSlab`) and the record carries only the slot index; slots
//! are 16 bytes (the fat box pointer) and recycled through a free list,
//! so a slot is paid once per *in-flight* `Call`, not per resident
//! event. Dropping the queue drops the slab, releasing unfired calls'
//! state (abort teardown).
//!
//! ## The spawn run
//!
//! A shard's initial spawn wave — one `Spawn` per owned rank at one
//! instant, keyed `(at, r, r, 0)` — is no record at all:
//! [`EventQueue::push_spawns`] keeps it as the pending rank range, so at
//! the paper's 2²⁷-VP scale the ~134 M spawns cost two `u32`s instead of
//! ~4 GiB of records. The ring takes the geometry a one-slice lane of as
//! many records gets from `migrate` (shift 0, the window anchored at
//! `at`), the run counts as resident, and the window head cannot leave
//! its slice while it is pending, so every other push lands where it
//! would land beside a record wave. `pop` and `next_key` take the
//! smaller of the slice's real minimum and the next spawn.
//!
//! ## Segmented buckets
//!
//! A bucket holds at most `SEG` records in one buffer, its *pop
//! end* (`ring[b]`). A bucket that fills past `SEG_FILL` records
//! grows a `Chain` of further segments of `SEG` records each, in
//! ascending key ranges: a push above the bucket's largest key opens or
//! extends the high end, any other push lands in the segment whose range
//! holds its key. When the pop end empties, the next segment takes its
//! place and is settled on its own; a segment filled only by appends
//! above its largest key is one ascending run and is reversed, nothing
//! more. So a lock-step wave of any size costs its records plus a
//! fraction of a segment, never a doubling buffer, and its drained
//! segments feed the waves its pops fill through the queue's pool (see
//! `Segments`), never through the allocator.
//!
//! Only a buffer that arrived whole can exceed `SEG` records: the lane
//! handed over as one bucket (a same-instant flood) or a bucket filled
//! by bulk redistribution. Such a giant gives its memory back while it
//! drains (the drain rule in `pop`): a draining flood does not stay
//! resident next to the waves it is filling.
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

use crate::event::{Action, Call, EventKey, EventRec};
use crate::rank::Rank;
use crate::time::SimTime;
use crate::vp::{WaitToken, WAIT_TOKEN_BITS};
use std::collections::VecDeque;
use std::ops::Range;

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
    /// Records the window head put through a comparison sort: whole
    /// dirty buckets the run merge could not settle, and the strays of
    /// those it did (see `settle_bucket`).
    pub sorted: u64,
}

/// The action word of a resident event: [`Action`] with the `Call`
/// box swapped for its [`CallSlab`] slot index, packed into one
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
#[derive(Clone, Copy)]
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

/// Parking lot for in-flight `Call` boxes. Slots are recycled through a
/// free list, so steady-state `Call` traffic allocates no slab memory
/// once the slab has grown to the in-flight high-water mark.
#[derive(Default)]
struct CallSlab {
    slots: Vec<Option<Box<dyn Call>>>,
    free: Vec<u32>,
}

impl CallSlab {
    #[inline]
    fn insert(&mut self, f: Box<dyn Call>) -> u32 {
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
    fn remove(&mut self, slot: u32) -> Box<dyn Call> {
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
/// Small bucket buffers (below [`SEG`] records) kept for recycling. A
/// sliding window marches over buckets that have never held an event
/// (the ring wraps only every `nb` slices), so without recycling every
/// few pushes pay a fresh allocation; the settle scan instead strips
/// capacity from the drained buckets it passes and pushes install it
/// into cold ones. Full-size buffers go to the pool instead.
const SPARE_BUFFERS: usize = 32;
/// Ordered-insertion memmove bound: an insertion that would shift more
/// than this many records appends + dirties the bucket instead,
/// deferring to one settle when the bucket reaches the window head.
/// This caps the per-push cost at a 2 KiB memmove while turning the two
/// degenerate fills into one pass instead of O(n²) memmoves: an
/// ascending-key flood into one slice settles as a run merge in linear
/// time (see `settle_bucket`), and dense same-time ties in no order
/// but `(dst, src, seq)` take one O(n log n) sort.
const INSERT_MOVE_CAP: usize = 64;
/// The same bound for a bucket that is not at the window head. There
/// the deferred settle is not an extra cost paid at the very next pop
/// but the one settle the bucket gets when the window reaches it, so
/// only a shallow insertion is worth a memmove now: lock-step message
/// waves (`storm_faulted`: ≈ 100 events per clump; `rawcore_1m`: 2²⁰,
/// arriving in rank order) otherwise memmove a kilobyte or two per
/// push. Such a wave settles as one ascending run plus this prefix.
const DEFER_MOVE_CAP: usize = 16;
/// Most records outside a dirty bucket's longest run that the run merge
/// takes (`settle_bucket`). They wait in a stack array, so settling
/// allocates nothing; a lock-step wave has `DEFER_MOVE_CAP + 2`.
const STRAY_CAP: usize = 2 * INSERT_MOVE_CAP;
/// Smallest dirty bucket the run scan is tried on; a smaller one is
/// sorted outright, since its sort costs about what a scan and merge
/// would.
const MERGE_MIN_LEN: usize = 2 * INSERT_MOVE_CAP;
/// Most maximal monotone runs a dirty bucket may have for the run
/// merge; past this it is treated as unordered and sorted, having cost
/// the scan a few dozen comparisons.
const MAX_RUNS: usize = 8;
/// Records per bucket segment (64 KiB). A bucket's pop end grows to
/// this by doubling at most; past [`SEG_FILL`] the bucket chains
/// further segments of exactly this capacity (see [`Chain`]). It is
/// also the floor of the drain rule: a buffer above this many records
/// (one that arrived whole) shrinks, once its length falls to half its
/// capacity, to 1.5× its length, never below `SEG`. A shrink at length
/// `L` puts the next shrink `L/4` pops away and the next growth `L/2`
/// pushes away, so alternating push/pop at the threshold cannot thrash
/// and the shrinks cost amortized O(1) per pop.
const SEG: usize = 1 << 11;
/// Records a pop end takes before a push above the bucket's largest
/// key opens the first higher segment (which then fills to `SEG`). The
/// rest is headroom for records that arrive below the largest key later
/// — a lock-step ring's wrap record to rank 0 — so that they join the
/// pop end's one settle instead of splitting it.
const SEG_FILL: usize = SEG - INSERT_MOVE_CAP;

/// The one rule for the bucket count: a function of the population,
/// never of the time it spans.
fn ring_size(len: usize) -> usize {
    (len / GROW_LOAD)
        .next_power_of_two()
        .clamp(INITIAL_BUCKETS, MAX_BUCKETS)
}

/// Order a dirty bucket descending by key, so `Vec::pop` yields the
/// minimum, in place and without allocating; returns the records that
/// went through a comparison sort. Keys are unique, so every correct
/// order is *the* order and neither path can change a pop.
///
/// The longest maximal monotone run is the backbone, moved to the front
/// in descending order: one reverse if it ascends, else a memmove. The
/// at most [`STRAY_CAP`] records outside it are copied to a stack array
/// first, sorted, and merged in from the back; the write index
/// `i + j - 1` never passes an unread backbone record. A single run
/// costs the scan and at most a reverse.
fn settle_bucket(bucket: &mut [CompactRec]) -> usize {
    let n = bucket.len();
    let run = (n >= MERGE_MIN_LEN).then(|| longest_run(bucket)).flatten();
    let Some((start, end, ascending)) = run.filter(|(s, e, _)| n - (e - s) <= STRAY_CAP) else {
        bucket.sort_unstable_by_key(|x| std::cmp::Reverse(x.key));
        return n;
    };
    let k = n - (end - start);
    let mut strays = [bucket[0]; STRAY_CAP];
    strays[..start].copy_from_slice(&bucket[..start]);
    strays[start..k].copy_from_slice(&bucket[end..]);
    let strays = &mut strays[..k];
    if ascending {
        // Reversing `..end` puts the backbone in front, descending; the
        // strays it moves behind were copied out above.
        bucket[..end].reverse();
    } else if start > 0 {
        bucket.copy_within(start..end, 0);
    }
    strays.sort_unstable_by_key(|x| std::cmp::Reverse(x.key));
    // `bucket[..i]` holds the unread backbone, `strays[..j]` the
    // unmerged strays; the smaller of their last records goes last.
    let (mut i, mut j) = (end - start, k);
    while j > 0 {
        if i > 0 && bucket[i - 1].key < strays[j - 1].key {
            bucket[i + j - 1] = bucket[i - 1];
            i -= 1;
        } else {
            bucket[i + j - 1] = strays[j - 1];
            j -= 1;
        }
    }
    k
}

/// The longest maximal monotone run of `b` as `(start, end, ascending)`,
/// or `None` once `b` turns out to have more than [`MAX_RUNS`] runs.
/// Keys are unique, so every adjacent pair is strictly ordered and the
/// runs partition `b`.
fn longest_run(b: &[CompactRec]) -> Option<(usize, usize, bool)> {
    let mut best = (0, 0, false);
    let mut start = 0;
    for _ in 0..MAX_RUNS {
        let rest = &b[start..];
        let ascending = rest.len() > 1 && rest[0].key < rest[1].key;
        let len = rest
            .windows(2)
            .position(|w| (w[0].key < w[1].key) != ascending)
            .map_or(rest.len(), |p| p + 1);
        if len > best.1 - best.0 {
            best = (start, start + len, ascending);
        }
        start += len;
        if start == b.len() {
            return Some(best);
        }
    }
    None
}

/// How a chained segment's records are ordered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Descending by key: in pop order.
    Clean,
    /// Appended out of order; settled when the segment reaches the pop
    /// end.
    Dirty,
    /// Ascending by key, every push an append above the segment's
    /// largest: one reverse puts it in pop order.
    Rising,
}

/// One segment above a bucket's pop end.
struct Seg {
    /// Smallest key the segment takes: it holds the bucket's keys in
    /// `[lo, the next segment's lo)`, and every key below it is in a
    /// lower segment or the pop end.
    lo: EventKey,
    recs: Vec<CompactRec>,
    order: Order,
}

/// The segments of one bucket above its pop end `ring[bucket]`, lowest
/// key range first. A bucket is chained from the push that finds its
/// pop end holding [`SEG_FILL`] records in at most [`SEG`] of capacity
/// until it is empty again.
struct Chain {
    bucket: usize,
    /// Largest key resident in the bucket. Pops take the smallest, so
    /// only pushes move it.
    hi: EventKey,
    /// Records in `segs`; the bucket's population is this plus its
    /// pop end's length.
    len: usize,
    segs: VecDeque<Seg>,
}

/// The queue's recycled buffers and its chained buckets, allocated
/// when the first drained buffer is kept or the first bucket chains
/// (out of line: the queue sits in every kernel, whose size the hot
/// loop feels).
///
/// The pool rule: the pool holds at most one idle segment more than
/// are live — chained, pop ends included. A drained full-size buffer
/// ([`SEG`] records of capacity) goes back to it only within that
/// bound, and each segment that stops being live frees an idle one
/// above it. So the pool holds what the waves being filled can take, no
/// more: the segments a draining wave empties refill the waves its pops
/// feed. The one extra covers the draining wave's last segment, which
/// comes back only after the waves it fills have opened theirs.
#[derive(Default)]
struct Segments {
    /// Recycled small bucket buffers — see [`SPARE_BUFFERS`].
    spare: Vec<Vec<CompactRec>>,
    /// Idle buffers of capacity `SEG`.
    pool: Vec<Vec<CompactRec>>,
    /// Chained buckets, sorted by ring index.
    chains: Vec<Chain>,
    /// Segment lists of chains that emptied, kept for the next ones.
    lists: Vec<VecDeque<Seg>>,
    /// Live segments: each chain's high segments and its pop end.
    live: usize,
}

impl Segments {
    fn chain(&self, b: usize) -> Option<&Chain> {
        let i = self.chains.binary_search_by_key(&b, |c| c.bucket).ok()?;
        Some(&self.chains[i])
    }
}

/// Per-bucket flag: the bucket's pop end awaits its deferred settle.
const DIRTY: u8 = 1;
/// Per-bucket flag: the bucket has a [`Chain`].
const CHAINED: u8 = 2;

/// Insert `ev` into a clean (descending) or dirty buffer: appended when
/// the buffer is dirty or `ev` is its new minimum, else placed by binary
/// search unless that would shift more than `move_cap` records, in which
/// case it is appended and the buffer turns dirty. Returns whether the
/// buffer is dirty afterwards.
#[inline]
fn insert(recs: &mut Vec<CompactRec>, dirty: bool, ev: CompactRec, move_cap: usize) -> bool {
    if dirty || recs.last().is_none_or(|l| ev.key < l.key) {
        // Dirty buffers collect appends until their deferred settle;
        // clean ones append when the event is the new minimum — the
        // common hold-model case, O(1).
        recs.push(ev);
        return dirty;
    }
    // `partition_point` finds the first entry not greater than the new
    // key; keys are unique, so this is the exact insertion point.
    let pos = recs.partition_point(|x| x.key > ev.key);
    if recs.len() - pos > move_cap {
        // Bounded-memmove fallback: a deep insertion appends and
        // dirties the buffer; the deferred settle pays once — see
        // `INSERT_MOVE_CAP` and `DEFER_MOVE_CAP`.
        recs.push(ev);
        true
    } else {
        recs.insert(pos, ev);
        false
    }
}

/// Min-queue of pending events with deterministic tie-breaking.
pub struct EventQueue {
    /// Ring of buckets, unallocated until the first migration; bucket
    /// `i` holds the events of the one time slice `s` (`s = time >>
    /// shift`) with `s % nb == i` inside the current window
    /// `[cur_slice, cur_slice + nb)`. Each entry is its bucket's pop
    /// end: the bucket's smallest keys (all of them unless the bucket is
    /// chained), descending when clean, so `Vec::pop` yields the
    /// minimum. A chained bucket's pop end is never empty.
    ring: Vec<Vec<CompactRec>>,
    /// Per-bucket [`DIRTY`] and [`CHAINED`] flags, one per bucket of
    /// `ring`. `DIRTY` is set only by bulk redistribution and the
    /// bounded-memmove fallback (ordinary pushes insert in order) and
    /// cleared after the pop end is settled at the window head. An empty
    /// bucket is always clean, so an empty ring's flags are all 0.
    flags: Box<[u8]>,
    /// `log2` of the bucket width in nanoseconds.
    shift: u32,
    /// Lowest time slice the ring currently represents. Pops only
    /// advance it past empty buckets, so every resident event's slice
    /// is `>= cur_slice`.
    cur_slice: u64,
    /// Whether the bucket at `cur_slice` has already been settled at the
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
    /// Events resident in the ring, the pending spawn run included; the
    /// rest are in `overflow`.
    ring_len: usize,
    /// The pending spawn run: ranks `spawn_lo..spawn_hi` still owe the
    /// `Spawn` event keyed `(cur_slice, r, r, 0)` that [`push_spawns`]
    /// stands in for. While it is pending the geometry stays as
    /// `push_spawns` set it — `shift` is 0, so `cur_slice` is the spawn
    /// time in nanoseconds: `ring_len` counts the run, so no migration
    /// runs, and `settle` treats the head slice as occupied, so the
    /// window never moves past it.
    ///
    /// [`push_spawns`]: EventQueue::push_spawns
    spawn_lo: u32,
    spawn_hi: u32,
    /// Recycled buffers and chains, once there are any.
    segs: Option<Box<Segments>>,
    /// In-flight `Call` boxes; resident records carry slot indices.
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
            flags: Box::default(),
            shift: 0,
            cur_slice: 0,
            head_sorted: false,
            overflow: Vec::new(),
            overflow_min_ns: u64::MAX,
            ring_len: 0,
            spawn_lo: 0,
            spawn_hi: 0,
            segs: None,
            calls: CallSlab::default(),
            stats: QueueStats::default(),
        }
    }

    /// Allocation/occupancy counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Insert an event. `Call` boxes park in the slab and the
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
            let cap = if s == self.cur_slice {
                INSERT_MOVE_CAP
            } else {
                DEFER_MOVE_CAP
            };
            let bucket = &mut self.ring[b];
            if self.flags[b] & CHAINED != 0
                || (bucket.len() >= SEG_FILL && bucket.capacity() <= SEG)
            {
                self.push_chained(b, ev, cap);
            } else {
                if bucket.capacity() == 0 {
                    // Cold bucket (never filled, or stripped by the
                    // settle scan): seed it with a recycled buffer.
                    let recycled = self
                        .segs
                        .as_mut()
                        .and_then(|g| g.spare.pop().or_else(|| g.pool.pop()));
                    if let Some(buf) = recycled {
                        *bucket = buf;
                    }
                }
                if bucket.len() < bucket.capacity() {
                    self.stats.reused += 1;
                }
                if insert(bucket, self.flags[b] & DIRTY != 0, ev, cap) {
                    self.flags[b] |= DIRTY;
                }
                self.stats.bucket_hwm = self.stats.bucket_hwm.max(bucket.len() as u64);
            }
            self.ring_len += 1;
        } else {
            if self.overflow.len() < self.overflow.capacity() {
                self.stats.reused += 1;
            }
            self.overflow_min_ns = self.overflow_min_ns.min(ns);
            self.overflow.push(ev);
        }
    }

    /// A push into a chained bucket, or into one whose pop end has
    /// reached [`SEG_FILL`] records (which chains it). `cap` is the
    /// memmove bound of the pop end; a higher segment, settled only once
    /// it reaches the pop end, takes [`DEFER_MOVE_CAP`].
    #[inline(never)]
    fn push_chained(&mut self, b: usize, ev: CompactRec, cap: usize) {
        let ci = self.chain_of(b);
        loop {
            let Segments {
                pool, chains, live, ..
            } = &mut **self.segs.as_mut().expect("chained");
            let chain = &mut chains[ci];
            // The segment whose range holds the key: 0 is the pop end,
            // `t > 0` is `chain.segs[t - 1]`. A lock-step wave pushes
            // above the largest key every time: no search.
            let t = if ev.key > chain.hi {
                chain.segs.len()
            } else {
                chain.segs.partition_point(|g| g.lo <= ev.key)
            };
            let len = match t {
                0 => self.ring[b].len(),
                _ => chain.segs[t - 1].recs.len(),
            };
            let fill = if t == 0 { SEG_FILL } else { SEG };
            if ev.key > chain.hi && t == chain.segs.len() && len >= fill {
                // Above the bucket's largest key, with the high end
                // full: open the next segment.
                let mut recs = pool.pop().unwrap_or_default();
                self.stats.reused += (recs.capacity() == SEG) as u64;
                recs.reserve_exact(SEG);
                recs.push(ev);
                chain.segs.push_back(Seg {
                    lo: ev.key,
                    recs,
                    order: Order::Rising,
                });
                chain.len += 1;
                *live += 1;
            } else if len >= SEG {
                self.split_segment(b, ci, t);
                continue;
            } else if t == 0 {
                let recs = &mut self.ring[b];
                self.stats.reused += (recs.len() < recs.capacity()) as u64;
                if insert(recs, self.flags[b] & DIRTY != 0, ev, cap) {
                    self.flags[b] |= DIRTY;
                }
            } else {
                let g = &mut chain.segs[t - 1];
                self.stats.reused += (g.recs.len() < g.recs.capacity()) as u64;
                g.order = match g.order {
                    Order::Rising => {
                        let rising = g.recs.last().is_some_and(|l| l.key < ev.key);
                        g.recs.push(ev);
                        if rising {
                            Order::Rising
                        } else {
                            Order::Dirty
                        }
                    }
                    order => match insert(&mut g.recs, order == Order::Dirty, ev, DEFER_MOVE_CAP) {
                        true => Order::Dirty,
                        false => Order::Clean,
                    },
                };
                chain.len += 1;
            }
            chain.hi = chain.hi.max(ev.key);
            let population = self.ring[b].len() + chain.len;
            self.stats.bucket_hwm = self.stats.bucket_hwm.max(population as u64);
            return;
        }
    }

    /// The index of bucket `b`'s chain, chaining it first if it has
    /// none: its pop end becomes the chain's first segment.
    fn chain_of(&mut self, b: usize) -> usize {
        let segs = self.segs.get_or_insert_with(Box::default);
        match segs.chains.binary_search_by_key(&b, |c| c.bucket) {
            Ok(ci) => ci,
            Err(ci) => {
                let hi = self.ring[b].iter().map(|r| r.key).max();
                let chain = Chain {
                    bucket: b,
                    hi: hi.expect("a pop end at its fill mark"),
                    len: 0,
                    segs: segs.lists.pop().unwrap_or_default(),
                };
                segs.chains.insert(ci, chain);
                segs.live += 1;
                self.flags[b] |= CHAINED;
                ci
            }
        }
    }

    /// A push landed in segment `t` of bucket `b` (chain `ci`; 0 is the
    /// pop end) with no room left: settle the segment and move its upper
    /// half into a new segment right above it. A bucket whose pushes keep
    /// landing below its largest key becomes a run of half-full sorted
    /// segments, each insert bounded by one segment's memmove.
    fn split_segment(&mut self, b: usize, ci: usize, t: usize) {
        let Segments {
            pool, chains, live, ..
        } = &mut **self.segs.as_mut().expect("chained");
        let chain = &mut chains[ci];
        let recs = if t == 0 {
            if self.flags[b] & DIRTY != 0 {
                self.stats.sorted += settle_bucket(&mut self.ring[b]) as u64;
                self.flags[b] &= !DIRTY;
            }
            &mut self.ring[b]
        } else {
            let g = &mut chain.segs[t - 1];
            match g.order {
                Order::Dirty => self.stats.sorted += settle_bucket(&mut g.recs) as u64,
                Order::Rising => g.recs.reverse(),
                Order::Clean => {}
            }
            g.order = Order::Clean;
            &mut g.recs
        };
        let half = recs.len() / 2;
        let mut upper = pool.pop().unwrap_or_default();
        upper.reserve_exact(SEG);
        upper.extend(recs.drain(..half));
        if t == 0 {
            chain.len += half;
        }
        let lo = upper[half - 1].key;
        chain.segs.insert(
            t,
            Seg {
                lo,
                recs: upper,
                order: Order::Clean,
            },
        );
        *live += 1;
    }

    /// Append one event to the bucket of slice `s` during a bulk
    /// redistribution, preserving a clean bucket's descending order
    /// when the arrival order allows (keys are unique, so
    /// `last.key < ev.key` is exactly an order break). The ring is fresh,
    /// so no bucket is chained: a giant slice stays one buffer.
    #[inline]
    fn route_bulk(&mut self, s: u64, ev: CompactRec) {
        let b = (s & (self.ring.len() as u64 - 1)) as usize;
        let bucket = &mut self.ring[b];
        if bucket.last().is_some_and(|l| l.key < ev.key) {
            self.flags[b] |= DIRTY;
        }
        bucket.push(ev);
        self.stats.bucket_hwm = self.stats.bucket_hwm.max(bucket.len() as u64);
        self.ring_len += 1;
    }

    /// Position `cur_slice` at the bucket holding the minimum key and
    /// settle it if it is dirty. Returns the bucket index, or `None` when
    /// the queue is empty.
    fn settle(&mut self) -> Option<usize> {
        if self.is_empty() {
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
                // A pending spawn run occupies the head slice, where the
                // scan starts.
                if !self.ring[b].is_empty() || self.spawn_lo != self.spawn_hi {
                    break b;
                }
                // The window has drained past this slice; strip its
                // buffer for the cold buckets ahead. Each slice is
                // passed exactly once per geometry, so this is O(1)
                // amortized per pop.
                let cap = self.ring[b].capacity();
                let spare = self.segs.as_ref().map_or(0, |g| g.spare.len());
                if cap == SEG || (cap > 0 && cap < SEG && spare < SPARE_BUFFERS) {
                    let buf = std::mem::take(&mut self.ring[b]);
                    self.recycle(buf);
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
            if self.flags[b] & DIRTY != 0 {
                // A second settle of the same head slice means deep
                // inserts keep landing in the bucket being popped: the
                // slices are too wide for the cluster at the front.
                if self.head_sorted {
                    if let Some((shift, min_ns)) = self.cluster_shift(b) {
                        self.split(shift, min_ns);
                        continue;
                    }
                }
                self.stats.sorted += settle_bucket(&mut self.ring[b]) as u64;
                self.flags[b] &= !DIRTY;
                self.head_sorted = true;
            }
            return Some(b);
        }
    }

    /// Give a drained buffer back: a full-size one to the pool within the
    /// pool rule (else it is freed), a smaller one to the spare list
    /// while that has room.
    fn recycle(&mut self, buf: Vec<CompactRec>) {
        debug_assert!(buf.is_empty());
        let segs = self.segs.get_or_insert_with(Box::default);
        if buf.capacity() == SEG {
            if segs.pool.len() <= segs.live {
                segs.pool.push(buf);
            }
        } else if buf.capacity() < SEG && segs.spare.len() < SPARE_BUFFERS {
            segs.spare.push(buf);
        }
    }

    /// The head bucket `b`'s pop end has just emptied and `b` is chained:
    /// its next segment becomes the pop end, in pop order unless it is
    /// dirty (settling it is not the deep-insert signal `settle` splits
    /// on, so the head slice starts afresh), or, with no segment left,
    /// the bucket leaves the chains. The drained buffer is recycled.
    #[cold]
    #[inline(never)]
    fn promote(&mut self, b: usize) {
        let segs = self.segs.as_mut().expect("chained");
        let ci = segs
            .chains
            .binary_search_by_key(&b, |c| c.bucket)
            .expect("chained bucket has a chain");
        segs.live -= 1;
        // The pool rule, as the live count drops.
        segs.pool.truncate(segs.live);
        let next = match segs.chains[ci].segs.pop_front() {
            Some(mut g) => {
                segs.chains[ci].len -= g.recs.len();
                self.flags[b] = CHAINED;
                match g.order {
                    Order::Clean => {}
                    Order::Rising => g.recs.reverse(),
                    Order::Dirty => self.flags[b] |= DIRTY,
                }
                self.head_sorted = false;
                g.recs
            }
            None => {
                let chain = segs.chains.remove(ci);
                segs.lists.push(chain.segs);
                self.flags[b] = 0;
                Vec::new()
            }
        };
        // Recycled now, not when the settle scan passes the bucket: the
        // waves this one's pops fill are taking segments meanwhile.
        let drained = std::mem::replace(&mut self.ring[b], next);
        self.recycle(drained);
    }

    /// The narrower bucket width the (dirty) head bucket's cluster
    /// calls for, with the cluster's earliest time — or `None` when
    /// narrowing cannot help (small bucket, identical-time flood, 1 ns
    /// slices). A chained bucket is judged on all its segments.
    fn cluster_shift(&self, b: usize) -> Option<(u32, u64)> {
        let chain = self.segs.as_ref().and_then(|g| g.chain(b));
        let len = self.ring[b].len() + chain.map_or(0, |c| c.len);
        if len <= SPLIT_OCCUPANCY {
            return None;
        }
        let upper = chain
            .into_iter()
            .flat_map(|c| &c.segs)
            .flat_map(|g| &g.recs);
        let (min_ns, max_ns) = self.ring[b]
            .iter()
            .chain(upper)
            .fold((u64::MAX, 0), |(lo, hi), e| {
                (lo.min(e.ns()), hi.max(e.ns()))
            });
        let target = (len / SPLIT_TARGET_OCCUPANCY) as u64;
        let mut shift = self.shift;
        // A span of zero walks `shift` to 0 and fails the test below:
        // the flood cannot be spread, it simply settles.
        while shift > 0 && ((max_ns - min_ns) >> shift) < target {
            shift -= 1;
        }
        (max_ns > min_ns && shift < self.shift).then_some((shift, min_ns))
    }

    /// Narrow the bucket width to `2^shift` so the cluster at the head
    /// spreads across many slices. Old buckets are drained one at a time
    /// into a fresh ring anchored at the cluster's earliest time
    /// `min_ns`, chained segments after their pop ends; whatever the
    /// narrower window no longer covers goes back to the lane. That tail
    /// is later than every event kept and earlier than every event
    /// already parked, so the overflow gate holds.
    fn split(&mut self, shift: u32, min_ns: u64) {
        // A pending spawn run keeps `shift` at 0, and a split only
        // narrows: `cluster_shift` finds nothing to split it into.
        assert_eq!(
            self.spawn_lo, self.spawn_hi,
            "width split with spawns pending"
        );
        self.stats.rebuilds += 1;
        let nb = ring_size(self.len());
        self.stats.ring_hwm = self.stats.ring_hwm.max(nb as u64);
        let mut old = std::mem::replace(&mut self.ring, (0..nb).map(|_| Vec::new()).collect());
        self.flags = vec![0; nb].into();
        let mask = old.len() - 1;
        let start = self.cur_slice as usize & mask;
        self.shift = shift;
        self.cur_slice = min_ns >> shift;
        self.head_sorted = false;
        let chains = match self.segs.as_mut() {
            Some(segs) => {
                segs.live = 0;
                segs.pool.clear();
                std::mem::take(&mut segs.chains)
            }
            None => Vec::new(),
        };
        let chained: usize = chains.iter().map(|c| c.len).sum();
        let mut left = std::mem::take(&mut self.ring_len) - chained;
        for i in 0..old.len() {
            if left == 0 {
                break;
            }
            let bucket = &mut old[(start + i) & mask];
            left -= bucket.len();
            for ev in bucket.drain(..) {
                self.rehome(ev);
            }
        }
        for g in chains.into_iter().flat_map(|c| c.segs) {
            for ev in g.recs {
                self.rehome(ev);
            }
        }
    }

    /// Route one event of a width split: into the new ring if its window
    /// covers it, else back to the lane.
    #[inline]
    fn rehome(&mut self, ev: CompactRec) {
        let s = ev.ns() >> self.shift;
        if s - self.cur_slice < self.ring.len() as u64 {
            self.route_bulk(s, ev);
        } else {
            self.overflow_min_ns = self.overflow_min_ns.min(ev.ns());
            self.overflow.push(ev);
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
        debug_assert!(n > 0 && self.ring_len == 0);
        debug_assert!(self.segs.as_ref().is_none_or(|g| g.chains.is_empty()));
        let nb = ring_size(n);
        self.resize_empty_ring(nb);
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
            // The whole lane is one slice (a same-instant flood): it
            // becomes the bucket as it stands, no second copy.
            let b = (self.cur_slice & (nb as u64 - 1)) as usize;
            std::mem::swap(&mut self.ring[b], &mut self.overflow);
            self.flags[b] = DIRTY;
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

    /// Give the empty ring `nb` buckets. Drained buckets keep their
    /// buffers; the flags of an empty ring are all 0.
    fn resize_empty_ring(&mut self, nb: usize) {
        if self.ring.len() != nb {
            self.ring.resize_with(nb, Vec::new);
            self.flags = vec![0; nb].into();
            self.stats.ring_hwm = self.stats.ring_hwm.max(nb as u64);
        }
    }

    /// Queue the spawn wave of `ranks` at `at` into an empty queue: one
    /// `Spawn` event per rank, keyed `(at, r, r, 0)`, held as a virtual
    /// run instead of records. The ring takes the geometry `migrate`
    /// gives a one-slice lane of as many records — `ring_size(n)`
    /// buckets of 1 ns, the window anchored at `at` — so every later
    /// push lands in the bucket it would land in if the wave were
    /// records. `pop` and `next_key` merge the run with the real
    /// records of its slice in key order.
    ///
    /// # Panics
    ///
    /// If the queue is not empty, or a rank does not fit a [`Rank`].
    ///
    /// [`Rank`]: crate::Rank
    pub fn push_spawns(&mut self, at: SimTime, ranks: Range<usize>) {
        assert!(self.is_empty(), "a spawn run goes into an empty queue");
        let n = ranks.len();
        if n == 0 {
            return;
        }
        let rank = |r: usize| u32::try_from(r).expect("spawned rank fits a u32");
        (self.spawn_lo, self.spawn_hi) = (rank(ranks.start), rank(ranks.end));
        self.resize_empty_ring(ring_size(n));
        self.shift = 0;
        self.cur_slice = at.as_nanos();
        self.head_sorted = false;
        self.ring_len = n;
        // Every spawn is pushed and none allocates.
        self.stats.pushes += n as u64;
        self.stats.reused += n as u64;
        self.stats.bucket_hwm = self.stats.bucket_hwm.max(n as u64);
    }

    /// Key of the pending run's next spawn.
    #[inline]
    fn spawn_key(&self) -> EventKey {
        let r = Rank(self.spawn_lo);
        EventKey {
            time: SimTime(self.cur_slice),
            dst: r,
            src: r,
            seq: 0,
        }
    }

    /// A spawn is pending: take the next one unless the head bucket `b`,
    /// the spawn slice's real records, holds a smaller key.
    #[inline]
    fn pop_spawn_before(&mut self, b: usize) -> Option<EventRec> {
        let key = self.spawn_key();
        if self.ring[b].last().is_some_and(|e| e.key < key) {
            return None;
        }
        self.spawn_lo += 1;
        self.ring_len -= 1;
        Some(EventRec {
            key,
            action: Action::Spawn,
        })
    }

    /// Remove and return the earliest event (smallest key). Always
    /// inlined: out of line, the engines' drain loop ran ≈ 10 % slower.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<EventRec> {
        let b = self.settle()?;
        if self.spawn_lo != self.spawn_hi {
            if let Some(spawn) = self.pop_spawn_before(b) {
                return Some(spawn);
            }
        }
        let bucket = &mut self.ring[b];
        let rec = bucket.pop()?;
        if bucket.is_empty() && self.flags[b] & CHAINED != 0 {
            self.promote(b);
        } else if bucket.capacity() > SEG && bucket.len() <= bucket.capacity() / 2 {
            // The drain rule — see `SEG`.
            bucket.shrink_to(SEG.max(bucket.len() + bucket.len() / 2));
        }
        self.ring_len -= 1;
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
    pub(crate) fn pop_before(&mut self, bound: SimTime) -> Option<EventRec> {
        if self.next_time()? < bound {
            self.pop()
        } else {
            None
        }
    }

    /// Time of the earliest pending event, if any.
    #[inline]
    pub(crate) fn next_time(&mut self) -> Option<SimTime> {
        self.next_key().map(|k| k.time)
    }

    /// Key of the earliest pending event, if any.
    #[inline]
    pub fn next_key(&mut self) -> Option<EventKey> {
        let b = self.settle()?;
        let real = self.ring[b].last().map(|e| e.key);
        if self.spawn_lo == self.spawn_hi {
            return real;
        }
        let spawn = self.spawn_key();
        Some(real.map_or(spawn, |k| k.min(spawn)))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring_len == 0 && self.overflow.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

        /// The spawn run of `ranks` at `at`, as records on the oracle's
        /// side.
        fn spawns(&mut self, at: u64, ranks: Range<u32>) {
            for r in ranks.clone() {
                self.oracle.push(Reverse(key(at, r, r, 0)));
            }
            self.q
                .push_spawns(SimTime(at), ranks.start as usize..ranks.end as usize);
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

    /// Push `order` — same-instant keys `tie(j)`, one per index — into
    /// a new queue: the first pop hands the lane to one bucket exactly as
    /// pushed. Drain it against the oracle and return the records the
    /// settle put through the comparison sort.
    fn settle_as_pushed(order: &[u64]) -> u64 {
        let mut c = Checked::default();
        for &j in order {
            c.push(key(500, j as u32, 0, j));
        }
        c.drain();
        assert_eq!(c.q.stats().rebuilds, 0, "the bucket was re-bucketed");
        c.q.stats().sorted
    }

    /// The `n` keys `0..n` as an ascending backbone with `k` strays taken
    /// from inside its range, half in front and half behind it, each
    /// half ascending. For `k ≥ 4` every boundary breaks a run (the
    /// front's last stray is above the backbone's first key, 0; the
    /// first stray behind is below its last, `n − 1`), so there are
    /// exactly three runs and exactly `k` strays.
    fn backbone_with_strays(n: u64, k: u64) -> Vec<u64> {
        let strays: Vec<u64> = (0..k).map(|i| 1 + i * (n - 2) / k).collect();
        let backbone = (0..n).filter(|j| !strays.contains(j));
        let (front, back) = strays.split_at(k as usize / 2);
        let order: Vec<u64> = front
            .iter()
            .copied()
            .chain(backbone)
            .chain(back.iter().copied())
            .collect();
        assert_eq!(order.len() as u64, n);
        order
    }

    /// The maximal monotone runs of `order` and the records outside the
    /// longest one, counted without the queue's scan.
    fn runs_and_strays(order: &[u64]) -> (usize, usize) {
        let (mut runs, mut longest, mut i) = (0, 0, 0);
        while i < order.len() {
            let start = i;
            let ascending = order.get(i + 1).is_some_and(|&x| order[i] < x);
            i += 1;
            while i < order.len() && (order[i - 1] < order[i]) == ascending {
                i += 1;
            }
            runs += 1;
            longest = longest.max(i - start);
        }
        (runs, order.len() - longest)
    }

    /// The `rawcore_1m` wave through the real push path: an ascending
    /// same-time flood into a bucket off the window head keeps a
    /// `DEFER_MOVE_CAP + 1`-record in-order prefix and appends the rest;
    /// the ring's wrap record to rank 0 arrives last. It settles with
    /// `DEFER_MOVE_CAP + 2` strays sorted, in its own capacity.
    #[test]
    fn lock_step_wave_settles_as_a_run_merge() {
        const N: u64 = 1 << 12;
        let mut c = Checked::default();
        c.push(key(0, 0, 0, 0));
        c.pop();
        for r in 1..N {
            c.push(key(100, r as u32, r as u32 - 1, 1));
        }
        c.push(key(100, 0, N as u32 - 1, 1));
        let b = 100 & (c.q.ring.len() - 1);
        assert!(
            c.q.flags[b] & DIRTY != 0,
            "the wave must have overflowed the memmove bound"
        );
        let dsts: Vec<u64> = c.q.ring[b].iter().map(|r| r.key.dst.0.into()).collect();
        assert_eq!(runs_and_strays(&dsts), (3, DEFER_MOVE_CAP + 2));
        let (cap, sorted) = (c.q.ring[b].capacity(), c.q.stats().sorted);
        c.q.next_key();
        assert_eq!(c.q.ring[b].capacity(), cap, "settling changed the capacity");
        assert_eq!(c.q.stats().sorted - sorted, DEFER_MOVE_CAP as u64 + 2);
        c.drain();
    }

    /// A same-instant wave pushed descending is already in pop order:
    /// the scan, no sort; pushed ascending it costs one reverse.
    #[test]
    fn single_run_waves_are_never_sorted() {
        let n = 4 * STRAY_CAP as u64;
        let descending: Vec<u64> = (0..n).rev().collect();
        assert_eq!(settle_as_pushed(&descending), 0);
        let ascending: Vec<u64> = (0..n).collect();
        assert_eq!(settle_as_pushed(&ascending), 0);
    }

    /// Both backbone directions take exactly `STRAY_CAP` strays through
    /// the merge; one more sorts the whole bucket.
    #[test]
    fn strays_up_to_the_cap_are_merged() {
        let n = 8 * STRAY_CAP as u64;
        for k in [4, STRAY_CAP as u64, STRAY_CAP as u64 + 1] {
            let ascending = backbone_with_strays(n, k);
            assert_eq!(runs_and_strays(&ascending), (3, k as usize));
            // The mirror image: a descending backbone, descending strays.
            let descending: Vec<u64> = ascending.iter().rev().map(|j| n - 1 - j).collect();
            assert_eq!(runs_and_strays(&descending), (3, k as usize));
            let want = if k <= STRAY_CAP as u64 { k } else { n };
            assert_eq!(settle_as_pushed(&ascending), want, "ascending, {k} strays");
            assert_eq!(
                settle_as_pushed(&descending),
                want,
                "descending, {k} strays"
            );
        }
    }

    /// `runs − 1` stray pairs, each ascending and each above the next,
    /// in front of an ascending backbone: `MAX_RUNS` runs merge, one
    /// more sorts the whole bucket.
    #[test]
    fn runs_up_to_the_limit_are_merged() {
        let n = 8 * STRAY_CAP as u64;
        for runs in [MAX_RUNS, MAX_RUNS + 1] {
            let pairs = runs as u64 - 1;
            let strays: Vec<u64> = (0..2 * pairs).map(|i| 1 + 5 * i).collect();
            let mut order: Vec<u64> = strays.rchunks(2).flatten().copied().collect();
            order.extend((0..n).filter(|j| !strays.contains(j)));
            assert_eq!(runs_and_strays(&order).0, runs);
            let want = if runs <= MAX_RUNS { 2 * pairs } else { n };
            assert_eq!(settle_as_pushed(&order), want, "{runs} runs");
        }
    }

    /// One stray behind an ascending backbone: a bucket just below
    /// `MERGE_MIN_LEN` is sorted whole, one at or above it merges.
    #[test]
    fn small_buckets_are_sorted() {
        let threshold = MERGE_MIN_LEN as u64;
        for n in [threshold - 1, threshold, threshold + 1] {
            let order = backbone_with_strays(n, 1);
            let want = if n < threshold { n } else { 1 };
            assert_eq!(settle_as_pushed(&order), want, "{n} records");
        }
    }

    /// Wave sizes one below, at and one above a segment, and across
    /// several.
    const WAVES: [u64; 4] = [
        SEG as u64 - 1,
        SEG as u64,
        SEG as u64 + 1,
        3 * SEG as u64 + 5,
    ];

    /// A checked queue with a 256-slice ring of 1-ns buckets anchored at
    /// t = 0, so that pushes at t < 256 land in the ring.
    fn primed() -> Checked {
        let mut c = Checked::default();
        c.push(key(0, 0, 0, 0));
        c.pop();
        c
    }

    /// Segments bucket `b` holds above its pop end.
    fn segments(q: &EventQueue, b: usize) -> usize {
        q.segs
            .as_ref()
            .and_then(|g| g.chain(b))
            .map_or(0, |c| c.segs.len())
    }

    /// Waves around and across the segment size, pushed ascending,
    /// descending (every push a new minimum: the pop end splits) and
    /// as an ascending backbone with strays, off the window head and at
    /// it; half drained, refilled above and below, drained.
    #[test]
    fn chained_waves_match_the_oracle() {
        for n in WAVES {
            let ascending: Vec<u64> = (0..n).collect();
            let descending: Vec<u64> = (0..n).rev().collect();
            for (order, name) in [
                (ascending, "ascending"),
                (descending, "descending"),
                (backbone_with_strays(n, 24), "strayed"),
            ] {
                for t in [0, 100] {
                    let mut c = primed();
                    for &j in &order {
                        c.push(key(t, j as u32, 1, j));
                    }
                    let b = t as usize & (c.q.ring.len() - 1);
                    assert!(
                        c.q.flags[b] & CHAINED != 0,
                        "{n} {name} at {t}: not chained"
                    );
                    assert_eq!(c.q.stats().bucket_hwm, n, "{n} {name} at {t}");
                    for _ in 0..n / 2 {
                        c.pop();
                    }
                    for j in 0..n / 4 {
                        c.push(key(t, (n + j) as u32, 1, j));
                        c.push(key(t, (2 * j) as u32, 2, j));
                    }
                    c.drain();
                }
            }
        }
    }

    /// Inserts between the keys of a middle segment: they dirty that
    /// segment alone, and once it is full it splits in two.
    #[test]
    fn deep_inserts_into_a_middle_segment_match_the_oracle() {
        let n = 3 * SEG as u64 + 5;
        let mut c = primed();
        for j in 0..n {
            c.push(key(100, 2 * j as u32 + 1, 0, j));
        }
        let b = 100;
        assert_eq!(segments(&c.q, b), 3);
        let middle = |q: &EventQueue| {
            let chain = q.segs.as_ref().and_then(|g| g.chain(b)).unwrap();
            (chain.segs[0].recs.len(), chain.segs[0].order)
        };
        assert!(middle(&c.q) == (SEG, Order::Rising));
        // Even `dst`s inside the first segment above the pop end.
        let first = SEG_FILL as u64 + 5;
        for j in first..first + 40 {
            c.push(key(100, 2 * j as u32, 0, n + j));
        }
        assert_eq!(segments(&c.q, b), 4, "a full middle segment did not split");
        for j in first + 1000..first + 1040 {
            c.push(key(100, 2 * j as u32, 0, n + j));
        }
        assert!(c.q.segs.as_ref().unwrap().chain(b).unwrap().segs[1].order == Order::Dirty);
        c.drain();
    }

    /// A pop end filled to its headroom's end holds `SEG` records; a new
    /// minimum then splits it, and the wave still pops in key order.
    #[test]
    fn a_new_minimum_splits_a_full_pop_end() {
        let mut c = primed();
        let fill = SEG_FILL as u64;
        for j in 0..fill {
            c.push(key(100, 2 * j as u32 + 2, 0, j));
        }
        c.push(key(100, 2 * fill as u32 + 2, 0, fill));
        assert_eq!(segments(&c.q, 100), 1);
        // Odd `dst`s inside the pop end's range fill its headroom.
        for j in 0..(SEG - SEG_FILL) as u64 {
            c.push(key(100, 2 * j as u32 + 3, 0, j));
        }
        assert_eq!(c.q.ring[100].len(), SEG);
        c.push(key(100, 0, 0, 0));
        assert_eq!(segments(&c.q, 100), 2, "the full pop end did not split");
        assert_eq!(c.q.ring[100].len(), SEG / 2 + 1);
        c.drain();
    }

    /// A width split of a chained head bucket re-buckets every segment;
    /// a lane migration moves a giant slice in whole, and that bucket
    /// then grows as one buffer, never chained.
    #[test]
    fn split_and_migrate_of_chained_buckets_match_the_oracle() {
        let mut c = Checked::default();
        let mut seq = 0..;
        let mut push = |c: &mut Checked, t: u64| {
            let seq: u64 = seq.next().unwrap();
            c.push(key(t, (seq % 7) as u32, (seq % 5) as u32, seq));
        };
        // Millisecond slices, then a 3·SEG-event cluster inside one.
        for i in 0..300u64 {
            push(&mut c, i * 1_000_000);
        }
        c.pop();
        for i in 0..3 * SEG as u64 {
            push(&mut c, 1_000_000 + (i * 37) % 4_096);
        }
        let b = (1_000_000u64 >> c.q.shift) as usize & (c.q.ring.len() - 1);
        assert!(segments(&c.q, b) > 0, "the cluster did not chain");
        let rebuilds = c.q.stats().rebuilds;
        let mut state = 0x5eed_u64;
        for _ in 0..2_000 {
            let t = c.pop().unwrap().time.as_nanos() + 1 + xorshift(&mut state) % 64;
            push(&mut c, t);
        }
        assert!(
            c.q.stats().rebuilds > rebuilds,
            "the chained head never split"
        );
        c.drain();

        // A lane of two slices, one of them 3·SEG + 5 events.
        let mut c = Checked::default();
        let n = 3 * SEG as u64 + 5;
        for j in 0..n {
            c.push(key(5_000, j as u32, 0, j));
        }
        c.push(key(900_000, 0, 0, 0));
        c.pop();
        let b = (5_000u64 >> c.q.shift) as usize & (c.q.ring.len() - 1);
        assert!(
            c.q.ring[b].capacity() > SEG,
            "the giant slice was not moved whole"
        );
        for j in 0..SEG as u64 {
            c.push(key(5_000, (n + j) as u32, 0, j));
        }
        assert_eq!(segments(&c.q, b), 0, "a whole-moved bucket chained");
        c.drain();
    }

    /// A hold model inside one same-time bucket: every pop takes the
    /// minimum and every push lands above the maximum, so segments empty
    /// at the pop end while the high end opens new ones. The queue keeps
    /// its live segments and the pool's idle ones to the population.
    #[test]
    fn segments_drain_at_the_pop_end_while_the_high_end_refills() {
        let mut c = primed();
        let n = 3 * SEG as u64 + 5;
        for j in 0..n {
            c.push(key(100, j as u32, 0, j));
        }
        for j in n..n + 5 * SEG as u64 {
            c.pop();
            c.push(key(100, j as u32, 0, j));
            let g = c.q.segs.as_ref().unwrap();
            assert!(g.live <= n as usize / SEG + 2, "{} live segments", g.live);
            assert!(g.pool.len() <= g.live + 1, "{} idle segments", g.pool.len());
        }
        c.drain();
        let g = c.q.segs.as_ref().unwrap();
        assert!(g.chains.is_empty() && g.live == 0 && g.pool.len() <= 1);
    }

    /// A spawn run takes the geometry a one-slice lane of as many records
    /// gets, allocates no record, and merges with the real records of
    /// its slice in key order: an event `(at, 3, 3, 1)` pops after spawn
    /// 3 and before spawn 4, a foreign-source event for rank 2 after
    /// spawn 2 and before spawn 3, and an event before `at` first.
    #[test]
    fn a_spawn_run_merges_with_its_slice_in_key_order() {
        const AT: u64 = 1_000;
        let mut c = Checked::default();
        c.spawns(AT, 0..2_000);
        assert_eq!(c.q.ring.len(), ring_size(2_000));
        assert_eq!((c.q.shift, c.q.cur_slice), (0, AT));
        assert!(
            c.q.ring.iter().all(|b| b.capacity() == 0),
            "a record buffer"
        );
        assert_eq!((c.q.len(), c.q.is_empty()), (2_000, false));
        assert_eq!(c.q.stats().bucket_hwm, 2_000);
        c.push(key(AT, 3, 3, 1));
        c.push(key(AT, 2, 7, 1));
        c.push(key(AT - 5, 9, 9, 1));
        c.push(key(AT + 1, 0, 0, 1));
        assert_eq!(c.q.len(), 2_004);
        assert_eq!(c.pop(), Some(key(AT - 5, 9, 9, 1)), "the clamped push");
        let order: Vec<EventKey> = (0..7).filter_map(|_| c.pop()).collect();
        assert_eq!(
            order,
            [
                key(AT, 0, 0, 0),
                key(AT, 1, 1, 0),
                key(AT, 2, 2, 0),
                key(AT, 2, 7, 1),
                key(AT, 3, 3, 0),
                key(AT, 3, 3, 1),
                key(AT, 4, 4, 0),
            ]
        );
        c.drain();
        assert_eq!(c.q.stats().rebuilds, 0);
    }

    /// `pop_before` sees the run: its bound is exclusive at the spawn
    /// time, and the run's last spawn leaves the queue empty.
    #[test]
    fn pop_before_counts_the_spawn_run() {
        let mut q = EventQueue::new();
        q.push_spawns(SimTime(50), 7..9);
        assert!(q.pop_before(SimTime(50)).is_none());
        assert_eq!(q.pop_before(SimTime(51)).unwrap().key, key(50, 7, 7, 0));
        assert_eq!(q.next_key(), Some(key(50, 8, 8, 0)));
        assert!(matches!(q.pop().unwrap().action, Action::Spawn));
        assert!(q.is_empty() && q.pop().is_none() && q.next_key().is_none());
    }

    /// Pushes while the run is pending land where they would land behind
    /// a record wave: deep inserts into the spawn slice keep it dirty, but
    /// its 1-ns slices cannot narrow, so no width split runs; a push past
    /// the window parks in the lane.
    #[test]
    fn a_pending_spawn_run_keeps_its_geometry() {
        let mut c = Checked::default();
        c.spawns(0, 0..4_096);
        let nb = c.q.ring.len() as u64;
        c.push(key(nb + 3, 1, 1, 1));
        assert_eq!(c.q.overflow.len(), 1, "a push past the window");
        for round in 0..8u32 {
            // Ascending: every push lands deep, past the memmove bound.
            for j in 0..4 * INSERT_MOVE_CAP as u32 {
                c.push(key(0, 4_000 + j, round, 1 + u64::from(round)));
            }
            c.pop();
            assert_eq!(c.q.shift, 0, "round {round}");
        }
        assert!(c.q.stats().sorted > 0, "the spawn slice never went dirty");
        c.drain();
        assert_eq!(c.q.stats().rebuilds, 0, "a redistribution");
    }

    #[test]
    #[should_panic(expected = "a spawn run goes into an empty queue")]
    fn a_spawn_run_needs_an_empty_queue() {
        let mut q = EventQueue::new();
        q.push(ev(1, 0, 0, 1));
        q.push_spawns(SimTime(0), 0..4);
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

    /// An in-flight `Call` costs the slab one fat box pointer.
    #[test]
    fn call_slab_slot_is_a_box_pointer() {
        assert!(std::mem::size_of::<Option<Box<dyn Call>>>() <= 16);
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
