//! Footprint gate: what the simulated-MPI state of a rank — and a
//! simulated message — costs on the host, counted by a first-party
//! `#[global_allocator]` (sequential engine, fixed rank count, so every
//! number repeats exactly).
//!
//! * a rank's live bytes do not grow with the number of collectives it
//!   has run (matching indexes, request slots and the completion feed
//!   are given back when they drain);
//! * the first collective costs a bounded number of allocations;
//! * a shard's `MpiService` is sized by the ranks it owns, not by the
//!   world;
//! * a modeled heat3d halo exchange allocates no payload block (its
//!   surrogate faces are `Bytes::zeroed` views) and leaves no request
//!   behind (its fire-and-forget sends are freed);
//! * the awaitables a rank parks in, and the rank futures of the bundled
//!   kernels, stay within their byte budgets (a rank future is a
//!   simulated process's stack), and so does a rank's peak live memory
//!   through a tree allreduce (printed by block size with
//!   `--nocapture`);
//! * a tree reduction decodes no child's payload: it folds into the
//!   bytes it forwards;
//! * a failure after the first notifies every rank without allocating
//!   per rank (its notices are pooled events).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::mem::size_of_val;
use std::sync::{Arc, Mutex};
use xsim_apps::{heat3d, heat3d_rep, kernels};
use xsim_core::vp::VpProgram;
use xsim_core::{ctx, Bytes, Rank, SimTime};
use xsim_mpi::collective::{self, ReduceOp};
use xsim_mpi::p2p;
use xsim_mpi::state::{MpiService, MpiStats, MpiWorld};
use xsim_mpi::{
    CollAlgo, Comm, CommId, Detector, ErrHandler, HeartbeatConfig, MpiCtx, MpiError,
    ProtectionScheme, ReqId, SimBuilder,
};
use xsim_net::NetModel;
use xsim_proc::ProcModel;

struct Counting;

// Per thread (as `xsim-core/tests/queue_footprint.rs`): every test runs
// its simulation on its own harness thread with the sequential engine,
// so no lock is needed and the harness's own allocations stay out of the
// counts. Const-initialised and without destructors: touching them from
// inside the allocator can neither allocate nor hit a torn-down slot.
thread_local! {
    /// Allocation calls so far (a `realloc` counts as one).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed (wrapping: frees of memory
    /// that predates a sample simply cancel in the difference).
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// Allocation calls asking for exactly [`FACE`] bytes: the payload
    /// block a heap-built surrogate halo face would cost.
    static FACE_BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Allocation calls asking for exactly [`WIRE`] bytes: one reduce
    /// payload, encoded or decoded.
    static WIRE_BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// High-water mark of [`LIVE`] since the last [`reset_peak`].
    static PEAK: Cell<u64> = const { Cell::new(0) };
    /// The live heap by block size, and its copy at the high-water mark.
    static HIST: RefCell<PeakHist> = const { RefCell::new(PeakHist::ZERO) };
}

/// Size classes of the live-heap histogram: class `c` holds the blocks
/// of `[8c, 8c + 8)` bytes, the last one every block of 4 KiB or more.
const CLASS_STEP: usize = 8;
const CLASSES: usize = 4096 / CLASS_STEP + 1;

/// Live blocks and bytes per size class (signed, as [`LIVE`]).
#[derive(Clone, Copy)]
struct Hist {
    blocks: [i64; CLASSES],
    bytes: [i64; CLASSES],
}

/// The histogram now, at the last [`reset_peak`], and at the high-water
/// mark since.
struct PeakHist {
    now: Hist,
    base: Hist,
    at_peak: Hist,
}

impl Hist {
    const ZERO: Hist = Hist {
        blocks: [0; CLASSES],
        bytes: [0; CLASSES],
    };

    fn add(&mut self, size: usize, sign: i64) {
        let c = (size / CLASS_STEP).min(CLASSES - 1);
        self.blocks[c] += sign;
        self.bytes[c] += sign * size as i64;
    }
}

impl PeakHist {
    const ZERO: PeakHist = PeakHist {
        now: Hist::ZERO,
        base: Hist::ZERO,
        at_peak: Hist::ZERO,
    };
}

fn resized(from: usize, to: usize) {
    ALLOCS.set(ALLOCS.get() + (to > 0) as u64);
    FACE_BLOCKS.set(FACE_BLOCKS.get() + (to == FACE) as u64);
    WIRE_BLOCKS.set(WIRE_BLOCKS.get() + (to == WIRE) as u64);
    let live = LIVE.get().wrapping_add(to as u64).wrapping_sub(from as u64);
    LIVE.set(live);
    HIST.with_borrow_mut(|h| {
        if from > 0 {
            h.now.add(from, -1);
        }
        if to > 0 {
            h.now.add(to, 1);
        }
        // Signed: a thread may free memory another thread allocated.
        if live as i64 > PEAK.get() as i64 {
            PEAK.set(live);
            h.at_peak = h.now;
        }
    });
}

/// Restart the high-water mark (and the histogram's baseline) at the
/// current live heap, and return its bytes.
fn reset_peak() -> u64 {
    let live = LIVE.get();
    PEAK.set(live);
    HIST.with_borrow_mut(|h| {
        h.base = h.now;
        h.at_peak = h.now;
    });
    live
}

/// Print what was live at the high-water mark since [`reset_peak`], by
/// block size, largest share first: `size × blocks = bytes (per rank)`.
fn print_peak_histogram(ranks: usize) {
    let (base, peak) = HIST.with_borrow(|h| (h.base, h.at_peak));
    let mut rows: Vec<(usize, i64, i64)> = (0..CLASSES)
        .map(|c| {
            let blocks = peak.blocks[c] - base.blocks[c];
            (c, blocks, peak.bytes[c] - base.bytes[c])
        })
        .filter(|&(_, _, bytes)| bytes > 0)
        .collect();
    rows.sort_by_key(|&(_, _, bytes)| std::cmp::Reverse(bytes));
    eprintln!("live heap at the peak, by block size:");
    for (c, blocks, bytes) in rows.into_iter().take(12) {
        let size = match c * CLASS_STEP {
            4096 => "≥ 4096".to_string(),
            lo => lo.to_string(),
        };
        let per_rank = bytes as f64 / ranks as f64;
        eprintln!("  {size:>6} B × {blocks:>6} = {bytes:>9} B  {per_rank:>6.1} B/rank");
    }
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

const RANKS: usize = 4096;

/// `(allocations per rank over the whole run, live bytes per rank once
/// every rank has finished its barriers and is parked in a sleep)` of
/// `sleep` + `barriers` × tree barrier on the sequential engine.
fn run_barriers(barriers: u32) -> (f64, f64) {
    // Written by rank 0, read back here: the run executes on this thread.
    thread_local!(static SAMPLE: Cell<u64> = const { Cell::new(0) });
    let live0 = LIVE.get();
    let allocs0 = ALLOCS.get();
    SimBuilder::new(RANKS)
        .net(NetModel::small(RANKS))
        .run_app(move |mpi| async move {
            mpi.sleep(SimTime::from_millis(1)).await;
            for _ in 0..barriers {
                mpi.barrier(mpi.world()).await?;
            }
            // Rank 0 samples at 1 s of virtual time, long after the
            // last barrier message; every other rank is still asleep,
            // so all per-rank state is alive and quiescent.
            if mpi.rank == 0 {
                mpi.sleep(SimTime::from_secs(1)).await;
                SAMPLE.set(LIVE.get());
            }
            mpi.sleep(SimTime::from_secs(2)).await;
            mpi.finalize();
            Ok(())
        })
        .expect("barrier run");
    let allocs = ALLOCS.get() - allocs0;
    let live = SAMPLE.get().wrapping_sub(live0);
    (allocs as f64 / RANKS as f64, live as f64 / RANKS as f64)
}

#[test]
fn repeated_collectives_do_not_grow_a_rank() {
    let (_, idle) = run_barriers(0);
    let (_, after1) = run_barriers(1);
    let (_, after8) = run_barriers(8);
    eprintln!("live bytes/rank: no-op {idle:.0}, 1 barrier {after1:.0}, 8 barriers {after8:.0}");
    assert!(
        after8 - after1 <= 64.0,
        "a rank grew {:.0} B between its 1st and 8th barrier",
        after8 - after1
    );
}

#[test]
fn first_barrier_costs_a_bounded_number_of_allocations() {
    let (allocs, _) = run_barriers(1);
    eprintln!("allocations/rank, sleep + 1 barrier: {allocs:.2}");
    // 3.54 while a rank's first request and first matching entry each
    // took a heap slot; they are inline in its record now.
    assert!(allocs <= 2.0, "{allocs:.2} allocations per rank");
    // Steady state allocates nothing: a message is its own pooled
    // event, so barriers 2..8 cost not one allocation more.
    let (allocs8, _) = run_barriers(8);
    eprintln!("allocations/rank, sleep + 8 barriers: {allocs8:.3}");
    assert_eq!(allocs8, allocs, "barriers after the first allocated");
}

#[test]
fn shard_service_is_sized_by_owned_ranks() {
    let n = 1 << 20;
    let world = Arc::new(MpiWorld {
        n_ranks: n,
        members: Arc::new((0..n).map(Rank::new).collect()),
        net: NetModel::small(n),
        proc: ProcModel::default(),
        notify_delay: SimTime::from_micros(1),
        default_errhandler: ErrHandler::Fatal,
        detector: Detector::Timeout,
        coll_algo: CollAlgo::Tree,
        lossy: None,
        verbose: false,
    });
    let sink = Arc::new(Mutex::new(MpiStats::default()));
    let live0 = LIVE.get();
    let svc = MpiService::new(world, 0..4, sink);
    let bytes = LIVE.get().wrapping_sub(live0);
    assert_eq!(svc.owned(), 0..4);
    assert!(
        bytes < 64 * 1024,
        "a 4-rank shard of a 2^20-rank world allocated {bytes} B"
    );
}

/// 312 B while the world view, the statistics and the fault-path state
/// were inline; now the world view is assembled from `MpiWorld`, the
/// statistics count per shard and the fault-path state is boxed on first
/// use. 120 B before the request table and the matching queues each
/// held their first entry inline (40 → 64 B and 48 → 64 B).
#[test]
fn rank_state_fits_its_inline_budget() {
    let size = std::mem::size_of::<xsim_mpi::state::RankMpi>();
    eprintln!("RankMpi: {size} B");
    assert!(size <= 160, "RankMpi is {size} B");
}

#[test]
fn zeroed_payloads_allocate_nothing_up_to_64_kib() {
    for len in [0, 1, 30, 31, 2048, 64 * 1024] {
        let before = ALLOCS.get();
        let z = Bytes::zeroed(len);
        assert_eq!(ALLOCS.get() - before, 0, "{len} B");
        assert_eq!(z.len(), len);
    }
    let before = ALLOCS.get();
    let big = Bytes::zeroed(64 * 1024 + 1);
    assert!(ALLOCS.get() - before >= 1, "above the static buffer: heap");
    assert!(big.iter().all(|&b| b == 0));
}

// ----------------------------------------------------------------------
// Modeled heat3d halos: the shape of `xsim_apps::heat3d`'s modeled halo
// exchange (post six receives, send six surrogate faces and free them,
// wait on the receives) on a 4³-rank cube of 20³-point subdomains. The
// face size, 3,200 B, is one no container of the run grows to, so every
// allocation of exactly that size is a payload block.
// ----------------------------------------------------------------------

const CUBE: usize = 4;
const FACE: usize = 20 * 20 * 8;
const HALOS: u32 = 8;

/// This rank's live (pending or uncollected) requests.
fn live_requests() -> usize {
    ctx::with_kernel(|k, me| k.service::<MpiService>().rank(me).reqs.len())
}

fn cube_neighbors(rank: usize) -> impl Iterator<Item = (u32, usize)> {
    let c = [rank % CUBE, (rank / CUBE) % CUBE, rank / (CUBE * CUBE)];
    let stride = [1, CUBE, CUBE * CUBE];
    (0..6u32).filter_map(move |dir| {
        let d = dir as usize / 2;
        match dir % 2 {
            0 => (c[d] > 0).then(|| rank - stride[d]),
            _ => (c[d] + 1 < CUBE).then(|| rank + stride[d]),
        }
        .map(|nb| (dir, nb))
    })
}

async fn modeled_halo(mpi: &MpiCtx) -> Result<(), MpiError> {
    let w = mpi.world();
    let mut recvs = Vec::with_capacity(6);
    for (dir, nb) in cube_neighbors(mpi.rank) {
        recvs.push(mpi.irecv(w, Some(nb), Some(dir ^ 1))?);
    }
    for (dir, nb) in cube_neighbors(mpi.rank) {
        let sreq = mpi.isend(w, nb, dir, Bytes::zeroed(FACE)).await?;
        mpi.request_free(sreq)?;
    }
    mpi.waitall(&recvs).await?;
    Ok(())
}

/// `(payload blocks allocated by the run, the most live requests any
/// rank held at finalize)` of [`HALOS`] modeled halos.
fn run_modeled_halos() -> (u64, usize) {
    // Written by the ranks, read back here: the run executes on this
    // thread.
    thread_local!(static MAX_LIVE: Cell<usize> = const { Cell::new(0) });
    let n = CUBE * CUBE * CUBE;
    let blocks0 = FACE_BLOCKS.get();
    MAX_LIVE.set(0);
    SimBuilder::new(n)
        .net(NetModel::small(n))
        .run_app(|mpi| async move {
            for _ in 0..HALOS {
                modeled_halo(&mpi).await?;
            }
            MAX_LIVE.set(MAX_LIVE.get().max(live_requests()));
            mpi.finalize();
            Ok(())
        })
        .expect("modeled halo run");
    (FACE_BLOCKS.get() - blocks0, MAX_LIVE.get())
}

#[test]
fn modeled_halos_allocate_no_payload_blocks() {
    let (blocks, _) = run_modeled_halos();
    assert_eq!(blocks, 0, "{blocks} surrogate faces of {FACE} B allocated");
}

#[test]
fn modeled_halos_leave_no_live_requests() {
    let (_, live) = run_modeled_halos();
    assert_eq!(live, 0, "a rank held {live} requests at finalize");
}

// ----------------------------------------------------------------------
// Rank futures. A simulated rank's stack is its boxed coroutine, so the
// awaitables it parks in are poll-state machines with byte budgets, and
// so are the rank futures of the bundled kernels. Futures are sized
// before their first poll, which posts nothing.
// ----------------------------------------------------------------------

/// Budgets are the sizes measured with rustc 1.95 on x86-64; the
/// `async fn`s these replaced were 48 / 88 / 192 / 248 / 120 / 200 /
/// 96 B. The `MpiCtx` collectives were 256 / 264 / 264 B as three
/// nested async blocks; allreduce and broadcast are now one poll-state
/// machine and its tail, and the barrier is the larger of the linear
/// barrier's async block and the tree barrier's machine. `waitall_raw`
/// and `waitany_raw` were 104 / 72 B (the barrier 184 B) while each
/// carried a second completion-feed buffer and built its sorted
/// request list for any number of requests.
#[test]
fn awaitables_fit_their_poll_state() {
    let (w, world) = (CommId::WORLD, Comm::WORLD);
    let reqs = [ReqId(0); 4];
    let mpi = MpiCtx {
        rank: 0,
        size: 1,
        traced: false,
    };
    let data = [0.0; 4];
    let sizes = [
        ("ctx::sleep", size_of_val(&ctx::sleep(SimTime::ZERO)), 24),
        ("wait_raw", size_of_val(&p2p::wait_raw(ReqId(0))), 16),
        (
            "isend_raw",
            size_of_val(&p2p::isend_raw(w, 1, 0, Bytes::new())),
            56,
        ),
        (
            "send_raw",
            size_of_val(&p2p::send_raw(w, 1, 0, Bytes::new())),
            56,
        ),
        (
            "recv_raw",
            size_of_val(&p2p::recv_raw(w, Some(1), Some(0))),
            32,
        ),
        ("waitall_raw", size_of_val(&p2p::waitall_raw(&reqs)), 80),
        ("waitany_raw", size_of_val(&p2p::waitany_raw(&reqs)), 48),
        (
            "MpiCtx::allreduce_f64",
            size_of_val(&mpi.allreduce_f64(world, &data, ReduceOp::Sum)),
            152,
        ),
        (
            "MpiCtx::bcast",
            size_of_val(&mpi.bcast(world, 0, Bytes::new())),
            152,
        ),
        ("MpiCtx::barrier", size_of_val(&mpi.barrier(world)), 160),
    ];
    for (name, size, budget) in sizes {
        eprintln!("{name}: {size} B (budget {budget})");
        assert!(size <= budget, "{name} is {size} B, budget {budget}");
    }
}

/// `size_of_val` of the future `program` spawns for one rank.
fn rank_future(program: Arc<dyn VpProgram>) -> usize {
    size_of_val(&*program.spawn(Rank::new(0)))
}

/// Budgets as above; over `async fn` awaitables these rank futures were
/// 128 / 512 / 688 / 1,176 B, and `compute_allreduce` 360 B over async
/// collectives. heat3d's largest states were its checkpoint write and
/// restart load (1,176 / 1,800 B with them inline); they are boxed while
/// they run. The replica layer's was 1,560 B while each rank held its
/// own copy of the replica map and the logical send and wait were
/// `async fn`s; its halo now holds its twelve 24-B logical requests
/// inline and still takes less room than its vector of them did.
#[test]
fn kernel_rank_futures_fit_their_budgets() {
    let ms = SimTime::from_millis(1);
    let sizes = [
        ("noop", rank_future(kernels::noop(ms)), 80),
        ("ring", rank_future(kernels::ring(1, 8)), 272),
        (
            "compute_allreduce",
            rank_future(kernels::compute_allreduce(1, 64, ms)),
            256,
        ),
        (
            "heat3d (world layer)",
            rank_future(heat3d::program(heat3d::HeatConfig::small())),
            656,
        ),
        (
            "heat3d (replica layer)",
            rank_future(heat3d_rep::program(heat3d_rep::RepHeatConfig {
                heat: heat3d::HeatConfig {
                    mode: heat3d::ComputeMode::Modeled,
                    ..heat3d::HeatConfig::small()
                },
                scheme: ProtectionScheme::Replication { degree: 2 },
                hb: HeartbeatConfig::default(),
                ckpt: true,
            })),
            1296,
        ),
    ];
    for (name, size, budget) in sizes {
        eprintln!("{name}: {size} B (budget {budget})");
        assert!(
            size <= budget,
            "{name} rank future is {size} B, budget {budget}"
        );
    }
}

/// Peak live bytes per rank of `compute_allreduce(1, 64, 1 ms)` on
/// [`RANKS`] ranks with tree collectives: spawn wave, compute phase and
/// the allreduce, every rank's future and MPI state alive at once.
/// 2,449 B over `async fn` awaitables and decoding reductions; 1,993 B
/// with the fault-path state and an envelope per matching slot inline;
/// 1,671 B with nested async collectives and 88-B request slots; 1,515 B
/// while a rank's one request and one matching entry sat in heap slots
/// of their own. The budget is below the 1,600 B that 2²³ ranks need to
/// fit a 16 GiB host. With `--nocapture` it prints the live heap at the
/// peak by block size.
#[test]
fn tree_allreduce_peak_live_bytes_per_rank() {
    let live0 = reset_peak();
    SimBuilder::new(RANKS)
        .net(NetModel::small(RANKS))
        .collectives(CollAlgo::Tree)
        .run(kernels::compute_allreduce(1, 64, SimTime::from_millis(1)))
        .expect("allreduce run");
    let peak = PEAK.get().wrapping_sub(live0) as f64 / RANKS as f64;
    eprintln!("peak live bytes/rank, tree allreduce: {peak:.0}");
    print_peak_histogram(RANKS);
    assert!(peak <= 1500.0, "{peak:.0} B/rank at peak");
}

// ----------------------------------------------------------------------
// Byte-fold reductions: a tree reduce forwards the bytes it folded into,
// so the only [`WIRE`]-sized blocks are the leaves' encodings and the
// decodes of the result (rank data lives in arrays, not vectors).
// ----------------------------------------------------------------------

/// Elements per reduce payload: 8·53 = 424 B, a size nothing else in
/// the run allocates.
const ELEMS: usize = 53;
const WIRE: usize = ELEMS * 8;

/// `(blocks of [`WIRE`] bytes allocated, members without children)` of
/// one tree reduce (`all` = allreduce) over `n` ranks.
fn tree_reduce_blocks(n: usize, all: bool) -> (u64, u64) {
    let blocks0 = WIRE_BLOCKS.get();
    SimBuilder::new(n)
        .net(NetModel::small(n))
        .run_app(move |mpi| async move {
            let data = [mpi.rank as f64; ELEMS];
            let expect = (n * (n - 1) / 2) as f64;
            let (tree, w, sum) = (Some(CollAlgo::Tree), CommId::WORLD, ReduceOp::Sum);
            let out = if all {
                Some(collective::allreduce(tree, w, &data, sum).await?)
            } else {
                collective::reduce(tree, w, 0, &data, sum).await?
            };
            if out.is_some_and(|v| v != [expect; ELEMS]) {
                return Err(MpiError::Invalid("wrong reduction"));
            }
            mpi.finalize();
            Ok(())
        })
        .expect("reduce run");
    let leaves = (0..n)
        .filter(|&v| collective::tree_children(v, n) == 0)
        .count() as u64;
    (WIRE_BLOCKS.get() - blocks0, leaves)
}

#[test]
fn tree_reduce_decodes_no_child_payload() {
    for n in [2, 7, 64, 1000] {
        let (blocks, leaves) = tree_reduce_blocks(n, false);
        // One encoding per leaf, one decode at the root.
        assert_eq!(blocks, leaves + 1, "reduce over {n} ranks");
        let (blocks, leaves) = tree_reduce_blocks(n, true);
        // ... and the allreduce decodes once per rank, at the end.
        assert_eq!(blocks, leaves + n as u64, "allreduce over {n} ranks");
    }
}

// ----------------------------------------------------------------------
// Failure notices: a failure tells every other rank through one event
// each, a pooled box like a message's envelope, so only the first
// failure of a run allocates them.
// ----------------------------------------------------------------------

/// Allocation calls of a run in which every rank sleeps 1 s in 20-ms
/// steps (a failure activates when its rank wakes) and ranks 1, 2, …
/// fail at `at_ms`, in turn.
fn failure_run_allocs(at_ms: &[u64]) -> u64 {
    let failures = (1..).zip(at_ms.iter().map(|&ms| SimTime::from_millis(ms)));
    let allocs0 = ALLOCS.get();
    let report = SimBuilder::new(RANKS)
        .net(NetModel::small(RANKS))
        .inject_failures(failures)
        .run_app(|mpi| async move {
            for _ in 0..50 {
                mpi.sleep(SimTime::from_millis(20)).await;
            }
            mpi.finalize();
            Ok(())
        })
        .expect("failure run");
    assert_eq!(report.sim.failures.len(), at_ms.len());
    ALLOCS.get() - allocs0
}

/// 0.011 measured (event-queue growth); 1.011 while each notice was a
/// boxed closure.
#[test]
fn a_later_failure_notifies_every_rank_without_allocating_per_rank() {
    let one = failure_run_allocs(&[110]);
    let two = failure_run_allocs(&[110, 510]);
    let per_rank = (two - one) as f64 / RANKS as f64;
    eprintln!("allocations per rank for a second failure: {per_rank:.3}");
    assert!(per_rank < 0.1, "{per_rank:.3} allocations per rank");
}
