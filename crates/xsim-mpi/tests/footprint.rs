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
//!   behind (its fire-and-forget sends are freed).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use xsim_core::{ctx, Bytes, Rank, SimTime};
use xsim_mpi::state::{MpiService, MpiStats, MpiWorld};
use xsim_mpi::{CollAlgo, Detector, ErrHandler, MpiCtx, MpiError, SimBuilder};
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
}

fn resized(from: usize, to: usize) {
    ALLOCS.set(ALLOCS.get() + (to > 0) as u64);
    FACE_BLOCKS.set(FACE_BLOCKS.get() + (to == FACE) as u64);
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
    assert!(allocs <= 6.0, "{allocs:.2} allocations per rank");
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

#[test]
fn rank_state_fits_its_inline_budget() {
    let size = std::mem::size_of::<xsim_mpi::state::RankMpi>();
    assert!(size <= 320, "RankMpi is {size} B");
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
        mpi.request_free(w, sreq)?;
    }
    mpi.waitall(w, &recvs).await?;
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
