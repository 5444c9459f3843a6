//! Footprint gate: what the simulated-MPI state of a rank costs on the
//! host, counted by a first-party `#[global_allocator]` (sequential
//! engine, fixed rank count, so every number repeats exactly).
//!
//! * a rank's live bytes do not grow with the number of collectives it
//!   has run (matching indexes, request slots and the completion feed
//!   are given back when they drain);
//! * the first collective costs a bounded number of allocations;
//! * a shard's `MpiService` is sized by the ranks it owns, not by the
//!   world.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use xsim_core::{Rank, SimTime};
use xsim_mpi::state::{MpiService, MpiStats, MpiWorld};
use xsim_mpi::{CollAlgo, Detector, ErrHandler, SimBuilder};
use xsim_net::NetModel;
use xsim_proc::ProcModel;

struct Counting;

/// Allocation calls so far (a `realloc` counts as one).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed (wrapping: frees of memory that
/// predates a sample simply cancel in the difference).
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(new_size as u64, Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide and the test harness runs tests on
/// parallel threads: every measuring test holds this lock.
static MEASURING: Mutex<()> = Mutex::new(());

const RANKS: usize = 4096;

/// `(allocations per rank over the whole run, live bytes per rank once
/// every rank has finished its barriers and is parked in a sleep)` of
/// `sleep` + `barriers` × tree barrier on the sequential engine.
fn run_barriers(barriers: u32) -> (f64, f64) {
    static SAMPLE: AtomicU64 = AtomicU64::new(0);
    let live0 = LIVE.load(Relaxed);
    let allocs0 = ALLOCS.load(Relaxed);
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
                SAMPLE.store(LIVE.load(Relaxed), Relaxed);
            }
            mpi.sleep(SimTime::from_secs(2)).await;
            mpi.finalize();
            Ok(())
        })
        .expect("barrier run");
    let allocs = ALLOCS.load(Relaxed) - allocs0;
    let live = SAMPLE.load(Relaxed).wrapping_sub(live0);
    (allocs as f64 / RANKS as f64, live as f64 / RANKS as f64)
}

#[test]
fn repeated_collectives_do_not_grow_a_rank() {
    let _guard = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
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
    let _guard = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let (allocs, _) = run_barriers(1);
    eprintln!("allocations/rank, sleep + 1 barrier: {allocs:.2}");
    assert!(allocs <= 6.0, "{allocs:.2} allocations per rank");
}

#[test]
fn shard_service_is_sized_by_owned_ranks() {
    let _guard = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
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
    let live0 = LIVE.load(Relaxed);
    let svc = MpiService::new(world, 0..4, sink);
    let bytes = LIVE.load(Relaxed).wrapping_sub(live0);
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
