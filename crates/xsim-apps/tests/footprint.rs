//! Allocation gate of a Table II cell's per-operation paths, counted by
//! a first-party `#[global_allocator]` with thread-local counters (as
//! `xsim-mpi/tests/footprint.rs`: every test runs its sequential-engine
//! simulation on its own harness thread, so the counts need no lock and
//! repeat exactly):
//!
//! * a modeled checkpoint write allocates its encoded buffer, the
//!   buffer's refcount and the file's key, nothing else;
//! * a retire allocates the key of the file it deletes;
//! * a modeled heat3d halo allocates, per rank, its `waitall` result and
//!   the two 8-slot blocks of the rank's request table and posted-receive
//!   queue — nothing per request id, per face or per wake (the event
//!   queue's own bucket growth aside);
//! * a heat3d checkpoint cycle (write, barrier, retire) costs the write,
//!   the retire and the box the solver parks the write in;
//! * with real compute, a halo and a checkpoint cycle add only the
//!   buffers they send or write (each face, the packed grid) and their
//!   refcounts: the stencil and the copy loops allocate nothing;
//! * a repeated blocking `waitall` allocates no completion feed after the
//!   first: only its result;
//! * a failure-free replicated halo allocates, per physical rank, the
//!   frames of its logical sends and the growth of its request and
//!   matching blocks — nothing per copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xsim_apps::heat3d::{self, ComputeMode, HeatConfig};
use xsim_apps::heat3d_rep::{self, RepHeatConfig};
use xsim_ckpt::{Checkpoint, CheckpointManager, ModeWriter};
use xsim_core::{ctx, Bytes, SimTime};
use xsim_fs::FsModel;
use xsim_mpi::replication::{HeartbeatConfig, ProtectionScheme};
use xsim_mpi::{CkptMode, MpiError, ReqId, SimBuilder};
use xsim_net::NetModel;

struct Counting;

// Const-initialised and without destructors: touching them from inside the
// allocator can neither allocate nor hit a torn-down slot.
thread_local! {
    /// Allocation calls on this thread so far (a `realloc` counts as one).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Those asking for at most [`FEED_BLOCK`] bytes.
    static SMALL: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    ALLOCS.set(ALLOCS.get() + 1);
    SMALL.set(SMALL.get() + (size <= FEED_BLOCK) as u64);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain thread-local statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls of `f` on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.get();
    let out = f();
    (out, ALLOCS.get() - before)
}

// ----------------------------------------------------------------------
// Checkpoint write and retire, through the calls heat3d makes: a
// modeled checkpoint (the 72-byte `config` fingerprint and the 8-byte
// `token`) encoded from borrowed sections, written in `full` mode over
// Table II's free file system, then retired.
// ----------------------------------------------------------------------

/// `(allocations of each write, allocations of each retire)` of
/// `writes` modeled checkpoints of one rank.
fn write_and_retire(writes: u64) -> (Vec<u64>, Vec<u64>) {
    thread_local!(static COSTS: Cell<(Vec<u64>, Vec<u64>)> = const { Cell::new((Vec::new(), Vec::new())) });
    SimBuilder::new(1)
        .fs_model(FsModel::free())
        .run_app(move |mpi| async move {
            let mut writer = ModeWriter::new(CheckpointManager::new("heat"), CkptMode::Full);
            let fingerprint = [7u8; 72];
            let (mut written, mut retired) = (Vec::new(), Vec::new());
            for generation in 1..=writes {
                let it = generation * 250;
                let before = ALLOCS.get();
                let token = generation.to_le_bytes();
                let sections = [("config", &fingerprint[..]), ("token", &token[..])];
                let enc = Checkpoint::encode_from(0, it, sections);
                writer
                    .write_encoded(&mpi, 0, it, enc, Some(16 * 16 * 16 * 8))
                    .await?;
                written.push(ALLOCS.get() - before);
                if generation > 1 {
                    let before = ALLOCS.get();
                    writer.retire(&mpi, 0, it - 250).await?;
                    retired.push(ALLOCS.get() - before);
                }
            }
            COSTS.set((written, retired));
            mpi.finalize();
            Ok(())
        })
        .expect("one-rank run");
    COSTS.take()
}

#[test]
fn modeled_checkpoint_write_allocates_its_buffer_refcount_and_key() {
    let (written, _) = write_and_retire(4);
    eprintln!("allocations per modeled checkpoint write: {written:?}");
    // The first write also allocates the store's first B-tree node.
    assert!(
        written[0] <= 4 && written[1..].iter().all(|&n| n <= 3),
        "a write allocated more than its buffer, refcount and key: {written:?}"
    );
}

#[test]
fn retire_allocates_one_key() {
    let (_, retired) = write_and_retire(4);
    eprintln!("allocations per retire: {retired:?}");
    assert!(retired.iter().all(|&n| n <= 1), "{retired:?}");
}

// ----------------------------------------------------------------------
// Whole heat3d runs, differenced: two modeled runs of a 4³-rank cube of
// 16³-point subdomains (Table II's subdomain, so its 2 KiB faces) that
// differ only in how many halos, or checkpoint cycles, they do. What
// both runs do once — spawning, the restart agreement, the last
// checkpoint, pools and queues warming up — cancels.
// ----------------------------------------------------------------------

const CUBE: usize = 4;
const RANKS: usize = CUBE * CUBE * CUBE;

fn heat(iterations: u64, ckpt_interval: u64) -> HeatConfig {
    HeatConfig {
        global: [16 * CUBE; 3],
        ranks: [CUBE; 3],
        iterations,
        halo_interval: 5,
        ckpt_interval,
        mode: ComputeMode::Modeled,
        ..HeatConfig::small()
    }
}

/// Allocation calls of one run of `cfg`, less the event queue's own:
/// each push into a full calendar bucket grows it by one allocation
/// (`pool_pushes − pool_reused`), and a bucket that drains gives its
/// pages back, so every wave of events regrows some. That cost is the
/// engine's, per event, not the application's or the MPI layer's.
fn run_allocs(cfg: HeatConfig) -> u64 {
    let builder = SimBuilder::new(RANKS)
        .net(NetModel::small(RANKS))
        .fs_model(FsModel::free());
    let (report, n) = allocs(|| builder.run(heat3d::program(cfg)).expect("heat3d run"));
    assert_eq!(report.sim.exit, xsim_core::ExitKind::Completed);
    let queue = report.sim.profile.pool_pushes - report.sim.profile.pool_reused;
    n - queue
}

/// Three per rank by construction: the `waitall` result and the 8-slot
/// blocks of the rank's second request and second posted receive. The
/// rest, 0.37 measured, is per wave rather than per rank: a face that
/// arrives before its receive is posted takes an unexpected-queue block,
/// the envelope pool grows to the wave's high-water mark, and the queue
/// regrows a few buffers its push counters do not see.
#[test]
fn modeled_halo_allocates_three_per_rank() {
    // 4 and 8 halos, one checkpoint (at the end) each.
    let short = run_allocs(heat(20, 20));
    let long = run_allocs(heat(40, 40));
    let per_rank = (long - short) as f64 / (4 * RANKS) as f64;
    eprintln!("allocations per rank per modeled halo: {per_rank:.3}");
    assert!(
        per_rank <= 3.5,
        "{per_rank:.3} allocations per rank per halo"
    );
}

/// Five per rank by construction: the write's three, the retire's key
/// and the box the solver parks the write in (the barrier allocates
/// nothing once warm). The store's B-tree nodes split and merge as
/// generations come and go: 0.03 more, measured.
#[test]
fn heat3d_checkpoint_cycle_allocates_write_retire_and_its_box() {
    // 8 halos each; 8 checkpoints (7 retires) against 1.
    let few = run_allocs(heat(40, 40));
    let many = run_allocs(heat(40, 5));
    let per_rank = (many - few) as f64 / (7 * RANKS) as f64;
    eprintln!("allocations per rank per checkpoint cycle: {per_rank:.3}");
    assert!(
        per_rank <= 5.1,
        "{per_rank:.3} allocations per rank per write + barrier + retire"
    );
}

/// Real compute, a halo and a checkpoint cycle every five iterations.
/// By construction a rank's halo allocates the modeled halo's three plus
/// each sent face's buffer and its refcount (4.5 faces per rank on the
/// 4³ cube: +9), and its checkpoint cycle the modeled cycle's five,
/// the grid's words encoded straight into the checkpoint buffer: 17 per
/// rank. 17.44 measured; 19.44 while the grid was first packed into a
/// buffer of its own (and its refcount) and copied from there.
#[test]
fn real_halo_and_checkpoint_cycle_allocate_only_their_buffers() {
    let real = |iterations| HeatConfig {
        mode: ComputeMode::Real,
        ..heat(iterations, 5)
    };
    // 4 and 8 intervals of five iterations, each ending in a halo and a
    // checkpoint cycle.
    let short = run_allocs(real(20));
    let long = run_allocs(real(40));
    let per_rank = (long - short) as f64 / (4 * RANKS) as f64;
    eprintln!("allocations per rank per real halo + checkpoint cycle: {per_rank:.3}");
    assert!(
        per_rank <= 17.5,
        "{per_rank:.3} allocations per rank per real halo + checkpoint cycle"
    );
}

/// Allocation calls of one failure-free `replication:2` run of `cfg`
/// (no checkpoints), less the event queue's own, and its physical rank
/// count.
fn replicated_run_allocs(cfg: HeatConfig) -> (u64, usize) {
    let cfg = RepHeatConfig {
        heat: cfg,
        scheme: ProtectionScheme::Replication { degree: 2 },
        hb: HeartbeatConfig::default(),
        ckpt: false,
    };
    let ranks = cfg.physical_size();
    let builder = SimBuilder::new(ranks)
        .net(NetModel::small(ranks))
        .fs_model(FsModel::free())
        .detector(cfg.hb.detector());
    let (report, n) = allocs(|| {
        builder
            .run(heat3d_rep::program(cfg))
            .expect("replicated run")
    });
    assert_eq!(report.sim.exit, xsim_core::ExitKind::Completed);
    let queue = report.sim.profile.pool_pushes - report.sim.profile.pool_reused;
    (n - queue, ranks)
}

/// A physical rank of a degree-2 team with `n` mesh neighbours has `2n`
/// receive copies and `2n` send copies of a halo outstanding at once.
/// By construction it allocates each logical send's frame (its buffer
/// and the buffer's refcount: `2n`), its request block (8 slots, grown
/// in place to 16 and, past 16 copies, to 32) and its posted-receive
/// block (8 slots, 16 past 8 receives): on the 4³ cube, where `n` is
/// 3 to 6, 9 + 2.5 + 1.5 = 13.0 on average. 13.19 measured; 45.68 before
/// the replica layer stopped allocating per copy (replica lists, request
/// vectors, each wait's result vector, and the request and matching
/// maps spilling to trees past 8 entries).
#[test]
fn failure_free_replicated_halo_allocates_nothing_per_copy() {
    // 4 and 8 halos, no checkpoints.
    let (short, ranks) = replicated_run_allocs(heat(20, 1000));
    let (long, _) = replicated_run_allocs(heat(40, 1000));
    let per_rank = (long - short) as f64 / (4 * ranks) as f64;
    eprintln!("allocations per physical rank per replicated halo: {per_rank:.3}");
    assert!(
        per_rank <= 13.5,
        "{per_rank:.3} allocations per physical rank per replicated halo"
    );
}

// ----------------------------------------------------------------------
// Blocking waitall: rank 0 posts four receives and blocks in `waitall`
// before rank 1 sends them, round after round. A completion feed is a
// boxed `Vec<u64>`: blocks of at most 64 bytes. Nothing else that runs
// while rank 0 waits allocates one that small (its result is 160 B, the
// request and matching blocks 448 and 384 B, an event-queue bucket at
// least 128 B), so the small blocks of a wait are its feed's.
// ----------------------------------------------------------------------

/// Largest block a completion feed of four requests allocates.
const FEED_BLOCK: usize = 64;

#[test]
fn repeated_waitall_allocates_no_feed_after_the_first() {
    const ROUNDS: u32 = 6;
    thread_local!(static PER_WAIT: Cell<Vec<u64>> = const { Cell::new(Vec::new()) });
    SimBuilder::new(2)
        .net(NetModel::small(2))
        .run_app(|mpi| async move {
            let w = mpi.world();
            let mut small = Vec::new();
            for round in 0..ROUNDS {
                if mpi.rank == 0 {
                    let mut reqs = [ReqId(0); 4];
                    for (tag, req) in (round * 4..).zip(&mut reqs) {
                        *req = mpi.irecv(w, Some(1), Some(tag))?;
                    }
                    let before = SMALL.get();
                    assert_eq!(mpi.waitall(w, &reqs).await?.len(), 4);
                    small.push(SMALL.get() - before);
                } else {
                    ctx::sleep(SimTime::from_millis(1)).await;
                    for tag in round * 4..round * 4 + 4 {
                        mpi.send(w, 0, tag, Bytes::zeroed(8)).await?;
                    }
                }
            }
            if mpi.rank == 0 {
                PER_WAIT.set(small);
            }
            mpi.finalize();
            Ok::<_, MpiError>(())
        })
        .expect("two-rank run");
    let small = PER_WAIT.take();
    eprintln!("blocks of at most {FEED_BLOCK} B per blocking waitall: {small:?}");
    assert_eq!(small.len(), ROUNDS as usize);
    assert!(
        small[1..].iter().all(|&n| n == 0),
        "a waitall after the first allocated a feed: {small:?}"
    );
}
