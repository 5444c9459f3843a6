//! Copy/allocation gate for the checkpoint byte path, counted by a
//! first-party `#[global_allocator]` (as `xsim-mpi/tests/footprint.rs`):
//!
//! * `encode` fills one buffer of exactly the encoded length;
//! * `verify` allocates nothing;
//! * `decode_bytes` allocates nothing proportional to the payload, and
//!   its sections are views of the input buffer;
//! * a full-generation write under `Incremental` encodes once — the
//!   bytes kept as the next diff's base are the bytes written.
//!
//! "Proportional to the payload" means an allocation of at least
//! [`BIG`] bytes: the payload is the 18³-point heat3d grid (46,656 B)
//! and everything else on these paths is names, headers and handles.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use xsim_ckpt::{Checkpoint, CheckpointManager, ModeWriter};
use xsim_core::Bytes;
use xsim_mpi::{CkptMode, SimBuilder};

struct Counting;

// Per thread (as `xsim-core/tests/queue_footprint.rs`), so that the
// tests — one thread each, the one-rank run included — neither need a
// lock nor see the harness's own allocations. Const-initialised and
// without destructors: touching them from inside the allocator can
// neither allocate nor hit a torn-down slot.
thread_local! {
    /// Allocation calls so far (a `realloc` counts as one).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Calls asking for at least [`BIG`] bytes, and the bytes they
    /// asked for.
    static BIG_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BIG_BYTES: Cell<u64> = const { Cell::new(0) };
}

const BIG: usize = 32 * 1024;
const GRID_BYTES: usize = 18 * 18 * 18 * 8;

fn note(size: usize) {
    ALLOCS.set(ALLOCS.get() + 1);
    if size >= BIG {
        BIG_ALLOCS.set(BIG_ALLOCS.get() + 1);
        BIG_BYTES.set(BIG_BYTES.get() + size as u64);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocated on this thread.
#[derive(Debug, PartialEq, Eq)]
struct Cost {
    allocs: u64,
    big_allocs: u64,
    big_bytes: u64,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let before = (ALLOCS.get(), BIG_ALLOCS.get(), BIG_BYTES.get());
    let out = f();
    let cost = Cost {
        allocs: ALLOCS.get() - before.0,
        big_allocs: BIG_ALLOCS.get() - before.1,
        big_bytes: BIG_BYTES.get() - before.2,
    };
    (out, cost)
}

fn grid_checkpoint(iteration: u64) -> Checkpoint {
    let grid: Vec<u8> = (0..GRID_BYTES)
        .map(|i| (i as u64 * iteration) as u8)
        .collect();
    Checkpoint::new(0, iteration)
        .with_section(
            "config",
            Bytes::from_static(b"nx=64;ny=64;nz=32;ranks=4x4x2;iters=32"),
        )
        .with_section("grid", grid.into())
}

#[test]
fn encode_fills_one_buffer_of_the_encoded_length() {
    let ckpt = grid_checkpoint(4);
    let (enc, cost) = measure(|| ckpt.encode());
    assert_eq!(enc.len(), ckpt.encoded_len());
    assert_eq!(
        (cost.big_allocs, cost.big_bytes),
        (1, enc.len() as u64),
        "one buffer, allocated at its final size"
    );
    // The other allocation is the refcount header `Bytes` shares it by.
    assert_eq!(cost.allocs, 2, "{cost:?}");
}

#[test]
fn verify_allocates_nothing() {
    let enc = grid_checkpoint(4).encode();
    let (result, cost) = measure(|| Checkpoint::verify(&enc));
    assert_eq!(result, Ok(()));
    assert_eq!(cost.allocs, 0);
}

#[test]
fn decode_bytes_shares_the_input_buffer() {
    let ckpt = grid_checkpoint(4);
    let enc = ckpt.encode();
    let (shared, cost) = measure(|| Checkpoint::decode_bytes(&enc).expect("valid"));
    assert_eq!(cost.big_allocs, 0, "{cost:?}");
    // The section list and one `String` per section name.
    assert!(cost.allocs <= 3, "{cost:?}");
    assert_eq!(shared, ckpt);
    for (_, data) in &shared.sections {
        assert!(enc.as_ptr_range().contains(&data.as_ptr()));
    }
    // The `&[u8]` entry point has no buffer to share: it copies the
    // grid out, once, at its final size.
    let (copied, cost) = measure(|| Checkpoint::decode(&enc).expect("valid"));
    assert_eq!(
        (cost.big_allocs, cost.big_bytes),
        (1, GRID_BYTES as u64),
        "{cost:?}"
    );
    assert_eq!(copied, ckpt);
}

#[test]
fn incremental_full_generation_encodes_once() {
    static BIG_SEEN: AtomicU64 = AtomicU64::new(0);
    static BYTES_SEEN: AtomicU64 = AtomicU64::new(0);
    let builder = SimBuilder::new(1);
    let store = builder.store();
    builder
        .run_app(|mpi| async move {
            let mode = CkptMode::Incremental { full_every: 4 };
            let mut writer = ModeWriter::new(CheckpointManager::new("gate"), mode);
            let ckpt = grid_checkpoint(4);
            let before = (BIG_ALLOCS.get(), BIG_BYTES.get());
            writer.write(&mpi, &ckpt, None).await?;
            BIG_SEEN.store(BIG_ALLOCS.get() - before.0, Relaxed);
            BYTES_SEEN.store(BIG_BYTES.get() - before.1, Relaxed);
            mpi.finalize();
            Ok(())
        })
        .expect("one-rank run");
    let ckpt = grid_checkpoint(4);
    let file = store
        .get(&CheckpointManager::new("gate").file_name(4, 0))
        .expect("generation 4 written");
    assert_eq!(file.bytes(), &ckpt.encode());
    assert_eq!(
        (BIG_SEEN.load(Relaxed), BYTES_SEEN.load(Relaxed)),
        (1, ckpt.encoded_len() as u64),
        "the file and the diff base are one encoded buffer"
    );
}
