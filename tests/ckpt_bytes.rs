//! Byte-identity guard of the checkpoint files: a small Table II-shaped
//! campaign (a rank killed mid-run → abort → between-run cleanup →
//! restart to completion) per checkpoint mode and compute mode, with
//! the store's sorted listing and the CRC-32 of every file pinned after
//! the cleanup and at the end. A change to how checkpoint keys are
//! formatted or owned, to how sections are encoded, or to what the
//! cleanup deletes shows up here as a different name, file or byte.
//!
//! The pinned digests fold every `(name, complete, CRC-32, length)`
//! record of the listing in name order; on a mismatch the test prints
//! the listing.

use xsim::apps::heat3d::{self, HeatConfig};
use xsim::apps::ComputeMode;
use xsim::mpi::CkptMode;
use xsim::prelude::*;
use xsim_ckpt::{crc32, write_exit_time, Crc32};

/// The campaign's rank grid: 16 ranks, so `agg:8` forms two groups.
const RANKS: [usize; 3] = [2, 2, 4];

fn cfg(mode: CkptMode, compute: ComputeMode) -> HeatConfig {
    HeatConfig {
        global: [8, 8, 16],
        ranks: RANKS,
        iterations: 20,
        halo_interval: 5,
        ckpt_interval: 5,
        mode: compute,
        ckpt_mode: mode,
        ..HeatConfig::small()
    }
}

/// Modeled compute runs over Table II's free file system, real compute
/// over a striped PFS (whose two-phase writes leave partial files).
fn builder(n: usize, compute: ComputeMode) -> SimBuilder {
    let fs = match compute {
        ComputeMode::Modeled => FsModel::free(),
        ComputeMode::Real => FsModel::striped(2),
    };
    SimBuilder::new(n).net(NetModel::small(n)).fs_model(fs)
}

/// `(files, digest)` of the store, and the listing the digest folds.
fn listing(store: &FsStore) -> (usize, u32, String) {
    let mut digest = Crc32::new();
    let mut text = String::new();
    let names = store.list_prefix("");
    for name in &names {
        let state = store.get(name).expect("listed");
        let bytes = state.bytes();
        let record = format!(
            "{name} {} {:08x} {}\n",
            if state.is_complete() { "C" } else { "P" },
            crc32(bytes),
            bytes.len()
        );
        digest = digest.update(record.as_bytes());
        text.push_str(&record);
    }
    (names.len(), digest.finish(), text)
}

/// The campaign of one checkpoint mode: `(after cleanup, at the end)`.
fn campaign(mode: CkptMode, compute: ComputeMode) -> [(usize, u32, String); 2] {
    let cfg = cfg(mode, compute);
    let n = cfg.n_ranks();
    let program = heat3d::program(cfg.clone());
    let clean = builder(n, compute).run(program.clone()).expect("clean run");
    assert_eq!(clean.sim.exit, ExitKind::Completed);

    let store = FsStore::new();
    let mgr = CheckpointManager::new(&cfg.prefix);
    let first = builder(n, compute)
        .fs_store(store.clone())
        .inject_failure(5, clean.exit_time().scale(0.6))
        .run(program.clone())
        .expect("aborted run");
    assert_eq!(first.sim.exit, ExitKind::Aborted, "{mode}: victim must die");
    let failed: Vec<u32> = first.sim.failures.iter().map(|f| f.rank.0).collect();
    write_exit_time(&store, first.exit_time());
    mgr.cleanup_between_runs(&store, n as u32, mode, &failed);
    let after_cleanup = listing(&store);

    let restart = builder(n, compute)
        .fs_store(store.clone())
        .start_time(first.exit_time())
        .run(program)
        .expect("restart");
    assert_eq!(restart.sim.exit, ExitKind::Completed, "{mode}: restart");
    [after_cleanup, listing(&store)]
}

/// `(files, digest)` of a listing.
type Listing = (usize, u32);

/// `(mode, compute, [listing after cleanup, at the end])`, measured on
/// the tree before checkpoint keys were formatted by one formatter and
/// sections encoded from borrowed parts.
const PINNED: [(CkptMode, ComputeMode, [Listing; 2]); 8] = [
    (
        CkptMode::Full,
        ComputeMode::Modeled,
        [(17, 0xb7b3_8645), (17, 0xad7f_b7fa)],
    ),
    (
        CkptMode::Aggregated { group: 8 },
        ComputeMode::Modeled,
        [(3, 0x990c_407d), (3, 0x44ed_fbf0)],
    ),
    (
        CkptMode::Buddy,
        ComputeMode::Modeled,
        [(31, 0x1490_04c8), (33, 0x6e86_4511)],
    ),
    (
        CkptMode::Incremental { full_every: 4 },
        ComputeMode::Modeled,
        [(33, 0x46ff_8089), (65, 0x4e73_1b9c)],
    ),
    (
        CkptMode::Full,
        ComputeMode::Real,
        [(17, 0x1628_9997), (17, 0x6ae4_639c)],
    ),
    (
        CkptMode::Aggregated { group: 8 },
        ComputeMode::Real,
        [(3, 0xf8f2_808f), (3, 0xd717_4d6e)],
    ),
    (
        CkptMode::Buddy,
        ComputeMode::Real,
        [(31, 0xb0f6_8bf7), (33, 0x259f_7246)],
    ),
    (
        CkptMode::Incremental { full_every: 4 },
        ComputeMode::Real,
        [(49, 0xc3d2_370c), (65, 0xf30f_41c7)],
    ),
];

#[test]
fn campaigns_write_the_pinned_names_and_bytes() {
    let mut failures = Vec::new();
    for (mode, compute, pinned) in PINNED {
        let got = campaign(mode, compute);
        for (stage, ((files, digest, text), want)) in ["after cleanup", "at the end"]
            .iter()
            .zip(got.iter().zip(pinned))
        {
            eprintln!("{mode} {compute:?} {stage}: ({files}, {digest:#010x})");
            let (want_files, want_digest) = want;
            if (*files, *digest) != want {
                failures.push(format!(
                    "{mode} {compute:?} {stage}: ({files}, {digest:#010x}), \
                     pinned ({want_files}, {want_digest:#010x})\n{text}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
