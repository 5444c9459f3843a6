//! Property-based tests for the checkpoint modes: the incremental diff
//! chain always restores to the exact bytes of a fresh full checkpoint,
//! a mangled diff file is a corrupt candidate and never a panic, and
//! buddy memory copies / partnerless spills are lossless. Every
//! property runs `CASES` cases, case `i` drawing from
//! `DetRng::stream(SEED, i)`.
//!
//! The damaged-store properties (mangled diffs, damaged `agg`
//! containers, garbled buddy copies) restore both ways: offline through
//! `resolve_latest`, and through `ModeWriter::load_latest` — the loader
//! a restart runs — inside a small simulation. Two regressions pin that
//! a diff chain that does not descend (a self-reference, a 2-cycle)
//! falls back instead of hanging the walk.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xsim_ckpt::{
    apply_diff, block_diff, decode_diff, encode_diff, member_section, resolve_latest, Checkpoint,
    CheckpointManager, ModeWriter, DIFF_BLOCK,
};
use xsim_core::rng::{for_each_case, DetRng};
use xsim_core::Bytes;
use xsim_fs::{FsModel, FsStore};
use xsim_mpi::{CkptMode, SimBuilder};

const SEED: u64 = 0xC0DE_0006;
const CASES: u64 = 64;
const PREFIX: &str = "prop";

/// Every rank's restore from `store` both ways — `resolve_latest` on the
/// store as it is, then `ModeWriter::load_latest` inside an
/// `n_ranks`-rank simulation over a charged PFS — asserted equal.
/// Returns the restored generations.
fn restore_both_ways(store: &Arc<FsStore>, mode: CkptMode, n_ranks: u32) -> Vec<Option<u64>> {
    let mgr = CheckpointManager::new(PREFIX);
    let resolved: Vec<_> = (0..n_ranks)
        .map(|rank| resolve_latest(store, &mgr, mode, rank, n_ranks))
        .collect();
    let loaded = Arc::new(Mutex::new(vec![None; n_ranks as usize]));
    let sink = loaded.clone();
    SimBuilder::new(n_ranks as usize)
        .fs_model(FsModel::striped(1))
        .fs_store(store.clone())
        .run_app(move |mpi| {
            let sink = sink.clone();
            async move {
                let mut writer = ModeWriter::new(CheckpointManager::new(PREFIX), mode);
                let ckpt = writer.load_latest(&mpi, mpi.rank as u32).await;
                sink.lock().unwrap()[mpi.rank] = ckpt;
                mpi.finalize();
                Ok(())
            }
        })
        .expect("load run");
    let offline: Vec<_> = resolved
        .iter()
        .map(|r| r.as_ref().map(|r| &r.ckpt))
        .collect();
    let simulated = loaded.lock().unwrap();
    let simulated: Vec<_> = simulated.iter().map(Option::as_ref).collect();
    assert_eq!(
        simulated, offline,
        "{mode}: the loader and resolve_latest disagree"
    );
    resolved
        .iter()
        .map(|r| r.as_ref().map(|r| r.generation))
        .collect()
}

/// Write every rank's `ckpts` in order through the `mode` writer, in a
/// simulation with one rank per entry. Nothing is retired.
fn write_through(store: &Arc<FsStore>, mode: CkptMode, ckpts: Vec<Vec<Checkpoint>>) {
    let n_ranks = ckpts.len();
    let ckpts = Arc::new(ckpts);
    SimBuilder::new(n_ranks)
        .fs_store(store.clone())
        .run_app(move |mpi| {
            let ckpts = ckpts.clone();
            async move {
                let mut writer = ModeWriter::new(CheckpointManager::new(PREFIX), mode);
                for ckpt in &ckpts[mpi.rank] {
                    writer.write(&mpi, ckpt, None).await?;
                }
                mpi.finalize();
                Ok(())
            }
        })
        .expect("write run");
}

/// `bytes` with one bit flipped (a checksum always catches it).
fn garble(g: &mut DetRng, bytes: &Bytes) -> Bytes {
    let mut out = bytes.to_vec();
    out[g.gen_index(bytes.len())] ^= 1 << g.gen_in(0..8);
    out.into()
}

/// `f` on a helper thread: a hang fails the test instead of stalling
/// the suite (the hung thread is left behind; it cannot be joined).
fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let limit = Duration::from_secs(5);
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(limit) {
        Err(RecvTimeoutError::Timeout) => panic!("no result within {limit:?}: the walk hangs"),
        received => match helper.join() {
            Ok(_) => received.expect("a helper that returned has sent"),
            Err(panic) => std::panic::resume_unwind(panic),
        },
    }
}

/// Pure diff math: `apply(diff(base → cur)) == cur` for any inputs
/// and any block size.
#[test]
fn diff_round_trips() {
    for_each_case(SEED, CASES, |g| {
        let base = g.gen_bytes(0..2048);
        let cur = g.gen_bytes(0..2048);
        let block = g.gen_in(1..64) as usize;
        let (idx, data) = block_diff(&base, &cur, block);
        let out = apply_diff(&base, &idx, &data, cur.len(), block);
        assert_eq!(out, Some(cur));
    });
}

/// A diff file whose checksums are intact but whose fields are not what
/// `block_diff` wrote — indices, data and length are mangled
/// independently and the file re-encoded — either still applies or is
/// refused; the loader then falls back to the newest generation that
/// does restore. Nothing panics and nothing allocates past the inputs.
#[test]
fn mangled_diffs_never_panic_the_loader() {
    for_each_case(SEED, CASES, |g| {
        let full = Checkpoint::new(0, 10)
            .with_section("s", Bytes::from(g.gen_bytes(0..1500)))
            .encode();
        let cur = Checkpoint::new(0, 20)
            .with_section("s", Bytes::from(g.gen_bytes(0..1500)))
            .encode();
        let good = decode_diff(&encode_diff(0, 20, 10, &full, &cur)).expect("diff sections");

        let mut indices = good.indices.clone();
        match g.gen_in(0..4) {
            0 => indices.push(g.next_u64() as u32),
            1 => indices.iter_mut().for_each(|i| *i = g.next_u64() as u32),
            2 => drop(indices.pop()),
            _ => {}
        }
        let data = match g.gen_in(0..3) {
            0 => good.data.slice(..g.gen_index(good.data.len() + 1)),
            1 => Bytes::from(g.gen_bytes(0..64)),
            _ => good.data.clone(),
        };
        let new_len = match g.gen_in(0..4) {
            0 => g.next_u64(),
            1 => u64::MAX,
            2 => g.gen_in(0..4096),
            _ => good.new_len as u64,
        };
        let applied = apply_diff(&full, &indices, &data, new_len as usize, DIFF_BLOCK);
        if let Some(out) = &applied {
            assert_eq!(out.len() as u64, new_len);
        }

        let idx_bytes: Vec<u8> = indices.iter().flat_map(|i| i.to_le_bytes()).collect();
        let mangled = Checkpoint::new(0, 20)
            .with_section("ibase", Bytes::copy_from_slice(&10u64.to_le_bytes()))
            .with_section("iblocks", idx_bytes.into())
            .with_section("idata", data)
            .with_section("ilen", Bytes::copy_from_slice(&new_len.to_le_bytes()));
        let store = FsStore::new();
        let mgr = CheckpointManager::new("prop");
        store.put(mgr.file_name(10, 0), full.clone());
        store.put(mgr.file_name(20, 0), mangled.encode());
        let mode = CkptMode::Incremental { full_every: 4 };
        let r = resolve_latest(&store, &mgr, mode, 0, 1).expect("the full generation restores");
        let restores = applied.is_some_and(|out| Checkpoint::verify(&out).is_ok());
        assert_eq!(r.generation, if restores { 20 } else { 10 });
    });
}

/// A stored chain (one full checkpoint + a diff per later
/// generation) restores to exactly the checkpoint a fresh full
/// write of the final state would produce.
#[test]
fn incremental_chain_restores_like_full() {
    for_each_case(SEED, CASES, |g| {
        let states: Vec<Vec<u8>> = (0..g.gen_in(1..6)).map(|_| g.gen_bytes(0..1500)).collect();
        let store = FsStore::new();
        let mgr = CheckpointManager::new("prop");
        let encs: Vec<Bytes> = states
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                Checkpoint::new(0, (i as u64 + 1) * 10)
                    .with_section("s", Bytes::from(payload.clone()))
                    .encode()
            })
            .collect();
        // Generation 10 is full; every later generation diffs against
        // its predecessor's reconstructed bytes.
        store.put(mgr.file_name(10, 0), encs[0].clone());
        for i in 1..encs.len() {
            let generation = (i as u64 + 1) * 10;
            let diff = encode_diff(0, generation, i as u64 * 10, &encs[i - 1], &encs[i]);
            store.put(mgr.file_name(generation, 0), diff.encode());
        }
        let mode = CkptMode::Incremental { full_every: 4 };
        let resolved = resolve_latest(&store, &mgr, mode, 0, 1).expect("chain resolves");
        assert_eq!(resolved.chain_len, encs.len());
        assert_eq!(resolved.generation, encs.len() as u64 * 10);
        let fresh = Checkpoint::decode(&encs[encs.len() - 1]).expect("valid checkpoint");
        assert_eq!(resolved.ckpt, fresh);
    });
}

/// Buddy restore is lossless whichever single holder survives, and
/// the partnerless spill path round-trips through the PFS files.
#[test]
fn buddy_copies_and_spills_are_lossless() {
    for_each_case(SEED, CASES, |g| {
        let payload = g.gen_bytes(0..1500);
        let lose_own = g.gen_bool();
        let store = FsStore::new();
        let mgr = CheckpointManager::new("prop");
        let ckpt = Checkpoint::new(0, 7).with_section("s", Bytes::from(payload.clone()));
        let enc = ckpt.encode();
        // Partnered pair (ranks 0/1): rank 0's state lives in both node
        // memories; losing either single copy must not lose the state.
        store.put(mgr.mem_file_name(7, 0, 0), enc.clone());
        store.put(mgr.mem_file_name(7, 0, 1), enc.clone());
        store.delete(&mgr.mem_file_name(7, 0, if lose_own { 0 } else { 1 }));
        let r = resolve_latest(&store, &mgr, CkptMode::Buddy, 0, 2).expect("buddy resolves");
        assert_eq!(&r.ckpt, &ckpt);
        // Partnerless rank (2 of 3): the spill file on the PFS.
        let spill = Checkpoint::new(2, 7).with_section("s", Bytes::from(payload));
        store.put(mgr.file_name(7, 2), spill.encode());
        let r = resolve_latest(&store, &mgr, CkptMode::Buddy, 2, 3).expect("spill resolves");
        assert_eq!(r.ckpt, spill);
    });
}

/// The damage of `mangled_diffs_never_panic_the_loader`, restored both
/// ways: the generation-20 diff's indices, data and length are mangled
/// independently under valid checksums, and both loaders land on 20
/// if the mangled diff still replays to a valid checkpoint, else on the
/// full generation 10.
#[test]
fn mangled_diffs_restore_alike_in_and_out_of_the_simulation() {
    for_each_case(SEED ^ 0xD1FF, CASES, |g| {
        let full = Checkpoint::new(0, 10)
            .with_section("s", Bytes::from(g.gen_bytes(0..1500)))
            .encode();
        let cur = Checkpoint::new(0, 20)
            .with_section("s", Bytes::from(g.gen_bytes(0..1500)))
            .encode();
        let good = decode_diff(&encode_diff(0, 20, 10, &full, &cur)).expect("diff sections");
        let mut indices = good.indices;
        match g.gen_in(0..4) {
            0 => indices.push(g.next_u64() as u32),
            1 => indices.iter_mut().for_each(|i| *i = g.next_u64() as u32),
            2 => drop(indices.pop()),
            _ => {}
        }
        let data = match g.gen_in(0..3) {
            0 => good.data.slice(..g.gen_index(good.data.len() + 1)),
            1 => Bytes::from(g.gen_bytes(0..64)),
            _ => good.data,
        };
        let new_len = match g.gen_in(0..3) {
            0 => g.next_u64(),
            1 => g.gen_in(0..4096),
            _ => good.new_len as u64,
        };
        let restores = apply_diff(&full, &indices, &data, new_len as usize, DIFF_BLOCK)
            .is_some_and(|out| Checkpoint::verify(&out).is_ok());
        let idx_bytes: Vec<u8> = indices.iter().flat_map(|i| i.to_le_bytes()).collect();
        let mangled = Checkpoint::new(0, 20)
            .with_section("ibase", Bytes::copy_from_slice(&10u64.to_le_bytes()))
            .with_section("iblocks", idx_bytes.into())
            .with_section("idata", data)
            .with_section("ilen", Bytes::copy_from_slice(&new_len.to_le_bytes()));
        let store = FsStore::new();
        let mgr = CheckpointManager::new(PREFIX);
        store.put(mgr.file_name(10, 0), full);
        store.put(mgr.file_name(20, 0), mangled.encode());
        let mode = CkptMode::Incremental { full_every: 4 };
        let expect = if restores { 20 } else { 10 };
        assert_eq!(restore_both_ways(&store, mode, 1), [Some(expect)]);
    });
}

/// An `agg` container of generation 20 — written by the aggregated
/// writer for a 1- or 2-rank group — truncated, stripped of its member
/// sections, or holding garbled members under a valid container
/// checksum: every rank falls back to generation 10 both ways, and an
/// undamaged container restores 20.
#[test]
fn damaged_agg_containers_restore_alike_in_and_out_of_the_simulation() {
    for_each_case(SEED ^ 0xA66, CASES, |g| {
        let n_ranks = g.gen_in(1..3) as u32;
        let mode = CkptMode::Aggregated { group: 2 };
        let ckpts = (0..n_ranks)
            .map(|r| {
                [10, 20]
                    .map(|gen| {
                        Checkpoint::new(r, gen).with_section("s", Bytes::from(g.gen_bytes(1..1500)))
                    })
                    .to_vec()
            })
            .collect();
        let store = FsStore::new();
        write_through(&store, mode, ckpts);
        let mgr = CheckpointManager::new(PREFIX);
        let [name] = &store.list_prefix(&mgr.generation_prefix(20))[..] else {
            panic!("one container per generation");
        };
        let enc = store.get(name).expect("container").bytes().clone();
        let container = Checkpoint::decode(&enc).expect("valid container");
        let damaged = match g.gen_in(0..4) {
            0 => Some(enc.slice(..g.gen_index(enc.len()))),
            1 => Some(Checkpoint::new(container.rank, 20).encode()),
            2 => {
                let mut garbled = Checkpoint::new(container.rank, 20);
                for r in 0..n_ranks {
                    let member = container.section(&member_section(r)).expect("member");
                    garbled = garbled.with_section(member_section(r), garble(g, member));
                }
                Some(garbled.encode())
            }
            _ => None,
        };
        let expect = if damaged.is_some() { 10 } else { 20 };
        if let Some(bytes) = damaged {
            store.put(name, bytes);
        }
        let restored = restore_both_ways(&store, mode, n_ranks);
        assert_eq!(restored, vec![Some(expect); n_ranks as usize]);
    });
}

/// Buddy copies of generation 9 garbled per rank — own copy only
/// (the partner's kept), partner's only, both, or neither: a rank falls
/// back to generation 7 only when both copies are garbled, both ways.
#[test]
fn garbled_buddy_copies_restore_alike_in_and_out_of_the_simulation() {
    for_each_case(SEED ^ 0xB0D, CASES, |g| {
        let store = FsStore::new();
        let mgr = CheckpointManager::new(PREFIX);
        let mut expect = Vec::new();
        for rank in 0..2u32 {
            for gen in [7, 9] {
                let enc = Checkpoint::new(rank, gen)
                    .with_section("s", Bytes::from(g.gen_bytes(1..1500)))
                    .encode();
                let (own, partner) = match gen {
                    9 => (g.gen_bool(), g.gen_bool()),
                    _ => (false, false),
                };
                for (holder, garbled) in [(rank, own), (rank ^ 1, partner)] {
                    let copy = if garbled {
                        garble(g, &enc)
                    } else {
                        enc.clone()
                    };
                    store.put(mgr.mem_file_name(gen, rank, holder), copy);
                }
                if gen == 9 {
                    expect.push(Some(if own && partner { 7 } else { 9 }));
                }
            }
        }
        assert_eq!(restore_both_ways(&store, CkptMode::Buddy, 2), expect);
    });
}

/// Generation 10 is full; the diffs in `links` (generation → base) name
/// bases that are not older than themselves, so no chain through them
/// descends to a full checkpoint. Both loaders fall back to 10 and
/// cleanup removes the cyclic generations — each walk must end.
fn non_descending_chain_falls_back(links: &'static [(u64, u64)]) {
    let removed = within(move || {
        let store = FsStore::new();
        let mgr = CheckpointManager::new(PREFIX);
        let full = Checkpoint::new(0, 10)
            .with_section("s", Bytes::from_static(b"state"))
            .encode();
        store.put(mgr.file_name(10, 0), full.clone());
        for &(gen, base) in links {
            let diff = encode_diff(0, gen, base, &full, &full);
            store.put(mgr.file_name(gen, 0), diff.encode());
        }
        let mode = CkptMode::Incremental { full_every: 4 };
        assert_eq!(restore_both_ways(&store, mode, 1), [Some(10)]);
        mgr.cleanup_between_runs(&store, 1, mode, &[])
    });
    let cyclic: Vec<u64> = links.iter().map(|&(gen, _)| gen).collect();
    assert_eq!(removed, cyclic);
}

#[test]
fn self_referencing_diff_falls_back_instead_of_hanging() {
    non_descending_chain_falls_back(&[(20, 20)]);
}

#[test]
fn diff_chain_two_cycle_falls_back_instead_of_hanging() {
    non_descending_chain_falls_back(&[(20, 30), (30, 20)]);
}
