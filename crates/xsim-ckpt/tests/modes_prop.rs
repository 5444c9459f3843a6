//! Property-based tests for the checkpoint modes: the incremental diff
//! chain always restores to the exact bytes of a fresh full checkpoint,
//! a mangled diff file is a corrupt candidate and never a panic, and
//! buddy memory copies / partnerless spills are lossless. Every
//! property runs `CASES` cases, case `i` drawing from
//! `DetRng::stream(SEED, i)`.

use xsim_ckpt::{
    apply_diff, block_diff, decode_diff, encode_diff, resolve_latest, Checkpoint,
    CheckpointManager, DIFF_BLOCK,
};
use xsim_core::rng::for_each_case;
use xsim_core::Bytes;
use xsim_fs::FsStore;
use xsim_mpi::CkptMode;

const SEED: u64 = 0xC0DE_0006;
const CASES: u64 = 64;

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
        store.put(&mgr.file_name(10, 0), full.clone());
        store.put(&mgr.file_name(20, 0), mangled.encode());
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
        store.put(&mgr.file_name(10, 0), encs[0].clone());
        for i in 1..encs.len() {
            let generation = (i as u64 + 1) * 10;
            let diff = encode_diff(0, generation, i as u64 * 10, &encs[i - 1], &encs[i]);
            store.put(&mgr.file_name(generation, 0), diff.encode());
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
        store.put(&mgr.mem_file_name(7, 0, 0), enc.clone());
        store.put(&mgr.mem_file_name(7, 0, 1), enc.clone());
        store.delete(&mgr.mem_file_name(7, 0, if lose_own { 0 } else { 1 }));
        let r = resolve_latest(&store, &mgr, CkptMode::Buddy, 0, 2).expect("buddy resolves");
        assert_eq!(&r.ckpt, &ckpt);
        // Partnerless rank (2 of 3): the spill file on the PFS.
        let spill = Checkpoint::new(2, 7).with_section("s", Bytes::from(payload));
        store.put(&mgr.file_name(7, 2), spill.encode());
        let r = resolve_latest(&store, &mgr, CkptMode::Buddy, 2, 3).expect("spill resolves");
        assert_eq!(r.ckpt, spill);
    });
}
