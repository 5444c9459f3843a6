//! Scalable checkpointing modes over the PFS model (Kohl et al.,
//! "A Scalable and Extensible Checkpointing Scheme for Massively
//! Parallel Simulations").
//!
//! Four write strategies share the [`CheckpointManager`] naming scheme:
//!
//! * **Full** — every rank writes its whole state to the PFS every
//!   generation (the paper's §V-B protocol; byte-identical to the
//!   pre-mode behavior).
//! * **Aggregated** — ranks are split into groups of `G`; the lowest
//!   rank of each group is the elected aggregator. Members ship their
//!   encoded checkpoint to the aggregator over the simulated network;
//!   the aggregator writes one coalesced container file per group, so
//!   the PFS sees `P/G` large requests instead of `P` small ones.
//! * **Buddy** — partner ranks (`r ^ 1`) exchange their encoded state
//!   over the network and keep both copies in the free node-local
//!   memory tier; the PFS is touched only when a rank has no partner
//!   (odd world size) and must spill. A node failure loses that node's
//!   memory, but the partner's copy survives the restart.
//! * **Incremental** — every `K`-th generation is a full PFS write; the
//!   generations in between store a block diff against the previous
//!   generation's reconstructed bytes. Restore walks the `ibase` chain
//!   back to the last full checkpoint and replays the diffs forward.
//!
//! All mode protocols are deterministic: message sources and tags are
//! explicit (no wildcards), node-local memory operations touch only
//! rank-private keys during a run, and every PFS transfer goes through
//! the striped-I/O event protocol of `xsim-fs`.
//!
//! Each mode's restore layout — which files and copies hold a rank's
//! state for a generation, and in which order they are tried — is
//! written once, in `restore_at` (section "Restore layout" below). The
//! in-simulation loader [`ModeWriter::load_latest`], the offline
//! [`resolve_latest`] and [`CheckpointManager::cleanup_between_runs`]
//! all walk it, reading either through the simulated file system or
//! directly from the store.

use crate::codec::Checkpoint;
use crate::manager::{CheckpointManager, Leaf, MEM_TIER, PFS_TIER};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use xsim_core::{ctx, Bytes};
use xsim_fs::{self as fs, FileState, FsService, FsStore};
use xsim_mpi::{CkptMode, MpiCtx, MpiError};
use xsim_obs::ids;
use xsim_obs::service as obs;

/// Reserved tag for checkpoint-mode traffic (below the replication
/// layer's `REP_TAG_BASE = 1 << 28`, above the applications' small
/// tags).
pub(crate) const CKPT_TAG: u32 = 0x0C4A_0000;

/// Block granularity of incremental diffs, in bytes.
pub const DIFF_BLOCK: usize = 256;

/// Section names of an incremental diff file (itself a valid
/// [`Checkpoint`], so the manager's completeness checks keep working).
pub mod diff_sections {
    /// Base generation number the diff applies to (8 bytes LE).
    pub(crate) const BASE: &str = "ibase";
    /// Changed block indices (u32 LE each).
    pub(crate) const BLOCKS: &str = "iblocks";
    /// Concatenated changed blocks (the last one may be short).
    pub(crate) const DATA: &str = "idata";
    /// Total length of the reconstructed bytes (8 bytes LE).
    pub(crate) const LEN: &str = "ilen";
}

/// Container-section name of one member's checkpoint inside an
/// aggregated group file.
pub fn member_section(rank: u32) -> String {
    format!("m{rank:07}")
}

// ----------------------------------------------------------------------
// Pure diff math (property-tested in `tests/modes_prop.rs`)
// ----------------------------------------------------------------------

/// Block-diff `cur` against `base`: changed block indices plus their
/// concatenated contents. A block is changed when its bytes differ from
/// the same range of `base` (ranges absent from `base` always differ).
pub fn block_diff(base: &[u8], cur: &[u8], block: usize) -> (Vec<u32>, Bytes) {
    assert!(block > 0, "diff block size must be positive");
    let mut indices = Vec::new();
    let mut data = Vec::new();
    let n_blocks = cur.len().div_ceil(block);
    for i in 0..n_blocks {
        let lo = i * block;
        let hi = (lo + block).min(cur.len());
        let cur_b = &cur[lo..hi];
        let base_b = if lo < base.len() {
            &base[lo..hi.min(base.len())]
        } else {
            &[][..]
        };
        if cur_b != base_b {
            indices.push(i as u32);
            data.extend_from_slice(cur_b);
        }
    }
    (indices, data.into())
}

/// Apply a block diff to `base`, producing the `new_len`-byte result.
/// Inverse of [`block_diff`] for the same block size. `None` when the
/// diff is not one `block_diff` could have produced against this base:
/// a block index at or past `new_len`, fewer `data` bytes than the
/// indexed blocks need, or a `new_len` the base and `data` together
/// cannot fill (the fields of a diff *file* are checksummed but not
/// otherwise validated, so a malformed one must not panic the loader).
pub fn apply_diff(
    base: &[u8],
    indices: &[u32],
    data: &[u8],
    new_len: usize,
    block: usize,
) -> Option<Vec<u8>> {
    let mut out = base.to_vec();
    patch(&mut out, indices, data, new_len, block)?;
    Some(out)
}

/// [`apply_diff`] in place: `out` holds the base on entry and the
/// result on success (and is unspecified on `None`).
fn patch(
    out: &mut Vec<u8>,
    indices: &[u32],
    data: &[u8],
    new_len: usize,
    block: usize,
) -> Option<()> {
    assert!(block > 0, "diff block size must be positive");
    // Bytes past the base always count as changed, so a genuine diff
    // carries them all: this bounds the allocation by the input size.
    if new_len > out.len().checked_add(data.len())? {
        return None;
    }
    out.resize(new_len, 0);
    let mut rest = data;
    for &i in indices {
        let lo = (i as usize).checked_mul(block).filter(|&lo| lo < new_len)?;
        let hi = lo.saturating_add(block).min(new_len);
        let (chunk, tail) = rest.split_at_checked(hi - lo)?;
        out[lo..hi].copy_from_slice(chunk);
        rest = tail;
    }
    Some(())
}

/// Encode a diff of `cur` against `(base_gen, base)` as a standalone
/// checkpoint file.
pub fn encode_diff(
    rank: u32,
    generation: u64,
    base_gen: u64,
    base: &[u8],
    cur: &[u8],
) -> Checkpoint {
    let (indices, data) = block_diff(base, cur, DIFF_BLOCK);
    let mut idx = Vec::with_capacity(indices.len() * 4);
    for i in &indices {
        idx.extend_from_slice(&i.to_le_bytes());
    }
    Checkpoint::new(rank, generation)
        .with_section(
            diff_sections::BASE,
            Bytes::copy_from_slice(&base_gen.to_le_bytes()),
        )
        .with_section(diff_sections::BLOCKS, idx.into())
        .with_section(diff_sections::DATA, data)
        .with_section(
            diff_sections::LEN,
            Bytes::copy_from_slice(&(cur.len() as u64).to_le_bytes()),
        )
}

/// A decoded diff file.
pub struct DiffFile {
    /// Generation the diff applies to.
    pub base_gen: u64,
    /// Changed block indices.
    pub indices: Vec<u32>,
    /// Concatenated changed blocks.
    pub data: Bytes,
    /// Reconstructed total length.
    pub new_len: usize,
}

/// Decode a diff file; `None` when `ckpt` is a regular (full)
/// checkpoint.
pub fn decode_diff(ckpt: &Checkpoint) -> Option<DiffFile> {
    let base = ckpt.section(diff_sections::BASE)?;
    let blocks = ckpt.section(diff_sections::BLOCKS)?;
    let data = ckpt.section(diff_sections::DATA)?.clone();
    let len = ckpt.section(diff_sections::LEN)?;
    if base.len() != 8 || len.len() != 8 || !blocks.len().is_multiple_of(4) {
        return None;
    }
    let indices = blocks
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Some(DiffFile {
        base_gen: u64::from_le_bytes(base[..8].try_into().expect("8 bytes")),
        indices,
        data,
        new_len: u64::from_le_bytes(len[..8].try_into().expect("8 bytes")) as usize,
    })
}

/// Replay a restore chain onto its full checkpoint `base` (encoded
/// bytes and their decoding): `frames` newest first, as the loaders
/// collect them walking `ibase` links down. With no diff to apply the
/// base is returned as is — no copy, no second checksum pass; otherwise
/// it is copied once, patched in place per frame and decoded. `None`
/// marks a corrupt candidate: a malformed diff, or a result that is not
/// a valid checkpoint.
fn restore_chain(base: (Bytes, Checkpoint), frames: &[DiffFile]) -> Option<(Bytes, Checkpoint)> {
    if frames.is_empty() {
        return Some(base);
    }
    let mut bytes = base.0.to_vec();
    for diff in frames.iter().rev() {
        patch(
            &mut bytes,
            &diff.indices,
            &diff.data,
            diff.new_len,
            DIFF_BLOCK,
        )?;
    }
    let bytes = Bytes::from(bytes);
    let ckpt = Checkpoint::decode_bytes(&bytes).ok()?;
    Some((bytes, ckpt))
}

// ----------------------------------------------------------------------
// Message framing (aggregated/buddy network copies)
// ----------------------------------------------------------------------

/// Frame an encoded checkpoint for the wire: an 8-byte LE length prefix,
/// the bytes, then zero padding up to `model_bytes` (so modeled-compute
/// runs whose surrogate checkpoints are tiny still charge the network
/// for the state volume a real run would ship).
fn frame(enc: &Bytes, model_bytes: Option<u64>) -> Bytes {
    let body = 8 + enc.len();
    let total = body.max(model_bytes.unwrap_or(0) as usize);
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&(enc.len() as u64).to_le_bytes());
    out.extend_from_slice(enc);
    out.resize(total, 0);
    out.into()
}

/// Strip the framing; errors on malformed payloads. An unpadded frame
/// (real-compute runs) yields a zero-copy slice of `data`; a padded one
/// is a surrogate that is mostly zeros, so its few real bytes are copied
/// out rather than pinning the padding wherever the result is stored.
fn unframe(data: &Bytes) -> Result<Bytes, MpiError> {
    let Some(prefix) = data.first_chunk::<8>() else {
        return Err(MpiError::Io("short checkpoint frame".into()));
    };
    let end = usize::try_from(u64::from_le_bytes(*prefix))
        .ok()
        .and_then(|len| len.checked_add(8))
        .filter(|&end| end <= data.len())
        .ok_or_else(|| MpiError::Io("truncated checkpoint frame".into()))?;
    Ok(if end == data.len() {
        data.slice(8..end)
    } else {
        Bytes::copy_from_slice(&data[8..end])
    })
}

fn io_err(e: impl std::fmt::Display) -> MpiError {
    MpiError::Io(e.to_string())
}

fn vp_store() -> Arc<FsStore> {
    ctx::with_kernel(|k, _| k.service::<FsService>().store.clone())
}

// ----------------------------------------------------------------------
// Mode-aware naming and between-run cleanup
// ----------------------------------------------------------------------

impl CheckpointManager {
    /// Path of one group's aggregated container within a generation.
    pub(crate) fn agg_file_name(&self, iteration: u64, group: u32) -> String {
        self.key(PFS_TIER, iteration, Leaf::Agg(group))
    }

    /// Node-local memory-tier prefix (buddy copies).
    pub(crate) fn mem_prefix(&self) -> String {
        format!("{}/{MEM_TIER}/", self.prefix)
    }

    /// Key of `owner`'s state held in `holder`'s node memory.
    pub fn mem_file_name(&self, iteration: u64, owner: u32, holder: u32) -> String {
        self.key(MEM_TIER, iteration, Leaf::Mem { owner, holder })
    }

    /// Memory-tier generations present, newest first.
    pub(crate) fn mem_generations(&self, store: &FsStore) -> Vec<u64> {
        self.generations_in(store, MEM_TIER, Leaf::Dir)
    }

    /// Mode-aware between-run cleanup (the generalization of
    /// [`CheckpointManager::cleanup_incomplete`], which `Full` uses):
    /// removes every generation some rank could not restore from under
    /// the mode's layout — a missing or corrupt file, container or diff
    /// chain, and for buddy the node memories lost with `failed` ranks.
    /// Checks copies with [`Checkpoint::verify`] and replays no chain.
    /// Returns the generations removed, oldest first.
    pub fn cleanup_between_runs(
        &self,
        store: &FsStore,
        n_ranks: u32,
        mode: CkptMode,
        failed: &[u32],
    ) -> Vec<u64> {
        let mut gens = match mode {
            CkptMode::Full => return self.cleanup_incomplete(store, n_ranks),
            CkptMode::Aggregated { .. } | CkptMode::Incremental { .. } => self.generations(store),
            CkptMode::Buddy => {
                // The failed ranks' node memories died with their nodes.
                let holders: Vec<String> = failed.iter().map(|f| format!("@h{f:07}")).collect();
                for key in store.list_prefix(&self.mem_prefix()) {
                    if holders.iter().any(|h| key.ends_with(h.as_str())) {
                        store.delete(&key);
                    }
                }
                let mut gens = self.mem_generations(store);
                gens.extend(self.generations(store));
                gens
            }
        };
        // Oldest first: a diff chain's base is settled (and deleted if
        // broken) before the generations that replay it are checked.
        gens.sort_unstable();
        gens.dedup();
        let decoded = Decoded::default();
        let src = Source::Direct(store, &decoded);
        let mut removed = Vec::new();
        for generation in gens {
            let restorable = (0..n_ranks).all(|rank| {
                direct(restore_at::<()>(src, self, mode, rank, n_ranks, generation)).is_some()
            });
            if !restorable {
                store.delete_prefix(&self.generation_prefix(generation));
                store.delete_prefix(&self.key(MEM_TIER, generation, Leaf::Dir));
                removed.push(generation);
            }
        }
        removed
    }
}

// ----------------------------------------------------------------------
// The mode writer
// ----------------------------------------------------------------------

/// Per-rank checkpoint writer implementing the selected [`CkptMode`]
/// over a [`CheckpointManager`]. Call from within the owning VP.
///
/// Rank files are named by the rank the writer checkpoints *for* — the
/// checkpoint's own `rank` on a write, the `rank` argument of
/// [`load_latest`](Self::load_latest) and [`retire`](Self::retire). That
/// is `mpi.rank`, except under replication, where every replica of a
/// logical rank writes, loads and retires the logical rank's files.
/// `Aggregated` and `Buddy` exchange state with world peers and so
/// name by `mpi.rank`; replicated runs use `Full`.
pub struct ModeWriter {
    /// Naming and PFS persistence.
    pub mgr: CheckpointManager,
    /// Selected mode.
    pub mode: CkptMode,
    /// Incremental chain state: previous generation's reconstructed
    /// encoded bytes.
    prev: Option<(u64, Bytes)>,
    /// Chain position of the next write (`0` = full).
    pos: u64,
    /// Whether the most recent write was a full checkpoint.
    last_was_full: bool,
    /// Retired-but-chained generations awaiting the next full write.
    retained: Vec<u64>,
}

impl ModeWriter {
    /// Writer for a job prefix and mode.
    pub fn new(mgr: CheckpointManager, mode: CkptMode) -> Self {
        ModeWriter {
            mgr,
            mode,
            prev: None,
            pos: 0,
            last_was_full: true,
            retained: Vec::new(),
        }
    }

    /// Write one checkpoint generation under the configured mode.
    ///
    /// `model_bytes` is the per-rank state volume a modeled-compute run
    /// stands in for (`None` in real-compute runs, where the checkpoint
    /// itself carries the state): it sizes the surrogate network frames
    /// and PFS charges.
    pub fn write<'a>(
        &'a mut self,
        mpi: &'a MpiCtx,
        ckpt: &Checkpoint,
        model_bytes: Option<u64>,
    ) -> impl Future<Output = Result<(), MpiError>> + 'a {
        self.write_encoded(mpi, ckpt.rank, ckpt.iteration, ckpt.encode(), model_bytes)
    }

    /// [`write`](Self::write) for a checkpoint of `rank` at `iteration`
    /// that the caller has encoded (with [`Checkpoint::encode_from`]).
    /// The encoded buffer and its file's key are all a `Full` write
    /// allocates.
    pub async fn write_encoded(
        &mut self,
        mpi: &MpiCtx,
        rank: u32,
        iteration: u64,
        enc: Bytes,
        model_bytes: Option<u64>,
    ) -> Result<(), MpiError> {
        match self.mode {
            CkptMode::Full => self.write_full(rank, iteration, enc, model_bytes).await,
            CkptMode::Aggregated { group } => {
                self.write_agg(mpi, iteration, enc, model_bytes, group)
                    .await
            }
            CkptMode::Buddy => {
                self.write_buddy(mpi, rank, iteration, enc, model_bytes)
                    .await
            }
            CkptMode::Incremental { full_every } => {
                self.write_incr(rank, iteration, enc, model_bytes, full_every)
                    .await
            }
        }
    }

    /// Write a rank file from its encoded bytes.
    async fn write_full(
        &self,
        rank: u32,
        iteration: u64,
        enc: Bytes,
        model_bytes: Option<u64>,
    ) -> Result<(), MpiError> {
        if let Some(b) = model_bytes {
            fs::charge_write(b as usize).await;
        }
        let name = self.mgr.file_name(iteration, rank);
        self.mgr.write_encoded(name, enc).await.map_err(io_err)
    }

    async fn write_agg(
        &self,
        mpi: &MpiCtx,
        iteration: u64,
        enc: Bytes,
        model_bytes: Option<u64>,
        group: usize,
    ) -> Result<(), MpiError> {
        let w = mpi.world();
        let g0 = (mpi.rank / group) * group;
        let hi = (g0 + group).min(mpi.size);
        if mpi.rank != g0 {
            let framed = frame(&enc, model_bytes);
            let nbytes = framed.len() as u64;
            let sreq = mpi.isend(w, g0, CKPT_TAG, framed).await?;
            mpi.request_free(sreq)?;
            ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_AGG_FORWARD_BYTES, nbytes));
            return Ok(());
        }
        // Aggregator: gather the group's checkpoints (explicit sources,
        // deterministic order), coalesce into one container file whose
        // sections hold the members' bytes by refcount until the encode.
        let mut container = Checkpoint::new(mpi.rank as u32, iteration)
            .with_section(member_section(mpi.rank as u32), enc);
        let mut reqs = Vec::new();
        for m in (g0 + 1)..hi {
            reqs.push(mpi.irecv(w, Some(m), Some(CKPT_TAG))?);
        }
        let outs = mpi.waitall(&reqs).await?;
        for (m, out) in ((g0 + 1)..hi).zip(outs) {
            let msg = out.ok_or_else(|| MpiError::Io("aggregation gather lost".into()))?;
            container = container.with_section(member_section(m as u32), unframe(&msg.data)?);
            ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_AGG_GATHERS, 1));
        }
        if let Some(b) = model_bytes {
            // One coalesced charge for the whole group's state volume.
            fs::charge_write(b as usize * container.sections.len()).await;
        }
        let name = self.mgr.agg_file_name(iteration, (mpi.rank / group) as u32);
        self.mgr.write_at(name, &container).await.map_err(io_err)
    }

    async fn write_buddy(
        &self,
        mpi: &MpiCtx,
        rank: u32,
        iteration: u64,
        enc: Bytes,
        model_bytes: Option<u64>,
    ) -> Result<(), MpiError> {
        let partner = mpi.rank ^ 1;
        if partner >= mpi.size {
            // Partnerless rank: spill to the PFS on demand.
            ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_BUDDY_SPILLS, 1));
            return self.write_full(rank, iteration, enc, model_bytes).await;
        }
        let w = mpi.world();
        let framed = frame(&enc, model_bytes);
        let out = mpi
            .sendrecv(w, partner, CKPT_TAG, framed, Some(partner), Some(CKPT_TAG))
            .await?;
        let theirs = unframe(&out.data)?;
        // Node-local memory tier: free direct puts of both copies.
        let store = vp_store();
        store.put(self.mgr.mem_file_name(iteration, rank, rank), enc);
        store.put(
            self.mgr.mem_file_name(iteration, partner as u32, rank),
            theirs,
        );
        ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_BUDDY_COPIES, 1));
        Ok(())
    }

    async fn write_incr(
        &mut self,
        rank: u32,
        gen: u64,
        enc: Bytes,
        model_bytes: Option<u64>,
        full_every: u64,
    ) -> Result<(), MpiError> {
        let full = self.prev.is_none() || self.pos == 0;
        if full {
            self.write_full(rank, gen, enc.clone(), model_bytes).await?;
        } else {
            let (base_gen, base) = self.prev.as_ref().expect("diff requires a base");
            let diff = encode_diff(rank, gen, *base_gen, base, &enc);
            let n_blocks = diff
                .section(diff_sections::BLOCKS)
                .map(|b| (b.len() / 4) as u64)
                .unwrap_or(0);
            ctx::with_kernel(|k, _| {
                obs::record(k, ids::CKPT_DIFF_BLOCKS, n_blocks);
                obs::record(k, ids::CKPT_DIFF_WRITES, 1);
            });
            if let Some(b) = model_bytes {
                // Modeled dirty fraction: ~25% of the state per interval.
                fs::charge_write((b as usize / 4).max(1)).await;
            }
            let name = self.mgr.file_name(gen, rank);
            self.mgr.write_at(name, &diff).await.map_err(io_err)?;
        }
        self.prev = Some((gen, enc));
        self.last_was_full = full;
        self.pos = (self.pos + 1) % full_every.max(1);
        Ok(())
    }

    /// Retire a superseded generation after the post-write barrier (the
    /// paper's delete-previous step) of the rank the writer checkpoints
    /// for. Incremental mode defers deletions of generations the live
    /// diff chain still needs.
    pub async fn retire(&mut self, mpi: &MpiCtx, rank: u32, prev_gen: u64) -> Result<(), MpiError> {
        match self.mode {
            CkptMode::Full => self.delete_rank_file(rank, prev_gen).await,
            // The aggregator deletes the group container; members have
            // nothing on the PFS.
            CkptMode::Aggregated { group } if !mpi.rank.is_multiple_of(group) => Ok(()),
            CkptMode::Aggregated { group } => {
                let name = self.mgr.agg_file_name(prev_gen, (mpi.rank / group) as u32);
                fs::delete(&name).await.map_err(io_err)?;
                ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_DELETES, 1));
                Ok(())
            }
            CkptMode::Buddy => {
                let partner = mpi.rank ^ 1;
                if partner >= mpi.size {
                    return self.delete_rank_file(mpi.rank as u32, prev_gen).await;
                }
                // Node-local memory: free direct deletes of the two
                // copies this rank holds.
                let store = vp_store();
                store.delete(
                    &self
                        .mgr
                        .mem_file_name(prev_gen, mpi.rank as u32, mpi.rank as u32),
                );
                store.delete(
                    &self
                        .mgr
                        .mem_file_name(prev_gen, partner as u32, mpi.rank as u32),
                );
                Ok(())
            }
            CkptMode::Incremental { .. } => {
                if self.last_was_full {
                    // A new full checkpoint obsoletes the whole previous
                    // chain.
                    let mut gens = std::mem::take(&mut self.retained);
                    gens.push(prev_gen);
                    for g in gens {
                        self.delete_rank_file(rank, g).await?;
                    }
                } else {
                    // The live chain still replays through prev_gen.
                    self.retained.push(prev_gen);
                }
                Ok(())
            }
        }
    }

    async fn delete_rank_file(&self, rank: u32, generation: u64) -> Result<(), MpiError> {
        self.mgr
            .delete_generation(generation, rank)
            .await
            .map(|_| ())
            .map_err(io_err)
    }

    /// Load the newest restorable checkpoint of `rank` (the rank the
    /// writer checkpoints for) under the configured mode, deleting
    /// corrupt full-style files on the way (paper §V-B), and prime the
    /// writer's chain state. Call from within the VP before the first
    /// write of a run.
    pub async fn load_latest(&mut self, mpi: &MpiCtx, rank: u32) -> Option<Checkpoint> {
        let store = vp_store();
        let src = Source::Sim(&store);
        let (generation, bytes, ckpt, older) =
            locate(src, &self.mgr, self.mode, rank, mpi.size as u32).await?;
        let chain_len = 1 + older.len() as u64;
        ctx::with_kernel(|k, _| {
            obs::record(k, ids::CKPT_LOADS, 1);
            obs::record(k, ids::CKPT_RESTORE_CHAIN, chain_len);
        });
        if let CkptMode::Incremental { full_every } = self.mode {
            // Prime the chain state so the next writes continue it.
            self.prev = Some((generation, bytes));
            self.pos = chain_len % full_every.max(1);
            self.last_was_full = older.is_empty();
            self.retained = older;
        }
        Some(ckpt)
    }
}

// ----------------------------------------------------------------------
// Restore layout: one walk per mode, over a simulated or a direct source
// ----------------------------------------------------------------------

/// Where a restore walk reads a rank's copies from.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// Inside the simulation (call from within a VP): PFS files through
    /// the charged `fs::read`, and a full-style file that is partial or
    /// holds no valid copy is recorded as `ckpt.corrupt_discarded` and
    /// deleted.
    Sim(&'a FsStore),
    /// Outside it: [`FsStore::get`], which charges and deletes nothing,
    /// and each container or chain file is decoded once however many
    /// walks pass it (cleanup walks every rank of every generation).
    Direct(&'a FsStore, &'a Decoded),
}

/// The files a direct source has decoded, by name (behind a `Mutex`
/// only so that [`Source`], and with it the loader's future, is `Send`).
type Decoded = Mutex<BTreeMap<String, Option<Checkpoint>>>;

impl<'a> Source<'a> {
    /// The store generations are listed in. Node-memory copies are read
    /// from it directly in either source: the memory tier is free.
    fn store(self) -> &'a FsStore {
        match self {
            Source::Sim(store) | Source::Direct(store, _) => store,
        }
    }

    /// A PFS file, `None` when there is nothing to read.
    async fn read(self, name: &str) -> Option<FileState> {
        match self {
            Source::Sim(_) => fs::read(name).await.ok(),
            Source::Direct(store, _) => store.get(name),
        }
    }

    /// `data`, the bytes of file `name`, decoded.
    fn decode(self, name: &str, data: &Bytes) -> Option<Checkpoint> {
        let Source::Direct(_, decoded) = self else {
            return Checkpoint::decode_bytes(data).ok();
        };
        let decode = || Checkpoint::decode_bytes(data).ok();
        let mut decoded = decoded.lock().expect("decode memo poisoned");
        decoded
            .entry(name.to_string())
            .or_insert_with(decode)
            .clone()
    }

    /// Drop a full-style PFS file that did not restore.
    async fn discard(self, name: &str) {
        if let Source::Sim(_) = self {
            ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_CORRUPT_DISCARDED, 1));
            let _ = fs::delete(name).await;
        }
    }
}

/// What a walk makes of a rank's copy: a restore decodes it, cleanup
/// only checks it.
trait Take: Sized {
    /// From an encoded checkpoint; `None` when it is corrupt.
    fn copy(bytes: &Bytes) -> Option<Self>;
    /// From a full checkpoint and the diffs (newest first) that replay
    /// onto it.
    fn chain(base: (Bytes, Checkpoint), frames: &[DiffFile]) -> Option<Self>;
}

/// Restoring: the encoded bytes and their decoding.
impl Take for (Bytes, Checkpoint) {
    fn copy(bytes: &Bytes) -> Option<Self> {
        let ckpt = Checkpoint::decode_bytes(bytes).ok()?;
        Some((bytes.clone(), ckpt))
    }

    fn chain(base: (Bytes, Checkpoint), frames: &[DiffFile]) -> Option<Self> {
        restore_chain(base, frames)
    }
}

/// Checking: one `verify` pass per copy, no chain replay.
impl Take for () {
    fn copy(bytes: &Bytes) -> Option<()> {
        Checkpoint::verify(bytes).ok()
    }

    fn chain(_: (Bytes, Checkpoint), _: &[DiffFile]) -> Option<()> {
        Some(())
    }
}

/// `rank`'s state at `generation` under `mode` — each mode's restore
/// layout, written once:
///
/// * `full`: the rank file;
/// * `agg:G`: the rank's [`member_section`] of its group's container;
/// * `buddy`: the rank's own node-memory copy, then its partner's; a
///   partnerless rank's spill file;
/// * `incr:K`: the `ibase` chain down to a full rank file, every base
///   strictly older than the generation naming it (so a cycle is a
///   corrupt candidate, not an endless walk).
///
/// Returns it with the older generations its chain replays (none
/// except for incremental diffs).
async fn restore_at<T: Take>(
    src: Source<'_>,
    mgr: &CheckpointManager,
    mode: CkptMode,
    rank: u32,
    n_ranks: u32,
    generation: u64,
) -> Option<(T, Vec<u64>)> {
    let copy = match mode {
        CkptMode::Aggregated { group } => {
            let name = mgr.agg_file_name(generation, rank / group.max(1) as u32);
            full_style(src, &name, |data| {
                let container = src.decode(&name, data)?;
                T::copy(container.section(&member_section(rank))?)
            })
            .await
        }
        CkptMode::Buddy if rank ^ 1 < n_ranks => [rank, rank ^ 1].into_iter().find_map(|holder| {
            let name = mgr.mem_file_name(generation, rank, holder);
            match src.store().get(&name)? {
                FileState::Complete(data) => T::copy(&data),
                FileState::Partial(_) => None,
            }
        }),
        CkptMode::Full | CkptMode::Buddy => {
            full_style(src, &mgr.file_name(generation, rank), T::copy).await
        }
        CkptMode::Incremental { .. } => {
            let (mut frames, mut older) = (Vec::new(), Vec::new());
            let mut cur = generation;
            let base = loop {
                let name = mgr.file_name(cur, rank);
                let Some(FileState::Complete(raw)) = src.read(&name).await else {
                    return None;
                };
                let ckpt = src.decode(&name, &raw)?;
                let Some(diff) = decode_diff(&ckpt) else {
                    break (raw, ckpt);
                };
                if diff.base_gen >= cur {
                    return None;
                }
                cur = diff.base_gen;
                older.push(cur);
                frames.push(diff);
            };
            return Some((T::chain(base, &frames)?, older));
        }
    };
    Some((copy?, Vec::new()))
}

/// A full-style PFS file — a rank file, a spill or an `agg` container —
/// and the rank's copy `pick` finds in its bytes. A file that is
/// partial or yields no copy is discarded.
async fn full_style<T>(
    src: Source<'_>,
    name: &str,
    pick: impl FnOnce(&Bytes) -> Option<T>,
) -> Option<T> {
    if let FileState::Complete(data) = src.read(name).await? {
        if let Some(copy) = pick(&data) {
            return Some(copy);
        }
    }
    src.discard(name).await;
    None
}

/// `rank`'s newest restorable checkpoint under `mode`: the mode's
/// candidate generations, newest first, through [`restore_at`]. Returns
/// the generation, its encoded bytes and decoding, and the older
/// generations its chain replays.
async fn locate(
    src: Source<'_>,
    mgr: &CheckpointManager,
    mode: CkptMode,
    rank: u32,
    n_ranks: u32,
) -> Option<(u64, Bytes, Checkpoint, Vec<u64>)> {
    let candidates = match mode {
        CkptMode::Aggregated { .. } => mgr.generations(src.store()),
        CkptMode::Buddy if rank ^ 1 < n_ranks => mgr.mem_generations(src.store()),
        CkptMode::Full | CkptMode::Buddy | CkptMode::Incremental { .. } => {
            mgr.generations_for(src.store(), rank)
        }
    };
    for generation in candidates {
        let found = restore_at(src, mgr, mode, rank, n_ranks, generation).await;
        if let Some(((bytes, ckpt), older)) = found {
            return Some((generation, bytes, ckpt, older));
        }
    }
    None
}

/// Run a walk over [`Source::Direct`], which never pends, to its end.
fn direct<T>(walk: impl Future<Output = T>) -> T {
    match pin!(walk).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => unreachable!("direct store reads never pend"),
    }
}

/// A checkpoint resolved from the store without simulated I/O.
pub struct ResolvedCheckpoint {
    /// The reconstructed checkpoint.
    pub ckpt: Checkpoint,
    /// Generation it captures.
    pub generation: u64,
    /// Restore-chain length (1 except for incremental diffs).
    pub chain_len: usize,
}

/// Resolve `rank`'s newest restorable checkpoint directly from the
/// store: the walk [`ModeWriter::load_latest`] makes in the simulation,
/// over reads that charge and delete nothing — usable from tests and
/// benches to inspect final state regardless of mode.
pub fn resolve_latest(
    store: &FsStore,
    mgr: &CheckpointManager,
    mode: CkptMode,
    rank: u32,
    n_ranks: u32,
) -> Option<ResolvedCheckpoint> {
    let decoded = Decoded::default();
    let src = Source::Direct(store, &decoded);
    let (generation, _, ckpt, older) = direct(locate(src, mgr, mode, rank, n_ranks))?;
    Some(ResolvedCheckpoint {
        ckpt,
        generation,
        chain_len: 1 + older.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_diff_round_trips() {
        let base = vec![7u8; 1000];
        let mut cur = base.clone();
        cur[0] = 1;
        cur[511] = 2;
        cur.extend_from_slice(&[9u8; 100]);
        let (idx, data) = block_diff(&base, &cur, DIFF_BLOCK);
        // Blocks 0 (byte 0), 1 (byte 511), 3 (tail shrink + growth) and 4
        // (extension) change; block 2 is untouched.
        assert!(idx.contains(&0) && idx.contains(&1) && !idx.contains(&2));
        let out = apply_diff(&base, &idx, &data, cur.len(), DIFF_BLOCK);
        assert_eq!(out.as_deref(), Some(&cur[..]));
    }

    #[test]
    fn block_diff_handles_shrink() {
        let base = vec![3u8; 700];
        let cur = vec![3u8; 300];
        let (idx, data) = block_diff(&base, &cur, DIFF_BLOCK);
        // A pure shrink needs no changed blocks: `new_len` truncates.
        assert!(idx.is_empty());
        let out = apply_diff(&base, &idx, &data, cur.len(), DIFF_BLOCK);
        assert_eq!(out.as_deref(), Some(&cur[..]));
        // Shrink plus a tail edit still round-trips.
        let mut cur2 = cur.clone();
        cur2[299] = 9;
        let (idx, data) = block_diff(&base, &cur2, DIFF_BLOCK);
        assert_eq!(idx, vec![1]);
        assert_eq!(
            apply_diff(&base, &idx, &data, cur2.len(), DIFF_BLOCK),
            Some(cur2)
        );
    }

    #[test]
    fn identical_bytes_produce_empty_diff() {
        let b = vec![5u8; 4096];
        let (idx, data) = block_diff(&b, &b, DIFF_BLOCK);
        assert!(idx.is_empty() && data.is_empty());
        assert_eq!(apply_diff(&b, &idx, &data, b.len(), DIFF_BLOCK), Some(b));
    }

    #[test]
    fn diff_files_are_valid_checkpoints() {
        let base = Checkpoint::new(3, 10)
            .with_section("grid", Bytes::from(vec![1u8; 900]))
            .encode();
        let cur = Checkpoint::new(3, 20)
            .with_section("grid", Bytes::from(vec![2u8; 900]))
            .encode();
        let diff = encode_diff(3, 20, 10, &base, &cur);
        let enc = diff.encode();
        let back = Checkpoint::decode(&enc).unwrap();
        let d = decode_diff(&back).expect("diff sections");
        assert_eq!(d.base_gen, 10);
        assert_eq!(d.new_len, cur.len());
        let out = apply_diff(&base, &d.indices, &d.data, d.new_len, DIFF_BLOCK);
        assert_eq!(out.map(Bytes::from), Some(cur.clone()));
        // Regular checkpoints are not diffs.
        assert!(decode_diff(&Checkpoint::decode(&base).unwrap()).is_none());
    }

    #[test]
    fn framing_round_trips_and_pads() {
        let enc = Bytes::from(vec![9u8; 40]);
        let f = frame(&enc, Some(4096));
        assert_eq!(f.len(), 4096, "padded to the modeled volume");
        assert_eq!(unframe(&f).unwrap(), enc);
        let f = frame(&enc, None);
        assert_eq!(f.len(), 48, "unpadded in real-compute runs");
        assert_eq!(unframe(&f).unwrap(), enc);
        assert!(unframe(&f.slice(..7)).is_err());
    }

    /// The length prefix is input from another rank: a value no frame
    /// can hold (including ones whose `+ 8` overflows) is an error, not
    /// an out-of-range slice.
    #[test]
    fn unframe_rejects_lengths_past_the_frame() {
        for len in [41u64, 1 << 40, u64::MAX - 7, u64::MAX] {
            let mut f = frame(&Bytes::from(vec![9u8; 40]), None).to_vec();
            f[..8].copy_from_slice(&len.to_le_bytes());
            assert!(unframe(&f.into()).is_err(), "length {len}");
        }
    }

    #[test]
    fn unframed_payload_shares_an_unpadded_frame_only() {
        let enc = Bytes::from(vec![9u8; 4096]);
        let f = frame(&enc, None);
        let inner = unframe(&f).unwrap();
        assert!(f.as_ptr_range().contains(&inner.as_ptr()), "zero-copy");
        let f = frame(&enc, Some(1 << 16));
        let inner = unframe(&f).unwrap();
        assert!(!f.as_ptr_range().contains(&inner.as_ptr()), "copied out");
        assert_eq!(inner, enc);
    }

    #[test]
    fn malformed_diffs_are_rejected_not_indexed() {
        let base = vec![7u8; 1000];
        let mut cur = base.clone();
        cur[300] = 1;
        let (idx, data) = block_diff(&base, &cur, DIFF_BLOCK);
        assert_eq!(idx, vec![1]);
        let apply =
            |idx: &[u32], data: &[u8], new_len| apply_diff(&base, idx, data, new_len, DIFF_BLOCK);
        assert_eq!(apply(&idx, &data, 1000), Some(cur));
        // Block index at or past the end of the result.
        assert_eq!(apply(&[4], &data, 1000), None);
        assert_eq!(apply(&[u32::MAX], &data, 1000), None);
        // Fewer data bytes than the indexed blocks need.
        assert_eq!(apply(&idx, &data[..255], 1000), None);
        assert_eq!(apply(&[0, 1], &data, 1000), None);
        // A length nothing in the diff could fill.
        assert_eq!(apply(&idx, &data, 1000 + 256 + 1), None);
        assert_eq!(apply(&idx, &data, usize::MAX), None);
    }

    #[test]
    fn agg_cleanup_requires_all_group_containers() {
        let store = FsStore::new();
        let mgr = CheckpointManager::new("job");
        let member = |r: u32| Checkpoint::new(r, 5).encode();
        // Generation 5: group 0 present, group 1 missing (4 ranks, G=2).
        let c0 = Checkpoint::new(0, 5)
            .with_section(member_section(0), member(0))
            .with_section(member_section(1), member(1));
        store.put(mgr.agg_file_name(5, 0), c0.encode());
        let removed = mgr.cleanup_between_runs(&store, 4, CkptMode::Aggregated { group: 2 }, &[]);
        assert_eq!(removed, vec![5]);
        assert!(!store.exists(&mgr.agg_file_name(5, 0)));
    }

    #[test]
    fn buddy_cleanup_purges_failed_holders_but_keeps_partner_copies() {
        let store = FsStore::new();
        let mgr = CheckpointManager::new("job");
        let enc = |r: u32| Checkpoint::new(r, 3).encode();
        // 2 ranks, both hold both copies.
        for holder in 0..2u32 {
            for owner in 0..2u32 {
                store.put(mgr.mem_file_name(3, owner, holder), enc(owner));
            }
        }
        // Rank 1's node died: its held copies vanish, but rank 0 still
        // holds rank 1's state, so the generation survives.
        let removed = mgr.cleanup_between_runs(&store, 2, CkptMode::Buddy, &[1]);
        assert!(removed.is_empty());
        assert!(!store.exists(&mgr.mem_file_name(3, 1, 1)));
        assert!(store.exists(&mgr.mem_file_name(3, 1, 0)));
        // Rank 0's node dies too: every copy is gone, nothing restorable.
        let removed = mgr.cleanup_between_runs(&store, 2, CkptMode::Buddy, &[0, 1]);
        assert!(removed.is_empty(), "fully-lost generations just vanish");
        assert!(store.list_prefix(&mgr.mem_prefix()).is_empty());
        assert!(resolve_latest(&store, &mgr, CkptMode::Buddy, 0, 2).is_none());
        // A generation that is enumerable but missing one rank's copies
        // is torn down wholesale.
        store.put(mgr.mem_file_name(4, 0, 0), enc(0));
        let removed = mgr.cleanup_between_runs(&store, 2, CkptMode::Buddy, &[]);
        assert_eq!(removed, vec![4]);
    }

    #[test]
    fn incremental_cleanup_drops_broken_chains() {
        let store = FsStore::new();
        let mgr = CheckpointManager::new("job");
        let full = Checkpoint::new(0, 10).with_section("s", Bytes::from_static(b"abc"));
        let full_enc = full.encode();
        store.put(mgr.file_name(10, 0), full_enc.clone());
        let cur = Checkpoint::new(0, 20)
            .with_section("s", Bytes::from_static(b"xyz"))
            .encode();
        store.put(
            mgr.file_name(20, 0),
            encode_diff(0, 20, 10, &full_enc, &cur).encode(),
        );
        // A diff whose base generation is gone.
        store.put(
            mgr.file_name(30, 0),
            encode_diff(0, 30, 25, &full_enc, &cur).encode(),
        );
        let removed =
            mgr.cleanup_between_runs(&store, 1, CkptMode::Incremental { full_every: 4 }, &[]);
        assert_eq!(removed, vec![30]);
        let r = resolve_latest(&store, &mgr, CkptMode::Incremental { full_every: 4 }, 0, 1)
            .expect("chain resolves");
        assert_eq!(r.generation, 20);
        assert_eq!(r.chain_len, 2);
        assert_eq!(r.ckpt.section("s").unwrap(), &Bytes::from_static(b"xyz"));
    }
}
