//! Checkpoint naming, writing and cleanup (loading walks each mode's
//! layout, in [`crate::modes`]).
//!
//! The application protocol of the paper (§V-B): a checkpoint is written
//! every C iterations; "after writing out a checkpoint, a global barrier
//! synchronizes all processes, such that the previous checkpoint can be
//! deleted safely"; on restart, the application "automatically loads the
//! last checkpoint and automatically deletes any corrupted checkpoint";
//! incomplete checkpoint *sets* (files missing because a rank died
//! before writing) are removed between runs by a cleanup step.

use crate::codec::Checkpoint;
use std::sync::Arc;
use xsim_core::{ctx, Bytes, SimTime};
use xsim_fs::{self as fs, FileState, FsError, FsStore};
use xsim_obs::ids;
use xsim_obs::service as obs;

/// Virtual clock of the current VP if observation is on, else `None`.
fn obs_clock() -> Option<SimTime> {
    ctx::with_kernel(|k, rank| obs::enabled(k).then(|| k.vp(rank).clock()))
}

/// Name of the file carrying the virtual exit time across restarts
/// (paper §IV-E: "xSim optionally writes out the simulated time of the
/// application exit … to a file. This file can be read in upon restart").
pub(crate) const EXIT_TIME_FILE: &str = "xsim/exit_time";

/// Naming and persistence of one application's checkpoints.
///
/// Every key it names — a rank file, an `agg` container, a buddy
/// memory copy, a generation's directory — comes from one formatter,
/// `write_key`: `{prefix}/{tier}/{generation:020}/{leaf}`,
/// built at its exact length. A clone shares the prefix by refcount.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    /// Job-unique prefix separating this application's checkpoints.
    pub prefix: Arc<str>,
}

/// The tier of the PFS checkpoint files.
pub(crate) const PFS_TIER: &str = "ckpt";
/// The tier of the node-local memory copies (buddy mode).
pub(crate) const MEM_TIER: &str = "mem";

/// The file a checkpoint key names within its generation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Leaf {
    /// None: the generation's directory prefix (ends in `/`).
    Dir,
    /// `rank{rank:07}`: one rank's file.
    Rank(u32),
    /// `agg{group:07}`: one group's aggregated container.
    Agg(u32),
    /// `r{owner:07}@h{holder:07}`: `owner`'s state in `holder`'s memory.
    Mem {
        /// Whose state.
        owner: u32,
        /// Whose node memory.
        holder: u32,
    },
}

/// Characters of `{v:07}`.
fn padded7(v: u32) -> usize {
    (v.checked_ilog10().unwrap_or(0) as usize + 1).max(7)
}

/// Append `v` in decimal, zero-padded to `width` ≤ 20 digits: what
/// `write!(out, "{v:0width$}")` appends, without the formatter's
/// per-character padding.
fn push_padded(out: &mut String, mut v: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let start = start.min(digits.len() - width);
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

impl Leaf {
    /// Characters the leaf adds after the generation's `/`.
    fn len(self) -> usize {
        match self {
            Leaf::Dir => 0,
            Leaf::Rank(rank) => "rank".len() + padded7(rank),
            Leaf::Agg(group) => "agg".len() + padded7(group),
            Leaf::Mem { owner, holder } => "r@h".len() + padded7(owner) + padded7(holder),
        }
    }
}

impl CheckpointManager {
    /// Manager for a job prefix (e.g. `"heat"`).
    pub fn new(prefix: &str) -> Self {
        CheckpointManager {
            prefix: prefix.into(),
        }
    }

    /// Append the key of `leaf` in `generation` of `tier` to `out`: the
    /// one formatter of checkpoint names.
    pub(crate) fn write_key(&self, out: &mut String, tier: &str, generation: u64, leaf: Leaf) {
        out.push_str(&self.prefix);
        out.push('/');
        out.push_str(tier);
        out.push('/');
        push_padded(out, generation, 20);
        out.push('/');
        match leaf {
            Leaf::Dir => {}
            Leaf::Rank(rank) => {
                out.push_str("rank");
                push_padded(out, rank.into(), 7);
            }
            Leaf::Agg(group) => {
                out.push_str("agg");
                push_padded(out, group.into(), 7);
            }
            Leaf::Mem { owner, holder } => {
                out.push('r');
                push_padded(out, owner.into(), 7);
                out.push_str("@h");
                push_padded(out, holder.into(), 7);
            }
        }
    }

    /// The key of `leaf` in `generation` of `tier`, allocated once at its
    /// exact length.
    pub(crate) fn key(&self, tier: &str, generation: u64, leaf: Leaf) -> String {
        // `/{tier}/`, the 20 generation digits and their `/`.
        let len = self.prefix.len() + tier.len() + 23 + leaf.len();
        let mut key = String::with_capacity(len);
        self.write_key(&mut key, tier, generation, leaf);
        debug_assert_eq!(key.len(), len);
        key
    }

    /// Path prefix of one checkpoint generation.
    pub fn generation_prefix(&self, iteration: u64) -> String {
        self.key(PFS_TIER, iteration, Leaf::Dir)
    }

    /// Path of one rank's file within a generation.
    pub fn file_name(&self, iteration: u64, rank: u32) -> String {
        self.key(PFS_TIER, iteration, Leaf::Rank(rank))
    }

    /// Write a checkpoint under `name` (simulated I/O, charged by the FS
    /// cost model), recording the checkpoint metrics; its trace span is
    /// the write's own `FileIo` interval. Call from within a VP.
    pub(crate) async fn write_at(&self, name: String, ckpt: &Checkpoint) -> Result<(), FsError> {
        self.write_encoded(name, ckpt.encode()).await
    }

    /// [`write_at`](Self::write_at) for a checkpoint the caller has
    /// already encoded (the incremental writer keeps the encoded bytes
    /// as its diff base, so it encodes once and hands them over). The
    /// store keeps `name` as the file's key.
    pub(crate) async fn write_encoded(&self, name: String, data: Bytes) -> Result<(), FsError> {
        let nbytes = data.len() as u64;
        let t0 = obs_clock();
        fs::write(name, data).await?;
        if let Some(t0) = t0 {
            ctx::with_kernel(|k, rank| {
                let t1 = k.vp(rank).clock();
                obs::record(k, ids::CKPT_WRITES, 1);
                obs::record(k, ids::CKPT_BYTES_WRITTEN, nbytes);
                obs::record(k, ids::CKPT_COMMIT_NS, (t1 - t0).as_nanos());
            });
        }
        Ok(())
    }

    /// Delete this rank's file of an older generation (the post-barrier
    /// cleanup of the paper's protocol). Missing files are fine.
    pub(crate) async fn delete_generation(
        &self,
        iteration: u64,
        rank: u32,
    ) -> Result<bool, FsError> {
        let existed = fs::delete(&self.file_name(iteration, rank)).await?;
        ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_DELETES, 1));
        Ok(existed)
    }

    /// Checkpoint generations present on storage, newest first.
    pub(crate) fn generations(&self, store: &FsStore) -> Vec<u64> {
        self.generations_in(store, PFS_TIER, Leaf::Dir)
    }

    /// Iterations for which this rank has a file on storage, newest
    /// first (direct store access — also usable outside the simulation).
    pub(crate) fn generations_for(&self, store: &FsStore, rank: u32) -> Vec<u64> {
        self.generations_in(store, PFS_TIER, Leaf::Rank(rank))
    }

    /// Generations stored under `tier` (keys `{prefix}/{tier}/<generation>/…`)
    /// that hold `leaf`, newest first ([`Leaf::Dir`]: every one). One
    /// walk under one store lock, over generation *prefixes* (O(generations
    /// · log files), not the whole listing, so 32k ranks restarting
    /// concurrently stay O(P)); the cursor and the probed key are
    /// rewritten in one buffer, and the listed names are borrowed.
    pub(crate) fn generations_in(&self, store: &FsStore, tier: &str, leaf: Leaf) -> Vec<u64> {
        let dir_len = self.prefix.len() + tier.len() + 2;
        // Room for the longer of a probed key and a cursor.
        let mut buf = String::with_capacity(dir_len + 22 + leaf.len());
        self.write_key(&mut buf, tier, 0, Leaf::Dir);
        buf.truncate(dir_len);
        let mut gens = Vec::new();
        store.names(|names| {
            while let Some(key) = names.first_at_or_after(&buf) {
                let Some(rest) = key.strip_prefix(&buf[..dir_len]) else {
                    break;
                };
                let Some((gen_s, _)) = rest.split_once('/') else {
                    break;
                };
                let Ok(g) = gen_s.parse::<u64>() else { break };
                if let Leaf::Dir = leaf {
                    gens.push(g);
                } else {
                    buf.clear();
                    self.write_key(&mut buf, tier, g, leaf);
                    if names.contains(&buf) {
                        gens.push(g);
                    }
                }
                // Skip past every file of this generation ('\u{7f}' sorts
                // after the file names' ASCII).
                buf.truncate(dir_len);
                buf.push_str(gen_s);
                buf.push_str("/\u{7f}");
            }
        });
        gens.reverse();
        gens
    }

    /// Remove checkpoint generations that are missing files ("incomplete
    /// checkpoints (missing checkpoint files due to a failure during
    /// checkpointing) are deleted using a shell script", §V-B) or that
    /// contain partial/corrupt files. Runs *outside* the simulation,
    /// between an abort and the restart. Returns the generations
    /// removed.
    pub fn cleanup_incomplete(&self, store: &FsStore, n_ranks: u32) -> Vec<u64> {
        let prefix = format!("{}/{PFS_TIER}/", self.prefix);
        let mut by_gen: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
        for name in store.list_prefix(&prefix) {
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Some((gen_s, _)) = rest.split_once('/') {
                    if let Ok(g) = gen_s.parse::<u64>() {
                        by_gen.entry(g).or_default().push(name);
                    }
                }
            }
        }
        let mut removed = Vec::new();
        for (generation, files) in by_gen {
            let complete = files.len() as u32 == n_ranks
                && files.iter().all(|f| {
                    matches!(store.get(f), Some(FileState::Complete(data))
                        if Checkpoint::verify(&data).is_ok())
                });
            if !complete {
                store.delete_prefix(&self.generation_prefix(generation));
                removed.push(generation);
            }
        }
        removed
    }

    /// Latest generation that is complete and valid across all ranks
    /// (direct store access).
    pub fn latest_complete(&self, store: &FsStore, n_ranks: u32) -> Option<u64> {
        let gens = self.generations(store);
        gens.into_iter().find(|&g| {
            (0..n_ranks).all(|r| {
                matches!(store.get(&self.file_name(g, r)), Some(FileState::Complete(d))
                    if Checkpoint::verify(&d).is_ok())
            })
        })
    }
}

/// Persist the virtual exit time of an aborted run (paper §IV-E).
pub fn write_exit_time(store: &FsStore, t: xsim_core::SimTime) {
    store.put(
        EXIT_TIME_FILE,
        Bytes::copy_from_slice(&t.as_nanos().to_le_bytes()),
    );
}

/// Read back the persisted exit time, if any.
pub fn read_exit_time(store: &FsStore) -> Option<xsim_core::SimTime> {
    match store.get(EXIT_TIME_FILE)? {
        FileState::Complete(d) if d.len() == 8 => Some(xsim_core::SimTime(u64::from_le_bytes(
            d[..8].try_into().expect("8 bytes"),
        ))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_valid(store: &FsStore, m: &CheckpointManager, generation: u64, rank: u32) {
        let c = Checkpoint::new(rank, generation).with_section("d", Bytes::from_static(b"x"));
        store.put(m.file_name(generation, rank), c.encode());
    }

    #[test]
    fn keys_match_the_format_strings() {
        for v in [0, 7, 1_234_567, 12_345_678, u32::MAX as u64, u64::MAX] {
            let mut out = String::new();
            push_padded(&mut out, v, 20);
            assert_eq!(out, format!("{v:020}"));
            if let Ok(v) = u32::try_from(v) {
                let mut out = String::new();
                push_padded(&mut out, v.into(), 7);
                assert_eq!(out, format!("{v:07}"));
                assert_eq!(out.len(), padded7(v));
            }
        }
        let m = CheckpointManager::new("job");
        assert_eq!(
            m.file_name(250, 12),
            "job/ckpt/00000000000000000250/rank0000012"
        );
        assert_eq!(m.generation_prefix(5), "job/ckpt/00000000000000000005/");
        assert_eq!(
            m.key(
                MEM_TIER,
                3,
                Leaf::Mem {
                    owner: 1,
                    holder: 12_345_678
                }
            ),
            "job/mem/00000000000000000003/r0000001@h12345678"
        );
        assert_eq!(
            m.key(PFS_TIER, u64::MAX, Leaf::Agg(u32::MAX)),
            format!("job/ckpt/{:020}/agg{:07}", u64::MAX, u32::MAX)
        );
    }

    #[test]
    fn naming_is_sortable() {
        let m = CheckpointManager::new("heat");
        assert!(m.file_name(2, 0) > m.file_name(1, 0));
        assert!(m.file_name(10, 0) > m.file_name(9, 0), "zero-padding");
    }

    #[test]
    fn generations_listed_newest_first() {
        let store = FsStore::new();
        let m = CheckpointManager::new("job");
        for g in [5, 1, 3] {
            put_valid(&store, &m, g, 0);
        }
        assert_eq!(m.generations_for(&store, 0), vec![5, 3, 1]);
        assert!(m.generations_for(&store, 1).is_empty());
    }

    #[test]
    fn cleanup_removes_incomplete_sets() {
        let store = FsStore::new();
        let m = CheckpointManager::new("job");
        // Generation 1: complete for 2 ranks. Generation 2: missing rank 1.
        put_valid(&store, &m, 1, 0);
        put_valid(&store, &m, 1, 1);
        put_valid(&store, &m, 2, 0);
        let removed = m.cleanup_incomplete(&store, 2);
        assert_eq!(removed, vec![2]);
        assert_eq!(m.latest_complete(&store, 2), Some(1));
    }

    #[test]
    fn cleanup_removes_corrupt_sets() {
        let store = FsStore::new();
        let m = CheckpointManager::new("job");
        put_valid(&store, &m, 1, 0);
        store.put(m.file_name(1, 1), Bytes::from_static(b"garbage"));
        assert_eq!(m.cleanup_incomplete(&store, 2), vec![1]);
        assert!(m.latest_complete(&store, 2).is_none());
    }

    #[test]
    fn cleanup_removes_partial_files() {
        let store = FsStore::new();
        let m = CheckpointManager::new("job");
        put_valid(&store, &m, 4, 0);
        store.begin_write(&m.file_name(4, 1)); // never committed
        assert_eq!(m.cleanup_incomplete(&store, 2), vec![4]);
    }

    #[test]
    fn exit_time_round_trips() {
        let store = FsStore::new();
        assert!(read_exit_time(&store).is_none());
        write_exit_time(&store, xsim_core::SimTime::from_secs(7957));
        assert_eq!(
            read_exit_time(&store),
            Some(xsim_core::SimTime::from_secs(7957))
        );
    }
}
