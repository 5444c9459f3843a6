//! Checkpoint naming, writing, loading and cleanup.
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
use xsim_obs::service as obs;
use xsim_obs::{ids, ObsSpan};

/// Virtual clock of the current VP if metrics are enabled, else `None`.
fn obs_clock() -> Option<SimTime> {
    ctx::with_kernel(|k, rank| obs::enabled(k).then(|| k.vp(rank).clock()))
}

/// Name of the file carrying the virtual exit time across restarts
/// (paper §IV-E: "xSim optionally writes out the simulated time of the
/// application exit … to a file. This file can be read in upon restart").
pub const EXIT_TIME_FILE: &str = "xsim/exit_time";

/// Naming and persistence of one application's checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    /// Job-unique prefix separating this application's checkpoints.
    pub prefix: String,
}

impl CheckpointManager {
    /// Manager for a job prefix (e.g. `"heat"`).
    pub fn new(prefix: &str) -> Self {
        CheckpointManager {
            prefix: prefix.to_string(),
        }
    }

    /// Path prefix of one checkpoint generation.
    pub fn generation_prefix(&self, iteration: u64) -> String {
        format!("{}/ckpt/{iteration:020}/", self.prefix)
    }

    /// Path of one rank's file within a generation.
    pub fn file_name(&self, iteration: u64, rank: u32) -> String {
        format!("{}rank{rank:07}", self.generation_prefix(iteration))
    }

    /// Write a checkpoint under `name` (simulated I/O, charged by the FS
    /// cost model), recording the checkpoint metrics and commit span.
    /// Call from within a VP.
    pub async fn write_at(&self, name: &str, ckpt: &Checkpoint) -> Result<(), FsError> {
        self.write_encoded(name, ckpt.encode()).await
    }

    /// [`write_at`](Self::write_at) for a checkpoint the caller has
    /// already encoded (the incremental writer keeps the encoded bytes
    /// as its diff base, so it encodes once and hands them over).
    pub async fn write_encoded(&self, name: &str, data: Bytes) -> Result<(), FsError> {
        let nbytes = data.len() as u64;
        let t0 = obs_clock();
        fs::write(name, data).await?;
        if let Some(t0) = t0 {
            ctx::with_kernel(|k, rank| {
                let t1 = k.vp(rank).clock();
                obs::record(k, ids::CKPT_WRITES, 1);
                obs::record(k, ids::CKPT_BYTES_WRITTEN, nbytes);
                obs::record(k, ids::CKPT_COMMIT_NS, (t1 - t0).as_nanos());
                obs::span(
                    k,
                    ObsSpan {
                        name: "ckpt.commit",
                        cat: "ckpt",
                        rank,
                        start: t0,
                        end: t1,
                        bytes: nbytes,
                    },
                );
            });
        }
        Ok(())
    }

    /// Delete this rank's file of an older generation (the post-barrier
    /// cleanup of the paper's protocol). Missing files are fine.
    pub async fn delete_generation(&self, iteration: u64, rank: u32) -> Result<bool, FsError> {
        let existed = fs::delete(&self.file_name(iteration, rank)).await?;
        ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_DELETES, 1));
        Ok(existed)
    }

    /// Checkpoint generations present on storage, newest first. Iterates
    /// generation *prefixes* (O(generations · log files)) instead of the
    /// whole listing, so 32k ranks restarting concurrently stay O(P).
    pub fn generations(&self, store: &FsStore) -> Vec<u64> {
        let prefix = format!("{}/ckpt/", self.prefix);
        let mut gens = Vec::new();
        let mut cursor = prefix.clone();
        while let Some(key) = store.first_key_at_or_after(&cursor) {
            let Some(rest) = key.strip_prefix(&prefix) else {
                break;
            };
            let Some((gen_s, _)) = rest.split_once('/') else {
                break;
            };
            let Ok(g) = gen_s.parse::<u64>() else { break };
            gens.push(g);
            // Skip past every file of this generation ('\u{7f}' sorts
            // after the rank file names' ASCII).
            cursor = format!("{prefix}{gen_s}/\u{7f}");
        }
        gens.reverse();
        gens
    }

    /// Iterations for which this rank has a file on storage, newest
    /// first (direct store access — also usable outside the simulation).
    pub fn generations_for(&self, store: &FsStore, rank: u32) -> Vec<u64> {
        self.generations(store)
            .into_iter()
            .filter(|&g| store.exists(&self.file_name(g, rank)))
            .collect()
    }

    /// Load the newest valid checkpoint for `rank`, deleting corrupted
    /// ones on the way (paper §V-B). Returns `None` when no valid
    /// checkpoint exists (cold start). Call from within a VP.
    pub async fn load_latest(&self, store: &Arc<FsStore>, rank: u32) -> Option<Checkpoint> {
        for generation in self.generations_for(store, rank) {
            let name = self.file_name(generation, rank);
            match fs::read(&name).await {
                Ok(FileState::Complete(data)) => match Checkpoint::decode_bytes(&data) {
                    Ok(c) => {
                        ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_LOADS, 1));
                        return Some(c);
                    }
                    Err(_) => {
                        // Corrupted checkpoint: delete and fall back.
                        ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_CORRUPT_DISCARDED, 1));
                        let _ = fs::delete(&name).await;
                    }
                },
                Ok(FileState::Partial(_)) => {
                    // Exists but incomplete — also "corrupted" per the
                    // paper's definition.
                    ctx::with_kernel(|k, _| obs::record(k, ids::CKPT_CORRUPT_DISCARDED, 1));
                    let _ = fs::delete(&name).await;
                }
                Err(_) => {}
            }
        }
        None
    }

    /// Remove checkpoint generations that are missing files ("incomplete
    /// checkpoints (missing checkpoint files due to a failure during
    /// checkpointing) are deleted using a shell script", §V-B) or that
    /// contain partial/corrupt files. Runs *outside* the simulation,
    /// between an abort and the restart. Returns the generations
    /// removed.
    pub fn cleanup_incomplete(&self, store: &FsStore, n_ranks: u32) -> Vec<u64> {
        let prefix = format!("{}/ckpt/", self.prefix);
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
        Bytes::from(t.as_nanos().to_le_bytes().to_vec()),
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
        store.put(&m.file_name(generation, rank), c.encode());
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
        store.put(&m.file_name(1, 1), Bytes::from_static(b"garbage"));
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
