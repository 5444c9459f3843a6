//! The heat3d workload under replication-based protection.
//!
//! The solver is [`crate::heat3d`]'s, unchanged, run over a replica team
//! ([`xsim_mpi::replication`]) instead of the world communicator: the
//! application runs on *logical* ranks, and its halo exchanges and
//! restart-agreement/barrier collectives go through the replicated
//! message layer, so replica deaths fail over without an
//! application-visible error. This is the workload behind the
//! FIT × protection-scheme ablation (crossover between checkpoint
//! overhead and replication overhead).
//!
//! Protection composition per scheme:
//!
//! * [`ProtectionScheme::Replication`] — replicas absorb individual
//!   deaths; a whole-team death surfaces as `MPI_ERR_PROC_FAILED`. With
//!   [`RepHeatConfig::ckpt`] the run additionally checkpoints, so a
//!   team death resumes from the last checkpoint instead of scratch
//!   (the composition the replication-viability literature assumes);
//!   without it, survival relies on the replicas alone.
//! * [`ProtectionScheme::Partial`] — replicas for the critical set,
//!   checkpoint/restart for everyone (mandatory: it is the fallback for
//!   the unprotected ranks): PartRePer-style composition. A non-critical
//!   (singleton) rank death surfaces the error and the campaign
//!   restarts from the last checkpoint.
//!
//! Checkpoints and the completion marker are written by **every live
//! replica** of a logical rank, not just its current leader: replicas of
//! a rank hold identical state, so the writes are byte-idempotent, and
//! this sidesteps the window where a dead leader has not yet crossed the
//! heartbeat detection bound on the surviving replica (a leader-only
//! discipline could silently skip a generation there, losing the only
//! complete checkpoint chain). Checkpoint files are named by the
//! logical rank.
//!
//! Modeled compute and [`CkptMode::Full`] checkpoints only: replication
//! targets the paper-scale ablation, where real grids would be pointless
//! weight, and the other checkpoint modes exchange state with *world*
//! peers.

use crate::heat3d::{self, ComputeMode, HeatConfig, Layer, State};
use std::future::Future;
use std::sync::Arc;
use xsim_core::vp::VpProgram;
use xsim_mpi::replication::{HeartbeatConfig, ProtectionScheme, RepReq, ReplicaMap, Replicated};
use xsim_mpi::{mpi_program, CkptMode, MpiCtx, MpiError};

/// Replicated-heat configuration: the logical workload plus the
/// protection layout.
#[derive(Debug, Clone)]
pub struct RepHeatConfig {
    /// The logical heat problem (`heat.n_ranks()` = logical world size).
    pub heat: HeatConfig,
    /// Replication layout (`Replication` or `Partial`).
    pub scheme: ProtectionScheme,
    /// Heartbeat failure-detection protocol parameters.
    pub hb: HeartbeatConfig,
    /// Compose checkpoint/restart with the replication (required for
    /// `Partial` — the C/R path is what protects the non-critical
    /// ranks).
    pub ckpt: bool,
}

impl RepHeatConfig {
    /// Validate and derive the replica map.
    pub fn map(&self) -> Result<ReplicaMap, String> {
        self.heat.validate()?;
        if self.heat.mode != ComputeMode::Modeled {
            return Err("replicated heat supports modeled compute only".into());
        }
        if self.heat.ckpt_mode != CkptMode::Full {
            return Err(format!(
                "replicated heat checkpoints in full mode only, not '{}'",
                self.heat.ckpt_mode
            ));
        }
        let n = self.heat.n_ranks();
        let map = match &self.scheme {
            ProtectionScheme::Replication { degree } => ReplicaMap::full(n, *degree),
            ProtectionScheme::Partial { degree, critical } => {
                if !self.ckpt {
                    return Err("partial replication requires the checkpoint fallback".into());
                }
                ReplicaMap::partial(n, *degree, critical.clone())
            }
            other => return Err(format!("scheme '{other}' does not replicate")),
        };
        map.map_err(|e| format!("scheme '{}' on {n} ranks: {e}", self.scheme))
    }

    /// Physical world size the simulation must be built with.
    pub fn physical_size(&self) -> usize {
        self.map().expect("valid config").physical_size()
    }

    /// Store name of the completion marker — written by logical rank 0's
    /// replicas when the run finishes. A campaign driver uses it to tell
    /// a successfully completed replicated run (whose surviving-replica
    /// exit is still `FailedOnly` when teammates died) from a genuine
    /// failure.
    pub fn done_marker(&self) -> String {
        done_marker(&self.heat)
    }
}

fn done_marker(heat: &HeatConfig) -> String {
    format!("{}/rep_done", heat.prefix)
}

/// The replica-team layer: logical halos that wait on their send copies,
/// linear logical agreement and barrier, and a completion marker before
/// `finalize`.
impl Layer for Replicated {
    fn rank(&self) -> usize {
        self.logical_rank
    }

    fn mpi(&self) -> &MpiCtx {
        &self.mpi
    }

    async fn halo(&mut self, cfg: &HeatConfig, state: &mut State) -> Result<(), MpiError> {
        // Post all receives, then all sends, then drain them in that
        // order — the world layer's schedule, one logical channel per
        // neighbor. At most six of each, held in the rank future (the
        // neighbours are recomputed rather than held across the sends).
        let mut reqs: [RepReq; 12] = Default::default();
        let mut posted = 0;
        for (dir, nb) in cfg.neighbors(self.logical_rank).into_iter().enumerate() {
            if let Some(nb) = nb {
                reqs[posted] = self.irecv_logical(nb, dir as u32 ^ 1)?;
                posted += 1;
            }
        }
        for dir in 0..6 {
            if let Some(nb) = cfg.neighbors(self.logical_rank)[dir] {
                let face = state.face(cfg, dir);
                reqs[posted] = self.isend_logical(nb, dir as u32, face).await?;
                posted += 1;
            }
        }
        for req in &mut reqs[..posted] {
            self.wait_logical(std::mem::take(req)).await?;
        }
        Ok(())
    }

    fn max_u64(&mut self, vals: &[u64]) -> impl Future<Output = Result<Vec<u64>, MpiError>> + Send {
        self.allreduce_u64_max(vals)
    }

    fn barrier(&mut self) -> impl Future<Output = Result<(), MpiError>> + Send {
        Replicated::barrier(self)
    }

    async fn finish(&mut self, cfg: &HeatConfig, state: &State) -> Result<(), MpiError> {
        // Cross-rank completion digest: fold every logical rank's final
        // token into one value all ranks agree on (modeled compute only,
        // see `RepHeatConfig::map`).
        let token = match state {
            State::Modeled { token } => *token,
            State::Real(_) => 0,
        };
        let digest = self.allreduce_u64_max(&[token, !token]).await?;
        if self.logical_rank == 0 {
            // Every live replica of logical 0 writes the (identical)
            // marker: idempotent, and immune to leader-detection lag.
            let marker = [digest[0].to_le_bytes(), digest[1].to_le_bytes()].concat();
            xsim_fs::write(&done_marker(cfg), marker.into()).await;
        }
        self.finalize();
        Ok(())
    }
}

/// Build the replicated heat application as a [`VpProgram`]. Run it on a
/// world of [`RepHeatConfig::physical_size`] ranks.
pub fn program(cfg: RepHeatConfig) -> Arc<dyn VpProgram> {
    let map = Arc::new(cfg.map().expect("invalid replicated heat configuration"));
    let (hb, checkpoints) = (cfg.hb, cfg.ckpt);
    let heat = heat3d::Heat::new(cfg.heat);
    mpi_program(move |mpi: MpiCtx| {
        let (map, heat) = (map.clone(), heat.clone());
        async move { heat3d::solve(Replicated::attach(mpi, map, hb)?, heat, checkpoints).await }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heat3d::{config_fingerprint, sections};
    use std::sync::Mutex;
    use xsim_ckpt::{Checkpoint, CheckpointManager};
    use xsim_core::Bytes;
    use xsim_fs::FsStore;
    use xsim_mpi::SimBuilder;

    fn small_rep() -> RepHeatConfig {
        RepHeatConfig {
            heat: HeatConfig {
                mode: ComputeMode::Modeled,
                ..HeatConfig::small()
            },
            scheme: ProtectionScheme::Replication { degree: 2 },
            hb: HeartbeatConfig::default(),
            ckpt: false,
        }
    }

    #[test]
    fn layout_follows_scheme() {
        let cfg = small_rep();
        assert_eq!(cfg.physical_size(), 16); // 8 logical × 2

        let partial = RepHeatConfig {
            scheme: ProtectionScheme::Partial {
                degree: 2,
                critical: [0, 1].into_iter().collect(),
            },
            ckpt: true,
            ..small_rep()
        };
        assert_eq!(partial.physical_size(), 10); // 8 + 2 shadows
    }

    #[test]
    fn rejects_real_mode_and_unreplicated_schemes() {
        let mut cfg = small_rep();
        cfg.heat.mode = ComputeMode::Real;
        assert!(cfg.map().is_err());

        let mut cfg = small_rep();
        cfg.scheme = ProtectionScheme::CheckpointRestart {
            mode: Default::default(),
        };
        assert!(cfg.map().is_err());

        // Partial without the checkpoint fallback is rejected.
        let mut cfg = small_rep();
        cfg.scheme = ProtectionScheme::Partial {
            degree: 2,
            critical: [0].into_iter().collect(),
        };
        assert!(cfg.map().is_err());
        cfg.ckpt = true;
        assert!(cfg.map().is_ok());
    }

    #[test]
    fn rejects_non_full_checkpoint_modes() {
        let mut cfg = small_rep();
        cfg.heat.ckpt_mode = CkptMode::Buddy;
        assert!(cfg.map().unwrap_err().contains("full mode only"));
    }

    #[test]
    fn out_of_range_critical_set_is_an_error() {
        let mut cfg = small_rep();
        (cfg.scheme, cfg.ckpt) = ("partial:2:99".parse().unwrap(), true);
        assert!(cfg.map().unwrap_err().contains("out of range"));
    }

    /// A CRC-valid checkpoint of the right configuration whose token
    /// section is 3 bytes long is an incompatible checkpoint — a typed
    /// error, not a panic — through the world and the replica-team layer.
    #[test]
    fn short_token_section_is_an_incompatible_checkpoint_in_both_layers() {
        let cfg = small_rep();
        let heat = heat3d::Heat::new(cfg.heat.clone());
        let world = heat.clone();
        assert_incompatible(&heat.cfg, 8, move |mpi| {
            heat3d::solve(mpi, world.clone(), true)
        });
        let map = cfg.map().unwrap();
        assert_incompatible(&cfg.heat, 16, move |mpi| {
            let (map, heat) = (map.clone(), heat.clone());
            async move { heat3d::solve(Replicated::attach(mpi, map, cfg.hb)?, heat, true).await }
        });
    }

    /// Run `rank_main` on `n` ranks over a store holding, for every rank
    /// of `heat`, such a checkpoint; every rank must return the error.
    fn assert_incompatible<Fut>(
        heat: &HeatConfig,
        n: usize,
        rank_main: impl Fn(MpiCtx) -> Fut + Send + Sync + 'static,
    ) where
        Fut: Future<Output = Result<(), MpiError>> + Send + 'static,
    {
        let (store, mgr) = (FsStore::new(), CheckpointManager::new(&heat.prefix));
        for rank in 0..heat.n_ranks() as u32 {
            let ckpt = Checkpoint::new(rank, 5)
                .with_section(sections::CONFIG, config_fingerprint(heat).into())
                .with_section(sections::TOKEN, Bytes::from_static(&[1, 2, 3]));
            store.put(mgr.file_name(5, rank), ckpt.encode());
        }
        let errors = Arc::new(Mutex::new(Vec::new()));
        let sink = errors.clone();
        let run = SimBuilder::new(n).fs_store(store).run_app(move |mpi| {
            let (sink, run) = (sink.clone(), rank_main(mpi));
            async move {
                run.await
                    .inspect_err(|e| sink.lock().unwrap().push(e.clone()))
            }
        });
        run.expect("run");
        let errors = errors.lock().unwrap();
        let incompatible =
            |e: &MpiError| matches!(e, MpiError::Io(m) if m == "incompatible checkpoint");
        assert!(
            errors.len() == n && errors.iter().all(incompatible),
            "{errors:?}"
        );
    }
}
