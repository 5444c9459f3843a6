//! The heat3d workload under replication-based protection.
//!
//! Same decomposition, compute/halo/checkpoint cadence and state-token
//! evolution as [`crate::heat3d`], but the application runs on *logical*
//! ranks served by replica teams ([`xsim_mpi::replication`]): halo
//! exchanges and the restart-agreement/barrier collectives go through
//! the replicated message layer, so replica deaths fail over without an
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
//! complete checkpoint chain).
//!
//! Modeled compute only: replication targets the paper-scale ablation,
//! where real grids would be pointless weight.

use crate::heat3d::{config_fingerprint, mix_token, sections, ComputeMode, HeatConfig};
use std::sync::Arc;
use xsim_ckpt::{Checkpoint, CheckpointManager};
use xsim_core::vp::VpProgram;
use xsim_core::{Bytes, SimTime};
use xsim_fs::FsService;
use xsim_mpi::replication::{HeartbeatConfig, ProtectionScheme, ReplicaMap, Replicated};
use xsim_mpi::{mpi_program, MpiCtx, MpiError};
use xsim_proc::Work;

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
        if matches!(self.scheme, ProtectionScheme::Partial { .. }) && !self.ckpt {
            return Err("partial replication requires the checkpoint fallback".into());
        }
        ReplicaMap::from_scheme(&self.scheme, self.heat.n_ranks())
            .ok_or_else(|| format!("scheme '{}' does not replicate", self.scheme))
    }

    /// Physical world size the simulation must be built with.
    pub fn physical_size(&self) -> usize {
        self.map().expect("valid config").physical_size()
    }

    /// Whether the run writes checkpoints.
    pub fn checkpoints(&self) -> bool {
        self.ckpt
    }

    /// Store name of the completion marker — written by logical rank 0's
    /// replicas when the run finishes. A campaign driver uses it to tell
    /// a successfully completed replicated run (whose surviving-replica
    /// exit is still `FailedOnly` when teammates died) from a genuine
    /// failure.
    pub fn done_marker(&self) -> String {
        format!("{}/rep_done", self.heat.prefix)
    }
}

/// Byte length of the completion marker (two digest words).
const DONE_DIGEST_LEN: usize = 16;

async fn halo_exchange(rep: &mut Replicated, cfg: &HeatConfig) -> Result<(), MpiError> {
    let neighbors = cfg.neighbors(rep.logical_rank);
    let l = cfg.local();
    let face_bytes = [l[1] * l[2] * 8, l[0] * l[2] * 8, l[0] * l[1] * 8];
    // Post all receives, then all sends, then drain — the same schedule
    // as the unreplicated solver, one logical channel per neighbor.
    let mut reqs = Vec::new();
    for (dir, nb) in neighbors.iter().enumerate() {
        if let Some(nb) = nb {
            reqs.push(rep.irecv_logical(*nb, dir as u32 ^ 1)?);
        }
    }
    for (dir, nb) in neighbors.iter().enumerate() {
        if let Some(nb) = nb {
            let payload = Bytes::zeroed(face_bytes[dir / 2]);
            reqs.push(rep.isend_logical(*nb, dir as u32, payload).await?);
        }
    }
    rep.waitall_logical(reqs).await?;
    Ok(())
}

async fn write_checkpoint(
    cfg: &HeatConfig,
    mgr: &CheckpointManager,
    logical: usize,
    token: u64,
    it: u64,
) -> Result<(), MpiError> {
    let ckpt = Checkpoint::new(logical as u32, it)
        .with_section(sections::CONFIG, config_fingerprint(cfg))
        .with_section(sections::TOKEN, Bytes::from(token.to_le_bytes().to_vec()));
    // Charge the I/O of the grid a real run would persist (cf. heat3d's
    // modeled mode); each replica persists its own copy.
    xsim_fs::charge_write(cfg.points_per_rank() as usize * 8).await;
    mgr.write(&ckpt)
        .await
        .map_err(|e| MpiError::Io(e.to_string()))
}

/// Build the replicated heat application as a [`VpProgram`]. Run it on a
/// world of [`RepHeatConfig::physical_size`] ranks.
pub fn program(cfg: RepHeatConfig) -> Arc<dyn VpProgram> {
    let map = cfg.map().expect("invalid replicated heat configuration");
    let cfg = Arc::new(cfg);
    mpi_program(move |mpi: MpiCtx| {
        let cfg = cfg.clone();
        let map = map.clone();
        async move {
            let mut rep = Replicated::attach(mpi, map, cfg.hb)?;
            let heat = &cfg.heat;
            let logical = rep.logical_rank;
            let with_ckpt = cfg.checkpoints();
            let mgr = CheckpointManager::new(&heat.prefix);
            let store = xsim_core::ctx::with_kernel(|k, _| k.service::<FsService>().store.clone());

            // Restart path (checkpointing schemes only): load the newest
            // valid checkpoint of the *logical* rank — every replica
            // loads the same file — then agree on the restart iteration.
            let mut it: u64 = 0;
            let mut token: u64 = 0;
            if with_ckpt {
                if let Some(ckpt) = mgr.load_latest(&store, logical as u32).await {
                    let valid = ckpt
                        .section(sections::CONFIG)
                        .is_some_and(|f| f == &config_fingerprint(heat));
                    let raw = ckpt.section(sections::TOKEN);
                    match (valid, raw) {
                        (true, Some(raw)) if raw.len() >= 8 => {
                            token = u64::from_le_bytes(raw[..8].try_into().expect("8 bytes"));
                            it = ckpt.iteration;
                        }
                        _ => return Err(MpiError::Io("incompatible checkpoint".into())),
                    }
                }
            }
            let agreed = rep.allreduce_u64_max(&[it, !it]).await?;
            let (max_it, min_it) = (agreed[0], !agreed[1]);
            if max_it != min_it {
                return Err(MpiError::Io(format!(
                    "inconsistent restart iterations: {min_it} vs {max_it}"
                )));
            }

            let mut last_ckpt: Option<u64> = (it > 0).then_some(it);
            while it < heat.iterations {
                let next_halo = ((it / heat.halo_interval) + 1) * heat.halo_interval;
                let next_ckpt = ((it / heat.ckpt_interval) + 1) * heat.ckpt_interval;
                let next = next_halo.min(next_ckpt).min(heat.iterations);
                let steps = next - it;

                for s in 1..=steps {
                    token = mix_token(token, it + s, logical as u64);
                }
                let work_ns = heat
                    .per_point
                    .as_nanos()
                    .saturating_mul(heat.points_per_rank())
                    .saturating_mul(steps);
                rep.compute(Work::native_time(SimTime(work_ns))).await;
                it = next;

                if it.is_multiple_of(heat.halo_interval) || it == heat.iterations {
                    halo_exchange(&mut rep, heat).await?;
                }

                if with_ckpt && (it.is_multiple_of(heat.ckpt_interval) || it == heat.iterations) {
                    write_checkpoint(heat, &mgr, logical, token, it).await?;
                    rep.barrier().await?;
                    if let Some(prev) = last_ckpt.take() {
                        if prev != it {
                            mgr.delete_generation(prev, logical as u32)
                                .await
                                .map_err(|e| MpiError::Io(e.to_string()))?;
                        }
                    }
                    last_ckpt = Some(it);
                }
            }

            // Cross-rank completion digest: fold every logical rank's
            // final token into one value all ranks agree on.
            let digest = rep.allreduce_u64_max(&[token, !token]).await?;
            if logical == 0 {
                // Every live replica of logical 0 writes the (identical)
                // marker: idempotent, and immune to leader-detection lag.
                let mut b = Vec::with_capacity(DONE_DIGEST_LEN);
                b.extend_from_slice(&digest[0].to_le_bytes());
                b.extend_from_slice(&digest[1].to_le_bytes());
                xsim_fs::write(&cfg.done_marker(), b.into())
                    .await
                    .map_err(|e| MpiError::Io(e.to_string()))?;
            }

            rep.finalize();
            Ok(())
        }
    })
}

/// Decode a completion marker written by [`program`] back into its two
/// digest words (diagnostics / campaign verification).
pub fn decode_done_marker(data: &[u8]) -> Option<(u64, u64)> {
    if data.len() != DONE_DIGEST_LEN {
        return None;
    }
    Some((
        u64::from_le_bytes(data[..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(data[8..].try_into().expect("8 bytes")),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!cfg.checkpoints());

        let partial = RepHeatConfig {
            scheme: ProtectionScheme::Partial {
                degree: 2,
                critical: [0, 1].into_iter().collect(),
            },
            ckpt: true,
            ..small_rep()
        };
        assert_eq!(partial.physical_size(), 10); // 8 + 2 shadows
        assert!(partial.checkpoints());
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
    fn done_marker_round_trips() {
        let mut b = Vec::new();
        b.extend_from_slice(&7u64.to_le_bytes());
        b.extend_from_slice(&13u64.to_le_bytes());
        assert_eq!(decode_done_marker(&b), Some((7, 13)));
        assert_eq!(decode_done_marker(&[0u8; 3]), None);
    }
}
