//! A Sweep3D-style pipelined wavefront proxy.
//!
//! The third canonical HPC communication pattern (after the heat app's
//! halo exchange and the Jacobi residual allreduce): ranks form a 2-D
//! grid; a sweep starts at one corner and each rank must receive its
//! upstream neighbours' boundary data before computing a plane and
//! forwarding downstream. Transport sweeps (Sn codes like Sweep3D /
//! Kripke) are dominated by this dependency chain, which makes them a
//! sharp test of the simulator's ordering: the virtual finish time is
//! governed by the pipeline fill `(Px + Py − 2)` plus the per-plane
//! cadence, and a single slow (or failed) rank stalls the whole
//! wavefront — co-design behaviour quite different from the heat app's.

use std::sync::Arc;
use xsim_core::vp::VpProgram;
use xsim_core::{Bytes, SimTime};
use xsim_mpi::{mpi_program, MpiCtx, MpiError};
use xsim_proc::Work;

/// Wavefront configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Rank grid extent (Px, Py).
    pub grid: [usize; 2],
    /// Planes swept per sweep (the pipelined dimension).
    pub planes: u32,
    /// Number of full sweeps (each from the same corner).
    pub sweeps: u32,
    /// Native compute time per plane per rank.
    pub per_plane: SimTime,
    /// Boundary payload bytes per neighbour per plane.
    pub face_bytes: usize,
}

impl SweepConfig {
    /// Small test configuration: 4×4 ranks, 8 planes, 2 sweeps.
    pub fn small() -> Self {
        SweepConfig {
            grid: [4, 4],
            planes: 8,
            sweeps: 2,
            per_plane: SimTime::from_micros(100),
            face_bytes: 2048,
        }
    }

    /// Total rank count.
    pub fn n_ranks(&self) -> usize {
        self.grid[0] * self.grid[1]
    }

    /// Validate against a world size.
    pub(crate) fn validate(&self, n_ranks: usize) -> Result<(), String> {
        if self.n_ranks() != n_ranks {
            return Err(format!(
                "grid {}x{} needs {} ranks, world has {n_ranks}",
                self.grid[0],
                self.grid[1],
                self.n_ranks()
            ));
        }
        if self.planes == 0 || self.sweeps == 0 {
            return Err("planes and sweeps must be positive".into());
        }
        Ok(())
    }

    /// Pipeline depth: stages before the far corner starts computing.
    pub fn pipeline_fill(&self) -> u32 {
        (self.grid[0] + self.grid[1] - 2) as u32
    }
}

/// Build the wavefront application.
pub fn program(cfg: SweepConfig) -> Arc<dyn VpProgram> {
    let cfg = Arc::new(cfg);
    mpi_program(move |mpi: MpiCtx| {
        let cfg = cfg.clone();
        async move {
            cfg.validate(mpi.size)
                .map_err(|_| MpiError::Invalid("bad sweep config"))?;
            let w = mpi.world();
            let (px, py) = (cfg.grid[0], cfg.grid[1]);
            let (ix, iy) = (mpi.rank % px, mpi.rank / px);
            let west = (ix > 0).then(|| mpi.rank - 1);
            let north = (iy > 0).then(|| mpi.rank - px);
            let east = (ix + 1 < px).then(|| mpi.rank + 1);
            let south = (iy + 1 < py).then(|| mpi.rank + px);

            for sweep in 0..cfg.sweeps {
                for plane in 0..cfg.planes {
                    let tag = sweep * cfg.planes + plane;
                    // Upstream dependencies: both boundary faces must
                    // arrive before this rank's plane can be computed.
                    if let Some(west) = west {
                        mpi.recv(w, Some(west), Some(tag)).await?;
                    }
                    if let Some(north) = north {
                        mpi.recv(w, Some(north), Some(tag)).await?;
                    }
                    mpi.compute(Work::native_time(cfg.per_plane)).await;
                    // Forward downstream; nonblocking so the next plane's
                    // receives can overlap the neighbours' compute.
                    for dst in [east, south].into_iter().flatten() {
                        let face = Bytes::zeroed(cfg.face_bytes);
                        let sreq = mpi.isend(w, dst, tag, face).await?;
                        mpi.request_free(sreq)?;
                    }
                }
            }
            mpi.finalize();
            Ok(())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_shapes() {
        let c = SweepConfig::small();
        assert_eq!(c.n_ranks(), 16);
        assert_eq!(c.pipeline_fill(), 6);
        c.validate(16).unwrap();
        assert!(c.validate(8).is_err());
        let bad = SweepConfig {
            sweeps: 0,
            ..SweepConfig::small()
        };
        assert!(bad.validate(16).is_err());
    }
}
