//! A 2-D Jacobi solver with row-block decomposition.
//!
//! A second, structurally different workload (1-D neighbor pattern +
//! global residual allreduce) of the kind the paper's introduction
//! motivates for co-design studies. Runs real numerics; used by tests
//! and examples at small scale.

use crate::{pack_f64s, unpack_f64s};
use std::sync::Arc;
use xsim_core::vp::VpProgram;
use xsim_core::SimTime;
use xsim_mpi::{mpi_program, MpiCtx, MpiError, ReduceOp};
use xsim_proc::Work;

/// Jacobi configuration.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// Global grid (nx columns × ny rows). Rows are block-distributed.
    pub nx: usize,
    /// Global row count; must be divisible by the rank count.
    pub ny: usize,
    /// Maximum iterations.
    pub max_iters: u64,
    /// Convergence threshold on the global max update.
    pub tolerance: f64,
    /// Residual check (allreduce) interval.
    pub residual_interval: u64,
    /// Native per-point update cost for the processor model.
    pub per_point: SimTime,
}

impl JacobiConfig {
    /// Small test configuration.
    pub fn small() -> Self {
        JacobiConfig {
            nx: 32,
            ny: 32,
            max_iters: 500,
            tolerance: 1e-6,
            residual_interval: 10,
            per_point: SimTime::from_nanos(50),
        }
    }

    /// Validate against a rank count.
    pub fn validate(&self, n_ranks: usize) -> Result<(), String> {
        if !self.ny.is_multiple_of(n_ranks) {
            return Err(format!("ny={} not divisible by {} ranks", self.ny, n_ranks));
        }
        if self.nx < 3 || self.ny / n_ranks < 1 {
            return Err("grid too small".into());
        }
        Ok(())
    }
}

/// Result snapshot a rank reports (for tests): iterations executed and
/// the final local residual contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacobiOutcome {
    /// Iterations executed.
    pub iters: u64,
    /// Final global residual.
    pub residual: f64,
}

/// Build the Jacobi application. `on_done` (rank 0 only) receives the
/// outcome, letting tests assert convergence.
pub fn program(
    cfg: JacobiConfig,
    on_done: Option<Arc<dyn Fn(JacobiOutcome) + Send + Sync>>,
) -> Arc<dyn VpProgram> {
    let cfg = Arc::new(cfg);
    mpi_program(move |mpi: MpiCtx| {
        let cfg = cfg.clone();
        let on_done = on_done.clone();
        async move {
            cfg.validate(mpi.size)
                .map_err(|_| MpiError::Invalid("bad jacobi config"))?;
            let w = mpi.world();
            let rows = cfg.ny / mpi.size;
            let nx = cfg.nx;
            // Local block with one halo row above and below. Boundary
            // condition: global top row = 1.0, global bottom = 0.0,
            // left/right columns fixed at 0.
            let mut u = vec![0.0f64; (rows + 2) * nx];
            let mut next = u.clone();
            if mpi.rank == 0 {
                for x in 0..nx {
                    u[x] = 1.0; // halo row doubles as the fixed boundary
                    next[x] = 1.0;
                }
            }

            let up = (mpi.rank > 0).then(|| mpi.rank - 1);
            let down = (mpi.rank + 1 < mpi.size).then(|| mpi.rank + 1);
            let mut it = 0u64;
            let mut residual = f64::INFINITY;
            while it < cfg.max_iters && residual > cfg.tolerance {
                // Halo exchange: first interior row up, last interior
                // row down.
                let mut reqs = Vec::new();
                if let Some(up) = up {
                    reqs.push((0usize, mpi.irecv(w, Some(up), Some(1))?));
                    let sreq = mpi.isend(w, up, 0, pack_f64s(&u[nx..2 * nx])).await?;
                    mpi.request_free(w, sreq)?;
                }
                if let Some(down) = down {
                    reqs.push((1usize, mpi.irecv(w, Some(down), Some(0))?));
                    let sreq = mpi
                        .isend(w, down, 1, pack_f64s(&u[rows * nx..(rows + 1) * nx]))
                        .await?;
                    mpi.request_free(w, sreq)?;
                }
                let ids: Vec<_> = reqs.iter().map(|(_, r)| *r).collect();
                let outs = mpi.waitall(w, &ids).await?;
                for ((which, _), out) in reqs.iter().zip(outs) {
                    let msg = out.expect("halo payload");
                    match which {
                        0 => unpack_f64s(&msg.data, &mut u[0..nx]),
                        _ => unpack_f64s(&msg.data, &mut u[(rows + 1) * nx..(rows + 2) * nx]),
                    }
                }

                // Sweep.
                let mut local_max = 0.0f64;
                for r in 1..=rows {
                    for x in 1..nx - 1 {
                        let c = r * nx + x;
                        let v = 0.25 * (u[c - 1] + u[c + 1] + u[c - nx] + u[c + nx]);
                        local_max = local_max.max((v - u[c]).abs());
                        next[c] = v;
                    }
                }
                std::mem::swap(&mut u, &mut next);
                mpi.compute(Work::native_time(SimTime(
                    cfg.per_point.as_nanos() * (rows * nx) as u64,
                )))
                .await;
                it += 1;

                if it.is_multiple_of(cfg.residual_interval) {
                    let g = mpi.allreduce_f64(w, &[local_max], ReduceOp::Max).await?;
                    residual = g[0];
                }
            }
            if mpi.rank == 0 {
                if let Some(cb) = &on_done {
                    cb(JacobiOutcome {
                        iters: it,
                        residual,
                    });
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
    fn config_validation() {
        let c = JacobiConfig::small();
        c.validate(4).unwrap();
        assert!(c.validate(5).is_err());
        let tiny = JacobiConfig {
            nx: 2,
            ..JacobiConfig::small()
        };
        assert!(tiny.validate(4).is_err());
    }
}
