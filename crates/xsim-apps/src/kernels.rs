//! Microbenchmark kernels: small applications used by tests, examples
//! and the scalability/ablation benches.

use std::sync::Arc;
use xsim_core::vp::VpProgram;
use xsim_core::{Bytes, SimTime};
use xsim_mpi::{mpi_program, MpiCtx, MpiError, ReduceOp};

/// Token ring: rank 0 injects a token that visits every rank `laps`
/// times. Exercises sequential point-to-point dependencies across the
/// whole machine.
pub fn ring(laps: u32, payload: usize) -> Arc<dyn VpProgram> {
    mpi_program(move |mpi: MpiCtx| async move {
        let w = mpi.world();
        if mpi.size == 1 {
            mpi.finalize();
            return Ok(());
        }
        let right = (mpi.rank + 1) % mpi.size;
        let left = (mpi.rank + mpi.size - 1) % mpi.size;
        for lap in 0..laps {
            if mpi.rank == 0 {
                mpi.send(w, right, lap, Bytes::zeroed(payload)).await?;
                mpi.recv(w, Some(left), Some(lap)).await?;
            } else {
                let msg = mpi.recv(w, Some(left), Some(lap)).await?;
                mpi.send(w, right, lap, msg.data).await?;
            }
        }
        mpi.finalize();
        Ok(())
    })
}

/// Compute/allreduce phases: every rank computes for `compute` virtual
/// time then allreduces a vector of `elems` doubles, `rounds` times. The
/// canonical bulk-synchronous pattern.
pub fn compute_allreduce(rounds: u32, elems: usize, compute: SimTime) -> Arc<dyn VpProgram> {
    mpi_program(move |mpi: MpiCtx| async move {
        let w = mpi.world();
        let data = vec![mpi.rank as f64; elems];
        for _ in 0..rounds {
            mpi.sleep(compute).await;
            let out = mpi.allreduce_f64(w, &data, ReduceOp::Sum).await?;
            // Sum over ranks of `rank` is constant; sanity-check it.
            let expect = (mpi.size * (mpi.size - 1) / 2) as f64;
            if (out[0] - expect).abs() > 1e-9 {
                return Err(MpiError::Invalid("allreduce mismatch"));
            }
        }
        mpi.finalize();
        Ok(())
    })
}

/// Point-to-point ping-pong between ranks 0 and 1 with a payload sweep;
/// other ranks idle. Used by the eager/rendezvous ablation bench.
pub fn pingpong(rounds: u32, payload: usize) -> Arc<dyn VpProgram> {
    mpi_program(move |mpi: MpiCtx| async move {
        let w = mpi.world();
        match mpi.rank {
            0 => {
                for i in 0..rounds {
                    mpi.send(w, 1, i, Bytes::zeroed(payload)).await?;
                    mpi.recv(w, Some(1), Some(i)).await?;
                }
            }
            1 => {
                for i in 0..rounds {
                    let msg = mpi.recv(w, Some(0), Some(i)).await?;
                    mpi.send(w, 0, i, msg.data).await?;
                }
            }
            _ => {}
        }
        mpi.finalize();
        Ok(())
    })
}

/// Point-to-point storm: every rank exchanges `rounds` messages with
/// one partner per stride (`rank ± stride`, so the machine-wide pair
/// set covers many distinct routes). Each round every rank posts its
/// receives, sends, then waits — a dense traffic pattern whose
/// fault-window cost is dominated by per-message route computation,
/// which is exactly what the epoch-keyed route cache targets.
pub fn p2p_storm(rounds: u32, strides: Vec<usize>, payload: usize) -> Arc<dyn VpProgram> {
    let strides = Arc::new(strides);
    mpi_program(move |mpi: MpiCtx| {
        let strides = strides.clone();
        async move {
            let w = mpi.world();
            let strides: Vec<usize> = strides
                .iter()
                .map(|s| s % mpi.size)
                .filter(|&s| s != 0)
                .collect();
            // One payload for the whole storm: sends clone the handle,
            // never the bytes.
            let payload = Bytes::zeroed(payload);
            for round in 0..rounds {
                for &s in &strides {
                    let to = (mpi.rank + s) % mpi.size;
                    let from = (mpi.rank + mpi.size - s) % mpi.size;
                    let rq = mpi.irecv(w, Some(from), Some(round))?;
                    mpi.send(w, to, round, payload.clone()).await?;
                    mpi.wait(rq).await?;
                }
            }
            mpi.finalize();
            Ok(())
        }
    })
}

/// A trivial program: every rank sleeps once and exits. Used by the
/// scalability bench to measure raw VP capacity (paper §II-A: xSim runs
/// up to 2^27 MPI tasks on 960 cores).
pub fn noop(sleep: SimTime) -> Arc<dyn VpProgram> {
    mpi_program(move |mpi: MpiCtx| async move {
        mpi.sleep(sleep).await;
        mpi.finalize();
        Ok(())
    })
}
