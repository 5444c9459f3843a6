//! Quickstart: run a small MPI program inside the simulator on the
//! paper's torus machine (scaled down) and look at the virtual timing.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use xsim::prelude::*;

fn main() {
    // A 4x4x4 wrapped torus, otherwise the paper's machine parameters
    // (1 µs links, 32 GB/s, 256 kB eager threshold).
    let mut net = NetModel::paper_machine();
    net.topology = Topology::Torus3d { dims: [4, 4, 4] };
    let n = 64;

    let report = SimBuilder::new(n)
        .net(net)
        .proc(ProcModel::with_slowdown(1000.0))
        .run_app(move |mpi| async move {
            let w = mpi.world();
            // Each rank "computes" one millisecond of reference-core
            // work — the processor model stretches it 1000x.
            mpi.compute(Work::native_time(SimTime::from_millis(1)))
                .await;

            // Neighbor exchange around a ring.
            let right = (mpi.rank + 1) % mpi.size;
            let left = (mpi.rank + mpi.size - 1) % mpi.size;
            let send = mpi
                .isend(w, right, 0, Bytes::from(vec![mpi.rank as u8; 1024]))
                .await?;
            let recv = mpi.irecv(w, Some(left), Some(0))?;
            mpi.wait(w, send).await?;
            let msg = mpi.wait(w, recv).await?.expect("payload");
            assert_eq!(msg.data[0] as usize, left);

            // A global reduction.
            let sum = mpi
                .allreduce_f64(w, &[mpi.rank as f64], ReduceOp::Sum)
                .await?;
            if mpi.rank == 0 {
                println!(
                    "rank sum = {} (expected {}), virtual time now {}",
                    sum[0],
                    n * (n - 1) / 2,
                    mpi.now()
                );
            }
            mpi.finalize();
            Ok(())
        })
        .expect("simulation failed");

    println!(
        "completed: {:?}; process times min {} / max {} / avg {}",
        report.sim.exit, report.sim.timing.min, report.sim.timing.max, report.sim.timing.avg
    );
    println!(
        "{} sends, {} receives, {} collective operations, {} events",
        report.mpi.sends, report.mpi.recvs, report.mpi.collectives, report.sim.events_processed
    );
}
