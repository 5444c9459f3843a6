//! RedMPI-style redundancy integration tests (paper §II-C): soft errors
//! injected into one replica are detected by double redundancy and
//! corrected by triple redundancy.

use xsim::fault::soft::{self, SoftErrorPlan};
use xsim::mpi::{Redundant, Verdict};
use xsim::prelude::*;

/// Each rank computes a state value; ranks hit by a soft error apply the
/// bit flip before the verification point.
async fn replica_step(mpi: &MpiCtx) -> u64 {
    mpi.compute(Work::native_time(SimTime::from_millis(10)))
        .await;
    let mut state = [0u8; 8];
    state.copy_from_slice(&0xDEAD_BEEF_0123_4567u64.to_le_bytes());
    for flip in soft::poll_flips() {
        soft::apply_flip(&mut state, flip);
    }
    u64::from_le_bytes(state)
}

#[test]
fn triple_redundancy_corrects_injected_soft_error() {
    // 4 logical ranks × 3 replicas = 12 ranks; flip a bit in world rank
    // 5 (logical 1, replica 2).
    let plan = SoftErrorPlan::new().with_flip(5, SimTime::from_millis(5), 13);
    let report = SimBuilder::new(12)
        .net(NetModel::small(12))
        .setup_hook(plan.install_hook())
        .run_app(|mpi| async move {
            let red = Redundant::split(&mpi, 3).await?;
            assert_eq!(red.logical_size, 4);
            assert_eq!(mpi.comm_size(red.work)?, 4);
            assert_eq!(mpi.comm_size(red.team)?, 3);

            let state = replica_step(&mpi).await;
            let (corrected, verdict) = red.verify_u64(&mpi, state).await?;
            assert_eq!(corrected, 0xDEAD_BEEF_0123_4567, "majority value wins");
            if red.logical_rank == 1 {
                assert_eq!(
                    verdict,
                    Verdict::Corrected { outvoted: 1 },
                    "the corrupted team must detect and out-vote the flip"
                );
            } else {
                assert_eq!(verdict, Verdict::Consistent);
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn double_redundancy_detects_but_cannot_correct() {
    // Detection-only mode ("disabling the online correction and keeping
    // replicas isolated"): the divergence is reported, not escalated.
    let plan = SoftErrorPlan::new().with_flip(3, SimTime::from_millis(5), 42);
    let report = SimBuilder::new(8)
        .net(NetModel::small(8))
        .setup_hook(plan.install_hook())
        .run_app(|mpi| async move {
            let red = Redundant::split(&mpi, 2).await?;
            let state = replica_step(&mpi).await;
            let (_, verdict) = red.verify_u64_detect(&mpi, state).await?;
            if red.logical_rank == 1 {
                assert_eq!(verdict, Verdict::Uncorrectable, "r=2 only detects");
            } else {
                assert_eq!(verdict, Verdict::Consistent);
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn uncorrectable_divergence_escalates_to_process_failure() {
    // Correcting mode with r = 2: the team cannot vote out the corrupt
    // replica, so `verify` must not let either replica proceed with
    // possibly-corrupt state — the whole team fail-stops into the
    // process-failure path instead of silently continuing.
    let plan = SoftErrorPlan::new().with_flip(3, SimTime::from_millis(5), 42);
    let report = SimBuilder::new(8)
        .net(NetModel::small(8))
        .setup_hook(plan.install_hook())
        .run_app(|mpi| async move {
            let red = Redundant::split(&mpi, 2).await?;
            let state = replica_step(&mpi).await;
            let (corrected, verdict) = red.verify_u64(&mpi, state).await?;
            // Only teams that agreed make it past the verification point.
            assert_eq!(verdict, Verdict::Consistent);
            assert_eq!(corrected, 0xDEAD_BEEF_0123_4567);
            assert_ne!(red.logical_rank, 1, "diverged team must not proceed");
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
    // Both replicas of logical rank 1 (world ranks 2 and 3) fail-stopped.
    let mut dead: Vec<usize> = report.sim.failures.iter().map(|f| f.rank.idx()).collect();
    dead.sort_unstable();
    assert_eq!(dead, vec![2, 3]);
}

#[test]
fn replica_spheres_run_independent_applications() {
    // The work communicator lets the unmodified application run per
    // sphere: a ring exchange inside each sphere must not cross spheres.
    let report = SimBuilder::new(6)
        .net(NetModel::small(6))
        .run_app(|mpi| async move {
            let red = Redundant::split(&mpi, 2).await?;
            let w = red.work;
            let size = mpi.comm_size(w)?;
            let me = mpi.comm_rank(w)?;
            let right = (me + 1) % size;
            let left = (me + size - 1) % size;
            let sreq = mpi
                .isend(w, right, 7, Bytes::from(vec![red.replica as u8]))
                .await?;
            let msg = mpi.recv(w, Some(left), Some(7)).await?;
            mpi.wait(sreq).await?;
            assert_eq!(
                msg.data[0] as usize, red.replica,
                "traffic crossed replica spheres"
            );
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn split_rejects_bad_degrees() {
    let report = SimBuilder::new(4)
        .net(NetModel::small(4))
        .errhandler(ErrHandler::Return)
        .run_app(|mpi| async move {
            assert!(Redundant::split(&mpi, 1).await.is_err());
            assert!(Redundant::split(&mpi, 3).await.is_err(), "4 % 3 != 0");
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}
