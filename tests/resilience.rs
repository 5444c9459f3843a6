//! Resilience-feature integration tests across crates: detector
//! variants, failure schedules.

use xsim::apps::kernels;
use xsim::prelude::*;

#[test]
fn failure_schedule_string_drives_injection() {
    let schedule = "2:0.5".parse::<FaultSchedule>().unwrap().rank_failures();
    let report = SimBuilder::new(4)
        .net(NetModel::small(4))
        .inject_failures(schedule.iter())
        .errhandler(ErrHandler::Return)
        .run_app(|mpi| async move {
            mpi.sleep(SimTime::from_secs(1)).await;
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.failures.len(), 1);
    assert_eq!(report.sim.failures[0].rank.idx(), 2);
    assert_eq!(report.sim.failures[0].scheduled, SimTime::from_millis(500));
    assert_eq!(report.sim.failures[0].actual, SimTime::from_secs(1));
}

#[test]
fn monitor_detector_beats_timeout_detector() {
    // Ablation (DESIGN.md §4.4): a monitoring-system detector reports
    // failures faster than the pure communication-timeout detection the
    // paper currently implements (§IV-C).
    let run = |detector: Detector| {
        SimBuilder::new(2)
            .net(NetModel::small(2))
            .detector(detector)
            .inject_failure(1, SimTime::from_millis(100))
            .errhandler(ErrHandler::Return)
            .run_app(|mpi| async move {
                if mpi.rank == 0 {
                    let err = mpi.recv(mpi.world(), Some(1), None).await.unwrap_err();
                    assert!(matches!(err, MpiError::ProcFailed { .. }));
                } else {
                    mpi.sleep(SimTime::from_millis(200)).await;
                }
                mpi.finalize();
                Ok(())
            })
            .unwrap()
    };
    let timeout = run(Detector::Timeout);
    let monitor = run(Detector::Monitor {
        latency: SimTime::from_millis(10),
    });
    // Failure activates at 200 ms (end of the compute slice). Timeout
    // detection: 200 ms + 1 s timeout. Monitor: 200 ms + 10 ms.
    assert_eq!(
        timeout.sim.final_clocks[0],
        SimTime::from_millis(200) + SimTime::from_secs(1)
    );
    assert_eq!(
        monitor.sim.final_clocks[0],
        SimTime::from_millis(200) + SimTime::from_millis(10)
    );
    assert!(monitor.sim.final_clocks[0] < timeout.sim.final_clocks[0]);
}

#[test]
fn kernel_apps_run_on_the_paper_torus_subset() {
    // Run the microbenchmark kernels on a torus machine slice.
    let mut net = NetModel::paper_machine();
    net.topology = Topology::Torus3d { dims: [4, 4, 4] };
    let n = 64;
    let report = SimBuilder::new(n)
        .net(net.clone())
        .run(kernels::ring(3, 1024))
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert_eq!(report.mpi.sends as usize, 3 * n);

    let report = SimBuilder::new(n)
        .net(net)
        .run(kernels::compute_allreduce(5, 16, SimTime::from_millis(1)))
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    // 5 rounds × (compute ≥ 1 ms) plus collective time.
    assert!(report.sim.timing.min >= SimTime::from_millis(5));
}

#[test]
fn first_impressions_phases() {
    // Paper §V-D narrative, reproduced deterministically: a failure in
    // the *compute* phase is detected at the halo exchange; a failure in
    // the *checkpoint* phase is detected at the following barrier; both
    // lead to an abort, leaving either an incomplete/corrupted
    // checkpoint or partially deleted old checkpoints.
    use xsim::apps::heat3d::{self, HeatConfig};
    let mut cfg = HeatConfig::small();
    cfg.iterations = 10;
    cfg.ckpt_interval = 5;
    cfg.halo_interval = 5;
    let fs_model = FsModel::typical_pfs();

    // Clean run to find the timeline.
    let clean = SimBuilder::new(cfg.n_ranks())
        .net(NetModel::small(cfg.n_ranks()))
        .fs_model(fs_model)
        .run(heat3d::program(cfg.clone()))
        .unwrap();
    assert_eq!(clean.sim.exit, ExitKind::Completed);

    // Failure early in the run lands in compute; the run must abort and
    // leave the store without a complete final checkpoint set.
    let b = SimBuilder::new(cfg.n_ranks())
        .net(NetModel::small(cfg.n_ranks()))
        .fs_model(fs_model)
        .inject_failure(6, clean.exit_time().scale(0.2));
    let store = b.store();
    let aborted = b.run(heat3d::program(cfg.clone())).unwrap();
    assert_eq!(aborted.sim.exit, ExitKind::Aborted);
    let mgr = CheckpointManager::new(&cfg.prefix);
    assert!(
        mgr.latest_complete(&store, cfg.n_ranks() as u32) != Some(cfg.iterations),
        "aborted run must not have finished its final checkpoint"
    );
    // Abort time is after the failure (detection needs communication).
    let failure = aborted.sim.failures[0].actual;
    let abort = aborted.sim.abort_time.unwrap();
    assert!(abort > failure, "abort {abort} not after failure {failure}");
}
