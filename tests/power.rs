//! Energy-accounting integration tests (paper §III-A item (4): "model
//! the power consumption of the entire simulated system").

use xsim::apps::heat3d::{self, HeatConfig};
use xsim::apps::ComputeMode;
use xsim::prelude::*;
use xsim_proc::PowerModel;

fn power() -> PowerModel {
    PowerModel {
        active_watts: 200.0,
        idle_watts: 100.0,
        joules_per_message: 0.0,
        joules_per_byte: 0.0,
    }
}

#[test]
fn compute_only_run_is_fully_busy() {
    let report = SimBuilder::new(4)
        .net(NetModel::small(4))
        .power(power())
        .run_app(|mpi| async move {
            mpi.compute(Work::native_time(SimTime::from_secs(10))).await;
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    let p = report.power.expect("power model enabled");
    assert!(
        (p.busy_fraction - 1.0).abs() < 1e-9,
        "busy fraction {} should be 1",
        p.busy_fraction
    );
    // 4 ranks × 10 s × 200 W.
    assert!((p.total_joules - 8000.0).abs() < 1e-6);
    assert_eq!(p.idle_joules, 0.0);
}

#[test]
fn waiting_ranks_draw_idle_power() {
    let report = SimBuilder::new(2)
        .net(NetModel::small(2))
        .power(power())
        .run_app(|mpi| async move {
            if mpi.rank == 0 {
                mpi.compute(Work::native_time(SimTime::from_secs(10))).await;
                mpi.send(mpi.world(), 1, 0, Bytes::new()).await?;
            } else {
                // Blocked waiting ~10 s: idle.
                mpi.recv(mpi.world(), Some(0), Some(0)).await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    let p = report.power.expect("power enabled");
    // Rank 0 busy 10 s (2000 J); rank 1 idle ~10 s (~1000 J).
    assert!(p.busy_joules >= 2000.0 - 1.0 && p.busy_joules <= 2000.0 + 1.0);
    assert!(p.idle_joules > 900.0 && p.idle_joules < 1100.0);
    assert!(p.busy_fraction > 0.4 && p.busy_fraction < 0.6);
}

#[test]
fn power_report_absent_without_model() {
    let report = SimBuilder::new(2)
        .net(NetModel::small(2))
        .run_app(|mpi| async move {
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert!(report.power.is_none());
}

#[test]
fn network_energy_counts_traffic() {
    let model = PowerModel {
        active_watts: 0.0,
        idle_watts: 0.0,
        joules_per_message: 1.0,
        joules_per_byte: 0.5,
    };
    let report = SimBuilder::new(2)
        .net(NetModel::small(2))
        .power(model)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                mpi.send(w, 1, 0, Bytes::from(vec![0u8; 100])).await?;
            } else {
                mpi.recv(w, Some(0), Some(0)).await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    let p = report.power.unwrap();
    // 1 message, 100 bytes: 1.0 + 50.0 J.
    assert!((p.network_joules - 51.0).abs() < 1e-9);
    assert_eq!(p.total_joules, p.network_joules);
}

#[test]
fn failures_cost_energy_through_recomputation() {
    // The performance/resilience/power trade-off: a failure/restart
    // cycle recomputes lost work, which costs energy.
    let mut cfg = HeatConfig::small();
    cfg.iterations = 40;
    cfg.mode = ComputeMode::Modeled;
    cfg.per_point = SimTime::from_micros(50);
    let n = cfg.n_ranks();

    let clean = SimBuilder::new(n)
        .net(NetModel::small(n))
        .power(PowerModel::typical_node())
        .run(heat3d::program(cfg.clone()))
        .unwrap();
    let e_clean = clean.power.unwrap().total_joules;

    // One failure + one restart via the orchestrator.
    let store = FsStore::new();
    let orch = Orchestrator::new(FailureModel::None, 1, CheckpointManager::new(&cfg.prefix));
    let program = heat3d::program(cfg.clone());
    let faulty = SimBuilder::new(n)
        .net(NetModel::small(n))
        .fs_store(store.clone())
        .power(PowerModel::typical_node())
        .inject_failure(3, clean.exit_time().scale(0.5))
        .run(program.clone())
        .unwrap();
    assert_eq!(faulty.sim.exit, ExitKind::Aborted);
    xsim_ckpt::write_exit_time(&store, faulty.exit_time());
    orch.manager
        .cleanup_between_runs(&store, n as u32, xsim::mpi::CkptMode::Full, &[]);
    let rerun = orch
        .run_to_completion(store, program, n, || {
            SimBuilder::new(n)
                .net(NetModel::small(n))
                .power(PowerModel::typical_node())
        })
        .unwrap();
    assert!(rerun.completed);
    let e_faulty: f64 = faulty.power.unwrap().total_joules
        + rerun
            .runs
            .iter()
            .map(|r| r.power.unwrap().total_joules)
            .sum::<f64>();
    assert!(
        e_faulty > e_clean * 1.1,
        "failure/restart must cost extra energy: {e_faulty} vs {e_clean}"
    );
}
