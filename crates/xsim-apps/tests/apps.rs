//! Application-level integration tests: Jacobi convergence, heat
//! determinism across engines and modes, kernel apps.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::jacobi2d::{self, JacobiConfig, JacobiOutcome};
use xsim_apps::ComputeMode;
use xsim_apps::{kernels, sweep};
use xsim_core::vp::VpProgram;
use xsim_core::{ExitKind, Kernel, Rank, SimTime};
use xsim_mpi::state::MpiService;
use xsim_mpi::{CkptMode, SimBuilder};
use xsim_net::NetModel;

#[test]
fn jacobi_converges_and_agrees_across_rank_counts() {
    let run = |ranks: usize| {
        let out: Arc<Mutex<Option<JacobiOutcome>>> = Arc::new(Mutex::new(None));
        let out2 = out.clone();
        let cfg = JacobiConfig {
            nx: 16,
            ny: 16,
            max_iters: 2000,
            tolerance: 1e-7,
            residual_interval: 1, // residual checked every iteration →
            // identical stopping point for every decomposition
            per_point: SimTime::from_nanos(10),
        };
        let report = SimBuilder::new(ranks)
            .net(NetModel::small(ranks))
            .run(jacobi2d::program(
                cfg,
                Some(Arc::new(move |o| {
                    *out2.lock().unwrap() = Some(o);
                })),
            ))
            .unwrap();
        assert_eq!(report.sim.exit, ExitKind::Completed);
        let result = out.lock().unwrap().expect("rank 0 reported");
        result
    };
    let single = run(1);
    assert!(
        single.residual <= 1e-7,
        "did not converge: {}",
        single.residual
    );
    assert!(single.iters < 2000, "hit the iteration cap");
    let multi = run(4);
    assert_eq!(
        multi.iters, single.iters,
        "decomposition changed convergence"
    );
    assert!((multi.residual - single.residual).abs() < 1e-12);
}

#[test]
fn jacobi_rejects_indivisible_rank_counts() {
    let cfg = JacobiConfig::small(); // ny = 32
    let report = SimBuilder::new(3)
        .net(NetModel::small(3))
        .run(jacobi2d::program(cfg, None))
        .unwrap();
    // Every rank errors out with Invalid → treated as process failures.
    assert_ne!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn heat_modeled_and_real_have_identical_timing() {
    // The modeled compute mode must charge exactly the time the real
    // mode does — that is what justifies using it at paper scale.
    let mut real = HeatConfig::small();
    real.iterations = 10;
    let mut modeled = real.clone();
    modeled.mode = ComputeMode::Modeled;

    let t_real = SimBuilder::new(real.n_ranks())
        .net(NetModel::small(real.n_ranks()))
        .run(heat3d::program(real))
        .unwrap()
        .exit_time();
    let t_modeled = SimBuilder::new(modeled.n_ranks())
        .net(NetModel::small(modeled.n_ranks()))
        .run(heat3d::program(modeled.clone()))
        .unwrap()
        .exit_time();
    // Checkpoint sizes differ (grid vs token), but with the default free
    // FS model and equal message sizes the times must match exactly.
    assert_eq!(t_real, t_modeled);
}

#[test]
fn heat_timing_scales_linearly_with_iterations() {
    let time_for = |iters: u64| {
        let mut cfg = HeatConfig::small();
        cfg.mode = ComputeMode::Modeled;
        cfg.iterations = iters;
        cfg.halo_interval = iters; // single round → pure compute scaling
        cfg.ckpt_interval = iters;
        SimBuilder::new(cfg.n_ranks())
            .net(NetModel::small(cfg.n_ranks()))
            .run(heat3d::program(cfg))
            .unwrap()
            .exit_time()
    };
    let t10 = time_for(10);
    let t20 = time_for(20);
    let t40 = time_for(40);
    // Communication/checkpoint overhead is a constant per run (one round
    // each); compare differences to isolate the compute term.
    let d1 = (t20 - t10).as_nanos() as f64;
    let d2 = (t40 - t20).as_nanos() as f64;
    let ratio = d2 / d1;
    assert!(
        (ratio - 2.0).abs() < 0.01,
        "compute term should scale linearly: {ratio}"
    );
}

/// Requests left in the request tables of all ranks when the engine
/// shuts down after a completed run of `program` on `n` ranks.
fn requests_left_at_shutdown(n: usize, program: Arc<dyn VpProgram>) -> usize {
    let left = Arc::new(AtomicUsize::new(0));
    let sink = left.clone();
    let report = SimBuilder::new(n)
        .net(NetModel::small(n))
        .setup_hook(move |k| {
            let sink = sink.clone();
            k.add_shutdown_hook(Arc::new(move |k: &mut Kernel| {
                let svc = k.service::<MpiService>();
                let live: usize = svc.owned().map(|r| svc.rank(Rank::new(r)).reqs.len()).sum();
                sink.fetch_add(live, Relaxed);
            }));
        })
        .run(program)
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    left.load(Relaxed)
}

#[test]
fn fire_and_forget_sends_are_freed_by_every_app() {
    let mut heat = HeatConfig::small();
    for mode in [ComputeMode::Real, ComputeMode::Modeled] {
        heat.mode = mode;
        let n = heat.n_ranks();
        assert_eq!(
            requests_left_at_shutdown(n, heat3d::program(heat.clone())),
            0
        );
    }
    // Aggregated checkpoints forward each member's state with a freed
    // send.
    heat.ckpt_mode = CkptMode::Aggregated { group: 4 };
    let n = heat.n_ranks();
    assert_eq!(requests_left_at_shutdown(n, heat3d::program(heat)), 0);
    let jacobi = jacobi2d::program(JacobiConfig::small(), None);
    assert_eq!(requests_left_at_shutdown(4, jacobi), 0);
    let cfg = sweep::SweepConfig::small();
    assert_eq!(
        requests_left_at_shutdown(cfg.n_ranks(), sweep::program(cfg)),
        0
    );
}

#[test]
fn ring_token_visits_every_rank() {
    let n = 32;
    let report = SimBuilder::new(n)
        .net(NetModel::small(n))
        .run(kernels::ring(2, 8))
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert_eq!(report.mpi.sends as usize, 2 * n);
    assert_eq!(report.mpi.recvs as usize, 2 * n);
}

#[test]
fn ring_single_rank_degenerates_gracefully() {
    let report = SimBuilder::new(1)
        .net(NetModel::small(1))
        .run(kernels::ring(5, 64))
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert_eq!(report.mpi.sends, 0);
}

#[test]
fn compute_allreduce_validates_results() {
    let report = SimBuilder::new(16)
        .net(NetModel::small(16))
        .run(kernels::compute_allreduce(4, 8, SimTime::from_millis(2)))
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    // 4 allreduces per rank; each allreduce = reduce + bcast internally,
    // counted once per rank per call at the API level... the collective
    // counter counts coll_begin calls: allreduce → reduce + bcast = 2,
    // per rank per round.
    assert!(report.mpi.collectives >= 16 * 4);
}

#[test]
fn pingpong_round_trip_time_is_symmetric() {
    let report = SimBuilder::new(2)
        .net(NetModel::small(2))
        .run(kernels::pingpong(10, 512))
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    let d = report.sim.final_clocks[0] - report.sim.final_clocks[1];
    // Rank 0 finishes after receiving the last pong; rank 1 after
    // sending it — their clocks differ by at most one message time.
    assert!(d < SimTime::from_millis(1), "clock gap {d}");
}

mod sweep_tests {
    use super::*;
    use xsim_apps::sweep::{self, SweepConfig};

    #[test]
    fn wavefront_finish_time_matches_pipeline_model() {
        // With negligible communication, one sweep finishes at the
        // far corner at T ≈ (pipeline_fill + planes) · per_plane.
        let cfg = SweepConfig {
            grid: [4, 4],
            planes: 8,
            sweeps: 1,
            per_plane: SimTime::from_millis(10),
            face_bytes: 64,
        };
        let report = SimBuilder::new(cfg.n_ranks())
            .net(NetModel::small(cfg.n_ranks()))
            .run(sweep::program(cfg.clone()))
            .unwrap();
        assert_eq!(report.sim.exit, ExitKind::Completed);
        let last = report.sim.final_clocks[cfg.n_ranks() - 1];
        let per = SimTime::from_millis(10);
        let ideal = SimTime(per.as_nanos() * (cfg.pipeline_fill() as u64 + cfg.planes as u64));
        // Within 5% of the analytic pipeline model (communication adds
        // a little).
        let slack = ideal.scale(1.05);
        assert!(
            last >= ideal && last <= slack,
            "far corner at {last}, pipeline model {ideal}"
        );
        // Corner rank 0 finishes first (it only computes + forwards).
        assert!(report.sim.final_clocks[0] < last);
    }

    #[test]
    fn one_slow_rank_stalls_the_wavefront() {
        let cfg = SweepConfig {
            grid: [4, 4],
            planes: 4,
            sweeps: 1,
            per_plane: SimTime::from_millis(10),
            face_bytes: 64,
        };
        let fast = SimBuilder::new(cfg.n_ranks())
            .net(NetModel::small(cfg.n_ranks()))
            .run(sweep::program(cfg.clone()))
            .unwrap()
            .exit_time();
        // Slow down rank 5 (interior) by 4x via the processor model.
        let slow = SimBuilder::new(cfg.n_ranks())
            .net(NetModel::small(cfg.n_ranks()))
            .proc(xsim_proc::ProcModel::default().override_speed(xsim_core::Rank(5), 0.25))
            .run(sweep::program(cfg.clone()))
            .unwrap()
            .exit_time();
        assert!(
            slow > fast.scale(1.5),
            "a slow interior rank must stall the pipeline: {slow} vs {fast}"
        );
    }

    #[test]
    fn wavefront_failure_aborts_downstream() {
        let cfg = SweepConfig::small();
        let report = SimBuilder::new(cfg.n_ranks())
            .net(NetModel::small(cfg.n_ranks()))
            .inject_failure(0, SimTime::from_micros(50))
            .run(sweep::program(cfg))
            .unwrap();
        // The corner rank dies; everyone downstream starves and the
        // detection timeout escalates into the abort cascade.
        assert_eq!(report.sim.exit, ExitKind::Aborted);
        assert_eq!(report.sim.failures.len(), 1);
    }
}
