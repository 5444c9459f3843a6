//! End-to-end checkpoint/restart integration tests: the heat application
//! under failure/restart cycles, exercising every layer together (engine
//! → machine models → MPI → fault injection → checkpoint/restart).

use xsim::apps::heat3d::{self, HeatConfig};
use xsim::apps::ComputeMode;
use xsim::prelude::*;
use xsim_ckpt::read_exit_time;

fn small_cfg() -> HeatConfig {
    HeatConfig::small() // 8^3 grid, 2^3 ranks, 20 iterations, C = H = 5
}

fn make_builder(n: usize) -> SimBuilder {
    SimBuilder::new(n)
        .net(NetModel::small(n))
        .proc(ProcModel::default())
}

/// Read the final (iteration == max) grid of `rank` from the store.
fn final_grid(store: &FsStore, cfg: &HeatConfig, rank: u32) -> Vec<f64> {
    let mgr = CheckpointManager::new(&cfg.prefix);
    let generation = mgr
        .latest_complete(store, cfg.n_ranks() as u32)
        .expect("final checkpoint exists");
    assert_eq!(generation, cfg.iterations, "final checkpoint generation");
    let file = store
        .get(&mgr.file_name(generation, rank))
        .expect("file exists");
    let ckpt = Checkpoint::decode(file.bytes()).expect("valid checkpoint");
    ckpt.section("grid")
        .expect("grid section")
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn heat_completes_and_checkpoints_without_failures() {
    let cfg = small_cfg();
    let builder = make_builder(cfg.n_ranks());
    let store = builder.store();
    let report = builder.run(heat3d::program(cfg.clone())).unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    // Only the final generation remains (previous ones deleted after
    // the barrier, paper §V-B).
    let mgr = CheckpointManager::new(&cfg.prefix);
    assert_eq!(
        mgr.latest_complete(&store, cfg.n_ranks() as u32),
        Some(cfg.iterations)
    );
    assert_eq!(
        store.list_prefix("heat/ckpt/").len(),
        cfg.n_ranks(),
        "exactly one generation remains"
    );
}

#[test]
fn multirank_matches_single_rank_when_halos_are_fresh() {
    // With a halo exchange every iteration, the decomposed solve is
    // numerically identical to the single-rank solve.
    let mut multi = small_cfg();
    multi.halo_interval = 1;
    multi.iterations = 10;
    let mut single = multi.clone();
    single.ranks = [1, 1, 1];

    let mb = make_builder(multi.n_ranks());
    let ms = mb.store();
    mb.run(heat3d::program(multi.clone())).unwrap();

    let sb = make_builder(1);
    let ss = sb.store();
    sb.run(heat3d::program(single.clone())).unwrap();

    let whole = final_grid(&ss, &single, 0);
    // Compare rank 0's interior block (local 4^3 at origin) against the
    // corresponding region of the single-rank grid.
    let part = final_grid(&ms, &multi, 0);
    let l = multi.local(); // [4,4,4] with halo dims 6^3
    let sl = single.local(); // [8,8,8] with halo dims 10^3
    let idx = |dims: [usize; 3], i: usize, j: usize, k: usize| {
        (k * (dims[1] + 2) + j) * (dims[0] + 2) + i
    };
    for k in 1..=l[2] {
        for j in 1..=l[1] {
            for i in 1..=l[0] {
                let a = part[idx(l, i, j, k)];
                let b = whole[idx(sl, i, j, k)];
                assert!(
                    (a - b).abs() < 1e-12,
                    "mismatch at ({i},{j},{k}): {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn failure_restart_reproduces_failure_free_result() {
    // The gold test: a run with an injected failure + restart must
    // produce the exact same final grid as the failure-free run, because
    // checkpoint/restart recomputes the lost progress deterministically.
    let cfg = small_cfg();

    // Failure-free reference.
    let b = make_builder(cfg.n_ranks());
    let store_ref = b.store();
    let r = b.run(heat3d::program(cfg.clone())).unwrap();
    assert_eq!(r.sim.exit, ExitKind::Completed);
    let e1 = r.exit_time();

    // Faulty run: rank 3 dies mid-run; the orchestrator restarts until
    // completion.
    let store = FsStore::new();
    let mgr = CheckpointManager::new(&cfg.prefix);
    let orch = Orchestrator::new(FailureModel::None, 1, mgr);
    // Inject one deterministic failure through the builder instead of
    // the random model: wrap run 0 manually.
    let program = heat3d::program(cfg.clone());
    let first = make_builder(cfg.n_ranks())
        .fs_store(store.clone())
        .inject_failure(3, e1.scale(0.4))
        .run(program.clone())
        .unwrap();
    assert_eq!(first.sim.exit, ExitKind::Aborted);
    assert_eq!(first.sim.failures.len(), 1);

    // Between-runs cleanup + exit-time persistence, then restart to
    // completion via the orchestrator (no further failures).
    xsim_ckpt::write_exit_time(&store, first.exit_time());
    orch.manager
        .cleanup_between_runs(&store, cfg.n_ranks() as u32, xsim::mpi::CkptMode::Full, &[]);
    let result = orch
        .run_to_completion(store.clone(), program, cfg.n_ranks(), || {
            make_builder(cfg.n_ranks())
        })
        .unwrap();
    assert!(result.completed);

    // Continuous virtual timing: the final time exceeds the failure-free
    // time (lost progress was recomputed), and the restart started from
    // the aborted run's exit time (paper §IV-E).
    assert!(
        result.finish_time > e1,
        "E2 {} <= E1 {e1}",
        result.finish_time
    );

    // Numerical equivalence.
    for rank in 0..cfg.n_ranks() as u32 {
        let a = final_grid(&store_ref, &cfg, rank);
        let b = final_grid(&store, &cfg, rank);
        assert_eq!(a, b, "rank {rank} grids differ after restart");
    }
}

#[test]
fn orchestrator_drives_random_failures_to_completion() {
    let mut cfg = small_cfg();
    cfg.iterations = 40;
    cfg.mode = ComputeMode::Modeled;
    cfg.per_point = SimTime::from_micros(50); // long runs → failures hit

    // First measure E1 to pick an MTTF that produces failures.
    let b = make_builder(cfg.n_ranks());
    let e1 = b.run(heat3d::program(cfg.clone())).unwrap().exit_time();

    let mttf = e1.scale(0.5);
    let store = FsStore::new();
    let orch = Orchestrator::new(
        FailureModel::UniformTwiceMttf { mttf },
        42,
        CheckpointManager::new(&cfg.prefix),
    );
    let result = orch
        .run_to_completion(
            store.clone(),
            heat3d::program(cfg.clone()),
            cfg.n_ranks(),
            || make_builder(cfg.n_ranks()),
        )
        .unwrap();
    assert!(result.completed, "did not complete in restart budget");
    assert!(
        result.failures >= 1,
        "MTTF of E1/2 should produce at least one failure"
    );
    assert!(result.finish_time > e1);
    assert_eq!(result.runs.len() as u64, result.failures + 1);
    // MTTF_a = E2 / (F + 1), Table II definition.
    let mttfa = result.application_mttf().unwrap();
    assert_eq!(
        mttfa.as_nanos(),
        result.finish_time.as_nanos() / (result.failures + 1)
    );
    // Exit-time file reflects the last aborted run.
    assert!(read_exit_time(&store).is_some());
}

#[test]
fn checkpoint_interval_trades_overhead_for_lost_work() {
    // The qualitative content of Table II at small scale: shorter
    // checkpoint intervals cost a little without failures (E1 up) but
    // save recomputation under failures (E2 down).
    let mut base = small_cfg();
    base.iterations = 60;
    base.mode = ComputeMode::Modeled;
    base.per_point = SimTime::from_micros(100);
    // Charge checkpoints through a non-free file system so E1 moves.
    let fs_model = FsModel::typical_pfs();

    let e = |interval: u64| {
        let mut cfg = base.clone();
        cfg.ckpt_interval = interval;
        cfg.halo_interval = interval;
        let b = make_builder(cfg.n_ranks()).fs_model(fs_model);
        b.run(heat3d::program(cfg)).unwrap().exit_time()
    };
    let e1_coarse = e(30);
    let e1_fine = e(5);
    assert!(
        e1_fine > e1_coarse,
        "more checkpoints must cost more: {e1_fine} vs {e1_coarse}"
    );

    // With a mid-run failure, the finer interval loses less progress.
    let e2 = |interval: u64| {
        let mut cfg = base.clone();
        cfg.ckpt_interval = interval;
        cfg.halo_interval = interval;
        let program = heat3d::program(cfg.clone());
        let store = FsStore::new();
        let orch = Orchestrator::new(
            FailureModel::UniformTwiceMttf {
                mttf: e1_coarse.scale(0.45),
            },
            7,
            CheckpointManager::new(&cfg.prefix),
        );
        let res = orch
            .run_to_completion(store, program, cfg.n_ranks(), || {
                make_builder(cfg.n_ranks()).fs_model(fs_model)
            })
            .unwrap();
        assert!(res.completed);
        (res.finish_time, res.failures)
    };
    let (e2_coarse, f_coarse) = e2(30);
    let (e2_fine, f_fine) = e2(5);
    // Same failure draws (same seed) — compare only when both saw
    // failures.
    assert!(f_coarse >= 1 && f_fine >= 1);
    assert!(
        e2_fine < e2_coarse,
        "finer checkpointing should lose less progress: {e2_fine} vs {e2_coarse}"
    );
}

#[test]
fn heat_runs_identically_on_parallel_engine() {
    let mut cfg = small_cfg();
    cfg.mode = ComputeMode::Modeled;
    let run = |workers: usize| {
        SimBuilder::new(cfg.n_ranks())
            .net(NetModel::small(cfg.n_ranks()))
            .workers(workers)
            .inject_failure(5, SimTime::from_micros(600))
            .errhandler(ErrHandler::Fatal)
            .run(heat3d::program(cfg.clone()))
            .unwrap()
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.sim.final_clocks, par.sim.final_clocks);
    assert_eq!(seq.sim.exit, par.sim.exit);
    assert_eq!(seq.sim.abort_time, par.sim.abort_time);
}

#[test]
fn failure_during_checkpoint_phase_leaves_incomplete_set() {
    // Paper §V-D: "a failure during the checkpoint phase is detected in
    // the following barrier … always resulting in an incomplete or
    // corrupted checkpoint". Inject a failure timed into the checkpoint
    // window by using a costly file system.
    let mut cfg = small_cfg();
    cfg.iterations = 10;
    cfg.ckpt_interval = 5;
    cfg.halo_interval = 5;
    let fs_model = FsModel {
        meta_latency: SimTime::from_millis(1),
        write_bw: 1.0e6, // slow writes → wide checkpoint window
        read_bw: 1.0e9,
        pfs: None,
    };
    // First, find when the first checkpoint starts: run cleanly.
    let probe = make_builder(cfg.n_ranks()).fs_model(fs_model);
    let clean = probe.run(heat3d::program(cfg.clone())).unwrap();
    assert_eq!(clean.sim.exit, ExitKind::Completed);

    // Now kill rank 2 inside the first checkpoint window. The window is
    // wide (ms-scale writes), so one-third of the clean exit time lands
    // either in compute or checkpoint; sweep a few times to hit it.
    let mut hit_incomplete = false;
    for frac in [0.35, 0.4, 0.45, 0.5, 0.55] {
        let cfgx = cfg.clone();
        let b = make_builder(cfgx.n_ranks()).fs_model(fs_model);
        let store = b.store();
        let at = clean.exit_time().scale(frac);
        let r = b
            .inject_failure(2, at)
            .run(heat3d::program(cfgx.clone()))
            .unwrap();
        if r.sim.exit != ExitKind::Aborted {
            continue;
        }
        let mgr = CheckpointManager::new(&cfgx.prefix);
        let removed = mgr.cleanup_between_runs(
            &store,
            cfgx.n_ranks() as u32,
            xsim::mpi::CkptMode::Full,
            &[],
        );
        if !removed.is_empty() {
            hit_incomplete = true;
            break;
        }
    }
    assert!(
        hit_incomplete,
        "no injection produced an incomplete checkpoint set"
    );
}

/// For any failure time within the run, checkpoint/restart must
/// reproduce the failure-free final grid exactly, and the final
/// time must exceed the failure-free time (lost work recomputed).
/// Case `i` draws from `DetRng::stream(0xC0DE_0007, i)`.
#[test]
fn restart_reproduces_result_for_any_failure_time() {
    let mut restarted = 0;
    xsim::core::rng::for_each_case(0xC0DE_0007, 10, |g| {
        let frac = 0.05 + 0.9 * g.gen_f64();
        let victim = g.gen_index(8);
        let cfg = small_cfg();
        let reference = make_builder(cfg.n_ranks());
        let store_ref = reference.store();
        let e1 = reference
            .run(heat3d::program(cfg.clone()))
            .unwrap()
            .exit_time();

        let store = FsStore::new();
        let program = heat3d::program(cfg.clone());
        let first = make_builder(cfg.n_ranks())
            .fs_store(store.clone())
            .inject_failure(victim, e1.scale(frac))
            .run(program.clone())
            .unwrap();
        if first.sim.exit != ExitKind::Aborted {
            return; // very late injections may miss
        }
        xsim_ckpt::write_exit_time(&store, first.exit_time());
        let mgr = CheckpointManager::new(&cfg.prefix);
        mgr.cleanup_between_runs(&store, cfg.n_ranks() as u32, xsim::mpi::CkptMode::Full, &[]);
        let orch = Orchestrator::new(FailureModel::None, 1, mgr);
        let result = orch
            .run_to_completion(store.clone(), program, cfg.n_ranks(), || {
                make_builder(cfg.n_ranks())
            })
            .unwrap();
        assert!(result.completed);
        assert!(result.finish_time > e1);
        for rank in 0..cfg.n_ranks() as u32 {
            let a = final_grid(&store_ref, &cfg, rank);
            let b = final_grid(&store, &cfg, rank);
            assert_eq!(&a, &b, "rank {rank} diverged");
        }
        restarted += 1;
    });
    assert!(restarted >= 8, "only {restarted} injections hit the run");
}
