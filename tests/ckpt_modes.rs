//! Restore-equivalence differential suite for the checkpoint modes over
//! the striped PFS model. For every mode (full, aggregated, buddy,
//! incremental) the suite kills a rank mid-run, restarts to completion,
//! and asserts:
//!
//! * **Engine invariance** (the `engine_diff` bar): every run of the
//!   failure/restart campaign produces a byte-identical
//!   `ObsReport::to_json(None)` snapshot — and identical
//!   engine-independent scalars — on the sequential engine, the parallel
//!   engine pinned to one worker, and the parallel engine with real
//!   thread counts.
//! * **Restore equivalence**: the final application state (the grid
//!   resolved from the store, replaying diff chains / unwrapping
//!   containers as the mode requires) is identical across all four
//!   modes and identical to the uninterrupted run's final state.
//!
//! Also pins two mode-independent regressions: the Table II
//! `paper_builder` still models free checkpoint I/O, and the Daly
//! predicted-vs-actual overhead helper stays honest.

use xsim::apps::heat3d::{self, HeatConfig};
use xsim::apps::ComputeMode;
use xsim::mpi::CkptMode;
use xsim::prelude::*;
use xsim_bench::paper_builder;
use xsim_ckpt::{compare_overhead, resolve_latest, write_exit_time};

/// I/O nodes of the simulated striped PFS (2 nodes for 8 client ranks →
/// real cross-rank contention on every checkpoint).
const IO_NODES: u32 = 2;

fn modes() -> [(CkptMode, &'static str); 4] {
    [
        (CkptMode::Full, "full"),
        (CkptMode::Aggregated { group: 4 }, "agg:4"),
        (CkptMode::Buddy, "buddy"),
        (CkptMode::Incremental { full_every: 2 }, "incr:2"),
    ]
}

fn cfg_for(mode: CkptMode) -> HeatConfig {
    let mut cfg = HeatConfig::small(); // 8³ grid, 2³ ranks, real compute
    cfg.ckpt_mode = mode;
    cfg
}

fn builder(n: usize, workers: usize, engine: EngineKind) -> SimBuilder {
    SimBuilder::new(n)
        .net(NetModel::small(n))
        .fs_model(FsModel::striped(IO_NODES))
        .workers(workers)
        .engine(engine)
        .metrics(true)
}

/// The deterministic metrics snapshot (no engine section).
fn snapshot(report: &RunReport) -> String {
    report
        .metrics
        .as_ref()
        .expect("metrics enabled")
        .to_json(None)
}

/// Engine-independent scalars of one run, the run digest last.
type Scalars = (ExitKind, Vec<SimTime>, u64, usize, u64);

fn scalars(report: &RunReport) -> Scalars {
    (
        report.sim.exit,
        report.sim.final_clocks.clone(),
        report.sim.events_processed,
        report.sim.failures.len(),
        report.sim.digest,
    )
}

/// Every rank's final grid bytes, resolved offline from the store
/// through the mode's own layout (container sections, buddy memory
/// copies, diff-chain replay).
fn final_state(store: &FsStore, cfg: &HeatConfig) -> Vec<Vec<u8>> {
    let mgr = CheckpointManager::new(&cfg.prefix);
    let n = cfg.n_ranks() as u32;
    (0..n)
        .map(|rank| {
            let resolved = resolve_latest(store, &mgr, cfg.ckpt_mode, rank, n)
                .unwrap_or_else(|| panic!("rank {rank}: no restorable checkpoint"));
            assert_eq!(
                resolved.generation, cfg.iterations,
                "rank {rank}: final generation"
            );
            assert_eq!(resolved.ckpt.iteration, cfg.iterations);
            resolved
                .ckpt
                .section("grid")
                .expect("grid section")
                .to_vec()
        })
        .collect()
}

/// One kill-mid-run → restore → run-to-completion campaign.
struct Campaign {
    /// Per-run metrics snapshots, execution order (aborted run first).
    snapshots: Vec<String>,
    /// Per-run engine-independent scalars.
    scalars: Vec<Scalars>,
    /// Final virtual completion time.
    finish_time: SimTime,
    /// Final per-rank grid bytes.
    state: Vec<Vec<u8>>,
}

fn run_campaign(mode: CkptMode, kill_at: SimTime, workers: usize, engine: EngineKind) -> Campaign {
    let cfg = cfg_for(mode);
    let n = cfg.n_ranks();
    let store = FsStore::new();
    let program = heat3d::program(cfg.clone());

    // Run 0: rank 3 dies mid-run.
    let first = builder(n, workers, engine)
        .fs_store(store.clone())
        .inject_failure(3, kill_at)
        .run(program.clone())
        .expect("aborted run");
    assert_eq!(first.sim.exit, ExitKind::Aborted, "victim must die mid-run");
    let failed: Vec<u32> = first.sim.failures.iter().map(|f| f.rank.0).collect();
    write_exit_time(&store, first.exit_time());
    CheckpointManager::new(&cfg.prefix).cleanup_between_runs(&store, n as u32, mode, &failed);

    // Restart to completion (no further failures), continuous timeline.
    let mut orch = Orchestrator::new(FailureModel::None, 1, CheckpointManager::new(&cfg.prefix));
    orch.mode = mode;
    let result = orch
        .run_to_completion(store.clone(), program, n, || builder(n, workers, engine))
        .expect("restart campaign");
    assert!(result.completed, "campaign did not complete");
    assert!(result.finish_time > kill_at);

    let mut runs = vec![first];
    runs.extend(result.runs);
    Campaign {
        snapshots: runs.iter().map(snapshot).collect(),
        scalars: runs.iter().map(scalars).collect(),
        finish_time: result.finish_time,
        state: final_state(&store, &cfg),
    }
}

/// The parallel legs every scenario must reproduce byte-for-byte.
const LEGS: [(usize, EngineKind, &str); 2] = [
    (1, EngineKind::Parallel, "parallel(1)"),
    (4, EngineKind::Auto, "parallel(4)"),
];

#[test]
fn modes_are_engine_invariant_and_restore_equivalent() {
    let mut cross_mode: Option<Vec<Vec<u8>>> = None;
    for (mode, label) in modes() {
        let cfg = cfg_for(mode);
        let n = cfg.n_ranks();

        // Uninterrupted reference run under the same striped PFS.
        let clean_builder = builder(n, 1, EngineKind::Sequential);
        let clean_store = clean_builder.store();
        let clean = clean_builder
            .run(heat3d::program(cfg.clone()))
            .expect("clean run");
        assert_eq!(clean.sim.exit, ExitKind::Completed, "{label}: clean run");
        let clean_state = final_state(&clean_store, &cfg);
        let kill_at = clean.exit_time().scale(0.45);

        // Sequential campaign is the per-mode reference.
        let seq = run_campaign(mode, kill_at, 1, EngineKind::Sequential);
        assert!(seq.snapshots.len() >= 2, "{label}: restart happened");
        assert_eq!(
            seq.state, clean_state,
            "{label}: restored final state differs from the uninterrupted run"
        );
        assert!(
            seq.finish_time > clean.exit_time(),
            "{label}: lost progress was recomputed ({} vs {})",
            seq.finish_time,
            clean.exit_time()
        );

        // Engine invariance: every leg reproduces the sequential
        // campaign byte-for-byte, run by run.
        for (workers, engine, leg) in LEGS {
            let par = run_campaign(mode, kill_at, workers, engine);
            assert_eq!(
                par.snapshots, seq.snapshots,
                "{label}/{leg}: metrics snapshots diverged from sequential"
            );
            assert_eq!(par.scalars, seq.scalars, "{label}/{leg}: run scalars");
            assert_eq!(par.finish_time, seq.finish_time, "{label}/{leg}: E2");
            assert_eq!(par.state, seq.state, "{label}/{leg}: final state");
        }

        // Restore equivalence across modes: all four land on the exact
        // same physics.
        match &cross_mode {
            None => cross_mode = Some(clean_state),
            Some(reference) => assert_eq!(
                &clean_state, reference,
                "{label}: final state differs across checkpoint modes"
            ),
        }
    }
}

/// The aggregated container really coalesces the PFS traffic: per
/// generation the PFS sees one file per group instead of one per rank,
/// and member state travels over the simulated network.
#[test]
fn aggregated_mode_coalesces_pfs_files() {
    let mode = CkptMode::Aggregated { group: 4 };
    let cfg = cfg_for(mode);
    let n = cfg.n_ranks();
    let b = builder(n, 1, EngineKind::Sequential);
    let store = b.store();
    let report = b.run(heat3d::program(cfg.clone())).expect("agg run");
    assert_eq!(report.sim.exit, ExitKind::Completed);
    // 8 ranks in groups of 4 → 2 container files for the surviving
    // generation, no per-rank files.
    let files = store.list_prefix(&format!("{}/ckpt/", cfg.prefix));
    assert_eq!(files.len(), 2, "one container per group: {files:?}");
    assert!(files.iter().all(|f| f.contains("agg")));
    let obs = report.metrics.as_ref().expect("metrics");
    assert!(obs.set.value(metric_ids::CKPT_AGG_GATHERS) > 0);
    assert!(obs.set.value(metric_ids::CKPT_AGG_FORWARD_BYTES) > 0);
}

/// Buddy mode keeps the PFS out of the write path entirely when every
/// rank has a partner: state lives (twice) in the node-memory tier.
#[test]
fn buddy_mode_avoids_pfs_when_partnered() {
    let cfg = cfg_for(CkptMode::Buddy);
    let n = cfg.n_ranks(); // 8 ranks — everyone has a partner
    let b = builder(n, 1, EngineKind::Sequential);
    let store = b.store();
    let report = b.run(heat3d::program(cfg.clone())).expect("buddy run");
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert!(
        store
            .list_prefix(&format!("{}/ckpt/", cfg.prefix))
            .is_empty(),
        "no PFS checkpoint files in partnered buddy mode"
    );
    // Final generation: both copies of every rank's state in memory.
    let mem = store.list_prefix(&format!("{}/mem/", cfg.prefix));
    assert_eq!(mem.len(), 2 * n, "own + partner copy per rank: {mem:?}");
    let obs = report.metrics.as_ref().expect("metrics");
    assert_eq!(obs.set.value(metric_ids::CKPT_BUDDY_COPIES), {
        // One copy event per rank per surviving + retired generation
        // (20 iterations / C=5 → 4 generations × 8 ranks).
        4 * n as u64
    });
    assert_eq!(obs.set.value(metric_ids::CKPT_BUDDY_SPILLS), 0);
}

/// Table II fidelity regression: `paper_builder` still models *free*
/// checkpoint I/O ("the file system overhead for checkpoint/restart was
/// not considered in the experiments", §V-C). Charging a PFS must change
/// the completion time; making the free model explicit must not.
#[test]
fn paper_builder_keeps_free_fs_table_ii_fidelity() {
    let mut cfg = HeatConfig::paper(5);
    // Scale the paper config down (same per-rank load, fewer ranks).
    cfg.ranks = [2, 2, 2];
    cfg.global = [32, 32, 32];
    cfg.iterations = 10;

    let default_run = paper_builder(&cfg, 1, 17)
        .run(heat3d::program(cfg.clone()))
        .expect("paper run");
    assert_eq!(default_run.sim.exit, ExitKind::Completed);

    let explicit_free = paper_builder(&cfg, 1, 17)
        .fs_model(FsModel::free())
        .run(heat3d::program(cfg.clone()))
        .expect("free-fs run");
    assert_eq!(
        default_run.exit_time(),
        explicit_free.exit_time(),
        "paper_builder's default FS model is no longer free"
    );
    assert_eq!(default_run.sim.final_clocks, explicit_free.sim.final_clocks);

    let charged = paper_builder(&cfg, 1, 17)
        .fs_model(FsModel::striped(IO_NODES))
        .run(heat3d::program(cfg.clone()))
        .expect("striped run");
    assert!(
        charged.exit_time() > default_run.exit_time(),
        "striped PFS must cost virtual time over the free Table II model"
    );

    // E1 calibration: with free I/O the run is compute + communication;
    // compute alone is iterations × points/rank × per_point × 1000
    // slowdown, and communication adds only a small margin at this
    // scale.
    let compute_ns = cfg.iterations * cfg.points_per_rank() * cfg.per_point.as_nanos() * 1000;
    let e1 = default_run.exit_time().as_nanos();
    assert!(
        e1 >= compute_ns && e1 < compute_ns + compute_ns / 10,
        "E1 {e1} ns strayed from the calibrated compute time {compute_ns} ns"
    );
}

/// Daly honesty check: the predicted overhead fraction δ/(τ+δ) — built
/// from the *configured* FS model and the *measured* checkpoint volume —
/// must track the measured commit share of the run. The bound is a
/// tripwire at ≈2× the error measured when this test was written
/// (≈0.002), so a regression that doubles the model error fails loudly.
#[test]
fn daly_overhead_prediction_stays_honest() {
    let mut cfg = HeatConfig::small();
    cfg.mode = ComputeMode::Real;
    cfg.iterations = 40;
    cfg.ckpt_interval = 10;
    cfg.halo_interval = 10;
    // Compute-dominated regime (δ ≪ τ) — where Daly's failure-free
    // idealization is supposed to hold.
    cfg.per_point = SimTime::from_micros(2);
    let fs = FsModel::typical_pfs();

    let report = SimBuilder::new(cfg.n_ranks())
        .net(NetModel::small(cfg.n_ranks()))
        .fs_model(fs)
        .metrics(true)
        .run(heat3d::program(cfg.clone()))
        .expect("metered run");
    assert_eq!(report.sim.exit, ExitKind::Completed);
    let obs = report.metrics.as_ref().expect("metrics");
    let commit = obs.set.hist(metric_ids::CKPT_COMMIT_NS).expect("histogram");
    let writes = obs.set.value(metric_ids::CKPT_WRITES);
    let bytes = obs.set.value(metric_ids::CKPT_BYTES_WRITTEN);
    assert!(writes > 0 && commit.count == writes);

    // Model-side δ: the FS model's write time for the measured
    // per-checkpoint volume. Model-side τ: the per-cycle useful compute.
    let delta = fs.write_time((bytes / writes) as usize);
    let tau = SimTime(cfg.ckpt_interval * cfg.points_per_rank() * cfg.per_point.as_nanos());

    // Measured side: total commit time over total busy time, per rank.
    let n = cfg.n_ranks() as u64;
    let run_ns = report.exit_time().as_nanos() * n;
    let cmp = compare_overhead(tau, delta, commit.sum, run_ns);
    assert!(cmp.predicted_fraction > 0.0 && cmp.actual_fraction > 0.0);
    assert!(
        cmp.error().abs() < 0.004,
        "Daly overhead prediction drifted: predicted {:.4}, actual {:.4} \
         (tripwire at 2× the error measured at pin time)",
        cmp.predicted_fraction,
        cmp.actual_fraction
    );
}
