//! Reproduces the paper's **§V-D "First Impressions"** narrative:
//! where in the computation → halo exchange → checkpoint → barrier
//! (→ delete previous checkpoint) cycle an injected failure lands, where
//! it is detected, and what it leaves behind on the checkpoint store
//! (incomplete/corrupted checkpoints, partially deleted old
//! checkpoints).
//!
//! The checkpoint write and delete phases are given a real I/O cost
//! (unlike Table II, which follows the paper in making checkpointing
//! free) so injections can land inside them.
//!
//! `--quick` runs the 4,096-rank configuration instead of the paper's
//! 32,768 ranks. `--failures` (or `XSIM_FAILURES` / `XSIM_NET_FAULTS`)
//! perturbs the clean run.

use crate::secs;
use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::scenario::Cli;
use xsim_bench::{fixed, Report};
use xsim_bench::{messages_moved, paper_builder, per_message_wall, table2_config};
use xsim_ckpt::CheckpointManager;
use xsim_core::{ExitKind, SimTime};
use xsim_fs::FsModel;
use xsim_mpi::CkptMode;
use xsim_obs::Json;

/// Run one injection; returns (activation, abort, surviving generation,
/// removed incomplete sets).
fn run_injection(
    cfg: &HeatConfig,
    fs_model: FsModel,
    workers: usize,
    seed: u64,
    at: SimTime,
) -> (SimTime, Option<SimTime>, Option<u64>, usize) {
    let builder = paper_builder(cfg, workers, seed).fs_model(fs_model);
    let store = builder.store();
    let report = builder
        .inject_failure(7, at)
        .run(heat3d::program(cfg.clone()))
        .expect("faulty run");
    let mgr = CheckpointManager::new(&cfg.prefix);
    let n = cfg.n_ranks() as u32;
    let latest = mgr.latest_complete(&store, n);
    let removed = mgr
        .cleanup_between_runs(&store, n, CkptMode::Full, &[])
        .len();
    let act = report.sim.failures.first().expect("activated").actual;
    (act, report.sim.abort_time, latest, removed)
}

/// The `first-impressions` campaign.
pub(crate) fn run(cli: &Cli) -> Report {
    let (workers, seed) = (cli.scenario.workers, cli.scenario.seed);
    let mut cfg = table2_config(cli.quick, 250);
    cfg.iterations = 1000;
    let io = SimTime::from_secs(20);
    let fs_model = FsModel {
        meta_latency: io,
        write_bw: 1.0e9,
        read_bw: 2.0e9,
        pfs: None,
    };

    // The "clean" run takes the scenario's faults so the narrative can be
    // perturbed from the command line or the environment.
    // Metrics stay on for the clean run so its per-message host cost can
    // be reported (deterministic counters don't perturb virtual time).
    let builder = cli
        .scenario
        .inject(paper_builder(&cfg, workers, seed).fs_model(fs_model))
        .metrics(true)
        .trace(cli.profile.is_some());
    let wall_t = std::time::Instant::now();
    let clean = builder
        .run(heat3d::program(cfg.clone()))
        .expect("clean run");
    let wall = wall_t.elapsed();
    assert_eq!(clean.sim.exit, ExitKind::Completed);
    if let Some(p) = &cli.profile {
        clean.write_profile(p).expect("write profile");
    }
    let compute =
        SimTime(cfg.per_point.as_nanos() * cfg.points_per_rank() * cfg.ckpt_interval).scale(1000.0);
    let mut r = Report::default();
    r.table(
        "Clean run (a period: compute, halo exchange, checkpoint write, barrier, delete of \
         the previous checkpoint)",
        "e1_s compute_s write_s delete_s messages wall_ms us_per_msg",
    );
    r.row(vec![
        secs(clean.exit_time()),
        secs(compute),
        secs(io),
        secs(io),
        messages_moved(&clean).unwrap_or(0).into(),
        fixed(wall.as_secs_f64() * 1e3, 2),
        per_message_wall(&clean, wall).map_or(Json::Null, |s| fixed(s * 1e6, 2)),
    ]);

    r.table(
        "Where an injected failure lands (§V-D)",
        "failure_during activated_s abort_s surviving_ckpt sets_cleaned",
    );
    let mut land = |phase: &str, at| {
        let (act, abort, latest, removed) = run_injection(&cfg, fs_model, workers, seed, at);
        let abort = abort.unwrap_or_else(|| panic!("a failure during {phase} must abort"));
        let latest = latest.map_or(Json::Null, Json::from);
        r.row(vec![
            phase.into(),
            secs(act),
            secs(abort),
            latest,
            removed.into(),
        ]);
        act
    };
    // A mid-compute failure in period 1 activates exactly at the
    // period's compute end (paper §IV-B) — this anchors the timeline.
    let a1 = land(
        "COMPUTATION (detected in the halo exchange)",
        compute.scale(0.5),
    );
    // Period 2 anchors: compute end of period 2 ≈ a1 + write + barrier +
    // compute. Probe again for exactness.
    let a2 = land(
        "COMPUTATION of period 2 (probe)",
        a1 + io + compute - compute.scale(0.3),
    );
    let five = SimTime::from_secs(5);
    land("CHECKPOINTING (detected in the next barrier)", a2 + five);
    land(
        "the POST-BARRIER DELETE of the old checkpoint",
        a2 + io + five,
    );
    r.note(
        "paper narrative (§V-D): \"the application aborted during the halo exchange and/or \
         checkpoint phase, always resulting in an incomplete or corrupted checkpoint, or \
         during the barrier phase resulting in only partially deleted old checkpoints.\"",
    );
    r
}
