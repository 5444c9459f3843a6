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
//! ```text
//! cargo run --release -p xsim-bench --bin first_impressions [--quick] [--seed N] \
//!     [--workers N] [--failures SPEC] [--profile FILE]
//! ```
//!
//! `--quick` runs the 4,096-rank configuration instead of the paper's
//! 32,768 ranks. `--failures` (or `XSIM_FAILURES` / `XSIM_NET_FAULTS`)
//! perturbs the clean run.

use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::scenario::Cli;
use xsim_bench::{messages_moved, paper_builder, per_message_wall, table2_config, write_profile};
use xsim_ckpt::CheckpointManager;
use xsim_core::{ExitKind, SimTime};
use xsim_fs::FsModel;

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
    let removed = mgr.cleanup_incomplete(&store, n).len();
    let act = report.sim.failures.first().expect("activated").actual;
    (act, report.sim.abort_time, latest, removed)
}

fn main() {
    let cli = Cli::from_main(
        std::env::args(),
        "quick workers seed profile failures",
        |k| std::env::var(k).ok(),
    );
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
    let mut builder = cli
        .scenario
        .inject(paper_builder(&cfg, workers, seed).fs_model(fs_model))
        .metrics(true);
    if cli.profile.is_some() {
        builder = builder.trace(true);
    }
    let wall_t = std::time::Instant::now();
    let clean = builder
        .run(heat3d::program(cfg.clone()))
        .expect("clean run");
    let wall = wall_t.elapsed();
    assert_eq!(clean.sim.exit, ExitKind::Completed);
    if let Some(p) = &cli.profile {
        write_profile(&clean, p);
    }
    let compute =
        SimTime(cfg.per_point.as_nanos() * cfg.points_per_rank() * cfg.ckpt_interval).scale(1000.0);
    println!(
        "clean run: E1 = {}; per period: {} compute, then halo exchange, \
         then ~{io} checkpoint write, barrier, and ~{io} delete of the \
         previous checkpoint",
        clean.exit_time(),
        compute
    );
    if let Some(per_msg) = per_message_wall(&clean, wall) {
        println!(
            "    host cost: {} simulated messages in {wall:.2?} wall \
             ({:.2} µs mean per message)",
            messages_moved(&clean).unwrap_or(0),
            per_msg * 1e6
        );
    }
    println!();

    // Probe: a mid-compute failure in period 1 activates exactly at the
    // period's compute end (paper §IV-B) — this anchors the timeline.
    let (a1, ab1, latest1, rem1) = run_injection(&cfg, fs_model, workers, seed, compute.scale(0.5));
    println!("failure during COMPUTATION (injected mid-compute of period 1):");
    println!(
        "    activated at {a1} = end of the compute phase; detected in the halo \
         exchange; abort at {}",
        ab1.expect("aborted")
    );
    println!(
        "    store afterwards: {} complete checkpoint(s); {} incomplete set(s) \
         cleaned (the interrupted period never finished its checkpoint)",
        latest1
            .map(|g| format!("iteration {g}"))
            .unwrap_or("no".into()),
        rem1
    );

    // Period 2 anchors: compute end of period 2 ≈ a1 + write + barrier +
    // compute. Probe again for exactness.
    let s2_guess = a1 + io + compute;
    let (a2, _, _, _) = run_injection(&cfg, fs_model, workers, seed, s2_guess - compute.scale(0.3));
    // Failure inside the checkpoint WRITE of period 2.
    let (a3, ab3, latest3, rem3) =
        run_injection(&cfg, fs_model, workers, seed, a2 + SimTime::from_secs(5));
    println!();
    println!("failure during CHECKPOINTING (injected 5 s into period 2's write):");
    println!(
        "    activated at {a3} = end of the interrupted I/O (compute ended at {a2}); \
         detected in the following barrier; abort at {}",
        ab3.expect("aborted")
    );
    println!(
        "    store afterwards: survives {}; {} incomplete/corrupted checkpoint \
         set(s) cleaned",
        latest3
            .map(|g| format!("iteration {g}"))
            .unwrap_or("none".into()),
        rem3
    );

    // Failure inside the DELETE of the previous checkpoint (after the
    // barrier of period 2): old generation ends up partially deleted.
    let (a4, ab4, latest4, rem4) = run_injection(
        &cfg,
        fs_model,
        workers,
        seed,
        a2 + io + SimTime::from_secs(5),
    );
    println!();
    println!("failure during the POST-BARRIER DELETE of the old checkpoint:");
    println!("    activated at {a4}; abort at {}", ab4.expect("aborted"));
    println!(
        "    store afterwards: survives {}; {} partially deleted old \
         generation(s) cleaned",
        latest4
            .map(|g| format!("iteration {g}"))
            .unwrap_or("none".into()),
        rem4
    );

    println!();
    println!(
        "paper narrative (§V-D): \"the application aborted during the halo \
         exchange and/or checkpoint phase, always resulting in an incomplete \
         or corrupted checkpoint, or during the barrier phase resulting in \
         only partially deleted old checkpoints.\""
    );
}
