//! Cross-engine differential suite: every workload must produce
//! *byte-identical* deterministic output across the sequential engine,
//! the parallel engine pinned to one worker (full window machinery, no
//! concurrency), and the parallel engine with real thread counts.
//!
//! The comparison surface is `ObsReport::to_json(None)` — the metrics
//! snapshot without the engine section — plus the engine-independent
//! scalars of `SimReport` (final clocks, exit kind, event and context
//! switch totals, activated failures). Execution-shape data (per-shard
//! stats, window/steal/barrier profile, wall clock) legitimately varies
//! with the worker count and is excluded by construction.

use xsim::apps::heat3d::{self, HeatConfig};
use xsim::apps::jacobi2d::{self, JacobiConfig};
use xsim::apps::scenario::Cli;
use xsim::prelude::*;

/// The deterministic metrics snapshot (no engine section).
fn snapshot(report: &RunReport) -> String {
    report
        .metrics
        .as_ref()
        .expect("metrics enabled")
        .to_json(None)
}

/// The engine legs every scenario must agree across: sequential,
/// parallel with one worker, and parallel with 4 and 8 workers.
const LEGS: [(usize, EngineKind, &str); 3] = [
    (1, EngineKind::Parallel, "parallel(1)"),
    (4, EngineKind::Auto, "parallel(4)"),
    (8, EngineKind::Auto, "parallel(8)"),
];

/// Run `run` for every engine leg and assert that each one reproduces
/// the sequential reference byte-for-byte.
fn assert_engine_invariant(name: &str, run: impl Fn(usize, EngineKind) -> RunReport) {
    let seq = run(1, EngineKind::Sequential);
    let reference = snapshot(&seq);
    for (workers, kind, label) in LEGS {
        let par = run(workers, kind);
        assert_eq!(
            snapshot(&par),
            reference,
            "{name}/{label}: metrics snapshot diverged from sequential"
        );
        assert_eq!(
            par.sim.final_clocks, seq.sim.final_clocks,
            "{name}/{label}: final clocks diverged"
        );
        assert_eq!(par.sim.exit, seq.sim.exit, "{name}/{label}: exit kind");
        assert_eq!(
            par.sim.events_processed, seq.sim.events_processed,
            "{name}/{label}: events processed"
        );
        assert_eq!(
            par.sim.context_switches, seq.sim.context_switches,
            "{name}/{label}: context switches"
        );
        assert_eq!(
            par.sim.failures, seq.sim.failures,
            "{name}/{label}: activated failures"
        );
        assert_eq!(par.sim.digest, seq.sim.digest, "{name}/{label}: run digest");
    }
}

/// The paper's 3-D heat application with checkpoints to a modeled PFS:
/// compute + halo exchange + collectives + file I/O, all under one
/// differential run.
#[test]
fn heat3d_is_engine_invariant() {
    let cfg = HeatConfig::small();
    assert_engine_invariant("heat3d", |workers, engine| {
        SimBuilder::new(cfg.n_ranks())
            .net(NetModel::small(cfg.n_ranks()))
            .fs_model(FsModel::typical_pfs())
            .workers(workers)
            .engine(engine)
            .metrics(true)
            .run(heat3d::program(cfg.clone()))
            .expect("heat3d run")
    });
}

/// Jacobi on a multi-rank-per-node machine with a raised notification
/// delay: shard blocks align with compute nodes for some worker counts
/// and not for others, so the adaptive lookahead provider picks
/// *different* window bounds per leg — results must not move.
#[test]
fn jacobi2d_is_engine_invariant_under_adaptive_lookahead() {
    let cfg = JacobiConfig::small();
    assert_engine_invariant("jacobi2d", |workers, engine| {
        let mut net = NetModel::small(4);
        net.ranks_per_node = 4; // 16 ranks on 4 nodes
        SimBuilder::new(16)
            .net(net)
            .workers(workers)
            .engine(engine)
            .notify_delay(SimTime::from_micros(50))
            .metrics(true)
            .run(jacobi2d::program(cfg.clone(), None))
            .expect("jacobi2d run")
    });
}

/// The lossy-ring workload: every transmission consults the
/// deterministic drop/corrupt RNG, so any reordering of event
/// *processing* across threads would immediately skew the drop
/// sequence and show up in the retransmission counters.
#[test]
fn lossy_ring_is_engine_invariant() {
    assert_engine_invariant("lossy-ring", |workers, engine| {
        SimBuilder::new(8)
            .net(NetModel::small(8))
            .seed(7)
            .workers(workers)
            .engine(engine)
            .metrics(true)
            .lossy(LossyTransport {
                drop_prob: 0.3,
                corrupt_prob: 0.05,
                ..LossyTransport::default()
            })
            .run_app(|mpi| async move {
                let w = mpi.world();
                for round in 0..4u32 {
                    let dst = (mpi.rank + 1) % mpi.size;
                    let src = (mpi.rank + mpi.size - 1) % mpi.size;
                    let got = mpi
                        .sendrecv(
                            w,
                            dst,
                            round,
                            Bytes::from(vec![round as u8; 512]),
                            Some(src),
                            Some(round),
                        )
                        .await?;
                    assert_eq!(got.data.len(), 512);
                }
                mpi.finalize();
                Ok(())
            })
            .expect("lossy ring run")
    });
}

/// The digest sees a perturbation the run scalars can miss: one rank
/// pays 1 ns more before a send, and nothing else changes. The event
/// count stays the same, the digest moves, and undoing the perturbation
/// restores it.
#[test]
fn digest_sees_a_one_nanosecond_send_overhead() {
    let run = |slow: Option<usize>| {
        SimBuilder::new(8)
            .net(NetModel::small(8))
            .run_app(move |mpi| async move {
                let w = mpi.world();
                let extra = u64::from(slow == Some(mpi.rank));
                mpi.sleep(SimTime::from_micros(5) + SimTime::from_nanos(extra))
                    .await;
                let dst = (mpi.rank + 1) % mpi.size;
                let src = (mpi.rank + mpi.size - 1) % mpi.size;
                mpi.sendrecv(w, dst, 0, Bytes::from(vec![1u8; 64]), Some(src), Some(0))
                    .await?;
                mpi.finalize();
                Ok(())
            })
            .expect("ring run")
            .sim
    };
    let base = run(None);
    let perturbed = run(Some(3));
    assert_eq!(base.events_processed, perturbed.events_processed);
    assert_ne!(base.digest, perturbed.digest, "a 1 ns shift went unseen");
    assert_eq!(run(None).digest, base.digest, "the digest repeats");
}

/// Environment-driven fault schedules (`XSIM_FAILURES` +
/// `XSIM_NET_FAULTS`) read through the front ends' one parser exactly
/// as an operator would supply them, then injected through the builder:
/// process failures activate and a degraded link stretches transfers
/// identically on every engine.
#[test]
fn env_fault_schedules_are_engine_invariant() {
    let env = |var: &str| match var {
        "XSIM_FAILURES" => Some("2:0.5".to_string()),
        "XSIM_NET_FAULTS" => Some("rank:5:1.5,link:0:+x:0:degraded:0.25".to_string()),
        _ => None,
    };
    let sc = Cli::parse(Vec::<String>::new(), "failures", env)
        .expect("parse the fault variables")
        .scenario;

    assert_engine_invariant("env-faults", |workers, engine| {
        let mut net = NetModel::paper_machine();
        net.topology = Topology::Torus3d { dims: [2, 2, 2] };
        sc.inject(SimBuilder::new(8))
            .net(net)
            .workers(workers)
            .engine(engine)
            .errhandler(ErrHandler::Return)
            .metrics(true)
            .run_app(|mpi| async move {
                let w = mpi.world();
                // One ring exchange across the faulted torus, then idle
                // past both failure times.
                let dst = (mpi.rank + 1) % mpi.size;
                let src = (mpi.rank + mpi.size - 1) % mpi.size;
                let got = mpi
                    .sendrecv(w, dst, 0, Bytes::from(vec![0u8; 1024]), Some(src), Some(0))
                    .await?;
                assert_eq!(got.data.len(), 1024);
                mpi.sleep(SimTime::from_secs(2)).await;
                mpi.finalize();
                Ok(())
            })
            .expect("env fault run")
    });

    // The schedules really activated: both scheduled ranks died.
    let report = sc
        .inject(SimBuilder::new(8))
        .net({
            let mut net = NetModel::paper_machine();
            net.topology = Topology::Torus3d { dims: [2, 2, 2] };
            net
        })
        .errhandler(ErrHandler::Return)
        .run_app(|mpi| async move {
            mpi.sleep(SimTime::from_secs(2)).await;
            mpi.finalize();
            Ok(())
        })
        .expect("activation check run");
    let mut failed: Vec<usize> = report.sim.failures.iter().map(|f| f.rank.idx()).collect();
    failed.sort_unstable();
    assert_eq!(failed, vec![2, 5], "both env-scheduled failures activate");
}
