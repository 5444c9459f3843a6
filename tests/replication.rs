//! Replication-based resilience, end to end: replica teams with
//! heartbeat failure detection, transparent leader failover, and the
//! PartRePer-style partial mode falling back to ULFM shrink for
//! unprotected ranks.
//!
//! Three contracts:
//!
//! 1. Killing a logical rank's *leader* mid-run is invisible to the
//!    application: the run finishes, the surviving replica serves the
//!    logical rank, and the completion digest is byte-identical to the
//!    failure-free reference.
//! 2. A replicated run is deterministic across engines — the metrics
//!    snapshot is byte-identical between the sequential engine and the
//!    parallel engine at 1 and 4 workers.
//! 3. Partial replication protects exactly its critical set: a shadow
//!    death is absorbed, while an unprotected rank's death surfaces
//!    `MPI_ERR_PROC_FAILED` and the survivors recover with
//!    ULFM revoke + shrink.

use xsim::apps::heat3d::{ComputeMode, HeatConfig};
use xsim::apps::heat3d_rep::{self, RepHeatConfig};
use xsim::obs::ids;
use xsim::prelude::*;

fn small_rep() -> RepHeatConfig {
    RepHeatConfig {
        heat: HeatConfig {
            mode: ComputeMode::Modeled,
            ..HeatConfig::small()
        },
        scheme: ProtectionScheme::Replication { degree: 2 },
        hb: HeartbeatConfig::default(),
        ckpt: false,
    }
}

fn rep_builder(cfg: &RepHeatConfig, workers: usize, engine: EngineKind) -> SimBuilder {
    SimBuilder::new(cfg.physical_size())
        .net(NetModel::small(cfg.physical_size()))
        .fs_model(FsModel::typical_pfs())
        // Align pending-operation failure errors with the heartbeat
        // protocol's detection bound.
        .detector(cfg.hb.detector())
        .workers(workers)
        .engine(engine)
        .metrics(true)
}

#[test]
fn leader_death_fails_over_transparently() {
    let cfg = small_rep();
    let marker = cfg.done_marker();

    // Failure-free reference digest.
    let store_ref = FsStore::new();
    let reference = rep_builder(&cfg, 1, EngineKind::Sequential)
        .fs_store(store_ref.clone())
        .run(heat3d_rep::program(cfg.clone()))
        .expect("reference run");
    assert_eq!(reference.sim.exit, ExitKind::Completed);
    let ref_digest = store_ref
        .get(&marker)
        .expect("marker written")
        .bytes()
        .clone();

    // Kill the *leader* of logical rank 1 (physical rank 1 under the
    // primaries-first layout) halfway through the solve — mid halo
    // traffic, checkpoint-free, so only the replica keeps the rank alive.
    let tof = reference.exit_time().scale(0.5);
    let store = FsStore::new();
    let report = rep_builder(&cfg, 1, EngineKind::Sequential)
        .fs_store(store.clone())
        .inject_failure(1, tof)
        .run(heat3d_rep::program(cfg.clone()))
        .expect("failover run");

    // Dead teammates make the exit FailedOnly, never Aborted — and no
    // VP saw an application-visible error (that would be Aborted or a
    // propagated Err).
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
    assert_eq!(report.sim.failures.len(), 1);
    assert_eq!(report.sim.failures[0].rank, Rank::new(1));

    // The application's result is unchanged: same completion digest.
    let digest = store.get(&marker).expect("marker written").bytes().clone();
    assert_eq!(
        digest, ref_digest,
        "failover changed the application result"
    );

    // The survivors actually failed over (metrics prove the path ran).
    let set = &report.metrics.as_ref().expect("metrics").set;
    assert!(set.value(ids::REP_FAILOVERS) >= 1, "no failover recorded");
    assert!(set.value(ids::REP_DETECTIONS) >= 1, "no detection recorded");
    assert!(set.value(ids::REP_HEARTBEATS) >= 1, "no heartbeats metered");
}

#[test]
fn replicated_run_is_engine_invariant() {
    // Checkpoints on: the every-replica idempotent write/delete protocol
    // is part of the surface that must stay deterministic.
    let mut cfg = small_rep();
    cfg.ckpt = true;

    let run = |workers: usize, engine: EngineKind| {
        rep_builder(&cfg, workers, engine)
            .run(heat3d_rep::program(cfg.clone()))
            .expect("replicated run")
    };
    let snapshot = |r: &RunReport| r.metrics.as_ref().expect("metrics").to_json(None);

    let seq = run(1, EngineKind::Sequential);
    assert_eq!(seq.sim.exit, ExitKind::Completed);
    let reference = snapshot(&seq);
    for (workers, label) in [(1usize, "parallel(1)"), (4, "parallel(4)")] {
        let par = run(workers, EngineKind::Parallel);
        assert_eq!(
            snapshot(&par),
            reference,
            "{label}: metrics snapshot diverged from sequential"
        );
        assert_eq!(
            par.sim.final_clocks, seq.sim.final_clocks,
            "{label}: clocks"
        );
        assert_eq!(par.sim.exit, seq.sim.exit, "{label}: exit kind");
        assert_eq!(
            par.sim.events_processed, seq.sim.events_processed,
            "{label}: events"
        );
        assert_eq!(par.sim.digest, seq.sim.digest, "{label}: run digest");
    }
}

#[test]
fn partial_replication_shrinks_after_unprotected_death() {
    // 4 logical ranks, critical = {0, 1} at degree 2: physical layout is
    // primaries 0..3 plus shadows 4 (of 0) and 5 (of 1).
    let hb = HeartbeatConfig::default();
    let map = ReplicaMap::partial(4, 2, [0, 1].into_iter().collect()).expect("layout");
    assert_eq!(map.physical_size(), 6);

    let report = SimBuilder::new(6)
        .net(NetModel::small(6))
        .detector(hb.detector())
        .errhandler(ErrHandler::Return)
        // Shadow of logical 0 dies first: absorbed. Unprotected logical
        // 3 dies later: must surface.
        .inject_failure(4, SimTime::from_millis(20))
        .inject_failure(3, SimTime::from_millis(50))
        .run_app(move |mpi| {
            let map = map.clone();
            async move {
                let phys = mpi.rank;
                let mut rep = Replicated::attach(mpi, map, hb)?;
                rep.barrier().await?; // everyone alive, protocol warm

                if phys == 4 || phys == 3 {
                    // Doomed: idle until the injected death.
                    rep.mpi.sleep(SimTime::from_secs(60)).await;
                    rep.finalize();
                    return Ok(());
                }

                // Phase 1 — after the shadow's death: traffic with the
                // protected logical rank 0 still succeeds (the team
                // absorbs its replica's loss; dead copies are forgiven).
                rep.mpi.sleep(SimTime::from_millis(30)).await;
                match rep.logical_rank {
                    0 => {
                        let ping = rep.recv(1, 7).await?;
                        assert_eq!(&ping[..], b"ping");
                        rep.send(1, 8, Bytes::from_static(b"pong")).await?;
                    }
                    1 => {
                        rep.send(0, 7, Bytes::from_static(b"ping")).await?;
                        let pong = rep.recv(0, 8).await?;
                        assert_eq!(&pong[..], b"pong");
                    }
                    _ => {}
                }

                // Phase 2 — the unprotected rank is dead: a global
                // collective must surface the failure to someone, and
                // the survivors run the ULFM recovery protocol.
                let err = match rep.barrier().await {
                    Ok(()) => panic!("barrier succeeded past a dead unprotected rank"),
                    Err(e) => e,
                };
                let w = rep.world();
                match err {
                    MpiError::ProcFailed { .. } => {
                        // Witness of the death: revoke so the teams
                        // blocked inside the barrier drain out.
                        rep.mpi.comm_revoke(w)?;
                    }
                    MpiError::Revoked => {}
                    other => panic!("unexpected barrier error: {other:?}"),
                }
                let shrunk = rep.mpi.comm_shrink(w).await?;
                // 6 physical ranks minus the dead shadow and the dead
                // unprotected primary.
                assert_eq!(rep.mpi.comm_size(shrunk)?, 4);
                rep.mpi.barrier(shrunk).await?;
                rep.finalize();
                Ok(())
            }
        })
        .expect("partial run");

    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
    assert_eq!(
        report.sim.failures.len(),
        2,
        "both injected deaths activated"
    );
}
