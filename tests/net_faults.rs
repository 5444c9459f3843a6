//! Network fault injection integration tests: lossy links with
//! retransmission + backoff, degraded-mode rerouting on the torus, and
//! escalation of unreachable peers into the ULFM recovery path.

use xsim::prelude::*;
use xsim_obs::ids;

fn metric(report: &RunReport, id: usize) -> u64 {
    report
        .metrics
        .as_ref()
        .expect("metrics enabled")
        .set
        .value(id)
}

/// The metrics snapshot without the engine section (which carries wall
/// clock) — the byte-identical determinism surface.
fn snapshot(report: &RunReport) -> String {
    report
        .metrics
        .as_ref()
        .expect("metrics enabled")
        .to_json(None)
}

/// A ring exchange over a lossy fabric completes via retransmission and
/// is bit-for-bit deterministic: two runs with the same seed produce
/// identical metrics snapshots.
#[test]
fn lossy_ring_completes_and_is_deterministic() {
    let run = || {
        SimBuilder::new(8)
            .net(NetModel::small(8))
            .seed(7)
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
            .unwrap()
    };
    let a = run();
    assert_eq!(a.sim.exit, ExitKind::Completed);
    // 8 ranks × 4 rounds at 30% drop + 5% corrupt: loss must have been
    // exercised and repaired by the retransmission machinery.
    assert!(metric(&a, ids::NET_DROPS) > 0, "no drops recorded");
    assert!(metric(&a, ids::NET_RETRANSMITS) > 0, "no retransmits");
    assert!(metric(&a, ids::NET_BACKOFF_NS) > 0, "no backoff charged");
    assert_eq!(a.sim.failures.len(), 0, "loss repaired, no escalation");

    let b = run();
    assert_eq!(
        snapshot(&a),
        snapshot(&b),
        "same seed must reproduce the exact drop/backoff sequence"
    );
}

/// The loss draws are keyed by each pair's send counter, so the counts
/// and the run digest of the lossy ring are pinned: a counter that
/// skipped or repeated a number would redraw the losses.
#[test]
fn lossy_ring_draws_are_pinned() {
    let report = SimBuilder::new(8)
        .net(NetModel::small(8))
        .seed(7)
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
                let payload = Bytes::from(vec![round as u8; 512]);
                mpi.sendrecv(w, dst, round, payload, Some(src), Some(round))
                    .await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    let got = (
        metric(&report, ids::NET_DROPS),
        metric(&report, ids::NET_CORRUPT_DROPS),
        metric(&report, ids::NET_RETRANSMITS),
        report.sim.digest,
    );
    assert_eq!(got, (21, 3, 24, 0xbc17_fc9b_4ea1_c58e));
}

/// When the retry budget towards one victim is exhausted, the sender
/// sees `MPI_ERR_PROC_FAILED` and the survivors shrink the communicator
/// around the victim — the lossy transport composes with ULFM.
#[test]
fn exhausted_retries_escalate_to_proc_failed_and_shrink() {
    let run = || {
        SimBuilder::new(4)
            .net(NetModel::small(4))
            .seed(11)
            .metrics(true)
            .errhandler(ErrHandler::Return)
            .lossy(LossyTransport {
                drop_prob: 1.0,
                max_retries: 2,
                victim: Some(Rank(3)),
                ..LossyTransport::default()
            })
            .run_app(|mpi| async move {
                let w = mpi.world();
                if mpi.rank == 0 {
                    // Every attempt towards the victim is dropped; the
                    // budget exhausts and the send errors out.
                    let err = mpi
                        .send(w, 3, 0, Bytes::from_static(b"into the void"))
                        .await
                        .unwrap_err();
                    assert!(
                        matches!(err, MpiError::ProcFailed { rank: Rank(3), .. }),
                        "expected ProcFailed(3), got {err:?}"
                    );
                    mpi.comm_revoke(w)?;
                } else if mpi.rank != 3 {
                    // Survivors wait until the failure or revoke surfaces.
                    let err = mpi.recv(w, None, None).await.unwrap_err();
                    assert!(matches!(
                        err,
                        MpiError::Revoked | MpiError::ProcFailed { .. }
                    ));
                } else {
                    // The victim blocks forever; escalation kills it.
                    let _ = mpi.recv(w, Some(0), Some(99)).await;
                    unreachable!("victim must be failed by escalation");
                }
                let shrunk = mpi.comm_shrink(w).await?;
                assert_eq!(mpi.comm_size(shrunk)?, 3, "victim excluded");
                mpi.barrier(shrunk).await?;
                mpi.finalize();
                Ok(())
            })
            .unwrap()
    };
    let a = run();
    assert_eq!(a.sim.exit, ExitKind::FailedOnly, "survivors finish");
    assert_eq!(a.sim.failures.len(), 1, "exactly the escalated victim");
    assert_eq!(a.sim.failures[0].rank, Rank(3));
    assert!(metric(&a, ids::NET_DROPS) >= 3, "1 + max_retries attempts");
    assert!(a.mpi.proc_failed_errors > 0);

    let b = run();
    assert_eq!(snapshot(&a), snapshot(&b));
}

/// A link fault on the torus inflates hop counts (rerouting) and a
/// degraded link stretches transfers; both are visible in the metrics
/// and neither disturbs completion.
#[test]
fn torus_link_fault_reroutes_and_degrades() {
    let mut net = NetModel::paper_machine();
    net.topology = Topology::Torus3d { dims: [4, 4, 4] };
    let topo = net.topology.clone();
    let n = 64;
    let faults = vec![
        // Kill node 0's +x link permanently: 0→1 traffic must detour.
        NetFault {
            node: topo.node_at([0, 0, 0]),
            dir: Some(0),
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        },
        // Degrade node 2's +x link to quarter bandwidth.
        NetFault {
            node: topo.node_at([2, 0, 0]),
            dir: Some(0),
            kind: LinkFaultKind::Degraded(0.25),
            from: SimTime::ZERO,
            until: None,
        },
    ];
    let report = SimBuilder::new(n)
        .net(net)
        .net_faults(faults)
        .metrics(true)
        .run_app(|mpi| async move {
            let w = mpi.world();
            // Neighbor exchange along x so both faulted links carry
            // traffic (ranks are laid out x-major on the torus).
            let dst = (mpi.rank + 1) % mpi.size;
            let src = (mpi.rank + mpi.size - 1) % mpi.size;
            let got = mpi
                .sendrecv(w, dst, 0, Bytes::from(vec![0u8; 4096]), Some(src), Some(0))
                .await?;
            assert_eq!(got.data.len(), 4096);
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert!(
        metric(&report, ids::NET_REROUTED_HOPS) > 0,
        "dead link must force a longer route"
    );
    assert!(
        metric(&report, ids::NET_DEGRADED_NS) > 0,
        "degraded link must stretch a transfer"
    );
}

/// A switch fault that cuts a node off entirely partitions the network;
/// senders towards it escalate the peer into the process-failure path.
#[test]
fn partition_escalates_peer_failure() {
    let mut net = NetModel::paper_machine();
    net.topology = Topology::Torus3d { dims: [2, 2, 2] };
    let victim_node = net.topology.node_at([1, 1, 1]);
    let report = SimBuilder::new(8)
        .net(net)
        .net_faults(vec![NetFault {
            node: victim_node,
            dir: None, // switch: all six links
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        }])
        .errhandler(ErrHandler::Return)
        .run_app(move |mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                let err = mpi
                    .send(w, victim_node, 0, Bytes::from_static(b"unroutable"))
                    .await
                    .unwrap_err();
                assert!(matches!(err, MpiError::ProcFailed { .. }));
            } else if mpi.rank != victim_node {
                mpi.sleep(SimTime::from_secs(2)).await;
            } else {
                let _ = mpi.recv(w, Some(0), Some(0)).await;
                unreachable!("partitioned rank must be escalated");
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.failures.len(), 1);
    assert_eq!(report.sim.failures[0].rank.idx(), victim_node);
}
