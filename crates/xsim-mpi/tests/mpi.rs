//! End-to-end tests of the simulated MPI layer.

use xsim_core::{Bytes, ExitKind, SimTime};
use xsim_mpi::{ErrHandler, MpiError, ReduceOp, SimBuilder};
use xsim_net::NetModel;
use xsim_proc::ProcModel;

fn builder(n: usize) -> SimBuilder {
    SimBuilder::new(n).net(NetModel::small(n))
}

#[test]
fn ping_pong_transfers_data_and_time() {
    let report = builder(2)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                mpi.send(w, 1, 7, Bytes::from_static(b"ping")).await?;
                let msg = mpi.recv(w, Some(1), Some(7)).await?;
                assert_eq!(&msg.data[..], b"pong");
                assert_eq!(msg.src.idx(), 1);
            } else {
                let msg = mpi.recv(w, Some(0), Some(7)).await?;
                assert_eq!(&msg.data[..], b"ping");
                mpi.send(w, 0, 7, Bytes::from_static(b"pong")).await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert_eq!(report.mpi.sends, 2);
    assert_eq!(report.mpi.recvs, 2);
    assert_eq!(report.mpi.bytes_sent, 8);
    // Both ranks advanced beyond zero and rank 0 saw the round trip.
    assert!(report.sim.final_clocks[0] > report.sim.final_clocks[1]);
}

#[test]
fn eager_send_completes_locally_rendezvous_does_not() {
    // Eager: blocking send of a small message to a receiver that posts
    // its receive *much later* must complete quickly (buffered); the
    // paper's machine uses a 256 kB eager threshold (§V-C).
    let report = builder(2)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                mpi.send(w, 1, 0, Bytes::from(vec![0u8; 1024])).await?;
                let t_small = mpi.now();
                assert!(
                    t_small < SimTime::from_millis(100),
                    "eager send blocked: {t_small}"
                );
                // Rendezvous: 1 MB > threshold; completes only once the
                // receiver posts (at ~1 s).
                mpi.send(w, 1, 1, Bytes::from(vec![0u8; 1 << 20])).await?;
                let t_big = mpi.now();
                assert!(
                    t_big >= SimTime::from_secs(1),
                    "rendezvous completed before receiver posted: {t_big}"
                );
            } else {
                mpi.sleep(SimTime::from_secs(1)).await;
                mpi.recv(w, Some(0), Some(0)).await?;
                mpi.recv(w, Some(0), Some(1)).await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn any_source_any_tag_matching() {
    let report = builder(4)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                let mut from = Vec::new();
                for _ in 0..3 {
                    let msg = mpi.recv(w, None, None).await?;
                    from.push(msg.src.idx());
                }
                from.sort();
                assert_eq!(from, vec![1, 2, 3]);
            } else {
                mpi.send(w, 0, mpi.rank as u32, Bytes::from_static(b"x"))
                    .await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn collectives_agree() {
    let n = 8;
    let report = builder(n)
        .run_app(move |mpi| async move {
            let w = mpi.world();
            // Barrier.
            mpi.barrier(w).await?;
            // Bcast.
            let data = if mpi.rank == 2 {
                Bytes::from_static(b"from-two")
            } else {
                Bytes::new()
            };
            let got = mpi.bcast(w, 2, data).await?;
            assert_eq!(&got[..], b"from-two");
            // Allreduce sum of rank.
            let s = mpi
                .allreduce_f64(w, &[mpi.rank as f64], ReduceOp::Sum)
                .await?;
            assert_eq!(s, vec![28.0]); // 0+..+7
            let mx = mpi
                .allreduce_u64(w, &[mpi.rank as u64, 7 - mpi.rank as u64], ReduceOp::Max)
                .await?;
            assert_eq!(mx, vec![7, 7]);
            // Gather/scatter round trip.
            let parts = mpi.gather(w, 0, Bytes::from(vec![mpi.rank as u8])).await?;
            let scattered = mpi.scatter(w, 0, parts).await?;
            assert_eq!(scattered[0], mpi.rank as u8);
            // Allgather.
            let all = mpi
                .allgather(w, Bytes::from(vec![mpi.rank as u8 * 3]))
                .await?;
            let vals: Vec<u8> = all.iter().map(|b| b[0]).collect();
            assert_eq!(vals, (0..8).map(|r| r * 3).collect::<Vec<u8>>());
            // Alltoall: rank r sends r*10+j to rank j.
            let outs: Vec<Bytes> = (0..8)
                .map(|j| Bytes::from(vec![(mpi.rank * 10 + j) as u8]))
                .collect();
            let ins = mpi.alltoall(w, outs).await?;
            for (j, b) in ins.iter().enumerate() {
                assert_eq!(b[0] as usize, j * 10 + mpi.rank);
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert!(report.mpi.collectives > 0);
}

#[test]
fn barrier_synchronizes_clocks() {
    // Rank 1 computes for 1 s before the barrier; everyone leaves the
    // barrier at >= 1 s.
    let report = builder(4)
        .run_app(|mpi| async move {
            if mpi.rank == 1 {
                mpi.sleep(SimTime::from_secs(1)).await;
            }
            mpi.barrier(mpi.world()).await?;
            assert!(mpi.now() >= SimTime::from_secs(1), "left barrier early");
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn injected_failure_aborts_job_via_detection() {
    // Rank 1 fails at 0.5 s during compute; rank 0 posts a receive from
    // it and must get the abort cascade: detection happens via the
    // simulated communication timeout, then MPI_ERRORS_ARE_FATAL
    // triggers MPI_Abort (paper §IV-C/D).
    let report = builder(4)
        .inject_failure(1, SimTime::from_millis(500))
        .run_app(|mpi| async move {
            let w = mpi.world();
            match mpi.rank {
                1 => {
                    // Computes past its time of failure; never sends.
                    mpi.sleep(SimTime::from_secs(10)).await;
                }
                0 => {
                    // Blocks on a receive from the failing rank.
                    mpi.recv(w, Some(1), None).await?;
                }
                _ => {
                    // Unrelated long compute; aborts at its end.
                    mpi.sleep(SimTime::from_secs(100)).await;
                }
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Aborted);
    assert_eq!(report.sim.failures.len(), 1);
    assert_eq!(report.sim.failures[0].rank.idx(), 1);
    // Failure activates at the end of the 10 s compute? No: the compute
    // is one long slice, so activation is at its end — but rank 0's
    // *detection* is timeout-based from the scheduled failure time.
    // Actually: rank 1's clock first updates at 10 s, so the actual
    // failure time is 10 s.
    assert_eq!(report.sim.failures[0].actual, SimTime::from_secs(10));
    let abort = report.sim.abort_time.expect("abort happened");
    // Rank 0 detects at max(post, tof) + timeout = 10 s + 1 s.
    assert_eq!(abort, SimTime::from_secs(11));
    // Rank 2/3 abort at the end of their 100 s compute (activation rule).
    assert_eq!(report.sim.final_clocks[2], SimTime::from_secs(100));
}

#[test]
fn failure_mid_compute_slices_activates_early() {
    // With sliced compute (like the heat app's iterations), activation
    // happens at the end of the slice containing the scheduled time.
    let report = builder(2)
        .inject_failure(1, SimTime::from_millis(450))
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                let r = mpi.recv(w, Some(1), None).await;
                assert!(r.is_err());
                return r.map(|_| ());
            }
            for _ in 0..100 {
                mpi.sleep(SimTime::from_millis(100)).await;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.failures[0].actual, SimTime::from_millis(500));
    assert_eq!(
        report.sim.abort_time,
        Some(SimTime::from_millis(500) + SimTime::from_secs(1))
    );
}

#[test]
fn errors_return_lets_application_continue() {
    // With MPI_ERRORS_RETURN the application observes
    // MPI_ERR_PROC_FAILED and keeps running (the ULFM foundation).
    let report = builder(3)
        .errhandler(ErrHandler::Return)
        .inject_failure(2, SimTime::ZERO)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                let err = mpi.recv(w, Some(2), None).await.unwrap_err();
                match err {
                    MpiError::ProcFailed { rank, .. } => assert_eq!(rank.idx(), 2),
                    other => panic!("expected ProcFailed, got {other}"),
                }
                // Communication with a live peer still works.
                mpi.send(w, 1, 0, Bytes::from_static(b"ok")).await?;
            } else if mpi.rank == 1 {
                let m = mpi.recv(w, Some(0), Some(0)).await?;
                assert_eq!(&m.data[..], b"ok");
            } else {
                mpi.sleep(SimTime::from_secs(999)).await;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
    assert_eq!(report.mpi.proc_failed_errors, 1);
}

#[test]
fn send_to_known_failed_rank_errors() {
    let report = builder(3)
        .errhandler(ErrHandler::Return)
        .inject_failure(1, SimTime::ZERO)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                // Wait for the notification to arrive, then send.
                mpi.sleep(SimTime::from_secs(1)).await;
                assert_eq!(mpi.known_failures().len(), 1);
                let err = mpi
                    .send(w, 1, 0, Bytes::from_static(b"into the void"))
                    .await
                    .unwrap_err();
                assert!(matches!(err, MpiError::ProcFailed { .. }));
            } else if mpi.rank == 2 {
                mpi.sleep(SimTime::from_millis(1)).await;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
}

#[test]
fn any_source_recv_fails_on_unacked_failure_and_ack_clears_it() {
    let report = builder(3)
        .errhandler(ErrHandler::Return)
        .inject_failure(2, SimTime::ZERO)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                mpi.sleep(SimTime::from_millis(10)).await; // notification lands
                let err = mpi.recv(w, None, None).await.unwrap_err();
                assert!(matches!(err, MpiError::ProcFailed { .. }));
                // Acknowledge; wildcard receives work again.
                mpi.failure_ack()?;
                assert_eq!(mpi.failure_get_acked().len(), 1);
                let m = mpi.recv(w, None, None).await?;
                assert_eq!(m.src.idx(), 1);
            } else if mpi.rank == 1 {
                mpi.sleep(SimTime::from_secs(2)).await;
                mpi.send(w, 0, 9, Bytes::from_static(b"alive")).await?;
            } else {
                mpi.sleep(SimTime::from_secs(999)).await;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
}

#[test]
fn mpi_abort_cascades_to_everyone() {
    let report = builder(4)
        .run_app(|mpi| async move {
            if mpi.rank == 3 && mpi.now() < SimTime::from_secs(1) {
                mpi.sleep(SimTime::from_millis(100)).await;
                return Err(mpi.abort());
            }
            // Everyone else waits for a message that never comes; the
            // abort releases the waits.
            let r = mpi.recv(mpi.world(), Some(3), Some(42)).await;
            assert!(r.is_err());
            r.map(|_| ())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Aborted);
    assert_eq!(report.sim.abort_time, Some(SimTime::from_millis(100)));
    for r in 0..4 {
        assert!(
            report.sim.final_clocks[r] >= SimTime::from_millis(100),
            "rank {r} aborted before the abort time"
        );
    }
}

#[test]
fn return_without_finalize_is_a_process_failure() {
    let report = builder(2)
        .errhandler(ErrHandler::Return)
        .run_app(|mpi| async move {
            if mpi.rank == 0 {
                // "returning from main() ... without having called
                // MPI_Finalize()" (paper §IV-B).
                return Ok(());
            }
            mpi.sleep(SimTime::from_millis(1)).await;
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
    assert_eq!(report.sim.failures.len(), 1);
    assert_eq!(report.sim.failures[0].rank.idx(), 0);
}

#[test]
fn comm_split_partitions_and_communicates() {
    let report = builder(6)
        .run_app(|mpi| async move {
            let w = mpi.world();
            let color = (mpi.rank % 2) as u32;
            let sub = mpi
                .comm_split(w, Some(color), mpi.rank as i64)
                .await?
                .expect("every rank has a color");
            let sub_rank = mpi.comm_rank(sub)?;
            let sub_size = mpi.comm_size(sub)?;
            assert_eq!(sub_size, 3);
            assert_eq!(sub_rank, mpi.rank / 2);
            // Sum of world ranks within each sub-communicator.
            let s = mpi
                .allreduce_f64(sub, &[mpi.rank as f64], ReduceOp::Sum)
                .await?;
            let expect = if color == 0 {
                0.0 + 2.0 + 4.0
            } else {
                1.0 + 3.0 + 5.0
            };
            assert_eq!(s, vec![expect]);
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn comm_dup_isolates_traffic() {
    let report = builder(2)
        .run_app(|mpi| async move {
            let w = mpi.world();
            let dup = mpi.comm_dup(w)?;
            if mpi.rank == 0 {
                // Same tag on both communicators; matching must respect
                // the communicator.
                mpi.send(w, 1, 5, Bytes::from_static(b"world")).await?;
                mpi.send(dup, 1, 5, Bytes::from_static(b"dup")).await?;
            } else {
                let on_dup = mpi.recv(dup, Some(0), Some(5)).await?;
                assert_eq!(&on_dup.data[..], b"dup");
                let on_world = mpi.recv(w, Some(0), Some(5)).await?;
                assert_eq!(&on_world.data[..], b"world");
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn ulfm_revoke_shrink_continue() {
    // The classic ULFM recovery pattern from the paper's future work
    // (§VI): detect failure → revoke → shrink → continue on survivors.
    let report = builder(4)
        .errhandler(ErrHandler::Return)
        .inject_failure(2, SimTime::from_millis(100))
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 2 {
                mpi.sleep(SimTime::from_secs(10)).await; // dies at the end
                mpi.finalize();
                return Ok(());
            }
            // Rank 0 tries to talk to rank 2 and detects the failure.
            if mpi.rank == 0 {
                let err = mpi.recv(w, Some(2), Some(0)).await.unwrap_err();
                assert!(matches!(err, MpiError::ProcFailed { .. }));
                mpi.comm_revoke(w)?;
            } else {
                // Others learn about the revoke when their operations on
                // the world communicator fail.
                let r = mpi.recv(w, Some(0), Some(77)).await;
                assert!(matches!(r, Err(MpiError::Revoked)), "got {r:?}");
            }
            // Everyone (survivors) shrinks and continues.
            let new_comm = mpi.comm_shrink(w).await?;
            let size = mpi.comm_size(new_comm)?;
            assert_eq!(size, 3);
            let s = mpi.allreduce_f64(new_comm, &[1.0], ReduceOp::Sum).await?;
            assert_eq!(s, vec![3.0]);
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
}

#[test]
fn deterministic_across_engines_and_repeats() {
    let run = |workers: usize| {
        SimBuilder::new(12)
            .net(NetModel::small(12))
            .proc(ProcModel::with_slowdown(10.0))
            .workers(workers)
            .inject_failure(7, SimTime::from_millis(40))
            .errhandler(ErrHandler::Return)
            .run_app(|mpi| async move {
                let w = mpi.world();
                // A little compute + neighbor ring exchange, repeated.
                for it in 0..5u32 {
                    mpi.sleep(SimTime::from_millis(10)).await;
                    let right = (mpi.rank + 1) % mpi.size;
                    let left = (mpi.rank + mpi.size - 1) % mpi.size;
                    let sreq = mpi
                        .isend(w, right, it, Bytes::from(vec![mpi.rank as u8]))
                        .await;
                    let rreq = mpi.irecv(w, Some(left), Some(it));
                    match (sreq, rreq) {
                        (Ok(s), Ok(r)) => {
                            let _ = mpi.wait(s).await;
                            let _ = mpi.wait(r).await;
                        }
                        _ => break,
                    }
                }
                mpi.finalize();
                Ok(())
            })
            .unwrap()
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a.sim.final_clocks, b.sim.final_clocks, "repeatability");
    for workers in [2, 4] {
        let c = run(workers);
        assert_eq!(
            a.sim.final_clocks, c.sim.final_clocks,
            "parallel engine with {workers} workers diverged"
        );
        assert_eq!(a.sim.failures, c.sim.failures);
    }
}

#[test]
fn waitany_returns_first_completion() {
    let report = builder(3)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                let r1 = mpi.irecv(w, Some(1), Some(0))?;
                let r2 = mpi.irecv(w, Some(2), Some(0))?;
                let (i, out) = mpi.waitany(&[r1, r2]).await?;
                // Rank 2 sends sooner.
                assert_eq!(i, 1);
                assert_eq!(out.unwrap().src.idx(), 2);
                // A completed request is consumed (MPI_REQUEST_NULL);
                // wait on the remaining one.
                let out1 = mpi.wait(r1).await?;
                assert_eq!(out1.unwrap().src.idx(), 1);
            } else if mpi.rank == 1 {
                mpi.sleep(SimTime::from_secs(1)).await;
                mpi.send(w, 0, 0, Bytes::new()).await?;
            } else {
                mpi.send(w, 0, 0, Bytes::new()).await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn test_reports_completion_without_blocking() {
    let report = builder(2)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                let r = mpi.irecv(w, Some(1), Some(0))?;
                assert!(mpi.test(r)?.is_none(), "nothing sent yet");
                mpi.sleep(SimTime::from_secs(1)).await;
                let done = mpi.test(r)?.expect("completed by now");
                assert_eq!(&done.unwrap().data[..], b"hi");
            } else {
                mpi.send(w, 0, 0, Bytes::from_static(b"hi")).await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn ulfm_shrink_with_two_dead_ranks() {
    // Shrink must union failure knowledge across survivors: two ranks
    // die, rank 0 detects one of them, yet the shrunk communicator
    // excludes both.
    let report = builder(6)
        .errhandler(ErrHandler::Return)
        .inject_failure(2, SimTime::from_millis(100))
        .inject_failure(4, SimTime::from_millis(100))
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 2 || mpi.rank == 4 {
                mpi.sleep(SimTime::from_secs(5)).await; // dies at the end
                mpi.finalize();
                return Ok(());
            }
            if mpi.rank == 0 {
                let err = mpi.recv(w, Some(2), Some(0)).await.unwrap_err();
                assert!(matches!(err, MpiError::ProcFailed { .. }));
                mpi.comm_revoke(w)?;
            } else {
                let r = mpi.recv(w, Some(0), Some(77)).await;
                assert!(matches!(r, Err(MpiError::Revoked)), "got {r:?}");
            }
            let shrunk = mpi.comm_shrink(w).await?;
            assert_eq!(mpi.comm_size(shrunk)?, 4);
            let s = mpi.allreduce_f64(shrunk, &[1.0], ReduceOp::Sum).await?;
            assert_eq!(s, vec![4.0]);
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
    assert_eq!(report.sim.failures.len(), 2);
}

#[test]
fn ulfm_shrink_survives_inflight_revoke() {
    // Ranks 1 and 2 enter comm_shrink before the revoke notice reaches
    // them: they are blocked in the shrink protocol's system traffic
    // when the revoke lands. Per ULFM, shrink must still complete —
    // recovery traffic is exempt from the revoke release.
    let report = builder(4)
        .errhandler(ErrHandler::Return)
        .inject_failure(3, SimTime::from_millis(100))
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 3 {
                mpi.sleep(SimTime::from_secs(5)).await; // dies at the end
                mpi.finalize();
                return Ok(());
            }
            // All survivors detect the failure independently (identical
            // timeout), so ranks 1 and 2 enter shrink right away and
            // block on the root's reply — the root (rank 0) stalls,
            // then revokes, so its notices land while they are blocked.
            let err = mpi.recv(w, Some(3), Some(0)).await.unwrap_err();
            assert!(matches!(err, MpiError::ProcFailed { .. }));
            if mpi.rank == 0 {
                mpi.sleep(SimTime::from_millis(1)).await;
                mpi.comm_revoke(w)?;
            }
            let shrunk = mpi
                .comm_shrink(w)
                .await
                .expect("shrink must survive an in-flight revoke");
            assert_eq!(mpi.comm_size(shrunk)?, 3);
            mpi.barrier(shrunk).await?;
            // The world communicator stays revoked for everyone.
            let r = mpi.recv(w, Some(0), Some(5)).await;
            assert!(matches!(r, Err(MpiError::Revoked)), "got {r:?}");
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
    assert_eq!(report.sim.failures.len(), 1, "only the injected failure");
}

#[test]
fn ulfm_shrink_skips_dead_root() {
    // The lowest-ranked member — the default shrink root — is the dead
    // one; survivors must agree on rank 1 as the root instead.
    let report = builder(4)
        .errhandler(ErrHandler::Return)
        .inject_failure(0, SimTime::from_millis(50))
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                mpi.sleep(SimTime::from_secs(5)).await; // dies at the end
                mpi.finalize();
                return Ok(());
            }
            // Every survivor detects the root's failure first, so all
            // pick the same live root for the shrink protocol.
            let err = mpi.recv(w, Some(0), Some(0)).await.unwrap_err();
            assert!(matches!(err, MpiError::ProcFailed { .. }));
            let shrunk = mpi.comm_shrink(w).await?;
            assert_eq!(mpi.comm_size(shrunk)?, 3);
            // Rank order is preserved in the shrunk communicator.
            assert_eq!(mpi.comm_rank(shrunk)?, mpi.rank - 1);
            let s = mpi.allreduce_f64(shrunk, &[1.0], ReduceOp::Sum).await?;
            assert_eq!(s, vec![3.0]);
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
}
