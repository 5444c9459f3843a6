//! Edge-case tests of the simulated MPI layer: self-sends, rendezvous ×
//! failure interplay, custom error handlers, statistics, tag isolation.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use xsim_core::{Bytes, ExitKind, SimTime};
use xsim_mpi::{Comm, CommId, ErrHandler, MpiError, SimBuilder};
use xsim_net::NetModel;

fn builder(n: usize) -> SimBuilder {
    SimBuilder::new(n).net(NetModel::small(n))
}

#[test]
fn send_to_self_works_nonblocking() {
    let report = builder(1)
        .run_app(|mpi| async move {
            let w = mpi.world();
            let r = mpi.irecv(w, Some(0), Some(3))?;
            mpi.send(w, 0, 3, Bytes::from_static(b"self")).await?;
            let out = mpi.wait(r).await?.expect("payload");
            assert_eq!(&out.data[..], b"self");
            assert_eq!(out.src.idx(), 0);
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn rendezvous_sender_released_when_receiver_dies_before_posting() {
    // A rendezvous send to a peer that fails before posting its receive
    // must error out (released by the notification), not hang.
    let report = builder(2)
        .errhandler(ErrHandler::Return)
        .inject_failure(1, SimTime::from_millis(10))
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                // 1 MiB > eager threshold: stays pending until matched.
                let err = mpi
                    .send(w, 1, 0, Bytes::from(vec![0u8; 1 << 20]))
                    .await
                    .unwrap_err();
                assert!(matches!(err, MpiError::ProcFailed { .. }), "{err}");
            } else {
                // Dies during this compute, never posts the receive.
                mpi.sleep(SimTime::from_millis(50)).await;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
}

#[test]
fn rendezvous_completes_when_matched_before_failure() {
    // If the transfer was already matched and in flight, it completes
    // even though the receiver fails later.
    let report = builder(2)
        .errhandler(ErrHandler::Return)
        .inject_failure(1, SimTime::from_secs(2))
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                mpi.send(w, 1, 0, Bytes::from(vec![0u8; 1 << 20])).await?;
            } else {
                let m = mpi.recv(w, Some(0), Some(0)).await?;
                assert_eq!(m.data.len(), 1 << 20);
                mpi.sleep(SimTime::from_secs(10)).await; // dies here
                mpi.finalize();
                return Ok(());
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.failures.len(), 1);
    assert_eq!(report.sim.failures[0].rank.idx(), 1);
}

#[test]
fn custom_errhandler_is_invoked_then_error_returned() {
    let calls = Arc::new(AtomicU32::new(0));
    let calls2 = calls.clone();
    let report = builder(2)
        .errhandler(ErrHandler::Custom(Arc::new(move |e| {
            assert!(matches!(e, MpiError::ProcFailed { .. }));
            calls2.fetch_add(1, Ordering::Relaxed);
        })))
        .inject_failure(1, SimTime::ZERO)
        .run_app(|mpi| async move {
            if mpi.rank == 0 {
                let err = mpi.recv(mpi.world(), Some(1), None).await.unwrap_err();
                assert!(matches!(err, MpiError::ProcFailed { .. }));
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::FailedOnly);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        1,
        "handler called exactly once"
    );
}

#[test]
fn tags_isolate_messages_between_same_pair() {
    let report = builder(2)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                // Send tag 2 first, then tag 1.
                mpi.send(w, 1, 2, Bytes::from_static(b"two")).await?;
                mpi.send(w, 1, 1, Bytes::from_static(b"one")).await?;
            } else {
                // Receive in the opposite tag order.
                let one = mpi.recv(w, Some(0), Some(1)).await?;
                assert_eq!(&one.data[..], b"one");
                let two = mpi.recv(w, Some(0), Some(2)).await?;
                assert_eq!(&two.data[..], b"two");
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn message_order_preserved_per_pair_and_tag() {
    // Non-overtaking: 50 same-tag messages arrive in send order even
    // with mixed sizes crossing the eager/rendezvous threshold.
    let report = builder(2)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                for i in 0..50u32 {
                    let size = if i % 7 == 3 { 1 << 19 } else { 64 };
                    let mut payload = vec![0u8; size];
                    payload[0] = i as u8;
                    mpi.send(w, 1, 5, Bytes::from(payload)).await?;
                }
            } else {
                for i in 0..50u32 {
                    let m = mpi.recv(w, Some(0), Some(5)).await?;
                    assert_eq!(m.data[0], i as u8, "message {i} out of order");
                }
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn stats_count_operations() {
    let report = builder(3)
        .run_app(|mpi| async move {
            let w = mpi.world();
            mpi.barrier(w).await?;
            if mpi.rank == 0 {
                mpi.send(w, 1, 0, Bytes::from(vec![0u8; 100])).await?;
            } else if mpi.rank == 1 {
                mpi.recv(w, Some(0), Some(0)).await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.mpi.collectives, 3, "one barrier per rank");
    // Barrier internally: 2 sends from non-roots + 2 sends from root,
    // plus the user send.
    assert_eq!(report.mpi.sends, 5);
    assert!(report.mpi.bytes_sent >= 100);
    assert_eq!(report.mpi.proc_failed_errors, 0);
}

#[test]
fn isend_then_never_wait_still_delivers() {
    // A fire-and-forget isend must still deliver (the request is simply
    // never collected).
    let report = builder(2)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                let _req = mpi.isend(w, 1, 0, Bytes::from_static(b"fire")).await?;
                // never waited
            } else {
                let m = mpi.recv(w, Some(0), Some(0)).await?;
                assert_eq!(&m.data[..], b"fire");
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn empty_messages_match_like_any_other() {
    let report = builder(2)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                mpi.send(w, 1, 9, Bytes::new()).await?;
            } else {
                let m = mpi.recv(w, None, None).await?;
                assert!(m.data.is_empty());
                assert_eq!(m.tag, 9);
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn two_failures_accumulate_in_failed_list() {
    let report = builder(4)
        .errhandler(ErrHandler::Return)
        .inject_failure(2, SimTime::from_millis(10))
        .inject_failure(3, SimTime::from_millis(20))
        .run_app(|mpi| async move {
            match mpi.rank {
                0 | 1 => {
                    mpi.sleep(SimTime::from_secs(1)).await;
                    let failures = mpi.known_failures();
                    assert_eq!(failures.len(), 2);
                    assert_eq!(failures[0].0.idx(), 2);
                    assert_eq!(failures[1].0.idx(), 3);
                }
                _ => {
                    mpi.sleep(SimTime::from_millis(100)).await;
                }
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.failures.len(), 2);
}

/// No communicator has a handler of its own: an error on one the rank
/// does not know goes to the run's handler, as MPI sends an error
/// without a valid communicator to `MPI_COMM_WORLD`'s. Under `Return`
/// the calls return it and the run completes instead of aborting.
#[test]
fn an_unknown_communicator_errs_through_the_runs_handler() {
    let report = builder(2)
        .errhandler(ErrHandler::Return)
        .run_app(|mpi| async move {
            let stray = Comm { id: CommId(7) };
            let err = mpi.send(stray, 1, 0, Bytes::new()).await.unwrap_err();
            assert!(matches!(err, MpiError::Invalid(_)), "{err:?}");
            assert!(matches!(
                mpi.irecv(stray, None, None),
                Err(MpiError::Invalid(_))
            ));
            assert!(matches!(
                mpi.barrier(stray).await,
                Err(MpiError::Invalid(_))
            ));
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert_eq!(report.sim.abort_time, None);
}

#[test]
fn unknown_request_wait_is_an_error_not_a_hang() {
    let report = builder(1)
        .errhandler(ErrHandler::Return)
        .run_app(|mpi| async move {
            let err = mpi.wait(xsim_mpi::ReqId(12345)).await.unwrap_err();
            assert!(matches!(err, MpiError::Invalid(_)));
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn drain_contention_serializes_completions() {
    // Two senders hit rank 0 simultaneously. Without contention both
    // receives complete one recv_overhead after arrival; with
    // serialize_recv they complete recv_overhead apart.
    let run = |serialize: bool| {
        let mut net = NetModel::small(3);
        net.serialize_recv = serialize;
        SimBuilder::new(3)
            .net(net)
            .run_app(|mpi| async move {
                let w = mpi.world();
                if mpi.rank == 0 {
                    let r1 = mpi.irecv(w, Some(1), Some(0))?;
                    let r2 = mpi.irecv(w, Some(2), Some(0))?;
                    mpi.waitall(&[r1, r2]).await?;
                } else {
                    mpi.send(w, 0, 0, Bytes::from(vec![0u8; 64])).await?;
                }
                mpi.finalize();
                Ok(())
            })
            .unwrap()
    };
    let free = run(false);
    let contended = run(true);
    let d = contended.sim.final_clocks[0] - free.sim.final_clocks[0];
    // One extra recv_overhead (1 µs on the default model) of spacing.
    assert_eq!(d, SimTime::from_micros(1), "drain spacing, got {d}");
}

#[test]
fn drain_contention_preserves_engine_equivalence() {
    let run = |workers: usize| {
        let mut net = NetModel::small(8);
        net.serialize_recv = true;
        SimBuilder::new(8)
            .net(net)
            .workers(workers)
            .run_app(|mpi| async move {
                let w = mpi.world();
                if mpi.rank == 0 {
                    let reqs: Vec<_> = (1..8)
                        .map(|r| mpi.irecv(w, Some(r), Some(0)))
                        .collect::<Result<_, _>>()?;
                    mpi.waitall(&reqs).await?;
                } else {
                    mpi.send(w, 0, 0, Bytes::from(vec![mpi.rank as u8])).await?;
                }
                mpi.finalize();
                Ok(())
            })
            .unwrap()
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.sim.final_clocks, par.sim.final_clocks);
}

#[test]
fn probe_then_recv_consumes_once() {
    let report = builder(2)
        .run_app(|mpi| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                assert!(mpi.iprobe(w, None, None)?.is_none());
                // Blocking probe waits for the arrival without consuming.
                let (src, tag, len) = mpi.probe(w, None, None).await?;
                assert_eq!((src.idx(), tag, len), (1, 5, 3));
                // A second probe sees the same message.
                let again = mpi.iprobe(w, Some(1), Some(5))?.expect("still queued");
                assert_eq!(again.2, 3);
                // Receiving consumes it.
                let m = mpi.recv(w, Some(src.idx()), Some(tag)).await?;
                assert_eq!(&m.data[..], b"abc");
                assert!(mpi.iprobe(w, None, None)?.is_none());
            } else {
                mpi.sleep(SimTime::from_millis(5)).await;
                mpi.send(w, 0, 5, Bytes::from_static(b"abc")).await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn probe_towards_failed_rank_errors() {
    let report = builder(2)
        .errhandler(ErrHandler::Return)
        .inject_failure(1, SimTime::ZERO)
        .run_app(|mpi| async move {
            if mpi.rank == 0 {
                // Wait until the notification lands, then probe.
                mpi.sleep(SimTime::from_millis(10)).await;
                let err = mpi.probe(mpi.world(), Some(1), None).await.unwrap_err();
                assert!(matches!(err, MpiError::ProcFailed { .. }));
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.failures.len(), 1);
}

#[test]
fn sendrecv_symmetric_exchange_cannot_deadlock() {
    // Every rank sendrecvs with its ring neighbor using rendezvous-sized
    // payloads — plain blocking sends would deadlock here.
    let n = 6;
    let report = builder(n)
        .run_app(move |mpi| async move {
            let w = mpi.world();
            let right = (mpi.rank + 1) % mpi.size;
            let left = (mpi.rank + mpi.size - 1) % mpi.size;
            let payload = Bytes::from(vec![mpi.rank as u8; 512 * 1024]); // > eager
            let m = mpi
                .sendrecv(w, right, 1, payload, Some(left), Some(1))
                .await?;
            assert_eq!(m.data[0] as usize, left);
            assert_eq!(m.data.len(), 512 * 1024);
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
}

#[test]
fn tree_collectives_agree_with_linear_but_run_faster() {
    use xsim_mpi::CollAlgo;
    let run = |algo: CollAlgo| {
        let n = 64;
        SimBuilder::new(n)
            .net(NetModel::small(n))
            .collectives(algo)
            .run_app(|mpi| async move {
                let got = mpi
                    .bcast(mpi.world(), 0, Bytes::from_static(b"payload"))
                    .await?;
                assert_eq!(&got[..], b"payload");
                mpi.barrier(mpi.world()).await?;
                mpi.finalize();
                Ok(())
            })
            .unwrap()
    };
    let linear = run(CollAlgo::Linear);
    let tree = run(CollAlgo::Tree);
    assert_eq!(linear.sim.exit, ExitKind::Completed);
    assert_eq!(tree.sim.exit, ExitKind::Completed);
    assert!(
        tree.sim.timing.max < linear.sim.timing.max,
        "tree {} should beat linear {}",
        tree.sim.timing.max,
        linear.sim.timing.max
    );
}

#[test]
fn racing_aborts_activate_at_earliest_time() {
    // Two ranks initiate MPI_Abort almost simultaneously — both before
    // either initiator's notices can arrive — so every other rank
    // receives two abort notices. Activation must use the *earliest*
    // abort time everywhere: the blocked receiver is released at it and
    // the computing rank aborts at the end of its compute phase.
    let t0 = SimTime::from_millis(10);
    let t1 = t0 + SimTime::from_nanos(500); // within the notify delay
    let report = builder(4)
        .run_app(move |mpi| async move {
            match mpi.rank {
                0 => {
                    mpi.sleep(t0).await;
                    return Err(mpi.abort());
                }
                1 => {
                    mpi.sleep(t1).await;
                    return Err(mpi.abort());
                }
                2 => {
                    // Blocked on a message that never comes.
                    let _ = mpi.recv(mpi.world(), Some(3), Some(0)).await;
                }
                _ => {
                    // Computes past both abort times.
                    mpi.sleep(SimTime::from_millis(50)).await;
                }
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Aborted);
    assert_eq!(report.sim.abort_time, Some(t0), "earliest abort wins");
    assert_eq!(
        report.sim.final_clocks[2], t0,
        "blocked rank released at the earliest abort time, not the later"
    );
    assert_eq!(
        report.sim.final_clocks[3],
        SimTime::from_millis(50),
        "computing rank aborts at the end of its phase"
    );
}
