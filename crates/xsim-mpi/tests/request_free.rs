//! `MPI_Request_free`: fire-and-forget sends leave no request behind,
//! and freeing a request changes nothing the simulation can observe.
//!
//! * after one `comm_split` (its ring allgather frees P−1 sends per
//!   rank) or one `alltoall`, every rank's request table is empty;
//! * after fire-and-forget ring halos, every rank's table is empty;
//! * differential: a program that frees its sends and the same program
//!   that drops the handles produce identical reports — including when
//!   freed rendezvous sends are still pending as their peer fails, so
//!   the failure path completes (and then drops) freed requests.

use std::cell::Cell;
use xsim_core::{ctx, Bytes, SimTime};
use xsim_mpi::state::MpiService;
use xsim_mpi::{ErrHandler, MpiCtx, MpiError, RunReport, SimBuilder};
use xsim_net::NetModel;

/// This rank's live (pending or uncollected) requests.
fn live_requests() -> usize {
    ctx::with_kernel(|k, me| k.service::<MpiService>().rank(me).reqs.len())
}

thread_local! {
    /// The most live requests any rank reported (runs execute on the
    /// test's own thread, so each test reads only its own runs).
    static MAX_LIVE: Cell<usize> = const { Cell::new(0) };
    /// Receives that completed with an error.
    static RECV_ERRORS: Cell<u64> = const { Cell::new(0) };
}

fn note_live() {
    MAX_LIVE.set(MAX_LIVE.get().max(live_requests()));
}

/// Run `f` on `n` ranks of the default machine (tree collectives) and
/// return the most live requests any rank held when it called
/// [`note_live`].
fn max_live_after<F, Fut>(n: usize, f: F) -> usize
where
    F: Fn(MpiCtx) -> Fut + Send + Sync + 'static,
    Fut: std::future::Future<Output = Result<(), MpiError>> + Send + 'static,
{
    MAX_LIVE.set(0);
    SimBuilder::new(n)
        .net(NetModel::small(n))
        .run_app(f)
        .expect("run completes");
    MAX_LIVE.get()
}

#[test]
fn comm_split_leaves_no_request_behind() {
    // Before `request_free`: 255 live requests per rank at 256 ranks.
    let live = max_live_after(256, |mpi| async move {
        let sub = mpi
            .comm_split(mpi.world(), Some((mpi.rank % 2) as u32), mpi.rank as i64)
            .await?
            .expect("every rank has a color");
        assert_eq!(mpi.comm_size(sub)?, 128);
        note_live();
        mpi.finalize();
        Ok(())
    });
    assert_eq!(live, 0);
}

#[test]
fn alltoall_leaves_no_request_behind() {
    let live = max_live_after(64, |mpi| async move {
        let parts = (0..mpi.size).map(|_| Bytes::zeroed(16)).collect();
        let got = mpi.alltoall(mpi.world(), parts).await?;
        assert_eq!(got.len(), mpi.size);
        note_live();
        mpi.finalize();
        Ok(())
    });
    assert_eq!(live, 0);
}

#[test]
fn fire_and_forget_ring_halos_leave_no_request_behind() {
    // Before `request_free`: one uncollected send per halo per rank.
    let live = max_live_after(64, |mpi| async move {
        let w = mpi.world();
        let right = (mpi.rank + 1) % mpi.size;
        let left = (mpi.rank + mpi.size - 1) % mpi.size;
        for halo in 0..10 {
            let rreq = mpi.irecv(w, Some(left), Some(halo))?;
            let sreq = mpi.isend(w, right, halo, Bytes::zeroed(256)).await?;
            mpi.request_free(w, sreq)?;
            mpi.wait(w, rreq).await?;
        }
        note_live();
        mpi.finalize();
        Ok(())
    });
    assert_eq!(live, 0);
}

#[test]
fn freeing_a_consumed_request_is_an_error() {
    SimBuilder::new(2)
        .errhandler(ErrHandler::Return)
        .run_app(|mpi| async move {
            let w = mpi.world();
            let peer = 1 - mpi.rank;
            let rreq = mpi.irecv(w, Some(peer), Some(0))?;
            let sreq = mpi.isend(w, peer, 0, Bytes::zeroed(8)).await?;
            mpi.wait(w, sreq).await?;
            assert!(matches!(
                mpi.request_free(w, sreq),
                Err(MpiError::Invalid(_))
            ));
            mpi.wait(w, rreq).await?;
            mpi.finalize();
            Ok(())
        })
        .expect("run completes");
}

// ----------------------------------------------------------------------
// Differential: freed ≡ dropped, through a peer failure
// ----------------------------------------------------------------------

const RING: usize = 8;
const DEAD: usize = 5;
const ROUNDS: u32 = 5;
/// Above the default 256 KiB eager threshold: every send is rendezvous
/// and stays pending until its receiver matches it.
const BIG: usize = 512 * 1024;

/// A ring of rendezvous sends, handles freed or dropped. `DEAD` stalls
/// in round 2 before posting its receive and is failed meanwhile: its
/// left neighbour's round-2 and later sends are pending when it dies and
/// complete through the failure path. Receive errors are counted and
/// otherwise ignored (`MPI_ERRORS_RETURN`), so every survivor finishes.
fn ring_run(free: bool) -> RunReport {
    RECV_ERRORS.set(0);
    MAX_LIVE.set(0);
    SimBuilder::new(RING)
        .net(NetModel::small(RING))
        .errhandler(ErrHandler::Return)
        .inject_failure(DEAD, SimTime::from_millis(500))
        .metrics(true)
        .run_app(move |mpi| async move {
            let w = mpi.world();
            let right = (mpi.rank + 1) % mpi.size;
            let left = (mpi.rank + mpi.size - 1) % mpi.size;
            let payload = Bytes::zeroed(BIG);
            for round in 0..ROUNDS {
                if mpi.rank == DEAD && round == 2 {
                    mpi.sleep(SimTime::from_secs(1)).await;
                }
                let rreq = mpi.irecv(w, Some(left), Some(round))?;
                let sreq = mpi.isend(w, right, round, payload.clone()).await?;
                if free {
                    mpi.request_free(w, sreq)?;
                }
                if mpi.wait(w, rreq).await.is_err() {
                    RECV_ERRORS.set(RECV_ERRORS.get() + 1);
                }
            }
            // Outlive every error completion: a finished rank ignores
            // them.
            mpi.sleep(SimTime::from_secs(10)).await;
            note_live();
            mpi.finalize();
            Ok(())
        })
        .expect("run completes")
}

#[test]
fn freed_and_dropped_sends_are_indistinguishable_through_a_failure() {
    let freed = ring_run(true);
    let (freed_recv_errors, freed_live) = (RECV_ERRORS.get(), MAX_LIVE.get());
    let dropped = ring_run(false);
    let dropped_live = MAX_LIVE.get();

    // The failure path ran on freed, still-pending rendezvous sends: more
    // requests failed than receives did, and every send was freed.
    assert_eq!(freed.sim.failures.len(), 1);
    assert!(freed_recv_errors > 0);
    assert!(
        freed.mpi.proc_failed_errors > freed_recv_errors,
        "no send failed: {} errors, {freed_recv_errors} of them receives",
        freed.mpi.proc_failed_errors
    );
    assert_eq!(freed_live, 0, "freed sends leave once complete");
    assert!(dropped_live > 0, "dropped handles stay in the table");

    let (a, b) = (&freed.sim, &dropped.sim);
    assert_eq!(a.exit, b.exit);
    assert_eq!(a.final_clocks, b.final_clocks);
    assert_eq!(a.terminations, b.terminations);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.abort_time, b.abort_time);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.context_switches, b.context_switches);
    assert_eq!(freed.exit_time(), dropped.exit_time());
    assert_eq!(freed.mpi, dropped.mpi);
    let snapshot = |r: &RunReport| r.metrics.as_ref().expect("metrics on").to_json(None);
    assert_eq!(snapshot(&freed), snapshot(&dropped));
}
