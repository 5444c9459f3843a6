//! Simulated `MPI_Abort` (paper §IV-D).
//!
//! When the simulated MPI layer detects a process failure under
//! `MPI_ERRORS_ARE_FATAL`, or the application calls abort directly, an
//! abort notification is broadcast. Each simulated MPI process observes
//! the abort when its clock reaches or passes the abort time — blocked
//! message waits are released at that time, computing processes abort at
//! the end of their compute phase — and the simulator terminates after
//! all simulated MPI processes aborted.

use crate::error::MpiError;
use crate::p2p::with_mpi;
use xsim_core::event::Action;
use xsim_core::{ctx, Kernel, Rank, SimTime};

/// Initiate an abort from the currently executing VP at its current
/// clock. Returns the `Aborted` error the caller must propagate out of
/// the application. Idempotent: a second initiation returns the original
/// abort time.
pub(crate) fn initiate_abort_here() -> MpiError {
    ctx::with_kernel(|k, me| {
        let now = k.vp(me).clock();
        with_mpi(k, |k, svc| {
            let n = svc.world.n_ranks;
            let delay = svc.world.notify_delay;
            let verbose = svc.world.verbose;
            let rm = svc.rank_mut(me);
            if let Some(t) = rm.aborted() {
                return MpiError::Aborted { time: t };
            }
            rm.note_abort(now);
            if verbose {
                eprintln!("xsim-mpi: MPI_Abort invoked at rank {me} at time {now}");
            }
            k.set_abort_at(me, now);
            k.note_abort(now);
            for r in 0..n {
                let target = Rank::new(r);
                if target == me {
                    continue;
                }
                k.schedule_at(
                    now + delay,
                    target,
                    Action::call(move |k: &mut Kernel| {
                        abort_notice(k, target, now);
                    }),
                );
            }
            MpiError::Aborted { time: now }
        })
    })
}

/// Process an abort notification at `me`: record it, arm the clock
/// activation, and release a blocked message/file-I/O wait (compute
/// phases run to completion first, per the paper's activation rule).
fn abort_notice(k: &mut Kernel, me: Rank, t_abort: SimTime) {
    if k.vp(me).is_done() {
        return;
    }
    // Two racing aborts deliver two notices; `me` must activate at the
    // *earliest* abort time, not at whichever notice arrives last — so
    // arm the clock activation and the wakeup with the min.
    let t_min = with_mpi(k, |_k, svc| svc.rank_mut(me).note_abort(t_abort));
    k.set_abort_at(me, t_min);
    k.wake_if_message_blocked(me, t_min);
}
