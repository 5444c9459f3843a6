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
use crate::state::MpiService;
use xsim_core::event::Action;
use xsim_core::{ctx, Kernel, Rank, SimTime};

/// Initiate an abort from the currently executing VP at its current
/// clock. Returns the `Aborted` error the caller must propagate out of
/// the application. Idempotent: a second initiation returns the original
/// abort time.
pub(crate) fn initiate_abort_here() -> MpiError {
    ctx::with_kernel(|k, me| {
        if let Some(t) = k.vp(me).abort_at() {
            return MpiError::Aborted { time: t };
        }
        let now = k.vp(me).clock();
        if k.cfg.verbose {
            eprintln!("xsim-mpi: MPI_Abort invoked at rank {me} at time {now}");
        }
        k.set_abort_at(me, now);
        k.note_abort(now);
        let at = now + k.service::<MpiService>().world.notify_delay();
        for r in 0..k.cfg.n_ranks {
            let target = Rank::new(r);
            if target == me {
                continue;
            }
            k.schedule_at(
                at,
                target,
                Action::call(move |k: &mut Kernel| {
                    abort_notice(k, target, now);
                }),
            );
        }
        MpiError::Aborted { time: now }
    })
}

/// Process an abort notification at `me`: arm the clock activation and
/// release a blocked message/file-I/O wait (compute phases run to
/// completion first, per the paper's activation rule).
fn abort_notice(k: &mut Kernel, me: Rank, t_abort: SimTime) {
    if k.vp(me).is_done() {
        return;
    }
    // Two racing aborts deliver two notices; `me` must activate at the
    // *earliest* abort time, not at whichever notice arrives last — so
    // arm the clock activation (which keeps the min) and wake with it.
    k.set_abort_at(me, t_abort);
    let t_min = k.vp(me).abort_at().expect("just armed");
    k.wake_if_message_blocked(me, t_min);
}
