//! ULFM (User-Level Failure Mitigation) support.
//!
//! The paper's conclusion reports "initial ULFM support according to the
//! pending MPI ULFM proposal": error notification via
//! `MPI_ERR_PROC_FAILED`, remote notification via `MPI_Comm_revoke()`,
//! and communicator reconfiguration via `MPI_Comm_shrink()` (§VI). This
//! module implements that subset plus `MPI_Comm_failure_ack` /
//! `MPI_Comm_failure_get_acked`.

use crate::collective::COLL_TAG_BASE;
use crate::comm::{Comm, CommId};
use crate::error::MpiError;
use crate::p2p::{self, with_mpi};
use crate::request::Request;
use crate::state::MpiService;
use std::sync::Arc;
use xsim_core::event::Action;
use xsim_core::{ctx, Bytes, Kernel, Rank, SimTime};

/// Tag space for shrink recovery traffic (flows with the revoked-comm
/// exemption).
const SHRINK_TAG: u32 = COLL_TAG_BASE + (1 << 29);

/// Revoke a communicator (`MPI_Comm_revoke`): a simulator-internal
/// notification reaches every member, marks the communicator revoked and
/// releases pending operations on it with [`MpiError::Revoked`].
///
/// Like the real ULFM revoke, this is not collective — any member may
/// call it — and it returns immediately.
pub(crate) fn comm_revoke(comm: CommId) -> Result<(), MpiError> {
    ctx::with_kernel(|k, me| {
        with_mpi(k, |k, svc| {
            let now = k.vp(me).clock();
            let delay = svc.world.notify_delay;
            if let Some(t) = svc.rank(me).aborted() {
                return Err(MpiError::Aborted { time: t });
            }
            let view = svc
                .view(me, comm)
                .ok_or(MpiError::Invalid("unknown communicator"))?;
            let members: Vec<Rank> = view.members.as_ref().clone();
            // Mark locally at once (the caller is running, so no wake is
            // needed), remotely after the notification delay.
            apply_revoke(svc, me, comm, now);
            for m in members {
                if m == me {
                    continue;
                }
                k.schedule_at(
                    now + delay,
                    m,
                    Action::call(move |k: &mut Kernel| {
                        if k.vp(m).is_done() {
                            return;
                        }
                        let at = now + delay;
                        let wake = with_mpi(k, |_k, svc| apply_revoke(svc, m, comm, at));
                        if wake {
                            k.wake_if_message_blocked(m, at);
                        }
                    }),
                );
            }
            Ok(())
        })
    })
}

/// Mark `comm` revoked at `rank` and release its pending operations.
/// Returns whether any request was released (the caller must then wake
/// the rank).
fn apply_revoke(svc: &mut MpiService, rank: Rank, comm: CommId, at: SimTime) -> bool {
    if svc.view(rank, comm).is_some_and(|v| v.revoked.is_some()) {
        return false;
    }
    let rm = svc.rank_mut(rank);
    rm.comms_mut().revoke(comm, at);
    let pending = rm.reqs.pending_on_comm(comm);
    let mut any = false;
    for (id, _) in pending {
        // ULFM recovery traffic is exempt: a member already inside
        // comm_shrink when the revoke notice lands must not have its
        // report/survivor-list exchange released, or the shrink itself
        // would fail with Revoked.
        if rm
            .reqs
            .get(id)
            .and_then(Request::pending)
            .is_some_and(|p| p.tag >= SHRINK_TAG)
        {
            continue;
        }
        any |= rm.fail_request(id, at, MpiError::Revoked);
    }
    any
}

/// Acknowledge all locally known failures (`MPI_Comm_failure_ack`):
/// subsequently, wildcard receives are not failed by these processes.
pub(crate) fn failure_ack() -> Result<(), MpiError> {
    ctx::with_kernel(|k, me| {
        let svc = k.service_mut::<MpiService>();
        let rm = svc.rank_mut(me);
        if let Some(t) = rm.aborted() {
            return Err(MpiError::Aborted { time: t });
        }
        rm.failed_mut().ack_all();
        Ok(())
    })
}

/// The failures acknowledged so far (`MPI_Comm_failure_get_acked`), as
/// world ranks in ascending order.
pub(crate) fn failure_get_acked() -> Vec<Rank> {
    ctx::with_kernel(|k, me| {
        let svc = k.service::<MpiService>();
        svc.rank(me).failed().acked().collect()
    })
}

/// This rank's current list of known-failed processes (world ranks with
/// times of failure) — the per-process list of paper §IV-B.
pub(crate) fn known_failures() -> Vec<(Rank, SimTime)> {
    ctx::with_kernel(|k, me| {
        let svc = k.service::<MpiService>();
        svc.rank(me).failed().iter().collect()
    })
}

/// When `rank` failed, if this rank has been told: one entry of
/// [`known_failures`], read in place.
pub(crate) fn failure_time(rank: Rank) -> Option<SimTime> {
    ctx::with_kernel(|k, me| k.service::<MpiService>().rank(me).failed().get(rank))
}

/// Shrink a (typically revoked) communicator (`MPI_Comm_shrink`):
/// surviving members agree on the failed set and derive a new
/// communicator containing only survivors, preserving rank order.
///
/// Protocol: every survivor reports its local failed-list to the lowest
///-ranked member it believes alive; that root unions the reports (adding
/// any member whose report times out as failed), broadcasts the final
/// survivor list, and everyone installs the new communicator. Survivors
/// must share enough failure knowledge to agree on the root — guaranteed
/// once the (global, equal-delay) failure notifications have been
/// delivered, which is the case for shrinks triggered by a detected
/// failure plus revoke.
pub(crate) async fn comm_shrink(comm: CommId) -> Result<Comm, MpiError> {
    let (me_world, members, my_failed): (Rank, Arc<Vec<Rank>>, Vec<Rank>) =
        ctx::with_kernel(|k, me| {
            let svc = k.service::<MpiService>();
            let rm = svc.rank(me);
            if let Some(t) = rm.aborted() {
                return Err(MpiError::Aborted { time: t });
            }
            let view = svc
                .view(me, comm)
                .ok_or(MpiError::Invalid("unknown communicator"))?;
            let failed: Vec<Rank> = view
                .members
                .iter()
                .filter(|m| rm.failed().get(**m).is_some())
                .copied()
                .collect();
            Ok((me, view.members.clone(), failed))
        })?;

    let root_world = *members
        .iter()
        .find(|m| !my_failed.contains(m))
        .ok_or(MpiError::Invalid("no surviving member to shrink around"))?;
    let root_cr = members
        .iter()
        .position(|m| *m == root_world)
        .expect("root is a member");

    let survivors: Vec<Rank> = if me_world == root_world {
        // Gather reports from everyone I believe alive; treat report
        // failures as additional dead members.
        let mut failed_union: Vec<Rank> = my_failed.clone();
        for (cr, m) in members.iter().enumerate() {
            if *m == me_world || failed_union.contains(m) {
                continue;
            }
            match p2p::recv_system(comm, cr, SHRINK_TAG).await {
                Ok(report) => {
                    if let Some(ranks) = decode_ranks(&report.data) {
                        for r in ranks {
                            if !failed_union.contains(&r) {
                                failed_union.push(r);
                            }
                        }
                    }
                }
                Err(MpiError::ProcFailed { rank, .. }) => {
                    if !failed_union.contains(&rank) {
                        failed_union.push(rank);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        let survivors: Vec<Rank> = members
            .iter()
            .filter(|m| !failed_union.contains(m))
            .copied()
            .collect();
        let payload = encode_ranks(&survivors);
        for m in &survivors {
            if *m == me_world {
                continue;
            }
            let cr = members.iter().position(|x| x == m).expect("member");
            p2p::send_system(comm, cr, SHRINK_TAG, payload.clone()).await?;
        }
        survivors
    } else {
        p2p::send_system(comm, root_cr, SHRINK_TAG, encode_ranks(&my_failed)).await?;
        let resp = p2p::recv_system(comm, root_cr, SHRINK_TAG).await?;
        decode_ranks(&resp.data).ok_or(MpiError::Invalid("corrupt shrink payload"))?
    };

    // Install the shrunken communicator (same deterministic id on every
    // survivor: each installs exactly once per shrink).
    ctx::with_kernel(|k, me| {
        let comms = k.service_mut::<MpiService>().rank_mut(me).comms_mut();
        let id = comms.install(Arc::new(survivors.clone()), me);
        Ok(Comm { id })
    })
}

fn encode_ranks(v: &[Rank]) -> Bytes {
    let mut buf = Vec::with_capacity(4 + v.len() * 4);
    buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for r in v {
        buf.extend_from_slice(&r.0.to_le_bytes());
    }
    buf.into()
}

fn decode_ranks(data: &[u8]) -> Option<Vec<Rank>> {
    if data.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(data[0..4].try_into().ok()?) as usize;
    if data.len() != 4 + n * 4 {
        return None;
    }
    Some(
        data[4..]
            .chunks_exact(4)
            .map(|c| Rank(u32::from_le_bytes(c.try_into().expect("chunk of 4"))))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_codec_round_trips() {
        let v = vec![Rank(0), Rank(42), Rank(u32::MAX)];
        assert_eq!(decode_ranks(&encode_ranks(&v)).unwrap(), v);
        assert_eq!(decode_ranks(&encode_ranks(&[])).unwrap(), vec![]);
        assert!(decode_ranks(&[1, 2]).is_none());
        assert!(decode_ranks(&encode_ranks(&v)[..7]).is_none());
    }

    #[test]
    fn multi_helpers_reexported() {
        use crate::collective::{decode_multi, encode_multi};
        let parts = vec![Bytes::from_static(b"a")];
        assert_eq!(decode_multi(&encode_multi(&parts)).unwrap(), parts);
    }
}
