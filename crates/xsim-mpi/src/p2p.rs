//! Point-to-point communication.
//!
//! Timing model (see xsim-net):
//!
//! * **eager** (payload ≤ threshold): the sender is charged the send
//!   overhead and completes locally; the header+payload arrive after
//!   `hops·latency` (+ serialization).
//! * **rendezvous**: the header (RTS) arrives after `hops·latency`; when
//!   it matches a posted receive at `t_match`, a CTS/transfer phase of
//!   `2·latency + size/bw` follows; the send request completes when the
//!   transfer does.
//!
//! Failure semantics (paper §IV-C): operations towards a peer known to
//! have failed — and wildcard receives while an unacknowledged failure
//! exists — complete with `MPI_ERR_PROC_FAILED` at
//! `max(post time, time of failure) + network timeout`.
//!
//! Under link/switch faults, injection consults `NetModel::p2p_at`:
//! rerouted messages pay the inflated hop count, degraded links stretch
//! the transfer, and a partitioned destination is escalated into the
//! process-failure path. Under a [`LossyTransport`]
//! (`crate::state::LossyTransport`), each message's transmission
//! attempts are resolved deterministically at injection: the accumulated
//! retransmission backoff delays delivery, and an exhausted retry budget
//! likewise escalates the peer. Note that retransmission delays relax
//! MPI's non-overtaking guarantee between same-peer messages — matching
//! remains correct (the queues match on arrival order), but a later send
//! can arrive first.
//!
//! [`LossyTransport`]: crate::state::LossyTransport

use crate::comm::CommId;
use crate::error::MpiError;
use crate::msg::{Envelope, PostedRecv, SrcSel, TagSel};
use crate::request::{RecvOut, ReqId, ReqKind, ReqResult};
use crate::state::{
    escalate_unreachable, schedule_request_failure, MpiService, RankMpi, TxOutcome,
};
use xsim_core::event::Action;
use xsim_core::vp::WaitClass;
use xsim_core::{ctx, Bytes, Kernel, Rank, SimTime};
use xsim_net::NetClass;
use xsim_obs::ids;
use xsim_obs::service as obs;

/// Run `f` with the MPI service temporarily detached from the kernel, so
/// both can be borrowed mutably. Standard pattern for upper-layer code
/// that schedules events while mutating its own state. The detach moves
/// the box out of its registry slot and the re-attach moves it back:
/// MPI is the first service installed, so each is one `TypeId`
/// comparison.
pub(crate) fn with_mpi<R>(k: &mut Kernel, f: impl FnOnce(&mut Kernel, &mut MpiService) -> R) -> R {
    let mut svc = k.take_service::<MpiService>();
    let r = f(k, &mut svc);
    k.put_back_service(svc);
    r
}

/// Common operation entry checks: abort observed? communicator known and
/// (unless exempted, as for ULFM shrink traffic) not revoked?
pub(crate) fn entry_checks_ex(
    rm: &RankMpi,
    comm: CommId,
    allow_revoked: bool,
) -> Result<(), MpiError> {
    if let Some(t) = rm.aborted {
        return Err(MpiError::Aborted { time: t });
    }
    let view = rm
        .comms
        .view(comm)
        .ok_or(MpiError::Invalid("unknown communicator"))?;
    if !allow_revoked && view.revoked.is_some() {
        return Err(MpiError::Revoked);
    }
    Ok(())
}

/// Entry checks with the standard revoke semantics.
pub(crate) fn entry_checks(rm: &RankMpi, comm: CommId) -> Result<(), MpiError> {
    entry_checks_ex(rm, comm, false)
}

/// Post a nonblocking send of `data` to communicator rank `dst` with
/// `tag`. Charges the sender-side software overhead.
pub async fn isend_raw(comm: CommId, dst: usize, tag: u32, data: Bytes) -> Result<ReqId, MpiError> {
    isend_ex(comm, dst, tag, data, false).await
}

/// Like [`isend_raw`] but optionally exempt from the revoked-communicator
/// check (ULFM recovery traffic must flow on revoked communicators).
pub(crate) async fn isend_ex(
    comm: CommId,
    dst: usize,
    tag: u32,
    data: Bytes,
    allow_revoked: bool,
) -> Result<ReqId, MpiError> {
    let (req, overhead) = ctx::with_kernel(|k, me| {
        with_mpi(k, |k, svc| {
            let now = k.vp(me).clock();
            let rm = svc.rank_mut(me);
            entry_checks_ex(rm, comm, allow_revoked)?;
            let view = rm.comms.view(comm).expect("checked");
            let dst_world = view
                .world_rank(dst)
                .ok_or(MpiError::Invalid("destination rank out of range"))?;
            rm.stats.sends += 1;
            rm.stats.bytes_sent += data.len() as u64;
            let seq = rm.next_send_seq(dst_world);
            let req = rm
                .reqs
                .create(ReqKind::Send, comm, SrcSel::Of(dst_world), tag, now);
            let known_failed = rm.failed.get(dst_world);

            // The shared configuration is borrowed, not cloned: the
            // refcount is one cache line every worker would hammer.
            let world = &*svc.world;
            let send_overhead = world.net.send_overhead;
            // Fault-aware route at injection time: None means the live
            // link faults partition the network between the two nodes.
            let route = world.net.p2p_at(me, dst_world, data.len(), now);
            // Protocol and network class do not depend on link state.
            let (eager, class) = match &route {
                Some(r) => (r.timing.eager, r.timing.class),
                None => {
                    let base = world.net.p2p(me, dst_world, data.len());
                    (base.eager, base.class)
                }
            };

            // Hottest per-send metrics accumulate in the service-local
            // batch (plain field adds) instead of paying a registry
            // lookup each; the batch lands at engine shutdown.
            svc.net_batch.observe(eager, class, data.len() as u64);

            if let Some(tof) = known_failed {
                // Known-failed destination: the send request fails per
                // the configured detector; nothing is transmitted (paper
                // §IV-B: messages to a failed process are deleted).
                let at = world.failure_error_time(me, dst_world, now, tof);
                schedule_request_failure(k, me, req, at, dst_world, tof);
                return Ok((req, send_overhead));
            }

            let Some(route) = route else {
                // Partition: no live path to the destination. Treat the
                // peer as unreachable — fail it one notification delay
                // out and let the regular detection/notification path
                // surface MPI_ERR_PROC_FAILED here and everywhere else.
                let tof = now + world.notify_delay;
                escalate_unreachable(k, dst_world, tof);
                let at = world.failure_error_time(me, dst_world, now, tof);
                schedule_request_failure(k, me, req, at, dst_world, tof);
                return Ok((req, send_overhead));
            };
            let timing = route.timing;

            // Lossy transport: resolve every transmission attempt now
            // (deterministic per (src, dst, seq, attempt)) and either
            // charge the accumulated backoff to the delivery time or
            // declare the peer unreachable on budget exhaustion.
            let mut backoff_total = SimTime::ZERO;
            let mut attempts_dropped = 0u64;
            let mut attempts_corrupt = 0u64;
            let mut delivered = true;
            // Only fabric (system-class) links are lossy; on-node shared
            // memory stays reliable.
            let lossy_here = world
                .lossy
                .filter(|l| class == NetClass::System && l.applies(me, dst_world));
            if let Some(lossy) = lossy_here {
                let mut attempt = 0u32;
                loop {
                    match lossy.tx_outcome(me, dst_world, seq, attempt) {
                        TxOutcome::Delivered => break,
                        out => {
                            if out == TxOutcome::Corrupted {
                                attempts_corrupt += 1;
                            } else {
                                attempts_dropped += 1;
                            }
                            if attempt >= lossy.max_retries {
                                delivered = false;
                                break;
                            }
                            backoff_total += lossy.backoff(attempt);
                            attempt += 1;
                        }
                    }
                }
            }

            if obs::enabled(k) {
                let failures = attempts_dropped + attempts_corrupt;
                if attempts_dropped > 0 {
                    obs::record(k, ids::NET_DROPS, attempts_dropped);
                }
                if attempts_corrupt > 0 {
                    obs::record(k, ids::NET_CORRUPT_DROPS, attempts_corrupt);
                }
                if failures > 0 {
                    // Retransmits = attempts beyond the first; the final
                    // failed attempt of an exhausted budget is not
                    // followed by another.
                    let retrans = if delivered { failures } else { failures - 1 };
                    obs::record(k, ids::NET_RETRANSMITS, retrans);
                    obs::record(k, ids::NET_BACKOFF_NS, backoff_total.as_nanos());
                }
                if route.extra_hops > 0 {
                    obs::record(k, ids::NET_REROUTED_HOPS, route.extra_hops as u64);
                }
                if timing.eager && route.degraded_extra > SimTime::ZERO {
                    obs::record(k, ids::NET_DEGRADED_NS, route.degraded_extra.as_nanos());
                }
            }

            if !delivered {
                // Retry budget exhausted: the destination is unreachable
                // as far as this NIC can tell. Escalate into the process
                // failure path at the moment the last retry gave up.
                let t_give_up = now + send_overhead + backoff_total;
                let tof = t_give_up.max(now + world.notify_delay);
                escalate_unreachable(k, dst_world, tof);
                let at = world.failure_error_time(me, dst_world, now, tof);
                schedule_request_failure(k, me, req, at, dst_world, tof);
                return Ok((req, send_overhead));
            }

            let header_arrival = now + send_overhead + backoff_total + timing.latency;
            // Boxed transport envelope: the delivery closure captures 16
            // bytes (rank + pointer) instead of the ~100-byte envelope,
            // and the box itself is drawn from / returned to the service
            // pool, so steady-state messaging allocates nothing here.
            let env = svc.env_box(Envelope {
                src: me,
                comm,
                tag,
                data,
                seq,
                header_arrival,
                payload_ready: timing.eager.then(|| header_arrival + timing.transfer),
                send_req: (!timing.eager).then_some((me, req.0)),
            });
            k.schedule_at(
                header_arrival,
                dst_world,
                Action::call(move |k: &mut Kernel| deliver(k, dst_world, env)),
            );
            if timing.eager {
                // Eager sends complete locally once injected.
                svc.rank_mut(me)
                    .reqs
                    .complete(req, now + send_overhead, Ok(None));
            }
            Ok((req, send_overhead))
        })
    })?;
    if overhead > SimTime::ZERO {
        ctx::sleep(overhead).await;
    }
    Ok(req)
}

/// Post a nonblocking receive. `src`/`tag` of `None` are the
/// `MPI_ANY_SOURCE`/`MPI_ANY_TAG` wildcards; `src` is a communicator
/// rank.
pub fn irecv_raw(comm: CommId, src: Option<usize>, tag: Option<u32>) -> Result<ReqId, MpiError> {
    irecv_ex(comm, src, tag, false)
}

/// Like [`irecv_raw`] but optionally exempt from the revoked check.
pub(crate) fn irecv_ex(
    comm: CommId,
    src: Option<usize>,
    tag: Option<u32>,
    allow_revoked: bool,
) -> Result<ReqId, MpiError> {
    ctx::with_kernel(|k, me| {
        with_mpi(k, |k, svc| {
            let now = k.vp(me).clock();
            let rm = svc.rank_mut(me);
            entry_checks_ex(rm, comm, allow_revoked)?;
            let view = rm.comms.view(comm).expect("checked");
            let src_sel = match src {
                Some(cr) => SrcSel::Of(
                    view.world_rank(cr)
                        .ok_or(MpiError::Invalid("source rank out of range"))?,
                ),
                None => SrcSel::Any,
            };
            let tag_sel = match tag {
                Some(t) => TagSel::Of(t),
                None => TagSel::Any,
            };

            rm.stats.recvs += 1;
            let req = rm
                .reqs
                .create(ReqKind::Recv, comm, src_sel, tag.unwrap_or(0), now);

            // Failure interactions (paper §IV-C).
            let failure = match src_sel {
                SrcSel::Of(s) => rm.failed.get(s).map(|tof| (s, tof)),
                // Wildcard receives fail while an unacknowledged failure
                // exists — unless a message matches first.
                SrcSel::Any => rm.failed.first_unacked(),
            };
            if let Some((dead, tof)) = failure {
                let at = svc.world.failure_error_time(me, dead, now, tof);
                schedule_request_failure(k, me, req, at, dead, tof);
                if !src_sel.is_any() {
                    return Ok(req); // never posted; cannot match
                }
            }

            let posted = PostedRecv {
                req: req.0,
                comm,
                src: src_sel,
                tag: tag_sel,
                posted_at: now,
                post_seq: 0,
            };
            if let Some(env) = svc.rank_mut(me).queues.post(posted) {
                complete_match(k, svc, me, req, env, now);
            }
            Ok(req)
        })
    })
}

/// Deliver an envelope at its destination (runs as a scheduled event at
/// header-arrival time).
fn deliver(k: &mut Kernel, dst: Rank, env: Box<Envelope>) {
    // "Once a simulated MPI process fails ... all messages directed to
    // this simulated MPI process are deleted" (paper §IV-B).
    if k.vp(dst).is_done() {
        return;
    }
    let queued_at = with_mpi(k, |k, svc| {
        // Recycle the transport box into this (destination) shard's
        // pool; the envelope continues by value.
        let env = svc.env_unbox(env);
        let t_match = env.header_arrival;
        match svc.rank_mut(dst).queues.deliver(env) {
            Some((posted, env)) => {
                complete_match(k, svc, dst, ReqId(posted.req), env, t_match);
                None
            }
            // Queued as unexpected: a blocked prober may be waiting for
            // exactly this arrival. Wake after the service is back in
            // place (the resumed VP reaches for it); waiters on other
            // requests treat the wake as spurious and re-block.
            None => {
                let hwm = svc.rank(dst).queues.unexpected_len() as u64;
                obs::record(k, ids::MPI_UNEXPECTED_HWM, hwm);
                Some(t_match)
            }
        }
    });
    if let Some(t) = queued_at {
        k.wake_if_message_blocked(dst, t);
    }
}

/// A receive matched an envelope at `t_match`: schedule the completion
/// of the receive (and, for rendezvous, of the sender's request).
fn complete_match(
    k: &mut Kernel,
    svc: &mut MpiService,
    dst: Rank,
    req: ReqId,
    env: Envelope,
    t_match: SimTime,
) {
    let recv_ov = svc.world.net.recv_overhead;
    let (base, send_finish) = match env.payload_ready {
        Some(ready) => (t_match.max(ready), None),
        None => {
            // Rendezvous: the transfer happens now, so route it over the
            // link state at match time — a link that degraded or healed
            // since injection changes the transfer, not the handshake.
            // If the network partitioned after the RTS arrived, fall
            // back to the fault-free timing: detection is the job of the
            // next injection, not of an already-matched handshake.
            let (timing, degraded) =
                match svc.world.net.p2p_at(env.src, dst, env.data.len(), t_match) {
                    Some(r) => (r.timing, r.degraded_extra),
                    None => (
                        svc.world.net.p2p(env.src, dst, env.data.len()),
                        SimTime::ZERO,
                    ),
                };
            if degraded > SimTime::ZERO {
                obs::record(k, ids::NET_DEGRADED_NS, degraded.as_nanos());
            }
            let xfer_done = t_match + timing.latency + timing.latency + timing.transfer;
            (xfer_done, env.send_req.map(|sr| (sr, xfer_done)))
        }
    };
    let recv_at = if svc.world.net.serialize_recv {
        // Drain contention: completions at this rank serialize at
        // recv_overhead spacing (receiver-local state, so both engines
        // order them identically).
        let rm = svc.rank_mut(dst);
        let at = base.max(rm.recv_free) + recv_ov;
        rm.recv_free = at;
        at
    } else {
        base + recv_ov
    };
    let out = RecvOut {
        data: env.data,
        src: env.src,
        tag: env.tag,
    };
    k.schedule_at(
        recv_at,
        dst,
        Action::call(move |k: &mut Kernel| {
            finish_request(k, dst, req, recv_at, Ok(Some(out)));
        }),
    );
    if let Some(((src, sreq), at)) = send_finish {
        k.schedule_at(
            at,
            src,
            Action::call(move |k: &mut Kernel| {
                finish_request(k, src, ReqId(sreq), at, Ok(None));
            }),
        );
    }
}

/// Complete a request at `at` and wake its owner if it is blocked on a
/// message wait.
fn finish_request(k: &mut Kernel, owner: Rank, req: ReqId, at: SimTime, result: ReqResult) {
    if k.vp(owner).is_done() {
        return;
    }
    let completed = {
        let svc = k.service_mut::<MpiService>();
        let rm = svc.rank_mut(owner);
        let done = rm.reqs.complete(req, at, result);
        if done {
            rm.push_completion(req.0);
        }
        done
    };
    if completed {
        k.wake_if_message_blocked(owner, at);
    }
}

enum WaitStep {
    Ready(ReqResult),
    Pending,
}

fn poll_request(req: ReqId) -> WaitStep {
    ctx::with_kernel(|k, me| {
        let now = k.vp(me).clock();
        let svc = k.service_mut::<MpiService>();
        let rm = svc.rank_mut(me);
        if let Some(t) = rm.aborted {
            return WaitStep::Ready(Err(MpiError::Aborted { time: t }));
        }
        match rm.reqs.try_take(req, now) {
            Some((_, result)) => WaitStep::Ready(result),
            None => {
                if rm.reqs.get(req).is_none() {
                    WaitStep::Ready(Err(MpiError::Invalid("unknown or consumed request")))
                } else {
                    WaitStep::Pending
                }
            }
        }
    })
}

/// Wait for one request (`MPI_Wait`). Returns the receive payload for
/// receives, `None` for sends.
pub async fn wait_raw(req: ReqId) -> ReqResult {
    loop {
        match poll_request(req) {
            WaitStep::Ready(r) => return r,
            WaitStep::Pending => {
                ctx::block(WaitClass::Message, "MPI wait").await;
            }
        }
    }
}

/// Nonblocking completion check (`MPI_Test`).
pub fn test_raw(req: ReqId) -> Option<ReqResult> {
    match poll_request(req) {
        WaitStep::Ready(r) => Some(r),
        WaitStep::Pending => None,
    }
}

/// Release a request the caller will not wait on (`MPI_Request_free`).
/// See [`RequestTable::free`](crate::request::RequestTable::free): done
/// requests leave the table now, pending ones when they complete, and
/// the simulation cannot tell a freed request from a held one. Local
/// and immediate; the only error is an unknown (or already consumed) id.
pub(crate) fn request_free_raw(req: ReqId) -> Result<(), MpiError> {
    ctx::with_kernel(|k, me| {
        let svc = k.service_mut::<MpiService>();
        if svc.rank_mut(me).reqs.free(req) {
            Ok(())
        } else {
            Err(MpiError::Invalid("unknown or consumed request"))
        }
    })
}

/// Drain the completion feed into `ids`. Entries for requests the
/// caller does not hold are safe to drop: a fresh wait always performs
/// an initial full scan that catches pre-completed requests.
fn drain_completion_feed(ids: &mut Vec<u64>) {
    ctx::with_kernel(|k, me| {
        let svc = k.service_mut::<MpiService>();
        svc.rank_mut(me).drain_completions(ids);
    })
}

/// Turn the calling rank's completion feed on or off. A `waitall`/
/// `waitany` watches from its initial scan to its return; outside that
/// window nobody reads the feed and nothing is recorded.
fn watch_completions(on: bool) {
    ctx::with_kernel(|k, me| {
        let svc = k.service_mut::<MpiService>();
        svc.rank_mut(me).watch_completions(on);
    })
}

/// The requests a `waitall`/`waitany` still waits on, as `(request id,
/// position in the caller's slice)` sorted by id.
fn waiting_position(waiting: &[(u64, usize)], id: u64) -> Option<usize> {
    let at = waiting.binary_search_by_key(&id, |(id, _)| *id).ok()?;
    Some(waiting[at].1)
}

/// Wait for all requests (`MPI_Waitall`). On error, the first failing
/// request's error (among those known complete) is returned.
///
/// After an initial scan, each wakeup re-checks only requests named in
/// the per-rank completion feed, keeping a P-receive wait (a linear
/// collective root) at O(P log P) total instead of O(P²).
pub async fn waitall_raw(reqs: &[ReqId]) -> Result<Vec<Option<RecvOut>>, MpiError> {
    let mut out: Vec<Option<Option<RecvOut>>> = vec![None; reqs.len()];
    let mut waiting: Vec<(u64, usize)> = Vec::new();
    for (i, &req) in reqs.iter().enumerate() {
        match poll_request(req) {
            WaitStep::Ready(Ok(v)) => out[i] = Some(v),
            WaitStep::Ready(Err(e)) => return Err(e),
            WaitStep::Pending => waiting.push((req.0, i)),
        }
    }
    if !waiting.is_empty() {
        waiting.sort_unstable();
        watch_completions(true);
        let waited = wait_for_rest(&waiting, &mut out).await;
        watch_completions(false);
        waited?;
    }
    Ok(out.into_iter().map(|v| v.expect("all done")).collect())
}

/// The blocking part of [`waitall_raw`]: fill `out` for every request
/// in `waiting` as the completion feed names it.
async fn wait_for_rest(
    waiting: &[(u64, usize)],
    out: &mut [Option<Option<RecvOut>>],
) -> Result<(), MpiError> {
    let mut remaining = waiting.len();
    let mut fresh = Vec::new();
    while remaining > 0 {
        ctx::block(WaitClass::Message, "MPI waitall").await;
        drain_completion_feed(&mut fresh);
        for &id in &fresh {
            let Some(i) = waiting_position(waiting, id) else {
                continue;
            };
            if out[i].is_some() {
                continue;
            }
            match poll_request(ReqId(id)) {
                WaitStep::Ready(Ok(v)) => {
                    out[i] = Some(v);
                    remaining -= 1;
                }
                WaitStep::Ready(Err(e)) => return Err(e),
                WaitStep::Pending => {}
            }
        }
    }
    Ok(())
}

/// Wait for any one of the requests (`MPI_Waitany`): returns the index
/// of the completed request and its result.
pub async fn waitany_raw(reqs: &[ReqId]) -> (usize, ReqResult) {
    let mut waiting: Vec<(u64, usize)> = Vec::with_capacity(reqs.len());
    for (i, &req) in reqs.iter().enumerate() {
        match poll_request(req) {
            WaitStep::Ready(r) => return (i, r),
            WaitStep::Pending => waiting.push((req.0, i)),
        }
    }
    waiting.sort_unstable();
    watch_completions(true);
    let mut fresh = Vec::new();
    let done = loop {
        ctx::block(WaitClass::Message, "MPI waitany").await;
        drain_completion_feed(&mut fresh);
        let hit = fresh.iter().find_map(|&id| {
            let i = waiting_position(&waiting, id)?;
            match poll_request(ReqId(id)) {
                WaitStep::Ready(r) => Some((i, r)),
                WaitStep::Pending => None,
            }
        });
        if let Some(hit) = hit {
            break hit;
        }
    };
    watch_completions(false);
    done
}

/// Nonblocking probe (`MPI_Iprobe`): report the earliest matching
/// unexpected message without consuming it, as `(source world rank,
/// tag, payload bytes)`.
pub fn iprobe_raw(
    comm: CommId,
    src: Option<usize>,
    tag: Option<u32>,
) -> Result<Option<(Rank, u32, usize)>, MpiError> {
    ctx::with_kernel(|k, me| {
        let svc = k.service::<MpiService>();
        let rm = svc.rank(me);
        entry_checks(rm, comm)?;
        let view = rm.comms.view(comm).expect("checked");
        let src_sel = match src {
            Some(cr) => SrcSel::Of(
                view.world_rank(cr)
                    .ok_or(MpiError::Invalid("source rank out of range"))?,
            ),
            None => SrcSel::Any,
        };
        let tag_sel = match tag {
            Some(t) => TagSel::Of(t),
            None => TagSel::Any,
        };
        Ok(rm.queues.peek(comm, src_sel, tag_sel))
    })
}

/// Blocking probe (`MPI_Probe`): wait until a matching message is
/// available (or a failure releases the wait), then report it without
/// consuming it.
pub async fn probe_raw(
    comm: CommId,
    src: Option<usize>,
    tag: Option<u32>,
) -> Result<(Rank, u32, usize), MpiError> {
    loop {
        if let Some(found) = iprobe_raw(comm, src, tag)? {
            return Ok(found);
        }
        // A probe towards a failed peer must not hang: reuse the recv
        // failure interactions by checking the failed list directly.
        let failed: Option<MpiError> = ctx::with_kernel(|k, me| {
            let svc = k.service::<MpiService>();
            let rm = svc.rank(me);
            let view = rm.comms.view(comm)?;
            match src {
                Some(cr) => {
                    let s = view.world_rank(cr)?;
                    rm.failed.get(s).map(|tof| MpiError::ProcFailed {
                        rank: s,
                        time_of_failure: tof,
                    })
                }
                None => rm
                    .failed
                    .first_unacked()
                    .map(|(r, tof)| MpiError::ProcFailed {
                        rank: r,
                        time_of_failure: tof,
                    }),
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        ctx::block(WaitClass::Message, "MPI probe").await;
    }
}

/// Combined send+receive (`MPI_Sendrecv`): posts both sides before
/// waiting, so symmetric neighbor exchanges cannot deadlock.
pub async fn sendrecv_raw(
    comm: CommId,
    dst: usize,
    send_tag: u32,
    data: Bytes,
    src: Option<usize>,
    recv_tag: Option<u32>,
) -> Result<RecvOut, MpiError> {
    let rreq = irecv_raw(comm, src, recv_tag)?;
    let sreq = isend_raw(comm, dst, send_tag, data).await?;
    let out = wait_raw(rreq).await?;
    wait_raw(sreq).await?;
    out.ok_or(MpiError::Invalid("receive completed without payload"))
}

/// Blocking send (`MPI_Send`): post and wait.
pub async fn send_raw(comm: CommId, dst: usize, tag: u32, data: Bytes) -> Result<(), MpiError> {
    let req = isend_raw(comm, dst, tag, data).await?;
    wait_raw(req).await.map(|_| ())
}

/// Blocking send that is exempt from the revoked-communicator check
/// (ULFM recovery traffic, e.g. shrink).
pub(crate) async fn send_system(
    comm: CommId,
    dst: usize,
    tag: u32,
    data: Bytes,
) -> Result<(), MpiError> {
    let req = isend_ex(comm, dst, tag, data, true).await?;
    wait_raw(req).await.map(|_| ())
}

/// Blocking receive that is exempt from the revoked-communicator check.
pub(crate) async fn recv_system(comm: CommId, src: usize, tag: u32) -> Result<RecvOut, MpiError> {
    let req = irecv_ex(comm, Some(src), Some(tag), true)?;
    match wait_raw(req).await? {
        Some(out) => Ok(out),
        None => Err(MpiError::Invalid("receive completed without payload")),
    }
}

/// Blocking receive (`MPI_Recv`): post and wait.
pub async fn recv_raw(
    comm: CommId,
    src: Option<usize>,
    tag: Option<u32>,
) -> Result<RecvOut, MpiError> {
    let req = irecv_raw(comm, src, tag)?;
    match wait_raw(req).await? {
        Some(out) => Ok(out),
        None => Err(MpiError::Invalid("receive completed without payload")),
    }
}
