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

use crate::comm::{CommId, CommView};
use crate::error::MpiError;
use crate::msg::{Envelope, SrcSel, TagSel};
use crate::request::{RecvOut, ReqId, ReqKind, ReqResult};
use crate::state::{
    escalate_unreachable, schedule_request_failure, MpiService, RankMpi, TxOutcome,
};
use std::future::{poll_fn, Future};
use std::mem;
use std::pin::Pin;
use std::task::{ready, Context, Poll};
use xsim_core::event::{Action, Call};
use xsim_core::vp::{VpState, WaitClass};
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

/// Common operation entry checks at `me`: abort observed (`aborted`,
/// the core's `VpRef::abort_at` of `me`)? communicator known and
/// (unless exempted, as for ULFM shrink traffic) not revoked? Returns
/// the rank's view of the communicator.
pub(crate) fn entry_checks_ex(
    svc: &MpiService,
    aborted: Option<SimTime>,
    me: Rank,
    comm: CommId,
    allow_revoked: bool,
) -> Result<CommView<'_>, MpiError> {
    if let Some(t) = aborted {
        return Err(MpiError::Aborted { time: t });
    }
    let view = svc
        .view(me, comm)
        .ok_or(MpiError::Invalid("unknown communicator"))?;
    if !allow_revoked && view.revoked.is_some() {
        return Err(MpiError::Revoked);
    }
    Ok(view)
}

/// Entry checks with the standard revoke semantics.
pub(crate) fn entry_checks(
    svc: &MpiService,
    aborted: Option<SimTime>,
    me: Rank,
    comm: CommId,
) -> Result<CommView<'_>, MpiError> {
    entry_checks_ex(svc, aborted, me, comm, false)
}

// ----------------------------------------------------------------------
// The awaitables a rank parks in. Each is a small poll-state machine
// rather than an `async fn`, whose state would keep its arguments next to
// every future nested inside it: this state *is* a simulated rank's
// stack. Like an `async fn`, none posts anything before its first poll.
// ----------------------------------------------------------------------

/// What a send posts on its first poll.
struct SendArgs {
    comm: CommId,
    dst: usize,
    tag: u32,
    data: Bytes,
    /// Exempt from the revoked-communicator check (ULFM recovery).
    allow_revoked: bool,
    /// Wait for the request after the overhead (`MPI_Send`) instead of
    /// returning it (`MPI_Isend`).
    blocking: bool,
}

/// A send: post, sleep the sender-side overhead, and (blocking sends)
/// wait for the request.
enum SendFuture {
    Start(SendArgs),
    /// Posted; the sender-side overhead, if any, elapses.
    Overhead {
        req: ReqId,
        sleep: Option<ctx::Sleep>,
        blocking: bool,
    },
    Wait(WaitReq),
    Done,
}

impl Future for SendFuture {
    type Output = Result<ReqId, MpiError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        loop {
            match this {
                SendFuture::Start(_) => {
                    let SendFuture::Start(args) = mem::replace(this, SendFuture::Done) else {
                        unreachable!()
                    };
                    let SendArgs {
                        comm,
                        dst,
                        tag,
                        data,
                        allow_revoked,
                        blocking,
                    } = args;
                    let (req, overhead) = post_send(comm, dst, tag, data, allow_revoked)?;
                    *this = SendFuture::Overhead {
                        req,
                        sleep: overhead_sleep(overhead),
                        blocking,
                    };
                }
                SendFuture::Overhead {
                    req,
                    sleep,
                    blocking,
                } => {
                    if let Some(sleep) = sleep {
                        ready!(Pin::new(sleep).poll(cx));
                    }
                    let req = *req;
                    if !*blocking {
                        *this = SendFuture::Done;
                        return Poll::Ready(Ok(req));
                    }
                    *this = SendFuture::Wait(WaitReq::new(req));
                }
                SendFuture::Wait(wait) => {
                    let req = wait.req;
                    ready!(Pin::new(wait).poll(cx))?;
                    *this = SendFuture::Done;
                    return Poll::Ready(Ok(req));
                }
                SendFuture::Done => panic!("send polled after completion"),
            }
        }
    }
}

/// The sleep a posted send's sender-side overhead costs; none when it is
/// zero.
pub(crate) fn overhead_sleep(overhead: SimTime) -> Option<ctx::Sleep> {
    (overhead > SimTime::ZERO).then(|| ctx::sleep(overhead))
}

/// A blocking send (`MPI_Send`): post, sleep the overhead, wait.
fn blocking_send(args: SendArgs) -> impl Future<Output = Result<(), MpiError>> + Send {
    let mut send = SendFuture::Start(args);
    poll_fn(move |cx| Pin::new(&mut send).poll(cx).map_ok(|_| ()))
}

/// Post a nonblocking send of `data` to communicator rank `dst` with
/// `tag`. Charges the sender-side software overhead.
pub fn isend_raw(
    comm: CommId,
    dst: usize,
    tag: u32,
    data: Bytes,
) -> impl Future<Output = Result<ReqId, MpiError>> + Send {
    isend_ex(comm, dst, tag, data, false)
}

/// Like [`isend_raw`] but optionally exempt from the revoked-communicator
/// check (ULFM recovery traffic must flow on revoked communicators).
pub(crate) fn isend_ex(
    comm: CommId,
    dst: usize,
    tag: u32,
    data: Bytes,
    allow_revoked: bool,
) -> impl Future<Output = Result<ReqId, MpiError>> + Send {
    SendFuture::Start(SendArgs {
        comm,
        dst,
        tag,
        data,
        allow_revoked,
        blocking: false,
    })
}

/// Post a send and return `(request, sender-side overhead)`.
pub(crate) fn post_send(
    comm: CommId,
    dst: usize,
    tag: u32,
    data: Bytes,
    allow_revoked: bool,
) -> Result<(ReqId, SimTime), MpiError> {
    ctx::with_kernel(|k, me| {
        with_mpi(k, |k, svc| {
            let vp = k.vp(me);
            let now = vp.clock();
            let dst_world = entry_checks_ex(svc, vp.abort_at(), me, comm, allow_revoked)?
                .world_rank(dst)
                .ok_or(MpiError::Invalid("destination rank out of range"))?;
            svc.stats.sends += 1;
            svc.stats.bytes_sent += data.len() as u64;
            let lossy = svc.world.lossy.is_some();
            let rm = svc.rank_mut(me);
            // Only the loss draws read the per-pair counter.
            let seq = if lossy {
                rm.next_send_seq(dst_world)
            } else {
                0
            };
            let req = rm
                .reqs
                .create(ReqKind::Send, comm, SrcSel::Of(dst_world), tag, now);
            let known_failed = rm.failed().get(dst_world);

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
                let tof = now + world.notify_delay();
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
                    match lossy.tx_outcome(k.cfg.seed, me, dst_world, seq, attempt) {
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
                let tof = t_give_up.max(now + world.notify_delay());
                escalate_unreachable(k, dst_world, tof);
                let at = world.failure_error_time(me, dst_world, now, tof);
                schedule_request_failure(k, me, req, at, dst_world, tof);
                return Ok((req, send_overhead));
            }

            let header_arrival = now + send_overhead + backoff_total + timing.latency;
            // The message is its own event: the transport box, drawn from
            // the service pool, fires as the delivery (and later the
            // receive completion), so steady-state messaging allocates
            // nothing here.
            let env = svc.env_box(Envelope {
                src: me,
                comm,
                tag,
                data,
                seq,
                header_arrival,
                payload_ready: timing.eager.then(|| header_arrival + timing.transfer),
                send_req: (!timing.eager).then_some((me, req.0)),
                dst: dst_world,
                matched: None,
            });
            k.schedule_at(header_arrival, dst_world, Action::Call(env));
            if timing.eager {
                // Eager sends complete locally once injected.
                svc.rank_mut(me)
                    .reqs
                    .complete(req, now + send_overhead, Ok(None));
            }
            Ok((req, send_overhead))
        })
    })
}

/// Post a nonblocking receive. `src`/`tag` of `None` are the
/// `MPI_ANY_SOURCE`/`MPI_ANY_TAG` wildcards; `src` is a communicator
/// rank.
pub(crate) fn irecv_raw(
    comm: CommId,
    src: Option<usize>,
    tag: Option<u32>,
) -> Result<ReqId, MpiError> {
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
            let vp = k.vp(me);
            let now = vp.clock();
            let view = entry_checks_ex(svc, vp.abort_at(), me, comm, allow_revoked)?;
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

            svc.stats.recvs += 1;
            let rm = svc.rank_mut(me);
            let req = rm
                .reqs
                .create(ReqKind::Recv, comm, src_sel, tag.unwrap_or(0), now);

            // Failure interactions (paper §IV-C).
            let failure = match src_sel {
                SrcSel::Of(s) => rm.failed().get(s).map(|tof| (s, tof)),
                // Wildcard receives fail while an unacknowledged failure
                // exists — unless a message matches first.
                SrcSel::Any => rm.failed().first_unacked(),
            };
            if let Some((dead, tof)) = failure {
                let at = svc.world.failure_error_time(me, dead, now, tof);
                schedule_request_failure(k, me, req, at, dead, tof);
                if !src_sel.is_any() {
                    return Ok(req); // never posted; cannot match
                }
            }

            let queues = &mut svc.rank_mut(me).queues;
            if let Some(env) = queues.post(req.0, comm, src_sel, tag_sel) {
                complete_match(k, svc, req, env, now);
            }
            Ok(req)
        })
    })
}

/// A message is its own event: its transport box fires at the
/// destination once as the delivery at header arrival and, once
/// matched, once more as the receive completion.
impl Call for Envelope {
    fn call(self: Box<Self>, k: &mut Kernel) {
        match self.matched {
            None => deliver(k, self),
            Some((req, at)) => complete_recv(k, self, req, at),
        }
    }
}

/// Deliver an envelope at its destination (header-arrival time).
fn deliver(k: &mut Kernel, env: Box<Envelope>) {
    let dst = env.dst;
    // "Once a simulated MPI process fails ... all messages directed to
    // this simulated MPI process are deleted" (paper §IV-B).
    if k.vp(dst).is_done() {
        return;
    }
    with_mpi(k, |k, svc| {
        let t_match = env.header_arrival;
        // An unexpected message waits in its transport box.
        match svc.rank_mut(dst).queues.deliver(env) {
            Some((req, env)) => complete_match(k, svc, ReqId(req), env, t_match),
            // Queued as unexpected: a blocked prober may be waiting for
            // exactly this arrival. Waiters on other requests treat the
            // wake as spurious and re-block.
            None => {
                let hwm = svc.rank(dst).queues.unexpected_len() as u64;
                obs::record(k, ids::MPI_UNEXPECTED_HWM, hwm);
                k.wake_if_message_blocked(dst, t_match);
            }
        }
    });
}

/// A receive matched an envelope at `t_match`: reschedule its box as
/// the completion of the receive (and, for rendezvous, schedule that of
/// the sender's request).
fn complete_match(
    k: &mut Kernel,
    svc: &mut MpiService,
    req: ReqId,
    mut env: Box<Envelope>,
    t_match: SimTime,
) {
    let dst = env.dst;
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
        svc.rank_mut(dst).drain_recv(base, recv_ov)
    } else {
        base + recv_ov
    };
    env.matched = Some((req, recv_at));
    k.schedule_at(recv_at, dst, Action::Call(env));
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

/// A matched message's receive completion: hand its payload to the
/// request, then return the box to this shard's pool. The recycle runs
/// before the engine polls the woken owner; it is host-side only, so
/// the order changes no simulated result.
fn complete_recv(k: &mut Kernel, mut env: Box<Envelope>, req: ReqId, at: SimTime) {
    let out = RecvOut {
        data: mem::take(&mut env.data),
        src: env.src,
        tag: env.tag,
    };
    finish_request(k, env.dst, req, at, Ok(Some(out)));
    k.service_mut::<MpiService>().env_recycle(env);
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

/// Check one request: `Ready` with its result (taking it out of the
/// table) once complete or when the rank has aborted, else `Pending`.
fn poll_request(k: &mut Kernel, me: Rank, req: ReqId) -> Poll<ReqResult> {
    let vp = k.vp(me);
    let now = vp.clock();
    if let Some(t) = vp.abort_at() {
        return Poll::Ready(Err(MpiError::Aborted { time: t }));
    }
    let rm = k.service_mut::<MpiService>().rank_mut(me);
    match rm.reqs.try_take(req, now) {
        Some((_, result)) => Poll::Ready(result),
        None if rm.reqs.get(req).is_none() => {
            Poll::Ready(Err(MpiError::Invalid("unknown or consumed request")))
        }
        None => Poll::Pending,
    }
}

/// Park the calling VP on a message-class wait.
fn block_on_messages(k: &mut Kernel, me: Rank, desc: &'static str) {
    k.vp_mut(me).begin_wait(WaitClass::Message, desc);
}

/// Whether the re-poll of an armed wait follows a wake. Without one
/// (the kernel never polls that way, but it is harmless) the VP stays
/// blocked.
fn woken(k: &mut Kernel, me: Rank) -> bool {
    let mut vp = k.vp_mut(me);
    let woken = vp.take_woken();
    if !woken {
        vp.set_state(VpState::Blocked);
    }
    woken
}

/// `MPI_Wait` on one request: check it and, while it is pending, park
/// on a message wait (`armed`) until a wake says to check again. Wakes
/// may be spurious (a message for another request); the check repeats.
pub(crate) struct WaitReq {
    req: ReqId,
    armed: bool,
}

impl WaitReq {
    pub(crate) fn new(req: ReqId) -> Self {
        WaitReq { req, armed: false }
    }
}

impl Future for WaitReq {
    type Output = ReqResult;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<ReqResult> {
        let this = self.get_mut();
        ctx::with_kernel(|k, me| {
            if this.armed && !woken(k, me) {
                return Poll::Pending;
            }
            let step = poll_request(k, me, this.req);
            if step.is_pending() {
                this.armed = true;
                block_on_messages(k, me, "MPI wait");
            }
            step
        })
    }
}

/// Wait for one request (`MPI_Wait`). Returns the receive payload for
/// receives, `None` for sends.
pub fn wait_raw(req: ReqId) -> impl Future<Output = ReqResult> + Send {
    WaitReq::new(req)
}

/// Nonblocking completion check (`MPI_Test`).
pub(crate) fn test_raw(req: ReqId) -> Option<ReqResult> {
    match ctx::with_kernel(|k, me| poll_request(k, me, req)) {
        Poll::Ready(r) => Some(r),
        Poll::Pending => None,
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

/// The calling rank's MPI state.
fn rank_mpi(k: &mut Kernel, me: Rank) -> &mut RankMpi {
    k.service_mut::<MpiService>().rank_mut(me)
}

/// Wait on at most this many requests and a `waitall`/`waitany` finds a
/// completed id's position by scanning the caller's slice; above it, in
/// a sorted `(request id, position)` list built once.
const SCAN_MAX: usize = 8;

/// The position in `reqs` of request `id`, through `waiting` (the
/// requests still waited on, sorted by id) when `reqs` is longer than
/// [`SCAN_MAX`].
fn position(reqs: &[ReqId], waiting: &[(u64, usize)], id: u64) -> Option<usize> {
    if reqs.len() <= SCAN_MAX {
        return reqs.iter().position(|r| r.0 == id);
    }
    let at = waiting.binary_search_by_key(&id, |(id, _)| *id).ok()?;
    Some(waiting[at].1)
}

/// Start (or stop) `me`'s completion feed.
fn watch(k: &mut Kernel, me: Rank, on: bool) {
    k.service_mut::<MpiService>().watch_completions(me, on);
}

/// `MPI_Waitall`. The first poll scans every request and, if some are
/// pending, turns on the rank's completion feed; each wake after that
/// re-checks only the requests the feed names, in completion order,
/// keeping a P-receive wait (a linear collective root) at O(P log P)
/// total instead of O(P²). The feed is pooled per shard; the result is
/// the one allocation a short wait makes.
struct WaitAll<'a> {
    reqs: &'a [ReqId],
    /// Results by position in `reqs`; `None` while pending.
    out: Vec<Option<Option<RecvOut>>>,
    /// Above [`SCAN_MAX`] requests: the pending ones, sorted by id.
    waiting: Vec<(u64, usize)>,
    remaining: usize,
    armed: bool,
}

impl WaitAll<'_> {
    fn results(&mut self) -> Vec<Option<RecvOut>> {
        mem::take(&mut self.out)
            .into_iter()
            .map(|v| v.expect("all done"))
            .collect()
    }
}

impl Future for WaitAll<'_> {
    type Output = Result<Vec<Option<RecvOut>>, MpiError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        ctx::with_kernel(|k, me| {
            if !this.armed {
                this.out = vec![None; this.reqs.len()];
                for (i, &req) in this.reqs.iter().enumerate() {
                    match poll_request(k, me, req) {
                        Poll::Ready(Ok(v)) => this.out[i] = Some(v),
                        Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                        Poll::Pending => this.remaining += 1,
                    }
                }
                if this.remaining == 0 {
                    return Poll::Ready(Ok(this.results()));
                }
                if this.reqs.len() > SCAN_MAX {
                    this.waiting.reserve_exact(this.remaining);
                    let pending = this.reqs.iter().zip(&this.out).enumerate();
                    this.waiting.extend(
                        pending
                            .filter(|(_, (_, out))| out.is_none())
                            .map(|(i, (req, _))| (req.0, i)),
                    );
                    this.waiting.sort_unstable();
                }
                watch(k, me, true);
            } else {
                if !woken(k, me) {
                    return Poll::Pending;
                }
                let mut seen = 0;
                while let Some(id) = rank_mpi(k, me).completion(seen) {
                    seen += 1;
                    let Some(i) = position(this.reqs, &this.waiting, id) else {
                        continue;
                    };
                    if this.out[i].is_some() {
                        continue;
                    }
                    match poll_request(k, me, ReqId(id)) {
                        Poll::Ready(Ok(v)) => {
                            this.out[i] = Some(v);
                            this.remaining -= 1;
                        }
                        Poll::Ready(Err(e)) => {
                            watch(k, me, false);
                            return Poll::Ready(Err(e));
                        }
                        Poll::Pending => {}
                    }
                }
                if this.remaining == 0 {
                    watch(k, me, false);
                    return Poll::Ready(Ok(this.results()));
                }
                rank_mpi(k, me).clear_completions();
            }
            this.armed = true;
            block_on_messages(k, me, "MPI waitall");
            Poll::Pending
        })
    }
}

/// Wait for all requests (`MPI_Waitall`). On error, the first failing
/// request's error (among those known complete) is returned.
pub fn waitall_raw(
    reqs: &[ReqId],
) -> impl Future<Output = Result<Vec<Option<RecvOut>>, MpiError>> + Send + '_ {
    WaitAll {
        reqs,
        out: Vec::new(),
        waiting: Vec::new(),
        remaining: 0,
        armed: false,
    }
}

/// `MPI_Waitany`: the same scan-then-feed shape as [`WaitAll`], done at
/// the first completion.
struct WaitAny<'a> {
    reqs: &'a [ReqId],
    /// Above [`SCAN_MAX`] requests: all of them, sorted by id.
    waiting: Vec<(u64, usize)>,
    armed: bool,
}

impl Future for WaitAny<'_> {
    type Output = (usize, ReqResult);

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        ctx::with_kernel(|k, me| {
            if !this.armed {
                for (i, &req) in this.reqs.iter().enumerate() {
                    if let Poll::Ready(r) = poll_request(k, me, req) {
                        return Poll::Ready((i, r));
                    }
                }
                if this.reqs.len() > SCAN_MAX {
                    let all = this.reqs.iter().enumerate();
                    this.waiting = all.map(|(i, req)| (req.0, i)).collect();
                    this.waiting.sort_unstable();
                }
                watch(k, me, true);
            } else {
                if !woken(k, me) {
                    return Poll::Pending;
                }
                let mut seen = 0;
                while let Some(id) = rank_mpi(k, me).completion(seen) {
                    seen += 1;
                    let Some(i) = position(this.reqs, &this.waiting, id) else {
                        continue;
                    };
                    if let Poll::Ready(r) = poll_request(k, me, ReqId(id)) {
                        watch(k, me, false);
                        return Poll::Ready((i, r));
                    }
                }
                rank_mpi(k, me).clear_completions();
            }
            this.armed = true;
            block_on_messages(k, me, "MPI waitany");
            Poll::Pending
        })
    }
}

/// Wait for any one of the requests (`MPI_Waitany`): returns the index
/// of the completed request and its result.
pub fn waitany_raw(reqs: &[ReqId]) -> impl Future<Output = (usize, ReqResult)> + Send + '_ {
    WaitAny {
        reqs,
        waiting: Vec::new(),
        armed: false,
    }
}

/// Nonblocking probe (`MPI_Iprobe`): report the earliest matching
/// unexpected message without consuming it, as `(source world rank,
/// tag, payload bytes)`.
pub(crate) fn iprobe_raw(
    comm: CommId,
    src: Option<usize>,
    tag: Option<u32>,
) -> Result<Option<(Rank, u32, usize)>, MpiError> {
    ctx::with_kernel(|k, me| {
        let svc = k.service::<MpiService>();
        let view = entry_checks(svc, k.vp(me).abort_at(), me, comm)?;
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
        Ok(svc.rank(me).queues.peek(comm, src_sel, tag_sel))
    })
}

/// Blocking probe (`MPI_Probe`): wait until a matching message is
/// available (or a failure releases the wait), then report it without
/// consuming it.
pub(crate) async fn probe_raw(
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
            let failed = svc.rank(me).failed();
            match src {
                Some(cr) => {
                    let s = svc.view(me, comm)?.world_rank(cr)?;
                    failed.get(s).map(|tof| MpiError::ProcFailed {
                        rank: s,
                        time_of_failure: tof,
                    })
                }
                None => failed.first_unacked().map(|(r, tof)| MpiError::ProcFailed {
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
pub(crate) async fn sendrecv_raw(
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
pub fn send_raw(
    comm: CommId,
    dst: usize,
    tag: u32,
    data: Bytes,
) -> impl Future<Output = Result<(), MpiError>> + Send {
    blocking_send(SendArgs {
        comm,
        dst,
        tag,
        data,
        allow_revoked: false,
        blocking: true,
    })
}

/// Blocking send that is exempt from the revoked-communicator check
/// (ULFM recovery traffic, e.g. shrink).
pub(crate) fn send_system(
    comm: CommId,
    dst: usize,
    tag: u32,
    data: Bytes,
) -> impl Future<Output = Result<(), MpiError>> + Send {
    blocking_send(SendArgs {
        comm,
        dst,
        tag,
        data,
        allow_revoked: true,
        blocking: true,
    })
}

/// A blocking receive: post on the first poll, then wait.
enum RecvFuture {
    Start {
        comm: CommId,
        src: Option<usize>,
        tag: Option<u32>,
        allow_revoked: bool,
    },
    Wait(WaitReq),
}

impl Future for RecvFuture {
    type Output = Result<RecvOut, MpiError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let RecvFuture::Start {
            comm,
            src,
            tag,
            allow_revoked,
        } = *this
        {
            *this = RecvFuture::Wait(WaitReq::new(irecv_ex(comm, src, tag, allow_revoked)?));
        }
        let RecvFuture::Wait(wait) = this else {
            unreachable!("posted above")
        };
        match ready!(Pin::new(wait).poll(cx))? {
            Some(out) => Poll::Ready(Ok(out)),
            None => Poll::Ready(Err(MpiError::Invalid("receive completed without payload"))),
        }
    }
}

/// Blocking receive that is exempt from the revoked-communicator check.
pub(crate) fn recv_system(
    comm: CommId,
    src: usize,
    tag: u32,
) -> impl Future<Output = Result<RecvOut, MpiError>> + Send {
    RecvFuture::Start {
        comm,
        src: Some(src),
        tag: Some(tag),
        allow_revoked: true,
    }
}

/// Blocking receive (`MPI_Recv`): post and wait.
pub fn recv_raw(
    comm: CommId,
    src: Option<usize>,
    tag: Option<u32>,
) -> impl Future<Output = Result<RecvOut, MpiError>> + Send {
    RecvFuture::Start {
        comm,
        src,
        tag,
        allow_revoked: false,
    }
}
