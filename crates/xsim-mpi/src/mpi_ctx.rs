//! The application-facing MPI context.
//!
//! [`MpiCtx`] is the handle a simulated application uses for everything:
//! MPI operations (with per-communicator error-handler semantics),
//! compute phases (charged through the processor model), simulated file
//! I/O, virtual time, and failure injection hooks. It corresponds to the
//! MPI + simulator-internal API surface a native application sees under
//! xSim's PMPI interposition (paper §IV-A).
//!
//! The operations a rank spends its run in are `fn`s returning an
//! `async move` block rather than `async fn`s, so the rank future holds
//! one copy of their arguments, not two; the rooted collectives return
//! their poll-state machine, wrapped in a `Traced` tail.
#![allow(clippy::manual_async_fn)]

use crate::abort::initiate_abort_here;
use crate::collective::{self, ReduceOp};
use crate::comm::{split_groups, Comm};
use crate::error::{ErrHandler, MpiError};
use crate::p2p;
use crate::request::{RecvOut, ReqId};
use crate::state::{CollAlgo, MpiService};
use crate::ulfm;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{ready, Context, Poll};
use xsim_core::vp::{VpExit, VpFuture, VpProgram};
use xsim_core::{ctx, Bytes, Rank, SimTime};
use xsim_obs::service as obs;
use xsim_obs::{ObsSpan, PhaseKind};
use xsim_proc::Work;

/// Handle to the simulated MPI world for one application process.
#[derive(Debug, Clone, Copy)]
pub struct MpiCtx {
    /// This process's world rank.
    pub rank: usize,
    /// World size.
    pub size: usize,
    /// Whether tracing is enabled for this run.
    pub traced: bool,
}

impl MpiCtx {
    /// Attach to the current VP (callable only while it executes).
    pub(crate) fn attach() -> Self {
        ctx::with_kernel(|k, me| {
            let svc = k.service::<MpiService>();
            MpiCtx {
                rank: me.idx(),
                size: svc.world.n_ranks,
                traced: obs::tracing(k),
            }
        })
    }

    #[inline]
    fn t0(&self) -> Option<SimTime> {
        self.traced.then(ctx::now)
    }

    #[inline]
    fn rec(kind: PhaseKind, t0: Option<SimTime>, peer: Option<Rank>, bytes: u64) {
        if let Some(start) = t0 {
            ctx::with_kernel(|k, rank| {
                let end = k.vp(rank).clock();
                obs::span(
                    k,
                    ObsSpan {
                        rank,
                        kind,
                        start,
                        end,
                        peer,
                        bytes,
                    },
                );
            });
        }
    }

    /// `MPI_COMM_WORLD`.
    pub fn world(&self) -> Comm {
        Comm::WORLD
    }

    /// My rank within a communicator.
    pub fn comm_rank(&self, comm: Comm) -> Result<usize, MpiError> {
        ctx::with_kernel(|k, me| {
            let svc = k.service::<MpiService>();
            svc.view(me, comm.id)
                .map(|v| v.my_rank)
                .ok_or(MpiError::Invalid("unknown communicator"))
        })
    }

    /// Size of a communicator.
    pub fn comm_size(&self, comm: Comm) -> Result<usize, MpiError> {
        ctx::with_kernel(|k, me| {
            let svc = k.service::<MpiService>();
            svc.view(me, comm.id)
                .map(|v| v.size())
                .ok_or(MpiError::Invalid("unknown communicator"))
        })
    }

    /// Current virtual time (simulated `MPI_Wtime`/`gettimeofday`).
    pub fn now(&self) -> SimTime {
        ctx::now()
    }

    /// Run a compute phase: charges the processor model's virtual time
    /// for `work` on this rank's node. The clock update at the end is a
    /// failure/abort activation point (paper §IV-B).
    pub fn compute(&self, work: Work) -> impl Future<Output = ()> + '_ {
        async move {
            let t0 = self.t0();
            let d = ctx::with_kernel(|k, me| {
                let svc = k.service::<MpiService>();
                let d = svc.world.proc.virtual_time(me, work);
                if let Some(power) = k.try_service_mut::<crate::state::PowerService>() {
                    power.add_busy(me, d);
                }
                d
            });
            if d > SimTime::ZERO {
                ctx::sleep(d).await;
            }
            Self::rec(PhaseKind::Compute, t0, None, 0);
        }
    }

    /// Advance virtual time without modeling work (testing/debug).
    pub fn sleep(&self, d: SimTime) -> impl Future<Output = ()> + Send {
        ctx::sleep(d)
    }

    // ------------------------------------------------------------------
    // Error-handler plumbing
    // ------------------------------------------------------------------

    fn apply<T>(r: Result<T, MpiError>) -> Result<T, MpiError> {
        match r {
            Ok(v) => Ok(v),
            Err(e) if e.is_fatal() => Err(e),
            Err(e) => {
                // Every communicator uses the run's handler; an error on
                // one the rank does not know goes there too, as MPI sends
                // errors without a valid communicator to MPI_COMM_WORLD's.
                let handler = ctx::with_kernel(|k, _| {
                    k.service::<MpiService>().world.default_errhandler.clone()
                });
                match handler {
                    ErrHandler::Fatal => Err(initiate_abort_here()),
                    ErrHandler::Return => Err(e),
                    ErrHandler::Custom(f) => {
                        f(&e);
                        Err(e)
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Blocking send (`MPI_Send`).
    pub fn send(
        &self,
        comm: Comm,
        dst: usize,
        tag: u32,
        data: Bytes,
    ) -> impl Future<Output = Result<(), MpiError>> + '_ {
        async move {
            let t0 = self.t0();
            let bytes = data.len() as u64;
            let r = p2p::send_raw(comm.id, dst, tag, data).await;
            Self::rec(PhaseKind::Send, t0, Some(Rank(dst as u32)), bytes);
            Self::apply(r)
        }
    }

    /// Blocking receive (`MPI_Recv`). `src`/`tag` `None` = wildcard.
    pub fn recv(
        &self,
        comm: Comm,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> impl Future<Output = Result<RecvOut, MpiError>> + '_ {
        async move {
            let t0 = self.t0();
            let r = p2p::recv_raw(comm.id, src, tag).await;
            let (peer, bytes) = match &r {
                Ok(out) => (Some(out.src), out.data.len() as u64),
                Err(_) => (src.map(|s| Rank(s as u32)), 0),
            };
            Self::rec(PhaseKind::Recv, t0, peer, bytes);
            Self::apply(r)
        }
    }

    /// Nonblocking send (`MPI_Isend`).
    pub fn isend(
        &self,
        comm: Comm,
        dst: usize,
        tag: u32,
        data: Bytes,
    ) -> impl Future<Output = Result<ReqId, MpiError>> + '_ {
        async move {
            let r = p2p::isend_raw(comm.id, dst, tag, data).await;
            Self::apply(r)
        }
    }

    /// Nonblocking receive (`MPI_Irecv`).
    pub fn irecv(
        &self,
        comm: Comm,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Result<ReqId, MpiError> {
        let r = p2p::irecv_raw(comm.id, src, tag);
        Self::apply(r)
    }

    /// Wait for a request (`MPI_Wait`); returns the payload for receives.
    pub fn wait(&self, req: ReqId) -> impl Future<Output = Result<Option<RecvOut>, MpiError>> + '_ {
        async move {
            let t0 = self.t0();
            let r = p2p::wait_raw(req).await;
            Self::rec(PhaseKind::Wait, t0, None, 0);
            Self::apply(r)
        }
    }

    /// Wait for all requests (`MPI_Waitall`).
    pub fn waitall<'s, 'd>(
        &'s self,
        reqs: &'d [ReqId],
    ) -> impl Future<Output = Result<Vec<Option<RecvOut>>, MpiError>> + use<'s, 'd> {
        async move {
            let t0 = self.t0();
            let r = p2p::waitall_raw(reqs).await;
            Self::rec(PhaseKind::Wait, t0, None, 0);
            Self::apply(r)
        }
    }

    /// Wait for any request (`MPI_Waitany`).
    pub fn waitany<'s, 'd>(
        &'s self,
        reqs: &'d [ReqId],
    ) -> impl Future<Output = Result<(usize, Option<RecvOut>), MpiError>> + use<'s, 'd> {
        async move {
            let (i, r) = p2p::waitany_raw(reqs).await;
            Self::apply(r).map(|v| (i, v))
        }
    }

    /// Combined send+receive (`MPI_Sendrecv`) — deadlock-free symmetric
    /// exchange.
    pub async fn sendrecv(
        &self,
        comm: Comm,
        dst: usize,
        send_tag: u32,
        data: Bytes,
        src: Option<usize>,
        recv_tag: Option<u32>,
    ) -> Result<RecvOut, MpiError> {
        let t0 = self.t0();
        let bytes = data.len() as u64;
        let r = p2p::sendrecv_raw(comm.id, dst, send_tag, data, src, recv_tag).await;
        Self::rec(PhaseKind::Send, t0, Some(Rank(dst as u32)), bytes);
        Self::apply(r)
    }

    /// Blocking probe (`MPI_Probe`): wait for a matching message and
    /// report `(source world rank, tag, payload size)` without receiving
    /// it.
    pub async fn probe(
        &self,
        comm: Comm,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Result<(Rank, u32, usize), MpiError> {
        let r = p2p::probe_raw(comm.id, src, tag).await;
        Self::apply(r)
    }

    /// Nonblocking probe (`MPI_Iprobe`).
    pub fn iprobe(
        &self,
        comm: Comm,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Result<Option<(Rank, u32, usize)>, MpiError> {
        let r = p2p::iprobe_raw(comm.id, src, tag);
        Self::apply(r)
    }

    /// Release a request that will never be waited on
    /// (`MPI_Request_free`) — the fire-and-forget `isend` idiom. A
    /// completed request leaves this rank's request table at once; a
    /// pending one when it completes (until then a peer failure still
    /// completes it with an error, exactly as if it were held). Virtual
    /// time, events and results are the same as for a dropped handle;
    /// only the host memory differs.
    pub fn request_free(&self, req: ReqId) -> Result<(), MpiError> {
        let r = p2p::request_free_raw(req);
        Self::apply(r)
    }

    /// Nonblocking completion test (`MPI_Test`).
    pub fn test(&self, req: ReqId) -> Result<Option<Option<RecvOut>>, MpiError> {
        match p2p::test_raw(req) {
            None => Ok(None),
            Some(r) => Self::apply(r).map(Some),
        }
    }

    // ------------------------------------------------------------------
    // Collectives. `SimBuilder::collectives` selects the algorithms; the
    // default is `CollAlgo::Tree` (binomial trees, ring allgather). The
    // paper's simulated system uses the linear ones (§V-C), so the
    // paper-fidelity benchmarks pin `CollAlgo::Linear`.
    // ------------------------------------------------------------------

    /// Barrier (`MPI_Barrier`) using the configured algorithm: a
    /// binomial-tree reduce and release by default, the linear gather
    /// and release when the run pins [`CollAlgo::Linear`] (the paper's
    /// §V-C configuration).
    pub fn barrier(&self, comm: Comm) -> impl Future<Output = Result<(), MpiError>> + '_ {
        async move {
            let t0 = self.t0();
            let r = match collective::configured_algo() {
                CollAlgo::Linear => collective::barrier(comm.id).await,
                CollAlgo::Tree => collective::barrier_tree(comm.id).await,
            };
            Self::rec(PhaseKind::Collective, t0, None, 0);
            Self::apply(r)
        }
    }

    /// Broadcast (`MPI_Bcast`) using the configured algorithm.
    pub fn bcast(
        &self,
        comm: Comm,
        root: usize,
        data: Bytes,
    ) -> impl Future<Output = Result<Bytes, MpiError>> + '_ {
        let (peer, bytes) = (Some(Rank(root as u32)), data.len() as u64);
        Traced::new(collective::broadcast(None, comm.id, root, data)).spanned(
            self.traced,
            peer,
            bytes,
        )
    }

    /// Gather to root (`MPI_Gather`, linear).
    pub async fn gather(
        &self,
        comm: Comm,
        root: usize,
        data: Bytes,
    ) -> Result<Option<Vec<Bytes>>, MpiError> {
        let r = collective::gather(comm.id, root, data).await;
        Self::apply(r)
    }

    /// Scatter from root (`MPI_Scatter`, linear).
    pub async fn scatter(
        &self,
        comm: Comm,
        root: usize,
        parts: Option<Vec<Bytes>>,
    ) -> Result<Bytes, MpiError> {
        let r = collective::scatter(comm.id, root, parts).await;
        Self::apply(r)
    }

    /// Allgather (`MPI_Allgather`) using the configured algorithm:
    /// linear gather + bcast, or the ring schedule under
    /// [`CollAlgo::Tree`](crate::state::CollAlgo).
    pub async fn allgather(&self, comm: Comm, data: Bytes) -> Result<Vec<Bytes>, MpiError> {
        let r = match collective::configured_algo() {
            CollAlgo::Linear => collective::allgather(comm.id, data).await,
            CollAlgo::Tree => collective::allgather_ring(comm.id, data).await,
        };
        Self::apply(r)
    }

    /// All-to-all personalized exchange (`MPI_Alltoall`).
    pub async fn alltoall(&self, comm: Comm, parts: Vec<Bytes>) -> Result<Vec<Bytes>, MpiError> {
        let r = collective::alltoall(comm.id, parts).await;
        Self::apply(r)
    }

    /// Elementwise allreduce of `f64` vectors (`MPI_Allreduce`) using
    /// the configured algorithm.
    pub fn allreduce_f64<'s, 'd>(
        &'s self,
        comm: Comm,
        data: &'d [f64],
        op: ReduceOp,
    ) -> impl Future<Output = Result<Vec<f64>, MpiError>> + use<'s, 'd> {
        let bytes = (data.len() * 8) as u64;
        Traced::new(collective::allreduce(None, comm.id, data, op)).spanned(
            self.traced,
            None,
            bytes,
        )
    }

    /// Elementwise allreduce of `u64` vectors using the configured
    /// algorithm.
    pub fn allreduce_u64<'s, 'd>(
        &'s self,
        comm: Comm,
        data: &'d [u64],
        op: ReduceOp,
    ) -> impl Future<Output = Result<Vec<u64>, MpiError>> + use<'s, 'd> {
        Traced::new(collective::allreduce(None, comm.id, data, op))
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Duplicate a communicator (`MPI_Comm_dup`). Collective: every
    /// member must call it in the same order.
    pub fn comm_dup(&self, comm: Comm) -> Result<Comm, MpiError> {
        ctx::with_kernel(|k, me| {
            let svc = k.service_mut::<MpiService>();
            let members = p2p::entry_checks(svc, me, comm.id)?.members.clone();
            let id = svc.rank_mut(me).comms_mut().install(members, me);
            Ok(Comm { id })
        })
    }

    /// Split a communicator (`MPI_Comm_split`). Members with the same
    /// `color` form a new communicator ordered by `(key, parent rank)`;
    /// `color = None` (MPI_UNDEFINED) yields `Ok(None)`.
    pub async fn comm_split(
        &self,
        comm: Comm,
        color: Option<u32>,
        key: i64,
    ) -> Result<Option<Comm>, MpiError> {
        // Exchange (color, key) among members via allgather.
        let mut enc = Vec::with_capacity(13);
        enc.push(color.is_some() as u8);
        enc.extend_from_slice(&color.unwrap_or(0).to_le_bytes());
        enc.extend_from_slice(&key.to_le_bytes());
        let entries = self.allgather(comm, enc.into()).await?;

        let members = ctx::with_kernel(|k, me| {
            let svc = k.service::<MpiService>();
            let view = svc
                .view(me, comm.id)
                .ok_or(MpiError::Invalid("unknown communicator"))?;
            Ok::<_, MpiError>(view.members.clone())
        })?;

        let mut parsed: Vec<(Rank, Option<u32>, i64)> = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            if e.len() != 13 {
                return Err(MpiError::Invalid("corrupt split payload"));
            }
            let has = e[0] != 0;
            let c = u32::from_le_bytes(e[1..5].try_into().expect("4 bytes"));
            let k = i64::from_le_bytes(e[5..13].try_into().expect("8 bytes"));
            parsed.push((members[i], has.then_some(c), k));
        }
        let groups = split_groups(&parsed);
        let mine = color.and_then(|c| groups.iter().find(|(gc, _)| *gc == c).cloned());

        ctx::with_kernel(|k, me| {
            let comms = k.service_mut::<MpiService>().rank_mut(me).comms_mut();
            match mine {
                Some((_, group)) => {
                    let id = comms.install(Arc::new(group), me);
                    Ok(Some(Comm { id }))
                }
                None => {
                    comms.skip_id();
                    Ok(None)
                }
            }
        })
    }

    // ------------------------------------------------------------------
    // ULFM (paper §VI future work (3))
    // ------------------------------------------------------------------

    /// Revoke a communicator (`MPI_Comm_revoke`).
    pub fn comm_revoke(&self, comm: Comm) -> Result<(), MpiError> {
        ulfm::comm_revoke(comm.id)
    }

    /// Shrink a communicator to its survivors (`MPI_Comm_shrink`).
    pub async fn comm_shrink(&self, comm: Comm) -> Result<Comm, MpiError> {
        ulfm::comm_shrink(comm.id).await
    }

    /// Acknowledge locally known failures (`MPI_Comm_failure_ack`).
    pub fn failure_ack(&self) -> Result<(), MpiError> {
        ulfm::failure_ack()
    }

    /// Acknowledged failures (`MPI_Comm_failure_get_acked`).
    pub fn failure_get_acked(&self) -> Vec<Rank> {
        ulfm::failure_get_acked()
    }

    /// This rank's known-failed list (simulator-internal view).
    pub fn known_failures(&self) -> Vec<(Rank, SimTime)> {
        ulfm::known_failures()
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Mark a clean MPI exit (`MPI_Finalize`). An application returning
    /// without having called this is treated as a process failure (one of
    /// the paper's injection methods, §IV-B).
    pub fn finalize(&self) {
        ctx::with_kernel(|k, me| {
            let svc = k.service_mut::<MpiService>();
            svc.rank_mut(me).finalized = true;
        });
    }

    /// `MPI_Abort`: broadcast an abort and return the error to propagate
    /// out of the application.
    pub fn abort(&self) -> MpiError {
        initiate_abort_here()
    }

    /// Inject an immediate process failure into this process (simulator-
    /// internal function, paper §IV-B). Never returns.
    pub async fn fail_now(&self) -> ! {
        ctx::fail_now().await
    }
}

/// When a [`Traced`] collective's span started.
enum Span {
    /// Not recorded.
    Off,
    /// Recorded from the first poll, which has not come yet.
    Armed,
    /// Recorded from this virtual time.
    Since(SimTime),
}

/// A collective machine and `MpiCtx`'s tail: the span recorded and the
/// error handler applied when it resolves. Polls the machine directly,
/// so the rank future holds one state machine, not three nested ones.
struct Traced<F> {
    coll: F,
    span: Span,
    peer: Option<Rank>,
    bytes: u64,
}

impl<F> Traced<F> {
    /// `coll` with the error-handler tail only.
    fn new(coll: F) -> Self {
        Traced {
            coll,
            span: Span::Off,
            peer: None,
            bytes: 0,
        }
    }

    /// Also record the call's phase span, from its first poll, when the
    /// run is traced.
    fn spanned(self, traced: bool, peer: Option<Rank>, bytes: u64) -> Self {
        Traced {
            span: if traced { Span::Armed } else { Span::Off },
            peer,
            bytes,
            ..self
        }
    }
}

impl<F, T> Future for Traced<F>
where
    F: Future<Output = Result<T, MpiError>> + Unpin,
{
    type Output = Result<T, MpiError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Span::Armed = this.span {
            this.span = Span::Since(ctx::now());
        }
        let r = ready!(Pin::new(&mut this.coll).poll(cx));
        if let Span::Since(t0) = this.span {
            MpiCtx::rec(PhaseKind::Collective, Some(t0), this.peer, this.bytes);
        }
        Poll::Ready(MpiCtx::apply(r))
    }
}

/// One shard's handle on the application closure every shard shares.
struct AppHandle<F>(Arc<F>);

struct MpiProgram<F> {
    /// A rank future clones and drops only this outer `Arc`, and each
    /// shard of a parallel run gets its own (`shard_handle`), so that
    /// traffic stays on the owning worker.
    f: Arc<AppHandle<F>>,
}

impl<F, Fut> VpProgram for MpiProgram<F>
where
    F: Fn(MpiCtx) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = Result<(), MpiError>> + Send + 'static,
{
    fn spawn(&self, _rank: Rank) -> VpFuture {
        let f = self.f.clone();
        Box::pin(async move {
            let mctx = MpiCtx::attach();
            let result = (f.0)(mctx).await;
            let finalized = ctx::with_kernel(|k, me| {
                let svc = k.service::<MpiService>();
                svc.rank(me).finalized
            });
            match result {
                Ok(()) if finalized => VpExit::Finished,
                // "returning from main() or calling exit() without having
                // called MPI_Finalize()" injects a process failure
                // (paper §IV-B).
                Ok(()) => VpExit::Failed,
                Err(e) if e.is_fatal() => VpExit::Aborted,
                Err(_) => VpExit::Failed,
            }
        })
    }

    fn shard_handle(&self) -> Option<Arc<dyn VpProgram>> {
        Some(Arc::new(MpiProgram {
            f: Arc::new(AppHandle(Arc::clone(&self.f.0))),
        }))
    }
}

/// Wrap an async application function into a [`VpProgram`]. The function
/// runs once per simulated rank.
pub fn mpi_program<F, Fut>(f: F) -> Arc<dyn VpProgram>
where
    F: Fn(MpiCtx) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = Result<(), MpiError>> + Send + 'static,
{
    Arc::new(MpiProgram {
        f: Arc::new(AppHandle(Arc::new(f))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimBuilder;
    use std::any::Any;
    use std::sync::{Mutex, OnceLock, Weak};
    use xsim_core::{CoreConfig, EngineKind, SimTime};

    /// A rank future clones no handle every worker shares: seen from
    /// inside the application closure, the closure's strong count is
    /// the count at run start plus one per shard handle, for every rank,
    /// not one more per live rank.
    #[test]
    fn a_rank_future_shares_no_refcount_across_workers() {
        const N: usize = 64;
        for (workers, engine) in [(1, EngineKind::Sequential), (2, EngineKind::Parallel)] {
            let me: Arc<OnceLock<Weak<dyn Any + Send + Sync>>> = Arc::default();
            let seen = Arc::new(Mutex::new(Vec::new()));
            let app = {
                let (me, seen) = (me.clone(), seen.clone());
                move |mpi: MpiCtx| {
                    let count = me.get().expect("probe set").strong_count();
                    seen.lock().unwrap().push(count);
                    async move {
                        // Alive while the other ranks spawn.
                        mpi.sleep(SimTime::from_micros(1)).await;
                        mpi.finalize();
                        Ok(())
                    }
                }
            };
            let app = Arc::new(app);
            let weak: Weak<dyn Any + Send + Sync> = Arc::downgrade(&app) as _;
            me.set(weak).expect("probe set once");
            let at_start = Arc::strong_count(&app);
            let program: Arc<dyn VpProgram> = Arc::new(MpiProgram {
                f: Arc::new(AppHandle(app)),
            });
            let core = CoreConfig {
                n_ranks: N,
                workers,
                engine,
                ..Default::default()
            };
            let shard_handles = if core.use_parallel() {
                core.n_shards()
            } else {
                0
            };
            SimBuilder::new(N)
                .workers(workers)
                .engine(engine)
                .run(program)
                .expect("probe run");
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), N);
            assert!(
                seen.iter().all(|&c| c == at_start + shard_handles),
                "workers={workers}: strong counts {seen:?}, want {} each",
                at_start + shard_handles
            );
        }
    }
}
