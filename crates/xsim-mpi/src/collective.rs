//! Collective operations.
//!
//! The paper's simulated system configures **linear algorithms** for MPI
//! collectives (§V-C): the root communicates with every other member one
//! by one. Binomial-tree variants are provided as well, as the ablation
//! axis DESIGN.md §4.3 calls out.
//!
//! All collectives are built on the simulated point-to-point layer, so
//! they inherit its failure-detection semantics — this is what produces
//! the paper's observation that "a failure during the checkpoint phase is
//! detected in the following barrier" (§V-D).
//!
//! The rooted collectives — broadcast, reduce, allreduce and the tree
//! barrier — are one hand-written poll-state machine, `Rooted`, over
//! one `Shape`: a rank parked in a collective holds its arguments, one
//! accumulator and the one operation in flight, not a stack of nested
//! async states. The rest (linear barrier, gather, scatter, allgather,
//! alltoall) are `fn`s returning an `async move` block, not `async fn`s:
//! the block's captures are the only copy of the arguments in the rank
//! future (an `async fn` keeps a second).
#![allow(clippy::manual_async_fn)]

use crate::comm::CommId;
use crate::error::MpiError;
use crate::p2p::{self, WaitReq};
use crate::request::ReqId;
use crate::state::{CollAlgo, MpiService};
use std::future::{poll_fn, Future};
use std::mem;
use std::ops::ControlFlow;
use std::pin::Pin;
use std::task::{ready, Context, Poll};
use xsim_core::{ctx, Bytes};
use xsim_obs::ids as metric_ids;
use xsim_obs::service as obs;

/// Account payload movement on the collective message path: `clones`
/// cheap reference-count bumps (fan-outs sharing one buffer) and
/// `copied` bytes physically copied host-side (packing). Both counts are
/// program-order deterministic, so they are part of the `to_json(None)`
/// snapshot.
fn note_payload(clones: u64, copied: u64) {
    ctx::with_kernel(|k, _| {
        if obs::enabled(k) {
            if clones > 0 {
                obs::record(k, metric_ids::MPI_PAYLOAD_CLONES, clones);
            }
            if copied > 0 {
                obs::record(k, metric_ids::MPI_PAYLOAD_COPY_BYTES, copied);
            }
        }
    });
}

/// Tag space reserved for collective-internal messages; user tags must
/// stay below this value.
pub const COLL_TAG_BASE: u32 = 1 << 30;

/// Reduction operators for the typed reduce/allreduce helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Elementwise product.
    Prod,
}

impl ReduceOp {
    fn fold_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Prod => a * b,
        }
    }

    fn fold_u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Prod => a.wrapping_mul(b),
        }
    }
}

/// The collective algorithms this run is configured with.
pub(crate) fn configured_algo() -> CollAlgo {
    ctx::with_kernel(|k, _| k.service::<MpiService>().world.coll_algo)
}

/// `(my communicator rank, communicator size, next collective tag)`.
fn coll_begin(comm: CommId) -> Result<(usize, usize, u32), MpiError> {
    coll_begin_counted(comm, true)
}

/// `count = false` is for the release phase of the tree barrier: it
/// takes a fresh tag but does not count an extra user-facing operation.
fn coll_begin_counted(comm: CommId, count: bool) -> Result<(usize, usize, u32), MpiError> {
    ctx::with_kernel(|k, me| {
        let svc = k.service_mut::<MpiService>();
        let view = p2p::entry_checks(svc, me, comm)?;
        let (my_rank, size) = (view.my_rank, view.size());
        svc.stats.collectives += u64::from(count);
        let seq = svc.rank_mut(me).next_coll_seq(comm).expect("checked");
        let tag = COLL_TAG_BASE + (seq as u32 & (COLL_TAG_BASE - 1));
        Ok((my_rank, size, tag))
    })
}

/// Where a member sits in a rooted collective: the members it receives
/// from (its children, in fold order) and the one it sends to (its
/// parent). Broadcasts run the shape top-down, reductions bottom-up.
///
/// * Linear: the root's children are every other member in rank order.
/// * Tree: a binomial tree over virtual ranks (the root is virtual rank
///   0); a node's children differ from it in one bit below its lowest
///   set bit, in increasing bit order, and its parent clears that bit.
///
/// Communicator ranks fit a `u32` (world ranks are [`xsim_core::Rank`]s),
/// so the shape is 16 bytes of a parked rank's state.
#[derive(Debug, Clone, Copy)]
struct Shape {
    algo: CollAlgo,
    /// This member's rank relative to the root: `(me − root) mod size`.
    vrank: u32,
    root: u32,
    size: u32,
}

impl Shape {
    fn new(algo: CollAlgo, me: usize, root: usize, size: usize) -> Self {
        Shape {
            algo,
            vrank: ((me + size - root) % size) as u32,
            root: root as u32,
            size: size as u32,
        }
    }

    /// Before `coll_begin`: only the algorithm and the root are known. A
    /// root beyond `u32` saturates, so the range check sees it.
    fn unplaced(algo: CollAlgo, root: usize) -> Self {
        Shape {
            algo,
            vrank: 0,
            root: u32::try_from(root).unwrap_or(u32::MAX),
            size: 0,
        }
    }

    /// The children, in fold order.
    fn children(self) -> impl Iterator<Item = usize> {
        (0..).map_while(move |i| self.child(i))
    }

    fn child(self, i: usize) -> Option<usize> {
        let (vrank, root, size) = self.widths();
        match self.algo {
            CollAlgo::Linear => {
                let r = if i < root { i } else { i + 1 };
                (vrank == 0 && r < size).then_some(r)
            }
            CollAlgo::Tree => {
                let bit = 1usize.checked_shl(i as u32)?;
                if bit >= lowbit(vrank, size) {
                    return None;
                }
                // Below the lowest set bit, `vrank | bit` is `vrank + bit`.
                let v = vrank + bit;
                (v < size).then(|| (v + root) % size)
            }
        }
    }

    fn parent(self) -> Option<usize> {
        let (v, root, size) = self.widths();
        let parent_v = match self.algo {
            CollAlgo::Linear => 0,
            CollAlgo::Tree => v & v.wrapping_sub(1),
        };
        (v != 0).then(|| (parent_v + root) % size)
    }

    /// `(vrank, root, size)` as `usize`s.
    fn widths(self) -> (usize, usize, usize) {
        (self.vrank as usize, self.root as usize, self.size as usize)
    }
}

/// The lowest set bit of `vrank`; the tree root (0) gets the next power
/// of two ≥ `size`, so every other member is one of its descendants.
fn lowbit(vrank: usize, size: usize) -> usize {
    if vrank == 0 {
        size.next_power_of_two()
    } else {
        vrank & vrank.wrapping_neg()
    }
}

/// Linear barrier: gather-to-root of empty messages, then a linear
/// release fan-out.
pub(crate) fn barrier(comm: CommId) -> impl Future<Output = Result<(), MpiError>> {
    async move {
        let (me, size, tag) = coll_begin(comm)?;
        if size <= 1 {
            return Ok(());
        }
        if me == 0 {
            let mut reqs = Vec::with_capacity(size - 1);
            for r in 1..size {
                reqs.push(p2p::irecv_raw(comm, Some(r), Some(tag))?);
            }
            p2p::waitall_raw(&reqs).await?;
            for r in 1..size {
                p2p::send_raw(comm, r, tag, Bytes::new()).await?;
            }
        } else {
            p2p::send_raw(comm, 0, tag, Bytes::new()).await?;
            p2p::recv_raw(comm, Some(0), Some(tag)).await?;
        }
        Ok(())
    }
}

/// Linear broadcast from `root`: the root sends to every other member in
/// rank order; members receive. Returns the broadcast payload on every
/// member (the root passes it in; others pass anything).
pub fn bcast(
    comm: CommId,
    root: usize,
    data: Bytes,
) -> impl Future<Output = Result<Bytes, MpiError>> + Unpin {
    broadcast(Some(CollAlgo::Linear), comm, root, data)
}

/// Linear gather to `root`: returns `Some(parts)` (in communicator rank
/// order) at the root, `None` elsewhere.
pub(crate) fn gather(
    comm: CommId,
    root: usize,
    data: Bytes,
) -> impl Future<Output = Result<Option<Vec<Bytes>>, MpiError>> {
    async move {
        let (me, size, tag) = coll_begin(comm)?;
        if me == root {
            let mut parts: Vec<Bytes> = vec![Bytes::new(); size];
            let mut reqs = Vec::with_capacity(size - 1);
            let mut idxs = Vec::with_capacity(size - 1);
            for r in 0..size {
                if r != root {
                    reqs.push(p2p::irecv_raw(comm, Some(r), Some(tag))?);
                    idxs.push(r);
                }
            }
            parts[root] = data; // the root's own contribution moves in
            let outs = p2p::waitall_raw(&reqs).await?;
            for (i, out) in idxs.into_iter().zip(outs) {
                parts[i] = out.expect("gather receives carry payloads").data;
            }
            Ok(Some(parts))
        } else {
            p2p::send_raw(comm, root, tag, data).await?;
            Ok(None)
        }
    }
}

/// Linear scatter from `root`: the root provides one payload per member
/// (in communicator rank order) and each member receives its own.
pub(crate) fn scatter(
    comm: CommId,
    root: usize,
    parts: Option<Vec<Bytes>>,
) -> impl Future<Output = Result<Bytes, MpiError>> {
    async move {
        let (me, size, tag) = coll_begin(comm)?;
        if me == root {
            let mut parts = parts.ok_or(MpiError::Invalid("scatter root must provide parts"))?;
            if parts.len() != size {
                return Err(MpiError::Invalid("scatter parts must match comm size"));
            }
            note_payload(size as u64 - 1, 0);
            for (r, part) in parts.iter().enumerate() {
                if r != root {
                    p2p::send_raw(comm, r, tag, part.clone()).await?;
                }
            }
            // The root's own part moves out — no residual clone.
            Ok(parts.swap_remove(root))
        } else {
            Ok(p2p::recv_raw(comm, Some(root), Some(tag)).await?.data)
        }
    }
}

/// Allgather: linear gather to rank 0, then broadcast of the packed
/// parts. Returns the parts in communicator rank order everywhere.
pub(crate) fn allgather(
    comm: CommId,
    data: Bytes,
) -> impl Future<Output = Result<Vec<Bytes>, MpiError>> {
    async move {
        let gathered = gather(comm, 0, data).await?;
        let packed = match gathered {
            Some(parts) => {
                let packed = encode_multi(&parts);
                note_payload(0, packed.len() as u64); // pack = the one real copy
                packed
            }
            None => Bytes::new(),
        };
        let packed = bcast(comm, 0, packed).await?;
        decode_multi(&packed).ok_or(MpiError::Invalid("corrupt allgather payload"))
    }
}

/// All-to-all personalized exchange: member `i` sends `parts[j]` to
/// member `j`; returns the payloads received from each member in rank
/// order.
pub(crate) fn alltoall(
    comm: CommId,
    parts: Vec<Bytes>,
) -> impl Future<Output = Result<Vec<Bytes>, MpiError>> {
    async move {
        let (me, size, tag) = coll_begin(comm)?;
        if parts.len() != size {
            return Err(MpiError::Invalid("alltoall parts must match comm size"));
        }
        let mut recv_reqs = Vec::with_capacity(size);
        for r in 0..size {
            if r != me {
                recv_reqs.push((r, p2p::irecv_raw(comm, Some(r), Some(tag))?));
            }
        }
        note_payload(size as u64, 0); // size-1 sends + the local self-part, all shared
        for (r, part) in parts.iter().enumerate() {
            if r != me {
                // Sends drain on their own: eager sends complete locally,
                // rendezvous sends complete with the matching receives.
                // Nobody waits on them, so they are freed, not left behind
                // in the request table.
                let sreq = p2p::isend_raw(comm, r, tag, part.clone()).await?;
                p2p::request_free_raw(sreq)?;
            }
        }
        let mut out: Vec<Bytes> = vec![Bytes::new(); size];
        out[me] = parts[me].clone();
        let reqs: Vec<_> = recv_reqs.iter().map(|(_, q)| *q).collect();
        let outs = p2p::waitall_raw(&reqs).await?;
        for ((r, _), o) in recv_reqs.into_iter().zip(outs) {
            out[r] = o.expect("alltoall receives carry payloads").data;
        }
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// Reductions: one fold over little-endian wire bytes
// ----------------------------------------------------------------------

/// An element the typed reductions carry: 8 bytes, little-endian on the
/// wire. Implemented for `f64` and `u64`.
pub trait Wire: Copy {
    fn from_le(lane: &[u8]) -> Self;
    fn to_le(self) -> [u8; 8];
    fn fold(op: ReduceOp, a: Self, b: Self) -> Self;
}

impl Wire for f64 {
    #[inline]
    fn from_le(lane: &[u8]) -> Self {
        f64::from_le_bytes(lane.try_into().expect("lane of 8"))
    }

    #[inline]
    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    #[inline]
    fn fold(op: ReduceOp, a: f64, b: f64) -> f64 {
        op.fold_f64(a, b)
    }
}

impl Wire for u64 {
    #[inline]
    fn from_le(lane: &[u8]) -> Self {
        u64::from_le_bytes(lane.try_into().expect("lane of 8"))
    }

    #[inline]
    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    #[inline]
    fn fold(op: ReduceOp, a: u64, b: u64) -> u64 {
        op.fold_u64(a, b)
    }
}

fn to_wire<T: Wire>(v: &[T]) -> Bytes {
    let mut buf = vec![0; v.len() * 8];
    for (lane, x) in buf.chunks_exact_mut(8).zip(v) {
        lane.copy_from_slice(&x.to_le());
    }
    buf.into()
}

fn from_wire<T: Wire>(data: &[u8]) -> Option<Vec<T>> {
    if !data.len().is_multiple_of(8) {
        return None;
    }
    Some(data.chunks_exact(8).map(T::from_le).collect())
}

/// Fold `other` into the wire bytes `acc`, lane by lane:
/// `acc ← op(other, acc)` when `other` comes first in the fold order (a
/// member's own data), else `acc ← op(acc, other)`. The operator and the
/// order are chosen once, so each loop folds with one inlined operation.
fn fold_wire<T: Wire>(
    op: ReduceOp,
    acc: &mut [u8],
    other: impl Iterator<Item = T>,
    other_first: bool,
) {
    match op {
        ReduceOp::Sum => fold_lanes(acc, other, other_first, |a, b| T::fold(ReduceOp::Sum, a, b)),
        ReduceOp::Min => fold_lanes(acc, other, other_first, |a, b| T::fold(ReduceOp::Min, a, b)),
        ReduceOp::Max => fold_lanes(acc, other, other_first, |a, b| T::fold(ReduceOp::Max, a, b)),
        ReduceOp::Prod => fold_lanes(acc, other, other_first, |a, b| {
            T::fold(ReduceOp::Prod, a, b)
        }),
    }
}

/// [`fold_wire`] for one operator `f`.
#[inline(always)]
fn fold_lanes<T: Wire>(
    acc: &mut [u8],
    other: impl Iterator<Item = T>,
    other_first: bool,
    f: impl Fn(T, T) -> T,
) {
    let lanes = acc.chunks_exact_mut(8).zip(other);
    if other_first {
        for (lane, o) in lanes {
            lane.copy_from_slice(&f(o, T::from_le(lane)).to_le());
        }
    } else {
        for (lane, o) in lanes {
            lane.copy_from_slice(&f(T::from_le(lane), o).to_le());
        }
    }
}

// ----------------------------------------------------------------------
// Rooted collectives: one poll-state machine over a `Shape`
// ----------------------------------------------------------------------

/// Which rooted collective a [`Rooted`] machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Receive the payload from the parent, send it to each child.
    Bcast,
    /// Fold the children's wire bytes into this member's and send them to
    /// the parent; the root keeps them.
    Reduce,
    /// A reduce to rank 0, then a broadcast of its bytes.
    Allreduce,
    /// The tree barrier: an empty-payload reduce that neither checks nor
    /// folds, then an uncounted broadcast.
    Barrier,
}

/// Where a [`Rooted`] machine is in its schedule.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Not polled yet, nothing posted. `configured`: the algorithm is the
    /// run's, read at the first poll.
    Begin { configured: bool },
    /// Receiving from child `cursor` and folding (reduce phase).
    Gather,
    /// Sending the folded bytes to the parent (reduce phase).
    Up,
    /// The broadcast phase's own `coll_begin` (allreduce, tree barrier).
    Release,
    /// Receiving the payload from the parent (broadcast phase).
    Down,
    /// Sending the payload to child `cursor` (broadcast phase).
    Fanout,
}

/// The one operation a [`Rooted`] machine has in flight.
enum Step {
    /// None: the phase posts the next one.
    Idle,
    /// A posted receive.
    Recv(WaitReq),
    /// A posted send's sender-side overhead.
    Overhead(ReqId, Option<ctx::Sleep>),
    /// A posted send, after its overhead.
    Send(WaitReq),
}

/// The one accumulator of a [`Rooted`] machine.
enum Acc {
    /// Reduce phase: the bytes folded so far, `None` before the first
    /// child's arrive.
    Fold(Option<Vec<u8>>),
    /// Broadcast phase: the payload.
    Payload(Bytes),
}

/// A rooted collective as one poll-state machine. It posts what the
/// composed `recv_raw` / `send_raw` futures would — every `coll_begin`,
/// post, overhead sleep and `note_payload` in the same order and at the
/// same poll — but holds only its arguments, one accumulator and one
/// [`Step`]. Like an `async fn`, it posts nothing before its first poll.
///
/// Resolves to the bytes it ends with: the payload of a broadcast, an
/// allreduce or a barrier's release (empty), and the result at the root
/// of a reduce (`None` elsewhere).
pub(crate) struct Rooted<'a, T> {
    /// This member's contribution (reductions; empty otherwise).
    data: &'a [T],
    acc: Acc,
    step: Step,
    shape: Shape,
    comm: CommId,
    tag: u32,
    /// The next child to receive from (reduce) or send to (broadcast).
    cursor: u32,
    op: ReduceOp,
    kind: Kind,
    phase: Phase,
}

impl<'a, T: Wire> Rooted<'a, T> {
    /// `algo = None`: the run's configured algorithm.
    fn new(
        kind: Kind,
        algo: Option<CollAlgo>,
        comm: CommId,
        root: usize,
        data: &'a [T],
        op: ReduceOp,
        acc: Acc,
    ) -> Self {
        Rooted {
            data,
            acc,
            step: Step::Idle,
            shape: Shape::unplaced(algo.unwrap_or(CollAlgo::Linear), root),
            comm,
            tag: 0,
            cursor: 0,
            op,
            kind,
            phase: Phase::Begin {
                configured: algo.is_none(),
            },
        }
    }

    /// Run phases until one posts an operation (`Continue`) or the
    /// collective ends (`Break` with its bytes). `got` is the payload of
    /// the receive that just completed, if one did.
    fn advance(&mut self, mut got: Option<Bytes>) -> Result<ControlFlow<Option<Bytes>>, MpiError> {
        loop {
            match self.phase {
                Phase::Begin { configured } => {
                    let (me, size, tag) = coll_begin(self.comm)?;
                    if self.shape.root as usize >= size {
                        return Err(MpiError::Invalid("root out of range"));
                    }
                    let algo = if configured {
                        configured_algo()
                    } else {
                        self.shape.algo
                    };
                    self.shape = Shape::new(algo, me, self.shape.root as usize, size);
                    self.tag = tag;
                    if size <= 1 && matches!(self.kind, Kind::Bcast | Kind::Barrier) {
                        return Ok(ControlFlow::Break(self.finish()));
                    }
                    self.phase = match self.kind {
                        Kind::Bcast => Phase::Down,
                        _ => Phase::Gather,
                    };
                }
                Phase::Gather => {
                    if let Some(wire) = got.take() {
                        self.fold(wire)?;
                        self.cursor += 1;
                    }
                    if let Some(child) = self.shape.child(self.cursor as usize) {
                        self.recv(child)?;
                        return Ok(ControlFlow::Continue(()));
                    }
                    let wire = match mem::replace(&mut self.acc, Acc::Fold(None)) {
                        Acc::Fold(acc) => acc.map_or_else(|| to_wire(self.data), Bytes::from),
                        Acc::Payload(_) => unreachable!("the reduce phase comes first"),
                    };
                    match self.shape.parent() {
                        Some(parent) => {
                            self.phase = Phase::Up;
                            self.send(parent, wire)?;
                            return Ok(ControlFlow::Continue(()));
                        }
                        None if self.kind == Kind::Reduce => {
                            return Ok(ControlFlow::Break(Some(wire)));
                        }
                        None => self.release(wire),
                    }
                }
                Phase::Up if self.kind == Kind::Reduce => return Ok(ControlFlow::Break(None)),
                Phase::Up => self.release(Bytes::new()),
                Phase::Release => {
                    let count = self.kind == Kind::Allreduce;
                    let (_, size, tag) = coll_begin_counted(self.comm, count)?;
                    self.tag = tag;
                    if size <= 1 {
                        return Ok(ControlFlow::Break(self.finish()));
                    }
                    self.phase = Phase::Down;
                }
                Phase::Down => {
                    match got.take() {
                        Some(data) => self.acc = Acc::Payload(data),
                        None => {
                            if let Some(parent) = self.shape.parent() {
                                self.recv(parent)?;
                                return Ok(ControlFlow::Continue(()));
                            }
                        }
                    }
                    note_payload(self.shape.children().count() as u64, 0);
                    self.cursor = 0;
                    self.phase = Phase::Fanout;
                }
                Phase::Fanout => {
                    let Some(child) = self.shape.child(self.cursor as usize) else {
                        return Ok(ControlFlow::Break(self.finish()));
                    };
                    self.cursor += 1;
                    let Acc::Payload(data) = &self.acc else {
                        unreachable!("the broadcast phase holds its payload")
                    };
                    self.send(child, data.clone())?;
                    return Ok(ControlFlow::Continue(()));
                }
            }
        }
    }

    /// Fold a child's wire bytes into the accumulator, in fold order.
    /// The first child's buffer becomes the accumulator without a copy
    /// when the receive holds its only reference, so a node decodes
    /// nothing.
    fn fold(&mut self, wire: Bytes) -> Result<(), MpiError> {
        if self.kind == Kind::Barrier {
            return Ok(());
        }
        if !wire.len().is_multiple_of(8) {
            return Err(MpiError::Invalid("reduce payload size mismatch"));
        }
        if wire.len() / 8 != self.data.len() {
            return Err(MpiError::Invalid("reduce payload length mismatch"));
        }
        let (op, data) = (self.op, self.data);
        match &mut self.acc {
            Acc::Fold(Some(buf)) => fold_wire(op, buf, wire.chunks_exact(8).map(T::from_le), false),
            Acc::Fold(acc) => {
                let mut buf = wire.into_vec();
                fold_wire(op, &mut buf, data.iter().copied(), true);
                *acc = Some(buf);
            }
            Acc::Payload(_) => unreachable!("the reduce phase comes first"),
        }
        Ok(())
    }

    /// The reduce phase of an allreduce or a tree barrier is over: its
    /// bytes (the result at the root, empty elsewhere) are the payload
    /// the broadcast phase starts from.
    fn release(&mut self, payload: Bytes) {
        self.acc = Acc::Payload(payload);
        self.phase = Phase::Release;
    }

    /// The bytes a finished collective resolves to: its payload, if it
    /// got to one.
    fn finish(&mut self) -> Option<Bytes> {
        match mem::replace(&mut self.acc, Acc::Fold(None)) {
            Acc::Payload(data) => Some(data),
            Acc::Fold(_) => None,
        }
    }

    fn recv(&mut self, src: usize) -> Result<(), MpiError> {
        let req = p2p::irecv_ex(self.comm, Some(src), Some(self.tag), false)?;
        self.step = Step::Recv(WaitReq::new(req));
        Ok(())
    }

    fn send(&mut self, dst: usize, data: Bytes) -> Result<(), MpiError> {
        let (req, overhead) = p2p::post_send(self.comm, dst, self.tag, data, false)?;
        self.step = Step::Overhead(req, p2p::overhead_sleep(overhead));
        Ok(())
    }
}

impl<T: Wire> Future for Rooted<'_, T> {
    type Output = Result<Option<Bytes>, MpiError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        loop {
            let got = match &mut this.step {
                Step::Idle => None,
                Step::Recv(wait) => {
                    let out = ready!(Pin::new(wait).poll(cx))?
                        .ok_or(MpiError::Invalid("receive completed without payload"))?;
                    Some(out.data)
                }
                Step::Overhead(req, sleep) => {
                    if let Some(sleep) = sleep {
                        ready!(Pin::new(sleep).poll(cx));
                    }
                    this.step = Step::Send(WaitReq::new(*req));
                    continue;
                }
                Step::Send(wait) => {
                    ready!(Pin::new(wait).poll(cx))?;
                    None
                }
            };
            this.step = Step::Idle;
            if let ControlFlow::Break(out) = this.advance(got)? {
                return Poll::Ready(Ok(out));
            }
        }
    }
}

/// Broadcast from `root` over `algo`'s shape (`None`: the run's):
/// receive from the parent, then send to each child in order. Returns
/// the payload on every member (the root passes it in; others pass
/// anything).
pub(crate) fn broadcast(
    algo: Option<CollAlgo>,
    comm: CommId,
    root: usize,
    data: Bytes,
) -> impl Future<Output = Result<Bytes, MpiError>> + Unpin {
    let payload = Acc::Payload(data);
    let mut coll = Rooted::<u64>::new(Kind::Bcast, algo, comm, root, &[], ReduceOp::Sum, payload);
    poll_fn(move |cx| {
        Pin::new(&mut coll)
            .poll(cx)
            .map_ok(|out| out.expect("a broadcast ends with its payload"))
    })
}

/// Elementwise reduce to `root` over `algo` (`None`: the run's):
/// `Some(result)` at the root.
///
/// The fold order is the member's own data, then its children in
/// `Shape` order, so the `f64` result is deterministic for a given
/// communicator regardless of arrival order — each receive blocks on its
/// specific `(source, tag)` pair.
pub fn reduce<T: Wire>(
    algo: Option<CollAlgo>,
    comm: CommId,
    root: usize,
    data: &[T],
    op: ReduceOp,
) -> impl Future<Output = Result<Option<Vec<T>>, MpiError>> + Unpin + '_ {
    let mut coll = Rooted::new(Kind::Reduce, algo, comm, root, data, op, Acc::Fold(None));
    poll_fn(move |cx| {
        Pin::new(&mut coll)
            .poll(cx)
            .map_ok(|wire| wire.map(|w| from_wire(&w).expect("whole elements")))
    })
}

/// Elementwise allreduce over `algo` (`None`: the run's): reduce to rank
/// 0, whose wire bytes are the broadcast payload, and decode once at the
/// end.
pub fn allreduce<T: Wire>(
    algo: Option<CollAlgo>,
    comm: CommId,
    data: &[T],
    op: ReduceOp,
) -> impl Future<Output = Result<Vec<T>, MpiError>> + Unpin + '_ {
    let mut coll = Rooted::new(Kind::Allreduce, algo, comm, 0, data, op, Acc::Fold(None));
    poll_fn(move |cx| {
        Pin::new(&mut coll).poll(cx).map(|r| {
            let wire = r?.expect("an allreduce ends with its payload");
            from_wire(&wire).ok_or(MpiError::Invalid("corrupt allreduce payload"))
        })
    })
}

// ----------------------------------------------------------------------
// Binomial-tree variants (ablation: linear vs. tree algorithms)
// ----------------------------------------------------------------------

/// Binomial-tree barrier: tree-reduce of empty messages followed by a
/// tree broadcast with a fresh tag. The broadcast is internal to the
/// barrier, so it does not count as a second collective (a tree barrier
/// must tally like a linear one).
pub(crate) fn barrier_tree(comm: CommId) -> impl Future<Output = Result<(), MpiError>> + Unpin {
    let none = Acc::Fold(None);
    let mut coll = Rooted::<u64>::new(
        Kind::Barrier,
        Some(CollAlgo::Tree),
        comm,
        0,
        &[],
        ReduceOp::Sum,
        none,
    );
    poll_fn(move |cx| Pin::new(&mut coll).poll(cx).map_ok(|_| ()))
}

/// Ring allgather: P−1 rounds; in round `s` every member forwards the
/// block it received in round `s−1` to its right neighbour and receives
/// a new block from its left neighbour. No packing — every block travels
/// as a shared-buffer clone, and unlike the gather+bcast composition no
/// rank ever holds the O(P·bytes) packed payload.
///
/// Receives match FIFO by sequence number per `(source, tag)`, so
/// reusing one tag across all rounds cannot mis-order blocks.
pub(crate) fn allgather_ring(
    comm: CommId,
    data: Bytes,
) -> impl Future<Output = Result<Vec<Bytes>, MpiError>> {
    async move {
        let (me, size, tag) = coll_begin(comm)?;
        let mut parts: Vec<Bytes> = vec![Bytes::new(); size];
        parts[me] = data;
        if size <= 1 {
            return Ok(parts);
        }
        let right = (me + 1) % size;
        let left = (me + size - 1) % size;
        note_payload(size as u64 - 1, 0);
        for step in 0..size - 1 {
            let send_idx = (me + size - step) % size;
            let recv_idx = (me + size - step - 1) % size;
            // The send drains on its own (eager locally, rendezvous with
            // the neighbour's matching receive) and is freed — same
            // pattern as `alltoall`.
            let sreq = p2p::isend_raw(comm, right, tag, parts[send_idx].clone()).await?;
            p2p::request_free_raw(sreq)?;
            parts[recv_idx] = p2p::recv_raw(comm, Some(left), Some(tag)).await?.data;
        }
        Ok(parts)
    }
}

// ----------------------------------------------------------------------
// Schedule arithmetic (shared by the implementations and the tests)
// ----------------------------------------------------------------------

/// Number of children of virtual rank `vrank` in a binomial tree over
/// `size` members rooted at virtual rank 0.
pub fn tree_children(vrank: usize, size: usize) -> usize {
    Shape::new(CollAlgo::Tree, vrank, 0, size)
        .children()
        .count()
}

// ----------------------------------------------------------------------
// Payload packing helpers
// ----------------------------------------------------------------------

/// Pack multiple byte strings into one (length-prefixed).
pub(crate) fn encode_multi(parts: &[Bytes]) -> Bytes {
    let total: usize = 4 + parts.iter().map(|p| 4 + p.len()).sum::<usize>();
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for p in parts {
        buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
        buf.extend_from_slice(p);
    }
    buf.into()
}

/// Unpack a [`encode_multi`] payload. Returns `None` on malformed input.
/// The returned parts are zero-copy sub-slices sharing the packed
/// buffer's allocation.
pub(crate) fn decode_multi(data: &Bytes) -> Option<Vec<Bytes>> {
    if data.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(data[0..4].try_into().ok()?) as usize;
    let mut out = Vec::with_capacity(n);
    let mut off = 4;
    for _ in 0..n {
        if data.len() < off + 4 {
            return None;
        }
        let len = u32::from_le_bytes(data[off..off + 4].try_into().ok()?) as usize;
        off += 4;
        if data.len() < off + len {
            return None;
        }
        out.push(data.slice(off..off + len));
        off += len;
    }
    (off == data.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_round_trip() {
        let parts = vec![
            Bytes::from_static(b"alpha"),
            Bytes::new(),
            Bytes::from_static(b"z"),
        ];
        let packed = encode_multi(&parts);
        assert_eq!(decode_multi(&packed).unwrap(), parts);
    }

    #[test]
    fn multi_rejects_malformed() {
        assert!(decode_multi(&Bytes::new()).is_none());
        assert!(decode_multi(&Bytes::from(vec![9, 0, 0, 0])).is_none());
        let packed = encode_multi(&[Bytes::from_static(b"xy")]);
        assert!(decode_multi(&packed.slice(0..packed.len() - 1)).is_none());
        // Trailing garbage is also rejected.
        let mut longer = packed.to_vec();
        longer.push(0);
        assert!(decode_multi(&Bytes::from(longer)).is_none());
    }

    #[test]
    fn f64_round_trip() {
        let v = vec![1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(from_wire::<f64>(&to_wire(&v)).unwrap(), v);
        assert!(from_wire::<f64>(&[1, 2, 3]).is_none());
    }

    #[test]
    fn u64_round_trip() {
        let v = vec![0, 1, u64::MAX];
        assert_eq!(from_wire::<u64>(&to_wire(&v)).unwrap(), v);
        assert!(from_wire::<u64>(&[1]).is_none());
    }

    #[test]
    fn tree_schedules_are_logarithmic() {
        // The deepest member of the tree is at most ⌈log₂ P⌉ parent
        // hops from the root, exactly that at powers of two: the whole
        // reduce drains in O(log P) rounds.
        for &size in &[2usize, 3, 5, 8, 17, 64, 1000, 4096] {
            let depth = |mut v: usize| {
                let mut d = 0;
                while let Some(p) = Shape::new(CollAlgo::Tree, v, 0, size).parent() {
                    (v, d) = (p, d + 1);
                }
                d
            };
            let max_depth = (0..size).map(depth).max().unwrap();
            let rounds = usize::BITS - (size - 1).leading_zeros();
            assert!(
                max_depth <= rounds,
                "size {size}: depth {max_depth} > {rounds}"
            );
            if size.is_power_of_two() {
                assert_eq!(max_depth, rounds, "size {size}");
            }
        }

        // The child lists tile the membership: every non-root member is
        // the child of exactly one parent.
        for &size in &[2usize, 3, 7, 8, 33, 100] {
            let total: usize = (0..size).map(|v| tree_children(v, size)).sum();
            assert_eq!(total, size - 1, "size {size}");
        }
    }

    #[test]
    fn shapes_match_the_bit_loops_they_replace() {
        // The schedules the linear and binomial collectives were written
        // as: the children and parent of `me` for a given root.
        fn linear(me: usize, root: usize, size: usize) -> (Vec<usize>, Option<usize>) {
            if me == root {
                ((0..size).filter(|&r| r != root).collect(), None)
            } else {
                (Vec::new(), Some(root))
            }
        }
        fn tree(me: usize, root: usize, size: usize) -> (Vec<usize>, Option<usize>) {
            let vrank = (me + size - root) % size;
            let mut children = Vec::new();
            let mut bit = 1;
            while bit < lowbit(vrank, size) && bit < size {
                let child_v = vrank | bit;
                if child_v < size {
                    children.push((child_v + root) % size);
                }
                bit <<= 1;
            }
            let parent = (vrank != 0).then(|| ((vrank & (vrank - 1)) + root) % size);
            (children, parent)
        }
        for size in [1usize, 2, 3, 5, 7, 12, 33, 64, 100] {
            for root in [0, size / 2, size - 1] {
                for me in 0..size {
                    for (algo, want) in [
                        (CollAlgo::Linear, linear(me, root, size)),
                        (CollAlgo::Tree, tree(me, root, size)),
                    ] {
                        let shape = Shape::new(algo, me, root, size);
                        let got = (shape.children().collect::<Vec<_>>(), shape.parent());
                        assert_eq!(got, want, "{algo:?} size {size} root {root} me {me}");
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_op_folds() {
        assert_eq!(ReduceOp::Sum.fold_f64(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Min.fold_f64(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.fold_f64(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Prod.fold_f64(2.0, 3.0), 6.0);
        assert_eq!(ReduceOp::Sum.fold_u64(u64::MAX, 1), 0, "wrapping");
    }

    #[test]
    fn wire_fold_puts_the_own_data_first() {
        let own = [1e16, 1.0];
        let mut acc = to_wire(&[1.0, -1e16]).to_vec();
        fold_wire(ReduceOp::Sum, &mut acc, own.iter().copied(), true);
        let next = to_wire(&[-1e16, 1e16]);
        fold_wire(
            ReduceOp::Sum,
            &mut acc,
            next.chunks_exact(8).map(f64::from_le),
            false,
        );
        let want = [(1e16 + 1.0) + -1e16, (1.0 + -1e16) + 1e16];
        assert_eq!(from_wire::<f64>(&acc).unwrap(), want);
    }
}
