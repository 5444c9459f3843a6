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
//! Each collective is a `fn` returning an `async move` block, not an
//! `async fn`: the block's captures are the only copy of the arguments
//! in the rank future (an `async fn` keeps a second).
#![allow(clippy::manual_async_fn)]

use crate::comm::CommId;
use crate::error::MpiError;
use crate::p2p;
use crate::state::{CollAlgo, MpiService};
use std::future::Future;
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

/// `(my communicator rank, communicator size, next collective tag)`.
fn coll_begin(comm: CommId) -> Result<(usize, usize, u32), MpiError> {
    coll_begin_counted(comm, true)
}

/// `count = false` is for the inner phase of a composite collective (the
/// tree barrier's release broadcast): it takes a fresh tag but does not
/// count an extra user-facing operation.
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
#[derive(Debug, Clone, Copy)]
struct Shape {
    algo: CollAlgo,
    /// This member's rank relative to the root: `(me − root) mod size`.
    vrank: usize,
    root: usize,
    size: usize,
}

impl Shape {
    fn new(algo: CollAlgo, me: usize, root: usize, size: usize) -> Self {
        Shape {
            algo,
            vrank: (me + size - root) % size,
            root,
            size,
        }
    }

    /// The children, in fold order.
    fn children(self) -> impl Iterator<Item = usize> {
        (0..).map_while(move |i| self.child(i))
    }

    fn child(self, i: usize) -> Option<usize> {
        match self.algo {
            CollAlgo::Linear => {
                let r = if i < self.root { i } else { i + 1 };
                (self.vrank == 0 && r < self.size).then_some(r)
            }
            CollAlgo::Tree => {
                let bit = 1usize.checked_shl(i as u32)?;
                if bit >= lowbit(self.vrank, self.size) {
                    return None;
                }
                // Below the lowest set bit, `vrank | bit` is `vrank + bit`.
                let v = self.vrank + bit;
                (v < self.size).then(|| (v + self.root) % self.size)
            }
        }
    }

    fn parent(self) -> Option<usize> {
        let v = self.vrank;
        let parent_v = match self.algo {
            CollAlgo::Linear => 0,
            CollAlgo::Tree => v & v.wrapping_sub(1),
        };
        (v != 0).then(|| (parent_v + self.root) % self.size)
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
pub fn barrier(comm: CommId) -> impl Future<Output = Result<(), MpiError>> {
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

/// Broadcast from `root` over `algo`'s shape: receive from the parent,
/// then send to each child in order. Returns the payload on every
/// member (the root passes it in; others pass anything). `count` as in
/// [`coll_begin_counted`].
pub(crate) fn broadcast(
    algo: CollAlgo,
    comm: CommId,
    root: usize,
    mut data: Bytes,
    count: bool,
) -> impl Future<Output = Result<Bytes, MpiError>> {
    async move {
        let (me, size, tag) = coll_begin_counted(comm, count)?;
        if size <= 1 {
            return Ok(data);
        }
        let shape = Shape::new(algo, me, root, size);
        if let Some(parent) = shape.parent() {
            data = p2p::recv_raw(comm, Some(parent), Some(tag)).await?.data;
        }
        note_payload(shape.children().count() as u64, 0);
        for child in shape.children() {
            p2p::send_raw(comm, child, tag, data.clone()).await?;
        }
        Ok(data)
    }
}

/// Linear broadcast from `root`: the root sends to every other member in
/// rank order; members receive. Returns the broadcast payload on every
/// member (the root passes it in; others pass anything).
pub fn bcast(
    comm: CommId,
    root: usize,
    data: Bytes,
) -> impl Future<Output = Result<Bytes, MpiError>> {
    broadcast(CollAlgo::Linear, comm, root, data, true)
}

/// Linear gather to `root`: returns `Some(parts)` (in communicator rank
/// order) at the root, `None` elsewhere.
pub fn gather(
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
pub fn scatter(
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
pub fn allgather(comm: CommId, data: Bytes) -> impl Future<Output = Result<Vec<Bytes>, MpiError>> {
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
pub fn alltoall(
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
/// wire.
pub(crate) trait Wire: Copy {
    fn from_le(chunk: &[u8]) -> Self;
    fn to_le(self) -> [u8; 8];
    fn fold(op: ReduceOp, a: Self, b: Self) -> Self;
}

impl Wire for f64 {
    fn from_le(chunk: &[u8]) -> Self {
        f64::from_le_bytes(chunk.try_into().expect("chunk of 8"))
    }

    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    fn fold(op: ReduceOp, a: f64, b: f64) -> f64 {
        op.fold_f64(a, b)
    }
}

impl Wire for u64 {
    fn from_le(chunk: &[u8]) -> Self {
        u64::from_le_bytes(chunk.try_into().expect("chunk of 8"))
    }

    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    fn fold(op: ReduceOp, a: u64, b: u64) -> u64 {
        op.fold_u64(a, b)
    }
}

fn to_wire<T: Wire>(v: &[T]) -> Bytes {
    let mut buf = Vec::with_capacity(v.len() * 8);
    for x in v {
        buf.extend_from_slice(&x.to_le());
    }
    buf.into()
}

fn from_wire<T: Wire>(data: &[u8]) -> Option<Vec<T>> {
    if !data.len().is_multiple_of(8) {
        return None;
    }
    Some(data.chunks_exact(8).map(T::from_le).collect())
}

/// Fold `other` into the wire bytes `acc`, element by element:
/// `acc ← op(other, acc)` when `other` comes first in the fold order (a
/// member's own data), else `acc ← op(acc, other)`.
fn fold_wire<T: Wire>(
    op: ReduceOp,
    acc: &mut [u8],
    other: impl Iterator<Item = T>,
    other_first: bool,
) {
    for (a, o) in acc.chunks_exact_mut(8).zip(other) {
        let x = T::from_le(a);
        let r = if other_first {
            T::fold(op, o, x)
        } else {
            T::fold(op, x, o)
        };
        a.copy_from_slice(&r.to_le());
    }
}

/// The one reduction, over `algo`'s shape: fold the children's wire
/// bytes, in order, into the bytes this member sends on, and return them
/// at the root (`None` elsewhere).
///
/// The fold order is the member's own data, then its children in
/// [`Shape`] order, so the `f64` result is deterministic for a given
/// communicator regardless of arrival order — each receive blocks on its
/// specific `(source, tag)` pair. The first child's buffer becomes the
/// accumulator without a copy when the receive holds its only reference,
/// and the others fold into it in place: a node decodes nothing.
fn reduce_wire<T: Wire>(
    algo: CollAlgo,
    comm: CommId,
    root: usize,
    data: &[T],
    op: ReduceOp,
) -> impl Future<Output = Result<Option<Bytes>, MpiError>> + '_ {
    async move {
        let (me, size, tag) = coll_begin(comm)?;
        let shape = Shape::new(algo, me, root, size);
        let mut acc: Option<Vec<u8>> = None;
        for child in shape.children() {
            let wire = p2p::recv_raw(comm, Some(child), Some(tag)).await?.data;
            if !wire.len().is_multiple_of(8) {
                return Err(MpiError::Invalid("reduce payload size mismatch"));
            }
            if wire.len() / 8 != data.len() {
                return Err(MpiError::Invalid("reduce payload length mismatch"));
            }
            match &mut acc {
                None => {
                    let mut buf = wire.into_vec();
                    fold_wire(op, &mut buf, data.iter().copied(), true);
                    acc = Some(buf);
                }
                Some(buf) => fold_wire(op, buf, wire.chunks_exact(8).map(T::from_le), false),
            }
        }
        let wire = acc.map_or_else(|| to_wire(data), Bytes::from);
        match shape.parent() {
            Some(parent) => {
                p2p::send_raw(comm, parent, tag, wire).await?;
                Ok(None)
            }
            None => Ok(Some(wire)),
        }
    }
}

/// Elementwise reduce to `root` over `algo`: `Some(result)` at the root.
pub(crate) fn reduce<T: Wire>(
    algo: CollAlgo,
    comm: CommId,
    root: usize,
    data: &[T],
    op: ReduceOp,
) -> impl Future<Output = Result<Option<Vec<T>>, MpiError>> + '_ {
    async move {
        let wire = reduce_wire(algo, comm, root, data, op).await?;
        Ok(wire.map(|w| from_wire(&w).expect("whole elements")))
    }
}

/// Elementwise allreduce over `algo`: reduce to rank 0, whose wire bytes
/// are the broadcast payload, and decode once at the end.
pub(crate) fn allreduce<T: Wire>(
    algo: CollAlgo,
    comm: CommId,
    data: &[T],
    op: ReduceOp,
) -> impl Future<Output = Result<Vec<T>, MpiError>> + '_ {
    async move {
        let wire = reduce_wire(algo, comm, 0, data, op).await?;
        let wire = broadcast(algo, comm, 0, wire.unwrap_or_default(), true).await?;
        from_wire(&wire).ok_or(MpiError::Invalid("corrupt allreduce payload"))
    }
}

/// Linear reduce of `f64` vectors to `root` (elementwise, in rank
/// order). Returns `Some(result)` at the root.
pub fn reduce_f64<'a>(
    comm: CommId,
    root: usize,
    data: &'a [f64],
    op: ReduceOp,
) -> impl Future<Output = Result<Option<Vec<f64>>, MpiError>> + 'a {
    reduce(CollAlgo::Linear, comm, root, data, op)
}

/// Allreduce of `f64` vectors: linear reduce to rank 0, then broadcast.
pub fn allreduce_f64(
    comm: CommId,
    data: &[f64],
    op: ReduceOp,
) -> impl Future<Output = Result<Vec<f64>, MpiError>> + '_ {
    allreduce(CollAlgo::Linear, comm, data, op)
}

/// Linear reduce of `u64` vectors to `root` (elementwise).
pub fn reduce_u64<'a>(
    comm: CommId,
    root: usize,
    data: &'a [u64],
    op: ReduceOp,
) -> impl Future<Output = Result<Option<Vec<u64>>, MpiError>> + 'a {
    reduce(CollAlgo::Linear, comm, root, data, op)
}

/// Allreduce of `u64` vectors.
pub fn allreduce_u64(
    comm: CommId,
    data: &[u64],
    op: ReduceOp,
) -> impl Future<Output = Result<Vec<u64>, MpiError>> + '_ {
    allreduce(CollAlgo::Linear, comm, data, op)
}

// ----------------------------------------------------------------------
// Binomial-tree variants (ablation: linear vs. tree algorithms)
// ----------------------------------------------------------------------

/// Binomial-tree broadcast from `root`. O(log P) rounds instead of the
/// linear algorithm's O(P) serialized sends at the root.
pub fn bcast_tree(
    comm: CommId,
    root: usize,
    data: Bytes,
) -> impl Future<Output = Result<Bytes, MpiError>> {
    broadcast(CollAlgo::Tree, comm, root, data, true)
}

/// Binomial-tree barrier: tree-reduce of empty messages followed by a
/// tree broadcast.
pub fn barrier_tree(comm: CommId) -> impl Future<Output = Result<(), MpiError>> {
    async move {
        let (me, size, tag) = coll_begin(comm)?;
        if size <= 1 {
            return Ok(());
        }
        // Reduce phase (children → parent).
        let shape = Shape::new(CollAlgo::Tree, me, 0, size);
        for child in shape.children() {
            p2p::recv_raw(comm, Some(child), Some(tag)).await?;
        }
        if let Some(parent) = shape.parent() {
            p2p::send_raw(comm, parent, tag, Bytes::new()).await?;
        }
        // Release phase with a fresh tag. The phase is internal to this
        // barrier, so it does not count as a second collective (a tree
        // barrier must tally like a linear one).
        broadcast(CollAlgo::Tree, comm, 0, Bytes::new(), false).await?;
        Ok(())
    }
}

/// Binomial-tree reduce of `f64` vectors to `root`. O(log P) rounds; the
/// combine order at every node is fixed (own data, then children in
/// increasing bit order).
pub fn reduce_f64_tree<'a>(
    comm: CommId,
    root: usize,
    data: &'a [f64],
    op: ReduceOp,
) -> impl Future<Output = Result<Option<Vec<f64>>, MpiError>> + 'a {
    reduce(CollAlgo::Tree, comm, root, data, op)
}

/// Binomial-tree reduce of `u64` vectors to `root`.
pub fn reduce_u64_tree<'a>(
    comm: CommId,
    root: usize,
    data: &'a [u64],
    op: ReduceOp,
) -> impl Future<Output = Result<Option<Vec<u64>>, MpiError>> + 'a {
    reduce(CollAlgo::Tree, comm, root, data, op)
}

/// Tree allreduce of `f64` vectors: binomial reduce to rank 0, then
/// binomial broadcast. 2·⌈log₂ P⌉ rounds.
pub fn allreduce_f64_tree(
    comm: CommId,
    data: &[f64],
    op: ReduceOp,
) -> impl Future<Output = Result<Vec<f64>, MpiError>> + '_ {
    allreduce(CollAlgo::Tree, comm, data, op)
}

/// Tree allreduce of `u64` vectors.
pub fn allreduce_u64_tree(
    comm: CommId,
    data: &[u64],
    op: ReduceOp,
) -> impl Future<Output = Result<Vec<u64>, MpiError>> + '_ {
    allreduce(CollAlgo::Tree, comm, data, op)
}

/// Ring allgather: P−1 rounds; in round `s` every member forwards the
/// block it received in round `s−1` to its right neighbour and receives
/// a new block from its left neighbour. No packing — every block travels
/// as a shared-buffer clone, and unlike the gather+bcast composition no
/// rank ever holds the O(P·bytes) packed payload.
///
/// Receives match FIFO by sequence number per `(source, tag)`, so
/// reusing one tag across all rounds cannot mis-order blocks.
pub fn allgather_ring(
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

/// Depth of virtual rank `vrank` in the binomial tree (rounds before its
/// data can reach the root): the number of set bits, because each hop to
/// the parent clears exactly the lowest one.
pub fn tree_depth(vrank: usize) -> u32 {
    vrank.count_ones()
}

/// Communication rounds for a binomial-tree collective over `size`
/// members: ⌈log₂ size⌉.
pub fn tree_rounds(size: usize) -> u32 {
    if size <= 1 {
        0
    } else {
        usize::BITS - (size - 1).leading_zeros()
    }
}

/// Rounds for a linear root fan-out: P−1 serialized messages.
pub fn linear_rounds(size: usize) -> u32 {
    size.saturating_sub(1) as u32
}

/// Rounds for the ring allgather: P−1, each moving one block per member.
pub fn ring_rounds(size: usize) -> u32 {
    size.saturating_sub(1) as u32
}

// ----------------------------------------------------------------------
// Payload packing helpers
// ----------------------------------------------------------------------

/// Pack multiple byte strings into one (length-prefixed).
pub fn encode_multi(parts: &[Bytes]) -> Bytes {
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
pub fn decode_multi(data: &Bytes) -> Option<Vec<Bytes>> {
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

/// Serialize an `f64` slice (little-endian).
pub fn f64_to_bytes(v: &[f64]) -> Bytes {
    to_wire(v)
}

/// Deserialize an `f64` slice; `None` if the length is not a multiple of 8.
pub fn bytes_to_f64(data: &[u8]) -> Option<Vec<f64>> {
    from_wire(data)
}

/// Serialize a `u64` slice (little-endian).
pub fn u64_to_bytes(v: &[u64]) -> Bytes {
    to_wire(v)
}

/// Deserialize a `u64` slice; `None` if the length is not a multiple of 8.
pub fn bytes_to_u64(data: &[u8]) -> Option<Vec<u64>> {
    from_wire(data)
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
        assert_eq!(bytes_to_f64(&f64_to_bytes(&v)).unwrap(), v);
        assert!(bytes_to_f64(&[1, 2, 3]).is_none());
    }

    #[test]
    fn u64_round_trip() {
        let v = vec![0, 1, u64::MAX];
        assert_eq!(bytes_to_u64(&u64_to_bytes(&v)).unwrap(), v);
        assert!(bytes_to_u64(&[1]).is_none());
    }

    #[test]
    fn tree_schedules_are_logarithmic() {
        for exp in 1..=14u32 {
            let size = 1usize << exp;
            // O(log P): the binomial tree finishes in exactly log2(P)
            // rounds at powers of two, vs. P-1 for the linear fan-out.
            assert_eq!(tree_rounds(size), exp);
            assert_eq!(linear_rounds(size), size as u32 - 1);
            assert_eq!(ring_rounds(size), size as u32 - 1);
        }
        // Non-powers of two round up.
        assert_eq!(tree_rounds(1), 0);
        assert_eq!(tree_rounds(3), 2);
        assert_eq!(tree_rounds(5), 3);
        assert_eq!(tree_rounds(1000), 10);

        // Structural check: the deepest member of the tree is exactly
        // tree_rounds levels from the root, and every member's depth is
        // bounded by it — the whole reduce drains in O(log P) rounds.
        for &size in &[2usize, 3, 5, 8, 17, 64, 1000, 4096] {
            let max_depth = (0..size).map(tree_depth).max().unwrap();
            assert!(
                max_depth <= tree_rounds(size),
                "size {size}: depth {max_depth} > rounds {}",
                tree_rounds(size)
            );
            if size.is_power_of_two() {
                assert_eq!(max_depth, tree_rounds(size), "size {size}");
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
        let mut acc = f64_to_bytes(&[1.0, -1e16]).to_vec();
        fold_wire(ReduceOp::Sum, &mut acc, own.iter().copied(), true);
        let next = f64_to_bytes(&[-1e16, 1e16]);
        fold_wire(
            ReduceOp::Sum,
            &mut acc,
            next.chunks_exact(8).map(f64::from_le),
            false,
        );
        let want = [(1e16 + 1.0) + -1e16, (1.0 + -1e16) + 1e16];
        assert_eq!(bytes_to_f64(&acc).unwrap(), want);
    }
}
