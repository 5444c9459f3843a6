//! The striped parallel-file-system model.
//!
//! Promotes the single-target latency model of [`crate::FsModel`] to a
//! PFS: a file's bytes are striped in fixed-size blocks round-robin
//! across `io_nodes` simulated I/O servers, each server serializes its
//! requests FCFS at its own bandwidth, and concurrent writers therefore
//! see their transfers *stretched* by queueing delay — the contention
//! the paper's free-FS Table II configuration deliberately leaves out.
//!
//! ## Determinism
//!
//! Server state (`busy_until` per I/O node) is mutated **only** from
//! events executing at the node's owner rank (`node % n_ranks`), and a
//! client's outstanding-request counter is mutated **only** from events
//! executing at the client's own rank. Both therefore inherit the
//! kernel's per-rank total event order `(time, dst, src, seq)` and the
//! model behaves identically on the sequential and parallel engines —
//! the same discipline the MPI layer uses for message delivery.
//!
//! A transfer of a file hashed to `h` proceeds as:
//!
//! 1. the client splits the bytes into per-node parts (see
//!    [`PfsModel::split`]), arms one FileIo wait and schedules an
//!    *arrival* event at each involved node's owner rank at
//!    `now + transit`;
//! 2. each arrival serves FCFS: `start = max(arrival, busy_until)`,
//!    `finish = start + request_overhead + bytes/bw`, advancing
//!    `busy_until`, and schedules a *completion* event back at the
//!    client rank at `finish + transit`;
//! 3. completion events decrement the client's rank-local counter; the
//!    one that reaches zero wakes the client, whose clock then stands at
//!    `max(finish) + transit` — the contended end-to-end latency.
//!
//! `transit` must be at least the engine lookahead (the builder derives
//! it from the interconnect's minimum latency and rejects smaller
//! values) so the cross-shard arrival/completion events always land
//! beyond the conservative window bound.

use std::sync::{Mutex, MutexGuard};
use xsim_core::event::Action;
use xsim_core::vp::{VpState, WaitClass};
use xsim_core::{ctx, Kernel, Rank, SimTime};
use xsim_obs::ids;
use xsim_obs::service as obs;

use crate::FsService;

/// Configuration of the striped PFS extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfsModel {
    /// Number of simulated I/O server nodes files are striped across.
    pub io_nodes: u32,
    /// Stripe unit: consecutive byte ranges of this size go to
    /// consecutive I/O nodes (round-robin from the file's home node).
    pub stripe_block: u64,
    /// Per-I/O-node write bandwidth, bytes/s.
    pub node_write_bw: f64,
    /// Per-I/O-node read bandwidth, bytes/s.
    pub node_read_bw: f64,
    /// Fixed service time a node charges per request before the
    /// transfer (metadata/RPC handling). This is what makes many small
    /// requests more expensive than few large ones — the effect
    /// aggregated checkpointing exploits.
    pub request_overhead: SimTime,
    /// One-way client ↔ I/O-node latency over the interconnect.
    /// `SimTime::ZERO` means "derive from the network model": the
    /// builder substitutes the interconnect's minimum link latency.
    pub transit: SimTime,
}

impl PfsModel {
    /// A representative configuration: 1 MiB stripes, 1 GB/s write and
    /// 2 GB/s read per node, 50 µs request overhead, transit derived
    /// from the network model.
    pub(crate) fn typical(io_nodes: u32) -> Self {
        PfsModel {
            io_nodes: io_nodes.max(1),
            stripe_block: 1 << 20,
            node_write_bw: 1.0e9,
            node_read_bw: 2.0e9,
            request_overhead: SimTime::from_micros(50),
            transit: SimTime::ZERO,
        }
    }

    /// The I/O node holding the first stripe block of a file whose name
    /// hashes to `hash`.
    pub(crate) fn home_node(&self, hash: u32) -> u32 {
        hash % self.io_nodes
    }

    /// Placement hash for a rank's unnamed (modeled-charge) transfers.
    ///
    /// `home_node` reduces modulo `io_nodes`, which is typically a
    /// power of two, so the hash must avalanche: a plain multiplicative
    /// hash leaves the low bits congruent to the rank's and any strided
    /// rank subset (e.g. the one-aggregator-per-group writers of
    /// aggregated checkpointing) would alias onto a single I/O node.
    pub(crate) fn placement_hash(rank: u32) -> u32 {
        // Murmur3 finalizer: full avalanche into the low bits.
        let mut h = rank.wrapping_mul(0x9E37_79B9);
        h ^= h >> 16;
        h = h.wrapping_mul(0x85EB_CA6B);
        h ^= h >> 13;
        h = h.wrapping_mul(0xC2B2_AE35);
        h ^= h >> 16;
        h
    }

    /// Split an `nbytes` transfer into per-node parts: whole stripe
    /// blocks round-robin from the home node, last block partial.
    /// Returns `(node, bytes)` pairs sorted by node id, omitting nodes
    /// that receive nothing.
    pub fn split(&self, hash: u32, nbytes: u64) -> Vec<(u32, u64)> {
        if nbytes == 0 {
            return Vec::new();
        }
        let n = self.io_nodes as u64;
        let blocks = nbytes.div_ceil(self.stripe_block);
        let full_rounds = blocks / n;
        let rem = blocks % n;
        let home = self.home_node(hash) as u64;
        let tail_short = blocks * self.stripe_block - nbytes;
        let last_node = (home + blocks - 1) % n;
        let mut parts = Vec::new();
        for node in 0..n {
            // Blocks node gets beyond the full rounds: one if it lies in
            // the first `rem` positions of the round-robin from `home`.
            let pos = (node + n - home) % n;
            let mut bytes =
                full_rounds * self.stripe_block + if pos < rem { self.stripe_block } else { 0 };
            if node == last_node {
                bytes -= tail_short;
            }
            if bytes > 0 {
                parts.push((node as u32, bytes));
            }
        }
        parts
    }

    /// The rank whose event stream owns I/O node `node` — server state
    /// is only ever mutated from events at this rank.
    pub(crate) fn owner(node: u32, n_ranks: usize) -> Rank {
        Rank::new(node as usize % n_ranks)
    }

    fn xfer(&self, bytes: u64, bw: f64) -> SimTime {
        if bw.is_infinite() || bytes == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_secs_f64(bytes as f64 / bw)
        }
    }

    /// FCFS service time of one `bytes`-sized request at a node.
    pub(crate) fn service_time(&self, bytes: u64, write: bool) -> SimTime {
        let bw = if write {
            self.node_write_bw
        } else {
            self.node_read_bw
        };
        self.request_overhead + self.xfer(bytes, bw)
    }
}

/// FNV-1a hash of a file name; determines stripe placement.
pub(crate) fn file_hash(name: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in name.as_bytes() {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Shared run-time state of the simulated I/O servers. One instance per
/// run, shared by every shard's [`FsService`].
pub struct PfsState {
    inner: Mutex<PfsInner>,
}

struct PfsInner {
    /// Per-node FCFS horizon; index = I/O node id. Mutated only from
    /// owner-rank events.
    busy_until: Vec<SimTime>,
    /// Per-client-rank outstanding request count (grown lazily).
    /// Mutated only from events/polls at the client rank itself.
    pending: Vec<u32>,
}

impl PfsState {
    /// Fresh server state for `model`.
    pub(crate) fn new(model: PfsModel) -> Self {
        PfsState {
            inner: Mutex::new(PfsInner {
                busy_until: vec![SimTime::ZERO; model.io_nodes as usize],
                pending: Vec::new(),
            }),
        }
    }

    /// No caller code runs under the lock, so poison can only mean a
    /// server-state operation itself panicked.
    fn lock(&self) -> MutexGuard<'_, PfsInner> {
        self.inner.lock().expect("PfsState operation panicked")
    }

    /// Serve one request FCFS at `node`: returns `(queued, finish)`.
    fn serve(&self, node: u32, arrival: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let mut inner = self.lock();
        let busy = inner.busy_until[node as usize];
        let start = busy.max(arrival);
        let finish = start + service;
        inner.busy_until[node as usize] = finish;
        (start - arrival, finish)
    }

    fn op_begin(&self, rank: usize, parts: u32) {
        let mut inner = self.lock();
        if inner.pending.len() <= rank {
            inner.pending.resize(rank + 1, 0);
        }
        debug_assert_eq!(inner.pending[rank], 0, "one striped op per VP at a time");
        inner.pending[rank] = parts;
    }

    /// Decrement the rank's outstanding count; true when it reaches 0.
    fn op_complete(&self, rank: usize) -> bool {
        let mut inner = self.lock();
        inner.pending[rank] -= 1;
        inner.pending[rank] == 0
    }

    fn op_pending(&self, rank: usize) -> bool {
        let inner = self.lock();
        inner.pending.get(rank).is_some_and(|p| *p > 0)
    }
}

/// Run one striped transfer from the current VP: split across I/O
/// nodes, contend FCFS at each, return when the slowest part's
/// completion arrives back. No-op when the byte count is zero.
pub(crate) async fn transfer(model: PfsModel, nbytes: u64, hash: u32, write: bool) {
    let token = ctx::with_kernel(|k, rank| {
        let parts = model.split(hash, nbytes);
        if parts.is_empty() {
            return None;
        }
        let state = k
            .service::<FsService>()
            .pfs
            .clone()
            .expect("FsService with a PFS model must carry PfsState");
        let n_ranks = k.cfg.n_ranks;
        let now = k.vp(rank).clock();
        let token = k
            .vp_mut(rank)
            .begin_wait(WaitClass::FileIo, "pfs striped I/O");
        state.op_begin(rank.idx(), parts.len() as u32);
        let arrive = now + model.transit;
        let transit = model.transit;
        for (node, bytes) in parts {
            let service = model.service_time(bytes, write);
            let st = state.clone();
            k.schedule_at(
                arrive,
                PfsModel::owner(node, n_ranks),
                Action::call(move |k: &mut Kernel| {
                    let (queued, finish) = st.serve(node, arrive, service);
                    obs::record(k, ids::FS_STRIPE_REQS, 1);
                    obs::record(k, ids::FS_STRIPE_BYTES, bytes);
                    obs::record(k, ids::FS_STRIPE_QUEUE_NS, queued.as_nanos());
                    let done_at = finish + transit;
                    k.schedule_at(
                        done_at,
                        rank,
                        Action::call(move |k: &mut Kernel| {
                            if st.op_complete(rank.idx()) {
                                let vp = k.vp(rank);
                                if vp.state() == VpState::Blocked && vp.wait_token() == token {
                                    k.wake(rank, done_at);
                                }
                            }
                        }),
                    );
                }),
            );
        }
        Some(token)
    });
    let Some(token) = token else { return };
    loop {
        let _ = ctx::block_prearmed(token).await;
        let done = ctx::with_kernel(|k, rank| {
            let still = k
                .service::<FsService>()
                .pfs
                .as_ref()
                .is_some_and(|st| st.op_pending(rank.idx()));
            if still {
                // Spurious wake (e.g. a message arrival releasing
                // FileIo-class waits): re-enter under the same token.
                k.vp_mut(rank)
                    .rearm_wait(WaitClass::FileIo, "pfs striped I/O", token);
            }
            !still
        });
        if done {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The I/O node serving stripe block `block` of the file: the
    /// block-by-block placement that `split` must agree with.
    fn node_of_block(m: &PfsModel, hash: u32, block: u64) -> u32 {
        ((m.home_node(hash) as u64 + block) % m.io_nodes as u64) as u32
    }

    fn model(nodes: u32, block: u64) -> PfsModel {
        PfsModel {
            io_nodes: nodes,
            stripe_block: block,
            node_write_bw: 1.0e9,
            node_read_bw: 2.0e9,
            request_overhead: SimTime::from_micros(50),
            transit: SimTime::from_micros(1),
        }
    }

    #[test]
    fn placement_is_round_robin_from_home() {
        let m = model(4, 1024);
        let h = 7; // home node 3
        assert_eq!(m.home_node(h), 3);
        assert_eq!(node_of_block(&m, h, 0), 3);
        assert_eq!(node_of_block(&m, h, 1), 0);
        assert_eq!(node_of_block(&m, h, 4), 3);
    }

    #[test]
    fn placement_hash_spreads_strided_rank_sets() {
        // One writer per 8-rank group (aggregated checkpointing) over a
        // power-of-two node pool: the avalanched hash must not alias
        // every writer onto one home node the way `rank % io_nodes`
        // (or an un-mixed multiplicative hash) does.
        let m = PfsModel {
            io_nodes: 4,
            ..PfsModel::typical(4)
        };
        for stride in [4u32, 8, 16] {
            let mut used = std::collections::BTreeSet::new();
            for g in 0..32 {
                used.insert(m.home_node(PfsModel::placement_hash(g * stride)));
            }
            assert!(
                used.len() >= 3,
                "stride {stride} writers collapsed onto {used:?}"
            );
        }
    }

    #[test]
    fn split_conserves_bytes_and_matches_blockwise_placement() {
        let m = model(3, 100);
        for (hash, nbytes) in [
            (0u32, 1u64),
            (1, 99),
            (2, 100),
            (5, 101),
            (9, 1000),
            (4, 950),
        ] {
            let parts = m.split(hash, nbytes);
            assert_eq!(parts.iter().map(|(_, b)| b).sum::<u64>(), nbytes);
            // Oracle: place block by block.
            let mut acc = vec![0u64; m.io_nodes as usize];
            let blocks = nbytes.div_ceil(m.stripe_block);
            for b in 0..blocks {
                let sz = (nbytes - b * m.stripe_block).min(m.stripe_block);
                acc[node_of_block(&m, hash, b) as usize] += sz;
            }
            for (node, bytes) in &parts {
                assert_eq!(acc[*node as usize], *bytes, "hash {hash} nbytes {nbytes}");
            }
            assert!(parts.windows(2).all(|w| w[0].0 < w[1].0), "sorted by node");
        }
        assert!(m.split(3, 0).is_empty());
    }

    #[test]
    fn fcfs_stretch_is_monotonic_in_concurrent_writers() {
        // Queueing delay at one node grows monotonically with the
        // number of simultaneously arriving requests ahead of yours.
        let m = model(1, 1 << 20);
        let service = m.service_time(1 << 20, true);
        let mut last_total = SimTime::ZERO;
        for writers in 1..=8u32 {
            let st = PfsState::new(m);
            let mut finish = SimTime::ZERO;
            for _ in 0..writers {
                let (_, f) = st.serve(0, SimTime::ZERO, service);
                finish = f;
            }
            assert!(finish > last_total, "{writers} writers");
            last_total = finish;
        }
        // And the k-th writer waits exactly (k-1) service times.
        let st = PfsState::new(m);
        for kth in 0..4u32 {
            let (queued, _) = st.serve(0, SimTime::ZERO, service);
            assert_eq!(queued.as_nanos(), kth as u64 * service.as_nanos());
        }
    }

    #[test]
    fn file_hash_spreads_names() {
        let hashes: Vec<u32> = (0..16)
            .map(|r| file_hash(&format!("ckpt/00000000000000000001/rank{r:07}")))
            .collect();
        let mut uniq = hashes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), hashes.len(), "rank files hash distinctly");
    }

    #[test]
    fn owner_maps_nodes_onto_ranks() {
        assert_eq!(PfsModel::owner(0, 4), Rank::new(0));
        assert_eq!(PfsModel::owner(5, 4), Rank::new(1));
        assert_eq!(PfsModel::owner(3, 2), Rank::new(1));
    }
}
