//! Link/switch fault state and fault-aware minimal routing.
//!
//! The paper's resilience facility stops at MPI *process* failures
//! (§IV); this module extends the fault surface to the interconnect
//! itself, following the *Fault Diagnosis* / *Reconfiguration* patterns
//! of the HPC resilience pattern language: a [`LinkStateTable`] records
//! which physical links are down or degraded over which virtual-time
//! windows, and [`LinkStateTable::route`] computes the minimal live
//! route around dead links — inflating the hop count, carrying the worst
//! bandwidth factor along the chosen path, and detecting true partitions.
//!
//! Link-level faults are modeled on the neighbor-addressable topologies
//! ([`Topology::Torus3d`] and [`Topology::Mesh3d`], via
//! [`Topology::torus_neighbors`]); on other topologies the table is
//! inert and routing falls back to the fault-free [`Topology::hops`].

use crate::topology::{Grid, NodeId, Topology};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xsim_core::SimTime;

/// How a faulty network component behaves while the fault is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// The component is dead: no traffic passes.
    Down,
    /// The component passes traffic at `factor` × nominal bandwidth
    /// (`0 < factor ≤ 1`; non-positive factors are treated as down).
    Degraded(f64),
}

/// One fault on a link or switch, active over `[from, until)`
/// (`until = None` means permanent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFault {
    /// The node the fault is anchored at.
    pub node: NodeId,
    /// Direction index into [`Topology::torus_neighbors`] order
    /// (0..6 = +x, −x, +y, −y, +z, −z) selecting one link, or `None`
    /// for the node's switch — which takes down/degrades all six links.
    pub dir: Option<usize>,
    /// Down or degraded.
    pub kind: LinkFaultKind,
    /// Activation time.
    pub from: SimTime,
    /// Repair time (exclusive); `None` = never repaired.
    pub until: Option<SimTime>,
}

/// The live-ness result of routing between two nodes at some time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteInfo {
    /// Hop count of the minimal live route (≥ the fault-free hop count).
    pub hops: u32,
    /// Worst (minimum) bandwidth factor along the chosen route; `1.0`
    /// when no degraded link is crossed.
    pub min_factor: f64,
}

impl RouteInfo {
    /// The zero-hop route every path accumulation starts from.
    const EMPTY: RouteInfo = RouteInfo {
        hops: 0,
        min_factor: 1.0,
    };

    /// Extend the route over one live link of bandwidth `factor`.
    fn cross(&mut self, factor: f64) {
        self.hops += 1;
        self.min_factor = self.min_factor.min(factor);
    }
}

/// Canonical undirected link, `min node << 32 | max node`: one integer
/// compare per probe of the compiled state ([`LinkStateTable::new`]
/// checks that node ids fit).
type LinkKey = u64;

#[inline]
fn link_key(a: NodeId, b: NodeId) -> LinkKey {
    ((a.min(b) as u64) << 32) | a.max(b) as u64
}

/// One fault window on a link.
#[derive(Debug, Clone, Copy)]
struct Window {
    link: LinkKey,
    kind: LinkFaultKind,
    from: SimTime,
    until: Option<SimTime>,
}

impl Window {
    fn active(&self, t: SimTime) -> bool {
        t >= self.from && self.until.is_none_or(|u| t < u)
    }
}

/// The sorted, deduplicated activation/repair instants of `windows`.
fn edges(windows: &[Window]) -> Vec<SimTime> {
    let mut edges: Vec<SimTime> = windows
        .iter()
        .flat_map(|w| [Some(w.from), w.until].into_iter().flatten())
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Bandwidth factor of a link at `t` given all of its windows: `1.0`
/// healthy, `0.0` down (a `Down` window or a non-positive degradation),
/// otherwise the worst active degradation.
fn factor_at(windows: &[Window], t: SimTime) -> f64 {
    let mut factor = 1.0f64;
    for w in windows.iter().filter(|w| w.active(t)) {
        match w.kind {
            LinkFaultKind::Down => return 0.0,
            LinkFaultKind::Degraded(f) if f <= 0.0 => return 0.0,
            LinkFaultKind::Degraded(f) => factor = factor.min(f),
        }
    }
    factor
}

/// One entry of the compiled link state: `link` carries `factor`
/// (`0.0` = down) from fault epoch `epoch` until its next step.
#[derive(Debug, Clone, Copy)]
struct Step {
    link: LinkKey,
    epoch: u32,
    factor: f64,
}

/// Counter snapshot of the routing fallback — the epoch-keyed detour
/// memo and the searches behind it (see
/// [`LinkStateTable::route_cache_stats`]). A query whose
/// dimension-ordered path is live is answered by the walk and moves
/// none of these. The counts are execution-shape data: under the
/// parallel engine two shards can race to fill the same entry, so the
/// totals vary run to run even though the cached *routes* are identical
/// by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Detour/partition queries answered from the memo.
    pub hits: u64,
    /// Detour/partition queries that ran the BFS and filled an entry.
    pub misses: u64,
    /// Entries discarded when a shard hit its capacity bound.
    pub evictions: u64,
    /// Breadth-first searches run, by [`LinkStateTable::route`] (memo
    /// misses) and by [`LinkStateTable::route_uncached`].
    pub bfs_runs: u64,
}

/// Lock shards of the route cache; keys spread by `src ^ dst`.
const CACHE_SHARDS: usize = 16;
/// Per-shard entry bound; a full shard is flushed wholesale (the cache
/// is a pure memo — dropping entries only costs recomputation).
const CACHE_SHARD_CAP: usize = 1 << 15;

/// One lock shard of the memo: `(src, dst, epoch) → BFS result` (`None`
/// = the fault set partitions the pair).
type RouteShard = Mutex<HashMap<(NodeId, NodeId, u32), Option<RouteInfo>>>;

/// Reusable BFS working set. `seen[v] == mark` marks `v` visited in the
/// current search, so starting a search is a counter bump, not an
/// `O(nodes)` clear.
#[derive(Debug)]
struct BfsScratch {
    mark: u32,
    seen: Vec<u32>,
    parent: Vec<u32>,
    queue: Vec<u32>,
}

impl BfsScratch {
    fn new(nodes: usize) -> Self {
        BfsScratch {
            mark: 0,
            seen: vec![0; nodes],
            parent: vec![0; nodes],
            queue: Vec::new(),
        }
    }

    /// Start a new search: forget every visited mark.
    fn reset(&mut self) {
        if self.mark == u32::MAX {
            self.seen.fill(0);
            self.mark = 0;
        }
        self.mark += 1;
        self.queue.clear();
    }
}

/// The run-time state behind the routing fallback: the epoch-keyed
/// `(src, dst, epoch) → route` memo of pairs whose dimension-ordered
/// path crosses a dead link, and the BFS scratch pool. Within one fault
/// epoch the live link state is constant, so the BFS result is too — a
/// cached entry is byte-identical to a fresh computation and the memo
/// cannot perturb determinism. Shared across engine shards via the
/// `Arc<LinkStateTable>`, hence the internal locking; counters are
/// atomics so a memo hit never takes more than one shard lock.
struct RouteCache {
    shards: Vec<RouteShard>,
    /// Idle BFS working sets, one per thread that ever searched at the
    /// same time as another; allocated on the first search.
    scratch: Mutex<Vec<BfsScratch>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bfs_runs: AtomicU64,
}

impl RouteCache {
    fn new() -> Self {
        RouteCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            scratch: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bfs_runs: AtomicU64::new(0),
        }
    }

    fn shard(&self, src: NodeId, dst: NodeId) -> &RouteShard {
        &self.shards[(src ^ dst) % CACHE_SHARDS]
    }

    fn get(&self, src: NodeId, dst: NodeId, epoch: u32) -> Option<Option<RouteInfo>> {
        let hit = self
            .shard(src, dst)
            .lock()
            .expect("route cache lock")
            .get(&(src, dst, epoch))
            .copied();
        match hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn insert(&self, src: NodeId, dst: NodeId, epoch: u32, route: Option<RouteInfo>) {
        let mut shard = self.shard(src, dst).lock().expect("route cache lock");
        if shard.len() >= CACHE_SHARD_CAP {
            self.evictions
                .fetch_add(shard.len() as u64, Ordering::Relaxed);
            shard.clear();
        }
        shard.insert((src, dst, epoch), route);
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("route cache lock").clear();
        }
    }

    fn stats(&self) -> RouteCacheStats {
        RouteCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bfs_runs: self.bfs_runs.load(Ordering::Relaxed),
        }
    }
}

/// Clones start empty: the memo belongs to one run's shared table, not
/// to the fault schedule it memoizes.
impl Clone for RouteCache {
    fn clone(&self) -> Self {
        RouteCache::new()
    }
}

impl std::fmt::Debug for RouteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteCache")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Fault state of every physical link of a topology, queryable at any
/// virtual time. The table is immutable during a run (it is built from
/// the fault schedule up front), so both engines see identical state —
/// determinism is preserved by construction.
///
/// Time is partitioned into **fault epochs**: the sorted, deduplicated
/// activation/repair instants of all windows split the timeline into
/// half-open intervals over which every link's state is constant. The
/// windows are compiled against that index once, at build time, into a
/// sorted list of per-link state changes; a link-state lookup is then
/// one binary search over `(link, epoch)` with no hashing and no window
/// scan. Memory is `O(fault windows)` — independent of the node count
/// and of nodes × epochs.
#[derive(Debug, Clone)]
pub struct LinkStateTable {
    topo: Topology,
    /// `topo`'s grid geometry; `None` on topologies without
    /// neighbor-level link addressing, where the table is inert.
    grid: Option<Grid>,
    /// Every fault window, sorted by link.
    windows: Vec<Window>,
    /// Sorted, deduplicated fault state-transition instants. Epoch `e`
    /// covers `[epoch_bounds[e-1], epoch_bounds[e])` (epoch 0 is
    /// everything before the first transition).
    epoch_bounds: Vec<SimTime>,
    /// Per-epoch precomputed "any window active" flag
    /// (`epoch_active.len() == epoch_bounds.len() + 1`).
    epoch_active: Vec<bool>,
    /// Compiled link state, sorted by `(link, epoch)`: a link's state
    /// in epoch `e` is its last step at or before `e`, healthy if it
    /// has none.
    steps: Vec<Step>,
    /// Detour memo, BFS scratch and counters (see [`RouteCache`]).
    cache: RouteCache,
}

impl LinkStateTable {
    /// An empty (all-links-healthy) table over a topology.
    ///
    /// # Panics
    /// If the topology has more than `u32::MAX` nodes: link keys and the
    /// BFS working set store node ids as `u32`.
    pub fn new(topo: Topology) -> Self {
        assert!(
            u32::try_from(topo.nodes()).is_ok(),
            "link fault tables index nodes with u32"
        );
        LinkStateTable {
            grid: topo.grid(),
            topo,
            windows: Vec::new(),
            epoch_bounds: Vec::new(),
            epoch_active: vec![false],
            steps: Vec::new(),
            cache: RouteCache::new(),
        }
    }

    /// A table over `topo` holding `faults`, compiled once.
    pub fn from_faults(topo: Topology, faults: impl IntoIterator<Item = NetFault>) -> Self {
        let mut table = Self::new(topo);
        table.extend(faults);
        table
    }

    /// The topology the table is defined over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of links carrying at least one fault window.
    pub fn faulty_links(&self) -> usize {
        self.windows.chunk_by(|a, b| a.link == b.link).count()
    }

    /// Add a fault. Switch faults (`dir = None`) expand into faults on
    /// all of the node's links; directions that do not exist (mesh
    /// edges, non-neighbor topologies) are ignored.
    pub fn add(&mut self, f: NetFault) {
        self.extend([f]);
    }

    /// Add a batch of faults (each as [`add`](Self::add) would) and
    /// recompile the epoch index and link state once for the batch.
    pub fn extend(&mut self, faults: impl IntoIterator<Item = NetFault>) {
        for f in faults {
            let neighbors = self.topo.torus_neighbors(f.node);
            let dirs = match f.dir {
                Some(d) => d..d + 1,
                None => 0..6,
            };
            for nb in dirs.filter_map(|d| neighbors.get(d).copied().flatten()) {
                self.windows.push(Window {
                    link: link_key(f.node, nb),
                    kind: f.kind,
                    from: f.from,
                    until: f.until,
                });
            }
        }
        self.compile();
    }

    /// Recompute the epoch index and the per-link state steps after a
    /// schedule mutation. Tables are built up front and then queried, so
    /// this construction-time O(windows log windows) pass keeps every
    /// query O(log windows).
    fn compile(&mut self) {
        self.epoch_bounds = edges(&self.windows);

        // Windows open (+1) and close (−1) at epoch boundaries; the
        // running sum is the number active in each epoch.
        let mut delta = vec![0i64; self.epoch_count()];
        for w in &self.windows {
            if w.until.is_none_or(|u| u > w.from) {
                delta[self.epoch_at(w.from) as usize] += 1;
                if let Some(u) = w.until {
                    delta[self.epoch_at(u) as usize] -= 1;
                }
            }
        }
        let mut open = 0i64;
        self.epoch_active = delta
            .iter()
            .map(|d| {
                open += d;
                open > 0
            })
            .collect();

        // A link changes state only at its own windows' edges, each of
        // which is the first instant of an epoch.
        self.windows.sort_by_key(|w| w.link);
        self.steps.clear();
        for ws in self.windows.chunk_by(|a, b| a.link == b.link) {
            let mut factor = 1.0f64;
            for t in edges(ws) {
                let next = factor_at(ws, t);
                if next != factor {
                    factor = next;
                    self.steps.push(Step {
                        link: ws[0].link,
                        epoch: self.epoch_at(t),
                        factor,
                    });
                }
            }
        }
        self.cache.clear();
    }

    /// The fault epoch containing `t`: the count of state transitions at
    /// or before `t`. Every scheduled link/switch activation or repair
    /// bumps the epoch; within one epoch the live link state — and
    /// therefore every route — is constant.
    pub fn epoch_at(&self, t: SimTime) -> u32 {
        self.epoch_bounds.partition_point(|b| *b <= t) as u32
    }

    /// Total number of fault epochs (`transitions + 1`).
    pub fn epoch_count(&self) -> usize {
        self.epoch_bounds.len() + 1
    }

    /// The `i`-th epoch boundary: the first instant of epoch `i + 1`.
    /// Panics if `i >= epoch_count() - 1`.
    pub fn epoch_bound(&self, i: usize) -> SimTime {
        self.epoch_bounds[i]
    }

    /// Counters of the routing fallback: detour-memo hits, misses and
    /// evictions, and BFS runs.
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        self.cache.stats()
    }

    /// Whether any fault window is active at `t` — a binary search over
    /// the precomputed epoch index.
    pub fn any_active(&self, t: SimTime) -> bool {
        self.epoch_active[self.epoch_at(t) as usize]
    }

    /// Bandwidth factor of the link between adjacent nodes `a` and `b`
    /// at time `t`: `None` when the link is down, `Some(1.0)` when
    /// healthy, `Some(f < 1.0)` when degraded. Overlapping degradations
    /// combine to the worst factor.
    pub fn link_factor(&self, a: NodeId, b: NodeId, t: SimTime) -> Option<f64> {
        let factor = self.link_state(a, b, self.epoch_at(t));
        (factor > 0.0).then_some(factor)
    }

    /// Compiled state of link `a`–`b` in `epoch`: its bandwidth factor,
    /// `0.0` when down.
    #[inline]
    fn link_state(&self, a: NodeId, b: NodeId, epoch: u32) -> f64 {
        let link = link_key(a, b);
        let after = self
            .steps
            .partition_point(|s| (s.link, s.epoch) <= (link, epoch));
        match after.checked_sub(1).map(|i| &self.steps[i]) {
            Some(s) if s.link == link => s.factor,
            _ => 1.0,
        }
    }

    /// Fault-aware minimal route between two nodes at time `t`: the
    /// route a BFS over live links with the fixed neighbor order (+x,
    /// −x, +y, −y, +z, −z) picks, `None` when the fault set partitions
    /// the network between `src` and `dst`.
    ///
    /// With no fault active at `t` — or on a topology without
    /// neighbor-level link addressing — this reduces to the fault-free
    /// [`Topology::hops`]. Otherwise the dimension-ordered path is
    /// walked first (see `walk`): when none of its links is down it *is*
    /// the BFS's answer, and the query returns without taking a lock,
    /// hashing or allocating — it reads the compiled steps and touches
    /// no counter, so [`route_cache_stats`](Self::route_cache_stats)
    /// does not move. Only a path that crosses a dead link falls through
    /// to the BFS, memoized per `(src, dst, epoch)`: link state is
    /// constant within an epoch, so the cached route is exactly what a
    /// fresh BFS would return. [`route_uncached`](Self::route_uncached)
    /// is the oracle that bypasses both.
    pub fn route(&self, src: NodeId, dst: NodeId, t: SimTime) -> Option<RouteInfo> {
        let Some((grid, epoch)) = self.faulted_epoch(src, dst, t) else {
            return Some(self.fault_free(src, dst));
        };
        if let Some(live) = self.walk(&grid, src, dst, epoch) {
            return Some(live);
        }
        if let Some(cached) = self.cache.get(src, dst, epoch) {
            return cached;
        }
        let fresh = self.route_bfs(&grid, src, dst, epoch);
        self.cache.insert(src, dst, epoch, fresh);
        fresh
    }

    /// [`route`](Self::route) by plain BFS: no walk, no memo. The
    /// differential oracle for the equivalence tests.
    pub fn route_uncached(&self, src: NodeId, dst: NodeId, t: SimTime) -> Option<RouteInfo> {
        match self.faulted_epoch(src, dst, t) {
            Some((grid, epoch)) => self.route_bfs(&grid, src, dst, epoch),
            None => Some(self.fault_free(src, dst)),
        }
    }

    /// The query prelude: the grid and fault epoch a `src → dst` query
    /// at `t` must be routed in, or `None` when the closed form answers
    /// it (same node, no link addressing, or no fault active at `t`).
    fn faulted_epoch(&self, src: NodeId, dst: NodeId, t: SimTime) -> Option<(Grid, u32)> {
        let grid = self.grid?;
        let epoch = self.epoch_at(t);
        (src != dst && self.epoch_active[epoch as usize]).then_some((grid, epoch))
    }

    fn fault_free(&self, src: NodeId, dst: NodeId) -> RouteInfo {
        RouteInfo {
            hops: self.topo.hops(src, dst),
            min_factor: 1.0,
        }
    }

    /// Walk the dimension-ordered minimal path — all x moves, then y,
    /// then z; on a torus the shorter way round each ring, `+` on a
    /// half-extent tie — and return its hop count and worst factor, or
    /// `None` if it meets a down link.
    ///
    /// Why this is the BFS's answer whenever it is live: a FIFO BFS
    /// with a fixed neighbor order reaches every node by the shortest
    /// live path whose direction sequence is lexicographically smallest
    /// in that order. On a healthy grid that path is this one (x
    /// directions sort before y before z, and `+` before `−` where both
    /// ways round are minimal). Faults only remove paths: while every
    /// link of this one is up — healthy or degraded — it is still
    /// shortest and still the smallest, so the BFS would return exactly
    /// these hops and this `min_factor`.
    fn walk(&self, grid: &Grid, src: NodeId, dst: NodeId, epoch: u32) -> Option<RouteInfo> {
        let (from, to) = (grid.coords(src), grid.coords(dst));
        let mut node = src;
        let mut route = RouteInfo::EMPTY;
        for dim in 0..3 {
            let (mut c, extent) = (from[dim], grid.dims[dim]);
            let plus = if grid.wrap {
                let ahead = if to[dim] >= c {
                    to[dim] - c
                } else {
                    to[dim] + extent - c
                };
                ahead <= extent - ahead
            } else {
                to[dim] >= c
            };
            while c != to[dim] {
                let (next, next_c) = grid
                    .step(node, c, dim, plus)
                    .expect("a minimal path stays on the grid");
                let factor = self.link_state(node, next, epoch);
                if factor <= 0.0 {
                    return None;
                }
                route.cross(factor);
                (node, c) = (next, next_c);
            }
        }
        Some(route)
    }

    /// The search behind [`route`](Self::route)'s fallback and all of
    /// [`route_uncached`](Self::route_uncached): FIFO BFS over live
    /// links in the fixed neighbor order.
    fn route_bfs(&self, grid: &Grid, src: NodeId, dst: NodeId, epoch: u32) -> Option<RouteInfo> {
        self.cache.bfs_runs.fetch_add(1, Ordering::Relaxed);
        let idle = self.cache.scratch.lock().expect("bfs scratch lock").pop();
        let mut s = idle.unwrap_or_else(|| BfsScratch::new(self.topo.nodes()));
        s.reset();
        s.seen[src] = s.mark;
        s.queue.push(src as u32);
        let mut found = false;
        let mut head = 0;
        'bfs: while let Some(&u) = s.queue.get(head) {
            head += 1;
            let u = u as usize;
            let c = grid.coords(u);
            for dir in 0..6 {
                let Some((v, _)) = grid.step(u, c[dir / 2], dir / 2, dir % 2 == 0) else {
                    continue;
                };
                if s.seen[v] == s.mark || self.link_state(u, v, epoch) <= 0.0 {
                    continue;
                }
                s.seen[v] = s.mark;
                s.parent[v] = u as u32;
                if v == dst {
                    found = true;
                    break 'bfs;
                }
                s.queue.push(v as u32);
            }
        }
        // `None` = partition between src and dst.
        let route = found.then(|| {
            let mut route = RouteInfo::EMPTY;
            let mut v = dst;
            while v != src {
                let u = s.parent[v] as usize;
                route.cross(self.link_state(u, v, epoch));
                v = u;
            }
            route
        });
        self.cache.scratch.lock().expect("bfs scratch lock").push(s);
        route
    }

    /// Fault-aware hop count (`None` = partitioned) — the live-state
    /// counterpart of [`Topology::hops`].
    pub fn hops_at(&self, src: NodeId, dst: NodeId, t: SimTime) -> Option<u32> {
        self.route(src, dst, t).map(|r| r.hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus() -> Topology {
        Topology::Torus3d { dims: [4, 4, 4] }
    }

    fn down(node: NodeId, dir: usize) -> NetFault {
        NetFault {
            node,
            dir: Some(dir),
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        }
    }

    #[test]
    fn healthy_table_matches_fault_free_hops() {
        let t = torus();
        let tbl = LinkStateTable::new(t.clone());
        for (a, b) in [(0, 1), (0, 63), (5, 40)] {
            assert_eq!(tbl.hops_at(a, b, SimTime::ZERO), Some(t.hops(a, b)));
        }
        assert!(!tbl.any_active(SimTime::MAX));
    }

    #[test]
    fn dead_link_inflates_hops() {
        let t = torus();
        let (a, b) = (t.node_at([0, 0, 0]), t.node_at([1, 0, 0]));
        let mut tbl = LinkStateTable::new(t.clone());
        tbl.add(down(a, 0)); // +x link a→b
        let r = tbl.route(a, b, SimTime::ZERO).unwrap();
        assert!(r.hops > t.hops(a, b), "reroute must inflate hops");
        assert_eq!(r.hops, 3, "detour over an adjacent row: 3 hops");
        // The link is bidirectional: b→a is equally affected.
        assert_eq!(tbl.hops_at(b, a, SimTime::ZERO), Some(3));
    }

    #[test]
    fn transient_fault_heals() {
        let t = torus();
        let (a, b) = (t.node_at([0, 0, 0]), t.node_at([1, 0, 0]));
        let mut tbl = LinkStateTable::new(t.clone());
        tbl.add(NetFault {
            node: a,
            dir: Some(0),
            kind: LinkFaultKind::Down,
            from: SimTime::from_secs(1),
            until: Some(SimTime::from_secs(2)),
        });
        assert_eq!(tbl.hops_at(a, b, SimTime::ZERO), Some(1), "before");
        assert_eq!(tbl.hops_at(a, b, SimTime::from_secs(1)), Some(3), "during");
        assert_eq!(tbl.hops_at(a, b, SimTime::from_secs(2)), Some(1), "healed");
    }

    #[test]
    fn switch_fault_partitions_node() {
        let t = torus();
        let mut tbl = LinkStateTable::new(t.clone());
        let victim = t.node_at([2, 2, 2]);
        tbl.add(NetFault {
            node: victim,
            dir: None,
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        });
        assert_eq!(tbl.route(0, victim, SimTime::ZERO), None, "isolated");
        // Other pairs still route (possibly around the dead switch).
        assert!(tbl.route(0, t.node_at([3, 3, 3]), SimTime::ZERO).is_some());
    }

    #[test]
    fn degraded_link_reports_worst_factor() {
        let t = torus();
        let (a, b) = (t.node_at([0, 0, 0]), t.node_at([1, 0, 0]));
        let mut tbl = LinkStateTable::new(t.clone());
        tbl.add(NetFault {
            node: a,
            dir: Some(0),
            kind: LinkFaultKind::Degraded(0.25),
            from: SimTime::ZERO,
            until: None,
        });
        let r = tbl.route(a, b, SimTime::ZERO).unwrap();
        assert_eq!(r.hops, 1, "degraded links still route minimally");
        assert_eq!(r.min_factor, 0.25);
        // Non-positive factors behave as down.
        tbl.add(NetFault {
            node: a,
            dir: Some(0),
            kind: LinkFaultKind::Degraded(0.0),
            from: SimTime::ZERO,
            until: None,
        });
        assert_eq!(tbl.link_factor(a, b, SimTime::ZERO), None);
    }

    #[test]
    fn epochs_partition_the_timeline_at_transitions() {
        let t = torus();
        let mut tbl = LinkStateTable::new(t);
        assert_eq!(tbl.epoch_count(), 1, "no faults: one eternal epoch");
        tbl.add(NetFault {
            node: 0,
            dir: Some(0),
            kind: LinkFaultKind::Down,
            from: SimTime::from_secs(1),
            until: Some(SimTime::from_secs(2)),
        });
        tbl.add(NetFault {
            node: 0,
            dir: Some(2),
            kind: LinkFaultKind::Degraded(0.5),
            from: SimTime::from_secs(2),
            until: Some(SimTime::from_secs(3)),
        });
        // Transitions at 1 s, 2 s, 3 s → 4 epochs.
        assert_eq!(tbl.epoch_count(), 4);
        assert_eq!(tbl.epoch_at(SimTime::ZERO), 0);
        assert_eq!(tbl.epoch_at(SimTime::from_millis(999)), 0);
        assert_eq!(tbl.epoch_at(SimTime::from_secs(1)), 1);
        assert_eq!(tbl.epoch_at(SimTime::from_secs(2)), 2);
        assert_eq!(tbl.epoch_at(SimTime::from_millis(2500)), 2);
        assert_eq!(tbl.epoch_at(SimTime::from_secs(3)), 3);
        assert_eq!(tbl.epoch_at(SimTime::MAX), 3);
        assert!(!tbl.any_active(SimTime::ZERO));
        assert!(tbl.any_active(SimTime::from_secs(1)));
        assert!(tbl.any_active(SimTime::from_millis(2500)));
        assert!(!tbl.any_active(SimTime::from_secs(3)));
    }

    #[test]
    fn cached_routes_match_fresh_bfs_and_count_hits() {
        let t = torus();
        let mut tbl = LinkStateTable::new(t);
        tbl.add(NetFault {
            node: 0,
            dir: Some(0),
            kind: LinkFaultKind::Down,
            from: SimTime::from_secs(1),
            until: Some(SimTime::from_secs(2)),
        });
        let times = [
            SimTime::ZERO,
            SimTime::from_millis(1500),
            SimTime::from_secs(2),
        ];
        for &at in &times {
            for (a, b) in [(0usize, 1usize), (0, 5), (3, 60)] {
                let fresh = tbl.route_uncached(a, b, at);
                assert_eq!(tbl.route(a, b, at), fresh, "first (filling) query");
                assert_eq!(tbl.route(a, b, at), fresh, "second (cached) query");
            }
        }
        let s = tbl.route_cache_stats();
        assert!(s.hits > 0, "repeat queries hit: {s:?}");
        assert!(s.misses > 0, "first queries miss: {s:?}");
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn adding_a_fault_invalidates_cached_routes() {
        let t = torus();
        let (a, b) = (t.node_at([0, 0, 0]), t.node_at([1, 0, 0]));
        let mut tbl = LinkStateTable::new(t.clone());
        tbl.add(NetFault {
            node: t.node_at([0, 1, 0]),
            dir: Some(0),
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        });
        assert_eq!(tbl.hops_at(a, b, SimTime::ZERO), Some(1), "warm the cache");
        tbl.add(down(a, 0)); // now the queried link itself dies
        assert_eq!(
            tbl.hops_at(a, b, SimTime::ZERO),
            Some(3),
            "stale entry flushed"
        );
    }

    #[test]
    fn non_addressable_topology_is_inert() {
        let t = Topology::FullyConnected { nodes: 8 };
        let mut tbl = LinkStateTable::new(t);
        tbl.add(down(0, 0)); // no neighbors → ignored
        assert_eq!(tbl.faulty_links(), 0);
        assert_eq!(tbl.hops_at(0, 5, SimTime::ZERO), Some(1));
    }
}
