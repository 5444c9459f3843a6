//! End-to-end communication timing and failure-detection timeouts.

use crate::fault::LinkStateTable;
use crate::topology::Topology;
use std::sync::Arc;
use xsim_core::{Rank, SimTime};

/// The hierarchical network class a message travels on (paper §IV-C:
/// "each simulated network, such as the on-chip, on-node, and system-wide
/// network, has its own network communication timeout").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetClass {
    /// Between cores of one processor.
    OnChip,
    /// Between processors of one node.
    OnNode,
    /// Between nodes, across the interconnect topology.
    System,
}

/// Per-class link parameters.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Per-hop wire latency.
    pub latency: SimTime,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Communication timeout for failure detection on this network: a
    /// pending operation towards a failed peer errors out this long after
    /// the later of (post time, failure time) — paper §IV-C.
    pub timeout: SimTime,
}

impl Link {
    /// The paper's system interconnect: 1 µs link latency, 32 GB/s link
    /// bandwidth (§V-C). The timeout is not given numerically in the
    /// paper ("configurable"); 1 s is a representative HPC RAS value.
    pub(crate) fn paper_system() -> Self {
        Link {
            latency: SimTime::from_micros(1),
            bandwidth_bps: 32.0e9,
            timeout: SimTime::from_secs(1),
        }
    }

    /// Typical shared-memory on-node transport.
    pub(crate) fn default_on_node() -> Self {
        Link {
            latency: SimTime::from_nanos(200),
            bandwidth_bps: 64.0e9,
            timeout: SimTime::from_millis(100),
        }
    }

    /// Typical on-chip transport between cores.
    pub(crate) fn default_on_chip() -> Self {
        Link {
            latency: SimTime::from_nanos(40),
            bandwidth_bps: 128.0e9,
            timeout: SimTime::from_millis(10),
        }
    }

    /// Pure serialization time of `bytes` at this link's bandwidth.
    pub(crate) fn transfer_time(&self, bytes: usize) -> SimTime {
        if bytes == 0 || self.bandwidth_bps <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

/// Timing decomposition of one point-to-point message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P2pTiming {
    /// End-to-end wire latency (hops × per-hop latency).
    pub latency: SimTime,
    /// Payload serialization time.
    pub transfer: SimTime,
    /// Whether the eager protocol applies (payload ≤ threshold). Above
    /// the threshold the rendezvous protocol adds a request-to-send /
    /// clear-to-send round trip and ties the sender to the receiver's
    /// posting of the matching receive.
    pub eager: bool,
    /// The class of network used, selecting the failure-detection timeout.
    pub class: NetClass,
}

/// The complete network model: topology + link classes + protocol
/// parameters + rank placement.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Interconnect shape.
    pub topology: Topology,
    /// Simulated MPI ranks per compute node. The paper places one rank
    /// per node, assuming an MPI+X programming model (§V-C).
    pub ranks_per_node: usize,
    /// System (inter-node) link parameters.
    pub system: Link,
    /// On-node link parameters (used when `ranks_per_node > 1`).
    pub on_node: Link,
    /// On-chip link parameters (reserved for core-granularity placement).
    pub on_chip: Link,
    /// Eager/rendezvous protocol threshold in bytes. The paper uses
    /// 256 kB (§V-C).
    pub eager_threshold: usize,
    /// Fixed per-message software overhead charged to the sender (MPI
    /// stack injection cost).
    pub send_overhead: SimTime,
    /// Fixed per-message software overhead charged to the receiver
    /// (matching and completion cost).
    pub recv_overhead: SimTime,
    /// Model receiver-side drain contention: message completions at one
    /// rank serialize at `recv_overhead` spacing (a single-NIC/CPU drain
    /// path). Off by default — the paper's latency/bandwidth model has
    /// no contention; see the `ablations` campaign for its effect on
    /// linear collectives.
    pub serialize_recv: bool,
    /// Live link/switch fault state, consulted by [`NetModel::p2p_at`]
    /// for fault-aware routing. `None` (the default) keeps the
    /// fault-free fast path.
    pub faults: Option<Arc<LinkStateTable>>,
    /// Precomputed healthy-topology hop table (see
    /// [`NetModel::precompute_hops`]): the no-fault system-class path
    /// becomes a pure table lookup on machines small enough to afford
    /// the dense table. `None` falls back to the closed-form
    /// [`Topology::hops`].
    pub hop_table: Option<Arc<crate::topology::HopTable>>,
}

/// Fault-aware point-to-point route: the timing plus how far it departs
/// from the fault-free route (for observability accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P2pRoute {
    /// End-to-end timing over the live route.
    pub timing: P2pTiming,
    /// Hops taken beyond the fault-free minimal route (reroute
    /// inflation).
    pub extra_hops: u32,
    /// Serialization time added by degraded-link bandwidth.
    pub degraded_extra: SimTime,
}

impl NetModel {
    /// The paper's simulated system: 32×32×32 wrapped torus, 1 µs link
    /// latency, 32 GB/s links, 256 kB eager threshold, one rank per node
    /// (§V-C).
    pub fn paper_machine() -> Self {
        NetModel {
            topology: Topology::paper_torus(),
            ranks_per_node: 1,
            system: Link::paper_system(),
            on_node: Link::default_on_node(),
            on_chip: Link::default_on_chip(),
            eager_threshold: 256 * 1024,
            send_overhead: SimTime::from_micros(1),
            recv_overhead: SimTime::from_micros(1),
            serialize_recv: false,
            faults: None,
            hop_table: None,
        }
    }

    /// Attach a link/switch fault table (see [`LinkStateTable`]);
    /// [`NetModel::p2p_at`] then routes around dead links and charges
    /// degraded-link bandwidth.
    pub fn with_faults(mut self, table: LinkStateTable) -> Self {
        self.faults = Some(Arc::new(table));
        self
    }

    /// Build the dense healthy-topology hop table when the topology
    /// qualifies (see `HopTable::build`). Idempotent;
    /// the simulation builder calls this once the topology is final, so
    /// per-message hop queries on small tori are a table load.
    pub fn precompute_hops(&mut self) {
        if self.hop_table.is_none() {
            self.hop_table = self.topology.hop_table().map(Arc::new);
        }
    }

    /// Healthy-topology hop count between two *nodes*: the precomputed
    /// table when present, the closed form otherwise.
    #[inline]
    pub(crate) fn node_hops(&self, a: usize, b: usize) -> u32 {
        match &self.hop_table {
            Some(t) => t.get(a, b),
            None => self.topology.hops(a, b),
        }
    }

    /// A small fully-connected machine, convenient for tests and
    /// quickstarts.
    pub fn small(nodes: usize) -> Self {
        NetModel {
            topology: Topology::FullyConnected { nodes },
            ..Self::paper_machine()
        }
    }

    /// The compute node hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> usize {
        rank.idx() / self.ranks_per_node.max(1)
    }

    /// Total rank capacity of the machine.
    pub(crate) fn max_ranks(&self) -> usize {
        self.topology.nodes() * self.ranks_per_node.max(1)
    }

    /// The network class connecting two ranks.
    pub(crate) fn class_of(&self, a: Rank, b: Rank) -> NetClass {
        if self.node_of(a) == self.node_of(b) {
            NetClass::OnNode
        } else {
            NetClass::System
        }
    }

    /// Link parameters of a class.
    pub(crate) fn link(&self, class: NetClass) -> &Link {
        match class {
            NetClass::OnChip => &self.on_chip,
            NetClass::OnNode => &self.on_node,
            NetClass::System => &self.system,
        }
    }

    /// Failure-detection timeout between two ranks (paper §IV-C).
    pub fn timeout(&self, a: Rank, b: Rank) -> SimTime {
        self.link(self.class_of(a, b)).timeout
    }

    /// Point-to-point timing between two ranks for a payload of `bytes`.
    pub fn p2p(&self, src: Rank, dst: Rank, bytes: usize) -> P2pTiming {
        let class = self.class_of(src, dst);
        let link = self.link(class);
        let hops = match class {
            NetClass::System => self.node_hops(self.node_of(src), self.node_of(dst)),
            _ => 1,
        }
        .max(1);
        P2pTiming {
            latency: SimTime(link.latency.as_nanos().saturating_mul(hops as u64)),
            transfer: link.transfer_time(bytes),
            eager: bytes <= self.eager_threshold,
            class,
        }
    }

    /// Fault-aware point-to-point timing at virtual time `now`: like
    /// [`NetModel::p2p`], but system-class routes consult the live link
    /// state — dead links are routed around (hop-count inflation feeds
    /// the latency term), degraded links stretch the transfer time, and
    /// `None` is returned when the fault set partitions the network
    /// between the two ranks.
    ///
    /// Rerouting never shortens a route and degradation never raises
    /// bandwidth, so `min_latency()` remains a valid conservative
    /// lookahead under any fault schedule.
    pub fn p2p_at(&self, src: Rank, dst: Rank, bytes: usize, now: SimTime) -> Option<P2pRoute> {
        let base = self.p2p(src, dst, bytes);
        let clean = P2pRoute {
            timing: base,
            extra_hops: 0,
            degraded_extra: SimTime::ZERO,
        };
        let Some(table) = &self.faults else {
            return Some(clean);
        };
        if base.class != NetClass::System {
            return Some(clean); // intra-node traffic never crosses the fabric
        }
        let (a, b) = (self.node_of(src), self.node_of(dst));
        let route = table.route(a, b, now)?;
        let base_hops = self.node_hops(a, b).max(1);
        let hops = route.hops.max(1);
        let link = self.link(NetClass::System);
        let latency = SimTime(link.latency.as_nanos().saturating_mul(hops as u64));
        let transfer = if route.min_factor < 1.0 {
            Link {
                bandwidth_bps: link.bandwidth_bps * route.min_factor,
                ..*link
            }
            .transfer_time(bytes)
        } else {
            base.transfer
        };
        Some(P2pRoute {
            timing: P2pTiming {
                latency,
                transfer,
                eager: base.eager,
                class: base.class,
            },
            extra_hops: hops.saturating_sub(base_hops),
            degraded_extra: transfer - base.transfer,
        })
    }

    /// The minimum virtual delay of any cross-rank message: the
    /// conservative lookahead of the parallel engine.
    pub fn min_latency(&self) -> SimTime {
        let mut m = self.system.latency;
        if self.ranks_per_node > 1 {
            m = m.min(self.on_node.latency).min(self.on_chip.latency);
        }
        // Lookahead must be positive for the parallel engine; clamp to
        // 1 ns for degenerate zero-latency configurations.
        m.max(SimTime::from_nanos(1))
    }

    /// The minimum virtual delay of a message *crossing a shard
    /// boundary* when ranks are partitioned into contiguous blocks of
    /// `ranks_per_shard`. When shard blocks align with compute nodes
    /// (every node's ranks live in one shard), no on-node/on-chip
    /// message ever crosses shards, so the system-class latency — often
    /// orders of magnitude above [`min_latency`](Self::min_latency) —
    /// is a valid, much larger lookahead. Misaligned blocks fall back
    /// to the global minimum.
    ///
    /// Faults keep this conservative: rerouting never shortens a route
    /// and degradation never raises bandwidth, so a live
    /// [`LinkStateTable`] can only produce delays at or above this
    /// bound.
    pub fn cross_shard_lookahead(&self, ranks_per_shard: usize) -> SimTime {
        let rpn = self.ranks_per_node.max(1);
        let aligned = match ranks_per_shard {
            0 => rpn == 1,
            n => n % rpn == 0,
        };
        if aligned {
            self.system.latency.max(SimTime::from_nanos(1))
        } else {
            self.min_latency()
        }
    }

    /// Validate model invariants the simulated MPI layer relies on.
    pub fn validate(&self, n_ranks: usize) -> Result<(), String> {
        if self.ranks_per_node == 0 {
            return Err("ranks_per_node must be > 0".into());
        }
        if n_ranks > self.max_ranks() {
            return Err(format!(
                "{} ranks exceed machine capacity {} ({} x {} ranks/node)",
                n_ranks,
                self.max_ranks(),
                self.topology,
                self.ranks_per_node
            ));
        }
        for (name, link) in [
            ("system", &self.system),
            ("on_node", &self.on_node),
            ("on_chip", &self.on_chip),
        ] {
            if link.timeout < self.min_latency() {
                return Err(format!(
                    "{name} timeout {} below minimum latency {} — failure \
                     notifications could not precede releases",
                    link.timeout,
                    self.min_latency()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_parameters() {
        let m = NetModel::paper_machine();
        assert_eq!(m.max_ranks(), 32_768);
        assert_eq!(m.eager_threshold, 262_144);
        m.validate(32_768).unwrap();
        assert!(m.validate(32_769).is_err());
    }

    #[test]
    fn p2p_latency_scales_with_hops() {
        let m = NetModel::paper_machine();
        let t = &m.topology;
        let a = Rank::new(t.node_at([0, 0, 0]));
        let b = Rank::new(t.node_at([1, 0, 0]));
        let c = Rank::new(t.node_at([5, 0, 0]));
        assert_eq!(m.p2p(a, b, 0).latency, SimTime::from_micros(1));
        assert_eq!(m.p2p(a, c, 0).latency, SimTime::from_micros(5));
    }

    #[test]
    fn transfer_time_uses_bandwidth() {
        let m = NetModel::paper_machine();
        let t = m.p2p(Rank(0), Rank(1), 32_000); // 32 kB at 32 GB/s = 1 µs
        assert_eq!(t.transfer, SimTime::from_micros(1));
        assert!(t.eager);
    }

    #[test]
    fn eager_threshold_selects_protocol() {
        let m = NetModel::paper_machine();
        assert!(m.p2p(Rank(0), Rank(1), 256 * 1024).eager);
        let r = m.p2p(Rank(0), Rank(1), 256 * 1024 + 1);
        assert!(!r.eager);
    }

    #[test]
    fn same_node_uses_on_node_class() {
        let mut m = NetModel::small(4);
        m.ranks_per_node = 4;
        assert_eq!(m.class_of(Rank(0), Rank(3)), NetClass::OnNode);
        assert_eq!(m.class_of(Rank(0), Rank(4)), NetClass::System);
        assert_eq!(m.timeout(Rank(0), Rank(3)), m.on_node.timeout);
    }

    #[test]
    fn min_latency_is_positive_lookahead() {
        let mut m = NetModel::paper_machine();
        assert_eq!(m.min_latency(), SimTime::from_micros(1));
        m.ranks_per_node = 2;
        assert_eq!(m.min_latency(), SimTime::from_nanos(40));
        m.system.latency = SimTime::ZERO;
        m.on_node.latency = SimTime::ZERO;
        m.on_chip.latency = SimTime::ZERO;
        assert_eq!(m.min_latency(), SimTime::from_nanos(1));
    }

    #[test]
    fn cross_shard_lookahead_exploits_node_alignment() {
        let m = NetModel::paper_machine(); // 1 rank/node
        assert_eq!(m.cross_shard_lookahead(7), m.system.latency);
        let mut m = NetModel::small(16);
        m.ranks_per_node = 4;
        // Aligned blocks: only system-class traffic crosses shards.
        assert_eq!(m.cross_shard_lookahead(4), m.system.latency);
        assert_eq!(m.cross_shard_lookahead(8), m.system.latency);
        // Misaligned blocks split a node across shards: fall back.
        assert_eq!(m.cross_shard_lookahead(3), m.min_latency());
        assert!(m.cross_shard_lookahead(4) > m.cross_shard_lookahead(3));
    }

    #[test]
    fn zero_byte_transfer_is_free() {
        let l = Link::paper_system();
        assert_eq!(l.transfer_time(0), SimTime::ZERO);
    }

    #[test]
    fn p2p_at_without_faults_matches_p2p() {
        let m = NetModel::paper_machine();
        let r = m
            .p2p_at(Rank(0), Rank(9), 4096, SimTime::from_secs(3))
            .unwrap();
        assert_eq!(r.timing, m.p2p(Rank(0), Rank(9), 4096));
        assert_eq!(r.extra_hops, 0);
        assert_eq!(r.degraded_extra, SimTime::ZERO);
    }

    #[test]
    fn p2p_at_reroutes_and_degrades() {
        use crate::fault::{LinkFaultKind, LinkStateTable, NetFault};
        let mut m = NetModel::paper_machine();
        m.topology = Topology::Torus3d { dims: [4, 4, 4] };
        let t = m.topology.clone();
        let (a, b) = (t.node_at([0, 0, 0]), t.node_at([1, 0, 0]));
        let mut tbl = LinkStateTable::new(t);
        tbl.add(NetFault {
            node: a,
            dir: Some(0),
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        });
        let m = m.with_faults(tbl);
        let r = m
            .p2p_at(Rank(a as u32), Rank(b as u32), 0, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.extra_hops, 2, "1-hop route detours to 3 hops");
        assert_eq!(r.timing.latency, SimTime::from_micros(3));

        // Degraded link: transfer stretches by 1/factor.
        let mut m2 = NetModel::paper_machine();
        m2.topology = Topology::Torus3d { dims: [4, 4, 4] };
        let mut tbl = LinkStateTable::new(m2.topology.clone());
        tbl.add(NetFault {
            node: a,
            dir: Some(0),
            kind: LinkFaultKind::Degraded(0.5),
            from: SimTime::ZERO,
            until: None,
        });
        let m2 = m2.with_faults(tbl);
        let base = m2.p2p(Rank(a as u32), Rank(b as u32), 32_000);
        let r = m2
            .p2p_at(Rank(a as u32), Rank(b as u32), 32_000, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.timing.transfer, SimTime::from_micros(2), "half bandwidth");
        assert_eq!(r.degraded_extra, r.timing.transfer - base.transfer);
    }

    #[test]
    fn p2p_at_detects_partition() {
        use crate::fault::{LinkFaultKind, LinkStateTable, NetFault};
        let mut m = NetModel::paper_machine();
        m.topology = Topology::Torus3d { dims: [4, 4, 4] };
        let victim = m.topology.node_at([2, 2, 2]);
        let mut tbl = LinkStateTable::new(m.topology.clone());
        tbl.add(NetFault {
            node: victim,
            dir: None,
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        });
        let m = m.with_faults(tbl);
        assert!(m
            .p2p_at(Rank(0), Rank(victim as u32), 64, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn precomputed_hop_table_preserves_p2p() {
        let mut m = NetModel::paper_machine();
        m.topology = Topology::Torus3d { dims: [4, 4, 4] };
        let base: Vec<_> = (0..64u32).map(|b| m.p2p(Rank(0), Rank(b), 4096)).collect();
        m.precompute_hops();
        assert!(m.hop_table.is_some(), "small torus gets a table");
        for b in 0..64u32 {
            assert_eq!(m.p2p(Rank(0), Rank(b), 4096), base[b as usize]);
        }
        // The paper machine is too large for a dense table; the closed
        // form keeps serving.
        let mut big = NetModel::paper_machine();
        big.precompute_hops();
        assert!(big.hop_table.is_none());
    }

    #[test]
    fn self_message_has_min_one_hop_latency() {
        // A rank sending to itself still pays one on-node/system hop; the
        // simulated MPI layer relies on strictly positive delays.
        let m = NetModel::small(4);
        let t = m.p2p(Rank(2), Rank(2), 64);
        assert!(t.latency > SimTime::ZERO);
    }
}
