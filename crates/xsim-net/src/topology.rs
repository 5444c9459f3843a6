//! Interconnect topologies and dimension-ordered hop counts.

use std::fmt;

/// A compute-node index within the simulated machine.
pub type NodeId = usize;

/// The shape of the simulated interconnect.
///
/// Hop counts assume minimal (dimension-ordered, for meshes/tori)
/// routing; that is the standard model for latency estimation in
/// communication-accurate simulators.
///
/// ```
/// use xsim_net::Topology;
///
/// let torus = Topology::paper_torus(); // the paper's 32x32x32 machine
/// assert_eq!(torus.nodes(), 32_768);
/// assert_eq!(torus.diameter(), 48);
/// // Wraparound makes opposite edges adjacent.
/// assert_eq!(torus.hops(torus.node_at([0, 0, 0]), torus.node_at([31, 0, 0])), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Every node one hop from every other (crossbar abstraction).
    FullyConnected {
        /// Number of nodes.
        nodes: usize,
    },
    /// All traffic relayed through node 0 (two hops between leaves).
    Star {
        /// Number of nodes including the hub (node 0).
        nodes: usize,
    },
    /// 3-D mesh without wraparound links.
    Mesh3d {
        /// Extent in x, y, z.
        dims: [usize; 3],
    },
    /// 3-D wrapped torus — the paper's simulated system is a 32×32×32
    /// torus (§V-C).
    Torus3d {
        /// Extent in x, y, z.
        dims: [usize; 3],
    },
    /// Binary hypercube of dimension `dim` (2^dim nodes).
    Hypercube {
        /// Dimension (number of address bits).
        dim: u32,
    },
    /// Two-level fat tree: `leaves` leaf switches of `nodes_per_leaf`
    /// nodes each, fully connected through a spine. Same-leaf traffic
    /// takes 2 hops (node→leaf→node), cross-leaf traffic 4
    /// (node→leaf→spine→leaf→node).
    FatTree {
        /// Number of leaf switches.
        leaves: usize,
        /// Nodes per leaf switch.
        nodes_per_leaf: usize,
    },
    /// Dragonfly: `groups` all-to-all-connected groups of
    /// `routers_per_group` routers with `nodes_per_router` nodes each.
    /// Minimal routing: up to 1 hop to the local router, 1 intra-group
    /// hop, 1 global hop, 1 intra-group hop, 1 hop to the node.
    Dragonfly {
        /// Number of groups.
        groups: usize,
        /// Routers per group.
        routers_per_group: usize,
        /// Nodes per router.
        nodes_per_router: usize,
    },
}

impl Topology {
    /// The paper's simulated machine: a 32×32×32 wrapped torus (32,768
    /// nodes).
    pub fn paper_torus() -> Self {
        Topology::Torus3d { dims: [32, 32, 32] }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        match *self {
            Topology::FullyConnected { nodes } | Topology::Star { nodes } => nodes,
            Topology::Mesh3d { dims } | Topology::Torus3d { dims } => dims[0] * dims[1] * dims[2],
            Topology::Hypercube { dim } => 1usize << dim,
            Topology::FatTree {
                leaves,
                nodes_per_leaf,
            } => leaves * nodes_per_leaf,
            Topology::Dragonfly {
                groups,
                routers_per_group,
                nodes_per_router,
            } => groups * routers_per_group * nodes_per_router,
        }
    }

    /// Convert a node index to mesh/torus coordinates (x fastest).
    pub fn coords(&self, node: NodeId) -> [usize; 3] {
        match *self {
            Topology::Mesh3d { dims } | Topology::Torus3d { dims } => {
                debug_assert!(node < self.nodes());
                [
                    node % dims[0],
                    (node / dims[0]) % dims[1],
                    node / (dims[0] * dims[1]),
                ]
            }
            _ => [node, 0, 0],
        }
    }

    /// Convert coordinates back to a node index.
    pub fn node_at(&self, c: [usize; 3]) -> NodeId {
        match *self {
            Topology::Mesh3d { dims } | Topology::Torus3d { dims } => {
                debug_assert!(c[0] < dims[0] && c[1] < dims[1] && c[2] < dims[2]);
                c[0] + dims[0] * (c[1] + dims[1] * c[2])
            }
            _ => c[0],
        }
    }

    /// Minimal-route hop count between two nodes. Zero iff `a == b`.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        match *self {
            Topology::FullyConnected { .. } => 1,
            Topology::Star { .. } => {
                if a == 0 || b == 0 {
                    1
                } else {
                    2
                }
            }
            Topology::Mesh3d { .. } => {
                let ca = self.coords(a);
                let cb = self.coords(b);
                (0..3)
                    .map(|i| (ca[i] as i64 - cb[i] as i64).unsigned_abs() as u32)
                    .sum()
            }
            Topology::Torus3d { dims } => {
                let ca = self.coords(a);
                let cb = self.coords(b);
                (0..3)
                    .map(|i| {
                        let d = (ca[i] as i64 - cb[i] as i64).unsigned_abs() as usize;
                        d.min(dims[i] - d) as u32
                    })
                    .sum()
            }
            Topology::Hypercube { .. } => (a ^ b).count_ones(),
            Topology::FatTree { nodes_per_leaf, .. } => {
                if a / nodes_per_leaf == b / nodes_per_leaf {
                    2 // node -> leaf -> node
                } else {
                    4 // node -> leaf -> spine -> leaf -> node
                }
            }
            Topology::Dragonfly {
                routers_per_group,
                nodes_per_router,
                ..
            } => {
                let router = |n: NodeId| n / nodes_per_router;
                let group = |n: NodeId| router(n) / routers_per_group;
                let (ra, rb) = (router(a), router(b));
                if ra == rb {
                    2 // node -> router -> node
                } else if group(a) == group(b) {
                    3 // node -> router -> router -> node
                } else {
                    // node -> router [-> gateway] -> global -> [gateway ->]
                    // router -> node; minimal path uses one global link and
                    // at most one local hop on each side.
                    5
                }
            }
        }
    }

    /// Precompute the dense healthy-topology hop table, if this
    /// topology qualifies (see [`HopTable::build`]).
    pub fn hop_table(&self) -> Option<HopTable> {
        HopTable::build(self)
    }

    /// Network diameter: the maximum minimal-route hop count.
    pub fn diameter(&self) -> u32 {
        match *self {
            Topology::FullyConnected { nodes } => u32::from(nodes > 1),
            Topology::Star { nodes } => match nodes {
                0 | 1 => 0,
                2 => 1,
                _ => 2,
            },
            Topology::Mesh3d { dims } => dims.iter().map(|d| (d - 1) as u32).sum(),
            Topology::Torus3d { dims } => dims.iter().map(|d| (d / 2) as u32).sum(),
            Topology::Hypercube { dim } => dim,
            Topology::FatTree { leaves, .. } => {
                if leaves > 1 {
                    4
                } else {
                    2
                }
            }
            Topology::Dragonfly { groups, .. } => {
                if groups > 1 {
                    5
                } else {
                    3
                }
            }
        }
    }

    /// The wrapped-torus neighbours of a node along each dimension (±x,
    /// ±y, ±z). Used by halo-exchange decompositions. For a mesh,
    /// out-of-range neighbours are `None`.
    pub fn torus_neighbors(&self, node: NodeId) -> [Option<NodeId>; 6] {
        let Some(grid) = self.grid() else {
            return [None; 6];
        };
        let c = grid.coords(node);
        std::array::from_fn(|dir| {
            grid.step(node, c[dir / 2], dir / 2, dir % 2 == 0)
                .map(|(nb, _)| nb)
        })
    }

    /// The grid geometry of a neighbour-addressable topology (3-D torus
    /// or mesh); `None` for every other shape.
    pub(crate) fn grid(&self) -> Option<Grid> {
        match *self {
            Topology::Torus3d { dims } => Some(Grid { dims, wrap: true }),
            Topology::Mesh3d { dims } => Some(Grid { dims, wrap: false }),
            _ => None,
        }
    }
}

/// Geometry of a 3-D torus or mesh, for code that moves along a
/// dimension one link at a time (the fault-aware router): a step is a
/// stride added to the node index, not a coordinate decode/re-encode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid {
    /// Extent in x, y, z.
    pub dims: [usize; 3],
    /// Wraparound links (torus) or hard edges (mesh).
    pub wrap: bool,
}

impl Grid {
    /// Node index to coordinates (x fastest), as [`Topology::coords`].
    #[inline]
    pub fn coords(&self, node: NodeId) -> [usize; 3] {
        let [dx, dy, _] = self.dims;
        [node % dx, (node / dx) % dy, node / (dx * dy)]
    }

    /// The neighbour of `node` one link along `dim` in the `+` (`plus`)
    /// or `−` direction, with its coordinate in that dimension; `c` is
    /// the node's own. `None` past a mesh edge; on a torus the step
    /// wraps (an extent-1 dimension wraps onto the node itself).
    #[inline]
    pub fn step(&self, node: NodeId, c: usize, dim: usize, plus: bool) -> Option<(NodeId, usize)> {
        let stride = [1, self.dims[0], self.dims[0] * self.dims[1]][dim];
        let last = self.dims[dim] - 1;
        if plus {
            if c < last {
                Some((node + stride, c + 1))
            } else {
                self.wrap.then(|| (node - last * stride, 0))
            }
        } else if c > 0 {
            Some((node - stride, c - 1))
        } else {
            self.wrap.then(|| (node + last * stride, last))
        }
    }
}

/// Dense precomputed healthy-topology hop table: `hops(a, b)` becomes a
/// single `u16` load instead of coordinate arithmetic. Built only where
/// the memory is trivially affordable and the closed form actually does
/// work (the 3-D torus/mesh coordinate math); a full table for the
/// paper's 32,768-node torus would need a billion entries, so large
/// machines keep the O(1) closed form (see DESIGN.md, "message path").
#[derive(Debug, Clone)]
pub struct HopTable {
    n: usize,
    hops: Vec<u16>,
}

impl HopTable {
    /// Largest node count a dense table is built for (`MAX_NODES²`
    /// `u16` entries = 8 MiB at the bound).
    pub const MAX_NODES: usize = 2048;

    /// Build the table for `topo`, or `None` when the topology is not a
    /// torus/mesh (other closed forms are already a compare or a popcount)
    /// or has more than [`HopTable::MAX_NODES`] nodes.
    pub fn build(topo: &Topology) -> Option<HopTable> {
        if !matches!(topo, Topology::Torus3d { .. } | Topology::Mesh3d { .. }) {
            return None;
        }
        let n = topo.nodes();
        if n == 0 || n > Self::MAX_NODES {
            return None;
        }
        let mut hops = vec![0u16; n * n];
        for a in 0..n {
            for b in 0..n {
                hops[a * n + b] = topo.hops(a, b) as u16;
            }
        }
        Some(HopTable { n, hops })
    }

    /// Hop count between two nodes (panics on out-of-range ids, like
    /// the closed form's coordinate math would).
    #[inline]
    pub fn get(&self, a: NodeId, b: NodeId) -> u32 {
        self.hops[a * self.n + b] as u32
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::FullyConnected { nodes } => write!(f, "fully-connected({nodes})"),
            Topology::Star { nodes } => write!(f, "star({nodes})"),
            Topology::Mesh3d { dims } => {
                write!(f, "mesh {}x{}x{}", dims[0], dims[1], dims[2])
            }
            Topology::Torus3d { dims } => {
                write!(f, "torus {}x{}x{}", dims[0], dims[1], dims[2])
            }
            Topology::Hypercube { dim } => write!(f, "hypercube(2^{dim})"),
            Topology::FatTree {
                leaves,
                nodes_per_leaf,
            } => write!(f, "fat-tree {leaves}x{nodes_per_leaf}"),
            Topology::Dragonfly {
                groups,
                routers_per_group,
                nodes_per_router,
            } => write!(
                f,
                "dragonfly {groups}g x {routers_per_group}r x {nodes_per_router}n"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let t = Topology::Torus3d { dims: [4, 5, 6] };
        for n in 0..t.nodes() {
            assert_eq!(t.node_at(t.coords(n)), n);
        }
    }

    #[test]
    fn torus_wraps() {
        let t = Topology::Torus3d { dims: [8, 8, 8] };
        let a = t.node_at([0, 0, 0]);
        let b = t.node_at([7, 0, 0]);
        assert_eq!(t.hops(a, b), 1, "wraparound link");
        let c = t.node_at([4, 0, 0]);
        assert_eq!(t.hops(a, c), 4, "opposite side");
    }

    #[test]
    fn mesh_does_not_wrap() {
        let t = Topology::Mesh3d { dims: [8, 8, 8] };
        let a = t.node_at([0, 0, 0]);
        let b = t.node_at([7, 0, 0]);
        assert_eq!(t.hops(a, b), 7);
    }

    #[test]
    fn paper_torus_diameter() {
        let t = Topology::paper_torus();
        assert_eq!(t.nodes(), 32_768);
        assert_eq!(t.diameter(), 48); // 16 per dimension
    }

    #[test]
    fn hypercube_hops_are_hamming() {
        let t = Topology::Hypercube { dim: 10 };
        assert_eq!(t.nodes(), 1024);
        assert_eq!(t.hops(0b1010, 0b0110), 2);
        assert_eq!(t.diameter(), 10);
    }

    #[test]
    fn star_routes_through_hub() {
        let t = Topology::Star { nodes: 10 };
        assert_eq!(t.hops(0, 5), 1);
        assert_eq!(t.hops(3, 5), 2);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn fully_connected_is_one_hop() {
        let t = Topology::FullyConnected { nodes: 100 };
        assert_eq!(t.hops(13, 87), 1);
        assert_eq!(t.hops(13, 13), 0);
    }

    #[test]
    fn fat_tree_hops() {
        let t = Topology::FatTree {
            leaves: 4,
            nodes_per_leaf: 8,
        };
        assert_eq!(t.nodes(), 32);
        assert_eq!(t.hops(0, 7), 2, "same leaf");
        assert_eq!(t.hops(0, 8), 4, "cross leaf");
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.diameter(), 4);
        assert_eq!(
            Topology::FatTree {
                leaves: 1,
                nodes_per_leaf: 8
            }
            .diameter(),
            2
        );
    }

    #[test]
    fn dragonfly_hops() {
        let t = Topology::Dragonfly {
            groups: 3,
            routers_per_group: 4,
            nodes_per_router: 2,
        };
        assert_eq!(t.nodes(), 24);
        assert_eq!(t.hops(0, 1), 2, "same router");
        assert_eq!(t.hops(0, 2), 3, "same group, different router");
        assert_eq!(t.hops(0, 8), 5, "different group");
        assert_eq!(t.diameter(), 5);
    }

    #[test]
    fn torus_neighbors_are_one_hop() {
        let t = Topology::Torus3d { dims: [4, 4, 4] };
        for n in 0..t.nodes() {
            for nb in t.torus_neighbors(n).into_iter().flatten() {
                assert_eq!(t.hops(n, nb), 1, "node {n} neighbor {nb}");
            }
        }
    }

    #[test]
    fn mesh_neighbors_respect_edges() {
        let t = Topology::Mesh3d { dims: [3, 3, 3] };
        let corner = t.node_at([0, 0, 0]);
        let nbs = t.torus_neighbors(corner);
        assert_eq!(nbs.iter().flatten().count(), 3);
        let center = t.node_at([1, 1, 1]);
        assert_eq!(t.torus_neighbors(center).iter().flatten().count(), 6);
    }

    #[test]
    fn hop_table_matches_closed_form() {
        for t in [
            Topology::Torus3d { dims: [4, 4, 4] },
            Topology::Mesh3d { dims: [3, 4, 5] },
        ] {
            let table = t.hop_table().expect("small torus/mesh qualifies");
            for a in 0..t.nodes() {
                for b in 0..t.nodes() {
                    assert_eq!(table.get(a, b), t.hops(a, b), "{t}: {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn hop_table_gates_on_size_and_kind() {
        assert!(Topology::paper_torus().hop_table().is_none(), "32k nodes");
        assert!(Topology::FullyConnected { nodes: 8 }.hop_table().is_none());
        assert!(Topology::Hypercube { dim: 4 }.hop_table().is_none());
    }
}
