//! Interconnect topologies and dimension-ordered hop counts.

use std::fmt;

/// A compute-node index within the simulated machine.
pub type NodeId = usize;

/// The shape of the simulated interconnect.
///
/// Hop counts assume minimal (dimension-ordered, on the torus) routing;
/// that is the standard model for latency estimation in
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
    /// 3-D wrapped torus — the paper's simulated system is a 32×32×32
    /// torus (§V-C).
    Torus3d {
        /// Extent in x, y, z.
        dims: [usize; 3],
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
            Topology::FullyConnected { nodes } => nodes,
            Topology::Torus3d { dims } => dims[0] * dims[1] * dims[2],
        }
    }

    /// Convert a node index to torus coordinates (x fastest).
    pub fn coords(&self, node: NodeId) -> [usize; 3] {
        match *self {
            Topology::Torus3d { dims } => {
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
            Topology::Torus3d { dims } => {
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
        }
    }

    /// Precompute the dense healthy-topology hop table, if this
    /// topology qualifies (see [`HopTable::build`]).
    pub(crate) fn hop_table(&self) -> Option<HopTable> {
        HopTable::build(self)
    }

    /// Network diameter: the maximum minimal-route hop count.
    pub fn diameter(&self) -> u32 {
        match *self {
            Topology::FullyConnected { nodes } => u32::from(nodes > 1),
            Topology::Torus3d { dims } => dims.iter().map(|d| (d / 2) as u32).sum(),
        }
    }

    /// The wrapped-torus neighbours of a node along each dimension (±x,
    /// ±y, ±z). Used by halo-exchange decompositions. All `None` on a
    /// fully connected machine, which has no neighbour addressing.
    pub fn torus_neighbors(&self, node: NodeId) -> [Option<NodeId>; 6] {
        let Some(grid) = self.grid() else {
            return [None; 6];
        };
        let c = grid.coords(node);
        std::array::from_fn(|dir| Some(grid.step(node, c[dir / 2], dir / 2, dir % 2 == 0).0))
    }

    /// The grid geometry of the 3-D torus; `None` when fully connected.
    pub(crate) fn grid(&self) -> Option<Grid> {
        match *self {
            Topology::Torus3d { dims } => Some(Grid { dims }),
            Topology::FullyConnected { .. } => None,
        }
    }
}

/// Geometry of a 3-D torus, for code that moves along a dimension one
/// link at a time (the fault-aware router): a step is a stride added to
/// the node index, not a coordinate decode/re-encode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid {
    /// Extent in x, y, z.
    pub dims: [usize; 3],
}

impl Grid {
    /// Node index to coordinates (x fastest), as [`Topology::coords`].
    #[inline]
    pub(crate) fn coords(&self, node: NodeId) -> [usize; 3] {
        let [dx, dy, _] = self.dims;
        [node % dx, (node / dx) % dy, node / (dx * dy)]
    }

    /// The neighbour of `node` one link along `dim` in the `+` (`plus`)
    /// or `−` direction, with its coordinate in that dimension; `c` is
    /// the node's own. The step wraps at the edge (an extent-1 dimension
    /// wraps onto the node itself).
    #[inline]
    pub(crate) fn step(&self, node: NodeId, c: usize, dim: usize, plus: bool) -> (NodeId, usize) {
        let stride = [1, self.dims[0], self.dims[0] * self.dims[1]][dim];
        let last = self.dims[dim] - 1;
        if plus {
            if c < last {
                (node + stride, c + 1)
            } else {
                (node - last * stride, 0)
            }
        } else if c > 0 {
            (node - stride, c - 1)
        } else {
            (node + last * stride, last)
        }
    }
}

/// Dense precomputed healthy-topology hop table: `hops(a, b)` becomes a
/// single `u16` load instead of coordinate arithmetic. Built only where
/// the memory is trivially affordable and the closed form actually does
/// work (the 3-D torus coordinate math); a full table for the
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
    pub(crate) const MAX_NODES: usize = 2048;

    /// Build the table for `topo`, or `None` when the topology is not the
    /// torus (fully connected is already a compare) or has more than
    /// [`HopTable::MAX_NODES`] nodes.
    pub(crate) fn build(topo: &Topology) -> Option<HopTable> {
        if !matches!(topo, Topology::Torus3d { .. }) {
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
    pub(crate) fn get(&self, a: NodeId, b: NodeId) -> u32 {
        self.hops[a * self.n + b] as u32
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::FullyConnected { nodes } => write!(f, "fully-connected({nodes})"),
            Topology::Torus3d { dims } => {
                write!(f, "torus {}x{}x{}", dims[0], dims[1], dims[2])
            }
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
    fn paper_torus_diameter() {
        let t = Topology::paper_torus();
        assert_eq!(t.nodes(), 32_768);
        assert_eq!(t.diameter(), 48); // 16 per dimension
    }

    #[test]
    fn fully_connected_is_one_hop() {
        let t = Topology::FullyConnected { nodes: 100 };
        assert_eq!(t.hops(13, 87), 1);
        assert_eq!(t.hops(13, 13), 0);
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
    fn hop_table_matches_closed_form() {
        for t in [
            Topology::Torus3d { dims: [4, 4, 4] },
            Topology::Torus3d { dims: [3, 4, 5] },
        ] {
            let table = t.hop_table().expect("a small torus qualifies");
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
    }
}
