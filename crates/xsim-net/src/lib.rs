//! # xsim-net — the network model
//!
//! xSim observes application performance "based on a processor and a
//! network model" (paper §II-A). This crate implements the network half:
//!
//! * [`Topology`] — the simulated interconnect shape: the 3-D wrapped
//!   torus of the paper's experiments (32×32×32, §V-C) or a
//!   fully-connected crossbar for small test machines.
//! * [`Link`] — per-hop latency, bandwidth, and the **communication
//!   timeout** used by the simulated MPI process-failure detector: "each
//!   simulated network, such as the on-chip, on-node, and system-wide
//!   network, has its own network communication timeout" (§IV-C).
//! * [`NetModel`] — end-to-end point-to-point timing with **eager vs.
//!   rendezvous** protocol selection at a configurable threshold (the
//!   paper's configuration: 256 KiB, §V-C).
//! * [`LinkStateTable`] — link/switch fault state over
//!   [`Topology::torus_neighbors`] with fault-aware minimal routing:
//!   reroute around dead links (hop inflation), degraded-link bandwidth,
//!   and true-partition detection ([`NetModel::p2p_at`]).

#![forbid(unsafe_code)]

pub mod fault;
pub mod model;
pub mod topology;

pub use fault::{LinkFaultKind, LinkStateTable, NetFault};
pub use model::{Link, NetClass, NetModel};
pub use topology::{NodeId, Topology};
