//! # xsim-rs
//!
//! A from-scratch Rust reproduction of the Extreme-scale Simulator
//! (xSim) resilience extensions described in Engelmann & Naughton,
//! *"Toward a Performance/Resilience Tool for Hardware/Software
//! Co-Design of High-Performance Computing Systems"*, ICPP 2013.
//!
//! The workspace is layered; this facade re-exports every component:
//!
//! * [`core`] — deterministic PDES engine with lightweight virtual
//!   processes (sequential + conservative parallel).
//! * [`proc`] — processor model (work → virtual time, slowdown factors).
//! * [`net`] — network model (torus/mesh/hypercube topologies,
//!   eager/rendezvous protocols, per-network failure-detection
//!   timeouts, fault-aware routing around dead/degraded links).
//! * [`fs`] — simulated parallel file system (shared across restarts,
//!   two-phase writes, I/O fault injection).
//! * [`mpi`] — simulated MPI layer (p2p, linear collectives, error
//!   handlers, failure injection/detection/notification, abort, ULFM,
//!   lossy transport with retransmission + backoff).
//! * [`fault`] — failure schedules, component-addressed network fault
//!   schedules (links/switches), MTTF-driven random injection, bit-flip
//!   campaigns, soft-error injection.
//! * [`ckpt`] — checksummed application-level checkpoint/restart and the
//!   run→abort→restart orchestrator with continuous virtual timing.
//! * [`obs`] — observability: metrics registry (counters, gauges,
//!   histograms) across every subsystem, the run's span timeline (MPI
//!   phases and file I/O) and its Chrome/Perfetto export.
//! * [`apps`] — the paper's 3-D heat application and companions.
//!
//! ## Quickstart
//!
//! ```
//! use xsim::prelude::*;
//!
//! let report = SimBuilder::new(4)
//!     .net(NetModel::small(4))
//!     .run_app(|mpi| async move {
//!         let w = mpi.world();
//!         if mpi.rank == 0 {
//!             mpi.send(w, 1, 0, Bytes::from_static(b"hello")).await?;
//!         } else if mpi.rank == 1 {
//!             let msg = mpi.recv(w, Some(0), Some(0)).await?;
//!             assert_eq!(&msg.data[..], b"hello");
//!         }
//!         mpi.finalize();
//!         Ok(())
//!     })
//!     .unwrap();
//! assert_eq!(report.sim.exit, ExitKind::Completed);
//! ```

pub use xsim_apps as apps;
pub use xsim_ckpt as ckpt;
pub use xsim_core as core;
pub use xsim_fault as fault;
pub use xsim_fs as fs;
pub use xsim_mpi as mpi;
pub use xsim_net as net;
pub use xsim_obs as obs;
pub use xsim_proc as proc;

/// The most commonly used items in one import.
pub mod prelude {
    pub use xsim_ckpt::{
        CampaignResult, Checkpoint, CheckpointManager, Orchestrator, ProtectionCampaign,
    };
    pub use xsim_core::{
        Bytes, EngineKind, EngineProfile, ExitKind, Rank, SimError, SimReport, SimTime,
    };
    pub use xsim_fault::{FailureModel, FailureSchedule, FaultSchedule, NetReliability};
    pub use xsim_fs::{FsModel, FsStore};
    pub use xsim_mpi::{
        Comm, Detector, ErrHandler, HeartbeatConfig, LossyTransport, MpiCtx, MpiError,
        ProtectionScheme, ReduceOp, ReplicaMap, Replicated, RunReport, SimBuilder,
    };
    pub use xsim_net::{
        Link, LinkFaultKind, LinkStateTable, NetClass, NetFault, NetModel, Topology,
    };
    pub use xsim_obs::{ids as metric_ids, ObsReport};
    pub use xsim_proc::{ProcModel, Work};
}
