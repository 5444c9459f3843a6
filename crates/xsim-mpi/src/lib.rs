//! # xsim-mpi — the simulated MPI layer
//!
//! This crate implements the MPI semantics xSim exposes to simulated
//! applications (paper §IV):
//!
//! * **Simulated MPI process execution** (§IV-A): applications run as
//!   virtual processes over the xsim-core engine; every MPI call yields
//!   to the simulator and advances the caller's virtual clock according
//!   to the network/processor models.
//! * **Point-to-point and collectives**: send/recv/isend/irecv with
//!   `MPI_ANY_SOURCE`/`MPI_ANY_TAG`, wait/test/waitall/waitany, and
//!   linear-algorithm collectives (§V-C) plus binomial-tree ablation
//!   variants.
//! * **Failure injection/propagation/detection/notification** (§IV-B/C):
//!   scheduled process failures activate on clock updates; a
//!   simulator-internal notification is broadcast; pending operations
//!   towards failed peers complete with `MPI_ERR_PROC_FAILED` after the
//!   per-network communication timeout.
//! * **Simulated `MPI_Abort`** (§IV-D): with the default
//!   `MPI_ERRORS_ARE_FATAL` handler, a detected failure aborts the whole
//!   job; each process observes the abort when its clock reaches the
//!   abort time; the run terminates once all processes aborted.
//! * **ULFM** (§VI): `MPI_ERR_PROC_FAILED`, `MPI_Comm_revoke`,
//!   `MPI_Comm_shrink`, `MPI_Comm_failure_ack`/`get_acked`.
//!
//! Applications use [`MpiCtx`]; runs are configured through
//! [`SimBuilder`].

pub mod abort;
pub mod builder;
pub mod collective;
pub mod comm;
pub mod error;
pub mod mpi_ctx;
pub mod msg;
pub mod p2p;
pub mod redundancy;
pub mod replication;
pub mod request;
mod smallmap;
pub mod state;
pub mod ulfm;

pub use builder::{RunReport, SimBuilder};
pub use collective::ReduceOp;
pub use comm::{Comm, CommId};
pub use error::{ErrHandler, MpiError};
pub use mpi_ctx::{mpi_program, MpiCtx};
pub use redundancy::{Redundant, Verdict};
pub use replication::{
    CkptMode, HeartbeatConfig, ProtectionParseError, ProtectionScheme, RepReq, ReplicaMap,
    Replicated,
};
pub use request::{RecvOut, ReqId};
pub use state::{CollAlgo, Detector, LossyTransport, MpiStats, MpiWorld, TxOutcome};
pub use xsim_core::EngineKind;
pub use xsim_obs::{PhaseKind, Trace};
