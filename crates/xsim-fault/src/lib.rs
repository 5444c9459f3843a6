//! # xsim-fault — fault injection
//!
//! The fault-injection surface of the toolkit (paper §III/IV plus the
//! Finject/RedMPI lineage of §II-C):
//!
//! * [`schedule`] — MPI process-failure schedules as rank/time pairs
//!   ("the typical method for injecting failures", §IV-B); their text
//!   form parses through [`FaultSchedule`].
//! * [`random`] — MTTF-driven random injection: "a random MPI rank …
//!   and a random time within 2·MTTF_s … applies to each application run
//!   separately" (§V-C), plus an exponential variant.
//! * [`bitflip`] — a simulated victim process with a structured memory
//!   image and a ptrace-style bit-flip injector; the campaign runner
//!   reproduces the statistics of the paper's Table I.
//! * [`reliability`] — component-based system reliability models (FIT
//!   rates composed into node/system failure processes, the announced
//!   future-work item (2) of §VI).
//! * [`netfault`] — component-addressed fault schedules generalizing
//!   rank/time pairs to links and switches (permanent, transient,
//!   degraded), with FIT-driven generation for the interconnect.
//! * [`soft`] — a soft-error (silent data corruption) injector for
//!   application-registered memory, the capability the paper's
//!   conclusion announces ("tracking of dynamic memory allocation …
//!   the last piece needed to develop a soft error injector", §VI).

pub mod bitflip;
pub mod netfault;
pub mod random;
pub mod reliability;
pub mod schedule;
pub mod soft;

pub use bitflip::{CampaignStats, FlipOutcome, Victim, VictimLayout};
pub use netfault::{Fault, FaultComponent, FaultKind, FaultSchedule, NetReliability};
pub use random::{FailureModel, RunDraw};
pub use reliability::{Component, NodeReliability, SystemReliability};
pub use schedule::FailureSchedule;
pub use soft::{SoftErrorPlan, SoftErrorService};
