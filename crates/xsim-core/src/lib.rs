//! # xsim-core — deterministic PDES microkernel
//!
//! This crate is the substrate of the xsim-rs toolkit: a deterministic
//! (optionally parallel, conservative) discrete event simulation engine that
//! executes large numbers of *virtual processes* (VPs) in a highly
//! oversubscribed fashion, exactly like the Extreme-scale Simulator (xSim)
//! described in Engelmann & Naughton, ICPP 2013.
//!
//! The design mirrors the published xSim execution model (§IV-A of the
//! paper):
//!
//! * Each simulated MPI rank is a VP with its own execution context and its
//!   own **virtual clock**. Here a VP context is a stackless coroutine (a
//!   boxed [`Future`](core::future::Future)) instead of a user-space thread
//!   with swapped CPU registers; the observable semantics — context switches
//!   happen only when the VP performs a simulator call — are identical.
//! * The simulator retains full control of the schedule. One VP executes at
//!   a time per native worker; the rest are suspended.
//! * VP clocks advance only when the VP performs a timed operation
//!   (compute/sleep, communication, file I/O) or when the kernel resumes it
//!   with a later-timestamped event.
//! * Failure injection follows the paper's activation rule: the scheduled
//!   time of failure is the *earliest* time of failure; a VP actually fails
//!   when the simulator regains control and observes the VP clock at or past
//!   the scheduled time (§IV-B).
//!
//! Layering: this crate knows nothing about MPI, networks, processors or
//! file systems. Upper layers (xsim-mpi, xsim-net, …) install per-worker
//! *services* into the kernel and schedule closure events that manipulate
//! them. This is the "simulator-internal function/message" mechanism of the
//! paper, generalized.
//!
//! ## Engines
//!
//! * [`engine::run_sequential`] — reference engine, processes events in
//!   global `(time, dst, src, seq)` order.
//! * [`engine::run`] — dispatches to the sequential engine or to a
//!   conservative windowed parallel engine (lookahead = minimum cross-rank
//!   event delay). Both produce bit-identical virtual-time results.

#![forbid(unsafe_code)]

pub mod config;
pub mod ctx;
pub mod deadlock;
pub mod engine;
pub mod error;
pub mod event;
pub mod kernel;
pub mod payload;
pub mod queue;
pub mod rank;
pub mod report;
pub mod rng;
pub mod service;
pub mod time;
pub mod vp;

pub use config::{CoreConfig, EngineKind};
pub use ctx::{block, now, sleep, with_kernel, yield_now};
pub use error::SimError;
pub use event::{Action, Call, EventKey, EventRec};
pub use kernel::Kernel;
pub use payload::Bytes;
pub use queue::{EventQueue, QueueStats};
pub use rank::Rank;
pub use report::{EngineProfile, ExitKind, ShardStats, SimReport, VpTimingStats};
pub use rng::DetRng;
pub use service::Service;
pub use time::SimTime;
pub use vp::{VpExit, VpMut, VpProgram, VpRef, VpState, VpTable, WaitClass, WaitToken};
