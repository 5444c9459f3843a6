//! # xsim-obs — the observability layer
//!
//! xSim is "designed like a traditional performance tool" (paper §II-A)
//! and sits alongside trace-driven analyzers such as DIMEMAS, PARAVER
//! and Vampir. This crate provides the instrumentation substrate every
//! performance or resilience investigation of the simulator builds on:
//!
//! * [`MetricSet`] — a fixed-schema metrics registry (counters, gauges,
//!   fixed-bucket histograms). The schema is the static [`SPEC`] table;
//!   metric handles are `const` indices ([`ids`]), so the hot path is a
//!   bounds-checked array access with **no allocation and no hashing**.
//! * [`ObsService`] — the per-shard kernel service carrying one
//!   `MetricSet` plus a buffer of [`ObsSpan`]s. Installed when
//!   `SimBuilder::metrics(true)` (the registry) or `SimBuilder::trace(true)`
//!   (the spans) is on; when absent, every instrumentation site reduces
//!   to one failed `TypeId` lookup — near-zero cost when disabled.
//! * [`trace`] — the run's one timeline: every MPI phase and file-I/O
//!   interval as an [`ObsSpan`], assembled into a [`Trace`] (per-kind
//!   totals, compute fraction, streaming CSV).
//! * [`chrome`] — a streaming Chrome trace-event JSON writer
//!   (Perfetto-viewable) that the MPI layer exports the trace through.
//! * [`json`] — a dependency-free JSON value/parser used by the
//!   exporters and by tests that parse the emitted artifacts back.
//!
//! Layering: this crate depends only on `xsim-core`, so every other
//! subsystem (net, fs, ckpt, fault, mpi) can record into it.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod service;
pub mod trace;

pub use chrome::ChromeTraceWriter;
pub use json::Json;
pub use metrics::{ids, Hist, MetricDef, MetricKind, MetricSet, Unit, SPEC};
pub use service::{ObsReport, ObsService, ObsSink};
pub use trace::{ObsSpan, PhaseKind, Trace};
