//! Engine-level error types.

use crate::rank::Rank;
use crate::time::SimTime;
use std::fmt;

/// Errors surfaced by the simulation engines.
#[derive(Debug)]
pub enum SimError {
    /// The event queue drained while one or more VPs were still blocked —
    /// the simulated application deadlocked. Carries a human-readable
    /// diagnosis produced by [`crate::deadlock`].
    Deadlock(String),
    /// The configured event budget was exceeded; guards against runaway
    /// models in tests and CI.
    EventBudgetExceeded { processed: u64 },
    /// Configuration was internally inconsistent (e.g. zero ranks, or a
    /// cross-rank event scheduled below the lookahead in parallel mode).
    Config(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(d) => write!(f, "simulation deadlock detected:\n{d}"),
            SimError::EventBudgetExceeded { processed } => {
                write!(f, "event budget exceeded after {processed} events")
            }
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Why a VP ceased execution before returning from its program.
///
/// Mirrors the paper's distinction between an injected *process failure*
/// (§IV-B) and a simulated *MPI abort* (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The VP's program returned normally.
    Finished,
    /// An injected process failure activated at the given virtual time.
    Failed(SimTime),
    /// The VP aborted (locally or via a propagated abort) at the given time.
    Aborted(SimTime),
}

/// A record of one activated (i.e. actually experienced) process failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureRecord {
    /// The rank that failed.
    pub rank: Rank,
    /// The *scheduled* (earliest possible) time of failure.
    pub scheduled: SimTime,
    /// The *actual* activation time: the VP clock when the simulator
    /// regained control at or past the scheduled time (paper §IV-B).
    pub actual: SimTime,
}
