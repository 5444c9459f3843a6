//! MPI-level errors and error handlers.

use std::fmt;
use std::sync::Arc;
use xsim_core::{Rank, SimTime};

/// Errors returned by simulated MPI operations.
#[derive(Debug, Clone)]
pub enum MpiError {
    /// A peer process the operation depends on has failed. This is the
    /// simulated analogue of ULFM's `MPI_ERR_PROC_FAILED` and the error
    /// the timeout-based failure detector raises (paper §IV-C).
    ProcFailed {
        /// The failed peer (world rank).
        rank: Rank,
        /// Its (actual) time of failure.
        time_of_failure: SimTime,
    },
    /// The job aborted (simulated `MPI_Abort`, paper §IV-D). Propagate
    /// this out of the application immediately.
    Aborted {
        /// Virtual time of the abort.
        time: SimTime,
    },
    /// The communicator was revoked (`MPI_Comm_revoke`, ULFM).
    Revoked,
    /// A parameter error: unknown communicator, rank out of range, …
    Invalid(&'static str),
    /// A simulated file-I/O error surfaced through MPI-IO-style helpers.
    Io(String),
}

impl MpiError {
    /// Whether this error means the whole job is going down and the
    /// application should unwind without further MPI calls.
    pub(crate) fn is_fatal(&self) -> bool {
        matches!(self, MpiError::Aborted { .. })
    }
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::ProcFailed {
                rank,
                time_of_failure,
            } => {
                write!(
                    f,
                    "MPI_ERR_PROC_FAILED: rank {rank} failed at {time_of_failure}"
                )
            }
            MpiError::Aborted { time } => write!(f, "MPI job aborted at {time}"),
            MpiError::Revoked => write!(f, "MPI_ERR_REVOKED: communicator revoked"),
            MpiError::Invalid(what) => write!(f, "invalid MPI argument: {what}"),
            MpiError::Io(e) => write!(f, "MPI I/O error: {e}"),
        }
    }
}

impl std::error::Error for MpiError {}

/// Per-communicator error handler (paper §IV-D: "xSim does support other
/// error handlers, such as `MPI_ERRORS_RETURN` and user-defined error
/// handlers").
#[derive(Clone)]
pub enum ErrHandler {
    /// Default: any detected process failure triggers `MPI_Abort`
    /// (`MPI_ERRORS_ARE_FATAL`).
    Fatal,
    /// Errors are returned to the caller (`MPI_ERRORS_RETURN`) — the
    /// foundation for application-level fault tolerance and ULFM.
    Return,
    /// User-defined: the callback observes the error, then the error is
    /// returned to the caller.
    Custom(Arc<dyn Fn(&MpiError) + Send + Sync>),
}

impl fmt::Debug for ErrHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrHandler::Fatal => write!(f, "ErrorsAreFatal"),
            ErrHandler::Return => write!(f, "ErrorsReturn"),
            ErrHandler::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fatality() {
        assert!(MpiError::Aborted {
            time: SimTime::ZERO
        }
        .is_fatal());
        assert!(!MpiError::ProcFailed {
            rank: Rank(1),
            time_of_failure: SimTime::ZERO
        }
        .is_fatal());
        assert!(!MpiError::Revoked.is_fatal());
    }

    #[test]
    fn display_is_informative() {
        let e = MpiError::ProcFailed {
            rank: Rank(7),
            time_of_failure: SimTime::from_secs(3),
        };
        assert!(format!("{e}").contains("rank 7"));
    }
}
