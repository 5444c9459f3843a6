//! MPI process-failure schedules.
//!
//! xSim accepts "a simulated MPI process failure schedule in the form of
//! rank/time pairs on the command line or via an environment variable"
//! (paper §IV-B). [`FailureSchedule`] is the same concept: a list of
//! `(rank, earliest failure time)` pairs. Its text form
//! `rank:seconds[,rank:seconds...]` is the process-failure subset of the
//! [`FaultSchedule`](crate::FaultSchedule) grammar, which parses it.

use std::fmt;
use xsim_core::SimTime;

/// A failure schedule: `(rank, scheduled time)` pairs. The scheduled
/// time is the *earliest* time of failure; actual activation follows the
/// paper's clock-update rule (§IV-B).
///
/// ```
/// use xsim_fault::FaultSchedule;
/// use xsim_core::SimTime;
///
/// let schedule = "12:3500.5,99:120".parse::<FaultSchedule>()?.rank_failures();
/// assert_eq!(schedule.len(), 2);
/// assert_eq!(schedule.entries()[0], (12, SimTime::from_secs_f64(3500.5)));
/// # Ok::<(), xsim_fault::schedule::ParseError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSchedule {
    entries: Vec<(usize, SimTime)>,
}

/// Error parsing a schedule string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid failure schedule: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl FailureSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one failure.
    pub fn push(&mut self, rank: usize, at: SimTime) {
        self.entries.push((rank, at));
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, rank: usize, at: SimTime) -> Self {
        self.push(rank, at);
        self
    }

    /// The scheduled failures.
    pub fn entries(&self) -> &[(usize, SimTime)] {
        &self.entries
    }

    /// Number of scheduled failures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Shift every entry by `offset` (used when a schedule expressed
    /// relative to a run start is applied to a continued virtual
    /// timeline, paper §IV-E).
    pub fn offset_by(&self, offset: SimTime) -> FailureSchedule {
        FailureSchedule {
            entries: self
                .entries
                .iter()
                .map(|(r, t)| (*r, offset + *t))
                .collect(),
        }
    }

    /// Re-address every entry through a rank map (team-aware schedules:
    /// a schedule authored against *logical* ranks is remapped onto the
    /// physical ranks of a replicated world — e.g. onto each logical
    /// rank's primary, or a chosen replica).
    pub fn map_ranks(&self, f: impl Fn(usize) -> usize) -> FailureSchedule {
        FailureSchedule {
            entries: self.entries.iter().map(|(r, t)| (f(*r), *t)).collect(),
        }
    }

    /// Iterate as `(rank, time)` pairs suitable for
    /// `SimBuilder::inject_failures`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        self.entries.iter().copied()
    }
}

/// The time field of the schedule grammar: non-negative, finite
/// seconds, rounded to the nearest nanosecond. Rounding (where
/// [`SimTime::from_secs_f64`] truncates) is what makes `Display` →
/// `FromStr` exact: 15 ns prints as `0.000000015`, which is 14.99… ns
/// once multiplied back in `f64`.
pub(crate) fn parse_secs(s: &str, item: &str) -> Result<SimTime, ParseError> {
    let secs: f64 = s
        .trim()
        .parse()
        .map_err(|_| ParseError(format!("bad time in '{item}'")))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(ParseError(format!(
            "negative or non-finite time in '{item}'"
        )));
    }
    Ok(SimTime((secs * 1e9).round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_shifts_times() {
        let s = FailureSchedule::new().with(1, SimTime::from_secs(5));
        let o = s.offset_by(SimTime::from_secs(100));
        assert_eq!(o.entries()[0], (1, SimTime::from_secs(105)));
    }

    #[test]
    fn map_ranks_readdresses_entries() {
        let s = FailureSchedule::new()
            .with(0, SimTime::from_secs(5))
            .with(3, SimTime::from_secs(7));
        // Logical → replica-1 physical under a full degree-2 layout of 4
        // logical ranks (shadow of L at 4 + L).
        let m = s.map_ranks(|logical| 4 + logical);
        assert_eq!(
            m.entries(),
            &[(4, SimTime::from_secs(5)), (7, SimTime::from_secs(7))]
        );
        // Times are untouched.
        assert_eq!(
            m.offset_by(SimTime::ZERO).entries()[1].1,
            SimTime::from_secs(7)
        );
    }
}
