//! Virtual simulation time.
//!
//! xSim maintains a separate virtual clock per simulated MPI process
//! (paper §IV-A). We represent virtual time as unsigned nanoseconds, which
//! gives a deterministic total order (no floating-point accumulation error)
//! and a range of ~584 years — far beyond the multi-hour horizons of the
//! paper's experiments.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) on the virtual time axis, in nanoseconds.
///
/// `SimTime` is used both for absolute timestamps and durations; the
/// arithmetic is saturating on overflow so pathological model parameters
/// degrade gracefully instead of wrapping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero timestamp (simulation start, unless continued from a
    /// previous run — see the checkpoint/restart layer).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time, used as an "infinity" sentinel by
    /// the engines when computing the next event window.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    /// Construct from fractional seconds. Negative and non-finite inputs
    /// clamp to zero; values beyond the representable range clamp to
    /// [`SimTime::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            // NaN and non-positive inputs clamp to zero.
            return SimTime::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ns as u64)
        }
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional seconds (lossy above 2^53 ns, i.e. ~104 days;
    /// fine for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    #[inline]
    pub(crate) const fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub(crate) const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Scale a duration by a dimensionless factor, rounding to nearest
    /// nanosecond and saturating. Used by the processor model to apply
    /// slowdown factors.
    pub fn scale(self, factor: f64) -> SimTime {
        if !factor.is_finite() || factor <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = self.0 as f64 * factor;
        if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ns.round() as u64)
        }
    }

    /// The larger of two times.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub(crate) fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Honor width/alignment flags (used by table harnesses).
        f.pad(&format!("{:.6} s", self.as_secs_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_nanos(3).as_nanos(), 3);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::MAX + SimTime::from_secs(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimTime::from_secs(1), SimTime::ZERO);
        assert_eq!(
            SimTime::from_secs(5) - SimTime::from_secs(2),
            SimTime::from_secs(3)
        );
    }

    #[test]
    fn scale_rounds_and_clamps() {
        assert_eq!(
            SimTime::from_secs(1).scale(1000.0),
            SimTime::from_secs(1000)
        );
        assert_eq!(SimTime::from_secs(1).scale(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(1).scale(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::MAX.scale(2.0), SimTime::MAX);
        // Rounding to nearest.
        assert_eq!(SimTime(3).scale(0.5), SimTime(2)); // 1.5 rounds to 2
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000 s");
    }
}
