//! # xsim-proc — the processor model
//!
//! xSim extracts performance data "based on a processor and a network
//! model" (paper §II-A). Its processor model scales the natively measured
//! execution time of a simulated process by a configurable factor; the
//! paper's experiments run the simulated compute nodes "at a speed 1000×
//! slower than a single 1.7 GHz AMD Opteron 6164 HE core" (§V-C).
//!
//! In xsim-rs, applications *declare* their work (see DESIGN.md §1 for why
//! this substitution preserves the experiments), and this crate converts
//! declared work into virtual time:
//!
//! * [`Work::native_time`] — "this phase takes t seconds on the reference
//!   core" (the direct analogue of xSim's measured native time),
//! * [`Work::flops`] / [`Work::mem_bytes`] — convenience units converted
//!   through the reference-core parameters.
//!
//! The conversion multiplies by the node [`ProcModel::slowdown`] factor
//! and divides by per-node speed overrides, supporting heterogeneous
//! simulated machines.

#![forbid(unsafe_code)]

pub mod power;

pub use power::{PowerModel, PowerReport};

use xsim_core::{Rank, SimTime};

/// A quantity of computational work declared by an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// Time the work takes on one reference core (native seconds).
    NativeTime(SimTime),
    /// Floating-point operations; converted via the reference core's
    /// sustained flop rate.
    Flops(u64),
    /// Bytes moved through the memory subsystem; converted via the
    /// reference core's sustained memory bandwidth.
    MemBytes(u64),
}

impl Work {
    /// Work expressed as native reference-core time.
    pub fn native_time(t: SimTime) -> Self {
        Work::NativeTime(t)
    }

    /// Work expressed in floating-point operations.
    pub fn flops(n: u64) -> Self {
        Work::Flops(n)
    }

    /// Work expressed in bytes of memory traffic.
    pub fn mem_bytes(n: u64) -> Self {
        Work::MemBytes(n)
    }
}

/// Reference-core characteristics used to convert work units into native
/// time. Defaults approximate one 1.7 GHz AMD Opteron 6164 HE core, the
/// paper's reference (§V-A).
#[derive(Debug, Clone, Copy)]
pub struct RefCore {
    /// Sustained floating-point rate, flop/s.
    pub flops_per_sec: f64,
    /// Sustained memory bandwidth, bytes/s.
    pub mem_bytes_per_sec: f64,
}

impl Default for RefCore {
    fn default() -> Self {
        RefCore {
            // 1.7 GHz, ~2 flops/cycle sustained for stencil-like code.
            flops_per_sec: 3.4e9,
            // Per-core share of socket memory bandwidth.
            mem_bytes_per_sec: 4.0e9,
        }
    }
}

/// The processor model: maps `(rank, work)` to virtual time.
///
/// ```
/// use xsim_proc::{ProcModel, Work};
/// use xsim_core::{Rank, SimTime};
///
/// // The paper's configuration: nodes 1000x slower than the reference core.
/// let model = ProcModel::with_slowdown(1000.0);
/// let t = model.virtual_time(Rank(0), Work::native_time(SimTime::from_millis(1)));
/// assert_eq!(t, SimTime::from_secs(1));
/// ```
#[derive(Debug, Clone)]
pub struct ProcModel {
    /// Reference-core parameters.
    pub ref_core: RefCore,
    /// Uniform slowdown of every simulated node relative to the reference
    /// core. The paper's experiments use 1000.0 (§V-C); 1.0 simulates
    /// nodes as fast as the reference core.
    pub slowdown: f64,
    /// Optional per-node relative speed overrides (`1.0` = nominal,
    /// `2.0` = twice as fast). Sparse: most co-design studies perturb only
    /// a few nodes. Entries are `(rank, speed)`.
    overrides: Vec<(Rank, f64)>,
}

impl Default for ProcModel {
    fn default() -> Self {
        ProcModel {
            ref_core: RefCore::default(),
            slowdown: 1.0,
            overrides: Vec::new(),
        }
    }
}

impl ProcModel {
    /// Model with a uniform slowdown factor (the paper's configuration
    /// style).
    pub fn with_slowdown(slowdown: f64) -> Self {
        assert!(
            slowdown.is_finite() && slowdown > 0.0,
            "slowdown must be positive"
        );
        ProcModel {
            slowdown,
            ..Default::default()
        }
    }

    /// Set the reference core parameters.
    pub fn ref_core(mut self, rc: RefCore) -> Self {
        self.ref_core = rc;
        self
    }

    /// Override the relative speed of one simulated node. Speeds compose
    /// with the global slowdown: effective factor = `slowdown / speed`.
    pub fn override_speed(mut self, rank: Rank, speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        self.overrides.retain(|(r, _)| *r != rank);
        self.overrides.push((rank, speed));
        self
    }

    /// Relative speed of `rank` (1.0 unless overridden).
    pub fn speed_of(&self, rank: Rank) -> f64 {
        self.overrides
            .iter()
            .find(|(r, _)| *r == rank)
            .map(|(_, s)| *s)
            .unwrap_or(1.0)
    }

    /// Native reference-core time for a quantity of work.
    pub fn native_time(&self, work: Work) -> SimTime {
        match work {
            Work::NativeTime(t) => t,
            Work::Flops(n) => SimTime::from_secs_f64(n as f64 / self.ref_core.flops_per_sec),
            Work::MemBytes(n) => SimTime::from_secs_f64(n as f64 / self.ref_core.mem_bytes_per_sec),
        }
    }

    /// Virtual time `work` takes on the node hosting `rank`.
    pub fn virtual_time(&self, rank: Rank, work: Work) -> SimTime {
        self.native_time(work)
            .scale(self.slowdown / self.speed_of(rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_time_passthrough() {
        let m = ProcModel::default();
        let t = SimTime::from_millis(7);
        assert_eq!(m.virtual_time(Rank(0), Work::native_time(t)), t);
    }

    #[test]
    fn slowdown_scales_time() {
        let m = ProcModel::with_slowdown(1000.0);
        assert_eq!(
            m.virtual_time(Rank(0), Work::native_time(SimTime::from_millis(1))),
            SimTime::from_secs(1)
        );
    }

    #[test]
    fn flops_convert_via_ref_core() {
        let m = ProcModel::default().ref_core(RefCore {
            flops_per_sec: 1e9,
            mem_bytes_per_sec: 1e9,
        });
        assert_eq!(
            m.virtual_time(Rank(0), Work::flops(2_000_000_000)),
            SimTime::from_secs(2)
        );
        assert_eq!(
            m.virtual_time(Rank(0), Work::mem_bytes(500_000_000)),
            SimTime::from_millis(500)
        );
    }

    #[test]
    fn per_node_override_composes() {
        let m = ProcModel::with_slowdown(100.0).override_speed(Rank(3), 2.0);
        let w = Work::native_time(SimTime::from_millis(10));
        assert_eq!(m.virtual_time(Rank(0), w), SimTime::from_secs(1));
        assert_eq!(m.virtual_time(Rank(3), w), SimTime::from_millis(500));
    }

    #[test]
    fn override_replaces_previous() {
        let m = ProcModel::default()
            .override_speed(Rank(1), 2.0)
            .override_speed(Rank(1), 4.0);
        assert_eq!(m.speed_of(Rank(1)), 4.0);
    }

    #[test]
    #[should_panic(expected = "slowdown must be positive")]
    fn rejects_nonpositive_slowdown() {
        let _ = ProcModel::with_slowdown(0.0);
    }

    #[test]
    fn zero_work_is_zero_time() {
        let m = ProcModel::with_slowdown(1000.0);
        assert_eq!(m.virtual_time(Rank(0), Work::flops(0)), SimTime::ZERO);
    }
}
