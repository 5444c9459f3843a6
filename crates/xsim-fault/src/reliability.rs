//! Component-based system reliability models.
//!
//! The paper's future work item (2) is "developing component-based
//! system reliability models" (§VI); its related-work section defines
//! the industry metric: "FIT, the number of failures that can be
//! expected in 10⁹ hours of operation" (§II-B). This module composes
//! per-component FIT rates into node and system failure processes and
//! generates concrete failure schedules for the injector.

use crate::schedule::FailureSchedule;
use xsim_core::{DetRng, SimTime};

/// Hours per FIT denominator (10⁹ device-hours).
const FIT_HOURS: f64 = 1.0e9;

/// A component class with a FIT rate, e.g. a DIMM, a CPU socket, a NIC,
/// a voltage regulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Human-readable name.
    pub name: String,
    /// Failures per 10⁹ operating hours (FIT).
    pub fit: f64,
}

impl Component {
    /// Define a component class.
    pub fn new(name: &str, fit: f64) -> Self {
        assert!(fit.is_finite() && fit >= 0.0, "FIT must be non-negative");
        Component {
            name: name.to_string(),
            fit,
        }
    }

    /// Failure rate in failures/hour.
    pub(crate) fn rate_per_hour(&self) -> f64 {
        self.fit / FIT_HOURS
    }
}

/// The reliability bill-of-materials of one compute node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeReliability {
    parts: Vec<(Component, u32)>,
}

impl NodeReliability {
    /// Empty bill of materials.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `count` instances of a component class.
    pub fn with(mut self, component: Component, count: u32) -> Self {
        self.parts.push((component, count));
        self
    }

    /// A representative 2010s HPC node: 2 CPU sockets, 16 DIMMs, 1 NIC,
    /// 1 board/PSU assembly. FIT values in the range reliability
    /// literature reports for server parts.
    pub fn typical_node() -> Self {
        NodeReliability::new()
            .with(Component::new("cpu-socket", 50.0), 2)
            .with(Component::new("dimm", 75.0), 16)
            .with(Component::new("nic", 100.0), 1)
            .with(Component::new("board+psu", 300.0), 1)
    }

    /// Aggregate node failure rate, failures/hour (series system: any
    /// component failure fails the node, rates add).
    pub(crate) fn rate_per_hour(&self) -> f64 {
        self.parts
            .iter()
            .map(|(c, n)| c.rate_per_hour() * *n as f64)
            .sum()
    }
}

/// A whole simulated machine: `n_nodes` identical nodes failing
/// independently (the exponential/series model vendors use to bound FIT,
/// paper §II-B).
///
/// ```
/// use xsim_core::SimTime;
/// use xsim_fault::{NodeReliability, SystemReliability};
///
/// // Typical parts on the paper's 32,768 nodes: a system MTTF of ~18 h,
/// // so ten days see about thirteen failures.
/// let machine = SystemReliability::new(NodeReliability::typical_node(), 32_768);
/// let failures = machine.generate_schedule(SimTime::from_secs(10 * 86_400), 1);
/// assert!(failures.len() > 5 && failures.len() < 25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReliability {
    /// Per-node model.
    pub node: NodeReliability,
    /// Number of nodes.
    pub n_nodes: usize,
}

impl SystemReliability {
    /// Compose a system from identical nodes.
    pub fn new(node: NodeReliability, n_nodes: usize) -> Self {
        SystemReliability { node, n_nodes }
    }

    /// Generate a concrete failure schedule over `[0, horizon)`: each
    /// node draws independent exponential inter-failure times; every
    /// failure before the horizon becomes a `(rank, time)` pair (node =
    /// rank under the paper's one-rank-per-node placement). Deterministic
    /// in `seed`.
    pub fn generate_schedule(&self, horizon: SimTime, seed: u64) -> FailureSchedule {
        let mut schedule = FailureSchedule::new();
        let node_rate = self.node.rate_per_hour();
        if node_rate <= 0.0 {
            return schedule;
        }
        let mean_secs = 3600.0 / node_rate;
        for node in 0..self.n_nodes {
            let mut rng = DetRng::stream(seed, 0x3E11_AB1E ^ (node as u64).rotate_left(17));
            let mut t = 0.0f64;
            loop {
                t += rng.gen_exponential(mean_secs);
                let at = SimTime::from_secs_f64(t);
                if at >= horizon {
                    break;
                }
                // A process dies once per run; subsequent failures of the
                // same node are still recorded for restart studies (the
                // node is repaired/replaced between runs).
                schedule.push(node, at);
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_is_failures_per_1e9_hours() {
        let c = Component::new("dimm", 1.0e9);
        assert_eq!(c.rate_per_hour(), 1.0);
        let c = Component::new("dimm", 100.0);
        assert!((c.rate_per_hour() - 1.0e-7).abs() < 1e-20);
    }

    #[test]
    fn node_rates_add_in_series() {
        let node = NodeReliability::new()
            .with(Component::new("a", 100.0), 2)
            .with(Component::new("b", 300.0), 1);
        // 2*100 + 300 = 500 FIT.
        assert!((node.rate_per_hour() - 500.0 / 1e9).abs() < 1e-18);
    }

    #[test]
    fn typical_node_rate_is_hpc_plausible() {
        let node = NodeReliability::typical_node();
        // 2*50 + 16*75 + 100 + 300 = 1700 FIT → MTTF ≈ 588k hours ≈ 67 years.
        assert!((node.rate_per_hour() - 1700.0 / 1e9).abs() < 1e-18);
    }

    #[test]
    fn zero_rate_never_fails() {
        let sys = SystemReliability::new(NodeReliability::new(), 100);
        assert!(sys
            .generate_schedule(SimTime::from_secs(1_000_000), 1)
            .is_empty());
    }

    #[test]
    fn schedule_generation_is_deterministic_and_bounded() {
        let sys = SystemReliability::new(NodeReliability::typical_node(), 4096);
        let horizon = SimTime::from_secs_f64(6.0 * 3600.0);
        let a = sys.generate_schedule(horizon, 42);
        let b = sys.generate_schedule(horizon, 42);
        assert_eq!(a, b);
        for (rank, at) in a.iter() {
            assert!(rank < 4096);
            assert!(at < horizon);
        }
        // Expected count ≈ n_nodes * horizon/node_mttf = 4096 * 6h/588kh
        // ≈ 0.042 ... small; over a long horizon more failures appear.
        let long = sys.generate_schedule(SimTime::from_secs_f64(2000.0 * 3600.0), 42);
        assert!(
            long.len() > 2,
            "long horizon should see failures: {}",
            long.len()
        );
        let c = sys.generate_schedule(horizon, 43);
        assert!(a != c || a.is_empty(), "different seeds should differ");
    }
}
