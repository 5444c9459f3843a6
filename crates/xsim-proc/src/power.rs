//! Node power model.
//!
//! The paper's overall approach includes "(4) model the power
//! consumption of the entire simulated system" and names the
//! performance/resilience/power trade-off as the co-design goal (§III-A,
//! §VI future work (5)). This module provides the per-node power model;
//! the MPI layer accounts busy time per rank and the builder integrates
//! both into an energy report, so experiments can weigh checkpoint
//! intervals and failure rates against energy.

use xsim_core::SimTime;

/// Per-node electrical model: a busy/idle two-state abstraction, the
/// standard first-order model for system-level energy studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Power draw while the node computes, watts.
    pub active_watts: f64,
    /// Power draw while the node idles or waits on communication/I/O,
    /// watts.
    pub idle_watts: f64,
    /// Additional energy per MPI message sent (NIC + switch share),
    /// joules.
    pub joules_per_message: f64,
    /// Additional energy per byte moved across the network, joules.
    pub joules_per_byte: f64,
}

impl PowerModel {
    /// A 2010s-era HPC node in the paper's machine class: ~300 W busy,
    /// ~150 W idle, ~1 µJ per message, ~50 pJ/byte on the wire.
    pub fn typical_node() -> Self {
        PowerModel {
            active_watts: 300.0,
            idle_watts: 150.0,
            joules_per_message: 1.0e-6,
            joules_per_byte: 50.0e-12,
        }
    }

    /// Network energy for a traffic volume.
    pub(crate) fn network_energy(&self, messages: u64, bytes: u64) -> f64 {
        self.joules_per_message * messages as f64 + self.joules_per_byte * bytes as f64
    }
}

/// Aggregate energy accounting of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Total energy across all simulated nodes, joules.
    pub total_joules: f64,
    /// Compute (busy) share of the node energy, joules.
    pub busy_joules: f64,
    /// Idle/wait share of the node energy, joules.
    pub idle_joules: f64,
    /// Network share, joules.
    pub network_joules: f64,
    /// Machine-wide busy fraction (Σ busy / Σ wall).
    pub busy_fraction: f64,
}

impl PowerReport {
    /// Assemble a report from per-rank busy times, final clocks and
    /// traffic volume. `clocks` and `busy` are indexed by rank and must
    /// have equal lengths; each rank is charged until its own final
    /// clock (a failed rank's node is presumed powered off afterwards).
    pub fn assemble(
        model: &PowerModel,
        busy: &[SimTime],
        clocks: &[SimTime],
        start: SimTime,
        messages: u64,
        bytes: u64,
    ) -> PowerReport {
        assert_eq!(busy.len(), clocks.len());
        let mut busy_j = 0.0;
        let mut idle_j = 0.0;
        let mut busy_total = 0u128;
        let mut wall_total = 0u128;
        for (b, c) in busy.iter().zip(clocks) {
            let wall = *c - start;
            let b = (*b).min(wall);
            busy_j += model.active_watts * b.as_secs_f64();
            idle_j += model.idle_watts * (wall - b).as_secs_f64();
            busy_total += b.as_nanos() as u128;
            wall_total += wall.as_nanos() as u128;
        }
        let network_joules = model.network_energy(messages, bytes);
        PowerReport {
            total_joules: busy_j + idle_j + network_joules,
            busy_joules: busy_j,
            idle_joules: idle_j,
            network_joules,
            busy_fraction: if wall_total == 0 {
                0.0
            } else {
                busy_total as f64 / wall_total as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel {
            active_watts: 200.0,
            idle_watts: 100.0,
            joules_per_message: 1e-6,
            joules_per_byte: 1e-9,
        }
    }

    #[test]
    fn network_energy_scales() {
        let m = model();
        assert_eq!(m.network_energy(1_000_000, 1_000_000_000), 1.0 + 1.0);
    }

    #[test]
    fn report_assembles_per_rank() {
        let m = model();
        let busy = [SimTime::from_secs(4), SimTime::from_secs(10)];
        let clocks = [SimTime::from_secs(10), SimTime::from_secs(10)];
        let r = PowerReport::assemble(&m, &busy, &clocks, SimTime::ZERO, 0, 0);
        // Rank 0: 4*200 + 6*100 = 1400; rank 1: 10*200 = 2000.
        assert_eq!(r.busy_joules, 4.0 * 200.0 + 10.0 * 200.0);
        assert_eq!(r.idle_joules, 6.0 * 100.0);
        assert_eq!(r.total_joules, 3400.0);
        assert!((r.busy_fraction - 0.7).abs() < 1e-12);
    }

    #[test]
    fn report_respects_start_offset() {
        let m = model();
        let busy = [SimTime::from_secs(1)];
        let clocks = [SimTime::from_secs(11)];
        let r = PowerReport::assemble(&m, &busy, &clocks, SimTime::from_secs(1), 0, 0);
        // Wall = 10 s, busy 1 s.
        assert_eq!(r.total_joules, 200.0 + 9.0 * 100.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = PowerReport::assemble(&model(), &[], &[], SimTime::ZERO, 0, 0);
        assert_eq!(r.total_joules, 0.0);
        assert_eq!(r.busy_fraction, 0.0);
    }
}
