//! End-of-run reporting.
//!
//! xSim prints per-process timing statistics (minimum, maximum, average)
//! during shutdown, for aborted and non-aborted executions alike (paper
//! §IV-D). [`SimReport`] captures the same data programmatically.

use crate::error::{FailureRecord, Termination};
use crate::time::SimTime;

/// How a whole simulation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Every VP finished normally.
    Completed,
    /// At least one VP aborted (simulated `MPI_Abort`); the run terminated
    /// after all VPs aborted or finished.
    Aborted,
    /// Every VP that didn't finish was failed by injection and no abort
    /// was triggered (possible with non-fatal error handlers).
    FailedOnly,
}

/// Aggregate min/max/average of per-VP final clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VpTimingStats {
    /// Smallest final VP clock.
    pub min: SimTime,
    /// Largest final VP clock — the "simulated time of the application
    /// exit" xSim persists for restart continuation (paper §IV-E).
    pub max: SimTime,
    /// Mean final VP clock.
    pub avg: SimTime,
}

impl VpTimingStats {
    /// Compute stats from final clocks. Returns zeros for an empty slice.
    pub(crate) fn from_clocks(clocks: &[SimTime]) -> Self {
        if clocks.is_empty() {
            return VpTimingStats {
                min: SimTime::ZERO,
                max: SimTime::ZERO,
                avg: SimTime::ZERO,
            };
        }
        let mut min = SimTime::MAX;
        let mut max = SimTime::ZERO;
        let mut total: u128 = 0;
        for &c in clocks {
            min = min.min(c);
            max = max.max(c);
            total += c.as_nanos() as u128;
        }
        VpTimingStats {
            min,
            max,
            avg: SimTime((total / clocks.len() as u128) as u64),
        }
    }
}

/// Per-shard engine counters, for attributing work and spotting load
/// imbalance between parallel workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard_id: usize,
    /// Events this shard processed.
    pub events_processed: u64,
    /// VP resumes this shard performed.
    pub context_switches: u64,
    /// High-water mark of this shard's pending-event queue.
    pub queue_depth_hwm: u64,
}

/// Parallel-engine execution profile: how the run was carved into
/// synchronization windows and what the barriers and queues cost.
///
/// All of these are *execution-shape* counters, not simulation results:
/// they vary with worker and thread count, shard count and wall-clock
/// scheduling (barrier waits are inherently timing-dependent), so they
/// are excluded from determinism comparisons. The sequential engine
/// reports all-zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineProfile {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Always 0: shard ownership is static. Kept only because the frozen
    /// `perf/` harness reads it; the next `benchmark` PR drops
    /// `core.engine.steals` and then this field.
    pub steals: u64,
    /// Total wall-clock nanoseconds all threads spent waiting at window
    /// barriers.
    pub barrier_wait_ns: u64,
    /// Wall-clock nanoseconds each thread spent in Phase B (processing
    /// its shards' windows), in thread order: its length is the run's
    /// thread count, the requested workers capped at the host's CPUs.
    pub worker_busy_ns: Vec<u64>,
    /// The sum, over windows, of the busiest thread's event count: the
    /// events a run would take with every window's slowest thread as its
    /// only clock. Deterministic for a fixed thread count.
    pub window_critical_events: u64,
    /// Cross-shard events delivered through the batched exchange.
    pub batched_events: u64,
    /// Largest single (src,dst) exchange batch observed.
    pub batch_max_events: u64,
    /// Always 0: every window ingests. Kept only because the frozen
    /// `perf/` harness reads it; the next `benchmark` PR drops
    /// `core.engine.ingest_skips` and then this field.
    pub ingest_skips: u64,
    /// Longest single barrier wait by any thread, in nanoseconds.
    pub window_barrier_hwm_ns: u64,
    /// Events pushed into the pending-event queues (all shards).
    /// Filled from [`crate::queue::QueueStats`] at report assembly.
    pub pool_pushes: u64,
    /// Pushes served from already-reserved queue capacity — no
    /// allocation. `pool_reused / pool_pushes` is the steady-state
    /// pool reuse ratio.
    pub pool_reused: u64,
    /// Largest number of events resident in a single calendar-queue
    /// bucket across all shards.
    pub queue_bucket_hwm: u64,
    /// Largest calendar-queue ring of any shard, in buckets.
    pub queue_ring_hwm: u64,
    /// Empty buckets the queues' window heads stepped over (all shards).
    pub queue_empty_steps: u64,
    /// Bulk redistribution passes of the queues (all shards) — see
    /// [`crate::queue::QueueStats::rebuilds`].
    pub queue_rebuilds: u64,
    /// Records the queues put through a comparison sort (all shards) —
    /// see [`crate::queue::QueueStats::sorted`].
    pub queue_sorted: u64,
}

impl EngineProfile {
    /// Fold another thread's profile into this one. Window counts are
    /// per-thread views of the same global window sequence, so they
    /// merge by max; busy times append, in the order threads merge; the
    /// rest are true totals.
    pub(crate) fn merge(&mut self, other: &EngineProfile) {
        self.windows = self.windows.max(other.windows);
        self.barrier_wait_ns += other.barrier_wait_ns;
        self.worker_busy_ns.extend_from_slice(&other.worker_busy_ns);
        self.window_critical_events += other.window_critical_events;
        self.batched_events += other.batched_events;
        self.batch_max_events = self.batch_max_events.max(other.batch_max_events);
        self.window_barrier_hwm_ns = self.window_barrier_hwm_ns.max(other.window_barrier_hwm_ns);
        self.pool_pushes += other.pool_pushes;
        self.pool_reused += other.pool_reused;
        self.queue_bucket_hwm = self.queue_bucket_hwm.max(other.queue_bucket_hwm);
        self.queue_ring_hwm = self.queue_ring_hwm.max(other.queue_ring_hwm);
        self.queue_empty_steps += other.queue_empty_steps;
        self.queue_rebuilds += other.queue_rebuilds;
        self.queue_sorted += other.queue_sorted;
    }

    /// Fraction of queue pushes served without allocating (0.0 when no
    /// events were pushed).
    pub fn pool_reuse_ratio(&self) -> f64 {
        if self.pool_pushes == 0 {
            0.0
        } else {
            self.pool_reused as f64 / self.pool_pushes as f64
        }
    }
}

/// The result of one simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// How the run ended.
    pub exit: ExitKind,
    /// Final virtual clock of each VP, indexed by rank.
    pub final_clocks: Vec<SimTime>,
    /// Per-VP termination cause, indexed by rank.
    pub terminations: Vec<Termination>,
    /// Min/max/avg of the final clocks.
    pub timing: VpTimingStats,
    /// Process failures that actually activated during the run, in
    /// activation order.
    pub failures: Vec<FailureRecord>,
    /// Virtual time of the first abort, if any.
    pub abort_time: Option<SimTime>,
    /// Total number of events processed.
    pub events_processed: u64,
    /// Run digest: the wrapping sum, over every executed event, of a
    /// 64-bit mix of its key `(time, dst, src, seq)` and its action kind.
    /// Equal digests mean the same multiset of events ran, whatever the
    /// engine, worker count or shard layout; one event moved, added or
    /// dropped changes it. It does not see payload bytes.
    pub digest: u64,
    /// Total number of VP resumes (context switches into VPs).
    pub context_switches: u64,
    /// Per-shard engine counters (one entry for the sequential engine).
    pub shards: Vec<ShardStats>,
    /// Parallel-engine execution profile (all-zero for sequential runs).
    /// Execution-shape only — never part of determinism comparisons.
    pub profile: EngineProfile,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
}

impl SimReport {
    /// The maximum simulated MPI process time — what xSim writes out at
    /// application exit so a restart can continue the virtual timeline
    /// (paper §IV-E).
    pub fn exit_time(&self) -> SimTime {
        self.timing.max
    }

    /// Load imbalance across shards: the ratio of the busiest shard's
    /// event count to the mean. 1.0 means perfectly balanced; returns 1.0
    /// for single-shard runs or when no events were processed.
    pub fn load_imbalance(&self) -> f64 {
        if self.shards.len() < 2 || self.events_processed == 0 {
            return 1.0;
        }
        let max = self
            .shards
            .iter()
            .map(|s| s.events_processed)
            .max()
            .unwrap_or(0) as f64;
        let avg = self.events_processed as f64 / self.shards.len() as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }

    /// How evenly a parallel run's windows split their events across
    /// threads: events ÷ (threads × [`EngineProfile::window_critical_events`]).
    /// 1.0 means every window gave every thread the same count; returns
    /// 1.0 for a sequential run. Unlike [`SimReport::load_imbalance`],
    /// a run whose threads take turns being busy reads low here.
    pub fn window_balance(&self) -> f64 {
        let critical = self.profile.window_critical_events;
        let threads = self.profile.worker_busy_ns.len();
        if critical == 0 || threads == 0 {
            1.0
        } else {
            self.events_processed as f64 / (threads as f64 * critical as f64)
        }
    }

    /// Largest per-shard pending-event-queue high-water mark.
    pub(crate) fn queue_depth_hwm(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.queue_depth_hwm)
            .max()
            .unwrap_or(0)
    }

    /// Render the shutdown summary xSim prints on the command line.
    pub fn summary(&self) -> String {
        format!(
            "xsim: {:?} after {} events, {} context switches \
             (queue hwm {}, {} shard(s), imbalance {:.2}); \
             process times min {} / max {} / avg {}; {} failure(s){}",
            self.exit,
            self.events_processed,
            self.context_switches,
            self.queue_depth_hwm(),
            self.shards.len(),
            self.load_imbalance(),
            self.timing.min,
            self.timing.max,
            self.timing.avg,
            self.failures.len(),
            match self.abort_time {
                Some(t) => format!("; aborted at {t}"),
                None => String::new(),
            }
        ) + &if self.profile.windows > 0 {
            format!("; {} window(s)", self.profile.windows)
        } else {
            String::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_clocks() {
        let clocks = [SimTime(10), SimTime(20), SimTime(60)];
        let s = VpTimingStats::from_clocks(&clocks);
        assert_eq!(s.min, SimTime(10));
        assert_eq!(s.max, SimTime(60));
        assert_eq!(s.avg, SimTime(30));
    }

    #[test]
    fn stats_empty() {
        let s = VpTimingStats::from_clocks(&[]);
        assert_eq!(s.min, SimTime::ZERO);
        assert_eq!(s.max, SimTime::ZERO);
        assert_eq!(s.avg, SimTime::ZERO);
    }

    #[test]
    fn profile_merge_semantics() {
        let mut a = EngineProfile {
            windows: 10,
            barrier_wait_ns: 100,
            worker_busy_ns: vec![400],
            window_critical_events: 12,
            batched_events: 7,
            batch_max_events: 4,
            window_barrier_hwm_ns: 40,
            pool_pushes: 100,
            pool_reused: 90,
            queue_bucket_hwm: 5,
            queue_ring_hwm: 256,
            queue_empty_steps: 30,
            queue_rebuilds: 2,
            queue_sorted: 18,
            ..Default::default()
        };
        let b = EngineProfile {
            windows: 10,
            barrier_wait_ns: 50,
            worker_busy_ns: vec![300],
            batched_events: 3,
            batch_max_events: 6,
            window_barrier_hwm_ns: 70,
            pool_pushes: 50,
            pool_reused: 10,
            queue_bucket_hwm: 9,
            queue_ring_hwm: 1024,
            queue_empty_steps: 12,
            queue_rebuilds: 1,
            queue_sorted: 70,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.windows, 10); // same global window sequence: max
        assert_eq!(a.barrier_wait_ns, 150);
        assert_eq!(a.worker_busy_ns, [400, 300]); // worker order
        assert_eq!(a.window_critical_events, 12);
        assert_eq!(a.batched_events, 10);
        assert_eq!(a.batch_max_events, 6);
        assert_eq!(a.window_barrier_hwm_ns, 70);
        assert_eq!(a.pool_pushes, 150);
        assert_eq!(a.pool_reused, 100);
        assert_eq!(a.queue_bucket_hwm, 9);
        assert_eq!(a.queue_ring_hwm, 1024);
        assert_eq!(a.queue_empty_steps, 42);
        assert_eq!(a.queue_rebuilds, 3);
        assert_eq!(a.queue_sorted, 88);
        assert!((a.pool_reuse_ratio() - 100.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn stats_single() {
        let s = VpTimingStats::from_clocks(&[SimTime(42)]);
        assert_eq!(s.min, SimTime(42));
        assert_eq!(s.max, SimTime(42));
        assert_eq!(s.avg, SimTime(42));
    }
}
