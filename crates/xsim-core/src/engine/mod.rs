//! Simulation engines.
//!
//! Two engines share the same kernel and produce bit-identical virtual
//! time results:
//!
//! * `run_sequential` processes events in global key order — the
//!   reference implementation.
//! * `run_parallel` is a conservative, window-synchronized PDES over
//!   native worker threads that each own a fixed set of shards, the
//!   shared-memory analogue of xSim running as a parallel MPI program
//!   with conservative synchronization (paper §II-A, §IV-A).
//!
//! [`run`] dispatches on `cfg.use_parallel()` (engine kind + workers).

mod barrier;
mod parallel;
mod sequential;

pub(crate) use parallel::run_parallel;
pub(crate) use sequential::run_sequential;

use crate::config::CoreConfig;
use crate::error::{SimError, Termination};
use crate::kernel::Kernel;
use crate::report::{EngineProfile, ExitKind, ShardStats, SimReport, VpTimingStats};
use crate::time::SimTime;
use crate::vp::VpProgram;
use std::sync::Arc;

/// Per-shard setup hook: installs services, fail hooks and scheduled
/// injections before the event loop starts. Runs once per shard.
pub(crate) type SetupFn<'a> = &'a (dyn Fn(&mut Kernel) + Sync);

/// Run a simulation with the engine selected by `cfg.engine` /
/// `cfg.workers` (see [`CoreConfig::use_parallel`]).
pub fn run(
    cfg: CoreConfig,
    program: Arc<dyn VpProgram>,
    setup: SetupFn<'_>,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    if cfg.use_parallel() {
        run_parallel(cfg, program, setup)
    } else {
        run_sequential(cfg, program, setup)
    }
}

/// Assemble the final report from finished shards.
pub(crate) fn assemble_report(
    cfg: &CoreConfig,
    shards: Vec<Kernel>,
    profile: EngineProfile,
    wall: std::time::Duration,
) -> Result<SimReport, SimError> {
    let mut blocked = Vec::new();
    let mut final_clocks = vec![SimTime::ZERO; cfg.n_ranks];
    let mut terminations = vec![Termination::Finished; cfg.n_ranks];
    let mut failures = Vec::new();
    let mut abort_time: Option<SimTime> = None;
    let mut events_processed = 0;
    let mut digest = 0u64;
    let mut context_switches = 0;
    let mut shard_stats = Vec::with_capacity(shards.len());

    let mut profile = profile;
    let mut shards = shards;
    for shard in &mut shards {
        // Flush upper-layer state (trace buffers, metric sets) before
        // reading results, so sinks are complete without relying on the
        // shard's Drop order.
        shard.run_shutdown_hooks();
        // Fold this shard's queue allocation/occupancy counters into the
        // profile (execution-shape data; both engines report it).
        let qs = shard.queue.stats();
        profile.pool_pushes += qs.pushes;
        profile.pool_reused += qs.reused;
        profile.queue_bucket_hwm = profile.queue_bucket_hwm.max(qs.bucket_hwm);
        profile.queue_ring_hwm = profile.queue_ring_hwm.max(qs.ring_hwm);
        profile.queue_empty_steps += qs.empty_steps;
        profile.queue_rebuilds += qs.rebuilds;
        profile.queue_sorted += qs.sorted;
        blocked.extend(shard.blocked_summary());
        for (r, clock, term) in shard.results() {
            final_clocks[r] = clock;
            terminations[r] = term;
        }
        failures.append(&mut shard.failures);
        abort_time = match (abort_time, shard.abort_time) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        events_processed += shard.events_processed;
        digest = digest.wrapping_add(shard.digest);
        context_switches += shard.context_switches;
        shard_stats.push(ShardStats {
            shard_id: shard.shard_id,
            events_processed: shard.events_processed,
            context_switches: shard.context_switches,
            queue_depth_hwm: shard.queue_depth_hwm,
        });
    }

    if !blocked.is_empty() {
        blocked.sort_by_key(|(r, _, _)| *r);
        return Err(SimError::Deadlock(crate::deadlock::report(
            &blocked,
            cfg.n_ranks,
        )));
    }

    // Deterministic failure ordering regardless of shard interleaving.
    failures.sort_by_key(|f| (f.actual, f.rank));

    let exit = if abort_time.is_some() {
        ExitKind::Aborted
    } else if terminations
        .iter()
        .any(|t| matches!(t, Termination::Failed(_)))
    {
        ExitKind::FailedOnly
    } else {
        ExitKind::Completed
    };

    let timing = VpTimingStats::from_clocks(&final_clocks);
    let report = SimReport {
        exit,
        final_clocks,
        terminations,
        timing,
        failures,
        abort_time,
        events_processed,
        digest,
        context_switches,
        shards: shard_stats,
        profile,
        wall,
    };
    if cfg.verbose {
        eprintln!("{}", report.summary());
    }
    Ok(report)
}
