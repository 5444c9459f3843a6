//! # xsim-bench — evaluation harnesses
//!
//! One binary (see DESIGN.md §3), `campaign NAME`: the paper's tables,
//! the co-design sweeps and the host-cost ladders, one plain function
//! each, reported through the one writer, [`Report`] (human tables, then
//! one JSON line last on stdout; exit 1 if a self-gate failed, 2 on a bad
//! command line or an unknown name):
//!
//! * `table1` — fault (bit-flip) injection campaign statistics;
//! * `table2` — varying the checkpoint interval and system MTTF with the
//!   heat application on the simulated 32,768-node torus;
//! * `ablations` — design-choice sweeps from DESIGN.md §4 (engines,
//!   eager/rendezvous threshold, linear vs tree collectives, detectors);
//! * `net-faults` — lossy transport and link/switch fault sweeps;
//! * `ckpt-sweep` — checkpoint-interval sweep against the Daly optimum;
//! * `ckpt-scaling` — the four checkpoint modes over the striped PFS as
//!   the rank count grows (`BENCH_ckpt.json`);
//! * `protection` — FIT × protection-scheme ablation, checkpoint/restart
//!   vs. replication (`BENCH_protection.json`);
//! * `first-impressions` — the failure-mode narrative of §V-D;
//! * `queue` — calendar queue vs. a binary heap, self-gating;
//! * `vp-scaling` — the VP ladder toward the paper's 2²⁷ (§II-A): raw
//!   core from 2²⁰, or (`--mpi`) a tree allreduce from 2¹⁶ ranks.
//!
//! There are no Criterion benches; the end-to-end benchmark is the
//! standalone `perf/` package.

#![forbid(unsafe_code)]

mod report;

pub use report::{fixed, Report};

use std::sync::Arc;
use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::heat3d_rep::{self, RepHeatConfig};
use xsim_ckpt::{CampaignResult, CheckpointManager, Orchestrator, ProtectionCampaign};
use xsim_core::vp::VpProgram;
use xsim_core::{SimError, SimTime};
use xsim_fault::{Component, FailureModel, FailureSchedule, NodeReliability, SystemReliability};
use xsim_fs::{FsModel, FsStore};
use xsim_mpi::{HeartbeatConfig, ProtectionScheme, RunReport, SimBuilder};
use xsim_net::{NetModel, Topology};
use xsim_proc::ProcModel;

/// The paper's simulated system (§V-C) with `ranks` nodes wired as
/// `topology`: 1 µs / 32 GB/s links, 256 kB eager threshold, 1000× node
/// slowdown, linear collectives, free checkpoint I/O.
fn machine_builder(topology: Topology, ranks: usize, workers: usize, seed: u64) -> SimBuilder {
    let mut net = NetModel::paper_machine();
    net.topology = topology;
    SimBuilder::new(ranks)
        .net(net)
        .proc(ProcModel::with_slowdown(1000.0))
        // "MPI collectives utilize linear algorithms" (§V-C) — pinned
        // here because the builder default is the tree schedules.
        .collectives(xsim_mpi::CollAlgo::Linear)
        .workers(workers)
        .seed(seed)
}

/// The paper's machine as a wrapped torus shaped like the heat
/// configuration's rank cube (32³ at paper scale).
pub fn paper_builder(cfg: &HeatConfig, workers: usize, seed: u64) -> SimBuilder {
    machine_builder(
        Topology::Torus3d { dims: cfg.ranks },
        cfg.n_ranks(),
        workers,
        seed,
    )
}

/// The paper's machine, fully connected and sized to the *physical*
/// world, for protection ablations: replicated layouts — partial ones
/// especially — have ragged sizes no torus hosts, and pinning the
/// topology across schemes keeps the FIT × scheme comparison
/// apples-to-apples.
pub fn protection_builder(physical_ranks: usize, workers: usize, seed: u64) -> SimBuilder {
    let nodes = physical_ranks;
    machine_builder(Topology::FullyConnected { nodes }, nodes, workers, seed)
}

/// The paper's per-rank load (§V-C: 16³ grid points per rank, 1.28 µs
/// per point, modeled compute, `full` checkpoints) on a `ranks` cube.
pub fn paper_load(ranks: [usize; 3], iterations: u64, halo: u64, ckpt: u64) -> HeatConfig {
    HeatConfig {
        global: ranks.map(|r| r * 16),
        ranks,
        iterations,
        halo_interval: halo,
        ..HeatConfig::paper(ckpt)
    }
}

/// Run the heat application to completion under a failure model, with
/// checkpoints charged by `fs` (one Table II cell over
/// [`FsModel::free`]).
pub fn run_heat_campaign(
    cfg: &HeatConfig,
    model: FailureModel,
    fs: FsModel,
    workers: usize,
    seed: u64,
) -> Result<CampaignResult, SimError> {
    let store = FsStore::new();
    let mut orchestrator = Orchestrator::new(model, seed, CheckpointManager::new(&cfg.prefix));
    orchestrator.mode = cfg.ckpt_mode;
    let cfg2 = cfg.clone();
    orchestrator.run_to_completion(
        store,
        heat3d::program(cfg.clone()),
        cfg.n_ranks(),
        move || paper_builder(&cfg2, workers, seed).fs_model(fs),
    )
}

/// Failure-free execution time of a heat configuration with
/// checkpoints charged by `fs` (Table II's E1 over [`FsModel::free`]).
pub fn run_heat_baseline(
    cfg: &HeatConfig,
    fs: FsModel,
    workers: usize,
    seed: u64,
) -> Result<SimTime, SimError> {
    let builder = paper_builder(cfg, workers, seed).fs_model(fs);
    Ok(builder.run(heat3d::program(cfg.clone()))?.exit_time())
}

/// Build the heat configuration for a Table II row: the paper's
/// 32,768-rank configuration, or with `quick` a 4,096-rank one for CI /
/// quick runs (16³ ranks, the same per-rank load).
pub fn table2_config(quick: bool, ckpt_interval: u64) -> HeatConfig {
    match quick {
        true => paper_load([16; 3], 1000, ckpt_interval, ckpt_interval),
        false => HeatConfig::paper(ckpt_interval),
    }
}

/// One cell of the FIT × protection-scheme ablation.
#[derive(Debug, Clone)]
pub struct ProtectionCell {
    /// Protection scheme the cell ran under.
    pub scheme: ProtectionScheme,
    /// Per-node failure rate in FIT (failures per 10⁹ device-hours).
    pub fit_per_node: f64,
    /// Physical world size (logical ranks × replication blow-up).
    pub physical_ranks: usize,
    /// Whether the campaign finished within its restart budget.
    pub completed: bool,
    /// Simulation runs the campaign needed (1 = no restart).
    pub runs: usize,
    /// Process failures experienced across all runs.
    pub failures: u64,
    /// Transparent leader failovers (replicated schemes; 0 otherwise).
    pub failovers: u64,
    /// Completion time on the continuous virtual timeline (Table II's
    /// E2 generalized to arbitrary schemes).
    pub finish_time: SimTime,
    /// E2 × physical ranks — the resource-fair cost that charges
    /// replication for the extra nodes it occupies.
    pub node_seconds: f64,
}

/// Run one FIT × scheme cell: generate the per-node exponential failure
/// schedule over `horizon` for the scheme's *physical* world, then drive
/// the matching heat variant through a [`ProtectionCampaign`] on a
/// charged parallel file system.
///
/// Schemes compose as the resilience literature assumes: `none` runs
/// checkpoint-free, `cr` checkpoints at the configured cadence, and the
/// replicated schemes checkpoint *and* replicate, so a whole-team death
/// resumes from the last generation instead of scratch.
pub fn run_protection_cell(
    heat: &HeatConfig,
    scheme: &ProtectionScheme,
    fit_per_node: f64,
    horizon: SimTime,
    max_restarts: usize,
    workers: usize,
    seed: u64,
) -> Result<ProtectionCell, SimError> {
    let logical = heat.n_ranks();
    let hb = HeartbeatConfig::default();
    let (program, done_marker, physical): (Arc<dyn VpProgram>, Option<String>, usize) = match scheme
    {
        ProtectionScheme::None => {
            // Unprotected baseline: no mid-run checkpoints (the solver
            // still persists its final state, a negligible write), so a
            // failure restarts the whole solve.
            let mut cfg = heat.clone();
            cfg.ckpt_interval = cfg.iterations;
            (heat3d::program(cfg), None, logical)
        }
        ProtectionScheme::CheckpointRestart { mode } => {
            let mut cfg = heat.clone();
            cfg.ckpt_mode = *mode;
            (heat3d::program(cfg), None, logical)
        }
        _ => {
            let cfg = RepHeatConfig {
                heat: heat.clone(),
                scheme: scheme.clone(),
                hb,
                ckpt: true,
            };
            let physical = cfg.map().map_err(SimError::Config)?.physical_size();
            let marker = cfg.done_marker();
            (heat3d_rep::program(cfg), Some(marker), physical)
        }
    };
    let schedule = if fit_per_node > 0.0 {
        let node = NodeReliability::new().with(Component::new("node", fit_per_node), 1);
        SystemReliability::new(node, physical).generate_schedule(horizon, seed)
    } else {
        FailureSchedule::new()
    };

    let campaign = ProtectionCampaign {
        schedule,
        max_restarts,
        manager: CheckpointManager::new(&heat.prefix),
        ckpt_ranks: logical as u32,
        mode: scheme.ckpt_mode(),
        done_marker,
    };
    let replicated = scheme.is_replicated();
    let result = campaign.run_to_completion(FsStore::new(), program, move || {
        let mut b = protection_builder(physical, workers, seed)
            .fs_model(FsModel::typical_pfs())
            .metrics(true);
        if replicated {
            // Align the MPI failure detector with the heartbeat
            // protocol, so pending-op errors and heartbeat detections
            // agree on when a death becomes visible.
            b = b.detector(hb.detector());
        }
        b
    })?;

    let failovers = result
        .runs
        .iter()
        .filter_map(|r| r.metrics.as_ref())
        .map(|m| m.set.value(xsim_obs::ids::REP_FAILOVERS))
        .sum();
    Ok(ProtectionCell {
        scheme: scheme.clone(),
        fit_per_node,
        physical_ranks: physical,
        completed: result.completed,
        runs: result.runs.len(),
        failures: result.failures,
        failovers,
        finish_time: result.finish_time,
        node_seconds: result.finish_time.as_secs_f64() * physical as f64,
    })
}

/// Total simulated messages moved by a metered run (eager +
/// rendezvous), or `None` when metrics were off.
pub fn messages_moved(report: &RunReport) -> Option<u64> {
    let set = &report.metrics.as_ref()?.set;
    Some(set.value(xsim_obs::ids::NET_MSGS_EAGER) + set.value(xsim_obs::ids::NET_MSGS_RENDEZVOUS))
}

/// Mean host wall-time per simulated message: the headline number of the
/// message-pipeline optimization work. `None` when metrics were off or
/// the run moved no messages.
pub fn per_message_wall(report: &RunReport, wall: std::time::Duration) -> Option<f64> {
    let msgs = messages_moved(report)?;
    (msgs > 0).then(|| wall.as_secs_f64() / msgs as f64)
}

/// The `field:` value of a `/proc` file in KiB (Linux), if readable:
/// `proc_kib("/proc/meminfo", "MemAvailable")`,
/// `proc_kib("/proc/self/status", "VmHWM")` (this process's peak RSS).
pub fn proc_kib(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    rest.trim().trim_end_matches(" kB").trim().parse().ok()
}
