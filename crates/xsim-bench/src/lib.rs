//! # xsim-bench — evaluation harnesses
//!
//! Three binaries (see DESIGN.md §3):
//!
//! * `campaign NAME` — the paper's tables and the co-design sweeps, one
//!   plain function each, reported through the one writer, [`Report`]
//!   (human tables, then one JSON line last on stdout; exit 1 if a
//!   self-gate failed, 2 on a bad command line or an unknown name):
//!   * `table1` — fault (bit-flip) injection campaign statistics;
//!   * `table2` — varying the checkpoint interval and system MTTF with
//!     the heat application on the simulated 32,768-node torus;
//!   * `ablations` — design-choice sweeps from DESIGN.md §4 (engines,
//!     eager/rendezvous threshold, linear vs tree collectives, detectors);
//!   * `net-faults` — lossy transport and link/switch fault sweeps;
//!   * `ckpt-sweep` — checkpoint-interval sweep against the Daly optimum;
//!   * `ckpt-scaling` — the four checkpoint modes over the striped PFS as
//!     the rank count grows (`BENCH_ckpt.json`);
//!   * `protection` — FIT × protection-scheme ablation, checkpoint/restart
//!     vs. replication (`BENCH_protection.json`);
//!   * `first-impressions` — the failure-mode narrative of §V-D.
//! * `queue_bench` — calendar queue vs. a binary heap, self-gating.
//! * `vp_scaling` — the VP ladder toward the paper's 2²⁷ (§II-A): raw
//!   core from 2²⁰, or (`--mpi`) a tree allreduce from 2¹⁶ ranks.
//!
//! There are no Criterion benches; the end-to-end benchmark is the
//! standalone `perf/` package.

#![forbid(unsafe_code)]

mod report;

pub use report::{fixed, Report};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::heat3d_rep::{self, RepHeatConfig};
use xsim_apps::kernels;
use xsim_ckpt::{CampaignResult, CheckpointManager, Orchestrator, ProtectionCampaign};
use xsim_core::event::{Action, EventKey, EventRec};
use xsim_core::vp::VpProgram;
use xsim_core::{Rank, SimError, SimTime};
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

/// Write the profile of a traced+metered run: the merged Chrome trace to
/// `path` (load it in `chrome://tracing` or Perfetto) and the metrics
/// snapshot to a sibling `*.metrics.json`. Harness binaries call this
/// when `--profile` is given.
pub fn write_profile(report: &RunReport, path: &str) {
    if let Some(json) = report.chrome_trace_json() {
        std::fs::write(path, json).expect("write Chrome trace");
    }
    if let Some(json) = report.metrics_json() {
        let mpath = match path.strip_suffix(".json") {
            Some(stem) => format!("{stem}.metrics.json"),
            None => format!("{path}.metrics.json"),
        };
        std::fs::write(&mpath, json).expect("write metrics snapshot");
        eprintln!("profile: wrote {path} and {mpath}");
    }
}

/// Peak resident set size of this process in KiB (Linux), if readable.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

/// The engine-level oversubscription workload (`vp_scaling` bin): each
/// VP alternates timer sleeps with a lookahead-respecting wake of its
/// ring successor, exercising the event core — calendar queue, inline
/// `Call` storage, SoA VP table, cross-shard exchange — without any
/// MPI-layer machinery on top.
pub(crate) fn million_vp_program(n_ranks: usize, rounds: u32) -> Arc<dyn xsim_core::vp::VpProgram> {
    use xsim_core::vp::VpExit;
    use xsim_core::{ctx, Rank};
    Arc::new(move |rank: Rank| {
        let n = n_ranks;
        Box::pin(async move {
            for _ in 0..rounds {
                ctx::sleep(SimTime::from_micros(10)).await;
                let peer = Rank::new((rank.idx() + 1) % n);
                ctx::with_kernel(|k, me| {
                    let t = k.vp(me).clock() + SimTime::from_micros(2);
                    k.schedule_at(t, peer, xsim_core::event::Action::WakeMessage);
                });
            }
            VpExit::Finished
        }) as xsim_core::vp::VpFuture
    })
}

/// One timed `million_vp` leg on the core engine. Returns the report
/// and the end-to-end wall time (spawn scheduling and report assembly
/// included — this is a throughput number, not a profile).
pub(crate) fn run_million_vp(
    vps: usize,
    workers: usize,
    rounds: u32,
) -> (xsim_core::SimReport, std::time::Duration) {
    let cfg = xsim_core::CoreConfig {
        n_ranks: vps,
        workers,
        engine: if workers > 1 {
            xsim_core::EngineKind::Parallel
        } else {
            xsim_core::EngineKind::Auto
        },
        lookahead: SimTime::from_micros(1),
        ..Default::default()
    };
    let setup = |_: &mut xsim_core::Kernel| {};
    let t = std::time::Instant::now();
    let report = xsim_core::engine::run(cfg, million_vp_program(vps, rounds), &setup)
        .expect("million_vp run");
    (report, t.elapsed())
}

/// `MemAvailable` from `/proc/meminfo` in KiB (Linux), if readable.
pub(crate) fn mem_available_kib() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    for line in meminfo.lines() {
        if let Some(rest) = line.strip_prefix("MemAvailable:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

/// Conservative resident-cost estimate for one VP of the scaling-ladder
/// workload: ~34 B of SoA table columns, a boxed ring future plus its
/// allocator slack, and this VP's share of the in-flight 32-byte event
/// records. Deliberately pessimistic — the gate must fail *before* the
/// allocation does: the ladder measures ≈ 181 B/VP at 2²² VPs
/// (EXPERIMENTS.md §II-A), well under this estimate.
pub const VP_SCALING_BYTES_PER_VP: u64 = 512;

/// The same estimate for one rank of the MPI rungs (`vp_scaling --mpi`):
/// the rank's future, VP slot and MPI state, its share of the in-flight
/// events, envelopes and payloads, and allocator slack. The rungs
/// measure ≈ 1.8 KiB per rank over the whole process (EXPERIMENTS.md
/// §II-A), under this estimate.
pub const MPI_SCALING_BYTES_PER_RANK: u64 = 3072;

/// Largest VP count the free-memory gate admits for a ladder costing
/// `bytes_per_vp` (80% of `MemAvailable` over it), or `None` when
/// `/proc/meminfo` is unreadable and the gate cannot protect the host.
pub fn vp_mem_gate(bytes_per_vp: u64) -> Option<usize> {
    let avail = mem_available_kib()? * 1024;
    Some((avail / 10 * 8 / bytes_per_vp) as usize)
}

/// One rung of the VP-scaling ladder (`vp_scaling` bin).
#[derive(Debug, Clone)]
pub struct VpScalingRow {
    /// Simulated VPs.
    pub vps: usize,
    /// Worker threads.
    pub workers: usize,
    /// Sleep/wake rounds per VP.
    pub rounds: u32,
    /// Events processed.
    pub events: u64,
    /// Point-to-point messages sent (0 on the raw-core rungs).
    pub messages: u64,
    /// End-to-end wall time.
    pub wall: std::time::Duration,
    /// Event throughput.
    pub events_per_sec: f64,
    /// Host cost per simulated event.
    pub host_us_per_event: f64,
    /// `VmHWM` after the rung, KiB. The kernel's high-water mark is
    /// monotone across rungs, so run the ladder in ascending VP order:
    /// each rung then dominates everything before it and the value reads
    /// as that rung's own peak.
    pub peak_rss_kib: u64,
}

/// Run one ladder rung on the core engine (the `million_vp` workload at
/// an arbitrary scale).
pub fn run_vp_scaling_rung(vps: usize, workers: usize, rounds: u32) -> VpScalingRow {
    let (report, wall) = run_million_vp(vps, workers, rounds);
    scaling_row(vps, workers, rounds, report.events_processed, 0, wall)
}

/// One MPI rung of the ladder: `compute_allreduce(rounds, 64, 1 ms)`
/// with tree collectives over `ranks` simulated MPI processes on the
/// paper machine, its 3-D torus sized to the rank count.
pub fn run_mpi_scaling_rung(ranks: usize, workers: usize, rounds: u32) -> VpScalingRow {
    // `ranks` is a power of two: split the exponent across the three
    // torus dimensions.
    let e = ranks.trailing_zeros() as usize;
    let (a, b) = (e / 3, (e - e / 3) / 2);
    let mut net = NetModel::paper_machine();
    net.topology = Topology::Torus3d {
        dims: [1 << a, 1 << b, 1 << (e - a - b)],
    };
    let t = std::time::Instant::now();
    let report = SimBuilder::new(ranks)
        .net(net)
        .workers(workers)
        .collectives(xsim_mpi::CollAlgo::Tree)
        .run(kernels::compute_allreduce(
            rounds,
            64,
            SimTime::from_millis(1),
        ))
        .expect("MPI rung");
    let wall = t.elapsed();
    let events = report.sim.events_processed;
    scaling_row(ranks, workers, rounds, events, report.mpi.sends, wall)
}

fn scaling_row(
    vps: usize,
    workers: usize,
    rounds: u32,
    events: u64,
    messages: u64,
    wall: std::time::Duration,
) -> VpScalingRow {
    let secs = wall.as_secs_f64();
    VpScalingRow {
        vps,
        workers,
        rounds,
        events,
        messages,
        wall,
        events_per_sec: events as f64 / secs,
        host_us_per_event: secs * 1e6 / events as f64,
        peak_rss_kib: peak_rss_kib().unwrap_or(0),
    }
}

/// Delta distribution of a queue-churn tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueShape {
    /// Uniform hold model on one long-lived queue: successors 1 ns –
    /// 10 µs ahead, geometry conditioned before the timed span.
    Uniform,
    /// The campaign shape: one push in 32 is a timer 1 ms – 65 s out
    /// (log-uniform), the rest land 1 – 4,096 ns ahead; a fresh queue
    /// per trial, construction, drain and drop inside the timed span.
    Campaign,
    /// The raw-core ring of wakes (`million_vp_program`) as queue
    /// traffic, `pending` VPs: a spawn wave pushed in descending rank
    /// order, then every VP sleeps 10 µs and wakes its ring successor
    /// 2 µs later, twice — four lock-step waves that each arrive in
    /// ascending rank order. Construction, every wave and the drop are
    /// timed; an op is one event popped.
    Flood,
}

impl QueueShape {
    /// Name of the shape in tables.
    pub fn name(self) -> &'static str {
        match self {
            QueueShape::Uniform => "uniform",
            QueueShape::Campaign => "campaign",
            QueueShape::Flood => "flood",
        }
    }
}

/// Tiers of the event-queue churn comparison (calendar queue vs. a
/// binary heap over the keys): pending population and delta shape.
pub const QUEUE_TIERS: [(usize, QueueShape); 6] = [
    (1_000, QueueShape::Uniform),
    (100_000, QueueShape::Uniform),
    (1_000_000, QueueShape::Uniform),
    (256, QueueShape::Campaign),
    (16_384, QueueShape::Campaign),
    (1 << 20, QueueShape::Flood),
];

/// Events per VP of the [`QueueShape::Flood`] tier: the spawn and two
/// rounds of a sleep completion and a successor's wake.
const FLOOD_EVENTS_PER_VP: usize = 5;

/// One tier of the calendar-vs-heap churn comparison.
#[derive(Debug, Clone, Copy)]
pub struct QueueTier {
    /// Steady-state pending-event population.
    pub pending: usize,
    /// Churn operations timed.
    pub ops: usize,
    /// Binary-heap oracle cost.
    pub heap_ns_per_op: f64,
    /// Calendar-queue cost.
    pub calendar_ns_per_op: f64,
}

impl QueueTier {
    /// Calendar speedup over the heap oracle (>1 = calendar wins).
    pub fn speedup(&self) -> f64 {
        self.heap_ns_per_op / self.calendar_ns_per_op
    }
}

/// Trials per implementation per tier; the reported cost is the
/// minimum, which discards scheduler/cache noise (any single trial can
/// only be *slowed* by interference, never sped up).
pub(crate) const QUEUE_TRIALS: usize = 5;

/// Time one churn tier for the calendar queue and the heap oracle,
/// best-of-`QUEUE_TRIALS`, interleaving the two so ambient load
/// perturbs them evenly. The flood tier's op count is its event count,
/// not `ops`.
pub fn run_queue_tier(pending: usize, shape: QueueShape, ops: usize) -> QueueTier {
    let ops = match shape {
        QueueShape::Flood => FLOOD_EVENTS_PER_VP * pending,
        _ => ops,
    };
    let mut heap_ns_per_op = f64::INFINITY;
    let mut calendar_ns_per_op = f64::INFINITY;
    for _ in 0..QUEUE_TRIALS {
        heap_ns_per_op = heap_ns_per_op.min(churn_ns_per_op::<HeapOracle>(pending, shape, ops));
        calendar_ns_per_op = calendar_ns_per_op.min(churn_ns_per_op::<xsim_core::EventQueue>(
            pending, shape, ops,
        ));
    }
    QueueTier {
        pending,
        ops,
        heap_ns_per_op,
        calendar_ns_per_op,
    }
}

/// What the churn driver asks of a queue.
trait HoldQueue: Default {
    fn push(&mut self, ev: EventRec);
    fn pop(&mut self) -> Option<EventKey>;
}

impl HoldQueue for xsim_core::EventQueue {
    fn push(&mut self, ev: EventRec) {
        self.push(ev);
    }
    fn pop(&mut self) -> Option<EventKey> {
        self.pop().map(|e| e.key)
    }
}

/// The oracle the calendar queue is gated against: a binary heap over
/// the keys.
#[derive(Default)]
struct HeapOracle(BinaryHeap<Reverse<EventKey>>);

impl HoldQueue for HeapOracle {
    fn push(&mut self, ev: EventRec) {
        self.0.push(Reverse(ev.key));
    }
    fn pop(&mut self) -> Option<EventKey> {
        self.0.pop().map(|r| r.0)
    }
}

/// The hold-model driver: pop the minimum, push a successor a
/// pseudorandom distance into the future. Keys are unique, as the
/// engine guarantees.
struct Churn {
    rng: u64,
    seq: u64,
    shape: QueueShape,
}

impl Churn {
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn delta(&mut self) -> u64 {
        let r = self.next();
        match self.shape {
            QueueShape::Uniform => 1 + r % 10_000,
            QueueShape::Campaign if r & 31 != 0 => 1 + (r >> 8) % 4_096,
            QueueShape::Campaign => {
                let octave = 1_000_000u64 << ((r >> 8) % 16);
                octave + self.next() % octave
            }
            QueueShape::Flood => unreachable!("the flood tier draws no deltas"),
        }
    }

    fn push_at<Q: HoldQueue>(&mut self, q: &mut Q, time: u64) {
        let r = self.next();
        self.seq += 1;
        q.push(EventRec {
            key: EventKey {
                time: SimTime(time),
                dst: Rank((r >> 8) as u32 & 0x3f),
                src: Rank((r >> 16) as u32 & 0x3f),
                seq: self.seq,
            },
            action: Action::Spawn,
        });
    }

    fn hold<Q: HoldQueue>(&mut self, q: &mut Q, ops: usize) {
        for _ in 0..ops {
            let now = q.pop().expect("hold-model queue never empties");
            let t = now.time.as_nanos() + self.delta();
            self.push_at(q, t);
        }
    }
}

/// The queue traffic of [`million_vp_program`] on `vps` VPs, in the
/// keys the kernel gives it; drains the queue.
fn ring_of_wakes<Q: HoldQueue>(q: &mut Q, vps: usize) {
    const SLEEP: u64 = 10_000;
    const WAKE: u64 = 2_000;
    const ROUNDS: u64 = 2;
    let push = |q: &mut Q, time: u64, dst: usize, src: usize, seq: u64| {
        q.push(EventRec {
            key: EventKey {
                time: SimTime(time),
                dst: Rank::new(dst),
                src: Rank::new(src),
                seq,
            },
            action: Action::Spawn,
        })
    };
    for r in (0..vps).rev() {
        push(q, 0, r, r, 0);
    }
    let mut popped = 0;
    while let Some(k) = q.pop() {
        popped += 1;
        let (t, r) = (k.time.as_nanos(), k.dst.idx());
        // A spawn or a sleep completion: wake the successor, sleep on.
        if t % SLEEP == 0 {
            let round = t / SLEEP;
            if round > 0 {
                push(q, t + WAKE, (r + 1) % vps, r, k.seq + 1);
            }
            if round < ROUNDS {
                push(q, t + SLEEP, r, r, k.seq + 2);
            }
        }
    }
    assert_eq!(popped, FLOOD_EVENTS_PER_VP * vps);
}

/// Churn cost of a queue in nanoseconds per hold operation.
///
/// [`QueueShape::Uniform`] prefills `pending` events, conditions with
/// `ops` untimed hold operations, then times `ops` more. The untimed
/// pass matters for adaptive implementations: the prefill distribution
/// (uniform over 1 ms) is ~100× sparser than the steady hold-model
/// front, so the calendar queue re-fits its bucket width during the
/// first churn epoch — a one-time cost a long run amortizes to nothing.
///
/// [`QueueShape::Campaign`] is the opposite regime, one short run: the
/// clock covers construction, the prefill, `ops` hold operations, the
/// drain and the drop, so whatever a queue costs per *instance* — a
/// ring sized to the timers' span, say — is in the number.
///
/// [`QueueShape::Flood`] times one [`ring_of_wakes`] the same way.
fn churn_ns_per_op<Q: HoldQueue>(pending: usize, shape: QueueShape, ops: usize) -> f64 {
    let mut c = Churn {
        rng: 0x9e3779b97f4a7c15,
        seq: 0,
        shape,
    };
    let created = std::time::Instant::now();
    let mut queue = Q::default();
    let elapsed = match shape {
        QueueShape::Uniform => {
            for _ in 0..pending {
                let t = c.next() % 1_000_000;
                c.push_at(&mut queue, t);
            }
            c.hold(&mut queue, ops);
            let conditioned = std::time::Instant::now();
            c.hold(&mut queue, ops);
            conditioned.elapsed()
        }
        QueueShape::Campaign => {
            for _ in 0..pending {
                let t = c.delta();
                c.push_at(&mut queue, t);
            }
            c.hold(&mut queue, ops);
            while queue.pop().is_some() {}
            drop(queue);
            created.elapsed()
        }
        QueueShape::Flood => {
            ring_of_wakes(&mut queue, pending);
            drop(queue);
            created.elapsed()
        }
    };
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}
