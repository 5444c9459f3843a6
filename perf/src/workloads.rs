//! The seven benchmark workloads.
//!
//! Every workload is a closed-loop batch job: `prepare` computes
//! untimed reference results once per process, `setup` is the fixed
//! per-run cost a user pays before the first useful event (generate the
//! inputs from the seed, build the machine models, run a no-op program
//! at the workload's rank count), and `body` produces the artefact.
//! Sizes are the ISSUE's shapes scaled so one body takes about a second
//! on a 2-core host (see README.md for the scaling table).
//!
//! The definitions deliberately duplicate a few lines of the
//! `xsim-bench` bins instead of importing them: the benchmark must not
//! change when a bin does.

use crate::tracer::Tracer;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsim_apps::heat3d::{self, ComputeMode, HeatConfig};
use xsim_apps::heat3d_rep::{self, RepHeatConfig};
use xsim_apps::kernels;
use xsim_ckpt::{
    crc32, resolve_latest, write_exit_time, CampaignResult, CheckpointManager, Orchestrator,
    ProtectionCampaign,
};
use xsim_core::vp::{VpExit, VpFuture, VpProgram};
use xsim_core::{ctx, CoreConfig, DetRng, ExitKind, Rank, SimReport, SimTime};
use xsim_fault::{Component, FailureModel, FailureSchedule, NodeReliability, SystemReliability};
use xsim_fs::{FsModel, FsStore};
use xsim_mpi::{
    CkptMode, CollAlgo, EngineKind, HeartbeatConfig, ProtectionScheme, ReplicaMap, RunReport,
    SimBuilder,
};
use xsim_net::{LinkFaultKind, LinkStateTable, NetFault, NetModel, Topology};
use xsim_obs::ids;
use xsim_proc::ProcModel;

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 7] = [
    "table2_heat3d",
    "allreduce_64k",
    "allreduce_64k_par2",
    "storm_faulted",
    "rawcore_1m",
    "protection_mix",
    "ckpt_modes_real",
];

/// Worker threads of the parallel-engine workload: never more than the
/// host has.
pub fn par_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

/// Counters of one simulator run (or the sum over a body's runs), by
/// per-layer metric name. Only the *c* (count) metrics live here.
pub type Counters = BTreeMap<&'static str, u64>;

fn bump(c: &mut Counters, name: &'static str, v: u64) {
    *c.entry(name).or_insert(0) += v;
}

fn bump_max(c: &mut Counters, name: &'static str, v: u64) {
    let e = c.entry(name).or_insert(0);
    *e = (*e).max(v);
}

/// Work a body defers until the clock has stopped.
type Verification = Box<dyn FnOnce(&mut Outcome)>;

/// What one body produced.
#[derive(Default)]
pub struct Outcome {
    /// Deterministic simulated statistics: compared with `golden.json`
    /// at the golden seed and rep-to-rep at every seed.
    pub stats: BTreeMap<String, u64>,
    /// Seed-independent invariants that failed (empty = all hold).
    pub violations: Vec<String>,
    /// Number of invariants evaluated.
    pub invariants: u64,
    /// Layer counters summed over the body's simulator runs.
    pub counters: Counters,
    /// Host wall spent inside the simulator (Σ `SimReport.wall`).
    pub sim_wall: Duration,
    /// Barrier wait of the parallel engine (volatile, hence not a
    /// counter).
    pub barrier_wait: Duration,
    /// `(start, wall, events)` of every simulator run, for run spans.
    pub runs: Vec<(Instant, Duration, u64)>,
    /// Output checks that cost real time (resolving and checksumming
    /// final state): run by [`Outcome::verified`], outside `wall_s`.
    pending: Vec<Verification>,
}

impl Outcome {
    /// Run the deferred output checks. The harness calls this after it
    /// has stopped the clock on the body.
    pub fn verified(mut self) -> Self {
        for check in std::mem::take(&mut self.pending) {
            check(&mut self);
        }
        self
    }

    fn stat(&mut self, key: &str, v: u64) {
        self.stats.insert(key.to_string(), v);
    }

    fn invariant(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.invariants += 1;
        if !holds {
            self.violations.push(what());
        }
    }

    fn absorb_core(&mut self, started: Instant, sim: &SimReport) {
        let c = &mut self.counters;
        bump(c, "core.events", sim.events_processed);
        bump(c, "core.context_switches", sim.context_switches);
        bump_max(c, "core.queue.bucket_hwm", sim.profile.queue_bucket_hwm);
        bump(c, "core.pool.pushes", sim.profile.pool_pushes);
        bump(c, "core.pool.reused", sim.profile.pool_reused);
        bump(c, "core.engine.windows", sim.profile.windows);
        bump(c, "core.engine.steals", sim.profile.steals);
        bump(c, "core.engine.batched_events", sim.profile.batched_events);
        bump(c, "core.engine.ingest_skips", sim.profile.ingest_skips);
        bump(c, "fault.activations", sim.failures.len() as u64);
        self.sim_wall += sim.wall;
        self.barrier_wait += Duration::from_nanos(sim.profile.barrier_wait_ns);
        self.runs.push((started, sim.wall, sim.events_processed));
    }

    fn absorb(&mut self, started: Instant, r: &RunReport) {
        self.absorb_core(started, &r.sim);
        let c = &mut self.counters;
        bump(c, "mpi.sends", r.mpi.sends);
        bump(c, "mpi.recvs", r.mpi.recvs);
        bump(c, "mpi.bytes_sent", r.mpi.bytes_sent);
        bump(c, "mpi.collectives", r.mpi.collectives);
        bump(c, "mpi.proc_failed_errors", r.mpi.proc_failed_errors);
        let Some(m) = &r.metrics else { return };
        for (name, id) in OBS_COUNTERS {
            bump(c, name, m.set.value(*id));
        }
        bump_max(
            c,
            "mpi.unexpected_hwm",
            m.set.value(ids::MPI_UNEXPECTED_HWM),
        );
    }
}

/// Per-layer count metrics read from the xsim-obs registry (traced
/// pass only: the registry exists only under `SimBuilder::metrics`).
const OBS_COUNTERS: &[(&str, usize)] = &[
    ("mpi.payload_clones", ids::MPI_PAYLOAD_CLONES),
    ("mpi.payload_copy_bytes", ids::MPI_PAYLOAD_COPY_BYTES),
    ("mpi.rep.copies", ids::REP_COPIES),
    ("mpi.rep.failovers", ids::REP_FAILOVERS),
    ("mpi.rep.heartbeats", ids::REP_HEARTBEATS),
    ("mpi.rep.detections", ids::REP_DETECTIONS),
    ("net.msgs_eager", ids::NET_MSGS_EAGER),
    ("net.msgs_rendezvous", ids::NET_MSGS_RENDEZVOUS),
    ("net.route_cache_hits", ids::NET_ROUTE_CACHE_HITS),
    ("net.route_cache_misses", ids::NET_ROUTE_CACHE_MISSES),
    ("net.rerouted_hops", ids::NET_REROUTED_HOPS),
    ("fs.writes", ids::FS_WRITES),
    ("fs.reads", ids::FS_READS),
    ("fs.write_bytes", ids::FS_WRITE_BYTES),
    ("fs.read_bytes", ids::FS_READ_BYTES),
    ("fs.stripe.requests", ids::FS_STRIPE_REQS),
    ("fs.stripe.queue_ns", ids::FS_STRIPE_QUEUE_NS),
    ("ckpt.writes", ids::CKPT_WRITES),
    ("ckpt.bytes_written", ids::CKPT_BYTES_WRITTEN),
    ("ckpt.loads", ids::CKPT_LOADS),
    ("ckpt.deletes", ids::CKPT_DELETES),
    ("ckpt.diff_blocks", ids::CKPT_DIFF_BLOCKS),
    ("ckpt.agg_forward_bytes", ids::CKPT_AGG_FORWARD_BYTES),
    ("ckpt.buddy_copies", ids::CKPT_BUDDY_COPIES),
];

/// Parameters the layer drivers take from the workload, so each driver
/// times its layer at the sizes this workload really uses.
#[derive(Debug, Clone)]
pub struct LayerProfile {
    /// Simulated ranks / VPs (pending-set size of the queue hold model,
    /// rank count of the spawn and footprint probes).
    pub ranks: usize,
    /// Whether the program runs over xsim-mpi at all.
    pub mpi: bool,
    /// Typical point-to-point payload in bytes.
    pub payload: usize,
    /// The machine model messages travel over.
    pub net: NetModel,
    /// Fault set and the `(src, dst)` node pairs the program routes
    /// between (empty = healthy topology, routing is closed-form).
    pub faults: Vec<NetFault>,
    /// See `faults`.
    pub pairs: Vec<(usize, usize)>,
    /// File system model and encoded checkpoint size (0 = no
    /// checkpoints).
    pub fs: FsModel,
    /// See `fs`.
    pub ckpt_bytes: usize,
    /// Reliability model the failure schedule is generated from, with
    /// its horizon (`None` = no schedule generation).
    pub reliability: Option<(SystemReliability, SimTime)>,
}

/// One benchmark workload. See the module docs for the phases.
pub trait Workload: Sized {
    /// What `setup` hands to `body`.
    type Inputs;
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Simulated ranks / VPs of the largest simulator run.
    const RANKS: usize;
    /// Whether the program runs over xsim-mpi at all.
    const MPI: bool = true;

    /// Untimed, once per process: reference results the checks need.
    fn prepare() -> Self;
    /// Timed as `setup_s`: inputs from the seed, model build, no-op run.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Self::Inputs;
    /// Timed as `wall_s`: produce the artefact. `traced` switches the
    /// simulator's own metrics registry on. Output checks that cost real
    /// time are deferred to [`Outcome::verified`].
    fn body(&self, inputs: &Self::Inputs, traced: bool) -> Outcome;
    /// Sizes for the layer drivers.
    fn profile(&self, inputs: &Self::Inputs) -> LayerProfile;
    /// Per-layer values only this workload can produce (traced pass);
    /// `wall_s` is the untraced body wall of the same process.
    fn traced_extras(&self, _inputs: &Self::Inputs, _wall_s: f64) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
}

// ----------------------------------------------------------------------
// Shared builders
// ----------------------------------------------------------------------

/// The paper's simulated system (§V-C) on a torus matching the heat
/// decomposition: 1 µs / 32 GB/s links, 1000× node slowdown, linear
/// collectives, free checkpoint I/O.
fn paper_machine(dims: [usize; 3]) -> NetModel {
    let mut net = NetModel::paper_machine();
    net.topology = Topology::Torus3d { dims };
    net
}

fn paper_builder(cfg: &HeatConfig, seed: u64) -> SimBuilder {
    SimBuilder::new(cfg.n_ranks())
        .net(paper_machine(cfg.ranks))
        .proc(ProcModel::with_slowdown(1000.0))
        .collectives(CollAlgo::Linear)
        .seed(seed)
}

/// The set-up no-op: spawn every rank under `builder`, sleep once, exit.
fn noop_run(builder: SimBuilder, tr: &mut Tracer) {
    let span = tr.enter("noop");
    let report = builder
        .run(kernels::noop(SimTime::from_millis(1)))
        .expect("no-op run");
    assert_eq!(report.sim.exit, ExitKind::Completed);
    tr.exit(span);
}

/// The set-up's model build: materialize what `SimBuilder::run` derives
/// from the network model before the first event (the dense hop table).
fn model_build(tr: &mut Tracer, make: impl FnOnce() -> NetModel) {
    spanned(tr, "model_build", || {
        let mut net = make();
        net.precompute_hops();
        std::hint::black_box(&net);
    });
}

/// Run `f` under a tracer span.
fn spanned<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = tr.enter(name);
    let out = f();
    tr.exit(span);
    out
}

/// Record a campaign's per-run statistics (`prefix.runs`, per-run
/// events/exit times folded into digests so goldens stay small).
fn campaign_stats(out: &mut Outcome, prefix: &str, result: &CampaignResult) {
    let mut events = 0u64;
    let mut sends = 0u64;
    let mut digest = Vec::with_capacity(result.runs.len() * 16);
    for r in &result.runs {
        events += r.sim.events_processed;
        sends += r.mpi.sends;
        digest.extend_from_slice(&r.sim.events_processed.to_le_bytes());
        digest.extend_from_slice(&r.exit_time().as_nanos().to_le_bytes());
    }
    out.stat(&format!("{prefix}.runs"), result.runs.len() as u64);
    out.stat(&format!("{prefix}.events"), events);
    out.stat(&format!("{prefix}.sends"), sends);
    out.stat(&format!("{prefix}.failures"), result.failures);
    out.stat(&format!("{prefix}.e2_ns"), result.finish_time.as_nanos());
    out.stat(&format!("{prefix}.completed"), result.completed as u64);
    out.stat(&format!("{prefix}.run_digest"), crc32(&digest) as u64);
}

/// Make-builder wrapper that timestamps every campaign run, so run
/// spans can be reconstructed from `SimReport.wall` afterwards.
struct RunClock(RefCell<Vec<Instant>>);

impl RunClock {
    fn new() -> Self {
        RunClock(RefCell::new(Vec::new()))
    }

    fn tick(&self) {
        self.0.borrow_mut().push(Instant::now());
    }

    fn absorb(&self, out: &mut Outcome, result: &CampaignResult) {
        let starts = self.0.borrow();
        assert_eq!(starts.len(), result.runs.len(), "one builder per run");
        for (start, r) in starts.iter().zip(&result.runs) {
            out.absorb(*start, r);
        }
        bump(
            &mut out.counters,
            "ckpt.restarts",
            result.runs.len() as u64 - 1,
        );
    }
}

// ----------------------------------------------------------------------
// table2_heat3d
// ----------------------------------------------------------------------

/// The paper artefact: one Table II cell (MTTF_s = 3000 s, C = 250) —
/// heat3d on the paper's machine model driven through `Orchestrator`
/// with `UniformTwiceMttf`: kill → abort → restart from checkpoint.
/// Scaled from 32³ to 16³ ranks (same 16³ points per rank).
pub struct Table2 {
    cfg: HeatConfig,
}

const TABLE2_MTTF: SimTime = SimTime::from_secs(3000);

/// Inputs of [`Table2`]: the orchestrator seed whose draws give the
/// canonical campaign shape.
pub struct Table2Inputs {
    seed: u64,
    orch_seed: u64,
}

impl Table2 {
    fn model() -> FailureModel {
        FailureModel::UniformTwiceMttf { mttf: TABLE2_MTTF }
    }

    /// Derive the orchestrator seed from the benchmark seed. The victim
    /// rank and failure instant are random, but only draws with the
    /// campaign shape "run 0 dies in its third checkpoint interval, the
    /// restart completes" are accepted, so every seed measures the same
    /// amount of simulated work (two runs, 2 + 2 checkpoint phases).
    fn orchestrator_seed(&self, seed: u64) -> u64 {
        let n = self.cfg.n_ranks();
        // Virtual length of one checkpoint interval: compute only; the
        // window below leaves the communication share as margin.
        let phase = self.cfg.ckpt_interval
            * self.cfg.points_per_rank()
            * self.cfg.per_point.as_nanos()
            * 1000;
        let window = (phase * 2 + phase / 4)..(phase * 3 - phase / 4);
        let mut rng = DetRng::stream(seed, 0x7AB1_E200);
        loop {
            let candidate = rng.next_u64();
            let first = Self::model().draw(candidate, 0, n).expect("draw");
            let second = Self::model().draw(candidate, 1, n).expect("draw");
            // The restart has two intervals (plus restart overhead) to
            // go; a second draw beyond three never activates.
            if window.contains(&first.at.as_nanos()) && second.at.as_nanos() > phase * 3 {
                return candidate;
            }
        }
    }

    fn campaign(&self, inputs: &Table2Inputs, traced: bool) -> (CampaignResult, RunClock) {
        let mut orch = Orchestrator::new(
            Self::model(),
            inputs.orch_seed,
            CheckpointManager::new(&self.cfg.prefix),
        );
        orch.mode = self.cfg.ckpt_mode;
        let clock = RunClock::new();
        let result = orch
            .run_to_completion(
                FsStore::new(),
                heat3d::program(self.cfg.clone()),
                self.cfg.n_ranks(),
                || {
                    clock.tick();
                    paper_builder(&self.cfg, inputs.seed).metrics(traced)
                },
            )
            .expect("table2 campaign");
        (result, clock)
    }
}

impl Workload for Table2 {
    type Inputs = Table2Inputs;
    const NAME: &'static str = "table2_heat3d";
    const RANKS: usize = 16 * 16 * 16;

    fn prepare() -> Self {
        let mut cfg = HeatConfig::paper(250);
        cfg.ranks = [16, 16, 16];
        cfg.global = [256, 256, 256];
        Table2 { cfg }
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Table2Inputs {
        let orch_seed = spanned(tr, "inputs", || self.orchestrator_seed(seed));
        model_build(tr, || paper_machine(self.cfg.ranks));
        noop_run(paper_builder(&self.cfg, seed), tr);
        Table2Inputs { seed, orch_seed }
    }

    fn body(&self, inputs: &Table2Inputs, traced: bool) -> Outcome {
        let (result, clock) = self.campaign(inputs, traced);
        let mut out = Outcome::default();
        clock.absorb(&mut out, &result);
        campaign_stats(&mut out, "campaign", &result);
        out.invariant(result.completed, || "campaign did not complete".into());
        out.invariant(result.runs.len() == 2 && result.failures == 1, || {
            format!(
                "campaign shape drifted: {} runs, {} failures (expected 2, 1)",
                result.runs.len(),
                result.failures
            )
        });
        out
    }

    fn profile(&self, _inputs: &Table2Inputs) -> LayerProfile {
        let l = self.cfg.local();
        LayerProfile {
            ranks: Self::RANKS,
            mpi: Self::MPI,
            payload: l[0] * l[1] * 8,
            net: paper_machine(self.cfg.ranks),
            faults: Vec::new(),
            pairs: Vec::new(),
            fs: FsModel::free(),
            // Modeled compute: a config fingerprint plus a state token.
            ckpt_bytes: 128,
            reliability: None,
        }
    }

    /// Failure-free E1 against the paper's Table II value for C = 250
    /// (6,377 s is the paper's E1 at 32³ ranks; the compute share,
    /// which the per-point calibration pins, is 5,243 s of it).
    fn traced_extras(&self, inputs: &Table2Inputs, _wall_s: f64) -> BTreeMap<&'static str, f64> {
        let e1 = paper_builder(&self.cfg, inputs.seed)
            .run(heat3d::program(self.cfg.clone()))
            .expect("failure-free run")
            .exit_time()
            .as_secs_f64();
        const PAPER_E1_C250: f64 = 6377.0;
        BTreeMap::from([(
            "sim.paper_e1_err_pct",
            (e1 - PAPER_E1_C250).abs() / PAPER_E1_C250 * 100.0,
        )])
    }
}

// ----------------------------------------------------------------------
// allreduce_64k / allreduce_64k_par2
// ----------------------------------------------------------------------

const ALLREDUCE_RANKS: usize = 65_536;
const ALLREDUCE_DIMS: [usize; 3] = [32, 32, 64];
const ALLREDUCE_ROUNDS: u32 = 1;
const ALLREDUCE_ELEMS: usize = 64;

fn allreduce_builder(seed: u64, workers: usize, engine: EngineKind) -> SimBuilder {
    SimBuilder::new(ALLREDUCE_RANKS)
        .net(paper_machine(ALLREDUCE_DIMS))
        .workers(workers)
        .engine(engine)
        .seed(seed)
}

fn allreduce_run(builder: SimBuilder, traced: bool) -> (Instant, RunReport) {
    let started = Instant::now();
    let report = builder
        .metrics(traced)
        .run(kernels::compute_allreduce(
            ALLREDUCE_ROUNDS,
            ALLREDUCE_ELEMS,
            SimTime::from_millis(1),
        ))
        .expect("allreduce run");
    (started, report)
}

fn allreduce_stats(out: &mut Outcome, r: &RunReport) {
    out.stat("events", r.sim.events_processed);
    out.stat("sends", r.mpi.sends);
    out.stat("collectives", r.mpi.collectives);
    out.stat("exit_ns", r.exit_time().as_nanos());
    out.stat("completed", (r.sim.exit == ExitKind::Completed) as u64);
}

fn allreduce_profile() -> LayerProfile {
    LayerProfile {
        ranks: ALLREDUCE_RANKS,
        mpi: true,
        payload: ALLREDUCE_ELEMS * 8,
        net: paper_machine(ALLREDUCE_DIMS),
        faults: Vec::new(),
        pairs: Vec::new(),
        fs: FsModel::free(),
        ckpt_bytes: 0,
        reliability: None,
    }
}

/// Bulk-synchronous compute + tree allreduce on 65,536 ranks,
/// sequential engine: xsim-mpi matching, requests and collective
/// bookkeeping do most of the work.
pub struct Allreduce;

impl Workload for Allreduce {
    type Inputs = u64;
    const NAME: &'static str = "allreduce_64k";
    const RANKS: usize = ALLREDUCE_RANKS;

    fn prepare() -> Self {
        Allreduce
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> u64 {
        model_build(tr, || paper_machine(ALLREDUCE_DIMS));
        noop_run(allreduce_builder(seed, 1, EngineKind::Sequential), tr);
        seed
    }

    fn body(&self, seed: &u64, traced: bool) -> Outcome {
        let (started, r) =
            allreduce_run(allreduce_builder(*seed, 1, EngineKind::Sequential), traced);
        let mut out = Outcome::default();
        out.absorb(started, &r);
        allreduce_stats(&mut out, &r);
        out.invariant(r.sim.exit == ExitKind::Completed, || {
            "run did not complete".into()
        });
        out
    }

    fn profile(&self, _: &u64) -> LayerProfile {
        allreduce_profile()
    }
}

/// The identical program and machine on the parallel engine with
/// `min(2, nproc)` workers. Its simulated statistics must equal the
/// sequential engine's.
pub struct AllreducePar2 {
    /// Sequential reference: simulated statistics and host wall.
    reference: BTreeMap<String, u64>,
    /// Host wall of the sequential reference run.
    seq_wall: Duration,
}

impl Workload for AllreducePar2 {
    type Inputs = u64;
    const NAME: &'static str = "allreduce_64k_par2";
    const RANKS: usize = ALLREDUCE_RANKS;

    fn prepare() -> Self {
        // The statistics compared are seed-independent (the program
        // draws no random numbers), so one reference serves every seed.
        let (started, r) = allreduce_run(allreduce_builder(17, 1, EngineKind::Sequential), false);
        let mut out = Outcome::default();
        allreduce_stats(&mut out, &r);
        AllreducePar2 {
            reference: out.stats,
            seq_wall: started.elapsed(),
        }
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> u64 {
        model_build(tr, || paper_machine(ALLREDUCE_DIMS));
        noop_run(
            allreduce_builder(seed, par_workers(), EngineKind::Parallel),
            tr,
        );
        seed
    }

    fn body(&self, seed: &u64, traced: bool) -> Outcome {
        let (started, r) = allreduce_run(
            allreduce_builder(*seed, par_workers(), EngineKind::Parallel),
            traced,
        );
        let mut out = Outcome::default();
        out.absorb(started, &r);
        allreduce_stats(&mut out, &r);
        let diverged = (out.stats != self.reference).then(|| {
            format!(
                "parallel engine diverged from sequential: {:?} vs {:?}",
                out.stats, self.reference
            )
        });
        out.invariant(diverged.is_none(), || diverged.unwrap_or_default());
        out
    }

    fn profile(&self, _: &u64) -> LayerProfile {
        allreduce_profile()
    }

    /// Sequential wall ÷ (parallel wall × workers). Says nothing on a
    /// 1-CPU host, so it is not reported there.
    fn traced_extras(&self, _: &u64, wall_s: f64) -> BTreeMap<&'static str, f64> {
        let workers = par_workers();
        if workers < 2 {
            return BTreeMap::new();
        }
        BTreeMap::from([(
            "core.engine.par_efficiency",
            self.seq_wall.as_secs_f64() / (wall_s * workers as f64),
        )])
    }
}

// ----------------------------------------------------------------------
// storm_faulted
// ----------------------------------------------------------------------

const STORM_RANKS: usize = 512;
const STORM_ROUNDS: u32 = 32;
const STORM_PAYLOAD: usize = 256;
const STORM_DIMS: [usize; 3] = [32, 32, 32];
/// The `BENCH_msgpath` strides (16 + 16·32, 13 + 10·32); the kernel
/// reduces them modulo the world size.
const STORM_STRIDES: [usize; 2] = [528, 333];

/// The `BENCH_msgpath` storm: every rank exchanges messages with two
/// far partners on the 32³ torus while two links are dead and one runs
/// at half bandwidth, route cache on. Every distinct pair pays one cold
/// BFS; xsim-net does almost all the work.
pub struct Storm;

/// Inputs of [`Storm`].
pub struct StormInputs {
    seed: u64,
    faults: Vec<NetFault>,
}

impl Storm {
    /// Two dead links and one degraded link, active for the whole run.
    /// The seed places them (anywhere on the torus, any direction); the
    /// BFS cost is set by the pair distances, not by where the detours
    /// are, so every seed measures the same amount of routing.
    fn faults(seed: u64) -> Vec<NetFault> {
        let topo = Topology::Torus3d { dims: STORM_DIMS };
        let mut rng = DetRng::stream(seed, 0x5702_3F00);
        let mut fault = |kind: LinkFaultKind| NetFault {
            node: rng.gen_index(topo.nodes()),
            dir: Some(rng.gen_index(6)),
            kind,
            from: SimTime::ZERO,
            until: None,
        };
        vec![
            fault(LinkFaultKind::Down),
            fault(LinkFaultKind::Down),
            fault(LinkFaultKind::Degraded(0.5)),
        ]
    }

    fn builder(inputs: &StormInputs) -> SimBuilder {
        SimBuilder::new(STORM_RANKS)
            .net(paper_machine(STORM_DIMS))
            .net_faults(inputs.faults.clone())
            .seed(inputs.seed)
    }
}

impl Workload for Storm {
    type Inputs = StormInputs;
    const NAME: &'static str = "storm_faulted";
    const RANKS: usize = STORM_RANKS;

    fn prepare() -> Self {
        Storm
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> StormInputs {
        let faults = spanned(tr, "inputs", || Self::faults(seed));
        model_build(tr, || {
            let mut table = LinkStateTable::new(Topology::Torus3d { dims: STORM_DIMS });
            for f in &faults {
                table.add(*f);
            }
            paper_machine(STORM_DIMS).with_faults(table)
        });
        let inputs = StormInputs { seed, faults };
        noop_run(Self::builder(&inputs), tr);
        inputs
    }

    fn body(&self, inputs: &StormInputs, traced: bool) -> Outcome {
        let started = Instant::now();
        let r = Self::builder(inputs)
            .metrics(traced)
            .run(kernels::p2p_storm(
                STORM_ROUNDS,
                STORM_STRIDES.to_vec(),
                STORM_PAYLOAD,
            ))
            .expect("storm run");
        let mut out = Outcome::default();
        out.absorb(started, &r);
        out.stat("events", r.sim.events_processed);
        out.stat("sends", r.mpi.sends);
        out.stat("exit_ns", r.exit_time().as_nanos());
        let expected = STORM_ROUNDS as u64 * STORM_STRIDES.len() as u64 * STORM_RANKS as u64;
        out.invariant(r.sim.exit == ExitKind::Completed, || {
            "run did not complete".into()
        });
        out.invariant(r.mpi.sends == expected, || {
            format!("{} sends, expected {expected}", r.mpi.sends)
        });
        out
    }

    fn profile(&self, inputs: &StormInputs) -> LayerProfile {
        let pairs = (0..STORM_RANKS)
            .flat_map(|r| {
                STORM_STRIDES
                    .iter()
                    .map(move |s| (r, (r + s % STORM_RANKS) % STORM_RANKS))
            })
            .collect();
        LayerProfile {
            ranks: Self::RANKS,
            mpi: Self::MPI,
            payload: STORM_PAYLOAD,
            net: paper_machine(STORM_DIMS),
            faults: inputs.faults.clone(),
            pairs,
            fs: FsModel::free(),
            ckpt_bytes: 0,
            reliability: None,
        }
    }
}

// ----------------------------------------------------------------------
// rawcore_1m
// ----------------------------------------------------------------------

const RAWCORE_VPS: usize = 1 << 20;
const RAWCORE_ROUNDS: u32 = 2;

/// The `million_vp` sleep/wake ring: each VP alternates a timer sleep
/// with a lookahead-respecting wake of its ring successor. Queue + VP
/// table + `CallFn` only, no MPI state.
pub fn ring_of_wakes(n_ranks: usize, rounds: u32) -> Arc<dyn VpProgram> {
    Arc::new(move |rank: Rank| {
        Box::pin(async move {
            for _ in 0..rounds {
                ctx::sleep(SimTime::from_micros(10)).await;
                let peer = Rank::new((rank.idx() + 1) % n_ranks);
                ctx::with_kernel(|k, me| {
                    let t = k.vp(me).clock() + SimTime::from_micros(2);
                    k.schedule_at(t, peer, xsim_core::event::Action::WakeMessage);
                });
            }
            VpExit::Finished
        }) as VpFuture
    })
}

/// Run the ring on the bare core engine.
pub fn raw_core_run(vps: usize, rounds: u32, seed: u64) -> SimReport {
    let cfg = CoreConfig {
        n_ranks: vps,
        lookahead: SimTime::from_micros(1),
        seed,
        ..Default::default()
    };
    xsim_core::engine::run(cfg, ring_of_wakes(vps, rounds), &|_| {}).expect("raw core run")
}

/// 2²⁰ VPs on the bare event core.
pub struct RawCore;

impl Workload for RawCore {
    type Inputs = u64;
    const NAME: &'static str = "rawcore_1m";
    const RANKS: usize = RAWCORE_VPS;
    const MPI: bool = false;

    fn prepare() -> Self {
        RawCore
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> u64 {
        // No machine model below the core; the fixed cost is spawning
        // and retiring every VP (a 0-round run).
        spanned(tr, "noop", || raw_core_run(RAWCORE_VPS, 0, seed));
        seed
    }

    fn body(&self, seed: &u64, _traced: bool) -> Outcome {
        let started = Instant::now();
        let sim = raw_core_run(RAWCORE_VPS, RAWCORE_ROUNDS, *seed);
        let mut out = Outcome::default();
        out.absorb_core(started, &sim);
        out.stat("events", sim.events_processed);
        out.stat("context_switches", sim.context_switches);
        out.stat("exit_ns", sim.exit_time().as_nanos());
        out.invariant(sim.exit == ExitKind::Completed, || {
            "run did not complete".into()
        });
        out
    }

    fn profile(&self, _: &u64) -> LayerProfile {
        LayerProfile {
            ranks: Self::RANKS,
            mpi: Self::MPI,
            payload: 0,
            net: NetModel::small(1),
            faults: Vec::new(),
            pairs: Vec::new(),
            fs: FsModel::free(),
            ckpt_bytes: 0,
            reliability: None,
        }
    }
}

// ----------------------------------------------------------------------
// protection_mix
// ----------------------------------------------------------------------

const PROTECTION_FIT: f64 = 1.0e9;
const PROTECTION_MAX_RESTARTS: usize = 100;
/// Seed of the failure *times*; see [`ProtectionMix::schedule`].
const PROTECTION_TIME_SEED: u64 = 17;

/// FIT 1e9 × {`cr`, `replication:2`, `partial:2:<first quarter>`} on the
/// heat config of the `protection` bin over `FsModel::typical_pfs()`.
/// Many short runs instead of one long one: set-up, restore, the r²
/// replication copies, heartbeats and ULFM dominate.
pub struct ProtectionMix {
    heat: HeatConfig,
    horizon: SimTime,
}

/// Inputs of [`ProtectionMix`]: one schedule per scheme.
pub struct ProtectionInputs {
    seed: u64,
    cells: Vec<(ProtectionScheme, usize, FailureSchedule)>,
}

impl ProtectionMix {
    fn schemes(&self) -> Vec<ProtectionScheme> {
        let critical: BTreeSet<usize> = (0..self.heat.n_ranks() / 4).collect();
        vec![
            ProtectionScheme::CheckpointRestart {
                mode: CkptMode::Full,
            },
            ProtectionScheme::Replication { degree: 2 },
            ProtectionScheme::Partial {
                degree: 2,
                critical,
            },
        ]
    }

    fn physical(&self, scheme: &ProtectionScheme) -> usize {
        ReplicaMap::from_scheme(scheme, self.heat.n_ranks())
            .map_or(self.heat.n_ranks(), |m| m.physical_size())
    }

    fn reliability(physical: usize) -> SystemReliability {
        let node = NodeReliability::new().with(Component::new("node", PROTECTION_FIT), 1);
        SystemReliability::new(node, physical)
    }

    /// The scheme's failure schedule. Failure *times* are the
    /// per-node exponential draws of one fixed seed, shared by all
    /// schemes (as in the bin: ranks common to two schemes fail at the
    /// same instants); the benchmark seed rotates *which* nodes they
    /// hit, inside each protection class (unreplicated ranks, replica
    /// teams), so the victims differ from seed to seed while the number
    /// of runs and the work per run stay the same.
    fn schedule(&self, scheme: &ProtectionScheme, seed: u64) -> FailureSchedule {
        let logical = self.heat.n_ranks();
        let physical = self.physical(scheme);
        let base =
            Self::reliability(physical).generate_schedule(self.horizon, PROTECTION_TIME_SEED);
        let teams = physical - logical; // replicated logical ranks lead the rank space
        let shift = DetRng::stream(seed, 0x0907_EC70).next_u64() as usize;
        base.map_ranks(|r| {
            let rotate = |r: usize, lo: usize, len: usize| lo + (r - lo + shift) % len;
            if teams == 0 {
                rotate(r, 0, logical)
            } else if r >= logical {
                rotate(r, logical, teams) // replica of team (r - logical)
            } else if r < teams {
                rotate(r, 0, teams) // primary of a team: same shift as its replica
            } else {
                rotate(r, teams, logical - teams)
            }
        })
    }

    /// The paper's link parameters on a fully-connected topology sized
    /// to the physical world: replicated layouts have ragged sizes no
    /// torus hosts.
    fn machine(physical: usize) -> NetModel {
        let mut net = NetModel::paper_machine();
        net.topology = Topology::FullyConnected { nodes: physical };
        net
    }

    fn builder(physical: usize, seed: u64) -> SimBuilder {
        SimBuilder::new(physical)
            .net(Self::machine(physical))
            .proc(ProcModel::with_slowdown(1000.0))
            .collectives(CollAlgo::Linear)
            .fs_model(FsModel::typical_pfs())
            .seed(seed)
    }
}

impl Workload for ProtectionMix {
    type Inputs = ProtectionInputs;
    const NAME: &'static str = "protection_mix";
    /// 64 logical ranks, fully duplicated.
    const RANKS: usize = 128;

    fn prepare() -> Self {
        let heat = HeatConfig {
            global: [64, 64, 64],
            ranks: [4, 4, 4],
            iterations: 120,
            halo_interval: 4,
            ckpt_interval: 12,
            mode: ComputeMode::Modeled,
            ckpt_mode: CkptMode::Full,
            per_point: SimTime::from_nanos(1280),
            prefix: "prot".into(),
        };
        // 50× the calibrated failure-free compute time, as the bin
        // sizes its horizon: covers even a thrashing campaign.
        let e1 = heat.iterations * heat.points_per_rank() * heat.per_point.as_nanos() * 1000;
        ProtectionMix {
            heat,
            horizon: SimTime(e1 * 50),
        }
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> ProtectionInputs {
        let cells = spanned(tr, "inputs", || {
            self.schemes()
                .into_iter()
                .map(|s| {
                    let schedule = self.schedule(&s, seed);
                    (s.clone(), self.physical(&s), schedule)
                })
                .collect::<Vec<_>>()
        });
        let largest = cells.iter().map(|c| c.1).max().expect("cells");
        model_build(tr, || Self::machine(largest));
        noop_run(Self::builder(largest, seed), tr);
        ProtectionInputs { seed, cells }
    }

    fn body(&self, inputs: &ProtectionInputs, traced: bool) -> Outcome {
        let mut out = Outcome::default();
        let hb = HeartbeatConfig::default();
        for (scheme, physical, schedule) in &inputs.cells {
            let (program, done_marker) = match scheme {
                ProtectionScheme::CheckpointRestart { mode } => {
                    let mut cfg = self.heat.clone();
                    cfg.ckpt_mode = *mode;
                    (heat3d::program(cfg), None)
                }
                _ => {
                    let cfg = RepHeatConfig {
                        heat: self.heat.clone(),
                        scheme: scheme.clone(),
                        hb,
                        ckpt: true,
                    };
                    let marker = cfg.done_marker();
                    (heat3d_rep::program(cfg), Some(marker))
                }
            };
            let campaign = ProtectionCampaign {
                schedule: schedule.clone(),
                max_restarts: PROTECTION_MAX_RESTARTS,
                manager: CheckpointManager::new(&self.heat.prefix),
                ckpt_ranks: self.heat.n_ranks() as u32,
                mode: scheme.ckpt_mode(),
                done_marker,
            };
            let clock = RunClock::new();
            let result = campaign
                .run_to_completion(FsStore::new(), program, || {
                    clock.tick();
                    let mut b = Self::builder(*physical, inputs.seed).metrics(traced);
                    if scheme.is_replicated() {
                        // Align the MPI failure detector with the
                        // heartbeat protocol, as the bin does.
                        b = b.detector(hb.detector());
                    }
                    b
                })
                .expect("protection campaign");
            clock.absorb(&mut out, &result);
            // "partial:2:0+1+…" is long; the scheme kind is enough.
            let label = scheme.to_string();
            let label = label.split(':').next().expect("scheme kind");
            campaign_stats(&mut out, label, &result);
            if traced {
                let failovers: u64 = result
                    .runs
                    .iter()
                    .filter_map(|r| r.metrics.as_ref())
                    .map(|m| m.set.value(ids::REP_FAILOVERS))
                    .sum();
                out.stat(&format!("{label}.failovers"), failovers);
                if matches!(scheme, ProtectionScheme::Replication { .. }) {
                    out.invariant(failovers > 0, || "replication cell saw no failover".into());
                }
            }
            if matches!(scheme, ProtectionScheme::Replication { .. }) {
                out.invariant(result.completed, || {
                    "replication cell did not complete".into()
                });
            }
        }
        out
    }

    fn profile(&self, inputs: &ProtectionInputs) -> LayerProfile {
        let largest = inputs.cells.iter().map(|c| c.1).max().expect("cells");
        let l = self.heat.local();
        LayerProfile {
            ranks: Self::RANKS,
            mpi: Self::MPI,
            payload: l[0] * l[1] * 8,
            net: Self::machine(largest),
            faults: Vec::new(),
            pairs: Vec::new(),
            fs: FsModel::typical_pfs(),
            ckpt_bytes: 128,
            reliability: Some((Self::reliability(largest), self.horizon)),
        }
    }
}

// ----------------------------------------------------------------------
// ckpt_modes_real
// ----------------------------------------------------------------------

const CKPT_IO_NODES: u32 = 4;

/// heat3d with real stencil data over `FsModel::striped(4)`, once per
/// checkpoint mode, each with one rank killed at 60 % of the
/// failure-free exit time and an orchestrated restart (the
/// `tests/ckpt_modes.rs` pattern). The only workload with real bytes.
pub struct CkptModes {
    base: HeatConfig,
    /// Per mode: failure-free exit time and the CRC of the final grids.
    clean: Vec<(CkptMode, SimTime, u32)>,
}

/// Inputs of [`CkptModes`].
pub struct CkptInputs {
    seed: u64,
    victim: usize,
}

impl CkptModes {
    const MODES: [CkptMode; 4] = [
        CkptMode::Full,
        CkptMode::Aggregated { group: 8 },
        CkptMode::Buddy,
        CkptMode::Incremental { full_every: 4 },
    ];

    fn cfg(&self, mode: CkptMode) -> HeatConfig {
        let mut cfg = self.base.clone();
        cfg.ckpt_mode = mode;
        cfg
    }

    fn builder(&self, seed: u64) -> SimBuilder {
        let n = self.base.n_ranks();
        SimBuilder::new(n)
            .net(NetModel::small(n))
            .fs_model(FsModel::striped(CKPT_IO_NODES))
            .seed(seed)
    }

    /// CRC over every rank's final grid bytes, resolved offline through
    /// the mode's own layout.
    fn grid_crc(store: &FsStore, cfg: &HeatConfig) -> Option<u32> {
        let mgr = CheckpointManager::new(&cfg.prefix);
        let n = cfg.n_ranks() as u32;
        let mut all = Vec::new();
        for rank in 0..n {
            let resolved = resolve_latest(store, &mgr, cfg.ckpt_mode, rank, n)?;
            if resolved.generation != cfg.iterations {
                return None;
            }
            all.extend_from_slice(resolved.ckpt.section("grid")?);
        }
        Some(crc32(&all))
    }
}

impl Workload for CkptModes {
    type Inputs = CkptInputs;
    const NAME: &'static str = "ckpt_modes_real";
    const RANKS: usize = 4 * 4 * 2;

    fn prepare() -> Self {
        let base = HeatConfig {
            global: [64, 64, 32],
            ranks: [4, 4, 2],
            iterations: 32,
            halo_interval: 4,
            ckpt_interval: 4,
            mode: ComputeMode::Real,
            ckpt_mode: CkptMode::Full,
            per_point: SimTime::from_nanos(160),
            prefix: "heat".into(),
        };
        let mut w = CkptModes {
            base,
            clean: Vec::new(),
        };
        for mode in Self::MODES {
            let cfg = w.cfg(mode);
            let b = w.builder(17);
            let store = b.store();
            let r = b.run(heat3d::program(cfg.clone())).expect("clean run");
            assert_eq!(r.sim.exit, ExitKind::Completed, "{mode}: clean run");
            let crc = Self::grid_crc(&store, &cfg).expect("clean final state");
            w.clean.push((mode, r.exit_time(), crc));
        }
        w
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> CkptInputs {
        let victim = spanned(tr, "inputs", || {
            DetRng::stream(seed, 0xC4B7_0D35).gen_index(self.base.n_ranks())
        });
        model_build(tr, || NetModel::small(self.base.n_ranks()));
        noop_run(self.builder(seed), tr);
        CkptInputs { seed, victim }
    }

    fn body(&self, inputs: &CkptInputs, traced: bool) -> Outcome {
        let mut out = Outcome::default();
        let n = self.base.n_ranks();
        for (mode, clean_exit, clean_crc) in &self.clean {
            let cfg = self.cfg(*mode);
            let store = FsStore::new();
            let program = heat3d::program(cfg.clone());
            let mgr = CheckpointManager::new(&cfg.prefix);

            // Run 0: the victim dies at 60 % of the failure-free time.
            let started = Instant::now();
            let first = self
                .builder(inputs.seed)
                .metrics(traced)
                .fs_store(store.clone())
                .inject_failure(inputs.victim, clean_exit.scale(0.6))
                .run(program.clone())
                .expect("aborted run");
            out.absorb(started, &first);
            out.invariant(first.sim.exit == ExitKind::Aborted, || {
                format!("{mode}: victim did not abort the run")
            });
            let failed: Vec<u32> = first.sim.failures.iter().map(|f| f.rank.0).collect();
            write_exit_time(&store, first.exit_time());
            mgr.cleanup_between_runs(&store, n as u32, *mode, &failed);

            // Restart to completion on the continuous timeline.
            let mut orch = Orchestrator::new(FailureModel::None, 1, mgr);
            orch.mode = *mode;
            let clock = RunClock::new();
            let result = orch
                .run_to_completion(store.clone(), program, n, || {
                    clock.tick();
                    self.builder(inputs.seed).metrics(traced)
                })
                .expect("restart campaign");
            clock.absorb(&mut out, &result);
            bump(&mut out.counters, "ckpt.restarts", 1);

            let label = mode.to_string();
            out.stat(&format!("{label}.first_events"), first.sim.events_processed);
            campaign_stats(&mut out, &label, &result);
            out.invariant(result.completed, || {
                format!("{mode}: restart did not complete")
            });
            let (mode, clean_crc, reference_crc) = (*mode, *clean_crc, self.clean[0].2);
            out.pending.push(Box::new(move |out: &mut Outcome| {
                let crc = Self::grid_crc(&store, &cfg);
                out.stat(&format!("{label}.grid_crc"), crc.unwrap_or(0) as u64);
                out.invariant(crc == Some(clean_crc), || {
                    format!("{mode}: restored grid differs from the uninterrupted run")
                });
                out.invariant(clean_crc == reference_crc, || {
                    format!("{mode}: final grid differs across checkpoint modes")
                });
            }));
        }
        out
    }

    fn profile(&self, _: &CkptInputs) -> LayerProfile {
        let l = self.base.local();
        let n = self.base.n_ranks();
        LayerProfile {
            ranks: Self::RANKS,
            mpi: Self::MPI,
            payload: l[0] * l[1] * 8,
            net: NetModel::small(n),
            faults: Vec::new(),
            pairs: Vec::new(),
            fs: FsModel::striped(CKPT_IO_NODES),
            // One halo layer around the interior, 8 B per point.
            ckpt_bytes: (l[0] + 2) * (l[1] + 2) * (l[2] + 2) * 8,
            reliability: None,
        }
    }

    /// Stencil cost: Real minus Modeled run of the same configuration
    /// with checkpoints off, per point-update.
    fn traced_extras(&self, inputs: &CkptInputs, _wall_s: f64) -> BTreeMap<&'static str, f64> {
        let wall = |mode: ComputeMode| {
            let mut cfg = self.base.clone();
            cfg.mode = mode;
            cfg.ckpt_interval = cfg.iterations;
            let t = Instant::now();
            self.builder(inputs.seed)
                .run(heat3d::program(cfg))
                .expect("stencil probe");
            t.elapsed().as_secs_f64()
        };
        let updates = (self.base.n_ranks() as u64
            * self.base.points_per_rank()
            * self.base.iterations) as f64;
        let ns = (wall(ComputeMode::Real) - wall(ComputeMode::Modeled)).max(0.0) * 1e9 / updates;
        BTreeMap::from([("apps.stencil_ns_per_point", ns)])
    }
}
