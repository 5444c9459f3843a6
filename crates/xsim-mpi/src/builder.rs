//! The simulation builder: composes the engine, machine models, file
//! system, MPI layer and failure injections into one runnable
//! configuration — the equivalent of xSim's command-line/environment
//! configuration surface (paper §IV-B).

use crate::error::ErrHandler;
use crate::mpi_ctx::{mpi_program, MpiCtx};
use crate::state::{
    install_failure_hook, CollAlgo, Detector, LossyTransport, MpiService, MpiStats, MpiWorld,
    PowerService,
};
use std::future::Future;
use std::sync::{Arc, Mutex};
use xsim_core::vp::VpProgram;
use xsim_core::{engine, CoreConfig, EngineKind, Kernel, Rank, SimError, SimReport, SimTime};
use xsim_fs::{FsModel, FsService, FsStore};
use xsim_net::{LinkStateTable, NetFault, NetModel};
use xsim_obs::{
    ids as metric_ids, ChromeTraceWriter, ObsReport, ObsService, ObsSink, PhaseKind, Trace,
};
use xsim_proc::{PowerModel, PowerReport, ProcModel};

/// The sinks are read only after `engine::run` returned, which
/// propagates worker panics; poison then means a service panicked while
/// flushing, and its totals cannot be trusted.
const SINK_POISONED: &str = "a service panicked while flushing into its sink";

/// A per-shard setup hook registered via [`SimBuilder::setup_hook`].
type SetupHook = Arc<dyn Fn(&mut Kernel) + Send + Sync>;

/// Result of one simulated run: the core engine report plus MPI-layer
/// statistics.
#[derive(Debug)]
pub struct RunReport {
    /// Engine-level report (exit kind, clocks, failures, abort time…).
    pub sim: SimReport,
    /// Aggregated MPI statistics.
    pub mpi: MpiStats,
    /// Energy accounting, when a power model was configured (paper
    /// §III-A item (4)).
    pub power: Option<PowerReport>,
    /// The run's timeline (MPI phases and file I/O), when tracing was
    /// enabled.
    pub trace: Option<Trace>,
    /// The metrics registry, when metrics were enabled.
    pub metrics: Option<ObsReport>,
}

impl RunReport {
    /// The maximum simulated MPI process time — the value xSim persists
    /// at application exit for restart continuation (paper §IV-E).
    pub fn exit_time(&self) -> SimTime {
        self.sim.exit_time()
    }

    /// Stream the trace as Chrome trace-event JSON (Perfetto-viewable):
    /// MPI phases on each rank's lane 0, file I/O on lane 1. Emits an
    /// empty-but-valid document when tracing was off.
    pub(crate) fn write_chrome_trace<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        let mut out = ChromeTraceWriter::new(w)?;
        let mut args = Vec::with_capacity(2);
        for e in self.trace.iter().flat_map(|t| &t.events) {
            let (cat, lane) = match e.kind {
                PhaseKind::FileIo => ("fs", 1),
                _ => ("mpi", 0),
            };
            args.clear();
            if e.bytes != 0 {
                args.push(("bytes", e.bytes));
            }
            if let Some(p) = e.peer {
                args.push(("peer", p.0 as u64));
            }
            out.complete(
                e.kind.as_str(),
                cat,
                e.rank.0,
                lane,
                e.start.as_nanos(),
                e.end.as_nanos(),
                &args,
            )?;
        }
        out.finish()?;
        Ok(())
    }

    /// The Chrome trace as an in-memory JSON string; `None` when tracing
    /// was off.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.trace.as_ref()?;
        let mut buf = Vec::new();
        self.write_chrome_trace(&mut buf)
            .expect("writing to a Vec cannot fail");
        Some(String::from_utf8(buf).expect("trace JSON is UTF-8"))
    }

    /// The machine-readable metrics snapshot (includes the engine
    /// section); `None` when metrics were not enabled.
    pub fn metrics_json(&self) -> Option<String> {
        self.metrics.as_ref().map(|m| m.to_json(Some(&self.sim)))
    }
}

/// Builder for a simulated MPI run.
pub struct SimBuilder {
    n_ranks: usize,
    workers: usize,
    engine: EngineKind,
    seed: u64,
    start_time: SimTime,
    verbose: bool,
    fail_blocked: bool,
    max_events: u64,
    net: NetModel,
    proc: ProcModel,
    fs_model: FsModel,
    fs_store: Arc<FsStore>,
    errhandler: ErrHandler,
    failures: Vec<(Rank, SimTime)>,
    net_faults: Vec<NetFault>,
    lossy: Option<LossyTransport>,
    notify_delay: Option<SimTime>,
    detector: Detector,
    coll_algo: CollAlgo,
    power: Option<PowerModel>,
    trace: bool,
    metrics: bool,
    setup_hooks: Vec<SetupHook>,
}

impl SimBuilder {
    /// A builder for `n_ranks` simulated MPI processes on a small
    /// fully-connected default machine. Use [`net`](Self::net) to select
    /// the paper's torus machine or any other model.
    pub fn new(n_ranks: usize) -> Self {
        SimBuilder {
            n_ranks,
            workers: 1,
            engine: EngineKind::Auto,
            seed: 0xD5_1A_B0_75,
            start_time: SimTime::ZERO,
            verbose: false,
            fail_blocked: false,
            max_events: u64::MAX,
            net: NetModel::small(n_ranks.max(1)),
            proc: ProcModel::default(),
            fs_model: FsModel::free(),
            fs_store: FsStore::new(),
            errhandler: ErrHandler::Fatal,
            failures: Vec::new(),
            net_faults: Vec::new(),
            lossy: None,
            notify_delay: None,
            detector: Detector::Timeout,
            coll_algo: CollAlgo::Tree,
            power: None,
            trace: false,
            metrics: false,
            setup_hooks: Vec::new(),
        }
    }

    /// Set the network model (machine topology, link classes, protocol
    /// thresholds, failure-detection timeouts).
    pub fn net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Set the processor model.
    pub fn proc(mut self, proc: ProcModel) -> Self {
        self.proc = proc;
        self
    }

    /// Set the file system cost model (default: free, the paper's
    /// Table II configuration).
    pub fn fs_model(mut self, m: FsModel) -> Self {
        self.fs_model = m;
        self
    }

    /// Use an existing file system store (so checkpoints survive across
    /// runs). Defaults to a fresh store.
    pub fn fs_store(mut self, store: Arc<FsStore>) -> Self {
        self.fs_store = store;
        self
    }

    /// Handle to the file system store this run will use.
    pub fn store(&self) -> Arc<FsStore> {
        self.fs_store.clone()
    }

    /// Number of native worker threads (with the default
    /// [`EngineKind::Auto`], 1 selects the sequential reference engine).
    pub fn workers(mut self, w: usize) -> Self {
        self.workers = w;
        self
    }

    /// Force an engine kind. [`EngineKind::Parallel`] with `workers(1)`
    /// runs the parallel code path without concurrency — the middle leg
    /// of the sequential/parallel differential tests.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Master seed for all deterministic randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Initial virtual clock of every VP (restart continuation, paper
    /// §IV-E).
    pub fn start_time(mut self, t: SimTime) -> Self {
        self.start_time = t;
        self
    }

    /// Print simulator-internal informational messages (failure/abort
    /// times and locations, shutdown statistics).
    pub fn verbose(mut self, v: bool) -> Self {
        self.verbose = v;
        self
    }

    /// Activate scheduled failures even while the target is blocked on
    /// communication (eager extension; the paper's strict activation
    /// rule is the default — see `CoreConfig::fail_blocked`).
    pub fn fail_blocked(mut self, v: bool) -> Self {
        self.fail_blocked = v;
        self
    }

    /// Event budget safety valve.
    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Default error handler for `MPI_COMM_WORLD` (default:
    /// `MPI_ERRORS_ARE_FATAL`).
    pub fn errhandler(mut self, h: ErrHandler) -> Self {
        self.errhandler = h;
        self
    }

    /// Schedule a process failure: "xSim additionally offers to pass a
    /// simulated MPI process failure schedule in the form of rank/time
    /// pairs" (paper §IV-B). The time is the *earliest* failure time.
    pub fn inject_failure(mut self, rank: usize, at: SimTime) -> Self {
        self.failures.push((Rank::new(rank), at));
        self
    }

    /// Schedule several failures at once.
    pub fn inject_failures(mut self, schedule: impl IntoIterator<Item = (usize, SimTime)>) -> Self {
        self.failures
            .extend(schedule.into_iter().map(|(r, t)| (Rank::new(r), t)));
        self
    }

    /// Schedule link/switch faults on the interconnect (permanent,
    /// transient, or degraded — see `xsim_net::NetFault`). At `run()`
    /// time the faults are compiled into a `LinkStateTable` over the
    /// machine topology and attached to the network model: system-class
    /// messages then route around dead links (hop-count inflation),
    /// pay degraded-link bandwidth, and detect partitions.
    pub fn net_faults(mut self, faults: impl IntoIterator<Item = NetFault>) -> Self {
        self.net_faults.extend(faults);
        self
    }

    /// Make the transport lossy: transmission attempts drop/corrupt per
    /// the configured probabilities and are retransmitted with
    /// exponential backoff; an exhausted retry budget escalates the peer
    /// into the process-failure path. A `LossyTransport` seed of 0 is
    /// replaced by the run's master seed.
    pub fn lossy(mut self, l: LossyTransport) -> Self {
        self.lossy = Some(l);
        self
    }

    /// Override the simulator-internal notification delay (default: the
    /// network model's minimum latency).
    pub fn notify_delay(mut self, d: SimTime) -> Self {
        self.notify_delay = Some(d);
        self
    }

    /// Select the failure detector (default: the paper's timeout-based
    /// detection, §IV-C).
    pub fn detector(mut self, d: Detector) -> Self {
        self.detector = d;
        self
    }

    /// Enable the node power model: the run report will carry an energy
    /// accounting (busy/idle/network joules) for the whole simulated
    /// machine.
    pub fn power(mut self, model: PowerModel) -> Self {
        self.power = Some(model);
        self
    }

    /// Select the collective algorithms. The default is
    /// `CollAlgo::Tree` (binomial barrier/bcast/reduce + ring
    /// allgather); pass `CollAlgo::Linear` to reproduce the paper's
    /// simulated system, which configures linear algorithms (§V-C) —
    /// the paper-fidelity benchmarks pin that explicitly.
    pub fn collectives(mut self, algo: CollAlgo) -> Self {
        self.coll_algo = algo;
        self
    }

    /// Record the run's timeline: every rank's compute, point-to-point,
    /// wait and collective phases and its file I/O, as virtual-time
    /// spans; retrieve it from `RunReport::trace`.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Collect the metrics registry (network, file system, checkpoint,
    /// fault counters and histograms); retrieve it from
    /// `RunReport::metrics`. Off by default: with metrics and tracing
    /// both disabled no observability service exists and every
    /// instrumentation site is a no-op.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Register an extra per-shard setup hook, run after the standard
    /// services are installed. Extension layers (e.g. the soft-error
    /// injector in xsim-fault) use this to attach their own services and
    /// scheduled events.
    pub fn setup_hook(mut self, f: impl Fn(&mut Kernel) + Send + Sync + 'static) -> Self {
        self.setup_hooks.push(Arc::new(f));
        self
    }

    /// Run an application function on every rank.
    pub fn run_app<F, Fut>(self, f: F) -> Result<RunReport, SimError>
    where
        F: Fn(MpiCtx) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Result<(), crate::error::MpiError>> + Send + 'static,
    {
        self.run(mpi_program(f))
    }

    /// Run an arbitrary [`VpProgram`].
    pub fn run(mut self, program: Arc<dyn VpProgram>) -> Result<RunReport, SimError> {
        self.net.validate(self.n_ranks).map_err(SimError::Config)?;
        let mut net = if self.net_faults.is_empty() {
            self.net
        } else {
            // Rerouting only lengthens routes and degradation only lowers
            // bandwidth, so the fault-free min_latency() below stays a
            // valid conservative lookahead.
            let table = LinkStateTable::from_faults(
                self.net.topology.clone(),
                self.net_faults.iter().copied(),
            );
            self.net.with_faults(table)
        };
        // The topology is final here: materialize the dense healthy hop
        // table (small tori only) so the no-fault message path is
        // a pure lookup.
        net.precompute_hops();
        let lossy = self.lossy.map(|mut l| {
            if l.seed == 0 {
                l.seed = self.seed;
            }
            l
        });
        let lookahead = net.min_latency();
        let notify_delay = self.notify_delay.unwrap_or(lookahead).max(lookahead);
        let start_time = self.start_time;

        // Striped-PFS transit rides the interconnect: derive it from the
        // network model when unset, and reject anything below the engine
        // lookahead — PFS arrival/completion events cross shards, so
        // they must clear the conservative window bound.
        if let Some(mut pfs) = self.fs_model.pfs {
            if pfs.transit == SimTime::ZERO {
                pfs.transit = lookahead;
                self.fs_model.pfs = Some(pfs);
            }
            if pfs.transit < lookahead {
                return Err(SimError::Config(format!(
                    "PFS transit {:?} is below the network lookahead {:?}",
                    pfs.transit, lookahead
                )));
            }
        }

        let mut cfg = CoreConfig {
            n_ranks: self.n_ranks,
            workers: self.workers,
            engine: self.engine,
            start_time: self.start_time,
            seed: self.seed,
            lookahead,
            fail_blocked: self.fail_blocked,
            max_events: self.max_events,
            verbose: self.verbose,
        };

        let world = Arc::new(MpiWorld {
            n_ranks: self.n_ranks,
            members: Arc::new((0..self.n_ranks).map(Rank::new).collect()),
            net,
            proc: self.proc,
            notify_delay,
            default_errhandler: self.errhandler,
            detector: self.detector,
            coll_algo: self.coll_algo,
            lossy,
            verbose: self.verbose,
        });

        if cfg.use_parallel() {
            // Everything crossing a shard boundary is either application
            // traffic (delayed by at least the network's cross-shard
            // latency for this partition: system-class when shard blocks
            // align with compute nodes, and faults only lengthen routes),
            // a simulator-internal notification (notify_delay) or PFS
            // server traffic (transit), so their minimum bounds the delay
            // of *any* cross-shard event: the window can be that wide.
            let pfs_transit = self.fs_model.pfs.map_or(SimTime::MAX, |p| p.transit);
            let cross = world
                .net
                .cross_shard_lookahead(cfg.ranks_per_shard())
                .min(notify_delay)
                .min(pfs_transit);
            cfg.lookahead = cfg.lookahead.max(cross);
        }
        let stats_sink = Arc::new(Mutex::new(MpiStats::default()));
        let fs_store = self.fs_store;
        let fs_model = self.fs_model;
        // One I/O-server state per run, shared by every shard's service.
        let pfs_state = FsService::shared_pfs(&fs_model);
        let failures = self.failures;
        let setup_hooks = self.setup_hooks;
        let power_model = self.power;
        let busy_sink: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
        let trace_enabled = self.trace;
        let metrics_enabled = self.metrics;
        let obs_sink: Arc<Mutex<ObsSink>> = Arc::new(Mutex::new(ObsSink::default()));

        let setup = {
            let world = world.clone();
            let stats_sink = stats_sink.clone();
            let busy_sink = busy_sink.clone();
            let obs_sink = obs_sink.clone();
            move |k: &mut Kernel| {
                let owned = k.owned_ranks();
                k.install_service(MpiService::new(
                    world.clone(),
                    owned.clone(),
                    stats_sink.clone(),
                ));
                k.install_service(FsService::with_pfs(
                    fs_store.clone(),
                    fs_model,
                    pfs_state.clone(),
                ));
                if power_model.is_some() {
                    k.install_service(PowerService::new(owned.clone(), busy_sink.clone()));
                }
                if metrics_enabled || trace_enabled {
                    k.install_service(ObsService::new(obs_sink.clone(), trace_enabled));
                }
                // Flush span/metric buffers deterministically at engine
                // shutdown instead of relying on service Drop order.
                k.add_shutdown_hook(Arc::new(|k: &mut Kernel| {
                    // Land the MPI layer's batched hot-path counters
                    // before the metric set is flushed into the sink.
                    let batch = k
                        .try_service_mut::<MpiService>()
                        .map(|svc| std::mem::take(&mut svc.net_batch));
                    if let Some(obs) = k.try_service_mut::<ObsService>() {
                        if let Some(batch) = batch {
                            batch.flush_into(&mut obs.set);
                        }
                        obs.flush();
                    }
                }));
                install_failure_hook(k);
                for (rank, at) in &failures {
                    if owned.contains(&rank.idx()) {
                        k.set_time_of_failure(*rank, *at);
                    }
                }
                for hook in &setup_hooks {
                    hook(k);
                }
            }
        };

        let sim = engine::run(cfg, program, &setup)?;
        // The setup closure (and the services it captured) is dropped by
        // now, so the busy sink holds every shard's accounting.
        drop(setup);
        let mpi = *stats_sink.lock().expect(SINK_POISONED);
        let power = power_model.map(|model| {
            let busy = busy_sink.lock().expect(SINK_POISONED);
            PowerReport::assemble(
                &model,
                &busy,
                &sim.final_clocks,
                start_time,
                mpi.sends,
                mpi.bytes_sent,
            )
        });
        let (obs, trace) = ObsSink::drain(&obs_sink);
        let trace = trace_enabled.then_some(trace);
        let mut metrics = metrics_enabled.then_some(obs);
        if let Some(m) = metrics.as_mut() {
            // Surface the engine execution profile as (volatile) metrics
            // so perf investigations see windows/batches/waits next to
            // the subsystem counters.
            let p = &sim.profile;
            m.set.add(metric_ids::ENGINE_WINDOWS, p.windows);
            m.set
                .add(metric_ids::ENGINE_BARRIER_WAIT_NS, p.barrier_wait_ns);
            m.set
                .add(metric_ids::ENGINE_BATCHED_EVENTS, p.batched_events);
            m.set.add(metric_ids::ENGINE_BATCH_MAX, p.batch_max_events);
            m.set
                .add(metric_ids::ENGINE_BARRIER_HWM_NS, p.window_barrier_hwm_ns);
            m.set.add(
                metric_ids::ENGINE_POOL_REUSE_RATIO,
                (p.pool_reuse_ratio() * 1000.0) as u64,
            );
            m.set
                .add(metric_ids::ENGINE_QUEUE_BUCKET_HWM, p.queue_bucket_hwm);
            m.set
                .add(metric_ids::ENGINE_QUEUE_RING_HWM, p.queue_ring_hwm);
            m.set
                .add(metric_ids::ENGINE_QUEUE_EMPTY_STEPS, p.queue_empty_steps);
            m.set
                .add(metric_ids::ENGINE_QUEUE_REBUILDS, p.queue_rebuilds);
            // What fault-aware routing fell back to (detour-memo traffic
            // and BFS runs), read back from the shared fault table.
            // Volatile: shards can race to fill the same entry, so the
            // counts (not the routes) vary with scheduling.
            if let Some(table) = &world.net.faults {
                let s = table.route_cache_stats();
                m.set.add(metric_ids::NET_ROUTE_CACHE_HITS, s.hits);
                m.set.add(metric_ids::NET_ROUTE_CACHE_MISSES, s.misses);
                m.set
                    .add(metric_ids::NET_ROUTE_CACHE_EVICTIONS, s.evictions);
                m.set.add(metric_ids::NET_ROUTE_BFS_RUNS, s.bfs_runs);
            }
        }
        Ok(RunReport {
            sim,
            mpi,
            power,
            trace,
            metrics,
        })
    }
}
