//! `xsim` — command-line front end.
//!
//! Mirrors the usage surface the paper describes: failure schedules as
//! rank/time pairs "on the command line or via an environment variable"
//! (§IV-B), machine/model knobs, and the checkpoint/restart campaign
//! loop of §V.
//!
//! ```text
//! xsim heat  --ranks 4x4x4 --global 64x64x64 --iters 200 --ckpt 25 \
//!            [--halo N] [--mttf SECONDS] [--failures "r:t,r:t"] [--seed N]
//!            [--workers N] [--slowdown F] [--per-point-ns N] [--power]
//!            [--trace FILE.csv]
//! xsim ring  --ranks N [--laps N] [--payload BYTES] [--workers N]
//!            [--failures "r:t,r:t"]
//! ```
//!
//! `--failures` takes `rank:seconds` pairs and the `rank:`/`link:`/
//! `switch:` entries of `XSIM_NET_FAULTS`; the `XSIM_FAILURES` and
//! `XSIM_NET_FAULTS` environment variables add to it. The first line of
//! output is the `scenario:` line that replays the run; the next is the
//! run's `digest:` (`SimReport::digest`), equal for equal simulations.

use std::io::Write as _;
use std::process::exit;
use xsim::apps::heat3d::{self, HeatConfig};
use xsim::apps::kernels;
use xsim::apps::scenario::{App, Cli, Scenario};
use xsim::prelude::*;
use xsim_proc::PowerModel;

/// Keys of `xsim heat` and of `xsim ring`.
const HEAT: &str = "heat ranks global iters ckpt halo workers seed failures mttf slowdown \
    per-point-ns power trace";
const RING: &str = "ring ranks laps payload workers failures";

fn usage() -> ! {
    eprintln!(
        "usage:\n  xsim heat [--ranks AxBxC] [--global XxYxZ] [--iters N] [--ckpt N] [--halo N] \\\n    \
         [--mttf SECONDS] [--failures \"r:t,r:t\"] [--seed N] [--workers N] \\\n    \
         [--slowdown F] [--per-point-ns N] [--power] [--trace FILE]\n  \
         xsim ring [--ranks N] [--laps N] [--payload BYTES] [--workers N] [--failures \"r:t\"]\n\n\
         XSIM_FAILURES=\"rank:seconds,...\" and XSIM_NET_FAULTS add faults (paper §IV-B)."
    );
    exit(2)
}

fn cmd_heat(cli: &Cli, cfg: &HeatConfig) {
    let sc = &cli.scenario;
    let mut cfg = cfg.clone();
    if let Some(ns) = cli.per_point_ns {
        cfg.per_point = SimTime::from_nanos(ns);
    }
    let n = cfg.n_ranks();
    let slowdown = cli.slowdown.unwrap_or(1000.0);

    let make_builder = || {
        let mut net = NetModel::paper_machine();
        net.topology = xsim::net::Topology::Torus3d { dims: cfg.ranks };
        let mut b = SimBuilder::new(n)
            .net(net)
            .proc(ProcModel::with_slowdown(slowdown))
            .workers(sc.workers)
            .seed(sc.seed);
        if cli.power {
            b = b.power(PowerModel::typical_node());
        }
        b
    };

    // Baseline (E1).
    let baseline = sc
        .inject(make_builder())
        .run(heat3d::program(cfg.clone()))
        .unwrap_or_else(|e| {
            eprintln!("simulation failed: {e}");
            exit(1)
        });
    println!("digest: {:#018x}", baseline.sim.digest);
    println!(
        "run: {:?} at {} ({} failures, {} events, wall {:.2?})",
        baseline.sim.exit,
        baseline.exit_time(),
        baseline.sim.failures.len(),
        baseline.sim.events_processed,
        baseline.sim.wall,
    );
    if let Some(p) = &baseline.power {
        println!(
            "energy: {:.1} kJ total ({:.1} kJ busy, {:.1} kJ idle, {:.3} kJ network), busy fraction {:.1}%",
            p.total_joules / 1e3,
            p.busy_joules / 1e3,
            p.idle_joules / 1e3,
            p.network_joules / 1e3,
            p.busy_fraction * 100.0
        );
    }

    // Optional MTTF-driven campaign.
    if let Some(mttf_s) = cli.mttf {
        let mttf = SimTime::from_secs_f64(mttf_s);
        let store = FsStore::new();
        let orch = Orchestrator::new(
            FailureModel::UniformTwiceMttf { mttf },
            sc.seed,
            CheckpointManager::new(&cfg.prefix),
        );
        let result = orch
            .run_to_completion(store, heat3d::program(cfg.clone()), n, make_builder)
            .unwrap_or_else(|e| {
                eprintln!("campaign failed: {e}");
                exit(1)
            });
        println!(
            "campaign (MTTF_s {mttf}): E2 = {}, F = {}, runs = {}, completed = {}",
            result.finish_time,
            result.failures,
            result.runs.len(),
            result.completed
        );
        if let Some(mttfa) = result.application_mttf() {
            println!("application MTTF (E2/(F+1)): {mttfa}");
        }
    }

    // Optional trace of the (failure-free) run.
    if let Some(path) = &cli.trace {
        let traced = make_builder()
            .trace(true)
            .run(heat3d::program(cfg.clone()))
            .unwrap_or_else(|e| {
                eprintln!("trace run failed: {e}");
                exit(1)
            });
        let trace = traced.trace.expect("tracing enabled");
        std::fs::File::create(path)
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                trace.write_csv(&mut w)?;
                w.flush()
            })
            .unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
        println!(
            "trace: {} events written to {path} (compute fraction {:.1}%)",
            trace.events.len(),
            trace.compute_fraction() * 100.0
        );
    }
}

fn cmd_ring(sc: &Scenario, n: usize, laps: u32, payload: usize) {
    let report = sc
        .inject(
            SimBuilder::new(n)
                .net(NetModel::small(n))
                .workers(sc.workers),
        )
        .run(kernels::ring(laps, payload))
        .unwrap_or_else(|e| {
            eprintln!("simulation failed: {e}");
            exit(1)
        });
    println!("digest: {:#018x}", report.sim.digest);
    println!(
        "ring({laps} laps, {payload} B, {n} ranks): {:?} at {}; {} sends, wall {:.2?}",
        report.sim.exit,
        report.exit_time(),
        report.mpi.sends,
        report.sim.wall
    );
}

fn main() {
    let keys = match std::env::args().nth(1).as_deref() {
        Some("heat") => HEAT,
        Some("ring") => RING,
        _ => usage(),
    };
    let cli = Cli::from_main(std::env::args(), keys, |k| std::env::var(k).ok());
    match &cli.scenario.app {
        App::Heat(cfg) => cmd_heat(&cli, cfg),
        App::Ring {
            ranks,
            laps,
            payload,
        } => cmd_ring(&cli.scenario, *ranks, *laps, *payload),
        App::None => usage(),
    }
}
