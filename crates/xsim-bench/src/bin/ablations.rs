//! Design-choice ablations (DESIGN.md §4): each section prints
//! *simulated* (virtual-time) comparisons for one modeling choice the
//! reproduction makes, so its effect on the Table II regime is visible.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin ablations [--net-faults] [--seed N] \
//!     [--failures SPEC] [--profile FILE]
//! ```
//!
//! The collective and eager-threshold sections run under the scenario's
//! faults (`--failures`, `XSIM_FAILURES`, `XSIM_NET_FAULTS`).

use std::sync::Arc;
use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::scenario::{Cli, Scenario};
use xsim_bench::paper_builder;
use xsim_core::vp::VpProgram;
use xsim_core::{Bytes, SimTime};
use xsim_fs::FsModel;
use xsim_mpi::{
    mpi_program, CollAlgo, Detector, ErrHandler, LossyTransport, MpiCtx, ReduceOp, SimBuilder,
};
use xsim_net::{LinkFaultKind, NetFault, NetModel, Topology};
use xsim_obs::ids;

fn run_virtual(sc: &Scenario, n: usize, program: Arc<dyn VpProgram>) -> SimTime {
    sc.inject(SimBuilder::new(n).net(NetModel::small(n)))
        .run(program)
        .unwrap()
        .exit_time()
}

/// One metered collective run: returns the virtual time, simulated
/// message count and mean host wall-time per message (µs).
fn coll_run(sc: &Scenario, n: usize, algo: CollAlgo, p: Arc<dyn VpProgram>) -> (SimTime, u64, f64) {
    let t = std::time::Instant::now();
    let report = sc
        .inject(SimBuilder::new(n))
        .net(NetModel::small(n))
        .collectives(algo)
        .metrics(true)
        .run(p)
        .unwrap();
    let wall = t.elapsed();
    let msgs = xsim_bench::messages_moved(&report).unwrap_or(0);
    let per_us = xsim_bench::per_message_wall(&report, wall).map_or(0.0, |s| s * 1e6);
    (report.exit_time(), msgs, per_us)
}

fn section_collectives(sc: &Scenario) {
    println!(
        "## Linear vs log-P collective schedules (one op: virtual time, simulated \
         messages, mean host µs/message)"
    );
    println!(
        "{:>14} {:>6} {:>14} {:>14} {:>7} {:>14} {:>16}",
        "op", "ranks", "linear vt", "tree vt", "vt x", "msgs lin>tree", "µs/msg lin>tree"
    );
    let ops: Vec<(&str, Arc<dyn VpProgram>)> = vec![
        (
            "barrier",
            mpi_program(|mpi: MpiCtx| async move {
                mpi.barrier(mpi.world()).await?;
                mpi.finalize();
                Ok(())
            }),
        ),
        (
            "bcast 64K",
            mpi_program(|mpi: MpiCtx| async move {
                mpi.bcast(mpi.world(), 0, Bytes::zeroed(64 * 1024)).await?;
                mpi.finalize();
                Ok(())
            }),
        ),
        (
            "allreduce 64",
            mpi_program(|mpi: MpiCtx| async move {
                let data = vec![mpi.rank as f64; 64];
                mpi.allreduce_f64(mpi.world(), &data, ReduceOp::Sum).await?;
                mpi.finalize();
                Ok(())
            }),
        ),
        (
            "allgather 1K",
            mpi_program(|mpi: MpiCtx| async move {
                mpi.allgather(mpi.world(), Bytes::zeroed(1024)).await?;
                mpi.finalize();
                Ok(())
            }),
        ),
    ];
    for (label, program) in ops {
        for n in [64usize, 512, 4096] {
            let (lin_vt, lin_msgs, lin_us) = coll_run(sc, n, CollAlgo::Linear, program.clone());
            let (tree_vt, tree_msgs, tree_us) = coll_run(sc, n, CollAlgo::Tree, program.clone());
            println!(
                "{label:>14} {n:>6} {lin_vt:>14} {tree_vt:>14} {:>6.1}x {:>14} {:>16}",
                lin_vt.as_secs_f64() / tree_vt.as_secs_f64().max(1e-12),
                format!("{lin_msgs}>{tree_msgs}"),
                format!("{lin_us:.1}>{tree_us:.1}"),
            );
        }
    }
    println!(
        "  (tree = binomial barrier/bcast/reduce/allreduce and ring allgather:\n   \
         O(log P) rounds — resp. O(P) pipelined — instead of a serialized\n   \
         root fan-out)"
    );
    println!();
}

fn section_eager_threshold(sc: &Scenario) {
    println!("## Eager/rendezvous crossover (virtual round-trip, receiver posts late)");
    println!(
        "{:>12} {:>18} {:>18}",
        "payload", "sender blocked", "round trip"
    );
    for payload in [
        4usize << 10,
        64 << 10,
        256 << 10,
        257 << 10,
        1 << 20,
        4 << 20,
    ] {
        let program = mpi_program(move |mpi: MpiCtx| async move {
            let w = mpi.world();
            if mpi.rank == 0 {
                let t0 = mpi.now();
                mpi.send(w, 1, 0, Bytes::zeroed(payload)).await?;
                let blocked = mpi.now() - t0;
                mpi.recv(w, Some(1), Some(1)).await?;
                println!(
                    "{:>12} {:>18} {:>18}",
                    format!("{} KiB", payload / 1024),
                    blocked,
                    mpi.now() - t0
                );
            } else {
                // Receiver posts 10 ms late: eager sends don't care,
                // rendezvous sends stall.
                mpi.sleep(SimTime::from_millis(10)).await;
                mpi.recv(w, Some(0), Some(0)).await?;
                mpi.send(w, 0, 1, Bytes::from_static(b"ack")).await?;
            }
            mpi.finalize();
            Ok(())
        });
        run_virtual(sc, 2, program);
    }
    println!();
}

fn section_detectors() {
    println!("## Failure detector ablation (detection latency after a failure at t=0.2 s)");
    for (label, det) in [
        ("timeout (paper §IV-C)", Detector::Timeout),
        (
            "monitor 100 ms",
            Detector::Monitor {
                latency: SimTime::from_millis(100),
            },
        ),
        (
            "monitor 1 ms",
            Detector::Monitor {
                latency: SimTime::from_millis(1),
            },
        ),
    ] {
        let report = SimBuilder::new(2)
            .net(NetModel::small(2))
            .detector(det)
            .errhandler(ErrHandler::Return)
            .inject_failure(1, SimTime::from_millis(200))
            .run_app(|mpi| async move {
                if mpi.rank == 0 {
                    let _ = mpi.recv(mpi.world(), Some(1), None).await;
                } else {
                    mpi.sleep(SimTime::from_millis(200)).await;
                }
                mpi.finalize();
                Ok(())
            })
            .unwrap();
        let detect = report.sim.final_clocks[0] - SimTime::from_millis(200);
        println!("  {label:<24} detection latency: {detect}");
    }
    println!();
}

fn section_engines() {
    println!("## Sequential vs conservative-parallel engine (identical results, wall time)");
    let cfg = HeatConfig {
        ranks: [8, 8, 8],
        global: [32, 32, 32],
        iterations: 100,
        halo_interval: 10,
        ckpt_interval: 50,
        mode: xsim_apps::ComputeMode::Modeled,
        ckpt_mode: Default::default(),
        per_point: SimTime::from_micros(1),
        prefix: "abl".into(),
    };
    let mut reference = None;
    for workers in [1usize, 2, 4, 8] {
        let t = std::time::Instant::now();
        let report = paper_builder(&cfg, workers, 17)
            .run(heat3d::program(cfg.clone()))
            .unwrap();
        let wall = t.elapsed();
        let vt = report.exit_time();
        match &reference {
            None => reference = Some(vt),
            Some(r) => assert_eq!(*r, vt, "engine results diverged"),
        }
        println!(
            "  workers {workers}: wall {wall:>10.2?}, virtual {vt} (identical across engines)"
        );
    }
    println!();
}

fn section_fs_cost() {
    println!(
        "## Checkpoint I/O cost ablation (E1 of heat, 512 ranks, C=25, 256 KiB/rank checkpoints)"
    );
    let cfg = HeatConfig {
        ranks: [8, 8, 8],
        global: [256, 256, 256],
        iterations: 100,
        halo_interval: 25,
        ckpt_interval: 25,
        mode: xsim_apps::ComputeMode::Modeled,
        ckpt_mode: Default::default(),
        per_point: SimTime::from_micros(1),
        prefix: "abl".into(),
    };
    let mut free_e1 = None;
    for (label, model) in [
        ("free (paper Table II)", FsModel::free()),
        ("typical PFS", FsModel::typical_pfs()),
        (
            "slow PFS (10 MB/s/rank)",
            FsModel {
                meta_latency: SimTime::from_millis(1),
                write_bw: 10.0e6,
                read_bw: 100.0e6,
                pfs: None,
            },
        ),
        (
            "overloaded PFS (256 KB/s/rank)",
            FsModel {
                meta_latency: SimTime::from_millis(10),
                write_bw: 256.0e3,
                read_bw: 2.56e6,
                pfs: None,
            },
        ),
    ] {
        let report = paper_builder(&cfg, 1, 17)
            .fs_model(model)
            .run(heat3d::program(cfg.clone()))
            .unwrap();
        let e1 = report.exit_time();
        let delta = match free_e1 {
            None => {
                free_e1 = Some(e1);
                SimTime::ZERO
            }
            Some(f) => e1 - f,
        };
        println!("  {label:<32} E1 = {e1}   (+{delta} checkpoint overhead)");
    }
    println!(
        "  (checkpoints here are 256 KiB/rank; the paper notes its checkpoint\n   \
         files are extremely small, which is why Table II charges no I/O)"
    );
    println!();
}

fn section_drain_contention() {
    println!("## Receiver drain contention (virtual time of one linear barrier)");
    for n in [64usize, 512, 4096] {
        let run = |serialize: bool| {
            let mut net = NetModel::small(n);
            net.serialize_recv = serialize;
            SimBuilder::new(n)
                .net(net)
                .run(mpi_program(|mpi: MpiCtx| async move {
                    mpi.barrier(mpi.world()).await?;
                    mpi.finalize();
                    Ok(())
                }))
                .unwrap()
                .exit_time()
        };
        let free = run(false);
        let contended = run(true);
        println!(
            "  {n:>6} ranks: no contention {free}, drain-serialized {contended} \
             ({:.1}x)",
            contended.as_secs_f64() / free.as_secs_f64().max(1e-12)
        );
    }
    println!(
        "  (the root of a linear collective drains P-1 completions; the \n   \
         contention model exposes that serialization)"
    );
    println!();
}

/// A neighbor exchange along x on a small torus, with metrics on; the
/// common workload of both `--net-faults` sub-sweeps.
fn torus_exchange(
    seed: u64,
    lossy: Option<LossyTransport>,
    faults: Vec<NetFault>,
) -> xsim_mpi::RunReport {
    let mut net = NetModel::paper_machine();
    net.topology = Topology::Torus3d { dims: [4, 4, 4] };
    let mut b = SimBuilder::new(64).net(net).seed(seed).metrics(true);
    if let Some(l) = lossy {
        b = b.lossy(l);
    }
    if !faults.is_empty() {
        b = b.net_faults(faults);
    }
    b.run_app(|mpi| async move {
        let w = mpi.world();
        for round in 0..4u32 {
            let dst = (mpi.rank + 1) % mpi.size;
            let src = (mpi.rank + mpi.size - 1) % mpi.size;
            mpi.sendrecv(w, dst, round, Bytes::zeroed(4096), Some(src), Some(round))
                .await?;
        }
        mpi.finalize();
        Ok(())
    })
    .expect("net-fault run")
}

fn metric(report: &xsim_mpi::RunReport, id: usize) -> u64 {
    report.metrics.as_ref().expect("metrics on").set.value(id)
}

fn section_net_faults(seed: u64) {
    println!("## Lossy transport sweep (64-rank torus exchange, drop probability)");
    println!(
        "{:>8} {:>16} {:>8} {:>12} {:>14}",
        "drop", "virtual time", "drops", "retransmits", "backoff"
    );
    for drop in [0.0f64, 0.05, 0.2, 0.4] {
        let report = torus_exchange(
            seed,
            Some(LossyTransport {
                drop_prob: drop,
                corrupt_prob: drop / 10.0,
                ..LossyTransport::default()
            }),
            Vec::new(),
        );
        println!(
            "{drop:>8.2} {:>16} {:>8} {:>12} {:>14}",
            report.exit_time(),
            metric(&report, ids::NET_DROPS),
            metric(&report, ids::NET_RETRANSMITS),
            SimTime(metric(&report, ids::NET_BACKOFF_NS)),
        );
    }
    println!();

    println!("## Link/switch fault sweep (same exchange, 4x4x4 torus)");
    println!(
        "{:>28} {:>16} {:>14} {:>14}",
        "scenario", "virtual time", "rerouted hops", "degraded time"
    );
    let dead = |node: usize| NetFault {
        node,
        dir: Some(0),
        kind: LinkFaultKind::Down,
        from: SimTime::ZERO,
        until: None,
    };
    let degraded = |node: usize| NetFault {
        node,
        dir: Some(0),
        kind: LinkFaultKind::Degraded(0.25),
        from: SimTime::ZERO,
        until: None,
    };
    let scenarios: Vec<(&str, Vec<NetFault>)> = vec![
        ("healthy", Vec::new()),
        ("1 dead +x link", vec![dead(0)]),
        (
            "4 dead +x links",
            vec![dead(0), dead(5), dead(21), dead(42)],
        ),
        ("1 link at 25% bandwidth", vec![degraded(2)]),
        (
            "dead + degraded mix",
            vec![dead(0), degraded(2), degraded(33)],
        ),
    ];
    for (label, faults) in scenarios {
        let report = torus_exchange(seed, None, faults);
        println!(
            "{label:>28} {:>16} {:>14} {:>14}",
            report.exit_time(),
            metric(&report, ids::NET_REROUTED_HOPS),
            SimTime(metric(&report, ids::NET_DEGRADED_NS)),
        );
    }
    println!(
        "  (reroutes inflate hop counts around dead links; degraded links\n   \
         stretch transfers; a partitioning cut would escalate the peer into\n   \
         the process-failure path instead)"
    );
    println!();
}

fn main() {
    let cli = Cli::from_main(std::env::args(), "seed profile net-faults failures", |k| {
        std::env::var(k).ok()
    });
    if let Some(p) = &cli.profile {
        // Profile one representative configuration: a 64-rank barrier on
        // the small machine, traced and metered.
        let report = SimBuilder::new(64)
            .net(NetModel::small(64))
            .trace(true)
            .metrics(true)
            .run(mpi_program(|mpi: MpiCtx| async move {
                mpi.barrier(mpi.world()).await?;
                mpi.finalize();
                Ok(())
            }))
            .expect("profile run");
        xsim_bench::write_profile(&report, p);
    }
    if cli.net_faults {
        section_net_faults(cli.scenario.seed);
    }
    section_collectives(&cli.scenario);
    section_eager_threshold(&cli.scenario);
    section_detectors();
    section_engines();
    section_fs_cost();
    section_drain_contention();
}
