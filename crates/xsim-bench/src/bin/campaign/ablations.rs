//! Design-choice ablations (DESIGN.md §4): each table shows the
//! *simulated* (virtual-time) effect of one modeling choice the
//! reproduction makes, so its weight in the Table II regime is visible.
//! The collective and eager-threshold tables run under the scenario's
//! faults (`--failures`, `XSIM_FAILURES`, `XSIM_NET_FAULTS`). The
//! `net-faults` campaign sweeps the two network fault sub-models.

use crate::secs;
use std::sync::{Arc, Mutex};
use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::scenario::{Cli, Scenario};
use xsim_bench::{fixed, paper_builder, Report};
use xsim_core::vp::VpProgram;
use xsim_core::{Bytes, SimTime};
use xsim_fs::FsModel;
use xsim_mpi::{
    mpi_program, CollAlgo, Detector, ErrHandler, LossyTransport, MpiCtx, ReduceOp, RunReport,
    SimBuilder,
};
use xsim_net::{LinkFaultKind, NetFault, NetModel, Topology};
use xsim_obs::ids;

/// The `ablations` campaign.
pub(crate) fn run(cli: &Cli) -> Report {
    if let Some(p) = &cli.profile {
        // Profile one representative configuration: a 64-rank barrier on
        // the small machine, traced and metered.
        let report = SimBuilder::new(64)
            .net(NetModel::small(64))
            .trace(true)
            .metrics(true)
            .run(barrier())
            .expect("profile run");
        report.write_profile(p).expect("write profile");
    }
    let mut r = Report::default();
    collectives(&mut r, &cli.scenario);
    eager_threshold(&mut r, &cli.scenario);
    detectors(&mut r);
    engines(&mut r);
    fs_cost(&mut r);
    drain_contention(&mut r);
    r
}

fn barrier() -> Arc<dyn VpProgram> {
    mpi_program(|mpi: MpiCtx| async move {
        mpi.barrier(mpi.world()).await?;
        mpi.finalize();
        Ok(())
    })
}

/// One metered collective run: the virtual time, simulated message
/// count and mean host wall-time per message (µs).
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

fn collectives(r: &mut Report, sc: &Scenario) {
    r.table(
        "Linear vs log-P collective schedules (one op: virtual time, simulated messages, \
         mean host µs/message)",
        "op ranks linear_vt_s tree_vt_s vt_ratio msgs_linear msgs_tree us_per_msg_linear us_per_msg_tree",
    );
    let ops: Vec<(&str, Arc<dyn VpProgram>)> = vec![
        ("barrier", barrier()),
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
            let ratio = lin_vt.as_secs_f64() / tree_vt.as_secs_f64().max(1e-12);
            r.row(vec![
                label.into(),
                n.into(),
                secs(lin_vt),
                secs(tree_vt),
                fixed(ratio, 1),
                lin_msgs.into(),
                tree_msgs.into(),
                fixed(lin_us, 1),
                fixed(tree_us, 1),
            ]);
        }
    }
    r.note(
        "collectives: tree = binomial barrier/bcast/reduce/allreduce and ring allgather: \
         O(log P) rounds — resp. O(P) pipelined — instead of a serialized root fan-out",
    );
}

fn eager_threshold(r: &mut Report, sc: &Scenario) {
    r.table(
        "Eager/rendezvous crossover (virtual round-trip, receiver posts 10 ms late)",
        "payload_kib sender_blocked_s round_trip_s",
    );
    for payload in [
        4usize << 10,
        64 << 10,
        256 << 10,
        257 << 10,
        1 << 20,
        4 << 20,
    ] {
        let seen = Arc::new(Mutex::new(None));
        let out = seen.clone();
        let program = mpi_program(move |mpi: MpiCtx| {
            let out = out.clone();
            async move {
                let w = mpi.world();
                if mpi.rank == 0 {
                    let t0 = mpi.now();
                    mpi.send(w, 1, 0, Bytes::zeroed(payload)).await?;
                    let blocked = mpi.now() - t0;
                    mpi.recv(w, Some(1), Some(1)).await?;
                    *out.lock().unwrap() = Some((blocked, mpi.now() - t0));
                } else {
                    // Eager sends don't care that the receiver is late;
                    // rendezvous sends stall.
                    mpi.sleep(SimTime::from_millis(10)).await;
                    mpi.recv(w, Some(0), Some(0)).await?;
                    mpi.send(w, 0, 1, Bytes::from_static(b"ack")).await?;
                }
                mpi.finalize();
                Ok(())
            }
        });
        sc.inject(SimBuilder::new(2).net(NetModel::small(2)))
            .run(program)
            .unwrap();
        let times = seen.lock().unwrap().take();
        if let Some((blocked, trip)) = times {
            r.row(vec![(payload >> 10).into(), secs(blocked), secs(trip)]);
        }
    }
}

fn detectors(r: &mut Report) {
    r.table(
        "Failure detector ablation (detection latency after a failure at t = 0.2 s)",
        "detector detection_latency_s",
    );
    let monitor = |ms| Detector::Monitor {
        latency: SimTime::from_millis(ms),
    };
    for (label, det) in [
        ("timeout (paper §IV-C)", Detector::Timeout),
        ("monitor 100 ms", monitor(100)),
        ("monitor 1 ms", monitor(1)),
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
        r.row(vec![label.into(), secs(detect)]);
    }
}

/// 512 ranks of the modeled heat solver, 100 iterations, 1 µs per point.
fn heat_512(global: usize, halo: u64, ckpt: u64) -> HeatConfig {
    HeatConfig {
        ranks: [8, 8, 8],
        global: [global; 3],
        iterations: 100,
        halo_interval: halo,
        ckpt_interval: ckpt,
        mode: xsim_apps::ComputeMode::Modeled,
        ckpt_mode: Default::default(),
        per_point: SimTime::from_micros(1),
        prefix: "abl".into(),
    }
}

fn engines(r: &mut Report) {
    r.table(
        "Sequential vs conservative-parallel engine (wall time; virtual time must not move)",
        "workers wall_ms virtual_s",
    );
    let cfg = heat_512(32, 10, 50);
    let mut times = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let t = std::time::Instant::now();
        let report = paper_builder(&cfg, workers, 17)
            .run(heat3d::program(cfg.clone()))
            .unwrap();
        let wall = t.elapsed().as_secs_f64() * 1e3;
        r.row(vec![
            workers.into(),
            fixed(wall, 2),
            secs(report.exit_time()),
        ]);
        times.push(report.exit_time());
    }
    let identical = times.iter().all(|t| *t == times[0]);
    r.gate(
        "engines: identical virtual time on 1, 2, 4 and 8 workers",
        identical,
    );
}

fn fs_cost(r: &mut Report) {
    r.table(
        "Checkpoint I/O cost ablation (E1 of heat, 512 ranks, C = 25, 256 KiB/rank checkpoints)",
        "file_system e1_s ckpt_overhead_s",
    );
    let cfg = heat_512(256, 25, 25);
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
        let e1 = paper_builder(&cfg, 1, 17)
            .fs_model(model)
            .run(heat3d::program(cfg.clone()))
            .unwrap()
            .exit_time();
        let free = *free_e1.get_or_insert(e1);
        r.row(vec![label.into(), secs(e1), secs(e1 - free)]);
    }
    r.note(
        "fs cost: checkpoints here are 256 KiB/rank; the paper notes its checkpoint files \
         are extremely small, which is why Table II charges no I/O",
    );
}

fn drain_contention(r: &mut Report) {
    r.table(
        "Receiver drain contention (virtual time of one linear barrier)",
        "ranks free_s drain_serialized_s ratio",
    );
    for n in [64usize, 512, 4096] {
        let run = |serialize: bool| {
            let mut net = NetModel::small(n);
            net.serialize_recv = serialize;
            let builder = SimBuilder::new(n).net(net).collectives(CollAlgo::Linear);
            builder.run(barrier()).unwrap().exit_time()
        };
        let (free, contended) = (run(false), run(true));
        let ratio = contended.as_secs_f64() / free.as_secs_f64().max(1e-12);
        r.row(vec![n.into(), secs(free), secs(contended), fixed(ratio, 1)]);
        if n == 4096 {
            r.gate(
                "drain: contention at least 1.9x the free linear barrier at 4,096 ranks",
                ratio >= 1.9,
            );
        }
    }
    r.note(
        "drain: the root of a linear collective drains P-1 completions; the contention \
         model exposes that serialization",
    );
}

/// A neighbor exchange along x on a 4×4×4 torus, with metrics on; the
/// workload of both `net-faults` sweeps.
fn torus_exchange(seed: u64, lossy: Option<LossyTransport>, faults: Vec<NetFault>) -> RunReport {
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

fn metric(report: &RunReport, id: usize) -> u64 {
    report.metrics.as_ref().expect("metrics on").set.value(id)
}

/// The `net-faults` campaign.
pub(crate) fn net_faults(cli: &Cli) -> Report {
    let seed = cli.scenario.seed;
    let mut r = Report::default();
    r.table(
        "Lossy transport sweep (64-rank torus exchange, drop probability)",
        "drop virtual_s drops retransmits backoff_s",
    );
    for drop in [0.0f64, 0.05, 0.2, 0.4] {
        let lossy = LossyTransport {
            drop_prob: drop,
            corrupt_prob: drop / 10.0,
            ..LossyTransport::default()
        };
        let report = torus_exchange(seed, Some(lossy), Vec::new());
        r.row(vec![
            drop.into(),
            secs(report.exit_time()),
            metric(&report, ids::NET_DROPS).into(),
            metric(&report, ids::NET_RETRANSMITS).into(),
            secs(SimTime(metric(&report, ids::NET_BACKOFF_NS))),
        ]);
    }

    r.table(
        "Link/switch fault sweep (same exchange, 4x4x4 torus)",
        "scenario virtual_s rerouted_hops degraded_s",
    );
    let fault = |node: usize, kind: LinkFaultKind| NetFault {
        node,
        dir: Some(0),
        kind,
        from: SimTime::ZERO,
        until: None,
    };
    let dead = |node| fault(node, LinkFaultKind::Down);
    let degraded = |node| fault(node, LinkFaultKind::Degraded(0.25));
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
        r.row(vec![
            label.into(),
            secs(report.exit_time()),
            metric(&report, ids::NET_REROUTED_HOPS).into(),
            secs(SimTime(metric(&report, ids::NET_DEGRADED_NS))),
        ]);
    }
    r.note(
        "reroutes inflate hop counts around dead links; degraded links stretch transfers; \
         a partitioning cut would escalate the peer into the process-failure path instead",
    );
    r
}
