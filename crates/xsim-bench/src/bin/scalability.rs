//! Oversubscription/scalability sweep (paper §II-A): xSim's value
//! proposition is running millions of simulated MPI ranks on a small
//! host. This harness measures wall time, events/s and peak memory as
//! the simulated rank count grows geometrically, for a trivial program
//! and for a communicating ring.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin scalability [--workers N]
//! ```
//!
//! With `--bench-engine` it instead runs the parallel-engine worker
//! scaling sweep (4k and 64k VPs × 1/2/4/8 workers) and writes the
//! measured events/s and speedups to `BENCH_engine.json`.
//!
//! With `--bench-msgpath` it runs a fault-active point-to-point storm
//! on the paper's 32³ torus with the epoch-keyed route cache enabled
//! vs. disabled and writes the wall times, per-message means and
//! speedup to `BENCH_msgpath.json`.

use std::fmt::Write as _;
use xsim_apps::kernels;
use xsim_bench::{apply_env_faults, parse_flags, peak_rss_kib, write_profile};
use xsim_core::SimTime;
use xsim_mpi::SimBuilder;
use xsim_net::{LinkFaultKind, NetFault, NetModel, Topology};

fn torus_for(n: usize) -> Topology {
    // n is a power of two: split the exponent across three dimensions.
    let e = n.trailing_zeros() as usize;
    debug_assert_eq!(1usize << e, n);
    let a = e / 3;
    let b = (e - a) / 2;
    let c = e - a - b;
    Topology::Torus3d {
        dims: [1 << a, 1 << b, 1 << c],
    }
}

/// The `--bench-engine` sweep: a bulk-synchronous compute/allreduce
/// workload at 4k and 64k VPs across 1/2/4/8 workers, reported as
/// events/s and speedup relative to the 1-worker parallel engine. Every
/// number in the JSON is a live measurement from this host.
fn bench_engine() {
    let cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    let mut json = String::new();
    json.push_str("{\"schema\":\"xsim-bench-engine-v3\"");
    let _ = write!(
        json,
        ",\"workload\":\"compute_allreduce(rounds=4,elems=64,compute=1ms)\",\"host_cpus\":{cpus}",
    );
    if cpus <= 1 {
        // Make single-core results impossible to misread as a scaling
        // regression: every worker>1 row only adds synchronization cost
        // when there is one CPU to run on.
        let warning = "host_cpus == 1: worker speedups are meaningless on this host \
                       (no parallelism exists); regenerate on a multi-core machine";
        eprintln!("WARNING: {warning}");
        let _ = write!(json, ",\"warning\":\"{warning}\"");
    }
    json.push_str(",\"results\":[");
    let mut first = true;
    println!(
        "{:>10} {:>8} {:>10} {:>12} {:>12} {:>8}",
        "vps", "workers", "wall", "events", "events/s", "speedup"
    );
    for n in [4096usize, 65536] {
        let mut net = NetModel::paper_machine();
        net.topology = torus_for(n);
        let mut base_evps = 0.0f64;
        for workers in [1usize, 2, 4, 8] {
            let t = std::time::Instant::now();
            let report = SimBuilder::new(n)
                .net(net.clone())
                .workers(workers)
                .engine(xsim_mpi::EngineKind::Parallel)
                .run(kernels::compute_allreduce(4, 64, SimTime::from_millis(1)))
                .expect("bench-engine run");
            let wall = t.elapsed();
            let evps = report.sim.events_processed as f64 / wall.as_secs_f64();
            if workers == 1 {
                base_evps = evps;
            }
            let speedup = evps / base_evps;
            println!(
                "{:>10} {:>8} {:>10.2?} {:>12} {:>12.0} {:>8.2}",
                n, workers, wall, report.sim.events_processed, evps, speedup
            );
            if !first {
                json.push(',');
            }
            first = false;
            let _ = write!(
                json,
                "{{\"vps\":{},\"workers\":{},\"events\":{},\"wall_us\":{},\
                 \"events_per_sec\":{:.0},\"speedup_vs_1\":{:.3}}}",
                n,
                workers,
                report.sim.events_processed,
                wall.as_micros(),
                evps,
                speedup
            );
        }
    }
    json.push(']');

    // Event-queue microbench: hold-model churn, calendar vs. a binary
    // heap over the keys, across pending-set sizes and delta shapes. The
    // calendar's O(1) pops are what the worker sweep above rides on.
    // The self-gating `queue_bench` bin runs the same tiers and fails CI
    // when the calendar drops below 1.0x at any of them. Measured
    // *before* the VP-scaling ladder: tens of gigabytes of churn leave
    // the allocator in a state that slows the calendar's bucket
    // management (the heap barely allocates), which would discolor the
    // comparison with a cost no fresh process pays.
    json.push_str(",\"queue_bench\":[");
    println!(
        "\n{:>10} {:>9} {:>14} {:>14} {:>8}",
        "pending", "shape", "heap ns/op", "calendar ns/op", "speedup"
    );
    for (i, (pending, shape)) in xsim_bench::QUEUE_TIERS.into_iter().enumerate() {
        let tier = xsim_bench::run_queue_tier(pending, shape, 200_000);
        let shape = shape.name();
        println!(
            "{:>10} {:>9} {:>14.1} {:>14.1} {:>7.2}x",
            tier.pending,
            shape,
            tier.heap_ns_per_op,
            tier.calendar_ns_per_op,
            tier.speedup()
        );
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"pending\":{},\"shape\":\"{shape}\",\"ops\":{},\"heap_ns_per_op\":{:.1},\
             \"calendar_ns_per_op\":{:.1},\"speedup\":{:.3}}}",
            tier.pending,
            tier.ops,
            tier.heap_ns_per_op,
            tier.calendar_ns_per_op,
            tier.speedup()
        );
    }
    json.push(']');

    // The VP-scaling ladder (engine-level ring-of-wakes workload, see
    // the `vp_scaling` bin): raw event-core throughput, host cost per
    // event and peak RSS from 2^20 up to the paper's headline 2^27 VPs.
    // Ascending order keeps the monotone VmHWM readable as per-rung
    // peaks; the free-memory gate skips rungs that would not fit.
    json.push_str(",\"vp_scaling\":[");
    println!(
        "\n{:>12} {:>10} {:>14} {:>12} {:>14} {:>12}",
        "vps", "wall", "events", "events/s", "host µs/event", "peakRSS MiB"
    );
    let gate = xsim_bench::vp_mem_gate().unwrap_or(usize::MAX);
    let mut first = true;
    for exp in 20u32..=27 {
        let vps = 1usize << exp;
        if vps > gate {
            println!("{vps:>12}  skipped (above the memory gate)");
            continue;
        }
        let row = xsim_bench::run_vp_scaling_rung(vps, 1, 2);
        println!(
            "{:>12} {:>10.2?} {:>14} {:>12.0} {:>14.3} {:>12.1}",
            row.vps,
            row.wall,
            row.events,
            row.events_per_sec,
            row.host_us_per_event,
            row.peak_rss_kib as f64 / 1024.0
        );
        if !first {
            json.push(',');
        }
        first = false;
        let _ = write!(
            json,
            "{{\"vps\":{},\"workers\":{},\"rounds\":{},\"events\":{},\"wall_us\":{},\
             \"events_per_sec\":{:.0},\"host_us_per_event\":{:.3},\"peak_rss_kib\":{}}}",
            row.vps,
            row.workers,
            row.rounds,
            row.events,
            row.wall.as_micros(),
            row.events_per_sec,
            row.host_us_per_event,
            row.peak_rss_kib
        );
    }
    json.push(']');
    let _ = write!(json, ",\"peak_rss_kib\":{}}}", peak_rss_kib().unwrap_or(0));
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json");
}

/// The `--bench-msgpath` sweep: a point-to-point storm on the paper's
/// 32³ torus with link faults active for the whole run, measured with
/// the epoch-keyed detour memo enabled and disabled
/// (`XSIM_NET_ROUTE_CACHE=off`: every send whose dimension-ordered path
/// crosses a dead link re-runs the BFS; sends over live paths are
/// answered by the walk either way). Writes the wall times, per-message
/// means, BFS runs and the speedup to `BENCH_msgpath.json`.
fn bench_msgpath(workers: usize) {
    let dims = [32usize, 32, 32];
    let topo = Topology::Torus3d { dims };
    // Faults active from t=0 for the whole run: two dead links (traffic
    // whose dimension-ordered path crosses one must BFS a detour) and
    // one half-bandwidth link.
    let faults = vec![
        NetFault {
            node: topo.node_at([1, 0, 0]),
            dir: Some(0),
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        },
        NetFault {
            node: topo.node_at([7, 9, 11]),
            dir: Some(2),
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        },
        NetFault {
            node: topo.node_at([16, 16, 16]),
            dir: Some(4),
            kind: LinkFaultKind::Degraded(0.5),
            from: SimTime::ZERO,
            until: None,
        },
    ];
    // Storm ranks occupy the first z-planes of the 32k-node torus
    // (rank→node is 1:1 on the paper machine); the strides put every
    // pair ~32 hops apart, so a detoured route pays a near-full BFS over
    // all 32768 nodes. Metrics stay off in the timed runs (identical
    // recording cost would dilute the routing contrast); an untimed
    // repeat with metrics on reads back how many searches the row paid.
    // The deterministic message count is rounds × strides × ranks.
    let ranks = 4096usize;
    let (rounds, payload) = (32u32, 256usize);
    let strides = vec![16 + 16 * dims[0], 13 + 10 * dims[0]];
    let msgs = rounds as u64 * strides.len() as u64 * ranks as u64;
    let mut json = String::new();
    json.push_str("{\"schema\":\"xsim-bench-msgpath-v2\"");
    let _ = write!(
        json,
        ",\"workload\":\"p2p_storm(rounds={rounds},strides={strides:?},payload={payload}) \
         {ranks} ranks on the 32x32x32 torus, 3 live faults\",\"host_cpus\":{},\"workers\":{workers}",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    json.push_str(",\"results\":[");
    println!(
        "{:>16} {:>10} {:>12} {:>14} {:>10} {:>10}",
        "route cache", "wall", "messages", "wall/msg", "bfs runs", "speedup"
    );
    let mut base_wall = 0.0f64;
    let mut first = true;
    for (label, cache) in [("off", false), ("on", true)] {
        std::env::set_var("XSIM_NET_ROUTE_CACHE", if cache { "on" } else { "off" });
        let storm = |metrics: bool| {
            SimBuilder::new(ranks)
                .net({
                    let mut net = NetModel::paper_machine();
                    net.topology = topo.clone();
                    net
                })
                .net_faults(faults.clone())
                .workers(workers)
                .metrics(metrics)
                .run(kernels::p2p_storm(rounds, strides.clone(), payload))
                .expect("bench-msgpath run")
        };
        let t = std::time::Instant::now();
        storm(false);
        let wall = t.elapsed();
        let per_msg = wall.as_secs_f64() / msgs as f64;
        let bfs_runs = storm(true)
            .metrics
            .expect("metrics enabled")
            .set
            .value(xsim_obs::ids::NET_ROUTE_BFS_RUNS);
        if !cache {
            base_wall = wall.as_secs_f64();
        }
        let speedup = base_wall / wall.as_secs_f64();
        println!(
            "{:>16} {:>10.2?} {:>12} {:>12.2}µs {:>10} {:>9.2}x",
            label,
            wall,
            msgs,
            per_msg * 1e6,
            bfs_runs,
            speedup
        );
        if !first {
            json.push(',');
        }
        first = false;
        let _ = write!(
            json,
            "{{\"route_cache\":\"{label}\",\"wall_us\":{},\"messages\":{msgs},\
             \"wall_per_msg_ns\":{:.0},\"bfs_runs\":{bfs_runs},\
             \"speedup_vs_uncached\":{speedup:.3}}}",
            wall.as_micros(),
            per_msg * 1e9
        );
    }
    std::env::remove_var("XSIM_NET_ROUTE_CACHE");
    json.push(']');
    let _ = write!(json, ",\"peak_rss_kib\":{}}}", peak_rss_kib().unwrap_or(0));
    std::fs::write("BENCH_msgpath.json", &json).expect("write BENCH_msgpath.json");
    println!("\nwrote BENCH_msgpath.json");
}

fn main() {
    let flags = parse_flags();
    if flags.bench_engine {
        bench_engine();
        return;
    }
    if flags.bench_msgpath {
        bench_msgpath(flags.workers);
        return;
    }
    // When profiling, trace+meter the smallest ring run (the larger ones
    // would produce multi-GB traces).
    let mut profile = flags.profile.clone();
    println!(
        "{:>10} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "ranks", "app", "wall", "events", "events/s", "peakRSS MiB"
    );
    for exp in [10u32, 12, 14, 16, 18, 20] {
        let n = 1usize << exp;
        let mut net = NetModel::paper_machine();
        net.topology = torus_for(n);
        // noop: raw VP spawn/teardown capacity.
        let t = std::time::Instant::now();
        let report = apply_env_faults(SimBuilder::new(n).net(net.clone()).workers(flags.workers))
            .run(kernels::noop(SimTime::from_millis(1)))
            .expect("noop run");
        let wall = t.elapsed();
        println!(
            "{:>10} {:>12} {:>10.2?} {:>12} {:>12.0} {:>12.1}",
            n,
            "noop",
            wall,
            report.sim.events_processed,
            report.sim.events_processed as f64 / wall.as_secs_f64(),
            peak_rss_kib().unwrap_or(0) as f64 / 1024.0
        );
        // ring: every rank communicates (one lap).
        if exp <= 18 {
            let prof = profile.take();
            let t = std::time::Instant::now();
            let mut builder = apply_env_faults(SimBuilder::new(n).net(net).workers(flags.workers));
            if prof.is_some() {
                builder = builder.trace(true).metrics(true);
            }
            let report = builder.run(kernels::ring(1, 64)).expect("ring run");
            let wall = t.elapsed();
            if let Some(p) = prof {
                write_profile(&report, &p);
            }
            println!(
                "{:>10} {:>12} {:>10.2?} {:>12} {:>12.0} {:>12.1}",
                n,
                "ring(1)",
                wall,
                report.sim.events_processed,
                report.sim.events_processed as f64 / wall.as_secs_f64(),
                peak_rss_kib().unwrap_or(0) as f64 / 1024.0
            );
        }
    }
    println!();
    println!(
        "paper context (§II-A): xSim executes up to 2^27 communicating MPI \
         ranks on a 960-core cluster; this single-host sweep demonstrates the \
         same lightweight-VP oversubscription principle."
    );
}
