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
