//! Oversubscription/scalability sweep (paper §II-A): xSim's value
//! proposition is running millions of simulated MPI ranks on a small
//! host. This harness measures wall time, events/s and peak memory as
//! the simulated rank count grows geometrically, for a trivial program
//! and for a communicating ring.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin scalability [--workers N] \
//!     [--failures SPEC] [--profile FILE]
//! ```

use xsim_apps::kernels;
use xsim_apps::scenario::Cli;
use xsim_bench::{peak_rss_kib, write_profile};
use xsim_core::SimTime;
use xsim_mpi::SimBuilder;
use xsim_net::{NetModel, Topology};

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

fn main() {
    let cli = Cli::from_main(std::env::args(), "workers profile failures", |k| {
        std::env::var(k).ok()
    });
    let (sc, workers) = (&cli.scenario, cli.scenario.workers);
    // When profiling, trace+meter the smallest ring run (the larger ones
    // would produce multi-GB traces).
    let mut profile = cli.profile.clone();
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
        let report = sc
            .inject(SimBuilder::new(n).net(net.clone()).workers(workers))
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
            let mut builder = sc.inject(SimBuilder::new(n).net(net).workers(workers));
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
