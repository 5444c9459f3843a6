//! VP-scaling ladder (paper §II-A): up to the paper's headline 2²⁷
//! simulated MPI processes, on one host.
//!
//! * Raw core (default): the `million_vp` workload from 2²⁰ VPs. Each
//!   rung reports events/s, host-µs/event and peak RSS — the numbers that
//!   say whether the event core's memory diet holds at scale.
//! * `--mpi`: `compute_allreduce(rounds, 64, 1 ms)` with tree collectives
//!   on the paper machine from 2¹⁶ ranks. Each rung reports host-µs per
//!   message and per event, peak RSS and bytes per rank — what a
//!   simulated MPI process costs.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin vp_scaling -- \
//!     [--quick] [--mpi] [--workers N] [--rounds N] [--max-vps N]
//! ```
//!
//! Rungs run in ascending order so the monotone `VmHWM` reading after
//! each rung is that rung's own peak. A free-memory gate (80% of
//! `MemAvailable` over a deliberately pessimistic bytes-per-VP estimate,
//! one for each ladder) skips rungs that would not fit; `--max-vps` caps
//! the ladder explicitly and composes with the gate (the smaller bound
//! wins). `--quick` runs the single 2¹⁶ rung for CI smokes. `--rounds`
//! defaults to 2 sleep/wake rounds per VP, or 1 compute + allreduce round
//! per rank with `--mpi`.

use xsim_apps::scenario::Cli;
use xsim_bench::{
    run_mpi_scaling_rung, run_vp_scaling_rung, vp_mem_gate, MPI_SCALING_BYTES_PER_RANK,
    VP_SCALING_BYTES_PER_VP,
};

fn main() {
    let cli = Cli::from_main(std::env::args(), "quick mpi workers rounds max-vps", |k| {
        std::env::var(k).ok()
    });
    let workers = cli.scenario.workers;
    let rounds = cli.rounds.unwrap_or(if cli.mpi { 1 } else { 2 });
    let max_vps = cli.max_vps.unwrap_or(usize::MAX);

    let (first, bytes_per_vp) = if cli.mpi {
        (16, MPI_SCALING_BYTES_PER_RANK)
    } else {
        (20, VP_SCALING_BYTES_PER_VP)
    };
    let rungs: Vec<usize> = if cli.quick {
        vec![1 << 16]
    } else {
        (first..=27).map(|e| 1usize << e).collect()
    };
    let gate = vp_mem_gate(bytes_per_vp);
    let cap = gate.map_or(max_vps, |g| g.min(max_vps));
    println!(
        "vp_scaling{}: {} worker(s), {} round(s), memory gate {} VPs ({} B/VP estimate), cap {}",
        if cli.mpi { " --mpi" } else { "" },
        workers,
        rounds,
        gate.map_or_else(|| "unavailable".into(), |g| g.to_string()),
        bytes_per_vp,
        if cap == usize::MAX {
            "none".into()
        } else {
            cap.to_string()
        },
    );
    if cli.mpi {
        println!(
            "{:>12} {:>8} {:>10} {:>12} {:>12} {:>12} {:>14} {:>12} {:>8}",
            "ranks",
            "workers",
            "wall",
            "events",
            "messages",
            "host µs/msg",
            "host µs/event",
            "peakRSS MiB",
            "B/rank"
        );
    } else {
        println!(
            "{:>12} {:>8} {:>10} {:>14} {:>12} {:>14} {:>12}",
            "vps", "workers", "wall", "events", "events/s", "host µs/event", "peakRSS MiB"
        );
    }
    let mut ran = 0usize;
    for vps in rungs {
        if vps > cap {
            println!("{vps:>12}  skipped (above the memory gate / --max-vps cap)");
            continue;
        }
        let rss_mib = |kib: u64| kib as f64 / 1024.0;
        if cli.mpi {
            let row = run_mpi_scaling_rung(vps, workers, rounds);
            println!(
                "{:>12} {:>8} {:>10.2?} {:>12} {:>12} {:>12.3} {:>14.3} {:>12.1} {:>8.0}",
                row.vps,
                row.workers,
                row.wall,
                row.events,
                row.messages,
                row.wall.as_secs_f64() * 1e6 / row.messages as f64,
                row.host_us_per_event,
                rss_mib(row.peak_rss_kib),
                row.peak_rss_kib as f64 * 1024.0 / row.vps as f64,
            );
        } else {
            let row = run_vp_scaling_rung(vps, workers, rounds);
            println!(
                "{:>12} {:>8} {:>10.2?} {:>14} {:>12.0} {:>14.3} {:>12.1}",
                row.vps,
                row.workers,
                row.wall,
                row.events,
                row.events_per_sec,
                row.host_us_per_event,
                rss_mib(row.peak_rss_kib)
            );
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!("FAIL: every rung was gated out; nothing was measured");
        std::process::exit(1);
    }
}
