//! VP-scaling ladder (paper §II-A): the `million_vp` workload from 2²⁰
//! up to the paper's headline 2²⁷ simulated MPI processes, on one host.
//! Each rung reports events/s, host-µs/event and peak RSS — the three
//! numbers that say whether the event core's memory diet holds at scale.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin vp_scaling -- \
//!     [--quick] [--workers N] [--rounds N] [--max-vps N]
//! ```
//!
//! Rungs run in ascending VP order so the monotone `VmHWM` reading after
//! each rung is that rung's own peak. A free-memory gate (80% of
//! `MemAvailable` over a deliberately pessimistic bytes/VP estimate)
//! skips rungs that would not fit; `--max-vps` caps the ladder
//! explicitly and composes with the gate (the smaller bound wins).
//! `--quick` runs the single 2¹⁶ rung for CI smokes.

use xsim_apps::scenario::Cli;
use xsim_bench::{run_vp_scaling_rung, vp_mem_gate, VP_SCALING_BYTES_PER_VP};

fn main() {
    let cli = Cli::from_main(std::env::args(), "quick workers rounds max-vps", |k| {
        std::env::var(k).ok()
    });
    let workers = cli.scenario.workers;
    let rounds = cli.rounds.unwrap_or(2);
    let max_vps = cli.max_vps.unwrap_or(usize::MAX);

    let rungs: Vec<usize> = if cli.quick {
        vec![1 << 16]
    } else {
        (20..=27).map(|e| 1usize << e).collect()
    };
    let gate = vp_mem_gate();
    let cap = gate.map_or(max_vps, |g| g.min(max_vps));
    println!(
        "vp_scaling: {} worker(s), {} round(s), memory gate {} VPs ({} B/VP estimate), cap {}",
        workers,
        rounds,
        gate.map_or_else(|| "unavailable".into(), |g| g.to_string()),
        VP_SCALING_BYTES_PER_VP,
        if cap == usize::MAX {
            "none".into()
        } else {
            cap.to_string()
        },
    );
    println!(
        "{:>12} {:>8} {:>10} {:>14} {:>12} {:>14} {:>12}",
        "vps", "workers", "wall", "events", "events/s", "host µs/event", "peakRSS MiB"
    );
    let mut ran = 0usize;
    for vps in rungs {
        if vps > cap {
            println!("{vps:>12}  skipped (above the memory gate / --max-vps cap)");
            continue;
        }
        let row = run_vp_scaling_rung(vps, workers, rounds);
        println!(
            "{:>12} {:>8} {:>10.2?} {:>14} {:>12.0} {:>14.3} {:>12.1}",
            row.vps,
            row.workers,
            row.wall,
            row.events,
            row.events_per_sec,
            row.host_us_per_event,
            row.peak_rss_kib as f64 / 1024.0
        );
        ran += 1;
    }
    if ran == 0 {
        eprintln!("FAIL: every rung was gated out; nothing was measured");
        std::process::exit(1);
    }
}
