//! Million-VP oversubscription smoke (paper §II-A): how many simulated
//! ranks the data-oriented event core sustains on one host, and at what
//! host cost per event. Runs directly on the core engine — timer sleeps
//! plus a ring of cross-rank wakes — so the number measures the event
//! core (calendar queue, inline call storage, SoA VP table, batched
//! exchange), not the MPI layer above it.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin million_vp -- \
//!     [--vps N] [--workers N] [--rounds N] [--quick]
//! ```
//!
//! Defaults: 2^20 VPs, 1 worker, 2 rounds. `--quick` drops to 2^16 VPs
//! for CI smokes.

use xsim_bench::{peak_rss_kib, run_million_vp};

fn main() {
    let mut vps = 1usize << 20;
    let mut workers = 1usize;
    let mut rounds = 2u32;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => vps = 1 << 16,
            "--vps" => {
                vps = args.next().and_then(|v| v.parse().ok()).expect("--vps N");
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers N");
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds N");
            }
            other => {
                eprintln!("unknown flag {other}; known: --vps --workers --rounds --quick");
                std::process::exit(2);
            }
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    if workers > 1 && cpus == 1 {
        eprintln!("WARNING: host has 1 CPU; {workers} workers cannot speed anything up");
    }
    println!("million_vp: {vps} VPs, {workers} worker(s), {rounds} round(s), host_cpus={cpus}");

    let (report, wall) = run_million_vp(vps, workers, rounds);
    let events = report.events_processed;
    let evps = events as f64 / wall.as_secs_f64();
    let us_per_event = wall.as_secs_f64() * 1e6 / events as f64;
    println!(
        "{:>10} {:>8} {:>10} {:>12} {:>12} {:>14} {:>12}",
        "vps", "workers", "wall", "events", "events/s", "host µs/event", "peakRSS MiB"
    );
    println!(
        "{:>10} {:>8} {:>10.2?} {:>12} {:>12.0} {:>14.3} {:>12.1}",
        vps,
        workers,
        wall,
        events,
        evps,
        us_per_event,
        peak_rss_kib().unwrap_or(0) as f64 / 1024.0
    );
    let p = &report.profile;
    println!(
        "event core: {} window(s) ({} ingest-skipped), pool reuse {:.1}%, \
         bucket hwm {}, ring hwm {}, {} empty step(s), {} rebuild(s), steal hwm {}",
        p.windows,
        p.ingest_skips,
        p.pool_reuse_ratio() * 100.0,
        p.queue_bucket_hwm,
        p.queue_ring_hwm,
        p.queue_empty_steps,
        p.queue_rebuilds,
        p.window_steal_hwm,
    );
    assert_eq!(
        report.exit,
        xsim_core::ExitKind::Completed,
        "million_vp workload must run to completion"
    );
}
