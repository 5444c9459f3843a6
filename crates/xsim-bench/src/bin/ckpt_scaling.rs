//! Checkpoint-mode scaling sweep over the striped PFS model: the four
//! write strategies (`full`, `agg:G`, `buddy`, `incr:K`) on the paper's
//! heat application as the rank count grows against a fixed pool of
//! I/O nodes.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin ckpt_scaling [--quick] [--workers N] [--seed N]
//! ```
//!
//! Every configuration keeps the paper's per-rank load (16³ points,
//! 1.28 µs/point under the 1000× slowdown) and checkpoints 4 times over
//! 20 iterations, so the *simulated* checkpoint overhead — the run's
//! exit time minus the same run over the free (Table II) file system —
//! isolates exactly what each mode pays at the PFS. The contention
//! physics being measured:
//!
//! * `full` issues one write request per rank per generation, so the
//!   fixed per-request cost at the I/O nodes (50 µs each, FCFS) grows
//!   linearly with ranks while the node pool stays fixed.
//! * `agg:8` coalesces each 8-rank group into one container write —
//!   same bytes, 1/8th the requests.
//! * `buddy` keeps checkpoints in partner node memory and (at even rank
//!   counts) never touches the PFS.
//! * `incr:4` writes full bytes only every 4th generation and small
//!   block-diffs in between.
//!
//! Results go to `BENCH_ckpt.json`; the sweep exits non-zero if any
//! alternative mode stops beating `full` at ≥256 ranks (the regression
//! bar the differential suite's physics rests on). Simulated times are
//! deterministic per seed; only the `wall_us` fields depend on the host.

use std::fmt::Write as _;
use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::scenario::Cli;
use xsim_apps::ComputeMode;
use xsim_bench::paper_builder;
use xsim_core::SimTime;
use xsim_fs::FsModel;
use xsim_mpi::CkptMode;

/// Fixed I/O-node pool every scale contends for.
const IO_NODES: u32 = 4;

fn config(dims: [usize; 3], mode: CkptMode) -> HeatConfig {
    HeatConfig {
        global: [dims[0] * 16, dims[1] * 16, dims[2] * 16],
        ranks: dims,
        iterations: 20,
        halo_interval: 5,
        ckpt_interval: 5,
        mode: ComputeMode::Modeled,
        ckpt_mode: mode,
        per_point: SimTime::from_nanos(1280),
        prefix: "heat".into(),
    }
}

/// Failure-free exit time of one configuration, plus host wall time.
fn run(cfg: &HeatConfig, fs: FsModel, workers: usize, seed: u64) -> (SimTime, u128) {
    let t = std::time::Instant::now();
    let report = paper_builder(cfg, workers, seed)
        .fs_model(fs)
        .run(heat3d::program(cfg.clone()))
        .expect("ckpt_scaling run");
    (report.exit_time(), t.elapsed().as_micros())
}

fn main() {
    let cli = Cli::from_main(std::env::args(), "quick workers seed", |k| {
        std::env::var(k).ok()
    });
    let (workers, seed) = (cli.scenario.workers, cli.scenario.seed);
    let cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    let mut json = String::new();
    json.push_str("{\"schema\":\"xsim-bench-ckpt-v1\"");
    let _ = write!(
        json,
        ",\"workload\":\"heat3d(16^3 points/rank, 20 iters, ckpt every 5)\
         \",\"io_nodes\":{IO_NODES},\"host_cpus\":{cpus},\"workers\":{workers}"
    );
    if cpus <= 1 && workers > 1 {
        let warning = "host_cpus == 1: wall_us columns reflect a serialized host; \
                       simulated times are unaffected";
        eprintln!("WARNING: {warning}");
        let _ = write!(json, ",\"warning\":\"{warning}\"");
    }
    json.push_str(",\"results\":[");

    let mut scales: Vec<[usize; 3]> = vec![[4, 4, 4], [8, 8, 4]];
    if !cli.quick {
        scales.push([8, 8, 8]);
    }
    let modes = [
        CkptMode::Full,
        CkptMode::Aggregated { group: 8 },
        CkptMode::Buddy,
        CkptMode::Incremental { full_every: 4 },
    ];

    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>12} {:>10}",
        "ranks", "mode", "E1", "overhead", "frac", "wall"
    );
    let mut first = true;
    let mut acceptance_ok = true;
    for dims in scales {
        let n = dims[0] * dims[1] * dims[2];
        // Baseline: the same run over the free (Table II) file system —
        // zero checkpoint I/O cost, identical compute and communication.
        let base_cfg = config(dims, CkptMode::Full);
        let (base, _) = run(&base_cfg, FsModel::free(), workers, seed);
        let mut full_overhead = f64::MAX;
        for mode in modes {
            let cfg = config(dims, mode);
            let (e1, wall_us) = run(&cfg, FsModel::striped(IO_NODES), workers, seed);
            let overhead = (e1 - base).as_secs_f64();
            let frac = overhead / base.as_secs_f64();
            let beats_full = if mode == CkptMode::Full {
                full_overhead = overhead;
                false
            } else {
                overhead < full_overhead
            };
            if n >= 256 && mode != CkptMode::Full && !beats_full {
                acceptance_ok = false;
            }
            println!(
                "{:>8} {:>8} {:>14} {:>12.2}ms {:>11.4}% {:>8}µs",
                n,
                mode.to_string(),
                e1,
                overhead * 1e3,
                frac * 1e2,
                wall_us
            );
            if !first {
                json.push(',');
            }
            first = false;
            let _ = write!(
                json,
                "{{\"ranks\":{n},\"mode\":\"{mode}\",\"e1_us\":{:.0},\"baseline_us\":{:.0},\
                 \"overhead_us\":{:.0},\"overhead_frac\":{frac:.6},\
                 \"beats_full\":{beats_full},\"wall_us\":{wall_us}}}",
                e1.as_secs_f64() * 1e6,
                base.as_secs_f64() * 1e6,
                overhead * 1e6,
            );
        }
    }
    let _ = write!(
        json,
        "],\"alternatives_beat_full_at_256\":{acceptance_ok}}}"
    );
    std::fs::write("BENCH_ckpt.json", &json).expect("write BENCH_ckpt.json");
    println!("\nwrote BENCH_ckpt.json");
    if !acceptance_ok {
        eprintln!("FAIL: an alternative mode no longer beats full at >=256 ranks");
        std::process::exit(1);
    }
}
