//! Regenerates the paper's **Table II**: "Varying the checkpoint
//! interval and system MTTF" (§V-E).
//!
//! The heat application (512³ grid, 1,000 iterations, 32,768 simulated
//! ranks in 32³ cubes) runs on the simulated 32×32×32 torus machine;
//! the checkpoint (= halo exchange) interval C is varied over
//! {500, 250, 125} iterations and the system MTTF over {6,000 s,
//! 3,000 s}; the first row is the no-failure baseline with a single
//! result checkpoint (C = 1,000). Reported per row: the failure-free
//! time E1, the time with failures and restarts E2, the number of
//! activated failures F, and the application MTTF_a = E2/(F+1).
//!
//! ```text
//! cargo run --release -p xsim-bench --bin table2 [--quick] [--workers N] [--seed N]
//! ```

use xsim_apps::scenario::Cli;
use xsim_bench::{run_heat_baseline, run_heat_campaign, table2_config};
use xsim_core::SimTime;
use xsim_fault::FailureModel;
use xsim_fs::FsModel;

fn fmt_s(t: SimTime) -> String {
    format!("{:.0} s", t.as_secs_f64())
}

fn main() {
    let cli = Cli::from_main(std::env::args(), "quick workers seed", |k| {
        std::env::var(k).ok()
    });
    let (quick, workers, seed) = (cli.quick, cli.scenario.workers, cli.scenario.seed);
    let iters = 1000u64;
    let intervals = [iters / 2, iters / 4, iters / 8]; // 500, 250, 125
    let mttfs = [SimTime::from_secs(6000), SimTime::from_secs(3000)];

    println!("Table II — varying the checkpoint interval and system MTTF");
    if quick {
        println!("scale: quick (4,096 ranks, 256^3 grid, 16^3 torus); seed {seed}");
    } else {
        println!("scale: paper (32,768 ranks, 512^3 grid, 32^3 torus); seed {seed}");
    }
    println!();
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>4} {:>10}",
        "MTTF_s", "C", "E1", "E2", "F", "MTTF_a"
    );

    // Baseline row: no failures, single checkpoint at the end.
    let base_cfg = table2_config(quick, iters);
    let wall = std::time::Instant::now();
    let e1 = run_heat_baseline(&base_cfg, FsModel::free(), workers, seed).expect("baseline");
    eprintln!("[baseline C={iters} done in {:.1?}]", wall.elapsed());
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>4} {:>10}",
        "—",
        iters,
        fmt_s(e1),
        "—",
        0,
        "—"
    );

    // E1 depends only on C; compute once per interval.
    let mut e1_by_c = std::collections::HashMap::new();
    for &c in &intervals {
        let cfg = table2_config(quick, c);
        let wall = std::time::Instant::now();
        let e1 = run_heat_baseline(&cfg, FsModel::free(), workers, seed).expect("E1");
        eprintln!("[E1 for C={c} done in {:.1?}]", wall.elapsed());
        e1_by_c.insert(c, e1);
    }

    for mttf in mttfs {
        for &c in &intervals {
            let cfg = table2_config(quick, c);
            let wall = std::time::Instant::now();
            let e1 = e1_by_c[&c];
            let result = run_heat_campaign(
                &cfg,
                FailureModel::UniformTwiceMttf { mttf },
                FsModel::free(),
                workers,
                // One draw stream per MTTF group: the initial failure
                // lands at the same virtual time for every checkpoint
                // interval, so the E2 differences across rows isolate
                // the lost-work effect of C (the paper's groups likewise
                // hold F constant across C).
                seed ^ mttf.as_nanos(),
            )
            .expect("campaign");
            assert!(result.completed, "campaign exhausted its restart budget");
            let mttfa = result
                .application_mttf()
                .map(fmt_s)
                .unwrap_or_else(|| "—".into());
            println!(
                "{:>8} {:>6} {:>10} {:>10} {:>4} {:>10}",
                fmt_s(mttf),
                c,
                fmt_s(e1),
                fmt_s(result.finish_time),
                result.failures,
                mttfa
            );
            eprintln!(
                "[MTTF={} C={c}: {} run(s) in {:.1?}]",
                fmt_s(mttf),
                result.runs.len(),
                wall.elapsed()
            );
        }
    }

    println!();
    println!("paper reference (Table II):");
    println!("       —   1000     5248 s          —    0          —");
    println!("  6000 s    500     5258 s     7957 s    1     3978 s");
    println!("  6000 s    250     6377 s     7074 s    1     3537 s");
    println!("  6000 s    125     6601 s     6750 s    1     3375 s");
    println!("  3000 s    500     5258 s    10584 s    2     3528 s");
    println!("  3000 s    250     6377 s     8618 s    2     2872 s");
    println!("  3000 s    125     6601 s     7948 s    2     2649 s");
}
