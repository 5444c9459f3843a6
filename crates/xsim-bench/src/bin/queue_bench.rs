//! Self-gating event-queue churn benchmark, calendar queue vs. a binary
//! heap over the keys: uniform hold-model churn on a long-lived queue at
//! the standard pending tiers (1k / 100k / 1M), and the campaign shape —
//! far timers behind a nanosecond front, a fresh queue per short run
//! with construction and drop on the clock — at 256 and 16,384 pending,
//! and the flood shape: the raw-core ring of wakes on 2²⁰ VPs, whose
//! lock-step waves each arrive in ascending rank order.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin queue_bench [-- --quick | --ops N]
//! ```
//!
//! Exits non-zero if the calendar queue falls below 1.0× the heap at any
//! tier (the `campaign ckpt-scaling` self-gate pattern): the calendar is
//! kept only because it beats the heap, and CI smokes this so a hot-path
//! or per-instance regression fails the build. `--quick` trims the timed
//! span for CI (the flood tier always runs its whole program); the
//! tiers and the gate stay the same.

use xsim_apps::scenario::Cli;
use xsim_bench::{peak_rss_kib, run_queue_tier, QUEUE_TIERS};

fn main() {
    let cli = Cli::from_main(std::env::args(), "quick ops", |k| std::env::var(k).ok());
    let quick_ops = if cli.quick { 50_000 } else { 200_000 };
    let ops = cli.ops.unwrap_or(quick_ops);

    println!(
        "{:>10} {:>9} {:>10} {:>14} {:>16} {:>8}",
        "pending", "shape", "ops", "heap ns/op", "calendar ns/op", "speedup"
    );
    let mut gate_ok = true;
    for (pending, shape) in QUEUE_TIERS {
        let tier = run_queue_tier(pending, shape, ops);
        let speedup = tier.speedup();
        let flag = if speedup >= 1.0 {
            ""
        } else {
            "  << below heap"
        };
        println!(
            "{:>10} {:>9} {:>10} {:>14.1} {:>16.1} {:>7.2}x{flag}",
            tier.pending,
            shape.name(),
            tier.ops,
            tier.heap_ns_per_op,
            tier.calendar_ns_per_op,
            speedup
        );
        gate_ok &= speedup >= 1.0;
    }
    println!(
        "\npeak RSS: {:.1} MiB",
        peak_rss_kib().unwrap_or(0) as f64 / 1024.0
    );
    if !gate_ok {
        eprintln!("FAIL: calendar queue below 1.0x heap at a pending tier");
        std::process::exit(1);
    }
}
