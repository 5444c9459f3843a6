//! FIT × protection-scheme ablation: checkpoint/restart vs. replication.
//!
//! The replication-viability question (Ferreira et al., and the PartRePer
//! partial-replication follow-ons): checkpoint/restart is cheap when
//! failures are rare — its only cost is the checkpoint cadence — but pays
//! lost rework and restart churn per failure, while replication pays a
//! constant factor in *nodes* (degree × the machine) and almost nothing
//! per failure, because replica teams absorb deaths via transparent
//! failover. Sweeping the per-node failure rate (FIT) across protection
//! schemes on the heat application exposes the crossover: in node-seconds
//! (completion time × machine size), C/R wins at low FIT and replication
//! wins once the system MTBF approaches the per-failure rework.
//!
//! Every scheme of a rung shares the failure schedule seed, and the
//! per-node draws are keyed by physical rank, so the ranks common to two
//! schemes fail at identical times — the comparison is apples-to-apples.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin protection [--quick] \
//!     [--seed N] [--workers N] [--protection SPEC] [--fit F]
//! ```
//!
//! `--protection` / `--fit` (or `XSIM_PROTECTION`) restrict the grid to
//! one scheme / one rung — the CI smoke runs
//! `--quick --protection replication --fit 2e9`, a cell whose replica
//! teams absorb ~70 failures with transparent failovers. Emits
//! `BENCH_protection.json`.

use std::collections::BTreeSet;
use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::ComputeMode;
use xsim_bench::{
    env_protection, parse_flags, protection_builder, run_protection_cell, ProtectionCell, Scale,
};
use xsim_core::SimTime;
use xsim_fs::FsModel;
use xsim_mpi::ProtectionScheme;

/// Logical heat problem per scale: the paper's per-rank load (16³ points
/// per rank) on a machine small enough that a multi-restart campaign
/// grid stays tractable.
fn base_config(scale: Scale) -> HeatConfig {
    let (ranks, global, iterations) = match scale {
        Scale::Quick => ([4, 4, 2], [64, 64, 32], 120),
        Scale::Paper => ([8, 8, 4], [128, 128, 64], 400),
    };
    HeatConfig {
        global,
        ranks,
        iterations,
        halo_interval: 4,
        ckpt_interval: 12,
        mode: ComputeMode::Modeled,
        ckpt_mode: Default::default(),
        per_point: SimTime::from_nanos(1280),
        prefix: "prot".into(),
    }
}

/// The scheme axis: unprotected, C/R, full duplication, and partial
/// duplication of the first quarter of the logical ranks.
fn scheme_axis(logical: usize) -> Vec<ProtectionScheme> {
    let critical: BTreeSet<usize> = (0..logical / 4).collect();
    vec![
        ProtectionScheme::None,
        ProtectionScheme::CheckpointRestart {
            mode: Default::default(),
        },
        ProtectionScheme::Replication { degree: 2 },
        ProtectionScheme::Partial {
            degree: 2,
            critical,
        },
    ]
}

/// The FIT axis. 1700 FIT is a typical real node; the upper rungs model
/// the harsh regimes (scaled-up machines / near-threshold voltage) where
/// the replication literature places the crossover. On the quick grid
/// the system MTBF at 5×10⁹ FIT (~22 s for 32 nodes) sits below C/R's
/// per-failure rework, which is exactly where C/R efficiency collapses.
const FIT_AXIS: [f64; 5] = [1.0e6, 1.0e8, 1.0e9, 2.0e9, 5.0e9];

fn cell_json(c: &ProtectionCell) -> String {
    format!(
        "{{\"scheme\":\"{}\",\"fit\":{:.1},\"physical_ranks\":{},\"completed\":{},\
         \"runs\":{},\"failures\":{},\"failovers\":{},\"e2_secs\":{:.3},\
         \"node_seconds\":{:.1}}}",
        c.scheme,
        c.fit_per_node,
        c.physical_ranks,
        c.completed,
        c.runs,
        c.failures,
        c.failovers,
        c.finish_time.as_secs_f64(),
        c.node_seconds,
    )
}

fn main() {
    let flags = parse_flags();
    let heat = base_config(flags.scale);
    let logical = heat.n_ranks();

    // Failure-free reference of the unprotected solver: sizes the
    // schedule horizon so even a thrashing campaign stays covered.
    let mut bare = heat.clone();
    bare.ckpt_interval = bare.iterations;
    let e1 = protection_builder(logical, flags.workers, flags.seed)
        .fs_model(FsModel::typical_pfs())
        .run(heat3d::program(bare))
        .expect("failure-free baseline")
        .exit_time();
    let horizon = e1.scale(50.0);
    println!(
        "heat, {logical} logical ranks, {} iterations, E1 = {:.0} s",
        heat.iterations,
        e1.as_secs_f64()
    );

    let scheme_filter = flags.protection.clone().or_else(env_protection);
    let schemes: Vec<ProtectionScheme> = match &scheme_filter {
        Some(s) => vec![s.clone()],
        None => scheme_axis(logical),
    };
    let fits: Vec<f64> = match flags.fit {
        Some(f) => vec![f],
        None => FIT_AXIS.to_vec(),
    };

    println!(
        "\n{:>10} {:>16} {:>6} {:>5} {:>9} {:>10} {:>12} {:>16}",
        "FIT/node", "scheme", "nodes", "runs", "failures", "failovers", "E2", "node-seconds"
    );
    let mut cells: Vec<ProtectionCell> = Vec::new();
    for &fit in &fits {
        for scheme in &schemes {
            let run =
                run_protection_cell(&heat, scheme, fit, horizon, 100, flags.workers, flags.seed);
            let cell = run.unwrap_or_else(|e| {
                eprintln!("protection: {e}");
                std::process::exit(2)
            });
            println!(
                "{:>10.0e} {:>16} {:>6} {:>5} {:>9} {:>10} {:>12} {:>16}",
                cell.fit_per_node,
                cell.scheme.to_string(),
                cell.physical_ranks,
                if cell.completed {
                    cell.runs.to_string()
                } else {
                    format!("{}*", cell.runs)
                },
                cell.failures,
                cell.failovers,
                format!("{:.0} s", cell.finish_time.as_secs_f64()),
                format!("{:.0}", cell.node_seconds),
            );
            cells.push(cell);
        }
    }

    // Crossover verdict: compare C/R and full replication in
    // node-seconds at the extreme rungs of the grid.
    let pick = |fit: f64, scheme: &str| {
        cells
            .iter()
            .find(|c| c.fit_per_node == fit && c.scheme.to_string() == scheme)
    };
    if fits.len() > 1 && scheme_filter.is_none() {
        let (lo, hi) = (fits[0], fits[fits.len() - 1]);
        if let (Some(cr_lo), Some(cr_hi), Some(rep_lo), Some(rep_hi)) = (
            pick(lo, "cr"),
            pick(hi, "cr"),
            pick(lo, "replication:2"),
            pick(hi, "replication:2"),
        ) {
            let low_ok = rep_lo.node_seconds > cr_lo.node_seconds;
            let high_ok = rep_hi.node_seconds < cr_hi.node_seconds || !cr_hi.completed;
            println!(
                "\nlow  FIT ({lo:.0e}): replication/CR node-seconds = {:.2} (expect > 1)",
                rep_lo.node_seconds / cr_lo.node_seconds
            );
            println!(
                "high FIT ({hi:.0e}): replication/CR node-seconds = {:.2} (expect < 1){}",
                rep_hi.node_seconds / cr_hi.node_seconds,
                if cr_hi.completed {
                    ""
                } else {
                    " [CR campaign gave up]"
                }
            );
            if low_ok && high_ok {
                println!("crossover observed: C/R wins at low FIT, replication at high FIT");
            } else {
                println!("crossover NOT observed at the grid extremes");
            }
        }
    }

    let rows: Vec<String> = cells.iter().map(cell_json).collect();
    let json = format!(
        "{{\n  \"e1_secs\": {:.3},\n  \"logical_ranks\": {},\n  \"seed\": {},\n  \
         \"cells\": [\n    {}\n  ]\n}}\n",
        e1.as_secs_f64(),
        logical,
        flags.seed,
        rows.join(",\n    ")
    );
    std::fs::write("BENCH_protection.json", json).expect("write BENCH_protection.json");
    eprintln!("wrote BENCH_protection.json");
}
