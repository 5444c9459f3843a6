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
//! wins once the system MTBF approaches the per-failure rework. On the
//! whole grid the crossover is a self-gate, one verdict per end of the
//! FIT axis.
//!
//! Every scheme of a rung shares the failure schedule seed, and the
//! per-node draws are keyed by physical rank, so the ranks common to two
//! schemes fail at identical times — the comparison is apples-to-apples.
//!
//! `--protection` (or `XSIM_PROTECTION`) / `--fit` restrict the grid to
//! one scheme / one rung — the CI smoke runs
//! `--quick --protection replication --fit 2e9`, a cell whose replica
//! teams absorb ~70 failures with transparent failovers.
//! `campaign protection --quick | tail -n1` is `BENCH_protection.json`.

use std::collections::BTreeSet;
use xsim_apps::heat3d::{self, HeatConfig};
use xsim_apps::scenario::Cli;
use xsim_bench::{fixed, paper_load, protection_builder, run_protection_cell, Report};
use xsim_fs::FsModel;
use xsim_mpi::ProtectionScheme;

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

/// The `protection` campaign.
pub(crate) fn run(cli: &Cli) -> Report {
    let (workers, seed) = (cli.scenario.workers, cli.scenario.seed);
    // The paper's per-rank load on a machine small enough that a
    // multi-restart campaign grid stays tractable.
    let (ranks, iterations) = if cli.quick {
        ([4, 4, 2], 120)
    } else {
        ([8, 8, 4], 400)
    };
    let heat = HeatConfig {
        prefix: "prot".into(),
        ..paper_load(ranks, iterations, 4, 12)
    };
    let logical = heat.n_ranks();

    // Failure-free reference of the unprotected solver: sizes the
    // schedule horizon so even a thrashing campaign stays covered.
    let bare = HeatConfig {
        ckpt_interval: iterations,
        ..heat.clone()
    };
    let e1 = protection_builder(logical, workers, seed)
        .fs_model(FsModel::typical_pfs())
        .run(heat3d::program(bare))
        .expect("failure-free baseline")
        .exit_time();
    let horizon = e1.scale(50.0);
    let mut r = Report::default();
    r.table(
        "Unprotected failure-free baseline",
        "logical_ranks iterations e1_secs",
    );
    r.row(vec![
        logical.into(),
        iterations.into(),
        fixed(e1.as_secs_f64(), 3),
    ]);

    let whole_grid = cli.scenario.protection.is_none() && cli.fit.is_none();
    let schemes = match &cli.scenario.protection {
        Some(s) => vec![s.clone()],
        None => scheme_axis(logical),
    };
    let fits = cli.fit.map_or(FIT_AXIS.to_vec(), |f| vec![f]);
    r.table(
        "FIT x protection scheme (node_seconds = E2 x physical ranks)",
        "fit scheme physical_ranks completed runs failures failovers e2_secs node_seconds",
    );
    let mut cells = Vec::new();
    for &fit in &fits {
        for scheme in &schemes {
            let run = run_protection_cell(&heat, scheme, fit, horizon, 100, workers, seed);
            let c = run.unwrap_or_else(|e| {
                eprintln!("protection: {e}");
                std::process::exit(2)
            });
            r.row(vec![
                fixed(c.fit_per_node, 1),
                c.scheme.to_string().into(),
                c.physical_ranks.into(),
                c.completed.into(),
                c.runs.into(),
                c.failures.into(),
                c.failovers.into(),
                fixed(c.finish_time.as_secs_f64(), 3),
                fixed(c.node_seconds, 1),
            ]);
            cells.push(c);
        }
    }

    if whole_grid {
        // The crossover: C/R against full replication in node-seconds
        // at the two ends of the FIT axis.
        let pick = |fit: f64, scheme: &str| {
            let found = cells
                .iter()
                .find(|c| c.fit_per_node == fit && c.scheme.to_string() == scheme);
            found.expect("the whole grid has every cell")
        };
        let (lo, hi) = (fits[0], fits[fits.len() - 1]);
        let (cr_lo, rep_lo) = (pick(lo, "cr"), pick(lo, "replication:2"));
        let (cr_hi, rep_hi) = (pick(hi, "cr"), pick(hi, "replication:2"));
        r.note(format!(
            "low  FIT ({lo:.0e}): replication/CR node-seconds = {:.2} (expect > 1)",
            rep_lo.node_seconds / cr_lo.node_seconds
        ));
        r.note(format!(
            "high FIT ({hi:.0e}): replication/CR node-seconds = {:.2} (expect < 1){}",
            rep_hi.node_seconds / cr_hi.node_seconds,
            if cr_hi.completed {
                ""
            } else {
                " [CR campaign gave up]"
            }
        ));
        r.gate(
            format!("crossover at FIT {lo:.0e}: replication:2 costs more node-seconds than cr"),
            rep_lo.node_seconds > cr_lo.node_seconds,
        );
        r.gate(
            format!("crossover at FIT {hi:.0e}: replication:2 costs fewer node-seconds than cr, or cr gave up"),
            rep_hi.node_seconds < cr_hi.node_seconds || !cr_hi.completed,
        );
    }
    r
}
