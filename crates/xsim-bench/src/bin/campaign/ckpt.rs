//! The two checkpoint campaigns on the paper's heat application.
//!
//! `ckpt-sweep` — the checkpoint-interval sweep against the Daly
//! optimum. The paper's Table II varies the checkpoint interval at two
//! MTTFs; the natural follow-on experiment (and the purpose of the
//! analytic model the paper cites as \[31\]) is to sweep the interval,
//! locate the E2 minimum, and compare it with Daly's higher-order
//! estimate, on a 512-rank machine with a *charged* checkpoint cost
//! (unlike Table II: the optimum is undefined when checkpoints are free).
//!
//! `ckpt-scaling` — the four write strategies (`full`, `agg:G`, `buddy`,
//! `incr:K`) over the striped PFS as the rank count grows against a
//! fixed pool of I/O nodes. Every configuration keeps the paper's
//! per-rank load and checkpoints 4 times over 20 iterations, so the
//! *simulated* checkpoint overhead — the run's exit time minus the same
//! run over the free (Table II) file system — isolates exactly what each
//! mode pays at the PFS:
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
//! Its self-gate fails if an alternative mode stops beating `full` at
//! ≥ 256 ranks (the regression bar the differential suite's physics
//! rests on). `campaign ckpt-scaling | tail -n1` is `BENCH_ckpt.json`;
//! only its `wall_us` cells depend on the host.

use crate::secs;
use xsim_apps::heat3d::HeatConfig;
use xsim_apps::scenario::Cli;
use xsim_bench::{fixed, paper_load, run_heat_baseline, run_heat_campaign, Report};
use xsim_ckpt::{daly_interval, expected_runtime};
use xsim_core::SimTime;
use xsim_fault::FailureModel;
use xsim_fs::FsModel;
use xsim_mpi::CkptMode;

/// The `ckpt-sweep` campaign.
pub(crate) fn sweep(cli: &Cli) -> Report {
    let (workers, seed) = (cli.scenario.workers, cli.scenario.seed);
    // 512 ranks, 1000 iterations: E1 ≈ 5243 s.
    let base = HeatConfig {
        prefix: "sweep".into(),
        ..paper_load([8; 3], 1000, 1000, 1000)
    };
    let iter_time = SimTime(base.per_point.as_nanos() * base.points_per_rank()).scale(1000.0);
    // Checkpoint commit cost δ = 20 s (metadata-dominated PFS), system
    // MTTF = 3000 s.
    let delta = SimTime::from_secs(20);
    let mttf = SimTime::from_secs(3000);
    let fs = FsModel {
        meta_latency: delta,
        write_bw: f64::INFINITY,
        read_bw: f64::INFINITY,
        pfs: None,
    };
    let t_daly = daly_interval(delta, mttf);
    let c_daly = t_daly.as_nanos() / iter_time.as_nanos().max(1);

    let mut r = Report::default();
    r.table(
        "Daly model (heat, 512 ranks, 1000 iterations)",
        "iteration_s delta_s mttf_s daly_tau_s daly_c",
    );
    r.row(vec![
        secs(iter_time),
        secs(delta),
        secs(mttf),
        secs(t_daly),
        c_daly.into(),
    ]);
    r.table(
        "Checkpoint-interval sweep (E2 and F averaged over 6 failure draws)",
        "c e1_s e2_avg_s f_avg daly_expected_s",
    );
    let seeds: Vec<u64> = (0..6).map(|i| seed ^ (0x9E37 * (i + 1))).collect();
    let mut best: Option<(u64, f64)> = None;
    for c in [16u64, 32, 64, 125, 250, 500] {
        let cfg = HeatConfig {
            ckpt_interval: c,
            halo_interval: c,
            ..base.clone()
        };
        let e1 = run_heat_baseline(&cfg, fs, workers, seed).expect("E1");
        let mut e2_sum = 0.0;
        let mut f_sum = 0u64;
        for &seed in &seeds {
            let model = FailureModel::UniformTwiceMttf { mttf };
            let result = run_heat_campaign(&cfg, model, fs, workers, seed).expect("campaign");
            assert!(result.completed);
            e2_sum += result.finish_time.as_secs_f64();
            f_sum += result.failures;
        }
        let e2_avg = e2_sum / seeds.len() as f64;
        let f_avg = f_sum as f64 / seeds.len() as f64;
        // Analytic prediction for this interval.
        let tau = SimTime(iter_time.as_nanos() * c);
        let solve = SimTime(iter_time.as_nanos() * base.iterations);
        let predicted = expected_runtime(solve, tau, delta, SimTime::ZERO, mttf);
        r.row(vec![
            c.into(),
            fixed(e1.as_secs_f64(), 0),
            fixed(e2_avg, 0),
            fixed(f_avg, 1),
            fixed(predicted.as_secs_f64(), 0),
        ]);
        best = match best {
            Some((_, b)) if b <= e2_avg => best,
            _ => Some((c, e2_avg)),
        };
    }
    let (c_best, _) = best.expect("swept");
    r.note(format!(
        "empirical optimum: C = {c_best} iterations; Daly predicts ≈ {c_daly} \
         (same order — the sweep brackets the analytic optimum)"
    ));
    r
}

/// Fixed I/O-node pool every scale of `ckpt-scaling` contends for.
const IO_NODES: u32 = 4;

/// The `ckpt-scaling` campaign.
pub(crate) fn scaling(cli: &Cli) -> Report {
    let (workers, seed) = (cli.scenario.workers, cli.scenario.seed);
    let mut r = Report::default();
    r.table(
        format!(
            "Checkpoint modes over a striped PFS of {IO_NODES} I/O nodes: \
             heat3d(16^3 points/rank, 20 iters, ckpt every 5)"
        ),
        "ranks mode e1_us baseline_us overhead_us overhead_frac beats_full wall_us",
    );
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
    let mut acceptance_ok = true;
    for dims in scales {
        let config = |ckpt_mode| HeatConfig {
            ckpt_mode,
            ..paper_load(dims, 20, 5, 5)
        };
        let n = config(CkptMode::Full).n_ranks();
        // Baseline: the same run over the free (Table II) file system —
        // zero checkpoint I/O cost, identical compute and communication.
        let base = run_heat_baseline(&config(CkptMode::Full), FsModel::free(), workers, seed)
            .expect("baseline");
        let mut full_overhead = f64::MAX;
        for mode in modes {
            let t = std::time::Instant::now();
            let e1 = run_heat_baseline(&config(mode), FsModel::striped(IO_NODES), workers, seed)
                .expect("mode run");
            let wall_us = t.elapsed().as_micros() as u64;
            let overhead = (e1 - base).as_secs_f64();
            let beats_full = if mode == CkptMode::Full {
                full_overhead = overhead;
                false
            } else {
                overhead < full_overhead
            };
            if n >= 256 && mode != CkptMode::Full && !beats_full {
                acceptance_ok = false;
            }
            r.row(vec![
                n.into(),
                mode.to_string().into(),
                fixed(e1.as_secs_f64() * 1e6, 0),
                fixed(base.as_secs_f64() * 1e6, 0),
                fixed(overhead * 1e6, 0),
                fixed(overhead / base.as_secs_f64(), 6),
                beats_full.into(),
                wall_us.into(),
            ]);
        }
    }
    r.gate(
        "agg, buddy and incr beat full at >= 256 ranks",
        acceptance_ok,
    );
    r
}
