//! The paper's two tables, measured beside the published values.
//!
//! `table1` — **Table I**, "Fault (bit flip) injection results" (§II-C,
//! from the Finject study): 100 simulated victim processes are attacked
//! with random bit flips until they crash, and the campaign reports the
//! distribution of injections-to-failure.
//!
//! `table2` — **Table II**, "Varying the checkpoint interval and system
//! MTTF" (§V-E): the heat application (512³ grid, 1,000 iterations,
//! 32,768 simulated ranks in 16³-point cubes) runs on the simulated
//! 32×32×32 torus; the checkpoint (= halo exchange) interval C is varied
//! over {500, 250, 125} iterations and the system MTTF over {6,000 s,
//! 3,000 s}; the first row is the no-failure baseline with a single
//! result checkpoint (C = 1,000). Per row: the failure-free time E1, the
//! time with failures and restarts E2, the number of activated failures
//! F, and the application MTTF_a = E2/(F+1). `--quick` runs 4,096 ranks
//! with the same per-rank load.

use xsim_apps::scenario::Cli;
use xsim_bench::{fixed, run_heat_baseline, run_heat_campaign, table2_config, Report};
use xsim_core::SimTime;
use xsim_fault::bitflip::{run_campaign, CampaignStats, VictimLayout};
use xsim_fault::FailureModel;
use xsim_fs::FsModel;
use xsim_obs::Json;

/// Table I as published: field, value, description.
const PAPER_I: [(&str, f64, &str); 8] = [
    ("Victims", 100.0, "# of victim application instances"),
    ("Injections", 2197.0, "# of injected failures for all runs"),
    ("Minimum", 1.0, "# of injections to victim failure"),
    ("Maximum", 98.0, "# of injections to victim failure"),
    ("Mean", 21.97, "# of injections to victim failure"),
    ("Median", 17.0, "# of injections to victim failure"),
    ("Mode", 4.0, "# of injections to victim failure"),
    ("Std.Dev.", 21.42, "# of injections to victim failure"),
];

/// The `table1` campaign.
pub(crate) fn table1(cli: &Cli) -> Report {
    let seed = cli.scenario.seed;
    let layout = VictimLayout::default();
    // The paper capped each victim at 100 injections; with the default
    // layout (p ≈ 1/21.3) a tiny fraction of victims survive the cap —
    // match the paper's protocol and report only crashed victims.
    let counts = run_campaign(100, 100, layout, seed);
    let mut r = Report::default();
    r.note(format!(
        "victim image: {} KiB, {:.2}% crash-sensitive; cap 100 injections; seed {seed}",
        layout.total_bytes() / 1024,
        layout.crash_probability() * 100.0,
    ));
    let Some(s) = CampaignStats::from_counts(&counts) else {
        r.gate("the campaign crashed a victim", false);
        return r;
    };
    r.gate("the campaign crashed a victim", true);
    r.table(
        "Table I — fault (bit flip) injection results",
        "field measured paper description",
    );
    let measured = [
        u64::from(s.victims).into(),
        s.injections.into(),
        u64::from(s.min).into(),
        u64::from(s.max).into(),
        fixed(s.mean, 2),
        s.median.into(),
        u64::from(s.mode).into(),
        fixed(s.stddev, 2),
    ];
    for ((field, paper, desc), m) in PAPER_I.into_iter().zip(measured) {
        r.row(vec![field.into(), m, paper.into(), desc.into()]);
    }
    // The paper's text: a geometric-like distribution, long right tail.
    r.gate(
        "mean > median > mode",
        s.mean > s.median && s.median > f64::from(s.mode),
    );
    r
}

/// Table II as published, one row per failure cell: MTTF_s, C, E1, E2,
/// F, MTTF_a (seconds).
const PAPER_II: [(u64, u64, f64, f64, u64, f64); 6] = [
    (6000, 500, 5258.0, 7957.0, 1, 3978.0),
    (6000, 250, 6377.0, 7074.0, 1, 3537.0),
    (6000, 125, 6601.0, 6750.0, 1, 3375.0),
    (3000, 500, 5258.0, 10584.0, 2, 3528.0),
    (3000, 250, 6377.0, 8618.0, 2, 2872.0),
    (3000, 125, 6601.0, 7948.0, 2, 2649.0),
];

/// The published failure-free baseline E1 (C = 1,000), in seconds.
const PAPER_E1: f64 = 5248.0;

/// A simulated time in whole seconds, as the paper prints it.
fn whole_s(t: SimTime) -> Json {
    fixed(t.as_secs_f64(), 0)
}

/// The `table2` campaign.
pub(crate) fn table2(cli: &Cli) -> Report {
    let (workers, seed) = (cli.scenario.workers, cli.scenario.seed);
    let iters = 1000u64;
    let mut r = Report::default();
    let scale = match cli.quick {
        true => "quick: 4,096 ranks, 256^3 grid, 16^3 torus",
        false => "paper: 32,768 ranks, 512^3 grid, 32^3 torus",
    };
    r.table(
        format!("Table II — varying the checkpoint interval and system MTTF ({scale})"),
        "mttf_s c e1_s e1_paper_s e2_s e2_paper_s f f_paper mttf_a_s mttf_a_paper_s",
    );
    let e1_of = |c: u64| {
        let cfg = table2_config(cli.quick, c);
        run_heat_baseline(&cfg, FsModel::free(), workers, seed).expect("E1")
    };
    // Baseline row: no failures, single checkpoint at the end.
    let e1 = e1_of(iters);
    r.row(vec![
        Json::Null,
        iters.into(),
        whole_s(e1),
        PAPER_E1.into(),
        Json::Null,
        Json::Null,
        0u64.into(),
        0u64.into(),
        Json::Null,
        Json::Null,
    ]);
    let e1s = [500, 250, 125].map(|c| (c, e1_of(c)));
    let mut completed = true;
    // (MTTF_s, E2, F) per cell, in the paper's row order.
    let mut cells = Vec::new();
    for (mttf_s, c, e1_paper, e2_paper, f_paper, mttfa_paper) in PAPER_II {
        let e1 = e1s.iter().find(|&&(k, _)| k == c).expect("an E1 per C").1;
        let mttf = SimTime::from_secs(mttf_s);
        let result = run_heat_campaign(
            &table2_config(cli.quick, c),
            FailureModel::UniformTwiceMttf { mttf },
            FsModel::free(),
            workers,
            // One draw stream per MTTF group: the initial failure lands at
            // the same virtual time for every checkpoint interval, so the
            // E2 differences across rows isolate the lost-work effect of C
            // (the paper's groups likewise hold F constant across C).
            seed ^ mttf.as_nanos(),
        )
        .expect("campaign");
        completed &= result.completed;
        r.row(vec![
            mttf_s.into(),
            c.into(),
            whole_s(e1),
            e1_paper.into(),
            whole_s(result.finish_time),
            e2_paper.into(),
            result.failures.into(),
            f_paper.into(),
            result.application_mttf().map_or(Json::Null, whole_s),
            mttfa_paper.into(),
        ]);
        cells.push((mttf_s, result.finish_time, result.failures));
    }
    r.gate(
        "every campaign cell completed within its restart budget",
        completed,
    );
    // The paper's headline (§V-E): a shorter interval loses less work, so
    // within a group that saw a failure E2 does not grow as C shrinks.
    let monotone = cells.chunk_by(|a, b| a.0 == b.0).all(|group| {
        group.iter().all(|cell| cell.2 == 0) || group.windows(2).all(|w| w[1].1 <= w[0].1)
    });
    r.gate(
        "within each MTTF group with F >= 1, E2 does not grow as C shrinks",
        monotone,
    );
    r
}
