//! Regenerates the paper's **Table I**: "Fault (bit flip) injection
//! results" (§II-C, from the Finject study).
//!
//! 100 simulated victim processes are attacked with random bit flips
//! until they crash; the harness reports the distribution of
//! injections-to-failure next to the paper's published values.
//!
//! ```text
//! cargo run --release -p xsim-bench --bin table1 [--seed N]
//! ```

use xsim_apps::scenario::Cli;
use xsim_fault::bitflip::{run_campaign, CampaignStats, VictimLayout};

struct PaperRow {
    field: &'static str,
    paper: &'static str,
    desc: &'static str,
}

const PAPER: &[PaperRow] = &[
    PaperRow {
        field: "Victims",
        paper: "100",
        desc: "# of victim application instances",
    },
    PaperRow {
        field: "Injections",
        paper: "2197",
        desc: "# of injected failures for all runs",
    },
    PaperRow {
        field: "Minimum",
        paper: "1",
        desc: "# of injections to victim failure",
    },
    PaperRow {
        field: "Maximum",
        paper: "98",
        desc: "# of injections to victim failure",
    },
    PaperRow {
        field: "Mean",
        paper: "21.97",
        desc: "# of injections to victim failure",
    },
    PaperRow {
        field: "Median",
        paper: "17",
        desc: "# of injections to victim failure",
    },
    PaperRow {
        field: "Mode",
        paper: "4",
        desc: "# of injections to victim failure",
    },
    PaperRow {
        field: "Std.Dev.",
        paper: "21.42",
        desc: "# of injections to victim failure",
    },
];

fn main() {
    let cli = Cli::from_main(std::env::args(), "seed", |k| std::env::var(k).ok());
    let seed = cli.scenario.seed;
    let layout = VictimLayout::default();
    // The paper capped each victim at 100 injections; with the default
    // layout (p ≈ 1/21.3) a tiny fraction of victims survive the cap —
    // match the paper's protocol and report only crashed victims.
    let counts = run_campaign(100, 100, layout, seed);
    let s = CampaignStats::from_counts(&counts).expect("campaign produced failures");

    println!("Table I — fault (bit flip) injection results");
    println!(
        "victim image: {} KiB, {:.2}% crash-sensitive; cap 100 injections; seed {}",
        layout.total_bytes() / 1024,
        layout.crash_probability() * 100.0,
        seed
    );
    println!();
    println!(
        "{:<12} {:>10} {:>10}  Description",
        "Field", "Measured", "Paper"
    );
    let measured = [
        format!("{}", s.victims),
        format!("{}", s.injections),
        format!("{}", s.min),
        format!("{}", s.max),
        format!("{:.2}", s.mean),
        format!("{}", s.median),
        format!("{}", s.mode),
        format!("{:.2}", s.stddev),
    ];
    for (row, m) in PAPER.iter().zip(measured) {
        println!(
            "{:<12} {:>10} {:>10}  {}",
            row.field, m, row.paper, row.desc
        );
    }
}
