//! The paper's two tables and the co-design campaigns (paper §V): one
//! application swept across failure rates, checkpoint strategies and
//! resilience schemes; and the two host-cost ladders of the event core
//! (§II-A).
//!
//! ```text
//! cargo run --release -p xsim-bench --bin campaign -- NAME [flags]
//! ```
//!
//! | `NAME` | what it sweeps | flags |
//! |---|---|---|
//! | `ablations` | design choices of DESIGN.md §4 | `--seed --profile --failures` |
//! | `net-faults` | lossy transport, dead and degraded links | `--seed` |
//! | `ckpt-sweep` | checkpoint interval vs. the Daly optimum | `--workers --seed` |
//! | `ckpt-scaling` | checkpoint modes over a striped PFS | `--quick --workers --seed` |
//! | `protection` | FIT × protection scheme | `--quick --workers --seed --protection --fit` |
//! | `first-impressions` | where a failure lands (§V-D) | `--quick --workers --seed --profile --failures` |
//! | `table1` | the paper's Table I: bit flips to victim failure | `--seed` |
//! | `table2` | the paper's Table II: checkpoint interval × MTTF | `--quick --workers --seed` |
//! | `queue` | calendar queue vs. a binary heap, per pending tier | `--quick --ops` |
//! | `vp-scaling` | host cost per VP / MPI rank up to 2²⁷ | `--quick --mpi --workers --rounds --max-vps` |
//!
//! The first stdout line is `scenario: NAME FLAGS` (replay: pass it
//! back), the last is the JSON form of the report (see
//! `xsim_bench::Report`). The run exits 1 if a self-gate failed, and 2
//! on an unknown name or a flag the campaign does not read.

mod ablations;
mod ckpt;
mod first_impressions;
mod ladders;
mod protection;
mod tables;

use xsim_apps::scenario::Cli;
use xsim_bench::{fixed, Report};
use xsim_core::SimTime;
use xsim_obs::Json;

const NAMES: &str = "ablations net-faults ckpt-sweep ckpt-scaling protection first-impressions \
    table1 table2 queue vp-scaling";

/// A simulated time in seconds, at the microsecond precision its
/// `Display` shows.
fn secs(t: SimTime) -> Json {
    fixed(t.as_secs_f64(), 6)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let (keys, run): (&str, fn(&Cli) -> Report) = match name.as_str() {
        "ablations" => ("seed profile failures", ablations::run),
        "net-faults" => ("seed", ablations::net_faults),
        "ckpt-sweep" => ("workers seed", ckpt::sweep),
        "ckpt-scaling" => ("quick workers seed", ckpt::scaling),
        "protection" => ("quick workers seed protection fit", protection::run),
        "first-impressions" => (
            "quick workers seed profile failures",
            first_impressions::run,
        ),
        "table1" => ("seed", tables::table1),
        "table2" => ("quick workers seed", tables::table2),
        "queue" => ("quick ops", ladders::queue),
        "vp-scaling" => ("quick mpi workers rounds max-vps", ladders::vp_scaling),
        _ => {
            eprintln!("unknown campaign '{name}'; campaigns: {NAMES}");
            std::process::exit(2)
        }
    };
    let cli = Cli::parse(argv, keys, |k| std::env::var(k).ok()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let scenario = format!("{name} {cli}").trim_end().to_string();
    println!("scenario: {scenario}");
    run(&cli).finish(&scenario, cli.scenario.workers)
}
