//! One [`Scenario`]: the run inputs every front end takes from outside,
//! read by one parser.
//!
//! xSim takes its failure schedule "as rank/time pairs on the command
//! line or via an environment variable" (paper §IV-B). Every front end —
//! the `xsim` CLI and the `xsim-bench` harnesses — hands its argv and an
//! environment lookup to [`Cli::parse`], the one place either is read:
//!
//! * `--key value` tokens, plus the bare flags `--quick`, `--mpi` and
//!   `--power`. A binary names the keys it reads; any other key is an
//!   error that lists them.
//! * For a binary that reads `--failures`: `XSIM_FAILURES`
//!   (`rank:seconds,...`) and `XSIM_NET_FAULTS` (`rank:`/`link:`/
//!   `switch:` entries), merged after `--failures` in that order.
//! * For a binary that reads `--protection`: `XSIM_PROTECTION`, which
//!   `--protection` overrides.
//!
//! The text form is the command line: `Display` prints the tokens the
//! parser accepts (default fields omitted) and `FromStr` reads them back
//! exactly, so a run that prints its `scenario:` line can be replayed
//! from its own output.

use crate::heat3d::{ComputeMode, HeatConfig};
use std::fmt;
use std::str::FromStr;
use xsim_core::SimTime;
use xsim_fault::FaultSchedule;
use xsim_mpi::{CkptMode, ProtectionScheme, SimBuilder};

/// Every subcommand and key any front end reads, space-separated: what
/// [`FromStr`] accepts.
const ALL_KEYS: &str = "heat ring ranks global iters ckpt halo laps payload \
    workers seed failures protection quick mpi power ops rounds max-vps fit mttf \
    slowdown per-point-ns profile";
/// Keys owned by a subcommand: `heat`'s, `ring`'s, and both.
const HEAT_KEYS: &str = "ranks global iters ckpt halo";
const RING_KEYS: &str = "ranks laps payload";
const APP_KEYS: &str = "ranks global iters ckpt halo laps payload";
/// The keys of a binary's own knobs (see [`Cli`]), and those of them that
/// take no value.
const KNOBS: &str = "quick mpi power ops rounds max-vps fit mttf slowdown per-point-ns profile";
const FLAGS: &str = "quick mpi power";

/// Whether the space-separated `list` holds `word`.
fn has(list: &str, word: &str) -> bool {
    list.split_whitespace().any(|w| w == word)
}

/// The application a scenario runs: the `xsim` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum App {
    /// No fixed application: the binary sweeps its own workloads.
    None,
    /// `heat [--ranks AxBxC] [--global XxYxZ] [--iters N] [--ckpt N]
    /// [--halo N]`: the paper's heat application, modeled compute.
    Heat(HeatConfig),
    /// `ring [--ranks N] [--laps N] [--payload BYTES]`.
    Ring {
        ranks: usize,
        laps: u32,
        payload: usize,
    },
}

/// The run inputs a front end takes from outside.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The application (the `xsim` subcommand; `None` for the harnesses).
    pub app: App,
    /// Parallel-engine workers (`--workers`); a run starts at most one
    /// thread per CPU.
    pub workers: usize,
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Process, link and switch faults: `--failures`, then
    /// `XSIM_FAILURES`, then `XSIM_NET_FAULTS`.
    pub faults: FaultSchedule,
    /// `--protection`, else `XSIM_PROTECTION`.
    pub protection: Option<ProtectionScheme>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            app: App::None,
            workers: 1,
            // Any seed is valid; runs are deterministic per seed. At this
            // one Table II's MTTF 3000 s group sees a failure in its first
            // run and the 6000 s group draws none.
            seed: 17,
            faults: FaultSchedule::new(),
            protection: None,
        }
    }
}

impl Scenario {
    /// Schedule the scenario's process failures and link/switch faults
    /// on a builder.
    pub fn inject(&self, builder: SimBuilder) -> SimBuilder {
        builder
            .inject_failures(self.faults.rank_failures().iter())
            .net_faults(self.faults.net_faults())
    }
}

/// One parsed command line: the scenario, then the binary's own knobs —
/// read by the same tokenizer, typed, but not part of the scenario; each
/// is `None`/`false` unless given.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The run inputs.
    pub scenario: Scenario,
    /// `--quick`: the reduced scale of a harness.
    pub quick: bool,
    /// `--mpi`: run the MPI rungs instead of the raw-core ones
    /// (`campaign vp-scaling`).
    pub mpi: bool,
    /// `--power`: attach the node power model (`xsim heat`).
    pub power: bool,
    /// `--ops N`: timed churn operations per tier (`campaign queue`).
    pub ops: Option<usize>,
    /// `--rounds N`: sleep/wake rounds per VP (`campaign vp-scaling`).
    pub rounds: Option<u32>,
    /// `--max-vps N`: cap on the scaling ladder (`campaign vp-scaling`).
    pub max_vps: Option<usize>,
    /// `--fit F`: one per-node FIT rung (`campaign protection`).
    pub fit: Option<f64>,
    /// `--mttf SECONDS`: run an MTTF-driven campaign (`xsim heat`).
    pub mttf: Option<f64>,
    /// `--slowdown F`: node slowdown factor (`xsim heat`).
    pub slowdown: Option<f64>,
    /// `--per-point-ns N`: native cost of one grid point (`xsim heat`).
    pub per_point_ns: Option<u64>,
    /// `--profile FILE`: write a Chrome trace and metrics snapshot.
    pub profile: Option<String>,
    /// The knob tokens as given, echoed by `Display`.
    knob_text: String,
}

/// Why a command line or environment variable was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// `--key` is not one the binary reads; `known` lists those it does.
    UnknownKey { key: String, known: String },
    /// A token where `--key` was expected.
    Unexpected(String),
    /// `--key` without its value.
    MissingValue(String),
    /// The value of `--key` or of an environment variable `key` does not
    /// parse (`why` quotes it).
    BadValue { key: String, why: String },
    /// A heat configuration whose keys disagree.
    InvalidHeat(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownKey { key, known } => {
                write!(f, "unknown flag --{key}; this binary reads: {known}")
            }
            ScenarioError::Unexpected(tok) => write!(f, "unexpected argument '{tok}'"),
            ScenarioError::MissingValue(key) => write!(f, "--{key} needs a value"),
            ScenarioError::BadValue { key, why } => write!(f, "{key} {why}"),
            ScenarioError::InvalidHeat(why) => write!(f, "invalid heat configuration: {why}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// `value` of `key` parsed by `parse`, or the typed error quoting it.
fn typed<T>(
    key: &str,
    value: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, ScenarioError> {
    parse(value).map_err(|why| ScenarioError::BadValue {
        key: key.into(),
        why: format!("'{value}': {why}"),
    })
}

fn num<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn count(v: &str) -> Result<usize, String> {
    let n = num(v).ok().filter(|n| *n > 0);
    n.ok_or_else(|| "want a positive integer".into())
}

fn rate(v: &str) -> Result<f64, String> {
    let x = num(v).ok().filter(|x: &f64| x.is_finite() && *x >= 0.0);
    x.ok_or_else(|| "want a finite number >= 0".into())
}

fn factor(v: &str) -> Result<f64, String> {
    let x = num(v).ok().filter(|x: &f64| x.is_finite() && *x > 0.0);
    x.ok_or_else(|| "want a finite number > 0".into())
}

fn dims(v: &str) -> Result<[usize; 3], String> {
    let parts: Vec<usize> = v.split('x').map(num).collect::<Result<_, _>>()?;
    parts.try_into().map_err(|_| "want AxBxC".to_string())
}

/// Environment variable `name`, if set and not blank, parsed.
fn env_value<T: FromStr>(
    env: &impl Fn(&str) -> Option<String>,
    name: &str,
) -> Result<Option<T>, ScenarioError>
where
    T::Err: fmt::Display,
{
    let value = env(name).filter(|v| !v.trim().is_empty());
    value.map(|v| typed(name, &v, num)).transpose()
}

/// The `--key [value]` pairs of one command line, last one winning.
struct Given(Vec<(String, Option<String>)>);

impl Given {
    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn get<T>(
        &self,
        key: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, ScenarioError> {
        match self.0.iter().rev().find(|(k, _)| k == key) {
            Some((_, Some(v))) => typed(&format!("--{key}"), v, parse).map(Some),
            _ => Ok(None),
        }
    }
}

impl Cli {
    /// Parse `argv` (without the program name) for a binary that reads
    /// `keys` — its subcommands (`heat`, `ring`) and `--key`s,
    /// space-separated — with `env` the lookup of an environment
    /// variable, which a `main` passes in. The environment is consulted
    /// only for keys the binary reads (see the module docs).
    pub fn parse(
        argv: impl IntoIterator<Item = impl Into<String>>,
        keys: &str,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Cli, ScenarioError> {
        let mut argv = argv.into_iter().map(Into::into).peekable();
        let app = argv.next_if(|t| !t.starts_with("--"));
        let app_keys = match app.as_deref() {
            None => "",
            Some("heat") if has(keys, "heat") => HEAT_KEYS,
            Some("ring") if has(keys, "ring") => RING_KEYS,
            Some(word) => return Err(ScenarioError::Unexpected(word.into())),
        };
        let known: Vec<&str> = keys
            .split_whitespace()
            .filter(|k| !has("heat ring", k) && (has(app_keys, k) || !has(APP_KEYS, k)))
            .collect();

        let (mut given, mut knob_text) = (Given(Vec::new()), String::new());
        while let Some(tok) = argv.next() {
            let Some(key) = tok.strip_prefix("--").filter(|k| known.contains(k)) else {
                return Err(match tok.strip_prefix("--") {
                    Some(key) => ScenarioError::UnknownKey {
                        key: key.into(),
                        known: format!("--{}", known.join(" --")),
                    },
                    None => ScenarioError::Unexpected(tok),
                });
            };
            let value = (!has(FLAGS, key))
                .then(|| argv.next_if(|v| !v.starts_with("--")))
                .map(|v| v.ok_or_else(|| ScenarioError::MissingValue(key.into())))
                .transpose()?;
            if has(KNOBS, key) {
                knob_text += &format!(" {tok} {}", value.as_deref().unwrap_or_default());
            }
            given.0.push((key.to_string(), value));
        }

        let app = match app.as_deref() {
            Some("heat") => {
                let ranks = given.get("ranks", dims)?.unwrap_or([2, 2, 2]);
                let iterations = given.get("iters", num)?.unwrap_or(100);
                let ckpt_interval = given.get("ckpt", num)?.unwrap_or((iterations / 4).max(1));
                let global = match given.get("global", dims)? {
                    Some(global) => global,
                    None => {
                        let [x, y, z] = ranks.map(|r| r.checked_mul(8));
                        let eight = x.zip(y).zip(z).map(|((x, y), z)| [x, y, z]);
                        eight.ok_or_else(|| {
                            ScenarioError::InvalidHeat("8 points per rank overflow usize".into())
                        })?
                    }
                };
                let cfg = HeatConfig {
                    global,
                    ranks,
                    iterations,
                    halo_interval: given.get("halo", num)?.unwrap_or(ckpt_interval),
                    ckpt_interval,
                    mode: ComputeMode::Modeled,
                    ckpt_mode: CkptMode::Full,
                    per_point: SimTime::from_nanos(1280),
                    prefix: "heat".into(),
                };
                cfg.validate().map_err(ScenarioError::InvalidHeat)?;
                App::Heat(cfg)
            }
            Some(_) => App::Ring {
                ranks: given.get("ranks", num)?.unwrap_or(64),
                laps: given.get("laps", num)?.unwrap_or(3),
                payload: given.get("payload", num)?.unwrap_or(1024),
            },
            None => App::None,
        };

        let mut faults: FaultSchedule = given.get("failures", num)?.unwrap_or_default();
        if known.contains(&"failures") {
            for name in ["XSIM_FAILURES", "XSIM_NET_FAULTS"] {
                let more: Option<FaultSchedule> = env_value(&env, name)?;
                for f in more.iter().flat_map(FaultSchedule::entries) {
                    faults.push(f.component, f.kind, f.at);
                }
            }
        }
        let protection = match given.get("protection", num)? {
            None if known.contains(&"protection") => env_value(&env, "XSIM_PROTECTION")?,
            p => p,
        };
        let defaults = Scenario::default();
        let scenario = Scenario {
            app,
            workers: given.get("workers", count)?.unwrap_or(defaults.workers),
            seed: given.get("seed", num)?.unwrap_or(defaults.seed),
            faults,
            protection,
        };

        Ok(Cli {
            scenario,
            quick: given.flag("quick"),
            mpi: given.flag("mpi"),
            power: given.flag("power"),
            ops: given.get("ops", count)?,
            rounds: given.get("rounds", num)?,
            max_vps: given.get("max-vps", num)?,
            fit: given.get("fit", rate)?,
            mttf: given.get("mttf", rate)?,
            slowdown: given.get("slowdown", factor)?,
            per_point_ns: given.get("per-point-ns", num)?,
            profile: given.get("profile", num)?,
            knob_text,
        })
    }

    /// [`parse`](Self::parse) for a binary's `main`, given the process
    /// arguments with the program name first: print the `scenario:`
    /// line that replays the run as the first line of stdout, or print
    /// the error and exit with status 2.
    pub fn from_main(
        argv: impl Iterator<Item = String>,
        keys: &str,
        env: impl Fn(&str) -> Option<String>,
    ) -> Cli {
        let cli = Cli::parse(argv.skip(1), keys, env).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        });
        println!("scenario: {cli}");
        cli
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dims = |d: [usize; 3]| format!("{}x{}x{}", d[0], d[1], d[2]);
        let mut words = match &self.app {
            App::None => vec![],
            App::Heat(c) => vec![format!(
                "heat --ranks {} --global {} --iters {} --ckpt {} --halo {}",
                dims(c.ranks),
                dims(c.global),
                c.iterations,
                c.ckpt_interval,
                c.halo_interval
            )],
            App::Ring {
                ranks,
                laps,
                payload,
            } => vec![format!(
                "ring --ranks {ranks} --laps {laps} --payload {payload}"
            )],
        };
        let defaults = Scenario::default();
        if self.workers != defaults.workers {
            words.push(format!("--workers {}", self.workers));
        }
        if self.seed != defaults.seed {
            words.push(format!("--seed {}", self.seed));
        }
        if !self.faults.is_empty() {
            words.push(format!("--failures {}", self.faults));
        }
        if let Some(p) = &self.protection {
            words.push(format!("--protection {p}"));
        }
        f.write_str(&words.join(" "))
    }
}

impl FromStr for Scenario {
    type Err = ScenarioError;

    /// Read the text form back: any subcommand and key of `ALL_KEYS`,
    /// no environment.
    fn from_str(s: &str) -> Result<Self, ScenarioError> {
        Ok(Cli::parse(s.split_whitespace(), ALL_KEYS, |_| None)?.scenario)
    }
}

impl fmt::Display for Cli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = format!("{} {}", self.scenario, self.knob_text);
        f.write_str(&text.split_whitespace().collect::<Vec<_>>().join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};
    use xsim_core::rng::{for_each_case, DetRng};
    use xsim_fault::{FaultComponent, FaultKind};

    fn parse(argv: &[&str], keys: &str) -> Result<Cli, ScenarioError> {
        Cli::parse(argv.iter().copied(), keys, |_| None)
    }

    const HEAT: &str = "heat ranks global iters ckpt halo failures";
    const RING: &str = "ring ranks laps payload workers failures";

    #[test]
    fn malformed_command_lines_are_typed_errors() {
        // `campaign table1` reads only --seed.
        assert!(matches!(
            parse(&["--workers", "abc"], "seed"),
            Err(ScenarioError::UnknownKey { key, known }) if key == "workers" && known == "--seed"
        ));
        assert!(matches!(
            parse(&["--workers", "abc"], "workers"),
            Err(ScenarioError::BadValue { key, .. }) if key == "--workers"
        ));
        assert!(matches!(
            parse(&["--workers", "0"], "workers"),
            Err(ScenarioError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&["--rounds", "x"], "quick workers rounds max-vps"),
            Err(ScenarioError::BadValue { key, .. }) if key == "--rounds"
        ));
        assert_eq!(
            parse(&["--ops"], "quick ops").unwrap_err(),
            ScenarioError::MissingValue("ops".into())
        );
        assert_eq!(
            parse(&["--ops", "--quick"], "quick ops").unwrap_err(),
            ScenarioError::MissingValue("ops".into())
        );
        // Zero operations time nothing; a zero slowdown is no machine.
        assert!(matches!(
            parse(&["--quick", "--ops", "0"], "quick ops"),
            Err(ScenarioError::BadValue { key, .. }) if key == "--ops"
        ));
        for bad in ["0", "-1", "inf", "NaN"] {
            assert!(
                matches!(
                    parse(&["heat", "--slowdown", bad], "heat slowdown"),
                    Err(ScenarioError::BadValue { key, .. }) if key == "--slowdown"
                ),
                "--slowdown {bad}"
            );
        }
        for bad in [["--ranks", "2x2"], ["--global", "64x64"]] {
            let argv = ["heat", bad[0], bad[1]];
            assert!(
                matches!(parse(&argv, HEAT), Err(ScenarioError::BadValue { .. })),
                "{bad:?}"
            );
        }
        for argv in [
            &["heat", "--ranks", "3x3x3", "--global", "8x8x8"][..],
            // The default global extent (8 points per rank) overflows.
            &["heat", "--ranks", "4611686018427387904x1x1"],
            // So does the rank count, with a global extent that divides.
            &[
                "heat",
                "--ranks",
                "4294967296x4294967296x1",
                "--global",
                "4294967296x4294967296x1",
            ],
        ] {
            assert!(
                matches!(parse(argv, HEAT), Err(ScenarioError::InvalidHeat(_))),
                "{argv:?}"
            );
        }
        assert_eq!(
            parse(&["ring", "--ranks", "8", "--lapz", "5"], RING).unwrap_err(),
            ScenarioError::UnknownKey {
                key: "lapz".into(),
                known: "--ranks --laps --payload --workers --failures".into()
            }
        );
        // A ring does not take heat keys, nor a harness a subcommand.
        assert!(parse(&["ring", "--global", "8x8x8"], ALL_KEYS).is_err());
        assert!(parse(&["heat"], "seed").is_err());
        assert!(parse(&["--fit", "-1"], "fit").is_err());
        assert!(parse(&["--fit", "1e9", "--protection", "replication"], "seed").is_err());
        assert!(parse(&["stray"], ALL_KEYS).is_err());
    }

    #[test]
    fn heat_keys_default_from_each_other() {
        let cli = parse(&["heat", "--ranks", "1x2x3", "--iters", "8"], HEAT).unwrap();
        let App::Heat(cfg) = cli.scenario.app else {
            panic!("heat app")
        };
        assert_eq!(cfg.global, [8, 16, 24]);
        assert_eq!((cfg.ckpt_interval, cfg.halo_interval), (2, 2));
    }

    #[test]
    fn environment_merges_after_flags_only_for_keys_the_binary_reads() {
        let env = |k: &str| match k {
            "XSIM_FAILURES" => Some("2:0.5".to_string()),
            "XSIM_NET_FAULTS" => Some("rank:5:1.5,link:0:+x:0".to_string()),
            "XSIM_PROTECTION" => Some("replication:3".to_string()),
            _ => None,
        };
        let keys = "failures protection";
        let cli = Cli::parse(["--failures", "1:0.25"], keys, env).unwrap();
        let ranks: Vec<usize> = cli
            .scenario
            .faults
            .rank_failures()
            .iter()
            .map(|f| f.0)
            .collect();
        assert_eq!(
            ranks,
            [1, 2, 5],
            "--failures, XSIM_FAILURES, XSIM_NET_FAULTS"
        );
        assert_eq!(cli.scenario.faults.net_faults().len(), 1);
        assert_eq!(
            cli.scenario.protection,
            Some(ProtectionScheme::Replication { degree: 3 })
        );
        let cli = Cli::parse(["--protection", "cr"], keys, env).unwrap();
        assert_eq!(cli.scenario.protection.unwrap().to_string(), "cr");
        let cli = Cli::parse(["--seed", "3"], "seed", env).unwrap();
        assert_eq!(
            cli.scenario,
            Scenario {
                seed: 3,
                ..Scenario::default()
            }
        );
        let bogus = |_: &str| Some("bogus".to_string());
        assert!(matches!(
            Cli::parse(Vec::<String>::new(), keys, bogus),
            Err(ScenarioError::BadValue { key, .. }) if key == "XSIM_FAILURES"
        ));
    }

    #[test]
    fn knobs_are_typed_and_echoed() {
        let argv = [
            "--quick",
            "--seed",
            "5",
            "--profile",
            "p.json",
            "--fit",
            "1e9",
        ];
        let cli = parse(&argv, "quick seed profile fit").unwrap();
        assert!(cli.quick);
        assert_eq!(cli.fit, Some(1e9));
        assert_eq!(cli.profile.as_deref(), Some("p.json"));
        assert_eq!(
            cli.to_string(),
            "--seed 5 --quick --profile p.json --fit 1e9"
        );
    }

    /// A time up to ~3 simulated days, half the draws under 2 ms where a
    /// truncating parse loses a nanosecond on ~2 % of values.
    fn arb_time(g: &mut DetRng) -> SimTime {
        SimTime(match g.gen_bool() {
            true => g.gen_in(0..2_000_001),
            false => g.gen_range_u64(1 << 48),
        })
    }

    fn arb_scenario(g: &mut DetRng) -> Scenario {
        let app = match g.gen_index(3) {
            0 => App::None,
            1 => {
                let Ok(Scenario {
                    app: App::Heat(mut cfg),
                    ..
                }) = "heat".parse::<Scenario>()
                else {
                    unreachable!("heat parses")
                };
                cfg.ranks = [0; 3].map(|_| 1 + g.gen_index(8));
                cfg.global = cfg.ranks.map(|r| r * (1 + g.gen_index(16)));
                cfg.iterations = g.gen_in(1..10_000);
                cfg.ckpt_interval = g.gen_in(1..500);
                cfg.halo_interval = g.gen_in(1..500);
                App::Heat(cfg)
            }
            _ => App::Ring {
                ranks: 1 + g.gen_index(1 << 20),
                laps: g.next_u64() as u32,
                payload: g.gen_index(1 << 30),
            },
        };
        let mut faults = FaultSchedule::new();
        for _ in 0..g.gen_index(6) {
            let at = arb_time(g);
            let kind = match g.gen_index(3) {
                0 => FaultKind::Permanent,
                1 => FaultKind::Transient {
                    down_for: arb_time(g),
                },
                _ => FaultKind::Degraded {
                    factor: 1.0 - g.gen_f64(),
                },
            };
            let node = g.gen_index(1 << 16);
            match g.gen_index(3) {
                0 => faults.push(FaultComponent::Rank(node), FaultKind::Permanent, at),
                1 => faults.push(
                    FaultComponent::Link {
                        node,
                        dir: g.gen_index(6),
                    },
                    kind,
                    at,
                ),
                _ => faults.push(FaultComponent::Switch(node), kind, at),
            }
        }
        let degree = 2 + g.gen_index(3);
        let protection = match g.gen_index(5) {
            0 => None,
            1 => Some(ProtectionScheme::None),
            2 => Some(ProtectionScheme::CheckpointRestart {
                mode: match g.gen_index(4) {
                    0 => CkptMode::Full,
                    1 => CkptMode::Aggregated {
                        group: 2 + g.gen_index(64),
                    },
                    2 => CkptMode::Buddy,
                    _ => CkptMode::Incremental {
                        full_every: g.gen_in(1..64),
                    },
                },
            }),
            3 => Some(ProtectionScheme::Replication { degree }),
            _ => Some(ProtectionScheme::Partial {
                degree,
                critical: (0..1 + g.gen_index(8)).map(|_| g.gen_index(4096)).collect(),
            }),
        };
        Scenario {
            app,
            workers: 1 + g.gen_index(8),
            seed: g.next_u64(),
            faults,
            protection,
        }
    }

    /// The text form round-trips every generated scenario exactly —
    /// fault times to the nanosecond — and the draws cover every fault
    /// kind on every component, every protection scheme and checkpoint
    /// mode, and both apps.
    #[test]
    fn text_form_round_trips_generated_scenarios() {
        let mut seen = HashSet::new();
        for_each_case(0x5CE7_A210, 512, |g| {
            let s = arb_scenario(g);
            let text = s.to_string();
            assert_eq!(text.parse::<Scenario>(), Ok(s.clone()), "{text}");
            seen.insert(match &s.app {
                App::None => "app:none".to_string(),
                App::Heat(_) => "app:heat".into(),
                App::Ring { .. } => "app:ring".into(),
            });
            for f in s.faults.entries() {
                let component = match f.component {
                    FaultComponent::Rank(_) => "rank",
                    FaultComponent::Link { .. } => "link",
                    FaultComponent::Switch(_) => "switch",
                };
                let kind = match f.kind {
                    FaultKind::Permanent => "perm",
                    FaultKind::Transient { .. } => "down",
                    FaultKind::Degraded { .. } => "degraded",
                };
                seen.insert(format!("{component}:{kind}"));
            }
            let head = |text: String| text.split(':').next().unwrap_or("").to_string();
            seen.insert(match &s.protection {
                None => "no scheme".into(),
                Some(ProtectionScheme::CheckpointRestart { mode }) => {
                    format!("cr:{}", head(mode.to_string()))
                }
                Some(p) => head(p.to_string()),
            });
        });
        let want: BTreeSet<&str> = [
            "app:none",
            "app:heat",
            "app:ring",
            "rank:perm",
            "link:perm",
            "link:down",
            "link:degraded",
            "switch:perm",
            "switch:down",
            "switch:degraded",
            "no scheme",
            "none",
            "cr:full",
            "cr:agg",
            "cr:buddy",
            "cr:incr",
            "replication",
            "partial",
        ]
        .into();
        let missing: Vec<&&str> = want.iter().filter(|w| !seen.contains(**w)).collect();
        assert!(missing.is_empty(), "draws never covered {missing:?}");
    }
}
