//! `perf` — the end-to-end + per-layer benchmark of xsim-rs.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one measured run (the BENCHMARK.json contract)
//! perf suite [--seed N] [--reps N] [--seconds S] [--only W] [--out F] [--bless]
//! perf compare A.json B.json
//! perf metrics                                          the metric catalogue
//! ```
//!
//! See `README.md` for the metric and workload glossary.

mod compare;
mod golden;
mod host;
mod layers;
mod metrics;
mod stats;
mod tracer;
mod workloads;

use golden::{Checks, Stats, GOLDEN_PATH, GOLDEN_SEED};
use metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use tracer::Tracer;
use workloads::{
    Allreduce, AllreducePar2, CkptModes, ProtectionMix, RawCore, Storm, Table2, Workload, NAMES,
};
use xsim_obs::{ChromeTraceWriter, Json};

/// Set-up cycles per run: at least this many…
const SETUP_MIN_CYCLES: usize = 5;
/// …in slices of this length between two bodies (one cycle of the
/// expensive set-ups, thousands of the microsecond-scale ones), so that
/// the set-up sample spans the whole run like the body sample does.
const SETUP_SLICE: Duration = Duration::from_millis(100);

/// Default length of one measured run; `run_seconds` in BENCHMARK.json.
const RUN_SECONDS: f64 = 12.0;

/// Where the traced pass leaves its spans.
const OUT_DIR: &str = "perf/out";

/// Call `$f::<W>($args)` for the workload type named `$name`.
macro_rules! dispatch {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            n if n == Table2::NAME => Some($f::<Table2>($($arg),*)),
            n if n == Allreduce::NAME => Some($f::<Allreduce>($($arg),*)),
            n if n == AllreducePar2::NAME => Some($f::<AllreducePar2>($($arg),*)),
            n if n == Storm::NAME => Some($f::<Storm>($($arg),*)),
            n if n == RawCore::NAME => Some($f::<RawCore>($($arg),*)),
            n if n == ProtectionMix::NAME => Some($f::<ProtectionMix>($($arg),*)),
            n if n == CkptModes::NAME => Some($f::<CkptModes>($($arg),*)),
            _ => None,
        }
    };
}

/// Result of one measured run: the checks and every metric of the pass.
struct Measured {
    checks: Checks,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn golden_stats(workload: &str, seed: u64) -> Option<Stats> {
    if seed != GOLDEN_SEED {
        return None;
    }
    let doc = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| fail(&format!("{GOLDEN_PATH}: {e}")));
    let mut all = golden::parse(&doc).unwrap_or_else(|e| fail(&format!("{GOLDEN_PATH}: {e}")));
    Some(all.remove(workload).unwrap_or_default())
}

/// The end-to-end pass: tracing off, body and set-up alternating for
/// `seconds`, the fastest of each reported.
///
/// Fastest, not median: interference from the host only ever adds time,
/// in phases that outlast several bodies, so the minimum of a run is the
/// steadiest estimate of what the code costs (README.md, "Observed noise
/// floors", has the numbers). The median and maximum go to stderr.
fn run_untraced<W: Workload>(seed: u64, seconds: f64) -> Measured {
    let w = W::prepare();
    let mut tr = Tracer::disabled();
    let mut checks = Checks::default();
    let golden = golden_stats(W::NAME, seed);

    // An unmeasured first set-up warms caches and the allocator.
    let mut inputs = w.setup(seed, &mut tr);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut first: Option<Stats> = None;
    while started.elapsed().as_secs_f64() < seconds || setups.len() < SETUP_MIN_CYCLES {
        let t = Instant::now();
        let outcome = w.body(&inputs, false);
        walls.push(t.elapsed().as_secs_f64());
        let outcome = outcome.verified();
        checks.invariants(&outcome);
        match &first {
            None => {
                if let Some(golden) = &golden {
                    checks.golden(golden, &outcome.stats);
                }
                first = Some(outcome.stats);
            }
            Some(first) => checks.determinism(first, &outcome.stats),
        }

        let slice = Instant::now();
        while slice.elapsed() < SETUP_SLICE {
            let t = Instant::now();
            inputs = w.setup(seed, &mut tr);
            setups.push(t.elapsed().as_secs_f64());
        }
    }

    let (body, setup) = (stats::summarize(&walls), stats::summarize(&setups));
    eprintln!(
        "perf: {}: {} bodies (min {:.4} s, median {:.4} s, max {:.4} s), \
         {} set-up cycles (min {:.6} s, median {:.6} s)",
        W::NAME,
        walls.len(),
        body.min,
        body.median,
        body.max,
        setups.len(),
        setup.min,
        setup.median,
    );
    Measured {
        checks,
        metrics: vec![("wall_s", body.min, "s"), ("setup_s", setup.min, "s")],
    }
}

/// Memory of one artefact: a fresh process that prepares, sets up once
/// and runs the body once, then reports its own `VmHWM`. Kept apart from
/// the timing process, whose high-water mark depends on how many set-up
/// cycles and repetitions happened to fit.
fn rss_probe<W: Workload>(seed: u64) -> u64 {
    let w = W::prepare();
    let inputs = w.setup(seed, &mut Tracer::disabled());
    std::hint::black_box(w.body(&inputs, false));
    host::peak_rss_kib()
}

/// The traced pass: one untraced and one traced body, the layer
/// drivers, spans around all of it. Fixed work, so `--seconds` does not
/// apply.
fn run_traced<W: Workload>(seed: u64) -> Measured {
    let mut tr = Tracer::new(W::NAME);
    let mut checks = Checks::default();
    let root = tr.enter(W::NAME);

    // Footprint probes first: VmHWM only ever rises.
    let span = tr.enter("drivers");
    let foot = layers::footprint(W::RANKS, W::MPI, &mut tr);
    tr.exit(span);

    let w = W::prepare();
    let span = tr.enter("setup");
    let inputs = w.setup(seed, &mut tr);
    tr.exit(span);

    let span = tr.enter("body");
    // The first body of a process pays for faulting its memory in; the
    // overhead ratio needs two warm ones.
    let t = Instant::now();
    std::hint::black_box(w.body(&inputs, false));
    tr.complete("warm-up", t, Instant::now(), Vec::new());
    let t = Instant::now();
    let plain = w.body(&inputs, false);
    let untraced_s = t.elapsed().as_secs_f64();
    tr.complete("untraced", t, Instant::now(), Vec::new());
    let plain = plain.verified();
    let cpu = host::cpu_seconds();
    let t = Instant::now();
    let outcome = w.body(&inputs, true);
    let times = layers::BodyTimes {
        untraced_s,
        traced_s: t.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu,
    };
    let outcome = outcome.verified();
    for (i, (start, wall, events)) in outcome.runs.iter().enumerate() {
        tr.complete(
            &format!("run[{i}]"),
            *start,
            *start + *wall,
            vec![("events", *events)],
        );
    }
    tr.exit(span);

    checks.invariants(&plain);
    checks.invariants(&outcome);
    checks.determinism(&plain.stats, &outcome.stats);
    if let Some(golden) = golden_stats(W::NAME, seed) {
        checks.golden(&golden, &outcome.stats);
    }

    let span = tr.enter("drivers");
    let profile = w.profile(&inputs);
    let mut values = layers::measure(&profile, seed, &outcome, &times, &foot, &mut tr);
    values.extend(w.traced_extras(&inputs, untraced_s));
    tr.exit(span);
    tr.exit(root);

    if let Err(e) = write_trace(&tr) {
        fail(&format!("{OUT_DIR}: {e}"));
    }
    Measured {
        checks,
        metrics: PER_LAYER
            .iter()
            .map(|p| (p.name, values.get(p.name).copied().unwrap_or(0.0), p.unit))
            .collect(),
    }
}

fn trace_path(workload: &str) -> String {
    format!("{OUT_DIR}/trace-{workload}.json")
}

fn write_trace(tr: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let file = std::io::BufWriter::new(std::fs::File::create(trace_path(&tr.workload))?);
    let mut out = ChromeTraceWriter::new(file)?;
    tr.write_chrome(&mut out, 1)?;
    out.finish()?;
    Ok(())
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The contract's result line.
fn result_line(m: &Measured) -> String {
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.checks.failures.is_empty(),
        m.checks.attempted,
        m.checks.failures.len(),
        metrics.join(",")
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("perf: {msg}");
    std::process::exit(2);
}

/// `--flag value` pairs after the subcommand.
fn flags(args: &[String], known: &[&str], switches: &[&str]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if switches.contains(&arg.as_str()) {
            out.insert(arg.clone(), String::new());
        } else if known.contains(&arg.as_str()) {
            let value = it
                .next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value")));
            out.insert(arg.clone(), value.clone());
        } else {
            fail(&format!(
                "unknown argument {arg}; known: {}",
                [known, switches].concat().join(" ")
            ));
        }
    }
    out
}

fn parsed<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("{key}: cannot parse {v:?}"))),
    }
}

/// One measured run, printed as the contract's last line.
fn cmd_run(args: &[String]) -> ExitCode {
    let f = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--rss-probe"],
    );
    let workload = f
        .get("--workload")
        .unwrap_or_else(|| fail("--workload is required"));
    if !NAMES.contains(&workload.as_str()) {
        fail(&format!(
            "unknown workload {workload}; known: {}",
            NAMES.join(" ")
        ));
    }
    let seed: u64 = parsed(&f, "--seed", GOLDEN_SEED);
    let seconds: f64 = parsed(&f, "--seconds", RUN_SECONDS);
    if f.contains_key("--rss-probe") {
        // Internal: the child half of `peak_rss_mib`.
        println!(
            "{}",
            dispatch!(workload.as_str(), rss_probe(seed)).expect("known workload")
        );
        return ExitCode::SUCCESS;
    }
    let measured = match parsed::<u8>(&f, "--trace", 0) {
        0 => dispatch!(workload.as_str(), run_untraced(seed, seconds)).map(|mut m| {
            let out = spawn_self(&[
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--rss-probe",
            ]);
            let kib: u64 = out
                .trim()
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad rss probe output {out:?}")));
            m.metrics.push(("peak_rss_mib", kib as f64 / 1024.0, "MiB"));
            m
        }),
        1 => dispatch!(workload.as_str(), run_traced(seed)),
        other => fail(&format!("--trace is 0 or 1, not {other}")),
    }
    .expect("known workload");
    for failure in &measured.checks.failures {
        eprintln!("perf: check failed: {workload}: {failure}");
    }
    println!("{}", result_line(&measured));
    ExitCode::SUCCESS
}

/// Statistics of one in-process traced body, for `--bless`.
fn bless_one<W: Workload>() -> Stats {
    let w = W::prepare();
    let inputs = w.setup(GOLDEN_SEED, &mut Tracer::disabled());
    let outcome = w.body(&inputs, true).verified();
    if let Some(v) = outcome.violations.first() {
        fail(&format!(
            "{}: cannot bless a failing workload: {v}",
            W::NAME
        ));
    }
    outcome.stats
}

/// Run this binary again with `args`, wait for it, return its stdout.
fn spawn_self(args: &[&str]) -> String {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .unwrap_or_else(|e| fail(&format!("spawn: {e}")));
    if !out.status.success() {
        fail(&format!("child {args:?} exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// One measured child run; returns its parsed result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Json {
    let stdout = spawn_self(&[
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).unwrap_or_else(|e| fail(&format!("{workload}: bad result line: {e}")))
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("result line lacks {name}")))
}

/// Merge the per-workload span files into one Chrome trace, one process
/// per workload, the manifest as process 0.
fn merge_traces(workloads: &[&str], manifest: &[(&str, String)]) -> std::io::Result<()> {
    let file = std::io::BufWriter::new(std::fs::File::create(format!("{OUT_DIR}/trace.json"))?);
    let mut out = ChromeTraceWriter::new(file)?;
    let stamp: Vec<String> = manifest.iter().map(|(k, v)| format!("{k}={v}")).collect();
    out.process_name(0, &format!("manifest: {}", stamp.join(" ")))?;
    for (i, workload) in workloads.iter().enumerate() {
        let pid = i as u32 + 1;
        out.process_name(pid, workload)?;
        let doc = std::fs::read_to_string(trace_path(workload))?;
        let json = Json::parse(&doc).map_err(std::io::Error::other)?;
        let events = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for e in events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        {
            let field = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let args: Vec<(&str, u64)> = match e.get("args") {
                Some(Json::Obj(m)) => m
                    .iter()
                    .filter_map(|(k, v)| Some((k.as_str(), v.as_u64()?)))
                    .collect(),
                _ => Vec::new(),
            };
            let start_ns = (field("ts") * 1e3).round() as u64;
            out.complete(
                e.get("name").and_then(Json::as_str).unwrap_or(""),
                workload,
                pid,
                field("tid") as u32,
                start_ns,
                start_ns + (field("dur") * 1e3).round() as u64,
                &args,
            )?;
        }
    }
    out.finish()?;
    Ok(())
}

/// The whole benchmark: untraced repetitions and a traced pass per
/// workload, every metric printed, results and the merged trace
/// written.
fn cmd_suite(args: &[String]) -> ExitCode {
    let f = flags(
        args,
        &["--seed", "--reps", "--seconds", "--only", "--out"],
        &["--bless"],
    );
    let seed: u64 = parsed(&f, "--seed", GOLDEN_SEED);
    let reps: usize = parsed(&f, "--reps", 3);
    let seconds: f64 = parsed(&f, "--seconds", RUN_SECONDS);
    let out_path = f.get("--out").map_or("perf/results.json", String::as_str);
    let selected: Vec<&str> = match f.get("--only") {
        None => NAMES.to_vec(),
        Some(only) => vec![*NAMES
            .iter()
            .find(|n| *n == only)
            .unwrap_or_else(|| fail(&format!("unknown workload {only}")))],
    };
    if reps == 0 {
        fail("--reps must be at least 1");
    }
    let manifest = host::manifest(seed, reps);

    if f.contains_key("--bless") {
        if seed != GOLDEN_SEED || selected.len() != NAMES.len() {
            fail("--bless regenerates every workload at the golden seed; drop --seed/--only");
        }
        let mut all = BTreeMap::new();
        for name in NAMES {
            eprintln!("perf: blessing {name}");
            all.insert(
                name.to_string(),
                dispatch!(name, bless_one()).expect("known name"),
            );
        }
        std::fs::write(GOLDEN_PATH, golden::render(&manifest, &all))
            .unwrap_or_else(|e| fail(&format!("{GOLDEN_PATH}: {e}")));
    }

    let mut failed_checks = 0u64;
    let mut sections = Vec::new();
    for workload in &selected {
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut tally = |r: &Json| {
            attempted += r.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += r.get("failed").and_then(Json::as_u64).unwrap_or(0);
        };
        let runs: Vec<Json> = (0..reps)
            .map(|_| child(workload, seed, seconds, false))
            .collect();
        runs.iter().for_each(&mut tally);
        let mut e2e = Vec::new();
        for metric in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| metric_value(r, metric.name)).collect();
            let s = stats::summarize(&values);
            println!(
                "{} {} {} [{workload}] (min {} max {} over {reps} reps)",
                metric.name,
                num(s.median),
                metric.unit,
                num(s.min),
                num(s.max)
            );
            let values: Vec<String> = values.iter().map(|v| num(*v)).collect();
            e2e.push(format!(
                "\"{}\":{{\"unit\":\"{}\",\"median\":{},\"min\":{},\"max\":{},\"values\":[{}]}}",
                metric.name,
                metric.unit,
                num(s.median),
                num(s.min),
                num(s.max),
                values.join(",")
            ));
        }
        let traced = child(workload, seed, seconds, true);
        tally(&traced);
        let mut layers = Vec::new();
        for p in &PER_LAYER {
            // A parallel-efficiency figure from a 1-CPU host is noise.
            if p.name == "core.engine.par_efficiency" && host::nproc() < 2 {
                continue;
            }
            let value = metric_value(&traced, p.name);
            println!("{} {} {} [{workload}]", p.name, num(value), p.unit);
            layers.push(format!(
                "\"{}\":{{\"unit\":\"{}\",\"value\":{}}}",
                p.name,
                p.unit,
                num(value)
            ));
        }
        println!("checks_failed {failed} count [{workload}] (of {attempted})");
        failed_checks += failed;
        sections.push(format!(
            "\"{workload}\":{{\"checks\":{{\"attempted\":{attempted},\"failed\":{failed}}},\
             \"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
            e2e.join(","),
            layers.join(",")
        ));
    }

    let doc = format!(
        "{{\"schema\":\"xsim-perf-results-v1\",\"manifest\":{},\"workloads\":{{\n{}\n}}}}\n",
        host::manifest_json(&manifest),
        sections.join(",\n")
    );
    std::fs::write(out_path, doc).unwrap_or_else(|e| fail(&format!("{out_path}: {e}")));
    merge_traces(&selected, &manifest).unwrap_or_else(|e| fail(&format!("{OUT_DIR}: {e}")));
    eprintln!("perf: wrote {out_path} and {OUT_DIR}/trace.json");
    if failed_checks > 0 {
        eprintln!("perf: {failed_checks} check(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        fail("usage: perf compare A.json B.json");
    };
    let load = |path: &String| {
        let doc = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        Json::parse(&doc).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
    };
    match compare::compare(&load(a), &load(b)) {
        Ok((lines, bad)) => {
            lines.iter().for_each(|l| println!("{l}"));
            if bad {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail(&e),
    }
}

/// The metric catalogue, one line per metric: what `BENCHMARK.json`
/// declares plus how each value is obtained and what it should move.
fn cmd_metrics() -> ExitCode {
    for e in &END_TO_END {
        println!("{} {} lower bound={}", e.name, e.unit, e.bound);
    }
    for p in &PER_LAYER {
        let better = if p.higher { "higher" } else { "lower" };
        println!("{} {} {better} {:?} -> {}", p.name, p.unit, p.kind, p.moves);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("suite") => cmd_suite(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("metrics") => cmd_metrics(),
        Some(flag) if flag.starts_with("--") => cmd_run(&args),
        _ => fail("usage: perf --workload W --seed N --seconds S --trace 0|1 | suite … | compare A B | metrics"),
    }
}
