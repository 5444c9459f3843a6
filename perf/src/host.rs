//! What the host looks like: process memory and CPU time, and the
//! manifest stamped into every output.

use std::process::Command;

fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), KiB; 0 if
/// unreadable.
pub fn peak_rss_kib() -> u64 {
    proc_status_kib("VmHWM:")
}

/// User + system CPU seconds this process (all threads, dead ones
/// included) has used, from `/proc/self/stat` at the kernel's 100 Hz
/// tick.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// The manifest: enough to say which program on which host the numbers
/// describe. `key → value` pairs, all strings.
pub fn manifest(seed: u64, reps: usize) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    // The root manifest decides which `bytes`/`parking_lot`/`rand` the
    // simulator is built against; PR 10's inline `Bytes` lives in the
    // stubs, so the numbers must say which program they describe.
    let stub_deps = std::fs::read_to_string("Cargo.toml")
        .map(|m| m.contains("devtools/stubs").to_string())
        .unwrap_or_else(|_| unknown());
    vec![
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        ),
        ("seed", seed.to_string()),
        ("reps", reps.to_string()),
        ("nproc", nproc().to_string()),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        ),
        (
            "mem_available",
            proc_field("/proc/meminfo", "MemAvailable").unwrap_or_else(unknown),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        ("stub_deps", stub_deps),
    ]
}

/// The manifest as a JSON object.
pub fn manifest_json(manifest: &[(&str, String)]) -> String {
    let fields: Vec<String> = manifest
        .iter()
        .map(|(k, v)| {
            let mut escaped = String::new();
            xsim_obs::json::escape(v, &mut escaped);
            format!("\"{k}\":\"{escaped}\"")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}
