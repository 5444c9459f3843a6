//! One build, one truth: the dependency graph holds first-party crates
//! only, so online, offline, CI and `perf/` all compile the same program.

#[test]
fn cargo_lock_lists_only_xsim_packages() {
    let lock = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.lock"))
        .expect("Cargo.lock is committed next to the root manifest");
    let names: Vec<&str> = lock
        .lines()
        .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
        .collect();
    assert!(names.contains(&"xsim-core"), "unexpected lock file format");
    let foreign: Vec<&&str> = names.iter().filter(|n| !n.starts_with("xsim")).collect();
    assert!(
        foreign.is_empty(),
        "external packages in Cargo.lock: {foreign:?}"
    );
}
