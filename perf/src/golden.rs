//! The correctness gate: simulated statistics against `golden.json`,
//! seed-independent invariants, and rep-to-rep determinism.
//!
//! A change meant only to speed the simulator up must leave every
//! simulated statistic identical; each statistic is one unit of
//! `attempted`, each difference one unit of `failed`.

use crate::workloads::Outcome;
use std::collections::BTreeMap;
use xsim_obs::Json;

/// The seed `golden.json` was blessed at; other seeds are checked
/// against the invariants and against themselves only.
pub const GOLDEN_SEED: u64 = 17;

/// Where the golden statistics live, relative to the checkout root.
pub const GOLDEN_PATH: &str = "perf/golden.json";

/// Simulated statistics of one workload, by name.
pub type Stats = BTreeMap<String, u64>;

/// Tally of checks made in one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Fold in a body's invariants.
    pub fn invariants(&mut self, outcome: &Outcome) {
        self.attempted += outcome.invariants;
        self.failures.extend(outcome.violations.iter().cloned());
    }

    /// A repetition must reproduce every statistic of the first one
    /// (a traced repetition may add statistics of its own).
    pub fn determinism(&mut self, first: &Stats, again: &Stats) {
        let same = first.iter().all(|(k, v)| again.get(k) == Some(v));
        self.check(same, || {
            format!("repetition diverged: {}", first_difference(first, again))
        });
    }

    /// Every statistic the body produced must equal its golden value.
    /// Statistics only the traced pass produces are absent from an
    /// untraced outcome and simply not compared there.
    pub fn golden(&mut self, golden: &Stats, stats: &Stats) {
        for (key, value) in stats {
            self.check(golden.get(key) == Some(value), || {
                format!("{key}: {value}, golden {:?}", golden.get(key))
            });
        }
    }
}

fn first_difference(a: &Stats, b: &Stats) -> String {
    a.keys()
        .find(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)))
        .unwrap_or_default()
}

/// Parse a golden document into `workload → statistics`.
pub fn parse(doc: &str) -> Result<BTreeMap<String, Stats>, String> {
    let json = Json::parse(doc)?;
    let Some(Json::Obj(workloads)) = json.get("workloads") else {
        return Err("no \"workloads\" object".into());
    };
    let mut out = BTreeMap::new();
    for (name, stats) in workloads {
        let Json::Obj(stats) = stats else {
            return Err(format!("{name}: not an object"));
        };
        let mut parsed = Stats::new();
        for (key, value) in stats {
            let value = value
                .as_u64()
                .ok_or_else(|| format!("{name}.{key}: not a whole number"))?;
            parsed.insert(key.clone(), value);
        }
        out.insert(name.clone(), parsed);
    }
    Ok(out)
}

/// Render a golden document. Values pass through the JSON parser's
/// `f64`, so they must stay below 2⁵³.
pub fn render(manifest: &[(&str, String)], workloads: &BTreeMap<String, Stats>) -> String {
    let mut out = format!(
        "{{\n  \"manifest\": {},\n  \"workloads\": {{",
        crate::host::manifest_json(manifest)
    );
    for (i, (name, stats)) in workloads.iter().enumerate() {
        out += &format!("{}\n    \"{name}\": {{", if i > 0 { "," } else { "" });
        for (j, (key, value)) in stats.iter().enumerate() {
            assert!(*value < 1 << 53, "{name}.{key} does not survive f64");
            out += &format!("{}\n      \"{key}\": {value}", if j > 0 { "," } else { "" });
        }
        out += "\n    }";
    }
    out += "\n  }\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(pairs: &[(&str, u64)]) -> Stats {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn golden_round_trips() {
        let mut workloads = BTreeMap::new();
        workloads.insert(
            "a".to_string(),
            stats(&[("events", 7_730_000), ("exit_ns", 6_554_629_158_256)]),
        );
        workloads.insert(
            "b".to_string(),
            stats(&[("agg:8.grid_crc", u32::MAX as u64)]),
        );
        let manifest = [
            ("seed", "17".to_string()),
            ("cpu_model", "a \"quoted\" cpu".into()),
        ];
        let doc = render(&manifest, &workloads);
        assert_eq!(parse(&doc).unwrap(), workloads);
    }

    #[test]
    fn golden_check_counts_one_unit_per_statistic() {
        let golden = stats(&[("events", 10), ("sends", 4), ("failovers", 2)]);
        let mut checks = Checks::default();
        // An untraced outcome lacks the traced-only `failovers`.
        checks.golden(&golden, &stats(&[("events", 10), ("sends", 5)]));
        assert_eq!(checks.attempted, 2);
        assert_eq!(checks.failures.len(), 1);
        assert!(checks.failures[0].starts_with("sends: 5"));
        // A statistic the golden file has never seen is a failure too.
        checks.golden(&golden, &stats(&[("new_stat", 1)]));
        assert_eq!((checks.attempted, checks.failures.len()), (3, 2));
    }

    #[test]
    fn determinism_check_names_the_first_difference() {
        let mut checks = Checks::default();
        checks.determinism(
            &stats(&[("events", 1)]),
            &stats(&[("events", 1), ("traced_only", 9)]),
        );
        checks.determinism(&stats(&[("events", 1)]), &stats(&[("events", 2)]));
        assert_eq!(checks.attempted, 2);
        assert_eq!(
            checks.failures,
            ["repetition diverged: events: Some(1) vs Some(2)"]
        );
    }

    #[test]
    fn malformed_golden_is_an_error_not_a_panic() {
        assert!(parse("{").is_err());
        assert!(parse("{\"workloads\": 3}").is_err());
        assert!(parse("{\"workloads\": {\"a\": {\"events\": 1.5}}}").is_err());
    }
}
