//! `perf compare A.json B.json`: did B get worse than A?
//!
//! Per (end-to-end metric, workload) the verdict uses the bound the
//! benchmark fixed. Where either side's run-to-run spread is wider than
//! the bound the honest answer is `unresolved` — unless every
//! repetition of one side beats every repetition of the other. Count
//! metrics of the traced pass must repeat exactly and are listed when
//! they do not.

use crate::metrics::{Kind, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};
use xsim_obs::Json;

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is lower than A's by more than the bound.
    Better,
    /// B's median is higher than A's by more than the bound.
    Worse,
    /// The medians are within the bound of each other.
    Unchanged,
    /// The spread of a side exceeds the bound and the samples overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare the repetitions of a lower-is-better metric: `a` is the
/// baseline, `b` the candidate, `bound` a share of `a`'s median.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    let spread = |s: Summary| (s.max - s.min) / s.median;
    if spread(sa) > bound || spread(sb) > bound {
        return if sb.max < sa.min {
            Verdict::Better
        } else if sa.max < sb.min {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let delta = (sb.median - sa.median) / sa.median;
    if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn layer_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compare two results documents. Returns the report lines and whether
/// any end-to-end metric came out `worse` or `unresolved`.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return Err("baseline has no \"workloads\" object".into());
    };
    let mut lines = Vec::new();
    let mut bad = false;
    for workload in workloads.keys() {
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (
                values(a, workload, metric.name),
                values(b, workload, metric.name),
            ) else {
                return Err(format!("{workload}: {} missing on one side", metric.name));
            };
            let v = verdict(&va, &vb, metric.bound);
            bad |= matches!(v, Verdict::Worse | Verdict::Unresolved);
            let (sa, sb) = (summarize(&va), summarize(&vb));
            lines.push(format!(
                "{:<11} {:<13} {:<20} {:.6} -> {:.6} {} ({:+.2}%, bound {:.0}%)",
                v.label(),
                metric.name,
                workload,
                sa.median,
                sb.median,
                metric.unit,
                (sb.median - sa.median) / sa.median * 100.0,
                metric.bound * 100.0,
            ));
        }
        let differing: Vec<&str> = PER_LAYER
            .iter()
            .filter(|p| p.kind == Kind::Count)
            .filter(|p| layer_value(a, workload, p.name) != layer_value(b, workload, p.name))
            .map(|p| p.name)
            .collect();
        if differing.is_empty() {
            lines.push(format!("counts      identical     {workload}"));
        } else {
            lines.push(format!(
                "counts      differ        {workload:<20} {}",
                differing.join(" ")
            ));
        }
    }
    Ok((lines, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_samples_compare_by_median_against_the_bound() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(verdict(&a, &[1.02, 1.03, 1.01], 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&a, &[1.20, 1.21, 1.19], 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &[0.80, 0.81, 0.79], 0.10), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_samples_separate() {
        let noisy = [1.00, 1.30, 0.90]; // spread 40 % > bound
        assert_eq!(
            verdict(&noisy, &[1.00, 1.05, 0.95], 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[1.00, 1.01, 0.99], &noisy, 0.10),
            Verdict::Unresolved
        );
        // Every repetition of B beats every repetition of A.
        assert_eq!(verdict(&noisy, &[0.50, 0.60, 0.55], 0.10), Verdict::Better);
        // Every repetition of A beats every repetition of B.
        assert_eq!(verdict(&noisy, &[1.50, 1.90, 1.60], 0.10), Verdict::Worse);
    }

    fn doc(wall: [f64; 3], events: u64) -> Json {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "wall_s" { wall } else { [1.0; 3] };
                format!("\"{}\":{{\"values\":[{},{},{}]}}", m.name, v[0], v[1], v[2])
            })
            .collect();
        Json::parse(&format!(
            "{{\"workloads\":{{\"w\":{{\"end_to_end\":{{{}}},\
             \"per_layer\":{{\"core.events\":{{\"value\":{events}}}}}}}}}}}",
            e2e.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn documents_compare_per_metric_and_flag_differing_counts() {
        let a = doc([1.0, 1.0, 1.0], 100);
        let (lines, bad) = compare(&a, &doc([1.01, 1.0, 1.02], 100)).unwrap();
        assert!(!bad);
        assert!(lines.iter().any(|l| l.starts_with("unchanged   wall_s")));
        assert!(lines.iter().any(|l| l.starts_with("counts      identical")));

        let (lines, bad) = compare(&a, &doc([1.5, 1.5, 1.5], 101)).unwrap();
        assert!(bad);
        assert!(lines.iter().any(|l| l.starts_with("worse       wall_s")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("counts      differ") && l.ends_with("core.events")));
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let a = doc([1.0; 3], 1);
        let b = Json::parse("{\"workloads\":{\"w\":{}}}").unwrap();
        assert!(compare(&a, &b).is_err());
    }
}
