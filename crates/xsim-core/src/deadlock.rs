//! Deadlock detection and diagnostics.
//!
//! xSim's conservative PDES execution includes deadlock detection as part
//! of its simulator-internal synchronization mechanism (paper §IV-C). In
//! xsim-rs a deadlock manifests as a drained event queue while one or more
//! VPs remain blocked; this module renders an actionable diagnosis.

use crate::rank::Rank;
use crate::time::SimTime;

/// Maximum number of blocked VPs listed individually in a report.
const MAX_LISTED: usize = 16;

/// Build a human-readable deadlock report from blocked-VP summaries
/// gathered across shards.
pub(crate) fn report(blocked: &[(Rank, SimTime, &'static str)], total_ranks: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} of {} virtual processes blocked with no pending events:",
        blocked.len(),
        total_ranks
    );
    for (rank, clock, desc) in blocked.iter().take(MAX_LISTED) {
        let what = if desc.is_empty() {
            "<unspecified>"
        } else {
            desc
        };
        let _ = writeln!(out, "  rank {rank} blocked at {clock} on {what}");
    }
    if blocked.len() > MAX_LISTED {
        let _ = writeln!(out, "  ... and {} more", blocked.len() - MAX_LISTED);
    }
    // Aggregate by wait description to expose the dominant cause.
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for (_, _, desc) in blocked {
        *counts
            .entry(if desc.is_empty() {
                "<unspecified>"
            } else {
                desc
            })
            .or_default() += 1;
    }
    let _ = writeln!(out, "blocked-by-wait summary:");
    for (desc, n) in counts {
        let _ = writeln!(out, "  {n:>8} x {desc}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lists_and_aggregates() {
        let blocked = vec![
            (Rank(0), SimTime::from_secs(1), "recv from 1"),
            (Rank(1), SimTime::from_secs(2), "recv from 0"),
            (Rank(2), SimTime::from_secs(2), "recv from 0"),
        ];
        let r = report(&blocked, 4);
        assert!(r.contains("3 of 4"));
        assert!(r.contains("rank 0 blocked"));
        assert!(r.contains("2 x recv from 0"));
    }

    #[test]
    fn report_truncates_long_lists() {
        let blocked: Vec<_> = (0..40).map(|i| (Rank(i), SimTime::ZERO, "recv")).collect();
        let r = report(&blocked, 64);
        assert!(r.contains("... and 24 more"));
        assert!(r.contains("40 x recv"));
    }

    #[test]
    fn report_handles_empty_desc() {
        let blocked = vec![(Rank(0), SimTime::ZERO, "")];
        let r = report(&blocked, 1);
        assert!(r.contains("<unspecified>"));
    }
}
