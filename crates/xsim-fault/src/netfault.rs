//! Component-addressed fault schedules: processes, links and switches.
//!
//! [`FailureSchedule`] covers the paper's surface — MPI *process*
//! failures as rank/time pairs (§IV-B) — and is parsed as the `rank:`
//! subset of this grammar.
//! [`FaultSchedule`] generalizes the same idea to the network fault
//! surface of the co-design tool: a fault is anchored at a
//! [`FaultComponent`] (rank, link or switch) and carries a
//! [`FaultKind`] (permanent, transient with a repair time, or degraded
//! bandwidth). Schedules parse from a textual format (a front end's
//! `--failures` value or `XSIM_NET_FAULTS`, see
//! `xsim_apps::scenario`), convert into the process-failure and link-fault
//! halves consumed by the builder.

use crate::schedule::{parse_secs, FailureSchedule, ParseError};
use std::fmt;
use std::str::FromStr;
use xsim_core::SimTime;
use xsim_net::{LinkFaultKind, NetFault, NodeId};

/// Direction names in [`xsim_net::Topology::torus_neighbors`] order.
const DIR_NAMES: [&str; 6] = ["+x", "-x", "+y", "-y", "+z", "-z"];

/// The network component a fault is anchored at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultComponent {
    /// An MPI process (the paper's §IV-B surface).
    Rank(usize),
    /// One link: the `dir`-th neighbor link of `node`
    /// (`dir` indexes [`xsim_net::Topology::torus_neighbors`]).
    Link { node: NodeId, dir: usize },
    /// A node's switch — all six of its links at once.
    Switch(NodeId),
}

/// How the component misbehaves once the fault activates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Dead until the end of the run.
    Permanent,
    /// Dead for `down_for`, then repaired.
    Transient { down_for: SimTime },
    /// Alive but passing traffic at `factor` × nominal bandwidth.
    Degraded { factor: f64 },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What breaks.
    pub component: FaultComponent,
    /// How it breaks.
    pub kind: FaultKind,
    /// When it breaks (earliest activation, as in [`FailureSchedule`]).
    pub at: SimTime,
}

/// A component-addressed fault schedule.
///
/// Textual format: comma-separated entries, fields colon-separated.
///
/// * `rank:R:SECS`, or the bare [`FailureSchedule`] pair `R:SECS` —
///   process failure.
/// * `link:NODE:DIR:SECS[:perm|:down:SECS|:degraded:FACTOR]` — link
///   fault; `DIR` is one of `+x -x +y -y +z -z`.
/// * `switch:NODE:SECS[:perm|:down:SECS|:degraded:FACTOR]` — switch
///   fault (all six links of `NODE`).
///
/// The kind suffix defaults to `perm`.
///
/// ```
/// use xsim_fault::FaultSchedule;
///
/// let s: FaultSchedule = "rank:3:10,link:0:+x:5:down:30,switch:42:60:degraded:0.5"
///     .parse()
///     .unwrap();
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.rank_failures().len(), 1);
/// assert_eq!(s.net_faults().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    faults: Vec<Fault>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one fault.
    pub fn push(&mut self, component: FaultComponent, kind: FaultKind, at: SimTime) {
        self.faults.push(Fault {
            component,
            kind,
            at,
        });
    }

    /// The scheduled faults.
    pub fn entries(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The process-failure half: every `rank:` entry as a
    /// [`FailureSchedule`] for `SimBuilder::inject_failures`. Transient
    /// and degraded kinds on ranks degenerate to plain failures (a
    /// simulated MPI process does not come back, §IV-B).
    pub fn rank_failures(&self) -> FailureSchedule {
        let mut out = FailureSchedule::new();
        for f in &self.faults {
            if let FaultComponent::Rank(r) = f.component {
                out.push(r, f.at);
            }
        }
        out
    }

    /// The network half: every link/switch entry as an
    /// [`xsim_net::NetFault`] for `SimBuilder::net_faults`.
    pub fn net_faults(&self) -> Vec<NetFault> {
        self.faults
            .iter()
            .filter_map(|f| {
                let (node, dir) = match f.component {
                    FaultComponent::Rank(_) => return None,
                    FaultComponent::Link { node, dir } => (node, Some(dir)),
                    FaultComponent::Switch(node) => (node, None),
                };
                let (kind, until) = match f.kind {
                    FaultKind::Permanent => (LinkFaultKind::Down, None),
                    FaultKind::Transient { down_for } => {
                        (LinkFaultKind::Down, Some(f.at + down_for))
                    }
                    FaultKind::Degraded { factor } => (LinkFaultKind::Degraded(factor), None),
                };
                Some(NetFault {
                    node,
                    dir,
                    kind,
                    from: f.at,
                    until,
                })
            })
            .collect()
    }
}

fn parse_dir(s: &str) -> Result<usize, ParseError> {
    DIR_NAMES
        .iter()
        .position(|d| *d == s)
        .ok_or_else(|| ParseError(format!("bad direction '{s}' (want +x -x +y -y +z -z)")))
}

fn parse_kind(tail: &[&str], item: &str) -> Result<FaultKind, ParseError> {
    match tail {
        [] | ["perm"] => Ok(FaultKind::Permanent),
        ["down", secs] => Ok(FaultKind::Transient {
            down_for: parse_secs(secs, item)?,
        }),
        ["degraded", factor] => {
            let f: f64 = factor
                .trim()
                .parse()
                .map_err(|_| ParseError(format!("bad factor in '{item}'")))?;
            if !f.is_finite() || f <= 0.0 || f > 1.0 {
                return Err(ParseError(format!(
                    "degraded factor must be in (0, 1] in '{item}'"
                )));
            }
            Ok(FaultKind::Degraded { factor: f })
        }
        _ => Err(ParseError(format!("bad fault kind in '{item}'"))),
    }
}

impl FromStr for FaultSchedule {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, ParseError> {
        let mut out = FaultSchedule::new();
        for item in s.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let parts: Vec<&str> = item.split(':').map(str::trim).collect();
            match parts.as_slice() {
                ["rank", r, t] | [r, t] => {
                    let rank: usize = r
                        .parse()
                        .map_err(|_| ParseError(format!("bad rank in '{item}'")))?;
                    out.push(
                        FaultComponent::Rank(rank),
                        FaultKind::Permanent,
                        parse_secs(t, item)?,
                    );
                }
                ["link", node, dir, t, tail @ ..] => {
                    let node: NodeId = node
                        .parse()
                        .map_err(|_| ParseError(format!("bad node in '{item}'")))?;
                    out.push(
                        FaultComponent::Link {
                            node,
                            dir: parse_dir(dir)?,
                        },
                        parse_kind(tail, item)?,
                        parse_secs(t, item)?,
                    );
                }
                ["switch", node, t, tail @ ..] => {
                    let node: NodeId = node
                        .parse()
                        .map_err(|_| ParseError(format!("bad node in '{item}'")))?;
                    out.push(
                        FaultComponent::Switch(node),
                        parse_kind(tail, item)?,
                        parse_secs(t, item)?,
                    );
                }
                _ => {
                    return Err(ParseError(format!(
                        "unrecognized fault entry '{item}' (want rank:/link:/switch:)"
                    )))
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Permanent => write!(f, "perm"),
            FaultKind::Transient { down_for } => write!(f, "down:{}", down_for.as_secs_f64()),
            FaultKind::Degraded { factor } => write!(f, "degraded:{factor}"),
        }
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for fault in &self.faults {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            let t = fault.at.as_secs_f64();
            match fault.component {
                FaultComponent::Rank(r) => write!(f, "rank:{r}:{t}")?,
                FaultComponent::Link { node, dir } => {
                    write!(f, "link:{node}:{}:{t}:{}", DIR_NAMES[dir], fault.kind)?
                }
                FaultComponent::Switch(node) => write!(f, "switch:{node}:{t}:{}", fault.kind)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_component_forms() {
        let s: FaultSchedule =
            "rank:3:10, link:0:+x:5:down:30, switch:42:60:degraded:0.5, link:7:-z:1"
                .parse()
                .unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.entries()[0],
            Fault {
                component: FaultComponent::Rank(3),
                kind: FaultKind::Permanent,
                at: SimTime::from_secs(10),
            }
        );
        assert_eq!(
            s.entries()[1],
            Fault {
                component: FaultComponent::Link { node: 0, dir: 0 },
                kind: FaultKind::Transient {
                    down_for: SimTime::from_secs(30)
                },
                at: SimTime::from_secs(5),
            }
        );
        assert_eq!(
            s.entries()[2],
            Fault {
                component: FaultComponent::Switch(42),
                kind: FaultKind::Degraded { factor: 0.5 },
                at: SimTime::from_secs(60),
            }
        );
        assert_eq!(
            s.entries()[3].component,
            FaultComponent::Link { node: 7, dir: 5 }
        );
        let bare: FaultSchedule = "3:10".parse().unwrap();
        assert_eq!(
            bare.entries(),
            &s.entries()[..1],
            "bare R:SECS is a rank entry"
        );
        let pairs: FaultSchedule = "12:3500.5, 99:120".parse().unwrap();
        assert_eq!(
            pairs.rank_failures().entries(),
            &[
                (12, SimTime::from_secs_f64(3500.5)),
                (99, SimTime::from_secs(120))
            ]
        );
    }

    #[test]
    fn skips_empty_entries() {
        assert!("".parse::<FaultSchedule>().unwrap().is_empty());
        assert_eq!("1:2,,".parse::<FaultSchedule>().unwrap().len(), 1);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "rank:3",
            "link:0:q:5",
            "link:0:+x:5:melted",
            "link:0:+x:5:degraded:1.5",
            "link:0:+x:5:degraded:0",
            "switch:x:5",
            "router:0:5",
            "rank:1:-2",
            "12",
            "a:1",
            "1:x",
            "1:inf",
        ] {
            assert!(bad.parse::<FaultSchedule>().is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn display_round_trips() {
        let s: FaultSchedule =
            "rank:3:10,link:0:+x:5:down:30,switch:42:60:degraded:0.5,link:1:+y:2:perm"
                .parse()
                .unwrap();
        let t: FaultSchedule = s.to_string().parse().unwrap();
        assert_eq!(s, t);
    }

    #[test]
    fn splits_into_rank_and_net_halves() {
        let s: FaultSchedule = "rank:3:10,link:0:+x:5:down:30,switch:42:60"
            .parse()
            .unwrap();
        let ranks = s.rank_failures();
        assert_eq!(ranks.entries(), &[(3, SimTime::from_secs(10))]);
        let nets = s.net_faults();
        assert_eq!(nets.len(), 2);
        assert_eq!(nets[0].node, 0);
        assert_eq!(nets[0].dir, Some(0));
        assert_eq!(nets[0].kind, LinkFaultKind::Down);
        assert_eq!(nets[0].from, SimTime::from_secs(5));
        assert_eq!(nets[0].until, Some(SimTime::from_secs(35)));
        assert_eq!(nets[1].dir, None, "switch fault covers all links");
        assert_eq!(nets[1].until, None, "permanent");
    }
}
