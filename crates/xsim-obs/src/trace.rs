//! The run's timeline.
//!
//! xSim is "designed like a traditional performance tool" (§II-A) and
//! the paper situates it among trace-driven analyzers (DIMEMAS,
//! PARAVER, Vampir). A traced run records one [`ObsSpan`] per
//! virtual-time interval on a rank — compute, point-to-point,
//! collectives and waits from the MPI layer, file I/O from the file
//! system — into its shard's [`ObsService`](crate::ObsService), and the
//! shards' spans assemble into one [`Trace`]: the compute /
//! communication / I/O breakdown a performance investigation starts
//! from. Enable with `SimBuilder::trace(true)`.

use std::fmt;
use std::io;
use xsim_core::{Rank, SimTime};

/// What a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// A compute phase (`MpiCtx::compute` / `sleep`).
    Compute,
    /// A blocking send (or the wait completing an isend).
    Send,
    /// A blocking receive (or the wait completing an irecv).
    Recv,
    /// A wait/waitall/waitany on outstanding requests.
    Wait,
    /// A collective operation.
    Collective,
    /// Simulated file I/O.
    FileIo,
}

impl PhaseKind {
    /// The kind's name in the CSV and the Chrome trace.
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseKind::Compute => "compute",
            PhaseKind::Send => "send",
            PhaseKind::Recv => "recv",
            PhaseKind::Wait => "wait",
            PhaseKind::Collective => "collective",
            PhaseKind::FileIo => "file-io",
        }
    }
}

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

/// One traced interval on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsSpan {
    /// The rank the interval belongs to.
    pub rank: Rank,
    /// Phase kind.
    pub kind: PhaseKind,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time.
    pub end: SimTime,
    /// Peer world rank for p2p spans (`None` = no single peer:
    /// compute phases, waits, wildcard receives, collectives, I/O).
    pub peer: Option<Rank>,
    /// Payload bytes of p2p spans, bytes moved by I/O spans.
    pub bytes: u64,
}

impl ObsSpan {
    /// Interval length.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// A finished trace: every span of the run in deterministic
/// `(start, rank, end)` order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The spans.
    pub events: Vec<ObsSpan>,
}

impl Trace {
    /// Sort the shards' spans. Each span is recorded by its own rank's
    /// VP, in program order, and the sort is stable, so ties within a
    /// rank keep that order: the result is the same for every engine
    /// and worker count.
    pub(crate) fn assemble(mut events: Vec<ObsSpan>) -> Trace {
        events.sort_by_key(|e| (e.start, e.rank, e.end));
        Trace { events }
    }

    /// Spans of one rank, in time order.
    pub fn for_rank(&self, rank: Rank) -> impl Iterator<Item = &ObsSpan> {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// Per-kind total time across all ranks.
    pub fn totals(&self) -> Vec<(PhaseKind, SimTime)> {
        let kinds = [
            PhaseKind::Compute,
            PhaseKind::Send,
            PhaseKind::Recv,
            PhaseKind::Wait,
            PhaseKind::Collective,
            PhaseKind::FileIo,
        ];
        kinds
            .into_iter()
            .map(|k| {
                let total = self
                    .events
                    .iter()
                    .filter(|e| e.kind == k)
                    .fold(SimTime::ZERO, |acc, e| acc + e.duration());
                (k, total)
            })
            .collect()
    }

    /// Machine-wide compute fraction: Σ compute / Σ all phases.
    pub fn compute_fraction(&self) -> f64 {
        let mut compute = 0u128;
        let mut total = 0u128;
        for e in &self.events {
            let d = e.duration().as_nanos() as u128;
            total += d;
            if e.kind == PhaseKind::Compute {
                compute += d;
            }
        }
        if total == 0 {
            0.0
        } else {
            compute as f64 / total as f64
        }
    }

    /// Stream as CSV (`rank,kind,start_ns,end_ns,peer,bytes`), suitable
    /// for external timeline viewers. `peer` is empty when the span has
    /// no single peer. Streaming keeps million-span traces off the heap.
    pub fn write_csv<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(b"rank,kind,start_ns,end_ns,peer,bytes\n")?;
        for e in &self.events {
            match e.peer {
                Some(p) => writeln!(
                    w,
                    "{},{},{},{},{},{}",
                    e.rank,
                    e.kind,
                    e.start.as_nanos(),
                    e.end.as_nanos(),
                    p,
                    e.bytes
                )?,
                None => writeln!(
                    w,
                    "{},{},{},{},,{}",
                    e.rank,
                    e.kind,
                    e.start.as_nanos(),
                    e.end.as_nanos(),
                    e.bytes
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: u32, kind: PhaseKind, s: u64, e: u64) -> ObsSpan {
        ObsSpan {
            rank: Rank(rank),
            kind,
            start: SimTime(s),
            end: SimTime(e),
            peer: None,
            bytes: 0,
        }
    }

    #[test]
    fn assemble_sorts_deterministically() {
        let t = Trace::assemble(vec![
            ev(1, PhaseKind::Send, 10, 20),
            ev(0, PhaseKind::Compute, 0, 10),
            ev(0, PhaseKind::Send, 10, 12),
        ]);
        assert_eq!(t.events[0].rank, Rank(0));
        assert_eq!(t.events[0].kind, PhaseKind::Compute);
        assert_eq!(t.events[1].rank, Rank(0));
        assert_eq!(t.events[2].rank, Rank(1));
    }

    #[test]
    fn totals_and_fraction() {
        let t = Trace::assemble(vec![
            ev(0, PhaseKind::Compute, 0, 30),
            ev(0, PhaseKind::Recv, 30, 40),
            ev(1, PhaseKind::Compute, 0, 10),
        ]);
        let totals = t.totals();
        let compute = totals
            .iter()
            .find(|(k, _)| *k == PhaseKind::Compute)
            .unwrap()
            .1;
        assert_eq!(compute, SimTime(40));
        assert!((t.compute_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn csv_shape() {
        let mut with_peer = ev(3, PhaseKind::Send, 2, 5);
        with_peer.peer = Some(Rank(7));
        with_peer.bytes = 64;
        let t = Trace::assemble(vec![
            ev(3, PhaseKind::Wait, 5, 9),
            with_peer,
            ev(4, PhaseKind::FileIo, 9, 11),
        ]);
        let mut csv = Vec::new();
        t.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "rank,kind,start_ns,end_ns,peer,bytes"
        );
        assert_eq!(lines.next().unwrap(), "3,send,2,5,7,64");
        assert_eq!(lines.next().unwrap(), "3,wait,5,9,,0");
        assert_eq!(lines.next().unwrap(), "4,file-io,9,11,,0");
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn empty_trace_fraction_is_zero() {
        assert_eq!(Trace::default().compute_fraction(), 0.0);
    }
}
