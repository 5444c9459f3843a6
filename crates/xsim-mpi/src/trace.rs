//! Execution tracing.
//!
//! xSim is "designed like a traditional performance tool" (§II-A) and
//! the paper situates it among trace-driven analyzers (DIMEMAS,
//! PARAVER, Vampir). This module records per-rank phase events —
//! compute, point-to-point, collectives, waits — with virtual-time
//! intervals, and summarizes them into the compute/communication
//! breakdown a performance investigation starts from. Enable with
//! `SimBuilder::trace(true)`.

use std::fmt;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use xsim_core::{Rank, SimTime};

/// What a trace event describes.
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

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PhaseKind::Compute => "compute",
            PhaseKind::Send => "send",
            PhaseKind::Recv => "recv",
            PhaseKind::Wait => "wait",
            PhaseKind::Collective => "collective",
            PhaseKind::FileIo => "file-io",
        };
        f.pad(s)
    }
}

/// One traced interval on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The rank the event belongs to.
    pub rank: Rank,
    /// Phase kind.
    pub kind: PhaseKind,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time.
    pub end: SimTime,
    /// Peer world rank for p2p events (`None` = no single peer:
    /// compute phases, waits, wildcard receives, collectives).
    pub peer: Option<Rank>,
    /// Payload bytes for p2p events.
    pub bytes: u64,
}

impl TraceEvent {
    /// Interval length.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// Kernel service buffering events per shard; flushes into the shared
/// sink on drop.
pub struct TraceService {
    events: Vec<TraceEvent>,
    sink: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceService {
    /// New service flushing into `sink`.
    pub fn new(sink: Arc<Mutex<Vec<TraceEvent>>>) -> Self {
        TraceService {
            events: Vec::new(),
            sink,
        }
    }

    /// Append an event.
    pub fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Flush buffered events into the shared sink. Called explicitly by
    /// the engine-shutdown hook; idempotent (the buffer drains), with
    /// `Drop` as a backstop.
    pub fn flush(&mut self) {
        if !self.events.is_empty() {
            // Runs from `Drop`, possibly mid-unwind: never panic here. The
            // sink is append-only, so a poisoned one is still consistent.
            self.sink
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(&mut self.events);
        }
    }
}

impl Drop for TraceService {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Record a phase on the current VP if tracing is enabled. Called by the
/// MpiCtx wrappers with the interval they just completed.
pub(crate) fn record(
    kind: PhaseKind,
    start: SimTime,
    end: SimTime,
    peer: Option<Rank>,
    bytes: u64,
) {
    xsim_core::ctx::with_kernel(|k, me| {
        if let Some(tr) = k.try_service_mut::<TraceService>() {
            tr.record(TraceEvent {
                rank: me,
                kind,
                start,
                end,
                peer,
                bytes,
            });
        }
    });
}

/// A finished trace: every event of the run in deterministic
/// `(start, rank)` order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The events.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Assemble from the builder's sink (sorts deterministically).
    pub fn assemble(mut events: Vec<TraceEvent>) -> Trace {
        events.sort_by_key(|e| (e.start, e.rank, e.end));
        Trace { events }
    }

    /// Events of one rank, in time order.
    pub fn for_rank(&self, rank: Rank) -> impl Iterator<Item = &TraceEvent> {
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
    /// for external timeline viewers. `peer` is empty when the event has
    /// no single peer. Streaming keeps million-event traces off the heap.
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

    /// Render as CSV in memory (see [`Trace::write_csv`]).
    pub fn to_csv(&self) -> String {
        let mut buf = Vec::with_capacity(64 + self.events.len() * 32);
        self.write_csv(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("CSV is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: u32, kind: PhaseKind, s: u64, e: u64) -> TraceEvent {
        TraceEvent {
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
        let t = Trace::assemble(vec![ev(3, PhaseKind::Wait, 5, 9), with_peer]);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "rank,kind,start_ns,end_ns,peer,bytes"
        );
        assert_eq!(lines.next().unwrap(), "3,send,2,5,7,64");
        assert_eq!(lines.next().unwrap(), "3,wait,5,9,,0");
    }

    #[test]
    fn streaming_csv_matches_in_memory() {
        let t = Trace::assemble(vec![ev(0, PhaseKind::Compute, 0, 5)]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), t.to_csv());
    }

    #[test]
    fn flush_is_explicit_and_idempotent() {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut svc = TraceService::new(sink.clone());
        svc.record(ev(0, PhaseKind::Compute, 0, 5));
        svc.flush();
        assert_eq!(sink.lock().unwrap().len(), 1);
        svc.flush();
        drop(svc); // Drop backstop must not duplicate
        assert_eq!(sink.lock().unwrap().len(), 1);
    }

    #[test]
    fn empty_trace_fraction_is_zero() {
        assert_eq!(Trace::default().compute_fraction(), 0.0);
    }
}
