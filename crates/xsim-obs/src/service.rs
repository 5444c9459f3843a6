//! The per-shard observability service and its end-of-run report.
//!
//! Mirrors the `TraceService` pattern of the MPI layer: each kernel
//! shard carries one [`ObsService`] holding a [`MetricSet`] plus a
//! buffer of subsystem [`ObsSpan`]s; at engine shutdown every shard
//! flushes into a shared [`ObsSink`], which the builder drains into an
//! [`ObsReport`] after the run.

use crate::metrics::MetricSet;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use xsim_core::{Kernel, Rank, SimReport, SimTime};

/// One timed subsystem interval (a file-system transfer, a checkpoint
/// commit…), destined for the Chrome trace exporter alongside the MPI
/// phase trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsSpan {
    /// Event name shown in the viewer (e.g. `"fs.write"`).
    pub name: &'static str,
    /// Trace category (e.g. `"fs"`, `"ckpt"`).
    pub cat: &'static str,
    /// Rank the interval belongs to.
    pub rank: Rank,
    /// Interval start (virtual time).
    pub start: SimTime,
    /// Interval end (virtual time).
    pub end: SimTime,
    /// Bytes moved, if meaningful (0 otherwise).
    pub bytes: u64,
}

/// Shared sink the per-shard services flush into.
#[derive(Default)]
pub struct ObsSink {
    /// Merged metric storage.
    pub set: MetricSet,
    /// Concatenated subsystem spans (unsorted until assembly).
    pub spans: Vec<ObsSpan>,
}

/// Per-shard observability state, installed as a kernel service by
/// `SimBuilder::metrics(true)`.
pub struct ObsService {
    /// This shard's metric storage. Public so instrumentation sites that
    /// already hold `&mut ObsService` can record without indirection.
    pub set: MetricSet,
    /// This shard's span buffer.
    pub spans: Vec<ObsSpan>,
    sink: Arc<Mutex<ObsSink>>,
}

impl ObsService {
    /// New per-shard service flushing into `sink`.
    pub fn new(sink: Arc<Mutex<ObsSink>>) -> Self {
        ObsService {
            set: MetricSet::new(),
            spans: Vec::new(),
            sink,
        }
    }

    /// Record `v` against metric `id` (counter add / gauge max /
    /// histogram observe).
    #[inline]
    pub fn record(&mut self, id: usize, v: u64) {
        self.set.add(id, v);
    }

    /// Buffer a subsystem span for the trace exporters.
    #[inline]
    pub fn span(&mut self, span: ObsSpan) {
        self.spans.push(span);
    }

    /// Flush this shard's metrics and spans into the shared sink. Called
    /// explicitly at engine shutdown; idempotent (flushing drains the
    /// local state), with `Drop` as a backstop.
    pub fn flush(&mut self) {
        if self.spans.is_empty() && !self.set.any_activity() {
            return;
        }
        // Runs from `Drop`, possibly mid-unwind: never panic here. The
        // sink only accumulates, so a poisoned one is still consistent.
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        sink.set.merge_from(&mut self.set);
        sink.spans.append(&mut self.spans);
    }
}

impl Drop for ObsService {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Record against a kernel's [`ObsService`], a no-op when metrics are
/// disabled. For use inside kernel closures that already hold
/// `&mut Kernel` — when disabled this is one pass over the shard's few
/// service slots comparing `TypeId`s (no hashing), no allocation.
#[inline]
pub fn record(k: &mut Kernel, id: usize, v: u64) {
    if let Some(obs) = k.try_service_mut::<ObsService>() {
        obs.set.add(id, v);
    }
}

/// Buffer a span on a kernel's [`ObsService`]; no-op when disabled.
#[inline]
pub fn span(k: &mut Kernel, s: ObsSpan) {
    if let Some(obs) = k.try_service_mut::<ObsService>() {
        obs.spans.push(s);
    }
}

/// Whether metrics are enabled on this shard. Lets async instrumentation
/// sites skip span bookkeeping (clock reads, extra `with_kernel` trips)
/// entirely when disabled. Costs the same slot scan as [`record`]: the
/// obs service is installed last, so a disabled check compares every
/// installed `TypeId` once.
#[inline]
pub fn enabled(k: &Kernel) -> bool {
    k.try_service::<ObsService>().is_some()
}

/// The merged observability data of one run.
#[derive(Default)]
pub struct ObsReport {
    /// Merged metrics across shards.
    pub set: MetricSet,
    /// All subsystem spans, sorted by `(start, rank, end, name)` for
    /// deterministic output.
    pub spans: Vec<ObsSpan>,
}

impl ObsReport {
    /// Drain the shared sink into a report (deterministic span order).
    pub fn assemble(sink: &Mutex<ObsSink>) -> Self {
        let inner = std::mem::take(
            &mut *sink
                .lock()
                .expect("an ObsService panicked while flushing into the sink"),
        );
        let mut spans = inner.spans;
        spans.sort_by_key(|s| (s.start, s.rank, s.end, s.name));
        ObsReport {
            set: inner.set,
            spans,
        }
    }

    /// Render the machine-readable metrics snapshot. Pass the engine
    /// report to include the engine section (events, context switches,
    /// per-shard stats, load imbalance, parallel-engine profile).
    ///
    /// Without an engine report (`to_json(None)`) the snapshot is the
    /// *deterministic surface*: volatile (execution-shape) metrics are
    /// omitted, so the output is byte-identical across engine kinds and
    /// worker counts for the same seed and configuration.
    pub fn to_json(&self, sim: Option<&SimReport>) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"xsim-metrics-v1\"");
        if let Some(r) = sim {
            let _ = write!(
                out,
                ",\"engine\":{{\"events_processed\":{},\"context_switches\":{},\"wall_us\":{},\
                 \"load_imbalance\":{:.4},\"windows\":{},\"barrier_wait_ns\":{},\
                 \"batched_events\":{},\"batch_max_events\":{},\"shards\":[",
                r.events_processed,
                r.context_switches,
                r.wall.as_micros(),
                r.load_imbalance(),
                r.profile.windows,
                r.profile.barrier_wait_ns,
                r.profile.batched_events,
                r.profile.batch_max_events
            );
            for (i, s) in r.shards.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"shard\":{},\"events_processed\":{},\"vp_resumes\":{},\
                     \"queue_depth_hwm\":{}}}",
                    s.shard_id, s.events_processed, s.context_switches, s.queue_depth_hwm
                );
            }
            out.push_str("]}");
        }
        out.push_str(",\"metrics\":");
        self.set.write_json(&mut out, sim.is_some());
        let _ = write!(out, ",\"span_count\":{}}}", self.spans.len());
        out
    }
}

impl std::fmt::Debug for ObsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsReport")
            .field("spans", &self.spans.len())
            .field("any_activity", &self.set.any_activity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ids;

    #[test]
    fn flush_merges_and_drains() {
        let sink = Arc::new(Mutex::new(ObsSink::default()));
        let mut a = ObsService::new(sink.clone());
        let mut b = ObsService::new(sink.clone());
        a.record(ids::FS_WRITES, 2);
        b.record(ids::FS_WRITES, 3);
        b.span(ObsSpan {
            name: "fs.write",
            cat: "fs",
            rank: Rank(1),
            start: SimTime(5),
            end: SimTime(9),
            bytes: 64,
        });
        a.flush();
        a.flush(); // idempotent
        drop(a);
        drop(b); // Drop backstop flushes b
        let rep = ObsReport::assemble(&sink);
        assert_eq!(rep.set.value(ids::FS_WRITES), 5);
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].name, "fs.write");
    }

    #[test]
    fn spans_sorted_deterministically() {
        let sink = Arc::new(Mutex::new(ObsSink::default()));
        let mut s = ObsService::new(sink.clone());
        let sp = |rank, start| ObsSpan {
            name: "x",
            cat: "t",
            rank: Rank(rank),
            start: SimTime(start),
            end: SimTime(start + 1),
            bytes: 0,
        };
        s.span(sp(2, 10));
        s.span(sp(0, 10));
        s.span(sp(1, 3));
        s.flush();
        let rep = ObsReport::assemble(&sink);
        let order: Vec<_> = rep.spans.iter().map(|s| (s.start.0, s.rank.0)).collect();
        assert_eq!(order, vec![(3, 1), (10, 0), (10, 2)]);
    }

    #[test]
    fn snapshot_json_parses_without_engine() {
        let sink = Arc::new(Mutex::new(ObsSink::default()));
        let mut s = ObsService::new(sink.clone());
        s.record(ids::CKPT_WRITES, 1);
        s.flush();
        let rep = ObsReport::assemble(&sink);
        let doc = crate::json::Json::parse(&rep.to_json(None)).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("xsim-metrics-v1"));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("ckpt.writes"))
                .and_then(|e| e.get("value"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert!(doc.get("engine").is_none());
    }
}
