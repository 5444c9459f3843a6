//! The per-shard observability service and its end-of-run report.
//!
//! Each kernel shard carries one [`ObsService`] holding a [`MetricSet`]
//! plus a buffer of [`ObsSpan`]s. At engine shutdown the builder moves
//! every shard's service, in shard order, into one collecting service,
//! which [`finish`](ObsService::finish)es into an [`ObsReport`] and a
//! [`Trace`].

use crate::metrics::MetricSet;
use crate::trace::{ObsSpan, Trace};
use std::fmt::Write as _;
use xsim_core::{Kernel, SimReport};

/// Per-shard observability state, installed as a kernel service when
/// `SimBuilder::metrics` or `SimBuilder::trace` is on.
#[derive(Default)]
pub struct ObsService {
    /// This shard's metric storage. Public so instrumentation sites that
    /// already hold `&mut ObsService` can record without indirection.
    pub set: MetricSet,
    spans: Vec<ObsSpan>,
    tracing: bool,
}

impl ObsService {
    /// New per-shard service; it keeps spans only when `tracing`.
    pub fn new(tracing: bool) -> Self {
        ObsService {
            set: MetricSet::new(),
            spans: Vec::new(),
            tracing,
        }
    }

    /// Record `v` against metric `id` (counter add / gauge max /
    /// histogram observe).
    #[inline]
    pub fn record(&mut self, id: usize, v: u64) {
        self.set.add(id, v);
    }

    /// Buffer a span for the trace; dropped unless tracing is on.
    #[inline]
    pub fn span(&mut self, span: ObsSpan) {
        if self.tracing {
            self.spans.push(span);
        }
    }

    /// Move `shard`'s metrics and spans into this service, leaving
    /// `shard` empty: counters sum, gauges keep the maximum, histograms
    /// add, and spans append in the order they are absorbed.
    pub fn absorb(&mut self, shard: &mut ObsService) {
        self.set.merge_from(&mut shard.set);
        self.spans.append(&mut shard.spans);
    }

    /// The absorbed metrics and the trace (spans in deterministic
    /// order).
    pub fn finish(self) -> (ObsReport, Trace) {
        (ObsReport { set: self.set }, Trace::assemble(self.spans))
    }
}

/// Record against a kernel's [`ObsService`], a no-op when observation is
/// disabled. For use inside kernel closures that already hold
/// `&mut Kernel` — when disabled this is one pass over the shard's few
/// service slots comparing `TypeId`s (no hashing), no allocation.
#[inline]
pub fn record(k: &mut Kernel, id: usize, v: u64) {
    if let Some(obs) = k.try_service_mut::<ObsService>() {
        obs.set.add(id, v);
    }
}

/// Buffer a span on a kernel's [`ObsService`]; no-op unless tracing.
#[inline]
pub fn span(k: &mut Kernel, s: ObsSpan) {
    if let Some(obs) = k.try_service_mut::<ObsService>() {
        obs.span(s);
    }
}

/// Whether metrics or tracing is on for this shard. Lets async
/// instrumentation sites skip interval bookkeeping (clock reads, extra
/// `with_kernel` trips) entirely when disabled. Costs the same slot scan
/// as [`record`]: the obs service is installed last, so a disabled check
/// compares every installed `TypeId` once.
#[inline]
pub fn enabled(k: &Kernel) -> bool {
    k.try_service::<ObsService>().is_some()
}

/// Whether this shard keeps spans (`SimBuilder::trace`).
#[inline]
pub fn tracing(k: &Kernel) -> bool {
    k.try_service::<ObsService>().is_some_and(|obs| obs.tracing)
}

/// The merged metrics of one run.
pub struct ObsReport {
    /// Merged metrics across shards.
    pub set: MetricSet,
}

impl ObsReport {
    /// Render the machine-readable metrics snapshot. Pass the engine
    /// report to include the engine section (events, context switches,
    /// per-shard stats, load imbalance, parallel-engine profile with each
    /// worker's Phase-B busy time and the per-window balance, and the
    /// event queue's pool reuse and bucket shape).
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
                 \"worker_busy_ns\":{:?},\"window_critical_events\":{},\
                 \"window_balance\":{:.4},\"batched_events\":{},\"batch_max_events\":{},\
                 \"window_barrier_hwm_ns\":{},\"pool_reuse_ratio\":{:.4},\
                 \"queue_bucket_hwm\":{},\"queue_ring_hwm\":{},\"queue_empty_steps\":{},\
                 \"queue_rebuilds\":{},\"shards\":[",
                r.events_processed,
                r.context_switches,
                r.wall.as_micros(),
                r.load_imbalance(),
                r.profile.windows,
                r.profile.barrier_wait_ns,
                r.profile.worker_busy_ns,
                r.profile.window_critical_events,
                r.window_balance(),
                r.profile.batched_events,
                r.profile.batch_max_events,
                r.profile.window_barrier_hwm_ns,
                r.profile.pool_reuse_ratio(),
                r.profile.queue_bucket_hwm,
                r.profile.queue_ring_hwm,
                r.profile.queue_empty_steps,
                r.profile.queue_rebuilds
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
        out.push('}');
        out
    }
}

impl std::fmt::Debug for ObsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsReport")
            .field("any_activity", &self.set.any_activity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ids;
    use crate::trace::PhaseKind;
    use xsim_core::{Rank, SimTime};

    fn io(rank: u32, start: u64) -> ObsSpan {
        ObsSpan {
            rank: Rank(rank),
            kind: PhaseKind::FileIo,
            start: SimTime(start),
            end: SimTime(start + 1),
            peer: None,
            bytes: 64,
        }
    }

    #[test]
    fn absorb_merges_and_drains_the_shard() {
        let mut run = ObsService::new(false);
        let mut a = ObsService::new(true);
        let mut b = ObsService::new(true);
        a.record(ids::FS_WRITES, 2);
        b.record(ids::FS_WRITES, 3);
        b.span(io(1, 5));
        run.absorb(&mut a);
        run.absorb(&mut b);
        assert!(!b.set.any_activity() && b.spans.is_empty(), "b is drained");
        run.absorb(&mut b); // absorbing a drained shard adds nothing
        let (rep, trace) = run.finish();
        assert_eq!(rep.set.value(ids::FS_WRITES), 5);
        assert_eq!(trace.events, vec![io(1, 5)]);
    }

    #[test]
    fn spans_need_tracing_and_sort_deterministically() {
        let mut run = ObsService::new(false);
        let mut metrics_only = ObsService::new(false);
        metrics_only.span(io(9, 0));
        let mut s = ObsService::new(true);
        s.span(io(2, 10));
        s.span(io(0, 10));
        s.span(io(1, 3));
        run.absorb(&mut s);
        run.absorb(&mut metrics_only);
        let (_, trace) = run.finish();
        let order: Vec<_> = trace.events.iter().map(|s| (s.start.0, s.rank.0)).collect();
        assert_eq!(order, vec![(3, 1), (10, 0), (10, 2)]);
    }

    #[test]
    fn snapshot_json_parses_without_engine() {
        let mut s = ObsService::new(false);
        s.record(ids::CKPT_WRITES, 1);
        let (rep, _) = s.finish();
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
        assert!(doc.get("span_count").is_none());
    }
}
