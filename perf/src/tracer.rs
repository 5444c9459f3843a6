//! Harness-side span tracer.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans *inside* the program are the `HostProfile`
//! issue, not this one). They stay in memory until the run ends and are
//! then written as Chrome trace-event JSON.

use std::io;
use std::time::Instant;
use xsim_obs::ChromeTraceWriter;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name (`setup`, `body`, `run[3]`, `net.route_miss`, …).
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one (`None` for the workload root).
    pub parent: Option<SpanId>,
    /// Counters annotated onto the span (shown as Chrome-trace args).
    pub args: Vec<(&'static str, u64)>,
}

/// In-memory span recorder for one workload.
pub struct Tracer {
    /// Workload the spans belong to (their shared identifier).
    pub workload: String,
    /// Off for the untraced pass: nothing is recorded, not even the
    /// clock reads.
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing (the end-to-end pass runs with
    /// tracing off).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new("")
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            args: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record an already-finished span under the innermost open one
    /// (simulator runs are timed by the simulator, not by the harness).
    pub fn complete(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, u64)>,
    ) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            args,
        });
        id
    }

    /// All spans, in creation order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as one Chrome trace process (`pid`), one lane per
    /// nesting depth.
    pub fn write_chrome<W: io::Write>(
        &self,
        out: &mut ChromeTraceWriter<W>,
        pid: u32,
    ) -> io::Result<()> {
        out.process_name(pid, &self.workload)?;
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = s.args.clone();
            args.push(("self_ns", self_ns(&self.spans, id)));
            let depth = std::iter::successors(s.parent, |p| self.spans[*p].parent).count();
            out.complete(
                &s.name,
                &self.workload,
                pid,
                depth as u32,
                s.start_ns,
                s.end_ns,
                &args,
            )?;
        }
        Ok(())
    }
}

/// Self time of `spans[id]`: duration minus the union of its children's
/// intervals clipped to it (children may overlap when reconstructed
/// from reported durations).
pub fn self_ns(spans: &[Span], id: SpanId) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(lo, hi)| hi > lo)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = me.start_ns;
    for (lo, hi) in kids {
        let lo = lo.max(frontier);
        if hi > lo {
            covered += hi - lo;
            frontier = hi;
        }
    }
    (me.end_ns - me.start_ns).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 50);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 40); // grandchildren count once, via b
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 90, 150, Some(0)),  // starts before the parent
            span("b", 140, 180, Some(0)), // overlaps a
            span("c", 190, 250, Some(0)), // ends after the parent
        ];
        // Covered: [100,150) ∪ [140,180) ∪ [190,200) = 80 + 10.
        assert_eq!(self_ns(&spans, 0), 10);
    }

    #[test]
    fn enter_exit_nest_and_complete_attaches_to_the_open_span() {
        let mut tr = Tracer::new("w");
        let root = tr.enter("root");
        let child = tr.enter("child");
        tr.exit(child);
        let t = Instant::now();
        let run = tr.complete("run[0]", t, t, vec![("events", 7)]);
        tr.exit(root);
        assert_eq!(tr.spans()[child].parent, Some(root));
        assert_eq!(tr.spans()[run].parent, Some(root));
        assert_eq!(tr.spans()[root].parent, None);
        assert!(tr.spans()[root].end_ns >= tr.spans()[child].end_ns);
        assert!(self_ns(tr.spans(), root) <= tr.spans()[root].end_ns - tr.spans()[root].start_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let id = tr.enter("setup");
        tr.exit(id);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_output_parses_back() {
        let mut tr = Tracer::new("w");
        let root = tr.enter("root");
        tr.exit(root);
        let mut out = ChromeTraceWriter::new(Vec::new()).unwrap();
        tr.write_chrome(&mut out, 3).unwrap();
        let doc = String::from_utf8(out.finish().unwrap()).unwrap();
        let json = xsim_obs::Json::parse(&doc).unwrap();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2); // process_name + the span
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("root"));
    }
}
