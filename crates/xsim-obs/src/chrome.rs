//! Streaming Chrome trace-event JSON emitter.
//!
//! Emits the [Trace Event Format] consumed by `chrome://tracing` and
//! Perfetto (ui.perfetto.dev → "Open trace file"). Events are written as
//! they are submitted — a million-event trace never materializes in
//! memory. Virtual nanoseconds map to the format's microsecond `ts`
//! field with fractional precision, so nanosecond resolution survives.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json;
use std::io::{self, Write};

/// Streaming writer producing one `{"traceEvents":[...]}` document.
pub struct ChromeTraceWriter<W: Write> {
    w: W,
    first: bool,
    buf: String,
}

impl<W: Write> ChromeTraceWriter<W> {
    /// Start a trace document on `w`.
    pub fn new(mut w: W) -> io::Result<Self> {
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        Ok(ChromeTraceWriter {
            w,
            first: true,
            buf: String::with_capacity(256),
        })
    }

    fn sep(&mut self) -> io::Result<()> {
        if self.first {
            self.first = false;
            Ok(())
        } else {
            self.w.write_all(b",\n")
        }
    }

    fn push_escaped(&mut self, s: &str) {
        // json::escape appends to a String; reuse the writer's buffer.
        json::escape(s, &mut self.buf);
    }

    /// Emit one complete ("X") duration event. Times are virtual
    /// nanoseconds; `pid` is the simulated rank, `tid` distinguishes
    /// lanes within a rank (0 = MPI phases, 1 = file I/O).
    /// `args` become the event's `args` object (u64 values).
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event field list
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
        args: &[(&str, u64)],
    ) -> io::Result<()> {
        self.sep()?;
        self.buf.clear();
        self.buf.push_str("{\"ph\":\"X\",\"name\":\"");
        self.push_escaped(name);
        self.buf.push_str("\",\"cat\":\"");
        self.push_escaped(cat);
        use std::fmt::Write as _;
        let _ = write!(
            self.buf,
            "\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}",
            start_ns as f64 / 1_000.0,
            end_ns.saturating_sub(start_ns) as f64 / 1_000.0,
        );
        if !args.is_empty() {
            self.buf.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                self.buf.push('"');
                json::escape(k, &mut self.buf);
                let _ = write!(self.buf, "\":{v}");
            }
            self.buf.push('}');
        }
        self.buf.push('}');
        self.w.write_all(self.buf.as_bytes())
    }

    /// Emit a `process_name` metadata event labeling `pid` in the viewer.
    pub fn process_name(&mut self, pid: u32, name: &str) -> io::Result<()> {
        self.sep()?;
        self.buf.clear();
        self.buf
            .push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        use std::fmt::Write as _;
        let _ = write!(self.buf, "{pid},\"args\":{{\"name\":\"");
        self.push_escaped(name);
        self.buf.push_str("\"}}");
        self.w.write_all(self.buf.as_bytes())
    }

    /// Close the document and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.write_all(b"]}")?;
        self.w.flush()?;
        Ok(self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn emits_valid_perfetto_json() {
        let mut w = ChromeTraceWriter::new(Vec::new()).unwrap();
        w.process_name(0, "rank 0").unwrap();
        w.complete(
            "send",
            "mpi",
            0,
            0,
            1_500,
            4_500,
            &[("bytes", 128), ("peer", 1)],
        )
        .unwrap();
        w.complete("file-io", "fs", 2, 1, 10_000, 30_000, &[("bytes", 4096)])
            .unwrap();
        let bytes = w.finish().unwrap();
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).expect("valid JSON");
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 3);
        let send = &evs[1];
        assert_eq!(send.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(send.get("pid").unwrap().as_u64(), Some(0));
        assert_eq!(send.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(send.get("dur").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            send.get("args").unwrap().get("bytes").unwrap().as_u64(),
            Some(128)
        );
        let fs = &evs[2];
        assert_eq!(fs.get("cat").unwrap().as_str(), Some("fs"));
        assert_eq!(fs.get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(fs.get("ts").unwrap().as_f64(), Some(10.0));
    }

    #[test]
    fn empty_trace_is_valid() {
        let w = ChromeTraceWriter::new(Vec::new()).unwrap();
        let bytes = w.finish().unwrap();
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn escapes_names() {
        let mut w = ChromeTraceWriter::new(Vec::new()).unwrap();
        w.complete("a\"b\\c", "t", 0, 0, 0, 1, &[]).unwrap();
        let bytes = w.finish().unwrap();
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs[0].get("name").unwrap().as_str(), Some("a\"b\\c"));
    }
}
