//! Client-side spans around the public calls of one operation.
//!
//! Every span carries the op's index in the plan, its kind, and its
//! parent. Spans are kept in memory and written as JSON lines when the
//! run ends; nothing is recorded inside the program under test.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The root span of every op; children name it as their parent.
pub const OP_SPAN: &str = "op";

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub op: usize,
    pub kind: &'static str,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one op while it runs; handed back to the run when the
/// op ends.
pub struct OpTrace {
    epoch: Instant,
    op: usize,
    kind: &'static str,
    pub spans: Vec<SpanRec>,
}

impl OpTrace {
    pub fn new(epoch: Instant, op: usize, kind: &'static str) -> Self {
        OpTrace { epoch, op, kind, spans: Vec::with_capacity(8) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a child of the op span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(SpanRec {
            op: self.op,
            kind: self.kind,
            name,
            parent: Some(OP_SPAN),
            start_ns,
            end_ns,
        });
        out
    }

    /// Close the op: the root span runs from `started` for `latency`
    /// (the output check that follows an op is not part of it).
    pub fn finish(mut self, started: Instant, latency: std::time::Duration) -> Vec<SpanRec> {
        let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(SpanRec {
            op: self.op,
            kind: self.kind,
            name: OP_SPAN,
            parent: None,
            start_ns,
            end_ns: start_ns + latency.as_nanos() as u64,
        });
        self.spans
    }
}

/// Time `f` under `name` if the op is traced, else just call it.
pub fn span<T>(trace: &mut Option<&mut OpTrace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(tr) => tr.span(name, f),
        None => f(),
    }
}

/// Share of the op span its children do not cover.
pub fn unattributed_frac(op_spans: &[&SpanRec]) -> Option<f64> {
    let root = op_spans.iter().find(|s| s.parent.is_none())?;
    let covered: u64 = op_spans.iter().filter(|s| s.parent.is_some()).map(|s| s.dur_ns()).sum();
    let total = root.dur_ns();
    (total > 0).then(|| total.saturating_sub(covered) as f64 / total as f64)
}

pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = match s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"op\":{},\"kind\":\"{}\",\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.kind, s.name, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
