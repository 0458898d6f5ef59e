//! The benchmark's own tracer: spans recorded around calls into the
//! library's public functions, kept in memory and written out when the run
//! ends.
//!
//! A span is a name, a start and end on one monotonic clock, the span that
//! encloses it and the op (pass or query stream) it belongs to.  Self time
//! is a span's duration minus the time its child spans cover.  Every pass
//! is itself a root span named `pass`, so its self time is the pass's
//! `unattributed` remainder: wall time no layer span accounts for.
//!
//! Recording is off unless [`start`] was called; a disabled [`span`] costs
//! one thread-local access.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The op id of spans recorded outside a pass: the one-off measurements
/// made after the traced passes.
pub const AUX: u64 = u64::MAX;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    op: u64,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn start() {
    RECORDER.with(|cell| {
        *cell.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            op: AUX,
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Attributes the spans that follow to `op`.
pub fn set_op(op: u64) {
    RECORDER.with(|cell| {
        if let Some(recorder) = cell.borrow_mut().as_mut() {
            recorder.op = op;
        }
    });
}

/// Stops recording and returns every span recorded.
pub fn finish() -> Vec<SpanRecord> {
    RECORDER.with(|cell| cell.borrow_mut().take().map_or_else(Vec::new, |r| r.spans))
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|cell| {
        cell.borrow_mut().as_mut().map(|recorder| {
            let index = recorder.spans.len();
            recorder.spans.push(SpanRecord {
                name,
                op: recorder.op,
                parent: recorder.open.last().copied(),
                start_ns: recorder.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            recorder.open.push(index);
            index
        })
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|cell| {
            if let Some(recorder) = cell.borrow_mut().as_mut() {
                recorder.spans[index].end_ns = recorder.epoch.elapsed().as_nanos() as u64;
                recorder.open.pop();
            }
        });
    }
    out
}

/// Self times of a finished trace, aggregated per op and per call.
pub struct Analysis {
    pub spans: Vec<SpanRecord>,
    pub self_ns: Vec<u64>,
    per_op: BTreeMap<(u64, &'static str), u64>,
}

impl Analysis {
    pub fn new(spans: Vec<SpanRecord>) -> Analysis {
        let mut self_ns: Vec<u64> = spans.iter().map(SpanRecord::duration_ns).collect();
        for span in &spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        let mut per_op = BTreeMap::new();
        for (span, &own) in spans.iter().zip(&self_ns) {
            *per_op.entry((span.op, span.name)).or_insert(0) += own;
        }
        Analysis {
            spans,
            self_ns,
            per_op,
        }
    }

    /// Self time of `name` within `op`, in seconds.
    pub fn op_self_s(&self, op: u64, name: &str) -> f64 {
        self.per_op
            .iter()
            .filter(|((o, n), _)| *o == op && *n == name)
            .fold(0.0, |total, (_, &ns)| total + ns as f64 / 1e9)
    }

    /// Whether any span of `op` is named `name`.
    pub fn has(&self, op: u64, name: &str) -> bool {
        self.per_op.keys().any(|&(o, n)| o == op && n == name)
    }

    /// Self time of each call of `name`, in nanoseconds.
    pub fn calls_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(span, _)| span.name == name)
            .map(|(_, &ns)| ns as f64)
            .collect()
    }

    /// The trace as JSON lines: one record per span, then `extra` lines.
    pub fn dump(&self, extra: &[String]) -> String {
        let mut out = String::new();
        for (index, (span, own)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let op = match span.op {
                AUX => "\"aux\"".to_string(),
                pass => pass.to_string(),
            };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        for line in extra {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        set_op(1);
        span("pass", || {
            span("child", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let analysis = Analysis::new(finish());
        assert_eq!(analysis.spans.len(), 2);
        assert_eq!(analysis.spans[1].parent, Some(0));
        let pass = analysis.op_self_s(1, "pass");
        let child = analysis.op_self_s(1, "child");
        assert!(child >= 0.02, "{child}");
        assert!(pass < child, "pass self {pass} vs child {child}");
        assert!(analysis.has(1, "child"));
        assert!(!analysis.has(2, "child"));
    }

    #[test]
    fn disabled_span_records_nothing() {
        assert_eq!(span("off", || 7), 7);
        assert!(finish().is_empty());
    }
}
