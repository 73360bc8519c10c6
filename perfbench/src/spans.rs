//! Host-time spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans are kept in memory while the workload
//! runs and written out once at the end; a layer's self time is its spans'
//! durations minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed host-time interval.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// Name of the wrapped call (`"serve.drain"`, `"core.select_tile"`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child durations), ns.
    pub self_ns: u64,
}

/// In-memory span recorder. When off, [`span`](Self::span) only runs the
/// wrapped closure, so untraced and traced runs execute the same work.
#[derive(Debug)]
pub struct HostSpans {
    on: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<HostSpan>,
}

impl HostSpans {
    /// A recorder, recording only while `on`.
    pub fn new(on: bool) -> Self {
        HostSpans {
            on,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off (closed spans are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; nested calls become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(HostSpan {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Totals of one span name (zero when never recorded).
    pub fn totals_of(&self, name: &str) -> SpanTotals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// The spans as a JSON array of `{name, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = HostSpans::new(true);
        spans.span("outer", |s| {
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = spans.totals();
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!(outer.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn off_records_nothing_but_runs_the_work() {
        let mut spans = HostSpans::new(false);
        let v = spans.span("x", |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(spans.spans().is_empty());
    }
}
