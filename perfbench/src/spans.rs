//! Spans recorded around the benchmark's own calls into each layer, kept
//! in memory and written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::timeline::{Clock, Span};

/// An append-only span list on one clock.
pub struct SpanLog {
    clock: Clock,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log on `clock` (share it with the run's timeline so the
    /// two span sets line up).
    pub fn new(clock: Clock) -> Self {
        SpanLog {
            clock,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: Option<usize>,
    ) -> usize {
        let t = (self.clock)();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let t = (self.clock)();
        let span = &mut self.spans[id];
        span.end = t;
        t.saturating_sub(span.start)
    }

    /// Moves the start of span `id` to `t`.
    pub fn set_start(&mut self, id: usize, t: u64) {
        self.spans[id].start = t;
    }

    /// Moves the end of span `id` to `t`.
    pub fn set_end(&mut self, id: usize, t: u64) {
        self.spans[id].end = t;
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, round);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    /// Appends spans built elsewhere (their parents index `spans`),
    /// re-parenting their roots under `parent`.
    pub fn adopt(&mut self, spans: Vec<Span>, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// The spans so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The finished span list.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals: `(count, total ns, self ns)`, where self time is a
/// span's duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end.saturating_sub(s.start);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let d = s.end.saturating_sub(s.start);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += d;
        e.2 += d.saturating_sub(kids);
    }
    out
}

/// The spans as one JSON document (times in microseconds).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let round = s.round.map_or("null".to_string(), |r| r.to_string());
        let _ = write!(
            out,
            "{}{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"round\":{round}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start as f64 / 1e3,
            s.end as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", 0, 100, None),
            span("wave", 10, 40, Some(0)),
            span("client", 12, 30, Some(1)),
            span("wave", 50, 80, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"], (1, 100, 40));
        assert_eq!(t["wave"], (2, 60, 42));
        assert_eq!(t["client"], (1, 18, 18));
    }

    #[test]
    fn adopt_rebases_parents() {
        let clock: Clock = std::sync::Arc::new(|| 0);
        let mut log = SpanLog::new(clock);
        let root = log.open("run", None, None);
        log.adopt(
            vec![span("round", 0, 5, None), span("wave", 1, 2, Some(0))],
            Some(root),
        );
        assert_eq!(log.spans()[1].parent, Some(root));
        assert_eq!(log.spans()[2].parent, Some(1));
        let json = to_json(log.spans());
        assert!(json.contains("\"name\":\"wave\""));
        assert!(json.contains("\"parent\":1"));
    }
}
