//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written as JSONL when the workload ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` is an index into the same span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. Disabled (the untraced pass) it records nothing and
/// every call is a branch on a bool. Open spans form a stack: a span's
/// parent is whichever span was open when it was recorded.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation index stamped on spans recorded from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an interval stamped elsewhere as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// Opens a span; spans recorded until the matching [`Self::end`] are
    /// its children.
    pub fn begin(&mut self, name: &'static str) {
        if self.enabled {
            let now = Instant::now();
            self.record(name, now, now);
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent`
    /// (line index or null), `op`, and `self_ns`.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"self_ns\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op, own
            );
        }
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other
/// (concurrent node processes), so their union is measured, clipped to
/// the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.end_ns - span.start_ns - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child
            span(60, 70, Some(0)),  // disjoint child
            span(25, 28, Some(2)),  // grandchild: no effect on the root
            span(90, 120, Some(0)), // runs past the parent: clipped at 100
        ];
        let own = self_times(&spans);
        // Root: 100 − ([10,50] ∪ [60,70] ∪ [90,100]) = 100 − 60.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 27);
        assert_eq!(own[4], 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", || 7), 7);
        assert!(spans.all().is_empty());
        assert_eq!(spans.to_jsonl(), "");
    }

    #[test]
    fn jsonl_carries_parent_op_and_self_time() {
        let mut spans = Spans::new(true);
        spans.set_op(3);
        spans.begin("op");
        let t0 = Instant::now();
        spans.record("child", t0, t0 + std::time::Duration::from_nanos(200));
        // Let the parent outlast the child's stamped end.
        std::thread::sleep(std::time::Duration::from_millis(1));
        spans.end();
        spans.record("sibling", t0, t0);
        let own = self_times(spans.all());
        assert_eq!(own[1], 200);
        assert_eq!(
            own[0] + 200,
            spans.all()[0].end_ns - spans.all()[0].start_ns
        );
        let text = spans.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"op\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[0].contains("\"op\":3"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"self_ns\":200"));
        assert!(lines[2].contains("\"parent\":null"));
    }
}
