//! In-memory spans for the traced replay.
//!
//! Each span records a layer call: its name, start and end (nanoseconds
//! since the tracer's origin), the span that caused it and the statement
//! it served. Spans stay in memory until [`Tracer::write_jsonl`] runs at
//! the end of the benchmark, so writing them costs the measured calls
//! nothing.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub stmt: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), stmt: 0 }
    }

    /// Attribute the spans begun from now on to statement `stmt`.
    pub fn set_stmt(&mut self, stmt: u64) {
        self.stmt = stmt;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            stmt: self.stmt,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one); returns its duration.
    pub fn end(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object a line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"stmt\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.stmt, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap each other; each instant
/// is subtracted once). Indexed like `spans`, whose ids are positions.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, stmt: 0, name: "t", start_ns, end_ns }
    }

    #[test]
    fn nested_spans_subtract_each_level_once() {
        // 0 [0, 100) ⊃ 1 [10, 60) ⊃ 2 [20, 30)
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_add_and_overlaps_count_once() {
        // Disjoint siblings [10, 20) and [30, 45) under [0, 50).
        let spans = [
            span(0, None, 0, 50),
            span(1, Some(0), 10, 20),
            span(2, Some(0), 30, 45),
        ];
        assert_eq!(self_times(&spans), vec![25, 10, 15]);
        // Overlapping siblings [10, 30) and [20, 40): 30 ns covered.
        let spans = [
            span(0, None, 0, 50),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
        ];
        assert_eq!(self_times(&spans)[0], 20);
        // A child sticking out of its parent only covers the inside part.
        let spans = [span(0, None, 0, 50), span(1, Some(0), 40, 70)];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_links_parents_and_statements() {
        let mut t = Tracer::new();
        t.set_stmt(7);
        let outer = t.begin("outer");
        let inner = t.span("inner", || 42);
        assert_eq!(inner, 42);
        t.end(outer);
        t.set_stmt(8);
        t.span("next", || ());
        let s = t.spans();
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].stmt, s[1].stmt, s[2].stmt), (7, 7, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0] + selfs[1], s[0].duration_ns());
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"stmt\":7,\"name\":\"outer\""));
    }
}
