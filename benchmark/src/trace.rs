//! In-memory spans recorded by the benchmark around its calls into the
//! program, and the self-time arithmetic the per-layer metrics use.
//!
//! The program's own tracing (`lamps_obs::enable_tracing`) is never
//! switched on: every span here is taken from the benchmark's side of a
//! public entry point, so the program under test runs unchanged.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.list_schedule`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or graph, or stream) the span belongs to.
    pub req: u64,
}

/// A span recorder. Spans nest through an explicit stack: [`Tracer::open`]
/// makes the new span the parent of everything opened before its
/// [`Tracer::close`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the origin for `t` (0 for instants before it).
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now, nested under the innermost open span.
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        let idx = self.push(name, start_ns, start_ns, req);
        self.stack.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.open(name, req);
        let r = f(self);
        self.close(idx);
        r
    }

    /// Record an already-finished interval under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, s, e.max(s), req);
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.spans.len() - 1
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it covered by the union of its children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let t = self_time_ns((s.start_ns, s.end_ns), kids);
            *out.entry(s.name).or_insert(0.0) += t as f64 * 1e-9;
        }
        out
    }

    /// The spans as a JSON document, one span per line.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = writeln!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Duration of `span` minus the length of the union of `children`
/// clipped to it. Children may overlap one another (parallel work) and
/// are reordered in place.
pub fn self_time_ns(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = span;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 20), (50, 60)]), 80);
        // Overlapping children count their union once.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 40), (30, 60)]), 50);
        // A child nested in another child.
        assert_eq!(self_time_ns((0, 100), &mut [(50, 60), (10, 90)]), 20);
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time_ns((10, 100), &mut [(0, 30), (90, 150)]), 60);
        // Full cover and no children.
        assert_eq!(self_time_ns((0, 100), &mut [(0, 100), (20, 30)]), 0);
        assert_eq!(self_time_ns((5, 9), &mut []), 4);
    }

    #[test]
    fn tracer_nests_and_aggregates_by_name() {
        let mut t = Tracer::new();
        let root = t.open("root", 0);
        let a = t.open("child", 1);
        t.close(a);
        let b = t.open("child", 2);
        t.close(b);
        t.close(root);
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = t.self_seconds();
        let total = (spans[0].end_ns - spans[0].start_ns) as f64 * 1e-9;
        let sum: f64 = selfs.values().sum();
        assert!((sum - total).abs() < 1e-12, "self times partition the root");
        let json = t.to_json("unit");
        assert!(lamps_obs::json::parse(&json).is_ok());
    }
}
