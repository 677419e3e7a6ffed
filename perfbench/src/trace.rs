//! In-memory spans recorded by the traced run around the benchmark's own
//! calls into each layer's public functions, and the self-time arithmetic.
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! statement share its statement id. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub stmt: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("parent", self.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ("stmt", Json::Num(self.stmt as f64)),
            ("name", Json::str(self.name)),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
        ])
    }
}

/// One client thread's span recorder. Ids are unique across lanes, so the
/// spans of several threads merge without renumbering.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u32) -> Tracer {
        Tracer { epoch, next_id: u64::from(lane) << 40, stack: Vec::new(), spans: Vec::new() }
    }

    /// Nanoseconds since the run's shared epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an already finished span as a child of the open span.
    pub fn record(&mut self, name: &'static str, stmt: u64, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.spans.push(Span { id, parent, stmt, name, start_ns, end_ns });
        id
    }

    /// Records an already finished span under an explicit parent.
    pub fn record_child(
        &mut self,
        parent: u64,
        name: &'static str,
        stmt: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span { id, parent: Some(parent), stmt, name, start_ns, end_ns });
    }

    /// Runs `f` inside a span; spans `f` opens become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        stmt: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let start = self.now();
        let id = self.record(name, stmt, start, start);
        let index = self.spans.len() - 1;
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now();
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, stmt: 7, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        // root [0,100): children [10,30) and [20,50) overlap (cover 40),
        // plus [60,70); a grandchild must not count against the root.
        let spans = vec![
            span(1, None, "stmt", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 20, 50),
            span(4, Some(1), "c", 60, 70),
            span(5, Some(4), "d", 61, 69),
            // A child running past its parent only covers the overlap.
            span(6, Some(2), "e", 25, 40),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 5);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10 - 8);
        assert_eq!(selfs[&5], 8);
        assert_eq!(selfs[&6], 15);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| std::hint::black_box(0));
            let now = t.now();
            t.record("done", 1, now, now);
        });
        let outer = &t.spans[0];
        assert_eq!(outer.parent, None);
        assert_eq!(outer.id >> 40, 3);
        assert!(t.spans[1..].iter().all(|s| s.parent == Some(outer.id)));
        assert!(outer.end_ns >= t.spans[1].end_ns);
    }
}
