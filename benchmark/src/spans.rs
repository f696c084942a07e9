//! The benchmark's own spans: recorded around the calls into each layer
//! (never inside the program), kept in memory, and written as a Chrome
//! `trace_event` file plus a self-time table when the workload ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub rep: u32,
    /// Display row in the trace viewer: 0 for the driver's own spans,
    /// `1 + pair` for engine events adopted from a pair.
    pub lane: u32,
}

pub struct Spans {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

/// One row of the self-time table, aggregated by span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            origin: Instant::now(),
            workload: workload.to_owned(),
            spans: Vec::new(),
        }
    }

    /// The instant stamps are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<usize>, rep: u32) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent, rep, 0)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Adopts an event the engine already publishes as a child of `parent`:
    /// `start`/`end` are nanoseconds since the parent span began (the
    /// engine stamps its events relative to the start of the run).
    pub fn adopt(&mut self, name: &str, parent: usize, start: u64, end: u64, lane: u32) {
        let (base, rep) = (self.spans[parent].start_ns, self.spans[parent].rep);
        self.push(
            name,
            base + start,
            base + end.max(start),
            Some(parent),
            rep,
            lane,
        );
    }

    fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        rep: u32,
        lane: u32,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            rep,
            lane,
        });
        self.spans.len() - 1
    }

    /// Records a span after the fact, from stamps taken elsewhere (a rep
    /// runs on its own watchdog thread and reports its phase instants).
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        rep: u32,
    ) -> usize {
        self.push(name, start_ns, end_ns.max(start_ns), parent, rep, 0)
    }

    /// A span's self time is its duration minus the part of its interval
    /// that its child spans cover (children on parallel pairs overlap, so
    /// the cover is a union, clipped to the parent).
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
            }
        }
        let mut rows: BTreeMap<&str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            let total = s.end_ns - s.start_ns;
            let row = rows.entry(&s.name).or_insert_with(|| SelfTime {
                name: s.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += total;
            row.self_ns += total - covered;
        }
        let mut rows: Vec<SelfTime> = rows.into_values().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
        rows
    }

    /// Chrome `trace_event` JSON (complete events, microsecond stamps).
    pub fn chrome_json(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::str(&s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(i64::from(s.lane))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(id as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("workload", Json::str(&self.workload)),
                        ("rep", Json::Int(i64::from(s.rep))),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                    ]),
                ),
            ])
        });
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events.collect())),
        ])
    }

    /// The self-time table, for stderr.
    pub fn self_time_table(&self) -> String {
        let mut out = format!(
            "self time per span name, workload {} (duration minus child cover)\n  {:<34} {:>6} {:>12} {:>12}\n",
            self.workload, "span", "count", "total ms", "self ms"
        );
        for r in self.self_times() {
            out += &format!(
                "  {:<34} {:>6} {:>12.3} {:>12.3}\n",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [SelfTime], name: &str) -> &'a SelfTime {
        rows.iter().find(|r| r.name == name).unwrap()
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_cover() {
        let mut s = Spans::new("t");
        let run = s.record("run", 0, 100, None, 0);
        // Two overlapping children on parallel pairs, one disjoint, one
        // sticking out past the parent (clipped).
        s.record("map", 10, 40, Some(run), 0);
        s.record("map", 30, 50, Some(run), 0);
        s.record("reduce", 60, 70, Some(run), 0);
        s.record("reduce", 90, 130, Some(run), 0);
        let rows = s.self_times();
        // cover = [10,50] + [60,70] + [90,100] = 60
        assert_eq!(row(&rows, "run").self_ns, 40);
        assert_eq!(row(&rows, "run").total_ns, 100);
        assert_eq!(row(&rows, "map").count, 2);
        assert_eq!(row(&rows, "map").self_ns, 50);
    }

    #[test]
    fn adopted_events_are_offset_from_their_parent() {
        let mut s = Spans::new("t");
        let run = s.record("run", 1_000, 2_000, None, 0);
        s.adopt("MapPhase", run, 100, 300, 2);
        let child = &s.spans[1];
        assert_eq!((child.start_ns, child.end_ns), (1_100, 1_300));
        assert_eq!((child.parent, child.lane), (Some(run), 2));
        let text = s.chrome_json().render();
        assert!(text.contains(r#""name": "MapPhase""#) && text.contains(r#""parent": 0"#));
    }
}
