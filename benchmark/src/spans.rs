//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer from this crate: name, start, end and
//! the span that was open when it started. Handler- and scheduler-level
//! calls (a million per run) are not kept as spans; their
//! [`LayerStats`] tables are attached to the span they ran under as
//! *aggregates*. A layer's self time is its span minus its child spans and
//! aggregates. Everything is written out once, when the run ends.

use std::time::Instant;

use crate::json::Json;
use crate::timed::LayerStats;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

struct Aggregate {
    layer: &'static str,
    parent: Option<usize>,
    stats: LayerStats,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggregates: Vec<Aggregate>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        r
    }

    /// Attaches a wrapper layer's totals to the innermost open span.
    pub fn aggregate(&mut self, layer: &'static str, stats: LayerStats) {
        self.aggregates.push(Aggregate {
            layer,
            parent: self.open.last().copied(),
            stats,
        });
    }

    /// Seconds spent in spans named `name` since span number `from`
    /// (summed: a sweep opens the same span once per trial).
    pub fn secs_since(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Every aggregate of `layer` attached since span number `from`, added
    /// up (a sweep attaches one per trial).
    pub fn stats_since(&self, from: usize, layer: &str) -> LayerStats {
        let mut total = LayerStats::default();
        for a in &self.aggregates {
            if a.layer == layer && a.parent.is_some_and(|p| p >= from) {
                total.merge(&a.stats);
            }
        }
        total
    }

    /// Number of spans recorded so far; a mark for [`secs_since`](Self::secs_since).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The trace document written to `trace/<workload>.json`.
    pub fn to_json(&self, workload: &str) -> Json {
        let parent = |p: Option<usize>| p.map_or(Json::Null, |p| Json::Num(p as f64));
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", parent(s.parent)),
                ])
            })
            .collect();
        let aggregates = self
            .aggregates
            .iter()
            .map(|a| {
                let total = a.stats.total();
                let ops = a.stats.ops().iter().map(|(op, s)| {
                    (
                        *op,
                        Json::obj([
                            ("calls", Json::Num(s.calls as f64)),
                            ("total_ns", Json::Num(s.ns as f64)),
                            ("max_ns", Json::Num(s.max_ns as f64)),
                        ]),
                    )
                });
                Json::obj([
                    ("layer", Json::str(a.layer)),
                    ("parent", parent(a.parent)),
                    ("calls", Json::Num(total.calls as f64)),
                    ("total_ns", Json::Num(total.ns as f64)),
                    ("ops", Json::obj(ops)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans", Json::Arr(spans)),
            ("aggregates", Json::Arr(aggregates)),
        ])
    }
}
