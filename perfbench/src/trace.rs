//! In-memory spans for the traced run.
//!
//! Spans are recorded in the benchmark's own code around each call into
//! a layer's public functions; nothing is traced inside the engine. The
//! phase timers of the `EvalStats` an engine call returns are added as
//! child spans of that call (flagged `from_stats`), laid end to end from
//! the call's start, so the call's self time is the part no phase claims.
//! Spans stay in memory until the run ends and are then written out as
//! one JSON file.

use crate::report::{json_str, median};
use dlo_engine::EvalStats;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub from_stats: bool,
}

/// A span handle; `NONE` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            op: 0,
            stack: vec![],
            spans: vec![],
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts the spans of operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            from_stats: false,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes span `id`; returns its duration in ms (0 when tracing is
    /// off).
    pub fn end(&mut self, id: SpanId) -> f64 {
        if id.0 == usize::MAX {
            return 0.0;
        }
        let now = self.now();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        if let Some(at) = self.stack.iter().rposition(|&open| open == id.0) {
            self.stack.truncate(at);
        }
        (now - span.start_ns) as f64 / 1e6
    }

    /// Closes every span still open, as an operation that failed half
    /// way leaves them.
    pub fn close_open(&mut self) {
        let now = self.now();
        for id in self.stack.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    /// Adds the phase timers of `stats` as children of the closed span
    /// `id` (the engine call that returned them).
    pub fn phases(&mut self, id: SpanId, stats: &EvalStats, eval_name: &'static str) {
        if id.0 == usize::MAX {
            return;
        }
        let p = &stats.phases;
        let mut at = self.spans[id.0].start_ns;
        for (name, ns) in [
            ("intern.setup", p.setup),
            ("storage.edb_index", p.edb_index),
            ("arrange.arrange", p.arrange),
            (eval_name, p.eval),
            ("intern.mint", p.mint),
        ] {
            if ns == 0 {
                continue;
            }
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(id.0),
                op: self.spans[id.0].op,
                from_stats: true,
            });
            at += ns;
        }
    }

    /// Self time in ns of each span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Median self time in ms per span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let own = self.self_ns();
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            by.entry(s.name).or_default().push(ns as f64 / 1e6);
        }
        by.into_iter()
            .map(|(k, v)| (k, (v.len(), v.iter().sum(), median(&v))))
            .collect()
    }

    /// The spans and the self-time table as one JSON document.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in header {
            out += &format!("  {}: {v},\n", json_str(k));
        }
        out += "  \"self_time_ms\": {";
        let table = self.self_ms_by_name();
        let rows: Vec<String> = table
            .iter()
            .map(|(name, (n, total, med))| {
                format!(
                    "\n    {}: {{\"count\": {n}, \"total\": {total}, \"median\": {med}}}",
                    json_str(name)
                )
            })
            .collect();
        out += &rows.join(",");
        out += "\n  },\n  \"spans\": [";
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "\n    {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"from_stats\": {}}}",
                    json_str(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.op,
                    s.from_stats
                )
            })
            .collect();
        out += &spans.join(",");
        out += "\n  ]\n}\n";
        out
    }
}
