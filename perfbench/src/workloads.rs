//! The four workloads. Each operation goes through the engine's public
//! API only, and each answer is checked by an oracle that never calls
//! the engine.

use crate::harness::{OpCx, Workload};
use crate::inputs::{apsp_program, edge_tuple, wide, Graph, Rng};
use crate::oracle::{self, check_row, closure_row, WideAnswers};
use crate::report::Samples;
use crate::trace::Tracer;
use dlo_core::{
    magic_rewrite, BoolDatabase, Constant, Database, EvalOutcome, FactDelete, FactInsert, Program,
    Query, QueryArg, DEFAULT_CAP,
};
use dlo_engine::{
    compile, compile_demand, engine_eval_interned, engine_query_eval_with_opts, EngineOpts,
    EvalStats, Interner, Materialization, Strategy,
};
use dlo_pops::Trop;
use std::collections::BTreeMap;
use std::time::Instant;

/// What the harness needs to know about a workload besides its
/// operations.
pub struct Spec {
    pub name: &'static str,
    /// Operations whose work counters are summed (the first ones of a
    /// traced window, identical for a given seed).
    pub counter_ops: usize,
    /// What one operation is, for the printed report.
    pub op: &'static str,
    /// The kinds of call an operation makes, under the names their users
    /// know, each with the per-call latency samples it is reported from
    /// (`"op"`: the operation itself).
    pub kinds: &'static [(&'static str, &'static str)],
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The tail quantile, fixed so that two commits are compared at the same
/// percentile: p80, the highest with at least ten samples beyond it in a
/// 25 s run of `closure_batch` and `wide_ingest`. Higher ones swing with
/// the host's slow spells (`live_view` at p90: quartile spread 0.44 of
/// the median over ten seeds).
pub const TAIL: f64 = 0.8;

pub const NAMES: &[&str] = &["closure_batch", "point_queries", "live_view", "wide_ingest"];

/// Builds workload `name` from `seed`; `smoke` shrinks every input so a
/// whole run takes well under a second.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<(Spec, Box<dyn Workload>)> {
    Some(match name {
        "closure_batch" => (
            Spec {
                name: "closure_batch",
                counter_ops: 1,
                op: "eval: program and EDB in, decoded Database out",
                kinds: &[("eval_ms", "op")],
            },
            Box::new(ClosureBatch::new(seed, smoke)),
        ),
        "point_queries" => (
            Spec {
                name: "point_queries",
                counter_ops: 2,
                op: "burst of 16 cold queries ?- T(s, Y). in, answers out",
                kinds: &[("query_ms", "query.cold_ms")],
            },
            Box::new(PointQueries::new(seed, smoke)),
        ),
        "live_view" => (
            Spec {
                name: "live_view",
                counter_ops: 20,
                op: "edit cycle: edit, query, inverse edit, query",
                kinds: &[
                    ("insert_ms", "incremental.insert_ms"),
                    ("delete_ms", "incremental.delete_ms"),
                    ("query_ms", "query.view_ms"),
                ],
            },
            Box::new(LiveView::new(seed, smoke)),
        ),
        "wide_ingest" => (
            Spec {
                name: "wide_ingest",
                counter_ops: 1,
                op: "eval: program and EDB in, decoded Database out",
                kinds: &[("eval_ms", "op")],
            },
            Box::new(WideIngest::new(seed, smoke)),
        ),
        _ => return None,
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn eval_span_name(s: &EvalStats) -> &'static str {
    if matches!(s.strategy.as_str(), "priority" | "worklist") {
        "worklist.eval"
    } else {
        "driver.eval"
    }
}

fn source_query(s: u32) -> Query {
    Query::new(
        "T",
        vec![QueryArg::bound(Constant::Int(i64::from(s))), QueryArg::Free],
    )
}

/// One full evaluation, as a user calls `engine_eval_with_opts`, split at
/// its two public halves so decode gets its own span: the interned
/// evaluation, then `InternedOutcome::materialize`. In traced windows the
/// compiler is also timed on its own, outside the operation.
fn full_eval(
    program: &Program<Trop>,
    edb: &Database<Trop>,
    tr: &mut Tracer,
    cx: &mut OpCx,
) -> Result<(f64, Database<Trop>), String> {
    if tr.on() {
        let sp = tr.begin("plan.compile");
        let compiled = compile(program, &mut Interner::new());
        cx.add("plan.compile_ms", tr.end(sp));
        compiled.map_err(|e| format!("{e:?}"))?;
    }
    let root = tr.begin("op");
    let t = Instant::now();
    let sp = tr.begin("worklist.engine_eval_interned");
    let out = engine_eval_interned(
        program,
        edb,
        &BoolDatabase::new(),
        DEFAULT_CAP,
        Strategy::Auto,
        &EngineOpts::default(),
    );
    tr.end(sp);
    let Ok(out) = out else {
        tr.end(root);
        return Err(out.err().map(|e| e.to_string()).unwrap_or_default());
    };
    let dec = tr.begin("output.materialize");
    let res = out.materialize();
    cx.add("output.decode_ms", tr.end(dec));
    let ms = ms_since(t);
    tr.end(root);
    tr.phases(sp, res.stats(), eval_span_name(res.stats()));
    cx.engine(res.stats());
    match res {
        EvalOutcome::Converged { output, .. } => Ok((ms, output)),
        EvalOutcome::Diverged { cap, .. } => Err(format!("diverged at the cap {cap}")),
    }
}

/// Repeated full APSP evaluations over `Trop` on one random digraph
/// (1,000 nodes, 1,500 edges, weights 1–9), checked row by row against
/// all-pairs Dijkstra.
pub struct ClosureBatch {
    program: Program<Trop>,
    edb: Database<Trop>,
    closure: Vec<Vec<u64>>,
    rows: usize,
}

impl ClosureBatch {
    pub fn new(seed: u64, smoke: bool) -> ClosureBatch {
        let (n, m) = if smoke { (60, 120) } else { (550, 1650) };
        let g = Graph::random(n, m, 9, &mut Rng::new(seed, 1));
        let closure = oracle::closure(&g.adjacency());
        ClosureBatch {
            program: apsp_program(),
            edb: g.edb(),
            rows: oracle::closure_rows(&closure),
            closure,
        }
    }

    fn eval(&mut self, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        let (ms, db) = full_eval(&self.program, &self.edb, tr, cx)?;
        cx.add("output.support_rows", self.rows as f64);
        // The decoded output is dropped inside the check, so neither
        // counts towards the operation.
        let sp = tr.begin("bench.oracle");
        let checked = cx.check(|| {
            let r = oracle::check_closure(&db, &self.closure);
            drop(db);
            r
        });
        tr.end(sp);
        checked.map(|()| ms)
    }
}

impl Workload for ClosureBatch {
    fn setup(&mut self, _i: usize) -> Result<f64, String> {
        let ms = self.eval(&mut Tracer::new(false), &mut OpCx::default())?;
        Ok(ms / 1e3)
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        self.eval(tr, cx)
    }
}

/// Repeated full evaluations of the arity-4 wide lookup (250,000 facts,
/// 1,000 probes), checked against a direct lookup in the facts.
pub struct WideIngest {
    program: Program<Trop>,
    edb: Database<Trop>,
    answers: WideAnswers,
}

impl WideIngest {
    pub fn new(seed: u64, smoke: bool) -> WideIngest {
        let (rows, probes) = if smoke { (2000, 50) } else { (250_000, 1000) };
        let w = wide(rows, probes, &mut Rng::new(seed, 2));
        WideIngest {
            answers: WideAnswers::new(&w),
            program: w.program,
            edb: w.edb,
        }
    }

    fn eval(&mut self, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        let (ms, db) = full_eval(&self.program, &self.edb, tr, cx)?;
        cx.add("output.support_rows", self.answers.rows() as f64);
        let sp = tr.begin("bench.oracle");
        let checked = cx.check(|| {
            let r = self.answers.check(&db);
            drop(db);
            r
        });
        tr.end(sp);
        checked.map(|()| ms)
    }
}

impl Workload for WideIngest {
    fn setup(&mut self, _i: usize) -> Result<f64, String> {
        let ms = self.eval(&mut Tracer::new(false), &mut OpCx::default())?;
        Ok(ms / 1e3)
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        self.eval(tr, cx)
    }
}

/// Times the magic rewrite and the demand compiler on their own, outside
/// the operation (traced windows only).
fn probe_demand(
    program: &Program<Trop>,
    q: &Query,
    tr: &mut Tracer,
    cx: &mut OpCx,
) -> Result<(), String> {
    let sp = tr.begin("demand.magic_rewrite");
    let dp = magic_rewrite(program, q);
    cx.add("demand.rewrite_ms", tr.end(sp));
    let dp = dp.map_err(|e| e.to_string())?;
    let sp = tr.begin("plan.compile_demand");
    let compiled = compile_demand(&dp.program, &mut Interner::new(), &dp.magic_preds);
    cx.add("plan.compile_ms", tr.end(sp));
    compiled.map(|_| ()).map_err(|e| format!("{e:?}"))
}

/// Cold single-source queries `?- T(s, Y).` against the APSP program on
/// a sparse-frontier digraph (5,000 nodes, 15,000 edges, weights
/// 1–1,000), sources uniform from the seed, checked against Dijkstra.
/// One operation is a burst of [`BURST`] queries sent one after another.
pub struct PointQueries {
    program: Program<Trop>,
    edb: Database<Trop>,
    adj: Vec<Vec<(u32, u32)>>,
    sources: Vec<u32>,
    warmup: Vec<u32>,
}

/// Queries per `point_queries` operation. A single query (about 15 ms)
/// runs wholly inside one of the host's fast or slow spells, which last
/// seconds, so single-query latencies split into two modes and their
/// median jumps between them from run to run; a burst spans enough time
/// to mix them.
const BURST: usize = 16;

impl PointQueries {
    pub fn new(seed: u64, smoke: bool) -> PointQueries {
        let (n, m) = if smoke { (300, 900) } else { (5000, 15_000) };
        let g = Graph::random(n, m, 1000, &mut Rng::new(seed, 3));
        let draw = |stream, k| {
            let mut rng = Rng::new(seed, stream);
            (0..k).map(|_| rng.below(n as u64) as u32).collect()
        };
        PointQueries {
            program: apsp_program(),
            edb: g.edb(),
            adj: g.adjacency(),
            sources: draw(4, 4096 * BURST),
            warmup: draw(7, 8 * BURST),
        }
    }

    fn query(&mut self, s: u32, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        let q = source_query(s);
        let t = Instant::now();
        let sp = tr.begin("query.engine_query_eval_with_opts");
        let ans = engine_query_eval_with_opts(
            &self.program,
            &q,
            &self.edb,
            &BoolDatabase::new(),
            DEFAULT_CAP,
            Strategy::Auto,
            &EngineOpts::default(),
        );
        tr.end(sp);
        let ans = ans.map_err(|e| e.to_string())?;
        let dec = tr.begin("output.answers");
        let rel = ans.answers();
        cx.add("output.decode_ms", tr.end(dec));
        let ms = ms_since(t);
        tr.phases(sp, ans.stats(), eval_span_name(ans.stats()));
        cx.engine(ans.stats());
        cx.add("output.support_rows", rel.support_size() as f64);
        cx.calls.add("query.cold_ms", ms);
        let s = s as usize;
        let sp = tr.begin("bench.oracle");
        let checked = cx.check(|| check_row(&rel, s, &closure_row(&self.adj, s)));
        tr.end(sp);
        checked.map(|()| ms)
    }

    /// Sends `sources` one after another; returns the summed latency.
    fn burst(&mut self, sources: &[u32], tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        if tr.on() {
            for &s in sources {
                probe_demand(&self.program, &source_query(s), tr, cx)?;
            }
        }
        let root = tr.begin("op");
        let ms = sources
            .iter()
            .try_fold(0.0, |sum, &s| Ok::<_, String>(sum + self.query(s, tr, cx)?));
        tr.end(root);
        ms
    }
}

impl Workload for PointQueries {
    fn setup(&mut self, i: usize) -> Result<f64, String> {
        let sources = self.warmup[i * BURST % self.warmup.len()..][..BURST].to_vec();
        let ms = self.burst(&sources, &mut Tracer::new(false), &mut OpCx::default())?;
        Ok(ms / 1e3)
    }

    fn op(&mut self, i: usize, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        let at = i * BURST % self.sources.len();
        let sources = self.sources[at..at + BURST].to_vec();
        self.burst(&sources, tr, cx)
    }
}

/// One cycle of the live-view stream. Each cycle leaves the EDB as it
/// found it, so the view does not drift over a run.
#[derive(Clone, Copy, Debug)]
enum Cycle {
    /// Insert the absent edge `u → v`, query from `u`, delete the edge,
    /// query from `s`.
    Fresh { u: u32, v: u32, w: u32, s: u32 },
    /// Delete the original edge `u → v`, query from `u`, reinsert it with
    /// its weight, query from `s`.
    Original { u: u32, v: u32, w: u32, s: u32 },
}

/// One `Materialization` of APSP over a random digraph (400 nodes, 600
/// edges) under a seeded stream of single-edge inserts and deletes, each
/// followed by a `Materialization::query` read.
pub struct LiveView {
    program: Program<Trop>,
    graph: Graph,
    /// The current edge set, the oracle's view of the EDB.
    edges: Graph,
    plan: Vec<Cycle>,
    view: Option<Materialization<Trop>>,
    view_rows: usize,
}

impl LiveView {
    pub fn new(seed: u64, smoke: bool) -> LiveView {
        let (n, m) = if smoke { (40, 80) } else { (230, 690) };
        let graph = Graph::random(n, m, 9, &mut Rng::new(seed, 5));
        let originals: Vec<_> = graph.edges.iter().map(|(&e, &w)| (e, w)).collect();
        let mut rng = Rng::new(seed, 6);
        let plan = (0..4096)
            .map(|_| {
                let s = rng.below(n as u64) as u32;
                if rng.below(2) == 0 {
                    let ((u, v), w) = originals[rng.below(m as u64) as usize];
                    return Cycle::Original { u, v, w, s };
                }
                loop {
                    let u = rng.below(n as u64) as u32;
                    let v = rng.below(n as u64) as u32;
                    if u != v && !graph.edges.contains_key(&(u, v)) {
                        let w = 1 + rng.below(9) as u32;
                        return Cycle::Fresh { u, v, w, s };
                    }
                }
            })
            .collect();
        LiveView {
            program: apsp_program(),
            edges: graph.clone(),
            graph,
            plan,
            view: None,
            view_rows: 0,
        }
    }

    fn view(&mut self) -> Result<&mut Materialization<Trop>, String> {
        self.view.as_mut().ok_or_else(|| "no live view".to_string())
    }

    fn insert(
        &mut self,
        u: u32,
        v: u32,
        w: u32,
        tr: &mut Tracer,
        cx: &mut OpCx,
    ) -> Result<f64, String> {
        let batch = [FactInsert::new(
            "E",
            edge_tuple(u, v),
            Trop::finite(f64::from(w)),
        )];
        let sp = tr.begin("incremental.insert");
        let t = Instant::now();
        let stats = self
            .view()?
            .insert(&batch)
            .map_err(|e| e.to_string())?
            .clone();
        let ms = ms_since(t);
        tr.end(sp);
        tr.phases(sp, &stats, "driver.eval");
        cx.engine(&stats);
        cx.add("incremental.insert_emits", stats.counters.emits as f64);
        cx.calls.add("incremental.insert_ms", ms);
        self.edges.edges.insert((u, v), w);
        Ok(ms)
    }

    fn delete(&mut self, u: u32, v: u32, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        let batch = [FactDelete::new("E", edge_tuple(u, v))];
        let sp = tr.begin("incremental.delete");
        let t = Instant::now();
        let stats = self
            .view()?
            .delete(&batch)
            .map_err(|e| e.to_string())?
            .clone();
        let ms = ms_since(t);
        tr.end(sp);
        tr.phases(sp, &stats, "driver.eval");
        cx.engine(&stats);
        cx.add("incremental.delete_emits", stats.counters.emits as f64);
        cx.calls.add("incremental.delete_ms", ms);
        self.edges.edges.remove(&(u, v));
        Ok(ms)
    }

    /// Reads `?- T(s, Y).` from the view: the snapshot refresh an edit
    /// leaves due, then the query. Checks the answers and the view's own
    /// row `T(s, ·)` against Dijkstra on the current edges.
    fn query(&mut self, s: u32, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        let q = source_query(s);
        let t = Instant::now();
        let sp = tr.begin("incremental.output");
        self.view()?.output();
        let snap = tr.end(sp);
        let sp = tr.begin("query.materialization_query");
        let ans = self.view()?.query(&q).map_err(|e| e.to_string());
        let q_ms = tr.end(sp);
        let ans = ans?;
        let dec = tr.begin("output.answers");
        let rel = ans.answers();
        cx.add("output.decode_ms", tr.end(dec));
        let ms = ms_since(t);
        tr.phases(sp, ans.stats(), eval_span_name(ans.stats()));
        cx.engine(ans.stats());
        cx.add("output.support_rows", rel.support_size() as f64);
        cx.calls.add("incremental.snapshot_ms", snap);
        cx.calls.add("query.eval_ms", q_ms);
        cx.calls.add("query.view_ms", ms);
        let s = s as usize;
        let row = closure_row(&self.edges.adjacency(), s);
        let view = self.view.as_ref().ok_or("no live view")?;
        let sp = tr.begin("bench.oracle");
        let checked = cx.check(|| {
            check_row(&rel, s, &row)?;
            for (y, &d) in row.iter().enumerate() {
                let got = view
                    .get("T", &edge_tuple(s as u32, y as u32))
                    .map(Trop::get);
                let want = (d != oracle::UNREACHED).then_some(d as f64);
                if got != want {
                    return Err(format!("view T({s}, {y}) = {got:?}, the oracle {want:?}"));
                }
            }
            Ok(())
        });
        tr.end(sp);
        checked.map(|()| ms)
    }

    /// Checks every row of the view against all-pairs Dijkstra.
    fn check_view(&self) -> Result<(), String> {
        let view = self.view.as_ref().ok_or("no live view")?;
        let closure = oracle::closure(&self.edges.adjacency());
        let want = oracle::closure_rows(&closure);
        if view.support_size("T") != want {
            return Err(format!(
                "the view has {} rows, the oracle {want}",
                view.support_size("T")
            ));
        }
        for (x, row) in closure.iter().enumerate() {
            for (y, &d) in row.iter().enumerate() {
                let got = view
                    .get("T", &edge_tuple(x as u32, y as u32))
                    .map(Trop::get);
                if got != (d != oracle::UNREACHED).then_some(d as f64) {
                    return Err(format!(
                        "view T({x}, {y}) = {got:?} disagrees with the oracle"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Workload for LiveView {
    fn setup(&mut self, _i: usize) -> Result<f64, String> {
        self.view = None;
        let t = Instant::now();
        let view = Materialization::new(
            &self.program,
            &self.graph.edb(),
            &BoolDatabase::new(),
            DEFAULT_CAP,
            Strategy::Auto,
            &EngineOpts::default(),
        )
        .map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        self.view_rows = view.support_size("T");
        self.view = Some(view);
        self.check_view()?;
        Ok(secs)
    }

    fn op(&mut self, i: usize, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String> {
        let cycle = self.plan[i % self.plan.len()];
        if tr.on() {
            let (Cycle::Fresh { u, s, .. } | Cycle::Original { u, s, .. }) = cycle;
            for src in [u, s] {
                probe_demand(&self.program, &source_query(src), tr, cx)?;
            }
        }
        let root = tr.begin("op");
        let r = match cycle {
            Cycle::Fresh { u, v, w, s } => (|| {
                Ok(self.insert(u, v, w, tr, cx)?
                    + self.query(u, tr, cx)?
                    + self.delete(u, v, tr, cx)?
                    + self.query(s, tr, cx)?)
            })(),
            Cycle::Original { u, v, w, s } => (|| {
                Ok(self.delete(u, v, tr, cx)?
                    + self.query(u, tr, cx)?
                    + self.insert(u, v, w, tr, cx)?
                    + self.query(s, tr, cx)?)
            })(),
        };
        tr.end(root);
        if r.is_err() {
            // A failed edit may leave the view poisoned or the oracle's
            // edge set out of step; start the next cycle from a fresh
            // build of the original graph.
            self.edges = self.graph.clone();
            self.setup(0)?;
        }
        r
    }

    fn finish(&mut self, cx: &mut OpCx) -> Result<(), String> {
        cx.check(|| self.check_view())
    }

    fn layer_extras(&self, counters: &BTreeMap<&'static str, f64>, out: &mut Samples) {
        if self.view_rows > 0 {
            let per = counters
                .get("incremental.delete_emits")
                .copied()
                .unwrap_or(0.0);
            out.add("incremental.view_rows", self.view_rows as f64);
            out.add(
                "incremental.delete_emits_per_view_row",
                per / self.view_rows as f64,
            );
        }
    }
}
