//! The closed loop shared by every workload: one client, each call
//! waiting for the previous one, on the engine's default thread count.
//!
//! A run sets up several times (the median is `setup_s`), then measures
//! for the requested seconds. Untraced, the whole time is one window.
//! Traced, the first half is an untraced window and the second a traced
//! one, so the run can report its own tracing overhead. Each window
//! restarts the workload's seeded operation stream at index 0.

use crate::report::{median, Samples};
use crate::trace::Tracer;
use dlo_engine::EvalStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub trait Workload {
    /// One set-up: the untimed warm-up operation, or building the state
    /// the operations run on. Returns its duration in seconds.
    fn setup(&mut self, i: usize) -> Result<f64, String>;

    /// Operation `i` of the seeded stream. Returns its latency in ms
    /// (oracle checks excluded), or why it failed: an engine error or an
    /// answer the oracle rejects.
    fn op(&mut self, i: usize, tr: &mut Tracer, cx: &mut OpCx) -> Result<f64, String>;

    /// A last check of the state after the run, if the workload keeps
    /// one.
    fn finish(&mut self, _cx: &mut OpCx) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer values only the workload can compute, from the reduced
    /// counters.
    fn layer_extras(&self, _counters: &BTreeMap<&'static str, f64>, _out: &mut Samples) {}
}

/// Counters of `EvalStats` (and of the benchmark's own calls) that
/// repeat exactly for a given seed, at any thread count.
pub const COUNTERS: &[&str] = &[
    "arrange.batches_merged",
    "arrange.merge_join_steps",
    "exec.emits",
    "exec.index_probes",
    "exec.tuples_scanned",
    "exec.useful",
    "incremental.delete_emits",
    "incremental.insert_emits",
    "output.support_rows",
    "par.parallel_batches",
    "par.tasks_spawned",
    "par.threads",
    "worklist.steps",
];

/// What one operation leaves behind besides its latency.
#[derive(Default)]
pub struct OpCx {
    /// Values summed over the current operation's calls.
    per_op: BTreeMap<&'static str, f64>,
    /// Per-call timing samples (median at the end).
    pub calls: Samples,
    /// Time spent in oracle checks during the window.
    pub check: Duration,
}

impl OpCx {
    pub fn add(&mut self, name: &'static str, x: f64) {
        *self.per_op.entry(name).or_default() += x;
    }

    /// Runs an oracle check, timing it apart from the operation.
    pub fn check<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.check += t.elapsed();
        r
    }

    /// Adds what an engine call's `EvalStats` says about each layer.
    pub fn engine(&mut self, s: &EvalStats) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let c = &s.counters;
        self.add("intern.setup_ms", ms(s.phases.setup));
        self.add("storage.edb_index_ms", ms(s.phases.edb_index));
        self.add("arrange.arrange_ms", ms(s.phases.arrange));
        let frontier = matches!(s.strategy.as_str(), "priority" | "worklist");
        if frontier {
            self.add("worklist.eval_ms", ms(s.phases.eval));
            self.add("worklist.steps", s.steps as f64);
        } else {
            self.add("driver.eval_ms", ms(s.phases.eval));
        }
        self.add("arrange.merge_join_steps", c.merge_join_steps as f64);
        self.add("arrange.batches_merged", c.arrange_batches_merged as f64);
        self.add("exec.emits", c.emits as f64);
        self.add("exec.index_probes", c.index_probes as f64);
        self.add("exec.tuples_scanned", c.tuples_scanned as f64);
        self.add("exec.useful", (c.rows_inserted + c.rows_improved) as f64);
        self.add("par.tasks_spawned", s.tasks_spawned as f64);
        self.add("par.parallel_batches", s.parallel_batches as f64);
        let threads = self.per_op.entry("par.threads").or_default();
        *threads = threads.max(s.threads as f64);
    }
}

pub struct Window {
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations per second of the window's wall time, oracle checks
    /// excluded.
    pub ops_per_s: f64,
    pub cx: OpCx,
    /// Per-operation samples of every per-op value, and the counter sums
    /// over the first `counter_ops` operations.
    pub per_op: Samples,
    pub counters: BTreeMap<&'static str, f64>,
}

/// Runs operations from index 0 until `secs` have passed and at least
/// the `counter_ops` whose work counters are summed have run.
pub fn window(w: &mut dyn Workload, secs: f64, tr: &mut Tracer, counter_ops: usize) -> Window {
    let mut out = Window {
        op_ms: vec![],
        attempted: 0,
        failed: 0,
        ops_per_s: 0.0,
        cx: OpCx::default(),
        per_op: Samples::default(),
        counters: BTreeMap::new(),
    };
    let budget = Duration::from_secs_f64(secs);
    let start = Instant::now();
    let mut i = 0;
    while i < counter_ops.max(1) || start.elapsed() < budget {
        tr.set_op(i as u64);
        out.attempted += 1;
        match w.op(i, tr, &mut out.cx) {
            Ok(ms) => out.op_ms.push(ms),
            Err(e) => {
                out.failed += 1;
                tr.close_open();
                eprintln!("operation {i} failed: {e}");
            }
        }
        let per_op = std::mem::take(&mut out.cx.per_op);
        derive_ratios(&per_op, &mut out.per_op);
        for (k, v) in per_op {
            if COUNTERS.contains(&k) {
                if i < counter_ops {
                    *out.counters.entry(k).or_default() += v;
                }
            } else {
                out.per_op.add(k, v);
            }
        }
        i += 1;
    }
    let busy = start.elapsed().saturating_sub(out.cx.check).as_secs_f64();
    out.ops_per_s = out.op_ms.len() as f64 / busy;
    if let Err(e) = w.finish(&mut out.cx) {
        out.attempted += 1;
        out.failed += 1;
        eprintln!("final state check failed: {e}");
    }
    out
}

/// Per-operation ratios: the fixed cost per frontier batch and the eval
/// time per emitted tuple.
fn derive_ratios(per_op: &BTreeMap<&'static str, f64>, out: &mut Samples) {
    let get = |k: &str| per_op.get(k).copied().unwrap_or(0.0);
    if get("worklist.steps") > 0.0 {
        out.add(
            "worklist.us_per_step",
            get("worklist.eval_ms") * 1e3 / get("worklist.steps"),
        );
    }
    if get("exec.emits") > 0.0 {
        out.add(
            "exec.ns_per_emit",
            (get("worklist.eval_ms") + get("driver.eval_ms")) * 1e6 / get("exec.emits"),
        );
    }
}

/// Sets up `n` times; returns the median duration in seconds, every
/// duration, and the number of failed set-ups.
pub fn setups(w: &mut dyn Workload, n: usize) -> (f64, Vec<f64>, u64) {
    let mut times = vec![];
    let mut failed = 0;
    for i in 0..n {
        match w.setup(i) {
            Ok(s) => times.push(s),
            Err(e) => {
                failed += 1;
                eprintln!("set-up {i} failed: {e}");
            }
        }
    }
    (median(&times), times, failed)
}
