//! Worklist and priority-frontier evaluation: per-row change propagation
//! instead of global Δ iterations, with frontier batches fanned over the
//! worker pool.
//!
//! The semi-naïve loop in [`crate::driver`] re-runs every delta plan
//! against the *whole* Δ relation each round, so a program whose
//! fixpoint has a long dependency chain (1k-node chain TC ⇒ ~1000
//! rounds) pays the full per-round machinery — accumulator allocation,
//! sorted drains, Δ re-indexing — a thousand times. Over **absorptive**
//! POPS (`dlo_pops::Absorptive`: `x ⊕ 1 = 1`, i.e. every element is
//! 0-stable) the paper guarantees much more structure than the global
//! loop exploits: by Corollary 5.19 every polynomial over a 0-stable
//! semiring is `N`-stable, so each ground fact's value strictly improves
//! at most a bounded number of times before it settles. That licenses a
//! **worklist**: keep a per-`(relation, row)` change queue, and when a
//! row's value strictly improves (in the natural order), re-fire only
//! the rules that row can feed.
//!
//! Two queue disciplines, picked by [`Strategy`] or by trait bounds:
//!
//! * **FIFO worklist** ([`engine_worklist_eval`], needs `Absorptive`) —
//!   the queue is drained one **generation** at a time: every row
//!   pending when the drain starts forms one batch (Bellman-Ford-style
//!   rounds restricted to changed rows); a row improved again by a later
//!   generation is simply re-queued.
//! * **Priority frontier** ([`engine_priority_eval`], needs
//!   `Absorptive + TotallyOrderedDioid`) — a *bucketed best-first*
//!   queue keyed by value: the ⊑-greatest pending bucket is drained as
//!   one batch. Because `⊗` can only move values down the chain
//!   (`x ⊗ y ⊑ x ⊗ 1 = x` by monotonicity + absorption), no future
//!   derivation can improve a popped best-value row: every fact is
//!   popped **settled**, Dijkstra-style, and the whole fixpoint is one
//!   near-linear pass over the derivations. Stale queue entries (rows
//!   improved after being pushed) are skipped lazily by comparing the
//!   bucket value against the row's current value.
//!
//! ## On the kernel
//!
//! A frontier run is a kernel run ([`crate::driver`]): the shared run
//! prologue (with the worklist plans' index requirements), the shared
//! phase runner, and the shared failure conversion. What is its own is
//! the queue and the fold. Each phase's emissions land in ordered
//! per-IDB buffers — the phase runner's append sink — and are
//! `⊕`-merged into `new` after the phase, each strict improvement
//! pushed onto the queue. A frontier batch is an embarrassingly
//! parallel unit (every row in it is already merged into `new`, the
//! interner is frozen while plans run, and the plans only read state),
//! so dense batches fan out over the worker pool; task-local buffers
//! are concatenated in task order, reproducing the sequential emission
//! sequence byte for byte, so results are bit-identical at any
//! `DLO_ENGINE_THREADS`. Batches whose estimated first-step work falls
//! below [`crate::driver::EngineOpts::par_threshold`] run inline —
//! sparse frontiers (the gradient workload pops 1–2 rows per batch)
//! never pay a spawn.
//!
//! Both disciplines fire the per-occurrence plans of
//! [`crate::plan::CompiledProgram::worklist_plans`]: the changed row is
//! staged as a one-batch Δ relation carrying its **full current value**
//! (not a `⊖` difference — no `CompleteDistributiveDioid` bound needed),
//! and every other occurrence reads the live `new` state. On idempotent
//! `⊕` the occasional re-derivation merges to the same value, so the
//! scheme is sound without the prefix-new/suffix-old split of
//! Theorem 6.5. Head key functions mint between batches, as in every
//! kernel loop; minted rows enter `new` as appends and are pushed like
//! any other improvement.
//!
//! `steps` in the returned outcome counts processed frontier batches —
//! FIFO generations for the worklist driver, value buckets for the
//! priority one — and the `cap` bounds that count (divergence through
//! unbounded head-key minting is still caught). Step counts are **not**
//! comparable across strategies; fixpoints are.

use crate::driver::{
    drain_arrange_merges, drive, empty_aborted, fold_phase, run_phase, seminaive_run,
    setup_checked, setup_interned_checked, Engine, EngineOpts, IdbState, LoopFail, PhaseOut, RunCx,
    Sink,
};
use crate::govern::Checkpoint;
use crate::output::{AbortedEval, InternedOutcome, InternedOutput, SettledMark};
use crate::plan::Plan;
use crate::storage::ColumnRel;
use crate::telemetry::Collector;
use dlo_core::ast::Program;
use dlo_core::eval::{EvalError, EvalOutcome};
use dlo_core::relation::{BoolDatabase, Database};
use dlo_pops::{
    Absorptive, CompleteDistributiveDioid, NaturallyOrdered, Pops, TotallyOrderedDioid,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Which evaluation loop [`engine_eval`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// The strongest discipline the trait bounds allow — for the
    /// totally ordered absorptive dioids [`engine_eval`] is bounded
    /// over, that is the priority frontier.
    #[default]
    Auto,
    /// The global parallel semi-naïve loop (Theorem 6.5).
    SemiNaive,
    /// The FIFO generation worklist (sound for any absorptive POPS).
    Worklist,
    /// The bucketed best-first frontier (Dijkstra semantics; needs a
    /// total natural order on top of absorption).
    Priority,
}

/// A frontier queue: how improved rows wait to be re-fired.
trait Frontier<P: Pops> {
    /// Records that `(pred, row)` improved to `val`.
    fn push(&mut self, pred: usize, row: u32, val: &P);
    /// Moves the next batch of work into `batch` (cleared by the
    /// caller); `false` when the frontier is drained.
    fn pop_into(&mut self, new: &[ColumnRel<P>], batch: &mut Vec<(usize, u32)>) -> bool;
    /// Pending entries (stale ones included — a deterministic queue
    /// measure, reported per batch in the stats).
    fn depth(&self) -> usize;
}

/// FIFO discipline, drained in **generations**: one batch is everything
/// queued when the drain starts. Rows are de-duplicated by an enqueued
/// flag — a row improved twice between generations is processed once, at
/// its newest value — so a batch never holds the same row twice (the
/// delta-staging invariant) and each generation is a full parallel unit.
struct FifoFrontier {
    queue: VecDeque<(u32, u32)>,
    queued: Vec<Vec<bool>>,
}

impl FifoFrontier {
    fn new(nidb: usize) -> Self {
        FifoFrontier {
            queue: VecDeque::new(),
            queued: vec![vec![]; nidb],
        }
    }
}

impl<P: Pops> Frontier<P> for FifoFrontier {
    fn push(&mut self, pred: usize, row: u32, _val: &P) {
        let flags = &mut self.queued[pred];
        if row as usize >= flags.len() {
            flags.resize(row as usize + 1, false);
        }
        if !flags[row as usize] {
            flags[row as usize] = true;
            self.queue.push_back((pred as u32, row));
        }
    }

    fn pop_into(&mut self, _new: &[ColumnRel<P>], batch: &mut Vec<(usize, u32)>) -> bool {
        while let Some((pred, row)) = self.queue.pop_front() {
            self.queued[pred as usize][row as usize] = false;
            batch.push((pred as usize, row));
        }
        !batch.is_empty()
    }

    fn depth(&self) -> usize {
        self.queue.len()
    }
}

/// Bucket key ordered best-first: the ⊑-greatest value is the
/// `BTreeMap`'s first key.
struct BestFirst<P>(P);

impl<P: TotallyOrderedDioid> PartialEq for BestFirst<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<P: TotallyOrderedDioid> Eq for BestFirst<P> {}
impl<P: TotallyOrderedDioid> PartialOrd for BestFirst<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: TotallyOrderedDioid> Ord for BestFirst<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: chain_cmp's `Greater` (further up ⊑, better) sorts
        // first.
        other.0.chain_cmp(&self.0)
    }
}

/// Bucketed best-first discipline. Entries are pushed on every strict
/// improvement; an entry is *live* iff its bucket value still equals the
/// row's current value (lazy deletion — a superseding entry always sits
/// in a strictly better bucket, so it is processed first and the stale
/// one skipped). Two entries for one row always carry distinct values,
/// so a batch never holds a row twice.
struct BucketFrontier<P> {
    buckets: BTreeMap<BestFirst<P>, Vec<(u32, u32)>>,
}

impl<P: TotallyOrderedDioid> BucketFrontier<P> {
    fn new() -> Self {
        BucketFrontier {
            buckets: BTreeMap::new(),
        }
    }
}

impl<P: TotallyOrderedDioid> Frontier<P> for BucketFrontier<P> {
    fn push(&mut self, pred: usize, row: u32, val: &P) {
        self.buckets
            .entry(BestFirst(val.clone()))
            .or_default()
            .push((pred as u32, row));
    }

    fn pop_into(&mut self, new: &[ColumnRel<P>], batch: &mut Vec<(usize, u32)>) -> bool {
        while let Some((key, rows)) = self.buckets.pop_first() {
            for (pred, row) in rows {
                if new[pred as usize].val(row) == &key.0 {
                    batch.push((pred as usize, row));
                }
            }
            if !batch.is_empty() {
                return true;
            }
        }
        false
    }

    fn depth(&self) -> usize {
        self.buckets.values().map(|rows| rows.len()).sum()
    }
}

/// Per-IDB emission buffer: flat keys (arity stride) plus values, so one
/// batch's emissions append without per-derivation allocation, and a
/// drain hands the capacity back for the next batch.
struct EmitBuf<P> {
    arity: usize,
    keys: Vec<u32>,
    vals: Vec<P>,
}

impl<P: Send> Sink<P> for EmitBuf<P> {
    fn for_arity(arity: usize) -> Self {
        EmitBuf {
            arity,
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    #[inline]
    fn emit(&mut self, key: &[u32], v: P) {
        self.keys.extend_from_slice(key);
        self.vals.push(v);
    }

    /// Appends a task-local buffer: concatenating in task order
    /// reproduces the sequential emission sequence exactly.
    fn absorb(&mut self, mut other: Self) {
        debug_assert_eq!(self.arity, other.arity, "buffers keyed per predicate");
        self.keys.extend_from_slice(&other.keys);
        self.vals.append(&mut other.vals);
    }

    /// Drains in emission order.
    fn drain(&mut self, mut f: impl FnMut(&[u32], P)) {
        let arity = self.arity;
        for (i, v) in self.vals.drain(..).enumerate() {
            f(&self.keys[i * arity..(i + 1) * arity], v);
        }
        self.keys.clear();
    }
}

/// Merges every buffered emission, then every freshly minted head key,
/// into `new`, and pushes each strictly improved row. Set-valued (magic)
/// predicates take the demand path instead: a new binding is inserted
/// at `1` and pushed once; an existing one is left untouched — demand
/// rows are settled the moment they exist, on any POPS.
///
/// `settled` is the run's settled-row marking: an improvement to an
/// *existing* row defensively unmarks it (under the priority
/// discipline a popped row can never improve — Cor. 5.19 — so the
/// unmark never fires there; it keeps the marking sound by
/// construction rather than by theorem).
fn apply_emissions<P: Pops + Send, F: Frontier<P>>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    out: &mut PhaseOut<P, EmitBuf<P>>,
    frontier: &mut F,
    settled: &mut SettledMark,
    col: &mut Collector,
) {
    let new = &mut state.new;
    fold_phase(engine, out, col, |c, pred, sv, key, v| {
        let rel = &mut new[pred];
        if sv {
            if rel.rowid(key).is_none() {
                let row = rel.insert_row(key, P::one());
                frontier.push(pred, row, rel.val(row));
                c.rows_inserted += 1;
            } else {
                c.set_valued_shortcircuits += 1;
            }
            return;
        }
        let len_before = rel.len();
        let (row, changed) = rel.merge_changed(key, v);
        if !changed {
            c.merges_absorbed += 1;
            return;
        }
        frontier.push(pred, row, rel.val(row));
        if rel.len() > len_before {
            c.rows_inserted += 1;
        } else {
            c.rows_improved += 1;
            settled.unmark(pred, row);
        }
    });
    drain_arrange_merges(state, col);
}

/// The shared frontier loop over a prepared [`Engine`]: seed with
/// `J(1) = F(0)`, then drain the queue batch by batch, firing the
/// per-occurrence worklist plans of every touched predicate — in
/// parallel when the batch is dense enough.
///
/// On a demand-rewritten program ([`dlo_core::demand`]) the seed phase
/// contributes exactly the magic seed fact — every other sum-product
/// carries a magic guard factor and finds it empty — so the frontier
/// starts at the **query constants** instead of the whole EDB delta,
/// and magic-fact derivation interleaves between batches exactly like
/// head-key minting: a popped row fires the worklist plans whose Δ
/// occurrence it is, demand rows and answer rows alike.
fn run_frontier<P, F>(
    engine: Engine<P>,
    cap: usize,
    opts: &EngineOpts,
    strategy: &str,
    setup_ns: u64,
    make_frontier: impl FnOnce(usize) -> F,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>>
where
    P: Pops + Send + Sync,
    F: Frontier<P>,
{
    drive(
        engine,
        opts,
        strategy,
        setup_ns,
        true,
        cap,
        |engine, state, settled, run| {
            let frontier = make_frontier(state.new.len());
            frontier_loop(engine, state, settled, run, cap, frontier)
        },
    )
}

/// The body of [`run_frontier`]: the seed phase, then one batch per
/// step until the queue drains. Returns the batch count.
fn frontier_loop<P, F>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    settled: &mut SettledMark,
    run: &mut RunCx,
    cap: usize,
    mut frontier: F,
) -> Result<usize, LoopFail>
where
    P: Pops + Send + Sync,
    F: Frontier<P>,
{
    let compiled = Arc::clone(&engine.compiled);
    // Settled-on-pop: under the priority discipline every popped row
    // is settled (Cor. 5.19 — `⊗` cannot move a best value back
    // up), so an abort-time partial is *exact* on the marked rows.
    // FIFO generations give no such guarantee and mark nothing.
    let exact = settled.is_exact();
    let loop_checkpoint = if exact {
        Checkpoint::Bucket
    } else {
        Checkpoint::Generation
    };
    let mut out = PhaseOut::<P, EmitBuf<P>>::new(engine);

    // Seed: run the all-New plans against the empty state (only
    // IDB-free sum-products contribute, eq. 65) and enqueue every
    // inserted row.
    run.check(0, Checkpoint::Phase)?;
    let before = run.col.stats.counters;
    run_phase(engine, &compiled.seed_plans, state, run, &mut out)
        .map_err(LoopFail::at(Checkpoint::Phase, 0))?;
    let col = &mut run.col;
    apply_emissions(engine, state, &mut out, &mut frontier, settled, col);
    col.end_step(0, 0, frontier.depth() as u64, &before);

    let mut batch: Vec<(usize, u32)> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    // Reused plan-list scratch: sparse frontiers process thousands
    // of 1–2 row batches per run, so the loop body allocates nothing.
    let mut batch_plans: Vec<&Plan<P>> = Vec::new();
    let mut steps = 0usize;
    loop {
        batch.clear();
        if !frontier.pop_into(&state.new, &mut batch) {
            return Ok(steps);
        }
        if steps == cap {
            return Err(LoopFail::Diverged);
        }
        // A popped row's value is final the moment the frontier
        // hands it over (priority only), so marking precedes the
        // checkpoint and a mid-run abort still counts this batch.
        if exact {
            for &(pred, row) in &batch {
                settled.mark(pred, row);
            }
        }
        run.check(steps, loop_checkpoint)?;
        steps += 1;
        let before = run.col.stats.counters;

        // Stage the batch as per-pred Δ relations carrying full
        // current values (a batch never holds the same row twice:
        // both disciplines de-duplicate — see their docs).
        touched.clear();
        for &(pred, row) in &batch {
            if state.delta[pred].is_empty() {
                touched.push(pred);
            }
            let val = state.new[pred].val(row).clone();
            state.delta[pred].append_row(state.new[pred].row(row), val);
        }
        batch_plans.clear();
        batch_plans.extend(
            touched
                .iter()
                .flat_map(|&pred| compiled.worklist_plans_for(pred).iter()),
        );
        run_phase(engine, &batch_plans, state, run, &mut out)
            .map_err(LoopFail::at(loop_checkpoint, steps))?;
        for &pred in &touched {
            state.delta[pred].clear();
        }
        let col = &mut run.col;
        apply_emissions(engine, state, &mut out, &mut frontier, settled, col);
        col.end_step(steps, batch.len() as u64, frontier.depth() as u64, &before);
    }
}

/// FIFO-worklist evaluation: per-row change propagation over any
/// **absorptive** POPS, drained in generations that fan out over the
/// worker pool. Reaches the same fixpoint as
/// [`crate::driver::engine_seminaive_eval`] (cross-checked in
/// `tests/backend_matrix.rs` and `tests/proptest_engine.rs`); `steps`
/// counts generations, and `cap` bounds that count.
///
/// # Errors
///
/// As [`crate::engine_naive_eval`].
pub fn engine_worklist_eval<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered + Absorptive + Send + Sync,
{
    engine_worklist_eval_with_opts(program, pops_edb, bool_edb, cap, &EngineOpts::default())
}

/// [`engine_worklist_eval`] with explicit tuning knobs (thread cap,
/// fan-out threshold, chunk size, budget, cancellation).
///
/// # Errors
///
/// As [`crate::engine_naive_eval`].
pub fn engine_worklist_eval_with_opts<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    opts: &EngineOpts,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered + Absorptive + Send + Sync,
{
    let t = Instant::now();
    let engine = setup_checked(program, pops_edb, bool_edb, &[])?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    Ok(
        run_frontier(engine, cap, opts, "worklist", setup_ns, FifoFrontier::new)
            .map_err(|b| EvalError::from(*b))?
            .materialize(),
    )
}

/// Priority-frontier evaluation: bucketed best-first scheduling over a
/// totally ordered absorptive dioid (Trop⁺, `MinNat`, `MaxMin`, `𝔹`).
/// Every fact is popped settled (Dijkstra semantics — see the module
/// docs for the absorption argument), so long-chain fixpoints run in one
/// near-linear pass instead of one global iteration per chain link; each
/// value bucket is processed as one (possibly parallel) batch. `steps`
/// counts frontier batches.
///
/// # Errors
///
/// As [`crate::engine_naive_eval`].
pub fn engine_priority_eval<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered + Absorptive + TotallyOrderedDioid + Send + Sync,
{
    engine_priority_eval_with_opts(program, pops_edb, bool_edb, cap, &EngineOpts::default())
}

/// [`engine_priority_eval`] with explicit tuning knobs (thread cap,
/// fan-out threshold, chunk size, budget, cancellation).
///
/// # Errors
///
/// As [`crate::engine_naive_eval`].
pub fn engine_priority_eval_with_opts<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    opts: &EngineOpts,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered + Absorptive + TotallyOrderedDioid + Send + Sync,
{
    let t = Instant::now();
    let engine = setup_checked(program, pops_edb, bool_edb, &[])?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    Ok(run_frontier(engine, cap, opts, "priority", setup_ns, |_| {
        BucketFrontier::new()
    })
    .map_err(|b| EvalError::from(*b))?
    .materialize())
}

/// Evaluates with an explicit [`Strategy`], defaulting
/// ([`Strategy::Auto`]) to the strongest discipline the bounds license —
/// the priority frontier. The bounds are the union of what the three
/// strategies need, so this entry point exists for POPS like `Trop`,
/// `MinNat`, `MaxMin`, and `Bool` that support everything; callers whose
/// POPS is merely absorptive use [`engine_worklist_eval`], and everything
/// else stays on [`crate::driver::engine_seminaive_eval`].
///
/// # Errors
///
/// As [`crate::engine_naive_eval`].
pub fn engine_eval<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    strategy: Strategy,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    engine_eval_with_opts(
        program,
        pops_edb,
        bool_edb,
        cap,
        strategy,
        &EngineOpts::default(),
    )
}

/// [`engine_eval`] with explicit tuning knobs. Every strategy is
/// multi-threaded: the semi-naïve loop fans (plan × row-chunk) tasks per
/// global iteration, and the frontier drivers fan the same task shape
/// per batch (with the adaptive sequential fallback for sparse batches).
/// `opts.threads` caps the pool; `None` reads `DLO_ENGINE_THREADS` /
/// `available_parallelism`. Results are bit-identical at any setting.
///
/// # Errors
///
/// As [`crate::engine_naive_eval`].
pub fn engine_eval_with_opts<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    strategy: Strategy,
    opts: &EngineOpts,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    Ok(engine_eval_interned(program, pops_edb, bool_edb, cap, strategy, opts)?.materialize())
}

/// [`engine_eval`] returning the **decode-free**
/// [`InternedOutcome`]: the fixpoint stays in interned columnar form
/// and `Database` materialization is deferred until asked for —
/// pipelines that feed results back into the engine, or only inspect a
/// few values, skip the rank-sorted decode entirely (the largest
/// post-fixpoint phase on large outputs).
///
/// # Errors
///
/// As [`crate::engine_naive_eval`].
pub fn engine_eval_interned<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    strategy: Strategy,
    opts: &EngineOpts,
) -> Result<InternedOutcome<P>, EvalError>
where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    let t = Instant::now();
    let engine = setup_checked(program, pops_edb, bool_edb, &[])?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    strategy_run(engine, cap, strategy, opts, setup_ns)
}

/// [`engine_eval_interned`] over an **interned EDB**: the previous
/// run's [`crate::InternedOutput`] is the POPS database (shared
/// interner, relations reused without any `Constant` round-trip), with
/// `extra_pops` overlaying fresh classic-form relations for names the
/// interned output lacks. Chained engine runs — including
/// query-then-refine pipelines via
/// [`crate::query::QueryAnswer::into_interned`] — stay interned end to
/// end.
///
/// # Errors
///
/// As [`crate::engine_naive_eval`].
pub fn engine_eval_interned_edb<P>(
    program: &Program<P>,
    prev: &crate::output::InternedOutput<P>,
    extra_pops: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    strategy: Strategy,
    opts: &EngineOpts,
) -> Result<InternedOutcome<P>, EvalError>
where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    let t = Instant::now();
    let engine = crate::driver::setup_interned_checked(program, prev, extra_pops, bool_edb, &[])?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    strategy_run(engine, cap, strategy, opts, setup_ns)
}

/// Dispatches a prepared [`Engine`] to the loop `strategy` names,
/// keeping the partial-result channel: a governed abort returns the
/// boxed [`AbortedEval`] — the typed error plus the abort-time
/// instance (exact on the settled frontier under
/// [`Strategy::Priority`] / [`Strategy::Auto`], a best-effort lower
/// bound otherwise).
pub(crate) fn strategy_run_partial<P>(
    engine: Engine<P>,
    cap: usize,
    strategy: Strategy,
    opts: &EngineOpts,
    setup_ns: u64,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>>
where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    match strategy {
        Strategy::SemiNaive => seminaive_run(engine, cap, opts, setup_ns),
        Strategy::Worklist => {
            run_frontier(engine, cap, opts, "worklist", setup_ns, FifoFrontier::new)
        }
        Strategy::Auto | Strategy::Priority => {
            run_frontier(engine, cap, opts, "priority", setup_ns, |_| {
                BucketFrontier::new()
            })
        }
    }
}

/// Dispatches a prepared [`Engine`] to the loop `strategy` names —
/// the shared tail of every multi-strategy entry point (classic,
/// interned-EDB, and demand-rewritten query evaluation). The classic
/// error contract: a governed abort surfaces as the bare
/// [`EvalError`], dropping the partial instance (use the `*_partial`
/// entry points to keep it).
pub(crate) fn strategy_run<P>(
    engine: Engine<P>,
    cap: usize,
    strategy: Strategy,
    opts: &EngineOpts,
    setup_ns: u64,
) -> Result<InternedOutcome<P>, EvalError>
where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    strategy_run_partial(engine, cap, strategy, opts, setup_ns).map_err(|b| EvalError::from(*b))
}

/// [`engine_eval_with_opts`] with **graceful degradation**: instead of
/// dropping the partially evaluated instance on a governed abort
/// (budget, deadline, cancellation, worker panic), the error channel
/// carries a boxed [`AbortedEval`] — the typed [`EvalError`] plus a
/// [`PartialOutput`](crate::output::PartialOutput) of the abort-time
/// state. Under [`Strategy::Priority`] / [`Strategy::Auto`] the
/// partial is **exact** on its settled frontier (settled-on-pop,
/// Cor. 5.19): every marked row already holds its final fixpoint
/// value. Under the other strategies nothing is marked and the partial
/// is a pointwise lower bound of the least fixpoint (`J(t) ⊑ lfp`).
/// Compile rejections ride the same channel with an empty partial.
///
/// The `Ok` side is unchanged — a run that converges (or hits the
/// divergence cap) behaves exactly like [`engine_eval_interned`].
///
/// # Errors
///
/// Never fails with a bare error: every failure is an [`AbortedEval`]
/// wrapping the same [`EvalError`] the classic entry points return.
pub fn engine_eval_partial_with_opts<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    strategy: Strategy,
    opts: &EngineOpts,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>>
where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    let t = Instant::now();
    let engine = match setup_checked(program, pops_edb, bool_edb, &[]) {
        Ok(engine) => engine,
        Err(error) => return Err(empty_aborted(error)),
    };
    let setup_ns = t.elapsed().as_nanos() as u64;
    strategy_run_partial(engine, cap, strategy, opts, setup_ns)
}

/// [`engine_eval_partial_with_opts`] over an **interned EDB** — the
/// warm-start primitive of [`crate::retry`]: feed a failed attempt's
/// [`PartialOutput::interned`](crate::output::PartialOutput::interned)
/// as `prev` (its interner is reused, so every id minted before the
/// abort keeps its meaning) with the original EDB as `extra_pops`, and
/// the retry resumes from a warm interner instead of starting cold.
/// Name resolution prefers `extra_pops`, exactly like
/// [`engine_eval_interned_edb`].
///
/// # Errors
///
/// As [`engine_eval_partial_with_opts`].
pub fn engine_eval_partial_interned_edb<P>(
    program: &Program<P>,
    prev: &InternedOutput<P>,
    extra_pops: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    strategy: Strategy,
    opts: &EngineOpts,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>>
where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    let t = Instant::now();
    let engine = match setup_interned_checked(program, prev, extra_pops, bool_edb, &[]) {
        Ok(engine) => engine,
        Err(error) => return Err(empty_aborted(error)),
    };
    let setup_ns = t.elapsed().as_nanos() as u64;
    strategy_run_partial(engine, cap, strategy, opts, setup_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::engine_seminaive_eval;
    use dlo_core::ast::{Atom, Factor, KeyFn, SumProduct, Term, UnaryFn};
    use dlo_core::eval::relational::relational_seminaive_eval;
    use dlo_core::examples_lib as ex;
    use dlo_core::relation::Relation;
    use dlo_core::tup;
    use dlo_pops::{MaxMin, MinNat, PreSemiring, Trop};

    /// Tuning that forces the parallel batch path even on tiny batches.
    fn forced_parallel() -> EngineOpts {
        EngineOpts {
            threads: Some(4),
            par_threshold: 1,
            chunk_min: 2,
            ..EngineOpts::default()
        }
    }

    /// Both frontier strategies and the forced-strategy dispatcher agree
    /// with the relational reference on output databases — and the
    /// forced-parallel frontier runs are bit-identical to the sequential
    /// ones, including step counts.
    fn assert_frontier_matches_relational<P>(
        program: &Program<P>,
        pops: &Database<P>,
        bools: &BoolDatabase,
    ) -> Database<P>
    where
        P: NaturallyOrdered
            + CompleteDistributiveDioid
            + Absorptive
            + TotallyOrderedDioid
            + Send
            + Sync,
    {
        let reference = relational_seminaive_eval(program, pops, bools, 100_000).unwrap();
        let fifo = engine_worklist_eval(program, pops, bools, 1_000_000)
            .expect("compiles")
            .unwrap();
        let prio = engine_priority_eval(program, pops, bools, 1_000_000)
            .expect("compiles")
            .unwrap();
        assert_eq!(reference, fifo, "FIFO worklist differs from relational");
        assert_eq!(reference, prio, "priority frontier differs from relational");
        for strategy in [
            Strategy::Auto,
            Strategy::SemiNaive,
            Strategy::Worklist,
            Strategy::Priority,
        ] {
            let seq = engine_eval(program, pops, bools, 1_000_000, strategy).expect("compiles");
            let par = engine_eval_with_opts(
                program,
                pops,
                bools,
                1_000_000,
                strategy,
                &forced_parallel(),
            )
            .expect("compiles");
            assert_eq!(
                seq, par,
                "engine_eval({strategy:?}) differs between sequential and forced-parallel"
            );
            assert_eq!(reference, seq.unwrap(), "engine_eval({strategy:?}) differs");
        }
        reference
    }

    #[test]
    fn sssp_and_apsp_match_relational() {
        let (program, edb) = ex::sssp_trop("a");
        let out = assert_frontier_matches_relational(&program, &edb, &BoolDatabase::new());
        assert_eq!(out.get("L").unwrap().get(&tup!["d"]), Trop::finite(8.0));

        let (program, edb) = ex::apsp_trop(&[
            ("a", "b", 1.0),
            ("b", "a", 2.0),
            ("b", "c", 3.0),
            ("c", "d", 4.0),
            ("a", "c", 5.0),
        ]);
        assert_frontier_matches_relational(&program, &edb, &BoolDatabase::new());
    }

    #[test]
    fn quadratic_tc_covers_both_occurrences() {
        // T ⊗ T: the worklist must fire a changed row in *each*
        // occurrence position (left factor and right factor).
        let (program, edb) =
            ex::quadratic_tc_bool(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]);
        assert_frontier_matches_relational(&program, &edb, &BoolDatabase::new());
    }

    #[test]
    fn priority_processes_chain_in_one_bucket_per_distance() {
        // APSP on a 50-node unit chain: T(i, j) has value j - i, so the
        // bucketed frontier drains exactly one batch per distinct
        // distance (1..=49) — Dijkstra semantics — where the global
        // semi-naïve loop needs one full iteration per distance *and*
        // re-scans every plan each time.
        let g_edges: Vec<(Vec<dlo_core::value::Constant>, Trop)> = (0..49i64)
            .map(|i| (vec![i.into(), (i + 1).into()], Trop::finite(1.0)))
            .collect();
        let mut edb = Database::new();
        edb.insert("E", Relation::from_pairs(2, g_edges));
        let program = ex::apsp_program::<Trop>();
        let (out, steps) = engine_priority_eval(&program, &edb, &BoolDatabase::new(), 1_000_000)
            .expect("compiles")
            .converged()
            .unwrap();
        assert_eq!(out.get("T").unwrap().support_size(), 49 * 50 / 2);
        assert_eq!(steps, 49, "one frontier batch per distinct distance");
    }

    #[test]
    fn priority_skips_stale_entries() {
        // a→b costs 10 directly but 2 via c. The direct edge seeds
        // T(a,b) = 10 into bucket 10; the improvement to 2 supersedes it
        // in bucket 2, and the stale bucket-10 entry must be skipped —
        // total: batch(1) = {(a,c),(c,b)}, batch(2) = {(a,b)}, done.
        let (program, edb) = ex::apsp_trop(&[("a", "b", 10.0), ("a", "c", 1.0), ("c", "b", 1.0)]);
        let (out, steps) = engine_priority_eval(&program, &edb, &BoolDatabase::new(), 1_000_000)
            .expect("compiles")
            .converged()
            .unwrap();
        assert_eq!(
            out.get("T").unwrap().get(&tup!["a", "b"]),
            Trop::finite(2.0)
        );
        assert_eq!(steps, 2, "the stale bucket-10 entry must not be a batch");
    }

    #[test]
    fn head_key_minting_works_under_both_disciplines() {
        use dlo_core::formula::{CmpOp, Formula};
        // The counter program: keys 1..=5 exist in no EDB and are minted
        // between frontier batches.
        let mut p = Program::<MinNat>::new();
        p.rule(
            Atom::new("N", vec![Term::c(0)]),
            vec![SumProduct::new(vec![]).with_coeff(MinNat::finite(1))],
        );
        p.rule(
            Atom::new(
                "N",
                vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
            ),
            vec![SumProduct::new(vec![Factor::atom("N", vec![Term::v(0)])])
                .with_condition(Formula::cmp(Term::v(0), CmpOp::Lt, Term::c(5)))],
        );
        let out = assert_frontier_matches_relational(&p, &Database::new(), &BoolDatabase::new());
        assert_eq!(out.get("N").unwrap().support_size(), 6);
    }

    #[test]
    fn unbounded_minting_diverges_under_the_cap() {
        // N(i+1) :- N(i) with no guard: the active domain grows forever.
        // Both disciplines must hit the cap and report divergence, like
        // the global backends do — sequential and forced-parallel alike.
        let mut p = Program::<MinNat>::new();
        p.rule(
            Atom::new("N", vec![Term::c(0)]),
            vec![SumProduct::new(vec![]).with_coeff(MinNat::finite(1))],
        );
        p.rule(
            Atom::new(
                "N",
                vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
            ),
            vec![SumProduct::new(vec![Factor::atom("N", vec![Term::v(0)])])],
        );
        let pops = Database::new();
        let bools = BoolDatabase::new();
        let seq = engine_worklist_eval(&p, &pops, &bools, 25).expect("compiles");
        assert!(!seq.is_converged());
        assert!(!engine_priority_eval(&p, &pops, &bools, 25)
            .expect("compiles")
            .is_converged());
        let par = engine_worklist_eval_with_opts(&p, &pops, &bools, 25, &forced_parallel())
            .expect("compiles");
        assert_eq!(seq, par, "capped divergence must be thread-invariant");
    }

    #[test]
    fn value_functions_ride_the_full_value_delta() {
        // A monotone value function on a recursive factor over MaxMin:
        // capacity capped at 0.5 along recursive hops. The semi-naïve
        // driver handles this with full-recompute delta plans; the
        // worklist handles it because Δ carries full values (func(Δ) is
        // exact, not a difference).
        let cap_fn = UnaryFn::new("cap", |v: &MaxMin| v.mul(&MaxMin::of(0.3)));
        let mut p = Program::<MaxMin>::new();
        p.rule(
            Atom::new("R", vec![Term::v(0)]),
            vec![
                SumProduct::new(vec![Factor::atom("S", vec![Term::v(0)])]),
                SumProduct::new(vec![
                    Factor::wrapped("R", vec![Term::v(1)], cap_fn),
                    Factor::atom("E", vec![Term::v(1), Term::v(0)]),
                ]),
            ],
        );
        let mut edb = Database::new();
        edb.insert(
            "S",
            Relation::from_pairs(1, vec![(tup!["s"], MaxMin::of(0.9))]),
        );
        edb.insert(
            "E",
            Relation::from_pairs(
                2,
                vec![
                    (tup!["s", "a"], MaxMin::of(0.4)),
                    (tup!["a", "b"], MaxMin::of(0.2)),
                ],
            ),
        );
        let out = assert_frontier_matches_relational(&p, &edb, &BoolDatabase::new());
        let r = out.get("R").unwrap();
        // ⊗ = min on MaxMin: R(a) = min(cap(0.9) = 0.3, 0.4) = 0.3,
        // R(b) = min(cap(0.3) = 0.3, 0.2) = 0.2.
        assert_eq!(r.get(&tup!["a"]), MaxMin::of(0.3));
        assert_eq!(r.get(&tup!["b"]), MaxMin::of(0.2));
    }

    #[test]
    fn fifo_requeues_improved_rows_across_generations() {
        // The triangle from `priority_skips_stale_entries` under FIFO
        // generations: generation 1 is the three seed rows (T(a,b)
        // processed at 10, improved to 2 by the batch), generation 2 is
        // the re-queued improved row.
        let (program, edb) = ex::apsp_trop(&[("a", "b", 10.0), ("a", "c", 1.0), ("c", "b", 1.0)]);
        let (out, steps) = engine_worklist_eval(&program, &edb, &BoolDatabase::new(), 1_000_000)
            .expect("compiles")
            .converged()
            .unwrap();
        assert_eq!(
            out.get("T").unwrap().get(&tup!["a", "b"]),
            Trop::finite(2.0)
        );
        assert_eq!(steps, 2, "one seed generation plus one re-fire generation");
    }

    #[test]
    fn empty_program_converges_with_zero_batches() {
        let p = Program::<Trop>::new();
        let (db, steps) = engine_priority_eval(&p, &Database::new(), &BoolDatabase::new(), 10)
            .expect("compiles")
            .converged()
            .unwrap();
        assert_eq!(steps, 0);
        assert!(db.iter().next().is_none());
    }

    #[test]
    fn random_graph_agrees_with_global_seminaive() {
        // A denser instance exercising batches with mixed improvements.
        let mut s = 0xfeed_u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut pairs = vec![];
        for _ in 0..200 {
            let u = (rng() % 40) as i64;
            let v = (rng() % 40) as i64;
            if u != v {
                pairs.push((vec![u.into(), v.into()], MinNat::finite(1 + rng() % 9)));
            }
        }
        let mut edb = Database::new();
        edb.insert("E", Relation::from_pairs(2, pairs));
        let program = ex::quadratic_tc_program::<MinNat>();
        let bools = BoolDatabase::new();
        let semi = engine_seminaive_eval(&program, &edb, &bools, 100_000)
            .expect("compiles")
            .unwrap();
        let fifo = engine_worklist_eval(&program, &edb, &bools, 10_000_000)
            .expect("compiles")
            .unwrap();
        let prio = engine_priority_eval(&program, &edb, &bools, 10_000_000)
            .expect("compiles")
            .unwrap();
        assert_eq!(semi, fifo);
        assert_eq!(semi, prio);
        assert!(
            semi.get("T").unwrap().support_size() > 500,
            "non-trivial TC"
        );
    }

    #[test]
    fn parallel_frontier_is_bit_identical_across_thread_counts() {
        // The dense random TC instance again, this time comparing full
        // outcomes (fixpoint AND batch counts) across thread counts with
        // the fan-out forced — chunk boundaries must not leak into the
        // staged emission order.
        let mut s = 0xabcd_u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut pairs = vec![];
        for _ in 0..300 {
            let u = (rng() % 50) as i64;
            let v = (rng() % 50) as i64;
            if u != v {
                pairs.push((
                    vec![u.into(), v.into()],
                    Trop::finite((1 + rng() % 9) as f64),
                ));
            }
        }
        let mut edb = Database::new();
        edb.insert("E", Relation::from_pairs(2, pairs));
        let program = ex::apsp_program::<Trop>();
        let bools = BoolDatabase::new();
        for strategy in [Strategy::Worklist, Strategy::Priority] {
            let baseline = engine_eval_with_opts(
                &program,
                &edb,
                &bools,
                10_000_000,
                strategy,
                &EngineOpts {
                    threads: Some(1),
                    ..EngineOpts::default()
                },
            )
            .expect("compiles");
            for threads in [2, 4] {
                let opts = EngineOpts {
                    threads: Some(threads),
                    par_threshold: 1,
                    chunk_min: 2,
                    ..EngineOpts::default()
                };
                let got =
                    engine_eval_with_opts(&program, &edb, &bools, 10_000_000, strategy, &opts)
                        .expect("compiles");
                assert_eq!(
                    baseline, got,
                    "{strategy:?} at {threads} threads differs from single-threaded"
                );
            }
        }
    }

    #[test]
    fn interned_outcome_defers_the_decode() {
        let (program, edb) = ex::sssp_trop("a");
        let bools = BoolDatabase::new();
        let (out, steps) = engine_eval_interned(
            &program,
            &edb,
            &bools,
            1_000_000,
            Strategy::Priority,
            &EngineOpts::default(),
        )
        .expect("compiles")
        .converged()
        .unwrap();
        assert!(steps > 0);
        assert_eq!(out.get("L", &["d".into()]), Some(&Trop::finite(8.0)));
        let reference = engine_priority_eval(&program, &edb, &bools, 1_000_000)
            .expect("compiles")
            .unwrap();
        assert_eq!(out.materialize(), reference);
    }
}
