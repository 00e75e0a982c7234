//! The evaluation kernel, and the naïve and semi-naïve drivers built on
//! it behind the `EvalOutcome`/`Database` API.
//!
//! Every evaluation in the engine — the naïve and semi-naïve runs here,
//! the frontier runs of [`crate::worklist`], and every build, edit and
//! rebuild of [`crate::Materialization`] — runs on one kernel:
//!
//! * **one run prologue** resolves the join mode, starts the run's
//!   stats collector and governor, takes the pre-index checkpoint,
//!   builds the EDB indexes (plus the worklist plans' requirements for
//!   a frontier run) and ensures the IDB state's probe structures;
//! * **one phase runner** runs a phase's plans against the IDB state
//!   into a per-IDB *sink* — a `⊕`-merging accumulator for the global
//!   loops, an ordered append buffer for the frontier — fanning
//!   (plan × row-chunk) tasks over scoped worker threads when the
//!   estimated first-step work warrants it; task-local sinks merge in
//!   task order, so results are deterministic at any worker count;
//! * **one naïve loop, one semi-naïve seed and one semi-naïve delta
//!   loop**, which the drivers here and `Materialization` run with
//!   their own plan lists. Each returns its step count or a failure
//!   naming the checkpoint that caught it, and each driver turns a
//!   failure into its public error in one place.
//!
//! The semi-naïve loop is the relation-level reading of Theorem 6.5,
//! step for step that of
//! `dlo_core::eval::relational::relational_seminaive_eval`, so outcomes
//! and step counts agree:
//!
//! ```text
//! J(1) ← F(0);  δ(0) ← J(1)
//! repeat:  contrib ← ⊕_{rules, sum-products, k} plan_k(new, δ, old)
//!          δ'(t) ← contrib ⊖ J(t)   (pointwise on supports)
//!          J(t+1) ← J(t) ⊕ contrib
//! until δ = 0
//! ```
//!
//! Its seed is step 0 and iteration `t` is step `t`; a run converges at
//! the first step whose δ is empty and diverges when that step would
//! pass the cap.
//!
//! ## Head-computed keys and dynamic interning
//!
//! Key functions in rule heads (`W(i+1) :- W(i) ⊗ V(i+1)`, Sec. 4.5)
//! derive constants that may not exist in the interner when plans are
//! compiled. The interner is frozen while a phase runs in parallel, so
//! the executor emits such cells as [`HeadVal::Fresh`] integers into a
//! per-IDB *fresh accumulator* (an ordered map, for determinism); the
//! kernel mints ids for them **between** phases — single-threaded, in
//! sorted key order — and only then inserts the rows. A row minted at
//! iteration `t` is therefore first *visible* to joins at `t + 1`, which
//! is exactly the semi-naïve contract: minted rows enter `new`, `δ`, and
//! the `changed` map as ordinary appends, and every index on those
//! relations is maintained incrementally by the insert itself. Body-side
//! key functions never mint: a result the interner does not know cannot
//! match any stored row.

use crate::exec::{run_plan, EvalCtx, ExecCounters, HeadVal};
use crate::govern::{abort_error, Abort, Checkpoint, Governor};
use crate::hash::FxHashMap;
use crate::intern::Interner;
use crate::output::{AbortedEval, InternedOutcome, InternedOutput, PartialOutput, SettledMark};
use crate::par;
use crate::plan::{compile_demand, CompileError, CompiledProgram, Plan, Source};
use crate::storage::{AccumMap, ColMask, ColumnRel, JoinMode};
use crate::telemetry::Collector;
use dlo_core::ast::Program;
use dlo_core::eval::stats::{Counters, EvalStats};
use dlo_core::eval::{BudgetClass, CancelToken, EvalBudget, EvalError, EvalOutcome, TraceHandle};
use dlo_core::relation::{BoolDatabase, Database, Relation};
use dlo_pops::{Bool, CompleteDistributiveDioid, NaturallyOrdered, Pops, PreSemiring};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Below this much estimated first-step work an iteration runs on one
/// thread (scoped-thread spawn is not free).
const PAR_THRESHOLD: usize = 4096;
/// Minimum first-step rows per parallel chunk.
const CHUNK_MIN: usize = 1024;

/// Tuning knobs for the engine drivers. [`Default`] is right for
/// production use; tests use the knobs to force specific execution
/// paths.
#[derive(Clone, Debug)]
pub struct EngineOpts {
    /// Worker-thread cap; `None` reads `DLO_ENGINE_THREADS` /
    /// `available_parallelism`.
    pub threads: Option<usize>,
    /// Minimum estimated first-step work before an iteration fans out.
    pub par_threshold: usize,
    /// Minimum first-step rows per parallel chunk.
    pub chunk_min: usize,
    /// Structured trace sink for this run. `None` falls back to the
    /// `DLO_TRACE` environment variable (a JSONL path, appended to);
    /// unset there too means tracing is off. Tracing never changes
    /// results — only the timing fields of the returned stats.
    pub trace: Option<TraceHandle>,
    /// Record every k-th per-iteration [`IterStat`](dlo_core::eval::stats::IterStat)
    /// snapshot (step numbers divisible by `k`). Long incremental runs
    /// would otherwise saturate the snapshot cap
    /// ([`dlo_core::eval::stats::ITER_SNAPSHOT_CAP`]) with early
    /// iterations and drop the interesting tail. `None` reads
    /// `DLO_STATS_SAMPLE`, defaulting to `1` (record every step).
    /// Sampled-out steps count into `iterations_dropped`, `last_iter`
    /// is always maintained, and an attached trace sink still streams
    /// every iteration event. Results are never affected.
    pub iter_sample: Option<usize>,
    /// Resource ceilings for the run (wall-clock deadline, step /
    /// emitted-row / minted-id budgets), checked once per phase on the
    /// coordinating thread. The default is unlimited — ungoverned runs
    /// pay nothing. An exhausted ceiling returns the matching
    /// [`EvalError`] variant carrying the stats accumulated so far.
    pub budget: EvalBudget,
    /// Cooperative cancellation: clone a [`CancelToken`], hand one copy
    /// here, and flip the other from any thread; the run stops at its
    /// next phase boundary with [`EvalError::Cancelled`]. `None` (the
    /// default) skips the poll entirely.
    pub cancel: Option<CancelToken>,
    /// Join-strategy selection ([`JoinMode`]): `None` reads the
    /// `DLO_JOIN` environment variable, falling back to
    /// [`JoinMode::Auto`]. Purely a performance knob — every mode is
    /// bit-identical (see the arrangement design note in [`crate`]).
    pub join_mode: Option<JoinMode>,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            threads: None,
            par_threshold: PAR_THRESHOLD,
            chunk_min: CHUNK_MIN,
            trace: None,
            iter_sample: None,
            budget: EvalBudget::unlimited(),
            cancel: None,
            join_mode: None,
        }
    }
}

impl EngineOpts {
    /// Options preset for a [`BudgetClass`]: the class's
    /// [`EvalBudget`] with every other knob at its default. The
    /// canonical starting point for governed runs —
    /// `EngineOpts::for_class(BudgetClass::Interactive)` gives the
    /// sub-second ceiling, and [`crate::retry`] escalates through the
    /// remaining classes when it proves too tight.
    pub fn for_class(class: BudgetClass) -> EngineOpts {
        EngineOpts {
            budget: class.budget(),
            ..EngineOpts::default()
        }
    }

    pub(crate) fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(par::max_threads).max(1)
    }

    /// Resolves the join mode: the explicit knob wins, then `DLO_JOIN`,
    /// then [`JoinMode::Auto`].
    pub(crate) fn effective_join_mode(&self) -> JoinMode {
        self.join_mode
            .or_else(JoinMode::from_env)
            .unwrap_or_default()
    }

    /// Resolves the iteration-snapshot sampling stride: the explicit
    /// knob wins, then `DLO_STATS_SAMPLE`, then `1` (every step).
    pub(crate) fn effective_iter_sample(&self) -> u64 {
        match self.iter_sample {
            Some(k) => (k as u64).max(1),
            None => std::env::var("DLO_STATS_SAMPLE")
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok())
                .filter(|&k| k >= 1)
                .unwrap_or(1),
        }
    }
}

/// The compiled program plus interned, indexed inputs (shared with the
/// frontier drivers in [`crate::worklist`]).
pub(crate) struct Engine<P> {
    pub(crate) interner: Interner,
    /// Shared so a loop can hold the plan lists it runs while minting
    /// into the interner between phases.
    pub(crate) compiled: Arc<CompiledProgram<P>>,
    pub(crate) pops_edb: Vec<Option<ColumnRel<P>>>,
    pub(crate) bool_edb: Vec<Option<ColumnRel<Bool>>>,
    pub(crate) adom: Vec<u32>,
    /// Index masks needed on each IDB's `new` storage (serves both the
    /// `New` and `Old` sources).
    pub(crate) idb_new_masks: Vec<Vec<u32>>,
    /// Index masks needed on each IDB's per-iteration delta.
    pub(crate) idb_delta_masks: Vec<Vec<u32>>,
    /// EDB-side `(source, mask)` index requirements of the seed and
    /// semi-naïve delta plans, collected at setup and built by
    /// [`Engine::build_edb_indexes`] — deferred so the builds can fan
    /// out over the worker pool once the caller knows its thread count.
    pub(crate) edb_reqs: Vec<(Source, ColMask)>,
    /// The resolved [`JoinMode`] for this run: every ensure site reads
    /// it to pick hash indexes vs sorted arrangements. The run prologue
    /// sets it from [`EngineOpts::effective_join_mode`] before any probe
    /// structure is built.
    pub(crate) join_mode: JoinMode,
}

/// The three semi-naïve IDB states of Theorem 6.5. The frontier runs
/// keep `changed` empty (so `Old` reads are `New` reads) and stage each
/// batch in `delta`; `Materialization` keeps one alive across edits.
pub(crate) struct IdbState<P> {
    pub(crate) new: Vec<ColumnRel<P>>,
    pub(crate) changed: Vec<FxHashMap<u32, Option<P>>>,
    pub(crate) delta: Vec<ColumnRel<P>>,
}

impl<P: Pops> IdbState<P> {
    /// Empty state for every IDB of `engine` (no probe structures yet).
    pub(crate) fn new(engine: &Engine<P>) -> Self {
        IdbState {
            new: engine.empty_idbs(),
            changed: vec![FxHashMap::default(); engine.compiled.idbs.len()],
            delta: engine.empty_idbs(),
        }
    }
}

/// Adds `mask` to a relation's probe-mask list unless already present.
pub(crate) fn add_mask(masks: &mut Vec<ColMask>, mask: ColMask) {
    if !masks.contains(&mask) {
        masks.push(mask);
    }
}

fn intern_rel<P: Pops>(rel: &Relation<P>, interner: &Interner) -> ColumnRel<P> {
    let mut out = ColumnRel::new(rel.arity());
    let mut key: Vec<u32> = Vec::with_capacity(rel.arity());
    for (tuple, v) in rel.support() {
        key.clear();
        key.extend(tuple.iter().map(|c| {
            interner
                .lookup(c)
                .expect("EDB constants are interned during setup")
        }));
        out.insert_row(&key, v.clone());
    }
    out
}

fn intern_db_consts<P: Pops>(db: &Database<P>, interner: &mut Interner) {
    for (_, rel) in db.iter() {
        for (tuple, _) in rel.support() {
            for c in tuple {
                interner.intern(c);
            }
        }
    }
}

fn setup<P: Pops>(
    program: &Program<P>,
    pops_db: &Database<P>,
    bool_db: &BoolDatabase,
    set_valued: &[String],
) -> Result<Engine<P>, CompileError> {
    let mut interner = Interner::new();
    intern_db_consts(pops_db, &mut interner);
    intern_db_consts(bool_db, &mut interner);
    let compiled = compile_demand(program, &mut interner, set_valued)?;
    let pops_edb: Vec<Option<ColumnRel<P>>> = compiled
        .pops_edbs
        .iter()
        .map(|name| pops_db.get(name).map(|r| intern_rel(r, &interner)))
        .collect();
    let bool_edb: Vec<Option<ColumnRel<Bool>>> = compiled
        .bool_edbs
        .iter()
        .map(|name| bool_db.get(name).map(|r| intern_rel(r, &interner)))
        .collect();
    Ok(assemble(interner, compiled, pops_edb, bool_edb))
}

/// [`setup`] over a previous run's **interned output** as the POPS EDB:
/// the interner is shared (cloned — ids keep their meaning, no
/// `Constant` round-trip), relation names resolve first against
/// `extra_pops` (fresh classic-form relations, e.g. the original edge
/// list) and then against `prev`'s interned relations, which are reused
/// storage-for-storage. The active domain is everything the shared
/// interner knows — a superset of the paper's EDB ∪ program constants
/// when `prev` interned more than the fed relations mention, which only
/// matters for programs that enumerate unbound slots over the domain.
fn setup_interned<P: Pops>(
    program: &Program<P>,
    prev: &InternedOutput<P>,
    extra_pops: &Database<P>,
    bool_db: &BoolDatabase,
    set_valued: &[String],
) -> Result<Engine<P>, CompileError> {
    let mut interner = prev.interner().clone();
    intern_db_consts(extra_pops, &mut interner);
    intern_db_consts(bool_db, &mut interner);
    let compiled = compile_demand(program, &mut interner, set_valued)?;
    let pops_edb: Vec<Option<ColumnRel<P>>> = compiled
        .pops_edbs
        .iter()
        .map(|name| {
            extra_pops
                .get(name)
                .map(|r| intern_rel(r, &interner))
                .or_else(|| prev.relation(name).cloned())
        })
        .collect();
    let bool_edb: Vec<Option<ColumnRel<Bool>>> = compiled
        .bool_edbs
        .iter()
        .map(|name| bool_db.get(name).map(|r| intern_rel(r, &interner)))
        .collect();
    Ok(assemble(interner, compiled, pops_edb, bool_edb))
}

/// The shared setup tail: active domain plus index-mask bookkeeping.
fn assemble<P: Pops>(
    interner: Interner,
    compiled: CompiledProgram<P>,
    pops_edb: Vec<Option<ColumnRel<P>>>,
    bool_edb: Vec<Option<ColumnRel<Bool>>>,
) -> Engine<P> {
    // The active domain (EDB constants ∪ program constants) is exactly
    // the interned set; enumerate it in constant order to mirror the
    // relational backend.
    let mut adom: Vec<u32> = (0..interner.len() as u32).collect();
    adom.sort_by(|a, b| interner.get(*a).cmp(interner.get(*b)));

    let nidb = compiled.idbs.len();
    let mut idb_new_masks: Vec<Vec<u32>> = vec![vec![]; nidb];
    let mut idb_delta_masks: Vec<Vec<u32>> = vec![vec![]; nidb];
    let mut edb_reqs: Vec<(Source, ColMask)> = vec![];
    for (source, mask) in compiled.index_requirements() {
        match source {
            Source::PopsEdb(_) | Source::BoolEdb(_) => edb_reqs.push((source, mask)),
            Source::IdbNew(i) | Source::IdbOld(i) => add_mask(&mut idb_new_masks[i], mask),
            Source::IdbDelta(i) => add_mask(&mut idb_delta_masks[i], mask),
        }
    }
    Engine {
        interner,
        compiled: Arc::new(compiled),
        pops_edb,
        bool_edb,
        adom,
        idb_new_masks,
        idb_delta_masks,
        edb_reqs,
        join_mode: JoinMode::default(),
    }
}

/// Renders a compiler rejection into the typed error every entry point
/// returns. The two structural limits of columnar storage (arity > 32,
/// one head predicate at two arities) land here; there is no slower
/// backend to fall back to any more — the engine is total over the
/// language, and programs outside these representation limits are
/// malformed for every backend (the relational backend debug-asserts on
/// mixed-arity heads).
pub(crate) fn compile_error(e: CompileError) -> EvalError {
    EvalError::Compile {
        detail: format!("dlo_engine cannot represent this program in columnar storage: {e:?}"),
    }
}

/// [`setup`], converting compiler rejections into
/// [`EvalError::Compile`] (see [`compile_error`]).
pub(crate) fn setup_checked<P: Pops>(
    program: &Program<P>,
    pops_db: &Database<P>,
    bool_db: &BoolDatabase,
    set_valued: &[String],
) -> Result<Engine<P>, EvalError> {
    setup(program, pops_db, bool_db, set_valued).map_err(compile_error)
}

/// [`setup_interned`] with the same error contract as [`setup_checked`].
pub(crate) fn setup_interned_checked<P: Pops>(
    program: &Program<P>,
    prev: &InternedOutput<P>,
    extra_pops: &Database<P>,
    bool_db: &BoolDatabase,
    set_valued: &[String],
) -> Result<Engine<P>, EvalError> {
    setup_interned(program, prev, extra_pops, bool_db, set_valued).map_err(compile_error)
}

impl<P: Pops> Engine<P> {
    pub(crate) fn empty_idbs(&self) -> Vec<ColumnRel<P>> {
        self.compiled
            .idbs
            .iter()
            .map(|(_, arity)| ColumnRel::new(*arity))
            .collect()
    }

    /// Everything a plan run over `state` reads.
    fn ctx<'a>(&'a self, state: &'a IdbState<P>) -> EvalCtx<'a, P> {
        EvalCtx {
            interner: &self.interner,
            adom: &self.adom,
            pops_edb: &self.pops_edb,
            bool_edb: &self.bool_edb,
            idb_new: &state.new,
            idb_changed: &state.changed,
            idb_delta: &state.delta,
        }
    }

    /// `(first-step work estimate, chunkable)` for a plan against the
    /// given IDB state — the input of [`chunk_tasks`]. A probe-driven
    /// first step gets a flat estimate (its candidate count is unknown
    /// until the key is assembled); an unindexed scan is chunkable.
    fn step0_estimate(&self, plan: &Plan<P>, state: &IdbState<P>) -> (usize, bool) {
        match plan.steps.first() {
            None => (1, false),
            Some(step) if step.mask != 0 => (16, false),
            Some(step) => {
                let len = match step.source {
                    Source::PopsEdb(i) => self.pops_edb[i].as_ref().map_or(0, |r| r.len()),
                    Source::BoolEdb(i) => self.bool_edb[i].as_ref().map_or(0, |r| r.len()),
                    Source::IdbNew(i) | Source::IdbOld(i) => state.new[i].len(),
                    Source::IdbDelta(i) => state.delta[i].len(),
                };
                (len, true)
            }
        }
    }

    /// Switches the IDB masks to a frontier run's: the worklist plans'
    /// `New`/`Old` masks join the global ones, their Δ masks replace the
    /// global Δ masks (a frontier run never fires delta plans). Returns
    /// the worklist requirements for the EDB index build.
    fn use_worklist_masks(&mut self) -> Vec<(Source, ColMask)> {
        let reqs = self.compiled.worklist_index_requirements();
        self.idb_delta_masks = vec![vec![]; self.idb_delta_masks.len()];
        for &(source, mask) in &reqs {
            match source {
                Source::IdbNew(i) | Source::IdbOld(i) => add_mask(&mut self.idb_new_masks[i], mask),
                Source::IdbDelta(i) => add_mask(&mut self.idb_delta_masks[i], mask),
                Source::PopsEdb(_) | Source::BoolEdb(_) => {}
            }
        }
        reqs
    }
}

/// Builds the parallel task list from per-plan first-step estimates: one
/// task per plan, with chunkable scan-driven plans split into first-step
/// row ranges.
fn chunk_tasks(
    estimates: &[(usize, bool)],
    threads: usize,
    chunk_min: usize,
) -> Vec<(usize, Option<(usize, usize)>)> {
    let mut tasks: Vec<(usize, Option<(usize, usize)>)> = vec![];
    for (pi, &(est, chunkable)) in estimates.iter().enumerate() {
        if chunkable && est > 2 * chunk_min {
            let chunk = (est / (threads * 4)).max(chunk_min);
            let mut lo = 0;
            while lo < est {
                tasks.push((pi, Some((lo, (lo + chunk).min(est)))));
                lo += chunk;
            }
        } else {
            tasks.push((pi, None));
        }
    }
    tasks
}

impl<P: Pops + Send> Engine<P> {
    /// Builds every EDB-side index the compiled plans probe — the
    /// seed/semi-naïve requirements collected at setup plus `extra`
    /// (the frontier's worklist-plan requirements; IDB entries in
    /// `extra` are ignored, the caller owns those relations) — fanning
    /// per-relation builds over `threads` scoped workers. Builds are
    /// independent per relation and each index's content is
    /// insertion-order determined, so parallel construction is
    /// observation-equivalent to a sequential loop. A panic in a build
    /// is contained by the pool and surfaced as an abort.
    pub(crate) fn build_edb_indexes(
        &mut self,
        extra: &[(Source, ColMask)],
        threads: usize,
    ) -> Result<(), Abort> {
        enum Work<'a, P> {
            Pops(&'a mut ColumnRel<P>, Vec<ColMask>),
            Bool(&'a mut ColumnRel<Bool>, Vec<ColMask>),
        }
        let mut pops_masks: Vec<Vec<ColMask>> = vec![vec![]; self.pops_edb.len()];
        let mut bool_masks: Vec<Vec<ColMask>> = vec![vec![]; self.bool_edb.len()];
        for &(source, mask) in self.edb_reqs.iter().chain(extra) {
            match source {
                Source::PopsEdb(i) => add_mask(&mut pops_masks[i], mask),
                Source::BoolEdb(i) => add_mask(&mut bool_masks[i], mask),
                _ => {}
            }
        }
        let mut work: Vec<Work<'_, P>> = vec![];
        for (rel, masks) in self.pops_edb.iter_mut().zip(pops_masks) {
            if let Some(rel) = rel.as_mut() {
                if !masks.is_empty() {
                    work.push(Work::Pops(rel, masks));
                }
            }
        }
        for (rel, masks) in self.bool_edb.iter_mut().zip(bool_masks) {
            if let Some(rel) = rel.as_mut() {
                if !masks.is_empty() {
                    work.push(Work::Bool(rel, masks));
                }
            }
        }
        let mode = self.join_mode;
        par::run_each(work, threads, |w| match w {
            Work::Pops(rel, masks) => {
                for mask in masks {
                    rel.ensure_probe_for(mask, mode);
                }
            }
            Work::Bool(rel, masks) => {
                for mask in masks {
                    rel.ensure_probe_for(mask, mode);
                }
            }
        })
        .map_err(|message| Abort::WorkerPanic { message })
    }
}

/// Ensures every probe structure in `masks` on `rel` under `mode`
/// ([`ColumnRel::ensure_probe_for`]), reporting whether any of them
/// dispatched to a sorted arrangement — callers attribute the loop's
/// wall-clock to the `arrange` phase leg only when one did (an
/// approximation: a mixed loop's hash builds ride along, but the legs
/// are timing-only and never affect results).
pub(crate) fn ensure_probes<P: Pops>(
    rel: &mut ColumnRel<P>,
    masks: &[u32],
    mode: JoinMode,
) -> bool {
    let mut arranged = false;
    for &mask in masks {
        arranged |= mode.arranged(rel.arity(), mask);
        rel.ensure_probe_for(mask, mode);
    }
    arranged
}

/// Ensures the delta's probe structures under the engine's resolved
/// [`JoinMode`]; returns whether any dispatched to an arrangement (see
/// [`ensure_probes`]).
pub(crate) fn ensure_delta_indexes<P: Pops>(engine: &Engine<P>, state: &mut IdbState<P>) -> bool {
    let mut arranged = false;
    for (pred, rel) in state.delta.iter_mut().enumerate() {
        arranged |= ensure_probes(rel, &engine.idb_delta_masks[pred], engine.join_mode);
    }
    arranged
}

/// Drains the spine-merge counters every IDB relation accumulated since
/// the last drain into the run's `arrange_batches_merged` total. All
/// arrangement maintenance happens on the coordinating thread (inserts
/// are single-threaded between phases), so the total is thread-invariant.
pub(crate) fn drain_arrange_merges<P: Pops>(state: &mut IdbState<P>, col: &mut Collector) {
    let mut merges = 0;
    for rel in state.new.iter_mut().chain(state.delta.iter_mut()) {
        merges += rel.take_arrange_merges();
    }
    col.stats.counters.arrange_batches_merged += merges;
}

/// Consumes a finished engine into the decode-free output handle.
fn finish<P: Pops>(engine: Engine<P>, rels: Vec<ColumnRel<P>>) -> InternedOutput<P> {
    InternedOutput::new(engine.interner, engine.compiled.idbs.clone(), rels)
}

/// Wraps a pre-run failure (a compile rejection) into the
/// partial-result error channel of the `*_partial` entry points: no
/// evaluation ever started, so the attached partial is empty (no
/// predicates, no rows, nothing settled).
pub(crate) fn empty_aborted<P: Pops>(error: EvalError) -> Box<AbortedEval<P>> {
    let partial = PartialOutput::new(
        InternedOutput::new(Interner::new(), vec![], vec![]),
        SettledMark::best_effort(0),
        EvalStats::default(),
    );
    Box::new(AbortedEval::new(error, partial))
}

fn merge_fresh<P: PreSemiring>(map: &mut BTreeMap<Box<[HeadVal]>, P>, key: &[HeadVal], v: P) {
    match map.get_mut(key) {
        Some(g) => *g = g.add(&v),
        None => {
            map.insert(key.into(), v);
        }
    }
}

/// Resolves a fresh head key into a fully interned row, minting ids for
/// integers first derived by a head key function this iteration.
///
/// Distinct fresh keys always mint to distinct rows: `Fresh` cells map
/// injectively to brand-new ids (they were not interned when the phase
/// ran) and `Id` cells predate the phase, so a minted row can collide
/// neither with another minted row nor with any row already stored.
fn mint_key(interner: &mut Interner, key: &[HeadVal]) -> Vec<u32> {
    key.iter()
        .map(|hv| match hv {
            HeadVal::Id(id) => *id,
            HeadVal::Fresh(i) => interner.intern_int(*i),
        })
        .collect()
}

/// Where a phase's emissions land, one sink per IDB: the global loops
/// `⊕`-merge into an [`AccumMap`], the frontier appends to an ordered
/// buffer. The phase runner is generic over the sink, so the per-emit
/// call is monomorphized.
pub(crate) trait Sink<P>: Send + Sized {
    /// An empty sink for keys of `arity` columns.
    fn for_arity(arity: usize) -> Self;
    /// Takes one emission.
    fn emit(&mut self, key: &[u32], v: P);
    /// Folds a task-local sink in (the parallel merge, in task order).
    fn absorb(&mut self, other: Self);
    /// Hands every emission to `f` and leaves the sink empty.
    fn drain(&mut self, f: impl FnMut(&[u32], P));
}

impl<P: PreSemiring + Send> Sink<P> for AccumMap<P> {
    fn for_arity(arity: usize) -> Self {
        AccumMap::new(arity)
    }

    #[inline]
    fn emit(&mut self, key: &[u32], v: P) {
        self.merge(key, v);
    }

    fn absorb(&mut self, other: Self) {
        AccumMap::absorb(self, other);
    }

    /// Drains in ascending key order ([`AccumMap::drain_sorted`]).
    fn drain(&mut self, f: impl FnMut(&[u32], P)) {
        let width = match self {
            AccumMap::Packed { width, .. } => *width,
            AccumMap::Wide(_) => 3, // every width above 2 is wide
        };
        std::mem::replace(self, AccumMap::new(width)).drain_sorted(f);
    }
}

/// One phase's output: a sink per IDB, and per IDB the head keys
/// holding constants not interned yet. Those are a `BTreeMap`, so their
/// drain — and with it id minting — is deterministic without a sort.
pub(crate) struct PhaseOut<P, S> {
    pub(crate) sinks: Vec<S>,
    fresh: Vec<BTreeMap<Box<[HeadVal]>, P>>,
}

impl<P: Pops, S: Sink<P>> PhaseOut<P, S> {
    /// Empty output for every IDB of `engine`.
    pub(crate) fn new(engine: &Engine<P>) -> Self {
        let idbs = &engine.compiled.idbs;
        PhaseOut {
            sinks: idbs.iter().map(|(_, arity)| S::for_arity(*arity)).collect(),
            fresh: idbs.iter().map(|_| BTreeMap::new()).collect(),
        }
    }
}

/// Why a kernel loop stopped short of its fixpoint.
pub(crate) enum LoopFail {
    /// A governed stop or a contained worker panic, with the checkpoint
    /// that caught it and the completed step count.
    Abort {
        abort: Abort,
        checkpoint: Checkpoint,
        steps: usize,
    },
    /// The step cap ran out.
    Diverged,
}

impl LoopFail {
    /// Tags an abort with the checkpoint and step it stopped at.
    pub(crate) fn at(checkpoint: Checkpoint, steps: usize) -> impl FnOnce(Abort) -> LoopFail {
        move |abort| LoopFail::Abort {
            abort,
            checkpoint,
            steps,
        }
    }
}

/// One run's instrumentation: the stats collector, the governor, the
/// fan-out knobs, and the eval clock.
pub(crate) struct RunCx {
    pub(crate) col: Collector,
    gov: Governor,
    threads: usize,
    par_threshold: usize,
    chunk_min: usize,
    t_eval: Option<Instant>,
}

impl RunCx {
    /// Starts collection and governance for one run over `engine`, whose
    /// join mode is already resolved. `setup_ns` is recorded as the
    /// setup phase and backdated into the governor's deadline.
    pub(crate) fn new<P: Pops>(
        engine: &Engine<P>,
        opts: &EngineOpts,
        strategy: &str,
        setup_ns: u64,
    ) -> RunCx {
        let threads = opts.effective_threads();
        let metas = engine.compiled.plan_metas_for(engine.join_mode);
        RunCx {
            col: Collector::new(strategy, threads, setup_ns, metas, opts),
            gov: Governor::new(opts, setup_ns),
            threads,
            par_threshold: opts.par_threshold,
            chunk_min: opts.chunk_min,
            t_eval: None,
        }
    }

    /// Starts the eval clock.
    pub(crate) fn start_eval(&mut self) {
        self.t_eval = Some(Instant::now());
    }

    /// Nanoseconds since the eval clock started (0 before it started).
    pub(crate) fn eval_ns(&self) -> u64 {
        self.t_eval.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }

    /// One governance checkpoint after `steps` completed phases.
    pub(crate) fn check(&mut self, steps: usize, checkpoint: Checkpoint) -> Result<(), LoopFail> {
        self.gov
            .check(steps as u64, &mut self.col)
            .map_err(LoopFail::at(checkpoint, steps))
    }
}

/// The run prologue of every from-scratch run and every
/// `Materialization` build: resolves the join mode, starts the run's
/// collector and governor, takes the pre-index checkpoint (a cancelled
/// or already-over-deadline run stops before paying for the EDB index
/// build), builds the EDB indexes — with the worklist plans'
/// requirements when `frontier` — starts the eval clock, and ensures
/// `state`'s probe structures (Δ too for a frontier run, whose batch
/// relations keep them across clears).
pub(crate) fn prologue<P: Pops + Send>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    opts: &EngineOpts,
    strategy: &str,
    setup_ns: u64,
    frontier: bool,
) -> (RunCx, Result<(), LoopFail>) {
    engine.join_mode = opts.effective_join_mode();
    let mut run = RunCx::new(engine, opts, strategy, setup_ns);
    let extra = if frontier {
        engine.use_worklist_masks()
    } else {
        vec![]
    };
    let ready = (|| {
        run.check(0, Checkpoint::Phase)?;
        let t = Instant::now();
        engine
            .build_edb_indexes(&extra, run.threads)
            .map_err(LoopFail::at(Checkpoint::Phase, 0))?;
        run.col.edb_index_phase(t.elapsed().as_nanos() as u64);
        run.start_eval();
        let t_arr = Instant::now();
        let mut arranged = false;
        for (pred, rel) in state.new.iter_mut().enumerate() {
            arranged |= ensure_probes(rel, &engine.idb_new_masks[pred], engine.join_mode);
        }
        if frontier {
            arranged |= ensure_delta_indexes(engine, state);
        }
        if arranged {
            run.col.arrange_phase(t_arr.elapsed().as_nanos() as u64);
        }
        Ok(())
    })();
    (run, ready)
}

/// The phase runner: runs `plans` against `state` into `out`. On one
/// thread, or below `par_threshold` estimated first-step work, the plans
/// run inline in order; otherwise (plan × row-chunk) tasks fan out over
/// [`par::run_indexed`] and task-local sinks are absorbed in task order
/// — chunks partition a plan's first-step candidates in row order, so
/// the result, the fresh maps and the counter sums are independent of
/// the thread count. A panicking plan is contained and surfaced as
/// [`Abort::WorkerPanic`], deterministically: the lowest-indexed
/// panicking task wins in the pool, and the inline path visits tasks in
/// the same order.
pub(crate) fn run_phase<P, B, S>(
    engine: &Engine<P>,
    plans: &[B],
    state: &IdbState<P>,
    run: &mut RunCx,
    out: &mut PhaseOut<P, S>,
) -> Result<(), Abort>
where
    P: Pops + Send + Sync,
    B: Borrow<Plan<P>> + Sync,
    S: Sink<P>,
{
    let ctx = engine.ctx(state);
    // One thread never fans out, so it skips even the estimate pass: the
    // frontier fires thousands of often tiny batches per run.
    let mut tasks = None;
    if run.threads > 1 {
        let estimates: Vec<(usize, bool)> = plans
            .iter()
            .map(|plan| engine.step0_estimate(plan.borrow(), state))
            .collect();
        if estimates.iter().map(|(e, _)| e).sum::<usize>() >= run.par_threshold {
            tasks = Some(chunk_tasks(&estimates, run.threads, run.chunk_min));
        }
    }
    let Some(tasks) = tasks else {
        for plan in plans {
            let plan = plan.borrow();
            let sink = &mut out.sinks[plan.head_pred];
            let facc = &mut out.fresh[plan.head_pred];
            let mut counters = ExecCounters::default();
            let t = Instant::now();
            catch_unwind(AssertUnwindSafe(|| {
                run_plan(
                    plan,
                    &ctx,
                    None,
                    &mut counters,
                    &mut |key, v| sink.emit(key, v),
                    &mut |key, v| merge_fresh(facc, key, v),
                );
            }))
            .map_err(|p| Abort::WorkerPanic {
                message: par::payload_message(p),
            })?;
            run.col
                .add_plan(plan.pid, counters, t.elapsed().as_nanos() as u64);
        }
        return Ok(());
    };
    let results = par::run_indexed(tasks.len(), run.threads, |ti| {
        let (pi, range) = tasks[ti];
        let plan = plans[pi].borrow();
        let mut local = S::for_arity(engine.compiled.idbs[plan.head_pred].1);
        let mut local_fresh: BTreeMap<Box<[HeadVal]>, P> = BTreeMap::new();
        let mut counters = ExecCounters::default();
        let t = Instant::now();
        run_plan(
            plan,
            &ctx,
            range,
            &mut counters,
            &mut |key, v| local.emit(key, v),
            &mut |key, v| merge_fresh(&mut local_fresh, key, v),
        );
        (
            plan,
            local,
            local_fresh,
            counters,
            t.elapsed().as_nanos() as u64,
        )
    })
    .map_err(|message| Abort::WorkerPanic { message })?;
    run.col.parallel_batch(tasks.len());
    for (plan, local, local_fresh, counters, nanos) in results {
        run.col.add_plan(plan.pid, counters, nanos);
        out.sinks[plan.head_pred].absorb(local);
        for (key, v) in local_fresh {
            merge_fresh(&mut out.fresh[plan.head_pred], &key, v);
        }
    }
    Ok(())
}

/// Folds one phase's output into state through `row`: every sink's
/// emissions, then the fresh head keys, minted to ids in sorted
/// key order (timed as the `mint` phase). Set-valued (magic) predicates
/// reach `row` flagged and at value `1`, whatever their plans summed:
/// demand is a set.
pub(crate) fn fold_phase<P: Pops, S: Sink<P>>(
    engine: &mut Engine<P>,
    out: &mut PhaseOut<P, S>,
    col: &mut Collector,
    mut row: impl FnMut(&mut Counters, usize, bool, &[u32], P),
) {
    let set_valued = &engine.compiled.set_valued;
    let mut fold = |c: &mut Counters, pred: usize, key: &[u32], v: P| {
        let sv = set_valued[pred];
        row(c, pred, sv, key, if sv { P::one() } else { v });
    };
    for (pred, sink) in out.sinks.iter_mut().enumerate() {
        let c = &mut col.stats.counters;
        sink.drain(|key, v| fold(c, pred, key, v));
    }
    let t_mint = Instant::now();
    let minted_before = engine.interner.len();
    for (pred, acc) in out.fresh.iter_mut().enumerate() {
        for (key, v) in std::mem::take(acc) {
            let key = mint_key(&mut engine.interner, &key);
            fold(&mut col.stats.counters, pred, &key, v);
        }
    }
    col.stats.counters.minted_ids += (engine.interner.len() - minted_before) as u64;
    col.stats.phases.mint += t_mint.elapsed().as_nanos() as u64;
}

/// Opens one global phase at `step`: the governance checkpoint, then
/// `plans` run into `⊕`-accumulators, returned with the counters the
/// phase started from.
fn global_phase<P: Pops + Send + Sync>(
    engine: &Engine<P>,
    state: &IdbState<P>,
    plans: &[Plan<P>],
    step: usize,
    checkpoint: Checkpoint,
    run: &mut RunCx,
) -> Result<(PhaseOut<P, AccumMap<P>>, Counters), LoopFail> {
    run.check(step, checkpoint)?;
    let before = run.col.stats.counters;
    let mut out = PhaseOut::new(engine);
    run_phase(engine, plans, state, run, &mut out).map_err(LoopFail::at(checkpoint, step))?;
    Ok((out, before))
}

/// The naïve loop `J ↦ F(J)` with `plans` as `F`, from the current
/// state until a step reproduces its input. Any pre-fixpoint start
/// converges to the least fixpoint: the empty state of a from-scratch
/// run, the old fixpoint after an insert, the survivors after a delete.
/// Steps count from 0; the step that reproduces its input is the
/// converged step.
pub(crate) fn naive_loop<P: NaturallyOrdered + Send + Sync>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    plans: &[Plan<P>],
    cap: usize,
    run: &mut RunCx,
) -> Result<usize, LoopFail> {
    for steps in 0..=cap {
        let (mut out, before) =
            global_phase(engine, state, plans, steps, Checkpoint::Iteration, run)?;
        let mut next = engine.empty_idbs();
        fold_phase(engine, &mut out, &mut run.col, |_, pred, _, key, v| {
            next[pred].insert_row(key, v);
        });
        let fixed = next
            .iter()
            .zip(&state.new)
            .all(|(n, c)| n.len() == c.len() && n.iter().all(|(_, k, v)| c.get(k) == Some(v)));
        run.col.end_step(steps, 0, 0, &before);
        if fixed {
            return Ok(steps);
        }
        let t_arr = Instant::now();
        let mut arranged = false;
        for (pred, rel) in next.iter_mut().enumerate() {
            arranged |= ensure_probes(rel, &engine.idb_new_masks[pred], engine.join_mode);
            rel.succeed_version(&state.new[pred]);
        }
        if arranged {
            run.col.arrange_phase(t_arr.elapsed().as_nanos() as u64);
        }
        state.new = next;
    }
    Err(LoopFail::Diverged)
}

/// The semi-naïve seed, step 0: `J(1) = F(0)` with `plans` as `F`, and
/// `δ(0) = J(1)`, every row marked as appended.
pub(crate) fn seminaive_seed<P: Pops + Send + Sync>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    plans: &[Plan<P>],
    run: &mut RunCx,
) -> Result<(), LoopFail> {
    let (mut out, before) = global_phase(engine, state, plans, 0, Checkpoint::Phase, run)?;
    fold_phase(engine, &mut out, &mut run.col, |c, pred, _, key, v| {
        let r = state.new[pred].insert_row(key, v.clone());
        state.changed[pred].insert(r, None);
        state.delta[pred].append_row(key, v);
        c.rows_inserted += 1;
    });
    index_delta(engine, state, &mut run.col);
    run.col.end_step(0, 0, 0, &before);
    Ok(())
}

/// The semi-naïve delta loop after phase `start`: each step runs `plans`
/// against δ and advances ([`seminaive_step`]) until δ drains. It
/// converges at the first step whose δ is empty — a from-scratch run
/// whose δ drains after `k` iterations converges at step `k + 1` — and
/// diverges when that step would pass `cap`.
pub(crate) fn seminaive_loop<P>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    plans: &[Plan<P>],
    start: usize,
    cap: usize,
    run: &mut RunCx,
) -> Result<usize, LoopFail>
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    for steps in start + 1..=cap {
        if state.delta.iter().all(|d| d.is_empty()) {
            return Ok(steps);
        }
        let delta_rows: u64 = state.delta.iter().map(|d| d.len() as u64).sum();
        seminaive_step(
            engine,
            state,
            plans,
            steps,
            delta_rows,
            Checkpoint::Iteration,
            run,
        )?;
    }
    Err(LoopFail::Diverged)
}

/// One semi-naïve step: runs `plans` and folds their contributions in
/// with [`apply_contrib`]. The delta loop's body, and the seed of an
/// edit's continuation (an insert's telescoped differential, a delete's
/// rederive). `delta_rows` is the step's input size for the stats.
pub(crate) fn seminaive_step<P>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    plans: &[Plan<P>],
    step: usize,
    delta_rows: u64,
    checkpoint: Checkpoint,
    run: &mut RunCx,
) -> Result<(), LoopFail>
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    let (out, before) = global_phase(engine, state, plans, step, checkpoint, run)?;
    apply_contrib(engine, state, out, &mut run.col);
    run.col.end_step(step, delta_rows, 0, &before);
    Ok(())
}

/// The semi-naïve **advance**: merges one phase's accumulated
/// contributions into the IDB state — `δ' = contrib ⊖ new` (pointwise
/// on supports), `new' = new ⊕ contrib` — and leaves `state.delta`
/// holding the next iteration's indexed delta. Fresh head keys name rows
/// that cannot exist yet, so for them `δ' = v ⊖ 0` and the insert is an
/// append.
fn apply_contrib<P>(
    engine: &mut Engine<P>,
    state: &mut IdbState<P>,
    mut contrib: PhaseOut<P, AccumMap<P>>,
    col: &mut Collector,
) where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    let mut next_delta = engine.empty_idbs();
    for ch in &mut state.changed {
        ch.clear();
    }
    fold_phase(engine, &mut contrib, col, |c, pred, sv, key, v| {
        let new = &mut state.new[pred];
        if sv {
            // Set-valued (magic) rows: present means settled — no
            // merge, no delta for already-demanded bindings.
            if new.rowid(key).is_none() {
                next_delta[pred].append_row(key, P::one());
                let r = new.insert_row(key, P::one());
                state.changed[pred].insert(r, None);
                c.rows_inserted += 1;
            } else {
                c.set_valued_shortcircuits += 1;
            }
            return;
        }
        let existing = new.get(key).cloned().unwrap_or_else(P::zero);
        let diff = v.minus(&existing);
        if diff.is_zero() {
            c.merges_absorbed += 1;
            return;
        }
        next_delta[pred].append_row(key, diff);
        match new.rowid(key) {
            Some(r) => {
                let merged = existing.add(&v);
                state.changed[pred].insert(r, Some(existing));
                new.set_val(r, merged);
                c.rows_improved += 1;
            }
            None => {
                let r = new.insert_row(key, v);
                state.changed[pred].insert(r, None);
                c.rows_inserted += 1;
            }
        }
    });
    state.delta = next_delta;
    index_delta(engine, state, col);
}

/// Ensures Δ's probe structures (timed as the `arrange` phase when any
/// is an arrangement) and drains the arrangement-merge counters: the
/// tail of every phase that refilled Δ.
fn index_delta<P: Pops>(engine: &Engine<P>, state: &mut IdbState<P>, col: &mut Collector) {
    let t_arr = Instant::now();
    if ensure_delta_indexes(engine, state) {
        col.arrange_phase(t_arr.elapsed().as_nanos() as u64);
    }
    drain_arrange_merges(state, col);
}

/// A from-scratch run: the [`prologue`], then `body` (the strategy's
/// loop) over a fresh IDB state, and the one place its result becomes
/// the public outcome. Hitting the cap is `Ok(Diverged)`; a governed
/// abort returns the boxed [`AbortedEval`] — the typed error plus the
/// abort-time IDB state, exact on the settled rows of a `"priority"`
/// run and a best-effort lower bound otherwise (`J(t) ⊑ lfp` is the
/// loop invariant of every strategy).
pub(crate) fn drive<P: Pops + Send + Sync>(
    mut engine: Engine<P>,
    opts: &EngineOpts,
    strategy: &str,
    setup_ns: u64,
    frontier: bool,
    cap: usize,
    body: impl FnOnce(
        &mut Engine<P>,
        &mut IdbState<P>,
        &mut SettledMark,
        &mut RunCx,
    ) -> Result<usize, LoopFail>,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>> {
    let nidb = engine.compiled.idbs.len();
    let mut settled = if strategy == "priority" {
        SettledMark::exact_empty(nidb)
    } else {
        SettledMark::best_effort(nidb)
    };
    let mut state = IdbState::new(&engine);
    let (mut run, ready) = prologue(&mut engine, &mut state, opts, strategy, setup_ns, frontier);
    let result = ready.and_then(|()| body(&mut engine, &mut state, &mut settled, &mut run));
    let eval_ns = run.eval_ns();
    match result {
        Ok(steps) => Ok(InternedOutcome::Converged {
            stats: run.col.finish(steps, true, eval_ns),
            output: finish(engine, state.new),
            steps,
        }),
        Err(LoopFail::Diverged) => Ok(InternedOutcome::Diverged {
            stats: run.col.finish(cap, false, eval_ns),
            last: finish(engine, state.new),
            cap,
        }),
        Err(LoopFail::Abort {
            abort,
            checkpoint,
            steps,
        }) => {
            let settled_rows = settled.settled_rows();
            let error = abort_error(abort, checkpoint, settled_rows, run.col, steps, eval_ns);
            let stats = error.stats().cloned().unwrap_or_default();
            let partial = PartialOutput::new(finish(engine, state.new), settled, stats);
            Err(Box::new(AbortedEval::new(error, partial)))
        }
    }
}

/// Naïve evaluation on the engine: `J(t+1) = F(J(t))` with every IDB
/// occurrence reading the new state. Agrees with
/// `relational_naive_eval` (cross-checked in tests), including programs
/// whose heads apply key functions — fresh constants are minted into the
/// interner between iterations.
///
/// # Errors
///
/// [`EvalError::Compile`] on programs the columnar storage cannot
/// represent (an atom of arity > 32, one head predicate at two
/// arities); under governed options also the budget / deadline /
/// cancellation / worker-panic variants. Hitting the iteration cap is
/// **not** an error here — it returns `Ok` with
/// [`EvalOutcome::Diverged`] (use
/// [`EvalOutcome::into_result`](dlo_core::eval::EvalOutcome::into_result)
/// for the typed divergence error).
pub fn engine_naive_eval<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered + Send + Sync,
{
    engine_naive_eval_with_opts(program, pops_edb, bool_edb, cap, &EngineOpts::default())
}

/// [`engine_naive_eval`] with explicit tuning knobs.
///
/// # Errors
///
/// As [`engine_naive_eval`].
pub fn engine_naive_eval_with_opts<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    opts: &EngineOpts,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered + Send + Sync,
{
    let t = Instant::now();
    let engine = setup_checked(program, pops_edb, bool_edb, &[])?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    Ok(naive_run(engine, cap, opts, setup_ns)
        .map_err(|b| EvalError::from(*b))?
        .materialize())
}

/// The naïve run over a prepared [`Engine`] (shared by the classic
/// entry points and the demand-rewritten query path). `setup_ns` is the
/// caller-measured compile/intern time, recorded into the stats. The
/// naïve loop never settles rows early, so an abort's partial is a
/// best-effort lower bound.
pub(crate) fn naive_run<P>(
    engine: Engine<P>,
    cap: usize,
    opts: &EngineOpts,
    setup_ns: u64,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>>
where
    P: NaturallyOrdered + Send + Sync,
{
    let compiled = Arc::clone(&engine.compiled);
    drive(
        engine,
        opts,
        "naive",
        setup_ns,
        false,
        cap,
        |engine, state, _, run| naive_loop(engine, state, &compiled.seed_plans, cap, run),
    )
}

/// Parallel semi-naïve evaluation on the engine (Theorem 6.5). Agrees
/// with `relational_seminaive_eval` — same fixpoint, same step count —
/// while running interned, indexed, and multi-threaded. Head key
/// functions evaluate natively: constants they derive are minted into
/// the interner between iterations and enter `new`/`δ` as ordinary
/// appends.
///
/// # Errors
///
/// As [`engine_naive_eval`]: compile rejections and governed aborts are
/// typed errors; hitting the iteration cap is `Ok(Diverged)`.
pub fn engine_seminaive_eval<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    engine_seminaive_eval_with_opts(program, pops_edb, bool_edb, cap, &EngineOpts::default())
}

/// [`engine_seminaive_eval`] with explicit tuning knobs.
///
/// # Errors
///
/// As [`engine_naive_eval`].
pub fn engine_seminaive_eval_with_opts<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    opts: &EngineOpts,
) -> Result<EvalOutcome<P>, EvalError>
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    Ok(engine_seminaive_eval_interned(program, pops_edb, bool_edb, cap, opts)?.materialize())
}

/// [`engine_seminaive_eval`] returning the **decode-free**
/// [`InternedOutcome`]: the fixpoint stays interned (ids + interner
/// handle) and the rank-sorted `Database` build is deferred until a
/// caller asks for it — on 500k-row outputs that build is the largest
/// single phase of a run, and pipelines feeding results back into the
/// engine never need it.
///
/// # Errors
///
/// As [`engine_naive_eval`].
pub fn engine_seminaive_eval_interned<P>(
    program: &Program<P>,
    pops_edb: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    opts: &EngineOpts,
) -> Result<InternedOutcome<P>, EvalError>
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    let t = Instant::now();
    let engine = setup_checked(program, pops_edb, bool_edb, &[])?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    seminaive_run(engine, cap, opts, setup_ns).map_err(|b| EvalError::from(*b))
}

/// [`engine_seminaive_eval_interned`] over an **interned EDB**: the
/// previous run's [`InternedOutput`] serves as the POPS database
/// (shared interner, relations reused storage-for-storage — no
/// `Constant`/`Database` round-trip anywhere on the chain), with
/// `extra_pops` overlaying fresh classic-form relations for names the
/// interned output does not carry (e.g. the original edge list of a
/// refine step). Name resolution prefers `extra_pops`.
///
/// # Errors
///
/// As [`engine_naive_eval`].
pub fn engine_seminaive_eval_interned_edb<P>(
    program: &Program<P>,
    prev: &InternedOutput<P>,
    extra_pops: &Database<P>,
    bool_edb: &BoolDatabase,
    cap: usize,
    opts: &EngineOpts,
) -> Result<InternedOutcome<P>, EvalError>
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    let t = Instant::now();
    let engine = setup_interned_checked(program, prev, extra_pops, bool_edb, &[])?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    seminaive_run(engine, cap, opts, setup_ns).map_err(|b| EvalError::from(*b))
}

/// The parallel semi-naïve run over a prepared [`Engine`] (shared by
/// the classic, interned-EDB, and demand-rewritten query entry points):
/// the seed, then the delta loop. Nothing is settled until convergence,
/// so an abort's partial is a best-effort lower bound.
pub(crate) fn seminaive_run<P>(
    engine: Engine<P>,
    cap: usize,
    opts: &EngineOpts,
    setup_ns: u64,
) -> Result<InternedOutcome<P>, Box<AbortedEval<P>>>
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    let compiled = Arc::clone(&engine.compiled);
    drive(
        engine,
        opts,
        "seminaive",
        setup_ns,
        false,
        cap,
        |engine, state, _, run| {
            seminaive_seed(engine, state, &compiled.seed_plans, run)?;
            seminaive_loop(engine, state, &compiled.delta_plans, 0, cap, run)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlo_core::eval::relational::{relational_naive_eval, relational_seminaive_eval};
    use dlo_core::examples_lib as ex;
    use dlo_core::tup;
    use dlo_pops::{MinNat, Trop};

    fn assert_matches_relational<P>(program: &Program<P>, pops: &Database<P>, bools: &BoolDatabase)
    where
        P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
    {
        let reference = relational_naive_eval(program, pops, bools, 100_000).unwrap();
        let naive = engine_naive_eval(program, pops, bools, 100_000)
            .expect("compiles")
            .unwrap();
        let semi = engine_seminaive_eval(program, pops, bools, 100_000)
            .expect("compiles")
            .unwrap();
        assert_eq!(reference, naive, "engine naive differs");
        assert_eq!(reference, semi, "engine semi-naive differs");
    }

    #[test]
    fn sssp_fig2a_matches_relational() {
        let (program, edb) = ex::sssp_trop("a");
        assert_matches_relational(&program, &edb, &BoolDatabase::new());
        let out = engine_seminaive_eval(&program, &edb, &BoolDatabase::new(), 1000)
            .expect("compiles")
            .unwrap();
        let l = out.get("L").unwrap();
        assert_eq!(l.get(&tup!["a"]), Trop::finite(0.0));
        assert_eq!(l.get(&tup!["d"]), Trop::finite(8.0));
    }

    #[test]
    fn apsp_and_quadratic_tc_match_relational() {
        let (program, edb) = ex::apsp_trop(&[
            ("a", "b", 1.0),
            ("b", "a", 2.0),
            ("b", "c", 3.0),
            ("c", "d", 4.0),
            ("a", "c", 5.0),
        ]);
        assert_matches_relational(&program, &edb, &BoolDatabase::new());

        let (program, edb) =
            ex::quadratic_tc_bool(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]);
        assert_matches_relational(&program, &edb, &BoolDatabase::new());
    }

    #[test]
    fn bool_guards_and_indicators_match_relational() {
        // BOM over MinNat: a Boolean guard binding through the condition.
        let program: Program<MinNat> = ex::bom_program();
        let mut pops = Database::new();
        pops.insert(
            "C",
            Relation::from_pairs(
                1,
                vec![
                    (tup!["c"], MinNat::finite(1)),
                    (tup!["d"], MinNat::finite(10)),
                ],
            ),
        );
        let mut bools = BoolDatabase::new();
        bools.insert(
            "E",
            dlo_core::relation::bool_relation(2, vec![tup!["c", "d"]]),
        );
        assert_matches_relational(&program, &pops, &bools);

        // SSSP with the {1 | X = s} indicator (equality pre-binding).
        let program: Program<MinNat> = ex::single_source_program("s");
        let mut edb = Database::new();
        edb.insert(
            "E",
            Relation::from_pairs(
                2,
                vec![
                    (tup!["s", "t"], MinNat::finite(2)),
                    (tup!["t", "u"], MinNat::finite(3)),
                ],
            ),
        );
        assert_matches_relational(&program, &edb, &BoolDatabase::new());
    }

    #[test]
    fn step_counts_match_the_relational_backend() {
        let (program, edb) = ex::sssp_trop("a");
        let bools = BoolDatabase::new();
        let (_, rel_steps) = relational_seminaive_eval(&program, &edb, &bools, 1000)
            .converged()
            .unwrap();
        let (_, eng_steps) = engine_seminaive_eval(&program, &edb, &bools, 1000)
            .expect("compiles")
            .converged()
            .unwrap();
        assert_eq!(rel_steps, eng_steps);

        let (_, rel_naive) = relational_naive_eval(&program, &edb, &bools, 1000)
            .converged()
            .unwrap();
        let (_, eng_naive) = engine_naive_eval(&program, &edb, &bools, 1000)
            .expect("compiles")
            .converged()
            .unwrap();
        assert_eq!(rel_naive, eng_naive);
    }

    #[test]
    fn divergence_is_detected() {
        use dlo_core::ast::{Atom, Factor, SumProduct, Term};
        use dlo_pops::Nat;
        let mut p = Program::<Nat>::new();
        p.rule(
            Atom::new("X", vec![Term::c("u")]),
            vec![
                SumProduct::new(vec![]).with_coeff(Nat(1)),
                SumProduct::new(vec![Factor::atom("X", vec![Term::c("u")])]).with_coeff(Nat(2)),
            ],
        );
        assert!(
            !engine_naive_eval(&p, &Database::new(), &BoolDatabase::new(), 30)
                .expect("capped divergence is Ok(Diverged), not an error")
                .is_converged()
        );
    }

    #[test]
    fn parallel_execution_is_deterministic_and_correct() {
        // Force the fan-out path (threshold 1, tiny chunks, 4 workers)
        // on a quadratic TC instance and require bit-identical results
        // against the sequential run and the relational reference.
        use dlo_bench_free_random_graph as graph;
        let (program, edb) = graph(36, 150, 5);
        let bools = BoolDatabase::new();
        let parallel_opts = EngineOpts {
            threads: Some(4),
            par_threshold: 1,
            chunk_min: 8,
            ..EngineOpts::default()
        };
        let sequential_opts = EngineOpts {
            threads: Some(1),
            ..EngineOpts::default()
        };
        let par = engine_seminaive_eval_with_opts(&program, &edb, &bools, 100_000, &parallel_opts)
            .expect("compiles")
            .unwrap();
        let seq =
            engine_seminaive_eval_with_opts(&program, &edb, &bools, 100_000, &sequential_opts)
                .expect("compiles")
                .unwrap();
        let reference = relational_seminaive_eval(&program, &edb, &bools, 100_000).unwrap();
        assert_eq!(par, seq, "parallel and sequential runs differ");
        assert_eq!(par, reference, "engine differs from relational");
        assert!(par.get("T").unwrap().support_size() > 500, "non-trivial TC");
    }

    /// A seeded random graph + quadratic TC program without depending
    /// on dlo_bench (which depends on this crate).
    fn dlo_bench_free_random_graph(
        n: usize,
        m: usize,
        max_w: u64,
    ) -> (Program<MinNat>, Database<MinNat>) {
        let mut s = 0x5eed_u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut pairs = vec![];
        for _ in 0..m {
            let u = (rng() % n as u64) as i64;
            let v = (rng() % n as u64) as i64;
            if u != v {
                pairs.push((vec![u.into(), v.into()], MinNat::finite(1 + rng() % max_w)));
            }
        }
        let mut db = Database::new();
        db.insert("E", Relation::from_pairs(2, pairs));
        (ex::quadratic_tc_program::<MinNat>(), db)
    }

    #[test]
    fn mixed_arity_head_is_rejected_loudly() {
        use crate::plan::CompileError;
        use dlo_core::ast::{Atom, Factor, SumProduct, Term};
        // T used at arity 1 and arity 2: columnar storage cannot hold
        // both. There is no fallback backend any more, so the compiler
        // rejects and the entry points return a typed compile error
        // rather than silently corrupting flat storage.
        let mut p = Program::<MinNat>::new();
        p.rule(
            Atom::new("T", vec![Term::v(0)]),
            vec![SumProduct::new(vec![Factor::atom("A", vec![Term::v(0)])])],
        );
        p.rule(
            Atom::new("T", vec![Term::v(0), Term::v(1)]),
            vec![SumProduct::new(vec![Factor::atom(
                "B",
                vec![Term::v(0), Term::v(1)],
            )])],
        );
        let mut interner = crate::intern::Interner::new();
        assert!(matches!(
            crate::plan::compile(&p, &mut interner),
            Err(CompileError::HeadArityMismatch)
        ));
        let err = engine_naive_eval(&p, &Database::new(), &BoolDatabase::new(), 10)
            .expect_err("mixed-arity heads must be a compile error");
        match &err {
            EvalError::Compile { detail } => {
                assert!(detail.contains("HeadArityMismatch"), "got: {detail}");
            }
            other => panic!("expected EvalError::Compile, got {other:?}"),
        }
        assert_eq!(err.kind(), "compile");
        assert!(err.stats().is_none(), "compile errors predate any run");
    }

    #[test]
    fn head_key_functions_mint_fresh_constants() {
        use dlo_core::ast::{Atom, Factor, KeyFn, SumProduct, Term};
        use dlo_core::formula::{CmpOp, Formula};
        // A counter that names rows the EDB never mentions:
        //   N(0)   :- $1.
        //   N(I+1) :- N(I) | I < 5.
        // Keys 1..4 exist in no relation and no program constant — they
        // are minted by the dynamic interner during the fixpoint.
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
        assert_matches_relational(&p, &Database::new(), &BoolDatabase::new());
        let out = engine_seminaive_eval(&p, &Database::new(), &BoolDatabase::new(), 100)
            .expect("compiles")
            .unwrap();
        let n = out.get("N").unwrap();
        assert_eq!(n.support_size(), 6, "keys 0..=5");
        for i in 0..=5i64 {
            assert_eq!(n.get(&tup![i]), MinNat::finite(1), "N({i})");
        }
    }

    #[test]
    fn head_keyed_prefix_runs_natively_and_counts_steps() {
        // Example 4.5's prefix program in head-keyed form over Trop⁺
        // (⊗ = +, one derivation per key ⇒ true prefix sums):
        //   W(0)   :- V(0).
        //   W(I+1) :- W(I) * V(I+1).
        let values = [2.0, 4.0, 1.5, 3.0, 0.5];
        let (p, edb) = ex::prefix_sum_keyed::<Trop>(&values, Trop::finite);
        assert_matches_relational(&p, &edb, &BoolDatabase::new());
        let out = engine_seminaive_eval(&p, &edb, &BoolDatabase::new(), 1000)
            .expect("compiles")
            .unwrap();
        let w = out.get("W").unwrap();
        let mut acc = 0.0;
        for (i, v) in values.iter().enumerate() {
            acc += v;
            assert_eq!(w.get(&tup![i as i64]), Trop::finite(acc), "W({i})");
        }
        // Step counts still mirror the relational semi-naïve loop.
        let (_, rel_steps) = relational_seminaive_eval(&p, &edb, &BoolDatabase::new(), 1000)
            .converged()
            .unwrap();
        let (_, eng_steps) = engine_seminaive_eval(&p, &edb, &BoolDatabase::new(), 1000)
            .expect("compiles")
            .converged()
            .unwrap();
        assert_eq!(rel_steps, eng_steps);
    }

    #[test]
    fn float_sums_are_deterministic_across_runs() {
        use dlo_core::ast::{Atom, Factor, SumProduct, Term};
        use dlo_pops::NNReal;
        // ℝ₊'s ⊕ is f64 addition — not exactly associative — so result
        // stability requires deterministic accumulation order. A DAG
        // with many parallel paths and non-dyadic weights makes any
        // order wobble visible in the low bits.
        let mut p = Program::<NNReal>::new();
        p.rule(
            Atom::new("T", vec![Term::v(0), Term::v(1)]),
            vec![
                SumProduct::new(vec![Factor::atom("S", vec![Term::v(0), Term::v(1)])]),
                SumProduct::new(vec![
                    Factor::atom("T", vec![Term::v(0), Term::v(2)]),
                    Factor::atom("S", vec![Term::v(2), Term::v(1)]),
                ]),
            ],
        );
        let mut edb = Database::new();
        let mut pairs = vec![];
        for (layer, names) in [("a", "b"), ("b", "c"), ("c", "d")].iter().enumerate() {
            for i in 0..6i64 {
                pairs.push((
                    vec![format!("{}{i}", names.0).as_str().into(), names.1.into()],
                    NNReal::of(0.1 + 0.3 * (layer as f64) + 0.7 * (i as f64) / 11.0),
                ));
                pairs.push((
                    vec![names.0.into(), format!("{}{i}", names.0).as_str().into()],
                    NNReal::of(0.3 / (1.0 + i as f64)),
                ));
            }
        }
        edb.insert("S", Relation::from_pairs(2, pairs));
        let bools = BoolDatabase::new();
        let first = engine_naive_eval(&p, &edb, &bools, 1000)
            .expect("compiles")
            .unwrap();
        for _ in 0..5 {
            let again = engine_naive_eval(&p, &edb, &bools, 1000)
                .expect("compiles")
                .unwrap();
            assert_eq!(first, again, "engine result varied across runs");
        }
    }

    #[test]
    fn empty_program_converges_immediately() {
        let p = Program::<Trop>::new();
        let out = engine_seminaive_eval(&p, &Database::new(), &BoolDatabase::new(), 10)
            .expect("compiles");
        let (db, steps) = out.converged().unwrap();
        assert_eq!(steps, 1);
        assert!(db.iter().next().is_none());
    }
}
