//! Incremental maintenance: a live [`Materialization`] that absorbs
//! EDB edits without re-running the fixpoint from scratch.
//!
//! ## Inserts: telescoping the EDB differential
//!
//! For an edit `E ↦ E ⊕ ΔE` the new fixpoint's seed difference
//! telescopes over the EDB *occurrences* of each sum-product exactly
//! like Theorem 6.5 telescopes over IDB occurrences: for a body with
//! occurrences `E₁ … Eₙ` of edited relations,
//!
//! ```text
//! F'(J) ⊖ F(J) = ⊕ᵢ  (E@old …)  ⊗ ΔEᵢ ⊗ (E@new …)
//!                    └ j < i ┘            └ j > i ┘
//! ```
//!
//! which is exact under distributivity of `⊗` over `⊕` — no dioid
//! structure needed for the identity itself. [`Materialization::new`]
//! compiles these *variant rules* once (predicates renamed with the
//! reserved `@dlt`/`@old` suffixes, which resolve to engine EDB slots
//! populated per edit), so every edit reuses the same plans; the
//! `@dlt` binder is forced first by the join order, making the edit
//! seed `O(|Δ|·join)` instead of a full scan. Because the old fixpoint
//! `J` is a pre-fixpoint of the grown immediate-consequence operator
//! `F'`, the ordinary semi-naïve continuation from `J` with seed
//! `δ = F'(J) ⊖ F(J)` converges to the new least fixpoint — *insert-only
//! maintenance needs no retraction machinery at all*.
//!
//! ## Deletes: DRed generalized to dioid values
//!
//! Deletion is where non-idempotent / non-invertible `⊕` bites: a
//! deleted row's contributions are folded into downstream sums and
//! cannot be subtracted pointwise (no general `⊖` restores them, and
//! on absorptive dioids many distinct support sets share one value).
//! The classical delete–rederive answer carries over to POPS values:
//!
//! 1. **Overapproximate the affected set**: every IDB key whose
//!    *derivation-uses* graph reaches a deleted EDB row, found by
//!    running the same `@dlt` variant plans (batch rows at their old
//!    values) and then propagating key-sets through the compiled delta
//!    plans against the pre-edit state. This is per-fact supporting-rule
//!    provenance read off the plans themselves — purely syntactic, so
//!    it is sound for any POPS: joins enumerate instances by key, and a
//!    zero-valued instance stays zero when inputs shrink (value maps
//!    are monotone and deletions move values down the natural order).
//! 2. **Zero out**: drop every affected row (storage is rebuilt without
//!    them — the surviving rows keep their exact values, because no
//!    derivation reaching them ever touched a deleted fact).
//! 3. **Rederive from surviving support**: one full application
//!    `F'(surv)` of the original seed plans (restricted to predicates
//!    with affected keys), whose contributions re-enter through the
//!    standard semi-naïve advance, then run the delta loop to fixpoint.
//!    The survivors form a pre-fixpoint of `F'` below the new fixpoint,
//!    so the continuation converges to it; surviving keys self-absorb
//!    in the advance (`F'(surv)ₖ ⊖ survₖ = 0`), which is what makes the
//!    overapproximation harmless even when `⊕` is not idempotent.
//!
//! ## Naïve mode
//!
//! POPS without `⊖` (e.g. `NNReal` for company control) cannot run the
//! semi-naïve continuation, but both arguments above only need a
//! pre-fixpoint start: [`Materialization::insert_naive`] /
//! [`Materialization::delete_naive`] run the naïve loop `J ↦ F'(J)`
//! from the old state (respectively the survivors) with the original
//! seed plans only — the variant rules stay out, since naïve steps
//! recompute full sums and the differential would double-count.
//!
//! ## On the kernel
//!
//! A `Materialization` runs on the evaluation kernel of
//! [`crate::driver`]. A build takes the shared run prologue, then runs
//! the shared naïve loop, or the shared semi-naïve seed and delta loop,
//! over the original rules. An insert is one semi-naïve step over the
//! variant plans followed by the delta loop. A delete rederives after
//! the DRed marking pass — which only borrows the shared phase runner —
//! with one semi-naïve step over the original seed plans and the delta
//! loop, or with the naïve loop. Steps and the cap follow one
//! convention: a build reports the steps that `engine_seminaive_eval`
//! (or `engine_naive_eval`) reports on the same EDB.
//!
//! ## Contract
//!
//! * Edits target **POPS EDB relations** only (Boolean guard EDBs are
//!   static; re-build for those).
//! * [`dlo_core::edit::FactInsert`] `⊕`-merges a value into a tuple;
//!   [`dlo_core::edit::FactDelete`] removes the tuple's fact entirely.
//!   Lower a value by deleting then re-inserting.
//! * Results are **bit-identical to the from-scratch fixpoint on the
//!   edited EDB** at any `DLO_ENGINE_THREADS` (same task-order merges,
//!   sorted drains, and mint-between-phases as every other driver),
//!   with one documented caveat shared with the interned-EDB chain:
//!   the active domain only ever grows — constants introduced by
//!   earlier epochs remain enumerable by programs with unbound slots.
//! * Each edit produces its own [`EvalStats`] (per-phase, per-rule)
//!   via [`Materialization::last_stats`].
//! * Every public method returns `Result<_, `[`EvalError`]`>`. Invalid
//!   batches (unknown predicate, arity mismatch) are rejected **before
//!   any staging**, so they leave the handle untouched. An edit that
//!   fails *mid-flight* — step-cap overrun ([`EvalError::Diverged`]),
//!   budget/deadline exhaustion, cancellation, or a contained worker
//!   panic — leaves the interned state mid-fixpoint, so the handle is
//!   **poisoned**: every subsequent edit or query returns
//!   [`EvalError::Poisoned`] until [`Materialization::rebuild`] (or
//!   [`Materialization::rebuild_naive`]) re-derives the fixpoint from
//!   the retained classic EDB, bit-identical to a from-scratch build.
//!   The failed edit's EDB effect is retained: `rebuild()` completes
//!   the derivation the interrupted edit began.

use crate::driver::{
    add_mask, ensure_delta_indexes, ensure_probes, naive_loop, prologue, run_phase, seminaive_loop,
    seminaive_seed, seminaive_step, setup_checked, setup_interned_checked, Engine, EngineOpts,
    IdbState, LoopFail, PhaseOut, RunCx,
};
use crate::govern::{abort_error, Checkpoint};
use crate::output::{InternedOutput, PartialOutput, SettledMark};
use crate::plan::{Plan, Source, EDB_DELTA_SUFFIX, EDB_OLD_SUFFIX};
use crate::query::{engine_query_eval_interned_edb, QueryAnswer};
use crate::storage::{AccumMap, ColMask, ColumnRel};
use crate::worklist::Strategy;
use dlo_core::ast::{Program, Rule};
use dlo_core::edit::{Edit, FactDelete, FactInsert};
use dlo_core::eval::stats::EvalStats;
use dlo_core::eval::{CancelToken, EvalBudget, EvalError};
use dlo_core::query::Query;
use dlo_core::relation::{BoolDatabase, Database};
use dlo_core::value::Constant;
use dlo_pops::{
    Absorptive, CompleteDistributiveDioid, NaturallyOrdered, Pops, TotallyOrderedDioid,
};
use std::collections::HashSet;
use std::time::Instant;

/// Engine EDB-slot bookkeeping for one editable predicate.
struct EditSlot {
    /// Predicate name in the source program.
    name: String,
    /// Arity (from its factor occurrences).
    arity: usize,
    /// `pops_edb` index of the live relation.
    cur: usize,
    /// `pops_edb` index of the `name@dlt` edit-batch relation.
    dlt: Option<usize>,
    /// `pops_edb` index of the `name@old` pre-edit snapshot (only
    /// registered when some sum-product mentions the predicate at two
    /// or more occurrences).
    old: Option<usize>,
}

/// A long-lived materialized fixpoint over an interned engine state,
/// absorbing EDB edits incrementally (see the module docs for the
/// algorithm and its correctness argument).
///
/// Built by [`Materialization::new`] (semi-naïve differential edits,
/// needs `⊖`) or [`Materialization::new_naive`] (naïve-loop edits, any
/// naturally ordered POPS). [`Materialization::query`] delegates to the
/// magic-set demand path against the current epoch.
pub struct Materialization<P: Pops> {
    /// The original program (used by the query rewrite; the engine runs
    /// the augmented maintenance program).
    program: Program<P>,
    engine: Engine<P>,
    state: IdbState<P>,
    /// Original-rule full-application plans (initial build, naïve
    /// edits, delete rederive).
    seed_plans: Vec<Plan<P>>,
    /// Variant-rule telescoped plans reading `@dlt`/`@old` (insert
    /// differential seed, delete affected-set seed).
    edit_plans: Vec<Plan<P>>,
    /// Original-rule semi-naïve delta plans (continuation loops and
    /// affected-set propagation).
    delta_plans: Vec<Plan<P>>,
    /// Probe masks required per `pops_edb` slot, so relations staged or
    /// rebuilt between edits carry the indexes the plans expect.
    pops_masks: Vec<Vec<ColMask>>,
    slots: Vec<EditSlot>,
    /// The authoritative classic-form EDB at the current epoch (feeds
    /// the query path and differential testing).
    edb: Database<P>,
    bool_edb: BoolDatabase,
    cap: usize,
    strategy: Strategy,
    opts: EngineOpts,
    epoch: u64,
    snapshot: Option<InternedOutput<P>>,
    /// Per-IDB [`ColumnRel::version`]s captured when `snapshot` was
    /// last refreshed — [`Materialization::output`] re-clones only the
    /// relations whose version moved, so edits that never touch a
    /// predicate leave its snapshot clone (and the `Arc`-shared
    /// arrangement batches inside it) alive across epochs.
    snap_versions: Vec<u64>,
    /// Interner length at the last snapshot refresh (the interner is
    /// append-only, so its length is its version).
    snap_interner_len: usize,
    last_stats: EvalStats,
    /// Set when an edit failed mid-flight (the interned state may be
    /// mid-fixpoint): every subsequent edit/query returns
    /// [`EvalError::Poisoned`] until a rebuild.
    poisoned: Option<String>,
    /// The mid-fixpoint interned state captured when the handle was
    /// poisoned, exposed read-only by [`Materialization::partial`] for
    /// diagnostics while the poison stands.
    partial: Option<PartialOutput<P>>,
}

/// Finishes a build's or edit's run: its stats on convergence, else the
/// public error (the caller decides whether the failure poisons the
/// handle).
fn finish_run(
    run: RunCx,
    cap: usize,
    result: Result<usize, LoopFail>,
) -> Result<EvalStats, EvalError> {
    let eval_ns = run.eval_ns();
    match result {
        Ok(steps) => Ok(run.col.finish(steps, true, eval_ns)),
        Err(LoopFail::Abort {
            abort,
            checkpoint,
            steps,
        }) => Err(abort_error(abort, checkpoint, 0, run.col, steps, eval_ns)),
        Err(LoopFail::Diverged) => Err(EvalError::Diverged {
            cap,
            diagnostic: format!(
                "maintenance did not converge within {cap} steps: the program diverges on the edited EDB"
            ),
            stats: Box::new(run.col.finish(cap, false, eval_ns)),
        }),
    }
}

/// Appends the telescoped variant rules: for each sum-product and each
/// EDB occurrence `i`, a copy reading `E@dlt` at `i`, `E@old` at
/// earlier EDB occurrences, and the live relations elsewhere. Factor
/// order (and with it `⊗` order) is preserved, which is what makes the
/// telescoping identity exact for non-commutative value assembly.
type MaintenanceProgram<P> = (Program<P>, Vec<(String, usize)>);

fn maintenance_program<P: Pops>(program: &Program<P>) -> Result<MaintenanceProgram<P>, EvalError> {
    let reserved = |pred: &str| EvalError::Compile {
        detail: format!("predicate {pred:?} uses the reserved '@' namespace"),
    };
    let idbs: HashSet<&str> = program.rules.iter().map(|r| r.head.pred.as_str()).collect();
    let mut editable: Vec<(String, usize)> = vec![];
    let mut out = program.clone();
    for rule in &program.rules {
        if rule.head.pred.contains('@') {
            return Err(reserved(&rule.head.pred));
        }
        for sp in &rule.body {
            for f in &sp.factors {
                if f.atom.pred.contains('@') {
                    return Err(reserved(&f.atom.pred));
                }
            }
            let edb_occs: Vec<usize> = sp
                .factors
                .iter()
                .enumerate()
                .filter(|(_, f)| !idbs.contains(f.atom.pred.as_str()))
                .map(|(i, _)| i)
                .collect();
            for (fi, f) in sp.factors.iter().enumerate() {
                if edb_occs.contains(&fi) && !editable.iter().any(|(n, _)| *n == f.atom.pred) {
                    editable.push((f.atom.pred.clone(), f.atom.args.len()));
                }
            }
            for (vi, &fi) in edb_occs.iter().enumerate() {
                let mut vsp = sp.clone();
                vsp.factors[fi].atom.pred =
                    format!("{}{}", vsp.factors[fi].atom.pred, EDB_DELTA_SUFFIX);
                for &fj in &edb_occs[..vi] {
                    vsp.factors[fj].atom.pred =
                        format!("{}{}", vsp.factors[fj].atom.pred, EDB_OLD_SUFFIX);
                }
                out.rules.push(Rule {
                    head: rule.head.clone(),
                    body: vec![vsp],
                });
            }
        }
    }
    Ok((out, editable))
}

impl<P: Pops + Send + Sync> Materialization<P> {
    /// Shared construction: compile the maintenance program, partition
    /// plans, and resolve the edit slots. The fixpoint itself is run by
    /// [`Materialization::built`].
    fn prepare(
        program: &Program<P>,
        pops_edb: &Database<P>,
        bool_edb: &BoolDatabase,
        cap: usize,
        strategy: Strategy,
        opts: &EngineOpts,
        prev: Option<&InternedOutput<P>>,
    ) -> Result<Self, EvalError> {
        for (name, _) in pops_edb.iter() {
            if name.contains('@') {
                return Err(EvalError::Compile {
                    detail: format!("EDB predicate {name:?} uses the reserved '@' namespace"),
                });
            }
        }
        let (aug, editable) = maintenance_program(program)?;
        let n_rules = program.rules.len();
        let engine = match prev {
            // Rebuild path: carry the retained interner forward (the
            // EDB relations themselves come from `pops_edb` — `prev`
            // holds no relations), so constant ids minted by earlier
            // epochs stay stable across the recovery.
            Some(prev) => setup_interned_checked(&aug, prev, pops_edb, bool_edb, &[])?,
            None => setup_checked(&aug, pops_edb, bool_edb, &[])?,
        };
        let (seed_plans, edit_plans): (Vec<Plan<P>>, Vec<Plan<P>>) = engine
            .compiled
            .seed_plans
            .iter()
            .cloned()
            .partition(|p| p.rule_idx < n_rules);
        let delta_plans: Vec<Plan<P>> = engine
            .compiled
            .delta_plans
            .iter()
            .filter(|p| p.rule_idx < n_rules)
            .cloned()
            .collect();
        let mut pops_masks: Vec<Vec<ColMask>> = vec![vec![]; engine.pops_edb.len()];
        for &(source, mask) in &engine.edb_reqs {
            if let Source::PopsEdb(i) = source {
                add_mask(&mut pops_masks[i], mask);
            }
        }
        let pos = |name: &str| engine.compiled.pops_edbs.iter().position(|n| n == name);
        let slots: Vec<EditSlot> = editable
            .into_iter()
            .map(|(name, arity)| EditSlot {
                cur: pos(&name).expect("every editable predicate is a compiled EDB"),
                dlt: pos(&format!("{name}{EDB_DELTA_SUFFIX}")),
                old: pos(&format!("{name}{EDB_OLD_SUFFIX}")),
                name,
                arity,
            })
            .collect();
        Ok(Materialization {
            program: program.clone(),
            state: IdbState::new(&engine),
            engine,
            seed_plans,
            edit_plans,
            delta_plans,
            pops_masks,
            slots,
            edb: pops_edb.clone(),
            bool_edb: bool_edb.clone(),
            cap,
            strategy,
            opts: opts.clone(),
            epoch: 0,
            snapshot: None,
            snap_versions: vec![],
            snap_interner_len: 0,
            last_stats: EvalStats::default(),
            poisoned: None,
            partial: None,
        })
    }

    /// Runs the initial fixpoint of a prepared handle: the kernel's run
    /// prologue (compile time since `t` counts as setup), then `body`.
    /// A failed build returns no handle, so there is nothing to poison.
    fn built(
        mut self,
        t: Instant,
        label: &str,
        body: impl FnOnce(&mut Self, &mut RunCx) -> Result<usize, LoopFail>,
    ) -> Result<Self, EvalError> {
        let setup_ns = t.elapsed().as_nanos() as u64;
        let (mut run, ready) = prologue(
            &mut self.engine,
            &mut self.state,
            &self.opts,
            label,
            setup_ns,
            false,
        );
        let result = ready.and_then(|()| body(&mut self, &mut run));
        self.last_stats = finish_run(run, self.cap, result)?;
        self.settle();
        Ok(self)
    }

    /// Re-derives the fixpoint into a fresh handle over the retained
    /// classic EDB, carrying the retained interner forward (stable
    /// constant ids), and swaps it in under the next epoch. A failed
    /// rebuild leaves this handle as it was.
    fn rebuilt(
        &mut self,
        label: &str,
        body: impl FnOnce(&mut Self, &mut RunCx) -> Result<usize, LoopFail>,
    ) -> Result<&EvalStats, EvalError> {
        let t = Instant::now();
        let prev = InternedOutput::new(self.engine.interner.clone(), vec![], vec![]);
        let fresh = Self::prepare(
            &self.program,
            &self.edb,
            &self.bool_edb,
            self.cap,
            self.strategy,
            &self.opts,
            Some(&prev),
        )?;
        *self = Materialization {
            epoch: self.epoch + 1,
            ..fresh.built(t, label, body)?
        };
        Ok(&self.last_stats)
    }

    /// Runs one governed edit begun at `t` (staging counts as setup):
    /// `body` under the edit's own collector and governor, then its
    /// stats — or, when it fails mid-flight, the typed error with the
    /// handle poisoned.
    fn edit(
        &mut self,
        label: &str,
        t: Instant,
        body: impl FnOnce(&mut Self, &mut RunCx) -> Result<usize, LoopFail>,
    ) -> Result<&EvalStats, EvalError> {
        let mut run = RunCx::new(
            &self.engine,
            &self.opts,
            label,
            t.elapsed().as_nanos() as u64,
        );
        run.start_eval();
        let result = body(self, &mut run);
        match finish_run(run, self.cap, result) {
            Ok(stats) => {
                self.settle();
                self.last_stats = stats;
                Ok(&self.last_stats)
            }
            Err(err) => Err(self.poison(err)),
        }
    }

    /// The DRed marking and zero-out shared by both delete modes: marks
    /// the affected closure against the pre-delete state, then drops
    /// the deleted EDB rows and the affected IDB rows. Returns the
    /// marking's step count and which IDBs lost rows.
    fn zero_out(
        &mut self,
        run: &mut RunCx,
        staged: &[(usize, HashSet<Box<[u32]>>)],
    ) -> Result<(usize, Vec<bool>), LoopFail> {
        let touched: Vec<usize> = staged.iter().map(|(si, _)| *si).collect();
        let mut steps = 0usize;
        let affected = self.affected_closure(run, &mut steps)?;
        self.clear_edit_rels(&touched);
        self.apply_edb_deletes(staged);
        self.retract_affected(&affected);
        Ok((steps, affected.iter().map(|a| !a.is_empty()).collect()))
    }

    /// The epoch counter: bumped by every edit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The [`EvalStats`] of the last build or edit (per-phase and
    /// per-rule, like every engine driver).
    pub fn last_stats(&self) -> &EvalStats {
        &self.last_stats
    }

    /// The classic-form EDB at the current epoch (edits applied).
    pub fn edb(&self) -> &Database<P> {
        &self.edb
    }

    /// Why the handle is poisoned, if it is: a previous edit failed
    /// mid-flight and only [`Materialization::rebuild`] /
    /// [`Materialization::rebuild_naive`] will accept further work.
    /// Read-only probes ([`Materialization::get`],
    /// [`Materialization::edb`], …) stay available for diagnostics.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Replaces the [`EvalBudget`] governing subsequent edits, queries,
    /// and rebuilds (each run measures its deadline from its own start).
    pub fn set_budget(&mut self, budget: EvalBudget) {
        self.opts.budget = budget;
    }

    /// Installs (or clears) the [`CancelToken`] polled by subsequent
    /// edits, queries, and rebuilds.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.opts.cancel = cancel;
    }

    /// The poisoned-bit gate every edit and query passes first.
    fn check_poisoned(&self) -> Result<(), EvalError> {
        match &self.poisoned {
            Some(reason) => Err(EvalError::Poisoned {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Records a mid-flight failure and passes the error through,
    /// stashing the mid-fixpoint interned state as a read-only
    /// [`PartialOutput`] next to the poison.
    fn poison(&mut self, err: EvalError) -> EvalError {
        self.poisoned = Some(format!(
            "epoch {} edit failed mid-flight ({}): rebuild() to recover",
            self.epoch, err
        ));
        let nidb = self.engine.compiled.idbs.len();
        let interned = InternedOutput::new(
            self.engine.interner.clone(),
            self.engine.compiled.idbs.clone(),
            self.state.new.clone(),
        );
        self.partial = Some(PartialOutput::new(
            interned,
            SettledMark::best_effort(nidb),
            err.stats().cloned().unwrap_or_default(),
        ));
        err
    }

    /// The mid-fixpoint state captured when the handle was poisoned,
    /// or `None` while the handle is healthy. Read-only diagnostics:
    /// for an interrupted **insert** the values are a pointwise lower
    /// bound of the post-edit fixpoint (the maintenance loop only grows
    /// values along the natural order); for an interrupted **delete**
    /// the state may sit between the zero-out and the rederive, so rows
    /// can be *missing or below* their pre-edit values too — treat it
    /// as a snapshot for inspection, not a bound. Cleared by a
    /// successful rebuild.
    pub fn partial(&self) -> Option<&PartialOutput<P>> {
        self.partial.as_ref()
    }

    /// Validates a batch **before any staging**, so rejected edits
    /// leave the handle untouched (and unpoisoned): every predicate
    /// must be an editable EDB slot and every tuple must match its
    /// arity.
    fn validate_edits<'a>(
        &self,
        facts: impl Iterator<Item = (&'a str, usize)>,
    ) -> Result<(), EvalError> {
        for (pred, arity) in facts {
            let slot =
                self.slots
                    .iter()
                    .find(|s| s.name == pred)
                    .ok_or_else(|| EvalError::Compile {
                        detail: format!(
                            "edit targets {pred:?}, which is not an EDB predicate of the program"
                        ),
                    })?;
            if arity != slot.arity {
                return Err(EvalError::Compile {
                    detail: format!(
                        "edit on {pred:?} with arity {arity} (expected {})",
                        slot.arity
                    ),
                });
            }
        }
        Ok(())
    }

    /// One maintained value, decode-free: `None` if the tuple (or any
    /// of its constants) is not in the fixpoint's support.
    pub fn get(&self, pred: &str, tuple: &[Constant]) -> Option<&P> {
        let pi = self
            .engine
            .compiled
            .idbs
            .iter()
            .position(|(n, _)| n == pred)?;
        let key: Option<Vec<u32>> = tuple
            .iter()
            .map(|c| self.engine.interner.lookup(c))
            .collect();
        self.state.new[pi].get(&key?)
    }

    /// Support size of one maintained IDB predicate (0 if unknown).
    pub fn support_size(&self, pred: &str) -> usize {
        self.engine
            .compiled
            .idbs
            .iter()
            .position(|(n, _)| n == pred)
            .map_or(0, |pi| self.state.new[pi].len())
    }

    /// The current epoch as a decode-free [`InternedOutput`] snapshot.
    /// This is the epoch handle the ROADMAP's query server chains
    /// further evaluations on.
    ///
    /// The snapshot is maintained **differentially**: edits no longer
    /// discard it wholesale — on the next call only the relations whose
    /// [`ColumnRel::version`] moved since the last refresh are
    /// re-cloned (and the interner only when minting extended it).
    /// Untouched predicates keep their existing clones, whose sorted
    /// arrangements share spine batches with the live state via `Arc` —
    /// an O(1) copy-on-write epoch hand-off, no row data copied.
    pub fn output(&mut self) -> &InternedOutput<P> {
        if let Some(snap) = self.snapshot.as_mut() {
            if self.engine.interner.len() != self.snap_interner_len {
                snap.set_interner(self.engine.interner.clone());
                self.snap_interner_len = self.engine.interner.len();
            }
            for (pred, rel) in self.state.new.iter().enumerate() {
                if rel.version() != self.snap_versions[pred] {
                    snap.update_relation(pred, rel.clone());
                    self.snap_versions[pred] = rel.version();
                }
            }
        } else {
            self.snapshot = Some(InternedOutput::new(
                self.engine.interner.clone(),
                self.engine.compiled.idbs.clone(),
                self.state.new.clone(),
            ));
            self.snap_versions = self.state.new.iter().map(|r| r.version()).collect();
            self.snap_interner_len = self.engine.interner.len();
        }
        self.snapshot.as_ref().expect("just built")
    }

    /// Opens an edit: the poisoned-bit gate, then batch validation
    /// (both before any staging, so a rejected edit leaves the handle
    /// untouched), then the epoch bump. Returns the edit's start.
    fn begin_edit<'a>(
        &mut self,
        facts: impl Iterator<Item = (&'a str, usize)>,
    ) -> Result<Instant, EvalError> {
        self.check_poisoned()?;
        self.validate_edits(facts)?;
        self.epoch += 1;
        Ok(Instant::now())
    }

    /// Monotone count of probe-structure builds (hash indexes and
    /// sorted arrangements) over one maintained IDB relation's
    /// lifetime — the churn probe the incremental tests pin: edits must
    /// never rebuild probe structures for relations they do not touch.
    /// Returns 0 for unknown predicates.
    pub fn index_builds_for(&self, pred: &str) -> u64 {
        self.engine
            .compiled
            .idbs
            .iter()
            .position(|(n, _)| n == pred)
            .map_or(0, |pi| self.state.new[pi].index_builds())
    }

    /// The [`ColumnRel::version`] of one maintained IDB relation
    /// (0 for unknown predicates) — lets tests assert that an edit
    /// left a predicate's storage untouched.
    pub fn version_for(&self, pred: &str) -> u64 {
        self.engine
            .compiled
            .idbs
            .iter()
            .position(|(n, _)| n == pred)
            .map_or(0, |pi| self.state.new[pi].version())
    }

    /// Clears the per-edit `changed` maps so that between edits (and
    /// during affected-set propagation) `Old` reads coincide with the
    /// current state.
    fn settle(&mut self) {
        for ch in &mut self.state.changed {
            ch.clear();
        }
    }

    fn slot_index(&self, pred: &str) -> usize {
        self.slots
            .iter()
            .position(|s| s.name == pred)
            .unwrap_or_else(|| {
                panic!("edit targets {pred:?}, which is not an EDB predicate of the program")
            })
    }

    /// Re-sorts the active domain after batch constants were interned
    /// (mirrors the setup-time enumeration order).
    fn refresh_adom(&mut self) {
        let interner = &self.engine.interner;
        let mut adom: Vec<u32> = (0..interner.len() as u32).collect();
        adom.sort_by(|a, b| interner.get(*a).cmp(interner.get(*b)));
        self.engine.adom = adom;
    }

    /// Interns and stages an insert batch: snapshots `@old` where
    /// registered, builds the `@dlt` relations (duplicate tuples
    /// `⊕`-merge), and `⊕`-merges the rows into the live interned and
    /// classic relations. Returns the touched slot indexes.
    fn stage_insert(&mut self, batch: &[FactInsert<P>]) -> Vec<usize> {
        let mode = self.engine.join_mode;
        let before_len = self.engine.interner.len();
        let mut per_slot: Vec<Vec<(Vec<u32>, P)>> = (0..self.slots.len()).map(|_| vec![]).collect();
        for f in batch {
            let si = self.slot_index(&f.pred);
            let slot = &self.slots[si];
            assert_eq!(
                f.tuple.len(),
                slot.arity,
                "insert into {:?} with arity {} (expected {})",
                f.pred,
                f.tuple.len(),
                slot.arity
            );
            let (name, arity) = (slot.name.clone(), slot.arity);
            let key: Vec<u32> = f
                .tuple
                .iter()
                .map(|c| self.engine.interner.intern(c))
                .collect();
            per_slot[si].push((key, f.value.clone()));
            self.edb
                .get_or_insert(&name, arity)
                .merge(f.tuple.clone(), f.value.clone());
        }
        if self.engine.interner.len() > before_len {
            self.refresh_adom();
        }
        let mut touched = vec![];
        for (si, rows) in per_slot.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            touched.push(si);
            let (cur, dlt, old, arity) = {
                let s = &self.slots[si];
                (s.cur, s.dlt, s.old, s.arity)
            };
            if let Some(oi) = old {
                let mut snap = self.engine.pops_edb[cur].clone();
                if let Some(rel) = snap.as_mut() {
                    ensure_probes(rel, &self.pops_masks[oi], mode);
                }
                self.engine.pops_edb[oi] = snap;
            }
            if let Some(di) = dlt {
                let mut d = ColumnRel::new(arity);
                ensure_probes(&mut d, &self.pops_masks[di], mode);
                for (key, v) in &rows {
                    d.merge(key, v.clone());
                }
                self.engine.pops_edb[di] = Some(d);
            }
            if self.engine.pops_edb[cur].is_none() {
                let mut r = ColumnRel::new(arity);
                ensure_probes(&mut r, &self.pops_masks[cur], mode);
                self.engine.pops_edb[cur] = Some(r);
            }
            let live = self.engine.pops_edb[cur].as_mut().expect("just ensured");
            for (key, v) in rows {
                live.merge(&key, v);
            }
        }
        touched
    }

    /// Stages a delete batch: `@dlt` holds the *present* targeted rows
    /// at their current values, `@old` snapshots the pre-delete
    /// relation (so every telescoped variant enumerates marking
    /// instances), and the classic mirror drops the facts. The live
    /// interned relations are **not** touched yet — the affected-set
    /// propagation runs against the pre-delete state. Returns the
    /// deleted interned keys per touched slot.
    fn stage_delete(&mut self, batch: &[FactDelete]) -> Vec<(usize, HashSet<Box<[u32]>>)> {
        let mode = self.engine.join_mode;
        let mut per_slot: Vec<HashSet<Box<[u32]>>> =
            (0..self.slots.len()).map(|_| HashSet::new()).collect();
        for f in batch {
            let si = self.slot_index(&f.pred);
            let slot = &self.slots[si];
            assert_eq!(
                f.tuple.len(),
                slot.arity,
                "delete from {:?} with arity {} (expected {})",
                f.pred,
                f.tuple.len(),
                slot.arity
            );
            let (name, arity, cur) = (slot.name.clone(), slot.arity, slot.cur);
            let key: Option<Vec<u32>> = f
                .tuple
                .iter()
                .map(|c| self.engine.interner.lookup(c))
                .collect();
            let Some(key) = key else { continue };
            let present = self.engine.pops_edb[cur]
                .as_ref()
                .is_some_and(|r| r.rowid(&key).is_some());
            if !present {
                continue;
            }
            per_slot[si].insert(key.into());
            self.edb
                .get_or_insert(&name, arity)
                .set(f.tuple.clone(), P::bottom());
        }
        let mut staged = vec![];
        for (si, keys) in per_slot.into_iter().enumerate() {
            if keys.is_empty() {
                continue;
            }
            let (cur, dlt, old, arity) = {
                let s = &self.slots[si];
                (s.cur, s.dlt, s.old, s.arity)
            };
            if let Some(oi) = old {
                let mut snap = self.engine.pops_edb[cur].clone();
                if let Some(rel) = snap.as_mut() {
                    ensure_probes(rel, &self.pops_masks[oi], mode);
                }
                self.engine.pops_edb[oi] = snap;
            }
            if let Some(di) = dlt {
                let mut d = ColumnRel::new(arity);
                ensure_probes(&mut d, &self.pops_masks[di], mode);
                let live = self.engine.pops_edb[cur].as_ref().expect("checked present");
                for (_, row, v) in live.iter() {
                    if keys.contains(row) {
                        d.insert_row(row, v.clone());
                    }
                }
                self.engine.pops_edb[di] = Some(d);
            }
            staged.push((si, keys));
        }
        staged
    }

    /// Clears the `@dlt` relations (masks stay registered) and drops
    /// the `@old` snapshots of the touched slots.
    fn clear_edit_rels(&mut self, touched: &[usize]) {
        for &si in touched {
            let (dlt, old) = (self.slots[si].dlt, self.slots[si].old);
            if let Some(di) = dlt {
                if let Some(rel) = self.engine.pops_edb[di].as_mut() {
                    rel.clear();
                }
            }
            if let Some(oi) = old {
                self.engine.pops_edb[oi] = None;
            }
        }
    }

    /// Rebuilds the live interned relations without the deleted rows.
    fn apply_edb_deletes(&mut self, staged: &[(usize, HashSet<Box<[u32]>>)]) {
        let mode = self.engine.join_mode;
        for (si, keys) in staged {
            let (cur, arity) = (self.slots[*si].cur, self.slots[*si].arity);
            let old_rel = self.engine.pops_edb[cur].take().expect("staged ⇒ present");
            let mut next = ColumnRel::new(arity);
            ensure_probes(&mut next, &self.pops_masks[cur], mode);
            for (_, row, v) in old_rel.iter() {
                if !keys.contains(row) {
                    next.insert_row(row, v.clone());
                }
            }
            self.engine.pops_edb[cur] = Some(next);
        }
    }

    /// The DRed marking pass: the overapproximated affected set, as
    /// row-id sets into the current IDB state. Runs the `@dlt` variant
    /// plans to seed, then propagates key-sets through the original
    /// delta plans (rows carry their full current values; only the
    /// emitted keys are used) until closure. Must run against the
    /// pre-delete state with empty `changed` maps.
    fn affected_closure(
        &mut self,
        run: &mut RunCx,
        steps: &mut usize,
    ) -> Result<Vec<HashSet<u32>>, LoopFail> {
        let nidb = self.engine.compiled.idbs.len();
        let mut affected: Vec<HashSet<u32>> = (0..nidb).map(|_| HashSet::new()).collect();
        let mut frontier: Vec<Vec<u32>> = vec![vec![]; nidb];
        let mut delta_rows = 0u64;
        let mut plans = &self.edit_plans;
        run.check(*steps, Checkpoint::Iteration)?;
        loop {
            let before = run.col.stats.counters;
            let mut out = PhaseOut::<P, AccumMap<P>>::new(&self.engine);
            run_phase(&self.engine, plans, &self.state, run, &mut out)
                .map_err(LoopFail::at(Checkpoint::Iteration, *steps))?;
            // Fresh keys name rows that do not exist, so none is affected.
            for (pred, acc) in out.sinks.into_iter().enumerate() {
                let new = &self.state.new[pred];
                let (aff, front) = (&mut affected[pred], &mut frontier[pred]);
                acc.drain_sorted(|key, _| {
                    if let Some(r) = new.rowid(key) {
                        if aff.insert(r) {
                            front.push(r);
                        }
                    }
                });
            }
            run.col.end_step(*steps, delta_rows, 0, &before);
            if frontier.iter().all(|f| f.is_empty()) {
                break;
            }
            run.check(*steps, Checkpoint::Iteration)?;
            if *steps >= self.cap {
                return Err(LoopFail::Diverged);
            }
            *steps += 1;
            let mut delta = self.engine.empty_idbs();
            delta_rows = 0;
            for (pred, rows) in frontier.iter_mut().enumerate() {
                let new = &self.state.new[pred];
                for r in rows.drain(..) {
                    delta[pred].append_row(new.row(r), new.val(r).clone());
                    delta_rows += 1;
                }
            }
            self.state.delta = delta;
            ensure_delta_indexes(&self.engine, &mut self.state);
            plans = &self.delta_plans;
        }
        self.state.delta = self.engine.empty_idbs();
        ensure_delta_indexes(&self.engine, &mut self.state);
        Ok(affected)
    }

    /// Rebuilds the affected IDB relations without the marked rows
    /// (the zero-out step; surviving rows keep their exact values and
    /// row order, so all downstream drains stay deterministic).
    fn retract_affected(&mut self, affected: &[HashSet<u32>]) {
        let mode = self.engine.join_mode;
        for (pred, rows) in affected.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let arity = self.engine.compiled.idbs[pred].1;
            let old = std::mem::replace(&mut self.state.new[pred], ColumnRel::new(arity));
            let mut next = ColumnRel::new(arity);
            ensure_probes(&mut next, &self.engine.idb_new_masks[pred], mode);
            for (r, row, v) in old.iter() {
                if !rows.contains(&r) {
                    next.insert_row(row, v.clone());
                }
            }
            // The replacement's version must not alias the replaced
            // relation's — equal versions promise equal contents to the
            // snapshot's dirty tracking.
            next.succeed_version(&old);
            self.state.new[pred] = next;
            self.state.changed[pred].clear();
        }
    }
}

impl<P> Materialization<P>
where
    P: NaturallyOrdered + CompleteDistributiveDioid + Send + Sync,
{
    /// Builds the materialization and runs the initial fixpoint with
    /// the parallel semi-naïve loop. `strategy` governs the demand path
    /// behind [`Materialization::query`]; edits always run the
    /// semi-naïve differential continuation.
    ///
    /// # Errors
    ///
    /// [`EvalError::Compile`] on programs the columnar storage cannot
    /// represent or predicate names using the reserved `@` namespace;
    /// [`EvalError::Diverged`] when the initial fixpoint exceeds `cap`
    /// steps; the governed variants when `opts` carries a budget or
    /// cancel token that trips during the build. A failed build returns
    /// no handle, so there is nothing to poison.
    pub fn new(
        program: &Program<P>,
        pops_edb: &Database<P>,
        bool_edb: &BoolDatabase,
        cap: usize,
        strategy: Strategy,
        opts: &EngineOpts,
    ) -> Result<Self, EvalError> {
        let t = Instant::now();
        Self::prepare(program, pops_edb, bool_edb, cap, strategy, opts, None)?.built(
            t,
            "incremental-build",
            Self::seminaive_fixpoint,
        )
    }

    /// The initial fixpoint: the semi-naïve seed over the original
    /// rules, then the delta loop (the variant rules read empty `@dlt`
    /// relations and are left out).
    fn seminaive_fixpoint(&mut self, run: &mut RunCx) -> Result<usize, LoopFail> {
        seminaive_seed(&mut self.engine, &mut self.state, &self.seed_plans, run)?;
        seminaive_loop(
            &mut self.engine,
            &mut self.state,
            &self.delta_plans,
            0,
            self.cap,
            run,
        )
    }

    /// Recovers (or refreshes) the handle: re-derives the fixpoint from
    /// the retained classic EDB and clears the poisoned bit (and the
    /// stashed [`Materialization::partial`]). The fixpoint agrees with
    /// a from-scratch build at any thread count, and the retained
    /// **interner is reused**, so constant ids minted by earlier epochs
    /// stay stable across the recovery — interned keys held by callers
    /// keep resolving to the same constants. The epoch advances past
    /// every previous epoch. A rebuild is itself governed by the
    /// current budget/cancel settings (adjust them first via
    /// [`Materialization::set_budget`] / [`Materialization::set_cancel`]
    /// if the poisoning budget would trip again); a failed rebuild
    /// leaves the handle poisoned.
    ///
    /// # Errors
    ///
    /// As [`Materialization::new`].
    pub fn rebuild(&mut self) -> Result<&EvalStats, EvalError> {
        self.rebuilt("incremental-build", Self::seminaive_fixpoint)
    }

    /// Absorbs an insert batch: `⊕`-merges the facts into the EDB and
    /// advances the fixpoint by the telescoped differential — the
    /// variant plans compute `F'(J) ⊖ F(J)` driven by the batch, the
    /// standard advance folds it in as step 0, and the delta loop
    /// continues from the old fixpoint (a pre-fixpoint of the grown
    /// operator).
    ///
    /// Returns the edit's own [`EvalStats`].
    ///
    /// # Errors
    ///
    /// [`EvalError::Poisoned`] if a previous edit failed mid-flight;
    /// [`EvalError::Compile`] on unknown predicates or arity mismatches
    /// (rejected before staging — the handle is untouched);
    /// [`EvalError::Diverged`] on cap overrun and the governed variants
    /// on budget/deadline/cancellation — these **poison** the handle
    /// (see the module docs).
    pub fn insert(&mut self, batch: &[FactInsert<P>]) -> Result<&EvalStats, EvalError> {
        let t = self.begin_edit(batch.iter().map(|f| (f.pred.as_str(), f.tuple.len())))?;
        let touched = self.stage_insert(batch);
        self.edit("incremental-insert", t, |m, run| {
            let (engine, state) = (&mut m.engine, &mut m.state);
            let rows = batch.len() as u64;
            seminaive_step(
                engine,
                state,
                &m.edit_plans,
                0,
                rows,
                Checkpoint::Phase,
                run,
            )?;
            let steps = seminaive_loop(engine, state, &m.delta_plans, 0, m.cap, run)?;
            m.clear_edit_rels(&touched);
            Ok(steps)
        })
    }

    /// Absorbs a delete batch by delete–rederive (module docs): mark
    /// the affected closure against the pre-delete state, drop the
    /// deleted EDB rows and the affected IDB rows, rederive from the
    /// surviving support with the original seed plans, and run the
    /// delta loop to fixpoint. Deleting absent facts is a no-op.
    ///
    /// Returns the edit's own [`EvalStats`].
    ///
    /// # Errors
    ///
    /// As [`Materialization::insert`].
    pub fn delete(&mut self, batch: &[FactDelete]) -> Result<&EvalStats, EvalError> {
        let t = self.begin_edit(batch.iter().map(|f| (f.pred.as_str(), f.tuple.len())))?;
        let staged = self.stage_delete(batch);
        self.edit("incremental-delete", t, |m, run| {
            if staged.is_empty() {
                return Ok(0);
            }
            let (steps, has_affected) = m.zero_out(run, &staged)?;
            if !has_affected.contains(&true) {
                return Ok(steps);
            }
            let rederive: Vec<Plan<P>> = m
                .seed_plans
                .iter()
                .filter(|p| has_affected[p.head_pred])
                .cloned()
                .collect();
            let (engine, state) = (&mut m.engine, &mut m.state);
            seminaive_step(
                engine,
                state,
                &rederive,
                steps + 1,
                0,
                Checkpoint::Phase,
                run,
            )?;
            seminaive_loop(engine, state, &m.delta_plans, steps + 1, m.cap, run)
        })
    }

    /// Applies an edit script in order, one batch per edit, stopping at
    /// the first failing edit (its error propagates, with the handle
    /// poisoned exactly as the direct call would have). Returns the
    /// stats of the last edit (each edit's stats are observable through
    /// [`Materialization::last_stats`] between steps).
    ///
    /// # Errors
    ///
    /// As [`Materialization::insert`].
    pub fn apply(&mut self, script: &[Edit<P>]) -> Result<&EvalStats, EvalError> {
        for edit in script {
            match edit {
                Edit::Insert(f) => {
                    self.insert(std::slice::from_ref(f))?;
                }
                Edit::Delete(f) => {
                    self.delete(std::slice::from_ref(f))?;
                }
            }
        }
        Ok(&self.last_stats)
    }
}

impl<P> Materialization<P>
where
    P: NaturallyOrdered + Send + Sync,
{
    /// [`Materialization::new`] for POPS **without** a `⊖` operator
    /// (e.g. `NNReal`): the initial build and every edit run the naïve
    /// loop `J ↦ F'(J)` — from the old state for inserts, from the
    /// DRed survivors for deletes — which needs only natural order.
    ///
    /// # Errors
    ///
    /// As [`Materialization::new`].
    pub fn new_naive(
        program: &Program<P>,
        pops_edb: &Database<P>,
        bool_edb: &BoolDatabase,
        cap: usize,
        opts: &EngineOpts,
    ) -> Result<Self, EvalError> {
        let t = Instant::now();
        Self::prepare(program, pops_edb, bool_edb, cap, Strategy::Auto, opts, None)?.built(
            t,
            "incremental-build-naive",
            Self::naive_fixpoint,
        )
    }

    /// The initial fixpoint by the naïve loop over the original rules.
    fn naive_fixpoint(&mut self, run: &mut RunCx) -> Result<usize, LoopFail> {
        naive_loop(
            &mut self.engine,
            &mut self.state,
            &self.seed_plans,
            self.cap,
            run,
        )
    }

    /// [`Materialization::rebuild`] for naïve-mode handles: re-derives
    /// from the retained classic EDB with the naïve loop, reusing the
    /// retained interner (stable constant ids) and clearing the
    /// poisoned bit and stashed partial.
    ///
    /// # Errors
    ///
    /// As [`Materialization::new`].
    pub fn rebuild_naive(&mut self) -> Result<&EvalStats, EvalError> {
        self.rebuilt("incremental-build-naive", Self::naive_fixpoint)
    }

    /// Naïve-mode insert: `⊕`-merge the batch into the EDB, then run
    /// the naïve loop from the old fixpoint (a pre-fixpoint of the
    /// grown operator — often a single confirming step when the edit is
    /// absorbed). The variant rules stay out: naïve steps recompute
    /// full sums, so the differential would double-count.
    ///
    /// # Errors
    ///
    /// As [`Materialization::insert`].
    pub fn insert_naive(&mut self, batch: &[FactInsert<P>]) -> Result<&EvalStats, EvalError> {
        let t = self.begin_edit(batch.iter().map(|f| (f.pred.as_str(), f.tuple.len())))?;
        let touched = self.stage_insert(batch);
        // The naïve loop never reads the edit relations; drop them now.
        self.clear_edit_rels(&touched);
        self.edit("incremental-insert-naive", t, |m, run| {
            naive_loop(&mut m.engine, &mut m.state, &m.seed_plans, m.cap, run)
        })
    }

    /// Naïve-mode delete: the same DRed marking and zero-out as
    /// [`Materialization::delete`] (the marking pass is purely
    /// key-syntactic, no `⊖` involved), then the naïve loop rederives
    /// from the surviving support.
    ///
    /// # Errors
    ///
    /// As [`Materialization::insert`].
    pub fn delete_naive(&mut self, batch: &[FactDelete]) -> Result<&EvalStats, EvalError> {
        let t = self.begin_edit(batch.iter().map(|f| (f.pred.as_str(), f.tuple.len())))?;
        let staged = self.stage_delete(batch);
        self.edit("incremental-delete-naive", t, |m, run| {
            if staged.is_empty() {
                return Ok(0);
            }
            let (steps, _) = m.zero_out(run, &staged)?;
            Ok(steps + naive_loop(&mut m.engine, &mut m.state, &m.seed_plans, m.cap, run)?)
        })
    }
}

impl<P> Materialization<P>
where
    P: NaturallyOrdered
        + CompleteDistributiveDioid
        + Absorptive
        + TotallyOrderedDioid
        + Send
        + Sync,
{
    /// Answers a query against the **current epoch** through the
    /// magic-set demand path: the original program is rewritten for the
    /// query's binding pattern and evaluated (with the configured
    /// strategy) over the epoch's interner and the current classic EDB
    /// — decode-free chaining, exactly the PR-5 path, so the demanded
    /// fragment is recomputed rather than read from the materialized
    /// state (subsumptive reuse is the ROADMAP's next step).
    ///
    /// # Errors
    ///
    /// As [`crate::engine_query_eval`], plus [`EvalError::Poisoned`]
    /// when a prior edit on this handle failed mid-flight.
    pub fn query(&mut self, query: &Query) -> Result<QueryAnswer<P>, EvalError> {
        self.check_poisoned()?;
        // Always refresh: the snapshot survives edits (differential
        // maintenance), so it may be stale rather than absent.
        self.output();
        let snap = self.snapshot.as_ref().expect("just built");
        engine_query_eval_interned_edb(
            &self.program,
            query,
            snap,
            &self.edb,
            &self.bool_edb,
            self.cap,
            self.strategy,
            &self.opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::JoinMode;
    use dlo_core::parser::parse_program;
    use dlo_core::relation::Relation;
    use dlo_core::tup;
    use dlo_pops::Trop;

    /// Two independent quadratic closures, so an edit on one EDB leaves
    /// the other IDB provably untouched.
    fn two_tc() -> (Program<Trop>, Database<Trop>) {
        let program = parse_program(
            "P(X, Z) :- EP(X, Z) + P(X, Y) * P(Y, Z).\n\
             Q(X, Z) :- EQ(X, Z) + Q(X, Y) * Q(Y, Z).",
        )
        .unwrap();
        let mut edb = Database::new();
        edb.insert(
            "EP",
            Relation::from_pairs(
                2,
                vec![
                    (tup!["a", "b"], Trop::finite(1.0)),
                    (tup!["b", "c"], Trop::finite(1.0)),
                ],
            ),
        );
        edb.insert(
            "EQ",
            Relation::from_pairs(
                2,
                vec![
                    (tup!["x", "y"], Trop::finite(2.0)),
                    (tup!["y", "z"], Trop::finite(2.0)),
                ],
            ),
        );
        (program, edb)
    }

    /// The no-churn contract: an edit touching only `EP` must not
    /// rebuild `Q`'s probe structures, must not move `Q`'s version, and
    /// the refreshed snapshot must keep `Q`'s existing clone — whose
    /// sorted arrangements share spine batches by `Arc`, row data
    /// uncopied — while still folding the edit into `P`.
    #[test]
    fn edits_keep_untouched_relations_and_share_arrangement_batches() {
        let opts = EngineOpts {
            join_mode: Some(JoinMode::Merge),
            ..EngineOpts::default()
        };
        let (program, edb) = two_tc();
        let mut m = Materialization::new(
            &program,
            &edb,
            &BoolDatabase::new(),
            100_000,
            Strategy::Auto,
            &opts,
        )
        .unwrap();
        let snap1 = m.output().clone();
        let builds_q = m.index_builds_for("Q");
        let ver_q = m.version_for("Q");
        let ver_p = m.version_for("P");
        assert!(ver_q > 0, "Q was derived, so its version moved");

        m.insert(&[FactInsert::new("EP", tup!["c", "d"], Trop::finite(1.0))])
            .unwrap();
        let snap2 = m.output().clone();

        // The edit reached P…
        let ad = tup!["a", "d"];
        assert_eq!(m.get("P", &ad), Some(&Trop::finite(3.0)));
        assert_eq!(snap2.get("P", &ad), Some(&Trop::finite(3.0)));
        assert!(m.version_for("P") > ver_p, "P's storage was edited");
        // …and left Q alone: no probe-structure rebuilds, no mutation.
        assert_eq!(m.index_builds_for("Q"), builds_q, "Q index churn");
        assert_eq!(m.version_for("Q"), ver_q, "Q storage churn");

        // The quadratic rule probes Q's own state, so under forced
        // merge mode Q carries at least one sorted arrangement — and
        // the two epoch snapshots share its spine batches by pointer.
        let (q1, q2) = (snap1.relation("Q").unwrap(), snap2.relation("Q").unwrap());
        let shared_mask = (1u32..4)
            .find(|&mask| q1.arrangement_for(mask).is_some())
            .expect("merge mode arranges Q's probe masks");
        let (a1, a2) = (
            q1.arrangement_for(shared_mask).unwrap(),
            q2.arrangement_for(shared_mask).unwrap(),
        );
        assert_eq!(a1.batches().len(), a2.batches().len());
        for (b1, b2) in a1.batches().iter().zip(a2.batches()) {
            assert!(
                std::sync::Arc::ptr_eq(b1, b2),
                "epoch snapshots must share arrangement batches"
            );
        }
    }

    /// A delete rebuilds the touched IDB wholesale; the version must
    /// move strictly (never alias the pre-edit version) so snapshot
    /// dirty-tracking re-clones it.
    #[test]
    fn delete_rederive_moves_versions_strictly() {
        let (program, edb) = two_tc();
        let mut m = Materialization::new(
            &program,
            &edb,
            &BoolDatabase::new(),
            100_000,
            Strategy::Auto,
            &EngineOpts::default(),
        )
        .unwrap();
        let ver_p = m.version_for("P");
        let ver_q = m.version_for("Q");
        m.delete(&[FactDelete::new("EP", tup!["a", "b"])]).unwrap();
        assert!(m.version_for("P") > ver_p, "delete must move P's version");
        assert_eq!(m.version_for("Q"), ver_q, "Q untouched by the delete");
        let (ab, bc) = (tup!["a", "b"], tup!["b", "c"]);
        assert_eq!(m.get("P", &ab), None);
        let snap = m.output();
        assert_eq!(snap.get("P", &ab), None);
        assert_eq!(snap.get("P", &bc), Some(&Trop::finite(1.0)));
    }
}
