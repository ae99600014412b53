//! Compiled rule execution plans: numbered register files instead of
//! symbol-keyed substitutions.
//!
//! The interpreted matcher ([`super::match_body`]) threads a [`crate::Subst`]
//! — a heap-allocated vector of `(Symbol, Value)` pairs that is cloned at
//! every join candidate. That clone, and the `Value` comparisons behind it,
//! dominate fixpoint time. A [`RulePlan`] removes both: each rule is
//! compiled **once** into a sequence of [`Step`]s over a flat `[ValueId]`
//! register file. Variables become register numbers at compile time
//! (left-to-right evaluation makes boundness static), probe masks and index
//! keys are precomputed, and a join candidate costs a few integer moves —
//! no allocation, no symbol lookups, no deep value hashing.
//!
//! Three compilation modes share the step set and executor:
//!
//! * **Fixpoint plans** ([`RulePlan::compile`]) — the body in source order,
//!   used by the naive and seminaive strategies (one
//!   positive occurrence optionally reads the delta, selected at run time
//!   by its precomputed ordinal).
//! * **Differential plans** ([`RulePlan::compile_diff`]) — one plan per
//!   (rule, literal slot) for the incremental engine's finite differencing:
//!   a pinned *positive* literal is hoisted to the front (it reads the
//!   small delta) and the remaining items keep their order, with boundness
//!   reclassified for the new order; a pinned *negated* literal stays in
//!   place and becomes a delta membership test. Which state a non-pinned
//!   literal reads (old/new/prefix-new-suffix-old) stays a run-time
//!   property of the original literal ordinal, exactly as in
//!   [`super::diff`].
//! * **Rederivation plans** ([`RulePlan::compile_rederive`]) — the body
//!   compiled with the head variables pre-bound, so DRed can ask "does this
//!   overdeleted fact still have one derivation?" by unifying the fact into
//!   the registers and probing for a single witness.
//!
//! Execution resolves back to [`crate::Value`] only where the semantics
//! require real values: ordering comparisons, arithmetic/assignments (whose
//! results are interned on the way back in), and nowhere else.

use crate::eval::DiffSide;
use crate::intern::ValueId;
use crate::storage::ColMask;
use crate::{Atom, BodyItem, CmpOp, Database, DatalogError, Expr, Result, Rule, Symbol, Term};
use std::collections::HashMap;

/// Where a column/operand value comes from at run time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Src {
    /// A register bound by an earlier step (or a pre-bound head variable).
    Reg(u16),
    /// A constant, interned at compile time.
    Const(ValueId),
}

impl Src {
    #[inline]
    fn get(self, regs: &[ValueId]) -> ValueId {
        match self {
            Src::Reg(r) => regs[r as usize],
            Src::Const(id) => id,
        }
    }
}

/// A positive literal: an index-assisted scan.
#[derive(Clone, Debug)]
pub(crate) struct ScanStep {
    pub(crate) pred: Symbol,
    pub(crate) arity: usize,
    /// Ordinal among *positive* literals of the rule body (seminaive delta
    /// rewriting selects one occurrence by this number).
    pub(crate) pos_ordinal: usize,
    /// Ordinal among *all* literals of the rule body (differential
    /// evaluation picks the old/new state by this number).
    pub(crate) lit_ordinal: usize,
    /// True in a differential plan when this is the pinned (delta) literal.
    pub(crate) pinned: bool,
    /// Bound columns at this point of evaluation (statically known).
    pub(crate) mask: ColMask,
    /// Sources for the bound columns, in column order.
    pub(crate) key: Vec<Src>,
    /// Unbound first-occurrence columns: write `row[col]` into the register.
    pub(crate) binds: Vec<(usize, u16)>,
    /// Repeated fresh variables within this atom: `row[col]` must equal the
    /// register bound by an earlier column of the *same* row.
    pub(crate) checks: Vec<(usize, u16)>,
}

/// A negated literal: a ground membership test.
#[derive(Clone, Debug)]
pub(crate) struct NegStep {
    pub(crate) pred: Symbol,
    pub(crate) lit_ordinal: usize,
    pub(crate) pinned: bool,
    pub(crate) args: Vec<Src>,
}

/// One compiled body item.
#[derive(Clone, Debug)]
pub(crate) enum Step {
    /// Positive literal.
    Scan(ScanStep),
    /// Negated literal.
    Neg(NegStep),
    /// Comparison builtin.
    Cmp { op: CmpOp, lhs: Src, rhs: Src },
    /// Assignment builtin. `env` maps the expression's variables to
    /// registers; `check` is set when the target was already bound (the
    /// assignment then acts as an equality filter, mirroring
    /// `Subst::unify_var`).
    Assign {
        reg: u16,
        expr: Expr,
        env: Vec<(Symbol, u16)>,
        check: bool,
    },
}

/// How the head unifies with a given fact in a rederivation probe.
#[derive(Clone, Debug)]
pub(crate) enum HeadAct {
    /// Head column is a constant: the fact's column must equal it.
    Check(ValueId),
    /// First occurrence of a head variable: bind the register.
    Set(u16),
    /// Repeated head variable: the fact's column must equal the register.
    Match(u16),
}

/// A rule compiled to a register program. See the module docs for the
/// three compilation modes.
#[derive(Clone, Debug)]
pub(crate) struct RulePlan {
    pub(crate) nregs: usize,
    pub(crate) steps: Vec<Step>,
    pub(crate) head_pred: Symbol,
    /// Sources for the head columns.
    pub(crate) head: Vec<Src>,
    /// Head unification actions (rederivation plans only; empty otherwise).
    pub(crate) head_acts: Vec<HeadAct>,
}

impl RulePlan {
    /// Arity of the head relation.
    pub(crate) fn head_arity(&self) -> usize {
        self.head.len()
    }

    /// Compiles the fixpoint plan: body in source order, nothing pre-bound.
    pub(crate) fn compile(rule: &Rule) -> Result<RulePlan> {
        let order: Vec<usize> = (0..rule.body.len()).collect();
        Compiler::default().compile(rule, &order, None, false)
    }

    /// Compiles the differential plan for the literal at `slot` (counting
    /// literal body items only). Returns `None` when the body has fewer
    /// literals than `slot`.
    pub(crate) fn compile_diff(rule: &Rule, slot: usize) -> Result<Option<RulePlan>> {
        let mut lit = 0usize;
        let mut pinned_idx = None;
        let mut pinned_positive = false;
        for (i, item) in rule.body.iter().enumerate() {
            if let BodyItem::Literal(l) = item {
                if lit == slot {
                    pinned_idx = Some(i);
                    pinned_positive = !l.negated;
                    break;
                }
                lit += 1;
            }
        }
        let Some(pinned_idx) = pinned_idx else {
            return Ok(None);
        };
        // A pinned positive literal is hoisted to the front (it enumerates
        // the small delta); everything else keeps its relative order, and
        // boundness is reclassified for the hoisted order. A pinned negated
        // literal needs its prefix bindings to become ground, so it stays
        // in place.
        let order: Vec<usize> = if pinned_positive {
            std::iter::once(pinned_idx)
                .chain((0..rule.body.len()).filter(|&i| i != pinned_idx))
                .collect()
        } else {
            (0..rule.body.len()).collect()
        };
        Compiler::default()
            .compile(rule, &order, Some(pinned_idx), false)
            .map(Some)
    }

    /// Compiles the rederivation plan: head variables pre-bound (via
    /// [`RulePlan::head_acts`]), body in source order.
    pub(crate) fn compile_rederive(rule: &Rule) -> Result<RulePlan> {
        let order: Vec<usize> = (0..rule.body.len()).collect();
        Compiler::default().compile(rule, &order, None, true)
    }

    /// Unifies `row` with the head into `regs` (rederivation plans only).
    /// Returns false when the head cannot produce the row.
    pub(crate) fn unify_head(&self, row: &[ValueId], regs: &mut [ValueId]) -> bool {
        if row.len() != self.head_acts.len() {
            return false;
        }
        for (act, &id) in self.head_acts.iter().zip(row) {
            match act {
                HeadAct::Check(c) => {
                    if *c != id {
                        return false;
                    }
                }
                HeadAct::Set(r) => regs[*r as usize] = id,
                HeadAct::Match(r) => {
                    if regs[*r as usize] != id {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Plan compiler: tracks variable→register assignment while walking body
/// items in the requested order.
#[derive(Default)]
struct Compiler {
    regs: HashMap<Symbol, u16>,
}

impl Compiler {
    fn alloc(&mut self, var: Symbol) -> u16 {
        let next = u16::try_from(self.regs.len()).expect("more than 65k rule variables");
        *self.regs.entry(var).or_insert(next)
    }

    fn src_of(&self, term: &Term) -> Result<Src> {
        match term {
            Term::Const(v) => Ok(Src::Const(ValueId::intern(v))),
            Term::Var(v) => self.regs.get(v).map(|&r| Src::Reg(r)).ok_or_else(|| {
                DatalogError::UnboundVariable(format!(
                    "${v} read before any positive atom binds it"
                ))
            }),
        }
    }

    fn compile(
        mut self,
        rule: &Rule,
        order: &[usize],
        pinned_idx: Option<usize>,
        bind_head: bool,
    ) -> Result<RulePlan> {
        let mut head_acts = Vec::new();
        if bind_head {
            for term in &rule.head.args {
                match term {
                    Term::Const(v) => head_acts.push(HeadAct::Check(ValueId::intern(v))),
                    Term::Var(v) => {
                        if let Some(&r) = self.regs.get(v) {
                            head_acts.push(HeadAct::Match(r));
                        } else {
                            let r = self.alloc(*v);
                            head_acts.push(HeadAct::Set(r));
                        }
                    }
                }
            }
        }

        let steps = self.compile_items(&rule.body, order, pinned_idx)?;

        let head = rule
            .head
            .args
            .iter()
            .map(|t| self.src_of(t))
            .collect::<Result<Vec<_>>>()
            .map_err(|_| {
                DatalogError::UnboundVariable(format!(
                    "head of {rule} not fully bound (rule unsafe?)"
                ))
            })?;

        Ok(RulePlan {
            nregs: self.regs.len(),
            steps,
            head_pred: rule.head.pred,
            head,
            head_acts,
        })
    }

    /// Compiles the body items selected by `order` into steps, allocating
    /// registers along the way. Literal/positive ordinals always follow the
    /// *source* order of `body`.
    fn compile_items(
        &mut self,
        body: &[BodyItem],
        order: &[usize],
        pinned_idx: Option<usize>,
    ) -> Result<Vec<Step>> {
        let mut lit_ordinals = vec![0usize; body.len()];
        let mut pos_ordinals = vec![0usize; body.len()];
        let (mut lit, mut pos) = (0usize, 0usize);
        for (i, item) in body.iter().enumerate() {
            if let BodyItem::Literal(l) = item {
                lit_ordinals[i] = lit;
                lit += 1;
                if !l.negated {
                    pos_ordinals[i] = pos;
                    pos += 1;
                }
            }
        }

        let mut steps = Vec::with_capacity(order.len());
        for &i in order {
            let item = &body[i];
            let pinned = pinned_idx == Some(i);
            match item {
                BodyItem::Literal(l) if !l.negated => {
                    steps.push(Step::Scan(self.compile_scan(
                        &l.atom,
                        pos_ordinals[i],
                        lit_ordinals[i],
                        pinned,
                    )));
                }
                BodyItem::Literal(l) => {
                    let args = l
                        .atom
                        .args
                        .iter()
                        .map(|t| self.src_of(t))
                        .collect::<Result<Vec<_>>>()
                        .map_err(|_| {
                            DatalogError::UnboundVariable(format!(
                                "negated atom {} reached with unbound variables",
                                l.atom
                            ))
                        })?;
                    steps.push(Step::Neg(NegStep {
                        pred: l.atom.pred,
                        lit_ordinal: lit_ordinals[i],
                        pinned,
                        args,
                    }));
                }
                BodyItem::Cmp { op, lhs, rhs } => {
                    let l = self.src_of(lhs).map_err(|_| {
                        DatalogError::UnboundVariable(format!(
                            "{lhs} in comparison reached unbound"
                        ))
                    })?;
                    let r = self.src_of(rhs).map_err(|_| {
                        DatalogError::UnboundVariable(format!(
                            "{rhs} in comparison reached unbound"
                        ))
                    })?;
                    steps.push(Step::Cmp {
                        op: *op,
                        lhs: l,
                        rhs: r,
                    });
                }
                BodyItem::Assign { var, expr } => {
                    let mut vars = Vec::new();
                    expr.variables(&mut vars);
                    let mut env = Vec::with_capacity(vars.len());
                    for v in vars {
                        let Some(&r) = self.regs.get(&v) else {
                            return Err(DatalogError::UnboundVariable(format!(
                                "${v} in arithmetic expression"
                            )));
                        };
                        env.push((v, r));
                    }
                    let check = self.regs.contains_key(var);
                    let reg = self.alloc(*var);
                    steps.push(Step::Assign {
                        reg,
                        expr: expr.clone(),
                        env,
                        check,
                    });
                }
            }
        }

        Ok(steps)
    }

    fn compile_scan(
        &mut self,
        atom: &Atom,
        pos_ordinal: usize,
        lit_ordinal: usize,
        pinned: bool,
    ) -> ScanStep {
        let mut mask: ColMask = 0;
        let mut key = Vec::new();
        let mut binds: Vec<(usize, u16)> = Vec::new();
        let mut checks = Vec::new();
        for (col, term) in atom.args.iter().enumerate() {
            match term {
                Term::Const(v) => {
                    mask |= 1u64 << col;
                    key.push(Src::Const(ValueId::intern(v)));
                }
                Term::Var(v) => match self.regs.get(v).copied() {
                    Some(r) if binds.iter().any(|&(_, b)| b == r) => {
                        // Fresh variable repeated within this atom: the
                        // earlier column binds, this one checks the row
                        // against itself.
                        checks.push((col, r));
                    }
                    Some(r) => {
                        mask |= 1u64 << col;
                        key.push(Src::Reg(r));
                    }
                    None => {
                        let r = self.alloc(*v);
                        binds.push((col, r));
                    }
                },
            }
        }
        ScanStep {
            pred: atom.pred,
            arity: atom.arity(),
            pos_ordinal,
            lit_ordinal,
            pinned,
            mask,
            key,
            binds,
            checks,
        }
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Reusable per-evaluation buffers: the register file, one probe-key buffer
/// per step (probes are allocation-free after warm-up), and the head
/// scratch row.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) regs: Vec<ValueId>,
    keys: Vec<Vec<ValueId>>,
    head: Vec<ValueId>,
}

impl Scratch {
    /// An empty scratch; [`run_plan`] grows it to fit whatever plan it
    /// executes, so one instance can be reused across plans (the
    /// incremental engine runs many small plan invocations per apply).
    pub(crate) fn new() -> Scratch {
        Scratch {
            regs: Vec::new(),
            keys: Vec::new(),
            head: Vec::new(),
        }
    }

    pub(crate) fn for_plan(plan: &RulePlan) -> Scratch {
        let mut s = Scratch::new();
        s.fit(plan);
        s
    }

    /// Grows the buffers to fit `plan` (never shrinks). Callers seeding
    /// registers before [`run_plan`]/[`has_witness`] (e.g. via
    /// [`RulePlan::unify_head`]) must fit first.
    pub(crate) fn fit(&mut self, plan: &RulePlan) {
        if self.regs.len() < plan.nregs {
            self.regs
                .resize(plan.nregs, ValueId::intern(&crate::Value::Bool(false)));
        }
        if self.keys.len() < plan.steps.len() {
            self.keys.resize_with(plan.steps.len(), Vec::new);
        }
    }
}

/// What a scan reads.
pub(crate) enum ScanSrc<'a> {
    /// One database.
    One(&'a Database),
    /// The reconstructed old state: `db ∖ ins ∪ del`.
    Old {
        db: &'a Database,
        ins: &'a Database,
        del: &'a Database,
    },
}

/// Per-strategy data-source selection; everything else about execution is
/// shared.
pub(crate) trait PlanCtx {
    fn scan_src(&self, s: &ScanStep) -> ScanSrc<'_>;
    fn neg_pass(&self, n: &NegStep, row: &[ValueId]) -> bool;
}

/// Fixpoint context: every literal reads `db`, except the positive
/// occurrence `delta.1` (counting from the left), which reads `delta.0` —
/// the seminaive rewriting of [`super::match_body`].
pub(crate) struct FixCtx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) delta: Option<(&'a Database, usize)>,
}

impl PlanCtx for FixCtx<'_> {
    #[inline]
    fn scan_src(&self, s: &ScanStep) -> ScanSrc<'_> {
        match self.delta {
            Some((delta, ordinal)) if ordinal == s.pos_ordinal => ScanSrc::One(delta),
            _ => ScanSrc::One(self.db),
        }
    }

    #[inline]
    fn neg_pass(&self, n: &NegStep, row: &[ValueId]) -> bool {
        // Negation always reads the full database: stratification
        // guarantees the negated relation is complete here.
        !self.db.contains_ids(n.pred, row)
    }
}

/// Differential context, mirroring [`super::diff::match_body_at_slot`]:
/// the pinned literal reads `delta`; other literals read the new or the
/// reconstructed old state depending on `side` and their source ordinal.
pub(crate) struct DiffCtx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) ins: &'a Database,
    pub(crate) del: &'a Database,
    pub(crate) side: DiffSide,
    pub(crate) slot: usize,
    pub(crate) delta: &'a Database,
}

impl DiffCtx<'_> {
    #[inline]
    fn read_old(&self, lit_ordinal: usize) -> bool {
        match self.side {
            DiffSide::New => false,
            DiffSide::Old => true,
            DiffSide::PrefixNewSuffixOld => lit_ordinal > self.slot,
        }
    }
}

impl PlanCtx for DiffCtx<'_> {
    #[inline]
    fn scan_src(&self, s: &ScanStep) -> ScanSrc<'_> {
        if s.pinned {
            ScanSrc::One(self.delta)
        } else if self.read_old(s.lit_ordinal) {
            ScanSrc::Old {
                db: self.db,
                ins: self.ins,
                del: self.del,
            }
        } else {
            ScanSrc::One(self.db)
        }
    }

    #[inline]
    fn neg_pass(&self, n: &NegStep, row: &[ValueId]) -> bool {
        if n.pinned {
            // The caller pins negated slots to the half of the change whose
            // sign it is accounting: membership in the pinned delta *is*
            // the event.
            self.delta.contains_ids(n.pred, row)
        } else if self.read_old(n.lit_ordinal) {
            let in_old = (self.db.contains_ids(n.pred, row) && !self.ins.contains_ids(n.pred, row))
                || self.del.contains_ids(n.pred, row);
            !in_old
        } else {
            !self.db.contains_ids(n.pred, row)
        }
    }
}

/// Runs `plan` under `ctx`, calling `emit` with the head row of every
/// satisfying register assignment. `emit` may return an error to abort the
/// walk (the single-witness probes use a sentinel).
pub(crate) fn run_plan(
    plan: &RulePlan,
    ctx: &impl PlanCtx,
    scratch: &mut Scratch,
    emit: &mut dyn FnMut(&[ValueId]) -> Result<()>,
) -> Result<()> {
    scratch.fit(plan);
    step(plan, ctx, 0, scratch, emit)
}

fn step(
    plan: &RulePlan,
    ctx: &impl PlanCtx,
    i: usize,
    scratch: &mut Scratch,
    emit: &mut dyn FnMut(&[ValueId]) -> Result<()>,
) -> Result<()> {
    let Some(st) = plan.steps.get(i) else {
        let mut head = std::mem::take(&mut scratch.head);
        head.clear();
        for src in &plan.head {
            head.push(src.get(&scratch.regs));
        }
        let r = emit(&head);
        scratch.head = head;
        return r;
    };
    match st {
        Step::Scan(s) => {
            let mut key = std::mem::take(&mut scratch.keys[i]);
            key.clear();
            for src in &s.key {
                key.push(src.get(&scratch.regs));
            }
            let result = match ctx.scan_src(s) {
                ScanSrc::One(db) => scan_one(plan, ctx, i, s, db, &key, None, scratch, emit),
                ScanSrc::Old { db, ins, del } => {
                    // old = db ∖ ins ∪ del: enumerate surviving new-state
                    // rows first, then the deleted rows — the same order
                    // the interpreted differencing uses.
                    scan_one(plan, ctx, i, s, db, &key, Some(ins), scratch, emit)
                        .and_then(|()| scan_one(plan, ctx, i, s, del, &key, None, scratch, emit))
                }
            };
            scratch.keys[i] = key;
            result
        }
        Step::Neg(n) => {
            let mut key = std::mem::take(&mut scratch.keys[i]);
            key.clear();
            for src in &n.args {
                key.push(src.get(&scratch.regs));
            }
            let pass = ctx.neg_pass(n, &key);
            scratch.keys[i] = key;
            if pass {
                step(plan, ctx, i + 1, scratch, emit)
            } else {
                Ok(())
            }
        }
        Step::Cmp { op, lhs, rhs } => {
            let l = lhs.get(&scratch.regs);
            let r = rhs.get(&scratch.regs);
            let pass = match op {
                // Interned ids are equal iff the values are (across-type
                // equality is false either way): compare without resolving.
                CmpOp::Eq => l == r,
                CmpOp::Ne => l != r,
                // Ordering needs the actual values (and keeps the
                // same-runtime-type error semantics of `CmpOp::eval`).
                _ => op.eval(&l.value(), &r.value())?,
            };
            if pass {
                step(plan, ctx, i + 1, scratch, emit)
            } else {
                Ok(())
            }
        }
        Step::Assign {
            reg,
            expr,
            env,
            check,
        } => {
            let value = {
                let regs = &scratch.regs;
                expr.eval_with(&|sym| {
                    env.iter()
                        .find(|(v, _)| *v == sym)
                        .map(|&(_, r)| regs[r as usize].value())
                })?
            };
            let id = ValueId::intern(&value);
            if *check {
                // Pre-bound to a different value: a failed filter (only
                // reachable for rules built without a safety check).
                if scratch.regs[*reg as usize] != id {
                    return Ok(());
                }
            } else {
                scratch.regs[*reg as usize] = id;
            }
            step(plan, ctx, i + 1, scratch, emit)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_one(
    plan: &RulePlan,
    ctx: &impl PlanCtx,
    i: usize,
    s: &ScanStep,
    source: &Database,
    key: &[ValueId],
    skip_if_in: Option<&Database>,
    scratch: &mut Scratch,
    emit: &mut dyn FnMut(&[ValueId]) -> Result<()>,
) -> Result<()> {
    let Some(rel) = source.relation(s.pred) else {
        return Ok(());
    };
    if rel.arity() != s.arity {
        return Err(DatalogError::ArityMismatch {
            relation: s.pred.to_string(),
            expected: rel.arity(),
            found: s.arity,
        });
    }
    let mut err: Option<DatalogError> = None;
    rel.for_each_match_ids(s.mask, key, |row| {
        if let Some(ins) = skip_if_in {
            if ins.contains_ids(s.pred, row) {
                return true;
            }
        }
        for &(col, reg) in &s.binds {
            scratch.regs[reg as usize] = row[col];
        }
        for &(col, reg) in &s.checks {
            if row[col] != scratch.regs[reg as usize] {
                return true;
            }
        }
        match step(plan, ctx, i + 1, scratch, emit) {
            Ok(()) => true,
            Err(e) => {
                err = Some(e);
                false
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Single-witness probe: does `plan` have *any* satisfying assignment under
/// the current registers (pre-seeded by the caller, e.g. via
/// [`RulePlan::unify_head`])? Mirrors the interpreted `has_any_match`.
pub(crate) fn has_witness(
    plan: &RulePlan,
    ctx: &impl PlanCtx,
    scratch: &mut Scratch,
) -> Result<bool> {
    const WITNESS: usize = usize::MAX;
    scratch.fit(plan);
    match step(plan, ctx, 0, scratch, &mut |_row| {
        Err(DatalogError::IterationLimit(WITNESS))
    }) {
        Ok(()) => Ok(false),
        Err(DatalogError::IterationLimit(WITNESS)) => Ok(true),
        Err(e) => Err(e),
    }
}

/// Compiled counterpart of [`super::seminaive::derive_into`]: runs the
/// fixpoint plan and appends every derived head row to `out` (flat,
/// `head_arity`-strided), counting derivations into `*derivations`.
pub(crate) fn derive_plan(
    db: &Database,
    delta: Option<(&Database, usize)>,
    plan: &RulePlan,
    scratch: &mut Scratch,
    out: &mut Vec<ValueId>,
    derivations: &mut usize,
) -> Result<()> {
    let ctx = FixCtx { db, delta };
    run_plan(plan, &ctx, scratch, &mut |row| {
        *derivations += 1;
        out.extend_from_slice(row);
        Ok(())
    })
}

// ---------------------------------------------------------------------
// Prefix plans: public compiled evaluation of a body-item sequence
// ---------------------------------------------------------------------

/// A compiled **prefix plan**: a body-item sequence compiled to the same
/// register-file steps as a `RulePlan`, but instead of always firing a
/// rule head, execution *suspends* at the end of the sequence and yields
/// the full register file to the caller.
///
/// This is the engine piece the WebdamLog stage layer builds on (see
/// `wdl-core::stage`): the *local prefix* of a distributed rule compiles to
/// a `BodyPlan`, and each yielded register file either fires a head, emits
/// a delegation from the instantiated remainder, or counts a blocked read —
/// decisions that live above the datalog kernel.
///
/// A plan is **resumable from a non-empty initial binding**: variables
/// passed as `prebound` to [`BodyPlan::compile`] are treated as bound from
/// the start (they occupy the first registers), and their values are seeded
/// per run via the `seed` argument of [`BodyPlan::run`] — the compiled
/// analogue of starting [`super::evaluate_body`] from a non-empty
/// [`crate::Subst`].
#[derive(Clone, Debug)]
pub struct BodyPlan {
    plan: RulePlan,
    /// Variable → register assignment, ordered by register number (the
    /// `prebound` variables come first, then first occurrence order).
    vars: Vec<(Symbol, u16)>,
    /// Number of pre-bound registers (the seed length [`BodyPlan::run`]
    /// expects).
    prebound: usize,
}

impl BodyPlan {
    /// Compiles `body` for left-to-right evaluation. Variables listed in
    /// `prebound` are treated as already bound (callers seed their values
    /// at run time); any other variable read before a positive atom binds
    /// it is a compile error, mirroring the interpreter's runtime error.
    pub fn compile(body: &[BodyItem], prebound: &[Symbol]) -> Result<BodyPlan> {
        let mut c = Compiler::default();
        for v in prebound {
            c.alloc(*v);
        }
        let prebound_regs = c.regs.len();
        let order: Vec<usize> = (0..body.len()).collect();
        let steps = c.compile_items(body, &order, None)?;
        let nregs = c.regs.len();
        let mut vars: Vec<(Symbol, u16)> = c.regs.into_iter().collect();
        vars.sort_by_key(|&(_, r)| r);
        let head = (0..nregs).map(|r| Src::Reg(r as u16)).collect();
        Ok(BodyPlan {
            plan: RulePlan {
                nregs,
                steps,
                head_pred: Symbol::intern("<prefix>"),
                head,
                head_acts: Vec::new(),
            },
            vars,
            prebound: prebound_regs,
        })
    }

    /// The variable → register assignment, ordered by register number.
    /// Yielded register files are indexed by these registers.
    pub fn bindings(&self) -> &[(Symbol, u16)] {
        &self.vars
    }

    /// The register holding `var`, if the body (or the prebound set) binds
    /// it.
    pub fn register_of(&self, var: Symbol) -> Option<u16> {
        self.vars.iter().find(|&&(v, _)| v == var).map(|&(_, r)| r)
    }

    /// Total register count — the length of the slice passed to `emit`.
    pub fn registers(&self) -> usize {
        self.plan.nregs
    }

    /// Runs the plan against `db`, calling `emit` with the register file of
    /// every satisfying assignment (in the interpreter's left-to-right
    /// enumeration order). `seed` provides one value per `prebound`
    /// variable, in the order they were passed to [`BodyPlan::compile`];
    /// its length must match. `emit` may return an error to abort.
    pub fn run(
        &self,
        db: &Database,
        scratch: &mut BodyScratch,
        seed: &[ValueId],
        emit: &mut dyn FnMut(&[ValueId]) -> Result<()>,
    ) -> Result<()> {
        if seed.len() != self.prebound {
            return Err(DatalogError::UnboundVariable(format!(
                "prefix plan expects {} seed value(s), got {}",
                self.prebound,
                seed.len()
            )));
        }
        scratch.0.fit(&self.plan);
        scratch.0.regs[..seed.len()].copy_from_slice(seed);
        run_plan(
            &self.plan,
            &FixCtx { db, delta: None },
            &mut scratch.0,
            emit,
        )
    }
}

/// Reusable buffers for [`BodyPlan::run`]: one instance can serve many
/// plans (it grows to fit the largest).
#[derive(Default)]
pub struct BodyScratch(Scratch);

impl BodyScratch {
    /// An empty scratch.
    pub fn new() -> BodyScratch {
        BodyScratch(Scratch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fact, Subst, Value};

    fn atom(pred: &str, vars: &[&str]) -> Atom {
        Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
    }

    /// Compiled head rows over a saturated database must equal the
    /// interpreted matcher's grounded heads, in the same order.
    fn heads_of(rule: &Rule, db: &Database) -> (Vec<Fact>, Vec<Fact>) {
        let plan = RulePlan::compile(rule).unwrap();
        let mut compiled = Vec::new();
        let mut scratch = Scratch::for_plan(&plan);
        run_plan(
            &plan,
            &FixCtx { db, delta: None },
            &mut scratch,
            &mut |row| {
                compiled.push(Fact {
                    pred: plan.head_pred,
                    tuple: crate::intern::resolve_row(row),
                });
                Ok(())
            },
        )
        .unwrap();
        let mut interpreted = Vec::new();
        crate::eval::match_body(db, None, &rule.body, Subst::new(), &mut |s| {
            interpreted.push(rule.head.ground(&s).unwrap());
            Ok(())
        })
        .unwrap();
        (compiled, interpreted)
    }

    #[test]
    fn compiled_matches_interpreted_on_joins() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 3)] {
            db.insert(Fact::new("e", vec![Value::from(a), Value::from(b)]))
                .unwrap();
        }
        let rule = Rule::new(
            atom("p", &["x", "z"]),
            vec![atom("e", &["x", "y"]).into(), atom("e", &["y", "z"]).into()],
        );
        let (c, i) = heads_of(&rule, &db);
        assert_eq!(c, i);
        assert!(!c.is_empty());
    }

    #[test]
    fn compiled_handles_repeated_vars_consts_negation_builtins() {
        let mut db = Database::new();
        for (a, b) in [(1, 1), (1, 2), (2, 2), (3, 5)] {
            db.insert(Fact::new("e", vec![Value::from(a), Value::from(b)]))
                .unwrap();
        }
        db.insert(Fact::new("blocked", vec![Value::from(2)]))
            .unwrap();
        // p(y) :- e(x, x), e(x, y), not blocked(y), y >= x, z := y + 1
        let rule = Rule::new(
            atom("p", &["z"]),
            vec![
                atom("e", &["x", "x"]).into(),
                atom("e", &["x", "y"]).into(),
                BodyItem::not_atom(atom("blocked", &["y"])),
                BodyItem::cmp(CmpOp::Ge, Term::var("y"), Term::var("x")),
                BodyItem::assign(
                    "z",
                    Expr::bin(
                        crate::BinOp::Add,
                        Expr::term(Term::var("y")),
                        Expr::term(Term::cst(1)),
                    ),
                ),
            ],
        );
        let (c, i) = heads_of(&rule, &db);
        assert_eq!(c, i);
    }

    /// A prefix plan yields exactly the substitutions the interpreted
    /// matcher produces, register-for-variable, in the same order.
    #[test]
    fn body_plan_matches_interpreted_substitutions() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 3)] {
            db.insert(Fact::new("e", vec![Value::from(a), Value::from(b)]))
                .unwrap();
        }
        db.insert(Fact::new("stop", vec![Value::from(4)])).unwrap();
        // e(x, y), e(y, z), not stop(z), z >= x
        let body: Vec<BodyItem> = vec![
            atom("e", &["x", "y"]).into(),
            atom("e", &["y", "z"]).into(),
            BodyItem::not_atom(atom("stop", &["z"])),
            BodyItem::cmp(CmpOp::Ge, Term::var("z"), Term::var("x")),
        ];
        let plan = BodyPlan::compile(&body, &[]).unwrap();
        let mut compiled: Vec<Vec<(Symbol, Value)>> = Vec::new();
        let mut scratch = BodyScratch::new();
        plan.run(&db, &mut scratch, &[], &mut |regs| {
            compiled.push(
                plan.bindings()
                    .iter()
                    .map(|&(v, r)| (v, regs[r as usize].value()))
                    .collect(),
            );
            Ok(())
        })
        .unwrap();
        let interpreted = crate::eval::evaluate_body(&db, &body, Subst::new()).unwrap();
        assert_eq!(compiled.len(), interpreted.len());
        for (c, i) in compiled.iter().zip(&interpreted) {
            for (v, val) in c {
                assert_eq!(i.get(*v), Some(val), "${v}");
            }
        }
        assert!(!compiled.is_empty());
    }

    /// Prebound variables resume the plan from a non-empty initial binding
    /// — the compiled analogue of `evaluate_body` with a seeded `Subst`.
    #[test]
    fn body_plan_resumes_from_seeded_bindings() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (2, 9)] {
            db.insert(Fact::new("e", vec![Value::from(a), Value::from(b)]))
                .unwrap();
        }
        let body: Vec<BodyItem> = vec![atom("e", &["x", "y"]).into()];
        let x = Symbol::intern("x");
        let plan = BodyPlan::compile(&body, &[x]).unwrap();
        assert_eq!(plan.register_of(x), Some(0));
        let mut rows = Vec::new();
        let mut scratch = BodyScratch::new();
        let seed = [ValueId::intern(&Value::from(2))];
        plan.run(&db, &mut scratch, &seed, &mut |regs| {
            rows.push(regs.to_vec());
            Ok(())
        })
        .unwrap();
        // Only e(2, _) rows match the seeded binding.
        let y = plan.register_of(Symbol::intern("y")).unwrap() as usize;
        let ys: Vec<Value> = rows.iter().map(|r| r[y].value()).collect();
        assert_eq!(ys, vec![Value::from(3), Value::from(9)]);

        // Seed-length mismatch is a recoverable error, not a panic.
        assert!(plan.run(&db, &mut scratch, &[], &mut |_| Ok(())).is_err());

        // The interpreter agrees from the same initial binding.
        let init: Subst = [(x, Value::from(2))].into_iter().collect();
        let interp = crate::eval::evaluate_body(&db, &body, init).unwrap();
        assert_eq!(interp.len(), rows.len());
    }

    /// An empty body (the degenerate prefix of a rule whose first literal
    /// is non-local) yields the seed bindings exactly once.
    #[test]
    fn empty_body_plan_yields_once() {
        let db = Database::new();
        let plan = BodyPlan::compile(&[], &[]).unwrap();
        let mut count = 0usize;
        let mut scratch = BodyScratch::new();
        plan.run(&db, &mut scratch, &[], &mut |regs| {
            assert!(regs.is_empty());
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn rederive_plan_finds_witnesses() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3)] {
            db.insert(Fact::new("e", vec![Value::from(a), Value::from(b)]))
                .unwrap();
        }
        let rule = Rule::new(atom("p", &["x", "y"]), vec![atom("e", &["x", "y"]).into()]);
        let plan = RulePlan::compile_rederive(&rule).unwrap();
        let mut scratch = Scratch::for_plan(&plan);
        let present = Fact::new("p", vec![Value::from(1), Value::from(2)]);
        let absent = Fact::new("p", vec![Value::from(1), Value::from(3)]);
        for (fact, expect) in [(&present, true), (&absent, false)] {
            let mut ids = Vec::new();
            crate::intern::intern_row(&fact.tuple, &mut ids);
            assert!(plan.unify_head(&ids, &mut scratch.regs));
            let got = has_witness(
                &plan,
                &FixCtx {
                    db: &db,
                    delta: None,
                },
                &mut scratch,
            )
            .unwrap();
            assert_eq!(got, expect, "{fact}");
        }
    }
}
