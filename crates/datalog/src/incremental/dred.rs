//! DRed (delete and rederive) maintenance for self-reading strata.
//!
//! Counting is unsound under recursion — a fact can sit on a derivation
//! cycle and keep itself alive — so strata whose rules read their own
//! predicates use the classic three-phase algorithm (Gupta, Mumick &
//! Subrahmanian, SIGMOD '93):
//!
//! 1. **Overdelete.** Starting from the deleted inputs (and from
//!    insertions into negated inputs, which also destroy derivations),
//!    transitively delete every stratum fact with *some* derivation that
//!    touches a deleted fact. This over-approximates: a fact with an
//!    untouched alternative derivation is removed here and resurrected in
//!    phase 2. Matching runs against the **old** state throughout — the
//!    set of derivations being destroyed is a property of the old
//!    database.
//! 2. **Rederive.** For each overdeleted fact, check one derivation step
//!    against the *remaining* database (or external support from the base
//!    relation); survivors are reinserted and seed phase 3, which rebuilds
//!    anything reachable from them.
//! 3. **Insert.** Derivations gained through inserted inputs (and through
//!    deletions from negated inputs) seed a standard seminaive fixpoint
//!    within the stratum, shared with the rederivation seeds.
//!
//! Phases 1 and 3 tolerate over-counting (they work with sets), which is
//! why they can use the cheaper all-old / all-new matching modes instead
//! of exact differencing. On the default path every phase runs compiled
//! plans over interned ids — differential plans for the slot scans, the
//! head-bound rederivation plan for phase 2's single-witness probes, and
//! the fixpoint plans for phase 3's seminaive propagation; the interpreted
//! `Subst` matcher remains selectable as the semantic reference.

use super::{Changes, IdFact, StratumInfo};
use crate::eval::{
    has_witness, match_body, match_body_at_slot, run_plan, DiffCtx, DiffSide, FixCtx, Scratch,
};
use crate::{Atom, BodyItem, Database, DatalogError, Fact, Program, Result, Subst, Term};
use std::collections::HashSet;

/// Maintains one DRed stratum in place. Parameters as in
/// [`super::counting::maintain`], except that `base` is consulted for
/// external support during rederivation instead of through counts.
pub(super) fn maintain(
    program: &Program,
    info: &StratumInfo,
    db: &mut Database,
    base: &Database,
    changes: &mut Changes,
    ext: &[(&IdFact, bool)],
) -> Result<()> {
    let compiled = program.eval_config().compiled;
    let limit = program.iteration_limit();
    // One scratch reused across every plan invocation of this pass.
    let mut scratch = Scratch::new();

    // Collects every head produced by the differential plan / matcher for
    // (rule `ri`, literal `slot`) with the given side and pinned delta.
    let diff_heads = |ri: usize,
                      slot: usize,
                      side: DiffSide,
                      delta_db: &Database,
                      db: &Database,
                      changes: &Changes,
                      scratch: &mut Scratch|
     -> Result<Vec<IdFact>> {
        let mut heads = Vec::new();
        if compiled {
            let plan = program.diff_plan(ri, slot);
            let ctx = DiffCtx {
                db,
                ins: &changes.ins,
                del: &changes.del,
                side,
                slot,
                delta: delta_db,
            };
            run_plan(plan, &ctx, scratch, &mut |row| {
                heads.push(IdFact::new(plan.head_pred, row));
                Ok(())
            })?;
        } else {
            let rule = &program.rules()[ri];
            match_body_at_slot(
                db,
                &changes.as_net(),
                side,
                &rule.body,
                slot,
                delta_db,
                &mut |s| {
                    if let Some(fact) = rule.head.ground(&s) {
                        heads.push(IdFact::of_fact(&fact));
                    }
                    Ok(())
                },
            )?;
        }
        Ok(heads)
    };

    // ---- Phase 1: overdeletion, against the old state.
    let mut over: HashSet<IdFact> = HashSet::new();
    let mut frontier = Database::new();

    // Base deletions of this stratum's own predicates start the frontier.
    for &(fact, added) in ext {
        if !added && db.contains_ids(fact.pred, &fact.row) && over.insert(fact.clone()) {
            frontier.insert_ids(fact.pred, fact.row.len(), &fact.row)?;
        }
    }
    // Derivations destroyed by input changes: deleted positive inputs,
    // inserted negated inputs.
    for &ri in &info.rules {
        let rule = &program.rules()[ri];
        let mut slot = 0usize;
        for item in &rule.body {
            let BodyItem::Literal(lit) = item else {
                continue;
            };
            let pred = lit.atom.pred;
            if !info.idb.contains(&pred) {
                let delta_db = if lit.negated {
                    &changes.ins
                } else {
                    &changes.del
                };
                if delta_db.relation(pred).is_some_and(|r| !r.is_empty()) {
                    let heads =
                        diff_heads(ri, slot, DiffSide::Old, delta_db, db, changes, &mut scratch)?;
                    for fact in heads {
                        if db.contains_ids(fact.pred, &fact.row) && over.insert(fact.clone()) {
                            frontier.insert_ids(fact.pred, fact.row.len(), &fact.row)?;
                        }
                    }
                }
            }
            slot += 1;
        }
    }
    // Transitive overdeletion through intra-stratum dependencies. The
    // stratum's own relations are still untouched in `db`, so the old
    // state of a stratum predicate *is* `db` — which is what `DiffSide::Old`
    // reads for predicates without recorded changes.
    let mut rounds = 0usize;
    while frontier.fact_count() > 0 {
        rounds += 1;
        if rounds > limit {
            return Err(DatalogError::IterationLimit(limit));
        }
        let mut next = Database::new();
        for &ri in &info.rules {
            let rule = &program.rules()[ri];
            let mut slot = 0usize;
            for item in &rule.body {
                let BodyItem::Literal(lit) = item else {
                    continue;
                };
                if !lit.negated
                    && info.idb.contains(&lit.atom.pred)
                    && frontier
                        .relation(lit.atom.pred)
                        .is_some_and(|r| !r.is_empty())
                {
                    let heads = diff_heads(
                        ri,
                        slot,
                        DiffSide::Old,
                        &frontier,
                        db,
                        changes,
                        &mut scratch,
                    )?;
                    for fact in heads {
                        if db.contains_ids(fact.pred, &fact.row) && over.insert(fact.clone()) {
                            next.insert_ids(fact.pred, fact.row.len(), &fact.row)?;
                        }
                    }
                }
                slot += 1;
            }
        }
        frontier = next;
    }

    for fact in &over {
        db.remove_ids(fact.pred, &fact.row);
    }

    // ---- Phase 2: rederivation against the remaining database.
    let mut restored: HashSet<IdFact> = HashSet::new();
    let mut added: HashSet<IdFact> = HashSet::new();
    let mut seed = Database::new();
    for fact in &over {
        let mut derivable = base.contains_ids(fact.pred, &fact.row);
        if !derivable && compiled {
            for &ri in &info.rules {
                let plan = program.rederive_plan(ri);
                if plan.head_pred != fact.pred || plan.head_arity() != fact.row.len() {
                    continue;
                }
                scratch.fit(plan);
                if plan.unify_head(&fact.row, &mut scratch.regs)
                    && has_witness(plan, &FixCtx { db, delta: None }, &mut scratch)?
                {
                    derivable = true;
                    break;
                }
            }
        } else if !derivable {
            let ground = fact.to_fact();
            for &ri in &info.rules {
                let rule = &program.rules()[ri];
                if let Some(init) = unify_head(&rule.head, &ground) {
                    if has_any_match(db, &rule.body, init)? {
                        derivable = true;
                        break;
                    }
                }
            }
        }
        if derivable && db.insert_ids(fact.pred, fact.row.len(), &fact.row)? {
            restored.insert(fact.clone());
            seed.insert_ids(fact.pred, fact.row.len(), &fact.row)?;
        }
    }

    // ---- Phase 3: insertions, against the new state.
    let mut insert_fact = |fact: IdFact, db: &mut Database, seed: &mut Database| -> Result<()> {
        if db.insert_ids(fact.pred, fact.row.len(), &fact.row)? {
            seed.insert_ids(fact.pred, fact.row.len(), &fact.row)?;
            if over.contains(&fact) {
                restored.insert(fact);
            } else {
                added.insert(fact);
            }
        }
        Ok(())
    };
    // Base insertions of this stratum's own predicates.
    for &(fact, added) in ext {
        if added {
            insert_fact(fact.clone(), db, &mut seed)?;
        }
    }
    // Derivations gained through input changes: inserted positive inputs,
    // deleted negated inputs.
    for &ri in &info.rules {
        let rule = &program.rules()[ri];
        let mut slot = 0usize;
        for item in &rule.body {
            let BodyItem::Literal(lit) = item else {
                continue;
            };
            let pred = lit.atom.pred;
            if !info.idb.contains(&pred) {
                let delta_db = if lit.negated {
                    &changes.del
                } else {
                    &changes.ins
                };
                if delta_db.relation(pred).is_some_and(|r| !r.is_empty()) {
                    let heads =
                        diff_heads(ri, slot, DiffSide::New, delta_db, db, changes, &mut scratch)?;
                    for fact in heads {
                        insert_fact(fact, db, &mut seed)?;
                    }
                }
            }
            slot += 1;
        }
    }

    // Seminaive propagation of the seeds through the stratum.
    let mut rounds = 0usize;
    while seed.fact_count() > 0 {
        rounds += 1;
        if rounds > limit {
            return Err(DatalogError::IterationLimit(limit));
        }
        let mut candidates: Vec<IdFact> = Vec::new();
        for &ri in &info.rules {
            let rule = &program.rules()[ri];
            let mut ordinal = 0usize;
            for item in &rule.body {
                let Some(atom) = item.as_positive_atom() else {
                    continue;
                };
                if info.idb.contains(&atom.pred)
                    && seed.relation(atom.pred).is_some_and(|r| !r.is_empty())
                {
                    if compiled {
                        let plan = program.plan(ri);
                        let ctx = FixCtx {
                            db,
                            delta: Some((&seed, ordinal)),
                        };
                        run_plan(plan, &ctx, &mut scratch, &mut |row| {
                            candidates.push(IdFact::new(plan.head_pred, row));
                            Ok(())
                        })?;
                    } else {
                        match_body(
                            db,
                            Some((&seed, ordinal)),
                            &rule.body,
                            Subst::new(),
                            &mut |s| match rule.head.ground(&s) {
                                Some(fact) => {
                                    candidates.push(IdFact::of_fact(&fact));
                                    Ok(())
                                }
                                None => Err(DatalogError::UnboundVariable(format!(
                                    "head of {rule} not fully bound"
                                ))),
                            },
                        )?;
                    }
                }
                ordinal += 1;
            }
        }
        let mut next = Database::new();
        for fact in candidates {
            if !db.contains_ids(fact.pred, &fact.row) {
                db.insert_ids(fact.pred, fact.row.len(), &fact.row)?;
                next.insert_ids(fact.pred, fact.row.len(), &fact.row)?;
                if over.contains(&fact) {
                    restored.insert(fact);
                } else {
                    added.insert(fact);
                }
            }
        }
        seed = next;
    }

    // ---- Net effect of this stratum.
    for fact in &over {
        if !restored.contains(fact) {
            changes.record_delete(fact.pred, &fact.row)?;
        }
    }
    for fact in &added {
        changes.record_insert(fact.pred, &fact.row)?;
    }
    Ok(())
}

/// First-witness probe (interpreted reference path): does `body` have *any*
/// satisfying substitution under `init`? The matcher has no native early
/// exit, so the emit callback aborts the walk with a sentinel error once a
/// witness is found — rederivation only needs one derivation, not all of
/// them.
fn has_any_match(db: &Database, body: &[BodyItem], init: Subst) -> Result<bool> {
    const WITNESS: usize = usize::MAX;
    match match_body(db, None, body, init, &mut |_s| {
        Err(DatalogError::IterationLimit(WITNESS))
    }) {
        Ok(()) => Ok(false),
        Err(DatalogError::IterationLimit(WITNESS)) => Ok(true),
        Err(e) => Err(e),
    }
}

/// Unifies a rule head with a ground fact, yielding the initial bindings
/// for a rederivation probe (`None` when the head cannot produce the fact).
fn unify_head(head: &Atom, fact: &Fact) -> Option<Subst> {
    if head.pred != fact.pred || head.args.len() != fact.tuple.len() {
        return None;
    }
    let mut subst = Subst::new();
    for (term, value) in head.args.iter().zip(fact.tuple.iter()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return None;
                }
            }
            Term::Var(v) => {
                if !subst.unify_var(*v, value) {
                    return None;
                }
            }
        }
    }
    Some(subst)
}
