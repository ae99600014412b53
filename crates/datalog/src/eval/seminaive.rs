//! Seminaive bottom-up fixpoint: each round only joins through the facts
//! derived in the previous round (the delta), so quiescent parts of the
//! database are not re-scanned. This is the production fixpoint, mirroring the
//! delta-driven evaluation of the Bud runtime the paper builds on.

use crate::eval::{derive_plan, match_body, PlannedRule};
use crate::intern::ValueId;
use crate::program::EvalStats;
use crate::{Database, DatalogError, Fact, Result, Rule, Subst, Symbol};

/// Runs the seminaive fixpoint for one stratum's rules over `db` in place.
///
/// `stratum_idb` is the set of predicates whose content can still grow in
/// this stratum; only occurrences of those predicates participate in delta
/// rewriting (everything else is frozen input from lower strata or the EDB).
pub(crate) fn seminaive_fixpoint(
    db: &mut Database,
    rules: &[&Rule],
    stratum_idb: &[Symbol],
    stats: &mut EvalStats,
    iteration_limit: usize,
) -> Result<()> {
    // Round 0: full evaluation seeds the delta.
    stats.iterations += 1;
    let mut delta_facts: Vec<Fact> = Vec::new();
    for rule in rules {
        derive_into(db, None, rule, &mut delta_facts, stats)?;
    }
    let mut delta = Database::new();
    for fact in delta_facts.drain(..) {
        if !db.contains(&fact) {
            if delta.insert(fact.clone())? {
                stats.facts_derived += 1;
            }
            db.insert(fact)?;
        }
    }

    // Subsequent rounds: join through the delta only. The two delta
    // databases are pooled — each round clears and refills the spare one
    // instead of allocating a fresh `Database` (arena capacity is reused,
    // which matters in deep recursions with many small rounds).
    let mut spare = Database::new();
    while delta.fact_count() > 0 {
        stats.iterations += 1;
        if stats.iterations > iteration_limit {
            return Err(DatalogError::IterationLimit(iteration_limit));
        }
        let mut candidates: Vec<Fact> = Vec::new();
        for rule in rules {
            // One delta-rewriting per positive occurrence of a same-stratum
            // IDB predicate: that occurrence reads the delta, the rest read
            // the accumulated database. Pooled deltas keep emptied
            // relations around, so the guard checks content, not presence.
            let mut ordinal = 0usize;
            for item in &rule.body {
                let Some(atom) = item.as_positive_atom() else {
                    continue;
                };
                if stratum_idb.contains(&atom.pred)
                    && delta.relation(atom.pred).is_some_and(|r| !r.is_empty())
                {
                    derive_into(db, Some((&delta, ordinal)), rule, &mut candidates, stats)?;
                }
                ordinal += 1;
            }
        }
        spare.clear_all();
        for fact in candidates {
            if !db.contains(&fact) {
                if spare.insert(fact.clone())? {
                    stats.facts_derived += 1;
                }
                db.insert(fact)?;
            }
        }
        std::mem::swap(&mut delta, &mut spare);
    }
    Ok(())
}

/// A per-rule flat buffer of derived head rows (`head_arity`-strided ids;
/// the explicit row count keeps nullary heads working). Candidates are
/// buffered because derivation scans the database that the merge then
/// mutates.
#[derive(Default)]
pub(crate) struct HeadBuf {
    pub(crate) rows: usize,
    pub(crate) flat: Vec<ValueId>,
}

/// Compiled seminaive fixpoint: identical round/merge structure (and
/// [`EvalStats`]) to [`seminaive_fixpoint`], but each rule runs its
/// register-file [`crate::eval::RulePlan`] and candidates stay in the
/// interned id plane end to end — the only `Value` traffic is inside
/// builtins.
///
/// With a `profile`, each `derive_plan` invocation is timed and recorded
/// against the rule's head predicate, with the delta relation's size as
/// `delta_in` (0 on the full round-0 pass). `None` takes exactly the
/// unprofiled path — no clocks, no extra work.
pub(crate) fn seminaive_fixpoint_compiled(
    db: &mut Database,
    rules: &[PlannedRule<'_>],
    stratum_idb: &[Symbol],
    stats: &mut EvalStats,
    iteration_limit: usize,
    mut profile: Option<&mut crate::profile::RuleProfile>,
) -> Result<()> {
    let mut scratches: Vec<crate::eval::Scratch> = rules
        .iter()
        .map(|pr| crate::eval::Scratch::for_plan(pr.plan))
        .collect();
    let mut bufs: Vec<HeadBuf> = rules.iter().map(|_| HeadBuf::default()).collect();

    // Round 0: full evaluation seeds the delta.
    stats.iterations += 1;
    for (ri, pr) in rules.iter().enumerate() {
        let mut n = 0usize;
        let t0 = profile.as_ref().map(|_| std::time::Instant::now());
        derive_plan(
            db,
            None,
            pr.plan,
            &mut scratches[ri],
            &mut bufs[ri].flat,
            &mut n,
        )?;
        if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
            p.record(
                pr.plan.head_pred,
                t0.elapsed().as_nanos() as u64,
                0,
                n as u64,
            );
        }
        bufs[ri].rows += n;
        stats.derivations += n;
    }
    let mut delta = Database::new();
    merge_round(db, &mut delta, rules, &mut bufs, stats)?;

    // Subsequent rounds: join through the delta only, recycling the two
    // pooled delta databases (clear + refill, no per-round allocation).
    let mut spare = Database::new();
    while delta.fact_count() > 0 {
        stats.iterations += 1;
        if stats.iterations > iteration_limit {
            return Err(DatalogError::IterationLimit(iteration_limit));
        }
        for (ri, pr) in rules.iter().enumerate() {
            let mut ordinal = 0usize;
            for item in &pr.rule.body {
                let Some(atom) = item.as_positive_atom() else {
                    continue;
                };
                if stratum_idb.contains(&atom.pred)
                    && delta.relation(atom.pred).is_some_and(|r| !r.is_empty())
                {
                    let mut n = 0usize;
                    let t0 = profile.as_ref().map(|_| std::time::Instant::now());
                    derive_plan(
                        db,
                        Some((&delta, ordinal)),
                        pr.plan,
                        &mut scratches[ri],
                        &mut bufs[ri].flat,
                        &mut n,
                    )?;
                    if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
                        let delta_in = delta.relation(atom.pred).map_or(0, |r| r.len()) as u64;
                        p.record(
                            pr.plan.head_pred,
                            t0.elapsed().as_nanos() as u64,
                            delta_in,
                            n as u64,
                        );
                    }
                    bufs[ri].rows += n;
                    stats.derivations += n;
                }
                ordinal += 1;
            }
        }
        spare.clear_all();
        merge_round(db, &mut spare, rules, &mut bufs, stats)?;
        std::mem::swap(&mut delta, &mut spare);
    }
    Ok(())
}

/// The per-round merge: folds each rule's buffered candidates (in rule
/// order, emission order) into `db`, seeding `delta` with the genuinely
/// new rows; buffers are drained for reuse.
fn merge_round(
    db: &mut Database,
    delta: &mut Database,
    rules: &[PlannedRule<'_>],
    bufs: &mut [HeadBuf],
    stats: &mut EvalStats,
) -> Result<()> {
    for (ri, buf) in bufs.iter_mut().enumerate() {
        let pred = rules[ri].plan.head_pred;
        let arity = rules[ri].plan.head_arity();
        for r in 0..buf.rows {
            let row = &buf.flat[r * arity..(r + 1) * arity];
            if !db.contains_ids(pred, row) {
                if delta.insert_ids(pred, arity, row)? {
                    stats.facts_derived += 1;
                }
                db.insert_ids(pred, arity, row)?;
            }
        }
        buf.rows = 0;
        buf.flat.clear();
    }
    Ok(())
}

/// Derives every head instantiation of `rule` (optionally delta-rewritten
/// at one positive occurrence) into `out`.
fn derive_into(
    db: &Database,
    delta: Option<(&Database, usize)>,
    rule: &Rule,
    out: &mut Vec<Fact>,
    stats: &mut EvalStats,
) -> Result<()> {
    let mut emit = |subst: Subst| -> Result<()> {
        stats.derivations += 1;
        match rule.head.ground(&subst) {
            Some(fact) => {
                out.push(fact);
                Ok(())
            }
            None => Err(DatalogError::UnboundVariable(format!(
                "head of {rule} not fully bound (rule unsafe?)"
            ))),
        }
    };
    match_body(db, delta, &rule.body, Subst::new(), &mut emit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, Term, Value};

    fn atom(pred: &str, vars: &[&str]) -> Atom {
        Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
    }

    fn tc_rules() -> Vec<Rule> {
        vec![
            Rule::new(
                atom("path", &["x", "y"]),
                vec![atom("edge", &["x", "y"]).into()],
            ),
            Rule::new(
                atom("path", &["x", "z"]),
                vec![
                    atom("edge", &["x", "y"]).into(),
                    atom("path", &["y", "z"]).into(),
                ],
            ),
        ]
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert(Fact::new("edge", vec![Value::from(i), Value::from(i + 1)]))
                .unwrap();
        }
        db
    }

    #[test]
    fn matches_naive_on_transitive_closure() {
        let rules = tc_rules();
        let refs: Vec<&Rule> = rules.iter().collect();
        let idb = [Symbol::intern("path")];

        let mut semi_db = chain_db(20);
        let mut stats = EvalStats::default();
        seminaive_fixpoint(&mut semi_db, &refs, &idb, &mut stats, 10_000).unwrap();

        let mut naive_db = chain_db(20);
        let mut nstats = EvalStats::default();
        crate::eval::naive_fixpoint(&mut naive_db, &refs, &mut nstats, 10_000).unwrap();

        assert_eq!(
            semi_db.relation("path").unwrap(),
            naive_db.relation("path").unwrap()
        );
        // 20-node chain: 20*21/2 = 210 paths.
        assert_eq!(semi_db.relation("path").unwrap().len(), 210);
        // Seminaive must do strictly fewer derivation attempts.
        assert!(stats.derivations < nstats.derivations);
    }

    #[test]
    fn non_recursive_rule_converges_in_two_rounds() {
        let mut db = Database::new();
        db.insert(Fact::new("a", vec![Value::from(1)])).unwrap();
        let rules = [Rule::new(atom("b", &["x"]), vec![atom("a", &["x"]).into()])];
        let refs: Vec<&Rule> = rules.iter().collect();
        let mut stats = EvalStats::default();
        seminaive_fixpoint(&mut db, &refs, &[Symbol::intern("b")], &mut stats, 100).unwrap();
        assert_eq!(db.relation("b").unwrap().len(), 1);
        assert!(stats.iterations <= 2);
    }

    #[test]
    fn empty_rule_set_is_noop() {
        let mut db = chain_db(3);
        let mut stats = EvalStats::default();
        seminaive_fixpoint(&mut db, &[], &[], &mut stats, 100).unwrap();
        assert!(db.relation("path").is_none());
    }
}
