//! Naive bottom-up fixpoint: re-derive everything from scratch each round.
//!
//! Kept as the test reference for seminaive evaluation: both strategies
//! must reach the same fixpoint.

use crate::eval::{derive_plan, match_body, PlannedRule};
use crate::program::EvalStats;
use crate::{Database, DatalogError, Result, Rule, Subst};

/// Compiled naive fixpoint: same round structure (and [`EvalStats`]) as
/// [`naive_fixpoint`], running each rule's register-file plan.
pub(crate) fn naive_fixpoint_compiled(
    db: &mut Database,
    rules: &[PlannedRule<'_>],
    stats: &mut EvalStats,
    iteration_limit: usize,
) -> Result<()> {
    let mut scratches: Vec<crate::eval::Scratch> = rules
        .iter()
        .map(|pr| crate::eval::Scratch::for_plan(pr.plan))
        .collect();
    let mut bufs: Vec<super::seminaive::HeadBuf> = rules
        .iter()
        .map(|_| super::seminaive::HeadBuf::default())
        .collect();
    loop {
        stats.iterations += 1;
        if stats.iterations > iteration_limit {
            return Err(DatalogError::IterationLimit(iteration_limit));
        }
        for (ri, pr) in rules.iter().enumerate() {
            let mut n = 0usize;
            derive_plan(
                db,
                None,
                pr.plan,
                &mut scratches[ri],
                &mut bufs[ri].flat,
                &mut n,
            )?;
            bufs[ri].rows += n;
            stats.derivations += n;
        }
        let mut changed = false;
        for (ri, buf) in bufs.iter_mut().enumerate() {
            let pred = rules[ri].plan.head_pred;
            let arity = rules[ri].plan.head_arity();
            for r in 0..buf.rows {
                let row = &buf.flat[r * arity..(r + 1) * arity];
                if db.insert_ids(pred, arity, row)? {
                    stats.facts_derived += 1;
                    changed = true;
                }
            }
            buf.rows = 0;
            buf.flat.clear();
        }
        if !changed {
            return Ok(());
        }
    }
}

/// Runs the naive fixpoint for one stratum's rules over `db` in place.
pub(crate) fn naive_fixpoint(
    db: &mut Database,
    rules: &[&Rule],
    stats: &mut EvalStats,
    iteration_limit: usize,
) -> Result<()> {
    loop {
        stats.iterations += 1;
        if stats.iterations > iteration_limit {
            return Err(DatalogError::IterationLimit(iteration_limit));
        }
        let mut new_facts = Vec::new();
        for rule in rules {
            let mut derive = |subst: Subst| -> Result<()> {
                stats.derivations += 1;
                if let Some(fact) = rule.head.ground(&subst) {
                    new_facts.push(fact);
                    Ok(())
                } else {
                    Err(DatalogError::UnboundVariable(format!(
                        "head of {rule} not fully bound (rule unsafe?)"
                    )))
                }
            };
            match_body(db, None, &rule.body, Subst::new(), &mut derive)?;
        }
        let mut changed = false;
        for fact in new_facts {
            if db.insert(fact)? {
                stats.facts_derived += 1;
                changed = true;
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, Fact, Term, Value};

    fn atom(pred: &str, vars: &[&str]) -> Atom {
        Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
    }

    #[test]
    fn transitive_closure() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert(Fact::new("edge", vec![Value::from(a), Value::from(b)]))
                .unwrap();
        }
        let rules = [
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
        ];
        let refs: Vec<&Rule> = rules.iter().collect();
        let mut stats = EvalStats::default();
        naive_fixpoint(&mut db, &refs, &mut stats, 1000).unwrap();
        assert_eq!(db.relation("path").unwrap().len(), 6);
        assert!(stats.iterations >= 3); // chain of length 3 needs ≥3 rounds
    }

    #[test]
    fn iteration_limit_fires() {
        let mut db = Database::new();
        db.insert(Fact::new("n", vec![Value::from(0)])).unwrap();
        // n(x+1) :- n(x)  — diverges without a limit.
        let rules = [Rule::new(
            Atom::new("n", vec![Term::var("y")]),
            vec![
                atom("n", &["x"]).into(),
                crate::BodyItem::assign(
                    "y",
                    crate::Expr::bin(
                        crate::BinOp::Add,
                        crate::Expr::term(Term::var("x")),
                        crate::Expr::term(Term::cst(1)),
                    ),
                ),
            ],
        )];
        let refs: Vec<&Rule> = rules.iter().collect();
        let mut stats = EvalStats::default();
        let err = naive_fixpoint(&mut db, &refs, &mut stats, 50).unwrap_err();
        assert!(matches!(err, DatalogError::IterationLimit(50)));
    }
}
