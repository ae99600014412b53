//! Naive bottom-up fixpoint: re-derive everything from scratch each round.
//!
//! Kept as the interpreted test reference for seminaive evaluation
//! ([`crate::Program::eval_naive`]): both must reach the same fixpoint.

use crate::eval::match_body;
use crate::program::EvalStats;
use crate::{Database, DatalogError, Result, Rule, Subst};

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
