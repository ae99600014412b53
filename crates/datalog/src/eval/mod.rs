//! Rule evaluation: the left-to-right body matchers, the seminaive
//! bottom-up fixpoint, and the naive one kept as its interpreted test
//! reference.
//!
//! Two matchers compute the same bindings. The compiled register-file
//! plans (`plan.rs`; [`BodyPlan`] is the public prefix form the WebdamLog
//! stage, ad-hoc queries and aggregates run on) are what production runs.
//! The `Subst` interpreter ([`evaluate_body`]) is the semantic reference:
//! [`EvalConfig::with_compiled`]`(false)` selects it here, and `wdl-core`'s
//! reference stage interpreter (`Peer::set_compiled_stage(false)`) calls
//! the exported [`evaluate_body`].

mod diff;
mod naive;
mod plan;
mod seminaive;
mod stratify;

pub use plan::{BodyPlan, BodyScratch};
pub use stratify::{negative_cycle, NegativeCycle};

pub(crate) use diff::{match_body_at_slot, DiffSide, NetChange};
pub(crate) use naive::naive_fixpoint;
pub(crate) use plan::{derive_plan, has_witness, run_plan, DiffCtx, FixCtx, RulePlan, Scratch};
pub(crate) use seminaive::{seminaive_fixpoint, seminaive_fixpoint_compiled};
pub(crate) use stratify::{stratify, Strata};

use crate::{Atom, BodyItem, Database, DatalogError, Result, Subst, Symbol, Term};

/// Evaluation knobs, threaded from [`crate::Program`] down to the fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalConfig {
    /// Whether rules run as compiled register-file plans over interned ids
    /// (`true`, the default) or through the symbol-keyed substitution
    /// interpreter (`false`). Both compute identical relation sets and
    /// [`crate::EvalStats`]; the interpreter is retained as the semantic
    /// reference (property-tested against the compiled path) and as the
    /// baseline the `e12_interned` bench measures against.
    pub compiled: bool,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig { compiled: true }
    }
}

impl EvalConfig {
    /// Selects compiled-plan (default) or interpreted evaluation.
    pub fn with_compiled(mut self, compiled: bool) -> EvalConfig {
        self.compiled = compiled;
        self
    }
}

/// A rule paired with its compiled plan — what the compiled fixpoint
/// consumes (it runs the plan, and reads the rule for delta-task
/// discovery).
#[derive(Clone, Copy)]
pub(crate) struct PlannedRule<'a> {
    pub(crate) rule: &'a crate::Rule,
    pub(crate) plan: &'a RulePlan,
}

/// Evaluates a body-item sequence left to right against `db`, starting from
/// `initial`, and returns every substitution that satisfies the whole
/// sequence.
///
/// This is the engine's single join algorithm: an index-assisted nested-loop
/// join that threads bindings left to right, which is exactly the evaluation
/// order the WebdamLog paper prescribes ("Rule bodies in WebdamLog are
/// evaluated from left to right. The order matters", §2).
pub fn evaluate_body(db: &Database, body: &[BodyItem], initial: Subst) -> Result<Vec<Subst>> {
    let mut out = Vec::new();
    match_body(db, None, body, initial, &mut |s| {
        out.push(s);
        Ok(())
    })?;
    Ok(out)
}

/// Like [`evaluate_body`] but restricting one positive-literal occurrence to
/// a delta database (seminaive rewriting). `delta` is `(delta_db, ordinal)`
/// where `ordinal` counts positive literals from the left, 0-based: that
/// occurrence matches against `delta_db`, all others against `db`.
pub(crate) fn match_body(
    db: &Database,
    delta: Option<(&Database, usize)>,
    body: &[BodyItem],
    initial: Subst,
    emit: &mut dyn FnMut(Subst) -> Result<()>,
) -> Result<()> {
    match_items(db, delta, body, 0, 0, initial, emit)
}

fn match_items(
    db: &Database,
    delta: Option<(&Database, usize)>,
    body: &[BodyItem],
    idx: usize,
    pos_ordinal: usize,
    subst: Subst,
    emit: &mut dyn FnMut(Subst) -> Result<()>,
) -> Result<()> {
    let Some(item) = body.get(idx) else {
        return emit(subst);
    };
    match item {
        BodyItem::Literal(l) if !l.negated => {
            let source = match delta {
                Some((delta_db, ordinal)) if ordinal == pos_ordinal => delta_db,
                _ => db,
            };
            let matches = match_atom(source, &l.atom, &subst)?;
            for s in matches {
                match_items(db, delta, body, idx + 1, pos_ordinal + 1, s, emit)?;
            }
            Ok(())
        }
        BodyItem::Literal(l) => {
            // Negation always reads the full database: stratification
            // guarantees the negated relation is complete by the time this
            // stratum runs, and safety guarantees the atom is ground here.
            let fact = l.atom.ground(&subst).ok_or_else(|| {
                DatalogError::UnboundVariable(format!(
                    "negated atom {} reached with unbound variables",
                    l.atom
                ))
            })?;
            if db.contains(&fact) {
                Ok(())
            } else {
                match_items(db, delta, body, idx + 1, pos_ordinal, subst, emit)
            }
        }
        BodyItem::Cmp { op, lhs, rhs } => {
            let l = resolve(lhs, &subst)?;
            let r = resolve(rhs, &subst)?;
            if op.eval(&l, &r)? {
                match_items(db, delta, body, idx + 1, pos_ordinal, subst, emit)
            } else {
                Ok(())
            }
        }
        BodyItem::Assign { var, expr } => {
            let value = expr.eval(&subst)?;
            let mut s = subst;
            if !s.unify_var(*var, &value) {
                // Pre-bound to a different value: treated as a failed filter
                // (can only happen for rules built programmatically without a
                // safety check).
                return Ok(());
            }
            match_items(db, delta, body, idx + 1, pos_ordinal, s, emit)
        }
    }
}

fn resolve(term: &Term, subst: &Subst) -> Result<crate::Value> {
    term.resolve(subst).ok_or_else(|| {
        DatalogError::UnboundVariable(format!("{term} in comparison reached unbound"))
    })
}

/// Matches a single positive atom against the database under `subst`,
/// returning one extended substitution per matching tuple.
pub(crate) fn match_atom(db: &Database, atom: &Atom, subst: &Subst) -> Result<Vec<Subst>> {
    let Some(rel) = db.relation(atom.pred) else {
        return Ok(Vec::new());
    };
    if rel.arity() != atom.arity() {
        return Err(DatalogError::ArityMismatch {
            relation: atom.pred.to_string(),
            expected: rel.arity(),
            found: atom.arity(),
        });
    }
    // Build the index probe from bound positions. A bound value the
    // interner has never seen cannot occur in any stored tuple.
    let mut mask: crate::storage::ColMask = 0;
    let mut key = Vec::new();
    for (i, t) in atom.args.iter().enumerate() {
        let bound = match t {
            Term::Const(v) => Some(v),
            Term::Var(v) => subst.get(*v),
        };
        if let Some(v) = bound {
            match crate::intern::ValueId::lookup(v) {
                Some(id) => {
                    mask |= 1u64 << i;
                    key.push(id);
                }
                None => return Ok(Vec::new()),
            }
        }
    }
    let mut out = Vec::new();
    rel.for_each_match_ids(mask, &key, |row| {
        // Bound columns (mask bits) were verified by the probe; only the
        // unbound variable columns extend the substitution. Resolve the
        // row once and unify — repeated fresh variables in the atom are
        // checked by `unify_var`.
        let mut s = subst.clone();
        for (i, t) in atom.args.iter().enumerate() {
            if mask & (1u64 << i) != 0 {
                continue;
            }
            let Term::Var(v) = t else {
                continue;
            };
            if !s.unify_var_id(*v, row[i]) {
                return true;
            }
        }
        out.push(s);
        true
    });
    Ok(out)
}

/// The set of variables bound after evaluating `prefix` starting from
/// `already_bound` — used by both the safety check and the WebdamLog
/// delegation splitter.
pub fn bound_after(prefix: &[BodyItem], already_bound: &[Symbol]) -> Vec<Symbol> {
    let mut bound = already_bound.to_vec();
    for item in prefix {
        match item {
            BodyItem::Literal(l) if !l.negated => {
                for t in &l.atom.args {
                    if let Term::Var(v) = t {
                        if !bound.contains(v) {
                            bound.push(*v);
                        }
                    }
                }
            }
            BodyItem::Assign { var, .. } if !bound.contains(var) => {
                bound.push(*var);
            }
            _ => {}
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Fact, Value};

    fn db_with(facts: &[(&str, &[i64])]) -> Database {
        let mut db = Database::new();
        for (pred, vals) in facts {
            db.insert(Fact::new(*pred, vals.iter().map(|&v| Value::from(v))))
                .unwrap();
        }
        db
    }

    fn atom(pred: &str, vars: &[&str]) -> Atom {
        Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
    }

    #[test]
    fn single_atom_match() {
        let db = db_with(&[("e", &[1, 2]), ("e", &[2, 3])]);
        let out = evaluate_body(&db, &[atom("e", &["x", "y"]).into()], Subst::new()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_threads_bindings() {
        let db = db_with(&[("e", &[1, 2]), ("e", &[2, 3]), ("e", &[3, 4])]);
        // e(x,y), e(y,z)
        let body = vec![atom("e", &["x", "y"]).into(), atom("e", &["y", "z"]).into()];
        let out = evaluate_body(&db, &body, Subst::new()).unwrap();
        assert_eq!(out.len(), 2); // (1,2,3) and (2,3,4)
        for s in &out {
            let y = s.get(Symbol::intern("y")).unwrap().as_int().unwrap();
            assert!(y == 2 || y == 3);
        }
    }

    #[test]
    fn repeated_variable_in_atom_forces_equality() {
        let db = db_with(&[("e", &[1, 1]), ("e", &[1, 2])]);
        let out = evaluate_body(&db, &[atom("e", &["x", "x"]).into()], Subst::new()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(Symbol::intern("x")), Some(&Value::from(1)));
    }

    #[test]
    fn constants_filter() {
        let db = db_with(&[("e", &[1, 2]), ("e", &[2, 3])]);
        let a = Atom::new("e", vec![Term::cst(2), Term::var("y")]);
        let out = evaluate_body(&db, &[a.into()], Subst::new()).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn negation_filters_bound_tuples() {
        let db = db_with(&[("p", &[1]), ("p", &[2]), ("q", &[2])]);
        let body = vec![
            atom("p", &["x"]).into(),
            BodyItem::not_atom(atom("q", &["x"])),
        ];
        let out = evaluate_body(&db, &body, Subst::new()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(Symbol::intern("x")), Some(&Value::from(1)));
    }

    #[test]
    fn negation_on_missing_relation_succeeds() {
        let db = db_with(&[("p", &[1])]);
        let body = vec![
            atom("p", &["x"]).into(),
            BodyItem::not_atom(atom("absent", &["x"])),
        ];
        let out = evaluate_body(&db, &body, Subst::new()).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn comparison_and_assignment() {
        let db = db_with(&[("n", &[3]), ("n", &[7])]);
        let body = vec![
            atom("n", &["x"]).into(),
            BodyItem::cmp(CmpOp::Gt, Term::var("x"), Term::cst(5)),
            BodyItem::assign(
                "y",
                crate::Expr::bin(
                    crate::BinOp::Mul,
                    crate::Expr::term(Term::var("x")),
                    crate::Expr::term(Term::cst(2)),
                ),
            ),
        ];
        let out = evaluate_body(&db, &body, Subst::new()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(Symbol::intern("y")), Some(&Value::from(14)));
    }

    #[test]
    fn initial_bindings_are_respected() {
        let db = db_with(&[("e", &[1, 2]), ("e", &[2, 3])]);
        let init: Subst = [(Symbol::intern("x"), Value::from(2))]
            .into_iter()
            .collect();
        let out = evaluate_body(&db, &[atom("e", &["x", "y"]).into()], init).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(Symbol::intern("y")), Some(&Value::from(3)));
    }

    #[test]
    fn empty_body_yields_initial() {
        let db = Database::new();
        let out = evaluate_body(&db, &[], Subst::new()).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn arity_mismatch_detected_at_match() {
        let db = db_with(&[("e", &[1, 2])]);
        let res = evaluate_body(&db, &[atom("e", &["x"]).into()], Subst::new());
        assert!(matches!(res, Err(DatalogError::ArityMismatch { .. })));
    }

    #[test]
    fn missing_relation_yields_no_matches() {
        let db = Database::new();
        let out = evaluate_body(&db, &[atom("ghost", &["x"]).into()], Subst::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn bound_after_tracks_positive_atoms_and_assignments() {
        let body = vec![
            atom("e", &["x", "y"]).into(),
            BodyItem::not_atom(atom("q", &["x"])),
            BodyItem::assign("z", crate::Expr::term(Term::var("x"))),
        ];
        let bound = bound_after(&body, &[Symbol::intern("w")]);
        let names: Vec<&str> = bound.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["w", "x", "y", "z"]);
    }
}
