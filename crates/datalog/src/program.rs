//! Programs: validated rule sets with stratified fixpoint evaluation.

use crate::eval::{
    naive_fixpoint, naive_fixpoint_compiled, seminaive_fixpoint, seminaive_fixpoint_compiled,
    stratify, EvalConfig, PlannedRule, RulePlan, Strata,
};
use crate::{Database, Result, Rule};

/// Which bottom-up strategy [`Program::eval`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvalStrategy {
    /// Re-derive everything each round (baseline for the E6 ablation).
    Naive,
    /// Delta-driven evaluation (default; mirrors Bud).
    #[default]
    Seminaive,
}

/// Counters reported by an evaluation, used by the bench harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds executed (across strata).
    pub iterations: usize,
    /// Successful body matches (head instantiations attempted).
    pub derivations: usize,
    /// Facts that were actually new.
    pub facts_derived: usize,
}

/// A validated datalog program: safety-checked rules plus their strata and
/// compiled execution plans.
///
/// Every rule is compiled **once**, at construction: a fixpoint plan (the
/// register-file program the bottom-up strategies run), one differential
/// plan per body literal (the incremental engine's finite differencing),
/// and a rederivation plan (DRed's single-witness probe). See
/// `eval::plan` for the compilation scheme.
#[derive(Debug, Clone)]
pub struct Program {
    rules: Vec<Rule>,
    strata: Strata,
    iteration_limit: usize,
    eval_config: EvalConfig,
    plans: Vec<RulePlan>,
    /// Per rule, per literal slot (positive and negated literals counted
    /// left to right).
    diff_plans: Vec<Vec<RulePlan>>,
    rederive_plans: Vec<RulePlan>,
}

/// The empty program: no rules, so it derives nothing.
impl Default for Program {
    fn default() -> Program {
        Program {
            rules: Vec::new(),
            strata: Strata::default(),
            iteration_limit: 1_000_000,
            eval_config: EvalConfig::default(),
            plans: Vec::new(),
            diff_plans: Vec::new(),
            rederive_plans: Vec::new(),
        }
    }
}

impl Program {
    /// Validates rules (left-to-right safety, stratifiability), compiles
    /// their execution plans and builds a program.
    pub fn new(rules: Vec<Rule>) -> Result<Program> {
        for rule in &rules {
            rule.check_safety()?;
        }
        let strata = stratify(&rules)?;
        let plans = rules
            .iter()
            .map(RulePlan::compile)
            .collect::<Result<Vec<_>>>()?;
        let mut diff_plans = Vec::with_capacity(rules.len());
        for rule in &rules {
            let mut per_slot = Vec::new();
            let mut slot = 0usize;
            while let Some(plan) = RulePlan::compile_diff(rule, slot)? {
                per_slot.push(plan);
                slot += 1;
            }
            diff_plans.push(per_slot);
        }
        let rederive_plans = rules
            .iter()
            .map(RulePlan::compile_rederive)
            .collect::<Result<Vec<_>>>()?;
        Ok(Program {
            rules,
            strata,
            plans,
            diff_plans,
            rederive_plans,
            ..Program::default()
        })
    }

    /// Overrides the fixpoint iteration safety valve (default 1,000,000).
    pub fn with_iteration_limit(mut self, limit: usize) -> Program {
        self.iteration_limit = limit;
        self
    }

    /// Replaces the whole evaluation config.
    pub fn with_eval_config(mut self, config: EvalConfig) -> Program {
        self.eval_config = config;
        self
    }

    /// The rules, in the order given to [`Program::new`].
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of strata.
    pub fn stratum_count(&self) -> usize {
        self.strata.len()
    }

    /// The stratification (rule indices per stratum, predicate strata).
    pub(crate) fn strata(&self) -> &Strata {
        &self.strata
    }

    /// The fixpoint iteration safety valve.
    pub(crate) fn iteration_limit(&self) -> usize {
        self.iteration_limit
    }

    /// The evaluation config (compiled/interpreted).
    pub(crate) fn eval_config(&self) -> EvalConfig {
        self.eval_config
    }

    /// The compiled fixpoint plan of rule `ri`.
    pub(crate) fn plan(&self, ri: usize) -> &RulePlan {
        &self.plans[ri]
    }

    /// The differential plan of rule `ri` pinned at literal `slot`.
    pub(crate) fn diff_plan(&self, ri: usize, slot: usize) -> &RulePlan {
        &self.diff_plans[ri][slot]
    }

    /// The rederivation (head-bound) plan of rule `ri`.
    pub(crate) fn rederive_plan(&self, ri: usize) -> &RulePlan {
        &self.rederive_plans[ri]
    }

    /// Evaluates with the default (seminaive) strategy. Returns a database
    /// containing the input facts plus everything derivable.
    pub fn eval(&self, db: &Database) -> Result<Database> {
        self.eval_with(db, EvalStrategy::Seminaive).map(|(d, _)| d)
    }

    /// Evaluates with an explicit strategy, returning the saturated database
    /// and evaluation statistics.
    pub fn eval_with(
        &self,
        db: &Database,
        strategy: EvalStrategy,
    ) -> Result<(Database, EvalStats)> {
        let mut work = db.clone();
        let mut stats = EvalStats::default();
        self.eval_in_place(&mut work, strategy, &mut stats)?;
        Ok((work, stats))
    }

    /// Evaluates directly into `db` (used by the WebdamLog stage loop, which
    /// owns its working database and wants no extra clone).
    pub fn eval_in_place(
        &self,
        db: &mut Database,
        strategy: EvalStrategy,
        stats: &mut EvalStats,
    ) -> Result<()> {
        self.eval_in_place_profiled(db, strategy, stats, None)
    }

    /// [`Program::eval_in_place`] with optional per-rule cost capture.
    /// On the compiled seminaive path every plan invocation is
    /// timed into `profile` (keyed by head predicate); the other
    /// strategies ignore the profile rather than guess — they are
    /// reference/ablation paths, not production ones.
    pub fn eval_in_place_profiled(
        &self,
        db: &mut Database,
        strategy: EvalStrategy,
        stats: &mut EvalStats,
        mut profile: Option<&mut crate::profile::RuleProfile>,
    ) -> Result<()> {
        for (stratum_idx, rule_ids) in self.strata.rule_strata.iter().enumerate() {
            if rule_ids.is_empty() {
                continue;
            }
            let planned: Vec<PlannedRule<'_>> = rule_ids
                .iter()
                .map(|&i| PlannedRule {
                    rule: &self.rules[i],
                    plan: &self.plans[i],
                })
                .collect();
            let compiled = self.eval_config.compiled;
            match strategy {
                EvalStrategy::Naive => {
                    if compiled {
                        naive_fixpoint_compiled(db, &planned, stats, self.iteration_limit)?;
                    } else {
                        let rules: Vec<&Rule> = planned.iter().map(|pr| pr.rule).collect();
                        naive_fixpoint(db, &rules, stats, self.iteration_limit)?;
                    }
                }
                EvalStrategy::Seminaive => {
                    let idb = self.strata.preds_of(stratum_idx);
                    if compiled {
                        seminaive_fixpoint_compiled(
                            db,
                            &planned,
                            &idb,
                            stats,
                            self.iteration_limit,
                            profile.as_deref_mut(),
                        )?;
                    } else {
                        let rules: Vec<&Rule> = planned.iter().map(|pr| pr.rule).collect();
                        seminaive_fixpoint(db, &rules, &idb, stats, self.iteration_limit)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, BodyItem, CmpOp, Fact, Symbol, Term, Value};

    fn atom(pred: &str, vars: &[&str]) -> Atom {
        Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
    }

    fn tc_program() -> Program {
        Program::new(vec![
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
        ])
        .unwrap()
    }

    fn chain(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert(Fact::new("edge", vec![Value::from(i), Value::from(i + 1)]))
                .unwrap();
        }
        db
    }

    #[test]
    fn both_strategies_agree() {
        let p = tc_program();
        let db = chain(15);
        let (semi, _) = p.eval_with(&db, EvalStrategy::Seminaive).unwrap();
        let (naive, _) = p.eval_with(&db, EvalStrategy::Naive).unwrap();
        assert_eq!(
            semi.relation("path").unwrap(),
            naive.relation("path").unwrap()
        );
        assert_eq!(semi.relation("path").unwrap().len(), 15 * 16 / 2);
    }

    #[test]
    fn unsafe_rule_rejected_at_construction() {
        let r = Rule::new(atom("p", &["x", "y"]), vec![atom("q", &["x"]).into()]);
        assert!(Program::new(vec![r]).is_err());
    }

    #[test]
    fn unstratifiable_rejected_at_construction() {
        let r1 = Rule::new(
            atom("p", &["x"]),
            vec![
                atom("base", &["x"]).into(),
                BodyItem::not_atom(atom("q", &["x"])),
            ],
        );
        let r2 = Rule::new(
            atom("q", &["x"]),
            vec![
                atom("base", &["x"]).into(),
                BodyItem::not_atom(atom("p", &["x"])),
            ],
        );
        assert!(Program::new(vec![r1, r2]).is_err());
    }

    #[test]
    fn stratified_negation_end_to_end() {
        // winning positions in a simple game graph: win(x) :- move(x,y), not win(y)
        // is unstratifiable; use reach/unreach instead.
        let p = Program::new(vec![
            Rule::new(atom("reach", &["x"]), vec![atom("src", &["x"]).into()]),
            Rule::new(
                atom("reach", &["y"]),
                vec![
                    atom("reach", &["x"]).into(),
                    atom("edge", &["x", "y"]).into(),
                ],
            ),
            Rule::new(
                atom("unreach", &["x"]),
                vec![
                    atom("node", &["x"]).into(),
                    BodyItem::not_atom(atom("reach", &["x"])),
                ],
            ),
        ])
        .unwrap();
        assert_eq!(p.stratum_count(), 2);

        let mut db = Database::new();
        for n in 1..=5 {
            db.insert(Fact::new("node", vec![Value::from(n)])).unwrap();
        }
        db.insert(Fact::new("src", vec![Value::from(1)])).unwrap();
        db.insert(Fact::new("edge", vec![Value::from(1), Value::from(2)]))
            .unwrap();
        db.insert(Fact::new("edge", vec![Value::from(2), Value::from(3)]))
            .unwrap();

        let out = p.eval(&db).unwrap();
        assert_eq!(out.relation("reach").unwrap().len(), 3); // 1,2,3
        assert_eq!(out.relation("unreach").unwrap().len(), 2); // 4,5
    }

    #[test]
    fn comparisons_filter_derivations() {
        let p = Program::new(vec![Rule::new(
            atom("high", &["id"]),
            vec![
                atom("rate", &["id", "r"]).into(),
                BodyItem::cmp(CmpOp::Ge, Term::var("r"), Term::cst(4)),
            ],
        )])
        .unwrap();
        let mut db = Database::new();
        for (id, r) in [(1, 5), (2, 3), (3, 4)] {
            db.insert(Fact::new("rate", vec![Value::from(id), Value::from(r)]))
                .unwrap();
        }
        let out = p.eval(&db).unwrap();
        assert_eq!(out.relation("high").unwrap().len(), 2);
    }

    #[test]
    fn stats_reported() {
        let p = tc_program();
        let (_, stats) = p.eval_with(&chain(5), EvalStrategy::Seminaive).unwrap();
        assert!(stats.iterations > 0);
        assert_eq!(stats.facts_derived, 15);
        assert!(stats.derivations >= stats.facts_derived);
    }

    #[test]
    fn eval_does_not_mutate_input() {
        let p = tc_program();
        let db = chain(3);
        let _ = p.eval(&db).unwrap();
        assert!(db.relation("path").is_none());
        assert_eq!(db.fact_count(), 3);
    }

    #[test]
    fn empty_program_is_identity() {
        let p = Program::new(vec![]).unwrap();
        let db = chain(3);
        let out = p.eval(&db).unwrap();
        assert_eq!(out.fact_count(), 3);
    }

    #[test]
    fn iteration_limit_is_respected() {
        let p = Program::new(vec![Rule::new(
            Atom::new("n", vec![Term::var("y")]),
            vec![
                atom("n", &["x"]).into(),
                BodyItem::assign(
                    "y",
                    crate::Expr::bin(
                        crate::BinOp::Add,
                        crate::Expr::term(Term::var("x")),
                        crate::Expr::term(Term::cst(1)),
                    ),
                ),
            ],
        )])
        .unwrap()
        .with_iteration_limit(10);
        let mut db = Database::new();
        db.insert(Fact::new("n", vec![Value::from(0)])).unwrap();
        assert!(matches!(
            p.eval(&db),
            Err(crate::DatalogError::IterationLimit(10))
        ));
        let _ = Symbol::intern("n");
    }

    /// Regression (PR 4 review): nested probes of the *same* relation with
    /// different binding masks, where the inner probe's mask has no index
    /// built yet. The lazy index build for the inner mask must not
    /// interfere with the outer probe's in-flight iteration (the storage
    /// layer builds secondary indexes under a lock while an outer
    /// `for_each_match_ids` walk over another mask of the same relation is
    /// active).
    #[test]
    fn nested_same_relation_probe_with_fresh_index_mask() {
        let mut db = Database::new();
        db.insert(Fact::new("a", vec![Value::from(1), Value::from(2)]))
            .unwrap();
        for (x, y, w) in [(1, 2, 3), (4, 2, 3), (5, 2, 3)] {
            db.insert(Fact::new(
                "e",
                vec![Value::from(x), Value::from(y), Value::from(w)],
            ))
            .unwrap();
        }
        // q(z) :- a(x, y), e(x, y, w), e(z, y, w)
        // outer e probe: mask 0b011; inner e probe: mask 0b110 (fresh index).
        let rules = vec![Rule::new(
            atom("q", &["z"]),
            vec![
                atom("a", &["x", "y"]).into(),
                atom("e", &["x", "y", "w"]).into(),
                atom("e", &["z", "y", "w"]).into(),
            ],
        )];
        let program = Program::new(rules).unwrap();
        let out = program.eval(&db).unwrap();
        assert_eq!(out.relation("q").unwrap().len(), 3);
    }
}
