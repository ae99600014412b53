//! Grouped aggregation over relations and rule bodies.
//!
//! Classical datalog has no aggregates; the Wepic application needs them
//! ("select and *rank* photos based on their annotations", §3.5). This
//! module provides one-shot grouped aggregation — evaluated *after* the
//! fixpoint, never inside recursion, which keeps the semantics simple and
//! monotone-safe (the same restriction Bloom/Bud imposes on non-monotone
//! operations).

use crate::eval::{BodyPlan, BodyScratch};
use crate::{BodyItem, Database, DatalogError, Result, Symbol, Value};
use std::collections::HashMap;

/// An aggregate function over the bound values of one variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Number of matching substitutions (duplicates across group keys are
    /// *not* collapsed — a substitution is a derivation).
    Count,
    /// Sum of an integer variable.
    Sum,
    /// Minimum value (any totally ordered type).
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean of an integer variable, rounded toward zero.
    Avg,
}

/// A grouped aggregation query: evaluate `body`, group the resulting
/// substitutions by `group_by`, and fold `func` over `over` in each group.
///
/// ```
/// use wdl_datalog::{aggregate::*, Atom, Database, Term, Value, Symbol};
///
/// let mut db = Database::new();
/// for (pic, rating) in [(1, 5), (1, 3), (2, 4)] {
///     db.insert_values("rate", vec![Value::from(pic), Value::from(rating)]).unwrap();
/// }
/// // avg rating per picture: rate($pic, $r) GROUP BY $pic AGG avg($r)
/// let q = AggQuery {
///     body: vec![Atom::new("rate", vec![Term::var("pic"), Term::var("r")]).into()],
///     group_by: vec![Symbol::intern("pic")],
///     func: AggFunc::Avg,
///     over: Some(Symbol::intern("r")),
/// };
/// let rows = q.eval(&db).unwrap();
/// assert_eq!(rows.len(), 2);
/// let pic1 = rows.iter().find(|r| r.key[0] == Value::from(1)).unwrap();
/// assert_eq!(pic1.value, Value::from(4)); // (5+3)/2
/// ```
#[derive(Clone, Debug)]
pub struct AggQuery {
    /// Body items, evaluated left to right (same matcher as rules).
    pub body: Vec<BodyItem>,
    /// Grouping variables (may be empty: one global group).
    pub group_by: Vec<Symbol>,
    /// The fold.
    pub func: AggFunc,
    /// The aggregated variable. `None` is only legal for `Count`.
    pub over: Option<Symbol>,
}

/// One output row of an aggregation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggRow {
    /// Values of the `group_by` variables, in declaration order.
    pub key: Vec<Value>,
    /// The aggregate value.
    pub value: Value,
}

impl AggQuery {
    /// Runs the aggregation against `db`. The body runs as a compiled
    /// register-file plan ([`BodyPlan`]); a body the plan compiler rejects,
    /// or a `group_by`/`over` variable the body does not bind, is an error
    /// whatever `db` holds.
    pub fn eval(&self, db: &Database) -> Result<Vec<AggRow>> {
        if self.over.is_none() && self.func != AggFunc::Count {
            return Err(DatalogError::UnboundVariable(
                "aggregate over() variable required for non-count aggregates".into(),
            ));
        }
        let plan = BodyPlan::compile(&self.body, &[])?;
        let reg = |v: Symbol, what: &str| {
            plan.register_of(v).ok_or_else(|| {
                DatalogError::UnboundVariable(format!("{what} ${v} unbound by body"))
            })
        };
        let keys = self
            .group_by
            .iter()
            .map(|&v| reg(v, "group-by variable"))
            .collect::<Result<Vec<u16>>>()?;
        let over = self
            .over
            .map(|v| reg(v, "aggregate variable"))
            .transpose()?;
        let mut groups: HashMap<Vec<Value>, Vec<Option<Value>>> = HashMap::new();
        plan.run(db, &mut BodyScratch::new(), &[], &mut |regs| {
            let key = keys.iter().map(|&r| regs[r as usize].value()).collect();
            let sample = over.map(|r| regs[r as usize].value());
            groups.entry(key).or_default().push(sample);
            Ok(())
        })?;
        let mut rows = Vec::with_capacity(groups.len());
        for (key, samples) in groups {
            rows.push(AggRow {
                key,
                value: fold(self.func, &samples)?,
            });
        }
        // Deterministic output order: sort by key.
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(rows)
    }
}

fn fold(func: AggFunc, samples: &[Option<Value>]) -> Result<Value> {
    match func {
        AggFunc::Count => Ok(Value::Int(samples.len() as i64)),
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<&Value> = None;
            for s in samples {
                let v = s.as_ref().expect("checked in eval");
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take = if func == AggFunc::Min { v < b } else { v > b };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.cloned()
                .ok_or_else(|| DatalogError::Arithmetic("min/max of empty group".into()))
        }
        AggFunc::Sum | AggFunc::Avg => {
            let mut total: i64 = 0;
            let mut n: i64 = 0;
            for s in samples {
                let v = s.as_ref().expect("checked in eval");
                let i = v.as_int().ok_or_else(|| {
                    DatalogError::TypeError(format!("sum/avg needs ints, found {}", v.type_name()))
                })?;
                total = total
                    .checked_add(i)
                    .ok_or_else(|| DatalogError::Arithmetic("sum overflow".into()))?;
                n += 1;
            }
            if func == AggFunc::Sum {
                Ok(Value::Int(total))
            } else if n == 0 {
                Err(DatalogError::Arithmetic("avg of empty group".into()))
            } else {
                Ok(Value::Int(total / n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, CmpOp, Term};

    fn rating_db() -> Database {
        let mut db = Database::new();
        for (pic, rater, r) in [
            (1, "a", 5),
            (1, "b", 4),
            (2, "a", 3),
            (2, "b", 3),
            (2, "c", 5),
            (3, "a", 1),
        ] {
            db.insert_values(
                "rated",
                vec![Value::from(pic), Value::from(rater), Value::from(r)],
            )
            .unwrap();
        }
        db
    }

    fn body() -> Vec<BodyItem> {
        vec![Atom::new(
            "rated",
            vec![Term::var("pic"), Term::var("who"), Term::var("r")],
        )
        .into()]
    }

    #[test]
    fn count_per_group() {
        let q = AggQuery {
            body: body(),
            group_by: vec![Symbol::intern("pic")],
            func: AggFunc::Count,
            over: None,
        };
        let rows = q.eval(&rating_db()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            AggRow {
                key: vec![Value::from(1)],
                value: Value::from(2)
            }
        );
        assert_eq!(rows[1].value, Value::from(3));
        assert_eq!(rows[2].value, Value::from(1));
    }

    #[test]
    fn sum_min_max_avg() {
        let mk = |func| AggQuery {
            body: body(),
            group_by: vec![Symbol::intern("pic")],
            func,
            over: Some(Symbol::intern("r")),
        };
        let db = rating_db();
        let sums = mk(AggFunc::Sum).eval(&db).unwrap();
        assert_eq!(sums[1].value, Value::from(11)); // pic 2: 3+3+5
        let mins = mk(AggFunc::Min).eval(&db).unwrap();
        assert_eq!(mins[1].value, Value::from(3));
        let maxs = mk(AggFunc::Max).eval(&db).unwrap();
        assert_eq!(maxs[1].value, Value::from(5));
        let avgs = mk(AggFunc::Avg).eval(&db).unwrap();
        assert_eq!(avgs[0].value, Value::from(4)); // pic 1: (5+4)/2
    }

    #[test]
    fn global_group() {
        let q = AggQuery {
            body: body(),
            group_by: vec![],
            func: AggFunc::Count,
            over: None,
        };
        let rows = q.eval(&rating_db()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, Value::from(6));
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let q = AggQuery {
            body: body(),
            group_by: vec![Symbol::intern("pic")],
            func: AggFunc::Count,
            over: None,
        };
        let rows = q.eval(&Database::new()).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn filtered_aggregation() {
        // count of ratings >= 4 per picture
        let mut b = body();
        b.push(BodyItem::cmp(CmpOp::Ge, Term::var("r"), Term::cst(4)));
        let q = AggQuery {
            body: b,
            group_by: vec![Symbol::intern("pic")],
            func: AggFunc::Count,
            over: None,
        };
        let rows = q.eval(&rating_db()).unwrap();
        // pic 1: 2 ratings >= 4; pic 2: 1; pic 3: none (no group).
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].value, Value::from(2));
        assert_eq!(rows[1].value, Value::from(1));
    }

    #[test]
    fn non_count_requires_over() {
        let q = AggQuery {
            body: body(),
            group_by: vec![],
            func: AggFunc::Sum,
            over: None,
        };
        assert!(q.eval(&rating_db()).is_err());
    }

    /// Malformed queries fail on any database, empty ones included: a
    /// group-by variable the body does not bind, and a body the plan
    /// compiler rejects.
    #[test]
    fn malformed_queries_fail_without_rows() {
        let unbound_key = AggQuery {
            body: body(),
            group_by: vec![Symbol::intern("nowhere")],
            func: AggFunc::Count,
            over: None,
        };
        let mut cmp_first = body();
        cmp_first.insert(0, BodyItem::cmp(CmpOp::Ge, Term::var("r"), Term::cst(4)));
        let uncompilable = AggQuery {
            body: cmp_first,
            group_by: vec![],
            func: AggFunc::Count,
            over: None,
        };
        for q in [unbound_key, uncompilable] {
            assert!(matches!(
                q.eval(&Database::new()),
                Err(DatalogError::UnboundVariable(_))
            ));
        }
    }

    #[test]
    fn sum_of_strings_is_type_error() {
        let q = AggQuery {
            body: body(),
            group_by: vec![],
            func: AggFunc::Sum,
            over: Some(Symbol::intern("who")),
        };
        assert!(matches!(
            q.eval(&rating_db()),
            Err(DatalogError::TypeError(_))
        ));
    }

    #[test]
    fn min_max_on_strings_work() {
        let q = AggQuery {
            body: body(),
            group_by: vec![],
            func: AggFunc::Max,
            over: Some(Symbol::intern("who")),
        };
        assert_eq!(q.eval(&rating_db()).unwrap()[0].value, Value::from("c"));
    }
}
