//! Builtin expressions: comparisons and arithmetic over bound terms.
//!
//! WebdamLog rule bodies are evaluated left to right (paper §2), so builtins
//! may assume every variable they mention was bound by an earlier atom; the
//! safety check in [`crate::Rule::check_safety`] enforces this.

use crate::{DatalogError, Result, Subst, Term, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operators usable in rule bodies, e.g. `rate@$owner($id, $r), $r >= 4`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on two values.
    ///
    /// Ordering comparisons require both sides to have the same runtime type;
    /// equality is defined across types (and is false across types).
    pub fn eval(self, lhs: &Value, rhs: &Value) -> Result<bool> {
        match self {
            CmpOp::Eq => Ok(lhs == rhs),
            CmpOp::Ne => Ok(lhs != rhs),
            _ => {
                if std::mem::discriminant(lhs) != std::mem::discriminant(rhs) {
                    return Err(DatalogError::TypeError(format!(
                        "cannot order {} against {}",
                        lhs.type_name(),
                        rhs.type_name()
                    )));
                }
                Ok(match self {
                    CmpOp::Lt => lhs < rhs,
                    CmpOp::Le => lhs <= rhs,
                    CmpOp::Gt => lhs > rhs,
                    CmpOp::Ge => lhs >= rhs,
                    CmpOp::Eq | CmpOp::Ne => unreachable!(),
                })
            }
        }
    }

    /// The surface-syntax token.
    pub fn token(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Binary arithmetic / string operators for assignment expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (errors on division by zero).
    Div,
    /// Integer remainder (errors on division by zero).
    Mod,
    /// String concatenation.
    Concat,
}

impl BinOp {
    /// The surface-syntax token.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Concat => "++",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The deepest an [`Expr`] may nest: a chain of at most this many binary
/// operators from the root to any leaf. Rule validation, the parser and the
/// wire/disk decoder all enforce it, so every expression a peer admits can
/// be written to its image and read back, and none of the recursive walks
/// over an expression can exhaust the stack.
pub const MAX_EXPR_DEPTH: usize = 512;

/// An expression tree over terms, used on the right-hand side of an
/// assignment builtin (`$x := $y + 1`).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// A leaf term (variable or constant).
    Term(Term),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A leaf expression.
    pub fn term(t: impl Into<Term>) -> Expr {
        Expr::Term(t.into())
    }

    /// A binary expression.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Evaluates under `subst`; all mentioned variables must be bound.
    pub fn eval(&self, subst: &Subst) -> Result<Value> {
        self.eval_with(&|v| subst.get(v).cloned())
    }

    /// Evaluates against an arbitrary variable lookup — the compiled
    /// register-file evaluator resolves variables from numbered slots
    /// instead of a symbol-keyed substitution.
    pub fn eval_with(&self, lookup: &dyn Fn(crate::Symbol) -> Option<Value>) -> Result<Value> {
        match self {
            Expr::Term(t) => match t {
                Term::Const(c) => Ok(c.clone()),
                Term::Var(v) => lookup(*v).ok_or_else(|| {
                    DatalogError::UnboundVariable(format!("{t} in arithmetic expression"))
                }),
            },
            Expr::Bin(op, lhs, rhs) => {
                let l = lhs.eval_with(lookup)?;
                let r = rhs.eval_with(lookup)?;
                apply_binop(*op, &l, &r)
            }
        }
    }

    /// True when the tree nests deeper than [`MAX_EXPR_DEPTH`]. The walk
    /// stops descending at the bound, so it is stack-safe on any tree.
    pub fn too_deep(&self) -> bool {
        fn deeper(e: &Expr, budget: usize) -> bool {
            matches!(e, Expr::Bin(_, l, r)
                if budget == 0 || deeper(l, budget - 1) || deeper(r, budget - 1))
        }
        deeper(self, MAX_EXPR_DEPTH)
    }

    /// Collects the variables mentioned by the expression into `out`.
    pub fn variables(&self, out: &mut Vec<crate::Symbol>) {
        match self {
            Expr::Term(Term::Var(v)) => out.push(*v),
            Expr::Term(Term::Const(_)) => {}
            Expr::Bin(_, l, r) => {
                l.variables(out);
                r.variables(out);
            }
        }
    }
}

fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::Concat => match (l, r) {
            (Value::Str(a), Value::Str(b)) => {
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(a);
                s.push_str(b);
                Ok(Value::from(s))
            }
            _ => Err(DatalogError::TypeError(format!(
                "++ expects strings, got {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        },
        _ => {
            let (a, b) = match (l.as_int(), r.as_int()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(DatalogError::TypeError(format!(
                        "{op} expects ints, got {} and {}",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            };
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(DatalogError::Arithmetic("division by zero".into()));
                    }
                    a.checked_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(DatalogError::Arithmetic("modulo by zero".into()));
                    }
                    a.checked_rem(b)
                }
                BinOp::Concat => unreachable!(),
            };
            out.map(Value::Int)
                .ok_or_else(|| DatalogError::Arithmetic("integer overflow".into()))
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t}"),
            Expr::Bin(op, l, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Symbol;

    fn subst(pairs: &[(&str, Value)]) -> Subst {
        pairs
            .iter()
            .map(|(n, v)| (Symbol::intern(n), v.clone()))
            .collect()
    }

    #[test]
    fn comparisons_on_ints() {
        assert!(CmpOp::Lt.eval(&Value::from(1), &Value::from(2)).unwrap());
        assert!(!CmpOp::Gt.eval(&Value::from(1), &Value::from(2)).unwrap());
        assert!(CmpOp::Ge.eval(&Value::from(2), &Value::from(2)).unwrap());
    }

    #[test]
    fn equality_across_types_is_false_not_error() {
        assert!(!CmpOp::Eq.eval(&Value::from(1), &Value::from("1")).unwrap());
        assert!(CmpOp::Ne.eval(&Value::from(1), &Value::from("1")).unwrap());
    }

    #[test]
    fn ordering_across_types_errors() {
        assert!(CmpOp::Lt.eval(&Value::from(1), &Value::from("a")).is_err());
    }

    #[test]
    fn arithmetic_evaluates() {
        let s = subst(&[("x", Value::from(10)), ("y", Value::from(3))]);
        let e = Expr::bin(
            BinOp::Add,
            Expr::term(Term::var("x")),
            Expr::bin(
                BinOp::Mul,
                Expr::term(Term::var("y")),
                Expr::term(Term::cst(2)),
            ),
        );
        assert_eq!(e.eval(&s).unwrap(), Value::from(16));
    }

    #[test]
    fn division_by_zero_errors() {
        let s = subst(&[]);
        let e = Expr::bin(
            BinOp::Div,
            Expr::term(Term::cst(1)),
            Expr::term(Term::cst(0)),
        );
        assert!(matches!(e.eval(&s), Err(DatalogError::Arithmetic(_))));
        let e = Expr::bin(
            BinOp::Mod,
            Expr::term(Term::cst(1)),
            Expr::term(Term::cst(0)),
        );
        assert!(e.eval(&s).is_err());
    }

    #[test]
    fn overflow_errors_rather_than_wrapping() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::term(Term::cst(i64::MAX)),
            Expr::term(Term::cst(1)),
        );
        assert!(e.eval(&Subst::new()).is_err());
    }

    #[test]
    fn concat_strings() {
        let e = Expr::bin(
            BinOp::Concat,
            Expr::term(Term::cst("sea")),
            Expr::term(Term::cst(".jpg")),
        );
        assert_eq!(e.eval(&Subst::new()).unwrap(), Value::from("sea.jpg"));
    }

    #[test]
    fn unbound_variable_errors() {
        let e = Expr::term(Term::var("missing-var"));
        assert!(matches!(
            e.eval(&Subst::new()),
            Err(DatalogError::UnboundVariable(_))
        ));
    }

    #[test]
    fn variables_are_collected() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::term(Term::var("a")),
            Expr::term(Term::var("b")),
        );
        let mut vs = Vec::new();
        e.variables(&mut vs);
        assert_eq!(vs, vec![Symbol::intern("a"), Symbol::intern("b")]);
    }

    #[test]
    fn depth_bound_counts_operators_on_the_longest_path() {
        let chain = |ops: usize| {
            (0..ops).fold(Expr::term(Term::cst(1)), |e, _| {
                Expr::bin(BinOp::Add, Expr::term(Term::cst(1)), e)
            })
        };
        assert!(!Expr::term(Term::cst(1)).too_deep());
        assert!(!chain(MAX_EXPR_DEPTH).too_deep());
        assert!(chain(MAX_EXPR_DEPTH + 1).too_deep());
    }
}
