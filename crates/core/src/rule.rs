//! WebdamLog rules and the one definition of an admissible rule: the
//! distribution-aware safety check and the expression-depth bound.

use crate::{NameTerm, Result, WAtom, WBodyItem, WdlError};
use serde::{Deserialize, Serialize};
use std::fmt;
use wdl_datalog::{Symbol, Term};

/// A WebdamLog rule `$R@$P($U) :- $R1@$P1($U1), ..., $Rn@$Pn($Un)` (paper §2).
///
/// Body items are evaluated **left to right**. Relation and peer positions
/// may hold variables bound (to string values) by earlier body atoms.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WRule {
    /// Head atom.
    pub head: WAtom,
    /// Body items, in evaluation order.
    pub body: Vec<WBodyItem>,
}

/// One variable that makes a rule unsafe under left-to-right evaluation
/// (see [`WRule::safety_violations`]), with the body position of the item
/// it occurs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SafetyViolation {
    /// A relation or peer variable of a body atom is not bound to its left,
    /// so the atom (and any delegation it starts) has no concrete target.
    UnboundName(Symbol, usize),
    /// A variable read by a negated atom, a comparison or an assignment is
    /// not bound to its left.
    UnboundRead(Symbol, usize),
    /// An assignment binds a variable that is already bound.
    Rebinding(Symbol, usize),
    /// A head variable is not bound by the body.
    UnboundHead(Symbol),
}

impl SafetyViolation {
    /// The offending variable.
    pub fn var(&self) -> Symbol {
        match *self {
            SafetyViolation::UnboundName(v, _)
            | SafetyViolation::UnboundRead(v, _)
            | SafetyViolation::Rebinding(v, _)
            | SafetyViolation::UnboundHead(v) => v,
        }
    }
}

impl WRule {
    /// Builds a rule; validate with [`WRule::validate`] (done automatically
    /// by every path that admits a rule into a peer).
    pub fn new(head: WAtom, body: Vec<WBodyItem>) -> WRule {
        WRule { head, body }
    }

    /// The one definition of an admissible rule: every assignment
    /// expression nests at most [`wdl_datalog::MAX_EXPR_DEPTH`] deep (so
    /// the rule fits a peer image and a wire frame), and the rule is safe
    /// ([`WRule::check_safety`]).
    pub fn validate(&self) -> Result<()> {
        for (i, item) in self.body.iter().enumerate() {
            if let WBodyItem::Assign { expr, .. } = item {
                if expr.too_deep() {
                    return Err(WdlError::ExprTooDeep { position: i });
                }
            }
        }
        self.check_safety()
    }

    /// WebdamLog safety: `Ok` iff [`WRule::safety_violations`] finds
    /// nothing, else an error describing the first violation.
    pub fn check_safety(&self) -> Result<()> {
        let msg = match self.safety_violations().first() {
            None => return Ok(()),
            Some(SafetyViolation::UnboundHead(v)) => format!(
                "head variable ${v} of {} is not bound by the body",
                self.head
            ),
            Some(SafetyViolation::Rebinding(v, i)) => {
                format!("assignment at position {i} rebinds already-bound variable ${v}")
            }
            Some(SafetyViolation::UnboundName(v, i) | SafetyViolation::UnboundRead(v, i)) => {
                format!(
                    "variable ${v} read at body position {i} ({}) is not bound by earlier items",
                    self.body[*i]
                )
            }
        };
        Err(WdlError::UnsafeDistribution(msg))
    }

    /// Every violation of WebdamLog safety under left-to-right evaluation,
    /// in rule order (within an atom: relation, peer, then data variables):
    ///
    /// 1. every *name* variable (relation or peer position) of a body atom
    ///    must be bound by items strictly to its left — in particular the
    ///    first atom's names must be constants;
    /// 2. data variables of negated atoms, comparisons and assignment inputs
    ///    must be bound to the left, and an assignment must bind a fresh
    ///    variable;
    /// 3. every head variable (name or data position) must be bound by the
    ///    body.
    ///
    /// Rule 1 is what makes delegation well-defined: when evaluation reaches
    /// the first non-local atom, its peer term is already a concrete peer —
    /// the delegation target. A variable that stays unbound is listed at
    /// every place it is read.
    pub fn safety_violations(&self) -> Vec<SafetyViolation> {
        let mut out = Vec::new();
        let mut bound: Vec<Symbol> = Vec::new();
        let mut reads: Vec<Symbol> = Vec::new();
        for (i, item) in self.body.iter().enumerate() {
            reads.clear();
            item.reads(&mut reads);
            // An atom's name variables come first in `reads`.
            let names = match item {
                WBodyItem::Literal(l) => {
                    usize::from(l.atom.rel.is_var()) + usize::from(l.atom.peer.is_var())
                }
                _ => 0,
            };
            for (k, &v) in reads.iter().enumerate() {
                if bound.contains(&v) {
                    continue;
                }
                out.push(if k < names {
                    SafetyViolation::UnboundName(v, i)
                } else {
                    SafetyViolation::UnboundRead(v, i)
                });
            }
            if let WBodyItem::Assign { var, .. } = item {
                if bound.contains(var) {
                    out.push(SafetyViolation::Rebinding(*var, i));
                }
            }
            item.binds(&mut bound);
        }
        reads.clear();
        self.head.all_variables(&mut reads);
        let unbound = reads.iter().filter(|v| !bound.contains(v));
        out.extend(unbound.map(|&v| SafetyViolation::UnboundHead(v)));
        out
    }

    /// Names of peers mentioned as constants anywhere in the rule.
    pub fn constant_peers(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let mut push = |nt: &NameTerm| {
            if let NameTerm::Name(s) = nt {
                if !out.contains(s) {
                    out.push(*s);
                }
            }
        };
        push(&self.head.peer);
        for item in &self.body {
            if let WBodyItem::Literal(l) = item {
                push(&l.atom.peer);
            }
        }
        out
    }

    /// A canonical text form used for content-addressed delegation ids. Two
    /// structurally identical rules render identically, across processes.
    pub fn canonical_text(&self) -> String {
        self.to_string()
    }
}

impl fmt::Debug for WRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for WRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, item) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        Ok(())
    }
}

/// Builder-style helpers for tests, examples and applications.
impl WRule {
    /// The paper's `attendeePictures` rule, parameterized — used in tests
    /// and as the running example of the crate documentation.
    pub fn example_attendee_pictures(owner: &str) -> WRule {
        WRule::new(
            WAtom::at(
                "attendeePictures",
                owner,
                vec![
                    Term::var("id"),
                    Term::var("name"),
                    Term::var("owner"),
                    Term::var("data"),
                ],
            ),
            vec![
                WAtom::at("selectedAttendee", owner, vec![Term::var("attendee")]).into(),
                WAtom::new(
                    NameTerm::name("pictures"),
                    NameTerm::var("attendee"),
                    vec![
                        Term::var("id"),
                        Term::var("name"),
                        Term::var("owner"),
                        Term::var("data"),
                    ],
                )
                .into(),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_datalog::{CmpOp, Expr};

    #[test]
    fn paper_rule_is_safe_and_displays() {
        let r = WRule::example_attendee_pictures("Jules");
        r.check_safety().unwrap();
        assert_eq!(
            r.to_string(),
            "attendeePictures@Jules($id, $name, $owner, $data) :- \
             selectedAttendee@Jules($attendee), \
             pictures@$attendee($id, $name, $owner, $data)"
        );
    }

    #[test]
    fn first_atom_with_variable_peer_is_unsafe() {
        // pictures@$p($x) as the first atom: $p unbound.
        let r = WRule::new(
            WAtom::at("out", "me", vec![Term::var("x")]),
            vec![WAtom::new(
                NameTerm::name("pictures"),
                NameTerm::var("p"),
                vec![Term::var("x")],
            )
            .into()],
        );
        assert!(matches!(
            r.check_safety(),
            Err(WdlError::UnsafeDistribution(_))
        ));
    }

    #[test]
    fn relation_variable_must_be_bound_too() {
        let r = WRule::new(
            WAtom::at("out", "me", vec![Term::var("x")]),
            vec![WAtom::new(
                NameTerm::var("r"),
                NameTerm::name("me"),
                vec![Term::var("x")],
            )
            .into()],
        );
        assert!(r.check_safety().is_err());
    }

    #[test]
    fn head_name_variable_needs_binding() {
        // $protocol@me(...) :- communicate@me($protocol) is safe;
        // $protocol@me(...) :- pics@me($x) is not.
        let safe = WRule::new(
            WAtom::new(NameTerm::var("protocol"), NameTerm::name("me"), vec![]),
            vec![WAtom::at("communicate", "me", vec![Term::var("protocol")]).into()],
        );
        safe.check_safety().unwrap();
        let unsafe_rule = WRule::new(
            WAtom::new(NameTerm::var("protocol"), NameTerm::name("me"), vec![]),
            vec![WAtom::at("pics", "me", vec![Term::var("x")]).into()],
        );
        assert!(unsafe_rule.check_safety().is_err());
    }

    #[test]
    fn comparison_before_binding_is_unsafe() {
        let r = WRule::new(
            WAtom::at("out", "me", vec![Term::var("x")]),
            vec![
                WBodyItem::cmp(CmpOp::Gt, Term::var("x"), Term::cst(1)),
                WAtom::at("n", "me", vec![Term::var("x")]).into(),
            ],
        );
        assert!(r.check_safety().is_err());
    }

    #[test]
    fn negated_atom_variables_must_be_bound() {
        let r = WRule::new(
            WAtom::at("out", "me", vec![Term::var("x")]),
            vec![
                WAtom::at("n", "me", vec![Term::var("x")]).into(),
                WBodyItem::not_atom(WAtom::at("blocked", "me", vec![Term::var("y")])),
            ],
        );
        assert!(r.check_safety().is_err());
    }

    #[test]
    fn constant_peers_collected() {
        let r = WRule::example_attendee_pictures("Jules");
        let peers = r.constant_peers();
        assert_eq!(peers, vec![Symbol::intern("Jules")]);
    }

    #[test]
    fn canonical_text_is_stable() {
        let a = WRule::example_attendee_pictures("Jules");
        let b = WRule::example_attendee_pictures("Jules");
        assert_eq!(a.canonical_text(), b.canonical_text());
        let c = WRule::example_attendee_pictures("Emilien");
        assert_ne!(a.canonical_text(), c.canonical_text());
    }

    #[test]
    fn violations_list_every_unbound_variable_with_its_kind() {
        // out@me($h) :- pics@$p($x), not b@me($y), $x := $y + 1
        let r = WRule::new(
            WAtom::at("out", "me", vec![Term::var("h")]),
            vec![
                WAtom::new(
                    NameTerm::name("pics"),
                    NameTerm::var("p"),
                    vec![Term::var("x")],
                )
                .into(),
                WBodyItem::not_atom(WAtom::at("b", "me", vec![Term::var("y")])),
                WBodyItem::assign(
                    "x",
                    Expr::bin(
                        wdl_datalog::BinOp::Add,
                        Expr::term(Term::var("y")),
                        Expr::term(Term::cst(1)),
                    ),
                ),
            ],
        );
        let (p, x, y, h) = (
            Symbol::intern("p"),
            Symbol::intern("x"),
            Symbol::intern("y"),
            Symbol::intern("h"),
        );
        assert_eq!(
            r.safety_violations(),
            vec![
                SafetyViolation::UnboundName(p, 0),
                SafetyViolation::UnboundRead(y, 1),
                SafetyViolation::UnboundRead(y, 2),
                SafetyViolation::Rebinding(x, 2),
                SafetyViolation::UnboundHead(h),
            ]
        );
        let err = r.check_safety().unwrap_err().to_string();
        assert!(err.contains("variable $p read at body position 0"), "{err}");
    }

    #[test]
    fn validate_bounds_expression_depth() {
        let rule = |depth: usize| {
            let expr = (0..depth).fold(Expr::term(Term::var("x")), |e, _| {
                Expr::bin(wdl_datalog::BinOp::Add, e, Expr::term(Term::cst(1)))
            });
            WRule::new(
                WAtom::at("out", "me", vec![Term::var("y")]),
                vec![
                    WAtom::at("n", "me", vec![Term::var("x")]).into(),
                    WBodyItem::assign("y", expr),
                ],
            )
        };
        rule(wdl_datalog::MAX_EXPR_DEPTH).validate().unwrap();
        assert_eq!(
            rule(wdl_datalog::MAX_EXPR_DEPTH + 1).validate(),
            Err(WdlError::ExprTooDeep { position: 1 })
        );
    }
}
