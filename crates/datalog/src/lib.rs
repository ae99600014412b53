//! # wdl-datalog — the datalog kernel underneath WebdamLog
//!
//! This crate is the substrate that plays the role the [Bud] runtime plays in
//! the original WebdamLog system (Abiteboul et al., *Rule-Based Application
//! Development using Webdamlog*, SIGMOD 2013): a self-contained datalog
//! engine providing
//!
//! * interned symbols ([`Symbol`]) and dynamically typed values ([`Value`]),
//! * indexed in-memory relation storage ([`Relation`], [`Database`]),
//! * rules with positive/negative literals and builtin predicates
//!   ([`Rule`], [`BodyItem`]),
//! * left-to-right body matching as compiled register-file plans
//!   ([`eval::BodyPlan`], which the WebdamLog stage runs on), with the
//!   `Subst` interpreter ([`eval::evaluate_body`]) kept as the semantic
//!   reference,
//! * seminaive bottom-up fixpoint evaluation with stratified negation
//!   ([`Program::eval`]).
//!
//! A naive evaluator on the interpreter is retained deliberately
//! ([`Program::eval_naive`]): it is the simplest correct fixpoint, the
//! reference the seminaive and incremental paths are tested against
//! (`tests/datalog_properties.rs`).
//!
//! [Bud]: http://www.bloom-lang.net/
//!
//! ## Quick example
//!
//! ```
//! use wdl_datalog::{Database, Program, Rule, Atom, Term, Value, Symbol};
//!
//! // edge(1,2), edge(2,3);  path(X,Y) :- edge(X,Y);
//! // path(X,Z) :- edge(X,Y), path(Y,Z)
//! let edge = Symbol::intern("edge");
//! let path = Symbol::intern("path");
//! let (x, y, z) = (Symbol::intern("X"), Symbol::intern("Y"), Symbol::intern("Z"));
//!
//! let mut db = Database::new();
//! db.insert_values(edge, vec![Value::from(1), Value::from(2)]).unwrap();
//! db.insert_values(edge, vec![Value::from(2), Value::from(3)]).unwrap();
//!
//! let rules = vec![
//!     Rule::new(
//!         Atom::new(path, vec![Term::var(x), Term::var(y)]),
//!         vec![Atom::new(edge, vec![Term::var(x), Term::var(y)]).into()],
//!     ),
//!     Rule::new(
//!         Atom::new(path, vec![Term::var(x), Term::var(z)]),
//!         vec![
//!             Atom::new(edge, vec![Term::var(x), Term::var(y)]).into(),
//!             Atom::new(path, vec![Term::var(y), Term::var(z)]).into(),
//!         ],
//!     ),
//! ];
//! let program = Program::new(rules).unwrap();
//! let out = program.eval(&db).unwrap();
//! assert_eq!(out.relation(path).unwrap().len(), 3); // (1,2),(2,3),(1,3)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
mod atom;
mod database;
mod error;
pub mod eval;
mod expr;
mod fact;
pub mod incremental;
pub mod intern;
pub mod optimize;
pub mod profile;
mod program;
mod rule;
mod storage;
mod subst;
mod symbol;
mod term;
mod value;

pub use atom::{Atom, BodyItem, Literal};
pub use database::Database;
pub use error::{DatalogError, Result};
pub use eval::{negative_cycle, EvalConfig, NegativeCycle};
pub use expr::{BinOp, CmpOp, Expr, MAX_EXPR_DEPTH};
pub use fact::{Fact, Tuple};
pub use incremental::{Delta, MaterializedView};
pub use intern::ValueId;
pub use program::{EvalStats, Program};
pub use rule::Rule;
pub use storage::{ColMask, ColumnExport, Relation, MAX_ARITY};
pub use subst::Subst;
pub use symbol::Symbol;
pub use term::Term;
pub use value::Value;
