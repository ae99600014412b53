//! Relation declarations: extensional vs intensional.

use crate::{Result, WdlError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wdl_datalog::Symbol;

/// Whether a relation is stored or derived (paper/PODS'11 distinction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelationKind {
    /// Base facts, persistent, changed by explicit updates; rule heads
    /// targeting an extensional relation generate *insertions* applied at
    /// the following stage.
    Extensional,
    /// Derived facts, brought up to date from rules at every stage (a
    /// view). Facts received from other peers for an intensional relation
    /// are maintained contributions: they are retracted when the sender's
    /// derivations retract.
    Intensional,
}

/// One relation's declaration at a peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelationDecl {
    /// Relation name (unqualified; the owning peer is implicit).
    pub rel: Symbol,
    /// Number of columns.
    pub arity: usize,
    /// Stored or derived.
    pub kind: RelationKind,
}

/// The set of relations a peer hosts.
///
/// WebdamLog peers "may discover new peers and new relations" (§2): unknown
/// relations appearing in received updates are auto-declared extensional,
/// matching the open-world behaviour of the demo system.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Schema {
    decls: HashMap<Symbol, RelationDecl>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Declares a relation. Redeclaration with identical shape is a no-op;
    /// changing arity or kind is a [`WdlError::SchemaViolation`].
    pub fn declare(&mut self, rel: Symbol, arity: usize, kind: RelationKind) -> Result<()> {
        match self.decls.get(&rel) {
            Some(existing) if existing.arity != arity || existing.kind != kind => {
                Err(WdlError::SchemaViolation(format!(
                    "relation {rel} already declared with arity {} and kind {:?}",
                    existing.arity, existing.kind
                )))
            }
            Some(_) => Ok(()),
            None => {
                self.decls.insert(rel, RelationDecl { rel, arity, kind });
                Ok(())
            }
        }
    }

    /// Looks up a declaration.
    pub fn get(&self, rel: Symbol) -> Option<&RelationDecl> {
        self.decls.get(&rel)
    }

    /// The kind of `rel`, if declared.
    pub fn kind_of(&self, rel: Symbol) -> Option<RelationKind> {
        self.decls.get(&rel).map(|d| d.kind)
    }

    /// The arity of `rel`, if declared.
    pub fn arity_of(&self, rel: Symbol) -> Option<usize> {
        self.decls.get(&rel).map(|d| d.arity)
    }

    /// True iff declared.
    pub fn is_declared(&self, rel: Symbol) -> bool {
        self.decls.contains_key(&rel)
    }

    /// Iterates over declarations (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &RelationDecl> {
        self.decls.values()
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// True iff no relation is declared.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn declare_and_lookup() {
        let mut s = Schema::new();
        s.declare(sym("pictures"), 4, RelationKind::Extensional)
            .unwrap();
        assert_eq!(s.arity_of(sym("pictures")), Some(4));
        assert_eq!(s.kind_of(sym("pictures")), Some(RelationKind::Extensional));
        assert!(s.is_declared(sym("pictures")));
        assert!(!s.is_declared(sym("ghost")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn idempotent_redeclaration() {
        let mut s = Schema::new();
        s.declare(sym("r"), 2, RelationKind::Intensional).unwrap();
        assert!(s.declare(sym("r"), 2, RelationKind::Intensional).is_ok());
        assert!(s.declare(sym("r"), 3, RelationKind::Intensional).is_err());
        assert!(s.declare(sym("r"), 2, RelationKind::Extensional).is_err());
    }
}
