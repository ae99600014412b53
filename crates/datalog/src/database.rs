//! A database: a map from relation name to stored relation.

use crate::intern::ValueId;
use crate::{DatalogError, Fact, Relation, Result, Symbol, Tuple, Value};
use std::collections::HashMap;

/// A collection of named relations.
///
/// Relation arity is fixed on first use (declaration or first fact); later
/// uses with a different arity are errors — WebdamLog is dynamically typed in
/// values but not in shape.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: HashMap<Symbol, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Declares a relation with the given arity (idempotent; errors if the
    /// relation exists with a different arity).
    pub fn declare(&mut self, pred: impl Into<Symbol>, arity: usize) -> Result<()> {
        let pred = pred.into();
        match self.relations.get(&pred) {
            Some(rel) if rel.arity() != arity => Err(DatalogError::ArityMismatch {
                relation: pred.to_string(),
                expected: rel.arity(),
                found: arity,
            }),
            Some(_) => Ok(()),
            None => {
                self.relations.insert(pred, Relation::try_new(arity)?);
                Ok(())
            }
        }
    }

    /// Inserts a fact, creating the relation on first use. Returns `true` if new.
    pub fn insert(&mut self, fact: Fact) -> Result<bool> {
        self.insert_tuple(fact.pred, fact.tuple)
    }

    /// Inserts a tuple into `pred`.
    pub fn insert_tuple(&mut self, pred: Symbol, tuple: Tuple) -> Result<bool> {
        let rel = match self.relations.entry(pred) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Relation::try_new(tuple.len())?)
            }
        };
        if rel.arity() != tuple.len() {
            return Err(DatalogError::ArityMismatch {
                relation: pred.to_string(),
                expected: rel.arity(),
                found: tuple.len(),
            });
        }
        rel.insert(tuple)
    }

    /// Convenience: insert from a `Vec<Value>`.
    pub fn insert_values(&mut self, pred: impl Into<Symbol>, values: Vec<Value>) -> Result<bool> {
        self.insert_tuple(pred.into(), values.into())
    }

    /// Id-native insert: inserts an interned row into `pred`, creating the
    /// relation with `arity` on first use. Same semantics as
    /// [`Database::insert_tuple`].
    pub(crate) fn insert_ids(
        &mut self,
        pred: Symbol,
        arity: usize,
        ids: &[ValueId],
    ) -> Result<bool> {
        let rel = match self.relations.entry(pred) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(Relation::try_new(arity)?),
        };
        if rel.arity() != ids.len() {
            return Err(DatalogError::ArityMismatch {
                relation: pred.to_string(),
                expected: rel.arity(),
                found: ids.len(),
            });
        }
        rel.insert_ids(ids)
    }

    /// Id-native membership test.
    pub(crate) fn contains_ids(&self, pred: Symbol, ids: &[ValueId]) -> bool {
        self.relations
            .get(&pred)
            .is_some_and(|rel| rel.contains_ids(ids))
    }

    /// Id-native removal.
    pub(crate) fn remove_ids(&mut self, pred: Symbol, ids: &[ValueId]) -> bool {
        self.relations
            .get_mut(&pred)
            .is_some_and(|rel| rel.remove_ids(ids))
    }

    /// Removes a fact. Returns `true` if it was present.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        self.relations
            .get_mut(&fact.pred)
            .is_some_and(|rel| rel.remove(&fact.tuple))
    }

    /// Returns the relation for `pred`, if it exists.
    pub fn relation(&self, pred: impl Into<Symbol>) -> Option<&Relation> {
        self.relations.get(&pred.into())
    }

    /// True iff the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations
            .get(&fact.pred)
            .is_some_and(|rel| rel.contains(&fact.tuple))
    }

    /// Iterates over `(name, relation)` pairs (unspecified order).
    pub fn relations(&self) -> impl Iterator<Item = (Symbol, &Relation)> {
        self.relations.iter().map(|(s, r)| (*s, r))
    }

    /// Iterates over every fact in the database.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations.iter().flat_map(|(pred, rel)| {
            rel.iter().map(move |t| Fact {
                pred: *pred,
                tuple: t,
            })
        })
    }

    /// Total number of tuples across relations.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Removes every tuple of `pred` (keeps the declaration).
    pub fn clear_relation(&mut self, pred: impl Into<Symbol>) {
        if let Some(rel) = self.relations.get_mut(&pred.into()) {
            rel.clear();
        }
    }

    /// Removes every tuple of every relation, keeping the relation map
    /// entries and their tuple arenas' capacity — the recycling half of the
    /// seminaive delta pool (clear + reuse instead of a fresh `Database`
    /// per round).
    pub fn clear_all(&mut self) {
        for rel in self.relations.values_mut() {
            rel.clear();
        }
    }

    /// Copies every tuple of `rel` into this database's `pred` relation,
    /// staying in the interned id plane (no resolution to values and no
    /// re-interning — the fast path for snapshotting/merging whole
    /// relations). Returns the number of tuples that were new.
    pub fn copy_relation(&mut self, pred: impl Into<Symbol>, rel: &Relation) -> Result<usize> {
        let pred = pred.into();
        let mut added = 0;
        for row in rel.iter_ids() {
            if self.insert_ids(pred, rel.arity(), row)? {
                added += 1;
            }
        }
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(pred: &str, vals: &[i64]) -> Fact {
        Fact::new(pred, vals.iter().map(|&v| Value::from(v)))
    }

    #[test]
    fn insert_creates_relation() {
        let mut db = Database::new();
        assert!(db.insert(fact("r", &[1, 2])).unwrap());
        assert!(db.contains(&fact("r", &[1, 2])));
        assert_eq!(db.relation("r").unwrap().arity(), 2);
    }

    #[test]
    fn arity_locked_on_first_use() {
        let mut db = Database::new();
        db.insert(fact("r", &[1])).unwrap();
        let err = db.insert(fact("r", &[1, 2])).unwrap_err();
        assert!(matches!(err, DatalogError::ArityMismatch { .. }));
    }

    #[test]
    fn declare_then_mismatch() {
        let mut db = Database::new();
        db.declare("s", 3).unwrap();
        assert!(db.declare("s", 3).is_ok());
        assert!(db.declare("s", 2).is_err());
        assert_eq!(db.relation("s").unwrap().len(), 0);
    }

    #[test]
    fn remove_facts() {
        let mut db = Database::new();
        db.insert(fact("r", &[1])).unwrap();
        assert!(db.remove(&fact("r", &[1])));
        assert!(!db.remove(&fact("r", &[1])));
        assert!(!db.remove(&fact("absent", &[1])));
        assert_eq!(db.fact_count(), 0);
    }

    #[test]
    fn facts_iterator_covers_all() {
        let mut db = Database::new();
        db.insert(fact("r", &[1])).unwrap();
        db.insert(fact("q", &[2])).unwrap();
        let mut got: Vec<String> = db.facts().map(|f| f.to_string()).collect();
        got.sort();
        assert_eq!(got, vec!["q(2)", "r(1)"]);
    }

    #[test]
    fn clear_relation_keeps_arity() {
        let mut db = Database::new();
        db.insert(fact("r", &[1, 2])).unwrap();
        db.clear_relation("r");
        assert_eq!(db.relation("r").unwrap().len(), 0);
        assert_eq!(db.relation("r").unwrap().arity(), 2);
    }
}
