//! Global value interner: the engine's dense integer data plane.
//!
//! Joins dominate WebdamLog evaluation, and every join step used to pay a
//! deep [`Value`] hash (string/byte content) plus heap traffic for probe
//! keys and substitutions. Interning maps each distinct `Value` to a dense
//! `u32`-backed [`ValueId`] once, at the boundary where data enters the
//! engine; everything inside — tuple arenas, index keys, membership tables,
//! register-file substitutions — then works on flat integer slices, where
//! equality is one compare and hashing is a few multiplies.
//!
//! The design mirrors [`crate::Symbol`]: process-global, append-only,
//! read-mostly behind an `RwLock`. Two ids are equal iff the values they
//! intern are equal, so id comparison is value comparison. Append-only
//! means interned values are never reclaimed — unlike symbols (program
//! text) the value universe is data-sized, so workloads churning over
//! ever-fresh values grow the table monotonically; reclamation is on the
//! ROADMAP before long-lived production deployments. Ids are **not**
//! ordered like values (they are assigned in first-intern order) and are
//! **never serialized**: [`ValueId`] deliberately implements neither
//! `Serialize` nor `Deserialize`, so interning cannot leak onto the wire or
//! into snapshots by construction — boundaries resolve back to [`Value`].

use crate::{Tuple, Value};
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// A dense handle for an interned [`Value`]. `Copy`, 4 bytes, equality and
/// hashing are O(1) regardless of the value's size. Stable for the process
/// lifetime only — resolve with [`ValueId::value`] before anything leaves
/// the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

struct Interner {
    values: Vec<Value>,
    table: HashMap<Value, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            values: Vec::with_capacity(4096),
            table: HashMap::with_capacity(4096),
        })
    })
}

impl ValueId {
    /// Interns `value`, returning its id. Idempotent; values are compared
    /// structurally, so `intern` of equal values always returns equal ids.
    pub fn intern(value: &Value) -> ValueId {
        {
            let guard = interner().read().expect("value interner poisoned");
            if let Some(&id) = guard.table.get(value) {
                return ValueId(id);
            }
        }
        let mut guard = interner().write().expect("value interner poisoned");
        if let Some(&id) = guard.table.get(value) {
            return ValueId(id);
        }
        let id = u32::try_from(guard.values.len()).expect("value interner overflow");
        // `Value`'s heavy variants are `Arc`-backed, so keeping the value in
        // both the vector (id -> value) and the map (value -> id) costs two
        // refcounts, not two copies of the payload.
        guard.values.push(value.clone());
        guard.table.insert(value.clone(), id);
        ValueId(id)
    }

    /// Returns the id of `value` if it was ever interned, without
    /// inserting. A miss proves no relation in the process stores `value`
    /// (everything stored went through [`ValueId::intern`]), which lets
    /// probes for never-seen constants fail without growing the table.
    pub fn lookup(value: &Value) -> Option<ValueId> {
        interner()
            .read()
            .expect("value interner poisoned")
            .table
            .get(value)
            .copied()
            .map(ValueId)
    }

    /// Resolves the id back to its value (cheap: ints/bools copy, strings
    /// and blobs bump an `Arc`).
    pub fn value(self) -> Value {
        interner().read().expect("value interner poisoned").values[self.0 as usize].clone()
    }

    /// The raw id; stable within a process only. Exposed for accounting
    /// assertions and debugging — never persist or transmit it.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for ValueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}={}", self.0, self.value())
    }
}

/// Interns every value of `row` under a single lock acquisition (two when
/// the row contains values not seen before), appending the ids to `out`.
pub fn intern_row(row: &[Value], out: &mut Vec<ValueId>) {
    let base = out.len();
    {
        let guard = interner().read().expect("value interner poisoned");
        for v in row {
            match guard.table.get(v) {
                Some(&id) => out.push(ValueId(id)),
                None => break,
            }
        }
        if out.len() - base == row.len() {
            return;
        }
    }
    // Slow path: at least one fresh value. `out` holds ids for a prefix of
    // `row`; take the write lock once for the remainder.
    let start = out.len() - base;
    let mut guard = interner().write().expect("value interner poisoned");
    for v in &row[start..] {
        let id = match guard.table.get(v) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(guard.values.len()).expect("value interner overflow");
                guard.values.push(v.clone());
                guard.table.insert(v.clone(), id);
                id
            }
        };
        out.push(ValueId(id));
    }
}

/// Looks up every value of `row` without inserting; returns `false` (and
/// leaves `out` truncated to its original length) if any value was never
/// interned — in which case no stored tuple can equal `row`.
pub fn lookup_row(row: &[Value], out: &mut Vec<ValueId>) -> bool {
    let base = out.len();
    let guard = interner().read().expect("value interner poisoned");
    for v in row {
        match guard.table.get(v) {
            Some(&id) => out.push(ValueId(id)),
            None => {
                drop(guard);
                out.truncate(base);
                return false;
            }
        }
    }
    true
}

/// Resolves a row of ids back to an owned [`Tuple`] under a single lock
/// acquisition.
pub fn resolve_row(ids: &[ValueId]) -> Tuple {
    let guard = interner().read().expect("value interner poisoned");
    ids.iter()
        .map(|id| guard.values[id.0 as usize].clone())
        .collect()
}

/// Number of distinct values interned so far (observability/tests).
pub fn interned_count() -> usize {
    interner()
        .read()
        .expect("value interner poisoned")
        .values
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_structural() {
        let a = ValueId::intern(&Value::from("wdl-intern-test-a"));
        let b = ValueId::intern(&Value::from("wdl-intern-test-a"));
        assert_eq!(a, b);
        assert_eq!(a.value(), Value::from("wdl-intern-test-a"));
        let c = ValueId::intern(&Value::from("wdl-intern-test-b"));
        assert_ne!(a, c);
    }

    #[test]
    fn distinct_types_distinct_ids() {
        // 1i64, true: equality across types is false, so ids must differ.
        let i = ValueId::intern(&Value::from(1));
        let b = ValueId::intern(&Value::from(true));
        assert_ne!(i, b);
        assert_eq!(i.value(), Value::from(1));
        assert_eq!(b.value(), Value::from(true));
    }

    #[test]
    fn lookup_does_not_insert() {
        // The interner is process-global and other tests intern values on
        // parallel threads, so the check is on this value, not on the
        // global count: a lookup that inserted would find it the second
        // time.
        for _ in 0..2 {
            assert_eq!(
                ValueId::lookup(&Value::from("wdl-never-interned-xyzzy")),
                None
            );
        }
        let id = ValueId::intern(&Value::from("wdl-now-interned-xyzzy"));
        assert_eq!(
            ValueId::lookup(&Value::from("wdl-now-interned-xyzzy")),
            Some(id)
        );
    }

    #[test]
    fn row_helpers_round_trip() {
        let row = vec![
            Value::from(42),
            Value::from("wdl-row-helper"),
            Value::bytes(&[1, 2, 3]),
        ];
        let mut ids = Vec::new();
        intern_row(&row, &mut ids);
        assert_eq!(ids.len(), 3);
        let back = resolve_row(&ids);
        assert_eq!(back.as_ref(), row.as_slice());
        let mut looked = Vec::new();
        assert!(lookup_row(&row, &mut looked));
        assert_eq!(looked, ids);
        let mut missing = Vec::new();
        assert!(!lookup_row(
            &[Value::from(42), Value::from("wdl-row-helper-missing")],
            &mut missing
        ));
        assert!(missing.is_empty());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let v = Value::from(format!("concurrent-value-{}", i % 2));
                    ValueId::intern(&v)
                })
            })
            .collect();
        let ids: Vec<ValueId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                id.value(),
                Value::from(format!("concurrent-value-{}", i % 2))
            );
        }
    }
}
