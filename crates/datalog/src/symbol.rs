//! Global string interner.
//!
//! Relation names, peer names and variable names appear on every hot path of
//! the engine (joins, index keys, message headers). Interning them to a
//! `u32`-backed [`Symbol`] makes comparisons and hashing O(1) and keeps
//! tuples compact, following the type-size guidance of the Rust perf book.

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string.
///
/// Two `Symbol`s are equal iff the strings they intern are equal. Symbols are
/// process-global: they stay valid for the lifetime of the process and may be
/// freely copied across threads. On the wire (serde) a symbol travels as its
/// string, so peers in different processes agree on meaning, not on ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<&'static str>,
    table: HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::with_capacity(1024),
            table: HashMap::with_capacity(1024),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(name: &str) -> Symbol {
        {
            let guard = interner().read().expect("interner poisoned");
            if let Some(&id) = guard.table.get(name) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write().expect("interner poisoned");
        if let Some(&id) = guard.table.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(guard.names.len()).expect("interner overflow");
        // Leaking is the standard trade-off for a process-global interner:
        // the set of distinct names (relations, peers, variables) is small
        // and bounded by program text, not by data volume.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        guard.names.push(leaked);
        guard.table.insert(leaked, id);
        Symbol(id)
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        interner().read().expect("interner poisoned").names[self.0 as usize]
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::intern(&s)
    }
}

impl Serialize for Symbol {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for Symbol {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(Symbol::intern(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("pictures");
        let b = Symbol::intern("pictures");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "pictures");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("alice-xyzzy"), Symbol::intern("bob-xyzzy"));
    }

    #[test]
    fn display_matches_source() {
        let s = Symbol::intern("attendeePictures");
        assert_eq!(s.to_string(), "attendeePictures");
        assert_eq!(format!("{s:?}"), "attendeePictures");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("concurrent-test-name")))
            .collect();
        let ids: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn empty_string_interns() {
        let e = Symbol::intern("");
        assert_eq!(e.as_str(), "");
    }
}
