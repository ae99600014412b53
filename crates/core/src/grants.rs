//! Relation-level access control with provenance-derived view policy.
//!
//! The demo shipped only the delegation-approval queue ([`crate::acl`]);
//! the paper sketches the full model it was building toward (§2, "Access
//! control"):
//!
//! > "Users directly specify the accessibility of stored relations that
//! > they own. For derived relations (i.e. views), a user may rely on a
//! > default access control policy that is derived automatically from the
//! > provenance of the base relations. Alternatively, a user may override
//! > this policy in order to grant access to views, effectively
//! > 'declassifying' some data."
//!
//! This module implements that model:
//!
//! * per-relation **read/write grants** (discretionary): a relation is
//!   either open to everyone (the default) or restricted to an explicit
//!   peer set;
//! * a **provenance-derived default for views**: a peer may read an
//!   intensional relation iff it may read *every base relation feeding it*
//!   (computed statically from the owner's rules, at relation level);
//! * **declassification**: marking a view exempts it from the provenance
//!   rule, leaving only its explicit grant.
//!
//! Enforcement happens in the stage loop: write grants gate incoming fact
//! updates; read grants gate what *delegated* rules (rules running here on
//! another peer's behalf) may consume.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use wdl_datalog::Symbol;

/// Who may perform an operation on a relation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AccessSet {
    /// Anyone (the open-world default of the demo system).
    #[default]
    Everyone,
    /// Only the listed peers (the owner is always implicitly allowed).
    Peers(HashSet<Symbol>),
}

impl AccessSet {
    fn allows(&self, peer: Symbol) -> bool {
        match self {
            AccessSet::Everyone => true,
            AccessSet::Peers(set) => set.contains(&peer),
        }
    }
}

/// Per-relation grants for one peer's relations.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RelationGrants {
    read: HashMap<Symbol, AccessSet>,
    write: HashMap<Symbol, AccessSet>,
    declassified: HashSet<Symbol>,
}

impl RelationGrants {
    /// Fully open grants (everything readable/writable by everyone).
    pub fn new() -> RelationGrants {
        RelationGrants::default()
    }

    /// Restricts reads of `rel` to an explicit (initially empty) peer set.
    pub fn restrict_read(&mut self, rel: impl Into<Symbol>) {
        self.read
            .insert(rel.into(), AccessSet::Peers(HashSet::new()));
    }

    /// Restricts writes of `rel` to an explicit (initially empty) peer set.
    pub fn restrict_write(&mut self, rel: impl Into<Symbol>) {
        self.write
            .insert(rel.into(), AccessSet::Peers(HashSet::new()));
    }

    /// Adds `peer` to `rel`'s read set (restricting first if it was open).
    pub fn grant_read(&mut self, rel: impl Into<Symbol>, peer: impl Into<Symbol>) {
        let rel = rel.into();
        match self.read.entry(rel).or_default() {
            AccessSet::Everyone => {
                self.read
                    .insert(rel, AccessSet::Peers([peer.into()].into_iter().collect()));
            }
            AccessSet::Peers(set) => {
                set.insert(peer.into());
            }
        }
    }

    /// Adds `peer` to `rel`'s write set (restricting first if it was open).
    pub fn grant_write(&mut self, rel: impl Into<Symbol>, peer: impl Into<Symbol>) {
        let rel = rel.into();
        match self.write.entry(rel).or_default() {
            AccessSet::Everyone => {
                self.write
                    .insert(rel, AccessSet::Peers([peer.into()].into_iter().collect()));
            }
            AccessSet::Peers(set) => {
                set.insert(peer.into());
            }
        }
    }

    /// Removes `peer` from `rel`'s read set (no-op while the relation is
    /// open to everyone).
    pub fn revoke_read(&mut self, rel: impl Into<Symbol>, peer: impl Into<Symbol>) {
        if let Some(AccessSet::Peers(set)) = self.read.get_mut(&rel.into()) {
            set.remove(&peer.into());
        }
    }

    /// Marks a view as declassified: its provenance-derived policy is
    /// bypassed, leaving only its explicit grant.
    pub fn declassify(&mut self, rel: impl Into<Symbol>) {
        self.declassified.insert(rel.into());
    }

    /// True iff `rel` is declassified.
    pub fn is_declassified(&self, rel: Symbol) -> bool {
        self.declassified.contains(&rel)
    }

    /// Direct (explicit) read permission, ignoring provenance.
    pub fn can_read_direct(&self, rel: Symbol, peer: Symbol) -> bool {
        self.read
            .get(&rel)
            .unwrap_or(&AccessSet::Everyone)
            .allows(peer)
    }

    /// Direct write permission.
    pub fn can_write(&self, rel: Symbol, peer: Symbol) -> bool {
        self.write
            .get(&rel)
            .unwrap_or(&AccessSet::Everyone)
            .allows(peer)
    }

    /// Effective read permission under the paper's model: the explicit
    /// grant on `rel`, AND — unless `rel` is declassified — read access to
    /// every base relation in `view_bases[rel]` (the provenance-derived
    /// default policy). Base relations (absent from `view_bases`) use the
    /// explicit grant alone.
    pub fn can_read(
        &self,
        rel: Symbol,
        peer: Symbol,
        view_bases: &HashMap<Symbol, HashSet<Symbol>>,
    ) -> bool {
        if !self.can_read_direct(rel, peer) {
            return false;
        }
        if self.is_declassified(rel) {
            return true;
        }
        match view_bases.get(&rel) {
            Some(bases) => bases.iter().all(|b| self.can_read_direct(*b, peer)),
            None => true,
        }
    }
}

/// Flattened grants for serialization (the snapshot codec is hand-rolled,
/// see `wdl-net::snapshot`). Only *restricted* relations appear; everything
/// absent is open to everyone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GrantExport {
    /// Restricted-read relations and their allowed peers (sorted).
    pub read: Vec<(Symbol, Vec<Symbol>)>,
    /// Restricted-write relations and their allowed peers (sorted).
    pub write: Vec<(Symbol, Vec<Symbol>)>,
    /// Declassified views (sorted).
    pub declassified: Vec<Symbol>,
}

impl RelationGrants {
    /// Exports the restricted entries in deterministic order.
    pub fn export(&self) -> GrantExport {
        let flatten = |m: &HashMap<Symbol, AccessSet>| {
            let mut out: Vec<(Symbol, Vec<Symbol>)> = m
                .iter()
                .filter_map(|(rel, set)| match set {
                    AccessSet::Everyone => None,
                    AccessSet::Peers(ps) => {
                        let mut v: Vec<Symbol> = ps.iter().copied().collect();
                        v.sort_by_key(|s| s.as_str());
                        Some((*rel, v))
                    }
                })
                .collect();
            out.sort_by_key(|(rel, _)| rel.as_str());
            out
        };
        let mut declassified: Vec<Symbol> = self.declassified.iter().copied().collect();
        declassified.sort_by_key(|s| s.as_str());
        GrantExport {
            read: flatten(&self.read),
            write: flatten(&self.write),
            declassified,
        }
    }

    /// Rebuilds grants from an export.
    pub fn import(export: GrantExport) -> RelationGrants {
        let expand = |entries: Vec<(Symbol, Vec<Symbol>)>| {
            entries
                .into_iter()
                .map(|(rel, ps)| (rel, AccessSet::Peers(ps.into_iter().collect())))
                .collect()
        };
        RelationGrants {
            read: expand(export.read),
            write: expand(export.write),
            declassified: export.declassified.into_iter().collect(),
        }
    }
}

/// Static relation-level provenance: for each locally defined view (head of
/// one of `rules`' local rules), the set of *base* local relations feeding
/// it, transitively. Only constant-named atoms at `owner` participate —
/// variable relations or remote atoms cannot be resolved statically and are
/// conservatively ignored (their data arrives through messages, which are
/// gated separately by write grants).
pub fn view_base_relations(
    owner: Symbol,
    rules: impl Iterator<Item = crate::WRule> + Clone,
) -> HashMap<Symbol, HashSet<Symbol>> {
    // Direct edges: head rel -> body rels (local, constant-named).
    let mut direct: HashMap<Symbol, HashSet<Symbol>> = HashMap::new();
    let mut heads: HashSet<Symbol> = HashSet::new();
    for rule in rules {
        let (Some(head_rel), Some(head_peer)) = (rule.head.rel.as_name(), rule.head.peer.as_name())
        else {
            continue;
        };
        if head_peer != owner {
            continue;
        }
        heads.insert(head_rel);
        let entry = direct.entry(head_rel).or_default();
        for item in &rule.body {
            if let crate::WBodyItem::Literal(l) = item {
                if let (Some(rel), Some(peer)) = (l.atom.rel.as_name(), l.atom.peer.as_name()) {
                    if peer == owner {
                        entry.insert(rel);
                    }
                }
            }
        }
    }
    // Transitive closure down to non-head (base) relations.
    let mut out: HashMap<Symbol, HashSet<Symbol>> = HashMap::new();
    for &view in &heads {
        let mut bases = HashSet::new();
        let mut stack: Vec<Symbol> = direct.get(&view).into_iter().flatten().copied().collect();
        let mut seen: HashSet<Symbol> = [view].into_iter().collect();
        while let Some(rel) = stack.pop() {
            if !seen.insert(rel) {
                continue;
            }
            if heads.contains(&rel) {
                stack.extend(direct.get(&rel).into_iter().flatten().copied());
            } else {
                bases.insert(rel);
            }
        }
        out.insert(view, bases);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WAtom, WRule};
    use wdl_datalog::Term;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn default_is_open() {
        let g = RelationGrants::new();
        assert!(g.can_read_direct(sym("pictures"), sym("anyone")));
        assert!(g.can_write(sym("pictures"), sym("anyone")));
    }

    #[test]
    fn restrict_then_grant() {
        let mut g = RelationGrants::new();
        g.restrict_read("private");
        assert!(!g.can_read_direct(sym("private"), sym("jules")));
        g.grant_read("private", "jules");
        assert!(g.can_read_direct(sym("private"), sym("jules")));
        assert!(!g.can_read_direct(sym("private"), sym("julia")));
        g.revoke_read("private", "jules");
        assert!(!g.can_read_direct(sym("private"), sym("jules")));
    }

    #[test]
    fn grant_on_open_relation_restricts_it() {
        let mut g = RelationGrants::new();
        g.grant_write("inbox", "sigmod");
        assert!(g.can_write(sym("inbox"), sym("sigmod")));
        assert!(!g.can_write(sym("inbox"), sym("randomer")));
    }

    #[test]
    fn provenance_derived_view_policy() {
        // view <- private (restricted); reader lacks private => no view.
        let mut g = RelationGrants::new();
        g.restrict_read("private");
        let bases: HashMap<Symbol, HashSet<Symbol>> =
            [(sym("view"), [sym("private")].into_iter().collect())]
                .into_iter()
                .collect();
        assert!(!g.can_read(sym("view"), sym("jules"), &bases));
        g.grant_read("private", "jules");
        assert!(g.can_read(sym("view"), sym("jules"), &bases));
    }

    #[test]
    fn declassification_overrides_provenance() {
        let mut g = RelationGrants::new();
        g.restrict_read("private");
        let bases: HashMap<Symbol, HashSet<Symbol>> =
            [(sym("summary"), [sym("private")].into_iter().collect())]
                .into_iter()
                .collect();
        assert!(!g.can_read(sym("summary"), sym("julia"), &bases));
        g.declassify("summary");
        assert!(g.can_read(sym("summary"), sym("julia"), &bases));
        // But an explicit restriction on the view itself still applies.
        g.restrict_read("summary");
        assert!(!g.can_read(sym("summary"), sym("julia"), &bases));
    }

    #[test]
    fn view_bases_transitive() {
        let owner = sym("me");
        let rules = vec![
            // v1 :- base1, base2
            WRule::new(
                WAtom::at("v1", "me", vec![Term::var("x")]),
                vec![
                    WAtom::at("base1", "me", vec![Term::var("x")]).into(),
                    WAtom::at("base2", "me", vec![Term::var("x")]).into(),
                ],
            ),
            // v2 :- v1, base3
            WRule::new(
                WAtom::at("v2", "me", vec![Term::var("x")]),
                vec![
                    WAtom::at("v1", "me", vec![Term::var("x")]).into(),
                    WAtom::at("base3", "me", vec![Term::var("x")]).into(),
                ],
            ),
        ];
        let bases = view_base_relations(owner, rules.into_iter());
        let v2 = &bases[&sym("v2")];
        assert_eq!(v2.len(), 3);
        assert!(v2.contains(&sym("base1")));
        assert!(v2.contains(&sym("base3")));
    }

    #[test]
    fn remote_and_variable_atoms_ignored_statically() {
        let owner = sym("me");
        let rules = vec![WRule::new(
            WAtom::at("v", "me", vec![Term::var("x"), Term::var("a")]),
            vec![
                WAtom::at("sel", "me", vec![Term::var("a")]).into(),
                WAtom::new(
                    crate::NameTerm::name("pictures"),
                    crate::NameTerm::var("a"),
                    vec![Term::var("x")],
                )
                .into(),
            ],
        )];
        let bases = view_base_relations(owner, rules.into_iter());
        assert_eq!(bases[&sym("v")], [sym("sel")].into_iter().collect());
    }

    #[test]
    fn recursive_views_terminate() {
        let owner = sym("me");
        let rules = vec![
            WRule::new(
                WAtom::at("p", "me", vec![Term::var("x")]),
                vec![WAtom::at("e", "me", vec![Term::var("x")]).into()],
            ),
            WRule::new(
                WAtom::at("p", "me", vec![Term::var("x")]),
                vec![WAtom::at("p", "me", vec![Term::var("x")]).into()],
            ),
        ];
        let bases = view_base_relations(owner, rules.into_iter());
        assert_eq!(bases[&sym("p")], [sym("e")].into_iter().collect());
    }
}
