//! A peer's access policy: who may install rules here, and who may read
//! and write its relations (paper §2, "Access control", and §3,
//! "Delegation and access control").
//!
//! One [`AccessControl`] per peer holds all of it:
//!
//! * **Delegation control**, the demo's model reproduced exactly: "each
//!   delegation sent by an untrusted peer will be pending in a queue until
//!   the user explicitly accepts it via the Web interface. By default, all
//!   peers except the sigmod peer will be considered untrusted." The
//!   interface here is programmatic (`pending`, `approve`, `reject`)
//!   instead of a Web page; the Wepic example binaries expose it
//!   interactively.
//! * **Relation grants**, the model the paper sketches:
//!
//!   > "Users directly specify the accessibility of stored relations that
//!   > they own. For derived relations (i.e. views), a user may rely on a
//!   > default access control policy that is derived automatically from
//!   > the provenance of the base relations. Alternatively, a user may
//!   > override this policy in order to grant access to views, effectively
//!   > 'declassifying' some data."
//!
//!   A relation is either open to everyone (the default) or restricted to
//!   an explicit peer set, separately for reads and writes. A peer may read
//!   an intensional relation iff it may read *every base relation feeding
//!   it* (computed statically from the owner's rules, at relation level),
//!   unless the view is declassified, which leaves only its explicit grant.
//!
//! Enforcement happens in the stage loop: the trust decision gates arriving
//! delegations; write grants gate incoming fact updates; read grants gate
//! what *delegated* rules (rules running here on another peer's behalf)
//! may consume.

use crate::{Delegation, DelegationId, WBodyItem, WRule};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use wdl_datalog::Symbol;

/// What happens to a delegation from a peer outside the trusted set — and,
/// as the result of [`AccessControl::decide`], to any arriving delegation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum UntrustedPolicy {
    /// Queue for explicit approval (the demo's behaviour).
    #[default]
    Queue,
    /// Accept: install immediately.
    Accept,
    /// Reject: drop outright.
    Reject,
}

/// A delegation waiting for the user's decision.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingDelegation {
    /// The delegation itself.
    pub delegation: Delegation,
    /// Stage counter of the receiving peer when it arrived.
    pub received_stage: u64,
}

/// A peer's access policy: trusted peers, the decision for untrusted
/// origins, the approval queue, per-relation read/write grants and
/// declassified views.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccessControl {
    trusted: HashSet<Symbol>,
    policy: UntrustedPolicy,
    pending: Vec<PendingDelegation>,
    /// Read-restricted relations and the peers allowed to read them; a
    /// relation absent here is open to everyone.
    read: HashMap<Symbol, HashSet<Symbol>>,
    /// Write-restricted relations, likewise.
    write: HashMap<Symbol, HashSet<Symbol>>,
    declassified: HashSet<Symbol>,
}

impl AccessControl {
    /// Fresh policy: nobody trusted, untrusted delegations queue, every
    /// relation readable and writable by everyone.
    pub fn new() -> AccessControl {
        AccessControl::default()
    }

    // ------------------------------------------------------------------
    // Delegation control
    // ------------------------------------------------------------------

    /// Marks `peer` as trusted; its delegations install immediately.
    pub fn trust(&mut self, peer: impl Into<Symbol>) {
        self.trusted.insert(peer.into());
    }

    /// Removes `peer` from the trusted set (already-installed delegations
    /// stay installed; the paper's model gates installation, not execution).
    pub fn untrust(&mut self, peer: impl Into<Symbol>) {
        self.trusted.remove(&peer.into());
    }

    /// True iff `peer` is trusted.
    pub fn is_trusted(&self, peer: Symbol) -> bool {
        self.trusted.contains(&peer)
    }

    /// The trusted peers, sorted by name (for deterministic export).
    pub fn trusted_peers(&self) -> Vec<Symbol> {
        sorted(&self.trusted)
    }

    /// The current policy for untrusted origins.
    pub fn untrusted_policy(&self) -> UntrustedPolicy {
        self.policy
    }

    /// Sets the policy applied to untrusted origins.
    pub fn set_untrusted_policy(&mut self, policy: UntrustedPolicy) {
        self.policy = policy;
    }

    /// Decides what to do with a delegation from `origin`: a trusted
    /// origin's is accepted, anyone else's follows the untrusted policy.
    pub fn decide(&self, origin: Symbol) -> UntrustedPolicy {
        if self.trusted.contains(&origin) {
            UntrustedPolicy::Accept
        } else {
            self.policy
        }
    }

    /// Parks a delegation that arrived at stage `received_stage`. Returns
    /// `false` when one with the same id is already waiting: a re-sent
    /// delegation does not duplicate in the queue.
    pub fn push_pending(&mut self, delegation: Delegation, received_stage: u64) -> bool {
        if self
            .pending
            .iter()
            .any(|p| p.delegation.id == delegation.id)
        {
            return false;
        }
        self.pending.push(PendingDelegation {
            delegation,
            received_stage,
        });
        true
    }

    /// The pending queue, oldest first (what the demo UI shows at the top of
    /// its Figure 3: "Julia is sending a rule to Jules").
    pub fn pending(&self) -> &[PendingDelegation] {
        &self.pending
    }

    /// Removes and returns the pending delegation with `id`, if present.
    pub(crate) fn take_pending(&mut self, id: DelegationId) -> Option<Delegation> {
        let idx = self.pending.iter().position(|p| p.delegation.id == id)?;
        Some(self.pending.remove(idx).delegation)
    }

    /// Drops a pending delegation (e.g. when its origin revokes it before
    /// the user decided).
    pub(crate) fn drop_pending(&mut self, id: DelegationId) -> bool {
        let before = self.pending.len();
        self.pending.retain(|p| p.delegation.id != id);
        self.pending.len() != before
    }

    // ------------------------------------------------------------------
    // Relation grants
    // ------------------------------------------------------------------

    /// Restricts reads of `rel` to an explicit (initially empty) peer set.
    pub fn restrict_read(&mut self, rel: impl Into<Symbol>) {
        self.read.insert(rel.into(), HashSet::new());
    }

    /// Restricts writes of `rel` to an explicit (initially empty) peer set.
    pub fn restrict_write(&mut self, rel: impl Into<Symbol>) {
        self.write.insert(rel.into(), HashSet::new());
    }

    /// Adds `peer` to `rel`'s read set (restricting first if it was open).
    pub fn grant_read(&mut self, rel: impl Into<Symbol>, peer: impl Into<Symbol>) {
        self.read.entry(rel.into()).or_default().insert(peer.into());
    }

    /// Adds `peer` to `rel`'s write set (restricting first if it was open).
    pub fn grant_write(&mut self, rel: impl Into<Symbol>, peer: impl Into<Symbol>) {
        self.write
            .entry(rel.into())
            .or_default()
            .insert(peer.into());
    }

    /// Removes `peer` from `rel`'s read set (no-op while the relation is
    /// open to everyone).
    pub fn revoke_read(&mut self, rel: impl Into<Symbol>, peer: impl Into<Symbol>) {
        if let Some(set) = self.read.get_mut(&rel.into()) {
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

    /// The declassified views, sorted by name.
    pub fn declassified(&self) -> Vec<Symbol> {
        sorted(&self.declassified)
    }

    /// The read-restricted relations with their allowed peers, both sorted
    /// by name; every relation absent is open to everyone.
    pub fn read_grants(&self) -> Vec<(Symbol, Vec<Symbol>)> {
        sorted_grants(&self.read)
    }

    /// The write-restricted relations with their allowed peers, as
    /// [`AccessControl::read_grants`].
    pub fn write_grants(&self) -> Vec<(Symbol, Vec<Symbol>)> {
        sorted_grants(&self.write)
    }

    /// Direct (explicit) read permission, ignoring provenance.
    pub fn can_read_direct(&self, rel: Symbol, peer: Symbol) -> bool {
        self.read.get(&rel).is_none_or(|set| set.contains(&peer))
    }

    /// Direct write permission.
    pub fn can_write(&self, rel: Symbol, peer: Symbol) -> bool {
        self.write.get(&rel).is_none_or(|set| set.contains(&peer))
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

fn sorted(set: &HashSet<Symbol>) -> Vec<Symbol> {
    let mut v: Vec<Symbol> = set.iter().copied().collect();
    v.sort_by_key(|s| s.as_str());
    v
}

fn sorted_grants(grants: &HashMap<Symbol, HashSet<Symbol>>) -> Vec<(Symbol, Vec<Symbol>)> {
    let mut v: Vec<(Symbol, Vec<Symbol>)> = grants
        .iter()
        .map(|(rel, peers)| (*rel, sorted(peers)))
        .collect();
    v.sort_by_key(|(rel, _)| rel.as_str());
    v
}

/// Static relation-level provenance: for each locally defined view (head of
/// one of `rules`' local rules), the set of *base* local relations feeding
/// it, transitively. Only constant-named atoms at `owner` participate —
/// variable relations or remote atoms cannot be resolved statically and are
/// conservatively ignored (their data arrives through messages, which are
/// gated separately by write grants).
pub(crate) fn view_base_relations<'a>(
    owner: Symbol,
    rules: impl IntoIterator<Item = &'a WRule>,
) -> HashMap<Symbol, HashSet<Symbol>> {
    // Direct edges: head rel -> body rels (local, constant-named).
    let mut direct: HashMap<Symbol, HashSet<Symbol>> = HashMap::new();
    for rule in rules {
        let (Some(head_rel), Some(head_peer)) = (rule.head.rel.as_name(), rule.head.peer.as_name())
        else {
            continue;
        };
        if head_peer != owner {
            continue;
        }
        let entry = direct.entry(head_rel).or_default();
        for item in &rule.body {
            if let WBodyItem::Literal(l) = item {
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
    for &view in direct.keys() {
        let mut bases = HashSet::new();
        let mut stack: Vec<Symbol> = direct[&view].iter().copied().collect();
        let mut seen: HashSet<Symbol> = [view].into_iter().collect();
        while let Some(rel) = stack.pop() {
            if !seen.insert(rel) {
                continue;
            }
            match direct.get(&rel) {
                Some(body) => stack.extend(body.iter().copied()),
                None => {
                    bases.insert(rel);
                }
            }
        }
        out.insert(view, bases);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WAtom;
    use wdl_datalog::Term;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn dlg(origin: &str) -> Delegation {
        Delegation::new(
            sym(origin),
            sym("me"),
            WRule::example_attendee_pictures(origin),
        )
    }

    #[test]
    fn default_queues_untrusted() {
        let acl = AccessControl::new();
        assert_eq!(acl.decide(sym("stranger")), UntrustedPolicy::Queue);
    }

    #[test]
    fn trusted_installs_immediately() {
        let mut acl = AccessControl::new();
        acl.trust("sigmod");
        assert_eq!(acl.decide(sym("sigmod")), UntrustedPolicy::Accept);
        acl.untrust("sigmod");
        assert_eq!(acl.decide(sym("sigmod")), UntrustedPolicy::Queue);
    }

    #[test]
    fn policy_switches() {
        let mut acl = AccessControl::new();
        acl.set_untrusted_policy(UntrustedPolicy::Accept);
        assert_eq!(acl.decide(sym("x")), UntrustedPolicy::Accept);
        acl.set_untrusted_policy(UntrustedPolicy::Reject);
        assert_eq!(acl.decide(sym("x")), UntrustedPolicy::Reject);
    }

    #[test]
    fn pending_queue_dedups_and_removes() {
        let mut acl = AccessControl::new();
        let d = dlg("Julia");
        assert!(acl.push_pending(d.clone(), 1));
        assert!(!acl.push_pending(d.clone(), 2));
        assert_eq!(acl.pending().len(), 1);
        assert_eq!(acl.pending()[0].received_stage, 1);
        assert!(acl.take_pending(d.id).is_some());
        assert!(acl.take_pending(d.id).is_none());
    }

    #[test]
    fn drop_pending_on_revoke() {
        let mut acl = AccessControl::new();
        let d = dlg("Julia");
        acl.push_pending(d.clone(), 1);
        assert!(acl.drop_pending(d.id));
        assert!(!acl.drop_pending(d.id));
        assert!(acl.pending().is_empty());
    }

    #[test]
    fn default_is_open() {
        let g = AccessControl::new();
        assert!(g.can_read_direct(sym("pictures"), sym("anyone")));
        assert!(g.can_write(sym("pictures"), sym("anyone")));
    }

    #[test]
    fn restrict_then_grant() {
        let mut g = AccessControl::new();
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
        let mut g = AccessControl::new();
        g.grant_write("inbox", "sigmod");
        assert!(g.can_write(sym("inbox"), sym("sigmod")));
        assert!(!g.can_write(sym("inbox"), sym("randomer")));
    }

    #[test]
    fn provenance_derived_view_policy() {
        // view <- private (restricted); reader lacks private => no view.
        let mut g = AccessControl::new();
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
        let mut g = AccessControl::new();
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
        let rules = [
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
        let bases = view_base_relations(owner, &rules);
        let v2 = &bases[&sym("v2")];
        assert_eq!(v2.len(), 3);
        assert!(v2.contains(&sym("base1")));
        assert!(v2.contains(&sym("base3")));
    }

    #[test]
    fn remote_and_variable_atoms_ignored_statically() {
        let owner = sym("me");
        let rules = [WRule::new(
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
        let bases = view_base_relations(owner, &rules);
        assert_eq!(bases[&sym("v")], [sym("sel")].into_iter().collect());
    }

    #[test]
    fn recursive_views_terminate() {
        let owner = sym("me");
        let rules = [
            WRule::new(
                WAtom::at("p", "me", vec![Term::var("x")]),
                vec![WAtom::at("e", "me", vec![Term::var("x")]).into()],
            ),
            WRule::new(
                WAtom::at("p", "me", vec![Term::var("x")]),
                vec![WAtom::at("p", "me", vec![Term::var("x")]).into()],
            ),
        ];
        let bases = view_base_relations(owner, &rules);
        assert_eq!(bases[&sym("p")], [sym("e")].into_iter().collect());
    }
}
