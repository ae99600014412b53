//! Durable peer state: export/import for persistence.
//!
//! The paper's vision is users who "launch their customized peers on their
//! machines with their own personal data" — which implies peers survive
//! restarts. [`PeerState`] captures everything durable about a peer:
//! schema, extensional facts, own rules, installed delegations, trust
//! settings and relation grants. Transient state (in-flight messages,
//! per-stage diffs, remote contributions and derived facts) is
//! deliberately *not* captured: a restarted peer re-derives its views at its first stage and
//! its correspondents' diff protocols resynchronize from their side.
//!
//! Serialization to bytes/files lives in `wdl-net::snapshot` (which owns
//! the wire codec); this module is the state model plus the in-memory
//! round trip.

use crate::acl::UntrustedPolicy;
use crate::grants::RelationGrants;
use crate::{qualify, Delegation, Peer, RelationDecl, RelationKind, Result, WFact, WRule};
use serde::{Deserialize, Serialize};
use wdl_datalog::Symbol;

/// A peer's durable state.
///
/// Runtime tuning knobs — worker count, fixpoint limit, and the
/// compiled-vs-interpreted stage engine selection
/// ([`Peer::set_compiled_stage`]) — are deliberately **not** part of this
/// state: snapshots are semantic (what the peer knows and runs, not how
/// fast or with which engine it computes it), and restores come back on
/// the defaults.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PeerState {
    /// Peer name.
    pub name: Symbol,
    /// Relation declarations.
    pub decls: Vec<RelationDecl>,
    /// Extensional facts.
    pub facts: Vec<WFact>,
    /// The peer's own rules, in id order.
    pub rules: Vec<WRule>,
    /// Delegations installed here by other peers.
    pub delegated: Vec<Delegation>,
    /// Trusted peers (delegations from them install without approval).
    pub trusted: Vec<Symbol>,
    /// Policy for untrusted delegation origins.
    pub untrusted_policy: UntrustedPolicy,
    /// Relation-level grants.
    pub grants: RelationGrants,
    /// Session delivery watermarks: `((remote, direction), (incarnation,
    /// seq))`; direction 0 = delivered, 1 = acked (see
    /// [`Peer::session_watermarks`]).
    pub watermarks: Vec<((Symbol, u8), (u64, u64))>,
}

impl Peer {
    /// Exports the peer's durable state.
    pub fn export_state(&self) -> PeerState {
        let mut decls: Vec<RelationDecl> = self.schema.iter().copied().collect();
        decls.sort_by_key(|d| d.rel.as_str());
        let mut facts = Vec::new();
        for d in &decls {
            if d.kind == RelationKind::Extensional {
                if let Some(rel) = self.incr.view.base_relation(qualify(d.rel, self.name)) {
                    for tuple in rel.iter() {
                        facts.push(WFact {
                            rel: d.rel,
                            peer: self.name,
                            tuple,
                        });
                    }
                }
            }
        }
        PeerState {
            name: self.name,
            decls,
            facts,
            rules: self.rules.iter().map(|e| e.rule.clone()).collect(),
            delegated: self.delegated.clone(),
            trusted: self.acl.trusted_peers(),
            untrusted_policy: self.acl.untrusted_policy(),
            grants: self.grants.clone(),
            watermarks: self
                .session_watermarks
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect(),
        }
    }

    /// Reconstructs a peer from exported state. Rule ids are reassigned
    /// (fresh counter) but preserve order.
    pub fn import_state(state: PeerState) -> Result<Peer> {
        let mut p = Peer::new(state.name);
        for d in &state.decls {
            p.declare(d.rel, d.arity, d.kind)?;
        }
        for f in state.facts {
            if f.peer == state.name {
                p.insert_local(f.rel, f.tuple.to_vec())?;
            }
        }
        for r in state.rules {
            p.add_rule(r)?;
        }
        for d in state.delegated {
            p.install_delegation(d);
        }
        for t in state.trusted {
            p.acl_mut().trust(t);
        }
        p.acl_mut().set_untrusted_policy(state.untrusted_policy);
        *p.grants_mut() = state.grants;
        for ((remote, dir), (inc, seq)) in state.watermarks {
            p.restore_session_watermark(remote, dir, inc, seq);
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_datalog::Value;

    fn sample_peer() -> Peer {
        let mut p = Peer::new("persist-sample");
        p.declare("pictures", 4, RelationKind::Extensional).unwrap();
        p.declare("view", 2, RelationKind::Intensional).unwrap();
        p.declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        for id in [1, 2] {
            p.insert_local(
                "pictures",
                vec![
                    Value::from(id),
                    Value::from(format!("{id}.jpg")),
                    Value::from("persist-sample"),
                    Value::bytes(&[id as u8]),
                ],
            )
            .unwrap();
        }
        p.add_rule(WRule::example_attendee_pictures("persist-sample"))
            .unwrap();
        p.install_delegation(Delegation::new(
            Symbol::intern("origin-x"),
            Symbol::intern("persist-sample"),
            WRule::example_attendee_pictures("origin-x"),
        ));
        p.acl_mut().trust("sigmod");
        p.grants_mut().restrict_read("pictures");
        p.grants_mut().grant_read("pictures", "sigmod");
        p.grants_mut().declassify("view");
        p
    }

    #[test]
    fn export_import_round_trip() {
        let p = sample_peer();
        let state = p.export_state();
        let q = Peer::import_state(state.clone()).unwrap();

        assert_eq!(q.name(), p.name());
        assert_eq!(q.schema().len(), p.schema().len());
        assert_eq!(q.relation_facts("pictures").len(), 2);
        assert_eq!(q.rules().len(), 1);
        assert_eq!(q.installed_delegations().len(), 1);
        assert!(q.acl().is_trusted(Symbol::intern("sigmod")));
        assert!(q
            .grants()
            .can_read_direct(Symbol::intern("pictures"), Symbol::intern("sigmod")));
        assert!(!q
            .grants()
            .can_read_direct(Symbol::intern("pictures"), Symbol::intern("other")));
        assert!(q.grants().is_declassified(Symbol::intern("view")));

        // Exporting again yields equivalent state.
        let state2 = q.export_state();
        assert_eq!(state.decls, state2.decls);
        assert_eq!(state.rules, state2.rules);
        let mut f1 = state.facts.clone();
        let mut f2 = state2.facts;
        f1.sort_by_key(|f| format!("{f}"));
        f2.sort_by_key(|f| format!("{f}"));
        assert_eq!(f1, f2);
    }

    #[test]
    fn imported_peer_computes() {
        let p = sample_peer();
        let mut q = Peer::import_state(p.export_state()).unwrap();
        // The restored peer can run stages and derive.
        q.insert_local("selectedAttendee", vec![Value::from("persist-sample")])
            .unwrap();
        q.run_stage().unwrap();
        // Its own rule pulls its own pictures (self-selection).
        assert_eq!(q.relation_facts("view").len(), 0); // view unrelated
        assert_eq!(q.relation_facts("attendeePictures").len(), 2);
    }

    #[test]
    fn empty_peer_round_trips() {
        let p = Peer::new("persist-empty");
        let q = Peer::import_state(p.export_state()).unwrap();
        assert_eq!(q.name().as_str(), "persist-empty");
        assert_eq!(q.schema().len(), 0);
        assert!(q.rules().is_empty());
    }
}
