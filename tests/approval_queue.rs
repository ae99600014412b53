//! The approval queue is durable state (paper §3: a delegation from an
//! untrusted peer "will be pending in a queue until the user explicitly
//! accepts it"). The origin sends a delegation once and never re-sends
//! it — a restarted correspondent's `resync_target` re-sends facts, not
//! delegations — so a peer that restarts must bring its queue back from
//! its image, or the user never gets to decide.

use std::fs;
use std::path::PathBuf;
use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::{Peer, RelationKind};
use webdamlog::datalog::{Symbol, Value};
use webdamlog::net::snapshot;
use webdamlog::parser::parse_rule;
use webdamlog::store::{DurabilityConfig, DurableStore};

/// `origin` asks `target` (which does not trust it) for `target`'s items;
/// after quiescence the delegation waits in `target`'s queue. With a
/// `store`, `target` is durable from before the delegation arrives.
fn queued_pair(origin: &str, target: &str, store: Option<&mut DurableStore>) -> LocalRuntime {
    let mut rt = LocalRuntime::new();
    let mut o = Peer::new(origin);
    o.declare("seen", 1, RelationKind::Intensional).unwrap();
    o.add_rule(parse_rule(&format!("seen@{origin}($x) :- item@{target}($x);")).unwrap())
        .unwrap();
    rt.add_peer(o).unwrap();
    let mut t = Peer::new(target);
    t.insert_local("item", vec![Value::from(1)]).unwrap();
    if let Some(store) = store {
        store.attach(&mut t).unwrap();
    }
    rt.add_peer(t).unwrap();
    rt.run_to_quiescence(16).unwrap();
    assert_eq!(rt.peer(target).unwrap().pending_delegations().len(), 1);
    rt
}

/// Puts the restarted `peer` back, tells the origin its correspondent
/// restarted, and runs to quiescence.
fn rejoin(rt: &mut LocalRuntime, origin: &str, peer: Peer) {
    let target = peer.name();
    rt.add_peer(peer).unwrap();
    rt.peer_mut(origin).unwrap().resync_target(target);
    rt.run_to_quiescence(16).unwrap();
}

/// Approving the surviving entry installs the rule, which then serves
/// the origin.
fn approve_and_check(rt: &mut LocalRuntime, origin: &str, target: &str) {
    let t = rt.peer_mut(target).unwrap();
    let id = t.pending_delegations()[0].delegation.id;
    t.approve_delegation(id).unwrap();
    rt.run_to_quiescence(16).unwrap();
    assert_eq!(rt.peer(origin).unwrap().relation_facts("seen").len(), 1);
}

#[test]
fn queued_delegation_survives_snapshot_restart() {
    let mut rt = queued_pair("aqsOrigin", "aqsTarget", None);
    let before = rt.remove_peer("aqsTarget").unwrap();
    let restarted = snapshot::load(&snapshot::save(&before)).unwrap();
    rejoin(&mut rt, "aqsOrigin", restarted);
    let t = rt.peer("aqsTarget").unwrap();
    assert_eq!(t.pending_delegations(), before.pending_delegations());
    approve_and_check(&mut rt, "aqsOrigin", "aqsTarget");
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wdl-approval-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The same through the storage engine: the stage that queues the
/// delegation logs it in a Meta record, and `Engine::recover` restores
/// it. A rejection is durable too.
#[test]
fn queued_delegation_survives_engine_recover() {
    let root = tmp_root("engine");
    let mut store = DurableStore::new(DurabilityConfig::new(&root));
    let mut rt = queued_pair("aqeOrigin", "aqeTarget", Some(&mut store));

    let queued = rt
        .remove_peer("aqeTarget")
        .unwrap()
        .pending_delegations()
        .to_vec();
    rejoin(&mut rt, "aqeOrigin", store.recover("aqeTarget").unwrap());
    assert_eq!(rt.peer("aqeTarget").unwrap().pending_delegations(), queued);

    // Rejecting empties the queue on disk as well.
    let t = rt.peer_mut("aqeTarget").unwrap();
    t.reject_delegation(queued[0].delegation.id).unwrap();
    t.sync_durability().unwrap();
    drop(rt.remove_peer("aqeTarget"));
    let t = store.recover(Symbol::intern("aqeTarget")).unwrap();
    assert!(t.pending_delegations().is_empty());
    assert!(t.installed_delegations().is_empty());
    let _ = fs::remove_dir_all(&root);
}

/// An origin that revokes a delegation still waiting for approval takes
/// it out of the durable queue.
#[test]
fn revoked_pending_delegation_stays_gone_after_recover() {
    let root = tmp_root("revoke");
    let mut store = DurableStore::new(DurabilityConfig::new(&root));
    let mut rt = queued_pair("aqrOrigin", "aqrTarget", Some(&mut store));

    let origin = rt.peer_mut("aqrOrigin").unwrap();
    let rule = origin.rules()[0].id;
    origin.remove_rule(rule).unwrap();
    rt.run_to_quiescence(16).unwrap();
    assert!(rt
        .peer("aqrTarget")
        .unwrap()
        .pending_delegations()
        .is_empty());

    drop(rt.remove_peer("aqrTarget"));
    let t = store.recover(Symbol::intern("aqrTarget")).unwrap();
    assert!(t.pending_delegations().is_empty());
    let _ = fs::remove_dir_all(&root);
}
