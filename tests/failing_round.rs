//! A round in which one peer's stage fails still delivers what the other
//! peers sent.
//!
//! A peer records facts as sent the moment its stage returns, so a runtime
//! that dropped a round's messages because some other peer failed would
//! lose them for good: the sender never ships them again. Both in-process
//! runtimes run every scheduled peer, route the messages of every peer
//! whose stage succeeded, and only then return the earliest failure.
//!
//! Setup: `a` ships `mail@c(1)`; `b` holds a fact that binds a relation
//! variable to the integer 5, which fails its stage with
//! `BadNameBinding`; `c` is empty. The failing peer stays scheduled, so
//! the next round fails again. Once `b` is fixed, `c.mail` must hold the
//! row `a` sent during the first failing round.

use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::shard::ShardedRuntime;
use webdamlog::core::{Peer, WdlError};
use webdamlog::datalog::Value;
use webdamlog::parser::parse_rule;

fn peers() -> Vec<Peer> {
    let mut a = Peer::new("a");
    a.add_rule(parse_rule("mail@c($x) :- item@a($x);").unwrap())
        .unwrap();
    a.insert_local("item", vec![Value::from(1)]).unwrap();
    let mut b = Peer::new("b");
    b.add_rule(parse_rule("$r@b($x) :- bad@b($r, $x);").unwrap())
        .unwrap();
    b.insert_local("bad", vec![Value::from(5), Value::from(1)])
        .unwrap();
    vec![a, b, Peer::new("c")]
}

fn bad_fact() -> Vec<Value> {
    vec![Value::from(5), Value::from(1)]
}

#[test]
fn local_runtime_routes_the_messages_of_a_failing_round() {
    let mut rt = LocalRuntime::new();
    for p in peers() {
        rt.add_peer(p).unwrap();
    }
    assert!(matches!(rt.tick(), Err(WdlError::BadNameBinding(_))));
    assert!(matches!(rt.tick(), Err(WdlError::BadNameBinding(_))));
    rt.peer_mut("b")
        .unwrap()
        .delete_local("bad", bad_fact())
        .unwrap();
    assert!(rt.run_to_quiescence(16).unwrap().quiescent);
    assert_eq!(rt.peer("c").unwrap().relation_facts("mail").len(), 1);
}

#[test]
fn sharded_runtime_routes_the_messages_of_a_failing_round() {
    let mut rt = ShardedRuntime::new(2);
    for p in peers() {
        rt.add_peer(p).unwrap();
    }
    assert!(matches!(rt.tick(), Err(WdlError::BadNameBinding(_))));
    assert!(matches!(rt.tick(), Err(WdlError::BadNameBinding(_))));
    rt.delete_local("b", "bad", bad_fact()).unwrap();
    assert!(rt.run_to_quiescence(16).unwrap().quiescent);
    assert_eq!(rt.relation_facts("c", "mail").unwrap().len(), 1);
}
