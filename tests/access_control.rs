//! Integration tests for the paper's access-control model (§2 sketch +
//! §3 demo policy): relation write grants, delegated-rule read grants, the
//! provenance-derived view policy, and declassification.

use webdamlog::core::acl::UntrustedPolicy;
use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::{Peer, RelationKind};
use webdamlog::datalog::Value;
use webdamlog::parser::parse_rule;

fn open_peer(name: &str) -> Peer {
    let mut p = Peer::new(name);
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    p
}

/// Write grants gate explicit remote updates.
#[test]
fn write_grants_gate_updates() {
    let mut rt = LocalRuntime::new();
    let mut target = open_peer("wgTarget");
    target
        .declare("inbox", 1, RelationKind::Extensional)
        .unwrap();
    target.acl_mut().grant_write("inbox", "wgFriend");
    rt.add_peer(target).unwrap();
    rt.add_peer(open_peer("wgFriend")).unwrap();
    rt.add_peer(open_peer("wgStranger")).unwrap();

    rt.peer_mut("wgFriend")
        .unwrap()
        .insert_remote("wgTarget", "inbox", vec![Value::from("hi")]);
    rt.peer_mut("wgStranger").unwrap().insert_remote(
        "wgTarget",
        "inbox",
        vec![Value::from("spam")],
    );
    rt.run_to_quiescence(16).unwrap();

    let inbox = rt.peer("wgTarget").unwrap().relation_facts("inbox");
    assert_eq!(inbox.len(), 1, "only the granted writer got through");
    assert_eq!(inbox[0][0], Value::from("hi"));
}

/// Read grants gate what a delegated rule may consume.
#[test]
fn read_grants_gate_delegated_rules() {
    let mut rt = LocalRuntime::new();

    // The data owner restricts `pictures` to nobody (initially).
    let mut owner = open_peer("rgOwner");
    owner
        .insert_local("pictures", vec![Value::from(1)])
        .unwrap();
    owner.acl_mut().restrict_read("pictures");
    rt.add_peer(owner).unwrap();

    // A reader installs a view rule by delegation.
    let mut reader = open_peer("rgReader");
    reader
        .declare("view", 1, RelationKind::Intensional)
        .unwrap();
    reader
        .add_rule(parse_rule("view@rgReader($x) :- pictures@rgOwner($x);").unwrap())
        .unwrap();
    rt.add_peer(reader).unwrap();

    rt.run_to_quiescence(16).unwrap();
    assert!(
        rt.peer("rgReader")
            .unwrap()
            .relation_facts("view")
            .is_empty(),
        "restricted relation leaks nothing"
    );

    // Granting read access lets the already-installed rule flow.
    rt.peer_mut("rgOwner")
        .unwrap()
        .acl_mut()
        .grant_read("pictures", "rgReader");
    // Touch the owner's data so the runtime re-derives (grants are not
    // change-tracked; any stage re-runs installed rules).
    rt.peer_mut("rgOwner")
        .unwrap()
        .insert_local("pictures", vec![Value::from(2)])
        .unwrap();
    rt.run_to_quiescence(16).unwrap();
    assert_eq!(
        rt.peer("rgReader").unwrap().relation_facts("view").len(),
        2,
        "after the grant, the delegated rule reads freely"
    );
}

/// The provenance-derived default policy: a view over a restricted base is
/// itself restricted; declassifying the view opens it.
#[test]
fn provenance_view_policy_and_declassification() {
    let mut rt = LocalRuntime::new();

    // Owner: private base relation + a public-looking view over it.
    let mut owner = open_peer("pvOwner");
    owner
        .insert_local("salaries", vec![Value::from(100_000)])
        .unwrap();
    owner
        .declare("stats", 1, RelationKind::Intensional)
        .unwrap();
    owner
        .add_rule(parse_rule("stats@pvOwner($x) :- salaries@pvOwner($x);").unwrap())
        .unwrap();
    owner.acl_mut().restrict_read("salaries");
    rt.add_peer(owner).unwrap();

    // Reader tries to read the *view* by delegation.
    let mut reader = open_peer("pvReader");
    reader.declare("out", 1, RelationKind::Intensional).unwrap();
    reader
        .add_rule(parse_rule("out@pvReader($x) :- stats@pvOwner($x);").unwrap())
        .unwrap();
    rt.add_peer(reader).unwrap();

    rt.run_to_quiescence(16).unwrap();
    assert!(
        rt.peer("pvReader")
            .unwrap()
            .relation_facts("out")
            .is_empty(),
        "view inherits the base restriction through provenance"
    );

    // The owner declassifies the view ("effectively declassifying some
    // data", §2) — without touching the base restriction.
    rt.peer_mut("pvOwner")
        .unwrap()
        .acl_mut()
        .declassify("stats");
    rt.peer_mut("pvOwner")
        .unwrap()
        .insert_local("salaries", vec![Value::from(90_000)])
        .unwrap();
    rt.run_to_quiescence(16).unwrap();
    assert_eq!(
        rt.peer("pvReader").unwrap().relation_facts("out").len(),
        2,
        "declassified view is readable"
    );

    // The base itself stays unreadable by delegation.
    let mut rt2 = LocalRuntime::new();
    let mut owner2 = open_peer("pv2Owner");
    owner2
        .insert_local("salaries", vec![Value::from(1)])
        .unwrap();
    owner2.acl_mut().restrict_read("salaries");
    owner2.acl_mut().declassify("stats");
    rt2.add_peer(owner2).unwrap();
    let mut reader2 = open_peer("pv2Reader");
    reader2
        .declare("leak", 1, RelationKind::Intensional)
        .unwrap();
    reader2
        .add_rule(parse_rule("leak@pv2Reader($x) :- salaries@pv2Owner($x);").unwrap())
        .unwrap();
    rt2.add_peer(reader2).unwrap();
    rt2.run_to_quiescence(16).unwrap();
    assert!(rt2
        .peer("pv2Reader")
        .unwrap()
        .relation_facts("leak")
        .is_empty());
}

/// The owner's own rules are never gated by grants (discretionary model:
/// you always see your own data).
#[test]
fn owner_rules_unaffected_by_restrictions() {
    let mut rt = LocalRuntime::new();
    let mut p = open_peer("selfOwner");
    p.insert_local("private", vec![Value::from(5)]).unwrap();
    p.declare("mine", 1, RelationKind::Intensional).unwrap();
    p.add_rule(parse_rule("mine@selfOwner($x) :- private@selfOwner($x);").unwrap())
        .unwrap();
    p.acl_mut().restrict_read("private");
    rt.add_peer(p).unwrap();
    rt.run_to_quiescence(16).unwrap();
    assert_eq!(
        rt.peer("selfOwner").unwrap().relation_facts("mine").len(),
        1
    );
}

/// Blocked reads are observable in stage stats.
#[test]
fn blocked_reads_are_counted() {
    let mut owner = open_peer("cntOwner");
    owner.insert_local("secret", vec![Value::from(1)]).unwrap();
    owner.acl_mut().restrict_read("secret");
    // Install a delegation by hand through the message path.
    let d = webdamlog::core::Delegation::new(
        webdamlog::datalog::Symbol::intern("cntReader"),
        webdamlog::datalog::Symbol::intern("cntOwner"),
        parse_rule("out@cntReader($x) :- secret@cntOwner($x);").unwrap(),
    );
    owner.enqueue(webdamlog::core::Message::new(
        webdamlog::datalog::Symbol::intern("cntReader"),
        webdamlog::datalog::Symbol::intern("cntOwner"),
        webdamlog::core::Payload::Delegate(vec![d]),
    ));
    let out = owner.run_stage().unwrap();
    assert_eq!(out.stats.reads_blocked, 1);
}
