//! Peer restarts mid-conference: snapshot → drop → restore → reconverge.
//! The paper's vision (§1): users run their peers on their own machines
//! with their own data — so machines reboot and peers must come back.

use webdamlog::core::acl::UntrustedPolicy;
use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::{NoCheck, Peer, RelationKind};
use webdamlog::datalog::Value;
use webdamlog::net::snapshot;
use webdamlog::parser::{load_program_checked, parse_rule};

fn open_peer(name: &str) -> Peer {
    let mut p = Peer::new(name);
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    p
}

/// Full restart cycle: the restored peer still serves its delegated rules.
#[test]
fn restored_peer_resumes_serving_delegations() {
    let mut rt = LocalRuntime::new();

    let mut viewer = open_peer("prViewer");
    viewer
        .declare("attendeePictures", 4, RelationKind::Intensional)
        .unwrap();
    viewer
        .add_rule(
            parse_rule(
                "attendeePictures@prViewer($id,$n,$o,$d) :- \
                 selectedAttendee@prViewer($a), pictures@$a($id,$n,$o,$d);",
            )
            .unwrap(),
        )
        .unwrap();
    viewer
        .insert_local("selectedAttendee", vec![Value::from("prSource")])
        .unwrap();
    rt.add_peer(viewer).unwrap();

    let mut source = open_peer("prSource");
    load_program_checked(
        &mut source,
        r#"pictures@prSource(1, "a.jpg", "prSource", 0x01);"#,
        &NoCheck,
    )
    .unwrap();
    rt.add_peer(source).unwrap();

    rt.run_to_quiescence(32).unwrap();
    assert_eq!(
        rt.peer("prViewer")
            .unwrap()
            .relation_facts("attendeePictures")
            .len(),
        1
    );
    assert_eq!(
        rt.peer("prSource").unwrap().installed_delegations().len(),
        1
    );

    // "Reboot" the source: snapshot, remove, restore from bytes.
    let bytes = snapshot::save(rt.peer("prSource").unwrap());
    rt.remove_peer("prSource").unwrap();
    let restored = snapshot::load(&bytes).unwrap();
    assert_eq!(
        restored.installed_delegations().len(),
        1,
        "delegation survived"
    );
    rt.add_peer(restored).unwrap();

    // New data at the restored peer still flows through the delegation.
    rt.peer_mut("prSource")
        .unwrap()
        .insert_local(
            "pictures",
            vec![
                Value::from(2),
                Value::from("b.jpg"),
                Value::from("prSource"),
                Value::bytes(&[2]),
            ],
        )
        .unwrap();
    let r = rt.run_to_quiescence(32).unwrap();
    assert!(r.quiescent);
    assert_eq!(
        rt.peer("prViewer")
            .unwrap()
            .relation_facts("attendeePictures")
            .len(),
        2,
        "restored peer resumed pushing view diffs"
    );
}

/// Snapshots preserve the whole programmable surface: schema, facts,
/// rules, trust, grants — verified by behavioural equivalence after reload.
#[test]
fn snapshot_behavioural_equivalence() {
    let mut original = open_peer("beq");
    load_program_checked(
        &mut original,
        r#"
        extensional rate@beq/2;
        intensional high@beq/1;
        rate@beq(1, 5);
        rate@beq(2, 2);
        high@beq($id) :- rate@beq($id, $r), $r >= 4;
        "#,
        &NoCheck,
    )
    .unwrap();
    original.acl_mut().restrict_read("rate");

    let mut copy = snapshot::load(&snapshot::save(&original)).unwrap();
    let mut original = original;
    original.run_stage().unwrap();
    copy.run_stage().unwrap();
    assert_eq!(original.relation_facts("high"), copy.relation_facts("high"));
    assert_eq!(original.acl(), copy.acl());
}

/// File-based round trip inside a temp dir.
#[test]
fn snapshot_file_lifecycle() {
    let dir = std::env::temp_dir().join("wdl-persist-it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("it-peer.snap");

    let mut p = open_peer("filePeer");
    load_program_checked(&mut p, r#"notes@filePeer("remember this");"#, &NoCheck).unwrap();
    snapshot::save_to_file(&p, &path).unwrap();

    let q = snapshot::load_from_file(&path).unwrap();
    assert_eq!(q.relation_facts("notes").len(), 1);
    std::fs::remove_file(&path).ok();
}
