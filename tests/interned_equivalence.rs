//! Property tests for the interned data plane and compiled-rule engine
//! (ISSUE 4): the compiled register-file evaluator over interned ids must
//! be **semantically invisible** — identical relation sets and identical
//! `EvalStats` to the symbol-keyed substitution interpreter it replaced —
//! and interning must never leak `ValueId`s onto the wire or into saved
//! state.
//!
//! Seeded hand-rolled generators (no `proptest` offline); failures name
//! the case seed for replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdamlog::core::acl::UntrustedPolicy;
use webdamlog::core::Peer;
use webdamlog::datalog::aggregate::{AggFunc, AggQuery};
use webdamlog::datalog::incremental::{Delta, MaterializedView};
use webdamlog::datalog::{
    Atom, BodyItem, CmpOp, Database, EvalConfig, EvalStats, Fact, Program, Rule, Subst, Term, Value,
};
use webdamlog::net::{codec, snapshot};

fn atom(pred: &str, vars: &[&str]) -> Atom {
    Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
}

/// A program mixing every body-item kind across three strata: recursion
/// (DRed territory), stratified negation, a comparison filter and an
/// arithmetic assignment — over string *and* integer columns so value
/// interning sees mixed types.
fn mixed_program() -> Program {
    Program::new(vec![
        Rule::new(atom("reach", &["x"]), vec![atom("src", &["x"]).into()]),
        Rule::new(
            atom("reach", &["y"]),
            vec![
                atom("reach", &["x"]).into(),
                atom("edge", &["x", "y"]).into(),
            ],
        ),
        Rule::new(
            atom("unreach", &["x"]),
            vec![
                atom("node", &["x"]).into(),
                BodyItem::not_atom(atom("reach", &["x"])),
            ],
        ),
        // score(x, y+1) :- unreach(x), weight(x, y), y >= 2
        Rule::new(
            atom("score", &["x", "z"]),
            vec![
                atom("unreach", &["x"]).into(),
                atom("weight", &["x", "y"]).into(),
                BodyItem::cmp(CmpOp::Ge, Term::var("y"), Term::cst(2)),
                BodyItem::assign(
                    "z",
                    webdamlog::datalog::Expr::bin(
                        webdamlog::datalog::BinOp::Add,
                        webdamlog::datalog::Expr::term(Term::var("y")),
                        webdamlog::datalog::Expr::term(Term::cst(1)),
                    ),
                ),
            ],
        ),
        // label(x, n) :- score(x, s), tagname(s, n)  — string join on top
        Rule::new(
            atom("label", &["x", "n"]),
            vec![
                atom("score", &["x", "s"]).into(),
                atom("tagname", &["s", "n"]).into(),
            ],
        ),
    ])
    .unwrap()
}

fn random_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    let nodes = rng.gen_range(4..20i64);
    for n in 0..nodes {
        db.insert(Fact::new("node", vec![Value::from(n)])).unwrap();
        if rng.gen_bool(0.6) {
            db.insert(Fact::new(
                "weight",
                vec![Value::from(n), Value::from(rng.gen_range(0..6i64))],
            ))
            .unwrap();
        }
    }
    for _ in 0..rng.gen_range(3..40) {
        db.insert(Fact::new(
            "edge",
            vec![
                Value::from(rng.gen_range(0..nodes)),
                Value::from(rng.gen_range(0..nodes)),
            ],
        ))
        .unwrap();
    }
    db.insert(Fact::new("src", vec![Value::from(0)])).unwrap();
    for s in 0..7i64 {
        db.insert(Fact::new(
            "tagname",
            vec![Value::from(s), Value::from(format!("tag-{s}"))],
        ))
        .unwrap();
    }
    db
}

fn assert_dbs_equal(a: &Database, b: &Database, ctx: &str) {
    assert_eq!(a.fact_count(), b.fact_count(), "{ctx}: fact counts differ");
    for fact in a.facts() {
        assert!(b.contains(&fact), "{ctx}: {fact} missing");
    }
}

/// Compiled ≡ interpreted through the seminaive fixpoint — relation sets
/// *and* `EvalStats` — and both ≡ the interpreted naive reference, over
/// random mixed programs.
#[test]
fn compiled_equals_interpreted_seminaive_and_naive() {
    for case in 0u64..15 {
        let mut rng = StdRng::seed_from_u64(0x12E_000 + case);
        let db = random_db(&mut rng);
        let program = mixed_program();
        let interp = program
            .clone()
            .with_eval_config(EvalConfig::default().with_compiled(false));

        let eval = |p: &Program| {
            let (mut out, mut stats) = (db.clone(), EvalStats::default());
            p.eval_in_place(&mut out, &mut stats).unwrap();
            (out, stats)
        };
        let (old, old_stats) = eval(&interp);
        let (new, new_stats) = eval(&program);
        let ctx = format!("case {case}");
        assert_dbs_equal(&new, &old, &ctx);
        assert_eq!(new_stats, old_stats, "{ctx}: stats differ");
        let naive = program.eval_naive(&db).unwrap();
        assert_dbs_equal(&new, &naive, &format!("{ctx}, naive"));
    }
}

/// Compiled ≡ interpreted through the incremental engine: two
/// `MaterializedView`s absorb the same random interleaved insert/delete
/// batches; after every batch the materializations, the returned deltas
/// and the from-scratch recomputation must all agree.
#[test]
fn compiled_equals_interpreted_incremental() {
    for case in 0u64..10 {
        let mut rng = StdRng::seed_from_u64(0x12E_100 + case);
        let base = random_db(&mut rng);
        let compiled_view = Program::new(mixed_program().rules().to_vec()).unwrap();
        let interp_view = compiled_view
            .clone()
            .with_eval_config(EvalConfig::default().with_compiled(false));
        let mut vc = MaterializedView::new(compiled_view, base.clone()).unwrap();
        let mut vi = MaterializedView::new(interp_view, base.clone()).unwrap();
        assert_dbs_equal(vc.database(), vi.database(), &format!("case {case} init"));

        let nodes = 20i64;
        for batch in 0..5 {
            let mut delta = Delta::new();
            for _ in 0..rng.gen_range(1..6) {
                let fact = match rng.gen_range(0..4) {
                    0 => Fact::new(
                        "edge",
                        vec![
                            Value::from(rng.gen_range(0..nodes)),
                            Value::from(rng.gen_range(0..nodes)),
                        ],
                    ),
                    1 => Fact::new("node", vec![Value::from(rng.gen_range(0..nodes))]),
                    2 => Fact::new(
                        "weight",
                        vec![
                            Value::from(rng.gen_range(0..nodes)),
                            Value::from(rng.gen_range(0..6i64)),
                        ],
                    ),
                    _ => Fact::new("src", vec![Value::from(rng.gen_range(0..4i64))]),
                };
                if rng.gen_bool(0.5) {
                    delta.insert(fact);
                } else {
                    delta.delete(fact);
                }
            }
            let out_c = vc.apply(&delta).unwrap();
            let out_i = vi.apply(&delta).unwrap();
            let ctx = format!("case {case} batch {batch}");
            assert_dbs_equal(vc.database(), vi.database(), &ctx);
            let norm = |d: &Delta| {
                let mut ins: Vec<String> = d.inserts.iter().map(|f| f.to_string()).collect();
                let mut del: Vec<String> = d.deletes.iter().map(|f| f.to_string()).collect();
                ins.sort();
                del.sort();
                (ins, del)
            };
            assert_eq!(
                norm(&out_c),
                norm(&out_i),
                "{ctx}: observable deltas differ"
            );
            let scratch = vc.recompute().unwrap();
            assert_dbs_equal(vc.database(), &scratch, &format!("{ctx} vs recompute"));
        }
    }
}

/// Aggregates ride the boundary API (`evaluate_body` over values): the
/// same query over compiled- and interpreted-materialized databases must
/// produce identical rows.
#[test]
fn aggregates_agree_over_both_engines() {
    let mut rng = StdRng::seed_from_u64(0x12E_200);
    let db = random_db(&mut rng);
    let program = mixed_program();
    let compiled = program.eval(&db).unwrap();
    let interp = program
        .clone()
        .with_eval_config(EvalConfig::default().with_compiled(false))
        .eval(&db)
        .unwrap();
    let q = AggQuery {
        body: vec![atom("score", &["x", "s"]).into()],
        group_by: vec!["x".into()],
        func: AggFunc::Max,
        over: Some("s".into()),
    };
    assert_eq!(q.eval(&compiled).unwrap(), q.eval(&interp).unwrap());
}

/// Growing the interner between two encodings of the same message must not
/// change a single wire byte: `ValueId`s are process-local and the codec
/// serializes values, never ids. (The id type implements neither
/// `Serialize` nor `Deserialize`, so this is enforced at the type level
/// too — this test pins the observable behavior.)
#[test]
fn interning_is_invisible_on_the_wire() {
    use webdamlog::core::{FactKind, Message, Payload, WFact};

    let fact = |i: i64| {
        WFact::new(
            "pictures",
            "alice",
            vec![
                Value::from(i),
                Value::from(format!("wire-pic-{i}.jpg")),
                Value::bytes(&[1, 2, 3, (i % 250) as u8]),
            ],
        )
    };
    let msg = Message::new(
        "alice".into(),
        "bob".into(),
        Payload::Facts {
            kind: FactKind::Persistent,
            additions: (0..8).map(fact).collect(),
            retractions: (8..10).map(fact).collect(),
        },
    );
    let before = codec::encode(&msg);

    // Skew the interner: thousands of fresh values shift every id that
    // would be assigned from here on. A leaked id would change the bytes.
    let mut skew = Database::new();
    for i in 0..2000i64 {
        skew.insert(Fact::new(
            "skew",
            vec![Value::from(format!("interner-skew-{i}"))],
        ))
        .unwrap();
    }

    let after = codec::encode(&msg);
    assert_eq!(
        before.as_ref(),
        after.as_ref(),
        "wire bytes depend on interner state"
    );
    // And the payload round-trips by value.
    let decoded = codec::decode(&before).unwrap();
    match decoded.payload {
        Payload::Facts {
            additions,
            retractions,
            ..
        } => {
            assert_eq!(additions.len(), 8);
            assert_eq!(retractions.len(), 2);
            assert_eq!(additions[3].tuple[1], Value::from("wire-pic-3.jpg"));
        }
        other => panic!("wrong payload variant: {other:?}"),
    }
}

/// Snapshots store values, not ids: saving a peer, skewing the interner,
/// and saving again yields byte-identical state, and a loaded peer answers
/// queries with equal *values*.
#[test]
fn interning_is_invisible_in_snapshots() {
    let mut peer = Peer::new("snapper");
    peer.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    for i in 0..20i64 {
        peer.insert_local(
            "pictures",
            vec![
                Value::from(i),
                Value::from(format!("snap-{i}.jpg")),
                Value::from("snapper"),
                Value::bytes(&[9, 9, (i % 100) as u8]),
            ],
        )
        .unwrap();
    }
    let before = snapshot::save(&peer);

    let mut skew = Database::new();
    for i in 0..2000i64 {
        skew.insert(Fact::new(
            "skew2",
            vec![Value::from(format!("snapshot-skew-{i}"))],
        ))
        .unwrap();
    }

    let after = snapshot::save(&peer);
    assert_eq!(
        before.as_ref(),
        after.as_ref(),
        "snapshot bytes depend on interner state"
    );

    let restored = snapshot::load(&before).unwrap();
    let q = |p: &Peer| {
        let mut rows: Vec<String> = p
            .relation_facts("pictures")
            .into_iter()
            .map(|t| format!("{t:?}"))
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(q(&peer), q(&restored));
    let _ = Subst::new(); // keep the import exercised under all features
}

/// Storage segments are interner-portable: a segment written in one
/// process must load into a process whose interner assigned completely
/// different ids. Segments store the referenced values by content and
/// local column indexes, so a skewed global interner on the loading side
/// must change neither the decoded bytes' meaning nor the facts.
#[test]
fn segments_survive_a_skewed_interner() {
    use webdamlog::core::RelationKind;
    use webdamlog::net::snapshot::{read_segment, write_segment_bytes};

    let mut writer = Peer::new("segwriter");
    writer
        .acl_mut()
        .set_untrusted_policy(UntrustedPolicy::Accept);
    for i in 0..32i64 {
        writer
            .insert_local(
                "pictures",
                vec![
                    Value::from(i),
                    Value::from(format!("seg-{i}.jpg")),
                    Value::bytes(&[7, (i % 120) as u8]),
                ],
            )
            .unwrap();
    }
    let dumps = writer.export_extensional();
    let (rel, dump) = dumps
        .iter()
        .find(|(r, _)| r.as_str() == "pictures")
        .expect("pictures exported");
    let bytes = write_segment_bytes(*rel, dump);

    // Skew the interner hard: every id assigned from here on differs
    // from the ids the writer's columns referenced.
    let mut skew = Database::new();
    for i in 0..3000i64 {
        skew.insert(Fact::new(
            "skew3",
            vec![Value::from(format!("segment-skew-{i}"))],
        ))
        .unwrap();
    }

    let (got_rel, got_dump) = read_segment(&bytes, "test.seg").unwrap();
    assert_eq!(got_rel, *rel);
    let mut reader = Peer::new("segwriter");
    reader
        .declare("pictures", 3, RelationKind::Extensional)
        .unwrap();
    reader.import_extensional(got_rel, &got_dump).unwrap();

    let rows = |p: &Peer| {
        let mut v: Vec<String> = p
            .relation_facts("pictures")
            .into_iter()
            .map(|t| format!("{t:?}"))
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        rows(&writer),
        rows(&reader),
        "values changed across the skew"
    );
    assert_eq!(rows(&reader).len(), 32);
}
