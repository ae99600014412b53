//! Shared experiment workload builders.
//!
//! E10 (incremental maintenance) and E12 (interned data plane) measure
//! against the same two Wepic-flavoured workloads; building them here
//! keeps the benches comparable. The fixpoint workload keeps its E11 name
//! (the retired parallel-fixpoint bench it was built for), and E12's
//! `fixpoint_speedup_1488` gate is pinned on it.

use wdl_datalog::{Atom, BodyItem, Database, Fact, Program, Rule, Term, Value};
use wepic::PictureCorpus;

fn atom(pred: &str, vars: &[&str]) -> Atom {
    Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
}

/// The E11 reachability/feed program:
///
/// ```text
/// reach(x, y) :- knows(x, y)
/// reach(x, z) :- reach(x, y), knows(y, z)
/// feed(p, id) :- reach(p, q), pictures(id, n, q, d)
/// ```
pub fn reach_program() -> Program {
    Program::new(vec![
        Rule::new(
            atom("reach", &["x", "y"]),
            vec![atom("knows", &["x", "y"]).into()],
        ),
        Rule::new(
            atom("reach", &["x", "z"]),
            vec![
                atom("reach", &["x", "y"]).into(),
                atom("knows", &["y", "z"]).into(),
            ],
        ),
        Rule::new(
            atom("feed", &["p", "id"]),
            vec![
                atom("reach", &["p", "q"]).into(),
                atom("pictures", &["id", "n", "q", "d"]).into(),
            ],
        ),
    ])
    .unwrap()
}

/// The E11 base: `comps` disjoint friendship components ("tables" at the
/// conference) of `persons` people each — a ring plus deterministic chords,
/// so `reach` closes each component to `persons²` pairs over ~`persons`
/// delta rounds — with `pics` corpus pictures uploaded per person.
pub fn reach_base(comps: usize, persons: usize, pics: usize) -> Database {
    let mut db = Database::new();
    let mut corpus = PictureCorpus::new(0xE11);
    let mut pic_id = 0i64;
    for c in 0..comps {
        for i in 0..persons {
            let name = format!("p{c}n{i}");
            let next = format!("p{c}n{}", (i + 1) % persons);
            db.insert(Fact::new(
                "knows",
                vec![Value::from(name.as_str()), Value::from(next.as_str())],
            ))
            .unwrap();
            if i % 3 == 0 {
                let chord = format!("p{c}n{}", (i * 7 + 3) % persons);
                db.insert(Fact::new(
                    "knows",
                    vec![Value::from(name.as_str()), Value::from(chord.as_str())],
                ))
                .unwrap();
            }
            for pic in corpus.pictures(&name, pics, 16) {
                db.insert(Fact::new(
                    "pictures",
                    vec![
                        Value::from(pic_id),
                        Value::from(pic.name.as_str()),
                        Value::from(pic.owner.as_str()),
                        Value::from(pic.data.clone()),
                    ],
                ))
                .unwrap();
                pic_id += 1;
            }
        }
    }
    db
}

/// The E10 Wepic visibility program:
///
/// ```text
/// taggedPics(id, p) :- tag(id, p), friends(p)
/// visible(id, owner) :- pictures(id, n, owner, d), taggedPics(id, p)
/// feed(owner, id)   :- visible(id, owner), not muted(owner)
/// ```
pub fn wepic_program() -> Program {
    Program::new(vec![
        Rule::new(
            atom("taggedPics", &["id", "p"]),
            vec![
                atom("tag", &["id", "p"]).into(),
                atom("friends", &["p"]).into(),
            ],
        ),
        Rule::new(
            atom("visible", &["id", "owner"]),
            vec![
                atom("pictures", &["id", "n", "owner", "d"]).into(),
                atom("taggedPics", &["id", "p"]).into(),
            ],
        ),
        Rule::new(
            atom("feed", &["owner", "id"]),
            vec![
                atom("visible", &["id", "owner"]).into(),
                BodyItem::not_atom(atom("muted", &["owner"])),
            ],
        ),
    ])
    .unwrap()
}

/// The E10 base: `pics` pictures, `tags_per` tags each over `persons`
/// people (all friended, a few owners muted).
pub fn wepic_base(pics: usize, tags_per: usize, persons: usize) -> Database {
    let mut db = Database::new();
    for p in 0..persons {
        db.insert(Fact::new("friends", vec![Value::from(format!("p{p}"))]))
            .unwrap();
        if p % 17 == 0 {
            db.insert(Fact::new(
                "muted",
                vec![Value::from(format!("owner{}", p % 50))],
            ))
            .unwrap();
        }
    }
    for i in 0..pics {
        db.insert(Fact::new(
            "pictures",
            vec![
                Value::from(i as i64),
                Value::from(format!("pic{i}.jpg")),
                Value::from(format!("owner{}", i % 50)),
                Value::bytes(&[(i % 251) as u8]),
            ],
        ))
        .unwrap();
        for t in 0..tags_per {
            db.insert(Fact::new(
                "tag",
                vec![
                    Value::from(i as i64),
                    Value::from(format!("p{}", (i * 7 + t * 13) % persons)),
                ],
            ))
            .unwrap();
        }
    }
    db
}

/// The E10 churn facts: one tag to untag, one friend to unfriend.
pub fn churn_facts(pics: usize, persons: usize) -> (Fact, Fact) {
    let i = pics / 2;
    let tag = Fact::new(
        "tag",
        vec![
            Value::from(i as i64),
            Value::from(format!("p{}", (i * 7) % persons)),
        ],
    );
    let friend = Fact::new("friends", vec![Value::from(format!("p{}", persons / 2))]);
    (tag, friend)
}
