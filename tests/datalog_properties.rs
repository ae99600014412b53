//! Property-based tests on the datalog kernel's core invariants.
//!
//! Hand-rolled generators over a seeded PRNG (the offline environment has
//! no `proptest`): every case is deterministic, and failures print the case
//! seed so they can be replayed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdamlog::datalog::{
    Atom, BodyItem, Database, Fact, Program, Relation, Rule, Subst, Symbol, Term, Value,
};

const CASES: u64 = 64;

/// Random edge list: up to 60 edges over 12 nodes.
fn edges(rng: &mut StdRng) -> Vec<(i64, i64)> {
    let n = rng.gen_range(0..60usize);
    (0..n)
        .map(|_| (rng.gen_range(0..12i64), rng.gen_range(0..12i64)))
        .collect()
}

fn tc_program() -> Program {
    let atom = |p: &str, vs: &[&str]| Atom::new(p, vs.iter().map(|v| Term::var(*v)).collect());
    Program::new(vec![
        Rule::new(
            atom("path", &["x", "y"]),
            vec![atom("edge", &["x", "y"]).into()],
        ),
        Rule::new(
            atom("path", &["x", "z"]),
            vec![
                atom("edge", &["x", "y"]).into(),
                atom("path", &["y", "z"]).into(),
            ],
        ),
    ])
    .unwrap()
}

fn db_from_edges(edges: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    for &(a, b) in edges {
        db.insert(Fact::new("edge", vec![Value::from(a), Value::from(b)]))
            .unwrap();
    }
    db
}

/// Reference transitive closure, independently computed.
fn reference_tc(edges: &[(i64, i64)]) -> std::collections::BTreeSet<(i64, i64)> {
    let mut closure: std::collections::BTreeSet<(i64, i64)> = edges.iter().copied().collect();
    loop {
        let mut added = false;
        let snapshot: Vec<(i64, i64)> = closure.iter().copied().collect();
        for &(a, b) in edges {
            for &(c, d) in &snapshot {
                if b == c && closure.insert((a, d)) {
                    added = true;
                }
            }
        }
        if !added {
            return closure;
        }
    }
}

/// Seminaive and naive agree with each other AND with an independent
/// reference implementation on random graphs.
#[test]
fn seminaive_equals_naive_equals_reference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0001 + case);
        let edges = edges(&mut rng);
        let program = tc_program();
        let db = db_from_edges(&edges);
        let semi = program.eval(&db).unwrap();
        let naive = program.eval_naive(&db).unwrap();
        let reference = reference_tc(&edges);

        let collect = |d: &Database| -> std::collections::BTreeSet<(i64, i64)> {
            d.relation("path")
                .map(|r| {
                    r.iter()
                        .map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap()))
                        .collect()
                })
                .unwrap_or_default()
        };
        assert_eq!(collect(&semi), reference, "case {case}");
        assert_eq!(collect(&naive), reference, "case {case}");
    }
}

/// Evaluation is monotone in the input: adding facts never removes
/// derived facts.
#[test]
fn evaluation_is_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0002 + case);
        let base = edges(&mut rng);
        let extra = edges(&mut rng);
        let program = tc_program();
        let small = program.eval(&db_from_edges(&base)).unwrap();
        let mut all = base.clone();
        all.extend(extra.iter().copied());
        let big = program.eval(&db_from_edges(&all)).unwrap();
        if let Some(small_path) = small.relation("path") {
            let big_path = big.relation("path").unwrap();
            for t in small_path.iter() {
                assert!(big_path.contains(&t), "case {case}: lost {t:?}");
            }
        }
    }
}

/// Evaluation is idempotent: re-running on the saturated database adds
/// nothing.
#[test]
fn evaluation_is_idempotent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0003 + case);
        let edges = edges(&mut rng);
        let program = tc_program();
        let once = program.eval(&db_from_edges(&edges)).unwrap();
        let twice = program.eval(&once).unwrap();
        assert_eq!(once.fact_count(), twice.fact_count(), "case {case}");
    }
}

/// Relation storage behaves like a set under random insert/remove
/// sequences, and indexed lookups always agree with full scans.
#[test]
fn storage_matches_set_model() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0004 + case);
        let mut rel = Relation::new(2);
        let mut model: std::collections::HashSet<(i64, i64)> = Default::default();
        let ops = rng.gen_range(0..200usize);
        for _ in 0..ops {
            let insert = rng.gen_bool(0.5);
            let a = rng.gen_range(0..20i64);
            let b = rng.gen_range(0..20i64);
            let tuple: Box<[Value]> = vec![Value::from(a), Value::from(b)].into();
            if insert {
                assert_eq!(rel.insert(tuple).unwrap(), model.insert((a, b)));
            } else {
                assert_eq!(rel.remove(&tuple), model.remove(&(a, b)));
            }
        }
        assert_eq!(rel.len(), model.len(), "case {case}");
        // Indexed lookup on column 0 agrees with the model.
        for probe in 0..20i64 {
            let hits = rel.matches(0b01, &[Value::from(probe)]);
            let expected = model.iter().filter(|(a, _)| *a == probe).count();
            assert_eq!(hits.len(), expected, "case {case} probe {probe}");
        }
    }
}

/// Substitution unification is consistent: binding then reading back
/// returns the bound value; conflicting unification fails.
#[test]
fn subst_unification() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0005 + case);
        let mut s = Subst::new();
        let mut model: std::collections::HashMap<String, i64> = Default::default();
        let pairs = rng.gen_range(0..20usize);
        for _ in 0..pairs {
            let name = char::from(b'a' + rng.gen_range(0..5u8)).to_string();
            let val = rng.gen_range(0..10i64);
            let sym = Symbol::intern(&name);
            let expected = match model.get(&name) {
                Some(&existing) => existing == val,
                None => {
                    model.insert(name.clone(), val);
                    true
                }
            };
            assert_eq!(s.unify_var(sym, &Value::from(val)), expected, "case {case}");
        }
        for (name, val) in &model {
            assert_eq!(s.get(Symbol::intern(name)), Some(&Value::from(*val)));
        }
    }
}

/// Negation: `unreach = node − reach`, on random graphs.
#[test]
fn stratified_negation_is_complement() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0006 + case);
        let edges = edges(&mut rng);
        let src = rng.gen_range(0..12i64);
        let atom = |p: &str, vs: &[&str]| Atom::new(p, vs.iter().map(|v| Term::var(*v)).collect());
        let program = Program::new(vec![
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
        ])
        .unwrap();
        let mut db = db_from_edges(&edges);
        for n in 0..12 {
            db.insert(Fact::new("node", vec![Value::from(n)])).unwrap();
        }
        db.insert(Fact::new("src", vec![Value::from(src)])).unwrap();
        let out = program.eval(&db).unwrap();
        let reach = out.relation("reach").map(|r| r.len()).unwrap_or(0);
        let unreach = out.relation("unreach").map(|r| r.len()).unwrap_or(0);
        assert_eq!(reach + unreach, 12, "case {case}");
    }
}
