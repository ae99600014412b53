//! Property test for the incremental maintenance engine: for random
//! interleaved insert/delete sequences — part written ahead of maintenance
//! through `MaterializedView::write_base`, the rest passed to
//! `MaterializedView::apply` — the materialization must equal a
//! from-scratch seminaive recomputation over the final base, including
//! across strata with negation and base facts of derived predicates, and
//! the returned deltas must be exactly the membership changes.
//!
//! Hand-rolled generators over a seeded PRNG (no `proptest` offline);
//! failures name the case seed for replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use webdamlog::datalog::incremental::{Delta, MaterializedView};
use webdamlog::datalog::{Atom, BodyItem, Database, Fact, Program, Rule, Term, Value};

fn atom(pred: &str, vars: &[&str]) -> Atom {
    Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
}

fn fact(pred: &str, vals: &[i64]) -> Fact {
    Fact::new(pred, vals.iter().map(|&v| Value::from(v)))
}

/// Transitive closure: one recursive stratum (exercises DRed).
fn tc_program() -> Program {
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

/// Three strata: recursive reach, negation on top of it, and a counting
/// layer joining through the negation — the "across strata with negation"
/// shape the issue calls for.
fn reach_program() -> Program {
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
        Rule::new(
            atom("alert", &["x", "y"]),
            vec![
                atom("unreach", &["x"]).into(),
                atom("watch", &["x", "y"]).into(),
            ],
        ),
    ])
    .unwrap()
}

/// The candidate base-fact pool for a program (small domains make
/// collisions — repeated insert/delete of the same fact — likely). Base
/// facts of derived predicates (`path`, `reach`) carry external support.
fn pool(program: usize, rng: &mut StdRng) -> Fact {
    match program {
        0 => match rng.gen_range(0..4u32) {
            0 => fact("path", &[rng.gen_range(0..8), rng.gen_range(0..8)]),
            _ => fact("edge", &[rng.gen_range(0..8), rng.gen_range(0..8)]),
        },
        _ => match rng.gen_range(0..5u32) {
            0 => fact("edge", &[rng.gen_range(0..6), rng.gen_range(0..6)]),
            1 => fact("src", &[rng.gen_range(0..6)]),
            2 => fact("node", &[rng.gen_range(0..6)]),
            3 => fact("reach", &[rng.gen_range(0..6)]),
            _ => fact("watch", &[rng.gen_range(0..6), rng.gen_range(0..10)]),
        },
    }
}

fn databases_equal(a: &Database, b: &Database) -> bool {
    a.facts().all(|f| b.contains(&f)) && b.facts().all(|f| a.contains(&f))
}

/// Core property: after every applied batch, the maintained database
/// equals the from-scratch evaluation over the current base, and the
/// reported delta equals the observed membership change.
fn check_interleavings(program_id: usize, make_program: fn() -> Program, cases: u64, seed0: u64) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed0 + case);
        // Random initial base.
        let mut base = Database::new();
        for _ in 0..rng.gen_range(0..20usize) {
            let _ = base.insert(pool(program_id, &mut rng));
        }
        let mut view = MaterializedView::new(make_program(), base).unwrap();

        let batches = rng.gen_range(1..8usize);
        for batch_no in 0..batches {
            // Random interleaved batch: inserts and deletes, possibly of
            // the same fact, possibly no-ops. Each change is either
            // written ahead of maintenance or queued in the delta.
            let before: HashSet<Fact> = view.database().facts().collect();
            let mut delta = Delta::new();
            for _ in 0..rng.gen_range(1..10usize) {
                let f = pool(program_id, &mut rng);
                let added = rng.gen_bool(0.5);
                if rng.gen_bool(0.5) {
                    let held = view
                        .base_relation(f.pred)
                        .is_some_and(|r| r.contains(&f.tuple));
                    assert_eq!(
                        view.write_base(&f, added).unwrap(),
                        held != added,
                        "program {program_id} case {case} batch {batch_no}: \
                         write_base reports a base membership change"
                    );
                } else if added {
                    delta.insert(f);
                } else {
                    delta.delete(f);
                }
            }
            let out = view.apply(&delta).unwrap();
            let after: HashSet<Fact> = view.database().facts().collect();

            // 1. Equivalence with from-scratch seminaive recomputation.
            let reference = view.recompute().unwrap();
            assert!(
                databases_equal(view.database(), &reference),
                "program {program_id} case {case} batch {batch_no}: \
                 incremental != recompute after {delta:?}"
            );

            // 2. The returned delta is exactly the membership change.
            let expect_ins: HashSet<Fact> = after.difference(&before).cloned().collect();
            let expect_del: HashSet<Fact> = before.difference(&after).cloned().collect();
            let got_ins: HashSet<Fact> = out.inserts.iter().cloned().collect();
            let got_del: HashSet<Fact> = out.deletes.iter().cloned().collect();
            assert_eq!(
                got_ins, expect_ins,
                "program {program_id} case {case} batch {batch_no}: insert delta"
            );
            assert_eq!(
                got_del, expect_del,
                "program {program_id} case {case} batch {batch_no}: delete delta"
            );
        }
    }
}

#[test]
fn recursive_program_matches_recompute_under_interleaving() {
    check_interleavings(0, tc_program, 48, 0x19C0_0000);
}

#[test]
fn stratified_negation_matches_recompute_under_interleaving() {
    check_interleavings(1, reach_program, 48, 0xD4ED_0001);
}

/// Single-fact churn on a larger database: repeated delete/re-insert of
/// the same fact always returns to the identical materialization.
#[test]
fn churn_is_reversible() {
    let mut base = Database::new();
    for i in 0..40i64 {
        base.insert(fact("edge", &[i % 10, (i * 7) % 10])).unwrap();
    }
    let mut view = MaterializedView::new(tc_program(), base).unwrap();
    let initial: HashSet<Fact> = view.database().facts().collect();
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..30 {
        let f = fact("edge", &[rng.gen_range(0..10), rng.gen_range(0..10)]);
        let present = view.database().contains(&f);
        if present {
            view.apply(&Delta::deletion(f.clone())).unwrap();
            view.apply(&Delta::insertion(f)).unwrap();
        } else {
            view.apply(&Delta::insertion(f.clone())).unwrap();
            view.apply(&Delta::deletion(f)).unwrap();
        }
        let now: HashSet<Fact> = view.database().facts().collect();
        assert_eq!(now, initial, "delete/re-insert round trip drifted");
    }
}
