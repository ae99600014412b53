use super::*;
use crate::{Atom, BodyItem, Rule, Term, Value};

fn atom(pred: &str, vars: &[&str]) -> Atom {
    Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
}

fn fact(pred: &str, vals: &[i64]) -> Fact {
    Fact::new(pred, vals.iter().map(|&v| Value::from(v)))
}

fn edge_db(edges: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    for &(a, b) in edges {
        db.insert(fact("edge", &[a, b])).unwrap();
    }
    db
}

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

/// One non-recursive layer: good(id) :- rate(id, r), r >= 4.
fn filter_program() -> Program {
    Program::new(vec![Rule::new(
        atom("good", &["id"]),
        vec![
            atom("rate", &["id", "r"]).into(),
            BodyItem::cmp(crate::CmpOp::Ge, Term::var("r"), Term::cst(4)),
        ],
    )])
    .unwrap()
}

/// Asserts the view equals a from-scratch recomputation, relation by
/// relation, in both directions, and that `base` stores external support
/// of derived predicates only (pure EDB facts live once, in `db`).
fn assert_consistent(view: &MaterializedView) {
    for f in view.base.facts() {
        assert!(
            view.stratum_of(f.pred).is_some(),
            "base duplicates non-derived fact {f}"
        );
    }
    let reference = view.recompute().unwrap();
    let db = view.database();
    for f in reference.facts() {
        assert!(db.contains(&f), "incremental view lost {f}");
    }
    for f in db.facts() {
        assert!(reference.contains(&f), "incremental view kept stale {f}");
    }
}

#[test]
fn counting_insert_then_delete_round_trips() {
    let mut base = Database::new();
    base.insert(fact("rate", &[1, 5])).unwrap();
    base.insert(fact("rate", &[2, 2])).unwrap();
    let mut view = MaterializedView::new(filter_program(), base).unwrap();
    assert!(view.database().contains(&fact("good", &[1])));
    assert!(!view.database().contains(&fact("good", &[2])));

    let out = view
        .apply(&Delta::insertion(fact("rate", &[3, 4])))
        .unwrap();
    assert!(out.inserts.contains(&fact("good", &[3])));
    assert_consistent(&view);

    let out = view.apply(&Delta::deletion(fact("rate", &[3, 4]))).unwrap();
    assert!(out.deletes.contains(&fact("good", &[3])));
    assert!(!view.database().contains(&fact("good", &[3])));
    assert_consistent(&view);
}

#[test]
fn counting_tracks_multiple_supports() {
    // Two rules deriving the same head: support must reach zero only when
    // both derivations are gone.
    let program = Program::new(vec![
        Rule::new(atom("vis", &["x"]), vec![atom("a", &["x"]).into()]),
        Rule::new(atom("vis", &["x"]), vec![atom("b", &["x"]).into()]),
    ])
    .unwrap();
    let mut base = Database::new();
    base.insert(fact("a", &[1])).unwrap();
    base.insert(fact("b", &[1])).unwrap();
    let mut view = MaterializedView::new(program, base).unwrap();
    assert_eq!(view.support(&fact("vis", &[1])), Some(2));

    let out = view.apply(&Delta::deletion(fact("a", &[1]))).unwrap();
    assert!(out.deletes.iter().all(|f| f.pred != Symbol::intern("vis")));
    assert!(view.database().contains(&fact("vis", &[1])));
    assert_eq!(view.support(&fact("vis", &[1])), Some(1));

    let out = view.apply(&Delta::deletion(fact("b", &[1]))).unwrap();
    assert!(out.deletes.contains(&fact("vis", &[1])));
    assert_consistent(&view);
}

#[test]
fn counting_is_exact_under_self_join() {
    // pair(x,z) :- e(x,y), e(y,z): deleting e(1,1) removes derivations
    // that used it at both slots — naive differencing would double-count.
    let program = Program::new(vec![Rule::new(
        atom("pair", &["x", "z"]),
        vec![atom("e", &["x", "y"]).into(), atom("e", &["y", "z"]).into()],
    )])
    .unwrap();
    let mut base = Database::new();
    base.insert(fact("e", &[1, 1])).unwrap();
    base.insert(fact("e", &[1, 2])).unwrap();
    let mut view = MaterializedView::new(program, base).unwrap();
    // pair(1,1)=e11*e11, pair(1,2)=e11*e12.
    assert_eq!(view.support(&fact("pair", &[1, 1])), Some(1));

    view.apply(&Delta::deletion(fact("e", &[1, 1]))).unwrap();
    assert_consistent(&view);
    assert!(!view.database().contains(&fact("pair", &[1, 1])));
    assert!(!view.database().contains(&fact("pair", &[1, 2])));

    view.apply(&Delta::insertion(fact("e", &[1, 1]))).unwrap();
    assert_consistent(&view);
    assert_eq!(view.support(&fact("pair", &[1, 2])), Some(1));
}

#[test]
fn dred_chain_cut_deletes_suffix_paths() {
    let mut view = MaterializedView::new(tc_program(), edge_db(&[(1, 2), (2, 3), (3, 4)])).unwrap();
    assert_eq!(view.database().relation("path").unwrap().len(), 6);

    let out = view.apply(&Delta::deletion(fact("edge", &[2, 3]))).unwrap();
    assert_consistent(&view);
    assert_eq!(view.database().relation("path").unwrap().len(), 2);
    // edge(2,3) itself plus paths (2,3),(1,3),(2,4),(1,4).
    assert_eq!(out.deletes.len(), 5);
    assert!(out.inserts.is_empty());
}

#[test]
fn dred_rederives_through_alternative_paths() {
    // Diamond: 1→2→4 and 1→3→4; deleting 2→4 must keep path(1,4).
    let mut view =
        MaterializedView::new(tc_program(), edge_db(&[(1, 2), (2, 4), (1, 3), (3, 4)])).unwrap();
    let out = view.apply(&Delta::deletion(fact("edge", &[2, 4]))).unwrap();
    assert_consistent(&view);
    assert!(view.database().contains(&fact("path", &[1, 4])));
    // Net loss: edge(2,4) and path(2,4) only.
    assert_eq!(out.deletes.len(), 2);
}

#[test]
fn dred_cycle_does_not_self_support() {
    // 1→2→3→1 cycle plus tail 3→4; removing 1→2 must collapse the paths
    // that only the cycle supported (counting would leave them alive).
    let mut view =
        MaterializedView::new(tc_program(), edge_db(&[(1, 2), (2, 3), (3, 1), (3, 4)])).unwrap();
    let out = view.apply(&Delta::deletion(fact("edge", &[1, 2]))).unwrap();
    assert_consistent(&view);
    assert!(!out.deletes.is_empty());
    assert!(!view.database().contains(&fact("path", &[1, 2])));
    assert!(view.database().contains(&fact("path", &[3, 4])));
}

#[test]
fn dred_insertions_reconnect() {
    let mut view = MaterializedView::new(tc_program(), edge_db(&[(1, 2), (3, 4)])).unwrap();
    let out = view
        .apply(&Delta::insertion(fact("edge", &[2, 3])))
        .unwrap();
    assert_consistent(&view);
    assert_eq!(view.database().relation("path").unwrap().len(), 6);
    // edge(2,3) + paths (2,3),(1,3),(2,4),(1,4).
    assert_eq!(out.inserts.len(), 5);
}

#[test]
fn mixed_batch_insert_and_delete() {
    let mut view = MaterializedView::new(tc_program(), edge_db(&[(1, 2), (2, 3)])).unwrap();
    let mut delta = Delta::new();
    delta.delete(fact("edge", &[2, 3]));
    delta.insert(fact("edge", &[2, 4]));
    let out = view.apply(&delta).unwrap();
    assert_consistent(&view);
    assert!(out.deletes.contains(&fact("path", &[2, 3])));
    assert!(out.inserts.contains(&fact("path", &[2, 4])));
    assert!(out.inserts.contains(&fact("path", &[1, 4])));
}

#[test]
fn negation_across_strata_flips_signs() {
    // reach / unreach: deleting an edge can *insert* unreach facts.
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
    let mut base = edge_db(&[(1, 2), (2, 3)]);
    for n in 1..=4 {
        base.insert(fact("node", &[n])).unwrap();
    }
    base.insert(fact("src", &[1])).unwrap();
    let mut view = MaterializedView::new(program, base).unwrap();
    assert_eq!(view.database().relation("unreach").unwrap().len(), 1); // {4}

    // Cutting 2→3 unreaches 3.
    let out = view.apply(&Delta::deletion(fact("edge", &[2, 3]))).unwrap();
    assert_consistent(&view);
    assert!(out.inserts.contains(&fact("unreach", &[3])));
    assert!(out.deletes.contains(&fact("reach", &[3])));

    // Reconnecting through 1→3 re-reaches 3 and retracts unreach(3).
    let out = view
        .apply(&Delta::insertion(fact("edge", &[1, 3])))
        .unwrap();
    assert_consistent(&view);
    assert!(out.deletes.contains(&fact("unreach", &[3])));
    assert!(out.inserts.contains(&fact("reach", &[3])));

    // Seeded random batches over EDB predicates and an external-support
    // fact of a derived one: the view stays equal to a recomputation and
    // `base` never picks up a pure EDB fact.
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |n: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % n) as i64
    };
    for _ in 0..40 {
        let mut delta = Delta::new();
        for _ in 0..3 {
            let f = match next(4) {
                0 => fact("edge", &[next(5), next(5)]),
                1 => fact("node", &[next(5)]),
                2 => fact("src", &[next(5)]),
                _ => fact("reach", &[next(5)]),
            };
            if next(2) == 0 {
                delta.insert(f);
            } else {
                delta.delete(f);
            }
        }
        view.apply(&delta).unwrap();
        assert_consistent(&view);
    }
}

#[test]
fn base_fact_on_idb_pred_is_external_support() {
    // good(id) is derived, but good(9) is also asserted as a base fact:
    // deleting the supporting rate leaves good(9) alive, deleting the base
    // fact kills it.
    let mut base = Database::new();
    base.insert(fact("rate", &[9, 5])).unwrap();
    base.insert(fact("good", &[9])).unwrap();
    let mut view = MaterializedView::new(filter_program(), base).unwrap();
    assert_eq!(view.support(&fact("good", &[9])), Some(2));

    view.apply(&Delta::deletion(fact("rate", &[9, 5]))).unwrap();
    assert!(view.database().contains(&fact("good", &[9])));
    assert_consistent(&view);

    let out = view.apply(&Delta::deletion(fact("good", &[9]))).unwrap();
    assert!(out.deletes.contains(&fact("good", &[9])));
    assert_consistent(&view);
}

#[test]
fn idempotent_changes_are_ignored() {
    let mut view = MaterializedView::new(tc_program(), edge_db(&[(1, 2)])).unwrap();
    let out = view
        .apply(&Delta::insertion(fact("edge", &[1, 2])))
        .unwrap();
    assert!(out.is_empty());
    let out = view.apply(&Delta::deletion(fact("edge", &[9, 9]))).unwrap();
    assert!(out.is_empty());
    assert_consistent(&view);
}

#[test]
fn delete_then_reinsert_in_one_batch_nets_out() {
    let mut view = MaterializedView::new(tc_program(), edge_db(&[(1, 2), (2, 3)])).unwrap();
    let mut delta = Delta::new();
    delta.delete(fact("edge", &[1, 2]));
    delta.insert(fact("edge", &[1, 2]));
    let out = view.apply(&delta).unwrap();
    assert!(out.is_empty(), "net no-op must report no changes: {out:?}");
    assert_consistent(&view);
}

#[test]
fn returned_delta_matches_membership_changes() {
    let mut view = MaterializedView::new(tc_program(), edge_db(&[(1, 2), (2, 3), (3, 4)])).unwrap();
    let before: std::collections::HashSet<Fact> = view.database().facts().collect();
    let out = view.apply(&Delta::deletion(fact("edge", &[1, 2]))).unwrap();
    let after: std::collections::HashSet<Fact> = view.database().facts().collect();
    let expected_deletes: std::collections::HashSet<Fact> =
        before.difference(&after).cloned().collect();
    let expected_inserts: std::collections::HashSet<Fact> =
        after.difference(&before).cloned().collect();
    assert_eq!(
        out.deletes
            .iter()
            .cloned()
            .collect::<std::collections::HashSet<_>>(),
        expected_deletes
    );
    assert_eq!(
        out.inserts
            .iter()
            .cloned()
            .collect::<std::collections::HashSet<_>>(),
        expected_inserts
    );
}

#[test]
fn comparisons_and_assignments_participate() {
    // double(y) :- n(x), y := x * 2, x >= 3.
    let program = Program::new(vec![Rule::new(
        atom("double", &["y"]),
        vec![
            atom("n", &["x"]).into(),
            BodyItem::assign(
                "y",
                crate::Expr::bin(
                    crate::BinOp::Mul,
                    crate::Expr::term(Term::var("x")),
                    crate::Expr::term(Term::cst(2)),
                ),
            ),
            BodyItem::cmp(crate::CmpOp::Ge, Term::var("x"), Term::cst(3)),
        ],
    )])
    .unwrap();
    let mut base = Database::new();
    base.insert(fact("n", &[3])).unwrap();
    base.insert(fact("n", &[2])).unwrap();
    let mut view = MaterializedView::new(program, base).unwrap();
    assert!(view.database().contains(&fact("double", &[6])));
    assert!(!view.database().contains(&fact("double", &[4])));

    let out = view.apply(&Delta::insertion(fact("n", &[5]))).unwrap();
    assert!(out.inserts.contains(&fact("double", &[10])));
    let out = view.apply(&Delta::deletion(fact("n", &[3]))).unwrap();
    assert!(out.deletes.contains(&fact("double", &[6])));
    assert_consistent(&view);
}

#[test]
fn deep_chain_incremental_cut_and_heal() {
    let n = 30i64;
    let edges: Vec<(i64, i64)> = (0..n).map(|i| (i, i + 1)).collect();
    let mut view = MaterializedView::new(tc_program(), edge_db(&edges)).unwrap();
    let full = (n * (n + 1) / 2) as usize;
    assert_eq!(view.database().relation("path").unwrap().len(), full);

    view.apply(&Delta::deletion(fact("edge", &[15, 16])))
        .unwrap();
    assert_consistent(&view);
    view.apply(&Delta::insertion(fact("edge", &[15, 16])))
        .unwrap();
    assert_consistent(&view);
    assert_eq!(view.database().relation("path").unwrap().len(), full);
}
