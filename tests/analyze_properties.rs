//! Property tests for the static analyzer, over hand-rolled seeded
//! generators (no `proptest` in the offline environment):
//!
//! 1. the analyzer never panics on random (including unsafe/garbage)
//!    multi-peer programs, and is deterministic;
//! 2. **soundness vs the runtime**: a program the analyzer passes without
//!    `WDL004` never trips `NotStratifiable` at evaluation time — the
//!    analyzer's quotiented dependency graph is a conservative superset of
//!    each peer's local stratification graph;
//! 3. **agreement on safety**: the analyzer reports WDL001–003 on a rule
//!    iff the runtime's `check_safety` rejects it, naming the same variable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdamlog::analyze::{Analyzer, PeerModel};
use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::{DiagCode, NameTerm, Peer, RelationKind, WAtom, WBodyItem, WRule, WdlError};
use webdamlog::datalog::{BinOp, CmpOp, DatalogError, Expr, Term, Value};

const CASES: u64 = 96;

/// Random atom over a small vocabulary; name positions are sometimes
/// variables (the WebdamLog novelty the analyzer must survive).
fn atom(rng: &mut StdRng, rels: &[&str], peers: &[&str], wild: bool) -> WAtom {
    let rel = if wild && rng.gen_bool(0.2) {
        NameTerm::var("R")
    } else {
        NameTerm::name(rels[rng.gen_range(0..rels.len())])
    };
    let peer = if wild && rng.gen_bool(0.2) {
        NameTerm::var("P")
    } else {
        NameTerm::name(peers[rng.gen_range(0..peers.len())])
    };
    let args = (0..rng.gen_range(0..3usize))
        .map(|i| {
            if rng.gen_bool(0.7) {
                Term::var(["x", "y", "z"][i])
            } else {
                Term::cst(Value::from(rng.gen_range(0..5i64)))
            }
        })
        .collect();
    WAtom::new(rel, peer, args)
}

/// Fully random multi-peer models: rules may be unsafe, ill-typed,
/// unstratifiable — anything the parser-level AST allows.
fn random_models(rng: &mut StdRng) -> Vec<PeerModel> {
    let rels = ["r0", "r1", "r2", "r3"];
    let peers = ["p0", "p1", "p2"];
    peers
        .iter()
        .map(|name| {
            let mut model = PeerModel::new(*name);
            for rel in rels.iter().take(rng.gen_range(0..=rels.len())) {
                let kind = if rng.gen_bool(0.5) {
                    RelationKind::Extensional
                } else {
                    RelationKind::Intensional
                };
                let _ = model
                    .schema
                    .declare((*rel).into(), rng.gen_range(0..3), kind);
            }
            for _ in 0..rng.gen_range(0..4usize) {
                let head = atom(rng, &rels, &peers, true);
                let body = (0..rng.gen_range(0..3usize))
                    .map(|_| {
                        let a = atom(rng, &rels, &peers, true);
                        if rng.gen_bool(0.3) {
                            WBodyItem::not_atom(a)
                        } else {
                            WBodyItem::atom(a)
                        }
                    })
                    .collect();
                model = model.with_rule(WRule::new(head, body));
            }
            model
        })
        .collect()
}

#[test]
fn analyzer_never_panics_and_is_deterministic() {
    for seed in 0..CASES {
        let models = random_models(&mut StdRng::seed_from_u64(seed));
        let again = random_models(&mut StdRng::seed_from_u64(seed));
        let a = Analyzer::new(models).analyze();
        let b = Analyzer::new(again).analyze();
        assert_eq!(
            a.diagnostics, b.diagnostics,
            "seed {seed} not deterministic"
        );
        assert_eq!(a.delegation_depth, b.delegation_depth, "seed {seed}");
    }
}

/// Safe-by-construction single-peer programs that may still be
/// unstratifiable: every rule is `hi@p($x) :- b@p($x) [, not hj@p($x)]`.
struct LocalProgram {
    exts: Vec<&'static str>,
    ints: Vec<&'static str>,
    rules: Vec<WRule>,
}

fn random_local_program(rng: &mut StdRng) -> LocalProgram {
    let exts = vec!["e0", "e1"];
    let ints = vec!["i0", "i1", "i2"];
    let all: Vec<&str> = exts.iter().chain(ints.iter()).copied().collect();
    let mut rules = Vec::new();
    for _ in 0..rng.gen_range(1..6usize) {
        let head = WAtom::at(
            ints[rng.gen_range(0..ints.len())],
            "p",
            vec![Term::var("x")],
        );
        let mut body = vec![WBodyItem::atom(WAtom::at(
            all[rng.gen_range(0..all.len())],
            "p",
            vec![Term::var("x")],
        ))];
        if rng.gen_bool(0.6) {
            let neg = WAtom::at(
                ints[rng.gen_range(0..ints.len())],
                "p",
                vec![Term::var("x")],
            );
            if rng.gen_bool(0.8) {
                body.push(WBodyItem::not_atom(neg));
            } else {
                body.push(WBodyItem::atom(neg));
            }
        }
        rules.push(WRule::new(head, body));
    }
    LocalProgram { exts, ints, rules }
}

#[test]
fn analyzer_clean_programs_never_trip_runtime_stratification() {
    let mut flagged = 0usize;
    let mut ran = 0usize;
    for seed in 0..CASES {
        let program = random_local_program(&mut StdRng::seed_from_u64(1000 + seed));

        let mut model = PeerModel::new("p");
        for rel in &program.exts {
            model
                .schema
                .declare((*rel).into(), 1, RelationKind::Extensional)
                .unwrap();
        }
        for rel in &program.ints {
            model
                .schema
                .declare((*rel).into(), 1, RelationKind::Intensional)
                .unwrap();
        }
        for rule in &program.rules {
            model = model.with_rule(rule.clone());
        }
        let report = Analyzer::new(vec![model]).analyze();
        let has_wdl004 = report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::UnstratifiableNegation);
        if has_wdl004 {
            flagged += 1;
            continue;
        }

        // Analyzer saw no negation-through-recursion: the runtime must
        // evaluate without NotStratifiable.
        ran += 1;
        let mut rt = LocalRuntime::new();
        let mut peer = Peer::new("p");
        for rel in &program.exts {
            peer.declare(*rel, 1, RelationKind::Extensional).unwrap();
        }
        for rel in &program.ints {
            peer.declare(*rel, 1, RelationKind::Intensional).unwrap();
        }
        for rule in &program.rules {
            peer.add_rule(rule.clone()).unwrap();
        }
        for (i, rel) in program.exts.iter().enumerate() {
            peer.insert_local(*rel, vec![Value::from(i as i64)])
                .unwrap();
        }
        rt.add_peer(peer).unwrap();
        if let Err(e) = rt.run_to_quiescence(32) {
            assert!(
                !matches!(e, WdlError::Datalog(DatalogError::NotStratifiable(_))),
                "seed {seed}: analyzer passed but runtime says: {e}"
            );
        }
    }
    // The generator must actually exercise both sides of the property.
    assert!(
        flagged > 0,
        "generator never produced an unstratifiable case"
    );
    assert!(ran > 0, "generator never produced an analyzer-clean case");
}

/// A random rule over [`atom`]'s vocabulary plus comparisons and
/// assignments, each reading and binding variables in arbitrary order, so
/// every kind of safety violation (and safe rules) turns up.
fn random_rule(rng: &mut StdRng) -> WRule {
    let rels = ["r0", "r1"];
    let peers = ["p0", "p1"];
    let vars = ["x", "y", "z", "R", "P"];
    let pick = |rng: &mut StdRng| vars[rng.gen_range(0..vars.len())];
    let head = atom(rng, &rels, &peers, true);
    let body = (0..rng.gen_range(0..4usize))
        .map(|_| match rng.gen_range(0..10) {
            0..=4 => WBodyItem::atom(atom(rng, &rels, &peers, true)),
            5..=6 => WBodyItem::not_atom(atom(rng, &rels, &peers, true)),
            7 => WBodyItem::cmp(CmpOp::Lt, Term::var(pick(rng)), Term::cst(Value::from(3))),
            _ => {
                let (var, input) = (pick(rng), Expr::term(Term::var(pick(rng))));
                let one = Expr::term(Term::cst(Value::from(1)));
                WBodyItem::assign(var, Expr::bin(BinOp::Add, input, one))
            }
        })
        .collect();
    WRule::new(head, body)
}

#[test]
fn analyzer_safety_codes_agree_with_runtime_check_safety() {
    let safety_codes = [
        DiagCode::UnboundHeadVar,
        DiagCode::UnboundNegatedVar,
        DiagCode::UnboundNameVar,
    ];
    let (mut safe, mut unsafe_) = (0usize, 0usize);
    for seed in 0..CASES * 8 {
        let rule = random_rule(&mut StdRng::seed_from_u64(5000 + seed));
        let report = Analyzer::new(vec![PeerModel::new("p0").with_rule(rule.clone())]).analyze();
        let flagged: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| safety_codes.contains(&d.code))
            .collect();
        match rule.check_safety() {
            Ok(()) => {
                safe += 1;
                assert!(
                    flagged.is_empty(),
                    "seed {seed}: `{rule}` passes check_safety but the analyzer says {flagged:?}"
                );
            }
            Err(WdlError::UnsafeDistribution(msg)) => {
                unsafe_ += 1;
                let var = msg
                    .split('$')
                    .nth(1)
                    .and_then(|rest| rest.split(' ').next())
                    .unwrap_or_default();
                assert!(
                    flagged
                        .iter()
                        .any(|d| d.message.contains(&format!("${var} "))),
                    "seed {seed}: `{rule}` fails check_safety ({msg}) but the analyzer \
                     reports no safety error on ${var}: {flagged:?}"
                );
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
    assert!(safe > 0 && unsafe_ > 0, "safe {safe}, unsafe {unsafe_}");
}
