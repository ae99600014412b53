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
//! 4. **validated ⇒ compiles**: every rule `WRule::validate` accepts runs
//!    on the compiled stage engine exactly as on the reference interpreter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdamlog::analyze::{Analyzer, PeerModel};
use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::{
    DiagCode, NameTerm, Payload, Peer, RelationKind, WAtom, WBodyItem, WRule, WdlError,
};
use webdamlog::datalog::{BinOp, CmpOp, DatalogError, Expr, Symbol, Term, Value};

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

/// A random rule over [`atom`]'s vocabulary plus comparisons,
/// assignments, local atoms that bind a name variable from data, and
/// atoms at a variable peer, each reading and binding variables in
/// arbitrary order, so every kind of safety violation (and safe rules,
/// including ones whose names resolve at run time) turns up. Reads and
/// head variables favour variables the body binds further left, which
/// keeps safe rules common.
fn random_rule(rng: &mut StdRng) -> WRule {
    let rels = ["r0", "r1"];
    let peers = ["p0", "p1"];
    let vars = ["x", "y", "z", "R", "P"];
    let pick = |rng: &mut StdRng, bound: &[Symbol]| {
        if !bound.is_empty() && rng.gen_bool(0.7) {
            bound[rng.gen_range(0..bound.len())]
        } else {
            Symbol::intern(vars[rng.gen_range(0..vars.len())])
        }
    };
    let mut head = atom(rng, &rels, &peers, true);
    let mut bound: Vec<Symbol> = Vec::new();
    let mut body = Vec::new();
    for _ in 0..rng.gen_range(0..5usize) {
        let item = match rng.gen_range(0..12) {
            0..=2 => WBodyItem::atom(atom(rng, &rels, &peers, true)),
            3..=4 => WBodyItem::not_atom(atom(rng, &rels, &peers, true)),
            5..=6 => WBodyItem::cmp(
                CmpOp::Lt,
                Term::var(pick(rng, &bound)),
                Term::cst(Value::from(3)),
            ),
            7..=8 => {
                let rel = rels[rng.gen_range(0..rels.len())];
                let name = ["R", "P"][rng.gen_range(0..2usize)];
                WBodyItem::atom(WAtom::at(rel, "p0", vec![Term::var(name)]))
            }
            9 => {
                let a = atom(rng, &rels, &peers, true);
                WBodyItem::atom(WAtom::new(a.rel, NameTerm::var("P"), a.args))
            }
            _ => {
                let (var, input) = (pick(rng, &[]), Expr::term(Term::var(pick(rng, &bound))));
                let one = Expr::term(Term::cst(Value::from(1)));
                WBodyItem::assign(var, Expr::bin(BinOp::Add, input, one))
            }
        };
        item.binds(&mut bound);
        body.push(item);
    }
    for t in &mut head.args {
        if matches!(t, Term::Var(_)) {
            *t = Term::var(pick(rng, &bound));
        }
    }
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

/// A random fact value: small integers, and strings that resolve as the
/// relation and peer names [`random_rule`] uses.
fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..8) {
        0 => Value::from("r0"),
        1 => Value::from("r1"),
        2 => Value::from("p0"),
        3 => Value::from("p1"),
        n => Value::from(i64::from(n - 4)),
    }
}

/// One peer's observable run of `rule` over random facts: per-stage
/// counters and canonical messages, then the relation contents — or the
/// error that ended the run.
fn run_rule(rule: &WRule, seed: u64, compiled: bool) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Peer::new("p0");
    for rel in ["r0", "r1"] {
        let arity = rng.gen_range(0..3usize);
        p.declare(rel, arity, RelationKind::Extensional).unwrap();
        for _ in 0..rng.gen_range(0..6usize) {
            let row = (0..arity).map(|_| random_value(&mut rng)).collect();
            p.insert_local(rel, row).unwrap();
        }
    }
    p.add_rule(rule.clone()).unwrap();
    p.set_compiled_stage(compiled);
    let mut log = Vec::new();
    for _ in 0..3 {
        match p.run_stage() {
            Ok(out) => {
                log.push(format!("{:?}", out.stats));
                let mut msgs: Vec<String> = out
                    .messages
                    .iter()
                    .map(|m| {
                        let mut parts: Vec<String> = match &m.payload {
                            Payload::Facts {
                                additions,
                                retractions,
                                ..
                            } => additions
                                .iter()
                                .map(|f| format!("+{f}"))
                                .chain(retractions.iter().map(|f| format!("-{f}")))
                                .collect(),
                            Payload::Delegate(ds) => {
                                ds.iter().map(|d| d.rule.to_string()).collect()
                            }
                            Payload::Revoke(ids) => {
                                ids.iter().map(|id| format!("{id:?}")).collect()
                            }
                            Payload::Session(b) => vec![format!("{} session bytes", b.len())],
                        };
                        parts.sort();
                        format!("{}->{}: {parts:?}", m.from, m.to)
                    })
                    .collect();
                msgs.sort();
                log.extend(msgs);
            }
            Err(e) => {
                log.push(format!("error: {e}"));
                return log;
            }
        }
    }
    for rel in ["r0", "r1"] {
        let mut rows: Vec<String> = p
            .relation_facts(rel)
            .iter()
            .map(|t| format!("{t:?}"))
            .collect();
        rows.sort();
        log.push(format!("{rel}: {rows:?}"));
    }
    log
}

/// **Validated ⇒ compiles.** Every rule [`random_rule`] generates that
/// `WRule::validate` accepts installs on a peer holding random facts and
/// runs stage for stage on the compiled engine exactly as on the `Subst`
/// reference interpreter (`set_compiled_stage(false)`): the same counters,
/// messages and relation contents. A data error (a name variable bound to
/// a number, arithmetic on a string) ends both runs with the same error; a
/// rule the stage classifier failed to compile would end only the compiled
/// run.
#[test]
fn validated_rules_compile_and_match_the_interpreter() {
    let (mut validated, mut clean, mut filtered_after_var_peer) = (0usize, 0usize, 0usize);
    for seed in 0..CASES * 64 {
        let rule = random_rule(&mut StdRng::seed_from_u64(5000 + seed));
        if rule.validate().is_err() {
            continue;
        }
        validated += 1;
        let var_peer = rule
            .body
            .iter()
            .position(|item| matches!(item, WBodyItem::Literal(l) if l.atom.peer.is_var()));
        if var_peer.is_some_and(|i| {
            rule.body[i..]
                .iter()
                .any(|item| matches!(item, WBodyItem::Cmp { .. }))
        }) {
            filtered_after_var_peer += 1;
        }
        let compiled = run_rule(&rule, 9000 + seed, true);
        let interpreted = run_rule(&rule, 9000 + seed, false);
        assert_eq!(
            compiled, interpreted,
            "seed {seed}: `{rule}` runs differently on the compiled engine"
        );
        if !compiled.iter().any(|line| line.starts_with("error: ")) {
            clean += 1;
        }
    }
    // The sweep must reach the shapes it exists for.
    assert!(
        filtered_after_var_peer > 0,
        "no validated rule compares after a variable-peer literal"
    );
    assert!(
        clean * 4 > validated,
        "only {clean} of {validated} validated rules ran without a data error"
    );
}
