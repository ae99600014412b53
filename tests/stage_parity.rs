//! Stage-parity property suite: **compiled stage evaluation ≡ the `Subst`
//! reference interpreter** — outcomes (relation contents), delegations,
//! blocked-read counts, and the full per-stage counter set — over
//! randomly generated Wepic-style distributed programs and over the simnet
//! conformance scenario generators.
//!
//! Each seed builds the *same* multi-peer system twice — once with
//! `Peer::set_compiled_stage(true)` (the default register-file prefix
//! plans) and once with `false` (the symbol-keyed interpreter) — drives
//! both through identical stage/routing schedules and mutation batches,
//! and requires identical observable behaviour at every step.
//!
//! `WDL_PARITY_SEED=n` replays one seed of the random-program sweep;
//! `WDL_PARITY_SEEDS=lo..hi` widens it (CI runs `0..300`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use wdl_core::acl::UntrustedPolicy;
use wdl_core::{
    Delegation, Message, NameTerm, Payload, Peer, RelationKind, StageStats, WAtom, WBodyItem, WRule,
};
use wdl_datalog::{CmpOp, Expr, Symbol, Term, Value};
use wdl_net::sim::SimOp;

// ---------------------------------------------------------------------
// Harness: run two engine variants of the same system in lockstep
// ---------------------------------------------------------------------

/// Canonical, order-independent rendering of one stage's outgoing
/// messages. Per-message *internal* list order (e.g. the delegations
/// inside one `Payload::Delegate`) follows hash-map iteration and is not
/// part of the semantics, so each list is sorted before comparison.
fn canon_messages(msgs: &[Message]) -> Vec<String> {
    let mut out: Vec<String> = msgs
        .iter()
        .map(|m| match &m.payload {
            Payload::Facts {
                kind,
                additions,
                retractions,
            } => {
                let mut a: Vec<String> = additions.iter().map(|f| f.to_string()).collect();
                let mut r: Vec<String> = retractions.iter().map(|f| f.to_string()).collect();
                a.sort();
                r.sort();
                format!("{}->{} facts {kind:?} +{a:?} -{r:?}", m.from, m.to)
            }
            Payload::Delegate(ds) => {
                let mut d: Vec<String> = ds
                    .iter()
                    .map(|d| format!("{}=>{}: {}", d.origin, d.target, d.rule))
                    .collect();
                d.sort();
                format!("{}->{} delegate {d:?}", m.from, m.to)
            }
            Payload::Revoke(ids) => {
                let mut v: Vec<String> = ids.iter().map(|id| format!("{id:?}")).collect();
                v.sort();
                format!("{}->{} revoke {v:?}", m.from, m.to)
            }
            Payload::Session(bytes) => {
                format!("{}->{} session {} bytes", m.from, m.to, bytes.len())
            }
        })
        .collect();
    out.sort();
    out
}

/// Full observable state of one peer: every declared relation's contents,
/// sorted.
fn peer_state(p: &Peer) -> Vec<String> {
    let mut out = Vec::new();
    let mut decls: Vec<_> = p.schema().iter().collect();
    decls.sort_by_key(|d| d.rel.as_str());
    for d in decls {
        let mut rows: Vec<String> = p
            .relation_facts(d.rel)
            .iter()
            .map(|t| format!("{t:?}"))
            .collect();
        rows.sort();
        out.push(format!("{}({}): {rows:?}", d.rel, d.arity));
    }
    out
}

/// One system under test: peers in fixed order, manual message routing.
struct System {
    peers: Vec<Peer>,
}

impl System {
    fn new(peers: Vec<Peer>) -> System {
        System { peers }
    }

    fn peer_mut(&mut self, name: Symbol) -> &mut Peer {
        self.peers
            .iter_mut()
            .find(|p| p.name() == name)
            .unwrap_or_else(|| panic!("unknown peer {name}"))
    }

    /// Runs one synchronous round: every peer stages (in order), then all
    /// messages are routed. Returns per-peer (stats, canonical messages,
    /// changed).
    fn round(&mut self) -> Vec<(StageStats, Vec<String>, bool)> {
        let mut reports = Vec::new();
        let mut pending: Vec<Message> = Vec::new();
        for p in &mut self.peers {
            let out = p.run_stage().expect("stage succeeds");
            reports.push((out.stats, canon_messages(&out.messages), out.changed));
            pending.extend(out.messages);
        }
        for msg in pending {
            if let Some(p) = self.peers.iter_mut().find(|p| p.name() == msg.to) {
                p.enqueue(msg);
            }
        }
        reports
    }

    fn quiesce(&mut self, max_rounds: usize) -> Vec<Vec<(StageStats, Vec<String>, bool)>> {
        let mut log = Vec::new();
        for _ in 0..max_rounds {
            let reports = self.round();
            let quiet = reports
                .iter()
                .all(|(_, msgs, changed)| msgs.is_empty() && !changed);
            log.push(reports);
            if quiet {
                break;
            }
        }
        log
    }

    fn state(&self) -> Vec<Vec<String>> {
        self.peers.iter().map(peer_state).collect()
    }
}

/// Asserts two engine variants stay identical through `rounds` synchronous
/// rounds, comparing per-stage counters, canonicalized messages, change
/// flags, and final relation contents.
fn assert_lockstep(compiled: &mut System, interp: &mut System, rounds: usize, label: &str) {
    for round in 0..rounds {
        let rc = compiled.round();
        let ri = interp.round();
        assert_eq!(rc.len(), ri.len(), "{label}: peer count, round {round}");
        for (pi, ((sc, mc, cc), (si, mi, ci))) in rc.iter().zip(&ri).enumerate() {
            assert_eq!(
                sc, si,
                "{label}: stage stats diverge (peer #{pi}, round {round})"
            );
            assert_eq!(
                mc, mi,
                "{label}: messages diverge (peer #{pi}, round {round})"
            );
            assert_eq!(cc, ci, "{label}: changed flag (peer #{pi}, round {round})");
        }
    }
    assert_eq!(
        compiled.state(),
        interp.state(),
        "{label}: final relation contents diverge"
    );
}

// ---------------------------------------------------------------------
// Random Wepic-style program generator
// ---------------------------------------------------------------------

const PEERS: [&str; 3] = ["pp0", "pp1", "pp2"];

fn open_peer(name: &str) -> Peer {
    let mut p = Peer::new(name);
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    p
}

/// Builds one random system. Pure function of the seed: both engine
/// variants call this with the same seed and only differ in
/// `set_compiled_stage`.
fn random_system(seed: u64, compiled: bool) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut peers: Vec<Peer> = PEERS.iter().map(|n| open_peer(n)).collect();

    // Schema + base facts.
    for p in peers.iter_mut() {
        for v in ["v0", "v1", "v2", "mirror"] {
            p.declare(v, 1, RelationKind::Intensional).unwrap();
        }
        p.declare("pair", 2, RelationKind::Intensional).unwrap();
        p.declare("arch", 1, RelationKind::Extensional).unwrap();
        let n_e = rng.gen_range(2..=6usize);
        for _ in 0..n_e {
            let (a, b) = (rng.gen_range(0..5i64), rng.gen_range(0..5i64));
            p.insert_local("e", vec![Value::from(a), Value::from(b)])
                .unwrap();
        }
        let n_item = rng.gen_range(1..=5usize);
        for _ in 0..n_item {
            p.insert_local("item", vec![Value::from(rng.gen_range(0..6i64))])
                .unwrap();
        }
        if rng.gen_range(0..2) == 1 {
            p.insert_local("blocked", vec![Value::from(rng.gen_range(0..6i64))])
                .unwrap();
        } else {
            // Keep the relation declared so negation is well-formed either way.
            p.declare("blocked", 1, RelationKind::Extensional).unwrap();
        }
        // Selector relations holding peer names (for variable-peer atoms)
        // and relation names (for variable-relation atoms).
        let n_sel = rng.gen_range(0..=2usize);
        for _ in 0..n_sel {
            let target = PEERS[rng.gen_range(0..PEERS.len())];
            p.insert_local("sel", vec![Value::from(target)]).unwrap();
        }
        p.declare("sel", 1, RelationKind::Extensional).ok();
        // Owner names for the rating-filter template: mostly the peer
        // itself, sometimes another peer as well.
        p.insert_local("owner", vec![Value::from(p.name().as_str())])
            .unwrap();
        if rng.gen_range(0..3) == 0 {
            let target = PEERS[rng.gen_range(0..PEERS.len())];
            p.insert_local("owner", vec![Value::from(target)]).unwrap();
        }
        p.insert_local(
            "relname",
            vec![Value::from(if rng.gen_range(0..2) == 0 {
                "v0"
            } else {
                "v1"
            })],
        )
        .unwrap();
        // A second relation name, so one variable-relation literal
        // resolves to two relations on the same peer.
        if rng.gen_range(0..2) == 0 {
            p.insert_local("relname", vec![Value::from("item")])
                .unwrap();
        }
    }

    // Random rules per peer.
    for pi in 0..peers.len() {
        let me = PEERS[pi];
        let other = PEERS[(pi + 1) % PEERS.len()];
        let n_rules = rng.gen_range(1..=4usize);
        for _ in 0..n_rules {
            let rule = match rng.gen_range(0..9u32) {
                // Local filter + negation.
                0 => WRule::new(
                    WAtom::at("v0", me, vec![Term::var("x")]),
                    vec![
                        WAtom::at("item", me, vec![Term::var("x")]).into(),
                        WBodyItem::not_atom(WAtom::at("blocked", me, vec![Term::var("x")])),
                    ],
                ),
                // Local join + comparison + assignment.
                1 => WRule::new(
                    WAtom::at("pair", me, vec![Term::var("x"), Term::var("w")]),
                    vec![
                        WAtom::at("e", me, vec![Term::var("x"), Term::var("y")]).into(),
                        WAtom::at("e", me, vec![Term::var("y"), Term::var("z")]).into(),
                        WBodyItem::cmp(CmpOp::Ge, Term::var("z"), Term::var("x")),
                        WBodyItem::assign(
                            "w",
                            Expr::bin(
                                wdl_datalog::BinOp::Add,
                                Expr::term(Term::var("z")),
                                Expr::term(Term::cst(1)),
                            ),
                        ),
                    ],
                ),
                // Remote head over a local body (derived fact shipping).
                2 => WRule::new(
                    WAtom::at("mirror", other, vec![Term::var("x")]),
                    vec![WAtom::at("item", me, vec![Term::var("x")]).into()],
                ),
                // Static remote body atom: delegation to `other`.
                3 => WRule::new(
                    WAtom::at("v1", me, vec![Term::var("x")]),
                    vec![
                        WAtom::at("item", me, vec![Term::var("x")]).into(),
                        WAtom::at("item", other, vec![Term::var("x")]).into(),
                    ],
                ),
                // Variable peer: delegates (or stays local) per `sel` row.
                4 => WRule::new(
                    WAtom::at("v2", me, vec![Term::var("x")]),
                    vec![
                        WAtom::at("sel", me, vec![Term::var("p")]).into(),
                        WAtom::new(
                            NameTerm::name("item"),
                            NameTerm::var("p"),
                            vec![Term::var("x")],
                        )
                        .into(),
                    ],
                ),
                // Variable relation name in the head (protocol dispatch).
                5 => WRule::new(
                    WAtom::new(NameTerm::var("r"), NameTerm::name(me), vec![Term::var("x")]),
                    vec![
                        WAtom::at("relname", me, vec![Term::var("r")]).into(),
                        WAtom::at("item", me, vec![Term::var("x")]).into(),
                    ],
                ),
                // Variable relation name in a body literal.
                6 => WRule::new(
                    WAtom::at("mirror", me, vec![Term::var("x")]),
                    vec![
                        WAtom::at("relname", me, vec![Term::var("r")]).into(),
                        WAtom::new(NameTerm::var("r"), NameTerm::name(me), vec![Term::var("x")])
                            .into(),
                    ],
                ),
                // The rating-filter shape: a variable-peer literal that
                // usually resolves to `me`, then a second variable-peer
                // literal, a local join and a comparison.
                7 => WRule::new(
                    WAtom::at("pair", me, vec![Term::var("x"), Term::var("z")]),
                    vec![
                        WAtom::at("owner", me, vec![Term::var("o")]).into(),
                        WAtom::new(
                            NameTerm::name("e"),
                            NameTerm::var("o"),
                            vec![Term::var("x"), Term::var("y")],
                        )
                        .into(),
                        WAtom::at("sel", me, vec![Term::var("p")]).into(),
                        WAtom::new(
                            NameTerm::name("item"),
                            NameTerm::var("p"),
                            vec![Term::var("y")],
                        )
                        .into(),
                        WAtom::at("e", me, vec![Term::var("y"), Term::var("z")]).into(),
                        WBodyItem::cmp(CmpOp::Ge, Term::var("z"), Term::var("x")),
                    ],
                ),
                // Extensional head: buffered self-updates.
                _ => WRule::new(
                    WAtom::at("arch", me, vec![Term::var("x")]),
                    vec![WAtom::at("item", me, vec![Term::var("x")]).into()],
                ),
            };
            // Both variants generate the identical rule sequence; a safety
            // rejection (none expected for these templates) would hit both.
            peers[pi].add_rule(rule).unwrap();
        }
        // Random ACL restriction, *before* delegations evaluate: delegated
        // reads of the restricted relation get blocked and counted.
        if rng.gen_range(0..3) == 0 {
            let rel = ["item", "e", "blocked"][rng.gen_range(0..3usize)];
            peers[pi].acl_mut().restrict_read(rel);
        }
        // Random pre-installed delegation (as if a remote peer delegated
        // here), including the empty-local-prefix and fully-local shapes.
        if rng.gen_range(0..2) == 0 {
            let origin = PEERS[(pi + 2) % PEERS.len()];
            let rule = match rng.gen_range(0..4u32) {
                // Fully local body, remote head back to the origin.
                0 => WRule::new(
                    WAtom::at("mirror", origin, vec![Term::var("x")]),
                    vec![WAtom::at("item", me, vec![Term::var("x")]).into()],
                ),
                // Local prefix, then onward non-local atom.
                1 => WRule::new(
                    WAtom::at("v2", origin, vec![Term::var("x")]),
                    vec![
                        WAtom::at("item", me, vec![Term::var("x")]).into(),
                        WAtom::at("item", other, vec![Term::var("x")]).into(),
                    ],
                ),
                // Variable peer over a relation the owner may have
                // restricted: the read gate trips inside the continuation
                // of every owner row naming this peer.
                2 => WRule::new(
                    WAtom::at("v2", origin, vec![Term::var("x")]),
                    vec![
                        WAtom::at("owner", me, vec![Term::var("o")]).into(),
                        WAtom::new(
                            NameTerm::name("item"),
                            NameTerm::var("o"),
                            vec![Term::var("x")],
                        )
                        .into(),
                    ],
                ),
                // Empty local prefix: the body starts non-local.
                _ => WRule::new(
                    WAtom::at("v2", origin, vec![Term::var("x")]),
                    vec![WAtom::at("item", other, vec![Term::var("x")]).into()],
                ),
            };
            let d = Delegation::new(Symbol::intern(origin), Symbol::intern(me), rule);
            peers[pi].install_delegation(d).unwrap();
        }
    }

    for p in peers.iter_mut() {
        p.set_compiled_stage(compiled);
    }
    System::new(peers)
}

/// Deterministic mid-run mutations: deletions (retraction propagation),
/// fresh inserts, and a grants restriction — applied identically to both
/// variants.
fn mutate(sys: &mut System, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    for pi in 0..sys.peers.len() {
        let p = &mut sys.peers[pi];
        for _ in 0..rng.gen_range(0..=2usize) {
            let v = rng.gen_range(0..6i64);
            let _ = p.delete_local("item", vec![Value::from(v)]);
        }
        for _ in 0..rng.gen_range(0..=2usize) {
            let v = rng.gen_range(0..6i64);
            p.insert_local("item", vec![Value::from(v)]).unwrap();
        }
        if rng.gen_range(0..4) == 0 {
            p.acl_mut().restrict_read("item");
        }
    }
}

/// The seeds to sweep: `WDL_PARITY_SEED=n` replays one,
/// `WDL_PARITY_SEEDS=lo..hi` overrides the whole range (same syntax as
/// `WDL_SIM_SEEDS` and `WDL_STORE_SEEDS`).
fn seed_range(default: Range<u64>) -> Range<u64> {
    if let Ok(v) = std::env::var("WDL_PARITY_SEED") {
        if let Ok(n) = v.trim().parse::<u64>() {
            return n..n + 1;
        }
    }
    if let Ok(v) = std::env::var("WDL_PARITY_SEEDS") {
        if let Some((lo, hi)) = v.trim().split_once("..") {
            if let (Ok(lo), Ok(hi)) = (lo.parse::<u64>(), hi.parse::<u64>()) {
                return lo..hi;
            }
        }
    }
    default
}

#[test]
fn random_programs_compiled_equals_interpreted() {
    for seed in seed_range(0..25) {
        let mut compiled = random_system(seed, true);
        let mut interp = random_system(seed, false);
        let label = format!("seed {seed} (rerun: WDL_PARITY_SEED={seed})");
        assert_lockstep(&mut compiled, &mut interp, 4, &label);
        // Mid-run churn: deletions, inserts, grants changes.
        mutate(&mut compiled, seed);
        mutate(&mut interp, seed);
        assert_lockstep(
            &mut compiled,
            &mut interp,
            4,
            &format!("{label} after churn"),
        );
    }
}

// ---------------------------------------------------------------------
// Simnet conformance scenarios
// ---------------------------------------------------------------------

/// Runs every simnet conformance scenario generator under both engines,
/// applying the scripted mutation batches between quiescence runs, and
/// requires identical stage behaviour and final states.
#[test]
fn simnet_scenarios_compiled_equals_interpreted() {
    type Gen = fn(u64) -> wdl_net::sim::oracle::Scenario;
    let gens: [(&str, Gen); 5] = [
        ("delegation_fanout", wepic::scenarios::delegation_fanout),
        ("delegation_churn", wepic::scenarios::delegation_churn),
        ("acl_restricted", wepic::scenarios::acl_restricted),
        ("transfer_dispatch", wepic::scenarios::transfer_dispatch),
        ("publish_chain", wepic::scenarios::publish_chain),
    ];
    for (name, gen) in gens {
        for seed in 0..3u64 {
            let scenario = gen(seed);
            let build = |compiled: bool| {
                let mut peers = (scenario.build)();
                for p in peers.iter_mut() {
                    p.set_compiled_stage(compiled);
                }
                System::new(peers)
            };
            let mut compiled = build(true);
            let mut interp = build(false);
            let label = format!("{name}/{seed} ({})", scenario.name);
            for (bi, batch) in scenario.batches.iter().enumerate() {
                for sys in [&mut compiled, &mut interp] {
                    for (peer, op) in batch {
                        let p = sys.peer_mut(*peer);
                        match op {
                            SimOp::Insert { rel, tuple } => {
                                p.insert_local(*rel, tuple.clone()).unwrap();
                            }
                            SimOp::Delete { rel, tuple } => {
                                let _ = p.delete_local(*rel, tuple.clone()).unwrap();
                            }
                        }
                    }
                }
                let lc = compiled.quiesce(24);
                let li = interp.quiesce(24);
                assert_eq!(lc, li, "{label}: stage logs diverge after batch {bi}");
                assert_eq!(
                    compiled.state(),
                    interp.state(),
                    "{label}: states diverge after batch {bi}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Regression pins (ISSUE 5 satellites)
// ---------------------------------------------------------------------

/// A delegated rule whose local prefix is **empty** (the body starts with
/// a non-local atom) behaves identically under compiled and interpreted
/// stage evaluation: one onward delegation, no local reads, no blocked
/// reads.
#[test]
fn delegated_rule_with_empty_local_prefix_parity() {
    let build = |compiled: bool| {
        let mut p = open_peer("hopper");
        p.set_compiled_stage(compiled);
        p.declare("out", 1, RelationKind::Intensional).unwrap();
        p.install_delegation(Delegation::new(
            Symbol::intern("origin-peer"),
            Symbol::intern("hopper"),
            WRule::new(
                WAtom::at("out", "origin-peer", vec![Term::var("x")]),
                vec![WAtom::at("src", "third-peer", vec![Term::var("x")]).into()],
            ),
        ))
        .unwrap();
        p
    };
    let mut outs = Vec::new();
    for compiled in [true, false] {
        let mut p = build(compiled);
        let out = p.run_stage().unwrap();
        assert_eq!(out.stats.delegations_out, 1, "compiled={compiled}");
        assert_eq!(out.stats.reads_blocked, 0, "compiled={compiled}");
        outs.push((out.stats, canon_messages(&out.messages), peer_state(&p)));
    }
    assert_eq!(outs[0], outs[1]);
}

/// A delegated rule whose body is **fully local** behaves identically:
/// same derivations, same shipped facts, stage for stage.
#[test]
fn fully_local_delegated_rule_parity() {
    let build = |compiled: bool| {
        let mut p = open_peer("worker");
        p.set_compiled_stage(compiled);
        p.declare("feed", 1, RelationKind::Intensional).unwrap();
        for i in 0..4 {
            p.insert_local("src", vec![Value::from(i)]).unwrap();
        }
        // Local head (feeds the peer's own view)...
        p.install_delegation(Delegation::new(
            Symbol::intern("origin-peer"),
            Symbol::intern("worker"),
            WRule::new(
                WAtom::at("feed", "worker", vec![Term::var("x")]),
                vec![WAtom::at("src", "worker", vec![Term::var("x")]).into()],
            ),
        ))
        .unwrap();
        // ...and a remote head (ships derived facts back).
        p.install_delegation(Delegation::new(
            Symbol::intern("origin-peer"),
            Symbol::intern("worker"),
            WRule::new(
                WAtom::at("mirror", "origin-peer", vec![Term::var("x")]),
                vec![WAtom::at("src", "worker", vec![Term::var("x")]).into()],
            ),
        ))
        .unwrap();
        p
    };
    let mut logs = Vec::new();
    for compiled in [true, false] {
        let mut p = build(compiled);
        let mut log = Vec::new();
        for _ in 0..3 {
            let out = p.run_stage().unwrap();
            log.push((out.stats, canon_messages(&out.messages), out.changed));
        }
        assert_eq!(p.relation_facts("feed").len(), 4, "compiled={compiled}");
        log.push((StageStats::default(), peer_state(&p), false));
        logs.push(log);
    }
    assert_eq!(logs[0], logs[1]);
}
