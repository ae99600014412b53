//! Lockstep parity: the sharded runtime is observationally identical to
//! the sequential reference, round for round.
//!
//! `ShardedRuntime` skips quiescent peers, runs shards on worker threads,
//! and merges routing coordinator-side — three opportunities to diverge
//! from `LocalRuntime::tick`. This suite drives both runtimes through the
//! same scripted scenarios and asserts, after every single round:
//!
//! * identical `changed` / routed / undeliverable counters,
//! * identical per-peer stage stats for every peer the sharded runtime
//!   ran (the `stage` counter is normalized: skipped peers don't bump it),
//! * identical message flow into every inbox — the reference peer's inbox
//!   versus the sharded runtime's pending queue, canonicalized (fact
//!   order *within* one payload comes from set differences and is not
//!   deterministic across separately built peers; the sequence of
//!   messages is),
//!
//! and, at quiescence, identical contents for every declared relation of
//! every peer. Scenarios span all wepic generators plus a ring of peers
//! (negation view, DRed-maintained recursive closure, remote-head shipping
//! with cross-peer retraction under churn), seeds, shard counts 1–8,
//! mid-run peer add/remove churn, and finite-admission-budget runs that
//! must converge to the unbudgeted reference outcome.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdamlog::core::acl::UntrustedPolicy;
use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::shard::ShardedRuntime;
use webdamlog::core::{Message, Payload, Peer, RelationKind, WAtom, WBodyItem, WRule};
use webdamlog::datalog::{Symbol, Term, Tuple, Value};
use webdamlog::net::sim::oracle::Scenario;
use webdamlog::net::sim::SimOp;
use wepic::scenarios;

const MAX_ROUNDS: usize = 64;

/// Canonical form of one message: payload fact order is sorted because
/// `HashSet::difference` order varies between separately built peers,
/// while ingestion is set-semantic and order-insensitive.
fn canon_msg(msg: &Message) -> String {
    match &msg.payload {
        Payload::Facts {
            kind,
            additions,
            retractions,
        } => {
            let mut adds: Vec<String> = additions.iter().map(|f| format!("{f:?}")).collect();
            adds.sort();
            let mut rets: Vec<String> = retractions.iter().map(|f| format!("{f:?}")).collect();
            rets.sort();
            format!("{}->{} {kind:?} +{adds:?} -{rets:?}", msg.from, msg.to)
        }
        other => format!("{}->{} {other:?}", msg.from, msg.to),
    }
}

fn apply_op(lr: &mut LocalRuntime, sh: &mut ShardedRuntime, peer: Symbol, op: &SimOp) {
    match op.clone() {
        SimOp::Insert { rel, tuple } => {
            lr.peer_mut(peer)
                .unwrap()
                .insert_local(rel, tuple.clone())
                .unwrap();
            sh.insert_local(peer, rel, tuple).unwrap();
        }
        SimOp::Delete { rel, tuple } => {
            lr.peer_mut(peer)
                .unwrap()
                .delete_local(rel, tuple.clone())
                .unwrap();
            sh.delete_local(peer, rel, tuple).unwrap();
        }
    }
}

/// Ticks both runtimes until the reference reaches a quiet round,
/// asserting observational parity after every round.
fn lockstep_quiesce(lr: &mut LocalRuntime, sh: &mut ShardedRuntime, ctx: &str) {
    for round in 0..MAX_ROUNDS {
        let lt = lr.tick().unwrap();
        let st = sh.tick().unwrap();
        assert_eq!(lt.changed, st.changed, "{ctx}: changed @ round {round}");
        assert_eq!(lt.messages, st.messages, "{ctx}: routed @ round {round}");
        assert_eq!(
            lt.undeliverable, st.undeliverable,
            "{ctx}: undeliverable @ round {round}"
        );
        assert_eq!(st.deferred, 0, "{ctx}: unlimited budget never defers");
        assert!(
            st.peers_run <= st.peers_total,
            "{ctx}: ran more peers than exist"
        );
        for (name, sharded_stats) in &st.stats {
            let mut reference = *lt
                .stats
                .get(name)
                .unwrap_or_else(|| panic!("{ctx}: sharded ran unknown peer {name}"));
            let mut sharded = *sharded_stats;
            // Skipped rounds don't advance a sharded peer's stage counter.
            reference.stage = 0;
            sharded.stage = 0;
            assert_eq!(
                reference, sharded,
                "{ctx}: stats diverge for {name} @ round {round}"
            );
        }
        for name in lr.peer_names() {
            let reference: Vec<String> = lr
                .peer(name)
                .unwrap()
                .inbox()
                .iter()
                .map(canon_msg)
                .collect();
            let sharded: Vec<String> = sh.pending_messages(name).iter().map(canon_msg).collect();
            assert_eq!(
                reference, sharded,
                "{ctx}: message flow into {name} diverges @ round {round}"
            );
        }
        if !lt.changed && lt.messages == 0 {
            return;
        }
    }
    panic!("{ctx}: no quiescence within {MAX_ROUNDS} rounds");
}

/// Every declared relation of every peer holds the same tuples.
fn assert_same_state(lr: &LocalRuntime, sh: &ShardedRuntime, ctx: &str) {
    assert_eq!(lr.peer_names(), sh.peer_names(), "{ctx}: peer sets diverge");
    for name in lr.peer_names() {
        let rels: Vec<Symbol> = lr
            .peer(name)
            .unwrap()
            .schema()
            .iter()
            .map(|decl| decl.rel)
            .collect();
        for rel in rels {
            let mut reference: Vec<Tuple> = lr.peer(name).unwrap().relation_facts(rel);
            let mut sharded = sh
                .relation_facts(name, rel)
                .unwrap_or_else(|| panic!("{ctx}: {name} missing from sharded runtime"));
            reference.sort();
            sharded.sort();
            assert_eq!(reference, sharded, "{ctx}: {name}.{rel} diverges");
        }
    }
}

fn run_parity(scenario: &Scenario, shards: usize) {
    let ctx = format!("{} [shards={shards}]", scenario.name);
    let mut lr = LocalRuntime::new();
    let mut sh = ShardedRuntime::new(shards);
    for p in (scenario.build)() {
        lr.add_peer(p).unwrap();
    }
    for p in (scenario.build)() {
        sh.add_peer(p).unwrap();
    }
    lockstep_quiesce(&mut lr, &mut sh, &ctx);
    for (i, batch) in scenario.batches.iter().enumerate() {
        for (peer, op) in batch {
            apply_op(&mut lr, &mut sh, *peer, op);
        }
        lockstep_quiesce(&mut lr, &mut sh, &format!("{ctx} batch {i}"));
        assert_same_state(&lr, &sh, &format!("{ctx} batch {i}"));
    }
}

const RING: usize = 4;
const RING_VALS: i64 = 10;

fn ring_name(i: usize) -> String {
    format!("ring{i}")
}

/// One ring peer: a compiled negation view, a recursive closure (DRed
/// under deletion), a compiled consumer of remote contributions, and a
/// remote-head rule shipping the view to the next peer in the ring.
fn ring_peer(i: usize, rng: &mut StdRng) -> Peer {
    let me = ring_name(i);
    let next = ring_name((i + 1) % RING);
    let mut p = Peer::new(me.as_str());
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    for (rel, arity) in [("item", 1), ("hidden", 1), ("edge", 2)] {
        p.declare(rel, arity, RelationKind::Extensional).unwrap();
    }
    for rel in ["visible", "mirror", "echo"] {
        p.declare(rel, 1, RelationKind::Intensional).unwrap();
    }
    p.declare("path", 2, RelationKind::Intensional).unwrap();
    let local = |pred: &str, vars: &[&str]| {
        WAtom::at(
            pred,
            me.as_str(),
            vars.iter().map(|v| Term::var(*v)).collect(),
        )
    };
    // visible(x) :- item(x), not hidden(x)   [compiled, counting]
    p.add_rule(WRule::new(
        local("visible", &["x"]),
        vec![
            local("item", &["x"]).into(),
            WBodyItem::not_atom(local("hidden", &["x"])),
        ],
    ))
    .unwrap();
    // path closure                            [compiled, DRed]
    p.add_rule(WRule::new(
        local("path", &["x", "y"]),
        vec![local("edge", &["x", "y"]).into()],
    ))
    .unwrap();
    p.add_rule(WRule::new(
        local("path", &["x", "z"]),
        vec![
            local("edge", &["x", "y"]).into(),
            local("path", &["y", "z"]).into(),
        ],
    ))
    .unwrap();
    // echo(x) :- mirror(x)                    [compiled over remote contribs]
    p.add_rule(WRule::new(
        local("echo", &["x"]),
        vec![local("mirror", &["x"]).into()],
    ))
    .unwrap();
    // mirror@next(x) :- visible(x)            [dynamic: remote head]
    p.add_rule(WRule::new(
        WAtom::at("mirror", next.as_str(), vec![Term::var("x")]),
        vec![local("visible", &["x"]).into()],
    ))
    .unwrap();
    for _ in 0..rng.gen_range(2..8) {
        p.insert_local("item", vec![Value::from(rng.gen_range(0..RING_VALS))])
            .unwrap();
    }
    if rng.gen_bool(0.5) {
        p.insert_local("hidden", vec![Value::from(rng.gen_range(0..RING_VALS))])
            .unwrap();
    }
    for _ in 0..rng.gen_range(1..6) {
        p.insert_local(
            "edge",
            vec![
                Value::from(rng.gen_range(0..6i64)),
                Value::from(rng.gen_range(0..6i64)),
            ],
        )
        .unwrap();
    }
    p
}

/// The ring as a scenario: three churn batches of random inserts and
/// deletes on `item`, `hidden` and `edge`. Deletions drive the incremental
/// path — counting retractions, DRed, and retraction of facts already
/// shipped to the next peer.
fn ring(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(0x9A7_000 + seed);
    let batches = (0..3)
        .map(|_| {
            (0..6)
                .map(|_| {
                    let peer = Symbol::intern(&ring_name(rng.gen_range(0..RING)));
                    let (rel, tuple) = match rng.gen_range(0..3) {
                        0 => ("item", vec![Value::from(rng.gen_range(0..RING_VALS))]),
                        1 => ("hidden", vec![Value::from(rng.gen_range(0..RING_VALS))]),
                        _ => (
                            "edge",
                            vec![
                                Value::from(rng.gen_range(0..6i64)),
                                Value::from(rng.gen_range(0..6i64)),
                            ],
                        ),
                    };
                    let rel = Symbol::intern(rel);
                    let op = if rng.gen_bool(0.5) {
                        SimOp::Insert { rel, tuple }
                    } else {
                        SimOp::Delete { rel, tuple }
                    };
                    (peer, op)
                })
                .collect()
        })
        .collect();
    Scenario {
        name: format!("ring/{seed}"),
        additive: false,
        // Every ring peer holds received remote contributions (`mirror`).
        crashable: Vec::new(),
        watched: (0..RING)
            .map(|i| (Symbol::intern(&ring_name(i)), Symbol::intern("echo")))
            .collect(),
        build: Box::new(move || {
            (0..RING)
                .map(|i| {
                    // Per-peer RNG: each peer's content depends only on
                    // the seed and its index.
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xbeef + i as u64));
                    ring_peer(i, &mut rng)
                })
                .collect()
        }),
        batches,
    }
}

type Generator = fn(u64) -> Scenario;

#[test]
fn parity_across_generators_seeds_and_shard_counts() {
    let generators: Vec<(&str, Generator)> = vec![
        ("fanout", scenarios::delegation_fanout),
        ("churn", scenarios::delegation_churn),
        ("acl", scenarios::acl_restricted),
        ("transfer", scenarios::transfer_dispatch),
        ("publish", scenarios::publish_chain),
        ("ring", ring),
    ];
    let mut rng = StdRng::seed_from_u64(0x5AD5_ED01);
    for seed in 1..=3u64 {
        for (name, gen) in &generators {
            let shards = rng.gen_range(1..=8usize);
            let scenario = gen(seed);
            eprintln!("parity: {name} seed={seed} shards={shards}");
            run_parity(&scenario, shards);
        }
    }
}

#[test]
fn parity_on_scaled_burst_workload() {
    // The e14 macro-workload shape at test size: many registered peers,
    // few publishers. Exercises skip-scheduling hard — most peers are
    // quiescent from round one.
    for shards in [1, 3, 8] {
        let scenario = scenarios::publish_burst(21, 64, 5, 2, 2);
        run_parity(&scenario, shards);
    }
}

/// A lean publisher peer for churn tests, built identically for both
/// runtimes.
fn burst_publisher(name: &str, hub: &str) -> Peer {
    use webdamlog::core::acl::UntrustedPolicy;
    let mut p = Peer::new(name);
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    p.add_rule(wepic::rules::publish_to_sigmod(name, hub).unwrap())
        .unwrap();
    p
}

#[test]
fn parity_with_midrun_peer_churn() {
    let scenario = scenarios::publish_burst(33, 40, 4, 2, 2);
    let ctx = "midrun-churn";
    let mut lr = LocalRuntime::new();
    let mut sh = ShardedRuntime::new(3);
    for p in (scenario.build)() {
        lr.add_peer(p).unwrap();
    }
    for p in (scenario.build)() {
        sh.add_peer(p).unwrap();
    }
    lockstep_quiesce(&mut lr, &mut sh, ctx);

    // Batch 0, then churn: a new publisher joins (with a picture already
    // uploaded), and an idle registered peer leaves — in both runtimes.
    for (peer, op) in &scenario.batches[0] {
        apply_op(&mut lr, &mut sh, *peer, op);
    }
    lockstep_quiesce(&mut lr, &mut sh, ctx);

    let mut corpus = wepic::PictureCorpus::new(77);
    let pics = corpus.pictures("lateJoiner", 2, 8);
    let build_late = || {
        let mut p = burst_publisher("lateJoiner", "burstHub");
        for pic in &pics {
            p.insert_local(
                "pictures",
                vec![
                    webdamlog::datalog::Value::from(pic.id),
                    webdamlog::datalog::Value::from(pic.name.as_str()),
                    webdamlog::datalog::Value::from(pic.owner.as_str()),
                    webdamlog::datalog::Value::bytes(&pic.data),
                ],
            )
            .unwrap();
        }
        p
    };
    lr.add_peer(build_late()).unwrap();
    sh.add_peer(build_late()).unwrap();
    let gone = lr.remove_peer("burstAtt1").unwrap();
    let gone_sh = sh.remove_peer("burstAtt1").unwrap();
    assert_eq!(gone.name(), gone_sh.name());
    lockstep_quiesce(&mut lr, &mut sh, ctx);
    assert_same_state(&lr, &sh, ctx);

    // The removed name is reusable in both, and batch 1 still agrees.
    lr.add_peer(burst_publisher("burstAtt1", "burstHub"))
        .unwrap();
    sh.add_peer(burst_publisher("burstAtt1", "burstHub"))
        .unwrap();
    for (peer, op) in &scenario.batches[1] {
        apply_op(&mut lr, &mut sh, *peer, op);
    }
    lockstep_quiesce(&mut lr, &mut sh, ctx);
    assert_same_state(&lr, &sh, ctx);

    // The late joiner's pre-loaded pictures reached the hub.
    let hub_pics = sh.relation_facts("burstHub", "pictures").unwrap();
    assert!(
        hub_pics
            .iter()
            .any(|t| t[2] == webdamlog::datalog::Value::from("lateJoiner")),
        "late joiner's uploads must reach the registry"
    );
}

/// A finite per-round inbox budget slows the hub down but must converge
/// to the exact unbudgeted outcome, with the carry visible as `deferred`.
#[test]
fn admission_budget_converges_to_reference() {
    let scenario = scenarios::publish_burst(9, 48, 6, 2, 2);
    let reference = scenario.reference().unwrap();
    let watch = scenario.watched[0];

    let mut sh = ShardedRuntime::new(4);
    sh.set_inbox_budget(1);
    for p in (scenario.build)() {
        sh.add_peer(p).unwrap();
    }
    let mut saw_deferred = false;
    let mut budget_rounds = 0usize;
    let quiesce = |sh: &mut ShardedRuntime, saw: &mut bool, rounds: &mut usize| loop {
        let tick = sh.tick().unwrap();
        *saw |= tick.deferred > 0;
        *rounds += 1;
        assert!(*rounds < 512, "budgeted run did not converge");
        if !tick.changed && tick.messages == 0 && tick.deferred == 0 {
            break;
        }
    };
    quiesce(&mut sh, &mut saw_deferred, &mut budget_rounds);
    for batch in &scenario.batches {
        for (peer, op) in batch {
            match op.clone() {
                SimOp::Insert { rel, tuple } => {
                    sh.insert_local(*peer, rel, tuple).unwrap();
                }
                SimOp::Delete { rel, tuple } => {
                    sh.delete_local(*peer, rel, tuple).unwrap();
                }
            }
        }
        quiesce(&mut sh, &mut saw_deferred, &mut budget_rounds);
    }
    assert!(saw_deferred, "budget 1 over a 6-way fan-in must defer");

    let final_state: std::collections::BTreeSet<Tuple> = sh
        .relation_facts(watch.0, watch.1)
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(
        final_state, reference.final_state[&watch],
        "budgeted run must reach the reference fixpoint"
    );
}
