//! E13 — compiled stage-layer matcher vs the `Subst` interpreter on
//! delegated workloads (ISSUE 5).
//!
//! The WebdamLog stage loop — the part that actually reproduces the
//! paper's delegation model — historically ran the symbol-keyed `Subst`
//! interpreter even after the datalog kernel moved to compiled
//! register-file plans (PR 4). This bench measures the effect of
//! compiling the *local prefix* of distributed rules
//! (`Peer::set_compiled_stage`) on the paper's Wepic delegation fan-out
//! shape:
//!
//! * a **hub** peer holds `selectedAttendee` rows and the rating-filter
//!   rule `attendeePictures@hub :- selectedAttendee@hub($a),
//!   pictures@$a(...), rate@$a($id, $r), $r >= 3` — every stage
//!   re-derives one delegation per selected attendee (delegation
//!   fan-out, per-stage soft state);
//! * each **attendee** runs the delegated remainder — after
//!   instantiation a *fully local* join `pictures ⋈ rate` with a
//!   comparison filter and a remote head — re-evaluated every stage
//!   (the paper's soft-state re-derivation).
//!
//! Both engines run identical peers on identical data; the headline
//! `stage_speedup` metric (interpreted / compiled wall time of a
//! hub-stage + attendee-stage pair, measured at the same workload scale
//! in quick and full runs) feeds the CI perf gate (`bench-gate`) via
//! `BENCH_e13_stage.json`. The ≥ 1.3× headline assertion runs only at
//! full sampling (quick CI smoke relies on the gate's ratio floor).

use criterion::BenchmarkId;
use std::hint::black_box;

use wdl_bench::{open_peer, quick};
use wdl_core::{Message, NameTerm, Peer, RelationKind, WAtom, WBodyItem, WRule};
use wdl_datalog::{CmpOp, Term, Value};

/// One workload scale: selected attendees (delegation fan-out width) and
/// pictures+ratings per attendee (delegated join size). One scale, same
/// in quick and full mode, so the pinned ratio is like-for-like.
const ATTENDEES: usize = 16;
const PICS: usize = 480;

/// The §3.5 rating-filter rule: body splits at `pictures@$attendee`, so
/// the delegated remainder instantiates to a fully local join + filter
/// at each attendee.
fn rating_filter_rule() -> WRule {
    WRule::new(
        WAtom::at(
            "attendeePictures",
            "hub",
            vec![
                Term::var("id"),
                Term::var("name"),
                Term::var("owner"),
                Term::var("data"),
            ],
        ),
        vec![
            WAtom::at("selectedAttendee", "hub", vec![Term::var("a")]).into(),
            WAtom::new(
                NameTerm::name("pictures"),
                NameTerm::var("a"),
                vec![
                    Term::var("id"),
                    Term::var("name"),
                    Term::var("owner"),
                    Term::var("data"),
                ],
            )
            .into(),
            WAtom::new(
                NameTerm::name("rate"),
                NameTerm::var("a"),
                vec![Term::var("id"), Term::var("r")],
            )
            .into(),
            WBodyItem::cmp(CmpOp::Ge, Term::var("r"), Term::cst(3)),
        ],
    )
}

/// Builds hub + attendees, runs the delegation handshake to a settled
/// state, and returns the system.
fn build(compiled: bool) -> (Peer, Vec<Peer>) {
    let mut hub = open_peer("hub");
    hub.set_compiled_stage(compiled);
    hub.declare("attendeePictures", 4, RelationKind::Intensional)
        .unwrap();
    hub.add_rule(rating_filter_rule()).unwrap();

    let names: Vec<String> = (0..ATTENDEES).map(|i| format!("att{i}")).collect();
    for n in &names {
        hub.insert_local("selectedAttendee", vec![Value::from(n.as_str())])
            .unwrap();
    }
    let mut atts: Vec<Peer> = Vec::with_capacity(ATTENDEES);
    for n in &names {
        let mut a = open_peer(n);
        a.set_compiled_stage(compiled);
        for p in 0..PICS {
            a.insert_local(
                "pictures",
                vec![
                    Value::from(p as i64),
                    Value::from(format!("{n}-{p}.jpg")),
                    Value::from(n.as_str()),
                    Value::bytes(&[0xAB; 8]),
                ],
            )
            .unwrap();
            a.insert_local(
                "rate",
                vec![Value::from(p as i64), Value::from((p % 6) as i64)],
            )
            .unwrap();
        }
        atts.push(a);
    }

    // Delegation handshake: hub emits, attendees install + derive, facts
    // flow back, everyone settles.
    let route = |msgs: Vec<Message>, hub: &mut Peer, atts: &mut Vec<Peer>| {
        for m in msgs {
            if m.to == hub.name() {
                hub.enqueue(m);
            } else if let Some(a) = atts.iter_mut().find(|a| a.name() == m.to) {
                a.enqueue(m);
            }
        }
    };
    for _ in 0..3 {
        let mut pending = hub.run_stage().expect("hub stage").messages;
        for a in atts.iter_mut() {
            pending.extend(a.run_stage().expect("attendee stage").messages);
        }
        route(pending, &mut hub, &mut atts);
    }
    assert_eq!(
        atts[0].installed_delegations().len(),
        1,
        "delegated remainder installed"
    );
    let expected = ATTENDEES * PICS / 2; // $r >= 3 keeps r in {3,4,5} of 0..=5
    assert_eq!(
        hub.relation_facts("attendeePictures").len(),
        expected,
        "delegated derivations arrived"
    );
    (hub, atts)
}

struct Measured {
    hub_ns: u128,
    att_ns: u128,
    derivations: u64,
}

/// Median per-stage wall time of the hub (delegation fan-out
/// re-derivation) and one attendee (delegated-join re-derivation), at a
/// settled fixpoint: every stage re-derives the full soft state, no
/// messages flow. The two engines' samples are **interleaved** — one
/// compiled stage, one interpreted stage, alternating — so machine-load
/// drift during the run hits both engines equally and the speedup ratio
/// stays stable on noisy shared runners.
fn measure_pair(runs: usize) -> (Measured, Measured) {
    let (mut chub, mut catts) = build(true);
    let (mut ihub, mut iatts) = build(false);
    let mut samples: [Vec<u128>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut derivations = (0u64, 0u64);
    let timed = |p: &mut Peer| -> (u128, u64) {
        let t0 = std::time::Instant::now();
        let out = p.run_stage().expect("stage");
        let ns = t0.elapsed().as_nanos();
        assert!(out.messages.is_empty(), "settled: no diffs");
        black_box(out.stats.derivations);
        (ns, out.stats.derivations as u64)
    };
    for _ in 0..runs {
        samples[0].push(timed(&mut chub).0);
        samples[1].push(timed(&mut ihub).0);
        let (ns, d) = timed(&mut catts[0]);
        samples[2].push(ns);
        derivations.0 = d;
        let (ns, d) = timed(&mut iatts[0]);
        samples[3].push(ns);
        derivations.1 = d;
    }
    let median = |v: &mut Vec<u128>| {
        v.sort();
        v[v.len() / 2]
    };
    (
        Measured {
            hub_ns: median(&mut samples[0]),
            att_ns: median(&mut samples[2]),
            derivations: derivations.0,
        },
        Measured {
            hub_ns: median(&mut samples[1]),
            att_ns: median(&mut samples[3]),
            derivations: derivations.1,
        },
    )
}

fn main() {
    let mut c = wdl_bench::criterion();
    let runs = if quick() { 9 } else { 31 };

    println!("E13: compiled vs interpreted stage evaluation");
    println!(
        "workload: {ATTENDEES} attendees x {PICS} pictures+ratings, \
         rating-filter delegation fan-out"
    );

    let (compiled, interpreted) = measure_pair(runs);
    assert_eq!(
        compiled.derivations, interpreted.derivations,
        "engines must re-derive the same soft state"
    );

    // The headline: evaluating the *delegated* rule (instantiated
    // remainder, fully local join + filter + remote head) — exactly the
    // stage-layer matcher work this change compiles. The hub's fan-out
    // stage is also recorded; its maintained view patches only the change,
    // so a settled hub stage is dominated by work both engines share and
    // the engine ratio stays informational rather than pinned.
    let delegated_stage_speedup = interpreted.att_ns as f64 / compiled.att_ns as f64;
    let fanout_stage_speedup = interpreted.hub_ns as f64 / compiled.hub_ns as f64;
    let pair_speedup = (interpreted.hub_ns + interpreted.att_ns) as f64
        / (compiled.hub_ns + compiled.att_ns) as f64;

    println!("| stage              | interpreted | compiled | speedup |");
    println!("|--------------------|-------------|----------|---------|");
    println!(
        "| hub (fan-out)      | {:>9.1}us | {:>6.1}us | {fanout_stage_speedup:>6.2}x |",
        interpreted.hub_ns as f64 / 1e3,
        compiled.hub_ns as f64 / 1e3,
    );
    println!(
        "| attendee (deleg.)  | {:>9.1}us | {:>6.1}us | {delegated_stage_speedup:>6.2}x |",
        interpreted.att_ns as f64 / 1e3,
        compiled.att_ns as f64 / 1e3,
    );
    println!("pair speedup (hub + attendee): {pair_speedup:.2}x");

    c.record_metric("delegated_stage_speedup", delegated_stage_speedup);
    c.record_metric("fanout_stage_speedup", fanout_stage_speedup);
    c.record_metric("pair_speedup", pair_speedup);
    c.record_metric("attendee_derivations", compiled.derivations as f64);

    if !quick() {
        assert!(
            delegated_stage_speedup >= 1.3,
            "ISSUE 5 headline: compiled stage must be >= 1.3x on the \
             delegated workload (measured {delegated_stage_speedup:.2}x)"
        );
    }

    // Criterion timing groups for the JSON results array (per-engine
    // per-stage medians are already captured above; these sample the
    // steady-state loop under criterion's harness for the record).
    for (label, engine_compiled) in [("compiled", true), ("interpreted", false)] {
        let (mut hub, mut atts) = build(engine_compiled);
        let mut group = c.benchmark_group("e13_stage");
        group.bench_with_input(BenchmarkId::new("hub_stage", label), &ATTENDEES, |b, _| {
            b.iter(|| black_box(hub.run_stage().expect("stage").stats.derivations));
        });
        group.bench_with_input(BenchmarkId::new("attendee_stage", label), &PICS, |b, _| {
            b.iter(|| black_box(atts[0].run_stage().expect("stage").stats.derivations));
        });
    }

    c.final_summary();
}
