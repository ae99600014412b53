//! E16 — reliable-delivery session layer overhead (ISSUE 9).
//!
//! The session layer buys exactly-once in-order delivery, restart
//! detection, and liveness tracking; this bench prices it on the link
//! where it buys nothing: a lossless in-memory transport. The same
//! seeded delegation fan-out scenarios run twice through real
//! [`PeerNode`] stacks — once over raw `MemoryEndpoint`s, once with
//! every endpoint wrapped in a [`SessionEndpoint`] — and both sides are
//! verified against the scenario's fault-free reference before any
//! number is reported.
//!
//! * **`session_overhead`** (gated, <= 1.20x): sessioned over raw wall
//!   time for the full sweep, as the median of per-pair ratios over
//!   `PAIRS` interleaved raw/sessioned pairs (as e14 measures
//!   `tracing_overhead`). This is the price of framing every payload,
//!   sequencing, dedup bookkeeping, ack traffic, and the extra quiescence
//!   rounds acks need — paid even when the link never misbehaves.
//! * **`raw_ms` / `sessioned_ms`** (informational): each side's fastest
//!   sweep.
//! * **`session_retransmits`** (informational): retransmissions across
//!   the sessioned sweep — expected (near) zero, since the link never
//!   drops; at quiescence nothing may remain unacked (asserted).
//!
//! Pairs alternate which side runs first so drift (page cache,
//! allocator state, CPU frequency) lands on both sides alike, and the
//! median discards the pairs a noise spike still hit.

use std::time::Instant;
use wdl_core::acl::UntrustedPolicy;
use wdl_core::Peer;
use wdl_datalog::{Symbol, Value};
use wdl_net::memory::{InMemoryNetwork, MemoryEndpoint};
use wdl_net::node::PeerNode;
use wdl_net::session::{SessionConfig, SessionEndpoint};
use wdl_net::sim::oracle::Scenario;
use wdl_net::sim::SimOp;
use wdl_net::Transport;
use wepic::{rules, schema, PictureCorpus};

/// Scenario seeds per sweep — each builds a different picture corpus.
const SEEDS: &[u64] = &[21, 22, 23];
/// Attendees the viewer delegates to.
const ATTENDEES: usize = 3;
/// Pictures each attendee uploads per picture batch.
const PER_BATCH: usize = 40;
/// Picture batches (one more batch carries the delegating selections).
const PIC_BATCHES: usize = 3;
/// Picture payload bytes.
const PAYLOAD: usize = 64;
/// Consecutive all-quiet rounds that count as network quiescence.
const QUIET: usize = 5;
/// Raw/sessioned sweep pairs timed, the same in quick and full runs: the
/// ratio is ceiling-gated (bench-gate) on the quick-run JSON too. Odd, so
/// the median is one pair's ratio.
const PAIRS: usize = 31;
/// Hard cap on stepping rounds per quiesce (a stuck protocol fails the
/// bench instead of hanging it).
const MAX_ROUNDS: usize = 50_000;

/// A scaled-up `delegation_fanout`: the paper's fan-out view with a
/// corpus big enough that stage compute, not round bookkeeping,
/// dominates each timed sweep. Batch 0 uploads pictures before any
/// delegation exists, batch 1 installs the selections (provisioning the
/// rule to every attendee), and the remaining batches upload while the
/// delegations are live.
fn heavy_fanout(seed: u64) -> Scenario {
    let viewer = format!("e16view{seed}");
    let attendees: Vec<String> = (0..ATTENDEES)
        .map(|i| format!("e16att{seed}x{i}"))
        .collect();

    let mut corpus = PictureCorpus::new(seed);
    let mut batches = Vec::new();
    for b in 0..PIC_BATCHES {
        let mut batch = Vec::new();
        for a in &attendees {
            for p in corpus.pictures(a, PER_BATCH, PAYLOAD) {
                batch.push((
                    Symbol::intern(a),
                    SimOp::Insert {
                        rel: Symbol::intern("pictures"),
                        tuple: p.to_values(),
                    },
                ));
            }
        }
        batches.push(batch);
        if b == 0 {
            batches.push(
                attendees
                    .iter()
                    .map(|a| {
                        (
                            Symbol::intern(&viewer),
                            SimOp::Insert {
                                rel: Symbol::intern("selectedAttendee"),
                                tuple: vec![Value::from(a.as_str())],
                            },
                        )
                    })
                    .collect(),
            );
        }
    }

    let build_viewer = viewer.clone();
    let build_attendees = attendees.clone();
    Scenario {
        name: format!("e16-fanout/{ATTENDEES}x{PER_BATCH}x{PIC_BATCHES}"),
        additive: true,
        crashable: Vec::new(),
        watched: vec![(Symbol::intern(&viewer), Symbol::intern("attendeePictures"))],
        build: Box::new(move || {
            let mut peers = Vec::new();
            let mut v = open_attendee(&build_viewer);
            v.add_rule(rules::attendee_pictures(&build_viewer).unwrap())
                .unwrap();
            peers.push(v);
            peers.extend(build_attendees.iter().map(|a| open_attendee(a)));
            peers
        }),
        batches,
    }
}

fn open_attendee(name: &str) -> Peer {
    let mut p = Peer::new(name);
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    schema::declare_attendee(&mut p).expect("attendee schema");
    p
}

/// Steps every node round-robin until the network is quiet (no stage
/// changes, no traffic, no session work in flight) for `QUIET`
/// consecutive rounds.
fn quiesce<T: Transport>(nodes: &mut [PeerNode<T>]) {
    let mut streak = 0;
    for _ in 0..MAX_ROUNDS {
        let mut active = false;
        for node in nodes.iter_mut() {
            let r = node.step().expect("step");
            active |= r.changed || r.received > 0 || r.sent > 0 || r.deferred > 0;
            active |= node.transport().pending_work() > 0;
        }
        streak = if active { 0 } else { streak + 1 };
        if streak >= QUIET {
            return;
        }
    }
    panic!("e16: network failed to quiesce within {MAX_ROUNDS} rounds");
}

/// Applies the scenario's scripted batches and quiesces after each —
/// the timed portion of a run.
fn drive<T: Transport>(nodes: &mut [PeerNode<T>], sc: &Scenario) {
    quiesce(nodes);
    for batch in &sc.batches {
        for (peer, op) in batch {
            let node = nodes
                .iter_mut()
                .find(|n| n.peer().name() == *peer)
                .expect("scenario names a known peer");
            match op {
                SimOp::Insert { rel, tuple } => {
                    node.peer_mut().insert_local(*rel, tuple.clone()).unwrap();
                }
                SimOp::Delete { rel, tuple } => {
                    node.peer_mut().delete_local(*rel, tuple.clone()).unwrap();
                }
            }
        }
        quiesce(nodes);
    }
}

/// Verifies every watched relation against the scenario's fault-free
/// reference — a transport that loses or invents facts fails the bench
/// before any timing is reported.
fn verify<T: Transport>(nodes: &[PeerNode<T>], sc: &Scenario, label: &str) {
    let reference = sc.reference().expect("fault-free reference");
    for &(peer, rel) in &sc.watched {
        let node = nodes.iter().find(|n| n.peer().name() == peer).unwrap();
        let got: std::collections::BTreeSet<_> =
            node.peer().relation_facts(rel).into_iter().collect();
        assert_eq!(
            &got,
            reference.final_state.get(&(peer, rel)).unwrap(),
            "e16 [{label}]: {rel}@{peer} diverged from the reference"
        );
    }
}

fn raw_nodes(sc: &Scenario) -> Vec<PeerNode<MemoryEndpoint>> {
    let net = InMemoryNetwork::new();
    let peers: Vec<Peer> = (sc.build)();
    peers
        .into_iter()
        .map(|p| {
            let ep = net.endpoint(p.name()).expect("endpoint");
            PeerNode::new(p, ep)
        })
        .collect()
}

fn sessioned_nodes(sc: &Scenario, seed: u64) -> Vec<PeerNode<SessionEndpoint<MemoryEndpoint>>> {
    let net = InMemoryNetwork::new();
    let peers: Vec<Peer> = (sc.build)();
    peers
        .into_iter()
        .map(|p| {
            let ep = net.endpoint(p.name()).expect("endpoint");
            let cfg = SessionConfig {
                seed,
                ..SessionConfig::default()
            };
            PeerNode::new(p, SessionEndpoint::new(ep, 0, cfg))
        })
        .collect()
}

/// One full sweep over every seed. Returns wall nanoseconds of the
/// driven (batches + quiescence) portion; node construction is untimed.
fn sweep(sessioned: bool, check: bool) -> u128 {
    let mut total = 0u128;
    for &seed in SEEDS {
        let sc = heavy_fanout(seed);
        if sessioned {
            let mut nodes = sessioned_nodes(&sc, seed);
            let t0 = Instant::now();
            drive(&mut nodes, &sc);
            total += t0.elapsed().as_nanos();
            if check {
                verify(&nodes, &sc, "sessioned");
            }
        } else {
            let mut nodes = raw_nodes(&sc);
            let t0 = Instant::now();
            drive(&mut nodes, &sc);
            total += t0.elapsed().as_nanos();
            if check {
                verify(&nodes, &sc, "raw");
            }
        }
    }
    total
}

/// The session overhead as the **median of per-pair ratios** over
/// [`PAIRS`] raw/sessioned sweep pairs, alternating which side runs
/// first. A ratio of two minima follows the one luckiest sample of each
/// side; a pair's ratio cancels the drift both of its sweeps share.
/// Returns the ratio and each side's fastest sweep.
fn paired_overhead() -> (f64, u128, u128) {
    let mut ratios = Vec::with_capacity(PAIRS);
    let (mut raw_ns, mut sess_ns) = (u128::MAX, u128::MAX);
    for pair in 0..PAIRS {
        let sessioned_first = pair % 2 == 1;
        let mut t = [0u128; 2]; // [raw, sessioned]
        for slot in 0..2 {
            let sessioned = (slot == 0) == sessioned_first;
            t[usize::from(sessioned)] = sweep(sessioned, false);
        }
        ratios.push(t[1] as f64 / t[0] as f64);
        raw_ns = raw_ns.min(t[0]);
        sess_ns = sess_ns.min(t[1]);
    }
    ratios.sort_by(f64::total_cmp);
    (ratios[PAIRS / 2], raw_ns, sess_ns)
}

fn main() {
    let mut c = wdl_bench::criterion();

    println!("E16: session layer overhead on a lossless in-memory link");
    println!(
        "workload: {} fan-out scenarios ({ATTENDEES} attendees x {PER_BATCH} pics x \
         {PIC_BATCHES} batches), raw vs sessioned, {PAIRS} interleaved pairs",
        SEEDS.len()
    );

    // Correctness first: both stacks must reproduce the reference.
    sweep(false, true);
    sweep(true, true);

    let (overhead, raw_ns, sess_ns) = paired_overhead();

    // Inspect the protocol once, outside the timed sweeps: on a lossless
    // link retransmission should stay (near) zero and nothing may remain
    // unacked at quiescence.
    let mut retransmits = 0u64;
    for &seed in SEEDS {
        let sc = heavy_fanout(seed);
        let mut nodes = sessioned_nodes(&sc, seed);
        drive(&mut nodes, &sc);
        for node in nodes {
            let (_, tr) = node.into_parts();
            let s = tr.stats();
            assert_eq!(s.unacked, 0, "quiescence left unacked frames");
            retransmits += s.retransmits;
        }
    }

    println!("\n# E16: sessioned vs raw on a lossless link");
    println!("{:>14} {:>14} {:>10}", "raw_ms", "sessioned_ms", "overhead");
    println!(
        "{:>14.3} {:>14.3} {:>9.3}x",
        raw_ns as f64 / 1e6,
        sess_ns as f64 / 1e6,
        overhead
    );
    println!("retransmits across the sessioned sweep: {retransmits}");

    c.record_metric("raw_ms", raw_ns as f64 / 1e6);
    c.record_metric("sessioned_ms", sess_ns as f64 / 1e6);
    c.record_metric("session_overhead", overhead);
    c.record_metric("session_retransmits", retransmits as f64);

    assert!(
        overhead <= 1.20,
        "session layer overhead {overhead:.3}x exceeds the 1.20x budget"
    );
    c.final_summary();
}
