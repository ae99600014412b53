//! Seeded Wepic scenarios for the distributed simulation harness.
//!
//! Each generator turns a `u64` seed into a [`Scenario`] — peers, rules,
//! and scripted mutation batches over the synthetic picture corpus — that
//! `wdl_net::sim::oracle` can grade under arbitrary fault plans. The
//! scenarios cover the demo's semantics end to end: delegation fan-out,
//! churn with revocation and retraction, relation-grant access control,
//! the protocol-dispatch transfer rule, and the multi-hop publish chain.
//!
//! Scenario peers use fixed names (prefixed per scenario), so the same
//! seed always builds the same system; all size variation comes from the
//! seeded corpus generator.

use crate::corpus::{Picture, PictureCorpus};
use crate::{rules, schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdl_core::acl::UntrustedPolicy;
use wdl_core::Peer;
use wdl_datalog::{Symbol, Value};
use wdl_net::sim::oracle::Scenario;
use wdl_net::sim::SimOp;

fn open_attendee(name: &str) -> Peer {
    let mut p = Peer::new(name);
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    schema::declare_attendee(&mut p).expect("attendee schema");
    p
}

fn pic_tuple(p: &Picture) -> Vec<Value> {
    vec![
        Value::from(p.id),
        Value::from(p.name.as_str()),
        Value::from(p.owner.as_str()),
        Value::bytes(&p.data),
    ]
}

fn insert(rel: &str, tuple: Vec<Value>) -> SimOp {
    SimOp::Insert {
        rel: Symbol::intern(rel),
        tuple,
    }
}

fn delete(rel: &str, tuple: Vec<Value>) -> SimOp {
    SimOp::Delete {
        rel: Symbol::intern(rel),
        tuple,
    }
}

/// The paper's §3 view: one viewer delegates `attendeePictures` to a
/// seeded number of attendees; pictures keep arriving after the
/// delegations are installed. Monotone (insert-only), so the oracle's
/// subset and (under lossless plans) equality checks both apply; the
/// attendees are crash-safe sources.
pub fn delegation_fanout(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_att = rng.gen_range(2..=3usize);
    let per_batch = rng.gen_range(2..=3usize);
    let viewer = "fanViewer".to_string();
    let attendees: Vec<String> = (0..n_att).map(|i| format!("fanAtt{i}")).collect();

    let mut corpus = PictureCorpus::new(seed);
    let mut batch0 = Vec::new();
    let mut batch2 = Vec::new();
    for a in &attendees {
        for p in corpus.pictures(a, per_batch, 8) {
            batch0.push((Symbol::intern(a), insert("pictures", pic_tuple(&p))));
        }
        for p in corpus.pictures(a, per_batch, 8) {
            batch2.push((Symbol::intern(a), insert("pictures", pic_tuple(&p))));
        }
    }
    let batch1 = attendees
        .iter()
        .map(|a| {
            (
                Symbol::intern(&viewer),
                insert("selectedAttendee", vec![Value::from(a.as_str())]),
            )
        })
        .collect();

    let build_viewer = viewer.clone();
    let build_attendees = attendees.clone();
    Scenario {
        name: format!("delegation-fanout/{n_att}x{per_batch}"),
        additive: true,
        crashable: attendees.iter().map(|a| Symbol::intern(a)).collect(),
        watched: vec![(Symbol::intern(&viewer), Symbol::intern("attendeePictures"))],
        build: Box::new(move || {
            let mut v = open_attendee(&build_viewer);
            v.add_rule(rules::attendee_pictures(&build_viewer).unwrap())
                .unwrap();
            let mut peers = vec![v];
            peers.extend(build_attendees.iter().map(|a| open_attendee(a)));
            peers
        }),
        batches: vec![batch0, batch1, batch2],
    }
}

/// Fan-out plus churn: an attendee is deselected (revoking the delegation
/// and retracting its contributions), a picture is deleted (the
/// retraction propagates through the installed rule), and the attendee is
/// re-selected. Retractions make the workload non-monotone: the equality
/// oracle requires an ordered (TCP-like) plan, and lossy runs are graded
/// on universe membership only.
pub fn delegation_churn(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C0DE);
    let per = rng.gen_range(2..=4usize);
    let viewer = "churnViewer".to_string();
    let attendees = vec!["churnAtt0".to_string(), "churnAtt1".to_string()];

    let mut corpus = PictureCorpus::new(seed);
    let pics0 = corpus.pictures(&attendees[0], per, 8);
    let pics1 = corpus.pictures(&attendees[1], per, 8);

    let mut batch0: Vec<(Symbol, SimOp)> = Vec::new();
    for p in &pics0 {
        batch0.push((
            Symbol::intern(&attendees[0]),
            insert("pictures", pic_tuple(p)),
        ));
    }
    for p in &pics1 {
        batch0.push((
            Symbol::intern(&attendees[1]),
            insert("pictures", pic_tuple(p)),
        ));
    }
    let batch1 = attendees
        .iter()
        .map(|a| {
            (
                Symbol::intern(&viewer),
                insert("selectedAttendee", vec![Value::from(a.as_str())]),
            )
        })
        .collect();
    // Deselect attendee 0 (revocation) and retract one of attendee 1's
    // pictures (remote retraction through the installed delegation).
    let victim = &pics1[rng.gen_range(0..pics1.len())];
    let batch2 = vec![
        (
            Symbol::intern(&viewer),
            delete("selectedAttendee", vec![Value::from(attendees[0].as_str())]),
        ),
        (
            Symbol::intern(&attendees[1]),
            delete("pictures", pic_tuple(victim)),
        ),
    ];
    // Re-select attendee 0: the rule re-delegates and its pictures return.
    let batch3 = vec![(
        Symbol::intern(&viewer),
        insert("selectedAttendee", vec![Value::from(attendees[0].as_str())]),
    )];

    let build_viewer = viewer.clone();
    let build_attendees = attendees.clone();
    Scenario {
        name: format!("delegation-churn/{per}"),
        additive: false,
        crashable: Vec::new(),
        watched: vec![(Symbol::intern(&viewer), Symbol::intern("attendeePictures"))],
        build: Box::new(move || {
            let mut v = open_attendee(&build_viewer);
            v.add_rule(rules::attendee_pictures(&build_viewer).unwrap())
                .unwrap();
            let mut peers = vec![v];
            peers.extend(build_attendees.iter().map(|a| open_attendee(a)));
            peers
        }),
        batches: vec![batch0, batch1, batch2, batch3],
    }
}

/// The access-control cut of the fan-out: both attendees restrict reads
/// on `pictures`, but only the first grants the viewer. The delegated
/// rule is blocked at the second attendee, so the lossless outcome
/// contains the first attendee's pictures only — and the oracle verifies
/// faults never leak the restricted ones.
pub fn acl_restricted(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAC_1AC1);
    let per = rng.gen_range(2..=4usize);
    let viewer = "aclViewer".to_string();
    let granting = "aclOpen".to_string();
    let restricted = "aclClosed".to_string();

    let mut corpus = PictureCorpus::new(seed);
    let mut batch0 = Vec::new();
    for p in corpus.pictures(&granting, per, 8) {
        batch0.push((Symbol::intern(&granting), insert("pictures", pic_tuple(&p))));
    }
    for p in corpus.pictures(&restricted, per, 8) {
        batch0.push((
            Symbol::intern(&restricted),
            insert("pictures", pic_tuple(&p)),
        ));
    }
    let batch1 = vec![
        (
            Symbol::intern(&viewer),
            insert("selectedAttendee", vec![Value::from(granting.as_str())]),
        ),
        (
            Symbol::intern(&viewer),
            insert("selectedAttendee", vec![Value::from(restricted.as_str())]),
        ),
    ];

    let b_viewer = viewer.clone();
    let b_granting = granting.clone();
    let b_restricted = restricted.clone();
    Scenario {
        name: format!("acl-restricted/{per}"),
        additive: true,
        crashable: vec![Symbol::intern(&granting), Symbol::intern(&restricted)],
        watched: vec![(Symbol::intern(&viewer), Symbol::intern("attendeePictures"))],
        build: Box::new(move || {
            let mut v = open_attendee(&b_viewer);
            v.add_rule(rules::attendee_pictures(&b_viewer).unwrap())
                .unwrap();
            let mut open = open_attendee(&b_granting);
            open.acl_mut().restrict_read("pictures");
            open.acl_mut().grant_read("pictures", b_viewer.as_str());
            let mut closed = open_attendee(&b_restricted);
            closed.acl_mut().restrict_read("pictures");
            vec![v, open, closed]
        }),
        batches: vec![batch0, batch1],
    }
}

/// The §3 transfer rule: the sender's protocol-dispatch rule routes
/// selected pictures into the receiver's `wepicInbox` (an extensional
/// relation, so deliveries are monotone insertions). Both sides are
/// crash-safe: inbox facts and `communicate` are durable, and a restarted
/// sender re-sends its diffs from scratch.
pub fn transfer_dispatch(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A4E_5FE2);
    let k = rng.gen_range(2..=4usize);
    let sender = "xferSender".to_string();
    let receiver = "xferReceiver".to_string();

    let mut corpus = PictureCorpus::new(seed);
    let pics = corpus.pictures(&sender, k, 8);
    let batch0 = vec![
        (
            Symbol::intern(&receiver),
            insert("communicate", vec![Value::from("wepicInbox")]),
        ),
        (
            Symbol::intern(&sender),
            insert("selectedAttendee", vec![Value::from(receiver.as_str())]),
        ),
    ];
    let batch1 = pics
        .iter()
        .map(|p| {
            (
                Symbol::intern(&sender),
                insert(
                    "selectedPictures",
                    vec![
                        Value::from(p.name.as_str()),
                        Value::from(p.id),
                        Value::from(p.owner.as_str()),
                    ],
                ),
            )
        })
        .collect();

    let b_sender = sender.clone();
    let b_receiver = receiver.clone();
    Scenario {
        name: format!("transfer-dispatch/{k}"),
        additive: true,
        crashable: vec![Symbol::intern(&sender), Symbol::intern(&receiver)],
        watched: vec![(Symbol::intern(&receiver), Symbol::intern("wepicInbox"))],
        build: Box::new(move || {
            let mut s = open_attendee(&b_sender);
            s.add_rule(rules::transfer(&b_sender).unwrap()).unwrap();
            let r = open_attendee(&b_receiver);
            vec![s, r]
        }),
        batches: vec![batch0, batch1],
    }
}

/// The §4 publish chain: every attendee's uploads flow to the sigmod
/// peer's extensional `pictures` registry — the multi-hop, multi-writer
/// scenario. Monotone; every peer is crash-safe (the registry is
/// durable and senders re-send on restart).
pub fn publish_chain(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9B_C4A1);
    let n_att = rng.gen_range(2..=3usize);
    let per = rng.gen_range(2..=3usize);
    let sigmod = "chainSigmod".to_string();
    let attendees: Vec<String> = (0..n_att).map(|i| format!("chainAtt{i}")).collect();

    let mut corpus = PictureCorpus::new(seed);
    let mut batch0 = Vec::new();
    let mut batch1 = Vec::new();
    for a in &attendees {
        for p in corpus.pictures(a, per, 8) {
            batch0.push((Symbol::intern(a), insert("pictures", pic_tuple(&p))));
        }
        for p in corpus.pictures(a, per, 8) {
            batch1.push((Symbol::intern(a), insert("pictures", pic_tuple(&p))));
        }
    }

    let b_sigmod = sigmod.clone();
    let b_attendees = attendees.clone();
    let mut crashable: Vec<Symbol> = attendees.iter().map(|a| Symbol::intern(a)).collect();
    crashable.push(Symbol::intern(&sigmod));
    Scenario {
        name: format!("publish-chain/{n_att}x{per}"),
        additive: true,
        crashable,
        watched: vec![(Symbol::intern(&sigmod), Symbol::intern("pictures"))],
        build: Box::new(move || {
            let mut s = Peer::new(b_sigmod.as_str());
            s.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
            schema::declare_sigmod(&mut s).expect("sigmod schema");
            let mut peers = vec![s];
            for a in &b_attendees {
                let mut p = open_attendee(a);
                p.add_rule(rules::publish_to_sigmod(a, &b_sigmod).unwrap())
                    .unwrap();
                peers.push(p);
            }
            peers
        }),
        batches: vec![batch0, batch1],
    }
}

/// The scale-out macro-workload behind the `e14_scale` bench: `total`
/// attendee peers each carry the §4 publish rule into one hub registry,
/// but only `active` of them (an evenly-spread, seed-chosen subset) ever
/// upload pictures. The interesting property is the ratio — a runtime
/// that schedules by inbox should pay for the hundreds of publishers, not
/// the `total` registered peers. Attendees are deliberately lean (no full
/// attendee schema): at 10⁵–10⁶ peers, per-peer constant costs dominate
/// everything else.
///
/// Monotone (insert-only), so the oracle's equality check applies to
/// lossless runs. Each of the `n_batches` batches uploads `per` pictures
/// from every active attendee.
pub fn publish_burst(
    seed: u64,
    total: usize,
    active: usize,
    per: usize,
    n_batches: usize,
) -> Scenario {
    use wdl_core::{NameTerm, WAtom, WRule};
    use wdl_datalog::Term;

    let active = active.clamp(1, total.max(1));
    let hub = "burstHub".to_string();
    // Spread the active publishers across the peer-id space. The `i %
    // stride` skew keeps consecutive ids off a common residue class —
    // plain `i * stride` would park every publisher on the same shard of
    // any runtime that assigns round-robin by insertion order whenever
    // the shard count divides the stride. Injective (id / stride == i)
    // and bounded (< active * stride <= total).
    let stride = (total / active).max(1);
    let active_ids: Vec<usize> = (0..active).map(|i| i * stride + i % stride).collect();

    let mut corpus = PictureCorpus::new(seed);
    let mut batches = Vec::with_capacity(n_batches);
    for _ in 0..n_batches {
        let mut batch = Vec::with_capacity(active * per);
        for &i in &active_ids {
            let name = format!("burstAtt{i}");
            for p in corpus.pictures(&name, per, 8) {
                batch.push((Symbol::intern(&name), insert("pictures", pic_tuple(&p))));
            }
        }
        batches.push(batch);
    }

    // Constructed directly (not parsed): building 10⁵ peers must not pay
    // a parser round trip per peer.
    let publish_rule = |me: &str, hub: &str| {
        let args = || {
            vec![
                Term::var("id"),
                Term::var("name"),
                Term::var("owner"),
                Term::var("data"),
            ]
        };
        WRule::new(
            WAtom::new(NameTerm::name("pictures"), NameTerm::name(hub), args()),
            vec![WAtom::new(NameTerm::name("pictures"), NameTerm::name(me), args()).into()],
        )
    };

    let b_hub = hub.clone();
    Scenario {
        name: format!("publish-burst/{total}x{active}"),
        additive: true,
        crashable: Vec::new(),
        watched: vec![(Symbol::intern(&hub), Symbol::intern("pictures"))],
        build: Box::new(move || {
            let mut h = Peer::new(b_hub.as_str());
            h.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
            schema::declare_sigmod(&mut h).expect("sigmod schema");
            let mut peers = Vec::with_capacity(total + 1);
            peers.push(h);
            for i in 0..total {
                let name = format!("burstAtt{i}");
                let mut p = Peer::new(name.as_str());
                p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
                p.add_rule(publish_rule(&name, &b_hub))
                    .expect("publish rule");
                peers.push(p);
            }
            peers
        }),
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        for f in [
            delegation_fanout as fn(u64) -> Scenario,
            delegation_churn,
            acl_restricted,
            transfer_dispatch,
            publish_chain,
        ] {
            let a = f(7);
            let b = f(7);
            assert_eq!(a.name, b.name);
            assert_eq!(a.batches.len(), b.batches.len());
            for (x, y) in a.batches.iter().zip(&b.batches) {
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn references_compute_expected_shapes() {
        let r = delegation_fanout(3).reference().unwrap();
        let watch = delegation_fanout(3).watched[0];
        assert!(
            !r.final_state[&watch].is_empty(),
            "fan-out view fills: {r:?}"
        );

        let r = acl_restricted(3).reference().unwrap();
        let watch = acl_restricted(3).watched[0];
        let visible = &r.final_state[&watch];
        assert!(!visible.is_empty(), "granted pictures flow");
        assert!(
            visible.iter().all(|t| t[2] == Value::from("aclOpen")),
            "restricted attendee leaks nothing: {visible:?}"
        );

        let r = transfer_dispatch(3).reference().unwrap();
        let watch = transfer_dispatch(3).watched[0];
        assert!(!r.final_state[&watch].is_empty(), "inbox fills");

        let r = publish_chain(3).reference().unwrap();
        let watch = publish_chain(3).watched[0];
        assert!(!r.final_state[&watch].is_empty(), "registry fills");
    }

    #[test]
    fn publish_burst_is_deterministic_and_fills_hub() {
        let a = publish_burst(11, 40, 4, 2, 2);
        let b = publish_burst(11, 40, 4, 2, 2);
        assert_eq!(a.name, b.name);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.batches.len(), 2);
        assert_eq!(a.batches[0].len(), 4 * 2);

        let r = a.reference().unwrap();
        let watch = a.watched[0];
        assert_eq!(
            r.final_state[&watch].len(),
            4 * 2 * 2,
            "every active attendee's uploads land in the registry"
        );
    }

    #[test]
    fn churn_reference_shrinks_then_recovers() {
        let sc = delegation_churn(5);
        let r = sc.reference().unwrap();
        let watch = sc.watched[0];
        // Final state: attendee0 re-selected, one of attendee1's pictures
        // gone — so smaller than the universe but non-empty.
        assert!(!r.final_state[&watch].is_empty());
        assert!(r.final_state[&watch].len() < r.universe[&watch].len());
    }
}
