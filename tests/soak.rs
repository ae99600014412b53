//! Soak test: a randomized conference exercising every feature at once —
//! delegation with approvals, grants, rule churn, uploads/deletions,
//! wrappers, snapshots — asserting global invariants at every quiescent
//! point. Seeded and deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdamlog::net::snapshot;
use webdamlog::wepic::{ops, Conference, ConferenceConfig, Picture, PictureCorpus};

#[test]
fn randomized_conference_soak() {
    let mut rng = StdRng::seed_from_u64(20130624); // SIGMOD'13 demo week
    let mut cfg = ConferenceConfig::experiment(5);
    cfg.open_trust = false; // the demo's real policy: approvals required
    let mut conf = Conference::new(&cfg).unwrap();
    let names: Vec<String> = conf
        .attendee_names()
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    let mut corpus = PictureCorpus::new(99);
    let mut uploaded = 0usize;

    for round in 0..30 {
        let actor = names[rng.gen_range(0..names.len())].clone();
        match rng.gen_range(0..6) {
            0 => {
                // upload
                let pic = corpus.pictures(&actor, 1, 8).pop().unwrap();
                ops::upload_picture(conf.peer_mut(actor.as_str()).unwrap(), &pic).unwrap();
                uploaded += 1;
            }
            1 => {
                // select someone
                let other = names[rng.gen_range(0..names.len())].clone();
                if other != actor {
                    ops::select_attendee(conf.peer_mut(actor.as_str()).unwrap(), &other).unwrap();
                }
            }
            2 => {
                // approve everything pending at the actor
                let ids: Vec<_> = conf
                    .peer(actor.as_str())
                    .unwrap()
                    .pending_delegations()
                    .iter()
                    .map(|p| p.delegation.id)
                    .collect();
                let p = conf.peer_mut(actor.as_str()).unwrap();
                for id in ids {
                    p.approve_delegation(id).unwrap();
                }
            }
            3 => {
                // reject everything pending at the actor
                let ids: Vec<_> = conf
                    .peer(actor.as_str())
                    .unwrap()
                    .pending_delegations()
                    .iter()
                    .map(|p| p.delegation.id)
                    .collect();
                let p = conf.peer_mut(actor.as_str()).unwrap();
                for id in ids {
                    p.reject_delegation(id).unwrap();
                }
            }
            4 => {
                // rate a random picture id
                ops::rate(
                    conf.peer_mut(actor.as_str()).unwrap(),
                    rng.gen_range(1..100),
                    rng.gen_range(1..=5),
                )
                .unwrap();
            }
            _ => {
                // restrict or open a relation's reads
                let p = conf.peer_mut(actor.as_str()).unwrap();
                if rng.gen_bool(0.5) {
                    p.acl_mut().restrict_read("pictures");
                } else {
                    for other in &names {
                        p.acl_mut().grant_read("pictures", other.as_str());
                    }
                }
            }
        }

        // The system must always quiesce within a bounded number of rounds.
        let r = conf.settle(256).unwrap();
        assert!(r.quiescent, "round {round}: no quiescence: {r:?}");

        // Invariant: the sigmod pool never exceeds uploads and never holds
        // phantom ids.
        let pool = conf.peer("sigmod").unwrap().relation_facts("pictures");
        assert!(pool.len() <= uploaded, "round {round}: phantom pictures");
    }

    // Finally: snapshot every attendee, restore, and re-settle — state
    // survives a full-fleet restart.
    let snaps: Vec<Vec<u8>> = names
        .iter()
        .map(|n| snapshot::save(conf.peer(n.as_str()).unwrap()).to_vec())
        .collect();
    for (n, bytes) in names.iter().zip(&snaps) {
        let before = conf
            .peer(n.as_str())
            .unwrap()
            .relation_facts("pictures")
            .len();
        conf.runtime.remove_peer(n.as_str()).unwrap();
        let restored = snapshot::load(bytes).unwrap();
        assert_eq!(restored.relation_facts("pictures").len(), before);
        conf.runtime.add_peer(restored).unwrap();
    }
    let r = conf.settle(256).unwrap();
    assert!(r.quiescent, "post-restart reconvergence failed: {r:?}");
}

/// A second soak with open trust and heavier volume: throughput sanity.
#[test]
fn open_trust_volume_soak() {
    let mut conf = Conference::new(&ConferenceConfig::experiment(6)).unwrap();
    let names: Vec<String> = conf
        .attendee_names()
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    let mut corpus = PictureCorpus::new(3);

    // Everyone uploads 20 pictures and selects everyone else.
    for name in &names {
        for pic in corpus.pictures(name, 20, 8) {
            ops::upload_picture(conf.peer_mut(name.as_str()).unwrap(), &pic).unwrap();
        }
    }
    for a in &names {
        for b in &names {
            if a != b {
                ops::select_attendee(conf.peer_mut(a.as_str()).unwrap(), b).unwrap();
            }
        }
    }
    let r = conf.settle(512).unwrap();
    assert!(r.quiescent);

    // Every peer sees everyone else's pictures: 5 × 20 = 100.
    for name in &names {
        assert_eq!(
            conf.peer(name.as_str())
                .unwrap()
                .relation_facts("attendeePictures")
                .len(),
            (names.len() - 1) * 20,
            "{name} view incomplete"
        );
    }
    // And the sigmod pool holds all 120.
    assert_eq!(
        conf.peer("sigmod")
            .unwrap()
            .relation_facts("pictures")
            .len(),
        names.len() * 20
    );
}

/// Download after soak-scale sharing.
#[test]
fn everyone_downloads_one() {
    let mut conf = Conference::new(&ConferenceConfig::experiment(3)).unwrap();
    let names: Vec<String> = conf
        .attendee_names()
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    for (i, name) in names.iter().enumerate() {
        ops::upload_picture(
            conf.peer_mut(name.as_str()).unwrap(),
            &Picture {
                id: (i as i64) + 1,
                name: format!("{name}.jpg"),
                owner: name.clone(),
                data: vec![i as u8],
            },
        )
        .unwrap();
    }
    for a in &names {
        for b in &names {
            if a != b {
                ops::select_attendee(conf.peer_mut(a.as_str()).unwrap(), b).unwrap();
            }
        }
    }
    conf.settle(128).unwrap();
    // Peer 0 downloads picture 2 (owned by peer 1).
    assert!(ops::download(conf.peer_mut(names[0].as_str()).unwrap(), 2).unwrap());
    let own = ops::pictures(conf.peer(names[0].as_str()).unwrap());
    assert!(own.iter().any(|p| p.id == 2));
}
