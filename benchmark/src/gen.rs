//! Seeded inputs: each peer's program as `.wdl` text, and the op streams.
//!
//! Everything here is a pure function of `(spec, sizes, seed)` and runs
//! before the set-up timer starts; the program under test receives only the
//! generated text and mutations.

use crate::spec::{Program, Sizes, Spec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use wdl_core::{Peer, RelationKind, WBodyItem, WFact, WRule};
use wdl_datalog::Value;
use wdl_parser::{parse_query, parse_rule, pretty, Statement};
use wepic::{ops, rules, Picture};

pub const HUB: &str = "sigmod";
pub const VIEWER: &str = "viewer";

/// Identifies one change at the watcher: the picture id and whether the
/// watcher sees it arrive (`true`) or leave (`false`). Unique within a run.
pub type Key = (i64, bool);

#[derive(Clone, Debug)]
pub enum Mutation {
    Upload(Picture),
    DeletePicture(Picture),
    Rate { id: i64, rating: i64 },
    DeleteRating { id: i64, rating: i64 },
}

impl Mutation {
    /// Applies the user mutation; `true` iff it changed the peer, which
    /// every generated op does.
    pub fn apply(&self, peer: &mut Peer) -> wdl_core::Result<bool> {
        match self {
            Mutation::Upload(pic) => ops::upload_picture(peer, pic),
            Mutation::DeletePicture(pic) => peer.delete_local("pictures", pic.to_values()),
            Mutation::Rate { id, rating } => ops::rate(peer, *id, *rating),
            Mutation::DeleteRating { id, rating } => {
                peer.delete_local("rate", vec![Value::from(*id), Value::from(*rating)])
            }
        }
    }
}

#[derive(Clone, Debug)]
pub struct Op {
    /// Index into [`Inputs::peers`] of the attendee the user acts at.
    pub peer: usize,
    pub mutation: Mutation,
    /// The change the watcher must see; `None` for background ops, which
    /// only the final verification checks.
    pub watch: Option<Key>,
}

pub struct PeerProgram {
    pub name: String,
    pub wdl: String,
    /// Peers whose delegations this one installs without approval.
    pub trusts: Vec<String>,
}

pub struct Inputs {
    pub spec: Spec,
    /// Attendees in order, then the watcher last: a round steps them in
    /// this order, so what attendees send can reach the watcher's step of
    /// the same round.
    pub peers: Vec<PeerProgram>,
    pub watcher: usize,
    pub watched_rel: &'static str,
    pub paced: Vec<Op>,
    pub sat: Vec<Op>,
    /// The canned selective query of the demo's Query tab: pictures of one
    /// owner, at the watcher.
    pub query: Vec<WBodyItem>,
    /// Peer whose first rule a rule-change cycle swaps, and the rules the
    /// cycle installs in turn; the last one is the initial rule again.
    pub swap_peer: usize,
    pub swap_cycle: Vec<WRule>,
}

fn picture(seed: u64, owner: &str, id: i64, payload_bytes: usize) -> Picture {
    let mut data = vec![0u8; payload_bytes];
    StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).fill(&mut data);
    Picture {
        id,
        name: format!("img_{id}.jpg"),
        owner: owner.to_string(),
        data,
    }
}

fn declare(rel: &str, peer: &str, arity: usize, kind: RelationKind) -> Statement {
    Statement::Declaration {
        rel: rel.into(),
        peer: peer.into(),
        arity,
        kind,
    }
}

fn rate_fact(owner: &str, id: i64, rating: i64) -> Statement {
    Statement::Fact(WFact::new(
        "rate",
        owner,
        vec![Value::from(id), Value::from(rating)],
    ))
}

/// What the album generator knows about one attendee's relations.
#[derive(Default)]
struct AlbumState {
    /// Present pictures without a rating ≥ 4.
    unrated: Vec<i64>,
    /// Present pictures never given a low rating by an op.
    never_low: Vec<i64>,
    /// Present pictures in the view, with the rating that puts them there.
    visible: Vec<(i64, i64)>,
    /// Pictures an op just put in the view, with the op number from which
    /// they may be deleted.
    cooling: VecDeque<(i64, i64, usize)>,
    /// Ids rated ≥ 4 (with that rating) whose picture is not uploaded yet.
    pool: Vec<(i64, i64)>,
}

/// Ops that must pass before a picture an op put in the view may be taken
/// out again. A peer diffs its view per stage, so an insert and a delete
/// that meet in one stage cancel and the watcher sees neither; real users
/// do not delete what they rated a millisecond ago either. Several times
/// the largest window, so the two never share a round.
const COOLDOWN_OPS: usize = 256;

struct Generator {
    spec: Spec,
    seed: u64,
    rng: StdRng,
    op_no: usize,
    names: Vec<String>,
    next_id: Vec<i64>,
    album: Vec<AlbumState>,
}

impl Generator {
    fn pic(&self, att: usize, id: i64) -> Picture {
        picture(self.seed, &self.names[att], id, self.spec.payload_bytes)
    }

    fn publish_op(&mut self) -> Op {
        let att = self.rng.gen_range(0..self.names.len());
        let id = self.next_id[att];
        self.next_id[att] += 1;
        Op {
            peer: att,
            mutation: Mutation::Upload(self.pic(att, id)),
            watch: Some((id, true)),
        }
    }

    /// 50 % ratings that enter the view, 20 % uploads of an already-rated
    /// picture, 15 % deletes of a visible picture or of its rating, 15 %
    /// low ratings (background). A kind whose candidates ran out falls
    /// through to the next, so no generated op is a no-op.
    fn album_op(&mut self) -> Op {
        self.op_no += 1;
        for st in &mut self.album {
            while st.cooling.front().is_some_and(|c| c.2 <= self.op_no) {
                let (id, rating, _) = st.cooling.pop_front().expect("front exists");
                st.visible.push((id, rating));
            }
        }
        let ready = self.op_no + COOLDOWN_OPS;
        let att = self.rng.gen_range(0..self.names.len());
        let roll: f64 = self.rng.gen();
        let first = match roll {
            r if r < 0.50 => 0,
            r if r < 0.70 => 1,
            r if r < 0.85 => 2,
            _ => 3,
        };
        for kind in (first..4).chain(0..first) {
            let pick = |rng: &mut StdRng, len: usize| (len > 0).then(|| rng.gen_range(0..len));
            let st = &mut self.album[att];
            match kind {
                0 => {
                    if let Some(i) = pick(&mut self.rng, st.unrated.len()) {
                        let id = st.unrated.swap_remove(i);
                        let rating = self.rng.gen_range(4..=5i64);
                        st.cooling.push_back((id, rating, ready));
                        return Op {
                            peer: att,
                            mutation: Mutation::Rate { id, rating },
                            watch: Some((id, true)),
                        };
                    }
                }
                1 => {
                    if let Some(i) = pick(&mut self.rng, st.pool.len()) {
                        let (id, rating) = st.pool.swap_remove(i);
                        st.cooling.push_back((id, rating, ready));
                        return Op {
                            peer: att,
                            mutation: Mutation::Upload(self.pic(att, id)),
                            watch: Some((id, true)),
                        };
                    }
                }
                2 => {
                    if let Some(i) = pick(&mut self.rng, st.visible.len()) {
                        let (id, rating) = st.visible.swap_remove(i);
                        st.never_low.retain(|&x| x != id);
                        let mutation = if self.rng.gen_bool(0.5) {
                            Mutation::DeletePicture(self.pic(att, id))
                        } else {
                            Mutation::DeleteRating { id, rating }
                        };
                        return Op {
                            peer: att,
                            mutation,
                            watch: Some((id, false)),
                        };
                    }
                }
                _ => {
                    if let Some(i) = pick(&mut self.rng, st.never_low.len()) {
                        let id = st.never_low.swap_remove(i);
                        let rating = self.rng.gen_range(1..=3i64);
                        return Op {
                            peer: att,
                            mutation: Mutation::Rate { id, rating },
                            watch: None,
                        };
                    }
                }
            }
        }
        panic!(
            "album generator ran out of candidates at {}",
            self.names[att]
        );
    }

    fn op(&mut self) -> Op {
        match self.spec.program {
            Program::Publish => self.publish_op(),
            Program::Album => self.album_op(),
        }
    }
}

/// Builds the programs and op streams of one epoch.
pub fn generate(spec: &Spec, sizes: Sizes, seed: u64) -> Inputs {
    let names: Vec<String> = (0..spec.attendees).map(|a| format!("att{a}")).collect();
    let watcher_name = match spec.program {
        Program::Publish => HUB,
        Program::Album => VIEWER,
    };
    let mut g = Generator {
        spec: *spec,
        seed,
        rng: StdRng::seed_from_u64(seed),
        op_no: 0,
        names: names.clone(),
        next_id: Vec::new(),
        album: Vec::new(),
    };

    let preload = sizes.preload_pictures as i64;
    let mut peers = Vec::new();
    for (a, name) in names.iter().enumerate() {
        let base = a as i64 * 1_000_000;
        let mut stmts = vec![declare("pictures", name, 4, RelationKind::Extensional)];
        let mut trusts = Vec::new();
        for id in base..base + preload {
            let pic = picture(seed, name, id, spec.payload_bytes);
            stmts.push(Statement::Fact(WFact::new(
                "pictures",
                name.as_str(),
                pic.to_values(),
            )));
        }
        match spec.program {
            Program::Publish => {
                stmts.push(Statement::Rule(
                    rules::publish_to_sigmod(name, HUB).expect("publish template"),
                ));
            }
            Program::Album => {
                // Of the preloaded pictures 40 % are rated into the view,
                // 20 % rated below it, 40 % unrated; as many ids again are
                // rated ahead of their upload.
                stmts.push(declare("rate", name, 2, RelationKind::Extensional));
                trusts.push(VIEWER.to_string());
                let (visible, low) = (preload * 2 / 5, preload / 5);
                let mut st = AlbumState::default();
                for k in 0..preload {
                    let id = base + k;
                    if k < visible {
                        let rating = g.rng.gen_range(4..=5i64);
                        stmts.push(rate_fact(name, id, rating));
                        st.visible.push((id, rating));
                    } else if k < visible + low {
                        stmts.push(rate_fact(name, id, g.rng.gen_range(1..=3i64)));
                        st.unrated.push(id);
                    } else {
                        st.unrated.push(id);
                        st.never_low.push(id);
                    }
                }
                for id in base + preload..base + preload + visible {
                    let rating = g.rng.gen_range(4..=5i64);
                    stmts.push(rate_fact(name, id, rating));
                    st.pool.push((id, rating));
                }
                g.album.push(st);
            }
        }
        g.next_id.push(base + preload);
        peers.push(PeerProgram {
            name: name.clone(),
            wdl: pretty::program(&stmts),
            trusts,
        });
    }

    let (watched_rel, swap_peer, initial, variants) = match spec.program {
        Program::Publish => {
            // The customisation: publish only pictures from id `cut` on,
            // which retracts a bounded number of old ones.
            let cut = (preload / 2).min(16);
            let filtered = parse_rule(&format!(
                "pictures@{HUB}($id, $name, $owner, $data) :- \
                 pictures@att0($id, $name, $owner, $data), $id >= {cut};"
            ))
            .expect("filtered publish rule");
            peers.push(PeerProgram {
                name: HUB.to_string(),
                wdl: pretty::program(&[declare("pictures", HUB, 4, RelationKind::Extensional)]),
                trusts: Vec::new(),
            });
            let initial = rules::publish_to_sigmod("att0", HUB).expect("publish template");
            ("pictures", 0, initial, vec![filtered])
        }
        Program::Album => {
            let initial = rules::rating_filter(VIEWER, 4).expect("rating_filter template");
            let mut stmts = vec![
                declare("selectedAttendee", VIEWER, 1, RelationKind::Extensional),
                declare("attendeePictures", VIEWER, 4, RelationKind::Intensional),
            ];
            for name in &names {
                stmts.push(Statement::Fact(WFact::new(
                    "selectedAttendee",
                    VIEWER,
                    vec![Value::from(name.as_str())],
                )));
            }
            stmts.push(Statement::Rule(initial.clone()));
            peers.push(PeerProgram {
                name: VIEWER.to_string(),
                wdl: pretty::program(&stmts),
                trusts: Vec::new(),
            });
            let variants = vec![
                rules::rating_filter(VIEWER, 5).expect("rating_filter template"),
                rules::attendee_pictures(VIEWER).expect("attendee_pictures template"),
            ];
            ("attendeePictures", spec.attendees, initial, variants)
        }
    };
    let mut swap_cycle = variants;
    swap_cycle.push(initial);

    let paced = (0..sizes.paced_ops).map(|_| g.op()).collect();
    let sat = (0..sizes.sat_ops).map(|_| g.op()).collect();
    let query = parse_query(&format!(
        "{watched_rel}@{watcher_name}($id, $name, \"att1\", $data)"
    ))
    .expect("canned query");

    Inputs {
        spec: *spec,
        watcher: peers.len() - 1,
        peers,
        watched_rel,
        paced,
        sat,
        query,
        swap_peer,
        swap_cycle,
    }
}
