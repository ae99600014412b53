//! Shared workload builders for the experiment benches (`benches/e*.rs`).
//!
//! Every bench binary follows the same pattern: it first prints the
//! experiment's *measurement table* (stages to quiescence, messages
//! routed, delegations installed, view sizes), then runs Criterion timing
//! groups over the same workloads.

pub mod workloads;

use wdl_core::acl::UntrustedPolicy;
use wdl_core::runtime::LocalRuntime;
use wdl_core::{Peer, RelationKind, WRule};
use wdl_datalog::Value;
use wepic::{ops, Conference, ConferenceConfig, Picture, PictureCorpus};

/// True when the `BENCH_QUICK` environment variable is set to anything but
/// `0`/`false`/empty: benches shrink their workloads and sampling for CI
/// smoke runs (measurements stay real, headline assertions that need
/// full-size workloads are skipped).
pub fn quick() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| !v.is_empty() && v != "0" && v != "false")
        .unwrap_or(false)
}

/// Criterion settings used by all benches: short but stable, much shorter
/// under [`quick`].
pub fn criterion() -> criterion::Criterion {
    let c = criterion::Criterion::default();
    let c = if quick() {
        c.sample_size(3)
            .warm_up_time(std::time::Duration::from_millis(50))
            .measurement_time(std::time::Duration::from_millis(200))
    } else {
        c.sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(300))
            .measurement_time(std::time::Duration::from_secs(2))
    };
    c.configure_from_args()
}

/// Median wall time (nanoseconds) of `runs` executions of `f` — the
/// robust point estimate the measurement tables report.
pub fn median_ns(runs: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// A peer that accepts all delegations (closed-world experiments).
pub fn open_peer(name: &str) -> Peer {
    let mut p = Peer::new(name);
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    p
}

/// Builds a conference with `attendees` peers, each holding `pics_per_peer`
/// pictures of `payload` bytes.
pub fn loaded_conference(
    attendees: usize,
    pics_per_peer: usize,
    payload: usize,
    seed: u64,
) -> Conference {
    let mut conf =
        Conference::new(&ConferenceConfig::experiment(attendees)).expect("conference builds");
    let mut corpus = PictureCorpus::new(seed);
    let names: Vec<String> = conf
        .attendee_names()
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    for name in &names {
        for pic in corpus.pictures(name, pics_per_peer, payload) {
            ops::upload_picture(conf.peer_mut(name.as_str()).unwrap(), &pic).expect("upload");
        }
    }
    conf
}

/// A selection workload: `viewer` + `peers` sources with `pics` pictures
/// each; the viewer runs the paper's `attendeePictures` rule and selects
/// `selected` of the sources.
pub struct SelectionWorld {
    /// The runtime, ready to run.
    pub rt: LocalRuntime,
    /// Viewer peer name.
    pub viewer: String,
    /// Source peer names.
    pub sources: Vec<String>,
}

impl SelectionWorld {
    /// Builds the world (nothing run yet).
    pub fn build(
        tag: &str,
        peers: usize,
        pics: usize,
        selected: usize,
        seed: u64,
    ) -> SelectionWorld {
        assert!(selected <= peers);
        let mut rt = LocalRuntime::new();
        let viewer = format!("viewer{tag}");
        let mut v = open_peer(&viewer);
        v.declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        v.add_rule(WRule::example_attendee_pictures(&viewer))
            .unwrap();

        let mut corpus = PictureCorpus::new(seed);
        let mut sources = Vec::new();
        for i in 0..peers {
            let name = format!("src{tag}n{i}");
            let mut p = open_peer(&name);
            for pic in corpus.pictures(&name, pics, 32) {
                upload_raw(&mut p, &pic);
            }
            if i < selected {
                v.insert_local("selectedAttendee", vec![Value::from(name.as_str())])
                    .unwrap();
            }
            sources.push(name);
            rt.add_peer(p).unwrap();
        }
        rt.add_peer(v).unwrap();
        SelectionWorld {
            rt,
            viewer,
            sources,
        }
    }

    /// Runs to quiescence, returning `(rounds, messages, view_size,
    /// delegations_installed_total)`.
    pub fn run(&mut self) -> (usize, usize, usize, usize) {
        let r = self.rt.run_to_quiescence(256).expect("engine runs");
        assert!(r.quiescent, "selection world failed to quiesce");
        let view = self
            .rt
            .peer(self.viewer.as_str())
            .unwrap()
            .relation_facts("attendeePictures")
            .len();
        let delegs: usize = self
            .sources
            .iter()
            .map(|s| {
                self.rt
                    .peer(s.as_str())
                    .unwrap()
                    .installed_delegations()
                    .len()
            })
            .sum();
        (r.rounds, r.messages, view, delegs)
    }
}

/// Uploads a picture into any peer with a `pictures/4` relation.
pub fn upload_raw(peer: &mut Peer, pic: &Picture) {
    peer.insert_local("pictures", pic.to_values())
        .expect("insert picture");
}

/// The *broadcast baseline* for E2: instead of delegation-driven pull,
/// every source pushes every picture to the viewer unconditionally
/// (`attendeeBroadcast@viewer :- pictures@me`). Returns `(rounds,
/// messages)`.
pub fn broadcast_baseline(tag: &str, peers: usize, pics: usize, seed: u64) -> (usize, usize) {
    let mut rt = LocalRuntime::new();
    let viewer = format!("bviewer{tag}");
    let mut v = open_peer(&viewer);
    v.declare("attendeeBroadcast", 4, RelationKind::Intensional)
        .unwrap();
    rt.add_peer(v).unwrap();
    let mut corpus = PictureCorpus::new(seed);
    for i in 0..peers {
        let name = format!("bsrc{tag}n{i}");
        let mut p = open_peer(&name);
        for pic in corpus.pictures(&name, pics, 32) {
            upload_raw(&mut p, &pic);
        }
        p.add_rule(
            wdl_parser::parse_rule(&format!(
                "attendeeBroadcast@{viewer}($id, $n, $o, $d) :- pictures@{name}($id, $n, $o, $d);"
            ))
            .unwrap(),
        )
        .unwrap();
        rt.add_peer(p).unwrap();
    }
    let r = rt.run_to_quiescence(256).expect("engine runs");
    assert!(r.quiescent);
    (r.rounds, r.messages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_world_runs() {
        let mut w = SelectionWorld::build("t1", 3, 4, 2, 1);
        let (rounds, messages, view, delegs) = w.run();
        assert!(rounds > 0);
        assert!(messages > 0);
        assert_eq!(view, 8, "2 selected peers x 4 pictures");
        assert_eq!(delegs, 2, "one delegation per selected source");
    }

    #[test]
    fn broadcast_baseline_runs() {
        let (rounds, messages) = broadcast_baseline("t2", 3, 4, 1);
        assert!(rounds > 0);
        assert!(messages >= 3, "every source pushes");
    }

    #[test]
    fn loaded_conference_settles() {
        let mut conf = loaded_conference(3, 2, 16, 5);
        let r = conf.settle(128).unwrap();
        assert!(r.quiescent);
        assert_eq!(
            conf.peer("sigmod")
                .unwrap()
                .relation_facts("pictures")
                .len(),
            6
        );
    }
}
