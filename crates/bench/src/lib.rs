//! Shared workload builders for the experiment benches (`benches/e*.rs`).
//!
//! Every bench binary follows the same pattern: it first prints the
//! experiment's *measurement table* (stages to quiescence, messages
//! routed, delegations installed, view sizes), then runs Criterion timing
//! groups over the same workloads.

pub mod workloads;

use wdl_core::acl::UntrustedPolicy;
use wdl_core::Peer;
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

/// Uploads a picture into any peer with a `pictures/4` relation.
pub fn upload_raw(peer: &mut Peer, pic: &Picture) {
    peer.insert_local("pictures", pic.to_values())
        .expect("insert picture");
}

#[cfg(test)]
mod tests {
    use super::*;

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
