//! Shared workload builders for the experiment benches (`benches/e*.rs`).
//!
//! Every bench binary follows the same pattern: it first prints the
//! experiment's *measurement table* (stages to quiescence, messages
//! routed, delegations installed, view sizes), then runs Criterion timing
//! groups over the same workloads.

pub mod workloads;

use wdl_core::acl::UntrustedPolicy;
use wdl_core::Peer;

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
