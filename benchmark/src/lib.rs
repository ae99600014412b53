//! `wepic-e2e`: the end-to-end Wepic benchmark.
//!
//! Four workloads drive the repository's production composition — `.wdl`
//! text through the checked loader, a durable store, and `PeerNode`s over
//! the session layer over loopback TCP (or, for the no-network baseline,
//! the sharded runtime) — and report what a user of the system would see:
//! set-up time, sustained ops per second, update-to-visible latency, query
//! latency beside writes, rule-change time, restart time, memory and disk.
//! A traced run of the same workload and seed attributes the wall-clock to
//! the repository's layers. See `benchmark/README.md`.

pub mod budget;
pub mod driver;
pub mod gen;
pub mod inproc;
pub mod load;
pub mod net;
pub mod oracle;
pub mod probe;
pub mod report;
pub mod spec;
pub mod stats;
pub mod system;
