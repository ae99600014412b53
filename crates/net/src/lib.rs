//! # wdl-net — transports for WebdamLog peers
//!
//! The original system ran peers on attendee laptops, smartphones and the
//! Webdam cloud (Figure 2). This crate provides the transports our
//! reproduction runs on and the layers around them:
//!
//! * [`memory`] — a deterministic, lossless in-process network (crossbeam
//!   channels), used by tests and benches; fault injection lives in
//!   [`sim`] and [`chaos`];
//! * [`tcp`] — a real TCP transport (std::net + threads) with
//!   length-prefixed binary frames, proving the engine is genuinely
//!   distributed across processes;
//! * [`codec`] — the compact hand-rolled binary wire format shared by both
//!   (the offline dependency allowlist has no serde *format* crate, so the
//!   codec is written here, over `bytes`);
//! * [`node`] — glue that drives a [`wdl_core::Peer`] over any
//!   [`Transport`];
//! * [`session`] — a reliable delivery layer over any transport:
//!   incarnation-tagged sessions, acks + retransmission, exactly-once
//!   in-order delivery, liveness, backpressure, and durable watermarks
//!   for crash-proof convergence;
//! * [`sim`] — a deterministic seeded discrete-event network simulator
//!   (drop/duplicate/reorder/delay/partition/crash) with a convergence
//!   oracle, for conformance testing the full peer stack;
//! * [`chaos`] — a seeded loopback TCP chaos proxy (drop / delay / sever /
//!   torn frames) for exercising the session layer over real sockets.
//!
//! Stage semantics are transport-independent: a peer ingests whatever
//! messages arrived since its previous stage, wherever they came from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod chaos;
pub mod codec;
mod error;
pub mod memory;
pub mod node;
pub mod session;
pub mod sim;
pub mod snapshot;
pub mod tcp;
mod transport;

pub use error::NetError;
pub use transport::{Transport, TransportEvent, WatermarkNote};
