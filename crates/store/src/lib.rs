//! # Durable storage engine (`wdl-store`)
//!
//! The paper's users "launch their customized peers on their machines with
//! their own personal data" (§1) — peers own state that must survive both
//! clean restarts and crashes. This crate is the storage engine behind the
//! [`wdl_core::DurabilitySink`] seam:
//!
//! * **Checkpoint log** (`wal`) — one file per checkpoint,
//!   `wal-<epoch>.log`: a header binding the epoch and the owning peer,
//!   then exactly the image sequence of [`wdl_net::snapshot::save`] (the
//!   meta image and one segment image per extensional relation; segments
//!   carry the slice of the value interner the relation references, so
//!   they are process-independent), then the group commits since. Written
//!   as `wal-<epoch>.tmp`, fsynced once, and committed by its rename.
//! * **Group commits** — each stage boundary appends the stage's base
//!   changes, session watermarks and, after a structural change (schema,
//!   rules, delegations, policy), the meta image as one length-prefixed,
//!   CRC'd frame: one write and one fsync. A peer never tells the network
//!   about state it could still lose, and a commit lands whole or not at
//!   all.
//! * **Recovery** ([`Engine::recover`]) — split the highest committed log
//!   with the same reader as `snapshot::load`, build the peer from its
//!   last Meta entry (or the snapshot's meta image), import the segments,
//!   then replay the whole commits' rows through the peer's
//!   incremental-maintenance path (`insert_local`/`delete_local`),
//!   stopping at the first torn frame. Everything acked before the crash
//!   survives; nothing is invented.
//!
//! [`DurableStore`] wires engines onto peers and runtimes;
//! [`DurablePersistence`] plugs the engine into the simulator's
//! crash/restart path so conformance sweeps grade recovered runs. See the
//! README's "Durability" section for the file formats and the
//! crash-safety matrix.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

mod engine;
mod error;
mod persistence;
mod wal;

pub use engine::{DurabilityConfig, Engine, IoFaults};
pub use error::{Result, StoreError};
pub use persistence::{DurablePersistence, DurableStore};
pub use wal::{WalEntry, WalRecord};
