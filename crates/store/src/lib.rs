//! # Durable storage engine (`wdl-store`)
//!
//! The paper's users "launch their customized peers on their machines with
//! their own personal data" (§1) — peers own state that must survive both
//! clean restarts and crashes. This crate is the storage engine behind the
//! [`wdl_core::DurabilitySink`] seam:
//!
//! * **Checkpoint files** — a meta file and one segment file per
//!   extensional relation, holding exactly the images of
//!   [`wdl_net::snapshot`] (a snapshot is the same images in one buffer).
//!   Segments carry the slice of the value interner the relation
//!   references, so they are process-independent. Written whole,
//!   fsynced, and committed atomically by a manifest rename.
//! * **Delta WAL** (`wal`) — between checkpoints, extensional base
//!   changes append to a write-ahead log as length-prefixed, CRC'd
//!   records. Appends are group-committed at stage boundaries: a peer
//!   never tells the network about state it could still lose.
//! * **Recovery** ([`Engine::recover`]) — decode the manifest's meta
//!   image and segments through the same calls as `snapshot::load`, then
//!   replay the WAL tail through the peer's incremental-maintenance
//!   path (`insert_local`/`delete_local`), truncating at the first torn
//!   or corrupt record. Everything acked before the crash survives;
//!   nothing is invented.
//!
//! [`DurableStore`] wires engines onto peers and runtimes;
//! [`DurablePersistence`] plugs the engine into the simulator's
//! crash/restart path so conformance sweeps grade recovered runs. See the
//! README's "Durability" section for the file formats and the
//! crash-safety matrix.

mod engine;
mod error;
mod manifest;
mod persistence;
mod wal;

pub use engine::{BufferedRecord, DurabilityConfig, Engine, IoFaults};
pub use error::{Result, StoreError};
pub use manifest::{Manifest, MANIFEST_FILE};
pub use persistence::{DurablePersistence, DurableStore};
pub use wal::{WalEntry, WalRecord, WalTail};
