//! # Durable storage engine (`wdl-store`)
//!
//! The paper's users "launch their customized peers on their machines with
//! their own personal data" (§1) — peers own state that must survive both
//! clean restarts and crashes. This crate is the storage engine behind the
//! [`wdl_core::DurabilitySink`] seam:
//!
//! * **Segment files** (`segment`) — per-relation checkpoint files: a
//!   versioned header, the slice of the value interner the relation
//!   references (so segments are process-independent; `ValueId`s are
//!   remapped on load), the raw columns as fixed-width little-endian
//!   cells, and a CRC32 trailer. Written whole, fsynced, and committed
//!   atomically by a manifest rename.
//! * **Delta WAL** (`wal`) — between checkpoints, extensional base
//!   changes append to a write-ahead log as length-prefixed, CRC'd
//!   records. Appends are group-committed at stage boundaries: a peer
//!   never tells the network about state it could still lose.
//! * **Recovery** ([`Engine::recover`]) — load the manifest's segments,
//!   then replay the WAL tail through the peer's incremental-maintenance
//!   path (`insert_local`/`delete_local`), truncating at the first torn
//!   or corrupt record. Everything acked before the crash survives;
//!   nothing is invented.
//!
//! [`DurableStore`] wires engines onto peers and runtimes;
//! [`DurablePersistence`] plugs the engine into the simulator's
//! crash/restart path so conformance sweeps grade recovered runs. See the
//! README's "Durability" section for the file formats and the
//! crash-safety matrix.

mod crc;
mod engine;
mod error;
mod manifest;
mod persistence;
mod segment;
mod wal;

pub use crc::crc32;
pub use engine::{BufferedRecord, DurabilityConfig, Engine, IoFaults};
pub use error::{Result, StoreError};
pub use manifest::{Manifest, MANIFEST_FILE};
pub use persistence::{DurablePersistence, DurableStore};
pub use segment::{read_meta, read_segment, write_meta_bytes, write_segment_bytes};
pub use wal::{WalEntry, WalRecord, WalTail};
