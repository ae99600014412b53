//! Wiring engines onto peers, runtimes, and the simulator.
//!
//! [`DurableStore`] manages one [`Engine`] per peer under a shared root
//! directory and attaches them through the [`wdl_core::DurabilitySink`]
//! seam: after [`DurableStore::attach`], every extensional change and
//! every structural change the peer commits is logged and group-committed
//! at its stage boundaries, starting from an immediate initial checkpoint
//! (so even a peer that crashes before its first stage recovers with its
//! schema intact).
//!
//! [`DurablePersistence`] implements the simulator's
//! [`wdl_net::sim::CrashPersistence`]: crash = drop the peer, lose the
//! unacked buffer (returned as client-retry ops), seed-tear the disk (a
//! torn prefix of the unacked commit, a half-written next checkpoint);
//! restart = real recovery through [`Engine::recover`]. Plugged into a
//! conformance sweep, this makes the oracle grade genuine
//! crash-recovery, not snapshot copying.

use crate::engine::{committed_epoch, DurabilityConfig, Engine};
use crate::error::{Result, StoreError};
use crate::wal::WalEntry;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use wdl_core::runtime::LocalRuntime;
use wdl_core::{unqualify, DurabilitySink, Peer, ShardedRuntime};
use wdl_datalog::{Symbol, Tuple};
use wdl_net::sim::{CrashPersistence, SimOp};
use wdl_net::NetError;

/// The sink installed on a peer: forwards the durability callbacks into
/// the shared engine.
struct EngineSink {
    engine: Arc<Mutex<Engine>>,
    peer: Symbol,
}

impl DurabilitySink for EngineSink {
    fn record_fact(&mut self, rel: Symbol, tuple: &Tuple, added: bool) {
        // Base changes arrive under the qualified name (`rel@peer`); the
        // log belongs to this peer, so store the bare relation.
        let Some(bare) = unqualify(rel, self.peer) else {
            debug_assert!(false, "base change {rel} not qualified with {}", self.peer);
            return;
        };
        self.engine.lock().record(bare, tuple.clone(), added);
    }

    fn record_watermark(&mut self, remote: Symbol, dir: u8, inc: u64, seq: u64) {
        self.engine.lock().record_watermark(remote, dir, inc, seq);
    }

    fn sync(&mut self, peer: &Peer, meta_dirty: bool) -> wdl_core::Result<()> {
        self.engine
            .lock()
            .sync(peer, meta_dirty)
            .map_err(wdl_core::WdlError::from)
    }
}

/// A directory of per-peer storage engines sharing one root and one
/// checkpoint policy.
pub struct DurableStore {
    config: DurabilityConfig,
    engines: HashMap<Symbol, Arc<Mutex<Engine>>>,
}

impl DurableStore {
    /// Creates a store rooted at `config.root`.
    pub fn new(config: DurabilityConfig) -> DurableStore {
        DurableStore {
            config,
            engines: HashMap::new(),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// The engine for `name`, opening it on first use. Exposed so tests
    /// can inject faults or simulate crashes on a specific peer.
    pub fn engine(&mut self, name: impl Into<Symbol>) -> Result<Arc<Mutex<Engine>>> {
        let name = name.into();
        if let Some(e) = self.engines.get(&name) {
            return Ok(Arc::clone(e));
        }
        let engine = Arc::new(Mutex::new(Engine::open(&self.config, name)?));
        self.engines.insert(name, Arc::clone(&engine));
        Ok(engine)
    }

    /// Whether a committed checkpoint exists on disk for `name`.
    pub fn has_data(&self, name: impl Into<Symbol>) -> bool {
        committed_epoch(&self.config.root.join(name.into().as_str())) > 0
    }

    /// Makes `peer` durable: attaches a sink and takes the initial
    /// checkpoint immediately, so the peer's structural state survives a
    /// crash that arrives before its first stage.
    pub fn attach(&mut self, peer: &mut Peer) -> Result<()> {
        let name = peer.name();
        let engine = self.engine(name)?;
        peer.set_durability(Box::new(EngineSink { engine, peer: name }));
        peer.sync_durability().map_err(StoreError::Engine)
    }

    /// Recovers `name` from disk and re-attaches its sink. The recovered
    /// peer immediately re-checkpoints ([`Engine::recover`] leaves no log
    /// open), folding the replayed log into a fresh snapshot, so repeated
    /// crash/recover cycles never replay an ever-growing log.
    pub fn recover(&mut self, name: impl Into<Symbol>) -> Result<Peer> {
        let name = name.into();
        let engine = self.engine(name)?;
        let mut peer = engine.lock().recover()?;
        peer.set_durability(Box::new(EngineSink { engine, peer: name }));
        peer.sync_durability().map_err(StoreError::Engine)?;
        Ok(peer)
    }

    /// Attaches every peer currently in a [`LocalRuntime`].
    pub fn attach_runtime(&mut self, rt: &mut LocalRuntime) -> Result<()> {
        for name in rt.peer_names() {
            let peer = rt.peer_mut(name).ok_or_else(|| {
                StoreError::Engine(wdl_core::WdlError::UnknownPeer(name.to_string()))
            })?;
            self.attach(peer)?;
        }
        Ok(())
    }

    /// Attaches every peer currently in a [`ShardedRuntime`]. Sinks are
    /// `Send`, so they ride along when peers live on worker threads.
    pub fn attach_sharded(&mut self, rt: &mut ShardedRuntime) -> Result<()> {
        for name in rt.peer_names() {
            let engine = self.engine(name)?;
            let res = rt.with_peer_mut(name, move |peer| {
                peer.set_durability(Box::new(EngineSink { engine, peer: name }));
                peer.sync_durability()
            });
            match res {
                Some(r) => r.map_err(StoreError::Engine)?,
                None => {
                    return Err(StoreError::Engine(wdl_core::WdlError::UnknownPeer(
                        name.to_string(),
                    )))
                }
            }
        }
        Ok(())
    }
}

/// Crash/restart persistence for the simulator, backed by the real
/// storage engine.
pub struct DurablePersistence {
    store: DurableStore,
}

impl DurablePersistence {
    /// Creates the persistence layer over a fresh [`DurableStore`].
    pub fn new(config: DurabilityConfig) -> DurablePersistence {
        DurablePersistence {
            store: DurableStore::new(config),
        }
    }

    /// Access to the underlying store (to attach peers before a run or
    /// reach an engine from a test).
    pub fn store_mut(&mut self) -> &mut DurableStore {
        &mut self.store
    }
}

impl CrashPersistence for DurablePersistence {
    fn crash(
        &mut self,
        mut peer: Peer,
        crash_seed: u64,
    ) -> std::result::Result<(Bytes, Vec<SimOp>), NetError> {
        let name = peer.name();
        peer.clear_durability();
        drop(peer); // the process image is gone; only disk survives
        let engine = self.store.engine(name).map_err(NetError::from)?;
        let lost = engine.lock().simulate_crash(crash_seed);
        let ops = lost
            .into_iter()
            .filter_map(|entry| match entry {
                // A lost watermark is not a client op: the session layer
                // simply re-delivers the frames it covered (they were
                // never acked) and the peer dedups nothing it should not.
                // Nor is a Meta entry, which `Engine::sync` never buffers.
                WalEntry::Watermark { .. } | WalEntry::Meta(_) => None,
                WalEntry::Fact(rec) if rec.added => Some(SimOp::Insert {
                    rel: rec.rel,
                    tuple: rec.tuple.to_vec(),
                }),
                WalEntry::Fact(rec) => Some(SimOp::Delete {
                    rel: rec.rel,
                    tuple: rec.tuple.to_vec(),
                }),
            })
            .collect();
        Ok((Bytes::from(name.as_str().as_bytes().to_vec()), ops))
    }

    fn restart(&mut self, name: Symbol, _token: &Bytes) -> std::result::Result<Peer, NetError> {
        self.store.recover(name).map_err(NetError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use wdl_core::RelationKind;
    use wdl_datalog::Value;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wdl-store-per-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn attach_recover_round_trip() {
        let root = tmp_root("rt");
        let mut store = DurableStore::new(DurabilityConfig::new(&root));
        let mut p = Peer::new("perp1");
        p.declare("pictures", 1, RelationKind::Extensional).unwrap();
        store.attach(&mut p).unwrap();
        assert!(p.durable());
        assert!(store.has_data("perp1"));

        p.insert_local("pictures", vec![Value::from(7)]).unwrap();
        p.run_stage().unwrap(); // group commit

        drop(p);
        let mut store2 = DurableStore::new(DurabilityConfig::new(&root));
        let q = store2.recover("perp1").unwrap();
        assert_eq!(q.relation_facts("pictures").len(), 1);
        assert!(q.durable());
        let _ = fs::remove_dir_all(&root);
    }

    /// Both ways back from disk end in a fresh checkpoint, because
    /// recovery leaves no WAL open: `DurableStore::recover`, and a bare
    /// `Engine::recover` followed by attaching a sink and syncing.
    #[test]
    fn both_recovery_routes_end_in_a_fresh_checkpoint() {
        let root = tmp_root("routes");
        let mut store = DurableStore::new(DurabilityConfig::new(&root));
        let mut p = Peer::new("perp5");
        p.declare("pictures", 1, RelationKind::Extensional).unwrap();
        store.attach(&mut p).unwrap();
        p.declare("album", 1, RelationKind::Extensional).unwrap();
        p.insert_local("album", vec![Value::from(1)]).unwrap();
        p.run_stage().unwrap();
        let engine = store.engine("perp5").unwrap();
        assert_eq!(engine.lock().epoch(), 1, "the structural change was logged");
        drop(p);

        let q = store.recover("perp5").unwrap();
        assert_eq!(engine.lock().epoch(), 2);
        drop(q);

        let mut r = engine.lock().recover().unwrap();
        let sink = EngineSink {
            engine: Arc::clone(&engine),
            peer: r.name(),
        };
        r.set_durability(Box::new(sink));
        r.sync_durability().unwrap();
        let engine = engine.lock();
        assert_eq!(engine.epoch(), 3);
        assert_eq!(engine.wal_stats(), (0, 0));
        assert_eq!(r.relation_facts("album").len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn local_runtime_attachment_persists_through_ticks() {
        let root = tmp_root("lrt");
        let mut store = DurableStore::new(DurabilityConfig::new(&root));
        let mut rt = LocalRuntime::new();
        let mut p = Peer::new("perp2");
        p.declare("pictures", 1, RelationKind::Extensional).unwrap();
        rt.add_peer(p).unwrap();
        store.attach_runtime(&mut rt).unwrap();

        rt.peer_mut("perp2")
            .unwrap()
            .insert_local("pictures", vec![Value::from(1)])
            .unwrap();
        rt.run_to_quiescence(16).unwrap();

        let mut store2 = DurableStore::new(DurabilityConfig::new(&root));
        let q = store2.recover("perp2").unwrap();
        assert_eq!(q.relation_facts("pictures").len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sharded_runtime_attachment_persists() {
        let root = tmp_root("srt");
        let mut store = DurableStore::new(DurabilityConfig::new(&root));
        let mut rt = ShardedRuntime::new(2);
        let mut p = Peer::new("perp3");
        p.declare("pictures", 1, RelationKind::Extensional).unwrap();
        rt.add_peer(p).unwrap();
        store.attach_sharded(&mut rt).unwrap();

        rt.insert_local("perp3", "pictures", vec![Value::from(4)])
            .unwrap();
        rt.run_to_quiescence(16).unwrap();
        drop(rt);

        let mut store2 = DurableStore::new(DurabilityConfig::new(&root));
        let q = store2.recover("perp3").unwrap();
        assert_eq!(q.relation_facts("pictures").len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_persistence_recovers_acked_state() {
        let root = tmp_root("cp");
        let mut persist = DurablePersistence::new(DurabilityConfig::new(&root));
        let mut p = Peer::new("perp4");
        p.declare("pictures", 1, RelationKind::Extensional).unwrap();
        persist.store_mut().attach(&mut p).unwrap();
        p.insert_local("pictures", vec![Value::from(1)]).unwrap();
        p.run_stage().unwrap();
        // An unacked mutation right before the crash.
        p.insert_local("pictures", vec![Value::from(2)]).unwrap();

        let (token, lost) = persist.crash(p, 11).unwrap();
        assert_eq!(lost.len(), 1, "the unsynced insert comes back as an op");
        let q = persist.restart(Symbol::intern("perp4"), &token).unwrap();
        assert_eq!(
            q.relation_facts("pictures").len(),
            1,
            "acked state survives, unacked does not resurrect by itself"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
