//! Deterministic in-process network.
//!
//! Models the demo's LAN (Figure 2) inside one process: every peer gets an
//! endpoint backed by an unbounded channel, a shared hub routes by peer
//! name. Delivery is FIFO per sender-receiver pair and lossless; fault
//! injection lives in the simulator (`crate::sim`).

use crate::{NetError, Transport};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use wdl_core::Message;
use wdl_datalog::Symbol;

/// Every registered peer's inbound channel, by name.
type Hub = HashMap<Symbol, Sender<Message>>;

/// A shared in-process network hub.
#[derive(Clone, Default)]
pub struct InMemoryNetwork {
    hub: Arc<Mutex<Hub>>,
}

impl InMemoryNetwork {
    /// New, empty network.
    pub fn new() -> InMemoryNetwork {
        InMemoryNetwork::default()
    }

    /// Creates (and registers) the endpoint for `peer`.
    ///
    /// Registering the same peer twice is a recoverable
    /// [`NetError::DuplicateEndpoint`] (the existing endpoint keeps
    /// working).
    pub fn endpoint(&self, peer: impl Into<Symbol>) -> Result<MemoryEndpoint, NetError> {
        let peer = peer.into();
        let mut hub = self.hub.lock();
        if hub.contains_key(&peer) {
            return Err(NetError::DuplicateEndpoint(peer.to_string()));
        }
        let (tx, rx) = unbounded();
        hub.insert(peer, tx);
        Ok(MemoryEndpoint {
            name: peer,
            hub: Arc::clone(&self.hub),
            rx,
        })
    }
}

/// One peer's endpoint on an [`InMemoryNetwork`].
pub struct MemoryEndpoint {
    name: Symbol,
    hub: Arc<Mutex<Hub>>,
    rx: Receiver<Message>,
}

impl Transport for MemoryEndpoint {
    fn peer_name(&self) -> Symbol {
        self.name
    }

    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        match self.hub.lock().get(&msg.to) {
            // A receiver that was dropped loses the message, as a peer that
            // left the network would.
            Some(tx) => {
                let _ = tx.send(msg);
                Ok(())
            }
            None => Err(NetError::UnknownPeer(msg.to.to_string())),
        }
    }

    fn drain(&mut self) -> Vec<Message> {
        self.rx.try_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::{Payload, WFact};
    use wdl_datalog::Value;

    fn msg(from: &str, to: &str, v: i64) -> Message {
        Message::new(
            Symbol::intern(from),
            Symbol::intern(to),
            Payload::Facts {
                kind: wdl_core::FactKind::Persistent,
                additions: vec![WFact::new("r", to, vec![Value::from(v)])],
                retractions: vec![],
            },
        )
    }

    #[test]
    fn point_to_point_delivery_is_fifo() {
        let net = InMemoryNetwork::new();
        let mut a = net.endpoint("a").unwrap();
        let mut b = net.endpoint("b").unwrap();
        for i in 0..10 {
            a.send(msg("a", "b", i)).unwrap();
        }
        let got = b.drain();
        assert_eq!(got.len(), 10);
        for (i, m) in got.iter().enumerate() {
            if let Payload::Facts { additions, .. } = &m.payload {
                assert_eq!(additions[0].tuple[0], Value::from(i as i64));
            }
        }
        assert!(b.drain().is_empty(), "drain empties the queue");
    }

    #[test]
    fn unknown_peer_errors() {
        let net = InMemoryNetwork::new();
        let mut a = net.endpoint("a").unwrap();
        assert!(matches!(
            a.send(msg("a", "ghost", 0)),
            Err(NetError::UnknownPeer(_))
        ));
    }

    #[test]
    fn duplicate_endpoint_is_a_recoverable_error() {
        let net = InMemoryNetwork::new();
        let mut x = net.endpoint("dup").unwrap();
        assert!(matches!(
            net.endpoint("dup"),
            Err(NetError::DuplicateEndpoint(_))
        ));
        // The original registration survives the failed attempt.
        let mut b = net.endpoint("dup2").unwrap();
        b.send(msg("dup2", "dup", 1)).unwrap();
        assert_eq!(x.drain().len(), 1);
    }

    #[test]
    fn cross_thread_delivery() {
        let net = InMemoryNetwork::new();
        let mut a = net.endpoint("a").unwrap();
        let mut b = net.endpoint("b").unwrap();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                a.send(msg("a", "b", i)).unwrap();
            }
        });
        t.join().unwrap();
        assert_eq!(b.drain().len(), 100);
    }
}
