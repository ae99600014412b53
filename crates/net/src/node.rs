//! Glue between a [`Peer`] and a [`Transport`]: the free-running peer node.
//!
//! The in-process [`wdl_core::runtime::LocalRuntime`] drives stages in
//! lockstep; a [`PeerNode`] instead lets every peer run at its own pace —
//! the deployment model of the demo, where laptops and the cloud peer tick
//! independently.

use crate::{NetError, Transport, TransportEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wdl_core::{Message, Peer, StageStats, WdlError};

/// Error from driving a node.
#[derive(Debug)]
pub enum NodeError {
    /// Engine failure.
    Engine(WdlError),
    /// Transport failure.
    Net(NetError),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Engine(e) => write!(f, "engine: {e}"),
            NodeError::Net(e) => write!(f, "net: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<WdlError> for NodeError {
    fn from(e: WdlError) -> Self {
        NodeError::Engine(e)
    }
}

impl From<NetError> for NodeError {
    fn from(e: NetError) -> Self {
        NodeError::Net(e)
    }
}

/// Result of a single [`PeerNode::step`].
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Messages received and enqueued this step.
    pub received: usize,
    /// Messages sent this step.
    pub sent: usize,
    /// Messages whose target the transport does not know.
    pub undeliverable: usize,
    /// Messages deferred because the target is currently unreachable
    /// (backpressure or a down link); retried at the next step.
    pub deferred: usize,
    /// Whether the stage observed/produced any change.
    pub changed: bool,
    /// The stage's counters.
    pub stats: StageStats,
}

/// A peer bound to a transport endpoint.
pub struct PeerNode<T: Transport> {
    peer: Peer,
    transport: T,
    /// Messages whose send came back [`NetError::PeerUnreachable`];
    /// retried at the start of every step so backpressure degrades to
    /// deferral instead of loss.
    deferred: Vec<Message>,
}

impl<T: Transport> PeerNode<T> {
    /// Binds `peer` to `transport`.
    ///
    /// # Panics
    /// If the transport's peer name differs from the peer's name.
    pub fn new(peer: Peer, transport: T) -> PeerNode<T> {
        assert_eq!(
            peer.name(),
            transport.peer_name(),
            "transport endpoint belongs to a different peer"
        );
        PeerNode {
            peer,
            transport,
            deferred: Vec::new(),
        }
    }

    /// The wrapped peer.
    pub fn peer(&self) -> &Peer {
        &self.peer
    }

    /// The wrapped peer, mutably (insert facts, manage rules, approve
    /// delegations).
    pub fn peer_mut(&mut self) -> &mut Peer {
        &mut self.peer
    }

    /// The transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// One full cycle: retry deferred sends → drain → react to transport
    /// events → persist session watermarks → stage (the durability group
    /// commit) → commit delivery to the session layer → send.
    ///
    /// The ordering is the crash-safety choreography of the session
    /// layer: watermarks enter the peer *before* the stage's group
    /// commit (so they land in the same commit as the facts they cover)
    /// and [`Transport::commit_delivered`] runs *after* it (so acks
    /// never advertise deliveries that are not yet durable).
    pub fn step(&mut self) -> Result<StepReport, NodeError> {
        let mut report = StepReport::default();
        for msg in std::mem::take(&mut self.deferred) {
            self.dispatch(msg, &mut report)?;
        }
        for msg in self.transport.drain() {
            self.peer.enqueue(msg);
            report.received += 1;
        }
        for ev in self.transport.poll_events() {
            match ev {
                TransportEvent::PeerRestarted(remote) => {
                    // The remote lost its transient derived
                    // contributions: forget what we already sent so the
                    // next stage emits the full derived state again.
                    self.peer.resync_target(remote);
                }
                TransportEvent::Suspect(remote) => {
                    self.peer.trace_session_health(remote, 1);
                }
                TransportEvent::Down(remote) => {
                    self.peer.trace_session_health(remote, 2);
                }
            }
        }
        for (to, count) in self.transport.take_retransmit_counts() {
            self.peer.trace_session_retransmits(to, count);
        }
        for note in self.transport.watermarks() {
            self.peer
                .note_session_watermark(note.remote, note.dir, note.inc, note.seq);
        }
        let out = self.peer.run_stage()?;
        report.changed = out.changed;
        report.stats = out.stats;
        self.transport.commit_delivered();
        for msg in out.messages {
            self.dispatch(msg, &mut report)?;
        }
        Ok(report)
    }

    fn dispatch(&mut self, msg: Message, report: &mut StepReport) -> Result<(), NodeError> {
        match self.transport.send(msg.clone()) {
            Ok(()) => report.sent += 1,
            Err(NetError::UnknownPeer(_)) => report.undeliverable += 1,
            Err(NetError::PeerUnreachable(_)) => {
                self.deferred.push(msg);
                report.deferred += 1;
            }
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// Whether the step that returned `r` was quiet: no input, no change,
    /// nothing sent or deferred, and no session work in flight.
    pub(crate) fn is_quiet(&self, r: &StepReport) -> bool {
        !r.changed
            && r.received == 0
            && r.sent == 0
            && r.deferred == 0
            && self.transport.pending_work() == 0
    }

    /// Steps until `idle_steps` consecutive quiet steps ([`PeerNode::step`]
    /// reports nothing and no session work is in flight) or until
    /// `max_steps` is exhausted. Returns `true` on quiescence.
    pub fn run_until_quiet(
        &mut self,
        max_steps: usize,
        idle_steps: usize,
    ) -> Result<bool, NodeError> {
        let mut quiet = 0;
        for _ in 0..max_steps {
            let r = self.step()?;
            if self.is_quiet(&r) {
                quiet += 1;
                if quiet >= idle_steps {
                    return Ok(true);
                }
            } else {
                quiet = 0;
            }
        }
        Ok(false)
    }

    /// Unbinds, returning the peer and the transport.
    pub fn into_parts(self) -> (Peer, T) {
        (self.peer, self.transport)
    }
}

/// Handle to a peer node running on its own thread.
pub struct NodeHandle<T: Transport + 'static> {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<Result<PeerNode<T>, NodeError>>,
}

impl<T: Transport + 'static> NodeHandle<T> {
    /// Spawns `node` on a thread, stepping every `interval`. Fails when
    /// the system cannot start the thread.
    pub fn spawn(mut node: PeerNode<T>, interval: Duration) -> std::io::Result<NodeHandle<T>> {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let name = node.peer().name().to_string();
        let join = std::thread::Builder::new()
            .name(format!("wdl-node-{name}"))
            .spawn(move || {
                while !thread_stop.load(Ordering::SeqCst) {
                    node.step()?;
                    std::thread::sleep(interval);
                }
                Ok(node)
            })?;
        Ok(NodeHandle { stop, join })
    }

    /// Signals the thread to stop and returns the node. A panic on the
    /// node's thread resumes in the caller.
    pub fn stop(self) -> Result<PeerNode<T>, NodeError> {
        self.stop.store(true, Ordering::SeqCst);
        self.join
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryNetwork;
    use wdl_core::acl::UntrustedPolicy;
    use wdl_core::{RelationKind, WRule};
    use wdl_datalog::Value;

    fn open_peer(name: &str) -> Peer {
        let mut p = Peer::new(name);
        p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
        p
    }

    #[test]
    #[should_panic(expected = "different peer")]
    fn mismatched_names_panic() {
        let net = InMemoryNetwork::new();
        let ep = net.endpoint("x").unwrap();
        let _ = PeerNode::new(Peer::new("y"), ep);
    }

    /// The paper's delegation scenario over the transport abstraction
    /// (manual stepping, deterministic).
    #[test]
    fn delegation_over_memory_transport() {
        let net = InMemoryNetwork::new();
        let mut jules = PeerNode::new(open_peer("jules"), net.endpoint("jules").unwrap());
        let mut emilien = PeerNode::new(open_peer("emilien"), net.endpoint("emilien").unwrap());

        jules
            .peer_mut()
            .declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        jules
            .peer_mut()
            .add_rule(WRule::example_attendee_pictures("jules"))
            .unwrap();
        jules
            .peer_mut()
            .insert_local("selectedAttendee", vec![Value::from("emilien")])
            .unwrap();
        emilien
            .peer_mut()
            .insert_local(
                "pictures",
                vec![
                    Value::from(1),
                    Value::from("sea.jpg"),
                    Value::from("emilien"),
                    Value::bytes(&[7]),
                ],
            )
            .unwrap();

        for _ in 0..8 {
            jules.step().unwrap();
            emilien.step().unwrap();
        }
        assert_eq!(
            jules.peer().relation_facts("attendeePictures").len(),
            1,
            "picture flowed through delegation over the transport"
        );
    }

    /// Free-running threaded nodes converge without lockstep scheduling.
    #[test]
    fn threaded_nodes_converge() {
        let net = InMemoryNetwork::new();
        let mut jules = PeerNode::new(open_peer("t-jules"), net.endpoint("t-jules").unwrap());
        let mut emilien = PeerNode::new(open_peer("t-emilien"), net.endpoint("t-emilien").unwrap());

        jules
            .peer_mut()
            .declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        jules
            .peer_mut()
            .add_rule(WRule::example_attendee_pictures("t-jules"))
            .unwrap();
        jules
            .peer_mut()
            .insert_local("selectedAttendee", vec![Value::from("t-emilien")])
            .unwrap();
        emilien
            .peer_mut()
            .insert_local(
                "pictures",
                vec![
                    Value::from(2),
                    Value::from("b.jpg"),
                    Value::from("t-emilien"),
                    Value::bytes(&[8]),
                ],
            )
            .unwrap();

        let hj = NodeHandle::spawn(jules, Duration::from_millis(2)).unwrap();
        let he = NodeHandle::spawn(emilien, Duration::from_millis(2)).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let jules = hj.stop().unwrap();
        let _ = he.stop().unwrap();
        assert_eq!(jules.peer().relation_facts("attendeePictures").len(), 1);
    }

    #[test]
    fn run_until_quiet_detects_quiescence() {
        let net = InMemoryNetwork::new();
        let mut solo = PeerNode::new(open_peer("solo-q"), net.endpoint("solo-q").unwrap());
        solo.peer_mut()
            .insert_local("r", vec![Value::from(1)])
            .unwrap();
        assert!(solo.run_until_quiet(32, 2).unwrap());
    }
}
