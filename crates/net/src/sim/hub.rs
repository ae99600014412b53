//! The simulated network hub: virtual clock, seeded randomness, and the
//! global discrete-event queue.
//!
//! Every send is **encoded through the real wire codec** and every drain
//! decodes it back — a message that survives the simulator has survived the
//! same serialization path the TCP transport uses, so wire-format bugs
//! surface in simulation instead of production. A decode failure inside the
//! simulator is by definition a codec bug and fails the run loudly.

use super::fault::FaultPlan;
use crate::{codec, NetError, Transport};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use wdl_core::Message;
use wdl_datalog::{Symbol, Value};

/// A state mutation the scheduler applies to a peer at a virtual time
/// (the churn vocabulary of scenario scripts).
#[derive(Clone, Debug, PartialEq)]
pub enum SimOp {
    /// `Peer::insert_local(rel, tuple)`.
    Insert {
        /// Target relation.
        rel: Symbol,
        /// The tuple.
        tuple: Vec<Value>,
    },
    /// `Peer::delete_local(rel, tuple)`.
    Delete {
        /// Target relation.
        rel: Symbol,
        /// The tuple.
        tuple: Vec<Value>,
    },
}

/// What a queued event does when it fires.
#[derive(Clone, Debug)]
pub(crate) enum EventKind {
    /// A wire frame reaches `to`'s mailbox.
    Deliver {
        /// Sending peer (provenance for diagnostics).
        from: Symbol,
        /// Receiving peer.
        to: Symbol,
        /// Encoded frame (real codec output).
        bytes: Bytes,
    },
    /// A peer runs one drain → stage → send step.
    Step {
        /// The peer to step.
        peer: Symbol,
        /// Incarnation the step belongs to; stale steps of crashed
        /// incarnations are ignored.
        incarnation: u32,
    },
    /// The peer crashes (state snapshotted through the real persistence
    /// path; transient state and timers die).
    Crash {
        /// The peer to kill.
        peer: Symbol,
    },
    /// The peer restarts from its crash snapshot.
    Restart {
        /// The peer to revive.
        peer: Symbol,
    },
    /// A scripted state mutation.
    Inject {
        /// The peer to mutate.
        peer: Symbol,
        /// The mutation.
        op: SimOp,
    },
}

/// A scheduled event. Ordering is `(at, seq)` — virtual time with a
/// monotone tiebreaker — which makes the whole simulation a deterministic
/// function of (scenario, plan, seed).
#[derive(Clone, Debug)]
pub(crate) struct Event {
    pub(crate) at: u64,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Event) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Delivery counters, exposed for tests and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Messages submitted to the network.
    pub sent: u64,
    /// Frames placed in a mailbox.
    pub delivered: u64,
    /// Frames destroyed (faults, dropped partitions, crash loss).
    pub dropped: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
}

pub(crate) struct PeerSlot {
    /// Frames delivered but not yet drained: `(from, frame)`.
    pub(crate) mailbox: Vec<(Symbol, Bytes)>,
    /// True while the peer is crashed.
    pub(crate) down: bool,
    /// Bumped on every crash so stale step timers die.
    pub(crate) incarnation: u32,
}

pub(crate) struct SimState {
    pub(crate) now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<Event>>,
    pub(crate) rng: StdRng,
    pub(crate) plan: FaultPlan,
    pub(crate) peers: HashMap<Symbol, PeerSlot>,
    pub(crate) counters: SimCounters,
    /// Outstanding `Deliver` events (for quiescence detection).
    pub(crate) pending_delivers: usize,
    /// Outstanding `Crash`/`Restart`/`Inject` events.
    pub(crate) pending_control: usize,
    /// Per-link floor for FIFO links: last scheduled delivery time.
    link_floor: HashMap<(Symbol, Symbol), u64>,
    /// If true, frames addressed to a crashed peer are destroyed instead of
    /// waiting in its mailbox (models kernel buffers dying with the
    /// process; the default models a reconnecting/queueing transport).
    pub(crate) crash_drops_inflight: bool,
}

impl SimState {
    pub(crate) fn schedule(&mut self, at: u64, kind: EventKind) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        match kind {
            EventKind::Deliver { .. } => self.pending_delivers += 1,
            EventKind::Crash { .. } | EventKind::Restart { .. } | EventKind::Inject { .. } => {
                self.pending_control += 1
            }
            EventKind::Step { .. } => {}
        }
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            kind,
        }));
    }

    /// Pops the next event, advancing the virtual clock to it.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        let Reverse(ev) = self.queue.pop()?;
        self.now = ev.at;
        match ev.kind {
            EventKind::Deliver { .. } => self.pending_delivers -= 1,
            EventKind::Crash { .. } | EventKind::Restart { .. } | EventKind::Inject { .. } => {
                self.pending_control -= 1
            }
            EventKind::Step { .. } => {}
        }
        Some(ev)
    }

    /// Routes one encoded frame, applying the fault plan. All randomness
    /// comes from the shared seeded generator, in event order.
    fn route(&mut self, from: Symbol, to: Symbol, bytes: Bytes) -> Result<(), NetError> {
        if !self.peers.contains_key(&to) {
            return Err(NetError::UnknownPeer(to.to_string()));
        }
        self.counters.sent += 1;
        let lf = *self.plan.link_for(from, to);
        if let Some(n) = lf.drop_every_nth {
            if n > 0 && self.counters.sent.is_multiple_of(n) {
                self.counters.dropped += 1;
                return Ok(());
            }
        }
        if lf.drop_prob > 0.0 && self.rng.gen_bool(lf.drop_prob) {
            self.counters.dropped += 1;
            return Ok(());
        }
        // Partitions: destroy or buffer-until-heal, per the plan.
        let base = match self.plan.partition_heal(from, to, self.now) {
            Some(_) if self.plan.partitions_drop() => {
                self.counters.dropped += 1;
                return Ok(());
            }
            Some(heal) => heal,
            None => self.now,
        };
        let copies = if lf.dup_prob > 0.0 && self.rng.gen_bool(lf.dup_prob) {
            self.counters.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut delay = self.rng.gen_range(lf.latency_min..=lf.latency_max);
            if lf.jitter_prob > 0.0 && self.rng.gen_bool(lf.jitter_prob) {
                delay += self.rng.gen_range(0..=lf.jitter_max);
            }
            let mut at = base + delay;
            if lf.fifo {
                let floor = self.link_floor.entry((from, to)).or_insert(0);
                at = at.max(*floor + 1);
                *floor = at;
            }
            self.schedule(
                at,
                EventKind::Deliver {
                    from,
                    to,
                    bytes: bytes.clone(),
                },
            );
        }
        Ok(())
    }

    /// Applies a `Deliver` event to the target mailbox. Routing refuses
    /// unknown targets and peers never leave the hub, so every event names
    /// a known peer; one that did not would count as dropped.
    pub(crate) fn deliver(&mut self, to: Symbol, from: Symbol, bytes: Bytes) {
        match self.peers.get_mut(&to) {
            Some(slot) if !(slot.down && self.crash_drops_inflight) => {
                slot.mailbox.push((from, bytes));
                self.counters.delivered += 1;
            }
            _ => self.counters.dropped += 1,
        }
    }
}

/// The deterministic simulated network. Cloning shares the hub, exactly
/// like [`crate::memory::InMemoryNetwork`].
#[derive(Clone)]
pub struct SimNet {
    pub(crate) state: Arc<Mutex<SimState>>,
}

impl SimNet {
    /// A fault-free simulated network driven by `seed`.
    pub fn new(seed: u64) -> SimNet {
        SimNet::with_plan(seed, FaultPlan::lossless())
    }

    /// A simulated network with a fault plan. Same `(plan, seed)` — same
    /// run, byte for byte.
    pub fn with_plan(seed: u64, plan: FaultPlan) -> SimNet {
        SimNet {
            state: Arc::new(Mutex::new(SimState {
                now: 0,
                seq: 0,
                queue: BinaryHeap::new(),
                rng: StdRng::seed_from_u64(seed),
                plan,
                peers: HashMap::new(),
                counters: SimCounters::default(),
                pending_delivers: 0,
                pending_control: 0,
                link_floor: HashMap::new(),
                crash_drops_inflight: false,
            })),
        }
    }

    /// Creates (and registers) the endpoint for `peer`. Unlike real
    /// transports the simulator owns delivery timing, so the endpoint is a
    /// thin handle onto the shared hub.
    pub fn endpoint(&self, peer: impl Into<Symbol>) -> Result<SimEndpoint, NetError> {
        let peer = peer.into();
        let mut st = self.state.lock();
        if st.peers.contains_key(&peer) {
            return Err(NetError::DuplicateEndpoint(peer.to_string()));
        }
        st.peers.insert(
            peer,
            PeerSlot {
                mailbox: Vec::new(),
                down: false,
                incarnation: 0,
            },
        );
        Ok(SimEndpoint {
            name: peer,
            state: Arc::clone(&self.state),
        })
    }

    /// Replaces the fault plan (applies to subsequent sends).
    pub fn set_plan(&self, plan: FaultPlan) {
        self.state.lock().plan = plan;
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.state.lock().now
    }

    /// Delivery counters so far.
    pub fn counters(&self) -> SimCounters {
        self.state.lock().counters
    }
}

/// One peer's endpoint on a [`SimNet`]. Implements the same [`Transport`]
/// trait the memory and TCP endpoints implement, so [`crate::node::PeerNode`]
/// drives it unchanged.
pub struct SimEndpoint {
    name: Symbol,
    state: Arc<Mutex<SimState>>,
}

impl SimEndpoint {
    pub(crate) fn reattach(name: Symbol, state: &Arc<Mutex<SimState>>) -> SimEndpoint {
        SimEndpoint {
            name,
            state: Arc::clone(state),
        }
    }
}

impl Transport for SimEndpoint {
    fn peer_name(&self) -> Symbol {
        self.name
    }

    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        // The real wire format: bugs in `codec` surface here, in simulation.
        let to = msg.to;
        let bytes = codec::encode(&msg);
        self.state.lock().route(self.name, to, bytes)
    }

    // The hub moves the bytes its endpoints encoded and its fault plan
    // never alters them, so a frame that fails to decode is a codec bug
    // the conformance suite must stop on, not a fault to count.
    #[allow(clippy::panic)]
    fn drain(&mut self) -> Vec<Message> {
        let frames = {
            let mut st = self.state.lock();
            match st.peers.get_mut(&self.name) {
                Some(slot) => std::mem::take(&mut slot.mailbox),
                None => Vec::new(),
            }
        };
        frames
            .into_iter()
            .map(|(from, bytes)| {
                codec::decode(&bytes).unwrap_or_else(|e| {
                    panic!(
                        "simulation surfaced a wire-format bug: frame {from} -> {} \
                         failed to decode: {e}",
                        self.name
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::{FactKind, Payload, WFact};

    fn msg(from: &str, to: &str, v: i64) -> Message {
        Message::new(
            Symbol::intern(from),
            Symbol::intern(to),
            Payload::Facts {
                kind: FactKind::Persistent,
                additions: vec![WFact::new("r", to, vec![Value::from(v)])],
                retractions: vec![],
            },
        )
    }

    /// Drives all pending `Deliver` events (unit-test substitute for the
    /// full scheduler).
    fn flush(net: &SimNet) {
        loop {
            let ev = { net.state.lock().pop() };
            match ev {
                Some(Event {
                    kind: EventKind::Deliver { from, to, bytes },
                    ..
                }) => {
                    net.state.lock().deliver(to, from, bytes);
                }
                Some(_) => {}
                None => break,
            }
        }
    }

    #[test]
    fn frames_traverse_the_real_codec() {
        let net = SimNet::new(1);
        let mut a = net.endpoint("sa").unwrap();
        let mut b = net.endpoint("sb").unwrap();
        a.send(msg("sa", "sb", 7)).unwrap();
        flush(&net);
        let got = b.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], msg("sa", "sb", 7), "decode(encode(m)) == m");
    }

    #[test]
    fn duplicate_endpoint_is_recoverable() {
        let net = SimNet::new(1);
        let _a = net.endpoint("sdup").unwrap();
        assert!(matches!(
            net.endpoint("sdup"),
            Err(NetError::DuplicateEndpoint(_))
        ));
    }

    #[test]
    fn unknown_peer_errors() {
        let net = SimNet::new(1);
        let mut a = net.endpoint("sx").unwrap();
        assert!(matches!(
            a.send(msg("sx", "ghost", 0)),
            Err(NetError::UnknownPeer(_))
        ));
    }

    #[test]
    fn same_seed_same_delivery_schedule() {
        let run = |seed: u64| -> Vec<u64> {
            let net = SimNet::with_plan(seed, FaultPlan::lossless().delay(10, 500).duplicate(0.3));
            let mut a = net.endpoint("da").unwrap();
            let _b = net.endpoint("db").unwrap();
            for i in 0..50 {
                a.send(msg("da", "db", i)).unwrap();
            }
            let mut times = Vec::new();
            loop {
                let ev = { net.state.lock().pop() };
                match ev {
                    Some(Event { at, .. }) => times.push(at),
                    None => break,
                }
            }
            times
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seed, different schedule");
    }

    #[test]
    fn deterministic_every_nth_drop_counts_exactly() {
        let net = SimNet::with_plan(9, FaultPlan::lossless().drop_every_nth(3));
        let mut a = net.endpoint("na").unwrap();
        let mut b = net.endpoint("nb").unwrap();
        for i in 0..9 {
            a.send(msg("na", "nb", i)).unwrap();
        }
        flush(&net);
        assert_eq!(b.drain().len(), 6);
        let c = net.counters();
        assert_eq!((c.sent, c.delivered, c.dropped), (9, 6, 3));
    }

    #[test]
    fn fifo_links_preserve_send_order_under_jittered_latency() {
        let net = SimNet::with_plan(5, FaultPlan::lossless().delay(10, 5_000).fifo());
        let mut a = net.endpoint("fa").unwrap();
        let mut b = net.endpoint("fb").unwrap();
        for i in 0..20 {
            a.send(msg("fa", "fb", i)).unwrap();
        }
        flush(&net);
        let got = b.drain();
        assert_eq!(got.len(), 20);
        for (i, m) in got.iter().enumerate() {
            if let Payload::Facts { additions, .. } = &m.payload {
                assert_eq!(additions[0].tuple[0], Value::from(i as i64), "FIFO order");
            }
        }
    }

    #[test]
    fn buffered_partition_holds_until_heal() {
        let net = SimNet::with_plan(3, FaultPlan::lossless().partition("pa", "pb", 0, 10_000));
        let mut a = net.endpoint("pa").unwrap();
        let _b = net.endpoint("pb").unwrap();
        a.send(msg("pa", "pb", 1)).unwrap();
        let ev = net.state.lock().pop().unwrap();
        assert!(
            ev.at >= 10_000,
            "delivery scheduled after heal, got {}",
            ev.at
        );
    }
}
