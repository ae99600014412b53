//! The two seams the benchmark measures from: [`Probe`], a transparent
//! [`Transport`] wrapper placed once above and once below the session
//! layer, and [`ProbeSink`], a [`DurabilitySink`] that forwards to the
//! public storage [`Engine`].
//!
//! A probe forwards every call unchanged. What it adds is bookkeeping on
//! the side: the picture ids of watched facts in the messages `drain`
//! returned (visibility stamping reads nothing else, so it costs O(delta)),
//! and, when timing is on, the time spent inside the wrapped transport,
//! frame counts, and every 16th sent message kept for the codec replay.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use wdl_core::{unqualify, DurabilitySink, Message, Payload, Peer};
use wdl_datalog::{Symbol, Tuple};
use wdl_net::{NetError, Transport, TransportEvent, WatermarkNote};
use wdl_store::Engine;

use crate::gen::Key;

/// One in this many sent messages is kept for the codec replay.
pub const SAMPLE_EVERY: u64 = 16;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

#[derive(Default)]
pub struct ProbeState {
    /// `(picture id, added)` of every watched fact drained since the driver
    /// last took them.
    pub seen: Vec<Key>,
    pub send_ns: u64,
    pub drain_ns: u64,
    /// Time in the remaining `Transport` methods (events, watermarks,
    /// `commit_delivered`, which sends acks).
    pub other_ns: u64,
    /// Of `send_ns`, the part not spent in the probe below.
    pub send_self_ns: u64,
    pub sent: u64,
    pub drained: u64,
    /// Sent session frames by their tag byte: data, ack, hello.
    pub frames_by_tag: [u64; 3],
    pub samples: Vec<Message>,
}

impl ProbeState {
    /// Adds another probe's sums and samples to this one's.
    pub fn absorb(&mut self, other: &mut ProbeState) {
        self.send_ns += other.send_ns;
        self.drain_ns += other.drain_ns;
        self.other_ns += other.other_ns;
        self.send_self_ns += other.send_self_ns;
        self.sent += other.sent;
        self.drained += other.drained;
        for (a, b) in self.frames_by_tag.iter_mut().zip(other.frames_by_tag) {
            *a += b;
        }
        self.samples.append(&mut other.samples);
    }

    pub fn total_ns(&self) -> u64 {
        self.send_ns + self.drain_ns + self.other_ns
    }
}

/// The part of a probe the driver keeps a handle to.
pub struct ProbeShared {
    /// Relation whose drained facts are reported in `seen`.
    watch: Option<Symbol>,
    timing: bool,
    /// The probe below this one in the same stack, whose time is this
    /// one's child time.
    child: Option<Arc<ProbeShared>>,
    state: Mutex<ProbeState>,
}

impl ProbeShared {
    pub fn new(
        watch: Option<&str>,
        timing: bool,
        child: Option<Arc<ProbeShared>>,
    ) -> Arc<ProbeShared> {
        Arc::new(ProbeShared {
            watch: watch.map(Symbol::intern),
            timing,
            child,
            state: Mutex::new(ProbeState::default()),
        })
    }

    pub fn state(&self) -> MutexGuard<'_, ProbeState> {
        self.state.lock().expect("probe state poisoned")
    }

    fn child_ns(&self) -> u64 {
        self.child.as_ref().map_or(0, |c| c.state().total_ns())
    }

    /// Moves the keys seen since the last call into `out`.
    pub fn take_seen(&self, out: &mut Vec<Key>) {
        out.append(&mut self.state().seen);
    }
}

pub struct Probe<T: Transport> {
    inner: T,
    shared: Arc<ProbeShared>,
}

impl<T: Transport> Probe<T> {
    pub fn new(inner: T, shared: Arc<ProbeShared>) -> Probe<T> {
        Probe { inner, shared }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        if !self.shared.timing {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.shared.state().other_ns += ns_since(t);
        r
    }
}

/// Pushes the key of every fact of `rel` the message adds or retracts.
pub(crate) fn scan(msg: &Message, rel: Symbol, seen: &mut Vec<Key>) {
    if let Payload::Facts {
        additions,
        retractions,
        ..
    } = &msg.payload
    {
        for (facts, added) in [(additions, true), (retractions, false)] {
            for fact in facts.iter().filter(|f| f.rel == rel) {
                if let Some(id) = fact.tuple.first().and_then(|v| v.as_int()) {
                    seen.push((id, added));
                }
            }
        }
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn peer_name(&self) -> Symbol {
        self.inner.peer_name()
    }

    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        if !self.shared.timing {
            return self.inner.send(msg);
        }
        let tag = match &msg.payload {
            Payload::Session(bytes) => bytes.first().copied(),
            _ => None,
        };
        let sample = self
            .shared
            .state()
            .sent
            .is_multiple_of(SAMPLE_EVERY)
            .then(|| msg.clone());
        let below = self.shared.child_ns();
        let t = Instant::now();
        let r = self.inner.send(msg);
        let ns = ns_since(t);
        let below = self.shared.child_ns() - below;
        let mut st = self.shared.state();
        st.send_ns += ns;
        st.send_self_ns += ns.saturating_sub(below);
        st.sent += 1;
        if let Some(tag) = tag.filter(|&t| t < 3) {
            st.frames_by_tag[tag as usize] += 1;
        }
        st.samples.extend(sample);
        r
    }

    fn drain(&mut self) -> Vec<Message> {
        let t = self.shared.timing.then(Instant::now);
        let msgs = self.inner.drain();
        if msgs.is_empty() && t.is_none() {
            return msgs;
        }
        let mut st = self.shared.state();
        if let Some(t) = t {
            st.drain_ns += ns_since(t);
            st.drained += msgs.len() as u64;
        }
        if let Some(rel) = self.shared.watch {
            for msg in &msgs {
                scan(msg, rel, &mut st.seen);
            }
        }
        msgs
    }

    fn poll_events(&mut self) -> Vec<TransportEvent> {
        self.timed(|t| t.poll_events())
    }

    fn pending_work(&self) -> usize {
        self.inner.pending_work()
    }

    fn watermarks(&mut self) -> Vec<WatermarkNote> {
        self.timed(|t| t.watermarks())
    }

    fn commit_delivered(&mut self) {
        self.timed(|t| t.commit_delivered())
    }

    fn take_retransmit_counts(&mut self) -> Vec<(Symbol, u64)> {
        self.timed(|t| t.take_retransmit_counts())
    }
}

#[derive(Default)]
pub struct SinkState {
    pub sync_ns: u64,
    /// Syncs that wrote something: a WAL append or a checkpoint.
    pub syncs: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_ns: u64,
    pub record_ns: u64,
}

impl SinkState {
    pub fn absorb(&mut self, other: &SinkState) {
        self.sync_ns += other.sync_ns;
        self.syncs += other.syncs;
        self.wal_records += other.wal_records;
        self.wal_bytes += other.wal_bytes;
        self.checkpoints += other.checkpoints;
        self.checkpoint_ns += other.checkpoint_ns;
        self.record_ns += other.record_ns;
    }
}

/// The sink a traced run attaches instead of `DurableStore::attach`'s: it
/// makes the same three calls on the peer's [`Engine`] and times them.
pub struct ProbeSink {
    engine: Arc<parking_lot::Mutex<Engine>>,
    peer: Symbol,
    state: Arc<Mutex<SinkState>>,
}

impl ProbeSink {
    pub fn new(
        engine: Arc<parking_lot::Mutex<Engine>>,
        peer: Symbol,
        state: Arc<Mutex<SinkState>>,
    ) -> ProbeSink {
        ProbeSink {
            engine,
            peer,
            state,
        }
    }
}

impl DurabilitySink for ProbeSink {
    fn record_fact(&mut self, rel: Symbol, tuple: &Tuple, added: bool) {
        let t = Instant::now();
        if let Some(bare) = unqualify(rel, self.peer) {
            self.engine.lock().record(bare, tuple.clone(), added);
        }
        self.state.lock().expect("sink state poisoned").record_ns += ns_since(t);
    }

    fn record_watermark(&mut self, remote: Symbol, dir: u8, inc: u64, seq: u64) {
        let t = Instant::now();
        self.engine.lock().record_watermark(remote, dir, inc, seq);
        self.state.lock().expect("sink state poisoned").record_ns += ns_since(t);
    }

    fn sync(&mut self, peer: &Peer, meta_dirty: bool) -> wdl_core::Result<()> {
        let t = Instant::now();
        let mut engine = self.engine.lock();
        let (epoch, (records, bytes)) = (engine.epoch(), engine.wal_stats());
        let res = engine
            .sync(peer, meta_dirty)
            .map_err(wdl_core::WdlError::from);
        let checkpointed = engine.epoch() != epoch;
        let (records_now, bytes_now) = engine.wal_stats();
        drop(engine);
        let ns = ns_since(t);
        let mut st = self.state.lock().expect("sink state poisoned");
        st.sync_ns += ns;
        if checkpointed {
            st.syncs += 1;
            st.checkpoints += 1;
            st.checkpoint_ns += ns;
        } else if records_now > records {
            st.syncs += 1;
            st.wal_records += (records_now - records) as u64;
            st.wal_bytes += bytes_now - bytes;
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::{FactKind, WFact};
    use wdl_datalog::Value;
    use wdl_net::memory::{InMemoryNetwork, MemoryEndpoint};
    use wdl_net::node::PeerNode;
    use wdl_net::session::{Clock, SessionConfig, SessionEndpoint};
    use wdl_net::sim::SimOp;

    /// Logs every message that crosses it, in order. The outermost layer of
    /// both stacks compared below.
    struct Tap<T: Transport> {
        inner: T,
        log: Arc<Mutex<Vec<(&'static str, Message)>>>,
    }

    impl<T: Transport> Transport for Tap<T> {
        fn peer_name(&self) -> Symbol {
            self.inner.peer_name()
        }
        fn send(&mut self, msg: Message) -> Result<(), NetError> {
            self.log.lock().unwrap().push(("send", msg.clone()));
            self.inner.send(msg)
        }
        fn drain(&mut self) -> Vec<Message> {
            let msgs = self.inner.drain();
            let mut log = self.log.lock().unwrap();
            log.extend(msgs.iter().map(|m| ("drain", m.clone())));
            msgs
        }
        fn poll_events(&mut self) -> Vec<TransportEvent> {
            self.inner.poll_events()
        }
        fn pending_work(&self) -> usize {
            self.inner.pending_work()
        }
        fn watermarks(&mut self) -> Vec<WatermarkNote> {
            self.inner.watermarks()
        }
        fn commit_delivered(&mut self) {
            self.inner.commit_delivered()
        }
        fn take_retransmit_counts(&mut self) -> Vec<(Symbol, u64)> {
            self.inner.take_retransmit_counts()
        }
    }

    /// Time stands still, so the session layer never retransmits and the
    /// two runs see the same frames.
    struct Frozen;

    impl Clock for Frozen {
        fn now_micros(&self) -> u64 {
            0
        }
    }

    type Log = Vec<(&'static str, Message)>;

    /// Runs `delegation_fanout` over the in-memory network with each
    /// peer's transport built by `wrap`; returns what crossed the top of
    /// every stack and the watched relations at the end.
    fn fanout<T: Transport>(wrap: impl Fn(MemoryEndpoint) -> T) -> (Log, Vec<Vec<Tuple>>) {
        let sc = wepic::scenarios::delegation_fanout(7);
        let net = InMemoryNetwork::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut nodes: Vec<PeerNode<Tap<T>>> = (sc.build)()
            .into_iter()
            .map(|peer| {
                let inner = wrap(net.endpoint(peer.name()).unwrap());
                let log = Arc::clone(&log);
                PeerNode::new(peer, Tap { inner, log })
            })
            .collect();
        let settle = |nodes: &mut Vec<PeerNode<Tap<T>>>| {
            let mut quiet = 0;
            while quiet < 3 {
                let mut active = false;
                for node in nodes.iter_mut() {
                    let r = node.step().unwrap();
                    active |= r.changed || r.received > 0 || r.sent > 0;
                    active |= node.transport().pending_work() > 0;
                }
                quiet = if active { 0 } else { quiet + 1 };
            }
        };
        settle(&mut nodes);
        for batch in &sc.batches {
            for (peer, op) in batch {
                let node = nodes.iter_mut().find(|n| n.peer().name() == *peer).unwrap();
                match op {
                    SimOp::Insert { rel, tuple } => {
                        node.peer_mut().insert_local(*rel, tuple.clone()).unwrap()
                    }
                    SimOp::Delete { rel, tuple } => {
                        node.peer_mut().delete_local(*rel, tuple.clone()).unwrap()
                    }
                };
            }
            settle(&mut nodes);
        }
        let state = sc
            .watched
            .iter()
            .map(|&(peer, rel)| {
                let node = nodes.iter().find(|n| n.peer().name() == peer).unwrap();
                let mut rows = node.peer().relation_facts(rel);
                rows.sort();
                rows
            })
            .collect();
        // A stage emits a diff's facts in hash-set order, which differs
        // from one peer instance to the next; the order of messages does
        // not.
        let mut log = log.lock().unwrap().clone();
        for (_, msg) in &mut log {
            if let Payload::Facts {
                additions,
                retractions,
                ..
            } = &mut msg.payload
            {
                additions.sort_by(|a, b| a.tuple.cmp(&b.tuple));
                retractions.sort_by(|a, b| a.tuple.cmp(&b.tuple));
            }
        }
        (log, state)
    }

    fn session<T: Transport>(inner: T) -> SessionEndpoint<T> {
        SessionEndpoint::with_clock(inner, 0, SessionConfig::default(), Box::new(Frozen))
    }

    #[test]
    fn a_probed_stack_is_transparent() {
        let (plain_log, plain_state) = fanout(session);
        let (probed_log, probed_state) = fanout(|ep| {
            let lower = ProbeShared::new(None, true, None);
            let upper = ProbeShared::new(Some("attendeePictures"), true, Some(Arc::clone(&lower)));
            Probe::new(session(Probe::new(ep, lower)), upper)
        });
        assert!(plain_log.iter().any(|(dir, _)| *dir == "drain"));
        assert_eq!(plain_log.len(), probed_log.len());
        for (i, (plain, probed)) in plain_log.iter().zip(&probed_log).enumerate() {
            assert_eq!(plain, probed, "message {i} differs");
        }
        assert_eq!(plain_state, probed_state, "same final state");
        assert!(plain_state.iter().any(|rows| !rows.is_empty()));
    }

    /// A transport with a fixed inbox that swallows what it is sent.
    struct Canned(Vec<Message>);

    impl Transport for Canned {
        fn peer_name(&self) -> Symbol {
            Symbol::intern("watcher")
        }
        fn send(&mut self, _: Message) -> Result<(), NetError> {
            Ok(())
        }
        fn drain(&mut self) -> Vec<Message> {
            std::mem::take(&mut self.0)
        }
    }

    fn facts(rel: &str, added: &[i64], retracted: &[i64]) -> Message {
        let fact = |id: &i64| WFact::new(rel, "watcher", vec![Value::from(*id), Value::from("x")]);
        Message::new(
            Symbol::intern("att"),
            Symbol::intern("watcher"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: added.iter().map(fact).collect(),
                retractions: retracted.iter().map(fact).collect(),
            },
        )
    }

    #[test]
    fn visibility_reads_only_drained_messages() {
        let shared = ProbeShared::new(Some("pictures"), false, None);
        let inbox = vec![
            facts("pictures", &[1, 2], &[3]),
            facts("rate", &[9], &[]),
            Message::new(
                Symbol::intern("att"),
                Symbol::intern("watcher"),
                Payload::Session(vec![0, 1, 2]),
            ),
        ];
        let mut probe = Probe::new(Canned(inbox), Arc::clone(&shared));

        // What is sent is not seen, and nothing is seen before a drain.
        probe.send(facts("pictures", &[77], &[])).unwrap();
        let mut seen = Vec::new();
        shared.take_seen(&mut seen);
        assert!(seen.is_empty());

        assert_eq!(probe.drain().len(), 3, "every message passes through");
        shared.take_seen(&mut seen);
        assert_eq!(seen, vec![(1, true), (2, true), (3, false)]);

        // Taken once, and an empty drain adds nothing.
        seen.clear();
        assert!(probe.drain().is_empty());
        shared.take_seen(&mut seen);
        assert!(seen.is_empty());
    }

    #[test]
    fn timing_counts_frames_and_samples_every_16th() {
        let shared = ProbeShared::new(None, true, None);
        let mut probe = Probe::new(Canned(Vec::new()), Arc::clone(&shared));
        for tag in [0u8, 0, 1, 2].iter().cycle().take(32) {
            let frame = Message::new(
                Symbol::intern("watcher"),
                Symbol::intern("att"),
                Payload::Session(vec![*tag]),
            );
            probe.send(frame).unwrap();
        }
        let st = shared.state();
        assert_eq!((st.sent, st.frames_by_tag), (32, [16, 8, 8]));
        assert_eq!(st.samples.len(), 2);
    }
}
