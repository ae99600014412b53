//! The discrete-event scheduler that drives peers over a [`SimNet`].
//!
//! FoundationDB-style: a single event loop interleaves peer stages,
//! message deliveries, scripted mutations, and crash/restart — all ordered
//! by `(virtual time, sequence)` and all jitter drawn from the hub's one
//! seeded generator. A run is therefore a pure function of
//! `(scenario, plan, seed)`; rerunning with the seed printed by a failing
//! test replays the exact interleaving.
//!
//! Crash/restart round-trips the peer through a **real persistence path**
//! (pluggable via [`CrashPersistence`]; the default is
//! [`crate::snapshot::save`]/[`crate::snapshot::load`]): a crash
//! serializes the peer's durable state and discards the live object; a
//! restart deserializes it, so transient per-stage state (previous-diff
//! memories, in-flight derivations) dies exactly as it would across a
//! process restart. A durable-engine implementation can additionally
//! *lose* not-yet-committed mutations at the crash point — it reports
//! them back and the simulator re-injects them as client retries, which
//! keeps the convergence oracle's equality check applicable.

use super::fault::FaultPlan;
use super::hub::{EventKind, SimCounters, SimEndpoint, SimNet, SimOp, SimState};
use crate::node::{NodeError, PeerNode};
use crate::session::{Clock, SessionConfig, SessionEndpoint};
use crate::{snapshot, NetError, Transport, TransportEvent, WatermarkNote};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use wdl_core::{Message, Peer};
use wdl_datalog::{Symbol, Tuple};

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The seed. Same seed, same run.
    pub seed: u64,
    /// The network fault plan.
    pub plan: FaultPlan,
    /// Minimum virtual µs between a peer's steps.
    pub step_min: u64,
    /// Maximum virtual µs between a peer's steps (jittered per step).
    pub step_max: u64,
    /// If true, frames addressed to a crashed peer are destroyed; if false
    /// (default) the network buffers them until the restart, like a
    /// queueing/reconnecting transport.
    pub crash_drops_inflight: bool,
    /// If true, every endpoint is wrapped in a
    /// [`crate::session::SessionEndpoint`] driven by the virtual clock:
    /// retransmission, exactly-once delivery, and restart detection apply,
    /// so lossy plans and crashes of *any* peer become recoverable.
    pub sessions: bool,
}

impl SimConfig {
    /// Defaults: lossless plan, steps every 200–800 virtual µs.
    pub fn new(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            plan: FaultPlan::lossless(),
            step_min: 200,
            step_max: 800,
            crash_drops_inflight: false,
            sessions: false,
        }
    }

    /// Replaces the fault plan.
    pub fn plan(mut self, plan: FaultPlan) -> SimConfig {
        self.plan = plan;
        self
    }

    /// Destroys in-flight frames on crash instead of buffering them.
    pub fn crash_drops_inflight(mut self) -> SimConfig {
        self.crash_drops_inflight = true;
        self
    }

    /// Runs every peer behind the reliable session layer.
    pub fn sessions(mut self) -> SimConfig {
        self.sessions = true;
        self
    }
}

/// The simulator's virtual clock, handed to session endpoints so their
/// retransmission and liveness timers run on simulated time (and replay
/// with the seed).
struct SimClock {
    state: Arc<Mutex<SimState>>,
}

impl Clock for SimClock {
    fn now_micros(&self) -> u64 {
        self.state.lock().now
    }
}

/// A simulated peer's transport: the raw hub endpoint, or the same
/// endpoint behind the reliable session layer (see
/// [`SimConfig::sessions`]).
pub enum SimTransport {
    /// Unreliable datagram semantics — what the fault plan says, the peer
    /// gets.
    Raw(SimEndpoint),
    /// The session layer over the same wire: retransmission, dedup,
    /// restart detection.
    Session(Box<SessionEndpoint<SimEndpoint>>),
}

impl Transport for SimTransport {
    fn peer_name(&self) -> Symbol {
        match self {
            SimTransport::Raw(ep) => ep.peer_name(),
            SimTransport::Session(ep) => ep.peer_name(),
        }
    }

    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        match self {
            SimTransport::Raw(ep) => ep.send(msg),
            SimTransport::Session(ep) => ep.send(msg),
        }
    }

    fn drain(&mut self) -> Vec<Message> {
        match self {
            SimTransport::Raw(ep) => ep.drain(),
            SimTransport::Session(ep) => ep.drain(),
        }
    }

    fn poll_events(&mut self) -> Vec<TransportEvent> {
        match self {
            SimTransport::Raw(ep) => ep.poll_events(),
            SimTransport::Session(ep) => ep.poll_events(),
        }
    }

    fn pending_work(&self) -> usize {
        match self {
            SimTransport::Raw(ep) => ep.pending_work(),
            SimTransport::Session(ep) => ep.pending_work(),
        }
    }

    fn watermarks(&mut self) -> Vec<WatermarkNote> {
        match self {
            SimTransport::Raw(ep) => ep.watermarks(),
            SimTransport::Session(ep) => ep.watermarks(),
        }
    }

    fn commit_delivered(&mut self) {
        match self {
            SimTransport::Raw(ep) => ep.commit_delivered(),
            SimTransport::Session(ep) => ep.commit_delivered(),
        }
    }

    fn take_retransmit_counts(&mut self) -> Vec<(Symbol, u64)> {
        match self {
            SimTransport::Raw(ep) => ep.take_retransmit_counts(),
            SimTransport::Session(ep) => ep.take_retransmit_counts(),
        }
    }
}

/// Report of a [`SimRuntime::run_to_quiescence`] call.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// True iff the network fell silent within the event budget.
    pub quiescent: bool,
    /// Events processed.
    pub events: usize,
    /// Peer steps executed.
    pub steps: usize,
    /// Virtual clock at return, in µs.
    pub virtual_time: u64,
    /// Delivery counters at return.
    pub counters: SimCounters,
}

enum NodeSlot {
    Up(Box<PeerNode<SimTransport>>),
    /// Crash token (real persistence bytes or an engine handle) +
    /// mutations scripted while the peer was down (or lost at the crash
    /// point and retried), applied in order on restart.
    Down {
        snapshot: Bytes,
        pending_ops: Vec<SimOp>,
    },
}

/// How the simulator round-trips a peer through "disk" across a
/// crash/restart pair. Implementations must be deterministic functions of
/// their inputs (including `crash_seed`) — the simulator's replayability
/// contract extends through them.
pub trait CrashPersistence {
    /// Consumes the crashing peer and returns `(token, lost_ops)`: an
    /// opaque token that [`CrashPersistence::restart`] can rebuild the
    /// peer from, plus the durable-image mutations destroyed by the crash
    /// (e.g. a torn write-ahead-log tail). The simulator re-injects
    /// `lost_ops` at restart, modeling a client that retries writes never
    /// acknowledged as durable. Full-state snapshotting loses nothing.
    fn crash(&mut self, peer: Peer, crash_seed: u64) -> Result<(Bytes, Vec<SimOp>), NetError>;

    /// Rebuilds the peer from a token produced by
    /// [`CrashPersistence::crash`].
    fn restart(&mut self, name: Symbol, token: &Bytes) -> Result<Peer, NetError>;
}

/// The default [`CrashPersistence`]: whole-state binary snapshots through
/// [`crate::snapshot`]. Loses nothing at the crash point (the snapshot is
/// taken atomically at crash time), so `lost_ops` is always empty.
#[derive(Debug, Default)]
pub struct SnapshotPersistence;

impl CrashPersistence for SnapshotPersistence {
    fn crash(&mut self, peer: Peer, _crash_seed: u64) -> Result<(Bytes, Vec<SimOp>), NetError> {
        Ok((snapshot::save(&peer), Vec::new()))
    }

    fn restart(&mut self, _name: Symbol, token: &Bytes) -> Result<Peer, NetError> {
        snapshot::load(token)
    }
}

/// A deterministic distributed simulation of WebdamLog peers.
pub struct SimRuntime {
    net: SimNet,
    config: SimConfig,
    nodes: HashMap<Symbol, NodeSlot>,
    /// Consecutive quiet steps per peer (reset by any activity).
    quiet: HashMap<Symbol, u32>,
    order: Vec<Symbol>,
    /// The crash/restart round-trip path (snapshots by default).
    persistence: Box<dyn CrashPersistence>,
}

/// Quiet steps every live peer must string together before the runtime
/// declares quiescence (with no deliveries or control events pending).
const QUIET_STEPS: u32 = 2;

impl SimRuntime {
    /// New simulation with `config`.
    pub fn new(config: SimConfig) -> SimRuntime {
        let net = SimNet::with_plan(config.seed, config.plan.clone());
        net.state.lock().crash_drops_inflight = config.crash_drops_inflight;
        SimRuntime {
            net,
            config,
            nodes: HashMap::new(),
            quiet: HashMap::new(),
            order: Vec::new(),
            persistence: Box::new(SnapshotPersistence),
        }
    }

    /// Replaces the crash/restart persistence path (the default round-trips
    /// whole-state snapshots). Install before scheduling any crash.
    pub fn set_persistence(&mut self, persistence: Box<dyn CrashPersistence>) {
        self.persistence = persistence;
    }

    /// The underlying network (counters, virtual clock).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The session parameters used when [`SimConfig::sessions`] is on.
    /// Timers run on virtual time, so the defaults compose with the
    /// 200–800µs step cadence; the session RNG folds in the run seed.
    fn session_config(&self) -> SessionConfig {
        SessionConfig {
            seed: self.config.seed,
            ..SessionConfig::default()
        }
    }

    fn wrap_endpoint(&self, ep: SimEndpoint, incarnation: u64, peer: &Peer) -> SimTransport {
        if !self.config.sessions {
            return SimTransport::Raw(ep);
        }
        let clock = Box::new(SimClock {
            state: Arc::clone(&self.net.state),
        });
        let session = if incarnation == 0 && peer.session_watermarks().is_empty() {
            SessionEndpoint::with_clock(ep, incarnation, self.session_config(), clock)
        } else {
            SessionEndpoint::recover(
                ep,
                incarnation,
                self.session_config(),
                clock,
                peer.session_watermarks(),
            )
        };
        SimTransport::Session(Box::new(session))
    }

    /// Adds a peer and schedules its first step at a jittered offset.
    pub fn add_peer(&mut self, peer: Peer) -> Result<(), NetError> {
        let name = peer.name();
        let ep = self.net.endpoint(name)?;
        let transport = self.wrap_endpoint(ep, 0, &peer);
        let node = PeerNode::new(peer, transport);
        self.nodes.insert(name, NodeSlot::Up(Box::new(node)));
        self.order.push(name);
        self.quiet.insert(name, 0);
        let mut st = self.net.state.lock();
        let at = st.now + jitter(&mut st, self.config.step_min, self.config.step_max);
        st.schedule(
            at,
            EventKind::Step {
                peer: name,
                incarnation: 0,
            },
        );
        Ok(())
    }

    /// The live peer named `name` (`None` while crashed or unknown).
    pub fn peer(&self, name: impl Into<Symbol>) -> Option<&Peer> {
        match self.nodes.get(&name.into()) {
            Some(NodeSlot::Up(node)) => Some(node.peer()),
            _ => None,
        }
    }

    /// The live peer, mutably. Out-of-band mutation between runs is how
    /// tests stand in for user actions; prefer [`SimRuntime::schedule_op`]
    /// to interleave mutations *inside* a run deterministically.
    pub fn peer_mut(&mut self, name: impl Into<Symbol>) -> Option<&mut Peer> {
        match self.nodes.get_mut(&name.into()) {
            Some(NodeSlot::Up(node)) => Some(node.peer_mut()),
            _ => None,
        }
    }

    /// Peer names in insertion order.
    pub fn peer_names(&self) -> &[Symbol] {
        &self.order
    }

    /// Schedules a state mutation at virtual time `at`.
    pub fn schedule_op(&mut self, at: u64, peer: impl Into<Symbol>, op: SimOp) {
        let peer = peer.into();
        self.net
            .state
            .lock()
            .schedule(at, EventKind::Inject { peer, op });
    }

    /// Schedules a crash at `at`, and — if `restart_after` is given — a
    /// restart that many µs later.
    pub fn schedule_crash(&mut self, at: u64, peer: impl Into<Symbol>, restart_after: Option<u64>) {
        let peer = peer.into();
        let mut st = self.net.state.lock();
        st.schedule(at, EventKind::Crash { peer });
        if let Some(dt) = restart_after {
            st.schedule(at + dt.max(1), EventKind::Restart { peer });
        }
    }

    /// Runs the event loop until the system is quiescent (every live peer
    /// strung together `QUIET_STEPS` quiet steps with no deliveries or
    /// control events outstanding) or `max_events` is exhausted.
    ///
    /// The loop may be re-entered: schedule more ops/crashes, change the
    /// plan, or mutate peers out-of-band, and call again — peer step
    /// timers persist across calls, and every live peer must re-earn its
    /// quiet streak (so a re-entered run really re-examines the system
    /// instead of trusting the previous call's verdict).
    pub fn run_to_quiescence(&mut self, max_events: usize) -> Result<SimReport, NodeError> {
        for q in self.quiet.values_mut() {
            *q = 0;
        }
        let mut report = SimReport::default();
        loop {
            if self.is_quiescent() {
                report.quiescent = true;
                break;
            }
            if report.events >= max_events {
                break;
            }
            let Some(ev) = ({ self.net.state.lock().pop() }) else {
                // Queue empty but not quiescent: every peer is down with no
                // restart pending. Report non-quiescent rather than spin.
                break;
            };
            report.events += 1;
            match ev.kind {
                EventKind::Deliver { from, to, bytes } => {
                    let mut st = self.net.state.lock();
                    let was_up = st.peers.get(&to).map(|s| !s.down).unwrap_or(false);
                    st.deliver(to, from, bytes);
                    drop(st);
                    if was_up {
                        self.quiet.insert(to, 0);
                    }
                }
                EventKind::Step { peer, incarnation } => {
                    report.steps += self.step_peer(peer, incarnation)? as usize;
                }
                EventKind::Crash { peer } => self.crash(peer)?,
                EventKind::Restart { peer } => self.restart(peer)?,
                EventKind::Inject { peer, op } => self.inject(peer, op)?,
            }
        }
        let st = self.net.state.lock();
        report.virtual_time = st.now;
        report.counters = st.counters;
        Ok(report)
    }

    fn is_quiescent(&self) -> bool {
        let st = self.net.state.lock();
        if st.pending_delivers > 0 || st.pending_control > 0 {
            return false;
        }
        drop(st);
        self.nodes.iter().all(|(name, slot)| match slot {
            NodeSlot::Up(_) => self.quiet.get(name).copied().unwrap_or(0) >= QUIET_STEPS,
            // A peer that is down with no restart scheduled stays down;
            // it cannot generate traffic.
            NodeSlot::Down { .. } => true,
        })
    }

    /// Runs one step of `peer` if it is alive and the timer belongs to its
    /// current incarnation; returns whether a step ran.
    fn step_peer(&mut self, peer: Symbol, incarnation: u32) -> Result<bool, NodeError> {
        let alive = {
            let st = self.net.state.lock();
            st.peers
                .get(&peer)
                .map(|s| !s.down && s.incarnation == incarnation)
                .unwrap_or(false)
        };
        if !alive {
            return Ok(false); // stale timer of a crashed incarnation
        }
        let Some(NodeSlot::Up(node)) = self.nodes.get_mut(&peer) else {
            return Ok(false);
        };
        let r = node.step()?;
        let quiet = r.received == 0
            && r.sent == 0
            && r.deferred == 0
            && !r.changed
            && node.transport().pending_work() == 0;
        let q = self.quiet.entry(peer).or_insert(0);
        *q = if quiet { *q + 1 } else { 0 };
        let mut st = self.net.state.lock();
        let at = st.now + jitter(&mut st, self.config.step_min, self.config.step_max);
        st.schedule(at, EventKind::Step { peer, incarnation });
        Ok(true)
    }

    fn crash(&mut self, peer: Symbol) -> Result<(), NodeError> {
        match self.nodes.remove(&peer) {
            Some(NodeSlot::Up(node)) => self.crash_node(peer, *node),
            Some(down) => {
                self.nodes.insert(peer, down); // already down: no-op
                Ok(())
            }
            None => Ok(()),
        }
    }

    fn crash_node(&mut self, peer: Symbol, node: PeerNode<SimTransport>) -> Result<(), NodeError> {
        let (p, _endpoint) = node.into_parts();
        // Every crash draws a seed from the one simulation generator: a
        // durable-engine persistence path uses it to pick *where inside
        // the crash window* the process dies (mid-checkpoint, mid-append),
        // so those choices replay with the run's seed too.
        let crash_seed: u64 = { self.net.state.lock().rng.gen() };
        // The real persistence path: durable state only. Transient stage
        // state (diff memories, timers) dies here. Mutations the durable
        // image lost at the crash point come back as retries.
        let (snapshot, lost_ops) = self
            .persistence
            .crash(p, crash_seed)
            .map_err(NodeError::Net)?;
        self.nodes.insert(
            peer,
            NodeSlot::Down {
                snapshot,
                pending_ops: lost_ops,
            },
        );
        let mut st = self.net.state.lock();
        if let Some(ps) = st.peers.get_mut(&peer) {
            ps.down = true;
            ps.incarnation += 1;
            if self.config.crash_drops_inflight {
                let lost = ps.mailbox.len() as u64;
                ps.mailbox.clear();
                st.counters.dropped += lost;
            }
        }
        drop(st);
        self.quiet.insert(peer, 0);
        Ok(())
    }

    fn restart(&mut self, peer: Symbol) -> Result<(), NodeError> {
        let (token, ops) = match self.nodes.get_mut(&peer) {
            Some(NodeSlot::Down {
                snapshot,
                pending_ops,
            }) => (snapshot.clone(), std::mem::take(pending_ops)),
            _ => return Ok(()),
        };
        let mut p = self
            .persistence
            .restart(peer, &token)
            .map_err(NodeError::Net)?;
        for op in ops {
            apply_op(&mut p, op)?;
        }
        let incarnation = {
            let mut st = self.net.state.lock();
            match st.peers.get_mut(&peer) {
                Some(ps) => {
                    ps.down = false;
                    ps.incarnation
                }
                None => 0,
            }
        };
        // The new process image gets the bumped incarnation; with
        // sessions on, durable watermarks seed its dedup floor.
        let ep = SimEndpoint::reattach(peer, &self.net.state);
        let transport = self.wrap_endpoint(ep, u64::from(incarnation), &p);
        self.nodes
            .insert(peer, NodeSlot::Up(Box::new(PeerNode::new(p, transport))));
        self.quiet.insert(peer, 0);
        let mut st = self.net.state.lock();
        let at = st.now + jitter(&mut st, self.config.step_min, self.config.step_max);
        st.schedule(at, EventKind::Step { peer, incarnation });
        Ok(())
    }

    fn inject(&mut self, peer: Symbol, op: SimOp) -> Result<(), NodeError> {
        match self.nodes.get_mut(&peer) {
            Some(NodeSlot::Up(node)) => {
                apply_op(node.peer_mut(), op)?;
                self.quiet.insert(peer, 0);
                Ok(())
            }
            Some(NodeSlot::Down { pending_ops, .. }) => {
                // Scripted user action while the peer is down: the user
                // retries after the restart.
                pending_ops.push(op);
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Tuples of `rel` at `peer`, or `None` while the peer is down.
    pub fn relation_facts(
        &self,
        peer: impl Into<Symbol>,
        rel: impl Into<Symbol>,
    ) -> Option<Vec<Tuple>> {
        self.peer(peer).map(|p| p.relation_facts(rel))
    }
}

fn jitter(st: &mut SimState, min: u64, max: u64) -> u64 {
    if min >= max {
        min.max(1)
    } else {
        st.rng.gen_range(min..=max).max(1)
    }
}

fn apply_op(p: &mut Peer, op: SimOp) -> Result<(), NodeError> {
    let r = match op {
        SimOp::Insert { rel, tuple } => p.insert_local(rel, tuple),
        SimOp::Delete { rel, tuple } => p.delete_local(rel, tuple),
    };
    r.map(|_| ()).map_err(NodeError::Engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::acl::UntrustedPolicy;
    use wdl_core::{RelationKind, WRule};
    use wdl_datalog::Value;

    fn open_peer(name: &str) -> Peer {
        let mut p = Peer::new(name);
        p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
        p
    }

    fn delegation_pair(tag: &str) -> (Peer, Peer) {
        let viewer_name = format!("simv{tag}");
        let source_name = format!("sims{tag}");
        let mut viewer = open_peer(&viewer_name);
        viewer
            .declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        viewer
            .add_rule(WRule::example_attendee_pictures(viewer_name.as_str()))
            .unwrap();
        viewer
            .insert_local("selectedAttendee", vec![Value::from(source_name.as_str())])
            .unwrap();
        let mut source = open_peer(&source_name);
        source
            .insert_local(
                "pictures",
                vec![
                    Value::from(1),
                    Value::from("sea.jpg"),
                    Value::from(source_name.as_str()),
                    Value::bytes(&[7]),
                ],
            )
            .unwrap();
        (viewer, source)
    }

    #[test]
    fn delegation_converges_under_lossless_sim() {
        let (viewer, source) = delegation_pair("l");
        let vname = viewer.name();
        let mut sim = SimRuntime::new(SimConfig::new(11));
        sim.add_peer(viewer).unwrap();
        sim.add_peer(source).unwrap();
        let r = sim.run_to_quiescence(10_000).unwrap();
        assert!(r.quiescent, "no quiescence: {r:?}");
        assert_eq!(
            sim.relation_facts(vname, "attendeePictures").unwrap().len(),
            1
        );
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let run = |tag: &str, seed: u64| {
            let (viewer, source) = delegation_pair(tag);
            let mut sim = SimRuntime::new(
                SimConfig::new(seed).plan(FaultPlan::lossless().delay(20, 2_000).duplicate(0.2)),
            );
            sim.add_peer(viewer).unwrap();
            sim.add_peer(source).unwrap();
            let r = sim.run_to_quiescence(10_000).unwrap();
            (r.events, r.steps, r.virtual_time, r.counters)
        };
        // Distinct peer names intern fresh symbols, but the schedule is a
        // function of the seed alone.
        assert_eq!(
            run("same", 77),
            run("same2", 77),
            "same seed, same trajectory"
        );
        assert_ne!(run("diff", 77), run("diff2", 78), "seed changes the run");
    }

    #[test]
    fn crash_restart_round_trips_snapshot_and_converges() {
        let (viewer, source) = delegation_pair("c");
        let vname = viewer.name();
        let sname = source.name();
        let mut sim = SimRuntime::new(SimConfig::new(5).plan(FaultPlan::lossless().delay(50, 400)));
        sim.add_peer(viewer).unwrap();
        sim.add_peer(source).unwrap();
        // Crash the source early, restart 5ms later; the delegation must
        // still complete because the snapshot path restores its pictures
        // and the restarted peer re-sends its diffs from scratch.
        sim.schedule_crash(600, sname, Some(5_000));
        let r = sim.run_to_quiescence(20_000).unwrap();
        assert!(r.quiescent, "no quiescence: {r:?}");
        assert_eq!(
            sim.relation_facts(vname, "attendeePictures").unwrap().len(),
            1
        );
        assert!(sim.peer(sname).is_some(), "source is back up");
    }

    #[test]
    fn ops_scheduled_during_downtime_apply_after_restart() {
        let mut solo = open_peer("simdowninj");
        solo.declare("r", 1, RelationKind::Extensional).unwrap();
        let mut sim = SimRuntime::new(SimConfig::new(8));
        sim.add_peer(solo).unwrap();
        sim.schedule_crash(500, "simdowninj", Some(4_000));
        sim.schedule_op(
            1_000, // while down
            "simdowninj",
            SimOp::Insert {
                rel: Symbol::intern("r"),
                tuple: vec![Value::from(42)],
            },
        );
        let r = sim.run_to_quiescence(10_000).unwrap();
        assert!(r.quiescent);
        assert_eq!(sim.relation_facts("simdowninj", "r").unwrap().len(), 1);
    }

    #[test]
    fn sessions_recover_probabilistic_drops() {
        let (viewer, source) = delegation_pair("sesdrop");
        let vname = viewer.name();
        let mut sim = SimRuntime::new(
            SimConfig::new(21)
                .plan(FaultPlan::lossless().drop(0.3).delay(20, 1_500))
                .sessions(),
        );
        sim.add_peer(viewer).unwrap();
        sim.add_peer(source).unwrap();
        let r = sim.run_to_quiescence(100_000).unwrap();
        assert!(r.quiescent, "no quiescence: {r:?}");
        assert_eq!(
            sim.relation_facts(vname, "attendeePictures").unwrap().len(),
            1,
            "retransmission recovered every dropped frame"
        );
    }

    /// Crash the *viewer* — the peer holding received derived state, which
    /// raw transports can never refill (the sender's diff memory says
    /// "already sent"). The session layer detects the new incarnation and
    /// triggers a full derived resync.
    #[test]
    fn sessions_survive_receiver_crash() {
        let (viewer, source) = delegation_pair("sesvc");
        let vname = viewer.name();
        let mut sim = SimRuntime::new(
            SimConfig::new(13)
                .plan(FaultPlan::lossless().delay(50, 400))
                .sessions(),
        );
        sim.add_peer(viewer).unwrap();
        sim.add_peer(source).unwrap();
        sim.schedule_crash(2_000, vname, Some(5_000));
        let r = sim.run_to_quiescence(100_000).unwrap();
        assert!(r.quiescent, "no quiescence: {r:?}");
        assert_eq!(
            sim.relation_facts(vname, "attendeePictures").unwrap().len(),
            1,
            "restarted receiver was resynced"
        );
    }

    #[test]
    fn crashed_forever_peer_does_not_block_quiescence() {
        let (viewer, source) = delegation_pair("dead");
        let sname = source.name();
        let mut sim = SimRuntime::new(SimConfig::new(2));
        sim.add_peer(viewer).unwrap();
        sim.add_peer(source).unwrap();
        sim.schedule_crash(100, sname, None);
        let r = sim.run_to_quiescence(10_000).unwrap();
        assert!(r.quiescent, "down-forever peer must not spin: {r:?}");
        assert!(sim.peer(sname).is_none(), "source stays down");
    }
}
