//! In-process runtime: owns a set of peers and routes their messages.
//!
//! This is the deterministic substrate used by tests, examples and benches —
//! the equivalent of running every demo laptop and the Webdam cloud inside
//! one process. Stage semantics are identical over the TCP transport in
//! `wdl-net`; only delivery changes.

use crate::{Message, Peer, Result, StageStats};
use std::collections::HashMap;
use wdl_datalog::Symbol;

/// Compile-time proof that [`crate::shard::ShardedRuntime`] is sound to
/// build: peers (with their databases, maintained views and inboxes) move
/// onto shard worker threads, and messages and stage errors travel back
/// to the coordinator over channels.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn send<T: Send>() {}
    send::<Peer>();
    send::<Message>();
    send::<crate::WdlError>();
}

/// Result of one synchronous round of stages across all peers.
#[derive(Clone, Debug, Default)]
pub struct TickReport {
    /// Messages routed at the end of the round.
    pub messages: usize,
    /// Messages whose target peer does not exist in this runtime.
    pub undeliverable: usize,
    /// Whether any peer observed or produced a change.
    pub changed: bool,
    /// Per-peer stage stats for this round.
    pub stats: HashMap<Symbol, StageStats>,
}

/// Result of running to quiescence.
#[derive(Clone, Debug, Default)]
pub struct QuiescenceReport {
    /// True iff a fully quiet round was reached within the budget.
    pub quiescent: bool,
    /// Rounds executed (including the final quiet one).
    pub rounds: usize,
    /// Total messages routed.
    pub messages: usize,
    /// Total undeliverable messages dropped.
    pub undeliverable: usize,
}

/// A deterministic, single-process network of WebdamLog peers.
///
/// Peers execute stages round-robin in insertion order; messages produced in
/// round *t* are ingested at round *t+1*. This models the demo's Figure 2
/// topology with reproducible interleavings.
#[derive(Default)]
pub struct LocalRuntime {
    peers: Vec<Peer>,
    /// Name → position in `peers`, kept in sync with every add/remove so
    /// lookup (and hence per-message delivery) is O(1) instead of a linear
    /// scan. `peers` itself stays in insertion order for tick determinism.
    index: HashMap<Symbol, usize>,
    /// Whether peers currently carry trace sinks ([`LocalRuntime::set_tracing`]).
    tracing: bool,
    /// Online trace aggregation; kept after `set_tracing(false)` so results
    /// stay queryable once profiling stops.
    agg: Option<wdl_obs::Aggregator>,
    /// Reused per-round event staging buffer for [`LocalRuntime::drain_traces`].
    trace_scratch: Vec<crate::TraceEvent>,
}

impl LocalRuntime {
    /// Empty runtime.
    pub fn new() -> LocalRuntime {
        LocalRuntime::default()
    }

    /// Turns structured tracing on or off.
    ///
    /// Turning it **on** installs a buffering [`crate::TraceSink`] on every
    /// peer (current and future); each tick drains every peer's buffer
    /// into the [`wdl_obs::Aggregator`] in peer insertion order
    /// (deterministic) and closes the aggregator's round. Re-enabling
    /// **resumes** an existing aggregator — toggling is cheap and
    /// lossless; call [`LocalRuntime::reset_trace`] for a fresh one.
    /// Turning it **off** removes the sinks — the hot path goes back to
    /// the untraced peer loop — but keeps the aggregator, so
    /// `top`/`critpath`/export keep working on what was collected.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if on {
            if self.agg.is_none() {
                self.agg = Some(wdl_obs::Aggregator::new());
            }
            for peer in &mut self.peers {
                if !peer.tracing() {
                    peer.set_trace_sink(Box::new(wdl_obs::BufferSink::new()));
                }
            }
        } else {
            for peer in &mut self.peers {
                peer.clear_trace_sink();
            }
        }
    }

    /// Discards all collected trace data. The next [`LocalRuntime::set_tracing`]
    /// (or the current session, if tracing is on) starts from an empty
    /// aggregator.
    pub fn reset_trace(&mut self) {
        self.agg = self.tracing.then(wdl_obs::Aggregator::new);
    }

    /// True iff tracing is currently enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The trace aggregator, if profiling ever ran ([`LocalRuntime::set_tracing`]).
    pub fn trace(&self) -> Option<&wdl_obs::Aggregator> {
        self.agg.as_ref()
    }

    /// Mutable access to the trace aggregator (e.g. for JSONL export).
    pub fn trace_mut(&mut self) -> Option<&mut wdl_obs::Aggregator> {
        self.agg.as_mut()
    }

    /// Drains every traced peer's event buffer into the aggregator (peer
    /// insertion order) and closes the round. No-op unless tracing is on.
    fn drain_traces(&mut self) {
        if !self.tracing {
            return;
        }
        let Some(agg) = self.agg.as_mut() else { return };
        self.trace_scratch.clear();
        for peer in &mut self.peers {
            peer.drain_trace_into(&mut self.trace_scratch);
        }
        if !self.trace_scratch.is_empty() {
            agg.ingest(&self.trace_scratch);
        }
        agg.end_round();
    }

    /// Adds a peer. Peers added mid-run participate from the next round —
    /// this is how the demo's "audience members launch their own peers"
    /// scenario is modelled (E8). Returns [`crate::WdlError::DuplicatePeer`]
    /// if the name is already taken (recoverable — e.g. a late joiner
    /// picking a clashing name must not bring the whole runtime down).
    pub fn add_peer(&mut self, peer: Peer) -> Result<Symbol> {
        let name = peer.name();
        if self.index.contains_key(&name) {
            return Err(crate::WdlError::DuplicatePeer(name.to_string()));
        }
        self.index.insert(name, self.peers.len());
        self.peers.push(peer);
        if self.tracing {
            // Late joiners inherit the runtime's tracing state, so a
            // profiled run covers peers added mid-run (E8).
            self.peers
                .last_mut()
                .expect("just pushed")
                .set_trace_sink(Box::new(wdl_obs::BufferSink::new()));
        }
        Ok(name)
    }

    /// Removes a peer, returning it (its inbox is preserved). The removal
    /// shifts later peers down one slot (preserving their relative
    /// insertion order, which tick determinism depends on) and remaps
    /// their index entries.
    pub fn remove_peer(&mut self, name: impl Into<Symbol>) -> Option<Peer> {
        let name = name.into();
        let idx = self.index.remove(&name)?;
        let peer = self.peers.remove(idx);
        for slot in self.index.values_mut() {
            if *slot > idx {
                *slot -= 1;
            }
        }
        Some(peer)
    }

    /// Looks up a peer.
    pub fn peer(&self, name: impl Into<Symbol>) -> Option<&Peer> {
        let idx = *self.index.get(&name.into())?;
        Some(&self.peers[idx])
    }

    /// Looks up a peer mutably.
    pub fn peer_mut(&mut self, name: impl Into<Symbol>) -> Option<&mut Peer> {
        let idx = *self.index.get(&name.into())?;
        Some(&mut self.peers[idx])
    }

    /// Names of all peers, in insertion order.
    pub fn peer_names(&self) -> Vec<Symbol> {
        self.peers.iter().map(Peer::name).collect()
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True iff no peers.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Injects a message from outside the runtime (e.g. from a wrapper or a
    /// remote transport bridge).
    pub fn deliver(&mut self, msg: Message) -> bool {
        match self.peer_mut(msg.to) {
            Some(p) => {
                p.enqueue(msg);
                true
            }
            None => false,
        }
    }

    /// Runs one stage on every peer, then routes the produced messages.
    pub fn tick(&mut self) -> Result<TickReport> {
        let mut report = TickReport::default();
        let mut outgoing: Vec<Message> = Vec::new();
        for peer in &mut self.peers {
            let out = peer.run_stage()?;
            report.changed |= out.changed;
            report.stats.insert(peer.name(), out.stats);
            outgoing.extend(out.messages);
        }
        for msg in outgoing {
            if self.deliver(msg) {
                report.messages += 1;
            } else {
                report.undeliverable += 1;
            }
        }
        self.drain_traces();
        Ok(report)
    }

    /// Runs one stage on a *single* peer, then routes the messages it
    /// produced — the event-at-a-time hook the simulation layer and
    /// schedule-exploration tests build on. Interleaving `step_peer` calls
    /// in any fair order (every peer keeps getting stepped until quiet)
    /// reaches the same quiescent state as the round-robin
    /// [`LocalRuntime::tick`] loop; `tests/sim_conformance.rs` sweeps
    /// random schedules to pin that down.
    pub fn step_peer(&mut self, name: impl Into<Symbol>) -> Result<TickReport> {
        let name = name.into();
        let Some(peer) = self.peer_mut(name) else {
            return Err(crate::WdlError::UnknownPeer(name.to_string()));
        };
        let out = peer.run_stage()?;
        let mut report = TickReport {
            changed: out.changed,
            ..TickReport::default()
        };
        report.stats.insert(name, out.stats);
        for msg in out.messages {
            if self.deliver(msg) {
                report.messages += 1;
            } else {
                report.undeliverable += 1;
            }
        }
        self.drain_traces();
        Ok(report)
    }

    /// Ticks until a round where nothing changed and nothing was sent, or
    /// until `max_rounds` is exhausted.
    pub fn run_to_quiescence(&mut self, max_rounds: usize) -> Result<QuiescenceReport> {
        let mut report = QuiescenceReport::default();
        for _ in 0..max_rounds {
            let tick = self.tick()?;
            report.rounds += 1;
            report.messages += tick.messages;
            report.undeliverable += tick.undeliverable;
            if !tick.changed && tick.messages == 0 {
                report.quiescent = true;
                return Ok(report);
            }
        }
        Ok(report)
    }
}

impl std::fmt::Debug for LocalRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalRuntime")
            .field("peers", &self.peer_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::UntrustedPolicy;
    use crate::{RelationKind, WAtom, WRule};
    use wdl_datalog::{Term, Value};

    fn open_peer(name: &str) -> Peer {
        let mut p = Peer::new(name);
        p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
        p
    }

    #[test]
    fn empty_runtime_quiesces_immediately() {
        let mut rt = LocalRuntime::new();
        let r = rt.run_to_quiescence(5).unwrap();
        assert!(r.quiescent);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn duplicate_peer_is_recoverable() {
        let mut rt = LocalRuntime::new();
        rt.add_peer(Peer::new("dup")).unwrap();
        match rt.add_peer(Peer::new("dup")) {
            Err(crate::WdlError::DuplicatePeer(name)) => assert_eq!(name, "dup"),
            other => panic!("expected DuplicatePeer, got {other:?}"),
        }
        // The runtime stays usable after the rejected add.
        assert_eq!(rt.len(), 1);
        rt.add_peer(Peer::new("dup2")).unwrap();
        assert!(rt.run_to_quiescence(4).unwrap().quiescent);
    }

    /// `remove_peer` keeps the name→index map consistent: later peers shift
    /// down but stay addressable, and re-adding the removed name works.
    #[test]
    fn remove_peer_remaps_index() {
        let mut rt = LocalRuntime::new();
        rt.add_peer(Peer::new("ra")).unwrap();
        rt.add_peer(Peer::new("rb")).unwrap();
        rt.add_peer(Peer::new("rc")).unwrap();
        assert!(rt.remove_peer("ra").is_some());
        assert_eq!(rt.peer_names(), vec!["rb".into(), "rc".into()]);
        assert!(rt.peer("rb").is_some());
        assert!(rt.peer_mut("rc").is_some());
        assert!(rt.remove_peer("ra").is_none());
        rt.add_peer(Peer::new("ra")).unwrap();
        assert_eq!(rt.len(), 3);
        assert_eq!(rt.peer("ra").unwrap().name(), Symbol::intern("ra"));
    }

    #[test]
    fn undeliverable_messages_counted() {
        let mut rt = LocalRuntime::new();
        let mut p = open_peer("solo");
        p.insert_remote("ghost", "r", vec![Value::from(1)]);
        rt.add_peer(p).unwrap();
        let tick = rt.tick().unwrap();
        assert_eq!(tick.undeliverable, 1);
        assert_eq!(tick.messages, 0);
    }

    /// The full paper delegation round trip: Jules' selection pulls
    /// Emilien's pictures through a delegated rule, and deselection
    /// retracts them.
    #[test]
    fn delegation_round_trip_with_retraction() {
        let mut rt = LocalRuntime::new();
        rt.add_peer(open_peer("jules")).unwrap();
        rt.add_peer(open_peer("emilien")).unwrap();

        let jules = rt.peer_mut("jules").unwrap();
        jules
            .declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        jules
            .add_rule(WRule::example_attendee_pictures("jules"))
            .unwrap();
        jules
            .insert_local("selectedAttendee", vec![Value::from("emilien")])
            .unwrap();

        let emilien = rt.peer_mut("emilien").unwrap();
        emilien
            .insert_local(
                "pictures",
                vec![
                    Value::from(1),
                    Value::from("sea.jpg"),
                    Value::from("emilien"),
                    Value::bytes(&[1, 2, 3]),
                ],
            )
            .unwrap();

        let r = rt.run_to_quiescence(16).unwrap();
        assert!(r.quiescent, "did not quiesce: {r:?}");
        assert_eq!(
            rt.peer("jules")
                .unwrap()
                .relation_facts("attendeePictures")
                .len(),
            1
        );

        // Deselect: delegation revoked, facts retracted, view empties.
        rt.peer_mut("jules")
            .unwrap()
            .delete_local("selectedAttendee", vec![Value::from("emilien")])
            .unwrap();
        let r = rt.run_to_quiescence(16).unwrap();
        assert!(r.quiescent);
        assert!(rt
            .peer("jules")
            .unwrap()
            .relation_facts("attendeePictures")
            .is_empty());
        assert!(rt
            .peer("emilien")
            .unwrap()
            .installed_delegations()
            .is_empty());
    }

    /// New pictures at the delegatee flow to the delegator without any new
    /// delegation traffic (the installed rule keeps running).
    #[test]
    fn installed_delegation_tracks_new_facts() {
        let mut rt = LocalRuntime::new();
        rt.add_peer(open_peer("jules")).unwrap();
        rt.add_peer(open_peer("emilien")).unwrap();
        let jules = rt.peer_mut("jules").unwrap();
        jules
            .declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        jules
            .add_rule(WRule::example_attendee_pictures("jules"))
            .unwrap();
        jules
            .insert_local("selectedAttendee", vec![Value::from("emilien")])
            .unwrap();
        rt.run_to_quiescence(16).unwrap();
        assert!(rt
            .peer("jules")
            .unwrap()
            .relation_facts("attendeePictures")
            .is_empty());

        rt.peer_mut("emilien")
            .unwrap()
            .insert_local(
                "pictures",
                vec![
                    Value::from(9),
                    Value::from("new.jpg"),
                    Value::from("emilien"),
                    Value::bytes(&[9]),
                ],
            )
            .unwrap();
        rt.run_to_quiescence(16).unwrap();
        assert_eq!(
            rt.peer("jules")
                .unwrap()
                .relation_facts("attendeePictures")
                .len(),
            1
        );
    }

    /// Stepping peers one at a time through the `step_peer` hook reaches
    /// the same outcome as the lockstep `tick` loop, and routes messages
    /// the same way.
    #[test]
    fn step_peer_matches_tick_outcome() {
        let build = || {
            let mut rt = LocalRuntime::new();
            rt.add_peer(open_peer("sp-jules")).unwrap();
            rt.add_peer(open_peer("sp-emilien")).unwrap();
            let jules = rt.peer_mut("sp-jules").unwrap();
            jules
                .declare("attendeePictures", 4, RelationKind::Intensional)
                .unwrap();
            jules
                .add_rule(WRule::example_attendee_pictures("sp-jules"))
                .unwrap();
            jules
                .insert_local("selectedAttendee", vec![Value::from("sp-emilien")])
                .unwrap();
            rt.peer_mut("sp-emilien")
                .unwrap()
                .insert_local(
                    "pictures",
                    vec![
                        Value::from(1),
                        Value::from("sea.jpg"),
                        Value::from("sp-emilien"),
                        Value::bytes(&[1]),
                    ],
                )
                .unwrap();
            rt
        };

        let mut lockstep = build();
        lockstep.run_to_quiescence(16).unwrap();

        // An unfair but eventually-fair schedule: jules twice per round.
        let mut stepped = build();
        for _ in 0..24 {
            stepped.step_peer("sp-jules").unwrap();
            stepped.step_peer("sp-jules").unwrap();
            stepped.step_peer("sp-emilien").unwrap();
        }
        assert_eq!(
            stepped
                .peer("sp-jules")
                .unwrap()
                .relation_facts("attendeePictures"),
            lockstep
                .peer("sp-jules")
                .unwrap()
                .relation_facts("attendeePictures"),
        );
        assert_eq!(
            stepped
                .peer("sp-jules")
                .unwrap()
                .relation_facts("attendeePictures")
                .len(),
            1
        );
    }

    #[test]
    fn step_peer_unknown_peer_errors() {
        let mut rt = LocalRuntime::new();
        assert!(matches!(
            rt.step_peer("nobody"),
            Err(crate::WdlError::UnknownPeer(_))
        ));
    }

    /// Multi-hop: a remote fact lands in an extensional relation at a third
    /// peer (explicit update path).
    #[test]
    fn explicit_remote_update_propagates() {
        let mut rt = LocalRuntime::new();
        rt.add_peer(open_peer("a")).unwrap();
        rt.add_peer(open_peer("b")).unwrap();
        rt.peer_mut("a")
            .unwrap()
            .insert_remote("b", "mail", vec![Value::from("hi")]);
        rt.run_to_quiescence(8).unwrap();
        assert_eq!(rt.peer("b").unwrap().relation_facts("mail").len(), 1);
    }

    /// Peers can join mid-run and the system reconverges (demo scenario:
    /// audience members launch their own Wepic peers).
    #[test]
    fn late_joining_peer_reconverges() {
        let mut rt = LocalRuntime::new();
        rt.add_peer(open_peer("jules")).unwrap();
        let jules = rt.peer_mut("jules").unwrap();
        jules
            .declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        jules
            .add_rule(WRule::example_attendee_pictures("jules"))
            .unwrap();
        jules
            .insert_local("selectedAttendee", vec![Value::from("newpeer")])
            .unwrap();
        // Delegation target does not exist yet.
        let r = rt.run_to_quiescence(8).unwrap();
        assert!(r.undeliverable > 0);

        // The peer joins; Jules' rule must re-delegate. Force re-derivation
        // by touching the selection (the engine diffs delegations, so an
        // identical set emits nothing).
        let mut newpeer = open_peer("newpeer");
        newpeer
            .insert_local(
                "pictures",
                vec![
                    Value::from(1),
                    Value::from("p.jpg"),
                    Value::from("newpeer"),
                    Value::bytes(&[1]),
                ],
            )
            .unwrap();
        rt.add_peer(newpeer).unwrap();
        let jules = rt.peer_mut("jules").unwrap();
        jules
            .delete_local("selectedAttendee", vec![Value::from("newpeer")])
            .unwrap();
        rt.run_to_quiescence(8).unwrap();
        let jules = rt.peer_mut("jules").unwrap();
        jules
            .insert_local("selectedAttendee", vec![Value::from("newpeer")])
            .unwrap();
        let r = rt.run_to_quiescence(16).unwrap();
        assert!(r.quiescent);
        assert_eq!(
            rt.peer("jules")
                .unwrap()
                .relation_facts("attendeePictures")
                .len(),
            1
        );
    }

    /// The cascading delegation of the paper's transfer rule:
    /// jules -> emilien (bind protocol) -> back to jules (selectedPictures)
    /// -> fact lands at emilien under the protocol relation.
    #[test]
    fn cascading_delegation_protocol_dispatch() {
        let mut rt = LocalRuntime::new();
        rt.add_peer(open_peer("jules")).unwrap();
        rt.add_peer(open_peer("emilien")).unwrap();

        // $protocol@$attendee($name) :- selectedAttendee@jules($attendee),
        //     communicate@$attendee($protocol), selectedPictures@jules($name)
        let rule = WRule::new(
            WAtom::new(
                crate::NameTerm::var("protocol"),
                crate::NameTerm::var("attendee"),
                vec![Term::var("name")],
            ),
            vec![
                WAtom::at("selectedAttendee", "jules", vec![Term::var("attendee")]).into(),
                WAtom::new(
                    crate::NameTerm::name("communicate"),
                    crate::NameTerm::var("attendee"),
                    vec![Term::var("protocol")],
                )
                .into(),
                WAtom::at("selectedPictures", "jules", vec![Term::var("name")]).into(),
            ],
        );
        let jules = rt.peer_mut("jules").unwrap();
        jules.add_rule(rule).unwrap();
        jules
            .insert_local("selectedAttendee", vec![Value::from("emilien")])
            .unwrap();
        jules
            .insert_local("selectedPictures", vec![Value::from("sea.jpg")])
            .unwrap();

        let emilien = rt.peer_mut("emilien").unwrap();
        emilien
            .insert_local("communicate", vec![Value::from("wepicInbox")])
            .unwrap();
        emilien
            .declare("wepicInbox", 1, RelationKind::Intensional)
            .unwrap();

        let r = rt.run_to_quiescence(24).unwrap();
        assert!(r.quiescent);
        let inbox = rt.peer("emilien").unwrap().relation_facts("wepicInbox");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0][0], Value::from("sea.jpg"));
        // Jules now runs a delegated rule installed by emilien (the bounce).
        assert_eq!(rt.peer("jules").unwrap().installed_delegations().len(), 1);
    }
}
