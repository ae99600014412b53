//! In-process runtime: owns a set of peers and routes their messages.
//!
//! This is the deterministic substrate used by tests, examples and benches —
//! the equivalent of running every demo laptop and the Webdam cloud inside
//! one process. Stage semantics are identical over the TCP transport in
//! `wdl-net`; only delivery changes.
//!
//! Both in-process runtimes — [`LocalRuntime`] here and
//! [`crate::shard::ShardedRuntime`] — drive their peers through one
//! cohort: peers keyed by global insertion sequence, whose stages run in
//! that order and whose messages come back tagged with the sender's
//! sequence. A round of either runtime ends the same way: it routes the
//! messages of every peer whose stage succeeded in sender insertion order,
//! and only then reports the error of the earliest failing peer, which
//! stays scheduled for the next round. Both return one [`RoundReport`].

use crate::{Message, Peer, Result, StageStats, TraceEvent, WdlError};
use std::collections::{BTreeMap, HashMap};
use wdl_datalog::Symbol;

/// Result of one round of [`LocalRuntime`] or
/// [`crate::shard::ShardedRuntime`].
///
/// Besides what the round routed, it carries the scheduling counters that
/// make scale-out behaviour observable: how many peers actually ran versus
/// how many exist, and how many messages admission control held back.
#[derive(Clone, Debug, Default)]
pub struct RoundReport {
    /// The 1-based round this report describes.
    pub round: u64,
    /// Messages routed at the end of the round (delivered next round).
    pub messages: usize,
    /// Messages whose target peer does not exist in this runtime.
    pub undeliverable: usize,
    /// Whether any peer that ran observed or produced a change.
    pub changed: bool,
    /// Peers whose stage ran this round. [`LocalRuntime::tick`] runs every
    /// peer; the sharded runtime skips peers with no input and no
    /// mutation since their last stage.
    pub peers_run: usize,
    /// Total peers registered in the runtime this round.
    pub peers_total: usize,
    /// Messages withheld by per-peer inbox admission control
    /// ([`crate::shard::ShardedRuntime::set_inbox_budget`]); they stay
    /// queued and are delivered in arrival order over subsequent rounds.
    pub deferred: usize,
    /// Per-peer stage stats for the peers that ran (the sharded runtime
    /// collects them only while
    /// [`crate::shard::ShardedRuntime::set_collect_stats`] is on).
    pub stats: HashMap<Symbol, StageStats>,
}

impl RoundReport {
    /// Fraction of registered peers that executed a stage this round —
    /// the headline scale metric: a bursty workload over a large network
    /// should keep this near `active / total`, not near 1.
    pub fn active_fraction(&self) -> f64 {
        if self.peers_total == 0 {
            0.0
        } else {
            self.peers_run as f64 / self.peers_total as f64
        }
    }
}

impl std::fmt::Display for RoundReport {
    /// One status line per round, the shape a REPL or log tail wants:
    ///
    /// ```text
    /// round 3: ran 500/100000 peers (0.5% active), routed 1000, deferred 250, undeliverable 0, changed
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "round {}: ran {}/{} peers ({:.1}% active), routed {}, deferred {}, undeliverable {}, {}",
            self.round,
            self.peers_run,
            self.peers_total,
            self.active_fraction() * 100.0,
            self.messages,
            self.deferred,
            self.undeliverable,
            if self.changed { "changed" } else { "quiet" },
        )
    }
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

/// Runs `tick` until a fully quiet round — nothing changed, nothing sent,
/// nothing deferred — or until `max_rounds` is exhausted.
pub(crate) fn quiesce(
    max_rounds: usize,
    mut tick: impl FnMut() -> Result<RoundReport>,
) -> Result<QuiescenceReport> {
    let mut report = QuiescenceReport::default();
    for _ in 0..max_rounds {
        let round = tick()?;
        report.rounds += 1;
        report.messages += round.messages;
        report.undeliverable += round.undeliverable;
        if !round.changed && round.messages == 0 && round.deferred == 0 {
            report.quiescent = true;
            return Ok(report);
        }
    }
    Ok(report)
}

/// A set of peers keyed by global insertion sequence: the state both
/// in-process runtimes hold, [`LocalRuntime`] for all its peers and each
/// shard worker thread for the peers it owns (so peers, messages and
/// stage errors are `Send`: they cross the shard channels).
#[derive(Default)]
pub(crate) struct Cohort {
    /// Global insertion sequence → peer, iterated in ascending order.
    peers: BTreeMap<u64, Peer>,
    by_name: HashMap<Symbol, u64>,
    /// Whether peers carry trace sinks (peers added later inherit it).
    tracing: bool,
}

/// What [`Cohort::run`] produced: everything a runtime needs to settle
/// the round.
#[derive(Default)]
pub(crate) struct CohortRun {
    /// Outgoing messages tagged with the sender's insertion sequence.
    pub(crate) outbox: Vec<(u64, Message)>,
    pub(crate) changed: bool,
    /// Peers whose stage succeeded.
    pub(crate) peers_run: usize,
    pub(crate) stats: Vec<(Symbol, StageStats)>,
    /// Trace events drained from the peers that ran (empty untraced).
    pub(crate) trace: Vec<TraceEvent>,
    /// Stage failures, tagged with the failing peer's insertion sequence.
    pub(crate) errors: Vec<(u64, WdlError)>,
}

impl Cohort {
    /// Adds `peer` under insertion sequence `seq`; a taken name is the
    /// recoverable [`WdlError::DuplicatePeer`].
    pub(crate) fn insert(&mut self, seq: u64, mut peer: Peer) -> Result<Symbol> {
        let name = peer.name();
        if self.by_name.contains_key(&name) {
            return Err(WdlError::DuplicatePeer(name.to_string()));
        }
        if self.tracing {
            // Late joiners inherit the tracing state, so a profiled run
            // covers peers added mid-run (E8).
            peer.set_trace_sink(Box::new(wdl_obs::BufferSink::new()));
        }
        self.by_name.insert(name, seq);
        self.peers.insert(seq, peer);
        Ok(name)
    }

    /// Removes a peer (inbox intact), with its insertion sequence.
    pub(crate) fn remove(&mut self, name: Symbol) -> Option<(u64, Peer)> {
        let seq = self.by_name.remove(&name)?;
        self.peers.remove(&seq).map(|peer| (seq, peer))
    }

    pub(crate) fn seq(&self, name: Symbol) -> Option<u64> {
        self.by_name.get(&name).copied()
    }

    pub(crate) fn peer(&self, name: Symbol) -> Option<&Peer> {
        self.peers.get(&self.seq(name)?)
    }

    pub(crate) fn peer_mut(&mut self, name: Symbol) -> Option<&mut Peer> {
        self.peers.get_mut(&self.seq(name)?)
    }

    /// Peers in insertion order.
    pub(crate) fn peers(&self) -> impl Iterator<Item = &Peer> {
        self.peers.values()
    }

    /// Insertion sequences, ascending.
    pub(crate) fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.peers.keys().copied()
    }

    pub(crate) fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the peer at `seq` has input its next stage must ingest.
    pub(crate) fn has_pending_input(&self, seq: u64) -> bool {
        self.peers.get(&seq).is_some_and(Peer::has_pending_input)
    }

    /// Queues `msg` on its target's inbox, returning the target's
    /// sequence, or `None` (message dropped) if no such peer is here.
    pub(crate) fn enqueue(&mut self, msg: Message) -> Option<u64> {
        let seq = self.seq(msg.to)?;
        self.peers.get_mut(&seq)?.enqueue(msg);
        Some(seq)
    }

    pub(crate) fn tracing(&self) -> bool {
        self.tracing
    }

    /// Installs (or clears) a buffering trace sink on every peer. An
    /// installed sink is kept on re-enable: its buffer capacity is warm.
    pub(crate) fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for peer in self.peers.values_mut() {
            if !on {
                peer.clear_trace_sink();
            } else if !peer.tracing() {
                peer.set_trace_sink(Box::new(wdl_obs::BufferSink::new()));
            }
        }
    }

    /// Runs the stages of the peers at `seqs` (ascending) and collects
    /// what they produced. A failing peer's error is recorded and the
    /// others still run.
    pub(crate) fn run(
        &mut self,
        seqs: impl IntoIterator<Item = u64>,
        collect_stats: bool,
    ) -> CohortRun {
        let mut run = CohortRun::default();
        for seq in seqs {
            let Some(peer) = self.peers.get_mut(&seq) else {
                continue;
            };
            match peer.run_stage() {
                Ok(out) => {
                    run.peers_run += 1;
                    run.changed |= out.changed;
                    if collect_stats {
                        run.stats.push((peer.name(), out.stats));
                    }
                    run.outbox
                        .extend(out.messages.into_iter().map(|m| (seq, m)));
                }
                Err(e) => run.errors.push((seq, e)),
            }
            peer.drain_trace_into(&mut run.trace);
        }
        run
    }
}

impl CohortRun {
    /// Appends another cohort's part of the same round.
    pub(crate) fn absorb(&mut self, other: CohortRun) {
        self.outbox.extend(other.outbox);
        self.changed |= other.changed;
        self.peers_run += other.peers_run;
        self.stats.extend(other.stats);
        self.trace.extend(other.trace);
        self.errors.extend(other.errors);
    }

    /// The one error policy: routes the messages of every peer whose stage
    /// succeeded, in sender insertion order, through `deliver` (false:
    /// undeliverable), folds the round into `report`, and returns the
    /// error of the earliest failing peer in insertion order.
    pub(crate) fn settle(
        &mut self,
        report: &mut RoundReport,
        mut deliver: impl FnMut(Message) -> bool,
    ) -> Option<WdlError> {
        report.changed |= self.changed;
        report.peers_run += self.peers_run;
        report.stats.extend(self.stats.drain(..));
        // A stable sort keeps each sender's emission order.
        self.outbox.sort_by_key(|(seq, _)| *seq);
        for (_, msg) in self.outbox.drain(..) {
            if deliver(msg) {
                report.messages += 1;
            } else {
                report.undeliverable += 1;
            }
        }
        let first = self.errors.drain(..).min_by_key(|(seq, _)| *seq);
        first.map(|(_, e)| e)
    }

    /// Feeds the round's trace events to `agg` and closes its round.
    pub(crate) fn record(&self, agg: Option<&mut wdl_obs::Aggregator>) {
        if let Some(agg) = agg {
            if !self.trace.is_empty() {
                agg.ingest(&self.trace);
            }
            agg.end_round();
        }
    }
}

/// A deterministic, single-process network of WebdamLog peers.
///
/// Every round runs every peer's stage in insertion order; messages
/// produced in round *t* are ingested at round *t+1*. This models the
/// demo's Figure 2 topology with reproducible interleavings, and it is the
/// reference the sharded runtime is checked against.
#[derive(Default)]
pub struct LocalRuntime {
    cohort: Cohort,
    next_seq: u64,
    round: u64,
    /// Online trace aggregation; kept after `set_tracing(false)` so results
    /// stay queryable once profiling stops.
    agg: Option<wdl_obs::Aggregator>,
}

impl LocalRuntime {
    /// Empty runtime.
    pub fn new() -> LocalRuntime {
        LocalRuntime::default()
    }

    /// Turns structured tracing on or off.
    ///
    /// Turning it **on** installs a buffering [`crate::TraceSink`] on every
    /// peer (current and future); each round drains the buffers of the
    /// peers that ran into the [`wdl_obs::Aggregator`] in peer insertion
    /// order (deterministic) and closes the aggregator's round.
    /// Re-enabling **resumes** an existing aggregator — toggling is cheap
    /// and lossless; call [`LocalRuntime::reset_trace`] for a fresh one.
    /// Turning it **off** removes the sinks — the hot path goes back to
    /// the untraced peer loop — but keeps the aggregator, so
    /// `top`/`critpath`/export keep working on what was collected.
    pub fn set_tracing(&mut self, on: bool) {
        if on && self.agg.is_none() {
            self.agg = Some(wdl_obs::Aggregator::new());
        }
        self.cohort.set_tracing(on);
    }

    /// Discards all collected trace data. The next [`LocalRuntime::set_tracing`]
    /// (or the current session, if tracing is on) starts from an empty
    /// aggregator.
    pub fn reset_trace(&mut self) {
        self.agg = self.tracing().then(wdl_obs::Aggregator::new);
    }

    /// True iff tracing is currently enabled.
    pub fn tracing(&self) -> bool {
        self.cohort.tracing()
    }

    /// The trace aggregator, if profiling ever ran ([`LocalRuntime::set_tracing`]).
    pub fn trace(&self) -> Option<&wdl_obs::Aggregator> {
        self.agg.as_ref()
    }

    /// Mutable access to the trace aggregator (e.g. for JSONL export).
    pub fn trace_mut(&mut self) -> Option<&mut wdl_obs::Aggregator> {
        self.agg.as_mut()
    }

    /// Adds a peer. Peers added mid-run participate from the next round —
    /// this is how the demo's "audience members launch their own peers"
    /// scenario is modelled (E8). Returns [`crate::WdlError::DuplicatePeer`]
    /// if the name is already taken (recoverable — e.g. a late joiner
    /// picking a clashing name must not bring the whole runtime down).
    pub fn add_peer(&mut self, peer: Peer) -> Result<Symbol> {
        let name = self.cohort.insert(self.next_seq, peer)?;
        self.next_seq += 1;
        Ok(name)
    }

    /// Removes a peer, returning it (its inbox is preserved). The other
    /// peers keep their relative insertion order.
    pub fn remove_peer(&mut self, name: impl Into<Symbol>) -> Option<Peer> {
        self.cohort.remove(name.into()).map(|(_, peer)| peer)
    }

    /// Looks up a peer.
    pub fn peer(&self, name: impl Into<Symbol>) -> Option<&Peer> {
        self.cohort.peer(name.into())
    }

    /// Looks up a peer mutably.
    pub fn peer_mut(&mut self, name: impl Into<Symbol>) -> Option<&mut Peer> {
        self.cohort.peer_mut(name.into())
    }

    /// Names of all peers, in insertion order.
    pub fn peer_names(&self) -> Vec<Symbol> {
        self.cohort.peers().map(Peer::name).collect()
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.cohort.len()
    }

    /// True iff no peers.
    pub fn is_empty(&self) -> bool {
        self.cohort.len() == 0
    }

    /// Injects a message from outside the runtime (e.g. from a wrapper or a
    /// remote transport bridge).
    pub fn deliver(&mut self, msg: Message) -> bool {
        self.cohort.enqueue(msg).is_some()
    }

    /// Runs one stage on every peer, then routes the produced messages.
    /// If a stage fails, the other peers still run and their messages are
    /// routed; the error of the earliest failing peer is returned.
    pub fn tick(&mut self) -> Result<RoundReport> {
        let seqs: Vec<u64> = self.cohort.seqs().collect();
        self.round(seqs)
    }

    /// Runs one stage on a *single* peer, then routes the messages it
    /// produced — the event-at-a-time hook the simulation layer and
    /// schedule-exploration tests build on. Interleaving `step_peer` calls
    /// in any fair order (every peer keeps getting stepped until quiet)
    /// reaches the same quiescent state as the round-robin
    /// [`LocalRuntime::tick`] loop; `tests/sim_conformance.rs` sweeps
    /// random schedules to pin that down.
    pub fn step_peer(&mut self, name: impl Into<Symbol>) -> Result<RoundReport> {
        let name = name.into();
        let seq = self
            .cohort
            .seq(name)
            .ok_or_else(|| WdlError::UnknownPeer(name.to_string()))?;
        self.round([seq])
    }

    fn round(&mut self, seqs: impl IntoIterator<Item = u64>) -> Result<RoundReport> {
        self.round += 1;
        let mut report = RoundReport {
            round: self.round,
            peers_total: self.cohort.len(),
            ..RoundReport::default()
        };
        let mut run = self.cohort.run(seqs, true);
        let failed = run.settle(&mut report, |msg| self.cohort.enqueue(msg).is_some());
        run.record(self.agg.as_mut());
        failed.map_or(Ok(report), Err)
    }

    /// Ticks until a round where nothing changed and nothing was sent, or
    /// until `max_rounds` is exhausted.
    pub fn run_to_quiescence(&mut self, max_rounds: usize) -> Result<QuiescenceReport> {
        quiesce(max_rounds, || self.tick())
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

    /// `remove_peer` keeps the name index consistent: later peers stay
    /// addressable and in order, and re-adding the removed name works.
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
