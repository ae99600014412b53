//! Sharded scale-out runtime: inbox-driven scheduling over worker shards.
//!
//! [`crate::runtime::LocalRuntime`] runs every peer every round — the right
//! reference semantics, but O(total peers) per round even when almost all
//! of them are idle. A conference with 10⁵–10⁶ attendee peers and a few
//! hundred actively-publishing ones spends its time ticking the quiet
//! majority. [`ShardedRuntime`] keeps the observable semantics and drops
//! that cost:
//!
//! * **Sharding** — peers are partitioned round-robin across a fixed set
//!   of long-lived worker threads (`worker`), each owning its
//!   peers' full state. No locks: the coordinator talks to shards over
//!   channels, and a peer lives on exactly one shard for its lifetime.
//! * **Inbox-driven scheduling** — a shard runs a peer's stage only when
//!   the peer has pending input (messages, buffered self-updates) or was
//!   mutated since its last stage. A quiescent peer costs *zero* per
//!   round: it is not iterated, not polled, not cloned.
//! * **Batched routing** — each round's outgoing messages are merged
//!   coordinator-side in **global peer-insertion order** (workers tag
//!   each message with the sender's insertion sequence number) and routed
//!   once, so every inbox receives exactly the message sequence the
//!   sequential [`crate::runtime::LocalRuntime::tick`] would have
//!   produced. Messages produced in round *t* are delivered in round
//!   *t+1*, also as in the reference.
//! * **Admission control** — a per-peer, per-round inbox budget
//!   ([`ShardedRuntime::set_inbox_budget`]) bounds how much of a bursty
//!   hub's fan-in is admitted per round; overflow stays queued in arrival
//!   order and is counted as `deferred` in the [`RoundReport`]. With the
//!   default unlimited budget, execution is round-for-round
//!   observationally identical to the reference runtime
//!   (`tests/shard_parity.rs` pins this across scenario generators,
//!   seeds, and shard counts); with a finite budget the same quiescent
//!   state is reached over more rounds.
//!
//! Each worker is a command loop around the same peer cohort
//! `LocalRuntime` runs on the caller's thread, and a round follows the
//! same error policy: every scheduled peer runs, the messages of every
//! peer whose stage succeeded are routed, and then the error of the
//! earliest failing peer in insertion order is returned; that peer stays
//! scheduled for the next round.

mod worker;

use crate::runtime::{quiesce, CohortRun, QuiescenceReport, RoundReport};
use crate::{Message, Peer, Result, WdlError};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::thread::JoinHandle;
use wdl_datalog::{Symbol, Tuple, Value};
use worker::{Cmd, ShardRound, Worker};

struct ShardHandle {
    cmd: Sender<Cmd>,
    results: Receiver<ShardRound>,
    join: Option<JoinHandle<()>>,
}

/// Where a peer lives: its shard and its global insertion sequence.
#[derive(Clone, Copy)]
struct Loc {
    shard: usize,
    seq: u64,
}

/// Messages awaiting delivery to one peer, in arrival order.
struct PendingEntry {
    shard: usize,
    queue: VecDeque<Message>,
}

/// A multi-threaded network of WebdamLog peers that schedules only the
/// peers with work to do. See the [module docs](self) for the design.
///
/// ```
/// use wdl_core::{Peer, shard::ShardedRuntime};
/// use wdl_datalog::Value;
///
/// let mut rt = ShardedRuntime::new(4);
/// rt.add_peer(Peer::new("alice")).unwrap();
/// rt.add_peer(Peer::new("bob")).unwrap();
/// rt.insert_local("alice", "note", vec![Value::from("hi")]).unwrap();
/// let report = rt.run_to_quiescence(8).unwrap();
/// assert!(report.quiescent);
/// assert_eq!(rt.relation_facts("alice", "note").unwrap().len(), 1);
/// ```
pub struct ShardedRuntime {
    shards: Vec<ShardHandle>,
    directory: HashMap<Symbol, Loc>,
    /// Undelivered routed messages, keyed by target peer's insertion
    /// sequence so per-round admission iterates deterministically and
    /// costs O(peers with pending input), not O(total peers).
    pending: BTreeMap<u64, PendingEntry>,
    next_seq: u64,
    round: u64,
    inbox_budget: usize,
    collect_stats: bool,
    /// Whether owned peers currently carry trace sinks.
    tracing: bool,
    /// Coordinator-side trace aggregation; kept after `set_tracing(false)`
    /// so collected results stay queryable.
    agg: Option<wdl_obs::Aggregator>,
}

impl ShardedRuntime {
    /// Creates a runtime with `shards` worker threads (clamped to ≥ 1).
    pub fn new(shards: usize) -> ShardedRuntime {
        let shards = (0..shards.max(1))
            .map(|i| {
                let (cmd_tx, cmd_rx) = unbounded();
                let (res_tx, res_rx) = unbounded();
                // Spawning fails only when the OS is out of threads or
                // memory; like an allocation failure, that aborts the
                // (infallible) constructor.
                #[allow(clippy::expect_used)]
                let join = std::thread::Builder::new()
                    .name(format!("wdl-shard-{i}"))
                    .spawn(move || Worker::new(cmd_rx, res_tx).run())
                    .expect("spawn shard worker");
                ShardHandle {
                    cmd: cmd_tx,
                    results: res_rx,
                    join: Some(join),
                }
            })
            .collect();
        ShardedRuntime {
            shards,
            directory: HashMap::new(),
            pending: BTreeMap::new(),
            next_seq: 0,
            round: 0,
            inbox_budget: usize::MAX,
            collect_stats: true,
            tracing: false,
            agg: None,
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Caps how many queued messages one peer ingests per round (clamped
    /// to ≥ 1); overflow carries to later rounds in arrival order and is
    /// reported as [`RoundReport::deferred`]. Default: unlimited.
    pub fn set_inbox_budget(&mut self, budget: usize) {
        self.inbox_budget = budget.max(1);
    }

    /// The current per-peer, per-round inbox admission budget.
    pub fn inbox_budget(&self) -> usize {
        self.inbox_budget
    }

    /// Toggles per-peer [`crate::StageStats`] collection in tick reports.
    ///
    /// **On by default** — every [`ShardedRuntime::tick`] ships each run
    /// peer's [`crate::StageStats`] back through the result channel and
    /// into [`RoundReport::stats`]. At bench scale (10⁵+ peers, bursty
    /// rounds) that per-round map is measurable overhead with no
    /// consumer, so large-scale runs opt **out** with
    /// `set_collect_stats(false)`; the cheap scalar counters on the
    /// report (`peers_run`, `messages`, `deferred`, …) are unaffected.
    pub fn set_collect_stats(&mut self, collect: bool) {
        self.collect_stats = collect;
    }

    /// Whether per-peer stage stats are collected into tick reports.
    pub fn collect_stats(&self) -> bool {
        self.collect_stats
    }

    /// Turns structured tracing on or off across every shard.
    ///
    /// Turning it **on** installs a buffering [`crate::TraceSink`] on every
    /// owned peer — without waking quiescent peers (tracing is a tuning
    /// knob, not input) — and aggregates on the coordinator. Each tick
    /// drains the run peers' buffers (shard order, ascending sequence
    /// within a shard), records one [`crate::TraceEvent::ShardRound`] with
    /// the round's routing/deferral counters, and closes the aggregator
    /// round. Re-enabling **resumes** an existing aggregator — toggling is
    /// cheap and lossless; call [`ShardedRuntime::reset_trace`] for a fresh
    /// one. Turning it **off** clears the sinks but keeps the aggregator
    /// queryable.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if on && self.agg.is_none() {
            self.agg = Some(wdl_obs::Aggregator::new());
        }
        for shard in 0..self.shards.len() {
            // A gone worker surfaces at the next tick as
            // `WdlError::ShardGone`.
            let _ = self.send(shard, Cmd::SetTracing(on));
        }
    }

    /// Discards all collected trace data. The next
    /// [`ShardedRuntime::set_tracing`] (or the current session, if tracing
    /// is on) starts from an empty aggregator.
    pub fn reset_trace(&mut self) {
        self.agg = self.tracing.then(wdl_obs::Aggregator::new);
    }

    /// True iff tracing is currently enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The trace aggregator, if profiling ever ran
    /// ([`ShardedRuntime::set_tracing`]).
    pub fn trace(&self) -> Option<&wdl_obs::Aggregator> {
        self.agg.as_ref()
    }

    /// Mutable access to the trace aggregator (e.g. for JSONL export).
    pub fn trace_mut(&mut self) -> Option<&mut wdl_obs::Aggregator> {
        self.agg.as_mut()
    }

    /// Adds a peer, assigning it round-robin to a shard. Like
    /// [`crate::runtime::LocalRuntime::add_peer`], peers added mid-run
    /// participate from the next round, and a taken name is the
    /// recoverable [`WdlError::DuplicatePeer`].
    pub fn add_peer(&mut self, peer: Peer) -> Result<Symbol> {
        let name = peer.name();
        if self.directory.contains_key(&name) {
            return Err(WdlError::DuplicatePeer(name.to_string()));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = (seq % self.shards.len() as u64) as usize;
        self.directory.insert(name, Loc { shard, seq });
        self.send(
            shard,
            Cmd::AddPeer {
                seq,
                peer: Box::new(peer),
            },
        )?;
        Ok(name)
    }

    /// Removes a peer and returns it. Messages already routed to it but
    /// not yet ingested are moved into its inbox, preserving
    /// [`crate::runtime::LocalRuntime::remove_peer`]'s contract that the
    /// inbox travels with the peer. `None` if the peer does not exist or
    /// its shard worker is gone (the next tick reports
    /// [`WdlError::ShardGone`]).
    pub fn remove_peer(&mut self, name: impl Into<Symbol>) -> Option<Peer> {
        let name = name.into();
        let loc = self.directory.remove(&name)?;
        let (tx, rx) = unbounded();
        self.send(loc.shard, Cmd::RemovePeer { name, reply: tx })
            .ok()?;
        let mut peer = *rx.recv().ok().flatten()?;
        if let Some(entry) = self.pending.remove(&loc.seq) {
            for msg in entry.queue {
                peer.enqueue(msg);
            }
        }
        Some(peer)
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// True iff no peers.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Names of all peers, in insertion order.
    pub fn peer_names(&self) -> Vec<Symbol> {
        let mut named: Vec<(u64, Symbol)> = self
            .directory
            .iter()
            .map(|(name, loc)| (loc.seq, *name))
            .collect();
        named.sort_by_key(|(seq, _)| *seq);
        named.into_iter().map(|(_, name)| name).collect()
    }

    /// True iff a peer with this name exists.
    pub fn contains(&self, name: impl Into<Symbol>) -> bool {
        self.directory.contains_key(&name.into())
    }

    /// Runs a read-only closure against a peer on its owning shard and
    /// returns the result, or `None` if the peer does not exist or its
    /// shard worker is gone. The closure must be `Send + 'static` — it
    /// crosses a thread boundary.
    pub fn with_peer<R, F>(&self, name: impl Into<Symbol>, f: F) -> Option<R>
    where
        F: FnOnce(&Peer) -> R + Send + 'static,
        R: Send + 'static,
    {
        let name = name.into();
        let loc = *self.directory.get(&name)?;
        let (tx, rx) = unbounded();
        self.send(
            loc.shard,
            Cmd::WithPeer {
                name,
                job: Box::new(move |peer| {
                    let _ = tx.send(f(peer));
                }),
            },
        )
        .ok()?;
        rx.recv().ok()
    }

    /// Runs a mutating closure against a peer on its owning shard and
    /// returns the result, or `None` if the peer does not exist or its
    /// shard worker is gone. The peer is marked dirty: its stage runs next
    /// round even if no message arrives (mirroring how `LocalRuntime::tick`
    /// runs every peer after an out-of-band mutation).
    pub fn with_peer_mut<R, F>(&mut self, name: impl Into<Symbol>, f: F) -> Option<R>
    where
        F: FnOnce(&mut Peer) -> R + Send + 'static,
        R: Send + 'static,
    {
        let name = name.into();
        let loc = *self.directory.get(&name)?;
        let (tx, rx) = unbounded();
        self.send(
            loc.shard,
            Cmd::WithPeerMut {
                name,
                job: Box::new(move |peer| {
                    let _ = tx.send(f(peer));
                }),
            },
        )
        .ok()?;
        rx.recv().ok()
    }

    /// [`Peer::insert_local`] on a named peer.
    pub fn insert_local(
        &mut self,
        peer: impl Into<Symbol>,
        rel: impl Into<Symbol>,
        values: Vec<Value>,
    ) -> Result<bool> {
        let peer = peer.into();
        let rel = rel.into();
        self.with_peer_mut(peer, move |p| p.insert_local(rel, values))
            .ok_or_else(|| WdlError::UnknownPeer(peer.to_string()))?
    }

    /// [`Peer::delete_local`] on a named peer.
    pub fn delete_local(
        &mut self,
        peer: impl Into<Symbol>,
        rel: impl Into<Symbol>,
        values: Vec<Value>,
    ) -> Result<bool> {
        let peer = peer.into();
        let rel = rel.into();
        self.with_peer_mut(peer, move |p| p.delete_local(rel, values))
            .ok_or_else(|| WdlError::UnknownPeer(peer.to_string()))?
    }

    /// [`Peer::relation_facts`] on a named peer (`None` if no such peer).
    pub fn relation_facts(
        &self,
        peer: impl Into<Symbol>,
        rel: impl Into<Symbol>,
    ) -> Option<Vec<Tuple>> {
        let rel = rel.into();
        self.with_peer(peer, move |p| p.relation_facts(rel))
    }

    /// Injects a message from outside the runtime. It joins the target's
    /// pending queue and is ingested (budget permitting) next round.
    /// Returns false and drops the message if the target is unknown.
    pub fn deliver(&mut self, msg: Message) -> bool {
        match self.directory.get(&msg.to) {
            Some(loc) => {
                self.pending
                    .entry(loc.seq)
                    .or_insert_with(|| PendingEntry {
                        shard: loc.shard,
                        queue: VecDeque::new(),
                    })
                    .queue
                    .push_back(msg);
                true
            }
            None => false,
        }
    }

    /// Messages routed to a peer but not yet ingested, in delivery order.
    /// At a tick boundary (unlimited budget) this is exactly the inbox the
    /// reference runtime's peer would hold — the parity suite compares
    /// the two, canonicalized.
    pub fn pending_messages(&self, name: impl Into<Symbol>) -> Vec<Message> {
        let name = name.into();
        self.directory
            .get(&name)
            .and_then(|loc| self.pending.get(&loc.seq))
            .map(|entry| entry.queue.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Runs one round: admit pending messages under the per-peer budget,
    /// run every shard's active peers concurrently, then merge and route
    /// the produced messages in global insertion order (delivered next
    /// round). Cost is O(active peers + routed messages). If a stage
    /// fails, the round still completes everywhere; see the
    /// [module docs](self) for the error policy.
    pub fn tick(&mut self) -> Result<RoundReport> {
        self.round += 1;
        let mut report = RoundReport {
            round: self.round,
            peers_total: self.directory.len(),
            ..RoundReport::default()
        };

        // Admission: drain each pending queue (insertion-sequence order,
        // deterministic) up to the budget into its shard's delivery batch.
        let mut batches: Vec<Vec<Message>> = self.shards.iter().map(|_| Vec::new()).collect();
        let budget = self.inbox_budget;
        self.pending.retain(|_, entry| {
            let take = budget.min(entry.queue.len());
            batches[entry.shard].extend(entry.queue.drain(..take));
            report.deferred += entry.queue.len();
            !entry.queue.is_empty()
        });

        // Fan out, then collect every shard's result (a barrier, like the
        // reference tick's end-of-round routing point).
        for (shard, deliveries) in batches.into_iter().enumerate() {
            self.send(
                shard,
                Cmd::Round {
                    deliveries,
                    collect_stats: self.collect_stats,
                },
            )?;
        }
        let mut run = CohortRun::default();
        for (i, shard) in self.shards.iter().enumerate() {
            let (part, undeliverable) = shard
                .results
                .recv()
                .map_err(|_| WdlError::ShardGone { shard: i })?;
            report.undeliverable += undeliverable;
            run.absorb(part);
        }
        // Merging in sender insertion order reproduces the sequential
        // tick's routing order exactly.
        let failed = run.settle(&mut report, |msg| self.deliver(msg));
        if self.tracing {
            run.trace.push(crate::TraceEvent::ShardRound {
                round: self.round,
                routed: report.messages as u64,
                deferred: report.deferred as u64,
                peers_run: report.peers_run as u64,
                peers_total: report.peers_total as u64,
            });
        }
        run.record(self.agg.as_mut());
        failed.map_or(Ok(report), Err)
    }

    /// Ticks until a fully quiet round — nothing changed, nothing sent,
    /// nothing deferred — or until `max_rounds` is exhausted. With an
    /// unlimited inbox budget the round count matches
    /// [`crate::runtime::LocalRuntime::run_to_quiescence`].
    pub fn run_to_quiescence(&mut self, max_rounds: usize) -> Result<QuiescenceReport> {
        quiesce(max_rounds, || self.tick())
    }

    fn send(&self, shard: usize, cmd: Cmd) -> Result<()> {
        self.shards[shard]
            .cmd
            .send(cmd)
            .map_err(|_| WdlError::ShardGone { shard })
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            let _ = shard.cmd.send(Cmd::Shutdown);
        }
        for shard in &mut self.shards {
            if let Some(join) = shard.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("shards", &self.shards.len())
            .field("peers", &self.directory.len())
            .field("round", &self.round)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::UntrustedPolicy;
    use crate::{Payload, WRule};

    fn open_peer(name: &str) -> Peer {
        let mut p = Peer::new(name);
        p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
        p
    }

    #[test]
    fn duplicate_peer_is_recoverable() {
        let mut rt = ShardedRuntime::new(2);
        rt.add_peer(Peer::new("dup")).unwrap();
        match rt.add_peer(Peer::new("dup")) {
            Err(WdlError::DuplicatePeer(name)) => assert_eq!(name, "dup"),
            other => panic!("expected DuplicatePeer, got {other:?}"),
        }
        assert_eq!(rt.len(), 1);
        rt.add_peer(Peer::new("dup2")).unwrap();
        assert!(rt.run_to_quiescence(4).unwrap().quiescent);
    }

    #[test]
    fn undeliverable_messages_counted() {
        let mut rt = ShardedRuntime::new(3);
        let mut p = open_peer("solo");
        p.insert_remote("ghost", "r", vec![Value::from(1)]);
        rt.add_peer(p).unwrap();
        let tick = rt.tick().unwrap();
        assert_eq!(tick.undeliverable, 1);
        assert_eq!(tick.messages, 0);
        assert_eq!(tick.peers_run, 1);
    }

    /// The paper's delegation round trip runs identically on the sharded
    /// runtime: install, derive, then revoke on deselection — across
    /// shard boundaries.
    #[test]
    fn delegation_round_trip_across_shards() {
        let mut rt = ShardedRuntime::new(2);
        rt.add_peer(open_peer("jules")).unwrap();
        rt.add_peer(open_peer("emilien")).unwrap();
        rt.with_peer_mut("jules", |jules| {
            jules
                .declare("attendeePictures", 4, crate::RelationKind::Intensional)
                .unwrap();
            jules
                .add_rule(WRule::example_attendee_pictures("jules"))
                .unwrap();
        })
        .unwrap();
        rt.insert_local("jules", "selectedAttendee", vec![Value::from("emilien")])
            .unwrap();
        rt.insert_local(
            "emilien",
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
            rt.relation_facts("jules", "attendeePictures")
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            rt.with_peer("emilien", |p| p.installed_delegations().len())
                .unwrap(),
            1
        );

        rt.delete_local("jules", "selectedAttendee", vec![Value::from("emilien")])
            .unwrap();
        let r = rt.run_to_quiescence(16).unwrap();
        assert!(r.quiescent);
        assert!(rt
            .relation_facts("jules", "attendeePictures")
            .unwrap()
            .is_empty());
        assert!(rt
            .with_peer("emilien", |p| p.installed_delegations().is_empty())
            .unwrap());
    }

    /// Quiescent peers are skipped: after convergence, a burst touching
    /// one peer re-runs only the peers the burst reaches, not the fleet.
    #[test]
    fn quiescent_peers_are_skipped() {
        let mut rt = ShardedRuntime::new(4);
        for i in 0..50 {
            rt.add_peer(open_peer(&format!("idle-{i}"))).unwrap();
        }
        rt.add_peer(open_peer("hub")).unwrap();
        let r = rt.run_to_quiescence(8).unwrap();
        assert!(r.quiescent);

        rt.insert_local("hub", "item", vec![Value::from(1)])
            .unwrap();
        let tick = rt.tick().unwrap();
        assert_eq!(tick.peers_run, 1, "only the dirty hub runs");
        assert_eq!(tick.peers_total, 51);
        assert!(tick.active_fraction() < 0.05);
        // The quiet confirming round also only re-checks the hub.
        let tick = rt.tick().unwrap();
        assert!(tick.peers_run <= 1);
    }

    /// A finite inbox budget defers hub fan-in across rounds but reaches
    /// the same final state, with `deferred` accounting for the carry.
    #[test]
    fn admission_control_carries_overflow() {
        let build = |budget: Option<usize>| {
            let mut rt = ShardedRuntime::new(2);
            if let Some(b) = budget {
                rt.set_inbox_budget(b);
            }
            rt.add_peer(open_peer("hub")).unwrap();
            for i in 0..10 {
                let mut p = open_peer(&format!("fan-{i}"));
                p.insert_remote("hub", "sightings", vec![Value::from(i)]);
                rt.add_peer(p).unwrap();
            }
            rt
        };

        let mut limited = build(Some(2));
        let mut saw_deferred = false;
        let mut rounds = 0;
        loop {
            let tick = limited.tick().unwrap();
            saw_deferred |= tick.deferred > 0;
            rounds += 1;
            assert!(rounds < 64, "did not converge under budget");
            if !tick.changed && tick.messages == 0 && tick.deferred == 0 {
                break;
            }
        }
        assert!(saw_deferred, "budget of 2 over fan-in of 10 must defer");

        let mut unlimited = build(None);
        let quick = unlimited.run_to_quiescence(16).unwrap();
        assert!(quick.quiescent);
        assert!(
            rounds > quick.rounds,
            "deferral must cost extra rounds ({rounds} vs {})",
            quick.rounds
        );
        let mut a = limited.relation_facts("hub", "sightings").unwrap();
        let mut b = unlimited.relation_facts("hub", "sightings").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a.len(), 10);
        assert_eq!(a, b, "budgeted run must converge to the same state");
    }

    /// `remove_peer` hands back the peer with its undelivered messages
    /// moved into its inbox, and the name becomes reusable.
    #[test]
    fn remove_peer_preserves_pending_inbox() {
        let mut rt = ShardedRuntime::new(2);
        rt.add_peer(open_peer("target")).unwrap();
        rt.add_peer(open_peer("other")).unwrap();
        rt.run_to_quiescence(4).unwrap();
        rt.deliver(Message::new(
            Symbol::intern("other"),
            Symbol::intern("target"),
            Payload::Facts {
                kind: crate::FactKind::Persistent,
                additions: vec![crate::WFact::new("mail", "target", [Value::from("hi")])],
                retractions: vec![],
            },
        ));
        assert_eq!(rt.pending_messages("target").len(), 1);
        let removed = rt.remove_peer("target").unwrap();
        assert_eq!(removed.inbox().len(), 1);
        assert!(rt.pending_messages("target").is_empty());
        assert!(rt.remove_peer("target").is_none());
        rt.add_peer(open_peer("target")).unwrap();
        assert_eq!(rt.len(), 2);
        assert!(rt.run_to_quiescence(4).unwrap().quiescent);
    }

    /// Peer names come back in global insertion order regardless of which
    /// shard owns them.
    #[test]
    fn peer_names_in_insertion_order() {
        let mut rt = ShardedRuntime::new(3);
        for name in ["pa", "pb", "pc", "pd", "pe"] {
            rt.add_peer(Peer::new(name)).unwrap();
        }
        rt.remove_peer("pc");
        let names: Vec<String> = rt.peer_names().iter().map(|s| s.to_string()).collect();
        assert_eq!(names, vec!["pa", "pb", "pd", "pe"]);
        assert!(rt.contains("pd"));
        assert!(!rt.contains("pc"));
    }

    /// A worker that panicked is a typed error at the next tick, not a
    /// panic in the coordinator.
    #[test]
    fn gone_worker_is_a_typed_error() {
        let mut rt = ShardedRuntime::new(1);
        rt.add_peer(Peer::new("doomed")).unwrap();
        let job = rt.with_peer_mut("doomed", |_| -> () { panic!("job panics its worker") });
        assert!(job.is_none());
        assert!(matches!(rt.tick(), Err(WdlError::ShardGone { shard: 0 })));
        assert!(rt.remove_peer("doomed").is_none());
        assert!(matches!(
            rt.add_peer(Peer::new("late")),
            Err(WdlError::ShardGone { shard: 0 })
        ));
    }
}
