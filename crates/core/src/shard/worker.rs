//! The shard worker: a long-lived thread owning a stable subset of peers.
//!
//! A worker is a command loop around a [`Cohort`] of the peers it owns
//! plus an `active` set of the sequence numbers that must run next round.
//! A peer enters the active set when a message is delivered to it, when it
//! is mutated through [`Cmd::WithPeerMut`], or when it is first added (its
//! pre-loaded store and rules have never run a stage); it leaves the set
//! after a successful stage that consumed all of its pending input. A
//! round therefore costs O(active peers in this shard), not O(peers in
//! this shard): a quiescent peer is never touched.

use crate::runtime::{Cohort, CohortRun};
use crate::{Message, Peer};
use crossbeam::channel::{Receiver, Sender};
use std::collections::BTreeSet;
use wdl_datalog::Symbol;

/// A job shipped to a worker to observe one of its peers in place.
pub(crate) type ReadJob = Box<dyn FnOnce(&Peer) + Send>;
/// A job shipped to a worker to mutate one of its peers in place.
pub(crate) type WriteJob = Box<dyn FnOnce(&mut Peer) + Send>;

/// What one shard produced in one round, plus the count of deliveries
/// addressed to a peer it no longer owns.
pub(crate) type ShardRound = (CohortRun, usize);

/// Commands the coordinator sends to a shard worker.
pub(crate) enum Cmd {
    /// Take ownership of a peer (global insertion sequence `seq`).
    AddPeer { seq: u64, peer: Box<Peer> },
    /// Give a peer back (inbox intact); replies `None` if unknown.
    RemovePeer {
        name: Symbol,
        reply: Sender<Option<Box<Peer>>>,
    },
    /// Run a read-only job against a peer. If the peer is unknown the job
    /// is dropped unrun (the caller observes its reply channel closing).
    WithPeer { name: Symbol, job: ReadJob },
    /// Run a mutating job against a peer and mark it active: the next
    /// round must run its stage even if no message arrives.
    WithPeerMut { name: Symbol, job: WriteJob },
    /// Ingest this round's admitted deliveries, run every active peer's
    /// stage, and reply with a [`ShardRound`] on the result channel.
    Round {
        deliveries: Vec<Message>,
        collect_stats: bool,
    },
    /// Install (or clear) trace sinks on every owned peer — including
    /// quiescent ones, *without* activating them: tracing is a tuning
    /// knob, not input, and must not wake the idle fleet.
    SetTracing(bool),
    /// Exit the worker loop.
    Shutdown,
}

/// One shard's thread-local state and command loop.
pub(crate) struct Worker {
    rx: Receiver<Cmd>,
    results: Sender<ShardRound>,
    cohort: Cohort,
    /// Sequence numbers of peers that must run next round.
    active: BTreeSet<u64>,
}

impl Worker {
    pub(crate) fn new(rx: Receiver<Cmd>, results: Sender<ShardRound>) -> Worker {
        Worker {
            rx,
            results,
            cohort: Cohort::default(),
            active: BTreeSet::new(),
        }
    }

    pub(crate) fn run(mut self) {
        while let Ok(cmd) = self.rx.recv() {
            match cmd {
                Cmd::AddPeer { seq, peer } => {
                    // A new peer's first stage has never run: its initial
                    // facts and rules may derive, delegate, or ship.
                    if self.cohort.insert(seq, *peer).is_ok() {
                        self.active.insert(seq);
                    }
                }
                Cmd::RemovePeer { name, reply } => {
                    let peer = self.cohort.remove(name).map(|(seq, peer)| {
                        self.active.remove(&seq);
                        Box::new(peer)
                    });
                    let _ = reply.send(peer);
                }
                Cmd::WithPeer { name, job } => {
                    if let Some(peer) = self.cohort.peer(name) {
                        job(peer);
                    }
                }
                Cmd::WithPeerMut { name, job } => {
                    if let Some(peer) = self.cohort.peer_mut(name) {
                        job(peer);
                        self.active.extend(self.cohort.seq(name));
                    }
                }
                Cmd::Round {
                    deliveries,
                    collect_stats,
                } => {
                    let result = self.round(deliveries, collect_stats);
                    if self.results.send(result).is_err() {
                        break; // coordinator gone
                    }
                }
                Cmd::SetTracing(on) => self.cohort.set_tracing(on),
                Cmd::Shutdown => break,
            }
        }
    }

    fn round(&mut self, deliveries: Vec<Message>, collect_stats: bool) -> ShardRound {
        let mut undeliverable = 0;
        for msg in deliveries {
            match self.cohort.enqueue(msg) {
                Some(seq) => {
                    self.active.insert(seq);
                }
                None => undeliverable += 1,
            }
        }
        let run_now: Vec<u64> = self.active.iter().copied().collect();
        let run = self.cohort.run(run_now, collect_stats);
        // A failed peer stays active: the coordinator surfaces the error
        // and the peer runs again next round.
        let failed = |seq: &u64| run.errors.iter().any(|(s, _)| s == seq);
        self.active
            .retain(|seq| failed(seq) || self.cohort.has_pending_input(*seq));
        (run, undeliverable)
    }
}
