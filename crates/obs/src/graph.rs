//! The program-activity-graph: stage executions as nodes, causality as
//! edges, and k-longest critical-path extraction over measured
//! durations (the snailtrail shape, specialised to the WebdamLog stage
//! loop).
//!
//! Nodes are `(peer, stage)` executions weighted by their measured
//! duration. Edges are
//!
//! * **intra-peer sequencing**: each peer's stage executions form a
//!   chain in execution order (soft state and the store carry over), and
//! * **delivered messages**: an edge from the sending stage to the
//!   stage that ingested the message.
//!
//! Both runtimes deliver a message strictly after the sending round and
//! run each peer at most one stage per round, so events arrive at the
//! aggregator in a valid topological order. That makes the longest-path
//! computation *online*: when a node is created (at `StageEnd`), every
//! predecessor already carries its own best-path cost, and one max over
//! the incoming edges finishes the DP for the new node.

use crate::fx::FxHashMap;

use wdl_datalog::Symbol;

/// Safety valve: beyond this many stage executions the graph stops
/// growing and counts drops instead (a 10⁵-peer run traced for hours
/// should degrade, not OOM).
const NODE_CAP: usize = 1 << 21;

#[derive(Clone, Copy, Debug)]
struct Node {
    peer: Symbol,
    stage: u64,
    dur_ns: u64,
    /// Cost of the heaviest path ending at (and including) this node.
    best_ns: u64,
    /// Predecessor on that heaviest path.
    pred: Option<u32>,
}

/// One node on an extracted critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathNode {
    /// The peer that ran.
    pub peer: Symbol,
    /// Its stage number.
    pub stage: u64,
    /// Measured duration of that stage.
    pub dur_ns: u64,
}

/// A critical path: a chain of stage executions linked by sequencing
/// and message-delivery edges, heaviest first in
/// [`ActivityGraph::critical_paths`]' answer.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Total measured duration along the chain.
    pub total_ns: u64,
    /// The chain, in execution order (earliest stage first).
    pub nodes: Vec<PathNode>,
}

/// The online program-activity-graph.
#[derive(Default)]
pub struct ActivityGraph {
    nodes: Vec<Node>,
    /// `(peer, stage)` → node index.
    index: FxHashMap<(Symbol, u64), u32>,
    /// Message edges whose receiving stage has not ended yet:
    /// `(to, to_stage)` → sender node indices.
    pending_in: FxHashMap<(Symbol, u64), Vec<u32>>,
    /// Each peer's most recent execution, for the sequencing edge.
    last_exec: FxHashMap<Symbol, u32>,
    dropped: u64,
}

impl ActivityGraph {
    /// An empty graph.
    pub fn new() -> ActivityGraph {
        ActivityGraph::default()
    }

    /// Number of stage executions recorded.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Stage executions discarded after `NODE_CAP` was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records a delivered message as a causal edge. Called before the
    /// receiving stage's `StageEnd` arrives; the edge is parked until
    /// then. Senders missing from the graph (e.g. tracing was enabled
    /// mid-run) are ignored.
    pub fn on_deliver(&mut self, from: Symbol, from_stage: u64, to: Symbol, to_stage: u64) {
        if let Some(&src) = self.index.get(&(from, from_stage)) {
            self.pending_in.entry((to, to_stage)).or_default().push(src);
        }
    }

    /// Records a finished stage execution and finishes its longest-path
    /// entry (all predecessors are already present — see module docs).
    pub fn on_stage_end(&mut self, peer: Symbol, stage: u64, dur_ns: u64) {
        if self.nodes.len() >= NODE_CAP {
            self.dropped += 1;
            self.pending_in.remove(&(peer, stage));
            return;
        }
        let mut best_pred: Option<u32> = None;
        let mut best_in = 0u64;
        if let Some(&prev) = self.last_exec.get(&peer) {
            best_pred = Some(prev);
            best_in = self.nodes[prev as usize].best_ns;
        }
        if let Some(senders) = self.pending_in.remove(&(peer, stage)) {
            for src in senders {
                let cand = self.nodes[src as usize].best_ns;
                if cand > best_in || best_pred.is_none() {
                    best_in = cand;
                    best_pred = Some(src);
                }
            }
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            peer,
            stage,
            dur_ns,
            best_ns: best_in + dur_ns,
            pred: best_pred,
        });
        self.index.insert((peer, stage), id);
        self.last_exec.insert(peer, id);
    }

    /// The `k` heaviest critical paths, heaviest first. Paths are
    /// node-disjoint at their endpoints: an endpoint already covered by
    /// a heavier path is skipped, so the answer names `k` *distinct*
    /// chains instead of one chain and its suffixes.
    pub fn critical_paths(&self, k: usize) -> Vec<CriticalPath> {
        let mut order: Vec<u32> = (0..self.nodes.len() as u32).collect();
        order.sort_by(|&a, &b| {
            self.nodes[b as usize]
                .best_ns
                .cmp(&self.nodes[a as usize].best_ns)
        });
        let mut covered = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        for end in order {
            if out.len() >= k {
                break;
            }
            if covered[end as usize] {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = Some(end);
            while let Some(i) = cur {
                covered[i as usize] = true;
                let n = self.nodes[i as usize];
                chain.push(PathNode {
                    peer: n.peer,
                    stage: n.stage,
                    dur_ns: n.dur_ns,
                });
                cur = n.pred;
            }
            chain.reverse();
            out.push(CriticalPath {
                total_ns: self.nodes[end as usize].best_ns,
                nodes: chain,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn message_edge_beats_light_local_chain() {
        let mut g = ActivityGraph::new();
        // Heavy sender a@1, light receiver history b@1, message a@1 -> b@2.
        g.on_stage_end(sym("a"), 1, 100);
        g.on_stage_end(sym("b"), 1, 1);
        g.on_deliver(sym("a"), 1, sym("b"), 2);
        g.on_stage_end(sym("b"), 2, 5);
        let paths = g.critical_paths(1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].total_ns, 105);
        let peers: Vec<_> = paths[0].nodes.iter().map(|n| n.peer).collect();
        assert_eq!(peers, vec![sym("a"), sym("b")]);
    }

    #[test]
    fn intra_peer_chain_accumulates() {
        let mut g = ActivityGraph::new();
        g.on_stage_end(sym("p"), 1, 10);
        g.on_stage_end(sym("p"), 2, 20);
        g.on_stage_end(sym("p"), 5, 30); // gap: stages 3-4 never ran
        let paths = g.critical_paths(1);
        assert_eq!(paths[0].total_ns, 60);
        assert_eq!(paths[0].nodes.len(), 3);
        assert_eq!(paths[0].nodes[0].stage, 1);
        assert_eq!(paths[0].nodes[2].stage, 5);
    }

    #[test]
    fn k_paths_are_distinct_chains() {
        let mut g = ActivityGraph::new();
        g.on_stage_end(sym("a"), 1, 100);
        g.on_stage_end(sym("a"), 2, 1);
        g.on_stage_end(sym("b"), 1, 50);
        g.on_stage_end(sym("c"), 1, 10);
        let paths = g.critical_paths(3);
        assert_eq!(paths.len(), 3);
        // The a-chain is one path; b and c are separate chains, not
        // suffixes of a.
        assert_eq!(paths[0].total_ns, 101);
        assert_eq!(paths[1].total_ns, 50);
        assert_eq!(paths[2].total_ns, 10);
    }

    #[test]
    fn deliver_from_unknown_sender_is_ignored() {
        let mut g = ActivityGraph::new();
        g.on_deliver(sym("ghost"), 7, sym("b"), 1);
        g.on_stage_end(sym("b"), 1, 5);
        assert_eq!(g.critical_paths(1)[0].total_ns, 5);
    }
}
