//! The production composition, as `tests/chaos_tcp.rs` builds it: every
//! peer a `PeerNode` over `SessionEndpoint` over `TcpEndpoint` on
//! `127.0.0.1:0`, with a `DurableStore` attached, stepped round-robin from
//! the one driver thread. The only other threads are the endpoints' own
//! accept and reader threads.

use crate::budget::{Budget, RowId};
use crate::gen::{Inputs, Op};
use crate::load::load_peer;
use crate::probe::{Probe, ProbeShared, ProbeSink, SinkState};
use crate::system::{add_eval, add_stage, payload_bytes, BenchResult, Counters, System, Tracker};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wdl_core::{Peer, RelationKind, WBodyItem, WRule};
use wdl_datalog::{Symbol, Tuple};
use wdl_net::node::PeerNode;
use wdl_net::session::{SessionConfig, SessionEndpoint, WallClock};
use wdl_net::tcp::TcpEndpoint;
use wdl_net::Transport;
use wdl_store::{DurabilityConfig, DurableStore};

pub type Stack = Probe<SessionEndpoint<Probe<TcpEndpoint>>>;

struct Slot {
    name: Symbol,
    /// `None` only while the watcher is being restarted.
    node: Option<PeerNode<Stack>>,
    upper: Arc<ProbeShared>,
    lower: Arc<ProbeShared>,
    sink: Arc<Mutex<SinkState>>,
    step_row: RowId,
}

impl Slot {
    fn node(&mut self) -> &mut PeerNode<Stack> {
        self.node.as_mut().expect("node is up")
    }

    fn tcp(&self) -> &TcpEndpoint {
        let node = self.node.as_ref().expect("node is up");
        node.transport().inner().inner().inner()
    }

    /// Time the probes have seen inside this node's transport and inside
    /// its durability sink so far.
    fn below_stage_ns(&self) -> (u64, u64) {
        let sink = self.sink.lock().expect("sink state poisoned");
        (self.upper.state().total_ns(), sink.sync_ns + sink.record_ns)
    }

    /// A step's stage time: the step minus what the transport and the sink
    /// took since `before`. Also returns the sink's part.
    fn stage_ns(&self, step_ns: u64, before: (u64, u64)) -> (u64, u64) {
        let now = self.below_stage_ns();
        let (transport, sink) = (now.0 - before.0, now.1 - before.1);
        (step_ns.saturating_sub(transport + sink), sink)
    }
}

pub struct NetSystem {
    slots: Vec<Slot>,
    watcher: usize,
    swap_peer: usize,
    watched_rel: Symbol,
    query: Vec<WBodyItem>,
    store: DurableStore,
    seed: u64,
    incarnation: u64,
    budget: Budget,
    counters: Counters,
    rows: Rows,
}

struct Rows {
    apply: RowId,
    query: RowId,
    swap: RowId,
    recover: RowId,
    rebind: RowId,
    read_back: RowId,
}

fn stack(
    peer: &Peer,
    endpoint: TcpEndpoint,
    incarnation: u64,
    seed: u64,
    upper: &Arc<ProbeShared>,
    lower: &Arc<ProbeShared>,
) -> Stack {
    let cfg = SessionConfig {
        seed,
        ..SessionConfig::default()
    };
    let raw = Probe::new(endpoint, Arc::clone(lower));
    let session = if incarnation == 0 {
        SessionEndpoint::new(raw, 0, cfg)
    } else {
        SessionEndpoint::recover(
            raw,
            incarnation,
            cfg,
            Box::new(WallClock::new()),
            peer.session_watermarks(),
        )
    };
    Probe::new(session, Arc::clone(upper))
}

/// Makes `peer` durable. An untraced run takes the production path; a
/// traced one attaches the timing sink to the same engine and takes the
/// same initial checkpoint.
fn attach(
    store: &mut DurableStore,
    peer: &mut Peer,
    sink: Option<&Arc<Mutex<SinkState>>>,
) -> BenchResult<()> {
    match sink {
        None => store.attach(peer).map_err(|e| format!("attach: {e}")),
        Some(state) => {
            let engine = store
                .engine(peer.name())
                .map_err(|e| format!("open engine: {e}"))?;
            peer.set_durability(Box::new(ProbeSink::new(
                engine,
                peer.name(),
                Arc::clone(state),
            )));
            peer.sync_durability().map_err(|e| format!("attach: {e}"))
        }
    }
}

/// Recovers `name` from its store directory, through the same two paths as
/// [`attach`].
pub(crate) fn recover(
    store: &mut DurableStore,
    name: Symbol,
    sink: Option<&Arc<Mutex<SinkState>>>,
) -> BenchResult<Peer> {
    match sink {
        None => store.recover(name).map_err(|e| format!("recover: {e}")),
        Some(state) => {
            let engine = store
                .engine(name)
                .map_err(|e| format!("open engine: {e}"))?;
            let mut peer = engine
                .lock()
                .recover()
                .map_err(|e| format!("recover: {e}"))?;
            peer.set_durability(Box::new(ProbeSink::new(engine, name, Arc::clone(state))));
            peer.sync_durability()
                .map_err(|e| format!("recover: {e}"))?;
            Ok(peer)
        }
    }
}

/// Bytes under the peer's store directory.
pub(crate) fn disk_bytes(store: &DurableStore, name: Symbol) -> u64 {
    crate::stats::dir_bytes(&store.config().root.join(name.as_str()))
}

/// User payload bytes the peer's extensional relations hold.
pub(crate) fn extensional_payload(peer: &Peer) -> u64 {
    peer.schema()
        .iter()
        .filter(|d| d.kind == RelationKind::Extensional)
        .map(|d| payload_bytes(peer.relation_facts(d.rel).iter()))
        .sum()
}

impl NetSystem {
    /// Phase 1 up to the first quiescence, which the driver runs: load
    /// every program, attach the store, bind and register the endpoints.
    pub fn setup(
        inputs: &Inputs,
        root: &Path,
        seed: u64,
        (mut budget, mut counters): (Budget, Counters),
    ) -> BenchResult<NetSystem> {
        let trace = budget.on();
        let (load_row, attach_row, bind_row) = (
            budget.row("setup.load"),
            budget.row("setup.attach"),
            budget.row("setup.bind"),
        );
        let rows = Rows {
            apply: budget.row("apply"),
            query: budget.row("query"),
            swap: budget.row("swap_rule"),
            recover: budget.row("restart.recover"),
            rebind: budget.row("restart.rebind"),
            read_back: budget.row("read_back"),
        };
        let mut store = DurableStore::new(DurabilityConfig::new(root));

        let mut staged = Vec::new();
        for program in &inputs.peers {
            let t = budget.begin();
            let mut peer = load_peer(program, trace.then_some(&mut counters))?;
            budget.end(load_row, t);

            let sink = Arc::new(Mutex::new(SinkState::default()));
            let t = budget.begin();
            let began = Instant::now();
            attach(&mut store, &mut peer, trace.then_some(&sink))?;
            counters.attach_ns += began.elapsed().as_nanos() as u64;
            budget.end(attach_row, t);

            let t = budget.begin();
            let endpoint = TcpEndpoint::bind(peer.name(), "127.0.0.1:0")
                .map_err(|e| format!("bind {}: {e}", program.name))?;
            budget.end(bind_row, t);
            staged.push((peer, endpoint, sink));
        }

        let t = budget.begin();
        let addrs: Vec<_> = staged
            .iter()
            .map(|(p, e, _)| (p.name(), e.local_addr()))
            .collect();
        let mut slots = Vec::new();
        for (i, (peer, endpoint, sink)) in staged.into_iter().enumerate() {
            for &(name, addr) in addrs.iter().filter(|(n, _)| *n != peer.name()) {
                endpoint.register(name, addr);
            }
            let watch = (i == inputs.watcher).then_some(inputs.watched_rel);
            let lower = ProbeShared::new(None, trace, None);
            let upper = ProbeShared::new(watch, trace, Some(Arc::clone(&lower)));
            let name = peer.name();
            let transport = stack(&peer, endpoint, 0, seed, &upper, &lower);
            slots.push(Slot {
                name,
                node: Some(PeerNode::new(peer, transport)),
                upper,
                lower,
                sink,
                step_row: 0,
            });
        }
        budget.end(bind_row, t);
        for slot in &mut slots {
            slot.step_row = budget.row(&format!("step:{}", slot.name));
        }

        Ok(NetSystem {
            slots,
            watcher: inputs.watcher,
            swap_peer: inputs.swap_peer,
            watched_rel: Symbol::intern(inputs.watched_rel),
            query: inputs.query.clone(),
            store,
            seed,
            incarnation: 0,
            budget,
            counters,
            rows,
        })
    }

    /// Session counters live in the endpoint and die with it.
    fn absorb_session(&mut self, i: usize) {
        let slot = &self.slots[i];
        let Some(node) = slot.node.as_ref() else {
            return;
        };
        let s = node.transport().inner().stats();
        self.counters.retransmits += s.retransmits;
        self.counters.dup_drops += s.dup_drops;
        self.counters.decode_errors += s.decode_errors;
        self.counters.overflow += slot.tcp().overflow_count();
    }
}

impl System for NetSystem {
    fn apply(&mut self, op: &Op) -> BenchResult<()> {
        let t = self.budget.begin();
        let changed = op
            .mutation
            .apply(self.slots[op.peer].node().peer_mut())
            .map_err(|e| format!("op at {}: {e}", self.slots[op.peer].name))?;
        self.budget.end(self.rows.apply, t);
        if !changed {
            return Err(format!("generated op was a no-op: {:?}", op.watch));
        }
        Ok(())
    }

    fn round(&mut self, tracker: &mut Tracker) -> BenchResult<bool> {
        let trace = self.budget.on();
        let mut active = false;
        for i in 0..self.slots.len() {
            let slot = &mut self.slots[i];
            let below = if trace { slot.below_stage_ns() } else { (0, 0) };
            let t = self.budget.begin();
            let began = Instant::now();
            let r = slot
                .node()
                .step()
                .map_err(|e| format!("step {}: {e}", slot.name))?;
            let ended = Instant::now();
            self.budget.end(slot.step_row, t);

            if i == self.watcher {
                let mut keys = Vec::new();
                slot.upper.take_seen(&mut keys);
                tracker.visible(&keys, ended);
            }
            let busy = r.changed || r.received > 0 || r.sent > 0 || r.deferred > 0;
            active |= busy || slot.node().transport().pending_work() > 0;

            let c = &mut self.counters;
            c.steps += 1;
            c.deferred_sends += r.deferred as u64;
            c.undeliverable += r.undeliverable as u64;
            add_stage(&mut c.stage, &r.stats);
            if trace {
                let step = (ended - began).as_nanos() as u64;
                let (stage, sink) = slot.stage_ns(step, below);
                c.step_ns += step;
                c.step_sink_ns += sink;
                c.stage_ns += stage;
                c.stage_calls += 1;
                if !busy {
                    c.idle_stage_calls += 1;
                    c.idle_stage_ns += stage;
                }
                let unacked = slot.node().transport().inner().stats().unacked as u64;
                c.unacked_peak = c.unacked_peak.max(unacked);
            }
        }
        Ok(active)
    }

    fn query(&mut self) -> BenchResult<usize> {
        let t = self.budget.begin();
        let rows = self.slots[self.watcher]
            .node()
            .peer()
            .query(&self.query)
            .map_err(|e| format!("query: {e}"))?
            .len();
        self.budget.end(self.rows.query, t);
        Ok(rows)
    }

    fn swap_rule(&mut self, rule: WRule) -> BenchResult<()> {
        let t = self.budget.begin();
        let peer = self.slots[self.swap_peer].node().peer_mut();
        let id = peer.rules().first().ok_or("swap peer has no rule")?.id;
        peer.replace_rule(id, rule)
            .map_err(|e| format!("replace_rule: {e}"))?;
        self.budget.end(self.rows.swap, t);
        Ok(())
    }

    fn restart_watcher(&mut self) -> BenchResult<u64> {
        let w = self.watcher;
        let trace = self.budget.on();
        self.absorb_session(w);
        let name = self.slots[w].name;

        let t = self.budget.begin();
        let began = Instant::now();
        // The old life ends here: its peer, sessions and sockets are gone,
        // and only the bytes in the store directory remain.
        drop(self.slots[w].node.take());
        let sink = Arc::clone(&self.slots[w].sink);
        let peer = recover(&mut self.store, name, trace.then_some(&sink))?;
        self.counters.recover_ns += began.elapsed().as_nanos() as u64;
        self.budget.end(self.rows.recover, t);
        let disk = disk_bytes(&self.store, name);

        let t = self.budget.begin();
        let endpoint =
            TcpEndpoint::bind(name, "127.0.0.1:0").map_err(|e| format!("rebind: {e}"))?;
        for other in self.slots.iter().filter(|s| s.name != name) {
            endpoint.register(other.name, other.tcp().local_addr());
            other.tcp().register(name, endpoint.local_addr());
        }
        self.incarnation += 1;
        let slot = &mut self.slots[w];
        let transport = stack(
            &peer,
            endpoint,
            self.incarnation,
            self.seed,
            &slot.upper,
            &slot.lower,
        );
        slot.node = Some(PeerNode::new(peer, transport));
        self.budget.end(self.rows.rebind, t);
        Ok(disk)
    }

    fn watched(&mut self) -> BenchResult<Vec<Tuple>> {
        let t = self.budget.begin();
        let mut rows = self.slots[self.watcher]
            .node()
            .peer()
            .relation_facts(self.watched_rel);
        rows.sort();
        self.budget.end(self.rows.read_back, t);
        Ok(rows)
    }

    fn watcher_payload(&mut self) -> u64 {
        extensional_payload(self.slots[self.watcher].node().peer())
    }

    fn budget(&mut self) -> &mut Budget {
        &mut self.budget
    }

    fn counters(&mut self) -> &mut Counters {
        &mut self.counters
    }

    fn probe_idle_stages(&mut self, rounds: usize) -> BenchResult<()> {
        for _ in 0..rounds {
            for slot in &mut self.slots {
                let below = slot.below_stage_ns();
                let t = Instant::now();
                slot.node().step().map_err(|e| format!("step: {e}"))?;
                let step = t.elapsed().as_nanos() as u64;
                let (stage, _) = slot.stage_ns(step, below);
                self.counters.idle_probe_us.push(stage as f64 / 1e3);
            }
        }
        Ok(())
    }

    fn finish(mut self: Box<Self>) -> (Budget, Counters) {
        for i in 0..self.slots.len() {
            self.absorb_session(i);
            let slot = &mut self.slots[i];
            let eval = slot.node().peer().cumulative_eval_stats();
            let c = &mut self.counters;
            add_eval(&mut c.eval, &eval);
            c.upper.absorb(&mut slot.upper.state());
            c.lower.absorb(&mut slot.lower.state());
            c.sink
                .absorb(&slot.sink.lock().expect("sink state poisoned"));
        }
        self.counters.disk_bytes += crate::stats::dir_bytes(&self.store.config().root);
        self.counters.interned_values = wdl_datalog::intern::interned_count() as u64;
        (self.budget, self.counters)
    }
}
