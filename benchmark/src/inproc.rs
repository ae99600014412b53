//! The no-network baseline: the same programs and op stream on
//! `ShardedRuntime::new(2)` with the store attached, no transport at all.
//! The driver thread is the coordinator; the two shard workers are the
//! only other threads.

use crate::budget::{Budget, RowId};
use crate::gen::{Inputs, Key, Op};
use crate::load::load_peer;
use crate::net::{disk_bytes, extensional_payload, recover};
use crate::probe::{ProbeSink, SinkState};
use crate::system::{add_eval, add_stage, BenchResult, Counters, System, Tracker};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wdl_core::{Payload, ShardedRuntime, WBodyItem, WRule};
use wdl_datalog::{Symbol, Tuple};
use wdl_store::{DurabilityConfig, DurableStore};

const SHARDS: usize = 2;

pub struct InprocSystem {
    rt: ShardedRuntime,
    names: Vec<Symbol>,
    watcher: Symbol,
    swap_peer: Symbol,
    watched_rel: Symbol,
    query: Vec<WBodyItem>,
    store: DurableStore,
    /// One timing sink state for all peers; `None` in an untraced run.
    sink: Option<Arc<Mutex<SinkState>>>,
    budget: Budget,
    counters: Counters,
    rows: Rows,
}

struct Rows {
    tick: RowId,
    peek: RowId,
    apply: RowId,
    query: RowId,
    swap: RowId,
    recover: RowId,
    rejoin: RowId,
    read_back: RowId,
}

impl InprocSystem {
    pub fn setup(
        inputs: &Inputs,
        root: &Path,
        (mut budget, mut counters): (Budget, Counters),
    ) -> BenchResult<InprocSystem> {
        let trace = budget.on();
        let (load_row, attach_row) = (budget.row("setup.load"), budget.row("setup.attach"));
        let rows = Rows {
            tick: budget.row("tick"),
            peek: budget.row("peek_pending"),
            apply: budget.row("apply"),
            query: budget.row("query"),
            swap: budget.row("swap_rule"),
            recover: budget.row("restart.recover"),
            rejoin: budget.row("restart.rejoin"),
            read_back: budget.row("read_back"),
        };
        let mut store = DurableStore::new(DurabilityConfig::new(root));
        let mut rt = ShardedRuntime::new(SHARDS);
        let sink = trace.then(|| Arc::new(Mutex::new(SinkState::default())));

        let mut names = Vec::new();
        for program in &inputs.peers {
            let t = budget.begin();
            let peer = load_peer(program, trace.then_some(&mut counters))?;
            names.push(peer.name());
            rt.add_peer(peer).map_err(|e| format!("add_peer: {e}"))?;
            budget.end(load_row, t);
        }

        let t = budget.begin();
        let began = Instant::now();
        match &sink {
            None => store
                .attach_sharded(&mut rt)
                .map_err(|e| format!("attach: {e}"))?,
            Some(state) => {
                for &name in &names {
                    let engine = store.engine(name).map_err(|e| format!("engine: {e}"))?;
                    let sink = ProbeSink::new(engine, name, Arc::clone(state));
                    rt.with_peer_mut(name, move |p| {
                        p.set_durability(Box::new(sink));
                        p.sync_durability()
                    })
                    .ok_or("peer vanished")?
                    .map_err(|e| format!("attach: {e}"))?;
                }
            }
        }
        counters.attach_ns += began.elapsed().as_nanos() as u64;
        budget.end(attach_row, t);

        Ok(InprocSystem {
            rt,
            watcher: names[inputs.watcher],
            swap_peer: names[inputs.swap_peer],
            names,
            watched_rel: Symbol::intern(inputs.watched_rel),
            query: inputs.query.clone(),
            store,
            sink,
            budget,
            counters,
            rows,
        })
    }
}

impl System for InprocSystem {
    fn apply(&mut self, op: &Op) -> BenchResult<()> {
        let t = self.budget.begin();
        let mutation = op.mutation.clone();
        let changed = self
            .rt
            .with_peer_mut(self.names[op.peer], move |p| mutation.apply(p))
            .ok_or("unknown attendee")?
            .map_err(|e| format!("op: {e}"))?;
        self.budget.end(self.rows.apply, t);
        if !changed {
            return Err(format!("generated op was a no-op: {:?}", op.watch));
        }
        Ok(())
    }

    fn round(&mut self, tracker: &mut Tracker) -> BenchResult<bool> {
        // What is routed to the watcher now is what its stage ingests in
        // this tick; only these messages are read, never the relation.
        let t = self.budget.begin();
        let mut keys: Vec<Key> = Vec::new();
        for msg in self.rt.pending_messages(self.watcher) {
            if matches!(msg.payload, Payload::Facts { .. }) {
                crate::probe::scan(&msg, self.watched_rel, &mut keys);
            }
        }
        self.budget.end(self.rows.peek, t);

        let t = self.budget.begin();
        let began = Instant::now();
        let report = self.rt.tick().map_err(|e| format!("tick: {e}"))?;
        let ended = Instant::now();
        self.budget.end(self.rows.tick, t);
        tracker.visible(&keys, ended);

        let c = &mut self.counters;
        c.ticks += 1;
        c.tick_ns += (ended - began).as_nanos() as u64;
        c.peers_run += report.peers_run as u64;
        c.peers_offered += report.peers_total as u64;
        c.shard_deferred += report.deferred as u64;
        c.undeliverable += report.undeliverable as u64;
        c.stage_calls += report.peers_run as u64;
        for stats in report.stats.values() {
            add_stage(&mut c.stage, stats);
        }
        Ok(report.changed || report.messages > 0 || report.deferred > 0)
    }

    fn query(&mut self) -> BenchResult<usize> {
        let t = self.budget.begin();
        let query = self.query.clone();
        let rows = self
            .rt
            .with_peer(self.watcher, move |p| p.query(&query).map(|r| r.len()))
            .ok_or("watcher vanished")?
            .map_err(|e| format!("query: {e}"))?;
        self.budget.end(self.rows.query, t);
        Ok(rows)
    }

    fn swap_rule(&mut self, rule: WRule) -> BenchResult<()> {
        let t = self.budget.begin();
        self.rt
            .with_peer_mut(self.swap_peer, move |p| {
                let id = p.rules().first().map(|r| r.id);
                id.map(|id| p.replace_rule(id, rule))
            })
            .flatten()
            .ok_or("swap peer has no rule")?
            .map_err(|e| format!("replace_rule: {e}"))?;
        self.budget.end(self.rows.swap, t);
        Ok(())
    }

    fn restart_watcher(&mut self) -> BenchResult<u64> {
        let t = self.budget.begin();
        let began = Instant::now();
        drop(
            self.rt
                .remove_peer(self.watcher)
                .ok_or("watcher vanished")?,
        );
        let peer = recover(&mut self.store, self.watcher, self.sink.as_ref())?;
        self.counters.recover_ns += began.elapsed().as_nanos() as u64;
        self.budget.end(self.rows.recover, t);
        let disk = disk_bytes(&self.store, self.watcher);

        let t = self.budget.begin();
        self.rt
            .add_peer(peer)
            .map_err(|e| format!("add_peer: {e}"))?;
        self.budget.end(self.rows.rejoin, t);
        Ok(disk)
    }

    fn watcher_payload(&mut self) -> u64 {
        self.rt
            .with_peer(self.watcher, extensional_payload)
            .unwrap_or(0)
    }

    fn watched(&mut self) -> BenchResult<Vec<Tuple>> {
        let t = self.budget.begin();
        let mut rows = self
            .rt
            .relation_facts(self.watcher, self.watched_rel)
            .ok_or("watcher vanished")?;
        rows.sort();
        self.budget.end(self.rows.read_back, t);
        Ok(rows)
    }

    fn budget(&mut self) -> &mut Budget {
        &mut self.budget
    }

    fn counters(&mut self) -> &mut Counters {
        &mut self.counters
    }

    fn finish(mut self: Box<Self>) -> (Budget, Counters) {
        for &name in &self.names {
            if let Some(eval) = self.rt.with_peer(name, |p| p.cumulative_eval_stats()) {
                add_eval(&mut self.counters.eval, &eval);
            }
        }
        if let Some(sink) = &self.sink {
            self.counters
                .sink
                .absorb(&sink.lock().expect("sink state poisoned"));
        }
        self.counters.disk_bytes += crate::stats::dir_bytes(&self.store.config().root);
        self.counters.interned_values = wdl_datalog::intern::interned_count() as u64;
        (self.budget, self.counters)
    }
}
