//! What the driver needs from a system under test, and what it counts.
//!
//! Two systems implement [`System`]: the networked production composition
//! ([`crate::net::NetSystem`]) and the sharded in-process runtime
//! ([`crate::inproc::InprocSystem`]). The phases in [`crate::driver`] are
//! written once against the trait.

use crate::budget::Budget;
use crate::gen::{Key, Op};
use crate::probe::{ProbeState, SinkState};
use crate::spec::VISIBLE_TIMEOUT_S;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use wdl_core::{StageStats, WRule};
use wdl_datalog::Tuple;

pub type BenchResult<T> = Result<T, String>;

pub trait System {
    /// Applies one user mutation at its attendee.
    fn apply(&mut self, op: &Op) -> BenchResult<()>;

    /// Steps every peer once. Watched changes the watcher ingested are
    /// stamped in `tracker` as of the end of the watcher's own step.
    /// Returns whether anything happened or is still in flight.
    fn round(&mut self, tracker: &mut Tracker) -> BenchResult<bool>;

    /// Runs the canned query at the watcher; the number of rows.
    fn query(&mut self) -> BenchResult<usize>;

    /// `Peer::replace_rule` of the swap peer's first rule.
    fn swap_rule(&mut self, rule: WRule) -> BenchResult<()>;

    /// Drops the watcher, recovers it from its store directory and puts it
    /// back in the network. Returns the bytes under that directory right
    /// after recovery's re-checkpoint.
    fn restart_watcher(&mut self) -> BenchResult<u64>;

    /// User payload bytes the watcher's extensional relations hold.
    fn watcher_payload(&mut self) -> u64;

    /// The watched relation at the watcher, sorted.
    fn watched(&mut self) -> BenchResult<Vec<Tuple>>;

    fn budget(&mut self) -> &mut Budget;

    fn counters(&mut self) -> &mut Counters;

    /// Steps every peer `rounds` times without input and records each
    /// stage's time: the cost of an idle stage at the final state size.
    fn probe_idle_stages(&mut self, _rounds: usize) -> BenchResult<()> {
        Ok(())
    }

    /// Folds what the probes and peers accumulated into the counters and
    /// hands them over with the budget.
    fn finish(self: Box<Self>) -> (Budget, Counters);
}

struct Pending {
    due: Instant,
    round: u64,
}

/// The watched ops in flight and the latencies of those that arrived.
#[derive(Default)]
pub struct Tracker {
    pending: HashMap<Key, Pending>,
    pub latencies_ms: Vec<f64>,
    pub rounds_to_visible: Vec<f64>,
    pub timed_out: usize,
    pub round_no: u64,
}

impl Tracker {
    pub fn watch(&mut self, key: Key, due: Instant) {
        let round = self.round_no;
        self.pending.insert(key, Pending { due, round });
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Stamps the pending ops among `keys` visible at `at`; keys of no
    /// pending op (rule-change and resync traffic) are ignored.
    pub fn visible(&mut self, keys: &[Key], at: Instant) {
        for key in keys {
            if let Some(p) = self.pending.remove(key) {
                let late = at.saturating_duration_since(p.due);
                self.latencies_ms.push(late.as_secs_f64() * 1e3);
                self.rounds_to_visible
                    .push((self.round_no - p.round + 1) as f64);
            }
        }
    }

    /// Fails the ops that have waited longer than the visibility limit.
    pub fn expire(&mut self, now: Instant) {
        let limit = Duration::from_secs_f64(VISIBLE_TIMEOUT_S);
        let before = self.pending.len();
        self.pending
            .retain(|_, p| now.saturating_duration_since(p.due) < limit);
        self.timed_out += before - self.pending.len();
    }
}

/// Sums over a run, filled by the system and the driver and turned into
/// the per-layer metrics by [`crate::report`].
#[derive(Default)]
pub struct Counters {
    // parser / analyze / install, summed over the peers of the last set-up
    pub parse_ns: u64,
    pub src_bytes: u64,
    pub statements: u64,
    pub check_ns: u64,
    pub analyze_errors: u64,
    pub load_ns: u64,
    // core
    pub stage: StageStats,
    pub stage_ns: u64,
    pub stage_calls: u64,
    pub idle_stage_calls: u64,
    pub idle_stage_ns: u64,
    pub idle_probe_us: Vec<f64>,
    // datalog
    pub eval: wdl_datalog::EvalStats,
    // shard
    pub tick_ns: u64,
    pub ticks: u64,
    pub peers_run: u64,
    pub peers_offered: u64,
    pub shard_deferred: u64,
    // node
    pub step_ns: u64,
    /// Of `step_ns`, the time in the durability sink.
    pub step_sink_ns: u64,
    pub steps: u64,
    pub deferred_sends: u64,
    pub undeliverable: u64,
    // session / tcp
    pub upper: ProbeState,
    pub lower: ProbeState,
    pub retransmits: u64,
    pub dup_drops: u64,
    pub decode_errors: u64,
    pub unacked_peak: u64,
    pub overflow: u64,
    // store
    pub sink: SinkState,
    pub attach_ns: u64,
    pub recover_ns: u64,
    pub disk_bytes: u64,
    // driver
    pub late_ms: Vec<f64>,
    pub rounds: u64,
    pub interned_values: u64,
}

pub fn add_stage(sum: &mut StageStats, s: &StageStats) {
    sum.ingested_messages += s.ingested_messages;
    sum.applied_updates += s.applied_updates;
    sum.fixpoint_rounds += s.fixpoint_rounds;
    sum.derivations += s.derivations;
    sum.facts_out += s.facts_out;
    sum.delegations_out += s.delegations_out;
    sum.revocations_out += s.revocations_out;
    sum.rejected += s.rejected;
    sum.reads_blocked += s.reads_blocked;
}

pub fn add_eval(sum: &mut wdl_datalog::EvalStats, s: &wdl_datalog::EvalStats) {
    sum.iterations += s.iterations;
    sum.derivations += s.derivations;
    sum.facts_derived += s.facts_derived;
}

/// User payload bytes of a set of tuples: 8 per integer, 1 per boolean,
/// the length of strings and byte strings.
pub fn payload_bytes<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> u64 {
    use wdl_datalog::Value;
    tuples
        .into_iter()
        .flat_map(|t| t.iter())
        .map(|v| match v {
            Value::Int(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() as u64,
            Value::Bytes(b) => b.len() as u64,
        })
        .sum()
}
