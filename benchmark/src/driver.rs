//! One run of one workload: a number of epochs, each of which sets a system
//! up, runs the paced phase, a rule-change cycle, the saturation phase and
//! a restart on it, and verifies it. Written once against [`System`].
//!
//! Op counts come from the spec and `--seconds`, never from the clock, so
//! two runs of the same workload and seed do identical work.

use crate::budget::Budget;
use crate::gen::{generate, Inputs, Op};
use crate::inproc::InprocSystem;
use crate::net::NetSystem;
use crate::oracle;
use crate::spec::{Sizes, Spec, RULE_CYCLES_PER_EPOCH};
use crate::stats::peak_rss_mib;
use crate::system::{BenchResult, Counters, System, Tracker};
use std::path::Path;
use std::time::{Duration, Instant};
use wdl_datalog::Tuple;

/// Consecutive rounds without activity that count as quiescence. Work in
/// flight keeps a session's `pending_work` above zero, so a quiet round
/// cannot hide a message on the wire.
const QUIET_ROUNDS: usize = 2;
const QUIESCE_LIMIT: Duration = Duration::from_secs(60);

/// Rounds of the traced run's idle-stage probe.
const IDLE_PROBE_ROUNDS: usize = 20;

/// What one run measured. Times are in the unit their name says.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub paced_latency_ms: Vec<f64>,
    pub paced_rounds_to_visible: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub sat_ops: usize,
    pub sat_s: f64,
    /// Ops per second of each epoch's saturation slice.
    pub sat_rates: Vec<f64>,
    /// Per rule-change cycle, the mean time of one swap.
    pub rule_cycle_ms: Vec<f64>,
    pub restart_s: Vec<f64>,
    pub peak_rss_mib: f64,
    pub watcher_disk_bytes: u64,
    pub watcher_payload_bytes: u64,
    pub watched_rows: usize,
    pub paced_issued: usize,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub paced_s: f64,
    pub rule_s: f64,
    pub restarts_s: f64,
}

impl Measured {
    /// Wall-clock of the phases whose length the system decides (rule
    /// changes, saturation, restarts); traced ÷ untraced of this is the
    /// trace overhead.
    pub fn elastic_s(&self) -> f64 {
        self.rule_s + self.sat_s + self.restarts_s
    }
}

pub struct Outcome {
    pub m: Measured,
    pub budget: Budget,
    pub counters: Counters,
}

fn build(
    inputs: &Inputs,
    root: &Path,
    seed: u64,
    totals: (Budget, Counters),
) -> BenchResult<Box<dyn System>> {
    Ok(if inputs.spec.inproc {
        Box::new(InprocSystem::setup(inputs, root, totals)?)
    } else {
        Box::new(NetSystem::setup(inputs, root, seed, totals)?)
    })
}

/// One round, counted.
fn round(sys: &mut dyn System, tracker: &mut Tracker) -> BenchResult<bool> {
    tracker.round_no += 1;
    sys.counters().rounds += 1;
    sys.round(tracker)
}

/// Rounds until the network is quiet. Returns the end of the last round in
/// which anything happened.
pub fn quiesce(sys: &mut dyn System, tracker: &mut Tracker) -> BenchResult<Instant> {
    let began = Instant::now();
    let mut last_active = began;
    let mut quiet = 0;
    while quiet < QUIET_ROUNDS {
        if round(sys, tracker)? {
            quiet = 0;
            last_active = Instant::now();
        } else {
            quiet += 1;
        }
        if began.elapsed() > QUIESCE_LIMIT {
            return Err("network failed to quiesce within 60 s".into());
        }
    }
    Ok(last_active)
}

fn issue(sys: &mut dyn System, tracker: &mut Tracker, op: &Op, due: Instant) -> BenchResult<()> {
    sys.apply(op)?;
    if let Some(key) = op.watch {
        tracker.watch(key, due);
    }
    Ok(())
}

/// Open loop: op `i` is due at `t0 + i/rate` and its latency counts from
/// then, however late the generator got to it.
fn paced(sys: &mut dyn System, spec: &Spec, ops: &[Op], out: &mut Measured) -> BenchResult<()> {
    let rate = spec.paced_rate;
    let wait_row = sys.budget().row("paced_wait");
    let mut tracker = Tracker::default();
    let t0 = Instant::now();
    let due_of = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let mut next = 0;
    loop {
        while next < ops.len() {
            let (due, now) = (due_of(next), Instant::now());
            if due > now {
                break;
            }
            let late = (now - due).as_secs_f64() * 1e3;
            sys.counters().late_ms.push(late);
            issue(sys, &mut tracker, &ops[next], due)?;
            next += 1;
            out.paced_issued += 1;
            if out.paced_issued.is_multiple_of(spec.query_every) {
                let t = Instant::now();
                sys.query()?;
                out.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let active = round(sys, &mut tracker)?;
        tracker.expire(Instant::now());
        if active || tracker.outstanding() > 0 {
            continue;
        }
        if next == ops.len() {
            break;
        }
        // Nothing for any peer to do before the next op is due.
        let t = sys.budget().begin();
        let due = due_of(next);
        if let Some(d) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(d.saturating_sub(Duration::from_micros(100)));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        sys.budget().end(wait_row, t);
    }
    out.paced_s += t0.elapsed().as_secs_f64();
    out.failed += tracker.timed_out;
    out.paced_latency_ms.extend(tracker.latencies_ms);
    out.paced_rounds_to_visible
        .extend(tracker.rounds_to_visible);
    Ok(())
}

/// Closed loop: `window` watched ops in flight, topped up every round. The
/// clock stops when the last op is visible.
fn saturate(
    sys: &mut dyn System,
    ops: &[Op],
    window: usize,
    out: &mut Measured,
) -> BenchResult<()> {
    let mut tracker = Tracker::default();
    let t0 = Instant::now();
    let mut next = 0;
    while next < ops.len() || tracker.outstanding() > 0 {
        while next < ops.len() && tracker.outstanding() < window {
            issue(sys, &mut tracker, &ops[next], Instant::now())?;
            next += 1;
        }
        round(sys, &mut tracker)?;
        tracker.expire(Instant::now());
    }
    let took = t0.elapsed().as_secs_f64();
    out.sat_s += took;
    out.sat_ops += ops.len();
    out.sat_rates.push(ops.len() as f64 / took);
    out.failed += tracker.timed_out;
    quiesce(sys, &mut tracker)?;
    Ok(())
}

/// One rule-change cycle: swaps the rule through its variants and back,
/// timing each swap until the last round in which the network still had
/// something to do.
fn rule_cycle(sys: &mut dyn System, inputs: &Inputs, out: &mut Measured) -> BenchResult<()> {
    let mut tracker = Tracker::default();
    let t0 = Instant::now();
    let mut swap_ms = 0.0;
    for rule in &inputs.swap_cycle {
        let began = Instant::now();
        sys.swap_rule(rule.clone())?;
        let settled = quiesce(sys, &mut tracker)?;
        swap_ms += (settled - began).as_secs_f64() * 1e3;
    }
    out.rule_cycle_ms
        .push(swap_ms / inputs.swap_cycle.len() as f64);
    out.rule_s += t0.elapsed().as_secs_f64();
    Ok(())
}

/// Phase 5: the watcher dies and comes back from its store directory. What
/// it shows once the network is quiet again must be what it showed before.
fn restart(sys: &mut dyn System, out: &mut Measured) -> BenchResult<(Vec<Tuple>, bool)> {
    let before = sys.watched()?;
    let began = Instant::now();
    out.watcher_disk_bytes = sys.restart_watcher()?;
    quiesce(sys, &mut Tracker::default())?;
    let after = sys.watched()?;
    let took = began.elapsed().as_secs_f64();
    out.restart_s.push(took);
    out.restarts_s += took;
    let same = before == after;
    Ok((after, same))
}

/// One epoch: all five phases on a system of its own, then the oracle.
/// `totals` carries the traced run's budget and counters from epoch to
/// epoch.
fn epoch(
    inputs: &Inputs,
    root: &Path,
    seed: u64,
    totals: (Budget, Counters),
    out: &mut Measured,
) -> BenchResult<(Budget, Counters)> {
    let trace = totals.0.on();
    out.attempted += inputs.paced.len() + inputs.sat.len();

    let began = Instant::now();
    let mut system = build(inputs, root, seed, totals)?;
    let sys = system.as_mut();
    quiesce(sys, &mut Tracker::default())?;
    out.setup_s.push(began.elapsed().as_secs_f64());

    paced(sys, &inputs.spec, &inputs.paced, out)?;
    for _ in 0..RULE_CYCLES_PER_EPOCH {
        rule_cycle(sys, inputs, out)?;
    }
    saturate(sys, &inputs.sat, inputs.spec.window, out)?;
    let (view, survived) = restart(sys, out)?;

    // The epoch's measured part ends here; what follows reads results out
    // and checks them, and is not the run's wall-clock.
    let paused = Instant::now();
    out.peak_rss_mib = peak_rss_mib();
    out.watcher_payload_bytes = sys.watcher_payload();
    out.watched_rows = view.len();
    if trace {
        sys.probe_idle_stages(IDLE_PROBE_ROUNDS)?;
    }
    let (mut budget, counters) = system.finish();

    // The oracle: the same programs and op stream on a `LocalRuntime`.
    let correct = survived && view == oracle::reference(inputs)?;
    budget.resume(paused);
    out.correct &= correct;
    if !correct {
        out.failed = out.attempted;
    }
    Ok((budget, counters))
}

/// Runs the workload once: one epoch per element of `epochs`, each in a
/// fresh directory under `root`.
pub fn run(epochs: &[Inputs], root: &Path, seed: u64, trace: bool) -> BenchResult<Outcome> {
    let mut out = Measured {
        correct: true,
        ..Measured::default()
    };
    let mut totals = (Budget::new(trace), Counters::default());
    for (e, inputs) in epochs.iter().enumerate() {
        totals = epoch(
            inputs,
            &root.join(format!("epoch{e}")),
            seed,
            totals,
            &mut out,
        )?;
    }
    let (mut budget, counters) = totals;
    budget.stop();
    Ok(Outcome {
        m: out,
        budget,
        counters,
    })
}

/// The inputs of a run's epochs: same spec and sizes, a seed each.
pub fn epoch_inputs(spec: &Spec, sizes: Sizes, epochs: usize, seed: u64) -> Vec<Inputs> {
    (0..epochs as u64)
        .map(|e| generate(spec, sizes, seed.wrapping_mul(1_000_003).wrapping_add(e)))
        .collect()
}
