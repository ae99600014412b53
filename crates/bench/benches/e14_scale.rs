//! E14 — sharded scale-out on the publish-burst macro-workload (ISSUE 6).
//!
//! The scenario: a conference network of 10⁵ registered attendee peers,
//! each carrying the §4 publish rule into one hub registry, of which only
//! a few hundred actually publish. The reference `LocalRuntime` ticks
//! every registered peer every round — O(total) — while `ShardedRuntime`
//! schedules by inbox and runs only the publishers and the hub —
//! O(active). This bench pins that difference:
//!
//! * **`scale_independence`** (gated): the ratio of burst-cycle latency
//!   at 10⁴ total peers to the same burst at 10⁵ total peers, identical
//!   active set — the median of per-pair ratios over interleaved burst
//!   blocks on the two runtimes, both alive, with the order alternating
//!   and the same number of pairs in quick and full runs. Inbox-driven
//!   scheduling makes round cost a function of the active set, so the
//!   ratio sits near 1.0; a runtime that pays per registered peer drags
//!   it toward 0.1.
//! * **`active_set_speedup`** (informational): a full sequential
//!   `LocalRuntime::tick` at 10⁵ peers versus the sharded active round —
//!   the headline O(total)/O(active) gap. Machine-dependent in absolute
//!   terms, so recorded but not gated.
//! * **Convergence oracle**: the sharded run's final hub registry must
//!   equal the sequential reference's after identical batches — scale
//!   must not buy divergence. Runs at the full 10⁵ scale in quick mode
//!   too (the workload scale is the same in quick and full runs, repo
//!   convention, so gate ratios compare like for like).
//! * **`tracing_overhead`** (gated by ceiling): burst latency with the
//!   ISSUE 7 trace pipeline on versus off at the 10⁴ scale — the median
//!   of pairwise ratios over alternating traced/untraced burst *cycles*
//!   (burst tick through quiescence, state held stationary by per-sample
//!   cleanup), which isolates the tracer from machine drift and state
//!   growth. The profiled pass also prints `profile:`-prefixed top-rule
//!   and critical-path lines for the CI job summary and asserts the
//!   longest program-activity chain runs through the fan-in hub.
//!
//! Per-round observability (active-peer fraction, routed messages, round
//! latency) is printed and recorded into `BENCH_e14_scale.json` for the
//! CI job summary.

use std::hint::black_box;
use wdl_bench::quick;
use wdl_core::runtime::LocalRuntime;
use wdl_core::shard::ShardedRuntime;
use wdl_datalog::{Tuple, Value};
use wdl_net::sim::SimOp;
use wepic::scenarios;

const SEED: u64 = 42;
/// Total registered peers for the headline run (the ISSUE's 10⁵ floor).
const TOTAL: usize = 100_000;
/// The smaller network for the scale-independence ratio.
const SMALL: usize = 10_000;
/// Publishers actually uploading — the active set.
const ACTIVE: usize = 500;
const PER: usize = 2;
const BATCHES: usize = 2;
const SHARDS: usize = 4;
const QUIESCE_ROUNDS: usize = 64;
/// Interleaved 10⁴/10⁵ block pairs behind `scale_independence`, in quick
/// and full runs alike.
const SCALE_PAIRS: usize = 15;
/// Burst cycles per timed block.
const CYCLES: usize = 4;

/// Applies one scenario batch to a sharded runtime.
fn apply_batch(rt: &mut ShardedRuntime, batch: &[(wdl_datalog::Symbol, SimOp)]) {
    for (peer, op) in batch {
        match op.clone() {
            SimOp::Insert { rel, tuple } => {
                rt.insert_local(*peer, rel, tuple).expect("insert");
            }
            SimOp::Delete { rel, tuple } => {
                rt.delete_local(*peer, rel, tuple).expect("delete");
            }
        }
    }
}

fn quiesce_sharded(rt: &mut ShardedRuntime) -> usize {
    for round in 1..=QUIESCE_ROUNDS {
        let tick = rt.tick().expect("tick");
        if !tick.changed && tick.messages == 0 && tick.deferred == 0 {
            return round;
        }
    }
    panic!("sharded runtime did not quiesce in {QUIESCE_ROUNDS} rounds");
}

/// Builds the scenario network in a sharded runtime and runs all batches
/// to quiescence. Returns the runtime plus headline counters from the
/// first post-batch round (the maximally active one).
fn converge_sharded(total: usize) -> (ShardedRuntime, ShardReportSummary) {
    let scenario = scenarios::publish_burst(SEED, total, ACTIVE, PER, BATCHES);
    let mut rt = ShardedRuntime::new(SHARDS);
    rt.set_collect_stats(false);
    for p in (scenario.build)() {
        rt.add_peer(p).expect("unique peer names");
    }
    quiesce_sharded(&mut rt);
    let mut summary = ShardReportSummary::default();
    for batch in &scenario.batches {
        apply_batch(&mut rt, batch);
        let first = rt.tick().expect("tick");
        summary.active_peers = summary.active_peers.max(first.peers_run);
        summary.active_fraction = summary.active_fraction.max(first.active_fraction());
        summary.routed = summary.routed.max(first.messages);
        quiesce_sharded(&mut rt);
    }
    (rt, summary)
}

#[derive(Default)]
struct ShardReportSummary {
    active_peers: usize,
    active_fraction: f64,
    routed: usize,
}

/// The picture each publisher uploads for one (tag, sample) burst:
/// `(peer name, tuple)` pairs, ids unique per (tag, sample).
fn burst_pics(total: usize, tag: u32, sample: usize) -> Vec<(String, Vec<Value>)> {
    let stride = (total / ACTIVE).max(1);
    (0..ACTIVE)
        .map(|i| {
            let name = format!("burstAtt{}", i * stride + i % stride);
            let id = 1_000_000 + (tag as i64) * 1_000_000 + (sample * ACTIVE + i) as i64;
            let tuple = vec![
                Value::from(id),
                Value::from(format!("burst-{id}.jpg")),
                Value::from(name.as_str()),
                Value::bytes(&[0xEE; 8]),
            ];
            (name, tuple)
        })
        .collect()
}

/// One full burst cycle: every publisher uploads one fresh picture, one
/// tick runs them all (returned as the timed round), the burst drains to
/// quiescence, and the pictures are deleted again (retraction quiesced).
/// The cleanup keeps the publishers' local state — the timed round's
/// input — **stationary** across samples: without it each sample leaves
/// one more picture per publisher and the publishers' stage cost (their
/// remote-head rule is re-evaluated over every local picture each stage)
/// creeps up by ~10% per sample, drowning any cross-sample comparison
/// (tracing overhead, scale independence) in monotone drift. `sample`
/// must be unique per (tag, call) for fresh photo ids.
fn burst_sample(rt: &mut ShardedRuntime, tag: u32, sample: usize) -> u128 {
    let pics = burst_pics(rt.len() - 1, tag, sample);
    for (name, tuple) in &pics {
        rt.insert_local(name.as_str(), "pictures", tuple.clone())
            .expect("burst insert");
    }
    let t0 = std::time::Instant::now();
    let tick = rt.tick().expect("tick");
    let elapsed = t0.elapsed().as_nanos();
    assert_eq!(tick.peers_run, ACTIVE, "exactly the publishers run");
    black_box(tick.messages);
    quiesce_sharded(rt);
    for (name, tuple) in pics {
        rt.delete_local(name.as_str(), "pictures", tuple)
            .expect("burst cleanup");
    }
    quiesce_sharded(rt);
    elapsed
}

/// `cycles` consecutive burst cycles (insert → burst tick → quiesce →
/// cleanup → quiesce) under **one** timed region tens of milliseconds
/// long. A single burst round is a few milliseconds on this workload and
/// container scheduling can swing an individual round by a third either
/// way; a block this long averages the fast noise down far enough that
/// block-to-block ratios resolve a sub-15% effect.
fn burst_block(rt: &mut ShardedRuntime, tag: u32, sample0: usize, cycles: usize) -> u128 {
    let t0 = std::time::Instant::now();
    for j in 0..cycles {
        let pics = burst_pics(rt.len() - 1, tag, sample0 + j);
        for (name, tuple) in &pics {
            rt.insert_local(name.as_str(), "pictures", tuple.clone())
                .expect("burst insert");
        }
        let tick = rt.tick().expect("tick");
        assert_eq!(tick.peers_run, ACTIVE, "exactly the publishers run");
        black_box(tick.messages);
        quiesce_sharded(rt);
        for (name, tuple) in pics {
            rt.delete_local(name.as_str(), "pictures", tuple)
                .expect("burst cleanup");
        }
        quiesce_sharded(rt);
    }
    t0.elapsed().as_nanos()
}

/// Min wall time of the *active* round of a publish burst over `runs`
/// samples. Min, not median: publisher state grows by one picture per
/// sample round and allocator/page noise only ever adds time, so the
/// fastest sample is the cleanest estimate of the round's intrinsic
/// cost.
fn burst_round_ns(rt: &mut ShardedRuntime, runs: usize, tag: u32) -> u128 {
    (0..runs)
        .map(|run| burst_sample(rt, tag, run))
        .min()
        .expect("at least one sample")
}

/// The **median of pairwise ratios** `a / b` over `pairs` pairs of timed
/// blocks, `block(true)` timing an `a` block and `block(false)` a `b`
/// one, and the fastest `a` block. The two blocks of a pair alternate in
/// ping-pong order so slow machine phases land on both sides alike, and
/// the median of per-pair ratios discards the pairs a noise spike still
/// hit. (Separate passes measured minutes apart drift by more than the
/// effects measured here.) One untimed warm-up pair goes first: it grows
/// buffers and tables from empty, a one-off cost that is not the steady
/// state under test.
fn paired_ratio(pairs: usize, mut block: impl FnMut(bool) -> u128) -> (f64, u128) {
    let mut ratios = Vec::with_capacity(pairs);
    let mut a_min = u128::MAX;
    for pair in 0..pairs + 1 {
        let a_first = pair % 2 == 0;
        let mut t = [0u128; 2]; // [b, a]
        for slot in 0..2 {
            let a = (slot == 0) == a_first;
            t[usize::from(a)] = block(a);
        }
        if pair > 0 {
            ratios.push(t[1] as f64 / t[0] as f64);
            a_min = a_min.min(t[1]);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    (median, a_min)
}

/// Tracing overhead: [`paired_ratio`] over traced/untraced burst blocks
/// ([`burst_block`]) on one runtime. Returns the ratio and the fastest
/// traced block, normalised to one cycle.
fn paired_tracing_overhead(rt: &mut ShardedRuntime, pairs: usize, tag: u32) -> (f64, u128) {
    let mut sample = 0usize;
    let (ratio, traced_min) = paired_ratio(pairs, |traced| {
        rt.set_tracing(traced);
        let t = burst_block(rt, tag, sample, CYCLES);
        sample += CYCLES;
        t
    });
    (ratio, traced_min / CYCLES as u128)
}

/// Scale independence: [`paired_ratio`] over burst blocks on the 10⁴-peer
/// runtime against the 10⁵-peer one, both alive, so a pair's two blocks
/// run seconds apart at most.
fn paired_scale_independence(
    small: &mut ShardedRuntime,
    large: &mut ShardedRuntime,
    tag: u32,
) -> f64 {
    let mut sample = 0usize;
    let (ratio, _) = paired_ratio(SCALE_PAIRS, |is_small| {
        let rt = if is_small { &mut *small } else { &mut *large };
        let t = burst_block(rt, tag, sample, CYCLES);
        sample += CYCLES;
        t
    });
    ratio
}

/// The sequential reference at full scale: converge the same scenario on
/// `LocalRuntime`, return the hub registry (the convergence oracle) and
/// the median wall time of one full settled round (every peer ticked).
fn reference_state_and_round_ns(runs: usize) -> (Vec<Tuple>, u128) {
    let scenario = scenarios::publish_burst(SEED, TOTAL, ACTIVE, PER, BATCHES);
    let mut rt = LocalRuntime::new();
    for p in (scenario.build)() {
        rt.add_peer(p).expect("unique peer names");
    }
    rt.run_to_quiescence(QUIESCE_ROUNDS).expect("quiesce");
    for batch in &scenario.batches {
        for (peer, op) in batch {
            match op.clone() {
                SimOp::Insert { rel, tuple } => {
                    rt.peer_mut(*peer)
                        .expect("peer")
                        .insert_local(rel, tuple)
                        .expect("insert");
                }
                SimOp::Delete { rel, tuple } => {
                    rt.peer_mut(*peer)
                        .expect("peer")
                        .delete_local(rel, tuple)
                        .expect("delete");
                }
            }
        }
        let report = rt.run_to_quiescence(QUIESCE_ROUNDS).expect("quiesce");
        assert!(report.quiescent, "reference must converge");
    }
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = std::time::Instant::now();
        let tick = rt.tick().expect("tick");
        samples.push(t0.elapsed().as_nanos());
        assert!(!tick.changed, "settled");
    }
    samples.sort();
    let median = samples[samples.len() / 2];
    let mut hub = rt.peer("burstHub").expect("hub").relation_facts("pictures");
    hub.sort();
    (hub, median)
}

fn main() {
    let mut c = wdl_bench::criterion();
    let runs = if quick() { 5 } else { 15 };

    println!("E14: sharded scale-out on the publish-burst macro-workload");
    println!(
        "workload: {TOTAL} registered peers, {ACTIVE} publishers x {PER} \
         pictures x {BATCHES} batches, {SHARDS} shards"
    );

    // --- Full-scale sharded run + convergence oracle -------------------
    let (mut large, summary) = converge_sharded(TOTAL);
    let mut sharded_hub = large
        .relation_facts("burstHub", "pictures")
        .expect("hub exists");
    sharded_hub.sort();
    assert_eq!(
        sharded_hub.len(),
        ACTIVE * PER * BATCHES,
        "every upload reaches the registry"
    );

    let large_round_ns = burst_round_ns(&mut large, runs, 1);
    let (mut small, _) = converge_sharded(SMALL);
    let small_round_ns = burst_round_ns(&mut small, runs, 2);
    let scale_independence = paired_scale_independence(&mut small, &mut large, 5);
    drop(large);

    // --- Profiled pass: the same burst with tracing on -----------------
    // On the converged 10⁴ runtime (its burst cycles leave it as they
    // found it), paired traced/untraced sampling pins the pipeline's
    // overhead (bench-gate ceilings it); a final profiled burst builds the
    // aggregate for the "profile:" summary CI publishes. Twice `runs`
    // pairs of stationary blocks, to shake off scheduler noise that can
    // swing an individual burst round by a third either way.
    let (tracing_overhead, traced_round_ns) = paired_tracing_overhead(&mut small, runs * 2, 3);
    small.set_tracing(true);
    for sample in 0..3 {
        burst_sample(&mut small, 4, sample);
    }
    {
        let agg = small.trace().expect("tracing enabled");
        for (label, stat) in agg.top_rules(5) {
            println!(
                "profile: rule {label} calls={} total_ms={:.3} mean_us={:.1} derived={}",
                stat.hist.count(),
                stat.hist.sum_ns() as f64 / 1e6,
                stat.hist.mean_ns() as f64 / 1e3,
                stat.derived,
            );
        }
        let paths = agg.critical_paths(3);
        for (i, path) in paths.iter().enumerate() {
            let chain: Vec<String> = path
                .nodes
                .iter()
                .map(|n| format!("{}@{}", n.peer, n.stage))
                .collect();
            println!(
                "profile: critpath[{i}] total_ms={:.3} len={} {}",
                path.total_ns as f64 / 1e6,
                path.nodes.len(),
                chain.join(" -> ")
            );
        }
        // Acceptance criterion (ISSUE 7): on the publish-burst workload
        // the longest program-activity chain runs through the hub — the
        // fan-in peer is the bottleneck the critical path must name.
        let top = paths.first().expect("burst produced stage executions");
        assert!(
            top.nodes.iter().any(|n| n.peer.to_string() == "burstHub"),
            "critical path must run through the fan-in hub, got: {top:?}"
        );
    }
    drop(small);

    // Oracle: the sequential reference over the same batches must agree
    // on the hub registry (burst_round_ns uploads extra pictures, so
    // compare the pre-burst converged prefix).
    let (reference_hub, local_round_ns) = reference_state_and_round_ns(runs.min(5));
    assert!(
        sharded_hub.iter().all(|t| reference_hub.contains(t))
            && reference_hub.len() >= sharded_hub.len(),
        "sharded registry must match the sequential reference"
    );
    assert_eq!(
        reference_hub.len(),
        sharded_hub.len(),
        "sharded and reference registries must be identical"
    );

    // --- Metrics -------------------------------------------------------
    let active_set_speedup = local_round_ns as f64 / large_round_ns as f64;

    println!("| measure                        | value |");
    println!("|--------------------------------|-------|");
    println!(
        "| burst round @ {SMALL:>6} peers     | {:>8.2}ms |",
        small_round_ns as f64 / 1e6
    );
    println!(
        "| burst round @ {TOTAL:>6} peers     | {:>8.2}ms |",
        large_round_ns as f64 / 1e6
    );
    println!(
        "| full sequential round @ {TOTAL} | {:>8.2}ms |",
        local_round_ns as f64 / 1e6
    );
    println!("| scale_independence (10^4/10^5) | {scale_independence:>6.2}x |");
    println!("| active_set_speedup (seq/shard) | {active_set_speedup:>6.1}x |");
    println!(
        "| active peers / fraction        | {} / {:.4} |",
        summary.active_peers, summary.active_fraction
    );
    println!("| peak routed msgs per round     | {} |", summary.routed);
    println!(
        "| traced burst cycle @ {SMALL:>6}   | {:>8.2}ms |",
        traced_round_ns as f64 / 1e6
    );
    println!("| tracing_overhead (traced/not)  | {tracing_overhead:>6.3}x |");

    c.record_metric("scale_independence", scale_independence);
    c.record_metric("active_set_speedup", active_set_speedup);
    c.record_metric("peers_total", TOTAL as f64);
    c.record_metric("active_peers", summary.active_peers as f64);
    c.record_metric("active_fraction", summary.active_fraction);
    c.record_metric("routed_msgs_peak", summary.routed as f64);
    c.record_metric("burst_round_ms_100k", large_round_ns as f64 / 1e6);
    c.record_metric("burst_round_ms_10k", small_round_ns as f64 / 1e6);
    c.record_metric("seq_round_ms_100k", local_round_ns as f64 / 1e6);
    c.record_metric("traced_cycle_ms_10k", traced_round_ns as f64 / 1e6);
    c.record_metric("tracing_overhead", tracing_overhead);

    if !quick() {
        assert!(
            scale_independence >= 0.5,
            "ISSUE 6 headline: sharded round cost must track the active \
             set, not total peers (10^4 vs 10^5 ratio {scale_independence:.2})"
        );
        assert!(
            active_set_speedup >= 5.0,
            "sharded active round must beat the full sequential sweep \
             (measured {active_set_speedup:.1}x)"
        );
    }

    c.final_summary();
}
