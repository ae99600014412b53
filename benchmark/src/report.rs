//! Turning what a run measured into the named metrics, the budget table
//! and the one JSON line the driver reads.

use crate::budget::Budget;
use crate::driver::Outcome;
use crate::spec::{END_TO_END, PER_LAYER, SEGMENT_MIN_SAMPLES};
use crate::stats::{median, ms, percentile, segmented_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use wdl_core::Message;
use wdl_net::codec;

pub type Metrics = BTreeMap<&'static str, f64>;

pub fn end_to_end(o: &Outcome) -> Metrics {
    let m = &o.m;
    let mut out = Metrics::new();
    out.insert("setup_s", median(&m.setup_s));
    out.insert("ops_per_s", median(&m.sat_rates));
    for (name, q) in [("visible_p50_ms", 0.5), ("visible_p95_ms", 0.95)] {
        out.insert(
            name,
            segmented_percentile(&m.paced_latency_ms, SEGMENT_MIN_SAMPLES, q),
        );
    }
    out.insert("query_p50_ms", median(&m.query_ms));
    out.insert("rule_change_p50_ms", median(&m.rule_cycle_ms));
    out.insert("restart_s", median(&m.restart_s));
    out.insert("peak_rss_mb", m.peak_rss_mib);
    out.insert(
        "disk_amp",
        m.watcher_disk_bytes as f64 / m.watcher_payload_bytes.max(1) as f64,
    );
    out
}

/// Replays `codec::encode` / `decode` over the sampled messages. Returns
/// `(encode ns, decode ns, encoded bytes, messages)` over all passes.
fn replay_codec(samples: &[Message]) -> (u64, u64, u64, u64) {
    const PASSES: u64 = 5;
    let (mut enc_ns, mut dec_ns, mut bytes) = (0u64, 0u64, 0u64);
    for _ in 0..PASSES {
        let t = Instant::now();
        let encoded: Vec<_> = samples.iter().map(codec::encode).collect();
        enc_ns += t.elapsed().as_nanos() as u64;
        bytes += encoded.iter().map(|b| b.len() as u64).sum::<u64>();
        let t = Instant::now();
        for b in &encoded {
            std::hint::black_box(codec::decode(b).is_ok());
        }
        dec_ns += t.elapsed().as_nanos() as u64;
    }
    (enc_ns, dec_ns, bytes, PASSES * samples.len() as u64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. `trace_overhead` is the traced
/// run's elastic wall-clock over the untraced run's.
pub fn per_layer(o: &Outcome, trace_overhead: f64) -> Metrics {
    let (c, m, b) = (&o.counters, &o.m, &o.budget);
    let mut out = Metrics::new();
    let mut put = |name: &'static str, v: f64| {
        out.insert(name, v);
    };

    put("parser.parse_ms", ms(c.parse_ns));
    put("parser.src_bytes", c.src_bytes as f64);
    put("parser.statements", c.statements as f64);
    put("analyze.check_ms", ms(c.check_ns));
    put("analyze.errors", c.analyze_errors as f64);
    put(
        "core.install_ms",
        ms(c.load_ns.saturating_sub(c.parse_ns + c.check_ns)),
    );

    put("core.stage_ms", ms(c.stage_ns));
    put("core.stage_calls", c.stage_calls as f64);
    put("core.idle_stage_calls", c.idle_stage_calls as f64);
    put("core.idle_stage_ms", ms(c.idle_stage_ns));
    put("core.idle_stage_us_p50", median(&c.idle_probe_us));
    put(
        "core.useful_stage_frac",
        ratio(
            (c.stage_calls - c.idle_stage_calls) as f64,
            c.stage_calls as f64,
        ),
    );
    put("core.fixpoint_rounds", c.stage.fixpoint_rounds as f64);
    put("core.derivations", c.stage.derivations as f64);
    put("core.facts_out", c.stage.facts_out as f64);
    put("core.delegations_out", c.stage.delegations_out as f64);
    put("core.revocations_out", c.stage.revocations_out as f64);
    put("core.rejected", c.stage.rejected as f64);
    put("core.query_ms_p50", median(&m.query_ms));

    put("datalog.iterations", c.eval.iterations as f64);
    put("datalog.derivations", c.eval.derivations as f64);
    put("datalog.facts_derived", c.eval.facts_derived as f64);
    put("datalog.interned_values", c.interned_values as f64);

    put("shard.tick_ms", ms(c.tick_ns));
    put("shard.ticks", c.ticks as f64);
    put("shard.peers_run", c.peers_run as f64);
    put(
        "shard.active_frac",
        ratio(c.peers_run as f64, c.peers_offered as f64),
    );
    put("shard.deferred", c.shard_deferred as f64);

    put("node.step_ms", ms(c.step_ns));
    put("node.steps", c.steps as f64);
    put("node.deferred_sends", c.deferred_sends as f64);
    put("node.undeliverable", c.undeliverable as f64);

    // Self times: the session layer's is what the probe above it saw minus
    // what the probe below it saw. Everything but `send` (drain, events,
    // watermarks, the ack flush of `commit_delivered`) counts as drain.
    let session_ns = c.upper.total_ns().saturating_sub(c.lower.total_ns());
    put("session.send_ms", ms(c.upper.send_self_ns));
    put(
        "session.drain_ms",
        ms(session_ns.saturating_sub(c.upper.send_self_ns)),
    );
    put("session.data_frames", c.lower.frames_by_tag[0] as f64);
    put("session.ack_frames", c.lower.frames_by_tag[1] as f64);
    put("session.retransmits", c.retransmits as f64);
    put("session.dup_drops", c.dup_drops as f64);
    put("session.decode_errors", c.decode_errors as f64);
    put("session.unacked_peak", c.unacked_peak as f64);

    // Wire bytes are estimated from every 16th frame handed to TCP: its
    // codec encoding plus the 4-byte length prefix.
    let (_, _, wire_bytes, wire_msgs) = replay_codec(&c.lower.samples);
    let bytes_out = ratio(wire_bytes as f64, wire_msgs as f64) + 4.0;
    let bytes_out = bytes_out * c.lower.sent as f64;
    put("tcp.send_ms", ms(c.lower.send_ns));
    put("tcp.drain_ms", ms(c.lower.drain_ns + c.lower.other_ns));
    put("tcp.frames_out", c.lower.sent as f64);
    put("tcp.frames_in", c.lower.drained as f64);
    put(
        "tcp.bytes_out",
        if c.lower.sent > 0 { bytes_out } else { 0.0 },
    );
    put(
        "tcp.bytes_per_op",
        if c.lower.sent > 0 {
            bytes_out / m.attempted as f64
        } else {
            0.0
        },
    );
    put("tcp.overflow", c.overflow as f64);

    // The codec's own work, replayed over every 16th application message
    // the session layer was asked to send.
    let (enc_ns, dec_ns, bytes, msgs) = replay_codec(&c.upper.samples);
    put(
        "codec.encode_us_per_msg",
        ratio(enc_ns as f64 / 1e3, msgs as f64),
    );
    put(
        "codec.decode_us_per_msg",
        ratio(dec_ns as f64 / 1e3, msgs as f64),
    );
    put("codec.bytes_per_msg", ratio(bytes as f64, msgs as f64));
    put(
        "codec.encode_mb_per_s",
        ratio(bytes as f64 / 1e6, enc_ns as f64 / 1e9),
    );

    put("store.attach_ms", ms(c.attach_ns));
    put("store.sync_ms", ms(c.sink.sync_ns));
    put("store.syncs", c.sink.syncs as f64);
    put("store.wal_records", c.sink.wal_records as f64);
    put("store.wal_bytes", c.sink.wal_bytes as f64);
    put("store.checkpoints", c.sink.checkpoints as f64);
    put("store.checkpoint_ms", ms(c.sink.checkpoint_ns));
    put("store.recover_ms", ms(c.recover_ns));
    put("store.disk_bytes", c.disk_bytes as f64);

    let (wall, covered) = (b.wall_ns(), b.covered_ns());
    put("bench.driver_ms", ms(wall.saturating_sub(covered)));
    put("bench.generator_late_p95_ms", percentile(&c.late_ms, 0.95));
    put("bench.trace_overhead", trace_overhead);
    put("bench.budget_coverage", ratio(covered as f64, wall as f64));
    put("bench.wall_ms", ms(wall));
    put("bench.paced_wait_ms", ms(b.ns("paced_wait")));
    put("bench.apply_ms", ms(b.ns("apply")));
    put("bench.rounds", c.rounds as f64);
    put(
        "bench.rounds_to_visible_p50",
        median(&m.paced_rounds_to_visible),
    );
    put(
        "bench.failed_frac",
        ratio(m.failed as f64, m.attempted as f64),
    );
    out
}

/// One line of the budget table: a layer's self time.
struct Line {
    layer: &'static str,
    what: String,
    calls: u64,
    ns: u64,
}

/// Splits the driver-level spans into the layers' self times. The lines
/// add up to the covered time exactly.
fn lines(o: &Outcome) -> Vec<Line> {
    let (c, b) = (&o.counters, &o.budget);
    let mut out = Vec::new();
    let mut line = |layer: &'static str, what: &str, calls: u64, ns: u64| {
        if ns > 0 {
            out.push(Line {
                layer,
                what: what.to_string(),
                calls,
                ns,
            });
        }
    };
    let calls_of = |label: &str| b.calls(label);

    // A traced set-up parses and analyzes each program twice: once timed
    // on its own, once inside `load_program_checked`.
    let load = b.ns("setup.load");
    let (parse, check) = (2 * c.parse_ns, 2 * c.check_ns);
    line(
        "parser",
        "parse_program_spanned (x2)",
        c.statements,
        parse.min(load),
    );
    line(
        "analyze",
        "Analyzer::analyze (x2)",
        calls_of("setup.load"),
        check.min(load.saturating_sub(parse)),
    );
    line(
        "core",
        "install (rest of load_program_checked)",
        calls_of("setup.load"),
        load.saturating_sub(parse + check),
    );
    line(
        "store",
        "attach + initial checkpoint",
        calls_of("setup.attach"),
        b.ns("setup.attach"),
    );
    line(
        "net::tcp",
        "bind + register",
        calls_of("setup.bind") + calls_of("restart.rebind"),
        b.ns("setup.bind") + b.ns("restart.rebind"),
    );

    let steps: u64 = b
        .rows()
        .iter()
        .filter(|r| r.label.starts_with("step:"))
        .map(|r| r.ns)
        .sum();
    let session = c.upper.total_ns().saturating_sub(c.lower.total_ns());
    let below = c.upper.total_ns() + c.step_sink_ns;
    line(
        "core",
        "stage (step - transport - sink)",
        c.stage_calls.min(c.steps),
        steps.saturating_sub(below),
    );
    line(
        "net::session",
        "send/drain/acks (self)",
        c.upper.sent + c.steps,
        session,
    );
    line(
        "net::tcp",
        "send/drain",
        c.lower.sent + c.steps,
        c.lower.total_ns(),
    );
    line(
        "store",
        "group commit inside step",
        c.sink.syncs,
        c.step_sink_ns,
    );

    line(
        "core::shard",
        "tick (stages and commits inside)",
        c.ticks,
        b.ns("tick"),
    );
    line(
        "core::shard",
        "pending_messages",
        calls_of("peek_pending"),
        b.ns("peek_pending"),
    );
    line("core", "Peer::query", calls_of("query"), b.ns("query"));
    line(
        "core",
        "insert_local / delete_local",
        calls_of("apply"),
        b.ns("apply"),
    );
    line(
        "core",
        "Peer::replace_rule",
        calls_of("swap_rule"),
        b.ns("swap_rule"),
    );
    line(
        "core",
        "relation_facts (read-back)",
        calls_of("read_back"),
        b.ns("read_back"),
    );
    line(
        "store",
        "recover + re-checkpoint",
        calls_of("restart.recover"),
        b.ns("restart.recover"),
    );
    line(
        "core::shard",
        "add_peer (rejoin)",
        calls_of("restart.rejoin"),
        b.ns("restart.rejoin"),
    );
    line(
        "bench",
        "paced wait (nothing due)",
        calls_of("paced_wait"),
        b.ns("paced_wait"),
    );
    out
}

/// The budget table: layer, calls, self ms, share of driver wall-clock.
pub fn budget_table(o: &Outcome) -> String {
    let b = &o.budget;
    let wall = b.wall_ns().max(1);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<14} {:<40} {:>9} {:>11} {:>7}",
        "layer", "what", "calls", "self ms", "share"
    );
    let rows = lines(o);
    let mut shown = 0u64;
    for l in &rows {
        shown += l.ns;
        let _ = writeln!(
            s,
            "{:<14} {:<40} {:>9} {:>11.2} {:>6.1}%",
            l.layer,
            l.what,
            l.calls,
            ms(l.ns),
            100.0 * l.ns as f64 / wall as f64
        );
    }
    let uncovered = wall.saturating_sub(b.covered_ns());
    let _ = writeln!(
        s,
        "{:<14} {:<40} {:>9} {:>11.2} {:>6.1}%",
        "bench",
        "driver (outside library calls)",
        "",
        ms(uncovered),
        100.0 * uncovered as f64 / wall as f64
    );
    let _ = writeln!(
        s,
        "{:<14} {:<40} {:>9} {:>11.2} {:>6.1}%",
        "total",
        "driver wall-clock",
        "",
        ms(wall),
        100.0 * (shown + uncovered) as f64 / wall as f64
    );
    s
}

/// Where the uncovered time sits: before which span the driver spent it.
pub fn uncovered_table(b: &Budget) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:>9} {:>13}",
        "uncovered before", "spans", "gap ms"
    );
    for r in b.rows().iter().filter(|r| r.gap_ns > 0) {
        let _ = writeln!(s, "{:<24} {:>9} {:>13.2}", r.label, r.calls, ms(r.gap_ns));
    }
    s
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of standard output: one JSON object.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    units: &dyn Fn(&str) -> &'static str,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                units(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().copied())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// A readable listing of the metrics, one per line.
pub fn listing(metrics: &Metrics) -> String {
    let mut s = String::new();
    for (name, v) in metrics {
        let _ = writeln!(s, "{name:<32} {v:>16.4} {}", unit_of(name));
    }
    s
}
