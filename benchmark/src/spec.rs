//! The four workloads with their frozen sizes, and the names of every
//! metric the benchmark emits. `BENCHMARK.json` declares the same names;
//! `tests/workloads.rs` fails when the two drift apart.

/// Which Wepic program the peers run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    /// Hub `sigmod` + attendees publishing `pictures@sigmod :- pictures@me`.
    Publish,
    /// One viewer running `rating_filter(viewer, 4)` over the attendees.
    Album,
}

/// One workload. Rates and counts were calibrated once on the seed commit
/// (see `benchmark/README.md`) and are frozen: a later change is measured
/// against the same work.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub program: Program,
    /// `ShardedRuntime::new(2)` instead of the TCP + session stack.
    pub inproc: bool,
    pub attendees: usize,
    pub payload_bytes: usize,
    /// Pictures preloaded per attendee through the `.wdl` text.
    pub preload_pictures: usize,
    /// Open-loop rate of the paced phase, ≈ 30 % of the seed commit's
    /// `ops_per_s` on this workload.
    pub paced_rate: f64,
    /// Saturation-phase ops per second of `--seconds`, sized so that the
    /// phase takes ≈ 35 % of the run on the seed commit.
    pub sat_ops_per_run_second: f64,
    /// Outstanding sampled ops the closed loop keeps in flight.
    pub window: usize,
    /// A canned query is issued after every this many paced ops.
    pub query_every: usize,
}

/// Share of `--seconds` the paced phase lasts, by construction.
pub const PACED_SHARE: f64 = 0.5;

/// An op not visible within this long is failed.
pub const VISIBLE_TIMEOUT_S: f64 = 5.0;

/// A run is this many epochs. Each epoch goes through all five phases on
/// a system of its own, set up from the same preload, with op streams of
/// the same sizes drawn from its own seed; every timed metric is a median
/// over the epochs. The host slows down by a fifth for a second or three
/// every so often: that shifts a minority of the epochs, not the medians.
pub const EPOCHS: usize = 6;

/// Rule-change cycles per epoch; `rule_change_p50_ms` is the median over
/// all of a run's cycles.
pub const RULE_CYCLES_PER_EPOCH: usize = 3;

/// The paced samples are cut, in issue order, into segments of at least
/// this many; latency percentiles are medians over the segments'.
pub const SEGMENT_MIN_SAMPLES: usize = 200;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "publish_stream",
        program: Program::Publish,
        inproc: false,
        attendees: 4,
        payload_bytes: 32,
        preload_pictures: 2000,
        paced_rate: 1200.0,
        sat_ops_per_run_second: 1200.0,
        window: 64,
        query_every: 10,
    },
    Spec {
        name: "album_churn",
        program: Program::Album,
        inproc: false,
        attendees: 4,
        payload_bytes: 32,
        preload_pictures: 1500,
        paced_rate: 900.0,
        sat_ops_per_run_second: 900.0,
        window: 32,
        query_every: 10,
    },
    Spec {
        name: "blob_upload",
        program: Program::Publish,
        inproc: false,
        attendees: 2,
        payload_bytes: 32 * 1024,
        preload_pictures: 20,
        paced_rate: 90.0,
        sat_ops_per_run_second: 75.0,
        window: 8,
        query_every: 1,
    },
    Spec {
        name: "publish_inproc",
        program: Program::Publish,
        inproc: true,
        attendees: 4,
        payload_bytes: 32,
        preload_pictures: 2000,
        paced_rate: 1200.0,
        sat_ops_per_run_second: 1200.0,
        window: 64,
        query_every: 10,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The op counts of one epoch. A pure function of the spec and `--seconds`,
/// never of wall-clock, so both sides of a comparison do identical work.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub preload_pictures: usize,
    pub paced_ops: usize,
    pub sat_ops: usize,
}

impl Spec {
    pub fn sizes(&self, seconds: f64) -> Sizes {
        Sizes {
            preload_pictures: self.preload_pictures,
            paced_ops: (self.paced_rate * seconds * PACED_SHARE / EPOCHS as f64).round() as usize,
            sat_ops: (self.sat_ops_per_run_second * seconds / EPOCHS as f64).round() as usize,
        }
    }
}

impl Sizes {
    /// The same shape at `1/div` of the size (the test suite's 1/50 runs).
    pub fn scaled_down(self, div: usize) -> Sizes {
        let cut = |n: usize| (n / div).max(4);
        Sizes {
            preload_pictures: cut(self.preload_pictures),
            paced_ops: cut(self.paced_ops),
            sat_ops: cut(self.sat_ops),
        }
    }
}

/// One end-to-end metric: its unit, whether lower is better, and the
/// share of the parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

/// End-to-end metrics, printed by a `--trace 0` run.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("ops_per_s", "ops/s", false, 0.25),
    e2e("visible_p50_ms", "ms", true, 0.25),
    e2e("visible_p95_ms", "ms", true, 0.25),
    e2e("query_p50_ms", "ms", true, 0.25),
    e2e("rule_change_p50_ms", "ms", true, 0.25),
    e2e("restart_s", "s", true, 0.25),
    e2e("peak_rss_mb", "MiB", true, 0.15),
    e2e("disk_amp", "ratio", true, 0.02),
];

/// Per-layer metrics `(name, unit)`, printed by a `--trace 1` run.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("parser.parse_ms", "ms"),
    ("parser.src_bytes", "bytes"),
    ("parser.statements", "count"),
    ("analyze.check_ms", "ms"),
    ("analyze.errors", "count"),
    ("core.install_ms", "ms"),
    ("core.stage_ms", "ms"),
    ("core.stage_calls", "count"),
    ("core.idle_stage_calls", "count"),
    ("core.idle_stage_ms", "ms"),
    ("core.idle_stage_us_p50", "us"),
    ("core.useful_stage_frac", "ratio"),
    ("core.fixpoint_rounds", "count"),
    ("core.derivations", "count"),
    ("core.facts_out", "count"),
    ("core.delegations_out", "count"),
    ("core.revocations_out", "count"),
    ("core.rejected", "count"),
    ("core.query_ms_p50", "ms"),
    ("datalog.iterations", "count"),
    ("datalog.derivations", "count"),
    ("datalog.facts_derived", "count"),
    ("datalog.interned_values", "count"),
    ("shard.tick_ms", "ms"),
    ("shard.ticks", "count"),
    ("shard.peers_run", "count"),
    ("shard.active_frac", "ratio"),
    ("shard.deferred", "count"),
    ("node.step_ms", "ms"),
    ("node.steps", "count"),
    ("node.deferred_sends", "count"),
    ("node.undeliverable", "count"),
    ("session.send_ms", "ms"),
    ("session.drain_ms", "ms"),
    ("session.data_frames", "count"),
    ("session.ack_frames", "count"),
    ("session.retransmits", "count"),
    ("session.dup_drops", "count"),
    ("session.decode_errors", "count"),
    ("session.unacked_peak", "count"),
    ("tcp.send_ms", "ms"),
    ("tcp.drain_ms", "ms"),
    ("tcp.frames_out", "count"),
    ("tcp.frames_in", "count"),
    ("tcp.bytes_out", "bytes"),
    ("tcp.bytes_per_op", "bytes"),
    ("tcp.overflow", "count"),
    ("codec.encode_us_per_msg", "us"),
    ("codec.decode_us_per_msg", "us"),
    ("codec.bytes_per_msg", "bytes"),
    ("codec.encode_mb_per_s", "MB/s"),
    ("store.attach_ms", "ms"),
    ("store.sync_ms", "ms"),
    ("store.syncs", "count"),
    ("store.wal_records", "count"),
    ("store.wal_bytes", "bytes"),
    ("store.checkpoints", "count"),
    ("store.checkpoint_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("store.disk_bytes", "bytes"),
    ("bench.driver_ms", "ms"),
    ("bench.generator_late_p95_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.budget_coverage", "ratio"),
    ("bench.wall_ms", "ms"),
    ("bench.paced_wait_ms", "ms"),
    ("bench.apply_ms", "ms"),
    ("bench.rounds", "count"),
    ("bench.rounds_to_visible_p50", "count"),
    ("bench.failed_frac", "ratio"),
];
