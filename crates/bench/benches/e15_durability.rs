//! E15 — durable storage engine: checkpoint latency, WAL append
//! throughput, and cold-start recovery (ISSUE 8).
//!
//! The workload is a Wepic-style peer living through `BATCHES` delta
//! batches of picture churn: each batch uploads `INS` fresh pictures and
//! retracts `DEL` of the previous batch's, group-committed through the
//! real engine. History is therefore much larger than the surviving
//! state — the regime checkpoints exist for.
//!
//! * **`checkpoint_ms`** (informational): one full checkpoint — one
//!   `wal-<epoch>.tmp` file holding the snapshot images, fsynced, renamed
//!   to `wal-<epoch>.log`, directory fsynced — of the final surviving
//!   state.
//! * **`wal_append_krecs_per_s`** (informational): group-commit append
//!   throughput over the `sync` calls alone (insert-side work untimed).
//! * **Cold-start recovery vs WAL-tail length**: the same final state
//!   recovered from directories checkpointed at different fold points,
//!   leaving 0, 1/8, 1/2 or all of the history in the WAL tail
//!   (`recovery_ms_tail_*`).
//! * **`recovery_replay_speedup`** (gated, >= 2x): full from-scratch
//!   recompute — re-applying the entire delta history through the
//!   incremental-maintenance path, which is what recovery cost without
//!   checkpoints — over recovery from segments plus the policy-bounded
//!   1/8 tail. Segment load decodes the *surviving* facts only and
//!   moves each relation into the view whole; the ratio is the measured
//!   value of folding history into checkpoints, and it collapses toward
//!   1.0 if segment import degrades to per-record history cost.
//!
//! Every recovery sample is verified against the expected surviving
//! fact count — a recovery that loses or invents facts fails the bench
//! before any number is reported.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wdl_bench::quick;
use wdl_core::{Peer, RelationKind};
use wdl_datalog::{Symbol, Value};
use wdl_store::{DurabilityConfig, DurableStore, Engine};

/// Churn batches (same scale in quick and full runs, repo convention,
/// so gate ratios compare like for like).
const BATCHES: usize = 32;
/// Pictures uploaded per batch.
const INS: usize = 500;
/// Previous-batch pictures retracted per batch.
const DEL: usize = 440;
/// Facts surviving the full history.
const FINAL: usize = INS + (BATCHES - 1) * (INS - DEL);
/// Total delta records in the history.
const OPS: usize = BATCHES * INS + (BATCHES - 1) * DEL;
const PEER: &str = "e15peer";

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wdl-e15-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A config that never checkpoints on its own — the bench folds history
/// at explicit points.
fn manual_config(root: &Path) -> DurabilityConfig {
    DurabilityConfig::new(root)
        .checkpoint_records(usize::MAX)
        .checkpoint_bytes(u64::MAX)
}

fn picture(i: usize) -> Vec<Value> {
    vec![
        Value::from(i as i64),
        Value::from(format!("e15-pic-{i}.jpg")),
        Value::from(PEER),
        Value::bytes(&[0xD7, (i % 251) as u8, (i / 251) as u8]),
    ]
}

fn fresh_peer() -> Peer {
    let mut p = Peer::new(PEER);
    p.declare("pictures", 4, RelationKind::Extensional)
        .expect("declare");
    p
}

/// The delta history as per-batch op lists: `(added, tuple)`.
fn batch_ops(batch: usize) -> Vec<(bool, Vec<Value>)> {
    let mut ops = Vec::with_capacity(INS + DEL);
    for i in 0..INS {
        ops.push((true, picture(batch * INS + i)));
    }
    if batch > 0 {
        for i in 0..DEL {
            ops.push((false, picture((batch - 1) * INS + i)));
        }
    }
    ops
}

fn apply(p: &mut Peer, ops: &[(bool, Vec<Value>)]) {
    for (added, tuple) in ops {
        if *added {
            p.insert_local("pictures", tuple.clone()).expect("insert");
        } else {
            p.delete_local("pictures", tuple.clone()).expect("delete");
        }
    }
}

/// Builds a storage directory by living through the full history with a
/// group commit per batch, checkpointing after batch `fold` (fold =
/// `BATCHES` means never: the whole history stays in the WAL). Returns
/// the wall time spent inside the WAL `sync` calls.
fn build_dir(root: &Path, fold: usize) -> u128 {
    let mut store = DurableStore::new(manual_config(root));
    let mut p = fresh_peer();
    store.attach(&mut p).expect("attach");
    let engine = store.engine(PEER).expect("engine");
    let mut append_ns = 0u128;
    for batch in 0..BATCHES {
        apply(&mut p, &batch_ops(batch));
        let t0 = Instant::now();
        p.sync_durability().expect("group commit");
        append_ns += t0.elapsed().as_nanos();
        if batch == fold {
            engine.lock().checkpoint(&p).expect("fold checkpoint");
        }
    }
    append_ns
}

/// Min cold-start recovery latency over `runs` samples: fresh
/// `Engine::open` + `Engine::recover` each time (log scan, the meta
/// image, segments, replay of the commits). The page cache stays warm across
/// samples on every directory alike, so the tail-length comparison is
/// like for like. Each sample's recovered state is verified.
fn recovery_ns(root: &Path, runs: usize) -> u128 {
    let config = manual_config(root);
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let mut engine = Engine::open(&config, Symbol::intern(PEER)).expect("open");
            let peer = engine.recover().expect("recover");
            let ns = t0.elapsed().as_nanos();
            assert_eq!(
                peer.relation_facts("pictures").len(),
                FINAL,
                "recovery lost or invented facts"
            );
            black_box(peer);
            ns
        })
        .min()
        .expect("at least one sample")
}

/// Min latency of the checkpoint-free alternative: recompute the final
/// state from scratch by re-applying the entire delta history through
/// the incremental-maintenance path.
fn from_scratch_ns(runs: usize) -> u128 {
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let mut p = fresh_peer();
            for batch in 0..BATCHES {
                apply(&mut p, &batch_ops(batch));
            }
            let ns = t0.elapsed().as_nanos();
            assert_eq!(p.relation_facts("pictures").len(), FINAL);
            black_box(p);
            ns
        })
        .min()
        .expect("at least one sample")
}

fn main() {
    let mut c = wdl_bench::criterion();
    let runs = if quick() { 3 } else { 10 };

    println!("E15: durable storage — checkpoint, WAL append, cold-start recovery");
    println!(
        "workload: {BATCHES} batches x (+{INS}/-{DEL}) = {OPS} delta records, \
         {FINAL} surviving facts, {runs} samples"
    );

    // --- Directories: same history, different fold points --------------
    // (fold after the last batch = empty tail; fold = BATCHES = never.)
    let folds = [
        ("0", BATCHES - 1),
        ("eighth", BATCHES - 1 - BATCHES / 8),
        ("half", BATCHES / 2 - 1),
        ("full", BATCHES),
    ];
    let mut append_ns_total = 0u128;
    let mut roots = Vec::new();
    for (tag, fold) in &folds {
        let root = tmp_root(tag);
        append_ns_total += build_dir(&root, *fold);
        roots.push(root);
    }
    let appended = OPS * folds.len();
    let wal_krecs_per_s = appended as f64 / (append_ns_total as f64 / 1e9) / 1e3;

    // --- Checkpoint latency of the surviving state ---------------------
    let checkpoint_ns = {
        let config = manual_config(&roots[0]);
        let mut engine = Engine::open(&config, Symbol::intern(PEER)).expect("open");
        let peer = engine.recover().expect("recover");
        (0..runs)
            .map(|_| {
                let t0 = Instant::now();
                engine.checkpoint(&peer).expect("checkpoint");
                t0.elapsed().as_nanos()
            })
            .min()
            .expect("at least one sample")
    };

    // --- Cold-start recovery vs tail length ----------------------------
    let mut recovery = Vec::new();
    for ((tag, _), root) in folds.iter().zip(&roots) {
        recovery.push((*tag, recovery_ns(root, runs)));
    }

    // The headline: the policy-bounded 1/8-history tail vs no
    // checkpoints at all. The two sides are sampled *interleaved* —
    // one recovery, one recompute, repeat — so background-load drift
    // over the bench's lifetime hits both alike instead of skewing the
    // ratio.
    let mut tail_eighth_ns = u128::MAX;
    let mut scratch_ns = u128::MAX;
    for _ in 0..runs {
        tail_eighth_ns = tail_eighth_ns.min(recovery_ns(&roots[1], 1));
        scratch_ns = scratch_ns.min(from_scratch_ns(1));
    }
    recovery[1].1 = tail_eighth_ns;
    let recovery_replay_speedup = scratch_ns as f64 / tail_eighth_ns as f64;

    // --- Report --------------------------------------------------------
    println!("| measure                        | value |");
    println!("|--------------------------------|-------|");
    println!(
        "| checkpoint ({FINAL} facts)       | {:>8.2}ms |",
        checkpoint_ns as f64 / 1e6
    );
    println!("| WAL append throughput          | {wal_krecs_per_s:>6.1} krec/s |");
    for (tag, ns) in &recovery {
        println!(
            "| cold recovery, tail {tag:>6}     | {:>8.2}ms |",
            *ns as f64 / 1e6
        );
    }
    println!(
        "| from-scratch recompute ({OPS} ops) | {:>8.2}ms |",
        scratch_ns as f64 / 1e6
    );
    println!("| recovery_replay_speedup        | {recovery_replay_speedup:>6.2}x |");

    c.record_metric("history_ops", OPS as f64);
    c.record_metric("surviving_facts", FINAL as f64);
    c.record_metric("checkpoint_ms", checkpoint_ns as f64 / 1e6);
    c.record_metric("wal_append_krecs_per_s", wal_krecs_per_s);
    for (tag, ns) in &recovery {
        c.record_metric(format!("recovery_ms_tail_{tag}"), *ns as f64 / 1e6);
    }
    c.record_metric("from_scratch_ms", scratch_ns as f64 / 1e6);
    c.record_metric("recovery_replay_speedup", recovery_replay_speedup);

    if !quick() {
        assert!(
            recovery_replay_speedup >= 2.0,
            "ISSUE 8 headline: segment + tail recovery must beat full \
             from-scratch recompute by >= 2x (measured {recovery_replay_speedup:.2}x)"
        );
    }

    for root in &roots {
        let _ = std::fs::remove_dir_all(root);
    }
    c.final_summary();
}
