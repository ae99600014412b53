//! E10 — incremental maintenance (ISSUE 1): churn-heavy Wepic workloads.
//!
//! The paper's scenarios revolve around *change*: pictures are untagged,
//! friends are removed, peers leave. Before the incremental engine, every
//! peer stage recomputed its full seminaive fixpoint, so one `untag` cost
//! as much as cold start. This bench contrasts:
//!
//! * `untag_maintain` / `unfriend_maintain` — `MaterializedView::apply`
//!   absorbing a single-fact deletion (and the re-insertion that restores
//!   steady state),
//! * `recompute` — the from-scratch `Program::eval` every stage used to
//!   pay,
//! * `peer_untag_stage` — the end-to-end `Peer::run_stage` cost of an
//!   untag through the maintained path.
//!
//! The measurement table asserts the headline claim: single-fact deletion
//! maintained at least 10× faster than recomputation on a ≥10k-fact
//! database.

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use wdl_bench::open_peer;
use wdl_bench::workloads::{churn_facts, wepic_base, wepic_program};
use wdl_core::{Peer, RelationKind};
use wdl_datalog::incremental::{Delta, MaterializedView};
use wdl_datalog::{Term, Value};

/// Wepic-style workload sizes: (pictures, tags per picture, persons).
const SCALES: &[(usize, usize, usize)] = &[(500, 4, 100), (2500, 4, 200)];

/// Scales for this run: `BENCH_QUICK` keeps only the small workload (whose
/// base stays under the 10k-fact threshold, so the headline assertion —
/// which needs the full-size database — is naturally skipped).
fn scales() -> &'static [(usize, usize, usize)] {
    if wdl_bench::quick() {
        &SCALES[..1]
    } else {
        SCALES
    }
}

/// A single peer running the same rules through `Peer::run_stage` (the
/// maintained path end to end).
fn wepic_peer(tag: &str, pics: usize, tags_per: usize, persons: usize) -> Peer {
    let me = format!("wepic{tag}");
    let mut p = open_peer(&me);
    for rel in ["taggedPics", "visible", "feed"] {
        p.declare(rel, 2, RelationKind::Intensional).unwrap();
    }
    let local = |pred: &str, vars: &[&str]| {
        wdl_core::WAtom::at(
            pred,
            me.as_str(),
            vars.iter().map(|v| Term::var(*v)).collect(),
        )
    };
    p.add_rule(wdl_core::WRule::new(
        local("taggedPics", &["id", "p"]),
        vec![
            local("tag", &["id", "p"]).into(),
            local("friends", &["p"]).into(),
        ],
    ))
    .unwrap();
    p.add_rule(wdl_core::WRule::new(
        local("visible", &["id", "owner"]),
        vec![
            local("pictures", &["id", "n", "owner", "d"]).into(),
            local("taggedPics", &["id", "p"]).into(),
        ],
    ))
    .unwrap();
    p.add_rule(wdl_core::WRule::new(
        local("feed", &["owner", "id"]),
        vec![
            local("visible", &["id", "owner"]).into(),
            wdl_core::WBodyItem::Literal(wdl_core::WLiteral::neg(local("muted", &["owner"]))),
        ],
    ))
    .unwrap();
    for f in wepic_base(pics, tags_per, persons).facts() {
        let values: Vec<Value> = f.tuple.to_vec();
        p.insert_local(f.pred.as_str(), values).unwrap();
    }
    p
}

/// Rounds behind each table figure, the same count in quick and full
/// runs: a median of this many resists the stray slow samples of a
/// shared host that a median of 3 does not.
const ROUNDS: usize = 21;

/// Wall time of one call of `f`.
fn time_ns(f: impl FnOnce()) -> u128 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos()
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort();
    samples[samples.len() / 2]
}

fn table(c: &mut Criterion) {
    println!("\n# E10: incremental maintenance vs from-scratch recomputation");
    println!(
        "{:>8} {:>8} {:>7} {:>16} {:>16} {:>16} {:>9}",
        "base", "derived", "strata", "untag_pair_ns", "unfriend_pair", "recompute_ns", "speedup"
    );
    for &(pics, tags_per, persons) in scales() {
        let program = wepic_program();
        let base = wepic_base(pics, tags_per, persons);
        let base_facts = base.fact_count();
        let mut view = MaterializedView::new(program.clone(), base.clone()).unwrap();
        let derived = view.database().fact_count() - base_facts;
        let (tag, friend) = churn_facts(pics, persons);

        // Sanity: maintained result equals recomputation after churn.
        view.apply(&Delta::deletion(tag.clone())).unwrap();
        let reference = view.recompute().unwrap();
        assert_eq!(view.database().fact_count(), reference.fact_count());
        view.apply(&Delta::insertion(tag.clone())).unwrap();

        // Each round samples all three, so a host whose speed drifts
        // during the bench slows the maintained and the recomputed side
        // alike. A maintained pair is timed right after an untimed one,
        // so the recompute before it does not leave it a cold cache.
        let churn = |view: &mut MaterializedView, fact: &wdl_datalog::Fact| {
            view.apply(&Delta::deletion(fact.clone())).unwrap();
            view.apply(&Delta::insertion(fact.clone())).unwrap();
        };
        let mut samples = [(); 3].map(|_| Vec::with_capacity(ROUNDS));
        for _ in 0..ROUNDS {
            for (i, fact) in [&tag, &friend].into_iter().enumerate() {
                churn(&mut view, fact);
                samples[i].push(time_ns(|| churn(&mut view, fact)));
            }
            samples[2].push(time_ns(|| {
                black_box(program.eval(&base).unwrap());
            }));
        }
        let [untag_ns, unfriend_ns, recompute_ns] = samples.map(median);
        // The maintained number covers a delete *and* the re-insert that
        // undoes it, so the per-deletion speedup is at least this ratio.
        let speedup = recompute_ns as f64 / untag_ns as f64;
        println!(
            "{:>8} {:>8} {:>7} {:>16} {:>16} {:>16} {:>8.1}x",
            base_facts,
            derived,
            program.stratum_count(),
            untag_ns,
            unfriend_ns,
            recompute_ns,
            speedup
        );
        c.record_metric(format!("untag_pair_ns_{base_facts}"), untag_ns as f64);
        c.record_metric(format!("recompute_ns_{base_facts}"), recompute_ns as f64);
        c.record_metric(format!("speedup_{base_facts}"), speedup);
        if base_facts >= 10_000 {
            assert!(
                speedup >= 10.0,
                "single-fact deletion must be maintained ≥10× faster than \
                 recomputation on a ≥10k-fact database (got {speedup:.1}×)"
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_incremental");
    for (i, &(pics, tags_per, persons)) in scales().iter().enumerate() {
        let program = wepic_program();
        let base = wepic_base(pics, tags_per, persons);
        let n = base.fact_count();
        let (tag, friend) = churn_facts(pics, persons);

        let mut view = MaterializedView::new(program.clone(), base.clone()).unwrap();
        g.bench_with_input(BenchmarkId::new("untag_maintain", n), &tag, |b, tag| {
            b.iter(|| {
                view.apply(&Delta::deletion(tag.clone())).unwrap();
                view.apply(&Delta::insertion(tag.clone())).unwrap();
            })
        });
        let mut view = MaterializedView::new(program.clone(), base.clone()).unwrap();
        g.bench_with_input(
            BenchmarkId::new("unfriend_maintain", n),
            &friend,
            |b, friend| {
                b.iter(|| {
                    view.apply(&Delta::deletion(friend.clone())).unwrap();
                    view.apply(&Delta::insertion(friend.clone())).unwrap();
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("recompute", n), &base, |b, base| {
            b.iter(|| black_box(program.eval(base).unwrap()))
        });

        // End-to-end: a peer stage absorbing one untag via the maintained
        // materialization.
        let mut peer = wepic_peer(&format!("s{i}"), pics, tags_per, persons);
        peer.run_stage().unwrap();
        let tag_vals: Vec<Value> = tag.tuple.to_vec();
        g.bench_with_input(
            BenchmarkId::new("peer_untag_stage", n),
            &tag_vals,
            |b, vals| {
                b.iter(|| {
                    peer.delete_local("tag", vals.clone()).unwrap();
                    peer.run_stage().unwrap();
                    peer.insert_local("tag", vals.clone()).unwrap();
                    peer.run_stage().unwrap();
                })
            },
        );
    }
    g.finish();
}

fn main() {
    let mut c = wdl_bench::criterion();
    table(&mut c);
    bench(&mut c);
    c.final_summary();
}
