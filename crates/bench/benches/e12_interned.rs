//! E12 — interned values, flat tuple storage, and compiled-rule joins
//! (ISSUE 4).
//!
//! The engine's data plane was rewritten around a global value interner:
//! relations store tuples as flat `arity`-strided `ValueId` arenas, index
//! keys and membership are hashes of integer slices, and every rule runs as
//! a compiled register-file plan instead of threading symbol-keyed
//! substitutions. The interpreter is still selectable
//! (`EvalConfig::with_compiled(false)`) and property-tested equivalent, so
//! this bench measures **old-vs-new on the same storage, same workloads**:
//!
//! * the E11 fixpoint workload (reach/feed over friendship components) —
//!   headline claim **≥ 1.5×**;
//! * the E10 incremental-maintenance workload (untag / unfriend
//!   delete+reinsert pairs through `MaterializedView::apply`) — headline
//!   claim **≥ 1.3×**.
//!
//! Both old and new numbers are printed and recorded in
//! `BENCH_e12_interned.json`; the headline `fixpoint_speedup` /
//! `incremental_speedup` metrics (minimum across scales) feed the CI
//! perf-regression gate (`bench-gate`).

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;

use wdl_bench::workloads::{churn_facts, reach_base, reach_program, wepic_base, wepic_program};
use wdl_datalog::incremental::{Delta, MaterializedView};
use wdl_datalog::{Database, EvalConfig, Fact, Program};

/// E11 fixpoint scales: (components, persons per component, pictures per
/// person). Quick mode keeps the first full scale
/// (1488 base facts, well under a second for both engines) so the
/// `fixpoint_speedup_1488` metric the CI gate pins is measured on the
/// same workload in both modes.
const FIX_FULL: &[(usize, usize, usize)] = &[(16, 28, 2), (24, 40, 2)];
const FIX_QUICK: &[(usize, usize, usize)] = &[(16, 28, 2)];

/// E10 maintenance scales: (pictures, tags per picture, persons). Matches
/// `e10_incremental`.
const INC_FULL: &[(usize, usize, usize)] = &[(500, 4, 100), (2500, 4, 200)];

fn interpreted(p: &Program) -> Program {
    p.clone()
        .with_eval_config(EvalConfig::default().with_compiled(false))
}

fn fixpoint_scales() -> &'static [(usize, usize, usize)] {
    if wdl_bench::quick() {
        FIX_QUICK
    } else {
        FIX_FULL
    }
}

fn inc_scales() -> &'static [(usize, usize, usize)] {
    if wdl_bench::quick() {
        &INC_FULL[..1]
    } else {
        INC_FULL
    }
}

/// One maintenance pair (delete + reinsert) timed through a view.
fn pair_ns(view: &mut MaterializedView, fact: &Fact, runs: usize) -> u128 {
    wdl_bench::median_ns(runs, || {
        view.apply(&Delta::deletion(fact.clone())).unwrap();
        view.apply(&Delta::insertion(fact.clone())).unwrap();
    })
}

fn table(c: &mut Criterion) {
    let quick = wdl_bench::quick();
    let runs = if quick { 3 } else { 5 };

    // ---- Fixpoint: compiled plans vs substitution interpreter.
    println!("\n# E12: interned + compiled data plane vs interpreted baseline");
    println!("## fixpoint (E11 reach/feed workload)");
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>9}",
        "base", "derived", "old ns", "new ns", "speedup"
    );
    let mut min_fix_speedup = f64::INFINITY;
    for &(comps, persons, pics) in fixpoint_scales() {
        let program = reach_program();
        let old_program = interpreted(&program);
        let base = reach_base(comps, persons, pics);
        let base_facts = base.fact_count();

        // Old ≡ new before timing anything.
        let reference = old_program.eval(&base).unwrap();
        let out = program.eval(&base).unwrap();
        for rel in ["reach", "feed"] {
            assert_eq!(
                out.relation(rel).unwrap(),
                reference.relation(rel).unwrap(),
                "compiled diverged from interpreted on {rel}"
            );
        }
        let derived = reference.fact_count() - base_facts;

        let old_ns = wdl_bench::median_ns(runs, || {
            black_box(old_program.eval(&base).unwrap());
        });
        let new_ns = wdl_bench::median_ns(runs, || {
            black_box(program.eval(&base).unwrap());
        });
        let speedup = old_ns as f64 / new_ns as f64;
        min_fix_speedup = min_fix_speedup.min(speedup);
        println!("{base_facts:>8} {derived:>8} {old_ns:>14} {new_ns:>14} {speedup:>8.2}x");
        c.record_metric(format!("fixpoint_old_ns_{base_facts}"), old_ns as f64);
        c.record_metric(format!("fixpoint_new_ns_{base_facts}"), new_ns as f64);
        c.record_metric(format!("fixpoint_speedup_{base_facts}"), speedup);
    }
    c.record_metric("fixpoint_speedup", min_fix_speedup);

    // ---- Incremental maintenance: compiled differential plans vs
    // interpreted differencing, through MaterializedView::apply.
    println!("## incremental maintenance (E10 untag/unfriend pairs)");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>9}",
        "base", "pair", "old ns", "new ns", "speedup"
    );
    let mut min_inc_speedup = f64::INFINITY;
    for &(pics, tags_per, persons) in inc_scales() {
        let program = wepic_program();
        let base = wepic_base(pics, tags_per, persons);
        let base_facts = base.fact_count();
        let (tag, friend) = churn_facts(pics, persons);

        let mut new_view = MaterializedView::new(program.clone(), base.clone()).unwrap();
        let mut old_view = MaterializedView::new(interpreted(&program), base.clone()).unwrap();

        for (label, fact) in [("untag", &tag), ("unfriend", &friend)] {
            // Equal materializations across one churn cycle first.
            new_view.apply(&Delta::deletion(fact.clone())).unwrap();
            old_view.apply(&Delta::deletion(fact.clone())).unwrap();
            assert_db_eq(new_view.database(), old_view.database(), label);
            new_view.apply(&Delta::insertion(fact.clone())).unwrap();
            old_view.apply(&Delta::insertion(fact.clone())).unwrap();

            let old_ns = pair_ns(&mut old_view, fact, runs);
            let new_ns = pair_ns(&mut new_view, fact, runs);
            let speedup = old_ns as f64 / new_ns as f64;
            min_inc_speedup = min_inc_speedup.min(speedup);
            println!("{base_facts:>8} {label:>12} {old_ns:>14} {new_ns:>14} {speedup:>8.2}x");
            c.record_metric(format!("{label}_old_ns_{base_facts}"), old_ns as f64);
            c.record_metric(format!("{label}_new_ns_{base_facts}"), new_ns as f64);
            c.record_metric(format!("{label}_speedup_{base_facts}"), speedup);
        }
    }
    c.record_metric("incremental_speedup", min_inc_speedup);

    // Headline claims, on the full-size workloads. Quick (CI smoke) runs
    // still record the metrics; the bench-gate compares them against the
    // committed baselines with a tolerance instead of a hard threshold.
    if !quick {
        assert!(
            min_fix_speedup >= 1.5,
            "compiled+interned fixpoint must be ≥1.5× the interpreted \
             baseline on the e11 workload (got {min_fix_speedup:.2}×)"
        );
        assert!(
            min_inc_speedup >= 1.3,
            "compiled+interned maintenance must be ≥1.3× the interpreted \
             baseline on the e10 churn pairs (got {min_inc_speedup:.2}×)"
        );
    } else {
        println!("  (headline assertions skipped under BENCH_QUICK)");
    }
}

fn assert_db_eq(a: &Database, b: &Database, ctx: &str) {
    assert_eq!(a.fact_count(), b.fact_count(), "{ctx}: fact counts differ");
    for fact in a.facts() {
        assert!(b.contains(&fact), "{ctx}: {fact} missing");
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e12_interned");
    for &(comps, persons, pics) in fixpoint_scales() {
        let program = reach_program();
        let old_program = interpreted(&program);
        let base = reach_base(comps, persons, pics);
        let n = base.fact_count();
        g.bench_with_input(BenchmarkId::new("fixpoint_old", n), &base, |b, base| {
            b.iter(|| black_box(old_program.eval(base).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("fixpoint_new", n), &base, |b, base| {
            b.iter(|| black_box(program.eval(base).unwrap()))
        });
    }
    for &(pics, tags_per, persons) in inc_scales() {
        let program = wepic_program();
        let base = wepic_base(pics, tags_per, persons);
        let n = base.fact_count();
        let (tag, _) = churn_facts(pics, persons);
        let mut new_view = MaterializedView::new(program.clone(), base.clone()).unwrap();
        g.bench_with_input(BenchmarkId::new("untag_new", n), &tag, |b, tag| {
            b.iter(|| {
                new_view.apply(&Delta::deletion(tag.clone())).unwrap();
                new_view.apply(&Delta::insertion(tag.clone())).unwrap();
            })
        });
        let mut old_view = MaterializedView::new(interpreted(&program), base.clone()).unwrap();
        g.bench_with_input(BenchmarkId::new("untag_old", n), &tag, |b, tag| {
            b.iter(|| {
                old_view.apply(&Delta::deletion(tag.clone())).unwrap();
                old_view.apply(&Delta::insertion(tag.clone())).unwrap();
            })
        });
    }
    g.finish();
}

fn main() {
    let mut c = wdl_bench::criterion();
    table(&mut c);
    bench(&mut c);
    c.final_summary();
}
