//! Pins the tentpole's cost contract: with no sink installed, the trace
//! hooks are a handful of `is_some` branches — **zero allocations** and
//! no clock reads on the stage hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator for this
//! test binary; the probe drives a converged peer's [`Peer::run_stage`]
//! directly (the runtime's tick wrapper allocates its own report
//! structures and is not the contract) and compares allocation deltas
//! against the **never-traced baseline** — the stage loop itself owns a
//! small fixed allocation budget per stage (output structures, fixpoint
//! scratch) that predates tracing. With no sink installed the hooks must
//! add *zero* on top of that baseline; with a sink installed they must
//! add some (the events have to live somewhere), which proves the
//! counter actually observes the loop — guarding against a vacuous pass.
//!
//! The counter is per thread: the test harness runs this binary's tests on
//! parallel threads, and a process-global count would fold one test's
//! allocations into the other's deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::{BufferSink, Peer};
use webdamlog::datalog::Value;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free, so reaching the slot never
    // allocates (which would recurse into the allocator).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread. `try_with` rather than
/// `with`: the allocator must never panic, including while a thread's
/// locals are being torn down.
fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers entirely to `System`; the counter is a thread-local cell.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Builds a two-peer network with one derivation rule, converged so
/// further stages are pure bookkeeping.
fn converged_runtime() -> LocalRuntime {
    let mut rt = LocalRuntime::new();
    for name in ["a", "b"] {
        let mut p = Peer::new(name);
        p.acl_mut()
            .set_untrusted_policy(webdamlog::core::acl::UntrustedPolicy::Accept);
        rt.add_peer(p).unwrap();
    }
    let a = rt.peer_mut("a").unwrap();
    a.declare("out", 1, webdamlog::core::RelationKind::Intensional)
        .unwrap();
    a.add_rule(webdamlog::parser::parse_rule("out@a($x) :- item@a($x);").unwrap())
        .unwrap();
    a.insert_local("item", vec![Value::from(1)]).unwrap();
    assert!(rt.run_to_quiescence(16).unwrap().quiescent);
    rt
}

/// Runs 16 quiet stages on peer `a`, returning the allocation delta.
fn stage_allocs(rt: &mut LocalRuntime) -> u64 {
    let peer = rt.peer_mut("a").unwrap();
    // Warmup: let any lazy caches (plan compilation, hash growth,
    // interner spill) settle before measuring.
    for _ in 0..4 {
        peer.run_stage().unwrap();
    }
    let before = allocs();
    for _ in 0..16 {
        peer.run_stage().unwrap();
    }
    allocs() - before
}

#[test]
fn disabled_tracing_adds_zero_allocations_per_stage() {
    let mut rt = converged_runtime();
    let baseline = stage_allocs(&mut rt);

    // Control: the same stages with a sink installed *do* allocate on
    // top of the baseline, so the counter demonstrably observes the
    // hook sites.
    rt.peer_mut("a")
        .unwrap()
        .set_trace_sink(Box::new(BufferSink::new()));
    let traced = stage_allocs(&mut rt);
    assert!(
        traced > baseline,
        "control failed: traced stages should allocate event buffers \
         (traced {traced} vs baseline {baseline} over 16 stages)"
    );

    // The contract: clearing the sink restores the exact baseline — the
    // disabled hooks are `is_some` branches, zero event allocations.
    rt.peer_mut("a").unwrap().clear_trace_sink();
    let disabled = stage_allocs(&mut rt);
    assert_eq!(
        disabled, baseline,
        "disabled tracing must add zero allocations per stage"
    );
}

/// The runtime-level knob behaves the same: enabling then disabling
/// tracing leaves no allocation residue on the stage hot loop.
#[test]
fn disabling_tracing_restores_the_free_path() {
    let mut baseline_rt = converged_runtime();
    let baseline = stage_allocs(&mut baseline_rt);

    let mut rt = converged_runtime();
    rt.set_tracing(true);
    for _ in 0..4 {
        rt.tick().unwrap();
    }
    rt.set_tracing(false);
    let after_toggle = stage_allocs(&mut rt);
    assert_eq!(
        after_toggle, baseline,
        "disabled tracing must restore the baseline allocation count \
         (got {after_toggle} vs baseline {baseline} over 16 stages)"
    );
}
