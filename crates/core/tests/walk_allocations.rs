//! Allocation guard for the weighted walks: over a prebuilt walk table,
//! confidence sampling allocates a fixed number of buffers however many
//! walks it runs, and tip selection allocates nothing.

use learning_tangle::node::ModelParams;
use learning_tangle::{RoundContext, SimConfig};
use rand::rngs::SmallRng;
use rand::{RngExt as _, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tangle_ledger::analysis::cumulative_weights;
use tangle_ledger::walk::WalkTable;
use tangle_ledger::{Tangle, TangleAnalysis, TxId};
use tinynn::ParamVec;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread so that tests
/// running in parallel do not see each other's.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialized thread-local
// `Cell` without a destructor, so updating it never allocates or reenters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn bump() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Run `f` and count the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A 300-transaction tangle, each transaction approving two earlier ones
/// drawn from the 20 newest (so walks fork and run deep).
fn tangle<P: Clone>(payload: P) -> Tangle<P> {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut t = Tangle::new(payload.clone());
    for _ in 1..300 {
        let n = t.len() as u32;
        let lo = n.saturating_sub(20);
        let a = TxId(rng.random_range(lo..n));
        let b = TxId(rng.random_range(lo..n));
        t.add(payload.clone(), vec![a, b]).unwrap();
    }
    t
}

#[test]
fn confidence_allocations_do_not_grow_with_samples() {
    let t = tangle(0u8);
    let table = WalkTable::new(&t, &cumulative_weights(&t), 0.5);
    let (_, one) = allocations(|| TangleAnalysis::walk_confidence(&t, &table, 1, 7));
    let (_, many) = allocations(|| TangleAnalysis::walk_confidence(&t, &table, 256, 7));
    assert_eq!(one, many, "walk confidence allocates per walk");
    let (_, one) = allocations(|| TangleAnalysis::approval_confidence(&t, &table, 1, 7));
    let (_, many) = allocations(|| TangleAnalysis::approval_confidence(&t, &table, 256, 7));
    assert_eq!(one, many, "approval confidence allocates per walk");
}

#[test]
fn sample_tip_allocates_nothing() {
    let t: Tangle<ModelParams> = tangle(Arc::new(ParamVec(vec![0.0; 4])));
    for window in [None, Some(3)] {
        let mut cfg = SimConfig::default();
        cfg.hyper.window = window;
        let ctx = RoundContext::build(&t, &cfg, 1, 5);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..64 {
            let (tip, allocs) = allocations(|| ctx.sample_tip(&mut rng));
            assert_eq!(allocs, 0, "window {window:?}: sample_tip allocated");
            assert!(t.is_tip(tip));
        }
    }
}
