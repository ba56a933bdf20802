//! Allocation guards, on a counting allocator. Feeding the predictor a
//! nest it has already recorded touches no heap: the held stack keeps its
//! capacity, the distinct-holds and guard buffers are the predictor's own
//! scratch, and a duplicate instance is found by scanning the edge's block.
//! Nor does refreshing a copy of the same size with `clone_from`: the lock
//! table, the order graph and the condensation are flat buffers of `Copy`
//! records, copied into the buffers the copy already has.
//! Nor does feeding a lock that aging retired: it takes a freed record.

use dimmunix_predict::{PredictionConfig, Predictor};
use dimmunix_rag::{LockId, ThreadId};
use dimmunix_signature::StackId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some(allocations)` on a test thread while it counts its own; other
    /// tests' threads and the harness's never show up in it.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

/// Heap allocations made by the calling thread inside `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(Cell::take).expect("counting is not nested")
}

// SAFETY: Defers every request to `System` unchanged; the thread-local is
// const-initialised (no allocation, no destructor), so the allocator never
// re-enters itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Locks in the global order, as in the benchmark's `monitor_backlog`.
const LOCKS: u64 = 4096;
/// Locks per nest: `L_i → L_i+1 → L_i+2`.
const NEST: u64 = 3;

/// Thread `t` takes `NEST` locks in order from `first`, with stacks that
/// depend on `variant`, then releases them innermost first.
fn nest(p: &mut Predictor, t: u64, first: u64, variant: u32) {
    for l in first..first + NEST {
        p.on_acquired(ThreadId(t), LockId(l), StackId(l as u32 * 8 + variant));
    }
    for l in (first..first + NEST).rev() {
        p.on_release(ThreadId(t), LockId(l));
    }
}

#[test]
fn a_warm_re_fed_nest_allocates_nothing() {
    let mut p = Predictor::new(PredictionConfig::default());
    for variant in 0..2 {
        nest(&mut p, 1, 10, variant);
    }
    p.pass();
    let recorded = p.stats().edge_instances;
    for _ in 0..100 {
        for variant in 0..2 {
            assert_eq!(allocations(|| nest(&mut p, 1, 10, variant)), 0);
        }
    }
    assert_eq!(p.stats().edge_instances, recorded, "every instance re-fed");
}

#[test]
fn a_checkpoint_of_the_same_size_is_refreshed_without_allocating() {
    let mut live = Predictor::new(PredictionConfig::default());
    // Two threads walk the whole order on four stacks each: the per-edge
    // cap of 8 instances on each of the ≈ 8 k edges, as in the benchmark.
    for (t, variant) in (0..2).flat_map(|t| (0..4).map(move |v| (t, v))) {
        for first in 0..LOCKS - NEST + 1 {
            nest(&mut live, t, first, variant);
        }
    }
    live.pass();
    let stats = live.stats();
    assert_eq!(stats.locks, LOCKS);
    assert!(stats.edge_instances >= 60_000, "{stats:?}");
    let mut checkpoint = live.clone();
    // The live predictor moves on without growing: re-fed nests and passes.
    for first in (0..LOCKS - NEST).step_by(97) {
        nest(&mut live, 1, first, 2);
    }
    live.pass();
    assert_ne!(format!("{checkpoint:?}"), format!("{live:?}"));
    assert_eq!(allocations(|| checkpoint.clone_from(&live)), 0);
    assert_eq!(format!("{checkpoint:?}"), format!("{live:?}"));
}

/// Lock aging retires a quiet lock and frees its record; the next new lock
/// takes that record, so locks fed again after retiring make no new
/// records — and re-learning them allocates nothing once the arenas have
/// room for their edges.
#[test]
fn a_retired_lock_fed_again_reuses_its_record_without_allocating() {
    let cfg = PredictionConfig {
        lock_retire_after: 2,
        ..PredictionConfig::default()
    };
    // Thread 1 keeps the nest on 100..103 from retiring by re-feeding it
    // before every pass.
    let keep = |p: &mut Predictor| {
        nest(p, 1, 100, 0);
        p.pass();
    };
    // A predictor whose arenas are larger than the state it holds: an
    // older, larger predictor refreshed with `clone_from`. It holds the
    // kept nest and a nest on 10..13.
    let mut roomy = Predictor::new(cfg.clone());
    for first in (200..300).step_by(3) {
        nest(&mut roomy, 1, first, 0);
    }
    keep(&mut roomy);
    let mut state = Predictor::new(cfg);
    nest(&mut state, 1, 10, 0);
    keep(&mut state);
    roomy.clone_from(&state);
    assert_eq!(roomy.stats().locks, 6);
    for _ in 0..4 {
        keep(&mut roomy);
    }
    assert_eq!(roomy.stats().locks, 3, "the nest on 10..13 retired");
    assert_eq!(allocations(|| nest(&mut roomy, 1, 10, 0)), 0);
    assert_eq!(roomy.stats().locks, 6, "the nest on 10..13 learnt again");
}
