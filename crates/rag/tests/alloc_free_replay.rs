//! Allocation guards for the RAG's replay, on a counting allocator. A hold
//! is one entry in its holder's `holds` and a release takes it out again;
//! no lock gets a record of its own unless a thread waits for it. So once
//! the holders' buffers have grown to their deepest nest, replaying
//! `Granted` / `Release` over locks the graph has never seen allocates
//! nothing. Nor does refreshing a snapshot of the same size with
//! `clone_from`: every table is copied into the one the snapshot has.

use dimmunix_rag::{LockId, Rag, ThreadId};
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

/// Locks per nest: `L_i → L_i+1 → L_i+2`, as in the benchmark's
/// `monitor_backlog`.
const NEST: u64 = 3;

/// What the monitor applies for thread `t`'s uncontended nest from
/// `first`: a `Granted` per lock, then a `Release` per lock, innermost
/// first.
fn nest(rag: &mut Rag, t: u64, first: u64) {
    for l in first..first + NEST {
        rag.on_granted(ThreadId(t), LockId(l), StackId(l as u32));
    }
    for l in (first..first + NEST).rev() {
        rag.on_release(ThreadId(t), LockId(l));
    }
}

/// Two threads' nests over `count` fresh locks each, from `first`, then a
/// detection pass, as one monitor pass applies and searches them.
fn pass(rag: &mut Rag, first: u64, count: u64) {
    for k in 0..count {
        nest(rag, 0, first + k);
        nest(rag, 1, first + count + k);
    }
    assert!(rag.find_deadlock_cycles().is_empty());
    assert!(rag.find_yield_cycles().is_empty());
    assert!(rag.awaited_unheld().is_empty());
}

#[test]
fn a_warm_replay_of_fresh_locks_allocates_nothing() {
    let mut rag = Rag::new();
    pass(&mut rag, 0, 4);
    for round in 1..100 {
        let first = round * 10_000;
        assert_eq!(
            allocations(|| pass(&mut rag, first, 256)),
            0,
            "round {round}"
        );
    }
    let stats = rag.stats();
    assert_eq!((stats.threads, stats.locks, stats.hold_edges), (2, 0, 0));
}

#[test]
fn a_snapshot_of_the_same_size_is_refreshed_without_allocating() {
    let mut live = Rag::new();
    pass(&mut live, 0, 4);
    let mut snapshot = live.clone();
    for round in 1..20 {
        pass(&mut live, round * 10_000, 64);
        assert_eq!(
            allocations(|| snapshot.clone_from(&live)),
            0,
            "round {round}"
        );
        assert!(snapshot == live);
    }
    // A waiter and the holds it waits on are copied too.
    live.on_granted(ThreadId(0), LockId(1), StackId(1));
    live.on_go(ThreadId(1), LockId(1), StackId(2));
    snapshot.clone_from(&live);
    assert!(snapshot == live);
    assert_eq!(
        dimmunix_rag::dot::to_dot(&snapshot),
        dimmunix_rag::dot::to_dot(&live)
    );
}
