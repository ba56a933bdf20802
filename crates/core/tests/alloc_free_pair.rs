//! Allocation guard: a warm, uncontended lock/unlock pair on an empty
//! history touches no heap — the held-lock stack keeps its capacity, events
//! are plain values in a preallocated lane, an empty wake set is an empty
//! `Vec`. Bursts fit the event lane; the monitor pass between them (which
//! does allocate) is not counted.

use dimmunix_core::{Config, Runtime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test thread while a burst runs; the harness's own threads
    /// never count.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: Defers every request to `System` unchanged; the counter is an
// atomic and the thread-local is const-initialised (no allocation, no
// destructor), so the allocator never re-enters itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Pairs per burst: two events each, well inside the 1024-slot lane.
const BURST: usize = 200;
const BURSTS: usize = 50;

/// Heap allocations made by the calling thread across `BURSTS` bursts of
/// `pair`, after one uncounted warm-up burst.
fn allocations_over(rt: &Runtime, mut pair: impl FnMut(usize)) -> u64 {
    let mut counted = 0;
    for burst in 0..=BURSTS {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        ARMED.with(|a| a.set(burst > 0));
        for i in 0..BURST {
            pair(i);
        }
        ARMED.with(|a| a.set(false));
        counted += ALLOCATIONS.load(Ordering::Relaxed) - before;
        rt.step_monitor();
    }
    counted
}

#[test]
fn warm_uncontended_pairs_do_not_allocate() {
    let rt = Runtime::new(Config::default()).unwrap();
    let site = rt.make_site(&[("main", "guard.rs", 1), ("work", "guard.rs", 2)]);
    let raw: Vec<_> = (0..8).map(|_| rt.raw_lock()).collect();
    let raw_allocations = allocations_over(&rt, |i| {
        let lock = &raw[i % raw.len()];
        lock.lock(&site);
        lock.unlock();
    });
    assert_eq!(raw_allocations, 0, "RawLock pairs");

    let mutexes: Vec<_> = (0..8).map(|_| rt.mutex(0_u64)).collect();
    let raii_allocations = allocations_over(&rt, |i| {
        *mutexes[i % mutexes.len()].lock() += 1;
    });
    assert_eq!(raii_allocations, 0, "ImmunizedMutex pairs");

    let stats = rt.stats();
    assert_eq!(stats.releases, 2 * (BURSTS as u64 + 1) * BURST as u64);
    assert_eq!(stats.yields, 0);
}
