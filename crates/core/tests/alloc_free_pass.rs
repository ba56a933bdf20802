//! Allocation guard for a busy monitor pass with prediction on, on a
//! counting allocator. Once the predictor knows the nests and the RAG
//! keeps the `holders` buffers of the lock vertices it removed, a pass
//! allocates the same whatever the number of nests it drains, with one
//! exception: a lane whose backlog grew past a block hands the drain a
//! grown buffer, which the drain shrinks back to a block before it swaps
//! it into the next lane. Nothing else in a pass copies or keeps what it
//! drained: the predictor is its own restart point.

use dimmunix_core::lanes::BLOCK_CAPACITY;
use dimmunix_core::{Config, LockSite, PredictionConfig, RawLock, Runtime};
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
const LOCKS: usize = 4096;
/// Locks per nest: `L_i → L_i+1 → L_i+2`.
const NEST: usize = 3;

/// `nests` nested triples in lock order from `first`, wrapping.
fn walk(locks: &[RawLock], site: &LockSite, first: usize, nests: usize) {
    let span = LOCKS - NEST + 1;
    for k in first..first + nests {
        let i = k % span;
        for lock in &locks[i..i + NEST] {
            lock.lock(site);
        }
        for lock in locks[i..i + NEST].iter().rev() {
            lock.unlock();
        }
    }
}

/// The busy passes of one thread's nests over the whole order, in passes
/// of `nests` nests each; returns each pass's allocations.
fn passes(
    rt: &Runtime,
    locks: &[RawLock],
    site: &LockSite,
    first: &mut usize,
    nests: &[usize],
) -> Vec<u64> {
    nests
        .iter()
        .map(|&n| {
            walk(locks, site, *first, n);
            *first += n;
            allocations(|| rt.step_monitor())
        })
        .collect()
}

#[test]
fn a_warm_busy_pass_allocates_once_more_only_to_shrink_a_grown_lane() {
    let rt = Runtime::new(Config {
        prediction: Some(PredictionConfig::default()),
        ..Config::default()
    })
    .unwrap();
    let site = rt.make_site(&[("main", "pass.rs", 1), ("nest", "pass.rs", 2)]);
    let locks: Vec<RawLock> = (0..LOCKS).map(|_| rt.raw_lock()).collect();
    let mut first = 0;
    // The first 8 passes walk the whole order: the predictor learns every
    // nest. The passes right after them and the 120 after those, of 64,
    // 256 and 512 nests, re-feed it.
    let mix = [64, 256, 512];
    passes(&rt, &locks, &site, &mut first, &[512; 8]);
    let cold = passes(&rt, &locks, &site, &mut first, &mix.repeat(8));
    let before = rt.stats();
    let warm = passes(&rt, &locks, &site, &mut first, &mix.repeat(40));
    let stats = rt.stats();
    assert_eq!(stats.releases - before.releases, 40 * 832 * NEST as u64);
    assert_eq!(stats.events_last_drain, 512 * 2 * NEST as u64);
    assert_eq!(stats.cycles_predicted, 0);
    // What every pass allocates whatever its size: the deadlock search's
    // scratch for the one thread it starts from.
    let base = warm[0];
    assert!(base <= 2, "{warm:?}");
    for (pass, (&n, &allocated)) in mix.iter().cycle().zip(cold.iter().chain(&warm)).enumerate() {
        // 64 nests are 384 events, which fit a lane's block; 256 and 512
        // grow the lane past it.
        let grown = n * 2 * NEST > BLOCK_CAPACITY;
        assert_eq!(
            allocated,
            base + u64::from(grown),
            "pass {pass}: {cold:?} {warm:?}"
        );
    }
}
