//! Allocation guards, on a counting allocator. A warm, uncontended
//! lock/unlock pair on an empty history touches no heap — the held-lock
//! stack keeps its capacity, events are plain values in a lane block that
//! is already there, an empty wake set is an empty `Vec`. Nor does one on
//! a populated history through a signature-member suffix: the stack is
//! resolved to its bucket slots into the held-stack entry itself, and the
//! release removes by those. Bursts fit one block; the monitor pass between
//! them (which does allocate) is not counted. And event lanes dropped with
//! events still queued give back every block and every event.

use dimmunix_core::{
    Config, CycleKind, Event, EventLanes, LockId, Runtime, SigId, StackId, ThreadId, YieldInfo,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some((allocations, frees))` on a test thread while it counts its
    /// own; other tests' threads and the harness's never show up in it.
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn count(allocations: u64, frees: u64) {
    let _ = COUNTS.try_with(|c| {
        if let Some((a, f)) = c.get() {
            c.set(Some((a + allocations, f + frees)));
        }
    });
}

/// `(allocations, frees)` made by the calling thread inside `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    f();
    COUNTS.with(Cell::take).expect("counting is not nested")
}

// SAFETY: Defers every request to `System` unchanged; the thread-local is
// const-initialised (no allocation, no destructor), so the allocator never
// re-enters itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 1);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Pairs per burst: two events each, well inside a 1024-slot lane block.
const BURST: usize = 200;
const BURSTS: usize = 50;

/// Heap allocations made by the calling thread across `BURSTS` bursts of
/// `pair`, after one uncounted warm-up burst.
fn allocations_over(rt: &Runtime, mut pair: impl FnMut(usize)) -> u64 {
    let mut allocations = 0;
    for burst in 0..=BURSTS {
        let (allocated, _) = counted(|| {
            for i in 0..BURST {
                pair(i);
            }
        });
        if burst > 0 {
            allocations += allocated;
        }
        rt.step_monitor();
    }
    allocations
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

/// The pair that pays for the match path: every request resolves to member
/// buckets (two of them — the history uses two matching depths), runs the
/// occupancy precheck over its candidates, inserts its entry, and every
/// release takes it out again.
#[test]
fn warm_pairs_on_a_relevant_suffix_do_not_allocate() {
    let rt = Runtime::new(Config::default()).unwrap();
    let site_of = |function: &'static str, line: u32| {
        rt.make_site(&[("main", "guard.rs", 1), (function, "guard.rs", line)])
    };
    let member = site_of("work", 2);
    for (i, depth) in (0..32_u32).zip([2_u8, 1].into_iter().cycle()) {
        let partner = site_of("elsewhere", 100 + i);
        let added = rt.history().add(
            CycleKind::Deadlock,
            vec![member.stack(), partner.stack()],
            depth,
        );
        assert!(added.is_some(), "32 distinct signatures");
    }
    let raw: Vec<_> = (0..8).map(|_| rt.raw_lock()).collect();
    let before = rt.stats();
    let allocations = allocations_over(&rt, |i| {
        let lock = &raw[i % raw.len()];
        lock.lock(&member);
        lock.unlock();
    });
    assert_eq!(allocations, 0, "RawLock pairs through a member suffix");

    // Each request met all 32 candidates and refuted them without a search:
    // the pairs really were on the match path.
    let stats = rt.stats();
    let pairs = (BURSTS as u64 + 1) * BURST as u64;
    assert_eq!(stats.releases - before.releases, pairs);
    assert_eq!(stats.precheck_skips - before.precheck_skips, 32 * pairs);
    assert_eq!(stats.yields, 0);
}

/// A lane dropped with undrained `Yield`s in three blocks frees the blocks
/// and, through them, each event's boxed `YieldInfo` and its vectors.
#[test]
fn dropping_lanes_frees_every_block_and_queued_event() {
    let (allocations, frees) = counted(|| {
        let lanes = EventLanes::new(1, 2);
        for i in 0..5 {
            let info = Box::new(YieldInfo {
                sig: SigId(0),
                depth_used: 4,
                bindings: vec![(StackId(i), StackId(i + 1))],
                causes: Vec::with_capacity(3),
            });
            lanes.push(
                0,
                Event::Yield {
                    t: ThreadId(0),
                    l: LockId(u64::from(i)),
                    stack: StackId(i),
                    info,
                },
            );
        }
        assert_eq!(lanes.overflow_count(), 2, "five events in three blocks");
    });
    // Per event a box and two vectors; per block the block and its buffer;
    // the lane array.
    assert_eq!(allocations, 5 * 3 + 3 * 2 + 1);
    assert_eq!(frees, allocations);
}
