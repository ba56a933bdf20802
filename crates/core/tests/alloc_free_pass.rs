//! Allocation guard for a busy monitor pass with prediction on, on a
//! counting allocator. Once the predictor knows the nests, a pass
//! allocates nothing whatever the number of nests it drains (the RAG keeps
//! each hold in its holder's vertex, and with no waiter it neither makes a
//! lock record nor searches for cycles), with one exception: the drain
//! sheds a buffer more than twice the size that both a block and the
//! backlog it is checked against need, one allocation each. A lane gets its
//! own buffer back after its batch is applied, so a steady backlog past a
//! block costs nothing once its lane's buffer has grown to fit it, and a
//! mix of backlog sizes costs what [`Buffers`] models. Nothing else in a
//! pass copies or keeps what it drained: the RAG and the predictor are
//! their own restart points.

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

/// The capacities of the one lane's buffer and the drain's interim
/// buffer, as the drain's sizing rule moves them.
struct Buffers {
    lane: usize,
    spare: usize,
}

impl Buffers {
    /// The allocations a pass that drains `events` makes beyond `base`.
    fn pass(&mut self, events: usize) -> u64 {
        // The producer's `VecDeque` doubles until the backlog fits; that
        // is the worker's allocation, not the pass's.
        while self.lane < events {
            self.lane *= 2;
        }
        let fits = |capacity: usize| capacity <= 2 * BLOCK_CAPACITY.max(events);
        let mut shed = 0;
        // The interim buffer is checked before it goes into the lane, the
        // lane's own after its batch; no push comes in between, so the
        // lane gets its own back.
        if !fits(self.spare) {
            self.spare = BLOCK_CAPACITY;
            shed += 1;
        }
        if !fits(self.lane) {
            self.lane = BLOCK_CAPACITY;
            shed += 1;
        }
        shed
    }
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
    // 256 and 512 nests, re-feed it; then 40 passes of 512 nests each.
    // 64 nests are 384 events, which fit a lane's block; 256 and 512 grow
    // the lane past it.
    let learn = [512; 8];
    let mix = [64, 256, 512];
    let steady = [512; 40];
    passes(&rt, &locks, &site, &mut first, &learn);
    let cold = passes(&rt, &locks, &site, &mut first, &mix.repeat(8));
    let before = rt.stats();
    let warm = passes(&rt, &locks, &site, &mut first, &mix.repeat(40));
    let stats = rt.stats();
    assert_eq!(stats.releases - before.releases, 40 * 832 * NEST as u64);
    assert_eq!(stats.events_last_drain, 512 * 2 * NEST as u64);
    assert_eq!(stats.cycles_predicted, 0);
    let held = passes(&rt, &locks, &site, &mut first, &steady);
    assert_eq!(rt.stats().cycles_predicted, 0);
    // Both buffers start at a block: the lane's is made with the lane, and
    // the first pass reserves the spare's.
    let mut buffers = Buffers {
        lane: BLOCK_CAPACITY,
        spare: BLOCK_CAPACITY,
    };
    for &n in &learn {
        buffers.pass(n * 2 * NEST);
    }
    let nests = mix.repeat(48).into_iter().chain(steady);
    let extra: Vec<u64> = nests.map(|n| buffers.pass(n * 2 * NEST)).collect();
    let measured: Vec<u64> = cold.iter().chain(&warm).chain(&held).copied().collect();
    // What every pass allocates whatever its size: nothing. Nobody waits,
    // so the deadlock search has nothing to chase and makes no scratch.
    let base = measured[0] - extra[0];
    assert_eq!(base, 0, "{measured:?}");
    for (pass, (&allocated, &extra)) in measured.iter().zip(&extra).enumerate() {
        assert_eq!(allocated, base + extra, "pass {pass}: {measured:?}");
    }
    // The mixed passes shed a buffer now and then; a steady backlog past a
    // block keeps its buffers.
    assert!(extra.iter().any(|&e| e > 0), "{extra:?}");
    assert!(held.iter().all(|&n| n == base), "{held:?}");
}
