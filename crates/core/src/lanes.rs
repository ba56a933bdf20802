//! Per-thread event lanes: one growable SPSC queue per registered thread.
//!
//! Every registered thread owns one lane and is its only producer; the
//! monitor is the only consumer of all lanes, and a drain stops at the
//! highest lane ever given a block (a lane gets its first by its first
//! push). A lane is a chain of fixed-size [`SpscRing`] blocks: the producer
//! pushes into the newest block and, when that is full, allocates another,
//! pushes there, links it behind the old one and never goes back. The hot
//! `acquired`/`release` hooks therefore publish their events with two
//! uncontended atomic stores instead of fighting over one shared MPSC tail,
//! a push can neither fail, block nor reorder, and a lane the monitor keeps
//! up with stays one block forever. A lone pair pushes nothing at all (a
//! quiet hold, [`crate::avoidance`]); the monitor asks
//! [`EventLanes::is_drained`] before it draws such a hold itself, so the
//! hold edge lands after everything its thread pushed before taking the
//! lock. Like the single queue of §5.2 a lane is unbounded: a producer the
//! monitor never catches up with grows its chain one block at a time
//! ([`EventLanes::overflow_count`] counts them).
//!
//! # Hand-over: free a block only after reading its link
//!
//! The producer's `next.store(Release)` is its **last** access to the block
//! it leaves. The consumer may free a block and follow the link only when
//! it finds the block empty **after** having read a non-null `next`
//! (`Acquire`). The link read synchronizes with the link store, so every
//! push the producer ever made into the old block happens-before the
//! consumer's emptiness check: an empty block with a link can never be
//! pushed into again, and nothing in it is unread. The order of the two
//! reads is the whole rule. An emptiness check made *before* the link read
//! proves nothing — between the two the producer may push once more into
//! the old block, fill it, and link the next — and freeing on it would drop
//! that last event and leave the producer's link store writing into freed
//! memory.
//!
//! # Ordering
//!
//! The monitor's RAG needs per-thread FIFO delivery (a thread's `release`
//! must never be applied after its subsequent `acquired`). Each block is
//! FIFO, and the consumer leaves a block only once it is empty for good, so
//! a lane is FIFO by construction. Across threads nothing is promised — the
//! consumer visits lane after lane, not in enqueue order — and the RAG
//! tolerates that (holds are multisets, detection runs only after a full
//! drain); the monitor-lag gauges in [`crate::stats::Stats`] make lane
//! backpressure observable.

use crate::event::Event;
use dimmunix_lockfree::SpscRing;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Events per lane block in a [`crate::runtime::Runtime`]: a thread that
/// publishes fewer than this between two monitor passes never links a
/// second block.
pub const BLOCK_CAPACITY: usize = 1024;

/// Smallest block [`SpscRing`] makes; a scripted hand-over needs no more.
#[cfg(feature = "fault-inject")]
const MIN_BLOCK_CAPACITY: usize = 2;

struct Block {
    ring: SpscRing<Event>,
    /// The block the producer moved on to; storing it is the producer's
    /// last access to this one (see the module docs).
    next: AtomicPtr<Block>,
}

impl Block {
    /// Leaks a new block; the consumer's hand-over or [`EventLanes`]'s
    /// `Drop` takes it back.
    fn alloc(capacity: usize) -> *mut Block {
        Box::into_raw(Box::new(Block {
            ring: SpscRing::with_capacity(capacity),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// One thread's chain of blocks, oldest to newest.
struct Lane {
    /// Oldest block, where the consumer reads. Null until the slot's first
    /// registration or push stores its first block; from then on only the
    /// consumer moves it, and never back to null.
    head: AtomicPtr<Block>,
    /// Newest block, where the producer writes. Producer-owned.
    tail: AtomicPtr<Block>,
}

/// The event transport between avoidance hooks and the monitor.
///
/// `AtomicPtr` is `Send + Sync` whatever it points at, so this type is too;
/// what that rests on is [`Event`] being `Send` (events change threads by
/// value; asserted below) and the two contracts on [`EventLanes::push`] and
/// [`EventLanes::drain`].
pub struct EventLanes {
    lanes: Box<[Lane]>,
    /// One past the highest lane ever given a block: where a drain stops.
    in_use: AtomicUsize,
    block_capacity: usize,
    /// Cumulative blocks linked behind an older one.
    linked: AtomicU64,
    /// Deepest backlog the consumer ever found on arriving at a lane.
    /// Consumer-owned.
    high_water: AtomicUsize,
}

const _: () = {
    const fn crosses_threads<T: Send>() {}
    crosses_threads::<Event>()
};

impl EventLanes {
    /// Creates lanes for `slots` slots; each block of a lane holds
    /// `block_capacity` events (rounded up to a power of two). No block is
    /// allocated until a slot is registered or pushed to.
    pub fn new(slots: usize, block_capacity: usize) -> Self {
        Self {
            lanes: (0..slots)
                .map(|_| Lane {
                    head: AtomicPtr::new(ptr::null_mut()),
                    tail: AtomicPtr::new(ptr::null_mut()),
                })
                .collect(),
            in_use: AtomicUsize::new(0),
            block_capacity,
            linked: AtomicU64::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Ensures `slot`'s first block exists, ahead of its first push (called
    /// by the thread that will push; the chain is kept across slot reuse).
    pub fn register(&self, slot: usize) {
        if self.lanes[slot].tail.load(Ordering::Relaxed).is_null() {
            self.first_block(slot);
        }
    }

    /// Publishes `event` on `slot`'s lane. Never fails, blocks or reorders;
    /// allocates only when the lane's newest block is full.
    ///
    /// Per-slot single-producer contract: only the thread owning `slot` (or
    /// its deregistering successor, ordered through the slot allocator) may
    /// call this for a given slot.
    pub fn push(&self, slot: usize, event: Event) {
        let lane = &self.lanes[slot];
        let mut tail = lane.tail.load(Ordering::Relaxed);
        if tail.is_null() {
            tail = self.first_block(slot);
        }
        #[cfg(feature = "fault-inject")]
        if dimmunix_inject::force_lane_overflow() {
            // Scripted backpressure: hand over to a new block on this push
            // as if the newest one were full, so the consumer crosses a
            // block boundary for every event under load.
            return self.grow(lane, tail, event, MIN_BLOCK_CAPACITY);
        }
        // SAFETY: `tail` is the lane's newest block. The consumer frees a
        // block only after reading its link, and only this producer links —
        // after which it never comes back here with that block.
        let ring = unsafe { &(*tail).ring };
        if let Err(event) = ring.push(event) {
            self.grow(lane, tail, event, self.block_capacity);
        }
    }

    #[cold]
    fn first_block(&self, slot: usize) -> *mut Block {
        let lane = &self.lanes[slot];
        let block = Block::alloc(self.block_capacity);
        lane.tail.store(block, Ordering::Relaxed);
        // Publishes the block to the consumer (`Acquire` in `drain`), which
        // skips the lane until it reads the new `in_use`.
        lane.head.store(block, Ordering::Release);
        self.in_use.fetch_max(slot + 1, Ordering::Release);
        block
    }

    /// Pushes `event` into a new block and links it behind `old`.
    #[cold]
    fn grow(&self, lane: &Lane, old: *mut Block, event: Event, capacity: usize) {
        let new = Block::alloc(capacity);
        // SAFETY: `new` is not linked yet, so only this thread can reach it.
        unsafe { &(*new).ring }
            .push(event)
            .expect("a new block has room");
        lane.tail.store(new, Ordering::Relaxed);
        self.linked.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `old` has no successor until this store, so the consumer
        // has not freed it. The store is this producer's last access to
        // `old`: once it is visible the consumer may free the block.
        unsafe { &(*old).next }.store(new, Ordering::Release);
    }

    /// Drains up to exactly `cap` events — every lane in use in slot order,
    /// each oldest first — invoking `f` on each. Returns how many were
    /// drained; a later call resumes where this one stopped.
    ///
    /// Single-consumer contract: only the monitor may call this.
    pub fn drain(&self, cap: usize, mut f: impl FnMut(Event)) -> usize {
        let mut drained = 0_usize;
        for lane in &self.lanes[..self.in_use.load(Ordering::Acquire)] {
            let mut block = lane.head.load(Ordering::Acquire);
            if block.is_null() {
                continue;
            }
            let depth = Self::depth(block);
            if depth > self.high_water.load(Ordering::Relaxed) {
                self.high_water.store(depth, Ordering::Relaxed);
            }
            loop {
                // SAFETY: `block` is the lane's head. Blocks are freed only
                // below, by this — the only — consumer, each after `head`
                // has moved past it.
                let Block { ring, next } = unsafe { &*block };
                while drained < cap {
                    let Some(event) = ring.pop() else { break };
                    drained += 1;
                    f(event);
                }
                if drained >= cap {
                    return drained;
                }
                let next = next.load(Ordering::Acquire);
                if next.is_null() {
                    break;
                }
                // The link is read; only an emptiness check made *now*
                // counts (module docs). The one above may predate a last
                // push into this block.
                if !ring.is_empty() {
                    continue;
                }
                lane.head.store(next, Ordering::Release);
                // SAFETY: the block came from `Block::alloc`, is empty and
                // linked — the producer is done with it for good — and
                // `head` no longer leads to it.
                drop(unsafe { Box::from_raw(block) });
                block = next;
            }
        }
        drained
    }

    /// Whether `slot`'s lane holds nothing to drain: every push that
    /// happens-before this call has been drained. Consumer only.
    pub fn is_drained(&self, slot: usize) -> bool {
        Self::depth(self.lanes[slot].head.load(Ordering::Acquire)) == 0
    }

    /// Entries queued from `block` to the end of its chain. Consumer only.
    fn depth(mut block: *mut Block) -> usize {
        let mut depth = 0;
        while !block.is_null() {
            // SAFETY: every block from the head on stays allocated until
            // the consumer — the caller — frees it.
            let Block { ring, next } = unsafe { &*block };
            depth += ring.len();
            block = next.load(Ordering::Acquire);
        }
        depth
    }

    /// Peak lane depth: the deepest backlog a [`EventLanes::drain`] ever
    /// found on arriving at a lane (monitor-lag gauge). A lane only grows
    /// between two visits, so this is the true peak up to pushes that race
    /// the visit itself.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Cumulative number of blocks linked behind a full one: how often a
    /// producer outran the consumer by a whole block.
    pub fn overflow_count(&self) -> u64 {
        self.linked.load(Ordering::Relaxed)
    }
}

impl Drop for EventLanes {
    fn drop(&mut self) {
        for lane in &mut self.lanes[..*self.in_use.get_mut()] {
            let mut block = *lane.head.get_mut();
            while !block.is_null() {
                // SAFETY: `&mut self`: no producer or consumer is left, and
                // each block was leaked by `Block::alloc` and is reachable
                // through this chain alone. Dropping its ring drops the
                // events still queued in it.
                let mut owned = unsafe { Box::from_raw(block) };
                block = *owned.next.get_mut();
            }
        }
    }
}

impl std::fmt::Debug for EventLanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLanes")
            .field("slots", &self.lanes.len())
            .field("block_capacity", &self.block_capacity)
            .field("high_water", &self.high_water())
            .field("linked", &self.overflow_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmunix_rag::{LockId, ThreadId};
    use std::sync::Arc;

    fn ev(t: u64, l: u64) -> Event {
        Event::Release {
            t: ThreadId(t),
            l: LockId(l),
        }
    }

    fn key(e: &Event) -> (u64, u64) {
        match *e {
            Event::Release { t, l } => (t.0, l.0),
            _ => unreachable!(),
        }
    }

    /// Lanes of one slot whose blocks hold two events, so every test that
    /// pushes more than two crosses a block boundary.
    fn tiny_blocks() -> EventLanes {
        let lanes = EventLanes::new(1, 2);
        lanes.register(0);
        lanes
    }

    /// Drains everything and returns the lock ids in delivery order.
    fn drain_all(lanes: &EventLanes) -> Vec<u64> {
        let mut seen = Vec::new();
        lanes.drain(usize::MAX, |e| seen.push(key(&e).1));
        seen
    }

    #[test]
    fn per_lane_fifo_and_slot_order() {
        let lanes = EventLanes::new(4, 8);
        lanes.register(0);
        lanes.register(2);
        lanes.push(2, ev(2, 0));
        lanes.push(0, ev(0, 0));
        lanes.push(0, ev(0, 1));
        let mut seen = Vec::new();
        let n = lanes.drain(usize::MAX, |e| seen.push(key(&e)));
        assert_eq!(n, 3);
        // Lane order (slot 0 first), FIFO within a lane.
        assert_eq!(seen, vec![(0, 0), (0, 1), (2, 0)]);
    }

    #[test]
    fn overflow_preserves_per_thread_order() {
        let lanes = tiny_blocks();
        for i in 0..7 {
            lanes.push(0, ev(0, i));
        }
        assert_eq!(
            lanes.overflow_count(),
            3,
            "seven events, four blocks of two"
        );
        assert_eq!(drain_all(&lanes), (0..7).collect::<Vec<_>>());
        // The three emptied blocks are gone; the lane goes on in the last,
        // which is empty again and takes two events without growing.
        lanes.push(0, ev(0, 7));
        lanes.push(0, ev(0, 8));
        assert_eq!(lanes.overflow_count(), 3);
        assert_eq!(drain_all(&lanes), vec![7, 8]);
    }

    #[test]
    fn push_makes_the_first_block_of_an_unregistered_slot() {
        let lanes = EventLanes::new(2, 4);
        lanes.push(1, ev(1, 7)); // never registered
        lanes.register(1); // and registering afterwards keeps the block
        assert_eq!(drain_all(&lanes), vec![7]);
        assert_eq!(lanes.overflow_count(), 0);
    }

    #[test]
    fn drain_cap_is_respected_and_resumable() {
        let lanes = EventLanes::new(1, 16);
        lanes.register(0);
        for i in 0..10 {
            lanes.push(0, ev(0, i));
        }
        let mut seen = Vec::new();
        assert_eq!(lanes.drain(4, |e| seen.push(key(&e).1)), 4);
        assert_eq!(lanes.drain(usize::MAX, |e| seen.push(key(&e).1)), 6);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drain_cap_is_exact_across_block_boundaries() {
        let lanes = tiny_blocks();
        for i in 0..7 {
            lanes.push(0, ev(0, i));
        }
        let mut seen = Vec::new();
        // Stops inside the second block, at the end of the third, then
        // takes the rest — never one event more than asked.
        for (cap, expect) in [(3, 3), (0, 0), (3, 3), (usize::MAX, 1)] {
            assert_eq!(lanes.drain(cap, |e| seen.push(key(&e).1)), expect);
        }
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let lanes = EventLanes::new(1, 8);
        lanes.register(0);
        for i in 0..5 {
            lanes.push(0, ev(0, i));
        }
        lanes.drain(usize::MAX, |_| {});
        assert_eq!(lanes.high_water(), 5);
    }

    #[test]
    fn high_water_reaches_beyond_one_block() {
        let lanes = tiny_blocks();
        for burst in [7, 3, 5] {
            for i in 0..burst {
                lanes.push(0, ev(0, i));
            }
            lanes.drain(usize::MAX, |_| {});
        }
        assert_eq!(lanes.high_water(), 7, "the peak, not the block size");
    }

    #[test]
    fn a_lane_drained_between_bursts_links_no_block() {
        let lanes = EventLanes::new(1, 4);
        lanes.register(0);
        for burst in 0..50 {
            for i in 0..4 {
                lanes.push(0, ev(0, burst * 4 + i));
            }
            assert_eq!(lanes.drain(usize::MAX, |_| {}), 4);
        }
        assert_eq!(lanes.overflow_count(), 0);
        assert_eq!(lanes.high_water(), 4);
    }

    /// White-box replay of the hand-over: the producer runs from inside the
    /// drain closure, while the consumer sits on the old block. Of its
    /// pushes some land in that block behind the consumer's position, one
    /// finds it full and links the next. Everything older is delivered
    /// first, and nothing is lost with the freed block.
    #[test]
    fn pushes_during_a_drain_cross_the_hand_over_in_order() {
        let lanes = tiny_blocks();
        lanes.push(0, ev(0, 0));
        lanes.push(0, ev(0, 1)); // the first block is full
        let mut seen = Vec::new();
        let drained = lanes.drain(usize::MAX, |e| {
            let k = key(&e).1;
            if k == 1 {
                // Both slots of the old block are free again: 2 and 3 go
                // into it, 4 links a second block, 5 follows there.
                for i in 2..6 {
                    lanes.push(0, ev(0, i));
                }
                assert_eq!(lanes.overflow_count(), 1);
            }
            seen.push(k);
        });
        assert_eq!(drained, 6, "one drain follows the link it saw appear");
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
        // The producer is in the second block and the consumer has freed
        // the first: the lane goes on as one queue.
        lanes.push(0, ev(0, 6));
        assert_eq!(drain_all(&lanes), vec![6]);
        assert_eq!(lanes.overflow_count(), 1);
    }

    /// A canary, not a proof: against a consumer that frees on "empty, then
    /// linked" this failed 6 of 13 debug runs and 0 of 6 release runs on a
    /// 2-vCPU host, so the order of the two reads in `drain` rests on the
    /// argument in the module docs.
    #[test]
    fn concurrent_stress_preserves_per_thread_fifo() {
        const N: u64 = 50_000;
        for block_capacity in [8, 2] {
            let lanes = Arc::new(EventLanes::new(1, block_capacity));
            lanes.register(0);
            let producer = {
                let lanes = Arc::clone(&lanes);
                std::thread::spawn(move || {
                    for i in 0..N {
                        lanes.push(0, ev(0, i));
                    }
                })
            };
            let mut next = 0_u64;
            while next < N {
                lanes.drain(usize::MAX, |e| {
                    let k = key(&e).1;
                    assert_eq!(k, next, "event order violated");
                    next += 1;
                });
                std::hint::spin_loop();
            }
            producer.join().unwrap();
        }
    }

    /// A drain walks the lanes up to the highest one given a block, whether
    /// by `register` or by a first push, and no further.
    #[test]
    fn a_drain_stops_at_the_highest_lane_in_use() {
        let lanes = EventLanes::new(4096, 4);
        assert_eq!(lanes.in_use.load(Ordering::Relaxed), 0);
        lanes.register(2);
        assert_eq!(lanes.in_use.load(Ordering::Relaxed), 3);
        lanes.push(9, ev(9, 1));
        lanes.push(0, ev(0, 2));
        assert_eq!(
            lanes.in_use.load(Ordering::Relaxed),
            10,
            "a lower lane does not lower it"
        );
        assert_eq!(drain_all(&lanes), vec![2, 1]);
    }

    /// 4096 of these are built per runtime.
    #[test]
    fn a_lane_header_fits_a_cache_line() {
        assert!(std::mem::size_of::<Lane>() <= 64);
    }
}
