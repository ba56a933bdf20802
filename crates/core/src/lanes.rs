//! Per-thread event lanes: one mutex-guarded queue per registered thread.
//!
//! Every registered thread owns one lane and is its only producer; the
//! monitor is the only consumer of all lanes. A lane is a
//! `Mutex<VecDeque<Event>>` on its own cache line, made on its slot's first
//! registration or push, and a drain stops at the highest lane made so far.
//! The mutex has two users: the owning thread's `push` and the monitor's
//! once-per-pass swap, so it is all but uncontended, and a push can neither
//! fail nor reorder. A lone pair pushes nothing at all (a quiet hold,
//! `avoidance/record.rs`); the monitor asks [`EventLanes::is_drained`] before
//! it draws such a hold itself, so the hold edge lands after everything its
//! thread pushed before taking the lock. Like the single queue of §5.2 a
//! lane is unbounded: a producer the monitor never catches up with grows its
//! queue ([`EventLanes::overflow_count`] counts each block of
//! `block_capacity` events it grows past).
//!
//! # Drain: swap, then apply
//!
//! A drain takes each non-empty lane's lock only to swap its queue with an
//! empty interim buffer, and applies the events it took with no lane lock
//! held, so a producer waits at most for a swap, never for the monitor's
//! work. The emptied queue then goes back to its lane, unless the producer
//! pushed meanwhile: then the lane keeps the interim buffer and the emptied
//! queue is the interim buffer of the next lane. Either way a buffer is
//! kept at the size it grew to unless that is more than twice both a block
//! and the backlog it is checked against (the backlog it held, or the one
//! of the lane it goes to); a larger one is shrunk to a block first. So
//! each producer keeps a buffer that fits its own backlog, whatever the
//! other lanes queue, and a spike's buffer lasts until the next drain of a
//! smaller backlog. A capped drain puts what it did not apply back at the
//! front of the lane's queue, ahead of anything pushed meanwhile.
//!
//! # Ordering
//!
//! The monitor's RAG needs per-thread FIFO delivery (a thread's `release`
//! must never be applied after its subsequent `acquired`). A lane is one
//! queue, and a drain applies what it swapped out before it swaps that lane
//! again, so a lane is FIFO by construction. Across threads nothing is
//! promised — the consumer visits lane after lane, not in enqueue order —
//! and the RAG tolerates that (holds are multisets, detection runs only
//! after a full drain); the monitor-lag gauges in [`crate::stats::Stats`]
//! make lane backpressure observable.

#![forbid(unsafe_code)]

use crate::event::Event;
use dimmunix_lockfree::CachePadded;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Events a lane holds before it grows in a [`crate::runtime::Runtime`]: a
/// thread that publishes fewer than this between two monitor passes never
/// counts an overflow.
pub const BLOCK_CAPACITY: usize = 1024;

/// One thread's queue, oldest event first.
type Lane = CachePadded<Mutex<VecDeque<Event>>>;

/// The event transport between avoidance hooks and the monitor.
pub struct EventLanes {
    /// Made on a slot's first registration or push; an unmade lane costs
    /// its empty header only.
    lanes: Box<[OnceLock<Box<Lane>>]>,
    /// One past the highest lane made: where a drain stops.
    in_use: AtomicUsize,
    block_capacity: usize,
    /// The interim buffer a drain swaps into the next non-empty lane.
    /// Consumer-owned.
    spare: Mutex<VecDeque<Event>>,
    /// Cumulative pushes that grew a lane past a full block.
    grown: AtomicU64,
    /// Deepest backlog the consumer ever swapped out of a lane.
    /// Consumer-owned.
    high_water: AtomicUsize,
}

impl EventLanes {
    /// Creates lanes for `slots` slots, each holding `block_capacity` events
    /// before it counts an overflow. No lane is made until its slot is
    /// registered or pushed to.
    pub fn new(slots: usize, block_capacity: usize) -> Self {
        Self {
            lanes: (0..slots).map(|_| OnceLock::new()).collect(),
            in_use: AtomicUsize::new(0),
            block_capacity,
            spare: Mutex::new(VecDeque::new()),
            grown: AtomicU64::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Makes `slot`'s lane, ahead of its first push (called by the thread
    /// that will push; the lane is kept across slot reuse).
    pub fn register(&self, slot: usize) {
        self.lane(slot);
    }

    /// Publishes `event` on `slot`'s lane. Never fails or reorders;
    /// allocates only when the lane's queue is full.
    ///
    /// Per-slot single-producer contract: only the thread owning `slot` may
    /// call this for a given slot. An id's successive tenants, the exit
    /// sweep's `ThreadExit` included, are ordered by the id pool's mutex.
    pub fn push(&self, slot: usize, event: Event) {
        let mut queue = self.lane(slot).lock();
        let len = queue.len();
        if len >= self.block_capacity && len.is_multiple_of(self.block_capacity) {
            self.grown.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(event);
    }

    fn lane(&self, slot: usize) -> &Lane {
        match self.lanes[slot].get() {
            Some(lane) => lane,
            None => self.make_lane(slot),
        }
    }

    #[cold]
    fn make_lane(&self, slot: usize) -> &Lane {
        let queue = VecDeque::with_capacity(self.block_capacity);
        let lane = self.lanes[slot].get_or_init(|| Box::new(CachePadded::new(Mutex::new(queue))));
        // The consumer skips the lane until it reads the new `in_use`.
        self.in_use.fetch_max(slot + 1, Ordering::Release);
        lane
    }

    /// Drains up to exactly `cap` events — every lane in use in slot order,
    /// each oldest first — invoking `f` on each. Returns how many were
    /// drained; a later call resumes where this one stopped. A push made
    /// by `f` is left for a later call. Should `f` panic, the rest of the
    /// lane's batch goes down with the pass that was applying it.
    ///
    /// Single-consumer contract: only the monitor may call this.
    pub fn drain(&self, cap: usize, mut f: impl FnMut(&Event)) -> usize {
        let mut buf = std::mem::take(&mut *self.spare.lock());
        let mut drained = 0_usize;
        for lane in self.lanes[..self.in_use.load(Ordering::Acquire)]
            .iter()
            .filter_map(OnceLock::get)
        {
            if drained == cap {
                break;
            }
            {
                let mut queue = lane.lock();
                if queue.is_empty() {
                    continue;
                }
                // `VecDeque` doubles, so a buffer grown to fit a backlog is
                // at most twice it. One larger than that for this lane is
                // shed first, outside the lock.
                if buf.capacity() > 2 * self.block_capacity.max(queue.len()) {
                    drop(queue);
                    buf.shrink_to(self.block_capacity);
                    queue = lane.lock();
                }
                if buf.capacity() < self.block_capacity {
                    buf.reserve(self.block_capacity);
                }
                std::mem::swap(&mut *queue, &mut buf);
            }
            let backlog = buf.len();
            self.high_water.fetch_max(backlog, Ordering::Relaxed);
            let take = backlog.min(cap - drained);
            buf.range(..take).for_each(&mut f);
            buf.drain(..take);
            drained += take;
            if !buf.is_empty() {
                // Capped: the rest goes back in front of what was pushed
                // since the swap.
                let mut queue = lane.lock();
                buf.append(&mut queue);
                std::mem::swap(&mut *queue, &mut buf);
                continue;
            }
            // The lane's own buffer, emptied, goes back to the lane unless
            // its producer pushed meanwhile (then the lane keeps the
            // interim buffer, and this one goes on to the next lane). It is
            // shed first by the rule above, against the backlog it held.
            if buf.capacity() > 2 * self.block_capacity.max(backlog) {
                buf.shrink_to(self.block_capacity);
            }
            let mut queue = lane.lock();
            if queue.is_empty() {
                std::mem::swap(&mut *queue, &mut buf);
            }
        }
        *self.spare.lock() = buf;
        drained
    }

    /// Whether `slot`'s lane holds nothing to drain: every push that
    /// happens-before this call has been drained. Consumer only, after a
    /// drain (whose events are then all applied).
    pub fn is_drained(&self, slot: usize) -> bool {
        self.lanes[slot]
            .get()
            .is_none_or(|lane| lane.lock().is_empty())
    }

    /// Peak lane depth: the deepest backlog a [`EventLanes::drain`] ever
    /// swapped out of a lane (monitor-lag gauge). A lane only grows between
    /// two visits, so this is its true peak.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Cumulative number of pushes that grew a lane past a full block of
    /// `block_capacity` events: how often a producer outran the consumer by
    /// a whole block.
    pub fn overflow_count(&self) -> u64 {
        self.grown.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for EventLanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLanes")
            .field("slots", &self.lanes.len())
            .field("block_capacity", &self.block_capacity)
            .field("high_water", &self.high_water())
            .field("grown", &self.overflow_count())
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
    /// pushes more than two between drains grows the lane past a block.
    fn tiny_blocks() -> EventLanes {
        let lanes = EventLanes::new(1, 2);
        lanes.register(0);
        lanes
    }

    /// Drains everything and returns the lock ids in delivery order.
    fn drain_all(lanes: &EventLanes) -> Vec<u64> {
        let mut seen = Vec::new();
        lanes.drain(usize::MAX, |e| seen.push(key(e).1));
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
        let n = lanes.drain(usize::MAX, |e| seen.push(key(e)));
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
            "seven events, past three full blocks of two"
        );
        assert_eq!(drain_all(&lanes), (0..7).collect::<Vec<_>>());
        // The drained lane is empty again and takes two events without
        // growing.
        lanes.push(0, ev(0, 7));
        lanes.push(0, ev(0, 8));
        assert_eq!(lanes.overflow_count(), 3);
        assert_eq!(drain_all(&lanes), vec![7, 8]);
    }

    #[test]
    fn push_makes_the_first_block_of_an_unregistered_slot() {
        let lanes = EventLanes::new(2, 4);
        lanes.push(1, ev(1, 7)); // never registered
        lanes.register(1); // and registering afterwards keeps the lane
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
        assert_eq!(lanes.drain(4, |e| seen.push(key(e).1)), 4);
        assert_eq!(lanes.drain(usize::MAX, |e| seen.push(key(e).1)), 6);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drain_cap_is_exact_across_block_boundaries() {
        let lanes = tiny_blocks();
        for i in 0..7 {
            lanes.push(0, ev(0, i));
        }
        let mut seen = Vec::new();
        // Stops past one block, inside the third, then takes the rest —
        // never one event more than asked, and pushes made in between
        // queue behind what a capped drain put back.
        for (cap, expect) in [(3, 3), (0, 0), (2, 2)] {
            assert_eq!(lanes.drain(cap, |e| seen.push(key(e).1)), expect);
        }
        lanes.push(0, ev(0, 7));
        assert_eq!(lanes.drain(usize::MAX, |e| seen.push(key(e).1)), 3);
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
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

    /// The capacity of the buffer in `slot`'s lane and of the spare.
    fn capacities(lanes: &EventLanes, slot: usize) -> (usize, usize) {
        let lane = lanes.lanes[slot].get().unwrap().lock().capacity();
        (lane, lanes.spare.lock().capacity())
    }

    #[test]
    fn a_steady_producer_keeps_a_buffer_that_fits_its_backlog() {
        let lanes = EventLanes::new(1, 4);
        lanes.register(0);
        for pass in 0..5 {
            for i in 0..12 {
                lanes.push(0, ev(0, i));
            }
            assert_eq!(lanes.drain(usize::MAX, |_| {}), 12);
            // The lane's buffer has grown to fit three blocks, and the
            // drain handed it back; the interim buffer stays a block.
            let (lane, spare) = capacities(&lanes, 0);
            assert!(lane >= 12 && spare <= 4, "pass {pass}: {lane} {spare}");
        }
    }

    /// A lane keeps its own buffer whatever the lane drained before it
    /// queues: a producer of three blocks per pass behind a producer of
    /// one event does not regrow its queue on every pass, and the small
    /// lane does not keep the large lane's buffer.
    #[test]
    fn each_lane_keeps_a_buffer_that_fits_its_own_backlog() {
        let lanes = EventLanes::new(2, 4);
        lanes.register(0);
        lanes.register(1);
        for pass in 0..5 {
            for i in 0..12 {
                lanes.push(0, ev(0, i));
            }
            lanes.push(1, ev(1, 0));
            assert_eq!(lanes.drain(usize::MAX, |_| {}), 13);
            let (large, spare) = capacities(&lanes, 0);
            let (small, _) = capacities(&lanes, 1);
            assert!(large >= 12, "pass {pass}: {large}");
            assert!(small <= 8 && spare <= 8, "pass {pass}: {small} {spare}");
        }
        // Pushes that fit the lane's buffer grow nothing.
        let before = capacities(&lanes, 0).0;
        for i in 0..12 {
            lanes.push(0, ev(0, i));
        }
        assert_eq!(capacities(&lanes, 0).0, before);
    }

    #[test]
    fn a_spike_leaves_no_buffer_past_the_next_small_drain() {
        let lanes = EventLanes::new(1, 4);
        lanes.register(0);
        for i in 0..40 {
            lanes.push(0, ev(0, i));
        }
        assert_eq!(lanes.drain(usize::MAX, |_| {}), 40);
        lanes.push(0, ev(0, 40));
        assert_eq!(lanes.drain(usize::MAX, |_| {}), 1);
        let (lane, spare) = capacities(&lanes, 0);
        assert!(lane <= 8 && spare <= 8, "{lane} {spare}");
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

    /// The producer runs from inside a capped drain's closure, while the
    /// consumer applies what it swapped out: the pushes (past a full block,
    /// too) queue in the lane, behind what the cap put back, and come after
    /// everything older, in order, from the next drain.
    #[test]
    fn pushes_during_a_drain_come_after_everything_older() {
        let lanes = tiny_blocks();
        for i in 0..3 {
            lanes.push(0, ev(0, i));
        }
        let mut seen = Vec::new();
        let drained = lanes.drain(2, |e| {
            let k = key(e).1;
            if k == 0 {
                for i in 3..7 {
                    lanes.push(0, ev(0, i));
                }
            }
            seen.push(k);
        });
        assert_eq!(drained, 2, "capped, and the pushes wait for the next drain");
        assert!(!lanes.is_drained(0));
        assert_eq!(lanes.drain(usize::MAX, |e| seen.push(key(e).1)), 5);
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
        assert!(lanes.is_drained(0));
        assert_eq!(lanes.overflow_count(), 2);
    }

    /// One producer racing the drains, at two block sizes: every event
    /// arrives once, in order.
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
                    let k = key(e).1;
                    assert_eq!(k, next, "event order violated");
                    next += 1;
                });
                std::hint::spin_loop();
            }
            producer.join().unwrap();
        }
    }

    /// A drain walks the lanes up to the highest one made, whether by
    /// `register` or by a first push, and no further.
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

    /// 4096 of these are built per runtime; the lane behind one is made
    /// only when its slot registers.
    #[test]
    fn a_lane_header_fits_a_cache_line() {
        assert_eq!(std::mem::size_of::<OnceLock<Box<Lane>>>(), 16);
    }
}
