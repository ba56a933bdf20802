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
//! empty buffer, and hands the monitor the buffer it took as one [`Batch`],
//! with no lane lock held, so a producer waits at most for a swap, never for
//! the monitor's work. The monitor applies the batch's events and either
//! lets them go, or keeps them: the whole buffer, leaving an empty one of
//! its own in its place ([`Batch::swap_whole`]; the predictor's restart log
//! keeps dense buffers this way), or the events alone. Whichever empty
//! buffer is left is the one swapped into the next lane. A capped drain
//! puts what it did not hand over back at the front of the lane's queue,
//! ahead of anything pushed meanwhile.
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
    /// The empty buffer a drain swaps into the next non-empty lane.
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

    /// Events a lane holds before it grows: the room a drain gives every
    /// buffer it swaps in.
    pub fn block_capacity(&self) -> usize {
        self.block_capacity
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
    /// each oldest first — handing `f` one [`Batch`] per non-empty lane.
    /// Returns how many were drained; a later call resumes where this one
    /// stopped. A push made by `f` is left for a later call. Events `f`
    /// leaves in its batch are dropped. Should `f` panic, the rest of the
    /// lane's batch goes down with the pass that was applying it.
    ///
    /// Single-consumer contract: only the monitor may call this.
    pub fn drain(&self, cap: usize, mut f: impl FnMut(Batch<'_>)) -> usize {
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
                if buf.capacity() < self.block_capacity {
                    buf.reserve(self.block_capacity);
                }
                std::mem::swap(&mut *queue, &mut buf);
            }
            self.high_water.fetch_max(buf.len(), Ordering::Relaxed);
            let take = buf.len().min(cap - drained);
            let rest = buf.len() - take;
            f(Batch {
                buf: &mut buf,
                take,
            });
            // What `f` left of its batch, if anything, goes now.
            let left = buf.len() - rest;
            buf.drain(..left);
            drained += take;
            if !buf.is_empty() {
                // Capped: the rest goes back in front of what was pushed
                // since the swap.
                let mut queue = lane.lock();
                buf.append(&mut queue);
                std::mem::swap(&mut *queue, &mut buf);
            }
            // A backlog spike leaves no lasting buffer behind it.
            buf.shrink_to(self.block_capacity);
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

/// One lane's share of an [`EventLanes::drain`]: the buffer the drain
/// swapped out of the lane, whose first [`Batch::len`] events are this
/// batch (a capped drain keeps the rest for the lane). The consumer reads
/// the events in place ([`Batch::events`]) and keeps what it wants of them:
/// all of them by value (the batch is an iterator's source), or the whole
/// buffer ([`Batch::swap_whole`]). Whatever it leaves is dropped.
#[derive(Debug)]
pub struct Batch<'a> {
    buf: &'a mut VecDeque<Event>,
    take: usize,
}

impl<'a> Batch<'a> {
    /// How many events the batch holds (never 0).
    pub fn len(&self) -> usize {
        self.take
    }

    /// Whether the batch holds no event; a drain never hands one over.
    pub fn is_empty(&self) -> bool {
        self.take == 0
    }

    /// The batch's events, oldest first.
    pub fn events(&self) -> std::collections::vec_deque::Iter<'_, Event> {
        self.buf.range(..self.take)
    }

    /// How many events the buffer has room for.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Whether the batch is the whole buffer: the drain's cap did not stop
    /// inside this lane.
    pub fn is_whole(&self) -> bool {
        self.take == self.buf.len()
    }

    /// Takes the whole buffer, events and room, and leaves `spare`,
    /// emptied, to be swapped into the next lane instead.
    ///
    /// # Panics
    ///
    /// If the batch is not the whole buffer ([`Batch::is_whole`]).
    pub fn swap_whole(self, mut spare: VecDeque<Event>) -> VecDeque<Event> {
        assert!(self.is_whole(), "a capped batch shares its buffer");
        spare.clear();
        std::mem::replace(self.buf, spare)
    }
}

impl<'a> IntoIterator for Batch<'a> {
    type Item = Event;
    type IntoIter = std::collections::vec_deque::Drain<'a, Event>;

    /// Moves the batch's events out, oldest first.
    fn into_iter(self) -> Self::IntoIter {
        self.buf.drain(..self.take)
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

    /// [`EventLanes::drain`], handing `f` each event of each batch.
    fn drain_each(lanes: &EventLanes, cap: usize, mut f: impl FnMut(Event)) -> usize {
        lanes.drain(cap, |batch| batch.into_iter().for_each(&mut f))
    }

    /// Drains everything and returns the lock ids in delivery order.
    fn drain_all(lanes: &EventLanes) -> Vec<u64> {
        let mut seen = Vec::new();
        drain_each(lanes, usize::MAX, |e| seen.push(key(&e).1));
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
        let n = drain_each(&lanes, usize::MAX, |e| seen.push(key(&e)));
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
        assert_eq!(drain_each(&lanes, 4, |e| seen.push(key(&e).1)), 4);
        assert_eq!(drain_each(&lanes, usize::MAX, |e| seen.push(key(&e).1)), 6);
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
            assert_eq!(drain_each(&lanes, cap, |e| seen.push(key(&e).1)), expect);
        }
        lanes.push(0, ev(0, 7));
        assert_eq!(drain_each(&lanes, usize::MAX, |e| seen.push(key(&e).1)), 3);
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
        let drained = drain_each(&lanes, 2, |e| {
            let k = key(&e).1;
            if k == 0 {
                for i in 3..7 {
                    lanes.push(0, ev(0, i));
                }
            }
            seen.push(k);
        });
        assert_eq!(drained, 2, "capped, and the pushes wait for the next drain");
        assert!(!lanes.is_drained(0));
        assert_eq!(drain_each(&lanes, usize::MAX, |e| seen.push(key(&e).1)), 5);
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
        assert!(lanes.is_drained(0));
        assert_eq!(lanes.overflow_count(), 2);
    }

    /// A consumer that keeps a lane's whole buffer, as the predictor's log
    /// does, and hands back an empty one of its own: the kept buffer holds
    /// the batch in order, the lane goes on FIFO in the buffer it got, and a
    /// capped remainder still goes back ahead of pushes made meanwhile.
    #[test]
    fn a_kept_buffer_leaves_the_lane_fifo() {
        let lanes = tiny_blocks();
        for i in 0..3 {
            lanes.push(0, ev(0, i));
        }
        let mut kept = Vec::new();
        let drained = lanes.drain(usize::MAX, |batch| {
            assert!(batch.is_whole() && batch.len() == 3);
            kept.push(batch.swap_whole(VecDeque::with_capacity(2)));
        });
        assert_eq!(drained, 3);
        let kept: Vec<u64> = kept[0].iter().map(|e| key(e).1).collect();
        assert_eq!(kept, vec![0, 1, 2]);

        // Two rounds, so the lane runs in more than one swapped buffer.
        for round in 0..2 {
            let first = 3 + round * 6;
            for i in first..first + 5 {
                lanes.push(0, ev(0, i));
            }
            let mut seen = Vec::new();
            let drained = drain_each(&lanes, 2, |e| {
                seen.push(key(&e).1);
                if seen.len() == 1 {
                    lanes.push(0, ev(0, first + 5));
                }
            });
            assert_eq!(drained, 2);
            seen.extend(drain_all(&lanes));
            assert_eq!(seen, (first..first + 6).collect::<Vec<_>>());
        }
        assert!(lanes.is_drained(0));
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
                drain_each(&lanes, usize::MAX, |e| {
                    let k = key(&e).1;
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
