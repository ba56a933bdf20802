//! Bounded wait-free single-producer / single-consumer ring buffer.
//!
//! **Kept only for a benchmark probe** (`crates/benchmark`'s
//! `lockfree.spsc_push_pop_ns`); the runtime's event lanes are mutex-guarded
//! queues. The sole producer and the sole consumer each proceed with one
//! relaxed load, one acquire load and one release store per operation — no
//! CAS, no shared cache line written by both sides (head and tail are
//! cache-padded). A full ring refuses the push. Retire the probe, then this
//! module.

use crate::pad::CachePadded;
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A bounded SPSC ring buffer (Lamport queue).
///
/// # Contract
///
/// At most one thread may call [`SpscRing::push`] concurrently, and at most
/// one (possibly different) thread may call [`SpscRing::pop`] concurrently.
/// This is a logical contract like the one on [`crate::MpscQueue`]: each
/// ring has one producer thread and one consumer thread at a time. A caller
/// that hands a ring to a new producer must order the hand-over (a mutex or
/// a join), so successive producers never overlap.
///
/// # Examples
///
/// ```
/// use dimmunix_lockfree::SpscRing;
///
/// let ring: SpscRing<u32> = SpscRing::with_capacity(4);
/// assert!(ring.push(1).is_ok());
/// assert!(ring.push(2).is_ok());
/// assert_eq!(ring.pop(), Some(1));
/// assert_eq!(ring.pop(), Some(2));
/// assert_eq!(ring.pop(), None);
/// ```
pub struct SpscRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next index to pop; written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next index to push; written only by the producer.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: Values cross threads by ownership transfer (`T: Send`); all index
// handshakes use acquire/release atomics, and the producer/consumer contract
// keeps the two `UnsafeCell` access patterns disjoint.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: See above; `&self` only exposes the contract-guarded operations.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Creates a ring holding at least `capacity` elements (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        Self {
            buf: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap - 1,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Enqueues `value`, or returns it when the ring is full.
    ///
    /// Must only be called by the single producer.
    pub fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.buf.len() {
            return Err(value);
        }
        // SAFETY: `tail & mask` is outside the consumer's live window
        // (`head..tail`), and only this producer writes slots; the slot is
        // published to the consumer by the release store of `tail` below.
        unsafe {
            (*self.buf[tail & self.mask].get()).write(value);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Dequeues one value, or `None` when the ring is empty.
    ///
    /// Must only be called by the single consumer.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail` (producer's release store observed), so the
        // slot was fully written and is not being touched by the producer;
        // it stays owned by the consumer until the release store of `head`
        // below returns it to the producer.
        let value = unsafe { (*self.buf[head & self.mask].get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Approximate number of queued elements (exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// Whether the ring appears empty (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent producer/consumer; drain what remains.
        while self.pop().is_some() {}
    }
}

impl<T> fmt::Debug for SpscRing<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(SpscRing::<u8>::with_capacity(0).capacity(), 2);
        assert_eq!(SpscRing::<u8>::with_capacity(3).capacity(), 4);
        assert_eq!(SpscRing::<u8>::with_capacity(1024).capacity(), 1024);
    }

    #[test]
    fn fills_and_rejects_then_recovers() {
        let ring = SpscRing::with_capacity(4);
        for i in 0..4 {
            assert!(ring.push(i).is_ok());
        }
        assert_eq!(ring.push(99), Err(99));
        assert_eq!(ring.pop(), Some(0));
        assert!(ring.push(4).is_ok());
        let drained: Vec<_> = std::iter::from_fn(|| ring.pop()).collect();
        assert_eq!(drained, vec![1, 2, 3, 4]);
    }

    #[test]
    fn fifo_across_threads() {
        const N: usize = 100_000;
        let ring = Arc::new(SpscRing::with_capacity(64));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match ring.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            })
        };
        let mut next = 0;
        while next < N {
            if let Some(v) = ring.pop() {
                assert_eq!(v, next);
                next += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn drop_releases_pending_values() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let ring = SpscRing::with_capacity(8);
            for _ in 0..5 {
                assert!(ring.push(Counted(Arc::clone(&drops))).is_ok());
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }
}
