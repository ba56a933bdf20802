//! Unbounded lock-free multi-producer / single-consumer queue.
//!
//! This is the paper's event channel between Dimmunix's avoidance
//! instrumentation (every application thread is a producer) and the
//! asynchronous monitor thread (the single consumer); in this tree the
//! reference engine publishes through it, the production engine through
//! per-thread lanes of [`crate::SpscRing`] blocks. The design follows Dmitry
//! Vyukov's non-intrusive MPSC node queue:
//!
//! * producers `swap` the shared tail and then link the previous node's
//!   `next` pointer — wait-free except for the two atomic operations;
//! * the single consumer walks `next` pointers from a stub node; it never
//!   contends with producers on the same cache line.
//!
//! The queue preserves the per-producer FIFO order as well as the global
//! order of tail swaps. This gives exactly the partial order the monitor
//! needs (§5.2 of the paper): if thread *A*'s `release(L)` event is enqueued
//! before thread *B*'s `acquired(L)` event (which the hook placement
//! guarantees), the consumer can never observe them reversed — at worst it
//! stops early at a not-yet-linked gap and retries on the next wakeup.

use std::cell::UnsafeCell;
use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    value: Option<T>,
}

impl<T> Node<T> {
    fn boxed(value: Option<T>) -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            value,
        }))
    }
}

/// Unbounded lock-free MPSC queue (Vyukov node queue).
///
/// `push` may be called concurrently from any number of threads; `pop` and
/// `drain` must only ever be called from one consumer at a time (this is
/// enforced by requiring `&mut self` — wrap the queue in an `Arc` and give
/// the consumer exclusive access through [`MpscQueue::pop`] taking `&self`
/// guarded by the single-consumer contract described there).
///
/// # Examples
///
/// ```
/// use dimmunix_lockfree::MpscQueue;
/// use std::sync::Arc;
///
/// let q = Arc::new(MpscQueue::new());
/// let producer = Arc::clone(&q);
/// std::thread::spawn(move || producer.push(42)).join().unwrap();
/// // SAFETY-free API: single consumer side.
/// assert_eq!(q.pop(), Some(42));
/// assert_eq!(q.pop(), None);
/// ```
pub struct MpscQueue<T> {
    /// Consumer-owned head (stub or last consumed node).
    head: UnsafeCell<*mut Node<T>>,
    /// Producer-shared tail.
    tail: AtomicPtr<Node<T>>,
    /// Approximate number of elements (pushed − popped).
    len: AtomicUsize,
}

// SAFETY: `MpscQueue` hands values across threads by ownership transfer; `T`
// must therefore be `Send`. The queue itself synchronizes all internal
// pointer accesses with atomics, and the single-consumer contract (below)
// keeps `head` accesses exclusive.
unsafe impl<T: Send> Send for MpscQueue<T> {}
// SAFETY: See above; shared references only expose `push`, `pop`, `drain`,
// `len`, and `is_empty`, all of which uphold the producer/consumer protocol.
unsafe impl<T: Send> Sync for MpscQueue<T> {}

impl<T> MpscQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let stub = Node::boxed(None);
        Self {
            head: UnsafeCell::new(stub),
            tail: AtomicPtr::new(stub),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueues `value`. Safe to call from any thread, concurrently.
    pub fn push(&self, value: T) {
        let node = Node::boxed(Some(value));
        // Serialization point: the order of tail swaps is the global queue
        // order observed by the consumer.
        let prev = self.tail.swap(node, Ordering::AcqRel);
        // SAFETY: `prev` was obtained from the tail, which always points at a
        // node owned by the queue; nodes are only freed by the consumer after
        // they have been unlinked from the head chain, and a node can only be
        // unlinked after its `next` has been linked — which is exactly what
        // we are about to do. Hence `prev` is alive here.
        unsafe {
            (*prev).next.store(node, Ordering::Release);
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Dequeues one value.
    ///
    /// Must only be called by the single consumer thread. Returns `None` when
    /// the queue is empty *or* when the next node's link is still in flight
    /// (a producer has swapped the tail but not yet stored `next`); the
    /// caller is expected to retry on its next wakeup.
    ///
    /// The single-consumer requirement is a logical contract, not a memory-
    /// safety one: concurrent `pop` calls would race on the head pointer, so
    /// the type intentionally does not implement `Clone` and the Dimmunix
    /// monitor is the only consumer.
    pub fn pop(&self) -> Option<T> {
        // SAFETY: Only the single consumer dereferences/updates `head`
        // (contract documented above), so the UnsafeCell access is exclusive.
        unsafe {
            let head = *self.head.get();
            let next = (*head).next.load(Ordering::Acquire);
            if next.is_null() {
                return None;
            }
            // Move the value out of the successor; the old head (stub) dies.
            let value = (*next)
                .value
                .take()
                .expect("non-stub node must carry a value");
            *self.head.get() = next;
            drop(Box::from_raw(head));
            self.len.fetch_sub(1, Ordering::Relaxed);
            Some(value)
        }
    }

    /// Drains every element currently linked, invoking `f` on each in queue
    /// order. Returns the number of elements consumed.
    ///
    /// Subject to the same single-consumer contract as [`MpscQueue::pop`].
    pub fn drain(&self, mut f: impl FnMut(T)) -> usize {
        let mut n = 0;
        while let Some(v) = self.pop() {
            f(v);
            n += 1;
        }
        n
    }

    /// Approximate number of queued elements (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the queue appears empty (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        // Drain remaining values, then free the final stub.
        while self.pop().is_some() {}
        // SAFETY: `&mut self` gives exclusive access; after the drain the
        // head chain contains exactly one node (the stub), owned by us.
        unsafe {
            let stub = *self.head.get();
            drop(Box::from_raw(stub));
        }
    }
}

impl<T> fmt::Debug for MpscQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MpscQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_single_thread() {
        let q = MpscQueue::new();
        assert!(q.is_empty());
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_collects_in_order() {
        let q = MpscQueue::new();
        for i in 0..100 {
            q.push(i);
        }
        let mut seen = Vec::new();
        let n = q.drain(|v| seen.push(v));
        assert_eq!(n, 100);
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
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
            let q = MpscQueue::new();
            for _ in 0..10 {
                q.push(Counted(Arc::clone(&drops)));
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn per_producer_fifo_under_contention() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 5_000;
        let q = Arc::new(MpscQueue::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.push((p, i));
                }
            }));
        }
        let mut last_seen = [None::<usize>; PRODUCERS];
        let mut total = 0;
        while total < PRODUCERS * PER_PRODUCER {
            if let Some((p, i)) = q.pop() {
                if let Some(prev) = last_seen[p] {
                    assert!(i > prev, "producer {p} reordered: {prev} then {i}");
                }
                last_seen[p] = Some(i);
                total += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.pop(), None);
    }
}
