//! Lock-free allocator of small integer slots.
//!
//! Every thread registered with the Dimmunix runtime claims a *slot* from a
//! [`SlotAllocator`]; the slot is its dense thread id and indexes every
//! per-thread array (held-lock stacks, event lanes, parkers). Releasing a
//! slot and claiming it again is a release/acquire pair, so a slot's
//! successive tenants never overlap.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free allocator of small integer slots (Dimmunix thread ids).
///
/// Implemented as a bitmap of `AtomicU64` words manipulated with
/// compare-and-swap; `acquire` scans for a clear bit and sets it, `release`
/// clears it. Both are lock-free.
pub struct SlotAllocator {
    words: Box<[AtomicU64]>,
    capacity: usize,
}

impl SlotAllocator {
    /// Creates an allocator managing slots `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let nwords = capacity.div_ceil(64);
        Self {
            words: (0..nwords).map(|_| AtomicU64::new(0)).collect(),
            capacity,
        }
    }

    /// Total number of slots managed.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Claims a free slot, or returns `None` if all are taken.
    pub fn acquire(&self) -> Option<usize> {
        for (w, word) in self.words.iter().enumerate() {
            let mut current = word.load(Ordering::Relaxed);
            loop {
                let free = (!current).trailing_zeros() as usize;
                if free >= 64 {
                    break; // Word full; try the next one.
                }
                let slot = w * 64 + free;
                if slot >= self.capacity {
                    return None; // Bits past capacity are never usable.
                }
                let bit = 1_u64 << free;
                match word.compare_exchange_weak(
                    current,
                    current | bit,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some(slot),
                    Err(actual) => current = actual,
                }
            }
        }
        None
    }

    /// Returns `slot` to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or was not currently allocated
    /// (double free).
    pub fn release(&self, slot: usize) {
        assert!(slot < self.capacity, "slot {slot} out of range");
        let bit = 1_u64 << (slot % 64);
        let prev = self.words[slot / 64].fetch_and(!bit, Ordering::AcqRel);
        assert!(prev & bit != 0, "slot {slot} was not allocated");
    }

    /// Number of slots currently allocated.
    pub fn allocated(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

impl fmt::Debug for SlotAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotAllocator")
            .field("capacity", &self.capacity)
            .field("allocated", &self.allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn slot_allocator_exhaustion_and_reuse() {
        let a = SlotAllocator::new(3);
        let s0 = a.acquire().unwrap();
        let s1 = a.acquire().unwrap();
        let s2 = a.acquire().unwrap();
        assert_eq!(a.acquire(), None);
        assert_eq!(a.allocated(), 3);
        a.release(s1);
        assert_eq!(a.acquire(), Some(s1));
        assert_ne!(s0, s2);
    }

    #[test]
    #[should_panic(expected = "was not allocated")]
    fn slot_double_free_panics() {
        let a = SlotAllocator::new(4);
        let s = a.acquire().unwrap();
        a.release(s);
        a.release(s);
    }

    #[test]
    fn slot_allocator_concurrent_uniqueness() {
        const THREADS: usize = 16;
        let a = Arc::new(SlotAllocator::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || a.acquire().unwrap())
            })
            .collect();
        let mut slots: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), THREADS, "duplicate slots handed out");
    }

    #[test]
    fn slot_allocator_capacity_not_word_aligned() {
        let a = SlotAllocator::new(70);
        let mut got = Vec::new();
        while let Some(s) = a.acquire() {
            got.push(s);
        }
        assert_eq!(got.len(), 70);
        assert!(got.iter().all(|&s| s < 70));
    }
}
