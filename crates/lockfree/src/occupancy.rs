//! Lock-free bucket-occupancy fingerprints.
//!
//! **Kept only for a benchmark probe** (`crates/benchmark`'s
//! `lockfree.occupancy_probe_ns`). The avoidance engine no longer uses it:
//! since PR 25 its cover precheck reads each
//! [`VersionedBucket`](crate::VersionedBucket)'s own live-record count,
//! which was the same fact. Retire the probe, then this module.
//!
//! The question it answers is "could this bucket possibly be non-empty?",
//! *without* reading the bucket itself. [`OccupancyArray`] supports that
//! with a counting filter: a power-of-two array of atomic counters, indexed
//! by a bucket's dense slot (or a hash when the array is smaller than the
//! key space). Writers increment and decrement a slot in matched pairs
//! around whatever unit they count — live elements, or *non-empty
//! buckets*, bumping only on the empty↔non-empty transitions — so the
//! invariant is:
//!
//! > slot count == number of live units across all buckets whose key maps
//! > to the slot.
//!
//! A **zero** read therefore proves every bucket mapping to the slot is
//! empty (no false negatives); a non-zero read may be an alias (false
//! positives only send the reader to the full cover search). That
//! one-sided exactness is what makes the guard-free cover precheck sound:
//! a deadlock-signature instantiation needs *every* member bucket
//! non-empty, so one zero slot refutes the whole cover.
//!
//! Exactness depends on callers pairing increments with successful inserts
//! and decrements with successful removals — decrementing for a unit
//! that was never counted would manufacture false "empty" proofs.
//! Saturating arithmetic guards against the underflow panic, and a debug
//! assertion catches the pairing bug in tests.

use std::sync::atomic::{AtomicU32, Ordering};

/// A power-of-two array of atomic occupancy counters (see module docs).
pub struct OccupancyArray {
    slots: Box<[AtomicU32]>,
    mask: u64,
}

impl OccupancyArray {
    /// Creates an array with at least `slots` counters (rounded up to a
    /// power of two, minimum 1), all zero.
    pub fn new(slots: usize) -> Self {
        let n = slots.max(1).next_power_of_two();
        Self {
            slots: (0..n).map(|_| AtomicU32::new(0)).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of counter slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the array has no slots (never true; see [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    #[inline]
    fn slot(&self, hash: u64) -> &AtomicU32 {
        &self.slots[(hash & self.mask) as usize]
    }

    /// Records one element inserted into the bucket hashing to `hash`.
    #[inline]
    pub fn increment(&self, hash: u64) {
        self.slot(hash).fetch_add(1, Ordering::Release);
    }

    /// Records one element removed from the bucket hashing to `hash`. Call
    /// only after an actual removal (see module docs).
    #[inline]
    pub fn decrement(&self, hash: u64) {
        let prev = self.slot(hash).fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "occupancy decrement without matching increment");
        if prev == 0 {
            // Unpaired decrement in release builds: restore zero rather than
            // letting the counter wrap to u32::MAX and poison the slot.
            self.slot(hash).fetch_add(1, Ordering::Release);
        }
    }

    /// Whether some bucket hashing to `hash` may contain elements. `false`
    /// is a proof of emptiness; `true` may be a collision.
    #[inline]
    pub fn possibly_nonempty(&self, hash: u64) -> bool {
        self.slot(hash).load(Ordering::Acquire) != 0
    }
}

impl std::fmt::Debug for OccupancyArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OccupancyArray")
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_proves_empty_nonzero_after_insert() {
        let occ = OccupancyArray::new(64);
        assert!(!occ.possibly_nonempty(7));
        occ.increment(7);
        assert!(occ.possibly_nonempty(7));
        occ.decrement(7);
        assert!(!occ.possibly_nonempty(7));
    }

    #[test]
    fn collisions_alias_conservatively() {
        let occ = OccupancyArray::new(4); // mask 3: hashes 1 and 5 collide
        occ.increment(1);
        assert!(occ.possibly_nonempty(5), "collision must read non-empty");
        occ.decrement(1);
        assert!(!occ.possibly_nonempty(5));
    }

    #[test]
    fn rounds_slot_count_to_power_of_two() {
        assert_eq!(OccupancyArray::new(0).len(), 1);
        assert_eq!(OccupancyArray::new(3).len(), 4);
        assert_eq!(OccupancyArray::new(64).len(), 64);
        assert_eq!(OccupancyArray::new(65).len(), 128);
    }

    #[test]
    fn concurrent_balanced_traffic_returns_to_zero() {
        use std::sync::Arc;
        let occ = Arc::new(OccupancyArray::new(8));
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let occ = Arc::clone(&occ);
                std::thread::spawn(move || {
                    for i in 0..10_000_u64 {
                        occ.increment(k * 31 + i);
                        occ.decrement(k * 31 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for hash in 0..8 {
            assert!(!occ.possibly_nonempty(hash));
        }
    }
}
