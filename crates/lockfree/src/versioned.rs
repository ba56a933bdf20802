//! Versioned `Allowed` buckets: optimistic readers over a per-bucket
//! sequence word.
//!
//! The avoidance engine's exact-cover search used to lock the mutex shards
//! of every member bucket it probed, so requests hitting the *same*
//! signature (one hot bucket) serialized on that shard. [`VersionedBucket`]
//! removes the reader-side lock entirely:
//!
//! * each bucket carries a **sequence word** (`seq`): even = stable, odd =
//!   a writer is inside its critical section. Every mutation moves it by 2;
//! * **readers never block**: [`VersionedBucket::read_into`] loads the
//!   sequence, copies the records out, re-loads the sequence, and retries
//!   on a mismatch — the seqlock read protocol. The returned sequence lets
//!   a caller *re-validate later* that the bucket has not changed since the
//!   copy;
//! * **writers** claim the bucket with one CAS on the sequence word (even →
//!   odd), mutate, and release by bumping back to even. There is no OS
//!   mutex and no parking — the critical section is a handful of word
//!   stores;
//! * storage is a **chunked, append-only slot array** (chunks are linked,
//!   never freed until drop, so readers can traverse them at any time
//!   without reclamation machinery). The live records always occupy the
//!   dense prefix `[0, len)`: `push` appends at `len`, `remove` copies the
//!   last record into the hole (`Vec::swap_remove` order). Storage order is
//!   deterministic but *not* load-bearing for decision equality: since
//!   delta rebuilds preserve temporal order in surviving buckets while full
//!   rebuilds re-insert in sweep order, the avoidance engine (and its
//!   differential oracle) canonically sort every snapshot before running
//!   the cover search.
//!
//! Records are fixed-width arrays of `u64` words stored in per-word
//! atomics: a torn copy can be *produced* while a writer races, but the
//! trailing sequence check discards it, and reading through atomics keeps
//! the race defined behavior.
//!
//! # Memory ordering
//!
//! The sequence word is operated on with `SeqCst`. The writer *claim* is a
//! CAS (it is the mutual-exclusion point), but the *release* transition is
//! a plain `SeqCst` **store**: inside a write session the claim holder is
//! the only possible writer of the sequence word (every other writer is
//! spinning in its claim loop, which only CASes an *even* value, and the
//! holder knows the exact odd value it claimed to), so an RMW would buy
//! nothing — the single-writer release fast path halves the session's
//! `SeqCst` RMWs and shaves the uncontended own-entry insert/remove on the
//! 1-thread signature-hit rows. Nothing outside this module depends on
//! the sequence word being `SeqCst`.
//!
//! The live-record count `len` is the bucket's only record of its own
//! occupancy: the claim holder stores it `Release` after the record words,
//! and [`VersionedBucket::is_empty`] loads it `Acquire`. There is no
//! separate occupancy counter to keep in step with it.

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};

/// Capacity of the inline first chunk; subsequent chunks double.
const FIRST_CHUNK: usize = 8;

/// Wait strategy for seqlock retries. The holder is inside for a handful
/// of word stores, so the common wait is tens of nanoseconds — a *short*
/// spin (far below [`crate::backoff::Backoff`]'s 64-pause ceiling, which costs
/// microseconds of idle per claim on a hot bucket). But a holder can also
/// be preempted mid-session; a pure spin then burns the waiter's entire
/// timeslice on a saturated core, so after the short spin phase every
/// further retry yields to the OS scheduler.
struct ClaimWait {
    step: u32,
}

impl ClaimWait {
    fn new() -> Self {
        Self { step: 0 }
    }

    #[inline]
    fn wait(&mut self) {
        if self.step < 4 {
            for _ in 0..(1_u32 << self.step) {
                core::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

/// One linked storage chunk (never freed before the bucket itself).
struct Chunk<const W: usize> {
    slots: Box<[[AtomicU64; W]]>,
    next: AtomicPtr<Chunk<W>>,
}

impl<const W: usize> Chunk<W> {
    fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

/// A seqlock-versioned bucket of `W`-word records (see module docs).
///
/// Readers are optimistic and never block; writers claim the sequence word
/// with a single CAS. Sequential mutation order is exactly `Vec` push /
/// `swap_remove` order.
///
/// # Examples
///
/// ```
/// use dimmunix_lockfree::VersionedBucket;
///
/// let bucket: VersionedBucket<2> = VersionedBucket::new();
/// bucket.write().push([1, 10]);
/// bucket.write().push([2, 20]);
/// let mut out = Vec::new();
/// let seq = bucket.read_into(&mut out);
/// assert_eq!(out, vec![[1, 10], [2, 20]]);
/// assert_eq!(bucket.seq(), seq); // unchanged since the copy
/// assert!(bucket.write().remove([1, 10]));
/// assert_ne!(bucket.seq(), seq); // churn is visible to validators
/// bucket.read_into(&mut out);
/// assert_eq!(out, vec![[2, 20]]); // swap_remove moved the tail into the hole
/// ```
pub struct VersionedBucket<const W: usize> {
    /// Sequence word: even = stable, odd = writer inside. `SeqCst` RMWs.
    seq: CachePadded<AtomicU64>,
    /// Number of live records (the dense prefix). Only the claim holder
    /// writes it (`Release`, after the record words).
    len: AtomicU32,
    head: Chunk<W>,
}

// SAFETY: All shared state is atomics; chunk links are only appended (with
// Release/Acquire publication) and freed in `Drop`, when no reader can hold
// a reference.
unsafe impl<const W: usize> Send for VersionedBucket<W> {}
// SAFETY: See above.
unsafe impl<const W: usize> Sync for VersionedBucket<W> {}

impl<const W: usize> VersionedBucket<W> {
    /// Creates an empty bucket.
    pub fn new() -> Self {
        Self {
            seq: CachePadded::new(AtomicU64::new(0)),
            len: AtomicU32::new(0),
            head: Chunk::new(FIRST_CHUNK),
        }
    }

    /// The current sequence word (`SeqCst`). Compare against the value
    /// returned by [`Self::read_into`] to detect any intervening mutation.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Racy live-record count (telemetry only).
    #[inline]
    pub fn approx_len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    /// Whether the bucket held no live record when `len` was loaded: the
    /// read whose zero proves the bucket was empty, with no copy and no
    /// sequence check (the avoidance engine's cover precheck). `Acquire`
    /// pairs with the writer's `Release` store of `len`, which follows the
    /// record's words, so a non-zero read also sees those records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    /// Optimistically copies the live records into `out` (cleared first),
    /// in slot order, and returns the (even) sequence word the copy was
    /// validated against. Never blocks; retries while a writer is inside or
    /// the sequence moved mid-copy.
    pub fn read_into(&self, out: &mut Vec<[u64; W]>) -> u64 {
        let mut wait = ClaimWait::new();
        loop {
            let s1 = self.seq.load(Ordering::SeqCst);
            if s1 & 1 == 0 {
                out.clear();
                let n = self.len.load(Ordering::Acquire) as usize;
                self.copy_prefix(n, out);
                if out.len() == n && self.seq.load(Ordering::SeqCst) == s1 {
                    return s1;
                }
            }
            wait.wait();
        }
    }

    /// Copies slots `[0, n)` into `out`, stopping early if the chunk chain
    /// is shorter than `n` (possible only when racing a writer — the caller
    /// re-validates the sequence and retries).
    fn copy_prefix(&self, n: usize, out: &mut Vec<[u64; W]>) {
        let mut chunk = &self.head;
        loop {
            for slot in chunk.slots.iter() {
                if out.len() == n {
                    return;
                }
                out.push(std::array::from_fn(|w| slot[w].load(Ordering::Relaxed)));
            }
            if out.len() == n {
                return;
            }
            let next = chunk.next.load(Ordering::Acquire);
            if next.is_null() {
                return;
            }
            // SAFETY: Non-null `next` pointers are published once (Release)
            // and only freed in `Drop`.
            chunk = unsafe { &*next };
        }
    }

    /// Claims the bucket for writing: one CAS on the sequence word (even →
    /// odd), spinning with backoff while another writer is inside. The
    /// returned guard releases the claim (odd → even) on drop — a plain
    /// `SeqCst` store, since the holder is the sequence word's only writer
    /// (single-writer release fast path; see the module docs) — so every
    /// write session moves the sequence by exactly 2.
    pub fn write(&self) -> BucketWriter<'_, W> {
        let mut wait = ClaimWait::new();
        loop {
            let s = self.seq.load(Ordering::SeqCst);
            if s & 1 == 0
                && self
                    .seq
                    .compare_exchange_weak(s, s + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                let len = self.len.load(Ordering::Relaxed);
                return BucketWriter {
                    bucket: self,
                    len,
                    claimed: s + 1,
                };
            }
            wait.wait();
        }
    }

    /// The slot at flat index `i` (must be below the linked capacity).
    fn slot(&self, mut i: usize) -> &[AtomicU64; W] {
        let mut chunk = &self.head;
        loop {
            if i < chunk.slots.len() {
                return &chunk.slots[i];
            }
            i -= chunk.slots.len();
            let next = chunk.next.load(Ordering::Acquire);
            assert!(!next.is_null(), "slot index beyond linked capacity");
            // SAFETY: As in `copy_prefix`.
            chunk = unsafe { &*next };
        }
    }

    /// Total linked capacity and the last chunk (claim holder only).
    fn capacity_and_tail(&self) -> (usize, &Chunk<W>) {
        let mut cap = self.head.slots.len();
        let mut chunk = &self.head;
        loop {
            let next = chunk.next.load(Ordering::Acquire);
            if next.is_null() {
                return (cap, chunk);
            }
            // SAFETY: As in `copy_prefix`.
            chunk = unsafe { &*next };
            cap += chunk.slots.len();
        }
    }
}

impl<const W: usize> Default for VersionedBucket<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const W: usize> Drop for VersionedBucket<W> {
    fn drop(&mut self) {
        let mut p = self.head.next.load(Ordering::Acquire);
        while !p.is_null() {
            // SAFETY: Exclusive access in `drop`; chunks were Box-allocated.
            let chunk = unsafe { Box::from_raw(p) };
            p = chunk.next.load(Ordering::Acquire);
        }
    }
}

impl<const W: usize> std::fmt::Debug for VersionedBucket<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedBucket")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .field("len", &self.approx_len())
            .finish()
    }
}

/// Exclusive write session on a [`VersionedBucket`] (see
/// [`VersionedBucket::write`]). Dropping it publishes the mutation.
pub struct BucketWriter<'a, const W: usize> {
    bucket: &'a VersionedBucket<W>,
    len: u32,
    /// The odd sequence value this session claimed to; the release store
    /// publishes `claimed + 1` without re-reading the word.
    claimed: u64,
}

impl<const W: usize> BucketWriter<'_, W> {
    /// Appends `rec` (Vec-push position: index `len`).
    pub fn push(&mut self, rec: [u64; W]) {
        let needed = self.len as usize + 1;
        let (cap, tail) = self.bucket.capacity_and_tail();
        if needed > cap {
            let grown = Box::into_raw(Box::new(Chunk::new(cap)));
            tail.next.store(grown, Ordering::Release);
        }
        let slot = self.bucket.slot(self.len as usize);
        for w in 0..W {
            slot[w].store(rec[w], Ordering::Relaxed);
        }
        self.len += 1;
        self.bucket.len.store(self.len, Ordering::Release);
    }

    /// Removes the first record equal to `rec`, moving the last live record
    /// into the hole (`Vec::swap_remove` order). Returns whether a record
    /// was removed.
    pub fn remove(&mut self, rec: [u64; W]) -> bool {
        let n = self.len as usize;
        for i in 0..n {
            let slot = self.bucket.slot(i);
            if (0..W).all(|w| slot[w].load(Ordering::Relaxed) == rec[w]) {
                if i != n - 1 {
                    let last = self.bucket.slot(n - 1);
                    let moved: [u64; W] = std::array::from_fn(|w| last[w].load(Ordering::Relaxed));
                    for w in 0..W {
                        slot[w].store(moved[w], Ordering::Relaxed);
                    }
                }
                self.len -= 1;
                self.bucket.len.store(self.len, Ordering::Release);
                return true;
            }
        }
        false
    }
}

impl<const W: usize> Drop for BucketWriter<'_, W> {
    fn drop(&mut self) {
        // Single-writer release: while the sequence is odd, every other
        // writer's claim loop refuses to CAS and readers only load, so the
        // holder's store cannot race another write to the word.
        self.bucket.seq.store(self.claimed + 1, Ordering::SeqCst);
    }
}

impl<const W: usize> std::fmt::Debug for BucketWriter<'_, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketWriter")
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_remove_follow_vec_swap_remove_order() {
        let bucket: VersionedBucket<1> = VersionedBucket::new();
        let mut model: Vec<[u64; 1]> = Vec::new();
        let mut out = Vec::new();
        for v in 1..=6 {
            bucket.write().push([v]);
            model.push([v]);
        }
        for &v in &[2_u64, 6, 1] {
            let pos = model.iter().position(|r| r[0] == v).unwrap();
            model.swap_remove(pos);
            assert!(bucket.write().remove([v]));
            bucket.read_into(&mut out);
            assert_eq!(out, model);
        }
        assert!(!bucket.write().remove([42]));
    }

    #[test]
    fn grows_past_the_first_chunk() {
        let bucket: VersionedBucket<2> = VersionedBucket::new();
        let n = 100_u64;
        for v in 0..n {
            bucket.write().push([v, v * 3]);
        }
        let mut out = Vec::new();
        bucket.read_into(&mut out);
        assert_eq!(out.len(), n as usize);
        for (i, rec) in out.iter().enumerate() {
            assert_eq!(rec, &[i as u64, i as u64 * 3]);
        }
    }

    #[test]
    fn sequence_moves_by_two_per_write_session() {
        let bucket: VersionedBucket<1> = VersionedBucket::new();
        let s0 = bucket.seq();
        bucket.write().push([7]);
        assert_eq!(bucket.seq(), s0 + 2);
        // A no-op removal still counts as a session (claim + release).
        bucket.write().remove([999]);
        assert_eq!(bucket.seq(), s0 + 4);
    }

    #[test]
    fn concurrent_churn_never_tears_records() {
        // Writers publish records whose words are linked by an invariant;
        // any validated snapshot must only contain intact records.
        let bucket: Arc<VersionedBucket<2>> = Arc::new(VersionedBucket::new());
        let writers: Vec<_> = (0..4_u64)
            .map(|k| {
                let bucket = Arc::clone(&bucket);
                std::thread::spawn(move || {
                    for i in 0..2_000_u64 {
                        let v = k * 1_000_000 + i;
                        bucket.write().push([v, v.wrapping_mul(0x9E37_79B9)]);
                        assert!(bucket.write().remove([v, v.wrapping_mul(0x9E37_79B9)]));
                    }
                })
            })
            .collect();
        let mut out = Vec::new();
        for _ in 0..2_000 {
            bucket.read_into(&mut out);
            for rec in &out {
                assert_eq!(rec[1], rec[0].wrapping_mul(0x9E37_79B9), "torn record");
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        bucket.read_into(&mut out);
        assert!(out.is_empty());
    }
}
