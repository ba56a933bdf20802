//! Epoch-published snapshot cell (`ArcSwap`-style, dependency-free).
//!
//! The avoidance hot path must read the current *match view* (enabled
//! matching depths + suffix index) on every `request` without taking the
//! shared-state guard. [`EpochCell`] supports that with a two-part protocol:
//!
//! * a cache-padded **epoch counter**, bumped on every publication — readers
//!   keep a private `(epoch, Arc<T>)` cache and revalidate it with a single
//!   atomic load per access;
//! * the **value slot**, an `Arc<T>` behind a tiny spinlock that is only
//!   touched on publication (rare: history-generation changes) and on cache
//!   refresh (once per reader per publication).
//!
//! The steady-state read is therefore one atomic load; the refresh path is a
//! short spinlock-protected `Arc` clone. This keeps the implementation
//! sound without hazard pointers or deferred reclamation, which a true
//! wait-free pointer swap would require, at the cost of a bounded (few-ns)
//! spin when a refresh races a publication.

use crate::backoff::Backoff;
use crate::pad::CachePadded;
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A published, epoch-versioned `Arc<T>` snapshot.
///
/// # Examples
///
/// ```
/// use dimmunix_lockfree::EpochCell;
/// use std::sync::Arc;
///
/// let cell = EpochCell::new(Arc::new(1));
/// let e0 = cell.epoch();
/// assert_eq!(*cell.load(), 1);
/// cell.publish(Arc::new(2));
/// assert_ne!(cell.epoch(), e0);
/// assert_eq!(*cell.load(), 2);
/// ```
pub struct EpochCell<T> {
    epoch: CachePadded<AtomicU64>,
    locked: AtomicBool,
    value: UnsafeCell<Arc<T>>,
}

// SAFETY: The `Arc<T>` in the cell is only accessed under the internal
// spinlock, and `Arc<T>: Send + Sync` requires `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for EpochCell<T> {}
// SAFETY: See above.
unsafe impl<T: Send + Sync> Sync for EpochCell<T> {}

impl<T> EpochCell<T> {
    /// Creates a cell publishing `value` at epoch 0.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            epoch: CachePadded::new(AtomicU64::new(0)),
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// The current publication epoch. One atomic load — this is the hot-path
    /// staleness check for reader-side caches.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the currently published snapshot.
    pub fn load(&self) -> Arc<T> {
        self.load_with_epoch().1
    }

    /// Clones the currently published snapshot together with the epoch it
    /// was published at. [`EpochCell::epoch`] followed by
    /// [`EpochCell::load`] can straddle a publication and pair an older
    /// epoch with a newer value; a reader that keys anything else by the
    /// epoch — "same epoch, therefore same snapshot" — refreshes through
    /// this instead.
    pub fn load_with_epoch(&self) -> (u64, Arc<T>) {
        let _g = self.lock();
        // The epoch only moves inside this critical section (`publish`).
        let epoch = self.epoch.load(Ordering::Acquire);
        // SAFETY: The spinlock is held, so no publication is concurrently
        // replacing the Arc.
        (epoch, unsafe { Arc::clone(&*self.value.get()) })
    }

    /// Publishes `value` as the new snapshot and bumps the epoch.
    ///
    /// The epoch is bumped *inside* the critical section, after the store:
    /// any reader that observes the new epoch and then takes the lock to
    /// refresh is guaranteed to load the new (or a newer) value.
    pub fn publish(&self, value: Arc<T>) {
        let _g = self.lock();
        // SAFETY: As in `load_with_epoch`: exclusive via the spinlock.
        unsafe {
            *self.value.get() = value;
        }
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn lock(&self) -> SpinGuard<'_, T> {
        let backoff = Backoff::new();
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff.snooze();
        }
        SpinGuard { cell: self }
    }
}

struct SpinGuard<'a, T> {
    cell: &'a EpochCell<T>,
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.cell.locked.store(false, Ordering::Release);
    }
}

impl<T: fmt::Debug> fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochCell")
            .field("epoch", &self.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_moves_with_each_publication() {
        let cell = EpochCell::new(Arc::new("a"));
        assert_eq!(cell.epoch(), 0);
        cell.publish(Arc::new("b"));
        cell.publish(Arc::new("c"));
        assert_eq!(cell.epoch(), 2);
        assert_eq!(*cell.load(), "c");
        assert_eq!(cell.load_with_epoch(), (2, Arc::new("c")));
    }

    #[test]
    fn readers_always_see_a_published_value() {
        // Hammer publish/load from two sides; every load must observe one of
        // the published values, and epochs must be monotone per reader.
        let cell = Arc::new(EpochCell::new(Arc::new(0_u64)));
        let publisher = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for i in 1..=10_000_u64 {
                    cell.publish(Arc::new(i));
                }
            })
        };
        let mut last = 0;
        let mut last_epoch = 0;
        while last < 10_000 {
            let e = cell.epoch();
            let v = *cell.load();
            assert!(v >= last, "value regressed: {last} then {v}");
            assert!(e >= last_epoch, "epoch regressed");
            last = v;
            last_epoch = e;
            // Value `i` is the `i`-th publication: the pair is exact.
            let (paired_epoch, paired) = cell.load_with_epoch();
            assert_eq!(paired_epoch, *paired);
        }
        publisher.join().unwrap();
    }
}
