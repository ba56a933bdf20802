//! Offline drop-in subset of the `parking_lot` API, implemented on top of
//! `std::sync`. This workspace builds in environments with no access to
//! crates.io, so the handful of `parking_lot` types the Dimmunix crates use
//! are provided here with identical signatures: non-poisoning [`Mutex`] /
//! [`RwLock`] / [`Condvar`], and a [`RawMutex`] implementing the
//! [`lock_api::RawMutex`] / [`lock_api::RawMutexTimed`] traits.
//!
//! Semantics match `parking_lot` where the callers depend on them:
//! panicking while holding a guard does not poison the lock, `Condvar::wait`
//! takes `&mut MutexGuard`, and `RawMutex` supports `lock`/`unlock` without
//! a guard object plus timed acquisition.
//!
//! So does the cost where the callers measure it. [`RawMutex`] — the mutex
//! under every immunized lock type and under the gate-lock / ghost-lock
//! baselines — is a three-state word (0 free, 1 held, 2 held and someone may
//! wait): an uncontended `lock` is one compare-exchange, an uncontended
//! `unlock` one swap, and neither makes a system call; only a thread that
//! finds the mutex taken parks, on a `std` `Mutex<()>` + `Condvar` pair,
//! and only an `unlock` that reads 2 notifies. The one rule of the slow
//! path — a waiter acquires with `swap(2)`, never with 0 → 1 — and what
//! the stand-in leaves out (spinning, fairness, the global parking lot) are
//! on the type. [`Mutex`] and [`RwLock`] wrap the `std` locks, which already
//! have that shape on Linux.

#![warn(missing_docs)]

pub mod lock_api;

#[cfg(test)]
mod tests;

use lock_api::RawMutex as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::{Duration, Instant};

/// A mutual exclusion primitive (non-poisoning wrapper over `std::sync::Mutex`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex in an unlocked state.
    pub const fn new(value: T) -> Self {
        Self {
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the underlying data.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner: Some(guard) }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the underlying data (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can temporarily hand the inner guard back
    // to `std::sync::Condvar` through a `&mut` borrow.
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

/// A reader-writer lock (non-poisoning wrapper over `std::sync::RwLock`).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// RAII guard returned by [`RwLock::read`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII guard returned by [`RwLock::write`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock in an unlocked state.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the underlying data.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { inner }
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { inner }
    }

    /// Attempts to acquire shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts to acquire exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the underlying data (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed wait on a [`Condvar`].
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable usable with [`MutexGuard`] via `&mut` borrows.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: StdCondvar::new(),
        }
    }

    /// Blocks until notified; atomically releases and reacquires the mutex.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken during wait");
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(inner);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard taken during wait");
        let (inner, res) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    /// Blocks until notified or `deadline` is reached.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        if now >= deadline {
            return WaitTimeoutResult { timed_out: true };
        }
        self.wait_for(guard, deadline - now)
    }

    /// Wakes one thread blocked on this condition variable.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all threads blocked on this condition variable.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A raw mutex: guard-free `lock`/`unlock`, timed acquisition, const init.
///
/// The three-state futex-mutex protocol, with a `std` `Mutex<()>` + `Condvar`
/// pair as the parking place instead of a futex word:
///
/// | `state` | meaning                                        |
/// |---------|------------------------------------------------|
/// | 0       | free                                           |
/// | 1       | held, nobody waits                             |
/// | 2       | held, and a thread may be parked on `cond`     |
///
/// * `lock` / `try_lock` / `try_lock_for` on a free mutex are one
///   compare-exchange 0 → 1 (`Acquire`).
/// * `unlock` is one `swap(0, Release)`. Only when it reads 2 does it take
///   `blocking` and `notify_one` — with no waiter it touches neither
///   `blocking` nor `cond` and makes no system call.
/// * A thread that finds the mutex taken takes `blocking` and then acquires
///   **only** with `swap(2, Acquire) == 0`, parking on `cond` while the swap
///   reads non-zero. It never uses the 0 → 1 compare-exchange: a waiter that
///   wins while others are still parked must leave the state at 2, so that
///   its own `unlock` wakes the next one. (With 0 → 1 the second of two
///   parked waiters sleeps forever.) The swap that fails has also marked the
///   state 2, so the holder's `unlock` will notify — and not between that
///   swap and the wait, because it has to take `blocking` first.
///
/// The last waiter of a chain, and a timed waiter that gives up, leave a
/// stale 2 behind: the next `unlock` makes one spurious `notify_one`, and
/// the next uncontended `lock` returns the state to 1.
///
/// What this stand-in does *not* do, unlike the real crate: it does not spin
/// before parking, it is not fair (a `lock` that arrives between an `unlock`
/// and the woken waiter's swap barges ahead; the waiter parks again), and it
/// parks on a `Mutex` + `Condvar` of its own rather than in a global parking
/// lot keyed by address. Parked threads consume no CPU — important here
/// because deadlock-avoidance tests intentionally park threads for a while.
#[derive(Debug)]
pub struct RawMutex {
    state: AtomicU8,
    blocking: StdMutex<()>,
    cond: StdCondvar,
}

const FREE: u8 = 0;
const HELD: u8 = 1;
const CONTENDED: u8 = 2;

#[cfg(test)]
thread_local! {
    /// Slow paths (`lock_slow` entries and notifying unlocks) taken by the
    /// calling thread.
    static SLOW_PATHS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn count_slow_path() {
    #[cfg(test)]
    SLOW_PATHS.with(|c| c.set(c.get() + 1));
}

impl RawMutex {
    fn park_lock(&self) -> StdMutexGuard<'_, ()> {
        // `blocking` guards no data, so a poisoned guard is as good as any.
        self.blocking.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The mutex was taken: park until it is acquired or `deadline` passes
    /// (`None`: no deadline). Acquires with `swap(2)`, never 0 → 1 — see the
    /// type docs.
    #[cold]
    fn lock_slow(&self, deadline: Option<Instant>) -> bool {
        count_slow_path();
        let mut g = self.park_lock();
        while self.state.swap(CONTENDED, Ordering::Acquire) != FREE {
            g = match deadline {
                None => self.cond.wait(g).unwrap_or_else(|p| p.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return false;
                    }
                    let (g, _) = self
                        .cond
                        .wait_timeout(g, d - now)
                        .unwrap_or_else(|p| p.into_inner());
                    g
                }
            };
        }
        true
    }

    /// The state read 2: wake one parked thread.
    #[cold]
    fn unlock_slow(&self) {
        count_slow_path();
        // A waiter whose swap read non-zero holds `blocking` until it is
        // inside `cond.wait`, so taking it here means the notification
        // cannot fall between that swap and the wait.
        drop(self.park_lock());
        self.cond.notify_one();
    }
}

impl lock_api::RawMutex for RawMutex {
    const INIT: Self = Self {
        state: AtomicU8::new(FREE),
        blocking: StdMutex::new(()),
        cond: StdCondvar::new(),
    };

    #[inline]
    fn lock(&self) {
        if !self.try_lock() {
            self.lock_slow(None);
        }
    }

    #[inline]
    fn try_lock(&self) -> bool {
        self.state
            .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    unsafe fn unlock(&self) {
        // Pairs with the `Acquire` of whichever compare-exchange or swap
        // takes the mutex next.
        if self.state.swap(FREE, Ordering::Release) == CONTENDED {
            self.unlock_slow();
        }
    }
}

impl lock_api::RawMutexTimed for RawMutex {
    fn try_lock_for(&self, timeout: Duration) -> bool {
        // A timeout past the end of `Instant` is no deadline, as in the
        // real crate.
        self.try_lock() || self.lock_slow(Instant::now().checked_add(timeout))
    }

    fn try_lock_until(&self, deadline: Instant) -> bool {
        self.try_lock() || self.lock_slow(Some(deadline))
    }
}
