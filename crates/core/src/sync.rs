//! Immunized lock types: the RAII "Java flavour" of Dimmunix.
//!
//! [`ImmunizedMutex`] is a drop-in replacement for a plain mutex whose
//! `lock()` routes through the Dimmunix `request`/`acquired` hooks and whose
//! guard routes `release` on drop. [`ReentrantLock`] mirrors a Java monitor
//! (`synchronized`): reentrant, with per-level hold edges (§6).
//!
//! Every blocking acquisition — of these two types and of
//! [`crate::raw::RawLock`], timed or not — is one call of `acquire` below:
//! request until GO, try the mutex, and only if it is taken tell the engine
//! the thread is `waiting` before blocking on it. An uncontended
//! `lock()`/`unlock()` therefore publishes two events to the monitor, a
//! contended one three. Every `try_lock` is one call of `try_acquire`.
//!
//! The call stack recorded with each operation is the thread's
//! [`crate::context`] frame stack plus the lock call site (captured with
//! `#[track_caller]`), giving signatures the same shape as the paper's.

use crate::avoidance::Decision;
use crate::context;
use crate::raw::LockSite;
use crate::runtime::{ParkOutcome, Runtime};
use crate::stats::Stats;
use dimmunix_rag::{LockId, ThreadId};
use dimmunix_signature::{FrameId, Signature, StackId};
use parking_lot::lock_api::{RawMutex as RawMutexApi, RawMutexTimed};
use parking_lot::RawMutex;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-unique token identifying a thread (used for reentrancy ownership
/// independently of Dimmunix registration).
fn thread_token() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TOKEN.with(|t| *t)
}

/// Shared request-loop: drives `request` to a GO (enforcing yields, the
/// max-yield bound and monitor-initiated breaks), without acquiring the
/// underlying lock. Returns `false` if the caller should give up
/// (`deadline` exceeded before a GO, only possible for timed locks).
fn request_until_go(
    runtime: &Runtime,
    t: ThreadId,
    id: LockId,
    frames: &[FrameId],
    stack: StackId,
    deadline: Option<Instant>,
) -> bool {
    let core = runtime.core();
    loop {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return false;
            }
        }
        let epoch0 = runtime.park_epoch(t);
        match core.request(t, id, frames, stack) {
            Decision::Go => return true,
            Decision::Yield { sig } => match runtime.park_yield(t, epoch0) {
                ParkOutcome::Woken => {
                    if core.take_broken(t) {
                        // Monitor broke the starvation: pursue the lock
                        // without re-consulting the history (§3).
                        core.force_go(t, id, frames, stack);
                        return true;
                    }
                    // Lock conditions changed; retry the request.
                }
                ParkOutcome::TimedOut => {
                    yield_abort(runtime, &sig);
                    core.force_go(t, id, frames, stack);
                    return true;
                }
            },
        }
    }
}

/// The blocking acquisition shared by every lock type: drives the request
/// to a GO, takes `raw`, and tells the engine how it went — `acquired`, or
/// `cancel` when `deadline` (timed locks only) passed first, in which case
/// `false` is returned and `raw` is not held.
///
/// This is the one place a supervised thread blocks inside a mutex, and so
/// the one place that owes the monitor the allow edge first: `waiting` is
/// called after the `try_lock` failed and before the blocking call (see the
/// `avoidance` module docs). When the mutex is free the thread never waits
/// and `acquired` publishes the grant and the acquisition as one event.
pub(crate) fn acquire(
    runtime: &Runtime,
    raw: &RawMutex,
    t: ThreadId,
    id: LockId,
    site: &LockSite,
    deadline: Option<Instant>,
) -> bool {
    let core = runtime.core();
    let locked = request_until_go(runtime, t, id, &site.frames, site.stack, deadline)
        && (raw.try_lock() || {
            core.waiting(t, id, site.stack);
            match deadline {
                None => {
                    raw.lock();
                    true
                }
                Some(d) => raw.try_lock_until(d),
            }
        });
    if locked {
        core.acquired(t, id, site.stack);
    } else {
        core.cancel(t, id);
    }
    locked
}

/// The non-blocking acquisition shared by every `try_lock`: one request,
/// one `try_lock` of `raw`. On a YIELD, or a GO that finds `raw` taken, the
/// request is rolled back with `cancel` (§6) and `false` is returned.
pub(crate) fn try_acquire(
    runtime: &Runtime,
    raw: &RawMutex,
    t: ThreadId,
    id: LockId,
    site: &LockSite,
) -> bool {
    let core = runtime.core();
    let locked =
        matches!(core.request(t, id, &site.frames, site.stack), Decision::Go) && raw.try_lock();
    if locked {
        core.acquired(t, id, site.stack);
    } else {
        core.cancel(t, id);
    }
    locked
}

/// The release shared by every lock type: the `release` hook (`tid` is
/// `None` for an unsupervised thread, which has none), then `unlock` — the
/// real unlock — and only after it the wake of the threads the hook found
/// yielding on this lock, so that a woken thread's retry finds the mutex free.
pub(crate) fn release(runtime: &Runtime, tid: Option<ThreadId>, id: LockId, unlock: impl FnOnce()) {
    let wake = tid.map_or_else(Vec::new, |t| runtime.core().release(t, id));
    unlock();
    for w in wake {
        runtime.wake(w);
    }
}

/// Records a max-yield-duration abort and applies the auto-disable policy
/// (§5.7: a pattern accumulating many aborts is "too risky to avoid").
pub(crate) fn yield_abort(runtime: &Runtime, sig: &Arc<Signature>) {
    Stats::bump(&runtime.stats_ref().yield_aborts);
    let aborts = sig.record_abort();
    if let Some(threshold) = runtime.config().abort_disable_threshold {
        if aborts >= threshold && !sig.is_disabled() {
            sig.set_disabled(true);
            runtime.history().touch();
        }
    }
}

/// A mutual-exclusion lock with deadlock immunity.
///
/// Non-reentrant (like `PTHREAD_MUTEX_NORMAL`); relocking from the owning
/// thread self-deadlocks, which Dimmunix deliberately does not watch for
/// (§6 — use [`ReentrantLock`] for reentrant use cases).
///
/// # Examples
///
/// ```
/// use dimmunix_core::{Config, Runtime};
///
/// let rt = Runtime::new(Config::default()).unwrap();
/// let m = rt.mutex(0_i32);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 1);
/// ```
pub struct ImmunizedMutex<T: ?Sized> {
    runtime: Runtime,
    id: LockId,
    raw: RawMutex,
    data: UnsafeCell<T>,
}

// SAFETY: The mutex provides exclusive access to `data`; moving the
// container across threads is safe whenever the payload is `Send`.
unsafe impl<T: ?Sized + Send> Send for ImmunizedMutex<T> {}
// SAFETY: Shared references only permit locking; access to `data` is
// serialized by `raw`.
unsafe impl<T: ?Sized + Send> Sync for ImmunizedMutex<T> {}

impl<T> ImmunizedMutex<T> {
    /// Creates a mutex supervised by `runtime`.
    pub fn new(runtime: &Runtime, value: T) -> Self {
        Self {
            runtime: runtime.clone(),
            id: runtime.new_lock_id(),
            raw: RawMutex::INIT,
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> ImmunizedMutex<T> {
    /// This lock's id (diagnostics).
    pub fn id(&self) -> LockId {
        self.id
    }

    /// Acquires the lock, blocking — and yielding first if blocking would
    /// instantiate a known deadlock signature.
    #[track_caller]
    pub fn lock(&self) -> ImmunizedMutexGuard<'_, T> {
        let site = Location::caller();
        let Some(t) = self.runtime.current_thread() else {
            // Unsupervised fallback: behave like a plain mutex.
            self.raw.lock();
            return self.guard(None);
        };
        let site = context::lock_site(&self.runtime, site);
        acquire(&self.runtime, &self.raw, t, self.id, &site, None);
        self.guard(Some(t))
    }

    /// Attempts the lock without blocking. Returns `None` on contention *or*
    /// when Dimmunix would have to yield (the request is rolled back with a
    /// `cancel` event, §6).
    #[track_caller]
    pub fn try_lock(&self) -> Option<ImmunizedMutexGuard<'_, T>> {
        let site = Location::caller();
        let Some(t) = self.runtime.current_thread() else {
            return self.raw.try_lock().then(|| self.guard(None));
        };
        let site = context::lock_site(&self.runtime, site);
        try_acquire(&self.runtime, &self.raw, t, self.id, &site).then(|| self.guard(Some(t)))
    }

    /// Attempts the lock with a timeout (like `pthread_mutex_timedlock`).
    #[track_caller]
    pub fn try_lock_for(&self, timeout: Duration) -> Option<ImmunizedMutexGuard<'_, T>> {
        let site = Location::caller();
        // A timeout past the end of `Instant` is no deadline.
        let deadline = Instant::now().checked_add(timeout);
        let Some(t) = self.runtime.current_thread() else {
            return self.raw.try_lock_for(timeout).then(|| self.guard(None));
        };
        let site = context::lock_site(&self.runtime, site);
        acquire(&self.runtime, &self.raw, t, self.id, &site, deadline).then(|| self.guard(Some(t)))
    }

    /// The guard of a `raw` this thread has just locked, as thread `tid`
    /// (`None`: unsupervised).
    fn guard(&self, tid: Option<ThreadId>) -> ImmunizedMutexGuard<'_, T> {
        ImmunizedMutexGuard {
            lock: self,
            tid,
            _not_send: PhantomData,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for ImmunizedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f
                .debug_struct("ImmunizedMutex")
                .field("data", &&*g)
                .finish(),
            None => f.write_str("ImmunizedMutex { <locked> }"),
        }
    }
}

/// RAII guard for [`ImmunizedMutex`]; releases on drop.
#[must_use = "dropping the guard immediately unlocks the mutex"]
pub struct ImmunizedMutexGuard<'a, T: ?Sized> {
    lock: &'a ImmunizedMutex<T>,
    tid: Option<ThreadId>,
    /// Guards must stay on the locking thread.
    _not_send: PhantomData<*const ()>,
}

impl<T: ?Sized> Drop for ImmunizedMutexGuard<'_, T> {
    fn drop(&mut self) {
        let lock = self.lock;
        // SAFETY: This guard holds `raw`, acquired in lock/try_lock.
        release(&lock.runtime, self.tid, lock.id, || unsafe {
            lock.raw.unlock()
        });
    }
}

impl<T: ?Sized> std::ops::Deref for ImmunizedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: The guard holds the raw mutex, so access is exclusive.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for ImmunizedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: As in `deref`.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for ImmunizedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A reentrant lock with deadlock immunity — the analog of a Java monitor
/// entered via `synchronized` (§6) or a `PTHREAD_MUTEX_RECURSIVE` mutex.
///
/// Re-entering from the owning thread "returns immediately" (no request
/// decision — a thread cannot deadlock against itself) but still records a
/// hold edge per nesting level, keeping the RAG's multiset faithful.
pub struct ReentrantLock {
    runtime: Runtime,
    id: LockId,
    raw: RawMutex,
    /// Thread token of the owner (0 = unowned).
    owner: AtomicU64,
    /// Nesting depth (only the owner mutates).
    count: AtomicU32,
}

// SAFETY: Ownership/count maintain the reentrancy protocol; the payload-free
// lock is safe to share.
unsafe impl Send for ReentrantLock {}
// SAFETY: See above.
unsafe impl Sync for ReentrantLock {}

impl ReentrantLock {
    /// Creates a reentrant lock supervised by `runtime`.
    pub fn new(runtime: &Runtime) -> Self {
        Self {
            runtime: runtime.clone(),
            id: runtime.new_lock_id(),
            raw: RawMutex::INIT,
            owner: AtomicU64::new(0),
            count: AtomicU32::new(0),
        }
    }

    /// This lock's id (diagnostics).
    pub fn id(&self) -> LockId {
        self.id
    }

    /// Current nesting depth (0 = unheld). Racy snapshot, for diagnostics.
    pub fn nesting(&self) -> u32 {
        self.count.load(Ordering::Relaxed)
    }

    /// Enters the monitor (acquires or re-enters).
    #[track_caller]
    pub fn enter(&self) -> ReentrantGuard<'_> {
        let caller = Location::caller();
        let me = thread_token();
        let supervised = self
            .runtime
            .current_thread()
            .map(|t| (t, context::lock_site(&self.runtime, caller)));
        let tid = supervised.as_ref().map(|&(t, _)| t);
        if self.owner.load(Ordering::Acquire) == me {
            // Reentrant fast path.
            self.count.fetch_add(1, Ordering::Relaxed);
            if let Some((t, site)) = &supervised {
                self.runtime
                    .core()
                    .acquired_reentrant(*t, self.id, &site.frames, site.stack);
            }
            return ReentrantGuard {
                lock: self,
                tid,
                _not_send: PhantomData,
            };
        }
        if let Some((t, site)) = &supervised {
            acquire(&self.runtime, &self.raw, *t, self.id, site, None);
        } else {
            self.raw.lock();
        }
        self.owner.store(me, Ordering::Release);
        self.count.store(1, Ordering::Relaxed);
        ReentrantGuard {
            lock: self,
            tid,
            _not_send: PhantomData,
        }
    }

    fn exit(&self, tid: Option<ThreadId>) {
        let remaining = self.count.fetch_sub(1, Ordering::Relaxed) - 1;
        release(&self.runtime, tid, self.id, || {
            if remaining == 0 {
                self.owner.store(0, Ordering::Release);
                // SAFETY: The outermost guard of the owning thread holds `raw`.
                unsafe { self.raw.unlock() };
            }
        });
    }
}

impl std::fmt::Debug for ReentrantLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReentrantLock")
            .field("id", &self.id)
            .field("nesting", &self.nesting())
            .finish()
    }
}

/// RAII guard for [`ReentrantLock`]; exits one nesting level on drop.
#[must_use = "dropping the guard immediately exits the monitor"]
pub struct ReentrantGuard<'a> {
    lock: &'a ReentrantLock,
    tid: Option<ThreadId>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ReentrantGuard<'_> {
    fn drop(&mut self) {
        self.lock.exit(self.tid);
    }
}

impl std::fmt::Debug for ReentrantGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReentrantGuard")
    }
}

impl Runtime {
    /// Creates an [`ImmunizedMutex`] supervised by this runtime.
    pub fn mutex<T>(&self, value: T) -> ImmunizedMutex<T> {
        ImmunizedMutex::new(self, value)
    }

    /// Creates a [`ReentrantLock`] supervised by this runtime.
    pub fn reentrant_lock(&self) -> ReentrantLock {
        ReentrantLock::new(self)
    }
}
