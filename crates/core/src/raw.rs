//! The pthreads-flavour explicit lock API.
//!
//! The paper's pthreads implementation lives inside a modified thread
//! library: lock/unlock are separate calls, call stacks come from
//! `backtrace()` and are stored as execution-independent byte offsets, and
//! `trylock`/`timedlock` roll back via a `cancel` event (§6). [`RawLock`]
//! mirrors that shape in Rust: explicit `lock`/`unlock` (no RAII guard) and
//! pre-interned [`LockSite`] descriptors standing in for the cheap
//! return-address stacks the C implementation enjoys. The RAII types reach
//! the same engine calls with the same frames and stack id, borrowed from
//! the calling thread's context tree ([`crate::context`]) instead of being
//! passed in.

use crate::runtime::Runtime;
use crate::sync::{acquire, release, try_acquire};
use dimmunix_rag::LockId;
use dimmunix_signature::{FrameId, StackId};
use parking_lot::lock_api::{RawMutex as RawMutexApi, RawMutexTimed};
use parking_lot::RawMutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pre-interned call-stack descriptor for [`RawLock`] operations.
///
/// Build once (per static call path) with [`Runtime::make_site`]; cloning is
/// cheap. This models the pthreads implementation's raw return-address
/// stacks: capture cost at lock time is zero.
#[derive(Clone, Debug)]
pub struct LockSite {
    pub(crate) frames: Arc<[FrameId]>,
    pub(crate) stack: StackId,
}

impl LockSite {
    /// The interned stack id.
    pub fn stack(&self) -> StackId {
        self.stack
    }

    /// The interned frame sequence (outermost first).
    pub fn frames(&self) -> &[FrameId] {
        &self.frames
    }
}

impl Runtime {
    /// Interns a call-stack descriptor from `(function, file, line)` frames,
    /// outermost first.
    pub fn make_site(&self, frames: &[(&str, &str, u32)]) -> LockSite {
        let ids: Vec<FrameId> = frames
            .iter()
            .map(|&(f, file, line)| self.frame_table().intern(f, file, line))
            .collect();
        let stack = self.stack_table().intern(&ids);
        LockSite {
            frames: ids.into(),
            stack,
        }
    }

    /// Creates a [`RawLock`] supervised by this runtime.
    pub fn raw_lock(&self) -> RawLock {
        RawLock::new(self)
    }
}

/// An explicitly locked/unlocked mutex (pthreads style), with deadlock
/// immunity.
///
/// The caller is responsible for pairing [`RawLock::lock`] with
/// [`RawLock::unlock`] on the same thread — exactly the pthreads contract.
/// An uncontended pair tells the monitor two things (granted-and-acquired,
/// release); a `lock` that finds the mutex taken publishes its allow edge
/// before it blocks (see [`crate::sync`]).
///
/// # Examples
///
/// ```
/// use dimmunix_core::{Config, Runtime};
///
/// let rt = Runtime::new(Config::default()).unwrap();
/// let site = rt.make_site(&[("worker", "app.rs", 10)]);
/// let lock = rt.raw_lock();
/// lock.lock(&site);
/// lock.unlock();
/// ```
pub struct RawLock {
    runtime: Runtime,
    id: LockId,
    raw: RawMutex,
}

impl RawLock {
    /// Creates a raw lock supervised by `runtime`.
    pub fn new(runtime: &Runtime) -> Self {
        Self {
            runtime: runtime.clone(),
            id: runtime.new_lock_id(),
            raw: RawMutex::INIT,
        }
    }

    /// This lock's id (diagnostics).
    pub fn id(&self) -> LockId {
        self.id
    }

    /// Blocking acquire.
    pub fn lock(&self, site: &LockSite) {
        let Some(t) = self.runtime.current_thread() else {
            self.raw.lock();
            return;
        };
        acquire(
            &self.runtime,
            &self.raw,
            t,
            self.id,
            site.frames(),
            site.stack(),
            None,
        );
    }

    /// Non-blocking acquire (like `pthread_mutex_trylock`). Fails on
    /// contention or when Dimmunix would yield; either way the request is
    /// rolled back with a `cancel` event (§6).
    pub fn try_lock(&self, site: &LockSite) -> bool {
        let Some(t) = self.runtime.current_thread() else {
            return self.raw.try_lock();
        };
        try_acquire(
            &self.runtime,
            &self.raw,
            t,
            self.id,
            site.frames(),
            site.stack(),
        )
    }

    /// Acquire with a timeout (like `pthread_mutex_timedlock`).
    pub fn lock_timeout(&self, site: &LockSite, timeout: Duration) -> bool {
        // A timeout past the end of `Instant` is no deadline.
        let deadline = Instant::now().checked_add(timeout);
        let Some(t) = self.runtime.current_thread() else {
            return self.raw.try_lock_for(timeout);
        };
        acquire(
            &self.runtime,
            &self.raw,
            t,
            self.id,
            site.frames(),
            site.stack(),
            deadline,
        )
    }

    /// Releases the lock. Must be called by the thread that locked it.
    pub fn unlock(&self) {
        let tid = self.runtime.current_thread();
        // SAFETY: The caller contract (pthreads semantics) guarantees the
        // calling thread holds `raw`.
        release(&self.runtime, tid, self.id, || unsafe { self.raw.unlock() });
    }
}

impl std::fmt::Debug for RawLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawLock").field("id", &self.id).finish()
    }
}
