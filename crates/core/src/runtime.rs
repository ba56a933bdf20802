//! The Dimmunix runtime: wiring between application threads, the avoidance
//! engine and the monitor.
//!
//! One [`Runtime`] corresponds to one instrumented program: it owns the
//! frame/stack interners, the persistent [`History`], the
//! [`AvoidanceCore`], the per-thread event lanes and (optionally) a spawned
//! monitor thread with period τ. [`Runtime::new`] makes no per-thread
//! state: a thread's record (`Allowed` log and yield behind its slot
//! lock, and the parker it parks on in a yield) is made with its chunk
//! of 64 ids, its event lane when it registers. Lock types
//! ([`crate::sync::ImmunizedMutex`],
//! [`crate::sync::ReentrantLock`], [`crate::raw::RawLock`]) hold a handle to
//! their runtime and route every lock/unlock through its hooks.
//!
//! Threads register lazily the first time they touch an immunized lock; a
//! thread-local guard deregisters them on thread exit. If registration
//! fails ([`MAX_THREADS`] threads already registered) the thread simply
//! runs unsupervised — its locks behave like plain mutexes.

use crate::avoidance::AvoidanceCore;
use crate::config::{Config, DEGRADED_YIELD_WAIT, MAX_THREADS, MONITOR_RESTART_BUDGET};
use crate::lanes::{EventLanes, BLOCK_CAPACITY};
use crate::monitor::{Hooks, Monitor};
use crate::stats::{Stats, StatsSnapshot};
use dimmunix_rag::{LockId, ThreadId};
use dimmunix_signature::{
    FrameTable, History, HistoryError, HistoryRecovery, Signature, StackTable,
};
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Outcome of parking during a yield.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParkOutcome {
    /// A wake arrived (lock conditions changed, or the monitor broke the
    /// yield — check [`AvoidanceCore::take_broken`]).
    Woken,
    /// The max-yield-duration bound expired (§5.7's escape hatch).
    TimedOut,
}

pub(crate) struct Inner {
    pub(crate) config: Config,
    pub(crate) frames: Arc<FrameTable>,
    pub(crate) stacks: Arc<StackTable>,
    pub(crate) history: Arc<History>,
    pub(crate) core: AvoidanceCore,
    pub(crate) stats: Arc<Stats>,
    monitor: Mutex<Monitor>,
    next_lock: AtomicU64,
    /// Set to stop a spawned monitor thread.
    shutdown: Arc<AtomicBool>,
    /// Signalled to wake a sleeping monitor thread promptly.
    monitor_signal: Arc<(Mutex<bool>, Condvar)>,
    monitor_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Unique id for thread-local registration bookkeeping.
    runtime_id: usize,
    /// Set once the monitor exceeded its restart budget: passes become
    /// pass-through ([`Monitor::degraded_step`]) and yields park with the
    /// bounded [`DEGRADED_YIELD_WAIT`].
    degraded: AtomicBool,
    /// Boot-time salvage report, if the history file was damaged and
    /// `Config::history_salvage` recovered its valid prefix.
    recovery: Option<HistoryRecovery>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let (lock, cv) = &*self.monitor_signal;
        let mut flag = lock.lock();
        *flag = true;
        cv.notify_all();
        drop(flag);
        // Persist the immune memory on the way out.
        if self.history.path().is_some() {
            let _ = self.history.save(&self.frames, &self.stacks);
        }
    }
}

/// Runtime ids start at 1 and are never reused: 0 names no runtime.
static RUNTIME_IDS: AtomicUsize = AtomicUsize::new(1);

/// What [`CURRENT`] holds when it names no registration.
const NO_REGISTRATION: (usize, ThreadId) = (0, ThreadId(0));

thread_local! {
    static REGISTRATIONS: RefCell<Vec<Registration>> = const { RefCell::new(Vec::new()) };
    /// The `(runtime id, thread id)` of the registration
    /// [`Runtime::current_thread`] last answered with. No destructor, so it
    /// stays readable from other thread-locals' destructors.
    static CURRENT: Cell<(usize, ThreadId)> = const { Cell::new(NO_REGISTRATION) };
}

/// A thread's registration with one runtime; deregisters on thread exit.
struct Registration {
    runtime_id: usize,
    tid: ThreadId,
    inner: Weak<Inner>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        // The id goes back to the pool below; a lock taken later, from
        // another thread-local's destructor, must not act as it.
        CURRENT.with(|current| {
            if current.get() == (self.runtime_id, self.tid) {
                current.set(NO_REGISTRATION);
            }
        });
        if let Some(inner) = self.inner.upgrade() {
            // Runs on both orderly exit and unwind: empty the held-lock
            // stack, clear yield state, wake yielders whose cause we were
            // (they re-request against a view that no longer contains our
            // entries), emit `ThreadExit`. The panic counter distinguishes
            // unwind reclamation from orderly deregistration; the TLS drop
            // runs after the thread boundary caught the panic, so the
            // per-slot latch (set by hooks that ran mid-unwind) is checked
            // alongside `panicking()`.
            if std::thread::panicking() || inner.core.thread_panicked(self.tid) {
                Stats::bump(&inner.stats.panic_cleanups);
            }
            inner
                .core
                .unregister_thread_waking(self.tid, &mut |t| Runtime::wake_tid(&inner, t));
        }
    }
}

/// Handle to a Dimmunix runtime. Cheap to clone; the runtime lives as long
/// as any handle (or any lock created from it) does.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<Inner>,
}

impl Runtime {
    /// Builds a runtime: loads the history from `config.history_path` (if
    /// set and present) but does **not** start a monitor thread — call
    /// [`Runtime::spawn_monitor`] for the paper's asynchronous mode, or
    /// drive [`Runtime::step_monitor`] manually for deterministic embedding.
    pub fn new(config: Config) -> Result<Self, HistoryError> {
        Self::with_hooks(config, Hooks::default())
    }

    /// Like [`Runtime::new`] with monitor callbacks installed.
    pub fn with_hooks(config: Config, hooks: Hooks) -> Result<Self, HistoryError> {
        let frames = Arc::new(FrameTable::new());
        let stacks = Arc::new(StackTable::new());
        let mut recovery = None;
        let history = Arc::new(match &config.history_path {
            Some(path) if config.history_salvage => {
                let (h, rec) = History::open_salvaging(path, &frames, &stacks)?;
                recovery = rec;
                h
            }
            Some(path) => History::open(path, &frames, &stacks)?,
            None => History::new(),
        });
        // Per-thread event lanes; a lane is made when its thread registers.
        let lanes = Arc::new(EventLanes::new(MAX_THREADS, BLOCK_CAPACITY));
        let stats = Arc::new(Stats::new());
        if recovery.is_some() {
            Stats::bump(&stats.history_salvaged);
        }
        let core = AvoidanceCore::new(
            config.clone(),
            Arc::clone(&history),
            Arc::clone(&stacks),
            Arc::clone(&lanes),
            Arc::clone(&stats),
        );
        let monitor = Monitor::new(
            config.clone(),
            Arc::clone(&history),
            Arc::clone(&frames),
            Arc::clone(&stacks),
            Arc::clone(&lanes),
            Arc::clone(&stats),
            Arc::new(hooks),
        );
        let inner = Arc::new(Inner {
            config,
            frames,
            stacks,
            history,
            core,
            stats,
            monitor: Mutex::new(monitor),
            next_lock: AtomicU64::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
            monitor_signal: Arc::new((Mutex::new(false), Condvar::new())),
            monitor_handle: Mutex::new(None),
            runtime_id: RUNTIME_IDS.fetch_add(1, Ordering::Relaxed),
            degraded: AtomicBool::new(false),
            recovery,
        });
        Ok(Self { inner })
    }

    /// Builds a runtime and spawns its monitor thread.
    pub fn start(config: Config) -> Result<Self, HistoryError> {
        let rt = Self::new(config)?;
        rt.spawn_monitor();
        Ok(rt)
    }

    /// Spawns the monitor thread (idempotent). It wakes every
    /// `config.monitor_period` (τ) and exits when the runtime is dropped or
    /// [`Runtime::shutdown`] is called.
    pub fn spawn_monitor(&self) {
        let mut handle = self.inner.monitor_handle.lock();
        if handle.is_some() {
            return;
        }
        let weak = Arc::downgrade(&self.inner);
        let shutdown = Arc::clone(&self.inner.shutdown);
        let signal = Arc::clone(&self.inner.monitor_signal);
        let period = self.inner.config.monitor_period;
        *handle = Some(
            std::thread::Builder::new()
                .name("dimmunix-monitor".into())
                .spawn(move || loop {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Some(inner) = weak.upgrade() else { break };
                    Self::step_inner(&inner);
                    drop(inner);
                    let (lock, cv) = &*signal;
                    let mut flag = lock.lock();
                    if !*flag {
                        cv.wait_for(&mut flag, period);
                    }
                    *flag = false;
                })
                .expect("failed to spawn dimmunix-monitor thread"),
        );
    }

    /// Stops and joins the monitor thread, persisting the history.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let (lock, cv) = &*self.inner.monitor_signal;
            let mut flag = lock.lock();
            *flag = true;
            cv.notify_all();
        }
        if let Some(h) = self.inner.monitor_handle.lock().take() {
            let _ = h.join();
        }
        // Final pass so nothing queued is lost, then persist.
        self.step_monitor();
        if self.inner.history.path().is_some() {
            let _ = self
                .inner
                .history
                .save(&self.inner.frames, &self.inner.stacks);
        }
    }

    /// Runs one monitor pass synchronously (embedded mode).
    pub fn step_monitor(&self) {
        Self::step_inner(&self.inner);
    }

    /// One supervised monitor pass. A panic escaping [`Monitor::step`] is
    /// caught and the monitor is rebuilt from its last good RAG snapshot
    /// and predictor restart point ([`Monitor::respawn`]); after
    /// [`MONITOR_RESTART_BUDGET`] restarts the runtime degrades to
    /// pass-through passes instead.
    fn step_inner(inner: &Arc<Inner>) {
        let mut monitor = inner.monitor.lock();
        if inner.degraded.load(Ordering::SeqCst) {
            monitor.degraded_step(&inner.core);
            return;
        }
        let weak = Arc::downgrade(inner);
        let waker = move |t| {
            if let Some(inner) = weak.upgrade() {
                Runtime::wake_tid(&inner, t);
            }
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            monitor.step(&inner.core, &waker);
        }));
        if outcome.is_err() {
            Stats::bump(&inner.stats.monitor_restarts);
            if Stats::get(&inner.stats.monitor_restarts) > u64::from(MONITOR_RESTART_BUDGET) {
                // Budget exhausted: stop resurrecting detection. Decisions
                // stay sound against the last published match view; parked
                // yielders must not wait forever on a monitor that will
                // never break their starvation, so flip the degraded flag
                // first, then wake the parker of every record there is —
                // waking threads re-park with the bounded degraded wait.
                inner.degraded.store(true, Ordering::SeqCst);
                inner.stats.degraded_mode.store(1, Ordering::SeqCst);
                for (t, _) in inner.core.records() {
                    Self::wake_tid(inner, t);
                }
                monitor.degraded_step(&inner.core);
            } else {
                // Replace the panicked monitor (its probe state may be
                // mid-mutation) with a fresh one seeded from the RAG
                // snapshot of its last successful pass, a copy of the
                // predictor as its last completed call left it (a fresh
                // one if the panic struck inside a call), and the
                // unsaved-history flag the dead pass set.
                *monitor = monitor.respawn();
            }
        }
    }

    /// The calling OS thread's dense id in this runtime, registering it on
    /// first use. `None` when [`MAX_THREADS`] registrations are live.
    ///
    /// Every lock call asks, so the answer for the runtime asked last is
    /// cached in a one-entry thread-local, one load and a compare; runtime
    /// ids are never reused, so a match is this runtime's registration.
    /// Otherwise the thread's registrations are searched (and a new one
    /// made), and the answer cached if there is one: a refused registration
    /// is asked again next time, when an id may have come free. A
    /// registration's drop clears the cache before it gives its id back, so
    /// a lock taken after it (from another thread-local's destructor) never
    /// acts as an id another thread may already hold.
    pub fn current_thread(&self) -> Option<ThreadId> {
        match CURRENT.with(Cell::get) {
            (id, tid) if id == self.inner.runtime_id => Some(tid),
            _ => self.register_current_thread(),
        }
    }

    /// [`Runtime::current_thread`] past its cache: a thread's first lock
    /// call in this runtime, or its first after it locked through another.
    /// A lock from a thread-local destructor that runs after the
    /// registration list's own finds no list, and runs unsupervised.
    #[cold]
    fn register_current_thread(&self) -> Option<ThreadId> {
        let id = self.inner.runtime_id;
        let tid = REGISTRATIONS.try_with(|regs| {
            let mut regs = regs.borrow_mut();
            if let Some(r) = regs.iter().find(|r| r.runtime_id == id) {
                return Some(r.tid);
            }
            let tid = self.inner.core.register_thread();
            match tid {
                Some(tid) => {
                    regs.push(Registration {
                        runtime_id: id,
                        tid,
                        inner: Arc::downgrade(&self.inner),
                    });
                    Some(tid)
                }
                None => {
                    Stats::bump(&self.inner.stats.unsupervised_threads);
                    None
                }
            }
        });
        let tid = tid.ok().flatten()?;
        CURRENT.with(|current| current.set((id, tid)));
        Some(tid)
    }

    /// Allocates a fresh lock id.
    pub fn new_lock_id(&self) -> LockId {
        LockId(self.inner.next_lock.fetch_add(1, Ordering::Relaxed))
    }

    /// Current epoch of `t`'s parker; pass to [`Runtime::park_yield`] to
    /// close the decide-then-park race. A plain atomic load — every
    /// `lock()` pays it, yielding or not — so it may miss a wake in flight;
    /// that stale read only makes `park_yield` see a moved epoch, return
    /// `Woken` at once and send the caller round to re-request.
    pub(crate) fn park_epoch(&self, t: ThreadId) -> u32 {
        self.inner.core.me(t).park_epoch()
    }

    /// Parks the calling thread (which must be `t`) on its own parker
    /// until a wake arrives (epoch moves past `epoch0`) or the max-yield
    /// bound expires. A bound that reaches past the end of [`Instant`] is
    /// no bound.
    pub(crate) fn park_yield(&self, t: ThreadId, epoch0: u32) -> ParkOutcome {
        let mut bound = self.inner.config.max_yield_duration;
        if self.inner.degraded.load(Ordering::Relaxed) {
            // No monitor will ever break this thread's starvation: cap the
            // park at the degraded fallback wait (tightening, never
            // loosening, the configured max-yield bound).
            bound = Some(bound.map_or(DEGRADED_YIELD_WAIT, |d| d.min(DEGRADED_YIELD_WAIT)));
        }
        let deadline = bound.and_then(|d| Instant::now().checked_add(d));
        self.inner.core.me(t).park(epoch0, deadline)
    }

    /// Wakes thread `t` if it is parked in a yield.
    pub(crate) fn wake(&self, t: ThreadId) {
        Self::wake_tid(&self.inner, t);
    }

    /// Wakes `t` under its parker's mutex; no caller holds an engine lock (the
    /// wakers are listed in `avoidance/yields.rs`, "No-lost-wakeup
    /// protocol").
    fn wake_tid(inner: &Inner, t: ThreadId) {
        if let Some(me) = inner.core.record(t) {
            me.wake();
        }
    }

    /// The avoidance engine (expert/simulator API).
    pub fn core(&self) -> &AvoidanceCore {
        &self.inner.core
    }

    /// Records that a yield on `sig` outlived the max-yield bound and was
    /// aborted: counts it in `yield_aborts` and against `sig`, and applies
    /// the auto-disable policy (§5.7: a pattern accumulating many aborts is
    /// "too risky to avoid"). The lock types call it when a park times out;
    /// a simulator calls it for its own yield bound.
    pub fn record_yield_abort(&self, sig: &Signature) {
        Stats::bump(&self.inner.stats.yield_aborts);
        let aborts = sig.record_abort();
        if let Some(threshold) = self.inner.config.abort_disable_threshold {
            if aborts >= threshold && !sig.is_disabled() {
                sig.set_disabled(true);
                self.inner.history.touch();
            }
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &Config {
        &self.inner.config
    }

    /// The persistent history.
    pub fn history(&self) -> &Arc<History> {
        &self.inner.history
    }

    /// The frame interner.
    pub fn frame_table(&self) -> &Arc<FrameTable> {
        &self.inner.frames
    }

    /// The stack interner.
    pub fn stack_table(&self) -> &Arc<StackTable> {
        &self.inner.stacks
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Whether the runtime is in degraded pass-through mode (the monitor
    /// exceeded [`MONITOR_RESTART_BUDGET`]). Degradation is one-way:
    /// a restart of the process (with a working monitor) clears it.
    pub fn degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// The boot-time salvage report, if `Config::history_salvage` recovered
    /// the valid prefix of a damaged history file. `None` when the file
    /// loaded cleanly (or there was none).
    pub fn history_recovery(&self) -> Option<&HistoryRecovery> {
        self.inner.recovery.as_ref()
    }

    /// Live per-bucket occupancy skew of the avoidance state (hot-bucket
    /// telemetry; see [`crate::OccupancySkew`]).
    pub fn occupancy_skew(&self) -> crate::OccupancySkew {
        self.inner.core.occupancy_skew()
    }

    /// Raw counters (for hot-path use by lock types).
    pub(crate) fn stats_ref(&self) -> &Stats {
        &self.inner.stats
    }

    /// Merges a signature file into the live history — §8's "patching
    /// without restarting": the program gains immunity immediately. Returns
    /// how many signatures were new.
    pub fn vaccinate(&self, path: &Path) -> Result<usize, HistoryError> {
        let added = self
            .inner
            .history
            .merge_file(path, &self.inner.frames, &self.inner.stacks)?;
        Ok(added)
    }

    /// Persists the history to its configured path.
    pub fn save_history(&self) -> Result<(), HistoryError> {
        self.inner
            .history
            .save(&self.inner.frames, &self.inner.stacks)
    }

    /// Restarts matching-depth calibration for every signature (run after an
    /// upgrade, §8).
    pub fn recalibrate_all(&self) {
        self.inner.monitor.lock().recalibrate_all();
    }

    /// Graphviz DOT rendering of the monitor's current RAG.
    pub fn rag_dot(&self) -> String {
        dimmunix_rag::dot::to_dot(self.inner.monitor.lock().rag())
    }

    /// Approximate bytes of heap used by Dimmunix data structures (§7.4):
    /// interners, avoidance state and the serialized history size.
    pub fn memory_footprint(&self) -> usize {
        self.inner.frames.approx_bytes()
            + self.inner.stacks.approx_bytes()
            + self.inner.core.approx_bytes()
            + self
                .inner
                .history
                .serialized_bytes(&self.inner.frames, &self.inner.stacks)
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("history_len", &self.inner.history.len())
            .field("stats", &self.stats())
            .finish()
    }
}
