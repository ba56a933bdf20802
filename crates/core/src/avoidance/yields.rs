//! A yield: its registration with each cause, its withdrawal when it
//! ends, and the park and wake of the yielder.
//!
//! # No-lost-wakeup protocol: the cause's slot mutex
//!
//! A yielder waits until one of its causes `(C, L)` gives `L` up. The
//! registration and the give-up meet in C's slot critical section, so that
//! no wakeup is lost is a mutual-exclusion argument:
//!
//! 1. once a cover is found, the requester notes its view's generation,
//!    drops its own slot lock and, for each cause in turn, locks that
//!    cause's log holding no other engine lock. If the log still holds an
//!    entry for `L` with the stack the cover named, it pushes its `Waiter`;
//!    otherwise the registration is refused;
//! 2. a cause's `release` or `cancel` pops its entry, removes it from its
//!    buckets and takes the waiters for `L` in one critical section of the
//!    same mutex; the caller wakes them. The exit sweep takes every waiter
//!    in the critical section that clears the entries;
//! 3. the yielder parks on its *own* slot mutex: it reads its parker's
//!    epoch before the request, and checks it and waits on the parker's
//!    condition variable under that mutex (`ThreadSlot::park`). A wake
//!    bumps the epoch and notifies under the same mutex
//!    (`ThreadSlot::wake`), so a wake either lands before the check, which
//!    sees the epoch moved, or finds the yielder waiting. Rebuild visits
//!    and registrations against the yielder as a cause take that mutex too;
//!    they only delay a park or a wake. The wakers, none holding an engine
//!    lock: the lock types' `sync::wake_all`, after the `release` or
//!    `cancel` hook returned; the exit sweep, after its critical section;
//!    the monitor's starvation break; and the degraded flip, which wakes
//!    every record. The last two hold only the monitor's own mutex, which
//!    no hook takes.
//!
//! A registration made before the pop is taken by it; one made after it
//! finds the entry gone. A registration leaves a log the same way it came
//! in: whoever ends the yield — the yielder's next `request`, `force_go`,
//! `cancel` or exit sweep, or `take_broken` — takes its causes from the
//! yielder's log and withdraws its `Waiter` from each cause's log in turn,
//! one slot critical section at a time, holding no other engine lock. So a
//! log holds only waiters whose yield is still registered, and a waiter the
//! pop already took is simply not found. A refused registration, or a
//! history generation that moved while the slot lock was dropped, withdraws
//! what it registered, bumps `cover_retries` and decides again. A retry so
//! means that a named cause gave up its lock or the history changed —
//! progress either way — so the loop needs no bound and no fallback, and
//! no other thread's bucket writes can make it retry. The real-thread
//! parked-yield canaries hang on any lost wakeup. Under concurrency, two
//! requests may still decide against covers that each other's in-flight
//! entries would have completed — the same monitor-detectable window the
//! paper already tolerates for yield cycles (§3); the differential
//! proptest pins the sequential semantics to
//! [`crate::reference::ReferenceCore`] exactly. Because an extended table
//! keeps surviving buckets' temporal entry order while a fresh one is
//! filled in visit order, bucket storage order is deliberately *not*
//! load-bearing: every cover search canonically sorts its snapshots by
//! `(thread, lock, stack)` before solving, the reference engine sorts the
//! same way, and lockstep decision streams stay byte-identical.

use super::*;

impl ThreadSlot {
    /// Ends the yield in force and returns its causes; `log` is this
    /// record's log, under the caller's guard.
    fn take_yield(&self, log: &mut AllowedLog) -> Vec<YieldCause> {
        log.broken = false;
        self.yielding.store(false, Ordering::Relaxed);
        std::mem::take(&mut log.causes)
    }

    /// The parker's epoch; pass it to [`Self::park`] to close the
    /// decide-then-park race.
    pub(crate) fn park_epoch(&self) -> u64 {
        self.parker.epoch.load(Ordering::Acquire)
    }

    /// Parks the owner thread until a wake moves the epoch past `epoch0`
    /// or `deadline` passes. The epoch is checked and the wait entered
    /// under the slot mutex, under which every [`Self::wake`] bumps it, so
    /// no wake is lost (module docs, "No-lost-wakeup protocol").
    pub(crate) fn park(&self, epoch0: u64, deadline: Option<Instant>) -> ParkOutcome {
        let moved = || self.parker.epoch.load(Ordering::Acquire) != epoch0;
        let mut log = self.allowed.lock();
        while !moved() {
            let timed_out = match deadline {
                Some(deadline) => self.parker.cv.wait_until(&mut log, deadline).timed_out(),
                None => {
                    self.parker.cv.wait(&mut log);
                    false
                }
            };
            if timed_out && !moved() {
                return ParkOutcome::TimedOut;
            }
        }
        ParkOutcome::Woken
    }

    /// Wakes the owner if it is parked, or makes its next park return at
    /// once. The caller holds no engine lock: this takes the slot mutex.
    pub(crate) fn wake(&self) {
        let _log = self.allowed.lock();
        self.parker.epoch.fetch_add(1, Ordering::Release);
        self.parker.cv.notify_all();
    }
}

impl AvoidanceCore {
    /// Marks `t`'s current yield as broken (monitor starvation breaking).
    /// Returns whether the thread was indeed yielding.
    pub fn break_yield(&self, t: ThreadId) -> bool {
        let Some(me) = self.record(t) else {
            return false;
        };
        let mut log = me.allowed.lock();
        if !me.yielding.load(Ordering::Relaxed) {
            return false;
        }
        log.broken = true;
        Stats::bump(&self.stats.yields_broken);
        true
    }

    /// Consumes `t`'s broken flag; a yielding thread calls this on wakeup to
    /// learn whether it must proceed without re-consulting the history.
    /// A broken yield ends here, its registrations withdrawn.
    pub fn take_broken(&self, t: ThreadId) -> bool {
        let Some(me) = self.record(t) else {
            return false;
        };
        let causes = {
            let mut log = me.allowed.lock();
            if !log.broken {
                return false;
            }
            me.take_yield(&mut log)
        };
        self.withdraw(t, &causes);
        true
    }

    /// Whether `t` currently has an unconsumed yield in force: one load, no
    /// lock.
    pub fn is_yielding(&self, t: ThreadId) -> bool {
        self.record(t)
            .is_some_and(|me| me.yielding.load(Ordering::Relaxed))
    }

    /// Probe: the yield causes currently registered for `t` — the
    /// `(thread, lock)` releases that would wake it. Empty when `t` is not
    /// parked in a yield. Read-only; used by verification harnesses to
    /// build wait-for edges and audit parked/woken accounting.
    pub fn yield_causes(&self, t: ThreadId) -> Vec<YieldCause> {
        self.record(t)
            .map_or_else(Vec::new, |me| me.allowed.lock().causes.clone())
    }

    /// Probe: every thread currently parked in an unconsumed yield, with
    /// its causes. A thread listed here must eventually be woken by one of
    /// its causes' releases, broken by the monitor, or timed out — a
    /// completed program with a non-empty parked set is a lost wakeup.
    pub fn parked_yielders(&self) -> Vec<(ThreadId, Vec<YieldCause>)> {
        let mut parked = Vec::new();
        for (t, me) in self.records() {
            // Lock-free skip of the idle slots, then the read that counts,
            // under the lock.
            if !me.yielding.load(Ordering::Relaxed) {
                continue;
            }
            let log = me.allowed.lock();
            if me.yielding.load(Ordering::Relaxed) {
                parked.push((t, log.causes.clone()));
            }
        }
        parked
    }

    /// Registers `t` as yielding on `causes` (module docs, "No-lost-wakeup
    /// protocol"): pushes a [`Waiter`] in each cause's log critical section
    /// in turn. Returns `false` when a cause's log no longer holds the entry
    /// the cover named, having withdrawn the registrations made before it.
    /// The caller holds no engine lock, and no registration of `t`'s is
    /// left from an earlier yield.
    pub(super) fn register_yield(&self, t: ThreadId, causes: &[YieldCause]) -> bool {
        for (at, c) in causes.iter().enumerate() {
            let mut log = self.me(c.thread).allowed.lock();
            let named = |held: &Held| held.l == c.lock && held.stack == c.stack;
            if !log.entries.iter().any(named) {
                drop(log);
                self.withdraw(t, &causes[..at]);
                return false;
            }
            let waiters = &mut log.waiters;
            Stats::bump(if waiters.len() < waiters.capacity() {
                &self.stats.wake_pool_hits
            } else {
                &self.stats.wake_pool_misses
            });
            waiters.push(Waiter {
                lock: c.lock,
                yielder: t,
            });
        }
        true
    }

    /// Withdraws `t`'s registrations from the logs of `causes`, one cause's
    /// slot critical section at a time, holding no other engine lock — the
    /// order a registration takes. A registration its cause's pop already
    /// took is simply gone.
    pub(super) fn withdraw(&self, t: ThreadId, causes: &[YieldCause]) {
        for c in causes {
            let mut log = self.me(c.thread).allowed.lock();
            log.waiters.retain(|w| w.yielder != t);
        }
    }

    /// Withdraws the registrations of `me`'s yield, which stays in force:
    /// what a retried request does first. Out of line, like
    /// [`Self::end_yield`], so that a hook with no yield in force pays one
    /// load and a branch.
    #[cold]
    #[inline(never)]
    pub(super) fn withdraw_yield(&self, me: &ThreadSlot, t: ThreadId) {
        let causes = std::mem::take(&mut me.allowed.lock().causes);
        self.withdraw(t, &causes);
    }

    /// Ends `me`'s yield, if one is in force, and withdraws its
    /// registrations.
    #[inline]
    pub(super) fn clear_yield(&self, me: &ThreadSlot, t: ThreadId) {
        if me.yielding.load(Ordering::Relaxed) {
            self.end_yield(me, t);
        }
    }

    /// Ends `me`'s yield, which is in force, and withdraws its
    /// registrations.
    #[cold]
    #[inline(never)]
    pub(super) fn end_yield(&self, me: &ThreadSlot, t: ThreadId) {
        let causes = me.take_yield(&mut me.allowed.lock());
        self.withdraw(t, &causes);
    }
}
