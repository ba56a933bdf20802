//! The avoidance engine: `request` / `acquired` / `release` hooks and the
//! RAG cache (§5.4, §5.6).
//!
//! This is the code on the application's lock/unlock path. It maintains the
//! "simpler cache of parts of the RAG" the paper describes — who holds
//! which lock and the `Allowed` sets — with a **mutex-free signature-hit
//! path**: once a request's suffix hits a signature-member bucket,
//! everything it reads to decide (the emptiness precheck, the cover search)
//! is atomics, not locks; only a yield then takes a lock, one per cause:
//!
//! * each registered thread keeps its own **`Allowed` log** (the master
//!   copy of its entries) as a **held-lock stack**: a `Vec` of `(lock,
//!   stack)` entries — each with the bucket slots its grant resolved the
//!   stack to — pushed by a grant and popped by a release, searched from
//!   the top so unlocks may come in any order. It is the only record of
//!   lock ownership on the hook path — a lock's owner is the thread whose
//!   stack holds it, so there is no shared owner map to update — and it
//!   sits behind a per-slot lock that only its owner and the occasional
//!   rebuild touch, whose uncontended unlock is a load and a store
//!   (`record.rs`, "The slot lock"). An uncontended pair on a warm stack
//!   allocates nothing, hashes nothing on an empty history, and on a
//!   populated one hashes the stack's suffixes once, in `request`;
//! * the suffix-keyed **`Allowed` buckets** consulted by the exact-cover
//!   search live in a `MatchTable` (`rebuild.rs`): a **dense array of
//!   [`VersionedBucket`]s**, one per distinct `(depth, suffix)` member key
//!   of the generation's [`BucketLayout`] — the key set is known at
//!   rebuild time because only entries whose suffix matches some signature
//!   member can ever participate in a cover. Readers are optimistic
//!   (seqlock copy + sequence revalidation) and never block; an insert or
//!   removal claims only its own bucket's sequence word with one CAS. A
//!   bucket is the only record of whether it is empty: its live-record
//!   count, loaded alone ([`VersionedBucket::is_empty`]), proves it empty
//!   without copying anything;
//! * the **yielding bookkeeping** sits in the causes' logs: each log keeps
//!   the registrations *against its thread as a cause* (`Waiter`s: cause
//!   lock, yielder), pushed by a yielder under that log's slot lock and
//!   either taken by the pop that ends the entry or withdrawn by the
//!   yielder, under that same lock, when its yield ends;
//! * the read-mostly **match view** (bucket layout, the [`MatchIndex`],
//!   and the current `MatchTable`) sits in each thread's log, where the
//!   rebuild's visit hands it over, so `request` reads it under the slot
//!   mutex it takes anyway and checks it with one generation load;
//! * events flow to the monitor over per-thread lanes
//!   ([`crate::lanes::EventLanes`]) instead of the paper's one contended
//!   queue, and only the events the monitor's RAG needs: two per
//!   uncontended pair, and none for a lone one (a quiet hold).
//!
//! One file per protocol: `record.rs` (the thread records, the grant word
//! and quiet holds), `log.rs` (the held-lock stack), `cover.rs` (fast-path
//! gating and the cover search), `yields.rs` (the no-lost-wakeup protocol)
//! and `rebuild.rs` (the rebuild protocol). This file has the hooks.
//!
//! # What the monitor is told: a GO is published only if the thread waits
//!
//! A `request` that ends in a GO publishes nothing. The grant is remembered
//! in the thread's slot (`ThreadSlot::grant`), and the hook that learns how
//! the attempt ended publishes it:
//!
//! * [`AvoidanceCore::acquired`] — the lock was free — publishes one
//!   [`Event::Granted`], the GO and the acquisition together. The monitor
//!   never sees the allow edge an [`Event::Go`] would have drawn, and never
//!   needed to: the edge would be gone again within the same drain.
//! * [`AvoidanceCore::waiting`] — the lock is taken and the thread is about
//!   to block on it — publishes the `Go`; the later `acquired` then
//!   publishes a plain [`Event::Acquired`].
//! * [`AvoidanceCore::cancel`] withdraws an unpublished grant without ever
//!   publishing it.
//! * Any other hook that finds a grant still unpublished (a second
//!   `request`, a `release`, the exit sweep — a hand-driven script, or a
//!   thread that died between `request` and `acquired`) publishes it as a
//!   plain `Go` first, so at most one grant is ever pending and none is
//!   dropped.
//!
//! A grant that may need no event at all is marked quiet; `acquired` turns
//! it into a quiet hold instead of publishing the `Granted` (`record.rs`).
//!
//! **A blocked thread has always published its allow edge.** Deadlock
//! detection needs, for every thread stuck inside a mutex, the allow edge
//! `T → L` and the hold edge `L → holder` in the RAG. The lock types call
//! `waiting` after a failed `try_lock` and *before* the blocking `lock()` /
//! `try_lock_for(..)` (one place: `crate::sync::acquire`), on the blocking
//! thread itself, so the `Go` is in that thread's lane before it can block;
//! the holder published its hold edge when it acquired, as before. A thread
//! that never blocks never needed the edge. Relative to the blocking wait
//! the `Go` is published where it always was — after the decision, before
//! the wait — so detection lag is unchanged.
//!
//! What the avoidance side reads is unchanged too: a GO appends to the held
//! stack and the buckets inside `request`, exactly as before, so another
//! thread can name `(T′, L′)` as a yield cause while T′'s grant is still
//! unpublished. That window existed already — the entry was bucketed before
//! the `Go` was pushed, and lanes promise no cross-thread order — and the
//! monitor treats a yield edge whose cause it cannot see yet as not pinned
//! (`Rag::find_yield_cycles`), the safe direction.
//!
//! # Lock order
//!
//! The engine-internal lock order is `rebuild mutex → slot (allowed-log)
//! lock → bucket sequence claim`, with the parker mutex as a leaf — no
//! hashed or sharded mutex beside them: rebuilds hold the rebuild mutex
//! and take slot locks one at a time, hooks bucket their own entries with
//! the slot lock held, and a release claims its bucket with the slot lock
//! held. A yielder takes each cause's slot lock in turn holding no engine
//! lock, to register or to withdraw, as the monitor's claim does. A bucket
//! claim is only ever held singly, and its holder takes no lock, so the
//! order is acyclic. Each record's parker mutex is the leaf: whoever holds
//! it takes no other lock. A thread parks in a yield on its own parker
//! holding nothing else, every waker takes the yielder's parker mutex
//! holding no engine lock (`yields.rs`), and a slot lock's waiter sleeps
//! on the record's parker, which the contended unlock notifies — possibly
//! with the rebuild mutex held, a leaf taken last (`record.rs`, "The slot
//! lock").
//!
//! # Exit and unwind cleanup
//!
//! A registered thread that dies — orderly return or panic — while holding
//! locks would otherwise strand its held-lock stack, its bucketed
//! `Allowed` entries, and (worst) the yielders parked against it as a
//! cause, forever. [`AvoidanceCore::unregister_thread_waking`] is the exit
//! sweep: in one critical section of its slot lock it removes each entry
//! of the dead thread's stack from its buckets, empties the stack (which
//! keeps its capacity for the slot's next tenant) and takes every live
//! waiter; it then wakes those through the caller's waker, each wake
//! counted in `orphan_wakes`. A woken yielder's retried request can never
//! re-yield on the dead thread's entries: they left before the waiters
//! did, and a later registration finds no entry. The runtime runs
//! the sweep from the thread-local `Registration`'s `Drop`, which executes
//! during TLS teardown — *after* the thread boundary has already caught a
//! panic, where `std::thread::panicking()` is false again. Panic exits are
//! therefore detected by a per-slot latch instead: any hook that runs
//! mid-unwind (a RAII guard's `release`, a scripted fault) latches
//! `ThreadSlot::panicked`, and the sweep classifies the exit as a
//! `panic_cleanups` when the latch is set.
//!
//! The engine is *thread-agnostic*: callers pass explicit [`ThreadId`]s, so
//! both real OS threads (via [`crate::runtime::Runtime`]) and simulated
//! threads (via `dimmunix-threadsim`) drive the same decision logic. The
//! pre-refactor single-lock engine is preserved as
//! [`crate::reference::ReferenceCore`], the oracle of the differential
//! tests; its state sits behind a plain mutex (§5.6's Peterson-style guard
//! is not reproduced).

mod cover;
mod log;
mod rebuild;
mod record;
mod yields;

// The module's one import list: each file above takes it with `use super::*`.
use crate::config::{Config, RuntimeMode, MAX_THREADS};
use crate::event::{Event, YieldInfo};
use crate::lanes::EventLanes;
use crate::runtime::ParkOutcome;
use crate::stats::Stats;
use cover::Resolved;
use dimmunix_lockfree::VersionedBucket;
use dimmunix_rag::{LockId, ThreadId, YieldCause};
use dimmunix_signature::{
    BucketLayout, CoverKeys, FrameId, History, MatchIndex, MemberKey, Signature, StackId,
    StackTable,
};
use log::{AllowedLog, Held, Waiter};
use parking_lot::{Condvar, Mutex};
use rebuild::{AllowedEntry, MatchView};
pub(crate) use record::IdPool;
use record::{new_chunk, Chunk, SlotGuard, ThreadSlot, CHUNK, GRANT_QUIET, HELD};
use std::borrow::Cow;
use std::cell::UnsafeCell;
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Answer of the `request` hook (§3): GO means it is safe — with respect to
/// the history — for the thread to block waiting for the lock; YIELD means
/// proceeding could instantiate a known deadlock signature.
#[derive(Clone, Debug)]
pub enum Decision {
    /// Safe to block waiting for the lock.
    Go,
    /// Yield and retry later; `sig` is the signature that would have been
    /// instantiated.
    Yield {
        /// The matched signature.
        sig: Arc<Signature>,
    },
}

/// The avoidance engine. One per runtime.
pub struct AvoidanceCore {
    /// The thread records, [`CHUNK`] ids per entry, installed as a prefix
    /// (`rebuild.rs`, the chunk-install rule) and kept until the engine
    /// drops.
    chunks: [OnceLock<Box<Chunk>>; MAX_THREADS / CHUNK],
    ids: Mutex<IdPool>,
    /// The published match view, behind the mutex that serializes rebuilds
    /// (view build, the per-slot visit, publication) and chunk installs.
    /// Hooks read their log's view, never this; they take the mutex only to
    /// rebuild or to wait one out, holding no other engine lock.
    view: Mutex<Arc<MatchView>>,
    history: Arc<History>,
    stacks: Arc<StackTable>,
    lanes: Arc<EventLanes>,
    stats: Arc<Stats>,
    config: Config,
}

impl AvoidanceCore {
    /// Creates the engine.
    pub fn new(
        config: Config,
        history: Arc<History>,
        stacks: Arc<StackTable>,
        lanes: Arc<EventLanes>,
        stats: Arc<Stats>,
    ) -> Self {
        Self {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            ids: Mutex::default(),
            view: Mutex::new(MatchView::sentinel()),
            history,
            stacks,
            lanes,
            stats,
            config,
        }
    }

    /// Registers the calling (real or simulated) thread, returning its dense
    /// id, or `None` when [`MAX_THREADS`] are already registered. An id past
    /// the installed chunks installs every chunk up to its own
    /// (`rebuild.rs`, the chunk-install rule).
    pub fn register_thread(&self) -> Option<ThreadId> {
        let slot = self.ids.lock().take()?;
        if self.chunks[slot / CHUNK].get().is_none() {
            let view = self.view.lock();
            for chunk in &self.chunks[..=slot / CHUNK] {
                chunk.get_or_init(|| new_chunk(&view));
            }
        }
        // Makes the id's counters with their block, so no hook allocates.
        self.stats.hot(slot);
        let t = ThreadId(slot as u64);
        self.me(t).panicked.store(false, Ordering::Relaxed);
        Some(t)
    }

    /// `t`'s record; `None` for an id past the installed chunks, which no
    /// thread was ever given.
    pub(crate) fn record(&self, t: ThreadId) -> Option<&ThreadSlot> {
        let id = usize::try_from(t.0).ok()?;
        Some(&self.chunks.get(id / CHUNK)?.get()?.0[id % CHUNK])
    }

    /// The record of registered thread `t`: each hook looks it up once.
    #[inline]
    pub(crate) fn me(&self, t: ThreadId) -> &ThreadSlot {
        self.record(t).expect("a registered thread id")
    }

    /// Every record there is, with its id: what each per-thread sweep walks.
    pub(crate) fn records(&self) -> impl Iterator<Item = (ThreadId, &ThreadSlot)> {
        let made = self.chunks.iter().map_while(OnceLock::get);
        let ids = made.flat_map(|chunk| chunk.0.iter()).enumerate();
        ids.map(|(id, me)| (ThreadId(id as u64), me))
    }

    /// Whether a hook has observed `t` unwinding (see `ThreadSlot::panicked`).
    pub(crate) fn thread_panicked(&self, t: ThreadId) -> bool {
        self.record(t)
            .is_some_and(|me| me.panicked.load(Ordering::Relaxed))
    }

    /// Deregisters `t`, releasing its slot and cleaning its state. Yielders
    /// whose cause was `t` get no wake through this entry point (no waker
    /// handle); the max-yield bound rescues them. Prefer
    /// [`AvoidanceCore::unregister_thread_waking`] wherever a waker exists.
    pub fn unregister_thread(&self, t: ThreadId) {
        self.unregister_thread_waking(t, &mut |_| {});
    }

    /// Deregisters `t` with a waker: ends its yield and withdraws its
    /// registrations, empties its held-lock stack (it may have panicked
    /// mid-critical-section) and drops those `Allowed` entries from the
    /// shared buckets, hands every yielder parked on `t` as its cause to
    /// `wake` (counted in `orphan_wakes` — their release will never come),
    /// emits `ThreadExit`, and frees the slot. This is the unwind-safe exit
    /// path: a panicking registered thread reaches it via `Registration`'s
    /// `Drop`.
    pub fn unregister_thread_waking(&self, t: ThreadId, wake: &mut dyn FnMut(ThreadId)) {
        let me = self.me(t);
        self.clear_yield(me, t);
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            // Drop the entries the thread never released (panic inside a
            // critical section) from the buckets, empty its stack and take
            // every waiter, in one critical section: a yielder that
            // registers later finds no entry. The monitor's RAG drops the
            // hold edges via `ThreadExit`, so no per-lock Release events are
            // needed.
            let orphans: Vec<ThreadId> = {
                let mut log = me.lock();
                for held in &log.entries {
                    self.remove_buckets(&log.view, t, held);
                }
                log.entries.clear();
                log.waiters.drain(..).map(|w| w.yielder).collect()
            };
            // Their cause is exiting, so the release they are waiting out
            // will never happen.
            for y in orphans {
                Stats::bump(&self.stats.orphan_wakes);
                wake(y);
            }
        }
        // A grant the thread never got to act on (it died between `request`
        // and `acquired`) still counts as a GO.
        self.publish_grant(me, t);
        self.lanes.push(t.0 as usize, Event::ThreadExit { t });
        self.ids.lock().give_back(t.0 as usize);
    }

    /// Interns a captured frame sequence.
    pub fn intern_stack(&self, frames: &[FrameId]) -> StackId {
        self.stacks.intern(frames)
    }

    /// The `request` hook: decides GO or YIELD for thread `t` wanting lock
    /// `l` with call stack `frames`/`stack` (§5.4). A GO to a thread that
    /// holds nothing and has no yield in force is marked quiet, relevant
    /// stack or not (`record.rs`, "Quiet holds").
    pub fn request(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) -> Decision {
        let me = self.me(t);
        let slot = t.0 as usize;
        let hot = self.stats.hot(slot);
        Stats::count(&hot.requests, 1);
        self.publish_grant(me, t);

        if self.config.mode == RuntimeMode::InstrumentationOnly {
            Stats::count(&hot.gos, 1);
            me.defer_go(l, stack, 2);
            return Decision::Go;
        }

        let full = self.config.mode == RuntimeMode::Full;
        // A yield in force when the request began (a retry after a wake):
        // its registrations come back first, but it stays in force, and the
        // monitor draws its edges, until a grant or a new yield replaces it
        // (only this thread writes `yielding`).
        let yielding = me.yielding.load(Ordering::Relaxed);
        if yielding {
            self.withdraw_yield(me, t);
        }
        let mut quiet;
        let instance = loop {
            let mut resolved = Resolved::default();
            let log = self.lock_current(me, frames, &mut resolved);
            // A thread that holds nothing and has no yield edge to clear
            // gets a GO that may become a quiet hold, whichever branch below
            // grants it (`record.rs`). Only this thread changes its log's
            // length, so every retry reads the same answer.
            quiet = log.entries.is_empty() && !yielding;
            if resolved.len == 0 {
                // Cover impossible: the suffix hits no member bucket, so the
                // decision is GO and the entry stays in the private log — no
                // shared state touched (beyond yield cleanup).
                Self::record_go(log, &[], t, l, stack);
                break None;
            }
            let view = &log.view;
            let slots = &view.all_slots(&resolved, frames)[..];
            let found = if full {
                self.find_instance(view, slots, t, l, stack)
            } else {
                None
            };
            let Some(inst) = found else {
                Self::record_go(log, slots, t, l, stack);
                break None;
            };
            if self.config.enforce_yields {
                // Register with each cause in its own log's critical
                // section, holding no engine lock: a cause that popped its
                // entry since the search refuses, and a pop after the
                // registration takes it (`yields.rs`' protocol). Either a
                // refusal or a moved generation means withdrawing what was
                // registered and deciding again.
                let generation = view.generation;
                drop(log);
                let registered = self.register_yield(t, &inst.causes);
                if !registered || generation != self.history.generation() {
                    if registered {
                        self.withdraw(t, &inst.causes);
                    }
                    Stats::count(&hot.cover_retries, 1);
                    continue;
                }
            } else {
                // Measurement mode: record the would-be yield but proceed
                // as GO.
                Self::record_go(log, slots, t, l, stack);
            }
            break Some(inst);
        };

        match instance {
            None => {
                self.clear_yield(me, t);
                Stats::count(&hot.gos, 1);
                me.defer_go(l, stack, if quiet { 2 | GRANT_QUIET } else { 2 });
                Decision::Go
            }
            Some(inst) => {
                let info = Box::new(YieldInfo {
                    sig: inst.sig.id,
                    depth_used: inst.depth_used,
                    bindings: inst.bindings,
                    causes: inst.causes.clone(),
                });
                inst.sig.record_avoided();
                Stats::bump(&self.stats.yields);
                self.lanes.push(slot, Event::Yield { t, l, stack, info });
                if self.config.enforce_yields {
                    let mut log = me.lock();
                    log.causes = inst.causes;
                    log.broken = false;
                    me.yielding.store(true, Ordering::Relaxed);
                    Decision::Yield { sig: inst.sig }
                } else {
                    // The `Yield` event above accounts for the request.
                    Stats::count(&hot.gos, 1);
                    me.defer_go(l, stack, 1);
                    Decision::Go
                }
            }
        }
    }

    /// Grants the lock request without consulting the history — used when a
    /// yield is broken by the monitor or times out: the thread "pursues its
    /// most recently requested lock" (§3).
    pub fn force_go(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) {
        let me = self.me(t);
        self.publish_grant(me, t);
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            self.record_entry(me, t, l, frames, stack);
        }
        self.clear_yield(me, t);
        Stats::count(&self.stats.hot(t.0 as usize).gos, 1);
        // The `Yield` event of the request this overrides accounted for it.
        me.defer_go(l, stack, 1);
    }

    /// Publishes whatever the grant word holds: what every hook other than
    /// the grant's own `waiting` / `acquired` / `cancel` and the hold's own
    /// `release` does first, so at most one grant or hold is ever pending
    /// and none is dropped.
    fn publish_grant(&self, me: &ThreadSlot, t: ThreadId) {
        self.publish(t, me.take());
    }

    /// Publishes what [`ThreadSlot::take`] took as the event it stands in
    /// for: an unpublished grant as a plain `Go`, an unclaimed quiet hold as
    /// its `Granted`. A claimed hold's edge is already drawn.
    fn publish(&self, t: ThreadId, taken: Option<(LockId, StackId, u8)>) {
        let event = match taken {
            Some((l, stack, HELD)) => Event::Granted {
                t,
                l,
                stack,
                grant: 2,
            },
            Some((l, stack, grant)) if grant & HELD == 0 => {
                let grant = (grant & !GRANT_QUIET).into();
                Event::Go { t, l, stack, grant }
            }
            _ => return,
        };
        self.lanes.push(t.0 as usize, event);
    }

    /// Consumes the unpublished grant if it is for `l`, returning its
    /// counted outcomes (0 = there was none: the `Go` is already out, or
    /// the caller never requested) and whether it may become a quiet hold.
    /// Anything else the word holds — a grant for another lock, a quiet
    /// hold — is not the caller's to consume and is published.
    fn take_grant(&self, me: &ThreadSlot, t: ThreadId, l: LockId) -> (u32, bool) {
        match me.take() {
            Some((granted, _, grant)) if granted == l && grant & HELD == 0 => {
                ((grant & !GRANT_QUIET).into(), grant & GRANT_QUIET != 0)
            }
            taken => {
                self.publish(t, taken);
                (0, false)
            }
        }
    }

    /// The `waiting` hook: `t` was granted `l`, found it taken, and is about
    /// to block on it. Publishes the grant's `Go` — the allow edge — so the
    /// call must come **before** the blocking wait (module docs). A no-op
    /// when that `Go` is already out.
    pub fn waiting(&self, t: ThreadId, l: LockId, stack: StackId) {
        let (grant, _) = self.take_grant(self.me(t), t, l);
        if grant != 0 {
            self.lanes
                .push(t.0 as usize, Event::Go { t, l, stack, grant });
        }
    }

    /// The `acquired` hook: the lock was actually obtained. The request's
    /// GO already pushed the held-stack entry, so this only counts and
    /// publishes at most one event: `Granted` (the GO and the acquisition)
    /// when the thread never had to wait, `Acquired` when `waiting` already
    /// published the GO — and none when the grant was quiet: it becomes the
    /// thread's quiet hold (`record.rs`).
    pub fn acquired(&self, t: ThreadId, l: LockId, stack: StackId) {
        let me = self.me(t);
        #[cfg(feature = "fault-inject")]
        if dimmunix_inject::should_panic_on_acquire(t.0 as usize) {
            // Latch before unwinding: the scripted panic may be the only
            // unwind-time hook this thread ever runs (raw locks have no
            // RAII guard to pass through `release`).
            me.panicked.store(true, Ordering::Relaxed);
            panic!(
                "dimmunix fault injection: scripted panic at acquire (thread slot {}, lock {})",
                t.0, l.0
            );
        }
        let slot = t.0 as usize;
        Stats::count(&self.stats.hot(slot).acquisitions, 1);
        let event = match self.take_grant(me, t, l) {
            (_, true) => return me.hold_quietly(),
            (0, _) => Event::Acquired { t, l, stack },
            (grant, _) => Event::Granted { t, l, stack, grant },
        };
        self.lanes.push(slot, event);
    }

    /// Reentrant re-acquisition (Java monitor / recursive mutex): no
    /// decision is needed — a thread cannot deadlock against itself — but
    /// the hold multiset gains a level (§5.1) and the `Allowed` entry for
    /// this nesting level is recorded (log-only when the suffix hits no
    /// bucket).
    pub fn acquired_reentrant(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) {
        let me = self.me(t);
        let slot = t.0 as usize;
        self.publish_grant(me, t);
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            self.record_entry(me, t, l, frames, stack);
        }
        Stats::count(&self.stats.hot(slot).acquisitions, 1);
        self.lanes.push(slot, Event::Acquired { t, l, stack });
    }

    /// The `release` hook, invoked **before** the real unlock. Returns the
    /// threads whose yields were caused by `(t, l)` — the caller must wake
    /// them *after* performing the real unlock.
    pub fn release(&self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        let me = self.me(t);
        // A release arriving mid-unwind is a RAII guard dropping during a
        // panic: latch it so the TLS-teardown exit sweep (which runs after
        // the panic was caught) can still classify the exit correctly.
        if std::thread::panicking() {
            me.panicked.store(true, Ordering::Relaxed);
        }
        let slot = t.0 as usize;
        // The grant word is taken in the critical section that pops the
        // entry, where the monitor cannot claim (`record.rs`).
        let (taken, wake) = if self.config.mode == RuntimeMode::InstrumentationOnly {
            (me.take(), Vec::new())
        } else {
            let mut log = me.lock();
            (me.take_locked(&log), self.pop_entry(&mut log, t, l))
        };
        // A quiet hold of `l` the monitor never claimed ends unseen: this
        // release retires its pair. Anything else the word held is
        // published.
        let hot = self.stats.hot(slot);
        match taken {
            Some((held, _, HELD)) if held == l => Stats::count(&hot.quiet_pairs, 1),
            taken => {
                self.publish(t, taken);
                Stats::count(&hot.releases, 1);
                self.lanes.push(slot, Event::Release { t, l });
            }
        }
        wake
    }

    /// The `cancel` hook (§6): rolls back a granted-or-pending request after
    /// a try/timed lock gave up. A grant that was never published is
    /// withdrawn with it: the monitor hears of the cancel alone. After a GO
    /// it pops the request's entry and returns the threads whose yields
    /// that entry caused, as [`Self::release`] does; the caller wakes them.
    /// After a YIELD (the thread is still yielding) it only ends the yield
    /// and withdraws its registrations: the request pushed no entry, and the
    /// innermost `(t, l)` entry is a hold of `l` the thread keeps.
    pub fn cancel(&self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        let me = self.me(t);
        let (grant, _) = self.take_grant(me, t, l);
        let mut wake = Vec::new();
        if me.yielding.load(Ordering::Relaxed) {
            self.end_yield(me, t);
        } else if self.config.mode != RuntimeMode::InstrumentationOnly {
            wake = self.pop_entry(&mut me.lock(), t, l);
        }
        self.lanes.push(t.0 as usize, Event::Cancel { t, l, grant });
        wake
    }

    /// Approximate heap footprint of the avoidance state, in bytes (§7.4).
    pub fn approx_bytes(&self) -> usize {
        let held = |(_, me): (ThreadId, &ThreadSlot)| me.lock().entries.len();
        let live: usize = self.records().map(held).sum();
        live * core::mem::size_of::<Held>()
            + self.published().table.approx_bytes()
            + self.records().count() * core::mem::size_of::<ThreadSlot>()
    }

    /// Live-occupancy skew across the current generation's buckets
    /// (telemetry; racy reads, no synchronization).
    pub fn occupancy_skew(&self) -> OccupancySkew {
        let view = self.published();
        let mut skew = OccupancySkew {
            buckets: view.table.buckets.len(),
            ..OccupancySkew::default()
        };
        for bucket in view.table.buckets.iter() {
            let n = bucket.approx_len() as u64;
            skew.live_entries += n;
            skew.hottest = skew.hottest.max(n);
            let bin = match n {
                0 => 0,
                1 => 1,
                2..=3 => 2,
                4..=7 => 3,
                8..=15 => 4,
                16..=31 => 5,
                32..=63 => 6,
                _ => 7,
            };
            skew.hist[bin] += 1;
        }
        skew
    }
}

/// Snapshot of per-bucket live-entry skew (see
/// [`AvoidanceCore::occupancy_skew`]): makes a hot signature-member bucket
/// visible without a profiler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccupancySkew {
    /// Bucket count of the current generation (== distinct member keys).
    pub buckets: usize,
    /// Total live `Allowed` entries across all buckets.
    pub live_entries: u64,
    /// Live-entry count of the hottest single bucket.
    pub hottest: u64,
    /// Bucket-count histogram by live entries:
    /// `[0, 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64+]`.
    pub hist: [u64; 8],
}

impl std::fmt::Debug for AvoidanceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AvoidanceCore")
            .field("threads", &self.ids.lock().in_use())
            .field("history_len", &self.history.len())
            .finish()
    }
}

#[cfg(test)]
mod tests;
