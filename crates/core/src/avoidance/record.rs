//! The thread record: a [`ThreadSlot`] per thread id, made 64 at a time in
//! an aligned [`Chunk`], the [`IdPool`] that hands the ids out, the slot
//! lock and the parker its waiters sleep on, and the grant word with the
//! monitor's claim of a quiet hold.
//!
//! # Quiet holds: a pair no one waits for publishes nothing
//!
//! The monitor needs a hold edge only where it can close a cycle or answer
//! a waiter's "waiting for whom" (§5.2). A lock taken by a thread that
//! holds nothing can do neither until someone waits for it: its thread
//! waits for nothing, and a thread that goes on to request another lock —
//! the only way to block or yield while holding this one — publishes its
//! holds first. So:
//!
//! * `request` marks a GO quiet when the thread's log is empty and no
//!   yield is in force whose edges the monitor still draws. It decides once,
//!   right after `lock_current`, for both branches that grant: a stack that
//!   hits no member bucket, and a relevant one with no cover. A relevant
//!   quiet grant still inserts its bucket entries, and its release still
//!   removes them and takes its waiters, so decisions and wakeups are those
//!   of a published pair; only the lane entries are skipped.
//!   Instrumentation-only mode keeps no log and never marks one;
//! * `acquired` on a quiet grant pushes nothing. It leaves the grant's lock
//!   and stack where `defer_go` wrote them and stores `HELD` into the
//!   grant word, `ThreadSlot::grant` (`Release`): the hold is a state of
//!   the one word that already says what was granted;
//! * that lock's `release` takes the word in the slot critical section that
//!   pops the entry, with a load and a store: the monitor claims only under
//!   that lock, so nothing else can write the word there. A hold still
//!   unclaimed ends unseen: the release pushes nothing and counts the
//!   pair's four outcomes as one `quiet_pairs`;
//! * every other hook that finds a quiet hold (a nested `request`,
//!   `force_go`, `acquired_reentrant`, `waiting` / `acquired` / `cancel` of
//!   another lock, the exit sweep) takes it with a swap, outside the slot
//!   lock, where the monitor may claim up to the instant it lands, and
//!   publishes it first, as the `Granted` it stands in for.
//!   Instrumentation-only mode takes no slot lock, and its `release` swaps
//!   too. Everything else publishes what it did.
//!
//! **The monitor claims a hold only when someone waits.** After each drain
//! it looks for locks that a thread in its RAG waits for and no thread
//! holds, and claims the quiet hold of each (`AvoidanceCore::claim_quiet`).
//! A lock-free look filters the threads: the word is `HELD` and its lock
//! is awaited. For each that passes, the monitor takes the thread's slot
//! lock, reloads the word (`Acquire`), checks that the holder's lane is
//! drained, reads the lock and stack, and CASes `HELD → HELD | CLAIMED` —
//! the only write to the word that is not the owner's. It then draws the
//! hold edge as that `Granted` would have, and retires the grant's three
//! outcomes. The holder's take sees the claim, and the release publishes a
//! plain `Release`. Three facts make the claim exact:
//!
//! * **The CAS lands on the hold that was read.** While the monitor holds
//!   the slot lock the owner can still *end* the hold — the swap at the
//!   top of a nested `request`, say; its `release` waits for the lock —
//!   but cannot *start* another: every path to a new grant passes
//!   `lock_current`, which takes that lock (instrumentation-only grants
//!   skip it, and that mode never holds quietly). So the word cannot
//!   return to `HELD` before the CAS, and the lock and stack read after
//!   the reload are the hold's: they were written before its `Release`
//!   store, and their one writer, `defer_go`, runs only after a new
//!   grant's `lock_current`.
//! * **The edge lands in the holder's event order.** Every event the holder
//!   pushed before the hold happens-before the word store the claim read,
//!   so a drained lane means they are all applied; while the hold is in
//!   force the holder pushes nothing, since every hook that pushes takes
//!   the word first. A lane with events left defers the claim to the next
//!   pass, after the drain. Without that check a stale edge of the holder's
//!   — an allow edge whose `Acquired` was still queued — could close a
//!   false cycle through the new hold edge.
//! * **No stale edge.** A claimed hold's release always publishes its
//!   `Release`, so the graph ends equal to a replay of the events the pair
//!   would have published unclaimed.
//!
//! **A cover may name a quiet hold.** The bucket entry of a relevant quiet
//! hold `(T, L)` is as visible to covers as any, so a yielder can register
//! it as a cause while the monitor has no hold edge for it. Nothing the
//! yielder waits for comes from the monitor: T's release takes its waiters
//! whatever the hold's state. The monitor's part is the yield-cycle
//! search, and there a cause it does not see held does not pin its yielder
//! (`Rag::find_yield_cycles`) — the safe direction, and only while T
//! cannot be stuck: T joins a yield cycle only by a further `request` while
//! holding L, whose first step publishes the hold (`publish_grant`).
//! So T's `Granted` is in its lane ahead of its `Go` or `Yield`, and the
//! pass that sees T stuck sees the hold edge too. The false-positive probes
//! take their holds from the RAG alone for the same reason: a cause enters
//! a probe as an applied event or a claim, never on the yielder's word.
//!
//! The claim adds one edge to the engine's lock order: the monitor takes a
//! slot lock holding no engine lock, as a rebuild's visit does, and no
//! hook holds a slot lock while it waits on the monitor.
//!
//! # The slot lock
//!
//! A record's log is behind a [`SlotLock`], a word with three states: 0
//! free, 1 held, 2 held and someone may be asleep. `lock` is one CAS 0 → 1
//! (`Acquire`). The guard's drop loads the word: 1 means nobody waits, and
//! a `Release` store of 0 unlocks with no read-modify-write; 2 means it
//! stores 0 and notifies the sleepers. So a lone pair, which locks once in
//! `request` and once in `release`, makes two RMWs, both CASes.
//!
//! A waiter spins a few reads, taking the lock 0 → 1 if it sees it free.
//! Then it marks the word 2 with a swap — which acquires if it read 0 — and
//! sleeps on the record's [`Parker`]: under the parker's mutex it checks
//! that the word still reads 2, and waits on the parker's condition
//! variable, which the contended unlock notifies under that mutex. From
//! its first mark on it acquires only with a swap that reads 0, never with
//! 0 → 1, so that while others may sleep the word stays 2 and its own
//! unlock notifies them. The unlock's load and store are not one step: a
//! waiter may write its 2 between them, and the store overwrites it. Then
//! no notify comes, and the waiter's sleep ends at its timeout
//! ([`SLOT_SLEEP`]) and finds the word free. The race costs that waiter
//! latency, never mutual exclusion: only a swap or CAS that reads 0
//! acquires.
//!
//! Waiters must sleep: on two cores, waiters that only spun and yielded
//! made the hot-cause storm canary (four yielders registering against one
//! cause's log while it churns) take seconds instead of tens of
//! milliseconds, the spinners taking the core from the holder.

use super::*;

/// Thread records per chunk: the first registration in a chunk makes all.
pub(super) const CHUNK: usize = 64;

/// One chunk of thread records, cache-line aligned (see [`ThreadSlot`]).
#[repr(C, align(128))]
pub(super) struct Chunk(pub(super) [ThreadSlot; CHUNK]);

/// A chunk on `view`, written in place on the heap: built on the stack, it
/// would make a fresh thread fault in ≈ 9 KB of stack pages.
pub(super) fn new_chunk(view: &Arc<MatchView>) -> Box<Chunk> {
    let mut chunk = Box::<Chunk>::new_uninit();
    let first = chunk.as_mut_ptr().cast::<ThreadSlot>();
    for i in 0..CHUNK {
        // SAFETY: `Chunk` is `repr(C)` around the array, so record `i` is
        // at `first + i`, in the allocation. A panic leaks what was written.
        unsafe { first.add(i).write(ThreadSlot::new(Arc::clone(view))) };
    }
    // SAFETY: the loop wrote every record.
    unsafe { chunk.assume_init() }
}

/// One registered thread's record (the paper's `yieldLock[T]` data): its
/// `Allowed` log and yield behind one lock, the slot lock (module docs), and
/// the parker, where the thread parks in a yield and the slot lock's
/// waiters sleep. Made with its aligned [`Chunk`] and reused by every
/// later tenant of the id. `repr(C)` and 128 bytes on 64-bit targets, so in
/// the 128-byte-aligned chunk every record starts on its own pair of cache
/// lines, the same two in every run (at an allocator's address, they varied
/// from run to run), and no two records share a line. What a lone pair
/// touches ends before byte 112.
#[repr(C)]
pub(crate) struct ThreadSlot {
    pub(super) grant_lock: AtomicU64,
    pub(super) grant_stack: AtomicU32,
    /// What was granted and not published yet, or is held quietly, with its
    /// lock and stack in `grant_lock` / `grant_stack` (`mod.rs`, "What the
    /// monitor is told", and module docs, "Quiet holds"); **0** when there
    /// is neither.
    /// A grant whose `Go` is unpublished counts its outcomes — 2 for a
    /// `request` and its GO, 1 for a GO alone — with [`GRANT_QUIET`] if it
    /// becomes a quiet hold when the lock is free. A quiet hold is [`HELD`],
    /// and `HELD | CLAIMED` once the monitor drew its hold edge.
    ///
    /// Written by the owner — a thread's hooks all run on that thread (or
    /// on whoever drives a simulated one), and a slot changes hands only
    /// through the id pool's mutex, after the exit sweep left this at 0 —
    /// except for the monitor's one claim CAS, `HELD → HELD | CLAIMED`,
    /// made under the slot lock. So the owner enters `HELD` with a
    /// `Release` store and leaves it with a swap, or, holding that lock
    /// (its `release`), with a load and a store; every other state is the
    /// owner's alone, and relaxed loads and stores do.
    pub(super) grant: AtomicU8,
    /// Whether a yield is in force — and so whether the log's `causes` and
    /// `broken` hold anything worth clearing. Written only by the owner,
    /// with `allowed` locked; read bare by the owner's GO path (only the
    /// owner writes it, so its own read is never stale) and by
    /// [`AvoidanceCore::is_yielding`], a probe.
    pub(super) yielding: AtomicBool,
    /// Latched when a hook observes this thread unwinding (a RAII guard
    /// releasing during a panic). `Registration`'s drop runs in TLS
    /// teardown — *after* the thread boundary caught the panic, when
    /// `std::thread::panicking()` is already false — so this latch is how
    /// the exit sweep still classifies the exit as a panic cleanup.
    pub(super) panicked: AtomicBool,
    /// This thread's private `Allowed` log, the waiters registered against
    /// it, its match view and its yield, behind the slot lock
    /// ([`Self::lock`]). Locked by the owning thread on every hook, by every
    /// rebuild's visit, by each yielder registering against this thread or
    /// withdrawing from it, and by the monitor's claim; never contended in
    /// steady state.
    pub(super) allowed: SlotLock<AllowedLog>,
    /// Where a yielding real thread parks (simulated ones park elsewhere),
    /// and where the slot lock's waiters sleep.
    pub(super) parker: Parker,
}

/// [`ThreadSlot::grant`] flag: the GO was granted to a thread holding
/// nothing with no yield in force, so its pair needs no event unless someone
/// waits for the lock.
pub(super) const GRANT_QUIET: u8 = 4;
/// [`ThreadSlot::grant`] state: a quiet hold is in force.
pub(super) const HELD: u8 = 8;
/// [`ThreadSlot::grant`] flag beside [`HELD`]: the monitor claimed the hold
/// and drew its edge.
const CLAIMED: u8 = 16;

impl ThreadSlot {
    /// A record whose log starts empty, on `view`.
    fn new(view: Arc<MatchView>) -> Self {
        Self {
            parker: Parker::default(),
            yielding: AtomicBool::default(),
            allowed: SlotLock::new(AllowedLog {
                entries: Vec::new(),
                waiters: Vec::new(),
                view,
                causes: Vec::new(),
                broken: false,
            }),
            panicked: AtomicBool::default(),
            grant: AtomicU8::default(),
            grant_lock: AtomicU64::default(),
            grant_stack: AtomicU32::default(),
        }
    }

    /// Locks this record's log: the slot lock, whose waiters sleep on this
    /// record's parker.
    #[inline]
    pub(super) fn lock(&self) -> SlotGuard<'_, AllowedLog> {
        self.allowed.lock(&self.parker)
    }

    /// Remembers a GO instead of publishing it: `outcomes` is what the
    /// eventual event must account for (2 = the `request` and its GO, 1 =
    /// the GO alone), possibly with [`GRANT_QUIET`]. Every caller has taken
    /// whatever the grant word held before.
    pub(super) fn defer_go(&self, l: LockId, stack: StackId, outcomes: u8) {
        debug_assert_eq!(self.grant.load(Ordering::Relaxed), 0);
        self.grant_lock.store(l.0, Ordering::Relaxed);
        self.grant_stack.store(stack.0, Ordering::Relaxed);
        self.grant.store(outcomes, Ordering::Relaxed);
    }

    /// Takes whatever the grant word holds — an unpublished grant or a quiet
    /// hold — with its lock and stack, and leaves it 0. A hold is taken with
    /// a swap: the monitor may set [`CLAIMED`] up to the instant it lands.
    pub(super) fn take(&self) -> Option<(LockId, StackId, u8)> {
        let mut grant = self.grant.load(Ordering::Relaxed);
        if grant == 0 {
            return None;
        }
        if grant & HELD == 0 {
            self.grant.store(0, Ordering::Relaxed);
        } else {
            grant = self.grant.swap(0, Ordering::AcqRel);
        }
        Some(self.taken(grant))
    }

    /// [`Self::take`] by a caller in this record's slot critical section,
    /// `log` being the guarded log: the monitor claims only there, so no
    /// one else can write the word, and a load and a store take a hold too.
    pub(super) fn take_locked(&self, _log: &AllowedLog) -> Option<(LockId, StackId, u8)> {
        let grant = self.grant.load(Ordering::Relaxed);
        if grant == 0 {
            return None;
        }
        self.grant.store(0, Ordering::Relaxed);
        Some(self.taken(grant))
    }

    /// The grant word's `grant`, just taken, with its lock and stack.
    fn taken(&self, grant: u8) -> (LockId, StackId, u8) {
        let l = LockId(self.grant_lock.load(Ordering::Relaxed));
        let stack = StackId(self.grant_stack.load(Ordering::Relaxed));
        (l, stack, grant)
    }

    /// Makes the grant just taken a quiet hold. Its lock and stack stay in
    /// `grant_lock` / `grant_stack`; the `Release` store publishes them to
    /// the monitor's claim.
    pub(super) fn hold_quietly(&self) {
        self.grant.store(HELD, Ordering::Release);
    }

    /// The monitor's claim of this thread's quiet hold, if it holds one of
    /// `locks` and `drained` says its lane has nothing left to apply: the
    /// hold's lock and stack (module docs, "Quiet holds").
    fn claim_quiet(
        &self,
        locks: &[LockId],
        drained: impl FnOnce() -> bool,
    ) -> Option<(LockId, StackId)> {
        let held = || {
            let held = self.grant.load(Ordering::Acquire) == HELD;
            let l = LockId(self.grant_lock.load(Ordering::Relaxed));
            (held && locks.contains(&l)).then_some(l)
        };
        // Lock-free first: most threads hold nothing anyone waits for.
        held()?;
        // The owner may still end the hold read below with a swap (its
        // `release` waits for this guard), but cannot start another until
        // the guard drops: every grant passes `lock_current`. So the CAS
        // succeeds only against that hold.
        let _log = self.lock();
        let l = held()?;
        // Every event the thread pushed before this hold happens-before the
        // word just read, so the lane check sees them all.
        if !drained() {
            return None;
        }
        let stack = StackId(self.grant_stack.load(Ordering::Relaxed));
        self.grant
            .compare_exchange(HELD, HELD | CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
            .ok()?;
        Some((l, stack))
    }
}

/// A record's sleeping place: where its thread parks in a yield
/// ([`ThreadSlot::park`]) and where the waiters of its slot lock sleep. Its
/// mutex is a leaf of the engine's lock order: whoever holds it takes no
/// other lock. 16 bytes, the last of the record's 128.
#[derive(Default)]
pub(super) struct Parker {
    /// Wake count. Bumped only under `mutex`, so a parker that checks it
    /// there cannot miss a wake — the mutex orders the two.
    /// [`ThreadSlot::park_epoch`] reads it bare: a wake that matters to
    /// that caller is caused by a registration the caller publishes after
    /// the read, so coherence alone keeps the read from seeing that wake's
    /// bump. 32 bits keep the record at 128 bytes; it wraps, and a park
    /// only asks whether it moved.
    pub(super) epoch: AtomicU32,
    pub(super) mutex: Mutex<()>,
    /// Notified, to all, by every wake and every contended unlock of the
    /// slot lock: each sleeper re-checks its own condition.
    pub(super) cv: Condvar,
}

impl Parker {
    /// A slot-lock waiter's sleep: waits for a notify, or for `nap`, if
    /// `marked` — the lock word still reads 2 — holds under the mutex.
    fn sleep_while(&self, nap: Duration, marked: impl Fn() -> bool) {
        let mut g = self.mutex.lock();
        if marked() {
            self.cv.wait_for(&mut g, nap);
        }
    }

    /// Wakes every sleeper: notifies under the mutex, so a sleeper that
    /// checked its condition before the caller changed it is already
    /// waiting.
    pub(super) fn notify(&self) {
        let _g = self.mutex.lock();
        self.cv.notify_all();
    }
}

/// [`SlotLock`] word: free.
const FREE: u32 = 0;
/// [`SlotLock`] word: held, nobody waits.
const LOCKED: u32 = 1;
/// [`SlotLock`] word: held, and a waiter may be asleep.
const CONTENDED: u32 = 2;
/// Reads of the word a waiter makes before it marks it [`CONTENDED`] and
/// sleeps: a slot critical section is short, so a waiter whose holder runs
/// on another core mostly gets the lock here.
const SLOT_SPINS: u32 = 64;
/// The longest a slot-lock waiter sleeps without a notify: what the one
/// race of the unlock (module docs, "The slot lock") can cost it.
const SLOT_SLEEP: Duration = Duration::from_micros(100);

/// A thread record's lock (module docs, "The slot lock"): a word and the
/// data it guards. Its waiters sleep on the [`Parker`] `lock` is given.
pub(super) struct SlotLock<T> {
    word: AtomicU32,
    data: UnsafeCell<T>,
}

// SAFETY: `word` is an atomic. `data` is reached only through a guard, and
// the word lets one guard at a time exist: a guard is made only by a CAS or
// swap that read `FREE`, and only its drop writes `FREE` again. A guard
// hands `&mut T` to whichever thread holds it (`T: Send`), and a shared
// guard `&T` to any thread it is shared with (`T: Sync`: the guard is
// `Sync` whenever this is).
unsafe impl<T: Send + Sync> Sync for SlotLock<T> {}

impl<T> SlotLock<T> {
    /// A free lock around `data`.
    pub(super) const fn new(data: T) -> Self {
        Self {
            word: AtomicU32::new(FREE),
            data: UnsafeCell::new(data),
        }
    }

    /// Locks: one CAS when the lock is free; otherwise the waiter spins,
    /// then sleeps on `sleep`, which every unlock of this lock must notify.
    #[inline]
    pub(super) fn lock<'a>(&'a self, sleep: &'a Parker) -> SlotGuard<'a, T> {
        let free = self
            .word
            .compare_exchange(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed);
        if free.is_err() {
            self.lock_contended(sleep, SLOT_SLEEP);
        }
        SlotGuard { lock: self, sleep }
    }

    /// [`Self::lock`] with sleeps of at most `nap`: a test makes it long,
    /// so that only a notify can end one in time.
    #[cfg(test)]
    pub(super) fn lock_napping<'a>(&'a self, sleep: &'a Parker, nap: Duration) -> SlotGuard<'a, T> {
        self.lock_contended(sleep, nap);
        SlotGuard { lock: self, sleep }
    }

    /// The word: [`FREE`] 0, [`LOCKED`] 1, [`CONTENDED`] 2.
    #[cfg(test)]
    pub(super) fn word(&self) -> u32 {
        self.word.load(Ordering::Relaxed)
    }

    /// The lock was held: spin, then mark the word [`CONTENDED`] and sleep,
    /// at most `nap` at a time, until a swap of that mark reads [`FREE`].
    #[cold]
    #[inline(never)]
    fn lock_contended(&self, sleep: &Parker, nap: Duration) {
        for _ in 0..SLOT_SPINS {
            std::hint::spin_loop();
            if self.word.load(Ordering::Relaxed) == FREE
                && self
                    .word
                    .compare_exchange(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
        }
        // From here on, only a swap that leaves the mark acquires: others
        // may sleep, and the mark makes this waiter's unlock notify them.
        while self.word.swap(CONTENDED, Ordering::Acquire) != FREE {
            sleep.sleep_while(nap, || self.word.load(Ordering::Relaxed) == CONTENDED);
        }
    }

    /// The unlock read [`CONTENDED`]: free the lock and wake the sleepers.
    /// While the word is marked, waiters only mark it again, so a store
    /// frees it as a swap would.
    #[cold]
    #[inline(never)]
    fn unlock_contended(&self, sleep: &Parker) {
        self.word.store(FREE, Ordering::Release);
        sleep.notify();
    }
}

/// A held [`SlotLock`]: derefs to the data, and unlocks on drop, unwinding
/// included.
pub(super) struct SlotGuard<'a, T> {
    lock: &'a SlotLock<T>,
    sleep: &'a Parker,
}

impl<T> Deref for SlotGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds the lock (`SlotLock`'s `Sync`).
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for SlotGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`, and `&mut self` is the only borrow.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for SlotGuard<'_, T> {
    /// A load and, with nobody waiting, a `Release` store: no RMW. A waiter
    /// that marks the word between the two is overwritten and wakes at its
    /// timeout (module docs, "The slot lock").
    #[inline]
    fn drop(&mut self) {
        let word = &self.lock.word;
        if word.load(Ordering::Relaxed) == LOCKED {
            word.store(FREE, Ordering::Release);
        } else {
            self.lock.unlock_contended(self.sleep);
        }
    }
}

/// The thread ids not in use: those given back, and every id from `next`
/// up to [`MAX_THREADS`], never handed out. Behind a mutex, which orders
/// an id's successive tenants: the exit sweep of one happens-before the
/// first hook of the next.
#[derive(Default)]
pub(crate) struct IdPool {
    free: BTreeSet<usize>,
    next: usize,
}

impl IdPool {
    /// The lowest id not in use — so one given back goes out again before
    /// a new one —, or `None` when [`MAX_THREADS`] are.
    pub(crate) fn take(&mut self) -> Option<usize> {
        self.free.pop_first().or_else(|| {
            let id = self.next;
            (id < MAX_THREADS).then(|| {
                self.next += 1;
                id
            })
        })
    }

    /// Returns `id` to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in use (never handed out, or given back
    /// twice).
    pub(crate) fn give_back(&mut self, id: usize) {
        assert!(
            id < self.next && self.free.insert(id),
            "thread id {id} was not in use"
        );
    }

    /// How many ids are in use.
    pub(crate) fn in_use(&self) -> usize {
        self.next - self.free.len()
    }
}

impl AvoidanceCore {
    /// The monitor's claims: every quiet hold of one of `locks` whose
    /// thread's lane the caller has drained, with its thread, lock and
    /// stack (module docs, "Quiet holds"). Only the lanes' consumer may
    /// call this — the lane check is a consumer's read — and with no engine
    /// lock held: it takes each candidate's slot lock.
    pub(crate) fn claim_quiet(&self, locks: &[LockId]) -> Vec<(ThreadId, LockId, StackId)> {
        let claim = |(t, me): (ThreadId, &ThreadSlot)| {
            let drained = || self.lanes.is_drained(t.0 as usize);
            let (l, stack) = me.claim_quiet(locks, drained)?;
            Some((t, l, stack))
        };
        self.records().filter_map(claim).collect()
    }
}
