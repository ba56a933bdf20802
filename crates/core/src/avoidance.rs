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
//!   sits behind a per-slot mutex that only its owner and the occasional
//!   rebuild touch. An uncontended pair on a warm stack allocates nothing,
//!   hashes nothing on an empty history, and on a populated one hashes the
//!   stack's suffixes once, in `request`;
//! * the suffix-keyed **`Allowed` buckets** consulted by the exact-cover
//!   search live in a [`MatchTable`]: a **dense array of
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
//!   lock, yielder, yielder epoch), pushed by a yielder under that log's
//!   slot mutex and taken by the pop that ends the entry, and each thread
//!   keeps an atomic registration epoch whose bump retracts all of its
//!   registrations as a yielder;
//! * the read-mostly **match view** (bucket layout, the [`MatchIndex`],
//!   and the current `MatchTable`) sits in each thread's log, where the
//!   rebuild's visit hands it over, so `request` reads it under the slot
//!   mutex it takes anyway and checks it with one generation load;
//! * events flow to the monitor over per-thread lanes
//!   ([`crate::lanes::EventLanes`]) instead of the paper's one contended
//!   queue, and only the events the monitor's RAG needs: two per
//!   uncontended pair, and none for a lone one (a quiet hold).
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
//! it into a quiet hold instead of publishing the `Granted` (below).
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
//!   that mutex, so nothing else can write the word there. A hold still
//!   unclaimed ends unseen: the release pushes nothing and counts the
//!   pair's four outcomes as one `quiet_pairs`;
//! * every other hook that finds a quiet hold (a nested `request`,
//!   `force_go`, `acquired_reentrant`, `waiting` / `acquired` / `cancel` of
//!   another lock, the exit sweep) takes it with a swap, outside the slot
//!   mutex, where the monitor may claim up to the instant it lands, and
//!   publishes it first, as the `Granted` it stands in for.
//!   Instrumentation-only mode takes no slot mutex, and its `release` swaps
//!   too. Everything else publishes what it did.
//!
//! **The monitor claims a hold only when someone waits.** After each drain
//! it looks for locks that a thread in its RAG waits for and no thread
//! holds, and claims the quiet hold of each (`AvoidanceCore::claim_quiet`).
//! A lock-free look filters the threads: the word is `HELD` and its lock
//! is awaited. For each that passes, the monitor takes the thread's slot
//! mutex, reloads the word (`Acquire`), checks that the holder's lane is
//! drained, reads the lock and stack, and CASes `HELD → HELD | CLAIMED` —
//! the only write to the word that is not the owner's. It then draws the
//! hold edge as that `Granted` would have, and retires the grant's three
//! outcomes. The holder's take sees the claim, and the release publishes a
//! plain `Release`. Three facts make the claim exact:
//!
//! * **The CAS lands on the hold that was read.** While the monitor holds
//!   the slot mutex the owner can still *end* the hold — the swap at the
//!   top of a nested `request`, say; its `release` waits for the mutex —
//!   but cannot *start* another: every path to a new grant passes
//!   `lock_current`, which takes that mutex (instrumentation-only grants
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
//! slot mutex holding no engine lock, as a rebuild's visit does, and no
//! hook holds a slot mutex while it waits on the monitor.
//!
//! # Fast-path gating: a grant resolves its stack once
//!
//! `request` resolves the call stack against its log's view exactly once
//! (`lock_current` → [`BucketLayout::slots_of`]): one borrowed look-up per
//! matching depth in use, into the only `(depth, suffix)` map there is. The
//! slots that come back answer everything the hooks ask about that stack
//! under that view:
//!
//! * **none** — the suffix hits no signature-member bucket. A request that
//!   is not yielding appends to its private `Allowed` log and remembers its
//!   grant: zero shared synchronization. This is sound because an `Allowed`
//!   entry whose own suffix matches no signature member can never
//!   participate in an exact cover (covers look entries up *by member
//!   suffix*), so omitting it from the shared buckets cannot change any
//!   decision. On an empty history the layout has no depth layer and
//!   nothing is hashed at all;
//! * **some** — they index the [`MatchIndex`]'s candidate sets (the sets
//!   live in an array by slot, not behind a second map), and they are the
//!   buckets the entry is inserted into on a GO.
//!
//! The held-stack entry keeps the slots. They index its log's own view: a
//! grant resolves them under that view in the critical section that pushes
//! the entry, and a view reaches a log only where every entry in it is
//! resolved again — the chunk install that makes the record, when the log
//! is empty, and the rebuild's visit, which rebuckets each entry and hands
//! over the view in one critical section. So `release`, `cancel` and the
//! exit sweep remove an entry by its remembered slots — no
//! `StackTable::resolve`, no hashing — and resolve again only for an entry
//! that hit more depth layers than it has room to remember
//! (`Resolved::is_complete`), by the computation the visit runs
//! ([`MatchView::slots_of`]).
//!
//! A request that hits a member bucket runs the **guard-free cover
//! precheck** first: a signature can only be instantiated if *every* member
//! bucket is non-empty, so one empty bucket among a candidate's other
//! members — one length load — refutes that candidate without reading
//! anything else. Candidates that survive get an **optimistic cover
//! search**: each member bucket is copied with a validated sequence
//! ([`VersionedBucket::read_into`]) and the exact cover is solved over
//! those snapshots; a yield then registers with each cause the cover names
//! (below). In the common case ("in most cases at least one of these sets
//! is empty", §5.4) the whole matching path is a read-only precheck plus
//! one single-bucket CAS-claimed insert of the requester's own entry.
//!
//! # Rebuild protocol: build, then visit
//!
//! When the history generation moves, a single rebuilder (the monitor, or
//! the first hook that notices — serialized by the rebuild mutex, which
//! also holds the published view) builds the next view, then locks each
//! thread record in turn, buckets that log's entries, records the slots
//! they have under the new view and hands the log that view, and finally
//! marks the table swept and publishes the view. There is one choice, made
//! while building the view:
//!
//! * **Extend** — when no generation since the old view's was structural,
//!   so everything in between was a pure signature *append*
//!   ([`History::appended_since`]).
//!   `BucketLayout` slot assignment is append-stable, so new
//!   `(depth, suffix)` keys take slots past the old length and surviving
//!   slots are never renumbered; the extended table **shares** every
//!   surviving [`VersionedBucket`] with the old one — nothing is cloned,
//!   live entries and their sequence words survive. Surviving buckets are
//!   complete as they stand, so the visit inserts only entries that land
//!   in a new slot.
//! * **Fresh** — for structural history changes (removal, disable, merge,
//!   a depth-recalibration touch) or the sentinel view: a new index,
//!   layout and empty table, and the visit inserts every relevant entry.
//!
//! Either way a view is stamped with the generation its contents were read
//! at, never an older one, so the next extension applies each append once.
//!
//! One happens-before argument covers both, and it is the slot-mutex
//! hand-off alone. Every hook reads its log's view and touches the log's
//! entries inside its slot's critical section, and the visit of that slot
//! is one critical section of the same mutex, which rebuckets the log and
//! replaces its view. A hook before the visit acts on the old view, a hook
//! after it on the new one. A grant before the visit is in the log when the
//! visit reads it; the visit buckets it wherever the new table lacks it (if
//! the grant also bucketed it under the old view, that was a surviving
//! bucket, which an extension shares and a fresh table replaces). A grant
//! after the visit buckets its own entry in the new table. Decisions and
//! direct bucket inserts wait for the swept flag, so they only ever run
//! against a complete table. Releases need no flag and never wait: a
//! release is one slot critical section — pop and bucket removal — so the
//! visit cannot interleave with it. Before the visit it removes the entry
//! by the old view's slots: a surviving bucket, which an extension shares,
//! empties in both tables, and the entry has left the log before the visit
//! could put it in a new slot or a fresh table. After the visit it removes
//! the entry by the slots the visit left in it. The old view's table
//! becomes garbage once the visit has handed every log the new view; after
//! an extension that frees only the view shell.
//!
//! The visit walks only the thread records that exist (a `ThreadSlot` per
//! thread: log and waiters, yield state and the parker it yields on). They
//! are made 64 at a time, and a registration that needs a new chunk
//! installs it under the rebuild mutex — the **chunk-install rule** —
//! setting each new record's view to the published one. So a visit either
//! sees the chunk and covers its threads as above, or ended before the
//! chunk exists, whose records then start on the view it published.
//!
//! What waits out a rebuild: the rebuilder; every grant (`request`,
//! `force_go`, `acquired_reentrant`) whose log still holds an old view — a
//! stale generation sends it to the rebuild mutex, which it gets once the
//! visit is over; and, after its visit, a grant on a *relevant* suffix
//! until the swept flag. `acquired`, `waiting`, releases, cancels and the
//! exit sweep never wait. The visit takes every record's slot mutex, so it
//! can itself wait on a thread descheduled mid-hook; under heavy
//! oversubscription that is the tail of `rebuild_us_*_max`.
//!
//! The engine-internal lock order is `rebuild mutex → slot (allowed-log)
//! mutex → bucket sequence claim` — three tiers, with no hashed or sharded
//! mutex beside them: rebuilds hold the rebuild mutex and take slot
//! mutexes one at a time, hooks bucket their own entries with the slot
//! mutex held, and a release claims its bucket with the slot mutex held. A
//! yielder takes each cause's slot mutex in turn holding no engine lock, as
//! the monitor's claim does. A bucket claim is only ever held singly, and
//! its holder takes no mutex, so the order is acyclic.
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
//!    entry for `L` with the stack the cover named, it drops the waiters
//!    their yielders retracted and pushes its own `Waiter`; otherwise the
//!    registration is refused;
//! 2. a cause's `release` or `cancel` pops its entry, removes it from its
//!    buckets and takes the live waiters for `L` in one critical section of
//!    the same mutex; the caller wakes them. The exit sweep takes every live
//!    waiter in the critical section that clears the entries.
//!
//! A registration made before the pop is taken by it; one made after it
//! finds the entry gone. A refused registration, or a history generation
//! that moved while the slot lock was dropped, retracts the yield
//! (`remove_yielding`), bumps `cover_retries` and decides again. A retry so
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
//!
//! # Exit and unwind cleanup
//!
//! A registered thread that dies — orderly return or panic — while holding
//! locks would otherwise strand its held-lock stack, its bucketed
//! `Allowed` entries, and (worst) the yielders parked against it as a
//! cause, forever. [`AvoidanceCore::unregister_thread_waking`] is the exit
//! sweep: in one critical section of its slot mutex it removes each entry
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

use crate::config::{Config, RuntimeMode, MAX_THREADS};
use crate::event::{Event, YieldInfo};
use crate::lanes::EventLanes;
use crate::runtime::Parker;
use crate::stats::Stats;
use dimmunix_lockfree::{SlotAllocator, VersionedBucket};
use dimmunix_rag::{LockId, ThreadId, YieldCause};
use dimmunix_signature::{
    BucketLayout, CoverKeys, FrameId, History, MatchIndex, MemberKey, Signature, StackId,
    StackTable,
};
use parking_lot::{Mutex, MutexGuard};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

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

/// An `Allowed` entry: thread `t` holds, or is allowed to wait for, lock `l`
/// having had call stack `stack`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct AllowedEntry {
    pub(crate) t: ThreadId,
    pub(crate) l: LockId,
    pub(crate) stack: StackId,
}

impl AllowedEntry {
    /// The three-word record stored in a [`VersionedBucket`].
    #[inline]
    fn encode(self) -> [u64; 3] {
        [self.t.0, self.l.0, u64::from(self.stack.0)]
    }

    #[inline]
    fn decode(rec: [u64; 3]) -> Self {
        Self {
            t: ThreadId(rec[0]),
            l: LockId(rec[1]),
            stack: StackId(rec[2] as u32),
        }
    }
}

/// The `Allowed` buckets of one history generation — a dense array of
/// [`VersionedBucket`]s, one per [`BucketLayout`] key. Owned by the
/// [`MatchView`] that published it; replaced wholesale on rebuild. No mutex
/// anywhere: readers are optimistic, writers claim one bucket's sequence
/// word with a CAS, and the precheck asks each bucket whether it is empty.
pub(crate) struct MatchTable {
    /// Per-slot buckets, individually `Arc`ed so an extended table can
    /// share the surviving buckets of its predecessor (live entries and
    /// sequence words included) while appending fresh ones.
    buckets: Box<[Arc<VersionedBucket<3>>]>,
    /// Set once the rebuild's visit has merged every per-thread log;
    /// covers and direct bucket inserts wait for it.
    swept: AtomicBool,
}

impl MatchTable {
    /// A fresh, unswept table: one empty bucket per layout key.
    fn new(buckets: usize) -> Self {
        Self {
            buckets: (0..buckets)
                .map(|_| Arc::new(VersionedBucket::new()))
                .collect(),
            swept: AtomicBool::new(false),
        }
    }

    /// A table for an extended layout: shares every surviving bucket with
    /// `base`; slots `[base.len, new_len)` get fresh empty buckets.
    /// Unswept, like a fresh one.
    fn extended(base: &Self, new_len: usize) -> Self {
        debug_assert!(new_len >= base.buckets.len());
        debug_assert!(base.swept.load(Ordering::Acquire));
        Self {
            buckets: (0..new_len)
                .map(|i| match base.buckets.get(i) {
                    Some(b) => Arc::clone(b),
                    None => Arc::new(VersionedBucket::new()),
                })
                .collect(),
            swept: AtomicBool::new(false),
        }
    }

    /// An empty, already-swept table (for the sentinel view).
    fn sentinel() -> Self {
        let table = Self::new(0);
        table.swept.store(true, Ordering::Release);
        table
    }

    /// Inserts `e` into bucket `slot`: one write session.
    fn insert(&self, slot: u32, e: AllowedEntry) {
        self.buckets[slot as usize].write().push(e.encode());
    }

    /// Removes `e` from bucket `slot`: one write session, tolerant of the
    /// entry being absent (it may never have been bucketed in *this* table).
    fn remove(&self, slot: u32, e: AllowedEntry) {
        self.buckets[slot as usize].write().remove(e.encode());
    }

    fn approx_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                core::mem::size_of::<VersionedBucket<3>>()
                    + b.approx_len() * 3 * core::mem::size_of::<u64>()
            })
            .sum()
    }
}

/// One member bucket's validated optimistic snapshot, taken by the cover
/// search: its decoded live entries, in canonical cover order.
struct BucketSnap {
    slot: u32,
    entries: Vec<AllowedEntry>,
}

/// The read-mostly snapshot `request` consults without any shared lock: the
/// generation's bucket layout, the candidate index over signature members,
/// and the current bucket table. Published under the rebuild mutex whenever
/// the history generation moves, and handed to each thread's log by the
/// rebuild's visit.
pub(crate) struct MatchView {
    /// History generation this view was built from (`u64::MAX` = never).
    generation: u64,
    /// Dense `(depth, suffix) → bucket slot` directory of this generation:
    /// the only map a hook hashes into.
    layout: Arc<BucketLayout>,
    /// Candidate sets by `layout` slot.
    index: Arc<MatchIndex>,
    /// The versioned buckets of this generation.
    table: Arc<MatchTable>,
}

impl MatchView {
    /// The view of no generation, empty and swept, that an engine publishes
    /// until its first rebuild. Nothing is ever bucketed in it, so one serves
    /// the whole process.
    fn sentinel() -> Arc<Self> {
        static SENTINEL: OnceLock<Arc<MatchView>> = OnceLock::new();
        let sentinel = SENTINEL.get_or_init(|| {
            let index = MatchIndex::build(&History::new(), &StackTable::new());
            Arc::new(MatchView {
                generation: u64::MAX,
                layout: Arc::clone(index.layout()),
                index: Arc::new(index),
                table: Arc::new(MatchTable::sentinel()),
            })
        });
        Arc::clone(sentinel)
    }

    /// The bucket slots an entry with these frames belongs to: one per
    /// depth layer whose suffix is a layout key (at the other depths the
    /// entry is invisible to covers), ascending by depth. None at all means
    /// the entry can stay in its thread's private log and skip the shared
    /// buckets entirely: covers look entries up *by member suffix*, so an
    /// entry whose suffix is no layout key is invisible to every possible
    /// cover.
    fn slots_of<'a>(&'a self, frames: &'a [FrameId]) -> impl Iterator<Item = u32> + 'a {
        self.layout.slots_of(frames)
    }

    /// Every slot `frames` resolved to: `resolved` itself, or — the stack
    /// hit more depth layers than that holds — all of them, looked up again.
    fn all_slots<'a>(&self, resolved: &'a Resolved, frames: &[FrameId]) -> Cow<'a, [u32]> {
        if resolved.is_complete() {
            Cow::Borrowed(resolved.as_slice())
        } else {
            Cow::Owned(self.slots_of(frames).collect())
        }
    }
}

/// How many bucket slots a resolution holds inline, and so how many a
/// held-stack entry remembers: one per depth layer its stack hits.
/// Signatures of one history rarely use more than a few distinct matching
/// depths (calibration moves each between 1 and its `max_depth`).
const REMEMBERED_SLOTS: usize = 4;

/// The bucket slots one call stack resolved to under one view, ascending by
/// depth: what relevance, the candidate sets, the bucket insert and the
/// later removal are all read from. Plain inline data with nothing to drop
/// — every request builds one, and one that could own a heap spill cost an
/// *irrelevant* request ≈ 3 ns — so past [`REMEMBERED_SLOTS`] it only
/// counts, and [`MatchView::all_slots`] looks the rest up again.
#[derive(Clone, Copy, Default)]
struct Resolved {
    /// How many slots the stack resolved to, kept or not (saturating).
    len: u8,
    /// The first [`REMEMBERED_SLOTS`] of them.
    slots: [u32; REMEMBERED_SLOTS],
}

impl Resolved {
    fn push(&mut self, slot: u32) {
        if let Some(room) = self.slots.get_mut(usize::from(self.len)) {
            *room = slot;
        }
        self.len = self.len.saturating_add(1);
    }

    /// Whether every slot the stack resolved to is in here.
    fn is_complete(&self) -> bool {
        usize::from(self.len) <= REMEMBERED_SLOTS
    }

    fn as_slice(&self) -> &[u32] {
        &self.slots[..usize::from(self.len).min(REMEMBERED_SLOTS)]
    }
}

/// One level of a thread's held-lock stack: the lock, the call stack it was
/// granted with, and where the entry is in the shared buckets.
#[derive(Clone, Copy)]
struct Held {
    l: LockId,
    stack: StackId,
    /// The bucket slots `stack` resolves to under its log's view: written by
    /// the grant and by every visit, each in the critical section that sets
    /// or keeps that view, so they are this entry's buckets in the view's
    /// table — all of them when [`Resolved::is_complete`], and otherwise the
    /// rest are resolved again.
    slots: Resolved,
}

/// A yielder's registration against one of a log's entries as its cause:
/// taken by the pop of an entry for `lock`, and live while `epoch` is still
/// the yielder's registration epoch (`ThreadSlot::wake_epoch`).
#[derive(Clone, Copy)]
struct Waiter {
    lock: LockId,
    yielder: ThreadId,
    epoch: u64,
}

/// A thread's private `Allowed` log — the master copy of its entries —, the
/// yielders registered against them and the match view its hooks act on.
struct AllowedLog {
    /// The thread's **held-lock stack**: one [`Held`] per granted request or
    /// reentrant nesting level, in grant order. A grant pushes; a release or
    /// a granted request's cancel removes the *last* entry for its lock
    /// (searched from the top, so LIFO unlocks cost one comparison and
    /// out-of-order unlocks stay correct). Capacity is retained, so a warm
    /// pair allocates nothing.
    entries: Vec<Held>,
    /// Yielders registered against this thread as a cause, pushed in this
    /// log's critical section only while an entry for their lock is in it,
    /// and taken by the pop of such an entry (module docs, "No-lost-wakeup
    /// protocol"). Retracted ones linger until the next registration or
    /// take; capacity is retained, so a warm hand-off allocates nothing.
    waiters: Vec<Waiter>,
    /// The view every entry's slots index. Set only where the entries are
    /// re-resolved: by the chunk install that made this record, and by each
    /// rebuild's visit of it (module docs, "Rebuild protocol").
    view: Arc<MatchView>,
}

impl AllowedLog {
    /// Removes and returns the innermost entry for `l` — its most recent
    /// nesting level.
    fn pop(&mut self, l: LockId) -> Option<Held> {
        let at = self.entries.iter().rposition(|held| held.l == l)?;
        Some(self.entries.remove(at))
    }

    /// Positions in `entries` in rebuild-sweep order: ascending lock id,
    /// nesting levels of one lock in grant order (a stable sort), so
    /// rebuilt bucket vectors do not depend on the order the thread took
    /// its locks in.
    fn sweep_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&at| self.entries[at].l);
        order
    }
}

/// Thread records per chunk: the first registration in a chunk makes all.
const CHUNK: usize = 64;

/// One registered thread's record: its `Allowed` log, yield state and
/// parker (the paper's `yieldLock[T]` data), made with its chunk and reused
/// by every later tenant of the id.
pub(crate) struct ThreadSlot {
    /// Where a yielding real thread parks (simulated ones park elsewhere).
    pub(crate) parker: Parker,
    pub(crate) yield_state: Mutex<YieldState>,
    /// Whether a yield is in force — and so whether `yield_state` holds
    /// anything worth clearing. Written only with `yield_state` locked and
    /// read under it, except by the GO path, which skips the mutex when it
    /// reads `false`: only the owner thread stores `true` (when recording
    /// a yield), so a stale `false` read is impossible there.
    yielding: AtomicBool,
    /// This thread's private `Allowed` log, the waiters registered against
    /// it and its match view. Locked by the owning thread on every hook, by
    /// every rebuild's visit and by each yielder registering against this
    /// thread; never contended in steady state.
    allowed: Mutex<AllowedLog>,
    /// This thread's registration epoch *as a yielder*: every [`Waiter`] it
    /// registers carries the current value, and bumping it retracts all of
    /// its outstanding registrations in O(1) (registrations and takes drop
    /// stale-epoch waiters). Monotonic across slot reuse. `Relaxed`
    /// throughout: it publishes no other data, and the cause's slot mutex
    /// orders each registration before any take of it.
    wake_epoch: AtomicU64,
    /// Latched when a hook observes this thread unwinding (a RAII guard
    /// releasing during a panic). `Registration`'s drop runs in TLS
    /// teardown — *after* the thread boundary caught the panic, when
    /// `std::thread::panicking()` is already false — so this latch is how
    /// the exit sweep still classifies the exit as a panic cleanup.
    panicked: AtomicBool,
    /// What was granted and not published yet, or is held quietly, with its
    /// lock and stack in `grant_lock` / `grant_stack` (module docs, "What
    /// the monitor is told" and "Quiet holds"); **0** when there is neither.
    /// A grant whose `Go` is unpublished counts its outcomes — 2 for a
    /// `request` and its GO, 1 for a GO alone — with [`GRANT_QUIET`] if it
    /// becomes a quiet hold when the lock is free. A quiet hold is [`HELD`],
    /// and `HELD | CLAIMED` once the monitor drew its hold edge.
    ///
    /// Written by the owner — a thread's hooks all run on that thread (or
    /// on whoever drives a simulated one), and a slot changes hands only
    /// through the slot allocator, after the exit sweep left this at 0 —
    /// except for the monitor's one claim CAS, `HELD → HELD | CLAIMED`,
    /// made under `allowed`'s mutex. So the owner enters `HELD` with a
    /// `Release` store and leaves it with a swap, or, holding that mutex
    /// (its `release`), with a load and a store; every other state is the
    /// owner's alone, and relaxed loads and stores do.
    grant: AtomicU8,
    grant_lock: AtomicU64,
    grant_stack: AtomicU32,
}

/// [`ThreadSlot::grant`] flag: the GO was granted to a thread holding
/// nothing with no yield in force, so its pair needs no event unless someone
/// waits for the lock.
const GRANT_QUIET: u8 = 4;
/// [`ThreadSlot::grant`] state: a quiet hold is in force.
const HELD: u8 = 8;
/// [`ThreadSlot::grant`] flag beside [`HELD`]: the monitor claimed the hold
/// and drew its edge.
const CLAIMED: u8 = 16;

impl ThreadSlot {
    /// A record whose log starts empty, on `view`.
    fn new(view: Arc<MatchView>) -> Self {
        Self {
            parker: Parker::default(),
            yield_state: Mutex::default(),
            yielding: AtomicBool::default(),
            allowed: Mutex::new(AllowedLog {
                entries: Vec::new(),
                waiters: Vec::new(),
                view,
            }),
            wake_epoch: AtomicU64::default(),
            panicked: AtomicBool::default(),
            grant: AtomicU8::default(),
            grant_lock: AtomicU64::default(),
            grant_stack: AtomicU32::default(),
        }
    }

    /// Remembers a GO instead of publishing it: `outcomes` is what the
    /// eventual event must account for (2 = the `request` and its GO, 1 =
    /// the GO alone), possibly with [`GRANT_QUIET`]. Every caller has taken
    /// whatever the grant word held before.
    fn defer_go(&self, l: LockId, stack: StackId, outcomes: u8) {
        debug_assert_eq!(self.grant.load(Ordering::Relaxed), 0);
        self.grant_lock.store(l.0, Ordering::Relaxed);
        self.grant_stack.store(stack.0, Ordering::Relaxed);
        self.grant.store(outcomes, Ordering::Relaxed);
    }

    /// Takes whatever the grant word holds — an unpublished grant or a quiet
    /// hold — with its lock and stack, and leaves it 0. A hold is taken with
    /// a swap: the monitor may set [`CLAIMED`] up to the instant it lands.
    fn take(&self) -> Option<(LockId, StackId, u8)> {
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
    fn take_locked(&self, _log: &AllowedLog) -> Option<(LockId, StackId, u8)> {
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
    fn hold_quietly(&self) {
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
        let _log = self.allowed.lock();
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

    /// Retracts this thread's yield registration: one epoch bump
    /// invalidates every outstanding [`Waiter`] (dropped lazily).
    /// No-op-safe when not yielding.
    pub(crate) fn remove_yielding(&self) {
        self.wake_epoch.fetch_add(1, Ordering::Relaxed);
    }

    fn clear_yield_state(&self) {
        if !self.yielding.load(Ordering::Relaxed) {
            return;
        }
        let mut ys = self.yield_state.lock();
        ys.causes.clear();
        ys.broken = false;
        self.yielding.store(false, Ordering::Relaxed);
    }
}

/// What a yielding thread is waiting out (whether it is yielding at all is
/// `ThreadSlot::yielding`, written under this state's mutex).
#[derive(Default)]
pub(crate) struct YieldState {
    /// Causes of the current yield (empty when not yielding, and for a
    /// yield on a single-member signature, which has no other member).
    pub(crate) causes: Vec<YieldCause>,
    /// Set by the monitor to break starvation: the thread must stop
    /// yielding and pursue its most recently requested lock (§3).
    pub(crate) broken: bool,
}

/// A matched signature instance, ready to be turned into a YIELD.
struct Instance {
    sig: Arc<Signature>,
    depth_used: u8,
    causes: Vec<YieldCause>,
    bindings: Vec<(StackId, StackId)>,
}

/// The avoidance engine. One per runtime.
pub struct AvoidanceCore {
    /// The thread records, [`CHUNK`] ids per entry, installed as a prefix
    /// (module docs) and kept until the engine drops.
    chunks: [OnceLock<Box<[ThreadSlot; CHUNK]>>; MAX_THREADS / CHUNK],
    slot_alloc: SlotAllocator,
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
            slot_alloc: SlotAllocator::new(MAX_THREADS),
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
    /// the installed chunks installs every chunk up to its own (module docs).
    pub fn register_thread(&self) -> Option<ThreadId> {
        let slot = self.slot_alloc.acquire()?;
        if self.chunks[slot / CHUNK].get().is_none() {
            let view = self.view.lock();
            for chunk in &self.chunks[..=slot / CHUNK] {
                chunk.get_or_init(|| {
                    // On the heap, not through ≈ 10 KB of the caller's stack.
                    let made: Box<[ThreadSlot]> = (0..CHUNK)
                        .map(|_| ThreadSlot::new(Arc::clone(&view)))
                        .collect();
                    made.try_into().unwrap_or_else(|_| unreachable!())
                });
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
        Some(&self.chunks.get(id / CHUNK)?.get()?[id % CHUNK])
    }

    /// The record of registered thread `t`: each hook looks it up once.
    #[inline]
    pub(crate) fn me(&self, t: ThreadId) -> &ThreadSlot {
        self.record(t).expect("a registered thread id")
    }

    /// Every record there is, with its id: what each per-thread sweep walks.
    pub(crate) fn records(&self) -> impl Iterator<Item = (ThreadId, &ThreadSlot)> {
        let made = self.chunks.iter().map_while(OnceLock::get);
        let ids = made.flat_map(|chunk| chunk.iter()).enumerate();
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

    /// Deregisters `t` with a waker: cleans its yield state, empties its
    /// held-lock stack (it may have panicked mid-critical-section) and
    /// drops those `Allowed` entries from the shared buckets, hands every
    /// live yielder parked on `t` as its cause to `wake` (counted in
    /// `orphan_wakes` — their release will never come),
    /// emits `ThreadExit`, and frees the slot. This is the unwind-safe exit
    /// path: a panicking registered thread reaches it via `Registration`'s
    /// `Drop`.
    pub fn unregister_thread_waking(&self, t: ThreadId, wake: &mut dyn FnMut(ThreadId)) {
        let me = self.me(t);
        me.clear_yield_state();
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            me.remove_yielding();
            // Drop the entries the thread never released (panic inside a
            // critical section) from the buckets, empty its stack and take
            // every live waiter, in one critical section: a yielder that
            // registers later finds no entry. The monitor's RAG drops the
            // hold edges via `ThreadExit`, so no per-lock Release events are
            // needed.
            let orphans = {
                let mut log = me.allowed.lock();
                for held in &log.entries {
                    self.remove_buckets(&log.view, t, held);
                }
                log.entries.clear();
                self.take_waiters(&mut log.waiters, |_| true)
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
        self.slot_alloc.release(t.0 as usize);
    }

    /// Interns a captured frame sequence.
    pub fn intern_stack(&self, frames: &[FrameId]) -> StackId {
        self.stacks.intern(frames)
    }

    /// Locks `slot`'s log and resolves `frames` — the grant's one look-up —
    /// into `resolved`, against a view a grant may act on: of the current
    /// history generation and, when `frames` hit a member bucket, fully
    /// swept. Until the log's view is that, drops the lock and rebuilds
    /// (stale, or not visited yet) or waits out the rebuilder (visit still
    /// in flight). The view is borrowed out of the returned log, not
    /// cloned. Inlined into its callers, and the resolution written where
    /// the caller reads it: returned by value it is copied through memory,
    /// padding and all, and re-read in pieces of other widths, which stalls
    /// on store forwarding (≈ 2 ns of an empty-history request, ≈ 8 ns of a
    /// relevant one).
    #[inline(always)]
    fn lock_current<'a>(
        &self,
        me: &'a ThreadSlot,
        frames: &[FrameId],
        resolved: &mut Resolved,
    ) -> MutexGuard<'a, AllowedLog> {
        loop {
            let log = me.allowed.lock();
            let view = &log.view;
            if view.generation != self.history.generation() {
                drop(log);
                self.refresh_published();
                continue;
            }
            *resolved = Resolved::default();
            view.slots_of(frames).for_each(|s| resolved.push(s));
            if resolved.len != 0 && !view.table.swept.load(Ordering::Acquire) {
                drop(log);
                drop(self.view.lock());
                continue;
            }
            return log;
        }
    }

    /// The `request` hook: decides GO or YIELD for thread `t` wanting lock
    /// `l` with call stack `frames`/`stack` (§5.4). A GO to a thread that
    /// holds nothing and has no yield in force is marked quiet, relevant
    /// stack or not (module docs, "Quiet holds").
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
        // A yield in force when the request began: its registration is still
        // live and the monitor still draws its edges, however many retries
        // below are refused (only this thread writes `yielding`).
        let yielding = me.yielding.load(Ordering::Relaxed);
        let mut quiet;
        let instance = loop {
            let mut resolved = Resolved::default();
            let log = self.lock_current(me, frames, &mut resolved);
            // A thread that holds nothing and has no yield edge to clear
            // gets a GO that may become a quiet hold, whichever branch below
            // grants it (module docs). Only this thread changes its log's
            // length, so every retry reads the same answer.
            quiet = log.entries.is_empty() && !yielding;
            if resolved.len == 0 {
                // Cover impossible: the suffix hits no member bucket, so the
                // decision is GO and the entry stays in the private log — no
                // shared state touched (beyond yield cleanup).
                Self::record_go(log, &[], yielding, me, t, l, stack);
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
                Self::record_go(log, slots, yielding, me, t, l, stack);
                break None;
            };
            if self.config.enforce_yields {
                // Register with each cause in its own log's critical
                // section, holding no engine lock: a cause that popped its
                // entry since the search refuses, and a pop after the
                // registration takes it (module docs' protocol). Either a
                // refusal or a moved generation means deciding again.
                let generation = view.generation;
                drop(log);
                if !self.register_yield(me, t, &inst.causes)
                    || generation != self.history.generation()
                {
                    Stats::count(&hot.cover_retries, 1);
                    me.remove_yielding();
                    continue;
                }
            } else {
                // Measurement mode: record the would-be yield but proceed
                // as GO.
                Self::record_go(log, slots, yielding, me, t, l, stack);
            }
            break Some(inst);
        };

        match instance {
            None => {
                me.clear_yield_state();
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
                    let mut ys = me.yield_state.lock();
                    ys.causes = inst.causes;
                    ys.broken = false;
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
            me.remove_yielding();
        }
        me.clear_yield_state();
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

    /// The monitor's claims: every quiet hold of one of `locks` whose
    /// thread's lane the caller has drained, with its thread, lock and
    /// stack (module docs, "Quiet holds"). Only the lanes' consumer may
    /// call this — the lane check is a consumer's read — and with no engine
    /// lock held: it takes each candidate's slot mutex.
    pub(crate) fn claim_quiet(&self, locks: &[LockId]) -> Vec<(ThreadId, LockId, StackId)> {
        let claim = |(t, me): (ThreadId, &ThreadSlot)| {
            let drained = || self.lanes.is_drained(t.0 as usize);
            let (l, stack) = me.claim_quiet(locks, drained)?;
            Some((t, l, stack))
        };
        self.records().filter_map(claim).collect()
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
    /// thread's quiet hold (module docs).
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

    /// GO bookkeeping shared by every granting path: appends the entry to
    /// the private log and to the member buckets `slots` — all that its
    /// stack resolved to under the log's view in this critical section,
    /// none for an irrelevant suffix — under the slot lock (see the rebuild
    /// protocol); then clears any yield registration.
    fn record_go(
        mut log: MutexGuard<'_, AllowedLog>,
        slots: &[u32],
        yielding: bool,
        me: &ThreadSlot,
        t: ThreadId,
        l: LockId,
        stack: StackId,
    ) {
        // Pushed whole and amended in place: an entry handed around by
        // value is written field by field and re-read in wider pieces,
        // which stalls on store forwarding — ≈ 10 ns of a 45 ns request.
        let AllowedLog { entries, view, .. } = &mut *log;
        entries.push(Held {
            l,
            stack,
            slots: Resolved::default(),
        });
        if !slots.is_empty() {
            let held = entries.last_mut().expect("pushed above");
            Self::bucket(view, slots, 0, t, held);
        }
        drop(log);
        if yielding {
            me.remove_yielding();
        }
    }

    /// Inserts `held` (an entry of `t`'s log) into the buckets `slots` — all
    /// that its stack resolved to under `view`, which the log holds or is
    /// about to — from `first_new` on: a grant passes 0, the visit of an
    /// extension the old layout's length. The entry leaves remembering all
    /// of them, if it has the room.
    fn bucket(view: &MatchView, slots: &[u32], first_new: u32, t: ThreadId, held: &mut Held) {
        let e = AllowedEntry {
            t,
            l: held.l,
            stack: held.stack,
        };
        for &s in slots.iter().filter(|&&s| s >= first_new) {
            view.table.insert(s, e);
        }
        // Written where it stays, like the entry itself (`record_go`).
        held.slots = Resolved::default();
        slots.iter().for_each(|&s| held.slots.push(s));
    }

    /// Records an `Allowed` entry outside a decision: log-only when the
    /// current view says the suffix hits no bucket, log + bucket insert
    /// otherwise.
    fn record_entry(
        &self,
        me: &ThreadSlot,
        t: ThreadId,
        l: LockId,
        frames: &[FrameId],
        stack: StackId,
    ) {
        let mut resolved = Resolved::default();
        let log = self.lock_current(me, frames, &mut resolved);
        let slots = log.view.all_slots(&resolved, frames);
        Self::record_go(log, &slots, false, me, t, l, stack);
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
        // entry, where the monitor cannot claim (module docs).
        let (taken, wake) = if self.config.mode == RuntimeMode::InstrumentationOnly {
            (me.take(), Vec::new())
        } else {
            let mut log = me.allowed.lock();
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
    /// After a YIELD (the thread is still yielding) it only retracts the
    /// yield: the request pushed no entry, and the innermost `(t, l)` entry
    /// is a hold of `l` the thread keeps.
    pub fn cancel(&self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        let me = self.me(t);
        let (grant, _) = self.take_grant(me, t, l);
        let mut wake = Vec::new();
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            if me.yielding.load(Ordering::Relaxed) {
                me.remove_yielding();
            } else {
                wake = self.pop_entry(&mut me.allowed.lock(), t, l);
            }
        }
        me.clear_yield_state();
        self.lanes.push(t.0 as usize, Event::Cancel { t, l, grant });
        wake
    }

    /// Pops the innermost `Allowed` entry for `(t, l)` from `log`, `t`'s
    /// log under the caller's guard, removes it from the buckets of the
    /// log's view by the slots it remembers and takes the live waiters for
    /// `l`, all in that one slot critical section: no rebuild's visit can
    /// fall between the pop and the removal, and no yielder can register
    /// between the pop and the take (module docs). Returns the yielders to
    /// wake. An entry with no buckets — an empty history, an irrelevant
    /// suffix — ends here, while it is still in registers (`remove_buckets`
    /// takes it through memory: ≈ 3 ns of the empty-history pair).
    fn pop_entry(&self, log: &mut AllowedLog, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        let Some(held) = log.pop(l) else {
            return Vec::new();
        };
        if held.slots.len != 0 {
            self.remove_buckets(&log.view, t, &held);
        }
        if log.waiters.is_empty() {
            return Vec::new();
        }
        Stats::count(&self.stats.hot(t.0 as usize).wake_drains, 1);
        self.take_waiters(&mut log.waiters, |w| w.lock == l)
    }

    /// Marks `t`'s current yield as broken (monitor starvation breaking).
    /// Returns whether the thread was indeed yielding.
    pub fn break_yield(&self, t: ThreadId) -> bool {
        let Some(me) = self.record(t) else {
            return false;
        };
        let mut ys = me.yield_state.lock();
        if !me.yielding.load(Ordering::Relaxed) {
            return false;
        }
        ys.broken = true;
        Stats::bump(&self.stats.yields_broken);
        true
    }

    /// Consumes `t`'s broken flag; a yielding thread calls this on wakeup to
    /// learn whether it must proceed without re-consulting the history.
    pub fn take_broken(&self, t: ThreadId) -> bool {
        let Some(me) = self.record(t) else {
            return false;
        };
        let mut ys = me.yield_state.lock();
        if ys.broken {
            ys.broken = false;
            ys.causes.clear();
            me.yielding.store(false, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Whether `t` currently has an unconsumed yield in force.
    pub fn is_yielding(&self, t: ThreadId) -> bool {
        self.record(t).is_some_and(|me| {
            let _ys = me.yield_state.lock();
            me.yielding.load(Ordering::Relaxed)
        })
    }

    /// Probe: the yield causes currently registered for `t` — the
    /// `(thread, lock)` releases that would wake it. Empty when `t` is not
    /// parked in a yield. Read-only; used by verification harnesses to
    /// build wait-for edges and audit parked/woken accounting.
    pub fn yield_causes(&self, t: ThreadId) -> Vec<YieldCause> {
        self.record(t)
            .map_or_else(Vec::new, |me| me.yield_state.lock().causes.clone())
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
            let ys = me.yield_state.lock();
            if me.yielding.load(Ordering::Relaxed) {
                parked.push((t, ys.causes.clone()));
            }
        }
        parked
    }

    /// Advances the match state to the current history generation, if it
    /// moved: builds the next view, visits every per-thread log with it,
    /// then publishes it (the module docs' rebuild protocol). The monitor
    /// calls this once per pass so steady-state requests never pay for a
    /// rebuild inline; a hook whose view is stale calls it too, to rebuild
    /// or to wait out the rebuilder. Callers must hold no other engine lock.
    pub(crate) fn refresh_published(&self) {
        let mut published = self.view.lock();
        if published.generation == self.history.generation() {
            // Current, or raced with another rebuilder, whose visit finished
            // before the mutex was handed over.
            return;
        }
        let start = std::time::Instant::now();
        // The only branch. An extension shares every surviving bucket with
        // the old table, complete as they stand, so the visit fills only
        // the slots past the old layout; a fresh table is filled whole.
        let (view, first_new, extended) = match self.extended_view(&published) {
            Some(view) => (view, published.layout.len() as u32, true),
            None => (self.fresh_view(), 0, false),
        };
        let view = Arc::new(view);
        self.visit_logs(&view, first_new);
        *published = view;
        Stats::bump(if extended {
            &self.stats.rebuilds_delta
        } else {
            &self.stats.rebuilds_full
        });
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.stats.record_rebuild_us(extended, us);
    }

    /// The visit of a rebuild (module docs): locks each thread record in
    /// turn, buckets its log's entries wherever `view`'s table lacks them —
    /// the slots from `first_new` on — and hands the log `view`, and marks
    /// the table swept. Every visited entry leaves remembering its slots
    /// under the view its log now holds. The caller holds the rebuild mutex.
    fn visit_logs(&self, view: &Arc<MatchView>, first_new: u32) {
        // Slot order, and lock-id order within a slot, so the bucket
        // vectors are deterministic (`AllowedLog::sweep_order`).
        for (t, me) in self.records() {
            let mut log = me.allowed.lock();
            for at in log.sweep_order() {
                let held = &mut log.entries[at];
                let frames = self.stacks.resolve(held.stack);
                let slots: Vec<u32> = view.slots_of(&frames).collect();
                Self::bucket(view, &slots, first_new, t, held);
            }
            // Also what lets the old view go: an idle thread keeps no
            // retired generation's table alive.
            log.view = Arc::clone(view);
        }
        view.table.swept.store(true, Ordering::Release);
    }

    /// `old` extended by the signatures appended since it was built: new
    /// `(depth, suffix)` keys take slots past the old layout's length, and
    /// the table shares every surviving bucket with `old`'s. `None` when
    /// only a fresh build will do: a structural change (removal, disable,
    /// depth touch) came after `old`, or `old` is the sentinel view
    /// ([`History::appended_since`] reports both alike).
    fn extended_view(&self, old: &MatchView) -> Option<MatchView> {
        // Stamped with the generation read together with the tail: an `add`
        // may bump the history while this runs, and a view holding a
        // signature under an older stamp would get it again from the next
        // rebuild's tail — the layout dedups keys, but the index would list
        // its candidates twice.
        let (gen, new_sigs) = self
            .history
            .appended_since(old.generation, old.index.signatures())?;
        let layout = Arc::new(BucketLayout::extended(&old.layout, &new_sigs, &self.stacks));
        let index = MatchIndex::extended(
            &old.index,
            gen,
            Arc::clone(&layout),
            &new_sigs,
            &self.stacks,
        );
        Some(MatchView {
            generation: gen,
            index: Arc::new(index),
            table: Arc::new(MatchTable::extended(&old.table, layout.len())),
            layout,
        })
    }

    /// A view built from scratch: index, layout and an empty table, stamped
    /// with the generation of the one history snapshot all of them were
    /// derived from (the stamp rule of `extended_view`).
    fn fresh_view(&self) -> MatchView {
        let index = MatchIndex::build(&self.history, &self.stacks);
        let layout = Arc::clone(index.layout());
        MatchView {
            generation: index.generation(),
            index: Arc::new(index),
            table: Arc::new(MatchTable::new(layout.len())),
            layout,
        }
    }

    /// The published match view.
    fn published(&self) -> Arc<MatchView> {
        Arc::clone(&self.view.lock())
    }

    /// Approximate heap footprint of the avoidance state, in bytes (§7.4).
    pub fn approx_bytes(&self) -> usize {
        let held = |(_, me): (ThreadId, &ThreadSlot)| me.allowed.lock().entries.len();
        let live: usize = self.records().map(held).sum();
        live * core::mem::size_of::<Held>()
            + self.published().table.approx_bytes()
            + self.records().count() * core::mem::size_of::<ThreadSlot>()
    }

    /// Removes `held` (an entry of `t`'s log, already popped or about to
    /// be cleared) from every bucket of `view`, its log's view, it is in:
    /// the slots it remembers, or — it hit more depth layers than it can
    /// remember — the slots its stack resolves to again. Tolerant of the
    /// entry being absent.
    fn remove_buckets(&self, view: &MatchView, t: ThreadId, held: &Held) {
        let e = AllowedEntry {
            t,
            l: held.l,
            stack: held.stack,
        };
        if held.slots.is_complete() {
            for &s in held.slots.as_slice() {
                view.table.remove(s, e);
            }
        } else {
            for s in view.slots_of(&self.stacks.resolve(held.stack)) {
                view.table.remove(s, e);
            }
        }
    }

    /// Registers `t` as yielding on `causes` (module docs, "No-lost-wakeup
    /// protocol"): bumps its registration epoch, which retracts any earlier
    /// registration, then, in each cause's log critical section in turn,
    /// drops the waiters their yielders retracted and pushes a [`Waiter`].
    /// Returns `false`, with the causes before it registered, when a cause's
    /// log no longer holds the entry the cover named. The caller holds no
    /// engine lock.
    fn register_yield(&self, me: &ThreadSlot, t: ThreadId, causes: &[YieldCause]) -> bool {
        let epoch = me.wake_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        causes.iter().all(|c| {
            let mut log = self.me(c.thread).allowed.lock();
            let named = |held: &Held| held.l == c.lock && held.stack == c.stack;
            if !log.entries.iter().any(named) {
                return false;
            }
            let waiters = &mut log.waiters;
            waiters.retain(|w| self.registered(w));
            Stats::bump(if waiters.len() < waiters.capacity() {
                &self.stats.wake_pool_hits
            } else {
                &self.stats.wake_pool_misses
            });
            waiters.push(Waiter {
                lock: c.lock,
                yielder: t,
                epoch,
            });
            true
        })
    }

    /// Whether `w`'s yielder has not retracted it. The slot mutex orders a
    /// registration before any take of it, so a take reads the epoch it was
    /// registered with or a later one, which only its yielder writes.
    fn registered(&self, w: &Waiter) -> bool {
        self.me(w.yielder).wake_epoch.load(Ordering::Relaxed) == w.epoch
    }

    /// Takes the waiters `pick` selects out of `waiters`, returning the
    /// yielders of those still registered, and drops every retracted one.
    fn take_waiters(
        &self,
        waiters: &mut Vec<Waiter>,
        pick: impl Fn(&Waiter) -> bool,
    ) -> Vec<ThreadId> {
        let mut wake = Vec::new();
        waiters.retain(|w| {
            let live = self.registered(w);
            if live && pick(w) {
                wake.push(w.yielder);
                return false;
            }
            live
        });
        wake
    }

    /// Precomputes member bucket keys for `sig` at depth `d`, resolved
    /// against `view`'s layout (used when the index's cached keys are stale:
    /// a live depth change racing a rebuild).
    fn member_keys_at(&self, view: &MatchView, sig: &Signature, d: u8) -> Vec<MemberKey> {
        let mut keys = CoverKeys::compute(sig, d, &self.stacks);
        keys.resolve(&view.layout);
        keys.members
    }

    /// The guard-free cover precheck: a signature can only be instantiated
    /// if every non-anchor member bucket is non-empty, so one empty bucket
    /// ([`VersionedBucket::is_empty`]) refutes the candidate without
    /// copying any. A member key outside the layout has no bucket at all —
    /// provably empty.
    fn cover_possible(view: &MatchView, keys: &[MemberKey], anchor: usize) -> bool {
        keys.iter().enumerate().all(|(i, mk)| {
            i == anchor
                || mk
                    .slot
                    .is_some_and(|s| !view.table.buckets[s as usize].is_empty())
        })
    }

    /// Searches the history for a signature that the tentative allow edge
    /// `(t, l, stack)` would instantiate (§5.4), over optimistic bucket
    /// snapshots. `slots` is what the requester's frames resolved to under
    /// `view`, ascending by depth — the index is entered by slot, no second
    /// look-up — so candidates are tried in the order [`crate::reference`]
    /// states.
    fn find_instance(
        &self,
        view: &MatchView,
        slots: &[u32],
        t: ThreadId,
        l: LockId,
        stack: StackId,
    ) -> Option<Instance> {
        let hot = self.stats.hot(t.0 as usize);
        let occupied = |s: &u32| !view.table.buckets[*s as usize].is_empty();
        let mut scratch: Vec<[u64; 3]> = Vec::new();
        let mut read = |s: u32| {
            view.table.buckets[s as usize].read_into(&mut scratch);
            Self::decode_sorted(&scratch)
        };
        // Batch the per-candidate precheck counter: a hot suffix can carry
        // dozens of candidates.
        let mut skips = 0_u64;
        let mut found = None;
        'sets: for set in slots.iter().map(|&s| view.index.set_at(s)) {
            // Whole-set fast reject: every candidate needs all of its
            // other-member buckets non-empty, and every candidate has at
            // least one, so if none of the set's other-member buckets is
            // occupied — one tight loop over its contiguous slot array —
            // every candidate is refuted at once. The hot suffix of a large
            // history takes this path on almost every request. No emptiness
            // argument applies to a single-member signature — its anchor
            // request instantiates it alone.
            if !set.has_lone_member() && !set.all_other_slots().iter().any(occupied) {
                skips += set.candidates().len() as u64;
                continue;
            }
            for (i, c) in set.candidates().iter().enumerate() {
                // Precheck over the set's flat other-member slots: one
                // bucket-length load per slot, no per-candidate pointer
                // chasing. A refuted candidate skips even the live depth
                // guard — a depth change always rides a generation bump
                // (monitor sets depth then touches), so a stale-keys
                // refutation is only reachable in the concurrent mid-bump
                // window the engine already tolerates.
                if !set.other_slots(i).iter().all(occupied) {
                    skips += 1;
                    continue;
                }
                let d = c.sig.depth();
                let fresh_keys;
                let member_keys: &[MemberKey] = if d == c.keys.depth {
                    &c.keys.members
                } else {
                    // Depth changed since the index was built (generation
                    // bump pending); recompute live like the reference.
                    fresh_keys = self.member_keys_at(view, &c.sig, d);
                    if !Self::cover_possible(view, &fresh_keys, c.member) {
                        skips += 1;
                        continue;
                    }
                    &fresh_keys
                };
                Stats::count(&hot.cover_searches, 1);
                found = Self::try_cover(&mut read, &c.sig, d, member_keys, c.member, t, l, stack);
                if found.is_some() {
                    break 'sets;
                }
            }
        }
        if skips > 0 {
            Stats::count(&hot.precheck_skips, skips);
        }
        found
    }

    /// Decodes a raw bucket snapshot into the **canonical cover order**:
    /// sorted by `(thread, lock, stack)`. Bucket *storage* order is not
    /// load-bearing (an extended table keeps surviving buckets' temporal
    /// order while a fresh one is filled in visit order); sorting every
    /// snapshot here — and the reference engine sorting the same way —
    /// keeps decision streams byte-identical either way.
    fn decode_sorted(raw: &[[u64; 3]]) -> Vec<AllowedEntry> {
        let mut entries: Vec<AllowedEntry> =
            raw.iter().copied().map(AllowedEntry::decode).collect();
        entries.sort_unstable_by_key(|e| e.encode());
        entries
    }

    /// Attempts to cover `sig`'s member stacks (anchoring the current thread
    /// at member `anchor`) with distinct `(thread, lock)` entries from the
    /// `Allowed` buckets — the "exact cover" of §3. `read` copies one
    /// bucket (slot → canonical snapshot); each distinct member bucket is
    /// read once and the search runs over those snapshots.
    #[allow(clippy::too_many_arguments)] // Packed cover-search inputs.
    fn try_cover(
        read: &mut dyn FnMut(u32) -> Vec<AllowedEntry>,
        sig: &Arc<Signature>,
        d: u8,
        keys: &[MemberKey],
        anchor: usize,
        t: ThreadId,
        l: LockId,
        stack: StackId,
    ) -> Option<Instance> {
        let members: Vec<usize> = (0..keys.len()).filter(|&i| i != anchor).collect();
        let mut snaps: Vec<BucketSnap> = Vec::with_capacity(members.len());
        for &i in &members {
            // `cover_possible` vouched for every member, but a raced depth
            // change can leave a key outside the layout: no bucket, no
            // cover.
            let slot = keys[i].slot?;
            if snaps.iter().any(|s| s.slot == slot) {
                continue; // members with identical keys share one snapshot
            }
            let entries = read(slot);
            if entries.is_empty() {
                return None; // a required member bucket is empty
            }
            snaps.push(BucketSnap { slot, entries });
        }
        let mut chosen: Vec<(ThreadId, LockId, StackId, StackId)> = Vec::new();
        if Self::cover_rec(&snaps, keys, &members, 0, t, l, &mut chosen) {
            let causes = chosen
                .iter()
                .map(|&(ct, cl, cs, _)| YieldCause {
                    thread: ct,
                    lock: cl,
                    stack: cs,
                })
                .collect();
            let mut bindings = vec![(stack, sig.stacks[anchor])];
            bindings.extend(chosen.iter().map(|&(_, _, cs, ms)| (cs, ms)));
            Some(Instance {
                sig: Arc::clone(sig),
                depth_used: d,
                causes,
                bindings,
            })
        } else {
            None
        }
    }

    #[allow(clippy::too_many_arguments)] // Recursive helper over packed search state.
    fn cover_rec(
        snaps: &[BucketSnap],
        keys: &[MemberKey],
        members: &[usize],
        i: usize,
        t: ThreadId,
        l: LockId,
        chosen: &mut Vec<(ThreadId, LockId, StackId, StackId)>,
    ) -> bool {
        if i == members.len() {
            return true;
        }
        let mk = &keys[members[i]];
        let candidates = match mk
            .slot
            .and_then(|slot| snaps.iter().find(|s| s.slot == slot))
        {
            Some(snap) => &snap.entries,
            None => return false,
        };
        for e in candidates {
            let distinct =
                e.t != t && e.l != l && chosen.iter().all(|&(ct, cl, _, _)| ct != e.t && cl != e.l);
            if !distinct {
                continue;
            }
            chosen.push((e.t, e.l, e.stack, mk.stack));
            if Self::cover_rec(snaps, keys, members, i + 1, t, l, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
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
            .field("threads", &self.slot_alloc.allocated())
            .field("history_len", &self.history.len())
            .finish()
    }
}

#[cfg(test)]
mod tests;
