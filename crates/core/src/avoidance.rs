//! The avoidance engine: `request` / `acquired` / `release` hooks and the
//! RAG cache (§5.4, §5.6).
//!
//! This is the code on the application's lock/unlock path. It maintains the
//! "simpler cache of parts of the RAG" the paper describes — who holds
//! which lock and the `Allowed` sets — with a **mutex-free signature-hit
//! path**: once a request's suffix hits a signature-member bucket,
//! everything it touches (occupancy fingerprints, the cover search, yield
//! registration, release-side wakeups) is atomics, not locks:
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
//!   removal claims only its own bucket's sequence word with one CAS. The
//!   table also publishes per-bucket **occupancy fingerprints**
//!   ([`OccupancyArray`], indexed by bucket slot, one per key —
//!   collision-free) whose zero reads prove a bucket empty without reading
//!   it;
//! * the **yielding bookkeeping** is lock-free: each thread slot owns a
//!   Treiber-style [`WakeList`] of registrations *against it as a cause*
//!   (`(cause lock, yielder, epoch)` nodes), plus an atomic registration
//!   epoch whose bump invalidates all of the slot's outstanding nodes as a
//!   yielder. Registration is one CAS per cause; a release's wakeup
//!   delivery is one swap-and-drain of its own list;
//! * the read-mostly **match view** (bucket layout, the [`MatchIndex`],
//!   and the current `MatchTable`) is published through an [`EpochCell`]
//!   so `request` revalidates it with a single atomic load;
//! * events flow to the monitor over per-thread SPSC lanes
//!   ([`crate::lanes::EventLanes`]) instead of the paper's one contended
//!   MPSC tail, and only the events the monitor's RAG needs: two per
//!   uncontended pair.
//!
//! # What the monitor is told: a GO is published only if the thread waits
//!
//! A `request` that ends in a GO publishes nothing. The grant is remembered
//! in the thread's slot (`ThreadSlot::grant`, owner-only state), and the
//! hook that learns how the attempt ended publishes it:
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
//! # Fast-path gating: a grant resolves its stack once
//!
//! `request` resolves the call stack against the current view exactly once
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
//! The held-stack entry keeps the slots, stamped with the epoch of the view
//! they were resolved under. `release`, `cancel` and the exit sweep compare
//! that stamp with the epoch of the view they are about to remove from and,
//! when equal, remove by the remembered slots — no `StackTable::resolve`,
//! no hashing. Equality is sufficient because a log's `view_epoch` is the
//! exact publication epoch of its cached view
//! ([`EpochCell::load_with_epoch`]): the same epoch means the same view
//! object, hence the same layout and slot numbering and the same table. A
//! different stamp proves nothing — a fresh table renumbers every slot — so
//! the slots are resolved again, by the computation the rebuild's visit
//! runs ([`MatchView::slots_of`]). That happens for a release that falls
//! between a publish and the visit of its slot (the visit restamps every
//! entry it visits), and for an entry that hit more depth layers than it
//! has room to remember, which is stamped with an epoch no view is ever
//! published at.
//!
//! A request that hits a member bucket runs the **guard-free cover
//! precheck** first: a signature can only be instantiated if *every* member
//! bucket is non-empty, so one zero occupancy fingerprint among a
//! candidate's other members refutes that candidate without reading
//! anything else. Candidates that survive get an **optimistic cover
//! search**: each member bucket is copied with a validated sequence
//! ([`VersionedBucket::read_into`]), the exact cover is solved over those
//! snapshots, and the `(bucket, sequence)` pairs become the cover's
//! *proof*, revalidated after the yield is registered (below). In the
//! common case ("in most cases at least one of these sets is empty", §5.4)
//! the whole matching path is a read-only precheck plus one single-bucket
//! CAS-claimed insert of the requester's own entry.
//!
//! # Rebuild protocol: publish, then visit
//!
//! When the history generation moves, a single rebuilder (the monitor, or
//! the first hook that notices — serialized by the rebuild mutex) builds the
//! next view, publishes it, then locks each thread slot in turn, buckets
//! that log's entries and restamps them with the slots they have under the
//! new view, and finally marks the table swept. There is one choice, made
//! while building the view:
//!
//! * **Extend** — when the history's journal proves every intervening
//!   generation was a pure signature *append* ([`History::delta_between`])
//!   and the grown layout still fits the inherited fingerprint array.
//!   `BucketLayout` slot assignment is append-stable, so new
//!   `(depth, suffix)` keys take slots past the old length and surviving
//!   slots are never renumbered; the extended table **shares** every
//!   surviving [`VersionedBucket`] and the fingerprint array with the old
//!   one — nothing is cloned, live entries and their sequence words
//!   survive. Surviving buckets are complete as they stand, so the visit
//!   inserts only entries that land in a new slot.
//! * **Fresh** — for structural history changes (removal, disable, merge,
//!   a depth-recalibration touch), a truncated journal, or layout growth
//!   past the fingerprint array (which re-sizes it — amortized doubling):
//!   a new index, layout and empty table, and the visit inserts every
//!   relevant entry.
//!
//! Either way a view is stamped with the generation its contents were read
//! at, never an older one, so the next extension applies each append once.
//!
//! One happens-before argument covers both, and it is the slot-mutex
//! hand-off alone. Every hook reads the view epoch and touches its log
//! inside its slot's critical section, and the visit of that slot is a
//! critical section of the same mutex, entered after the publish. A grant
//! whose critical section comes *before* the visit is in the log when the
//! visit reads it; the visit buckets it wherever the new table lacks it
//! (if the grant also bucketed it under the old view, that was a surviving
//! bucket, which an extension shares and a fresh table replaces). A grant
//! whose critical section comes *after* the visit observes the published
//! view — the hand-off orders the publish before its epoch load — and
//! buckets its own entry in the new table. Decisions and direct bucket
//! inserts wait for the swept flag, so they only ever run against a
//! complete table. Releases need no flag: a release is one slot critical
//! section — pop, view look-up and bucket removal — so the visit cannot
//! interleave with it. It runs before the visit and the entry is gone from
//! the log and from whichever table the release's view named (a shared
//! surviving bucket, or a table about to lose its last reader), or after
//! it and removes the entry from where the visit put it: the slots the
//! visit left in the entry, stamped with that view's epoch. The old view's
//! table becomes garbage once the last reader drops its cached view; after
//! an extension that frees only the view shell.
//!
//! What waits out a rebuild: the rebuilder, hooks that saw the stale
//! generation before the publish (they queue on the rebuild mutex), and
//! requests on a *relevant* suffix until the swept flag. Requests on
//! irrelevant suffixes, `acquired` and releases do not wait. The visit
//! takes every slot mutex, so it can itself wait on a slot whose owner was
//! descheduled mid-hook; under heavy oversubscription that is the tail of
//! `rebuild_us_*_max`.
//!
//! The engine-internal lock order is `rebuild mutex → slot (allowed-log)
//! mutex → bucket sequence claim` — three tiers, with no hashed or sharded
//! mutex beside them: rebuilds hold the rebuild mutex and take slot
//! mutexes one at a time, hooks bucket their own entries with the slot
//! mutex held, a release claims its bucket with the slot mutex held, and
//! the bounded-retry cover fallback (below) claims every bucket in
//! ascending slot order while holding its own slot mutex. No holder of a
//! bucket claim ever takes a mutex of an earlier tier, and bucket claims
//! are only held in ascending order or singly, so the order is acyclic.
//!
//! # No-lost-wakeup protocol (lock-free)
//!
//! The yield path holds no lock a releasing cause would need, so nothing
//! stops a cause from releasing while a yielder registers against it; that
//! the wakeup is not lost is guaranteed by ordering:
//!
//! 1. the requester snapshots the member buckets (validated sequences),
//!    finds a cover, **publishes its wake registrations** (SeqCst CAS
//!    pushes into the cause threads' [`WakeList`]s), and only then
//!    **revalidates** the history generation and every snapshot sequence;
//! 2. a releasing thread **removes its entry first** (a SeqCst write
//!    session that bumps the bucket's sequence) and **drains its wake list
//!    second** (a SeqCst swap).
//!
//! In the single total order of those SeqCst operations, either the
//! requester's revalidation observes the removal (sequence or generation
//! moved → it retracts the registration, bumps `cover_retries`, and
//! re-decides — "retry on churn" instead of blocking), or the release's
//! drain observes the registration and delivers the wakeup. A release that
//! consulted a *newer* table bumps no old-table sequence, but the history
//! generation it must have observed was bumped (SeqCst) before that table
//! existed, so the requester's generation re-check catches that boundary.
//! The real-thread parked-yield canaries hang on any lost wakeup. Under
//! concurrency, two requests may still decide against covers that each
//! other's in-flight entries would have completed — the same
//! monitor-detectable window the paper already tolerates for yield cycles
//! (§3); the differential proptest pins the sequential semantics to
//! [`crate::reference::ReferenceCore`] exactly. Because an extended
//! table keeps surviving buckets' temporal entry order while a fresh one is
//! filled in visit order, bucket storage order is deliberately *not*
//! load-bearing: every cover search canonically sorts its snapshots by
//! `(thread, lock, stack)` before solving, the reference engine sorts the
//! same way, and lockstep decision streams stay byte-identical. After a
//! validation-failure budget (`COVER_RETRY_LIMIT`) the retry
//! loop falls back to deciding while *holding* every bucket's write claim
//! (ascending slot order) — the decision cannot be invalidated, the yield
//! is registered before the claims drop (so a racing release's removal,
//! which must claim the bucket, is ordered after the registration and its
//! drain observes it), and the path becomes effectively wait-free under
//! adversarial churn.
//!
//! # Exit and unwind cleanup
//!
//! A registered thread that dies — orderly return or panic — while holding
//! locks would otherwise strand its held-lock stack, its bucketed
//! `Allowed` entries, and (worst) the yielders parked against it as a
//! cause, forever. [`AvoidanceCore::unregister_thread_waking`] is the exit
//! sweep: it walks the dead thread's stack, removes each entry from its
//! buckets and empties the stack (which keeps its capacity for the slot's
//! next tenant), clears the yield state, and *then* drains its wake list
//! through the caller's waker — removals strictly before wakes, so a woken
//! yielder's retried request can never re-yield on the dead thread's
//! entries (each delivered wake counts `orphan_wakes`). The runtime runs
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

use crate::config::{Config, RuntimeMode};
use crate::event::{Event, YieldInfo};
use crate::lanes::EventLanes;
use crate::stats::Stats;
use dimmunix_lockfree::{
    DrainVerdict, EpochCell, OccupancyArray, SlotAllocator, VersionedBucket, WakeList, WakeNodePool,
};
use dimmunix_rag::{LockId, ThreadId, YieldCause};
use dimmunix_signature::{
    BucketLayout, CoverKeys, FrameId, History, HistoryDelta, MatchIndex, MemberKey, Signature,
    StackId, StackTable,
};
use parking_lot::{Mutex, MutexGuard};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

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
/// [`VersionedBucket`]s, one per [`BucketLayout`] key — plus their
/// occupancy fingerprints. Owned by the [`MatchView`] that published it;
/// replaced wholesale on rebuild. No mutex anywhere: readers are
/// optimistic, writers claim one bucket's sequence word with a CAS.
pub(crate) struct MatchTable {
    /// Per-slot buckets, individually `Arc`ed so an extended table can
    /// share the surviving buckets of its predecessor (live entries and
    /// sequence words included) while appending fresh ones.
    buckets: Box<[Arc<VersionedBucket<3>>]>,
    /// Per-bucket-slot occupancy fingerprints (see module docs): a slot
    /// counts the *non-empty buckets* mapping to it, maintained inside the
    /// bucket write sessions (bump before the first entry becomes visible,
    /// drop only after the last is removed), so a zero read always proves
    /// emptiness. One slot per bucket and room to grow — collision-free.
    /// Shared (`Arc`) with extended successors: the surviving buckets'
    /// counts must carry over, or a fresh array would manufacture false
    /// empty-proofs.
    occupancy: Arc<OccupancyArray>,
    /// Set once the rebuild's visit has merged every per-thread log;
    /// covers and direct bucket inserts wait for it.
    swept: AtomicBool,
}

impl MatchTable {
    /// A fresh, unswept table. One fingerprint per bucket keeps the
    /// precheck exact; doubling past that is the headroom that lets later
    /// appends extend this table instead of replacing it (4 bytes a slot).
    fn new(buckets: usize) -> Self {
        Self {
            buckets: (0..buckets)
                .map(|_| Arc::new(VersionedBucket::new()))
                .collect(),
            occupancy: Arc::new(OccupancyArray::new(
                (buckets.max(1) * 2).next_power_of_two(),
            )),
            swept: AtomicBool::new(false),
        }
    }

    /// A table for an extended layout: shares every surviving bucket and
    /// the occupancy fingerprints with `base`; slots `[base.len, new_len)` get fresh empty buckets. The caller
    /// guarantees `new_len <= base.occupancy.len()`, which keeps the
    /// shared fingerprints collision-free (slots index them identically in
    /// both tables). Unswept, like a fresh one.
    fn extended(base: &Self, new_len: usize) -> Self {
        debug_assert!(new_len >= base.buckets.len());
        debug_assert!(new_len <= base.occupancy.len());
        debug_assert!(base.swept.load(Ordering::Acquire));
        Self {
            buckets: (0..new_len)
                .map(|i| match base.buckets.get(i) {
                    Some(b) => Arc::clone(b),
                    None => Arc::new(VersionedBucket::new()),
                })
                .collect(),
            occupancy: Arc::clone(&base.occupancy),
            swept: AtomicBool::new(false),
        }
    }

    /// An empty, already-swept table (for the sentinel view).
    fn sentinel() -> Self {
        let table = Self::new(0);
        table.swept.store(true, Ordering::Release);
        table
    }

    /// Inserts `e` into bucket `slot`. The occupancy fingerprint tracks
    /// *non-empty buckets*, not entries, so it is only bumped on the
    /// empty→non-empty transition — inside the write session, before the
    /// entry becomes visible (the `len` store), so a concurrent zero read
    /// never misses a live entry. Steady-state traffic on an already
    /// populated bucket touches no fingerprint cache line at all.
    fn insert(&self, slot: u32, e: AllowedEntry) {
        let mut w = self.buckets[slot as usize].write();
        if w.is_empty() {
            self.occupancy.increment(u64::from(slot));
        }
        w.push(e.encode());
    }

    /// Removes `e` from bucket `slot`; tolerant of the entry being absent
    /// (it may never have been bucketed in *this* table). The fingerprint
    /// is only decremented when an actual removal empties the bucket.
    fn remove(&self, slot: u32, e: AllowedEntry) {
        let mut w = self.buckets[slot as usize].write();
        if w.remove(e.encode()) && w.is_empty() {
            self.occupancy.decrement(u64::from(slot));
        }
    }

    fn approx_bytes(&self) -> usize {
        self.occupancy.len() * core::mem::size_of::<u32>()
            + self
                .buckets
                .iter()
                .map(|b| {
                    core::mem::size_of::<VersionedBucket<3>>()
                        + b.approx_len() * 3 * core::mem::size_of::<u64>()
                })
                .sum::<usize>()
    }
}

/// One member bucket's validated optimistic snapshot, taken by the cover
/// search: the decoded live entries (in `Vec` order) and the sequence word
/// they were validated against.
struct BucketSnap {
    slot: u32,
    seq: u64,
    entries: Vec<AllowedEntry>,
}

/// A successful cover's revalidation set: the `(bucket, sequence)` pairs
/// its decision was computed from. After registering the yield, the
/// requester re-checks these — any movement means a cause entry may have
/// been released (and its wake drained) concurrently, so the decision is
/// retried instead of parking on a possibly-dead registration.
struct CoverProof(Vec<(u32, u64)>);

impl CoverProof {
    fn still_valid(&self, view: &MatchView) -> bool {
        self.0
            .iter()
            .all(|&(slot, seq)| view.table.buckets[slot as usize].seq() == seq)
    }
}

/// The read-mostly snapshot `request` consults without any lock: the
/// generation's bucket layout, the candidate index over signature members,
/// and the current bucket table. Published via [`EpochCell`] whenever the
/// history generation moves.
pub(crate) struct MatchView {
    /// History generation this view was built from (`u64::MAX` = never).
    generation: u64,
    /// Dense `(depth, suffix) → bucket slot` directory of this generation:
    /// the only map a hook hashes into.
    layout: Arc<BucketLayout>,
    /// Candidate sets by `layout` slot.
    index: Arc<MatchIndex>,
    /// The versioned buckets + occupancy fingerprints of this generation.
    table: Arc<MatchTable>,
}

impl MatchView {
    fn sentinel() -> Self {
        let index = MatchIndex::build(&History::new(), &StackTable::new());
        Self {
            generation: u64::MAX,
            layout: Arc::clone(index.layout()),
            index: Arc::new(index),
            table: Arc::new(MatchTable::sentinel()),
        }
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
/// granted with, and where that grant put the entry in the shared buckets.
#[derive(Clone, Copy)]
struct Held {
    l: LockId,
    stack: StackId,
    /// The bucket slots `stack` resolved to when `stamp` was written.
    slots: Resolved,
    /// The view epoch `slots` were resolved under, or [`Held::ASK_THE_VIEW`].
    /// A log's `view_epoch` is the exact publication epoch of its cached
    /// view ([`EpochCell::load_with_epoch`]), so `stamp == view_epoch`
    /// means that very view — the same layout, hence the same numbering,
    /// and the same table — and `slots` are this entry's buckets in it, all
    /// of them. Any other stamp says nothing (an older view's numbering may
    /// have been replaced wholesale), and the slots are resolved again.
    stamp: u64,
}

impl Held {
    /// The stamp of an entry whose resolution was not complete. No view is
    /// ever published at this epoch, so it takes the stale-stamp path.
    const ASK_THE_VIEW: u64 = u64::MAX;
}

/// A thread's private `Allowed` log — the master copy of its entries — plus
/// its cached match view.
struct AllowedLog {
    /// The thread's **held-lock stack**: one [`Held`] per granted request or
    /// reentrant nesting level, in grant order. A grant pushes; a release or
    /// cancel removes the *last* entry for its lock (searched from the top,
    /// so LIFO unlocks cost one comparison and out-of-order unlocks stay
    /// correct). Capacity is retained, so a warm pair allocates nothing.
    entries: Vec<Held>,
    /// Epoch `view` was published at (`u64::MAX` while there is none).
    view_epoch: u64,
    /// Cached published view (`None` until first use).
    view: Option<Arc<MatchView>>,
}

impl Default for AllowedLog {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            view_epoch: u64::MAX,
            view: None,
        }
    }
}

impl AllowedLog {
    /// The cached view, which [`AvoidanceCore::refresh_view`] made current
    /// earlier in this slot critical section.
    fn view(&self) -> &Arc<MatchView> {
        self.view.as_ref().expect("view cache populated")
    }

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

/// Per-registered-thread yield state (the paper's `yieldLock[T]` data,
/// minus the parking primitive, which lives in the runtime layer so that
/// simulated threads can use their own).
#[derive(Default)]
pub(crate) struct ThreadSlot {
    pub(crate) yield_state: Mutex<YieldState>,
    /// Cheap mirror of "`yield_state` holds anything worth clearing", so
    /// the GO path skips the mutex when the state is already clean. Only
    /// the owner thread stores `true` (when recording a yield), so a stale
    /// `false` read is impossible.
    yield_set: AtomicBool,
    /// This thread's private `Allowed` log and view cache. Locked by the
    /// owning thread on every hook and by every rebuild's visit; never
    /// contended in steady state.
    allowed: Mutex<AllowedLog>,
    /// Wake registrations *against this thread as a cause*: `(cause lock,
    /// yielder, yielder epoch)` nodes pushed lock-free by yielding
    /// threads. Only this thread drains it (its own `release` /
    /// `unregister` — the single-drainer contract of [`WakeList`], which
    /// holds structurally because a cause is always `(entry owner, lock)`
    /// and only the owner releases its locks).
    wake_list: WakeList,
    /// This thread's registration epoch *as a yielder*: every node it
    /// pushes carries the current value, and bumping it retracts all of
    /// its outstanding registrations in O(1) (drainers discard
    /// stale-epoch nodes). Monotonic across slot reuse.
    wake_epoch: AtomicU64,
    /// Free [`WakeList`] nodes recycled by this thread. The pool's
    /// single-popper contract maps onto the engine's structure: only the
    /// owner thread pops (its own yield registrations recycle from here),
    /// while whichever cause thread drains one of this thread's nodes
    /// pushes it back **here** — the node's payload names the yielder — so
    /// a thread that only ever yields finds its nodes again. Steady-state
    /// yield/wake churn thus allocates nothing.
    wake_pool: WakeNodePool,
    /// Mirror of "this thread is registered as yielding", read by the
    /// owner thread to decide whether a GO must retract a registration.
    in_yielding: AtomicBool,
    /// Latched when a hook observes this thread unwinding (a RAII guard
    /// releasing during a panic). `Registration`'s drop runs in TLS
    /// teardown — *after* the thread boundary caught the panic, when
    /// `std::thread::panicking()` is already false — so this latch is how
    /// the exit sweep still classifies the exit as a panic cleanup.
    panicked: AtomicBool,
    /// The grant whose `Go` is not published yet (module docs, "What the
    /// monitor is told"): its counted outcomes — 2 for a `request` and its
    /// GO, 1 for a GO alone, **0 when none is pending** — with what was
    /// granted in `grant_lock` / `grant_stack`. Owner-only: a thread's
    /// hooks all run on that thread (or on whoever drives a simulated
    /// one), and a slot changes hands only through the slot allocator,
    /// after the exit sweep left `grant` at 0 — so relaxed loads and stores
    /// do.
    grant: AtomicU8,
    grant_lock: AtomicU64,
    grant_stack: AtomicU32,
}

/// What a yielding thread is waiting out.
#[derive(Default)]
pub(crate) struct YieldState {
    /// Causes of the current yield (empty when not yielding, and for a
    /// yield on a single-member signature, which has no other member).
    pub(crate) causes: Vec<YieldCause>,
    /// Whether a yield is in force.
    pub(crate) yielding: bool,
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
    slots: Box<[ThreadSlot]>,
    slot_alloc: SlotAllocator,
    /// Published match view; `request` revalidates its per-slot cache with
    /// one epoch load.
    view_cell: EpochCell<MatchView>,
    /// Serializes match-state rebuilds (view build, publication, and the
    /// per-slot visit). Hooks never hold any other engine lock
    /// while taking it.
    rebuild_lock: Mutex<()>,
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
        let n = config.max_threads;
        Self {
            slots: (0..n).map(|_| ThreadSlot::default()).collect(),
            slot_alloc: SlotAllocator::new(n),
            view_cell: EpochCell::new(Arc::new(MatchView::sentinel())),
            rebuild_lock: Mutex::new(()),
            history,
            stacks,
            lanes,
            stats,
            config,
        }
    }

    /// The configured runtime mode.
    pub fn mode(&self) -> RuntimeMode {
        self.config.mode
    }

    /// Registers the calling (real or simulated) thread, returning its dense
    /// id, or `None` when `max_threads` are already registered. Also
    /// allocates the thread's event lane.
    pub fn register_thread(&self) -> Option<ThreadId> {
        let slot = self.slot_alloc.acquire()?;
        self.slots[slot]
            .panicked
            .store(false, std::sync::atomic::Ordering::Relaxed);
        self.lanes.register(slot);
        Some(ThreadId(slot as u64))
    }

    /// Whether a hook has observed `t` unwinding (see `ThreadSlot::panicked`).
    pub(crate) fn thread_panicked(&self, t: ThreadId) -> bool {
        self.slots[t.0 as usize]
            .panicked
            .load(std::sync::atomic::Ordering::Relaxed)
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
        let slot = t.0 as usize;
        {
            let mut ys = self.slots[slot].yield_state.lock();
            *ys = YieldState::default();
        }
        self.slots[slot].yield_set.store(false, Ordering::Relaxed);
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            self.remove_yielding(t);
            // Drop the entries the thread never released (panic inside a
            // critical section) from the buckets, then empty its stack. The
            // monitor's RAG drops the hold edges via `ThreadExit`, so no
            // per-lock Release events are needed.
            {
                let mut log = self.slots[slot].allowed.lock();
                self.refresh_view(&mut log);
                for held in &log.entries {
                    self.remove_buckets(log.view(), log.view_epoch, t, held);
                }
                log.entries.clear();
            }
            // Drain every wake registration parked against this thread.
            // Live yielders among them are woken through the caller's
            // handle: their cause is exiting, so the release they are
            // waiting out will never happen. The bucket removals above
            // precede this drain, so a woken yielder's re-request cannot
            // find the dead thread's entries and re-yield on them.
            self.slots[slot].wake_list.drain_to_pools(
                |yielder| &self.slots[yielder as usize].wake_pool,
                |_, yielder, epoch| {
                    let y = yielder as usize;
                    if self.slots[y].wake_epoch.load(Ordering::Acquire) == epoch {
                        Stats::bump(&self.stats.orphan_wakes);
                        wake(ThreadId(yielder));
                    }
                    DrainVerdict::Consume
                },
            );
        }
        // A grant the thread never got to act on (it died between `request`
        // and `acquired`) still counts as a GO.
        self.publish_grant(slot, t);
        self.lanes.push(slot, Event::ThreadExit { t });
        self.slot_alloc.release(slot);
    }

    /// Interns a captured frame sequence.
    pub fn intern_stack(&self, frames: &[FrameId]) -> StackId {
        self.stacks.intern(frames)
    }

    /// Refreshes this slot's cached view (and the epoch it was published
    /// at) from the cell if the publication epoch moved. Must be called
    /// with the slot lock held — the rebuild protocol relies on the epoch
    /// being re-read inside the slot critical section.
    fn refresh_view(&self, log: &mut AllowedLog) {
        if log.view.is_none() || log.view_epoch != self.view_cell.epoch() {
            // The exact pair: held-stack entries are stamped with
            // `view_epoch` to mean "resolved under `view`" (`Held::stamp`).
            let (epoch, view) = self.view_cell.load_with_epoch();
            log.view = Some(view);
            log.view_epoch = epoch;
        }
    }

    /// Locks `slot`'s log and resolves `frames` — the grant's one look-up —
    /// into `resolved`, against a view a grant may act on: of the current
    /// history generation and, when `frames` hit a member bucket, fully
    /// swept. Until the cached view is that, drops the lock and rebuilds
    /// (stale) or waits out the rebuilder (visit still in flight). The view
    /// is borrowed out of the returned log ([`AllowedLog::view`]), not
    /// cloned. Inlined into its callers, and the resolution written where
    /// the caller reads it: returned by value it is copied through memory,
    /// padding and all, and re-read in pieces of other widths, which stalls
    /// on store forwarding (≈ 2 ns of an empty-history request, ≈ 8 ns of a
    /// relevant one).
    #[inline(always)]
    fn lock_current(
        &self,
        slot: usize,
        frames: &[FrameId],
        resolved: &mut Resolved,
    ) -> MutexGuard<'_, AllowedLog> {
        loop {
            let mut log = self.slots[slot].allowed.lock();
            self.refresh_view(&mut log);
            let view = log.view();
            if view.generation != self.history.generation() {
                drop(log);
                self.rebuild();
                continue;
            }
            *resolved = Resolved::default();
            view.slots_of(frames).for_each(|s| resolved.push(s));
            if resolved.len != 0 && !view.table.swept.load(Ordering::Acquire) {
                drop(log);
                drop(self.rebuild_lock.lock());
                continue;
            }
            return log;
        }
    }

    /// The `request` hook: decides GO or YIELD for thread `t` wanting lock
    /// `l` with call stack `frames`/`stack` (§5.4).
    pub fn request(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) -> Decision {
        let slot = t.0 as usize;
        Stats::bump(&self.stats.hot(slot).requests);
        self.publish_grant(slot, t);

        if self.config.mode == RuntimeMode::InstrumentationOnly {
            Stats::bump(&self.stats.hot(slot).gos);
            self.defer_go(slot, l, stack, 2);
            return Decision::Go;
        }

        /// Bounded-retry budget of the optimistic cover decision: after
        /// this many consecutive post-registration revalidation failures
        /// on one `request` (a member bucket's version kept moving between
        /// the optimistic read and the yield registration — adversarial
        /// churn) the decision is made while *holding* every bucket's write
        /// claim, which cannot be invalidated and so always terminates.
        /// That serializes against bucket writers but keeps the request
        /// path effectively wait-free; `Stats::cover_fallbacks` counts it.
        const COVER_RETRY_LIMIT: u32 = 8;

        let full = self.config.mode == RuntimeMode::Full;
        let mut validation_failures = 0_u32;
        let instance = loop {
            let was_yielding = self.slots[slot].in_yielding.load(Ordering::Relaxed);
            let mut resolved = Resolved::default();
            let log = self.lock_current(slot, frames, &mut resolved);
            if resolved.len == 0 {
                // Cover impossible: the suffix hits no member bucket, so the
                // decision is GO and the entry stays in the private log — no
                // shared state touched (beyond yield cleanup).
                self.record_go(log, &[], was_yielding, t, l, stack);
                break None;
            }
            let view = log.view();
            let slots = &view.all_slots(&resolved, frames)[..];
            if full && validation_failures >= COVER_RETRY_LIMIT {
                // Adversarial churn kept invalidating the optimistic
                // decision; decide once and for all under bucket write
                // claims (a hit registers its yield before the claims drop —
                // no revalidation possible or needed).
                let found = self.find_instance_locked(view, slots, slot, t, l, stack);
                if found.is_none() {
                    self.record_go(log, slots, was_yielding, t, l, stack);
                }
                break found;
            }
            let found = if full {
                self.find_instance(view, slots, slot, t, l, stack)
            } else {
                None
            };
            let Some((inst, proof)) = found else {
                self.record_go(log, slots, was_yielding, t, l, stack);
                break None;
            };
            if self.config.enforce_yields {
                // Publish the wake registrations first (SeqCst pushes), then
                // revalidate both the generation and the cover's bucket
                // sequences: a cause release removes its entry (sequence
                // bump) *before* draining its wake list, so either the
                // revalidation here observes the churn and retries, or the
                // drain observes the registration and delivers the wakeup —
                // see the module docs' protocol. The revalidation must run
                // with the slot lock dropped, so this branch alone takes its
                // own reference to the view.
                self.insert_yielding(t, &inst.causes);
                let view = Arc::clone(log.view());
                drop(log);
                if view.generation != self.history.generation() || !proof.still_valid(&view) {
                    Stats::bump(&self.stats.hot(slot).cover_retries);
                    validation_failures += 1;
                    self.remove_yielding(t);
                    continue;
                }
            } else {
                // Measurement mode: record the would-be yield but proceed
                // as GO.
                self.record_go(log, slots, was_yielding, t, l, stack);
            }
            break Some(inst);
        };

        match instance {
            None => {
                self.clear_yield_state(slot);
                Stats::bump(&self.stats.hot(slot).gos);
                self.defer_go(slot, l, stack, 2);
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
                    let mut ys = self.slots[slot].yield_state.lock();
                    ys.causes = inst.causes;
                    ys.yielding = true;
                    ys.broken = false;
                    self.slots[slot].yield_set.store(true, Ordering::Relaxed);
                    Decision::Yield { sig: inst.sig }
                } else {
                    // The `Yield` event above accounts for the request.
                    Stats::bump(&self.stats.hot(slot).gos);
                    self.defer_go(slot, l, stack, 1);
                    Decision::Go
                }
            }
        }
    }

    /// Grants the lock request without consulting the history — used when a
    /// yield is broken by the monitor or times out: the thread "pursues its
    /// most recently requested lock" (§3).
    pub fn force_go(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) {
        let slot = t.0 as usize;
        self.publish_grant(slot, t);
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            self.record_entry(slot, t, l, frames, stack);
            self.remove_yielding(t);
        }
        self.clear_yield_state(slot);
        Stats::bump(&self.stats.hot(slot).gos);
        // The `Yield` event of the request this overrides accounted for it.
        self.defer_go(slot, l, stack, 1);
    }

    /// Remembers a GO instead of publishing it: `outcomes` is what the
    /// eventual event must account for (2 = the `request` and its GO, 1 =
    /// the GO alone). Every caller has published any earlier grant.
    fn defer_go(&self, slot: usize, l: LockId, stack: StackId, outcomes: u8) {
        let me = &self.slots[slot];
        debug_assert_eq!(me.grant.load(Ordering::Relaxed), 0);
        me.grant_lock.store(l.0, Ordering::Relaxed);
        me.grant_stack.store(stack.0, Ordering::Relaxed);
        me.grant.store(outcomes, Ordering::Relaxed);
    }

    /// Takes the unpublished grant, if there is one: what was granted and
    /// its counted outcomes (as wide as the events carry them).
    fn take_pending(&self, slot: usize) -> Option<(LockId, StackId, u32)> {
        let me = &self.slots[slot];
        let grant = me.grant.load(Ordering::Relaxed);
        if grant == 0 {
            return None;
        }
        me.grant.store(0, Ordering::Relaxed);
        let l = LockId(me.grant_lock.load(Ordering::Relaxed));
        let stack = StackId(me.grant_stack.load(Ordering::Relaxed));
        Some((l, stack, grant.into()))
    }

    /// Publishes the unpublished grant, if there is one, as a plain `Go`:
    /// what every hook other than the grant's own `waiting` / `acquired` /
    /// `cancel` does first, so at most one grant is ever pending.
    fn publish_grant(&self, slot: usize, t: ThreadId) {
        if let Some((l, stack, grant)) = self.take_pending(slot) {
            self.lanes.push(slot, Event::Go { t, l, stack, grant });
        }
    }

    /// Consumes the unpublished grant if it is for `l`, returning its
    /// counted outcomes (0 = there was none: the `Go` is already out, or
    /// the caller never requested). A grant for any *other* lock is not the
    /// caller's to consume and is published as a plain `Go`.
    fn take_grant(&self, slot: usize, t: ThreadId, l: LockId) -> u32 {
        match self.take_pending(slot) {
            Some((granted, _, grant)) if granted == l => grant,
            Some((l, stack, grant)) => {
                self.lanes.push(slot, Event::Go { t, l, stack, grant });
                0
            }
            None => 0,
        }
    }

    /// The `waiting` hook: `t` was granted `l`, found it taken, and is about
    /// to block on it. Publishes the grant's `Go` — the allow edge — so the
    /// call must come **before** the blocking wait (module docs). A no-op
    /// when that `Go` is already out.
    pub fn waiting(&self, t: ThreadId, l: LockId, stack: StackId) {
        let slot = t.0 as usize;
        let grant = self.take_grant(slot, t, l);
        if grant != 0 {
            self.lanes.push(slot, Event::Go { t, l, stack, grant });
        }
    }

    /// The `acquired` hook: the lock was actually obtained. The request's
    /// GO already pushed the held-stack entry, so this only counts and
    /// publishes one event: `Granted` (the GO and the acquisition) when the
    /// thread never had to wait, `Acquired` when `waiting` already
    /// published the GO.
    pub fn acquired(&self, t: ThreadId, l: LockId, stack: StackId) {
        #[cfg(feature = "fault-inject")]
        if dimmunix_inject::should_panic_on_acquire(t.0 as usize) {
            // Latch before unwinding: the scripted panic may be the only
            // unwind-time hook this thread ever runs (raw locks have no
            // RAII guard to pass through `release`).
            self.slots[t.0 as usize]
                .panicked
                .store(true, std::sync::atomic::Ordering::Relaxed);
            panic!(
                "dimmunix fault injection: scripted panic at acquire (thread slot {}, lock {})",
                t.0, l.0
            );
        }
        let slot = t.0 as usize;
        Stats::bump(&self.stats.hot(slot).acquisitions);
        let event = match self.take_grant(slot, t, l) {
            0 => Event::Acquired { t, l, stack },
            grant => Event::Granted { t, l, stack, grant },
        };
        self.lanes.push(slot, event);
    }

    /// Reentrant re-acquisition (Java monitor / recursive mutex): no
    /// decision is needed — a thread cannot deadlock against itself — but
    /// the hold multiset gains a level (§5.1) and the `Allowed` entry for
    /// this nesting level is recorded (log-only when the suffix hits no
    /// bucket).
    pub fn acquired_reentrant(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) {
        let slot = t.0 as usize;
        self.publish_grant(slot, t);
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            self.record_entry(slot, t, l, frames, stack);
        }
        Stats::bump(&self.stats.hot(slot).acquisitions);
        self.lanes.push(slot, Event::Acquired { t, l, stack });
    }

    /// GO bookkeeping shared by every granting path: appends the entry to
    /// the private log and to the member buckets `slots` — all that its
    /// stack resolved to under the log's view in this critical section,
    /// none for an irrelevant suffix — under the slot lock (see the rebuild
    /// protocol); then clears any yield registration.
    fn record_go(
        &self,
        mut log: MutexGuard<'_, AllowedLog>,
        slots: &[u32],
        was_yielding: bool,
        t: ThreadId,
        l: LockId,
        stack: StackId,
    ) {
        // No buckets is as much a fact about the stack under this view as
        // any slots are: stamped alike, and a release ends at the stamp.
        // (Pushed whole and amended in place: an entry handed around by
        // value is written field by field and re-read in wider pieces,
        // which stalls on store forwarding — ≈ 10 ns of a 45 ns request.)
        let AllowedLog {
            entries,
            view_epoch,
            view,
        } = &mut *log;
        entries.push(Held {
            l,
            stack,
            slots: Resolved::default(),
            stamp: *view_epoch,
        });
        if !slots.is_empty() {
            let view = view.as_deref().expect("view cache populated");
            let held = entries.last_mut().expect("pushed above");
            Self::bucket(view, slots, 0, *view_epoch, t, held);
        }
        drop(log);
        if was_yielding {
            self.remove_yielding(t);
        }
    }

    /// Inserts `held` (an entry of `t`'s log) into the buckets `slots` — all
    /// that its stack resolved to under `view`, published at `view_epoch` —
    /// from `first_new` on: a grant passes 0, the visit of an extension the
    /// old layout's length. The entry leaves remembering all of them, if it
    /// has the room.
    fn bucket(
        view: &MatchView,
        slots: &[u32],
        first_new: u32,
        view_epoch: u64,
        t: ThreadId,
        held: &mut Held,
    ) {
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
        held.stamp = if held.slots.is_complete() {
            view_epoch
        } else {
            Held::ASK_THE_VIEW
        };
    }

    /// Records an `Allowed` entry outside a decision: log-only when the
    /// current view says the suffix hits no bucket, log + bucket insert
    /// otherwise.
    fn record_entry(
        &self,
        slot: usize,
        t: ThreadId,
        l: LockId,
        frames: &[FrameId],
        stack: StackId,
    ) {
        let mut resolved = Resolved::default();
        let log = self.lock_current(slot, frames, &mut resolved);
        let slots = log.view().all_slots(&resolved, frames);
        self.record_go(log, &slots, false, t, l, stack);
    }

    /// The `release` hook, invoked **before** the real unlock. Returns the
    /// threads whose yields were caused by `(t, l)` — the caller must wake
    /// them *after* performing the real unlock.
    pub fn release(&self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        // A release arriving mid-unwind is a RAII guard dropping during a
        // panic: latch it so the TLS-teardown exit sweep (which runs after
        // the panic was caught) can still classify the exit correctly.
        if std::thread::panicking() {
            self.slots[t.0 as usize]
                .panicked
                .store(true, std::sync::atomic::Ordering::Relaxed);
        }
        let slot = t.0 as usize;
        self.publish_grant(slot, t);
        let mut wake = Vec::new();
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            // Pop the innermost entry from our private log and take it out
            // of the buckets it is in. The bucket removal (sequence bump)
            // must precede the wake-list check below: that order is what
            // lets a concurrent cover decision trust a validated sequence
            // (module docs' protocol).
            self.pop_entry(slot, t, l);
            // Swap-and-drain our own wake list (single-drainer: only the
            // owner thread releases its locks). The empty check is a
            // SeqCst load, so skipping the drain keeps the ordering
            // argument intact.
            let me = &self.slots[slot];
            if !me.wake_list.is_empty() {
                let hot = self.stats.hot(slot);
                Stats::bump(&hot.wake_drains);
                me.wake_list.drain_to_pools(
                    |yielder| &self.slots[yielder as usize].wake_pool,
                    |key, yielder, epoch| {
                        let y = yielder as usize;
                        if self.slots[y].wake_epoch.load(Ordering::Acquire) != epoch {
                            // Retracted or superseded registration.
                            DrainVerdict::Consume
                        } else if key == l.0 {
                            wake.push(ThreadId(yielder));
                            DrainVerdict::Consume
                        } else {
                            // Live registration against another of our locks.
                            Stats::bump(&hot.wake_retained);
                            DrainVerdict::Retain
                        }
                    },
                );
            }
        }
        Stats::bump(&self.stats.hot(slot).releases);
        self.lanes.push(slot, Event::Release { t, l });
        wake
    }

    /// The `cancel` hook (§6): rolls back a granted-or-pending request after
    /// a try/timed lock gave up. A grant that was never published is
    /// withdrawn with it: the monitor hears of the cancel alone.
    pub fn cancel(&self, t: ThreadId, l: LockId) {
        let slot = t.0 as usize;
        let grant = self.take_grant(slot, t, l);
        if self.config.mode != RuntimeMode::InstrumentationOnly {
            self.pop_entry(slot, t, l);
            if self.slots[slot].in_yielding.load(Ordering::Relaxed) {
                self.remove_yielding(t);
            }
        }
        self.clear_yield_state(slot);
        self.lanes.push(slot, Event::Cancel { t, l, grant });
    }

    /// Pops the innermost `Allowed` entry for `(t, l)` from the slot's
    /// private log and removes it from the shared buckets — by the slots
    /// the entry remembers, when they are still good — all in one slot
    /// critical section, so no rebuild's visit can fall between the pop and
    /// the removal. An entry with no buckets — an empty history, an
    /// irrelevant suffix — ends at the stamp comparison, here, while it is
    /// still in registers (`remove_buckets` takes it through memory: ≈ 3 ns
    /// of the empty-history pair).
    fn pop_entry(&self, slot: usize, t: ThreadId, l: LockId) {
        let mut log = self.slots[slot].allowed.lock();
        let Some(held) = log.pop(l) else {
            return;
        };
        self.refresh_view(&mut log);
        if held.stamp == log.view_epoch && held.slots.len == 0 {
            return;
        }
        self.remove_buckets(log.view(), log.view_epoch, t, &held);
    }

    fn clear_yield_state(&self, slot: usize) {
        if !self.slots[slot].yield_set.load(Ordering::Relaxed) {
            return;
        }
        let mut ys = self.slots[slot].yield_state.lock();
        ys.causes.clear();
        ys.yielding = false;
        ys.broken = false;
        self.slots[slot].yield_set.store(false, Ordering::Relaxed);
    }

    /// Marks `t`'s current yield as broken (monitor starvation breaking).
    /// Returns whether the thread was indeed yielding.
    pub fn break_yield(&self, t: ThreadId) -> bool {
        let slot = t.0 as usize;
        if slot >= self.slots.len() {
            return false;
        }
        let mut ys = self.slots[slot].yield_state.lock();
        if !ys.yielding {
            return false;
        }
        ys.broken = true;
        Stats::bump(&self.stats.yields_broken);
        true
    }

    /// Consumes `t`'s broken flag; a yielding thread calls this on wakeup to
    /// learn whether it must proceed without re-consulting the history.
    pub fn take_broken(&self, t: ThreadId) -> bool {
        let slot = t.0 as usize;
        let mut ys = self.slots[slot].yield_state.lock();
        if ys.broken {
            ys.broken = false;
            ys.causes.clear();
            ys.yielding = false;
            self.slots[slot].yield_set.store(false, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Whether `t` currently has an unconsumed yield in force.
    pub fn is_yielding(&self, t: ThreadId) -> bool {
        self.slots[t.0 as usize].yield_state.lock().yielding
    }

    /// Probe: the yield causes currently registered for `t` — the
    /// `(thread, lock)` releases that would wake it. Empty when `t` is not
    /// parked in a yield. Read-only; used by verification harnesses to
    /// build wait-for edges and audit parked/woken accounting.
    pub fn yield_causes(&self, t: ThreadId) -> Vec<YieldCause> {
        let slot = t.0 as usize;
        if slot >= self.slots.len() {
            return Vec::new();
        }
        self.slots[slot].yield_state.lock().causes.clone()
    }

    /// Probe: every thread currently parked in an unconsumed yield, with
    /// its causes. A thread listed here must eventually be woken by one of
    /// its causes' releases, broken by the monitor, or timed out — a
    /// completed program with a non-empty parked set is a lost wakeup.
    pub fn parked_yielders(&self) -> Vec<(ThreadId, Vec<YieldCause>)> {
        let mut parked = Vec::new();
        for slot in 0..self.slots.len() {
            if !self.slots[slot].yield_set.load(Ordering::Relaxed) {
                continue;
            }
            let ys = self.slots[slot].yield_state.lock();
            if ys.yielding {
                parked.push((ThreadId(slot as u64), ys.causes.clone()));
            }
        }
        parked
    }

    /// Rebuilds the match state — and publishes the match view — if the
    /// history generation moved. The monitor calls this once per pass so
    /// steady-state requests never pay for a rebuild inline; the hook paths
    /// still rebuild as a fallback for immediacy (e.g. right after
    /// `vaccinate`).
    pub(crate) fn refresh_published(&self) {
        if self.view_cell.load().generation == self.history.generation() {
            return;
        }
        self.rebuild();
    }

    /// Advances the match state to the current history generation: builds
    /// the next view, publishes it, then visits every per-thread log (the
    /// module docs' rebuild protocol). Callers must hold no other engine
    /// lock.
    fn rebuild(&self) {
        let _g = self.rebuild_lock.lock();
        let gen = self.history.generation();
        let old = self.view_cell.load();
        if old.generation == gen {
            // Raced with another rebuilder; its visit finished before the
            // rebuild lock was handed over.
            return;
        }
        Stats::bump(&self.stats.rebuilds);
        let start = std::time::Instant::now();
        // The only branch. An extension shares every surviving bucket with
        // the old table, complete as they stand, so the visit fills only
        // the slots past the old layout; a fresh table is filled whole.
        let (view, first_new, extended) = match self.extended_view(&old, gen) {
            Some(view) => (view, old.layout.len() as u32, true),
            None => (self.fresh_view(), 0, false),
        };
        let view = Arc::new(view);
        self.view_cell.publish(Arc::clone(&view));
        self.visit_logs(&view, first_new);
        Stats::bump(if extended {
            &self.stats.rebuilds_delta
        } else {
            &self.stats.rebuilds_full
        });
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.stats.record_rebuild_us(extended, us);
    }

    /// The visit of a rebuild (module docs): with `view` published, locks
    /// each thread slot in turn, buckets its log's entries wherever `view`'s
    /// table lacks them — the slots from `first_new` on — and marks the
    /// table swept. Every visited entry leaves with its slots under `view`
    /// remembered and stamped, so the releases that follow take the
    /// remembered path again. The caller holds the rebuild mutex, which is
    /// what keeps the epoch read here `view`'s own.
    fn visit_logs(&self, view: &MatchView, first_new: u32) {
        let view_epoch = self.view_cell.epoch();
        // Slot order, and lock-id order within a slot, so the bucket
        // vectors are deterministic (`AllowedLog::sweep_order`).
        for (slot_idx, slot) in self.slots.iter().enumerate() {
            let t = ThreadId(slot_idx as u64);
            let mut log = slot.allowed.lock();
            for at in log.sweep_order() {
                let held = &mut log.entries[at];
                let frames = self.stacks.resolve(held.stack);
                let slots: Vec<u32> = view.slots_of(&frames).collect();
                Self::bucket(view, &slots, first_new, view_epoch, t, held);
            }
            // Drop the slot's cached view: an idle thread must not keep a
            // retired generation's bucket table alive until its next hook
            // (active threads reload on their next epoch check anyway).
            log.view = None;
            log.view_epoch = u64::MAX;
        }
        view.table.swept.store(true, Ordering::Release);
    }

    /// `old` extended to generation `gen` by the signatures appended in
    /// between: new `(depth, suffix)` keys take slots past the old layout's
    /// length, and the table shares every surviving bucket and the
    /// fingerprint array with `old`'s. `None` when only a
    /// fresh build will do: the span holds a structural change (removal,
    /// disable, depth touch), reaches past the journal or starts at the
    /// sentinel view ([`History::delta_between`] reports all three alike),
    /// or the grown layout no longer fits the inherited fingerprints — a
    /// fresh table re-sizes them, amortized doubling.
    fn extended_view(&self, old: &MatchView, gen: u64) -> Option<MatchView> {
        // Bounded by `gen`, the stamp: an `add` may bump the history past
        // it while this runs, and a view holding that signature under the
        // older stamp would get it again from the next rebuild's delta —
        // the layout dedups keys, but the index would list its candidates
        // twice.
        let HistoryDelta::Appended(new_sigs) = self.history.delta_between(old.generation, gen)
        else {
            return None;
        };
        let layout = Arc::new(BucketLayout::extended(&old.layout, &new_sigs, &self.stacks));
        if layout.len() > old.table.occupancy.len() {
            return None;
        }
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

    /// Approximate heap footprint of the avoidance state, in bytes (§7.4).
    pub fn approx_bytes(&self) -> usize {
        let live: usize = self
            .slots
            .iter()
            .map(|slot| slot.allowed.lock().entries.len())
            .sum();
        live * core::mem::size_of::<Held>()
            + self.view_cell.load().table.approx_bytes()
            + self.slots.len() * core::mem::size_of::<ThreadSlot>()
    }

    /// Removes `held` (an entry of `t`'s log, already popped or about to
    /// be cleared) from every bucket of `view` it is in: the slots it
    /// remembers when its stamp is `view`'s epoch, the slots its stack
    /// resolves to under `view` otherwise — a release between a publish and
    /// the visit that would have restamped the entry, or an entry with more
    /// slots than it can remember. Tolerant of the entry being absent (the
    /// visit may not have bucketed it under `view` yet).
    fn remove_buckets(&self, view: &MatchView, view_epoch: u64, t: ThreadId, held: &Held) {
        let e = AllowedEntry {
            t,
            l: held.l,
            stack: held.stack,
        };
        if held.stamp == view_epoch {
            for &s in held.slots.as_slice() {
                view.table.remove(s, e);
            }
        } else {
            for s in view.slots_of(&self.stacks.resolve(held.stack)) {
                view.table.remove(s, e);
            }
        }
    }

    /// Registers `t` as yielding on `causes`: bumps its registration epoch
    /// (atomically retracting any previous registration) and pushes one
    /// lock-free node into each cause thread's wake list.
    fn insert_yielding(&self, t: ThreadId, causes: &[YieldCause]) {
        let slot = &self.slots[t.0 as usize];
        let epoch = slot.wake_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        for c in causes {
            // Recycle a node from *our own* pool (registration runs on the
            // yielding thread — the pool's single popper); the push itself
            // still lands in the cause thread's list.
            let hit = self.slots[c.thread.0 as usize].wake_list.push_pooled(
                &slot.wake_pool,
                c.lock.0,
                t.0,
                epoch,
            );
            Stats::bump(if hit {
                &self.stats.wake_pool_hits
            } else {
                &self.stats.wake_pool_misses
            });
        }
        slot.in_yielding.store(true, Ordering::Relaxed);
    }

    /// Retracts `t`'s yield registration: one epoch bump invalidates every
    /// outstanding node (drainers free them lazily). No-op-safe when not
    /// yielding.
    fn remove_yielding(&self, t: ThreadId) {
        let Some(slot) = self.slots.get(t.0 as usize) else {
            return;
        };
        slot.wake_epoch.fetch_add(1, Ordering::SeqCst);
        slot.in_yielding.store(false, Ordering::Relaxed);
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
    /// if every non-anchor member bucket is non-empty, so one zero
    /// occupancy fingerprint refutes the candidate without reading any
    /// bucket. A member key outside the layout has no bucket at all —
    /// provably empty.
    fn cover_possible(view: &MatchView, keys: &[MemberKey], anchor: usize) -> bool {
        keys.iter().enumerate().all(|(i, mk)| {
            i == anchor
                || mk
                    .slot
                    .is_some_and(|s| view.table.occupancy.possibly_nonempty(u64::from(s)))
        })
    }

    /// Searches the history for a signature that the tentative allow edge
    /// `(t, l, stack)` would instantiate (§5.4). On a hit, the successful
    /// cover's [`CoverProof`] (the validated bucket sequences its decision
    /// was computed from) is returned, so the caller can register the
    /// yield and then revalidate (see `request`).
    fn find_instance(
        &self,
        view: &MatchView,
        slots: &[u32],
        slot: usize,
        t: ThreadId,
        l: LockId,
        stack: StackId,
    ) -> Option<(Instance, CoverProof)> {
        let mut scratch: Vec<[u64; 3]> = Vec::new();
        self.find_instance_with(view, slots, slot, t, l, stack, &mut |s: u32| {
            let seq = view.table.buckets[s as usize].read_into(&mut scratch);
            (seq, Self::decode_sorted(&scratch))
        })
    }

    /// The bounded-retry fallback decision (see `COVER_RETRY_LIMIT` in
    /// [`Self::request`] and the module docs): runs the same search as [`Self::find_instance`]
    /// but while **holding every bucket's write claim** (taken in ascending
    /// slot order — the lowest tier of the engine lock order), so nothing
    /// can move under it and no post-registration revalidation is needed.
    /// On a hit the yield is registered *before* the claims drop: a racing
    /// cause release must claim a bucket to remove its entry, so its
    /// removal — and hence its wake-list drain — is ordered after the
    /// registration here and observes it (no lost wakeup). Claim holders
    /// never take an engine mutex and normal write sessions hold a single
    /// claim without waiting, so the all-claims hold cannot deadlock —
    /// only serialize.
    fn find_instance_locked(
        &self,
        view: &MatchView,
        slots: &[u32],
        slot: usize,
        t: ThreadId,
        l: LockId,
        stack: StackId,
    ) -> Option<Instance> {
        Stats::bump(&self.stats.cover_fallbacks);
        let writers: Vec<_> = view.table.buckets.iter().map(|b| b.write()).collect();
        let mut scratch: Vec<[u64; 3]> = Vec::new();
        let all: Vec<Vec<AllowedEntry>> = writers
            .iter()
            .map(|w| {
                w.read_into(&mut scratch);
                Self::decode_sorted(&scratch)
            })
            .collect();
        // Sequences in the proof are immaterial — the decision is final.
        let found = self.find_instance_with(view, slots, slot, t, l, stack, &mut |s: u32| {
            (0, all[s as usize].clone())
        });
        let inst = found.map(|(inst, _proof)| inst);
        if let Some(inst) = &inst {
            if self.config.enforce_yields {
                self.insert_yielding(t, &inst.causes);
            }
        }
        drop(writers);
        inst
    }

    /// Shared search body of [`Self::find_instance`] (optimistic bucket
    /// reads) and [`Self::find_instance_locked`] (reads under claims),
    /// parameterized over the bucket `read` accessor. `slots` is what the
    /// requester's frames resolved to under `view`, ascending by depth — the
    /// index is entered by slot, no second look-up — so candidates are
    /// tried in the order [`crate::reference`] states.
    #[allow(clippy::too_many_arguments)] // Packed search inputs + accessor.
    fn find_instance_with(
        &self,
        view: &MatchView,
        slots: &[u32],
        slot: usize,
        t: ThreadId,
        l: LockId,
        stack: StackId,
        read: &mut dyn FnMut(u32) -> (u64, Vec<AllowedEntry>),
    ) -> Option<(Instance, CoverProof)> {
        let hot = self.stats.hot(slot);
        let occupied = |s: &u32| view.table.occupancy.possibly_nonempty(u64::from(*s));
        // Batch the per-candidate precheck counter: a hot suffix can carry
        // dozens of candidates, and per-candidate atomic bumps measurably
        // tax the contended rows.
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
                // fingerprint load per slot, no per-candidate pointer
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
                Stats::bump(&hot.cover_searches);
                found = Self::try_cover_with(read, &c.sig, d, member_keys, c.member, t, l, stack);
                if found.is_some() {
                    break 'sets;
                }
            }
        }
        if skips > 0 {
            hot.precheck_skips.fetch_add(skips, Ordering::Relaxed);
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
    /// `Allowed` buckets — the "exact cover" of §3. Bucket access is
    /// abstracted behind `read` (slot → validated `(sequence, canonical
    /// snapshot)`): the optimistic path supplies seqlock copies
    /// ([`VersionedBucket::read_into`]), the bounded-retry fallback
    /// supplies reads taken under write claims. Each distinct member
    /// bucket is read once, the search runs over those snapshots, and a
    /// successful cover returns the `(bucket, sequence)` proof for
    /// post-registration revalidation.
    #[allow(clippy::too_many_arguments)] // Packed cover-search inputs.
    fn try_cover_with(
        read: &mut dyn FnMut(u32) -> (u64, Vec<AllowedEntry>),
        sig: &Arc<Signature>,
        d: u8,
        keys: &[MemberKey],
        anchor: usize,
        t: ThreadId,
        l: LockId,
        stack: StackId,
    ) -> Option<(Instance, CoverProof)> {
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
            let (seq, entries) = read(slot);
            if entries.is_empty() {
                return None; // a required member bucket is empty
            }
            snaps.push(BucketSnap { slot, seq, entries });
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
            Some((
                Instance {
                    sig: Arc::clone(sig),
                    depth_used: d,
                    causes,
                    bindings,
                },
                CoverProof(snaps.iter().map(|s| (s.slot, s.seq)).collect()),
            ))
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
        let view = self.view_cell.load();
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
            .field("max_threads", &self.slots.len())
            .field("history_len", &self.history.len())
            .finish()
    }
}

#[cfg(test)]
mod tests;
