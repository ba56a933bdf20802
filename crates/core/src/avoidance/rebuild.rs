//! The match view of one history generation, and its rebuild: the next
//! view is built, then handed to each thread's log by a visit.
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
//! thread: log, waiters and yield behind the slot lock, and the parker
//! where the thread parks and the lock's waiters sleep; 128 bytes, two
//! cache lines). They
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
//! exit sweep never wait. The visit takes every record's slot lock, so it
//! can itself wait on a thread descheduled mid-hook; under heavy
//! oversubscription that is the tail of `rebuild_us_*_max`.

use super::*;

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
    pub(super) fn encode(self) -> [u64; 3] {
        [self.t.0, self.l.0, u64::from(self.stack.0)]
    }

    #[inline]
    pub(super) fn decode(rec: [u64; 3]) -> Self {
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
    pub(super) buckets: Box<[Arc<VersionedBucket<3>>]>,
    /// Set once the rebuild's visit has merged every per-thread log;
    /// covers and direct bucket inserts wait for it.
    pub(super) swept: AtomicBool,
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
    #[inline]
    pub(super) fn insert(&self, slot: u32, e: AllowedEntry) {
        self.buckets[slot as usize].write().push(e.encode());
    }

    /// Removes `e` from bucket `slot`: one write session, tolerant of the
    /// entry being absent (it may never have been bucketed in *this* table).
    #[inline]
    pub(super) fn remove(&self, slot: u32, e: AllowedEntry) {
        self.buckets[slot as usize].write().remove(e.encode());
    }

    pub(super) fn approx_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                core::mem::size_of::<VersionedBucket<3>>()
                    + b.approx_len() * 3 * core::mem::size_of::<u64>()
            })
            .sum()
    }
}

/// The read-mostly snapshot `request` consults without any shared lock: the
/// generation's bucket layout, the candidate index over signature members,
/// and the current bucket table. Published under the rebuild mutex whenever
/// the history generation moves, and handed to each thread's log by the
/// rebuild's visit.
pub(crate) struct MatchView {
    /// History generation this view was built from (`u64::MAX` = never).
    pub(super) generation: u64,
    /// Dense `(depth, suffix) → bucket slot` directory of this generation:
    /// the only map a hook hashes into.
    pub(super) layout: Arc<BucketLayout>,
    /// Candidate sets by `layout` slot.
    pub(super) index: Arc<MatchIndex>,
    /// The versioned buckets of this generation.
    pub(super) table: Arc<MatchTable>,
}

impl MatchView {
    /// The view of no generation, empty and swept, that an engine publishes
    /// until its first rebuild. Nothing is ever bucketed in it, so one serves
    /// the whole process.
    pub(super) fn sentinel() -> Arc<Self> {
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

    /// Every slot `frames` resolved to: `resolved` itself, or — the stack
    /// hit more depth layers than that holds — all of them, looked up again.
    pub(super) fn all_slots<'a>(
        &self,
        resolved: &'a Resolved,
        frames: &[FrameId],
    ) -> Cow<'a, [u32]> {
        if resolved.is_complete() {
            Cow::Borrowed(resolved.as_slice())
        } else {
            Cow::Owned(self.layout.slots_of(frames).collect())
        }
    }
}

impl AvoidanceCore {
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
    pub(super) fn visit_logs(&self, view: &Arc<MatchView>, first_new: u32) {
        // Slot order, and lock-id order within a slot, so the bucket
        // vectors are deterministic (`AllowedLog::sweep_order`).
        for (t, me) in self.records() {
            let mut log = me.lock();
            for at in log.sweep_order() {
                let held = &mut log.entries[at];
                let frames = self.stacks.resolve(held.stack);
                let slots: Vec<u32> = view.layout.slots_of(&frames).collect();
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
    pub(super) fn extended_view(&self, old: &MatchView) -> Option<MatchView> {
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
    pub(super) fn fresh_view(&self) -> MatchView {
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
    pub(super) fn published(&self) -> Arc<MatchView> {
        Arc::clone(&self.view.lock())
    }
}
