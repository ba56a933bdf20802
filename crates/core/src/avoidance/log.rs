//! A thread's private `Allowed` log: its held-lock stack of [`Held`]
//! entries and the [`Waiter`]s registered against it, and the GO
//! bookkeeping that pushes an entry into its buckets and pops it out.

use super::*;

/// One level of a thread's held-lock stack: the lock, the call stack it was
/// granted with, and where the entry is in the shared buckets.
#[derive(Clone, Copy)]
pub(super) struct Held {
    pub(super) l: LockId,
    pub(super) stack: StackId,
    /// The bucket slots `stack` resolves to under its log's view: written by
    /// the grant and by every visit, each in the critical section that sets
    /// or keeps that view, so they are this entry's buckets in the view's
    /// table — all of them when [`Resolved::is_complete`], and otherwise the
    /// rest are resolved again.
    pub(super) slots: Resolved,
}

/// A yielder's registration against one of a log's entries as its cause:
/// taken by the pop of an entry for `lock`, or withdrawn by its yielder
/// when the yield ends.
#[derive(Clone, Copy)]
pub(super) struct Waiter {
    pub(super) lock: LockId,
    pub(super) yielder: ThreadId,
}

/// A thread's private `Allowed` log — the master copy of its entries —, the
/// yielders registered against them, the match view its hooks act on and
/// the thread's own yield: everything its record keeps behind the slot lock
/// (`record.rs`, "The slot lock"). The thread parks elsewhere, on its
/// record's parker.
pub(super) struct AllowedLog {
    /// The thread's **held-lock stack**: one [`Held`] per granted request or
    /// reentrant nesting level, in grant order. A grant pushes; a release or
    /// a granted request's cancel removes the *last* entry for its lock
    /// (searched from the top, so LIFO unlocks cost one comparison and
    /// out-of-order unlocks stay correct). Capacity is retained, so a warm
    /// pair allocates nothing.
    pub(super) entries: Vec<Held>,
    /// Yielders registered against this thread as a cause, pushed in this
    /// log's critical section only while an entry for their lock is in it,
    /// and taken by the pop of such an entry (`yields.rs`, "No-lost-wakeup
    /// protocol") or withdrawn by their yielder, so every one is live.
    /// Capacity is retained, so a warm hand-off allocates nothing.
    pub(super) waiters: Vec<Waiter>,
    /// The view every entry's slots index. Set only where the entries are
    /// re-resolved: by the chunk install that made this record, and by each
    /// rebuild's visit of it (`rebuild.rs`, "Rebuild protocol").
    pub(super) view: Arc<MatchView>,
    /// Causes of the thread's current yield (empty when not yielding, and
    /// for a yield on a single-member signature, which has no other
    /// member). Between hooks, every log that holds a registration of this
    /// thread is a cause listed here (a cause's pop may have taken its own
    /// since): whoever ends the yield takes the list and withdraws them.
    pub(super) causes: Vec<YieldCause>,
    /// Set by the monitor to break starvation: the thread must stop
    /// yielding and pursue its most recently requested lock (§3).
    pub(super) broken: bool,
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
    pub(super) fn sweep_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&at| self.entries[at].l);
        order
    }
}

impl AvoidanceCore {
    /// GO bookkeeping shared by every granting path: appends the entry to
    /// the private log and to the member buckets `slots` — all that its
    /// stack resolved to under the log's view in this critical section,
    /// none for an irrelevant suffix — under the slot lock (see the rebuild
    /// protocol).
    pub(super) fn record_go(
        mut log: SlotGuard<'_, AllowedLog>,
        slots: &[u32],
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
    }

    /// Inserts `held` (an entry of `t`'s log) into the buckets `slots` — all
    /// that its stack resolved to under `view`, which the log holds or is
    /// about to — from `first_new` on: a grant passes 0, the visit of an
    /// extension the old layout's length. The entry leaves remembering all
    /// of them, if it has the room.
    pub(super) fn bucket(
        view: &MatchView,
        slots: &[u32],
        first_new: u32,
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
    }

    /// Records an `Allowed` entry outside a decision: log-only when the
    /// current view says the suffix hits no bucket, log + bucket insert
    /// otherwise.
    pub(super) fn record_entry(
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
        Self::record_go(log, &slots, t, l, stack);
    }

    /// Pops the innermost `Allowed` entry for `(t, l)` from `log`, `t`'s
    /// log under the caller's guard, removes it from the buckets of the
    /// log's view by the slots it remembers and takes the waiters for `l`,
    /// all in that one slot critical section: no rebuild's visit can
    /// fall between the pop and the removal, and no yielder can register
    /// between the pop and the take (`yields.rs`). Returns the yielders to
    /// wake. An entry with no buckets — an empty history, an irrelevant
    /// suffix — ends here, while it is still in registers (`remove_buckets`
    /// takes it through memory: ≈ 3 ns of the empty-history pair).
    pub(super) fn pop_entry(&self, log: &mut AllowedLog, t: ThreadId, l: LockId) -> Vec<ThreadId> {
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
        let taken = log.waiters.extract_if(.., |w| w.lock == l);
        taken.map(|w| w.yielder).collect()
    }

    /// Removes `held` (an entry of `t`'s log, already popped or about to
    /// be cleared) from every bucket of `view`, its log's view, it is in:
    /// the slots it remembers, or — it hit more depth layers than it can
    /// remember — the slots its stack resolves to again. Tolerant of the
    /// entry being absent.
    pub(super) fn remove_buckets(&self, view: &MatchView, t: ThreadId, held: &Held) {
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
            for s in view.layout.slots_of(&self.stacks.resolve(held.stack)) {
                view.table.remove(s, e);
            }
        }
    }
}
