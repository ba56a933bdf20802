//! What the monitor is told, and when.
//!
//! The avoidance hooks decide on the lock path and tell the monitor
//! afterwards (§3, Figure 1), over the per-thread lanes of
//! [`crate::lanes`]: one mutex-guarded queue per thread, pushed by its
//! thread and swapped out whole by the monitor's drain. An event is
//! published only when it changes what the monitor's RAG must show, so a
//! `request` that ends in a GO publishes nothing by itself:
//!
//! * a **lone** uncontended `lock()`/`unlock()` — taken by a thread that
//!   holds nothing, on a stack that hits no signature bucket — publishes
//!   nothing at all. It is a *quiet hold* (`avoidance/record.rs`, "Quiet
//!   holds"): the monitor draws its hold edge itself if someone waits for
//!   the lock, and otherwise the `release` retires the whole pair;
//! * any other **uncontended** pair publishes two events —
//!   [`Event::Granted`] once the lock is held (the request, its GO and the
//!   acquisition in one: the monitor never observes the gap between them)
//!   and [`Event::Release`] *before* the real unlock. A quiet hold that the
//!   thread nests another lock inside becomes this `Granted`, published
//!   before anything else the thread publishes;
//! * a **contended** one publishes three — [`Event::Go`] from the `waiting`
//!   hook, *before* the thread blocks inside the mutex (the allow edge a
//!   deadlock cycle runs through), then [`Event::Acquired`] and
//!   [`Event::Release`];
//! * a denied request publishes [`Event::Yield`] at the decision, a rolled
//!   back try/timed lock [`Event::Cancel`], a deregistration
//!   [`Event::ThreadExit`].
//!
//! One thread's events are applied in the order it published them. Across
//! threads nothing is promised — the monitor drains lane by lane, not in
//! enqueue order — and the RAG does not need it: holds are multisets,
//! detection runs after a full drain, and a deadlocked thread has stopped
//! publishing (§5.1's lazy view). What is promised is the hook placement:
//! `Go` precedes the blocking wait, `Granted`/`Acquired` follow the real
//! lock, `Release` precedes the real unlock (§5.2). A thread that blocks
//! has published every hold it has — the request it blocks after published
//! any quiet hold first — so no deadlock cycle runs through a quiet hold.
//!
//! The hooks count their outcomes (`requests`, `gos`, `yields`,
//! `acquisitions`, `releases` in [`crate::stats::Stats`]) whether or not an
//! event is published for each; [`Event::outcomes`] says how many of them an
//! event stands for, a claimed quiet hold stands for a `Granted`, and a
//! quiet pair retires its four at its `release` (`quiet_pairs`), so the
//! snapshot's `events_processed` still accounts for every one.

use dimmunix_rag::{LockId, ThreadId, YieldCause};
use dimmunix_signature::{SigId, StackId};

/// Context attached to a `yield` event, consumed by the monitor for RAG
/// maintenance, false-positive probing and depth calibration.
#[derive(Clone, Debug)]
pub struct YieldInfo {
    /// The signature whose instantiation was anticipated.
    pub sig: SigId,
    /// The matching depth in force when the decision was made.
    pub depth_used: u8,
    /// `(runtime stack, signature member stack)` pairs for every binding in
    /// the matched instance — the yielder first, then the causes. Used by
    /// calibration to answer "would this avoidance also have fired at depth
    /// k + 1?" (§5.5).
    pub bindings: Vec<(StackId, StackId)>,
    /// The `(T′, L′, S′)` tuples that caused the yield (§5.6's `yieldCause`).
    pub causes: Vec<YieldCause>,
}

/// One avoidance-side event.
///
/// The `grant` field of [`Event::Go`], [`Event::Granted`] and
/// [`Event::Cancel`] is the number of counted outcomes of the grant the
/// event publishes or withdraws: 2 for a `request` and its GO, 1 for a GO
/// alone (`force_go`, or the GO of an unenforced yield, whose `request` the
/// `Yield` event accounts for), 0 when a `Cancel` found no unpublished grant.
/// It is a `u32` although it never exceeds 2: a byte would be laid out
/// beside the tag, and every event's tag would then be written with a byte
/// store that the lane's 32-byte copy stalls on (`lanes.push_ns` 10 → 15 ns
/// measured). The size test below pins what matters.
#[derive(Clone, Debug)]
pub enum Event {
    /// `t` was granted `l`, found it taken and is about to block on it
    /// (allow edge). Published by the `waiting` hook, or by any other hook
    /// that finds an earlier grant still unpublished.
    Go {
        /// Requesting thread.
        t: ThreadId,
        /// Requested lock.
        l: LockId,
        /// Call stack at the request.
        stack: StackId,
        /// Counted outcomes of the grant (see the type docs).
        grant: u32,
    },
    /// The request was denied: `t` yields because of `info.causes`.
    Yield {
        /// Yielding thread.
        t: ThreadId,
        /// The lock it still wants (the allow edge is flipped to request).
        l: LockId,
        /// Call stack at the request.
        stack: StackId,
        /// Avoidance context (boxed: yields are rare, events are hot).
        info: Box<YieldInfo>,
    },
    /// `t` was granted `l` and acquired it without having to wait: a `Go`
    /// and an `Acquired` in one event.
    Granted {
        /// Acquiring thread.
        t: ThreadId,
        /// Acquired lock.
        l: LockId,
        /// Call stack at acquisition — the hold edge label.
        stack: StackId,
        /// Counted outcomes of the grant (see the type docs).
        grant: u32,
    },
    /// `t` actually acquired `l` (hold edge; one per reentrant level). The
    /// grant, if there was one, was published earlier as a `Go`.
    Acquired {
        /// Acquiring thread.
        t: ThreadId,
        /// Acquired lock.
        l: LockId,
        /// Call stack at acquisition — the hold edge label.
        stack: StackId,
    },
    /// `t` is about to release `l` (enqueued *before* the real unlock).
    Release {
        /// Releasing thread.
        t: ThreadId,
        /// Released lock.
        l: LockId,
    },
    /// A granted or pending request was rolled back (try/timed lock timed
    /// out, §6's `cancel` event).
    Cancel {
        /// The thread whose request is withdrawn.
        t: ThreadId,
        /// The lock it no longer waits for.
        l: LockId,
        /// Counted outcomes of the unpublished grant this cancel withdrew
        /// (see the type docs).
        grant: u32,
    },
    /// Thread `t` deregistered from the runtime.
    ThreadExit {
        /// The exiting thread.
        t: ThreadId,
    },
}

impl Event {
    /// The thread this event belongs to.
    pub fn thread(&self) -> ThreadId {
        match *self {
            Event::Go { t, .. }
            | Event::Yield { t, .. }
            | Event::Granted { t, .. }
            | Event::Acquired { t, .. }
            | Event::Release { t, .. }
            | Event::Cancel { t, .. }
            | Event::ThreadExit { t } => t,
        }
    }

    /// How many counted hook outcomes this event retires: what
    /// `events_processed` advances by when the monitor applies it (see
    /// [`crate::stats::Stats::events_processed`] for the identity this
    /// keeps).
    pub fn outcomes(&self) -> u64 {
        match *self {
            Event::Go { grant, .. } => u64::from(grant),
            // The request and the yield.
            Event::Yield { .. } => 2,
            Event::Granted { grant, .. } => u64::from(grant) + 1,
            Event::Cancel { grant, .. } => u64::from(grant) + 1,
            Event::Acquired { .. } | Event::Release { .. } | Event::ThreadExit { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_of_each() -> Vec<Event> {
        let t = ThreadId(7);
        let l = LockId(1);
        let stack = StackId(0);
        let info = Box::new(YieldInfo {
            sig: SigId(0),
            depth_used: 4,
            bindings: vec![],
            causes: vec![],
        });
        vec![
            Event::Go {
                t,
                l,
                stack,
                grant: 2,
            },
            Event::Yield { t, l, stack, info },
            Event::Granted {
                t,
                l,
                stack,
                grant: 2,
            },
            Event::Acquired { t, l, stack },
            Event::Release { t, l },
            Event::Cancel { t, l, grant: 2 },
            Event::ThreadExit { t },
        ]
    }

    #[test]
    fn thread_accessor_covers_all_variants() {
        for e in &one_of_each() {
            assert_eq!(e.thread(), ThreadId(7));
        }
    }

    #[test]
    fn outcomes_count_the_hook_calls_an_event_stands_for() {
        let outcomes: Vec<u64> = one_of_each().iter().map(Event::outcomes).collect();
        // request+go, request+yield, request+go+acquired, acquired,
        // release, request+go+cancel, exit.
        assert_eq!(outcomes, vec![2, 2, 3, 1, 1, 3, 1]);
    }

    /// The lanes move events by value; `Granted` must not make them bigger.
    #[test]
    fn an_event_is_four_words() {
        assert_eq!(core::mem::size_of::<Event>(), 32);
    }
}
