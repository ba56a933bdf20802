//! The pre-refactor avoidance engine, preserved verbatim in behavior.
//!
//! Before the request path was sharded (per-thread `Allowed` logs that
//! double as held-lock stacks, epoch-published match view, per-thread
//! event lanes), every
//! `request`/`acquired`/`release` from every thread serialized through one
//! global critical section around a monolithic state. This module keeps
//! that engine alive as an oracle, driven by one harness:
//! `dimmunix_threadsim::Lockstep` replays every hook through both engines
//! (for the simulator, the explorer, the differential property tests and
//! the chaos storm) and compares decisions and wake sets at each hook —
//! the sharding must be a pure performance refactor. The critical section
//! is a plain mutex; the paper's Peterson-style guard (§5.6) is not
//! reproduced, and nothing measures this engine's speed.
//!
//! The oracle matches the way the paper does (§5.6): every `request` walks
//! the history and compares the call stack with each member stack at the
//! signature's depth, and every cover walks the `Allowed` entries. It
//! shares **no matching code** with the sharded engine — no candidate
//! index, no buckets, no emptiness precheck — so every lockstep run
//! compares the engine's index and buckets against the walks they replace.
//!
//! # Candidate order
//!
//! A request may match several signatures, and the first one whose cover
//! succeeds names the yield's signature and causes, so the order is part of
//! the semantics. The rule both engines must produce, stated here once:
//! **ascending matching depth; within a depth, history order; within a
//! signature, member order.** The sharded engine gets it from its layout
//! (depth layers ascending, candidates appended in snapshot × member
//! order); the oracle from a stable sort of the history snapshot by depth.
//!
//! It decides and nothing else: it publishes no events, keeps no owner map
//! and builds no yield report — what `Lockstep` compares is the decision,
//! the signature yielded on and the wake sets.
//! It is not wired into [`crate::runtime::Runtime`]; real workloads always
//! run the sharded [`crate::avoidance::AvoidanceCore`].

use crate::avoidance::Decision;
use crate::config::{Config, RuntimeMode, MAX_THREADS};
use dimmunix_lockfree::SlotAllocator;
use dimmunix_rag::{LockId, ThreadId, YieldCause};
use dimmunix_signature::{suffix_matches, FrameId, History, Signature, StackId, StackTable};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The monolithic state — the `Allowed` multiset (each thread's stacks per
/// lock, in grant order) and the yielding set — behind one mutex.
#[derive(Default)]
struct RefState {
    entries: HashMap<(ThreadId, LockId), Vec<StackId>>,
    yielding: HashMap<ThreadId, Vec<YieldCause>>,
}

/// The single-lock engine (see module docs). One mutex, no fast path.
pub struct ReferenceCore {
    state: Mutex<RefState>,
    slot_alloc: SlotAllocator,
    history: Arc<History>,
    stacks: Arc<StackTable>,
    config: Config,
}

impl ReferenceCore {
    /// Creates the engine over a (possibly shared) history and stack table.
    pub fn new(config: Config, history: Arc<History>, stacks: Arc<StackTable>) -> Self {
        Self {
            state: Mutex::default(),
            slot_alloc: SlotAllocator::new(MAX_THREADS),
            history,
            stacks,
            config,
        }
    }

    /// Registers a thread, returning its dense id.
    pub fn register_thread(&self) -> Option<ThreadId> {
        let slot = self.slot_alloc.acquire()?;
        Some(ThreadId(slot as u64))
    }

    /// Deregisters `t`, dropping its entries and its yield. Returns the
    /// yielders with a cause on `t`: their release will never come.
    pub fn unregister_thread(&self, t: ThreadId) -> Vec<ThreadId> {
        let wake = {
            let state = &mut *self.state.lock();
            state.yielding.remove(&t);
            state.entries.retain(|&(et, _), _| et != t);
            Self::take_caused_by(state, |c| c.thread == t)
        };
        self.slot_alloc.release(t.0 as usize);
        wake
    }

    /// The pre-refactor `request` hook: one global critical section per
    /// call. Yields are always enforced (the lockstep harnesses run the
    /// default configuration).
    pub fn request(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) -> Decision {
        let full = self.config.mode == RuntimeMode::Full;
        let state = &mut *self.state.lock();
        let instance = if full {
            self.find_instance(state, t, l, frames)
        } else {
            None
        };
        match instance {
            None => {
                state.entries.entry((t, l)).or_default().push(stack);
                state.yielding.remove(&t);
                Decision::Go
            }
            Some((sig, causes)) => {
                state.yielding.insert(t, causes);
                Decision::Yield { sig }
            }
        }
    }

    /// The pre-refactor `release` hook: linear scan over all yielders'
    /// causes inside the global critical section.
    pub fn release(&self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        let state = &mut *self.state.lock();
        Self::pop_entry(state, t, l);
        Self::take_caused_by(state, |c| c.thread == t && c.lock == l)
    }

    /// The yielders with a cause that `hit` selects, each such cause taken
    /// from its yielder: a cause wakes its yielder once, as a registration
    /// with the cause does in the sharded engine. The yielder stays
    /// yielding until it retries.
    fn take_caused_by(state: &mut RefState, hit: impl Fn(&YieldCause) -> bool) -> Vec<ThreadId> {
        let mut wake = Vec::new();
        for (&yt, causes) in &mut state.yielding {
            let before = causes.len();
            causes.retain(|c| !hit(c));
            if causes.len() != before {
                wake.push(yt);
            }
        }
        wake
    }

    /// The pre-refactor equivalent of the sharded engine's `force_go`:
    /// grants the request without consulting the history (used when a yield
    /// is broken by the monitor or times out, §3). Records the `Allowed`
    /// entry and clears the yielding registration — the sharded path's
    /// bookkeeping, so lockstep runs can follow starvation-break and
    /// timeout schedules.
    pub fn force_go(&self, t: ThreadId, l: LockId, stack: StackId) {
        let state = &mut *self.state.lock();
        state.entries.entry((t, l)).or_default().push(stack);
        state.yielding.remove(&t);
    }

    /// The pre-refactor `cancel` hook. After a YIELD it only retracts the
    /// yield: the request pushed no entry, so nothing is popped and nobody
    /// woken. After a GO it pops the entry and returns what `release`
    /// would: the yielders with a cause `(t, l)`.
    pub fn cancel(&self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        let state = &mut *self.state.lock();
        if state.yielding.remove(&t).is_some() {
            return Vec::new();
        }
        Self::pop_entry(state, t, l);
        Self::take_caused_by(state, |c| c.thread == t && c.lock == l)
    }

    /// Pops the innermost entry for `(t, l)`, if there is one.
    fn pop_entry(state: &mut RefState, t: ThreadId, l: LockId) {
        if let Some(stacks) = state.entries.get_mut(&(t, l)) {
            stacks.pop();
            if stacks.is_empty() {
                state.entries.remove(&(t, l));
            }
        }
    }

    /// The first signature, in the module docs' candidate order, whose
    /// cover the tentative allow edge `(t, l)` on `frames` completes: the
    /// signature and the cover's entries, the yield's causes.
    fn find_instance(
        &self,
        state: &RefState,
        t: ThreadId,
        l: LockId,
        frames: &[FrameId],
    ) -> Option<(Arc<Signature>, Vec<YieldCause>)> {
        // The module docs' candidate order: the sort is stable, so history
        // order survives within a depth.
        let mut snapshot = self.history.snapshot().to_vec();
        snapshot.sort_by_key(|sig| sig.depth());
        for sig in snapshot.iter().filter(|sig| !sig.is_disabled()) {
            let d = sig.depth();
            for (mi, &mstack) in sig.stacks.iter().enumerate() {
                // Identical members produce identical searches.
                if mi > 0 && sig.stacks[mi - 1] == mstack {
                    continue;
                }
                let mframes = self.stacks.resolve(mstack);
                if !suffix_matches(frames, &mframes, d as usize) {
                    continue;
                }
                let members: Vec<usize> = (0..sig.stacks.len()).filter(|&i| i != mi).collect();
                let mut causes = Vec::new();
                if self.cover_rec(state, sig, d, &members, t, l, &mut causes) {
                    return Some((Arc::clone(sig), causes));
                }
            }
        }
        None
    }

    /// Covers `members` of `sig` at depth `d` with `Allowed` entries
    /// distinct in thread and lock from each other and from the requester
    /// `(t, l)`, appending them to `chosen`.
    #[allow(clippy::too_many_arguments)] // Recursive helper over packed search state.
    fn cover_rec(
        &self,
        state: &RefState,
        sig: &Signature,
        d: u8,
        members: &[usize],
        t: ThreadId,
        l: LockId,
        chosen: &mut Vec<YieldCause>,
    ) -> bool {
        let Some((&member, rest)) = members.split_first() else {
            return true;
        };
        let mframes = self.stacks.resolve(sig.stacks[member]);
        // Canonical cover order: the sharded engine sorts every bucket
        // snapshot by `(thread, lock, stack)` at cover time (its storage
        // order differs between extended and freshly built tables), so the
        // walk must try the entries in the same order for the decision
        // streams to stay byte-identical.
        let mut candidates: Vec<YieldCause> = state
            .entries
            .iter()
            .flat_map(|(&(thread, lock), stacks)| {
                stacks.iter().map(move |&stack| YieldCause {
                    thread,
                    lock,
                    stack,
                })
            })
            .filter(|e| suffix_matches(&self.stacks.resolve(e.stack), &mframes, d.into()))
            .collect();
        candidates.sort_unstable_by_key(|e| (e.thread.0, e.lock.0, e.stack.0));
        for &e in &candidates {
            let distinct = e.thread != t
                && e.lock != l
                && chosen
                    .iter()
                    .all(|c| c.thread != e.thread && c.lock != e.lock);
            if !distinct {
                continue;
            }
            chosen.push(e);
            if self.cover_rec(state, sig, d, rest, t, l, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }
}

impl std::fmt::Debug for ReferenceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceCore")
            .field("threads", &self.slot_alloc.allocated())
            .field("history_len", &self.history.len())
            .finish()
    }
}
