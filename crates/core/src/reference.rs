//! The pre-refactor avoidance engine, preserved verbatim in behavior.
//!
//! Before the request path was sharded (per-thread `Allowed` logs that
//! double as held-lock stacks, epoch-published match view, per-thread
//! event lanes), every
//! `request`/`acquired`/`release` from every thread serialized through one
//! global critical section around a monolithic state. This module keeps
//! that engine alive as an oracle: the **differential property test**
//! (`tests/prop_differential.rs`), the chaos suite and the explorer's
//! lockstep shadow replay schedules through both engines and assert
//! byte-identical GO/YIELD decision streams — the sharding must be a pure
//! performance refactor. The critical section is a plain mutex; the paper's
//! Peterson-style guard (§5.6) is not reproduced, and nothing measures
//! this engine's speed.
//!
//! The oracle matches the way the paper does (§5.6): every `request` walks
//! the history and compares the call stack with each member stack at the
//! signature's depth. It shares **no matching code** with the sharded
//! engine — no candidate index, no bucket layout, no emptiness precheck —
//! so every lockstep run compares the engine's index against the walk it
//! replaces.
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
//! and builds no yield report — what the lockstep harnesses compare is the
//! decision, the signature yielded on, the yield causes and the wake lists.
//! It is not wired into [`crate::runtime::Runtime`]; real workloads always
//! run the sharded [`crate::avoidance::AvoidanceCore`].

use crate::avoidance::Decision;
use crate::config::{Config, RuntimeMode, MAX_THREADS};
use dimmunix_lockfree::SlotAllocator;
use dimmunix_rag::{LockId, ThreadId, YieldCause};
use dimmunix_signature::{
    suffix_matches, suffix_of, FrameId, History, Signature, StackId, StackTable,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct AllowedEntry {
    t: ThreadId,
    l: LockId,
    stack: StackId,
}

/// The monolithic state — master `Allowed` multiset, suffix buckets and
/// yielding set all behind one mutex.
struct RefState {
    entries: HashMap<(ThreadId, LockId), Vec<StackId>>,
    buckets: HashMap<u8, HashMap<Box<[FrameId]>, Vec<AllowedEntry>>>,
    depths: Vec<u8>,
    yielding: HashMap<ThreadId, Vec<YieldCause>>,
    built_gen: u64,
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
            state: Mutex::new(RefState {
                entries: HashMap::new(),
                buckets: HashMap::new(),
                depths: Vec::new(),
                yielding: HashMap::new(),
                built_gen: u64::MAX,
            }),
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

    /// Deregisters `t`.
    pub fn unregister_thread(&self, t: ThreadId) {
        {
            let state = &mut *self.state.lock();
            state.yielding.remove(&t);
            let stale: Vec<(ThreadId, LockId)> = state
                .entries
                .keys()
                .filter(|&&(et, _)| et == t)
                .copied()
                .collect();
            for key in stale {
                while Self::remove_entry_inner(&self.stacks, state, key.0, key.1).is_some() {}
            }
        }
        self.slot_alloc.release(t.0 as usize);
    }

    /// The pre-refactor `request` hook: one global critical section per
    /// call, inline rebuild on history-generation change. Yields are always
    /// enforced (the differential/bench harnesses run the default
    /// configuration).
    pub fn request(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) -> Decision {
        let full = self.config.mode == RuntimeMode::Full;
        let state = &mut *self.state.lock();
        self.refresh(state);
        let instance = if full && !state.depths.is_empty() {
            self.find_instance(state, t, l, frames)
        } else {
            None
        };
        match instance {
            None => {
                Self::add_entry(state, t, l, frames, stack);
                state.yielding.remove(&t);
                Decision::Go
            }
            Some((sig, causes)) => {
                state.yielding.insert(t, causes);
                Decision::Yield { sig }
            }
        }
    }

    /// The `acquired` hook: a no-op. The GO already entered the `Allowed`
    /// entry, and no decision reads who owns a lock. Kept so lockstep
    /// harnesses drive both engines through the same hooks.
    pub fn acquired(&self, _t: ThreadId, _l: LockId, _stack: StackId) {}

    /// Reentrant re-acquisition: records the nesting level's entry.
    pub fn acquired_reentrant(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) {
        let state = &mut *self.state.lock();
        self.refresh(state);
        Self::add_entry(state, t, l, frames, stack);
    }

    /// The pre-refactor `release` hook: linear scan over all yielders'
    /// causes inside the global critical section.
    pub fn release(&self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        let state = &mut *self.state.lock();
        Self::remove_entry_inner(&self.stacks, state, t, l);
        state
            .yielding
            .iter()
            .filter(|(_, causes)| causes.iter().any(|c| c.thread == t && c.lock == l))
            .map(|(&yt, _)| yt)
            .collect()
    }

    /// The pre-refactor equivalent of the sharded engine's `force_go`:
    /// grants the request without consulting the history (used when a yield
    /// is broken by the monitor or times out, §3). Records the `Allowed`
    /// entry and clears the yielding registration — the sharded path's
    /// bookkeeping, so lockstep shadows can follow starvation-break and
    /// timeout schedules.
    pub fn force_go(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) {
        let state = &mut *self.state.lock();
        self.refresh(state);
        Self::add_entry(state, t, l, frames, stack);
        state.yielding.remove(&t);
    }

    /// The pre-refactor `cancel` hook.
    pub fn cancel(&self, t: ThreadId, l: LockId) {
        let state = &mut *self.state.lock();
        Self::remove_entry_inner(&self.stacks, state, t, l);
        state.yielding.remove(&t);
    }

    fn refresh(&self, state: &mut RefState) {
        let gen = self.history.generation();
        if state.built_gen == gen {
            return;
        }
        let snapshot = self.history.snapshot();
        let mut depths: Vec<u8> = snapshot
            .iter()
            .filter(|s| !s.is_disabled())
            .map(|s| s.depth())
            .collect();
        depths.sort_unstable();
        depths.dedup();
        state.depths = depths;
        state.buckets.clear();
        // Deterministic rebuild order (sorted by thread, lock) so yield
        // causes don't depend on hash-map iteration order — must match the
        // sharded engine's slot-order sweep.
        let mut keys: Vec<(ThreadId, LockId)> = state.entries.keys().copied().collect();
        keys.sort_unstable_by_key(|&(t, l)| (t, l));
        let entries: Vec<AllowedEntry> = keys
            .into_iter()
            .flat_map(|(t, l)| {
                state.entries[&(t, l)]
                    .iter()
                    .map(move |&stack| AllowedEntry { t, l, stack })
                    .collect::<Vec<_>>()
            })
            .collect();
        for e in entries {
            let frames = self.stacks.resolve(e.stack);
            Self::bucket_insert(state, &frames, e);
        }
        state.built_gen = gen;
    }

    fn bucket_insert(state: &mut RefState, frames: &[FrameId], e: AllowedEntry) {
        for &d in &state.depths {
            let suffix = suffix_of(frames, d as usize);
            let per_depth = state.buckets.entry(d).or_default();
            if let Some(v) = per_depth.get_mut(suffix) {
                v.push(e);
            } else {
                per_depth.insert(suffix.into(), vec![e]);
            }
        }
    }

    fn add_entry(state: &mut RefState, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) {
        state.entries.entry((t, l)).or_default().push(stack);
        Self::bucket_insert(state, frames, AllowedEntry { t, l, stack });
    }

    fn remove_entry_inner(
        stacks: &StackTable,
        state: &mut RefState,
        t: ThreadId,
        l: LockId,
    ) -> Option<StackId> {
        let vec = state.entries.get_mut(&(t, l))?;
        let stack = vec.pop()?;
        if vec.is_empty() {
            state.entries.remove(&(t, l));
        }
        let frames = stacks.resolve(stack);
        let entry = AllowedEntry { t, l, stack };
        for &d in &state.depths {
            let suffix = suffix_of(&frames, d as usize);
            if let Some(per_depth) = state.buckets.get_mut(&d) {
                if let Some(v) = per_depth.get_mut(suffix) {
                    if let Some(pos) = v.iter().position(|e| *e == entry) {
                        v.swap_remove(pos);
                    }
                }
            }
        }
        Some(stack)
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
        let suffix = suffix_of(&mframes, d as usize);
        let Some(candidates) = state.buckets.get(&d).and_then(|m| m.get(suffix)) else {
            return false;
        };
        // Canonical cover order: the sharded engine sorts every bucket
        // snapshot by `(thread, lock, stack)` at cover time (its storage
        // order differs between extended and freshly built tables),
        // so the reference must search in the same order for the
        // differential decision streams to stay byte-identical.
        let mut candidates: Vec<AllowedEntry> = candidates.clone();
        candidates.sort_unstable_by_key(|e| (e.t.0, e.l.0, e.stack.0));
        for e in &candidates {
            let distinct =
                e.t != t && e.l != l && chosen.iter().all(|c| c.thread != e.t && c.lock != e.l);
            if !distinct {
                continue;
            }
            chosen.push(YieldCause {
                thread: e.t,
                lock: e.l,
                stack: e.stack,
            });
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
