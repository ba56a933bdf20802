//! The resource allocation graph and its two cycle detectors.

use crate::ids::{LockId, ThreadId};
use dimmunix_signature::{IdMap, IdSet, StackId};
use std::collections::VecDeque;
use std::fmt;

/// Whether a thread's outstanding wait is a tentative `request` (yield in
/// force, will be retried) or a committed `allow` (thread is blocked on the
/// lock).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitKind {
    /// The thread wants the lock but Dimmunix told it to yield; the edge was
    /// "flipped around" from allow to request (§5.4).
    Request,
    /// The thread has been allowed to block waiting for the lock — "a
    /// commitment by a thread to block waiting for a lock" (§5.4).
    Allow,
}

/// One cause of a yield: the `(T′, L′, S′)` tuple from the `yieldCause` set
/// (§5.6) — thread `T′` holds (or is allowed to wait for) lock `L′` having
/// had call stack `S′`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct YieldCause {
    /// The thread whose acquisition would complete the signature instance.
    pub thread: ThreadId,
    /// The lock that thread holds or awaits.
    pub lock: LockId,
    /// The call stack with which it holds/awaits — the yield edge's label.
    pub stack: StackId,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct WaitEdge {
    lock: LockId,
    #[allow(dead_code)] // Kept for DOT export and debugging.
    stack: StackId,
    kind: WaitKind,
}

#[derive(Clone, Default, PartialEq, Eq, Debug)]
struct ThreadNode {
    /// At most one outstanding request/allow edge: a thread waits for one
    /// lock at a time.
    waiting: Option<WaitEdge>,
    /// Outgoing yield edges (one per cause in the matched signature).
    yields: Vec<YieldCause>,
    /// Locks currently held (multiset; reentrancy repeats the lock).
    holds: Vec<LockId>,
}

#[derive(Clone, Default, PartialEq, Eq, Debug)]
struct LockNode {
    /// Hold-edge multiset: `(holder, acquisition stack)` per nesting level.
    /// For a mutex all entries share one holder thread.
    holders: Vec<(ThreadId, StackId)>,
    /// Threads with a request/allow edge on this lock.
    waiters: IdSet<ThreadId>,
}

impl LockNode {
    /// Removes `t`'s innermost hold edge, if it has one.
    fn pop_holder(&mut self, t: ThreadId) {
        if let Some(pos) = self.holders.iter().rposition(|&(h, _)| h == t) {
            self.holders.remove(pos);
        }
    }
}

/// A deadlock cycle found in the RAG: a cycle made up exclusively of hold,
/// allow and request edges (§5.2).
#[derive(Clone, Debug)]
pub struct DeadlockCycle {
    /// The threads on the cycle, in cycle order.
    pub threads: Vec<ThreadId>,
    /// The locks on the cycle: `locks[i]` is awaited by `threads[i]` and held
    /// by `threads[(i + 1) % n]`.
    pub locks: Vec<LockId>,
    /// Labels of the hold edges on the cycle — the signature stacks (§5.3).
    pub labels: Vec<StackId>,
}

/// A thread caught in a detected starvation state.
#[derive(Clone, Copy, Debug)]
pub struct StarvedThread {
    /// The thread.
    pub thread: ThreadId,
    /// Whether it is starving on yield edges (as opposed to blocked on a
    /// lock). Only yielding threads can have their yield cancelled to break
    /// the starvation.
    pub yielding: bool,
    /// Number of hold edges it currently owns — the monitor breaks
    /// starvation by freeing "the starved thread holding most locks" (§3).
    pub holds: usize,
}

/// A yield cycle (induced starvation, §5.2): a set of mutually-stuck threads
/// at least one of which is stuck on yield edges.
#[derive(Clone, Debug)]
pub struct YieldCycle {
    /// The stuck threads, with hold counts for starvation breaking.
    pub threads: Vec<StarvedThread>,
    /// Multiset of the call-stack labels of all hold and yield edges in the
    /// cycle — the starvation signature (§5.3).
    pub labels: Vec<StackId>,
}

/// Aggregate size counters for resource accounting (§7.4).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct RagStats {
    /// Thread vertices currently present.
    pub threads: usize,
    /// Lock vertices currently present: the locks some thread holds or
    /// waits for. A lock vertex goes as soon as it has neither a holder nor
    /// a waiter, so the graph does not grow with every lock ever used.
    pub locks: usize,
    /// Hold edges (counting reentrant multiplicity).
    pub hold_edges: usize,
    /// Request + allow edges.
    pub wait_edges: usize,
    /// Yield edges.
    pub yield_edges: usize,
}

/// The monitor-side resource allocation graph.
///
/// Updated lazily from the event queue — "the RAG does not always provide an
/// up-to-date view of the program's synchronization state" (§5.1); that is
/// fine for cycle detection because deadlocked threads stop producing
/// events, so the graph converges on exactly the stuck subset.
///
/// Two graphs compare equal when every vertex, edge and pending-detection
/// mark agrees (the equivalence the fused [`Rag::on_granted`] is tested to).
/// A copy ([`Clone::clone_from`] included) copies just as much, into the
/// destination's own tables.
#[derive(Default)]
pub struct Rag {
    threads: IdMap<ThreadId, ThreadNode>,
    locks: IdMap<LockId, LockNode>,
    /// Threads whose outgoing edges changed since the last detection pass;
    /// new cycles must involve at least one of them.
    dirty: IdSet<ThreadId>,
    /// Emptied `holders` buffers of removed lock vertices, which new
    /// vertices take before allocating one. A vertex goes with its last
    /// holder, so without them every hold of a lock nobody else holds
    /// would allocate one. Every removed vertex leaves its buffer here, and
    /// a vertex allocates only when none is left, so these and the live
    /// vertices' buffers together never outnumber the most lock vertices
    /// the graph ever had at once: memory it already held. Not part of the
    /// graph: equality, `Debug` and copies ignore them.
    spare_holders: Vec<Vec<(ThreadId, StackId)>>,
}

impl Clone for Rag {
    fn clone(&self) -> Self {
        Self {
            threads: self.threads.clone(),
            locks: self.locks.clone(),
            dirty: self.dirty.clone(),
            spare_holders: Vec::new(),
        }
    }

    /// Copies `source` into this graph's own tables: a snapshot refreshed
    /// this way allocates only where `source` has outgrown it.
    fn clone_from(&mut self, source: &Self) {
        self.threads.clone_from(&source.threads);
        self.locks.clone_from(&source.locks);
        self.dirty.clone_from(&source.dirty);
    }
}

impl PartialEq for Rag {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads && self.locks == other.locks && self.dirty == other.dirty
    }
}

impl Eq for Rag {}

/// `l`'s vertex in `locks`, made with a spare `holders` buffer if it has
/// none. (A function of the two fields, so a caller can still touch the
/// others while it holds the vertex.)
fn lock_vertex<'a>(
    locks: &'a mut IdMap<LockId, LockNode>,
    spare_holders: &mut Vec<Vec<(ThreadId, StackId)>>,
    l: LockId,
) -> &'a mut LockNode {
    locks.entry(l).or_insert_with(|| LockNode {
        holders: spare_holders.pop().unwrap_or_default(),
        waiters: IdSet::default(),
    })
}

impl Rag {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadNode {
        self.threads.entry(t).or_default()
    }

    fn lock_mut(&mut self, l: LockId) -> &mut LockNode {
        lock_vertex(&mut self.locks, &mut self.spare_holders, l)
    }

    /// Applies `f` to `l`'s vertex, if it has one, and removes the vertex
    /// once nothing holds or waits for `l`, keeping its `holders` buffer.
    fn update_lock(&mut self, l: LockId, f: impl FnOnce(&mut LockNode)) {
        if let Some(lock) = self.locks.get_mut(&l) {
            f(lock);
            if lock.holders.is_empty() && lock.waiters.is_empty() {
                let lock = self.locks.remove(&l).expect("just found");
                self.spare_holders.push(lock.holders);
            }
        }
    }

    /// Draws a request edge: `t` wants `l` with call stack `s`. The monitor
    /// has no event that is only this — every request ends in a `go` or a
    /// `yield`, which draw the edge themselves — but a graph built by hand
    /// may want it.
    pub fn on_request(&mut self, t: ThreadId, l: LockId, s: StackId) {
        self.thread_mut(t).waiting = Some(WaitEdge {
            lock: l,
            stack: s,
            kind: WaitKind::Request,
        });
        self.lock_mut(l).waiters.insert(t);
        self.dirty.insert(t);
    }

    /// Applies a `go` event: `t` was allowed to block waiting for `l`.
    /// Clears `t`'s yield edges ("any yield edges emerging from the current
    /// thread's node are removed", §5.4).
    pub fn on_go(&mut self, t: ThreadId, l: LockId, s: StackId) {
        let node = self.thread_mut(t);
        node.waiting = Some(WaitEdge {
            lock: l,
            stack: s,
            kind: WaitKind::Allow,
        });
        node.yields.clear();
        self.lock_mut(l).waiters.insert(t);
        self.dirty.insert(t);
    }

    /// Applies a `yield` event: `t`'s allow edge is flipped to a request edge
    /// and a yield edge is added toward every cause.
    pub fn on_yield(&mut self, t: ThreadId, l: LockId, s: StackId, causes: Vec<YieldCause>) {
        let node = self.thread_mut(t);
        node.waiting = Some(WaitEdge {
            lock: l,
            stack: s,
            kind: WaitKind::Request,
        });
        node.yields = causes;
        self.lock_mut(l).waiters.insert(t);
        self.dirty.insert(t);
    }

    /// Applies an `acquired` event: `t` now holds `l` (one more nesting
    /// level), acquired with stack `s`.
    pub fn on_acquired(&mut self, t: ThreadId, l: LockId, s: StackId) {
        let node = self.thread_mut(t);
        if node.waiting.is_some_and(|w| w.lock == l) {
            node.waiting = None;
        }
        node.holds.push(l);
        let lock = self.lock_mut(l);
        lock.waiters.remove(&t);
        lock.holders.push((t, s));
        // The successor of every waiter of `l` just changed: they now wait on
        // `t`, which may close a cycle through old edges.
        self.dirty.insert(t);
        let waiters: Vec<ThreadId> = self.locks[&l].waiters.iter().copied().collect();
        self.dirty.extend(waiters);
    }

    /// Applies a `granted` event — `t` was allowed `l` and acquired it
    /// without waiting: [`Rag::on_go`] then [`Rag::on_acquired`] in one
    /// step. The allow edge the pair would draw and erase is never drawn;
    /// whatever wait edge `t` had is gone (the `go` would have overwritten
    /// it), as are its yield edges.
    pub fn on_granted(&mut self, t: ThreadId, l: LockId, s: StackId) {
        let node = self.thread_mut(t);
        node.waiting = None;
        node.yields.clear();
        node.holds.push(l);
        let lock = lock_vertex(&mut self.locks, &mut self.spare_holders, l);
        lock.waiters.remove(&t);
        lock.holders.push((t, s));
        // As in `on_acquired`: every waiter of `l` now waits on `t`.
        self.dirty.extend(lock.waiters.iter().copied());
        self.dirty.insert(t);
    }

    /// Applies a `release` event: pops the innermost hold edge of `(t, l)`.
    /// A lock left with no holder and no waiter loses its vertex.
    pub fn on_release(&mut self, t: ThreadId, l: LockId) {
        self.update_lock(l, |lock| lock.pop_holder(t));
        if let Some(node) = self.threads.get_mut(&t) {
            if let Some(pos) = node.holds.iter().rposition(|&h| h == l) {
                node.holds.remove(pos);
            }
        }
    }

    /// Applies a `cancel` event (timed-out try/timed lock, §6): withdraws the
    /// outstanding request/allow edge on `l` and any yield edges.
    pub fn on_cancel(&mut self, t: ThreadId, l: LockId) {
        if let Some(node) = self.threads.get_mut(&t) {
            if node.waiting.is_some_and(|w| w.lock == l) {
                node.waiting = None;
            }
            node.yields.clear();
        }
        self.update_lock(l, |lock| {
            lock.waiters.remove(&t);
        });
    }

    /// Removes a thread vertex (thread exit), and every lock vertex it
    /// leaves with no holder and no waiter.
    pub fn on_thread_exit(&mut self, t: ThreadId) {
        if let Some(node) = self.threads.remove(&t) {
            if let Some(w) = node.waiting {
                self.update_lock(w.lock, |lock| {
                    lock.waiters.remove(&t);
                });
            }
            for l in node.holds {
                self.update_lock(l, |lock| lock.pop_holder(t));
            }
        }
        self.dirty.remove(&t);
    }

    /// Marks every thread dirty, forcing the next detection pass to re-scan
    /// the whole graph. Used when detection state may have been lost — e.g.
    /// a monitor restarted from a RAG snapshot whose dirty set predates the
    /// events that were in flight when its predecessor died.
    pub fn mark_all_dirty(&mut self) {
        self.dirty.extend(self.threads.keys().copied());
    }

    /// Locks some thread has a request or allow edge on and no thread holds,
    /// ascending: where a waiter's "waiting for whom" has no answer in the
    /// graph. O(thread vertices).
    pub fn awaited_unheld(&self) -> Vec<LockId> {
        let unheld = |l: &LockId| self.locks.get(l).is_none_or(|n| n.holders.is_empty());
        let mut locks: Vec<LockId> = self
            .threads
            .values()
            .filter_map(|n| n.waiting.map(|w| w.lock))
            .filter(unheld)
            .collect();
        locks.sort_unstable();
        locks.dedup();
        locks
    }

    /// The holder of `l`'s hold edges, if any (a mutex has one holder
    /// thread; the stack is the innermost acquisition's).
    fn holder_of(&self, l: LockId) -> Option<(ThreadId, StackId)> {
        self.locks.get(&l).and_then(|n| n.holders.last().copied())
    }

    /// Finds deadlock cycles reachable from the threads touched since the
    /// last detection pass, consuming the dirty set.
    ///
    /// Works on the wait-for projection: `T → holder(lock T waits for)`.
    /// Because out-degree ≤ 1, the colored DFS is a stamped successor chase:
    /// nodes visited in this pass are never re-walked, so a batch costs
    /// O(threads) regardless of how many were dirty.
    pub fn find_deadlock_cycles(&mut self) -> Vec<DeadlockCycle> {
        let dirty: Vec<ThreadId> = self.dirty.drain().collect();
        let mut cycles = Vec::new();
        // Gray = position on the current path; Black = fully explored.
        let mut black: IdSet<ThreadId> = IdSet::default();
        for start in dirty {
            if black.contains(&start) || !self.threads.contains_key(&start) {
                continue;
            }
            let mut path: Vec<(ThreadId, LockId, StackId)> = Vec::new();
            let mut on_path: IdMap<ThreadId, usize> = IdMap::default();
            let mut cur = start;
            loop {
                if black.contains(&cur) {
                    break;
                }
                if let Some(&idx) = on_path.get(&cur) {
                    // Cycle: path[idx..] loops back to `cur`.
                    let cyc = &path[idx..];
                    cycles.push(DeadlockCycle {
                        threads: cyc.iter().map(|&(t, _, _)| t).collect(),
                        locks: cyc.iter().map(|&(_, l, _)| l).collect(),
                        labels: cyc.iter().map(|&(_, _, s)| s).collect(),
                    });
                    break;
                }
                let Some(wait) = self.threads.get(&cur).and_then(|n| n.waiting) else {
                    break;
                };
                let Some((holder, hold_stack)) = self.holder_of(wait.lock) else {
                    break;
                };
                if holder == cur {
                    // Reentrant re-acquisition in flight; not a deadlock.
                    break;
                }
                on_path.insert(cur, path.len());
                path.push((cur, wait.lock, hold_stack));
                cur = holder;
            }
            black.extend(on_path.into_keys());
            black.insert(cur);
        }
        cycles
    }

    /// Detects induced starvation (yield cycles) via a greatest-fixpoint
    /// "stuck set" computation.
    ///
    /// Start from every waiting or yielding thread and repeatedly delete any
    /// thread that can still make progress:
    ///
    /// * a blocked thread whose awaited lock is free or held by a
    ///   non-stuck thread can progress;
    /// * a yielding thread with **any** cause that no longer pins it (cause
    ///   thread gone, cause lock released, or cause thread not stuck) will
    ///   be woken and can progress;
    /// * a thread that is neither blocked nor yielding is trivially live.
    ///
    /// What remains are the maximal mutually-stuck groups; those containing
    /// at least one yield edge are reported as yield cycles. (Pure
    /// allow-edge groups are plain deadlocks, reported by
    /// [`Rag::find_deadlock_cycles`].)
    pub fn find_yield_cycles(&self) -> Vec<YieldCycle> {
        // Candidate stuck set.
        let mut stuck: IdSet<ThreadId> = self
            .threads
            .iter()
            .filter(|(_, n)| n.waiting.is_some() || !n.yields.is_empty())
            .map(|(&t, _)| t)
            .collect();
        if stuck.is_empty() {
            return Vec::new();
        }

        // Iterate removals to the greatest fixpoint.
        let mut queue: VecDeque<ThreadId> = stuck.iter().copied().collect();
        while let Some(t) = queue.pop_front() {
            if !stuck.contains(&t) {
                continue;
            }
            let node = &self.threads[&t];
            let alive = if !node.yields.is_empty() {
                // Yielding: progress iff some cause no longer pins it.
                node.yields.iter().any(|c| {
                    let cause_live = !stuck.contains(&c.thread);
                    let cause_gone = !self.threads.contains_key(&c.thread);
                    let lock_released = !self.locks.get(&c.lock).is_some_and(|l| {
                        l.holders.iter().any(|&(h, _)| h == c.thread)
                            || self
                                .threads
                                .get(&c.thread)
                                .and_then(|n| n.waiting)
                                .is_some_and(|w| w.lock == c.lock && w.kind == WaitKind::Allow)
                    });
                    cause_live || cause_gone || lock_released
                })
            } else if let Some(w) = node.waiting {
                match (w.kind, self.holder_of(w.lock)) {
                    // Request without yield edges: the thread is awake,
                    // deciding/retrying — it is not passively stuck.
                    (WaitKind::Request, _) => true,
                    // Blocked on a free lock: will acquire.
                    (WaitKind::Allow, None) => true,
                    // Blocked on a lock whose holder is live (or is itself —
                    // reentrancy): will be released.
                    (WaitKind::Allow, Some((h, _))) => h == t || !stuck.contains(&h),
                }
            } else {
                true
            };
            if alive {
                stuck.remove(&t);
                // Its liveness may liberate others; re-examine everyone who
                // could depend on it.
                for (&other, n) in &self.threads {
                    if stuck.contains(&other)
                        && (n.yields.iter().any(|c| c.thread == t)
                            || n.waiting.is_some_and(|w| {
                                self.holder_of(w.lock).is_some_and(|(h, _)| h == t)
                            }))
                    {
                        queue.push_back(other);
                    }
                }
            }
        }

        // Partition the stuck set into connected components over stuck-to-
        // stuck dependency edges, collecting labels as we go.
        let mut remaining: IdSet<ThreadId> = stuck.clone();
        let mut out = Vec::new();
        while let Some(&seed) = remaining.iter().next() {
            let mut component = Vec::new();
            let mut labels = Vec::new();
            let mut has_yield_edge = false;
            let mut work = vec![seed];
            let mut seen: IdSet<ThreadId> = IdSet::default();
            seen.insert(seed);
            while let Some(t) = work.pop() {
                remaining.remove(&t);
                let node = &self.threads[&t];
                component.push(StarvedThread {
                    thread: t,
                    yielding: !node.yields.is_empty(),
                    holds: node.holds.len(),
                });
                if !node.yields.is_empty() {
                    // Yielding thread: the cycle runs through its yield
                    // edges; the flipped request edge is not part of it.
                    for c in &node.yields {
                        if stuck.contains(&c.thread) {
                            has_yield_edge = true;
                            labels.push(c.stack);
                            if seen.insert(c.thread) {
                                work.push(c.thread);
                            }
                        }
                    }
                } else if let Some(w) = node.waiting {
                    // Blocked thread: the cycle continues through the hold
                    // edge of the lock it waits for.
                    if let Some((h, s)) = self.holder_of(w.lock) {
                        if stuck.contains(&h) && h != t {
                            labels.push(s);
                            if seen.insert(h) {
                                work.push(h);
                            }
                        }
                    }
                }
            }
            if has_yield_edge {
                component.sort_by_key(|s| s.thread);
                out.push(YieldCycle {
                    threads: component,
                    labels,
                });
            }
        }
        out
    }

    /// Whether `t` currently has yield edges.
    pub fn is_yielding(&self, t: ThreadId) -> bool {
        self.threads.get(&t).is_some_and(|n| !n.yields.is_empty())
    }

    /// Number of hold edges owned by `t`.
    pub fn holds_of(&self, t: ThreadId) -> usize {
        self.threads.get(&t).map_or(0, |n| n.holds.len())
    }

    /// The locks currently held by `t` (multiset, outermost acquisition
    /// first).
    pub fn held_locks(&self, t: ThreadId) -> Vec<LockId> {
        self.threads
            .get(&t)
            .map(|n| n.holds.clone())
            .unwrap_or_default()
    }

    /// Size counters for resource accounting.
    pub fn stats(&self) -> RagStats {
        RagStats {
            threads: self.threads.len(),
            locks: self.locks.len(),
            hold_edges: self.locks.values().map(|l| l.holders.len()).sum(),
            wait_edges: self
                .threads
                .values()
                .filter(|n| n.waiting.is_some())
                .count(),
            yield_edges: self.threads.values().map(|n| n.yields.len()).sum(),
        }
    }

    /// Visits every vertex and edge (used by the DOT exporter).
    pub(crate) fn visit(
        &self,
        mut on_thread: impl FnMut(ThreadId),
        mut on_lock: impl FnMut(LockId),
        mut on_wait: impl FnMut(ThreadId, LockId, WaitKind),
        mut on_hold: impl FnMut(LockId, ThreadId, StackId),
        mut on_yield: impl FnMut(ThreadId, &YieldCause),
    ) {
        let mut ts: Vec<_> = self.threads.keys().copied().collect();
        ts.sort_unstable();
        let mut ls: Vec<_> = self.locks.keys().copied().collect();
        ls.sort_unstable();
        for &t in &ts {
            on_thread(t);
        }
        for &l in &ls {
            on_lock(l);
        }
        for &t in &ts {
            let n = &self.threads[&t];
            if let Some(w) = n.waiting {
                on_wait(t, w.lock, w.kind);
            }
            for c in &n.yields {
                on_yield(t, c);
            }
        }
        for &l in &ls {
            for &(h, s) in &self.locks[&l].holders {
                on_hold(l, h, s);
            }
        }
    }
}

impl fmt::Debug for Rag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rag").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: StackId = StackId(0);

    fn s(n: u32) -> StackId {
        StackId(n)
    }

    fn t(n: u64) -> ThreadId {
        ThreadId(n)
    }

    fn l(n: u64) -> LockId {
        LockId(n)
    }

    /// Classic two-thread AB/BA deadlock.
    fn two_thread_deadlock(rag: &mut Rag) {
        rag.on_go(t(1), l(1), s(11));
        rag.on_acquired(t(1), l(1), s(11));
        rag.on_go(t(2), l(2), s(22));
        rag.on_acquired(t(2), l(2), s(22));
        rag.on_go(t(1), l(2), s(12));
        rag.on_go(t(2), l(1), s(21));
    }

    #[test]
    fn detects_two_thread_deadlock() {
        let mut rag = Rag::new();
        two_thread_deadlock(&mut rag);
        let cycles = rag.find_deadlock_cycles();
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.threads.len(), 2);
        let mut labels = c.labels.clone();
        labels.sort_unstable();
        // Signature = stacks of the *held* locks: T1 holds L1 with s11, T2
        // holds L2 with s22.
        assert_eq!(labels, vec![s(11), s(22)]);
    }

    #[test]
    fn no_cycle_without_contention() {
        let mut rag = Rag::new();
        rag.on_go(t(1), l(1), S);
        rag.on_acquired(t(1), l(1), S);
        rag.on_go(t(2), l(1), S);
        assert!(rag.find_deadlock_cycles().is_empty());
        // And nothing is starved: T1 runs free.
        assert!(rag.find_yield_cycles().is_empty());
    }

    #[test]
    fn cycle_not_rereported_when_clean() {
        let mut rag = Rag::new();
        two_thread_deadlock(&mut rag);
        assert_eq!(rag.find_deadlock_cycles().len(), 1);
        // No new events: the dirty set is empty, nothing is reported.
        assert!(rag.find_deadlock_cycles().is_empty());
    }

    #[test]
    fn detects_three_thread_cycle() {
        let mut rag = Rag::new();
        for i in 1..=3 {
            rag.on_go(t(i), l(i), s(i as u32));
            rag.on_acquired(t(i), l(i), s(i as u32));
        }
        rag.on_go(t(1), l(2), S);
        rag.on_go(t(2), l(3), S);
        assert!(rag.find_deadlock_cycles().is_empty());
        rag.on_go(t(3), l(1), S);
        let cycles = rag.find_deadlock_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].threads.len(), 3);
        let mut labels = cycles[0].labels.clone();
        labels.sort_unstable();
        assert_eq!(labels, vec![s(1), s(2), s(3)]);
    }

    #[test]
    fn request_edges_participate_in_deadlock_cycles() {
        // §5.2: deadlock cycles are made of hold, allow *and request* edges.
        let mut rag = Rag::new();
        rag.on_go(t(1), l(1), S);
        rag.on_acquired(t(1), l(1), s(11));
        rag.on_go(t(2), l(2), S);
        rag.on_acquired(t(2), l(2), s(22));
        rag.on_go(t(1), l(2), S);
        // T2 was told to yield: request edge + yield edge toward T1.
        rag.on_yield(
            t(2),
            l(1),
            S,
            vec![YieldCause {
                thread: t(1),
                lock: l(1),
                stack: s(11),
            }],
        );
        let cycles = rag.find_deadlock_cycles();
        assert_eq!(cycles.len(), 1);
    }

    #[test]
    fn release_breaks_cycle_formation() {
        let mut rag = Rag::new();
        rag.on_go(t(1), l(1), S);
        rag.on_acquired(t(1), l(1), S);
        rag.on_go(t(2), l(2), S);
        rag.on_acquired(t(2), l(2), S);
        rag.on_release(t(1), l(1));
        rag.on_go(t(1), l(2), S);
        rag.on_go(t(2), l(1), S);
        assert!(rag.find_deadlock_cycles().is_empty());
    }

    #[test]
    fn reentrant_holds_are_a_multiset() {
        let mut rag = Rag::new();
        rag.on_acquired(t(1), l(1), s(1));
        rag.on_acquired(t(1), l(1), s(2));
        assert_eq!(rag.stats().hold_edges, 2);
        rag.on_release(t(1), l(1));
        assert_eq!(rag.stats().hold_edges, 1);
        // The remaining hold edge is the outermost acquisition.
        assert_eq!(rag.holder_of(l(1)), Some((t(1), s(1))));
        rag.on_release(t(1), l(1));
        assert_eq!(rag.stats().hold_edges, 0);
    }

    #[test]
    fn self_wait_on_reentrant_lock_is_not_deadlock() {
        let mut rag = Rag::new();
        rag.on_acquired(t(1), l(1), S);
        rag.on_go(t(1), l(1), S);
        assert!(rag.find_deadlock_cycles().is_empty());
    }

    #[test]
    fn cancel_withdraws_wait_edge() {
        let mut rag = Rag::new();
        rag.on_acquired(t(1), l(1), S);
        rag.on_acquired(t(2), l(2), S);
        rag.on_go(t(1), l(2), S);
        rag.on_request(t(2), l(1), S);
        rag.on_cancel(t(2), l(1));
        assert!(rag.find_deadlock_cycles().is_empty());
        assert_eq!(rag.stats().wait_edges, 1);
    }

    /// A lock vertex lives only while the lock is held or awaited: a
    /// monitor that has seen many short-lived locks keeps none of them.
    #[test]
    fn released_and_cancelled_locks_leave_no_vertex() {
        let mut rag = Rag::new();
        for i in 0..100 {
            rag.on_granted(t(1), l(i), S);
            rag.on_release(t(1), l(i));
        }
        assert_eq!(rag.stats().locks, 0);
        // Reentrant: the vertex stays until the last level goes.
        rag.on_acquired(t(1), l(1), S);
        rag.on_acquired(t(1), l(1), S);
        rag.on_release(t(1), l(1));
        assert_eq!(rag.stats().locks, 1);
        rag.on_release(t(1), l(1));
        assert_eq!(rag.stats().locks, 0);
        // A waiter keeps an unheld lock's vertex; its cancel drops it.
        rag.on_granted(t(1), l(2), S);
        rag.on_go(t(2), l(2), S);
        rag.on_release(t(1), l(2));
        assert_eq!(rag.stats().locks, 1);
        assert_eq!(rag.awaited_unheld(), vec![l(2)]);
        rag.on_cancel(t(2), l(2));
        assert_eq!(rag.stats().locks, 0);
    }

    #[test]
    fn thread_exit_releases_everything() {
        let mut rag = Rag::new();
        rag.on_acquired(t(1), l(1), S);
        rag.on_go(t(1), l(2), S);
        rag.on_acquired(t(2), l(3), S);
        rag.on_go(t(2), l(1), S);
        rag.on_thread_exit(t(1));
        let st = rag.stats();
        assert_eq!(st.threads, 1);
        assert_eq!(st.hold_edges, 1);
        assert_eq!(st.wait_edges, 1);
        // `l(2)` only t1 awaited; `l(1)` t2 still awaits.
        assert_eq!(st.locks, 2);
        rag.on_thread_exit(t(2));
        assert_eq!(rag.stats(), RagStats::default());
    }

    /// Figure 2's yield cycle: T13 yields on T22, T22 blocked on L7 held by
    /// T13.
    #[test]
    fn figure2_yield_cycle_signature() {
        let mut rag = Rag::new();
        let sx = s(100); // T22's acquisition stack (the yield cause label).
        let sy = s(200); // T13's stack holding L7.
        rag.on_acquired(t(13), l(7), sy);
        rag.on_acquired(t(22), l(5), sx);
        rag.on_go(t(22), l(7), S);
        rag.on_yield(
            t(13),
            l(5),
            S,
            vec![YieldCause {
                thread: t(22),
                lock: l(5),
                stack: sx,
            }],
        );
        let cycles = rag.find_yield_cycles();
        assert_eq!(cycles.len(), 1);
        let mut labels = cycles[0].labels.clone();
        labels.sort_unstable();
        assert_eq!(labels, vec![sx, sy], "signature must be {{Sx, Sy}}");
        assert_eq!(cycles[0].threads.len(), 2);
        let yielder = cycles[0]
            .threads
            .iter()
            .find(|st| st.thread == t(13))
            .unwrap();
        assert!(yielder.yielding);
        assert_eq!(yielder.holds, 1);
    }

    /// Figure 3: T4 can evade through T5, so nothing is starved; once T5's
    /// escape is closed, the whole group starves.
    #[test]
    fn figure3_starvation_requires_all_escapes_closed() {
        let mut rag = Rag::new();
        // L is held by T4; T3 blocks on L.
        rag.on_acquired(t(4), l(10), s(4));
        rag.on_go(t(3), l(10), S);
        // T1 holds a lock L1 that T2 blocks on, closing cycle (T1,T2,..,T1)
        // via T1's yield on T2; T1 also yields on T3.
        rag.on_acquired(t(1), l(1), s(1));
        rag.on_acquired(t(2), l(2), s(2));
        rag.on_go(t(2), l(1), S);
        rag.on_yield(
            t(1),
            l(99),
            S,
            vec![
                YieldCause {
                    thread: t(2),
                    lock: l(2),
                    stack: s(2),
                },
                YieldCause {
                    thread: t(3),
                    lock: l(10),
                    stack: s(3),
                },
            ],
        );
        // T3 also needs to be pinned: it blocks on L (held by T4). T4 yields
        // on T5 and T6. T6 is blocked on T1's lock (returns to T1). T5 is
        // initially FREE (holds nothing, not waiting): T4 can evade.
        rag.on_acquired(t(5), l(5), s(5));
        rag.on_acquired(t(6), l(6), s(6));
        rag.on_go(t(6), l(1), S);
        rag.on_yield(
            t(4),
            l(98),
            S,
            vec![
                YieldCause {
                    thread: t(5),
                    lock: l(5),
                    stack: s(5),
                },
                YieldCause {
                    thread: t(6),
                    lock: l(6),
                    stack: s(6),
                },
            ],
        );
        // T5 is live (no waiting, no yields): it will release L5 and wake T4.
        assert!(
            rag.find_yield_cycles().is_empty(),
            "T4 must evade through live T5"
        );
        // Close the escape: T5 now blocks on T1's lock as well.
        rag.on_go(t(5), l(1), S);
        let cycles = rag.find_yield_cycles();
        assert_eq!(cycles.len(), 1, "closing T5's escape starves the group");
        let threads: Vec<_> = cycles[0].threads.iter().map(|st| st.thread).collect();
        for id in [1, 2, 3, 4, 5, 6] {
            assert!(threads.contains(&t(id)), "T{id} must be in the group");
        }
    }

    #[test]
    fn yielding_thread_with_live_cause_is_not_starved() {
        let mut rag = Rag::new();
        rag.on_acquired(t(2), l(2), s(2));
        rag.on_yield(
            t(1),
            l(2),
            S,
            vec![YieldCause {
                thread: t(2),
                lock: l(2),
                stack: s(2),
            }],
        );
        // T2 holds L2 but is otherwise live: it will release eventually.
        assert!(rag.find_yield_cycles().is_empty());
    }

    #[test]
    fn released_cause_unpins_yielder() {
        let mut rag = Rag::new();
        rag.on_acquired(t(2), l(2), s(2));
        // T2 blocks on a lock held by a blocked T3 → T2 is stuck.
        rag.on_acquired(t(3), l(3), s(3));
        rag.on_go(t(2), l(3), S);
        rag.on_go(t(3), l(2), S);
        rag.on_yield(
            t(1),
            l(2),
            S,
            vec![YieldCause {
                thread: t(2),
                lock: l(2),
                stack: s(2),
            }],
        );
        // T1 pinned by stuck T2 → starved group (T1 via yield, T2/T3 deadlocked).
        assert_eq!(rag.find_yield_cycles().len(), 1);
        // Now T2 releases L2 (hypothetically): the cause lock is freed, so
        // T1 is woken even though T2 is still stuck on L3.
        rag.on_release(t(2), l(2));
        assert!(rag.find_yield_cycles().is_empty());
    }

    /// A lock vertex goes with its last holder and lends its `holders`
    /// buffer to the next new vertex. The kept buffers are no part of the
    /// graph: a copy has none, and equality ignores them.
    #[test]
    fn a_removed_lock_vertex_lends_its_buffer_to_the_next() {
        let mut rag = Rag::new();
        rag.on_granted(t(1), l(1), S);
        let buffer = rag.locks[&l(1)].holders.as_ptr();
        rag.on_release(t(1), l(1));
        assert!(rag.locks.is_empty());
        assert_eq!(rag.spare_holders.len(), 1);
        let copy = rag.clone();
        assert!(copy.spare_holders.is_empty());
        assert!(copy == rag);

        rag.on_granted(t(2), l(2), S);
        assert_eq!(rag.locks[&l(2)].holders.as_ptr(), buffer);
        assert!(rag.spare_holders.is_empty());
        let mut snapshot = copy;
        snapshot.clone_from(&rag);
        assert!(snapshot == rag);
        assert_eq!(snapshot.held_locks(t(2)), [l(2)]);

        // Kept and live buffers never outnumber the most vertices at once.
        for i in 3..6 {
            rag.on_granted(t(2), l(i), S);
        }
        for i in 2..6 {
            rag.on_release(t(2), l(i));
        }
        assert_eq!(rag.spare_holders.len(), 4);
        rag.on_granted(t(3), l(9), S);
        assert_eq!(rag.spare_holders.len() + rag.locks.len(), 4);
    }

    #[test]
    fn stats_count_all_edge_types() {
        let mut rag = Rag::new();
        rag.on_acquired(t(1), l(1), S);
        rag.on_go(t(2), l(1), S);
        rag.on_yield(
            t(3),
            l(1),
            S,
            vec![YieldCause {
                thread: t(1),
                lock: l(1),
                stack: S,
            }],
        );
        let st = rag.stats();
        assert_eq!(st.threads, 3);
        assert_eq!(st.locks, 1);
        assert_eq!(st.hold_edges, 1);
        assert_eq!(st.wait_edges, 2);
        assert_eq!(st.yield_edges, 1);
    }
}
