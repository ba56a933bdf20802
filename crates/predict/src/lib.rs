//! # Proactive deadlock prediction for Dimmunix
//!
//! The OSDI'08 system only develops immunity *after* suffering each
//! deadlock pattern once: the monitor archives a signature when the RAG
//! contains an actual cycle. This crate closes that gap with a
//! Goodlock-style **lock-order-graph predictor**: it watches the same
//! monitor-side event stream (acquisitions and releases — never the
//! request hot path), maintains a cross-thread lock-order graph, and
//! reports order cycles that are *feasible* deadlocks — cycles for which
//! one ordering instance per edge can be chosen with pairwise-distinct
//! threads and pairwise-disjoint **guard sets** (the gate locks held
//! around each ordering; a common gate serializes the critical sections,
//! so such a cycle can never actually close — the classic gate-lock
//! false-positive suppression).
//!
//! # The condensation pass
//!
//! Scaling to thousands of locks is what the [`scc`] module buys: the
//! predictor maintains an **incrementally updated SCC condensation** of
//! the order graph (Pearce–Kelly dynamic topological order, Tarjan per
//! affected component). Each pass then decomposes into
//! **merge → enumerate → feasibility-filter → vaccinate**:
//!
//! 1. **Merge** — every new edge is checked against the condensation's
//!    topological order when it is recorded: the common acyclic edge is
//!    proven cycle-free in O(log n) and never enters the work queue; an
//!    order-violating edge triggers a restructure bounded by the affected
//!    region, merging components when it closes a cycle.
//! 2. **Enumerate** — cycle enumeration runs only through edges that
//!    landed *inside* an SCC (every genuinely new cycle passes through
//!    the edge that closed it), restricted to that component's members
//!    and the [`MAX_CYCLE_LEN`] depth bound.
//! 3. **Feasibility-filter** — each enumerated lock cycle gets one
//!    instance chosen per edge with pairwise-distinct threads and
//!    pairwise-disjoint guard sets (gate-lock suppression), from the
//!    cycle's canonical rotation so the chosen combination is independent
//!    of discovery order.
//! 4. **Vaccinate** — a feasible cycle synthesizes a real deadlock
//!    signature: each chosen instance contributes the call stack with
//!    which its thread *held* the edge's source lock — exactly the
//!    hold-edge label the RAG's cycle detector would have reported had
//!    the deadlock fired. The monitor archives those labels through the
//!    ordinary history path (tagged
//!    [`dimmunix_signature::Provenance::Predicted`]), so the avoidance
//!    engine yields threads away from the pattern **before its first
//!    manifestation** — first-run immunity.
//!
//! A pass that exhausts `pass_budget` mid-enumeration **defers** — the
//! paused search (and the rest of the queue) resumes exactly where it
//! stopped at the next pass. Nothing is ever abandoned: the old
//! restart-from-scratch DFS had to drop edges whose search could not
//! finish within one whole budget, a soundness hole the persistent
//! condensation removes.
//!
//! Long-running processes stay bounded through **lock aging**: a lock
//! unheld and order-quiescent for `lock_retire_after` passes is retired
//! from the graph and the condensation (splitting its component if
//! needed), so the graph tracks the working set, not the process
//! lifetime.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graph;
mod scc;

use graph::{EdgeInstance, LockOrderGraph, Recorded};
use scc::{Condensation, EdgeOutcome};

use dimmunix_rag::{LockId, ThreadId};
use dimmunix_signature::{IdMap, IdSet, StackId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Minimum number of edges (== threads) in a reported cycle: the classic
/// two-lock inversion.
pub const MIN_CYCLE_LEN: usize = 2;

/// Maximum number of edges in a searched cycle; bounds the enumeration
/// depth.
pub const MAX_CYCLE_LEN: usize = 4;

/// Tunables of the prediction subsystem.
#[derive(Clone, Debug)]
pub struct PredictionConfig {
    /// Upper bound on predicted signatures synthesized into the history
    /// by one process (the monitor stops archiving — but keeps counting —
    /// beyond it).
    pub max_predicted: usize,
    /// Per-edge cap on stored ordering instances.
    pub max_instances_per_edge: usize,
    /// Global cap on stored ordering instances (graph memory bound).
    pub max_edge_instances: usize,
    /// Cycle-enumeration step budget per [`Predictor::pass`]; an
    /// exhausted pass *defers* — the paused enumeration and remaining
    /// queue resume at the next pass, never dropped.
    pub pass_budget: usize,
    /// Passes a lock may stay quiescent — unheld by every thread and
    /// recording no new orderings — before it is retired from the order
    /// graph and condensation (lock aging). `0` disables aging.
    ///
    /// The clock counts what the predictor is fed: orderings, and the holds
    /// and releases the monitor publishes to it. A lock a thread takes
    /// while holding nothing, on a stack no signature names, and releases
    /// before anyone waits for it is never published (the core's quiet
    /// holds), so such use does not reset the clock: a lock used only that
    /// way retires like one left untouched. It can order nothing either,
    /// until a thread nests another lock inside it — which publishes it.
    pub lock_retire_after: u64,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        Self {
            max_predicted: 128,
            max_instances_per_edge: 8,
            max_edge_instances: 1 << 16,
            pass_budget: 1 << 13,
            lock_retire_after: 1 << 12,
        }
    }
}

/// One feasible deadlock the predictor found.
#[derive(Clone, Debug)]
pub struct PredictedCycle {
    /// The synthesized signature's member stacks (sorted multiset): one
    /// hold stack per cycle edge.
    pub labels: Vec<StackId>,
    /// Number of threads (== locks == edges) on the cycle.
    pub threads: usize,
}

/// Monotonic predictor counters (telemetry).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct PredictorStats {
    /// Feasible cycles reported (each becomes a candidate vaccine).
    pub cycles_predicted: u64,
    /// Distinct lock cycles refuted because every instance combination
    /// was blocked by a shared gate lock (or a cycle lock inside a guard
    /// set), counted once per cycle lock set.
    pub guard_suppressed: u64,
    /// Ordering observations dropped by the instance caps. Unlike the
    /// old budgeted-DFS design, pass-budget exhaustion never drops an
    /// edge — it defers (see [`PredictorStats::deferred`]).
    pub dropped: u64,
    /// Times a pass ran out of budget and parked its enumeration state
    /// for the next pass. Work is delayed, never lost.
    pub deferred: u64,
    /// Component merges performed by the condensation (each one flagged
    /// at least one candidate cycle for enumeration).
    pub scc_merges: u64,
    /// Largest strongly-connected component ever formed (gauge).
    pub scc_component_peak: u64,
    /// Graph edges removed by lock aging.
    pub edges_retired: u64,
    /// Live edge instances in the order graph (gauge).
    pub edge_instances: u64,
    /// Locks present in the order graph (gauge).
    pub locks: u64,
}

/// A cycle enumeration paused by budget exhaustion, parked across passes.
#[derive(Clone, Debug)]
struct Enumeration {
    /// The dirty edge's source: the DFS target closing the cycle.
    src: LockId,
    /// Current lock path, starting `[src, dst, ...]`.
    path: Vec<LockId>,
    /// DFS frames: (sorted successor snapshot, cursor).
    frames: Vec<(Vec<LockId>, usize)>,
}

/// The online lock-order-graph deadlock predictor. One per monitor; not
/// thread-safe (the monitor owns it). `Clone` snapshots the complete
/// state — the monitor's supervisor keeps a copy from the last successful
/// pass so a restarted monitor resumes prediction instead of relearning
/// the graph.
#[derive(Clone, Debug)]
pub struct Predictor {
    cfg: PredictionConfig,
    graph: LockOrderGraph,
    /// Incrementally maintained SCC condensation of `graph`.
    scc: Condensation,
    /// Per-thread held multiset: `(lock, acquisition stack)` in acquisition
    /// order (reentrancy repeats the lock).
    held: IdMap<ThreadId, Vec<(LockId, StackId)>>,
    /// Edges that landed inside an SCC and await cycle enumeration.
    dirty: VecDeque<(LockId, LockId)>,
    dirty_set: IdSet<(LockId, LockId)>,
    /// Enumeration paused by budget exhaustion, resumed next pass.
    pending: Option<Enumeration>,
    /// Label multisets already reported (prevents re-emission and
    /// re-searching known cycles every pass).
    emitted: IdSet<Vec<StackId>>,
    /// Lock sets of cycles already counted as guard-suppressed, so the
    /// telemetry counts *distinct* suppressed cycles — not one event per
    /// rotation, dirty edge, or re-dirtying instance.
    suppressed_cycles: IdSet<Vec<LockId>>,
    /// Monotonic pass counter — the aging clock.
    pass_tick: u64,
    /// Last pass at which each lock was held, released, or recorded an
    /// ordering.
    last_active: IdMap<LockId, u64>,
    /// How many times each lock is currently held across all threads.
    held_count: IdMap<LockId, usize>,
    /// Aging probes: `(due pass, lock)`, lazily revalidated on pop.
    retire_queue: BinaryHeap<Reverse<(u64, LockId)>>,
    /// Locks with a live probe in `retire_queue`.
    retire_queued: IdSet<LockId>,
    cycles_predicted: u64,
    guard_suppressed: u64,
    dropped: u64,
    deferred: u64,
    edges_retired: u64,
}

impl Predictor {
    /// Creates an empty predictor.
    pub fn new(cfg: PredictionConfig) -> Self {
        Self {
            cfg,
            graph: LockOrderGraph::default(),
            scc: Condensation::default(),
            held: IdMap::default(),
            dirty: VecDeque::new(),
            dirty_set: IdSet::default(),
            pending: None,
            emitted: IdSet::default(),
            suppressed_cycles: IdSet::default(),
            pass_tick: 0,
            last_active: IdMap::default(),
            held_count: IdMap::default(),
            retire_queue: BinaryHeap::new(),
            retire_queued: IdSet::default(),
            cycles_predicted: 0,
            guard_suppressed: 0,
            dropped: 0,
            deferred: 0,
            edges_retired: 0,
        }
    }

    /// The configuration this predictor runs under.
    pub fn config(&self) -> &PredictionConfig {
        &self.cfg
    }

    /// Feeds one `acquired` event: thread `t` obtained lock `l` with call
    /// stack `stack`. Records one order-graph edge per lock already held.
    pub fn on_acquired(&mut self, t: ThreadId, l: LockId, stack: StackId) {
        self.touch(l);
        *self.held_count.entry(l).or_insert(0) += 1;
        let held = self.held.entry(t).or_default();
        let reentrant = held.iter().any(|&(h, _)| h == l);
        // Distinct held locks with their innermost hold stacks, in
        // acquisition order (deterministic edge recording).
        let mut distinct: Vec<(LockId, StackId)> = Vec::with_capacity(held.len());
        if !reentrant {
            for &(h, s) in held.iter() {
                match distinct.iter_mut().find(|(d, _)| *d == h) {
                    Some(entry) => entry.1 = s, // innermost hold wins
                    None => distinct.push((h, s)),
                }
            }
        }
        held.push((l, stack));
        {
            for &(src, hold_stack) in &distinct {
                // Gate set: every *other* held lock. A lock held across
                // both of two orderings serializes them.
                let mut guards: Vec<LockId> = distinct
                    .iter()
                    .map(|&(d, _)| d)
                    .filter(|&d| d != src)
                    .collect();
                guards.sort_unstable();
                let inst = EdgeInstance {
                    thread: t,
                    hold_stack,
                    guards: guards.into_boxed_slice(),
                };
                match self.graph.record(
                    src,
                    l,
                    inst,
                    self.cfg.max_instances_per_edge,
                    self.cfg.max_edge_instances,
                ) {
                    Recorded::NewEdge => {
                        self.touch(src);
                        match self.scc.insert_edge(&self.graph, src, l) {
                            // Topological order respected: provably on no
                            // cycle — the common case costs no queue entry
                            // and no enumeration at all.
                            EdgeOutcome::Acyclic => {}
                            EdgeOutcome::SameComponent | EdgeOutcome::Merged => {
                                self.mark_dirty(src, l);
                            }
                        }
                    }
                    Recorded::NewInstance => {
                        self.touch(src);
                        // A fresh instance only changes feasibility for
                        // cycles through this edge — which exist only if
                        // the edge sits inside an SCC.
                        if self.scc.same_component(src, l) {
                            self.mark_dirty(src, l);
                        }
                    }
                    Recorded::Duplicate => {}
                    Recorded::Capped => self.dropped += 1,
                }
            }
        }
    }

    /// Feeds one `release` event: pops the innermost hold of `(t, l)`.
    pub fn on_release(&mut self, t: ThreadId, l: LockId) {
        if let Some(held) = self.held.get_mut(&t) {
            if let Some(pos) = held.iter().rposition(|&(h, _)| h == l) {
                held.remove(pos);
                self.unhold(l);
            }
            if self.held.get(&t).is_some_and(|h| h.is_empty()) {
                self.held.remove(&t);
            }
        }
    }

    /// Feeds a thread-exit event: forgets the thread's held set. Recorded
    /// orderings persist — they are history, not state — but the released
    /// locks' aging clocks start ticking.
    pub fn on_thread_exit(&mut self, t: ThreadId) {
        if let Some(held) = self.held.remove(&t) {
            for (l, _) in held {
                self.unhold(l);
            }
        }
    }

    /// Runs one budgeted prediction pass over the edges dirtied since the
    /// last one. Returns newly found feasible cycles, deterministically
    /// ordered; never returns the same label multiset twice.
    pub fn pass(&mut self) -> Vec<PredictedCycle> {
        self.pass_tick += 1;
        let mut budget = self.cfg.pass_budget;
        let mut found: Vec<PredictedCycle> = Vec::new();
        let mut live = match self.pending.take() {
            Some(en) => self.run_enumeration(en, &mut budget, &mut found),
            None => true,
        };
        while live {
            let Some((src, dst)) = self.dirty.pop_front() else {
                break;
            };
            self.dirty_set.remove(&(src, dst));
            if !self.scc.same_component(src, dst) {
                // Cross-component by now (a retirement split it, or the
                // queue entry was conservative): provably on no cycle.
                continue;
            }
            let en = Enumeration {
                src,
                path: vec![src, dst],
                frames: vec![(self.sorted_successors_in(dst, src), 0)],
            };
            live = self.run_enumeration(en, &mut budget, &mut found);
        }
        self.age_locks();
        found.sort_by(|a, b| a.labels.cmp(&b.labels));
        self.cycles_predicted += found.len() as u64;
        found
    }

    /// Whether any dirty edges or paused enumerations are pending.
    pub fn has_pending_work(&self) -> bool {
        !self.dirty.is_empty() || self.pending.is_some()
    }

    /// Telemetry counters.
    pub fn stats(&self) -> PredictorStats {
        PredictorStats {
            cycles_predicted: self.cycles_predicted,
            guard_suppressed: self.guard_suppressed,
            dropped: self.dropped,
            deferred: self.deferred,
            scc_merges: self.scc.merges(),
            scc_component_peak: self.scc.component_peak() as u64,
            edges_retired: self.edges_retired,
            edge_instances: self.graph.instance_count() as u64,
            locks: self.graph.lock_count() as u64,
        }
    }

    fn mark_dirty(&mut self, src: LockId, dst: LockId) {
        if self.dirty_set.insert((src, dst)) {
            self.dirty.push_back((src, dst));
        }
    }

    /// Resets `l`'s aging clock and (re-)arms its retirement probe.
    fn touch(&mut self, l: LockId) {
        self.last_active.insert(l, self.pass_tick);
        let after = self.cfg.lock_retire_after;
        if after > 0 && self.retire_queued.insert(l) {
            self.retire_queue
                .push(Reverse((self.pass_tick.saturating_add(after), l)));
        }
    }

    /// Release-side bookkeeping shared by `on_release`/`on_thread_exit`.
    fn unhold(&mut self, l: LockId) {
        if let Some(c) = self.held_count.get_mut(&l) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.held_count.remove(&l);
            }
        }
        self.touch(l);
    }

    /// Retires locks whose aging probes came due: unheld and quiescent
    /// for `lock_retire_after` passes. Amortized O(1) per event — probes
    /// are lazily revalidated against `last_active` on pop.
    fn age_locks(&mut self) {
        if self.cfg.lock_retire_after == 0 {
            return;
        }
        let after = self.cfg.lock_retire_after;
        while let Some(&Reverse((due, l))) = self.retire_queue.peek() {
            if due > self.pass_tick {
                break;
            }
            self.retire_queue.pop();
            self.retire_queued.remove(&l);
            let Some(&last) = self.last_active.get(&l) else {
                continue;
            };
            let horizon = last.saturating_add(after);
            let held = self.held_count.get(&l).is_some_and(|&c| c > 0);
            if held || horizon > self.pass_tick {
                // Touched (or still held) since the probe was armed:
                // re-arm at the fresh horizon.
                if self.retire_queued.insert(l) {
                    let due = if held {
                        self.pass_tick.saturating_add(after)
                    } else {
                        horizon
                    };
                    self.retire_queue.push(Reverse((due, l)));
                }
                continue;
            }
            let (edges, _instances) = self.graph.remove_lock(l);
            self.scc.retire(&self.graph, l);
            self.edges_retired += edges as u64;
            self.last_active.remove(&l);
        }
    }

    /// Drives a cycle enumeration until it finishes (`true`) or exhausts
    /// the pass budget (`false` — state parked in `self.pending`).
    fn run_enumeration(
        &mut self,
        mut en: Enumeration,
        budget: &mut usize,
        found: &mut Vec<PredictedCycle>,
    ) -> bool {
        loop {
            let Some(top) = en.frames.last_mut() else {
                return true;
            };
            if top.1 >= top.0.len() {
                en.frames.pop();
                en.path.pop();
                continue;
            }
            if *budget == 0 {
                self.deferred += 1;
                self.pending = Some(en);
                return false;
            }
            *budget -= 1;
            let next = top.0[top.1];
            top.1 += 1;
            if next == en.src {
                if en.path.len() >= MIN_CYCLE_LEN {
                    self.try_emit(&en.path, budget, found);
                }
                continue;
            }
            // Successor snapshots may be stale across a deferral (edges
            // retired, components split): revalidate membership live.
            if !self.scc.same_component(en.src, next)
                || en.path.contains(&next)
                || en.path.len() >= MAX_CYCLE_LEN
            {
                continue;
            }
            en.path.push(next);
            let succ = self.sorted_successors_in(next, en.src);
            en.frames.push((succ, 0));
        }
    }

    /// Sorted successors of `l` restricted to `anchor`'s component — the
    /// only nodes a cycle through `anchor` can traverse.
    fn sorted_successors_in(&self, l: LockId, anchor: LockId) -> Vec<LockId> {
        let mut v: Vec<LockId> = self
            .graph
            .successors(l)
            .filter(|&w| self.scc.same_component(anchor, w))
            .collect();
        v.sort_unstable();
        v
    }

    /// Tries to pick one instance per edge of the lock cycle `path` with
    /// pairwise-distinct threads and pairwise-disjoint guard sets, no
    /// guard naming a cycle lock. Emits on success; counts a guard
    /// suppression when only gate locks stood in the way.
    fn try_emit(&mut self, path: &[LockId], budget: &mut usize, found: &mut Vec<PredictedCycle>) {
        let n = path.len();
        // Canonical rotation (minimum lock first): the assignment — and
        // therefore the emitted label multiset — must not depend on which
        // dirty edge the enumeration happened to enter the cycle through.
        let min_pos = (0..n).min_by_key(|&i| path[i]).expect("non-empty cycle");
        let canon: Vec<LockId> = (0..n).map(|i| path[(min_pos + i) % n]).collect();
        let mut chosen: Vec<&EdgeInstance> = Vec::with_capacity(n);
        let mut guard_blocked = false;
        let ok = self.assign(&canon, 0, &mut chosen, &mut guard_blocked, budget);
        if ok {
            let mut labels: Vec<StackId> = chosen.iter().map(|i| i.hold_stack).collect();
            labels.sort_unstable();
            if self.emitted.insert(labels.clone()) {
                found.push(PredictedCycle { labels, threads: n });
            }
        } else if guard_blocked {
            // Count distinct suppressed cycles, keyed by lock set: the
            // same cycle reached via another rotation, dirty edge, or a
            // later re-dirtying instance must not inflate the counter.
            let mut key = canon;
            key.sort_unstable();
            if self.suppressed_cycles.insert(key) {
                self.guard_suppressed += 1;
            }
        }
    }

    /// Backtracking instance assignment over cycle edge `i` (the edge
    /// `path[i] → path[(i + 1) % n]`).
    fn assign<'g>(
        &'g self,
        path: &[LockId],
        i: usize,
        chosen: &mut Vec<&'g EdgeInstance>,
        guard_blocked: &mut bool,
        budget: &mut usize,
    ) -> bool {
        if i == path.len() {
            return true;
        }
        let dst = path[(i + 1) % path.len()];
        for inst in self.graph.instances(path[i], dst) {
            *budget = budget.saturating_sub(1);
            if chosen.iter().any(|c| c.thread == inst.thread) {
                continue;
            }
            // A guard that is itself a cycle lock, or one shared with an
            // already chosen instance, gates the cycle shut: in the
            // would-be deadlock state every cycle lock is pinned and a
            // common gate lock cannot be held twice.
            if inst
                .guards
                .iter()
                .any(|g| path.contains(g) || chosen.iter().any(|c| c.guards.contains(g)))
            {
                *guard_blocked = true;
                continue;
            }
            chosen.push(inst);
            if self.assign(path, i + 1, chosen, guard_blocked, budget) {
                return true;
            }
            chosen.pop();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> ThreadId {
        ThreadId(n)
    }

    fn l(n: u64) -> LockId {
        LockId(n)
    }

    fn s(n: u32) -> StackId {
        StackId(n)
    }

    /// Runs `t` through `lock (outer); lock (inner); unlock; unlock`.
    fn nested(
        p: &mut Predictor,
        tid: ThreadId,
        outer: (LockId, StackId),
        inner: (LockId, StackId),
    ) {
        p.on_acquired(tid, outer.0, outer.1);
        p.on_acquired(tid, inner.0, inner.1);
        p.on_release(tid, inner.0);
        p.on_release(tid, outer.0);
    }

    #[test]
    fn ab_ba_cycle_is_predicted_with_hold_stack_labels() {
        let mut p = Predictor::new(PredictionConfig::default());
        nested(&mut p, t(1), (l(1), s(11)), (l(2), s(12)));
        nested(&mut p, t(2), (l(2), s(22)), (l(1), s(21)));
        let cycles = p.pass();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].threads, 2);
        // Labels are the *hold* stacks of the edge sources: T1 held L1
        // with s11, T2 held L2 with s22 — the same multiset a detected
        // AB/BA deadlock produces.
        assert_eq!(cycles[0].labels, vec![s(11), s(22)]);
        assert_eq!(p.stats().cycles_predicted, 1);
        assert_eq!(p.stats().guard_suppressed, 0);
        assert_eq!(p.stats().scc_merges, 1);
        assert_eq!(p.stats().scc_component_peak, 2);
    }

    #[test]
    fn common_gate_lock_suppresses_the_cycle() {
        let mut p = Predictor::new(PredictionConfig::default());
        let g = l(9);
        for (tid, outer, inner) in [(t(1), l(1), l(2)), (t(2), l(2), l(1))] {
            p.on_acquired(tid, g, s(90));
            nested(&mut p, tid, (outer, s(outer.0 as u32)), (inner, s(100)));
            p.on_release(tid, g);
        }
        assert!(
            p.pass().is_empty(),
            "gate-locked cycle must not be predicted"
        );
        // Counted once per distinct cycle — not per rotation/dirty edge.
        assert_eq!(p.stats().guard_suppressed, 1);
        // A later instance with a fresh stack re-dirties an edge, but the
        // already-counted cycle must not inflate the counter.
        p.on_acquired(t(1), l(9), s(90));
        p.on_acquired(t(1), l(1), s(77));
        p.on_acquired(t(1), l(2), s(78));
        p.on_release(t(1), l(2));
        p.on_release(t(1), l(1));
        p.on_release(t(1), l(9));
        assert!(p.pass().is_empty());
        assert_eq!(p.stats().guard_suppressed, 1);
    }

    #[test]
    fn distinct_gate_locks_do_not_suppress() {
        let mut p = Predictor::new(PredictionConfig::default());
        for (tid, gate, outer, inner) in [(t(1), l(8), l(1), l(2)), (t(2), l(9), l(2), l(1))] {
            p.on_acquired(tid, gate, s(80));
            nested(&mut p, tid, (outer, s(outer.0 as u32)), (inner, s(100)));
            p.on_release(tid, gate);
        }
        // Guard sets {L8} and {L9} are disjoint: feasible.
        assert_eq!(p.pass().len(), 1);
    }

    #[test]
    fn single_thread_inversion_is_not_a_cycle() {
        let mut p = Predictor::new(PredictionConfig::default());
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(2)));
        nested(&mut p, t(1), (l(2), s(3)), (l(1), s(4)));
        assert!(p.pass().is_empty(), "a thread cannot deadlock with itself");
    }

    #[test]
    fn three_thread_cycle_is_predicted() {
        let mut p = Predictor::new(PredictionConfig::default());
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(12)));
        nested(&mut p, t(2), (l(2), s(2)), (l(3), s(23)));
        nested(&mut p, t(3), (l(3), s(3)), (l(1), s(31)));
        let cycles = p.pass();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].threads, 3);
        assert_eq!(cycles[0].labels, vec![s(1), s(2), s(3)]);
    }

    #[test]
    fn known_cycles_are_not_re_emitted() {
        let mut p = Predictor::new(PredictionConfig::default());
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(2)));
        nested(&mut p, t(2), (l(2), s(3)), (l(1), s(4)));
        assert_eq!(p.pass().len(), 1);
        assert!(p.pass().is_empty());
        // Replaying the same schedule dirties nothing (duplicate
        // instances) and emits nothing.
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(2)));
        nested(&mut p, t(2), (l(2), s(3)), (l(1), s(4)));
        assert!(p.pass().is_empty());
        assert_eq!(p.stats().cycles_predicted, 1);
    }

    #[test]
    fn budget_starved_passes_carry_dirty_edges_over() {
        let mut p = Predictor::new(PredictionConfig {
            pass_budget: 1,
            ..PredictionConfig::default()
        });
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(2)));
        nested(&mut p, t(2), (l(2), s(3)), (l(1), s(4)));
        let mut found = Vec::new();
        for _ in 0..64 {
            found.extend(p.pass());
            if !p.has_pending_work() {
                break;
            }
        }
        assert_eq!(found.len(), 1, "carry-over must eventually find the cycle");
    }

    /// The old budgeted DFS abandoned an edge whose search exceeded one
    /// whole pass budget (a soundness hole). The condensation pass defers
    /// instead: enumeration state persists across passes, so even a
    /// 1-step budget converges with nothing dropped.
    #[test]
    fn oversized_searches_defer_and_complete() {
        let mut p = Predictor::new(PredictionConfig {
            pass_budget: 1,
            ..PredictionConfig::default()
        });
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(12)));
        nested(&mut p, t(2), (l(2), s(2)), (l(3), s(23)));
        nested(&mut p, t(3), (l(3), s(3)), (l(1), s(31)));
        let mut found = Vec::new();
        let mut passes = 0;
        while p.has_pending_work() {
            found.extend(p.pass());
            passes += 1;
            assert!(passes < 256, "deferred work must drain");
        }
        assert_eq!(found.len(), 1, "the 3-cycle must be found, not dropped");
        assert_eq!(p.stats().dropped, 0, "{:?}", p.stats());
        assert!(p.stats().deferred >= 1, "{:?}", p.stats());
        assert!(p.pass().is_empty());
    }

    #[test]
    fn released_locks_record_no_edges() {
        let mut p = Predictor::new(PredictionConfig::default());
        p.on_acquired(t(1), l(1), s(1));
        p.on_release(t(1), l(1));
        p.on_acquired(t(1), l(2), s(2));
        p.on_release(t(1), l(2));
        assert_eq!(p.stats().edge_instances, 0);
        // Thread exit clears held state even without releases.
        p.on_acquired(t(2), l(1), s(3));
        p.on_thread_exit(t(2));
        p.on_acquired(t(2), l(2), s(4));
        assert_eq!(p.stats().edge_instances, 0);
    }

    #[test]
    fn reentrant_reacquisition_records_no_self_edges() {
        let mut p = Predictor::new(PredictionConfig::default());
        p.on_acquired(t(1), l(1), s(1));
        p.on_acquired(t(1), l(1), s(2));
        p.on_release(t(1), l(1));
        p.on_release(t(1), l(1));
        assert_eq!(p.stats().edge_instances, 0);
    }

    #[test]
    fn instance_caps_count_drops() {
        let mut p = Predictor::new(PredictionConfig {
            max_instances_per_edge: 1,
            ..PredictionConfig::default()
        });
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(2)));
        nested(&mut p, t(2), (l(1), s(3)), (l(2), s(4)));
        assert_eq!(p.stats().edge_instances, 1);
        assert_eq!(p.stats().dropped, 1);
    }

    /// Lock aging: quiescent locks leave the graph, counted; held locks
    /// never do.
    #[test]
    fn quiescent_locks_are_retired() {
        let mut p = Predictor::new(PredictionConfig {
            lock_retire_after: 2,
            ..PredictionConfig::default()
        });
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(2)));
        nested(&mut p, t(2), (l(2), s(3)), (l(1), s(4)));
        assert_eq!(p.pass().len(), 1);
        assert_eq!(p.stats().locks, 2);
        // A lock still held must survive any number of passes.
        p.on_acquired(t(3), l(7), s(7));
        p.on_acquired(t(3), l(1), s(8)); // re-touches L1 and edge 7->1
        for _ in 0..8 {
            p.pass();
        }
        let st = p.stats();
        assert!(st.locks >= 2, "held L7/L1 must survive: {st:?}");
        assert_eq!(p.stats().edges_retired, 2, "L2's two edges age out");
        // Releasing starts the clock; quiescence empties the graph.
        p.on_release(t(3), l(1));
        p.on_release(t(3), l(7));
        for _ in 0..4 {
            p.pass();
        }
        let st = p.stats();
        assert_eq!(st.locks, 0, "{st:?}");
        assert_eq!(st.edge_instances, 0, "{st:?}");
    }

    /// Deterministic retire-then-re-acquire regression: an aged-out lock
    /// coming back must rebuild its component from scratch and predict
    /// fresh cycles.
    #[test]
    fn retired_lock_reacquired_predicts_again() {
        let mut p = Predictor::new(PredictionConfig {
            lock_retire_after: 1,
            ..PredictionConfig::default()
        });
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(2)));
        nested(&mut p, t(2), (l(2), s(3)), (l(1), s(4)));
        assert_eq!(p.pass().len(), 1);
        for _ in 0..3 {
            assert!(p.pass().is_empty());
        }
        assert_eq!(p.stats().locks, 0, "aged out: {:?}", p.stats());
        assert!(p.stats().edges_retired >= 2);
        // Same locks, same stacks: the graph relearns the cycle but the
        // emitted-label dedup still holds (same signature, no re-vaccine).
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(2)));
        nested(&mut p, t(2), (l(2), s(3)), (l(1), s(4)));
        assert!(p.pass().is_empty());
        // Fresh stacks after retirement: a genuinely new signature.
        nested(&mut p, t(1), (l(1), s(101)), (l(2), s(102)));
        nested(&mut p, t(2), (l(2), s(103)), (l(1), s(104)));
        let cycles = p.pass();
        assert_eq!(cycles.len(), 1, "{:?}", p.stats());
        assert_eq!(cycles[0].labels, vec![s(101), s(103)]);
    }

    /// Cloning snapshots the full state: the copy predicts exactly what
    /// the original would have.
    #[test]
    fn clone_snapshot_resumes_prediction() {
        let mut p = Predictor::new(PredictionConfig::default());
        nested(&mut p, t(1), (l(1), s(1)), (l(2), s(2)));
        let mut snap = p.clone();
        // Only the snapshot sees the closing edge.
        nested(&mut snap, t(2), (l(2), s(3)), (l(1), s(4)));
        assert_eq!(snap.pass().len(), 1);
        assert!(p.pass().is_empty(), "original lacks the closing edge");
    }
}
