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
//! Scaling to thousands of locks is what the `scc` module buys: the
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
//!
//! # One record per lock
//!
//! Everything the predictor keeps about a lock — its node in the order
//! graph, its condensation component and its aging state — lives in one
//! record of the lock table (`locks.rs`). A fed acquisition finds its lock's
//! record with one look-up; each held-stack entry carries its lock's
//! record, so the acquisition's sources and every release reach theirs
//! with none. A nested acquisition of a lock while holding two, each
//! recording a new instance, makes four hash look-ups: the lock's record,
//! the thread's held stack and one edge per source.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graph;
mod locks;
mod scc;

use graph::{EdgeInstance, LockOrderGraph, Recorded};
use locks::LockTable;
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

/// One entry of a thread's held stack: the lock, the stack it was acquired
/// with, and its lock record, which a release reaches without a look-up.
#[derive(Clone, Copy, Debug)]
struct Held {
    lock: LockId,
    stack: StackId,
    record: u32,
}

/// The online lock-order-graph deadlock predictor. One per monitor; not
/// thread-safe (the monitor owns it). `Clone` snapshots the complete
/// state, so a restarted monitor resumes prediction instead of relearning
/// the graph.
///
/// **Determinism contract.** The state after a sequence of inputs
/// ([`on_acquired`], [`on_release`], [`on_thread_exit`], [`pass`]) is a
/// function of the state before them and of the inputs alone: there is no
/// clock and no randomness, every map hashes with the fixed
/// [`dimmunix_signature::IdHasher`], internal indices are handed out in
/// input order — a new lock takes the lock record freed last, or the next
/// one, and likewise for arcs and condensation components — and both
/// `clone` and `clone_from` keep each map's layout, so a copy fed the same
/// inputs as its original reaches the same state, down to its `Debug`
/// dump, and returns the same cycles — whatever the copy held before a
/// `clone_from`. The monitor's restart point relies on it: a checkpoint
/// plus the inputs fed since, replayed on respawn. What the predictor
/// reports — its cycles, their labels and order, and [`PredictorStats`] —
/// depends on the lock ids in the inputs, never on those internal indices.
///
/// **Copies.** The lock table, the order graph and the condensation hold
/// only `Copy` records in flat buffers, so a clone is a handful of buffer
/// copies, and `clone_from` copies into the buffers the target already
/// has: an older copy of a predictor refreshed from it allocates nothing
/// unless the predictor has outgrown the copy's buffers, or holds owned
/// parts — a thread's non-empty held stack, emitted or suppressed cycle
/// keys, a paused enumeration. [`Predictor::clone_len`] counts what a copy
/// copies.
///
/// [`on_acquired`]: Predictor::on_acquired
/// [`on_release`]: Predictor::on_release
/// [`on_thread_exit`]: Predictor::on_thread_exit
/// [`pass`]: Predictor::pass
#[derive(Debug)]
pub struct Predictor {
    cfg: PredictionConfig,
    /// One record per known lock: its graph node, condensation membership
    /// and aging state.
    locks: LockTable,
    graph: LockOrderGraph,
    /// Incrementally maintained SCC condensation of `graph`.
    scc: Condensation,
    /// Per-thread held multiset, in acquisition order (reentrancy repeats
    /// the lock). An emptied stack keeps its entry, and its capacity, until
    /// the thread exits.
    held: IdMap<ThreadId, Vec<Held>>,
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
    /// Aging probes: `(due pass, lock record)`, lazily revalidated on pop
    /// against the record's aging state. A record has at most one, and
    /// none once it is freed.
    retire_queue: BinaryHeap<Reverse<(u64, u32)>>,
    cycles_predicted: u64,
    guard_suppressed: u64,
    dropped: u64,
    deferred: u64,
    edges_retired: u64,
    /// Scratch for [`Predictor::on_acquired`], empty between calls: the
    /// distinct held locks and one edge's guard set.
    distinct: Vec<Held>,
    guards: Vec<LockId>,
}

impl Clone for Predictor {
    fn clone(&self) -> Self {
        let mut copy = Self::new(self.cfg.clone());
        copy.clone_from(self);
        copy
    }

    /// Copies `source` field by field into this predictor's own buffers
    /// (see "Copies" above); the scratch buffers are left as they are.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            cfg,
            locks,
            graph,
            scc,
            held,
            dirty,
            dirty_set,
            pending,
            emitted,
            suppressed_cycles,
            pass_tick,
            retire_queue,
            cycles_predicted,
            guard_suppressed,
            dropped,
            deferred,
            edges_retired,
            distinct: _,
            guards: _,
        } = source;
        self.cfg.clone_from(cfg);
        self.locks.clone_from(locks);
        self.graph.clone_from(graph);
        self.scc.clone_from(scc);
        self.held.clone_from(held);
        self.dirty.clone_from(dirty);
        self.dirty_set.clone_from(dirty_set);
        self.pending.clone_from(pending);
        self.emitted.clone_from(emitted);
        self.suppressed_cycles.clone_from(suppressed_cycles);
        self.pass_tick = *pass_tick;
        self.retire_queue.clone_from(retire_queue);
        self.cycles_predicted = *cycles_predicted;
        self.guard_suppressed = *guard_suppressed;
        self.dropped = *dropped;
        self.deferred = *deferred;
        self.edges_retired = *edges_retired;
    }
}

impl Predictor {
    /// Creates an empty predictor.
    pub fn new(cfg: PredictionConfig) -> Self {
        Self {
            cfg,
            locks: LockTable::default(),
            graph: LockOrderGraph::default(),
            scc: Condensation::default(),
            held: IdMap::default(),
            dirty: VecDeque::new(),
            dirty_set: IdSet::default(),
            pending: None,
            emitted: IdSet::default(),
            suppressed_cycles: IdSet::default(),
            pass_tick: 0,
            retire_queue: BinaryHeap::new(),
            cycles_predicted: 0,
            guard_suppressed: 0,
            dropped: 0,
            deferred: 0,
            edges_retired: 0,
            distinct: Vec::new(),
            guards: Vec::new(),
        }
    }

    /// The configuration this predictor runs under.
    pub fn config(&self) -> &PredictionConfig {
        &self.cfg
    }

    /// Feeds one `acquired` event: thread `t` obtained lock `l` with call
    /// stack `stack`. Records one order-graph edge per lock already held.
    pub fn on_acquired(&mut self, t: ThreadId, l: LockId, stack: StackId) {
        let r = self.locks.intern(l);
        self.locks[r].held += 1;
        self.touch(r);
        let (mut distinct, mut guards) = (
            std::mem::take(&mut self.distinct),
            std::mem::take(&mut self.guards),
        );
        let held = self.held.entry(t).or_default();
        let reentrant = held.iter().any(|h| h.record == r);
        // Distinct held locks with their innermost hold stacks, in
        // acquisition order (deterministic edge recording).
        if !reentrant {
            for &h in held.iter() {
                match distinct.iter_mut().find(|d| d.record == h.record) {
                    Some(entry) => entry.stack = h.stack, // innermost hold wins
                    None => distinct.push(h),
                }
            }
        }
        held.push(Held {
            lock: l,
            stack,
            record: r,
        });
        for src in &distinct {
            // Gate set: every *other* held lock. A lock held across
            // both of two orderings serializes them.
            guards.clear();
            guards.extend(distinct.iter().map(|d| d.lock).filter(|&d| d != src.lock));
            guards.sort_unstable();
            match self.graph.record(
                &mut self.locks,
                (src.record, r),
                (t, src.stack),
                &guards,
                self.cfg.max_instances_per_edge,
                self.cfg.max_edge_instances,
            ) {
                Recorded::NewEdge => {
                    self.touch(src.record);
                    match self
                        .scc
                        .insert_edge(&self.graph, &mut self.locks, src.record, r)
                    {
                        // Topological order respected: provably on no
                        // cycle — the common case costs no queue entry
                        // and no enumeration at all.
                        EdgeOutcome::Acyclic => {}
                        EdgeOutcome::SameComponent | EdgeOutcome::Merged => {
                            self.mark_dirty(src.lock, l);
                        }
                    }
                }
                Recorded::NewInstance => {
                    self.touch(src.record);
                    // A fresh instance only changes feasibility for
                    // cycles through this edge — which exist only if
                    // the edge sits inside an SCC.
                    if self.locks.same_component(src.record, r) {
                        self.mark_dirty(src.lock, l);
                    }
                }
                Recorded::Duplicate => {}
                Recorded::Capped => self.dropped += 1,
            }
        }
        distinct.clear();
        guards.clear();
        (self.distinct, self.guards) = (distinct, guards);
    }

    /// Feeds one `release` event: pops the innermost hold of `(t, l)`.
    pub fn on_release(&mut self, t: ThreadId, l: LockId) {
        if let Some(held) = self.held.get_mut(&t) {
            if let Some(pos) = held.iter().rposition(|h| h.lock == l) {
                let r = held.remove(pos).record;
                self.unhold(r);
            }
        }
    }

    /// Feeds a thread-exit event: forgets the thread's held set. Recorded
    /// orderings persist — they are history, not state — but the released
    /// locks' aging clocks start ticking.
    pub fn on_thread_exit(&mut self, t: ThreadId) {
        if let Some(held) = self.held.remove(&t) {
            for h in held {
                self.unhold(h.record);
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
            if !self.same_component(src, dst) {
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

    /// Entries a copy of this predictor copies: the lock directory and the
    /// record arena, the order graph's arenas, dead space included, the
    /// tables of its maps and of the condensation's, and the queues. A
    /// restart point weighs replaying a log against a copy with it.
    pub fn clone_len(&self) -> u64 {
        let len = self.locks.clone_len()
            + self.graph.clone_len()
            + self.scc.clone_len()
            + self.held.capacity()
            + self.dirty.len()
            + self.dirty_set.capacity()
            + self.emitted.capacity()
            + self.suppressed_cycles.capacity()
            + self.retire_queue.len();
        len as u64
    }

    fn mark_dirty(&mut self, src: LockId, dst: LockId) {
        if self.dirty_set.insert((src, dst)) {
            self.dirty.push_back((src, dst));
        }
    }

    /// Whether locks `a` and `b` currently share a component. `false`
    /// when either lock is unknown (e.g. retired).
    fn same_component(&self, a: LockId, b: LockId) -> bool {
        match (self.locks.find(a), self.locks.find(b)) {
            (Some(x), Some(y)) => self.locks.same_component(x, y),
            _ => false,
        }
    }

    /// Resets record `r`'s aging clock and (re-)arms its retirement probe.
    fn touch(&mut self, r: u32) {
        let after = self.cfg.lock_retire_after;
        let record = &mut self.locks[r];
        record.last_active = self.pass_tick;
        if after > 0 && !record.probed {
            record.probed = true;
            self.retire_queue
                .push(Reverse((self.pass_tick.saturating_add(after), r)));
        }
    }

    /// Release-side bookkeeping shared by `on_release`/`on_thread_exit`.
    fn unhold(&mut self, r: u32) {
        let record = &mut self.locks[r];
        record.held = record.held.saturating_sub(1);
        self.touch(r);
    }

    /// Retires locks whose aging probes came due: unheld and quiescent
    /// for `lock_retire_after` passes. Amortized O(1) per event — probes
    /// are lazily revalidated against the record on pop. A retired lock's
    /// record is freed for the next new lock.
    fn age_locks(&mut self) {
        if self.cfg.lock_retire_after == 0 {
            return;
        }
        let after = self.cfg.lock_retire_after;
        while let Some(&Reverse((due, r))) = self.retire_queue.peek() {
            if due > self.pass_tick {
                break;
            }
            self.retire_queue.pop();
            let record = &mut self.locks[r];
            let horizon = record.last_active.saturating_add(after);
            let held = record.held > 0;
            if held || horizon > self.pass_tick {
                // Touched (or still held) since the probe was armed:
                // re-arm at the fresh horizon.
                let due = if held {
                    self.pass_tick.saturating_add(after)
                } else {
                    horizon
                };
                self.retire_queue.push(Reverse((due, r)));
                continue;
            }
            record.probed = false;
            let (edges, _instances) = self.graph.remove_lock(&mut self.locks, r);
            self.scc.retire(&self.graph, &mut self.locks, r);
            self.locks.release(r);
            self.edges_retired += edges as u64;
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
            if !self.same_component(en.src, next)
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
        let (Some(r), Some(anchor)) = (self.locks.find(l), self.locks.find(anchor)) else {
            return Vec::new();
        };
        let mut v: Vec<LockId> = self
            .graph
            .successors(&self.locks, r)
            .filter(|&w| self.locks.same_component(anchor, w))
            .map(|w| self.locks[w].lock)
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
        let mut chosen: Vec<EdgeInstance> = Vec::with_capacity(n);
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
    fn assign(
        &self,
        path: &[LockId],
        i: usize,
        chosen: &mut Vec<EdgeInstance>,
        guard_blocked: &mut bool,
        budget: &mut usize,
    ) -> bool {
        if i == path.len() {
            return true;
        }
        let edge = (
            self.locks.find(path[i]),
            self.locks.find(path[(i + 1) % path.len()]),
        );
        let (Some(src), Some(dst)) = edge else {
            return false; // a lock retired since the search reached it
        };
        for &inst in self.graph.instances(src, dst) {
            *budget = budget.saturating_sub(1);
            if chosen.iter().any(|c| c.thread == inst.thread) {
                continue;
            }
            // A guard that is itself a cycle lock, or one shared with an
            // already chosen instance, gates the cycle shut: in the
            // would-be deadlock state every cycle lock is pinned and a
            // common gate lock cannot be held twice.
            let gated = self.graph.guards(&inst).iter().any(|g| {
                path.contains(g) || chosen.iter().any(|c| self.graph.guards(c).contains(g))
            });
            if gated {
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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

    /// The lock state the predictor's records must hold after any inputs,
    /// kept the plainest way: per-thread held stacks, the live edges, the
    /// graph's nodes, and each known lock's last activity.
    #[derive(Default)]
    struct LockModel {
        held: BTreeMap<ThreadId, Vec<LockId>>,
        edges: BTreeSet<(LockId, LockId)>,
        nodes: BTreeSet<LockId>,
        last_active: BTreeMap<LockId, u64>,
        tick: u64,
    }

    impl LockModel {
        fn acquire(&mut self, t: ThreadId, l: LockId) {
            self.last_active.insert(l, self.tick);
            let held = self.held.entry(t).or_default();
            if !held.contains(&l) {
                for &h in held.iter() {
                    self.edges.insert((h, l));
                    self.nodes.extend([h, l]);
                }
            }
            held.push(l);
        }

        fn release(&mut self, t: ThreadId) -> Option<LockId> {
            let l = self.held.get_mut(&t)?.pop()?;
            self.last_active.insert(l, self.tick);
            Some(l)
        }

        fn exit(&mut self, t: ThreadId) {
            for l in self.held.remove(&t).unwrap_or_default() {
                self.last_active.insert(l, self.tick);
            }
        }

        fn holds(&self, l: LockId) -> usize {
            self.held.values().flatten().filter(|&&h| h == l).count()
        }

        /// A pass retires every unheld lock quiet for `after` passes,
        /// with its edges.
        fn pass(&mut self, after: u64) {
            self.tick += 1;
            let due: Vec<LockId> = self
                .last_active
                .iter()
                .filter(|&(&l, &last)| last + after <= self.tick && self.holds(l) == 0)
                .map(|(&l, _)| l)
                .collect();
            for l in due {
                self.last_active.remove(&l);
                self.nodes.remove(&l);
                self.edges.retain(|&(a, b)| a != l && b != l);
            }
        }

        fn reaches(&self, from: LockId, to: LockId) -> bool {
            let (mut seen, mut stack) = (BTreeSet::from([from]), vec![from]);
            while let Some(a) = stack.pop() {
                for &(_, b) in self.edges.range((a, LockId(0))..=(a, LockId(u64::MAX))) {
                    if b == to {
                        return true;
                    }
                    if seen.insert(b) {
                        stack.push(b);
                    }
                }
            }
            false
        }
    }

    const LOCKS: u64 = 6;

    #[derive(Clone, Debug)]
    enum Input {
        Acquire(u64, u64),
        Release(u64),
        Exit(u64),
        Pass,
    }

    fn arb_inputs() -> impl Strategy<Value = Vec<Input>> {
        prop::collection::vec(
            prop_oneof![
                (0..3u64, 0..LOCKS).prop_map(|(t, l)| Input::Acquire(t, l)),
                (0..3u64, 0..LOCKS).prop_map(|(t, l)| Input::Acquire(t, l)),
                (0..3u64).prop_map(Input::Release),
                (0..3u64).prop_map(Input::Exit),
                (0..1u64).prop_map(|_| Input::Pass),
                (0..1u64).prop_map(|_| Input::Pass),
            ],
            0..200,
        )
    }

    /// Compares the predictor's lock table, graph and condensation with
    /// the model.
    fn agrees(p: &Predictor, m: &LockModel) -> Result<(), String> {
        let known: BTreeSet<LockId> = p.locks.iter().map(|(l, _)| l).collect();
        let want: BTreeSet<LockId> = m.last_active.keys().copied().collect();
        prop_assert_eq!(&known, &want, "the locks with a record");
        prop_assert_eq!(p.stats().locks as usize, m.nodes.len());
        for (l, r) in p.locks.iter() {
            let record = &p.locks[r];
            prop_assert_eq!(record.lock, l, "record {} is another lock's", r);
            prop_assert_eq!(record.held as usize, m.holds(l), "holds of {:?}", l);
            prop_assert_eq!(record.linked, m.nodes.contains(&l), "{:?} in the graph", l);
            let succs: BTreeSet<LockId> = p
                .graph
                .successors(&p.locks, r)
                .map(|w| p.locks[w].lock)
                .collect();
            let want: BTreeSet<LockId> = m.edges.iter().filter(|e| e.0 == l).map(|e| e.1).collect();
            prop_assert_eq!(succs, want, "successors of {:?}", l);
            let preds: BTreeSet<LockId> = p
                .graph
                .predecessors(&p.locks, r)
                .map(|w| p.locks[w].lock)
                .collect();
            let want: BTreeSet<LockId> = m.edges.iter().filter(|e| e.1 == l).map(|e| e.0).collect();
            prop_assert_eq!(preds, want, "predecessors of {:?}", l);
            for (b, rb) in p.locks.iter() {
                let same = if l == b {
                    m.nodes.contains(&l)
                } else {
                    m.reaches(l, b) && m.reaches(b, l)
                };
                prop_assert_eq!(
                    p.locks.same_component(r, rb),
                    same,
                    "{:?} and {:?} share a component",
                    l,
                    b
                );
            }
        }
        for (t, stack) in &p.held {
            for h in stack {
                prop_assert_eq!(
                    p.locks.find(h.lock),
                    Some(h.record),
                    "{:?}'s hold of {:?}",
                    t,
                    h.lock
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Locks retire and come back, so records are freed and reused:
        /// after every input the predictor's records agree with the
        /// model — which locks have one (so which retired at which pass),
        /// their hold counts, their successor and predecessor sets, and
        /// condensation membership against mutual reachability — and every
        /// held entry names its lock's current record.
        #[test]
        fn lock_records_match_the_model_through_retirement_and_reuse(
            inputs in arb_inputs(),
            after in 1..4u64,
        ) {
            let mut p = Predictor::new(PredictionConfig {
                lock_retire_after: after,
                pass_budget: 4,
                ..PredictionConfig::default()
            });
            let mut m = LockModel::default();
            let mut stack = 0;
            for input in inputs {
                stack += 1;
                match input {
                    Input::Acquire(tid, lid) => {
                        p.on_acquired(t(tid), l(lid), s(stack % 3));
                        m.acquire(t(tid), l(lid));
                    }
                    Input::Release(tid) => {
                        if let Some(lid) = m.release(t(tid)) {
                            p.on_release(t(tid), lid);
                        }
                    }
                    Input::Exit(tid) => {
                        p.on_thread_exit(t(tid));
                        m.exit(t(tid));
                    }
                    Input::Pass => {
                        p.pass();
                        m.pass(after);
                    }
                }
                agrees(&p, &m)?;
            }
        }
    }
}
