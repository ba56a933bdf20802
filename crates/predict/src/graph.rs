//! The cross-thread lock-order graph.
//!
//! Nodes are locks; a directed edge `src → dst` records that some thread
//! acquired `dst` while holding `src`. Each edge keeps a bounded set of
//! **instances** — who established the ordering, with which hold stack,
//! and under which **guard set** (the other locks the thread held at that
//! moment, the Goodlock "gate locks"). The instances are what the cycle
//! search combines: a lock cycle is only a *feasible* deadlock if one
//! instance per edge can be chosen such that the threads are pairwise
//! distinct and the guard sets are pairwise disjoint (a common gate lock
//! serializes the two critical sections, so the cycle can never close).
//!
//! # Layout
//!
//! The graph is three arenas of `Copy` records, linked by `u32` indices,
//! and one map of `Copy` values. Its nodes are the locks' records in the
//! [`LockTable`], which every call that walks or changes a list is handed:
//!
//! * `arcs` holds one record per edge. It names the edge's instance block
//!   and its endpoints' lock records, and is a node of two doubly linked
//!   lists: the source's successors and the destination's predecessors,
//!   whose heads are in the endpoints' lock records. Removing an edge
//!   unlinks it from both in O(1), so whole-lock removal (aging —
//!   [`LockOrderGraph::remove_lock`]) never scans an adjacency list.
//! * `insts` holds each edge's instances as one contiguous block, in
//!   recording order, so the duplicate check on every fed acquisition
//!   scans a few cache lines. A full block doubles, to at least
//!   [`MIN_GROWN_BLOCK`] instances and up to the per-edge cap: in place
//!   when it ends the arena, else by moving to the end.
//! * `guards` holds every guard set; an instance names a range of it.
//! * `edges` maps the `(src, dst)` pair of lock records to its arc: the
//!   one look-up a recorded ordering makes. A hub lock's successor list
//!   can be long, so the duplicate check does not walk it.
//!
//! Nothing in the graph owns a heap block of its own: a clone copies four
//! buffers (the map's table is copied whole, keys and values being
//! `Copy`), and [`Clone::clone_from`] copies into the buffers the target
//! already has, allocating only where one is too small.
//!
//! # Compaction
//!
//! A moved block, and everything of an edge a lock removal takes out,
//! stays in the arenas as dead entries; a block's unused tail is slack.
//! Once dead entries and slack outnumber the live ones, a removal
//! compacts: live arcs keep their relative order, each edge's instances
//! and guards become contiguous in arc order with no slack, and every
//! index is remapped. Whether a removal compacts depends on the operations
//! alone, so the graph stays a function of its inputs. Growth alone leaves
//! at most one dead instance per live one behind it (a block's earlier
//! copies add up to less than the block), plus slack that
//! [`MIN_GROWN_BLOCK`] bounds for an edge of few instances, so the arenas —
//! what a clone copies — stay within a small multiple of the live graph.

use crate::locks::{index, LockTable, NIL};
use dimmunix_rag::{LockId, ThreadId};
use dimmunix_signature::{IdMap, StackId};

/// One observed establishment of a lock ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EdgeInstance {
    /// The thread that acquired the edge's destination lock.
    pub thread: ThreadId,
    /// The call stack with which the thread held the edge's *source* lock —
    /// exactly the hold-edge label a detected deadlock cycle would carry,
    /// and therefore the synthesized signature's member stack.
    pub hold_stack: StackId,
    /// Where its guard set starts in the guard arena.
    guard_start: u32,
    /// How many guards it has (see [`LockOrderGraph::guards`]).
    guard_len: u32,
}

/// The least a full block grows to. An edge that gets a second instance —
/// another thread, stack or guard set ordering the same two locks —
/// usually gets more, up to the per-edge cap: at the default cap of eight,
/// its block moves once instead of three times, and the arena keeps one
/// dead instance for it instead of seven.
const MIN_GROWN_BLOCK: usize = 8;

/// What fills a block's unused tail.
const SLACK: EdgeInstance = EdgeInstance {
    thread: ThreadId(0),
    hold_stack: StackId(0),
    guard_start: 0,
    guard_len: 0,
};

/// One edge: its endpoints' lock records, its instance block and its links
/// in two adjacency lists. A removed edge's record stays in the arena with
/// `len` 0 until compaction.
#[derive(Clone, Copy, Debug)]
struct Arc {
    src: u32,
    dst: u32,
    /// The block: `insts[first..first + cap]`, the first `len` recorded.
    first: u32,
    len: u32,
    cap: u32,
    /// Neighbours in `src`'s successor list.
    succ_prev: u32,
    succ_next: u32,
    /// Neighbours in `dst`'s predecessor list.
    pred_prev: u32,
    pred_next: u32,
}

/// Outcome of recording an ordering observation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Recorded {
    /// The first instance of a previously unseen edge: the condensation
    /// must be told about a new arc.
    NewEdge,
    /// A new instance on an already-known edge: the DAG shape is
    /// unchanged, but cycles through the edge gained an assignment option.
    NewInstance,
    /// An identical instance already existed.
    Duplicate,
    /// The per-edge or global instance cap was hit; observation dropped.
    Capped,
}

/// The graph itself (see the module docs for the layout).
#[derive(Default, Debug)]
pub(crate) struct LockOrderGraph {
    edges: IdMap<(u32, u32), u32>,
    arcs: Vec<Arc>,
    insts: Vec<EdgeInstance>,
    guards: Vec<LockId>,
    /// Locks whose records are `linked`: every lock that has been an edge
    /// endpoint since it was last removed.
    nodes: usize,
    /// Live instances, and the guards they name.
    instances: usize,
    live_guards: usize,
}

impl Clone for LockOrderGraph {
    fn clone(&self) -> Self {
        let mut copy = Self::default();
        copy.clone_from(self);
        copy
    }

    /// Copies into this graph's own buffers, allocating nothing when the
    /// source has not outgrown them: each arena fits the target's
    /// capacity, and the map has as many buckets as the target's (maps
    /// never shrink, so an older copy of the same graph has). The map
    /// keeps its source's layout, as a clone does.
    fn clone_from(&mut self, source: &Self) {
        self.edges.clone_from(&source.edges);
        self.arcs.clone_from(&source.arcs);
        self.insts.clone_from(&source.insts);
        self.guards.clone_from(&source.guards);
        self.nodes = source.nodes;
        self.instances = source.instances;
        self.live_guards = source.live_guards;
    }
}

impl LockOrderGraph {
    /// Records that `thread` ordered the lock of record `src` before that
    /// of record `dst`, holding `src` with `hold_stack` and `guards`
    /// (sorted) besides, deduplicating identical instances. The caps are
    /// checked before anything is written.
    pub fn record(
        &mut self,
        locks: &mut LockTable,
        (src, dst): (u32, u32),
        (thread, hold_stack): (ThreadId, StackId),
        guards: &[LockId],
        per_edge_cap: usize,
        global_cap: usize,
    ) -> Recorded {
        debug_assert_ne!(src, dst, "a lock is never ordered before itself");
        if self.instances >= global_cap {
            return Recorded::Capped;
        }
        let arc = self.edges.get(&(src, dst)).copied();
        let recorded = arc.map_or(&[][..], |a| self.block(&self.arcs[a as usize]));
        if recorded
            .iter()
            .any(|i| i.thread == thread && i.hold_stack == hold_stack && self.guards(i) == guards)
        {
            return Recorded::Duplicate;
        }
        if recorded.len() >= per_edge_cap {
            return Recorded::Capped;
        }
        let inst = EdgeInstance {
            thread,
            hold_stack,
            guard_start: index(self.guards.len()),
            guard_len: index(guards.len()),
        };
        self.guards.extend_from_slice(guards);
        self.instances += 1;
        self.live_guards += guards.len();
        if let Some(a) = arc {
            let arc = &mut self.arcs[a as usize];
            if arc.len == arc.cap {
                let (first, len) = (arc.first as usize, arc.len as usize);
                if first + len < self.insts.len() {
                    arc.first = index(self.insts.len());
                    self.insts.extend_from_within(first..first + len);
                }
                arc.cap = index((2 * len).max(MIN_GROWN_BLOCK).min(per_edge_cap));
                self.insts.resize((arc.first + arc.cap) as usize, SLACK);
            }
            self.insts[(arc.first + arc.len) as usize] = inst;
            arc.len += 1;
            return Recorded::NewInstance;
        }
        let a = index(self.arcs.len());
        let succ_next = locks[src].succs;
        let pred_next = locks[dst].preds;
        self.arcs.push(Arc {
            src,
            dst,
            first: index(self.insts.len()),
            len: 1,
            cap: 1,
            succ_prev: NIL,
            succ_next,
            pred_prev: NIL,
            pred_next,
        });
        self.insts.push(inst);
        if succ_next != NIL {
            self.arcs[succ_next as usize].succ_prev = a;
        }
        if pred_next != NIL {
            self.arcs[pred_next as usize].pred_prev = a;
        }
        locks[src].succs = a;
        locks[dst].preds = a;
        for r in [src, dst] {
            if !locks[r].linked {
                locks[r].linked = true;
                self.nodes += 1;
            }
        }
        self.edges.insert((src, dst), a);
        Recorded::NewEdge
    }

    /// The recorded part of `arc`'s block.
    fn block(&self, arc: &Arc) -> &[EdgeInstance] {
        let first = arc.first as usize;
        &self.insts[first..first + arc.len as usize]
    }

    /// The arcs of a list, from `head` on, each followed by `next`.
    fn walk(&self, head: u32, next: fn(&Arc) -> u32) -> impl Iterator<Item = &Arc> + '_ {
        let mut at = head;
        std::iter::from_fn(move || {
            let arc = self.arcs.get(at as usize)?;
            at = next(arc);
            Some(arc)
        })
    }

    /// The records of the locks reachable from record `src` by one edge.
    pub fn successors<'a>(&'a self, locks: &LockTable, src: u32) -> impl Iterator<Item = u32> + 'a {
        self.walk(locks[src].succs, |a| a.succ_next).map(|a| a.dst)
    }

    /// The records of the locks with an edge into record `dst`.
    pub fn predecessors<'a>(
        &'a self,
        locks: &LockTable,
        dst: u32,
    ) -> impl Iterator<Item = u32> + 'a {
        self.walk(locks[dst].preds, |a| a.pred_next).map(|a| a.src)
    }

    /// The recorded instances of the edge between lock records `src` and
    /// `dst`, in recording order (empty if the edge is absent).
    pub fn instances(&self, src: u32, dst: u32) -> &[EdgeInstance] {
        self.edges
            .get(&(src, dst))
            .map_or(&[], |&a| self.block(&self.arcs[a as usize]))
    }

    /// The guard set `inst` was recorded under, sorted.
    pub fn guards(&self, inst: &EdgeInstance) -> &[LockId] {
        let start = inst.guard_start as usize;
        &self.guards[start..start + inst.guard_len as usize]
    }

    /// Removes the lock of record `r` and every edge touching it (lock
    /// aging), compacting the arenas once they hold more dead entries and
    /// slack than live ones. The record stays, unlinked, for its owner to
    /// release. Returns `(edges removed, instances removed)`.
    pub fn remove_lock(&mut self, locks: &mut LockTable, r: u32) -> (usize, usize) {
        let node = &mut locks[r];
        if !node.linked {
            return (0, 0);
        }
        let heads = [(node.succs, true), (node.preds, false)];
        (node.succs, node.preds, node.linked) = (NIL, NIL, false);
        self.nodes -= 1;
        let mut edges_removed = 0;
        let mut inst_removed = 0;
        for (head, outgoing) in heads {
            let mut at = head;
            while at != NIL {
                let arc = self.arcs[at as usize];
                self.arcs[at as usize].len = 0;
                at = if outgoing {
                    self.unlink_pred(locks, &arc);
                    arc.succ_next
                } else {
                    self.unlink_succ(locks, &arc);
                    arc.pred_next
                };
                self.edges.remove(&(arc.src, arc.dst));
                let guards: usize = self.block(&arc).iter().map(|i| i.guard_len as usize).sum();
                self.live_guards -= guards;
                edges_removed += 1;
                inst_removed += arc.len as usize;
            }
        }
        self.instances -= inst_removed;
        let live = self.edges.len() + self.instances + self.live_guards;
        if self.arena_len() - live > live {
            self.compact(locks);
        }
        (edges_removed, inst_removed)
    }

    /// Unlinks `arc` from its destination's predecessor list.
    fn unlink_pred(&mut self, locks: &mut LockTable, arc: &Arc) {
        match arc.pred_prev {
            NIL => locks[arc.dst].preds = arc.pred_next,
            p => self.arcs[p as usize].pred_next = arc.pred_next,
        }
        if arc.pred_next != NIL {
            self.arcs[arc.pred_next as usize].pred_prev = arc.pred_prev;
        }
    }

    /// Unlinks `arc` from its source's successor list.
    fn unlink_succ(&mut self, locks: &mut LockTable, arc: &Arc) {
        match arc.succ_prev {
            NIL => locks[arc.src].succs = arc.succ_next,
            p => self.arcs[p as usize].succ_next = arc.succ_next,
        }
        if arc.succ_next != NIL {
            self.arcs[arc.succ_next as usize].succ_prev = arc.succ_prev;
        }
    }

    /// Rebuilds the arenas from the live edges, in arc order.
    fn compact(&mut self, locks: &mut LockTable) {
        let mut remap = vec![NIL; self.arcs.len()];
        let mut arcs = Vec::with_capacity(self.edges.len());
        let mut insts = Vec::with_capacity(self.instances);
        let mut guards = Vec::with_capacity(self.live_guards);
        for (a, arc) in self.arcs.iter().enumerate() {
            if arc.len == 0 {
                continue;
            }
            let mut arc = *arc;
            for &inst in self.block(&arc) {
                let guard_start = index(guards.len());
                guards.extend_from_slice(self.guards(&inst));
                insts.push(EdgeInstance {
                    guard_start,
                    ..inst
                });
            }
            arc.first = index(insts.len() - arc.len as usize);
            arc.cap = arc.len;
            remap[a] = index(arcs.len());
            arcs.push(arc);
        }
        let fix = |i: &mut u32| {
            if *i != NIL {
                *i = remap[*i as usize];
            }
        };
        for arc in &mut arcs {
            fix(&mut arc.succ_prev);
            fix(&mut arc.succ_next);
            fix(&mut arc.pred_prev);
            fix(&mut arc.pred_next);
        }
        for node in locks.records_mut() {
            fix(&mut node.succs);
            fix(&mut node.preds);
        }
        self.edges.values_mut().for_each(fix);
        (self.arcs, self.insts, self.guards) = (arcs, insts, guards);
    }

    /// Entries in the three arenas, dead ones and slack included.
    pub fn arena_len(&self) -> usize {
        self.arcs.len() + self.insts.len() + self.guards.len()
    }

    /// Total stored edge instances.
    pub fn instance_count(&self) -> usize {
        self.instances
    }

    /// Number of locks appearing as an edge endpoint.
    pub fn lock_count(&self) -> usize {
        self.nodes
    }
}

/// The graph with its lock table, addressed by lock, as the predictor
/// drives it: a lock gets a record when it is first recorded, and removing
/// a lock frees its record for the next new one.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct Fixture {
    pub g: LockOrderGraph,
    pub locks: LockTable,
}

#[cfg(test)]
impl Fixture {
    pub fn record(
        &mut self,
        (src, dst): (LockId, LockId),
        who: (ThreadId, StackId),
        guards: &[LockId],
        per_edge_cap: usize,
        global_cap: usize,
    ) -> Recorded {
        let edge = (self.locks.intern(src), self.locks.intern(dst));
        self.g
            .record(&mut self.locks, edge, who, guards, per_edge_cap, global_cap)
    }

    /// The record of `l`, which must have one.
    pub fn rec(&self, l: LockId) -> u32 {
        self.locks.find(l).expect("a known lock")
    }

    pub fn successors(&self, l: LockId) -> Vec<LockId> {
        self.locks.find(l).map_or_else(Vec::new, |r| {
            let succs = self.g.successors(&self.locks, r);
            succs.map(|w| self.locks[w].lock).collect()
        })
    }

    pub fn predecessors(&self, l: LockId) -> Vec<LockId> {
        self.locks.find(l).map_or_else(Vec::new, |r| {
            let preds = self.g.predecessors(&self.locks, r);
            preds.map(|w| self.locks[w].lock).collect()
        })
    }

    pub fn instances(&self, src: LockId, dst: LockId) -> &[EdgeInstance] {
        match (self.locks.find(src), self.locks.find(dst)) {
            (Some(s), Some(d)) => self.g.instances(s, d),
            _ => &[],
        }
    }

    /// Whether `l` currently appears in the graph.
    pub fn has_node(&self, l: LockId) -> bool {
        self.locks.find(l).is_some_and(|r| self.locks[r].linked)
    }

    /// Removes `l` from the graph without freeing its record.
    pub fn unlink(&mut self, l: LockId) -> (usize, usize) {
        match self.locks.find(l) {
            Some(r) => self.g.remove_lock(&mut self.locks, r),
            None => (0, 0),
        }
    }

    /// Removes `l` from the graph and frees its record, as aging does
    /// once the condensation has let go of it.
    pub fn remove(&mut self, l: LockId) -> (usize, usize) {
        let removed = self.unlink(l);
        if let Some(r) = self.locks.find(l) {
            self.locks.release(r);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn rec(f: &mut Fixture, src: u64, dst: u64, t: u64, s: u32) -> Recorded {
        f.record(
            (LockId(src), LockId(dst)),
            (ThreadId(t), StackId(s)),
            &[],
            8,
            64,
        )
    }

    #[test]
    fn record_distinguishes_new_edges_from_new_instances() {
        let mut f = Fixture::default();
        assert_eq!(rec(&mut f, 1, 2, 1, 1), Recorded::NewEdge);
        assert_eq!(rec(&mut f, 1, 2, 2, 2), Recorded::NewInstance);
        assert_eq!(rec(&mut f, 1, 2, 2, 2), Recorded::Duplicate);
        assert_eq!(f.g.lock_count(), 2);
        assert_eq!(f.predecessors(LockId(2)), [LockId(1)]);
    }

    #[test]
    fn remove_lock_severs_both_directions_and_counts() {
        let mut f = Fixture::default();
        rec(&mut f, 1, 2, 1, 1);
        rec(&mut f, 2, 3, 1, 2);
        rec(&mut f, 2, 3, 2, 3);
        rec(&mut f, 3, 1, 2, 4);
        assert_eq!(f.g.instance_count(), 4);
        let (edges, insts) = f.remove(LockId(2));
        assert_eq!((edges, insts), (2, 3));
        assert_eq!(f.g.instance_count(), 1);
        assert!(!f.has_node(LockId(2)));
        assert!(f.successors(LockId(1)).is_empty());
        assert_eq!(f.predecessors(LockId(1)), [LockId(3)]);
        // The survivors keep working, and lock 4 takes lock 2's record.
        let freed = f.locks.find(LockId(2));
        assert_eq!(freed, None);
        assert_eq!(rec(&mut f, 1, 4, 3, 5), Recorded::NewEdge);
        assert_eq!(f.rec(LockId(4)), 1, "the freed record is reused");
        assert_eq!(f.successors(LockId(4)), []);
        assert_eq!(f.predecessors(LockId(4)), [LockId(1)]);
    }

    /// Two edges take turns recording instances, so each full block moves
    /// to the end of the arena: from one instance to eight, then doubling
    /// up to the per-edge cap, every instance kept in recording order.
    #[test]
    fn a_full_block_grows_to_eight_then_doubles() {
        let mut f = Fixture::default();
        for s in 0..20 {
            for (src, dst) in [(1, 2), (3, 4)] {
                let want = if s == 0 {
                    Recorded::NewEdge
                } else {
                    Recorded::NewInstance
                };
                assert_eq!(rec32(&mut f, src, dst, s), want);
                let stacks: Vec<StackId> = f
                    .instances(LockId(src), LockId(dst))
                    .iter()
                    .map(|i| i.hold_stack)
                    .collect();
                assert_eq!(stacks, (0..=s).map(StackId).collect::<Vec<_>>());
            }
        }
        // Per edge: its arc, and blocks of 1, 8, 16 and 32 instances.
        assert_eq!(f.g.arena_len(), 2 * (1 + 1 + 8 + 16 + 32));
    }

    fn rec32(f: &mut Fixture, src: u64, dst: u64, s: u32) -> Recorded {
        let who = (ThreadId(1), StackId(s));
        f.record((LockId(src), LockId(dst)), who, &[], 32, 1 << 10)
    }

    /// One instance as the model stores it: thread, hold stack, guards.
    type ModelInstance = (ThreadId, StackId, Vec<LockId>);

    /// The representation the flat graph replaced, kept as its model:
    /// `src → dst → instances`, a reverse index, a node set, and the locks
    /// that have a record (recorded since they were last removed).
    #[derive(Default)]
    struct Model {
        edges: IdMap<LockId, IdMap<LockId, Vec<ModelInstance>>>,
        preds: IdMap<LockId, BTreeSet<LockId>>,
        nodes: BTreeSet<LockId>,
        known: BTreeSet<LockId>,
        instances: usize,
    }

    impl Model {
        fn record(
            &mut self,
            src: LockId,
            dst: LockId,
            inst: ModelInstance,
            caps: (usize, usize),
        ) -> Recorded {
            self.known.extend([src, dst]);
            if self.instances >= caps.1 {
                return Recorded::Capped;
            }
            let slot = self.edges.entry(src).or_default().entry(dst).or_default();
            let outcome = if slot.contains(&inst) {
                Recorded::Duplicate
            } else if slot.len() >= caps.0 {
                Recorded::Capped
            } else {
                slot.push(inst);
                self.instances += 1;
                if slot.len() == 1 {
                    Recorded::NewEdge
                } else {
                    Recorded::NewInstance
                }
            };
            if slot.is_empty() {
                let out = self.edges.get_mut(&src).unwrap();
                out.remove(&dst);
                if out.is_empty() {
                    self.edges.remove(&src);
                }
            } else if outcome == Recorded::NewEdge {
                self.preds.entry(dst).or_default().insert(src);
                self.nodes.extend([src, dst]);
            }
            outcome
        }

        fn remove_lock(&mut self, l: LockId) -> (usize, usize) {
            let (mut edges, mut insts) = (0, 0);
            for (dst, v) in self.edges.remove(&l).unwrap_or_default() {
                edges += 1;
                insts += v.len();
                self.preds.get_mut(&dst).unwrap().remove(&l);
            }
            for src in self.preds.remove(&l).unwrap_or_default() {
                let out = self.edges.get_mut(&src).unwrap();
                edges += 1;
                insts += out.remove(&l).unwrap().len();
                if out.is_empty() {
                    self.edges.remove(&src);
                }
            }
            self.nodes.remove(&l);
            self.known.remove(&l);
            self.instances -= insts;
            (edges, insts)
        }
    }

    const LOCKS: u64 = 8;
    /// The global instance cap.
    const GLOBAL_CAP: usize = 16;

    #[derive(Clone, Debug)]
    enum Op {
        Record {
            src: u64,
            dst: u64,
            thread: u64,
            stack: u32,
            guards: Vec<u64>,
        },
        Remove(u64),
    }

    fn arb_record() -> impl Strategy<Value = Op> {
        let guards = prop::collection::vec(0..LOCKS, 0..4);
        // Near neighbours only, so that edges collect several instances.
        (0..LOCKS, 1..3u64, 0..3u64, 0..2u32, guards).prop_map(
            |(src, step, thread, stack, guards)| Op::Record {
                src,
                dst: (src + step) % LOCKS,
                thread,
                stack,
                guards,
            },
        )
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                arb_record(),
                arb_record(),
                arb_record(),
                (0..LOCKS).prop_map(Op::Remove)
            ],
            0..160,
        )
    }

    /// Compares everything the graph and its lock table answer with the
    /// model.
    fn same(f: &Fixture, m: &Model) -> Result<(), String> {
        let g = &f.g;
        prop_assert_eq!(g.instance_count(), m.instances);
        prop_assert_eq!(g.lock_count(), m.nodes.len());
        let known: BTreeSet<LockId> = f.locks.iter().map(|(l, _)| l).collect();
        prop_assert_eq!(&known, &m.known, "the directory's locks");
        for (l, r) in f.locks.iter() {
            prop_assert_eq!(f.locks[r].lock, l, "record {} is another lock's", r);
        }
        for l in (0..LOCKS).map(LockId) {
            prop_assert_eq!(f.has_node(l), m.nodes.contains(&l));
            let succs: BTreeSet<LockId> = f.successors(l).into_iter().collect();
            let want: BTreeSet<LockId> = m
                .edges
                .get(&l)
                .map_or_else(BTreeSet::new, |o| o.keys().copied().collect());
            prop_assert_eq!(
                f.successors(l).len(),
                succs.len(),
                "a successor listed twice"
            );
            prop_assert_eq!(&succs, &want, "successors of {:?}", l);
            let preds: BTreeSet<LockId> = f.predecessors(l).into_iter().collect();
            prop_assert_eq!(
                f.predecessors(l).len(),
                preds.len(),
                "a predecessor listed twice"
            );
            let want = m.preds.get(&l).cloned().unwrap_or_default();
            prop_assert_eq!(&preds, &want, "predecessors of {:?}", l);
            for dst in (0..LOCKS).map(LockId) {
                let got: Vec<ModelInstance> = f
                    .instances(l, dst)
                    .iter()
                    .map(|i| (i.thread, i.hold_stack, g.guards(i).to_vec()))
                    .collect();
                let want = m
                    .edges
                    .get(&l)
                    .and_then(|o| o.get(&dst))
                    .cloned()
                    .unwrap_or_default();
                prop_assert_eq!(got, want, "instances of {:?} -> {:?}", l, dst);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat graph answers every query as the nested maps it
        /// replaced do, after every record and removal, under a per-edge
        /// cap of 2 (blocks of one or two instances) or more (blocks with
        /// slack). A removal frees the lock's record, and the next new lock
        /// takes it: the directory must hold exactly the locks recorded
        /// since their last removal, and a reused record must carry none
        /// of its old lock's lists. The run ends by removing every lock,
        /// which compacts the arenas to nothing.
        #[test]
        fn flat_graph_matches_the_nested_map_model(ops in arb_ops(), per_edge in 2..6usize) {
            let (mut f, mut m) = (Fixture::default(), Model::default());
            let (mut compacted, mut recorded) = (false, false);
            let removals = (0..LOCKS).map(Op::Remove);
            for op in ops.into_iter().chain(removals) {
                let before = f.g.arena_len();
                match op {
                    Op::Record { src, dst, thread, stack, mut guards } => {
                        guards.retain(|&x| x != src && x != dst);
                        guards.sort_unstable();
                        guards.dedup();
                        let guards: Vec<LockId> = guards.into_iter().map(LockId).collect();
                        let (src, dst) = (LockId(src), LockId(dst));
                        let got = f.record((src, dst), (ThreadId(thread), StackId(stack)), &guards, per_edge, GLOBAL_CAP);
                        let want = m.record(src, dst, (ThreadId(thread), StackId(stack), guards), (per_edge, GLOBAL_CAP));
                        prop_assert_eq!(got, want);
                        recorded |= got == Recorded::NewEdge;
                    }
                    Op::Remove(l) => {
                        prop_assert_eq!(f.remove(LockId(l)), m.remove_lock(LockId(l)));
                        compacted |= f.g.arena_len() < before;
                    }
                }
                same(&f, &m)?;
            }
            prop_assert_eq!(f.g.arena_len(), 0, "an empty graph keeps dead entries");
            prop_assert!(compacted || !recorded, "compaction never ran");
        }
    }
}
