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
//! The graph also maintains a reverse adjacency index (`preds`) so the
//! condensation's backward searches and whole-lock removal (aging —
//! [`LockOrderGraph::remove_lock`]) run without scanning every edge map.

use dimmunix_rag::{LockId, ThreadId};
use dimmunix_signature::{IdMap, IdSet, StackId};

/// One observed establishment of a lock ordering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct EdgeInstance {
    /// The thread that acquired the edge's destination lock.
    pub thread: ThreadId,
    /// The call stack with which the thread held the edge's *source* lock —
    /// exactly the hold-edge label a detected deadlock cycle would carry,
    /// and therefore the synthesized signature's member stack.
    pub hold_stack: StackId,
    /// All other locks held at the acquisition (sorted, source excluded):
    /// the gate locks guarding this ordering.
    pub guards: Box<[LockId]>,
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

/// The graph itself: `src → dst → instances`, plus the reverse index.
#[derive(Clone, Default, Debug)]
pub(crate) struct LockOrderGraph {
    edges: IdMap<LockId, IdMap<LockId, Vec<EdgeInstance>>>,
    preds: IdMap<LockId, IdSet<LockId>>,
    nodes: IdSet<LockId>,
    instances: usize,
}

impl LockOrderGraph {
    /// Records one ordering observation, deduplicating identical instances.
    pub fn record(
        &mut self,
        src: LockId,
        dst: LockId,
        inst: EdgeInstance,
        per_edge_cap: usize,
        global_cap: usize,
    ) -> Recorded {
        if self.instances >= global_cap {
            return Recorded::Capped;
        }
        let out = self.edges.entry(src).or_default();
        let slot = out.entry(dst).or_default();
        let new_edge = slot.is_empty();
        let outcome = if slot.contains(&inst) {
            Recorded::Duplicate
        } else if slot.len() >= per_edge_cap {
            Recorded::Capped
        } else {
            slot.push(inst);
            self.instances += 1;
            if new_edge {
                Recorded::NewEdge
            } else {
                Recorded::NewInstance
            }
        };
        if new_edge && outcome != Recorded::NewEdge {
            // Roll back the slot the entry API just created, so a capped
            // first observation leaves no phantom (instance-less) edge.
            out.remove(&dst);
            if out.is_empty() {
                self.edges.remove(&src);
            }
        } else if outcome == Recorded::NewEdge {
            self.preds.entry(dst).or_default().insert(src);
            self.nodes.insert(src);
            self.nodes.insert(dst);
        }
        outcome
    }

    /// The destination locks reachable from `src` by one edge.
    pub fn successors(&self, src: LockId) -> impl Iterator<Item = LockId> + '_ {
        self.edges
            .get(&src)
            .into_iter()
            .flat_map(|m| m.keys().copied())
    }

    /// The source locks with an edge into `dst`.
    pub fn predecessors(&self, dst: LockId) -> impl Iterator<Item = LockId> + '_ {
        self.preds
            .get(&dst)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// The recorded instances of edge `src → dst` (empty if absent).
    pub fn instances(&self, src: LockId, dst: LockId) -> &[EdgeInstance] {
        self.edges
            .get(&src)
            .and_then(|m| m.get(&dst))
            .map_or(&[], |v| v.as_slice())
    }

    /// Removes `l` and every edge touching it (lock aging). Returns
    /// `(edges removed, instances removed)`.
    pub fn remove_lock(&mut self, l: LockId) -> (usize, usize) {
        let mut edges_removed = 0;
        let mut inst_removed = 0;
        if let Some(out) = self.edges.remove(&l) {
            for (dst, insts) in out {
                edges_removed += 1;
                inst_removed += insts.len();
                if let Some(p) = self.preds.get_mut(&dst) {
                    p.remove(&l);
                    if p.is_empty() {
                        self.preds.remove(&dst);
                    }
                }
            }
        }
        if let Some(ins) = self.preds.remove(&l) {
            for src in ins {
                let Some(m) = self.edges.get_mut(&src) else {
                    continue;
                };
                if let Some(insts) = m.remove(&l) {
                    edges_removed += 1;
                    inst_removed += insts.len();
                }
                if m.is_empty() {
                    self.edges.remove(&src);
                }
            }
        }
        self.nodes.remove(&l);
        self.instances -= inst_removed;
        (edges_removed, inst_removed)
    }

    /// Whether `l` currently appears in the graph.
    #[cfg(test)]
    pub fn has_node(&self, l: LockId) -> bool {
        self.nodes.contains(&l)
    }

    /// Total stored edge instances.
    pub fn instance_count(&self) -> usize {
        self.instances
    }

    /// Number of locks appearing as an edge endpoint.
    pub fn lock_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(t: u64, s: u32) -> EdgeInstance {
        EdgeInstance {
            thread: ThreadId(t),
            hold_stack: StackId(s),
            guards: Box::new([]),
        }
    }

    #[test]
    fn record_distinguishes_new_edges_from_new_instances() {
        let mut g = LockOrderGraph::default();
        assert_eq!(
            g.record(LockId(1), LockId(2), inst(1, 1), 8, 64),
            Recorded::NewEdge
        );
        assert_eq!(
            g.record(LockId(1), LockId(2), inst(2, 2), 8, 64),
            Recorded::NewInstance
        );
        assert_eq!(
            g.record(LockId(1), LockId(2), inst(2, 2), 8, 64),
            Recorded::Duplicate
        );
        assert_eq!(g.lock_count(), 2);
        assert_eq!(g.predecessors(LockId(2)).collect::<Vec<_>>(), [LockId(1)]);
    }

    #[test]
    fn remove_lock_severs_both_directions_and_counts() {
        let mut g = LockOrderGraph::default();
        g.record(LockId(1), LockId(2), inst(1, 1), 8, 64);
        g.record(LockId(2), LockId(3), inst(1, 2), 8, 64);
        g.record(LockId(2), LockId(3), inst(2, 3), 8, 64);
        g.record(LockId(3), LockId(1), inst(2, 4), 8, 64);
        assert_eq!(g.instance_count(), 4);
        let (edges, insts) = g.remove_lock(LockId(2));
        assert_eq!((edges, insts), (2, 3));
        assert_eq!(g.instance_count(), 1);
        assert!(!g.has_node(LockId(2)));
        assert!(g.successors(LockId(1)).next().is_none());
        assert_eq!(g.predecessors(LockId(1)).collect::<Vec<_>>(), [LockId(3)]);
        // The survivors keep working.
        assert_eq!(
            g.record(LockId(1), LockId(2), inst(3, 5), 8, 64),
            Recorded::NewEdge
        );
    }
}
