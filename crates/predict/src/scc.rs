//! Incrementally maintained SCC condensation of the lock-order graph.
//!
//! The condensation keeps every lock assigned to a strongly-connected
//! component and every component assigned a **topological order value**
//! such that each cross-component edge `u → v` satisfies
//! `ord(comp(u)) < ord(comp(v))`. That invariant is what makes the
//! predictor's pass cheap: a new edge whose endpoints already respect the
//! order provably creates no cycle and costs O(log n); only an
//! order-violating edge triggers a Pearce–Kelly style restructure bounded
//! by the *affected region* — the components whose order values lie
//! between the violating endpoints — never the whole graph.
//!
//! # Complexity
//!
//! * [`Condensation::insert_edge`], order already consistent (the common
//!   acyclic case): **O(log n)** — two map lookups plus a `BTreeSet`
//!   probe when a fresh lock needs an order value.
//! * [`Condensation::insert_edge`], order violated but no cycle: one
//!   forward and one backward DFS restricted to components with order
//!   values inside the violation window, then a sort of the visited set —
//!   **O(Δ log Δ)** where Δ is the affected region (Pearce–Kelly's
//!   amortized bound), not the graph.
//! * [`Condensation::insert_edge`], cycle created: the same two DFSs; the
//!   components on a path from `v` to `u` (forward ∩ backward sets) merge
//!   into one SCC in **O(members)**.
//! * [`Condensation::retire`]: removing a lock from a multi-member
//!   component re-runs Tarjan restricted to that component's members —
//!   **O(component)**, with order values for the split parts carved out of
//!   the gap above the component's old value (a global renumber restores
//!   gaps when one closes; amortized over `ORDER_STRIDE` retirements).
//!
//! There is no second restructure path: the affected region is part of the
//! graph, so a full Tarjan rebuild in its place would never visit less.
//!
//! # Why the reorder is sound
//!
//! For an inserted edge `u → v` with `ord(cu) ≥ ord(cv)`, let `F` be the
//! components forward-reachable from `cv` with order ≤ `ord(cu)` and `B`
//! the components backward-reachable from `cu` with order ≥ `ord(cv)`.
//! Order values increase along every existing path, so any path `cv ⇝ cu`
//! stays inside the window: `F ∩ B` is exactly the set of components the
//! new edge makes strongly connected. The reorder assigns `B \ M` the
//! smallest values of the affected pool (members only move *down*),
//! `F \ M` the largest (members only move *up*), and the merged component
//! one leftover middle value. Crossing edges stay consistent: an edge into
//! `B` from inside the window implies membership in `B` (contradiction),
//! so external predecessors sit below the window and tolerate any
//! downward move; symmetrically for edges out of `F`.

use crate::graph::LockOrderGraph;
use dimmunix_rag::LockId;
use dimmunix_signature::{IdMap, IdSet};
use std::collections::BTreeSet;

/// Identifier of one condensation component.
type CompId = u32;

/// Gap left between consecutive order values on (re)assignment, so
/// retirement splits can slot sub-components in without renumbering.
const ORDER_STRIDE: u64 = 1 << 20;

#[derive(Clone, Debug)]
struct Component {
    ord: u64,
    members: Vec<LockId>,
}

/// Outcome of [`Condensation::insert_edge`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EdgeOutcome {
    /// The edge respects (or was made to respect) the topological order:
    /// it lies on no cycle. Nothing to enumerate.
    Acyclic,
    /// Both endpoints were already inside one SCC: the edge may close new
    /// cycles through itself.
    SameComponent,
    /// The edge merged two or more components into one SCC: every new
    /// cycle runs through it.
    Merged,
}

/// The condensation DAG: lock → component, component → topological order.
#[derive(Clone, Debug, Default)]
pub(crate) struct Condensation {
    comp: IdMap<LockId, CompId>,
    comps: IdMap<CompId, Component>,
    /// Order values currently in use (gap queries for insertions/splits).
    orders: BTreeSet<u64>,
    next_id: CompId,
    merges: u64,
    component_peak: usize,
}

impl Condensation {
    /// Number of component merges performed (each one announced ≥ 1 new
    /// candidate cycle).
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Largest SCC ever formed (gauge; components shrink via retirement).
    pub fn component_peak(&self) -> usize {
        self.component_peak
    }

    /// Whether `a` and `b` currently share a component. `false` when
    /// either lock is unknown (e.g. retired).
    pub fn same_component(&self, a: LockId, b: LockId) -> bool {
        match (self.comp.get(&a), self.comp.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Members of the component containing `l` (empty if unknown).
    #[cfg(test)]
    pub fn members_of(&self, l: LockId) -> &[LockId] {
        self.comp
            .get(&l)
            .and_then(|c| self.comps.get(c))
            .map_or(&[], |c| c.members.as_slice())
    }

    fn alloc_id(&mut self) -> CompId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Creates a singleton component for `l` at the end of the order.
    fn ensure_last(&mut self, l: LockId) -> CompId {
        if let Some(&c) = self.comp.get(&l) {
            return c;
        }
        let ord = match self.orders.last() {
            Some(&max) => match max.checked_add(ORDER_STRIDE) {
                Some(o) => o,
                None => {
                    self.renumber();
                    self.orders.last().unwrap() + ORDER_STRIDE
                }
            },
            None => ORDER_STRIDE,
        };
        self.insert_singleton(l, ord)
    }

    /// Creates a singleton component for `l` ordered strictly below `ord`
    /// (the fresh-source fast path: a brand-new lock gaining its first
    /// edge `l → v` slots in right under `v` instead of at the end, which
    /// would otherwise trigger a restructure spanning everything above
    /// `v`).
    fn ensure_below(&mut self, l: LockId, below: u64) -> CompId {
        debug_assert!(!self.comp.contains_key(&l));
        let floor = self.orders.range(..below).next_back().copied().unwrap_or(0);
        let gap = below - floor;
        if gap < 2 {
            self.renumber();
            // After renumbering every gap is ORDER_STRIDE wide; recompute
            // the target from the caller's component on the caller side.
            return CompId::MAX; // sentinel: caller must re-resolve
        }
        self.insert_singleton(l, floor + gap / 2)
    }

    fn insert_singleton(&mut self, l: LockId, ord: u64) -> CompId {
        let id = self.alloc_id();
        debug_assert!(!self.orders.contains(&ord));
        self.orders.insert(ord);
        self.comps.insert(
            id,
            Component {
                ord,
                members: vec![l],
            },
        );
        self.comp.insert(l, id);
        self.component_peak = self.component_peak.max(1);
        id
    }

    /// Records that edge `u → v` now exists in `graph` (which must already
    /// contain it) and restores the condensation invariant.
    pub fn insert_edge(&mut self, graph: &LockOrderGraph, u: LockId, v: LockId) -> EdgeOutcome {
        if u == v {
            return EdgeOutcome::Acyclic;
        }
        let cv = match self.comp.get(&v) {
            Some(&c) => c,
            None => self.ensure_last(v),
        };
        let cu = match self.comp.get(&u) {
            Some(&c) => c,
            None => {
                let below = self.comps[&cv].ord;
                let c = self.ensure_below(u, below);
                if c == CompId::MAX {
                    // A renumber ran; gaps are wide open now.
                    let below = self.comps[&self.comp[&v]].ord;
                    self.ensure_below(u, below)
                } else {
                    c
                }
            }
        };
        let cv = self.comp[&v]; // may have been renumbered/created above
        if cu == cv {
            return EdgeOutcome::SameComponent;
        }
        let (ou, ov) = (self.comps[&cu].ord, self.comps[&cv].ord);
        if ou < ov {
            return EdgeOutcome::Acyclic;
        }
        // Order violated: discover the affected region.
        let fwd = self.window_dfs(graph, cv, ov, ou, Direction::Forward);
        let bwd = self.window_dfs(graph, cu, ov, ou, Direction::Backward);
        if fwd.contains(&cu) {
            let merged: IdSet<CompId> = fwd.intersection(&bwd).copied().collect();
            self.restructure(&fwd, &bwd, Some(&merged));
            self.merges += 1;
            EdgeOutcome::Merged
        } else {
            self.restructure(&fwd, &bwd, None);
            EdgeOutcome::Acyclic
        }
    }

    /// DFS over the component graph restricted to order values in
    /// `[lo, hi]`.
    fn window_dfs(
        &self,
        graph: &LockOrderGraph,
        start: CompId,
        lo: u64,
        hi: u64,
        dir: Direction,
    ) -> IdSet<CompId> {
        let mut seen: IdSet<CompId> = IdSet::default();
        seen.insert(start);
        let mut stack = vec![start];
        while let Some(c) = stack.pop() {
            for &m in &self.comps[&c].members {
                let mut visit = |w: LockId| {
                    let cw = self.comp[&w];
                    if seen.contains(&cw) {
                        return;
                    }
                    let ow = self.comps[&cw].ord;
                    if ow < lo || ow > hi {
                        return;
                    }
                    seen.insert(cw);
                    stack.push(cw);
                };
                match dir {
                    Direction::Forward => graph.successors(m).for_each(&mut visit),
                    Direction::Backward => graph.predecessors(m).for_each(&mut visit),
                }
            }
        }
        seen
    }

    /// Pearce–Kelly reorder of the affected region, optionally merging
    /// `merged` (= fwd ∩ bwd) into one component. See the module docs for
    /// the soundness argument.
    fn restructure(
        &mut self,
        fwd: &IdSet<CompId>,
        bwd: &IdSet<CompId>,
        merged: Option<&IdSet<CompId>>,
    ) {
        let empty = IdSet::default();
        let m = merged.unwrap_or(&empty);
        // Pool of order values owned by the affected region.
        let mut pool: Vec<u64> = fwd
            .union(bwd)
            .map(|c| self.comps[c].ord)
            .collect::<Vec<_>>();
        pool.sort_unstable();
        let mut bs: Vec<CompId> = bwd.iter().copied().filter(|c| !m.contains(c)).collect();
        bs.sort_unstable_by_key(|c| self.comps[c].ord);
        let mut fs: Vec<CompId> = fwd.iter().copied().filter(|c| !m.contains(c)).collect();
        fs.sort_unstable_by_key(|c| self.comps[c].ord);
        // Backward set sinks to the bottom of the pool, forward set floats
        // to the top; both keep their internal relative order.
        for (i, c) in bs.iter().enumerate() {
            self.comps.get_mut(c).unwrap().ord = pool[i];
        }
        let top = pool.len() - fs.len();
        for (j, c) in fs.iter().enumerate() {
            self.comps.get_mut(c).unwrap().ord = pool[top + j];
        }
        if let Some(mset) = merged {
            // Collapse the cycle components into the largest one, then
            // hand the merged component the lowest middle value; leftover
            // middle values are freed.
            let base = *mset
                .iter()
                .max_by_key(|c| (self.comps[c].members.len(), std::cmp::Reverse(**c)))
                .expect("merge set is non-empty");
            let mut members = std::mem::take(&mut self.comps.get_mut(&base).unwrap().members);
            for &c in mset {
                if c == base {
                    continue;
                }
                let dead = self.comps.remove(&c).expect("merged component exists");
                for l in dead.members {
                    self.comp.insert(l, base);
                    members.push(l);
                }
            }
            self.component_peak = self.component_peak.max(members.len());
            let slot = self.comps.get_mut(&base).unwrap();
            slot.members = members;
            slot.ord = pool[bs.len()];
            for &freed in &pool[bs.len() + 1..top] {
                self.orders.remove(&freed);
            }
        }
    }

    /// Removes `l` (already deleted from `graph`) from the condensation,
    /// re-splitting its component if the removal disconnected it.
    pub fn retire(&mut self, graph: &LockOrderGraph, l: LockId) {
        let Some(c) = self.comp.remove(&l) else {
            return;
        };
        let slot = self.comps.get_mut(&c).expect("member's component exists");
        slot.members.retain(|&m| m != l);
        if slot.members.is_empty() {
            let dead = self.comps.remove(&c).unwrap();
            self.orders.remove(&dead.ord);
            return;
        }
        if slot.members.len() == 1 {
            return;
        }
        // The survivors may have split into several SCCs.
        let members = slot.members.clone();
        let subs = tarjan_restricted(graph, &members);
        if subs.len() == 1 {
            return;
        }
        let old_ord = self.comps[&c].ord;
        // The split parts need `subs.len()` order values strictly between
        // every external predecessor (all < old_ord) and every external
        // successor (all > old_ord): values in [old_ord, next_used) work.
        let k = subs.len() as u64;
        let next_used = self
            .orders
            .range(old_ord + 1..)
            .next()
            .copied()
            .unwrap_or(u64::MAX);
        let gap = next_used - old_ord;
        if gap < k {
            self.renumber();
            self.retire_split(c, subs);
            return;
        }
        let step = gap / k;
        self.orders.remove(&old_ord);
        self.comps.remove(&c);
        // `subs` arrives in reverse topological order (Tarjan emits a
        // component only after everything it reaches).
        for (i, sub) in subs.into_iter().rev().enumerate() {
            let ord = old_ord + i as u64 * step;
            let id = self.alloc_id();
            self.orders.insert(ord);
            for &m in &sub {
                self.comp.insert(m, id);
            }
            self.comps.insert(id, Component { ord, members: sub });
        }
    }

    /// Split continuation after a renumber (every gap is stride-wide).
    fn retire_split(&mut self, c: CompId, subs: Vec<Vec<LockId>>) {
        let old_ord = self.comps[&c].ord;
        let next_used = self
            .orders
            .range(old_ord + 1..)
            .next()
            .copied()
            .unwrap_or(u64::MAX);
        let step = (next_used - old_ord) / subs.len() as u64;
        debug_assert!(step >= 1, "renumber must reopen the gap");
        self.orders.remove(&old_ord);
        self.comps.remove(&c);
        for (i, sub) in subs.into_iter().rev().enumerate() {
            let ord = old_ord + i as u64 * step;
            let id = self.alloc_id();
            self.orders.insert(ord);
            for &m in &sub {
                self.comp.insert(m, id);
            }
            self.comps.insert(id, Component { ord, members: sub });
        }
    }

    /// Reassigns every component's order value with `ORDER_STRIDE` gaps,
    /// preserving relative order.
    fn renumber(&mut self) {
        let mut by_ord: Vec<CompId> = self.comps.keys().copied().collect();
        by_ord.sort_unstable_by_key(|c| self.comps[c].ord);
        self.orders.clear();
        for (i, c) in by_ord.into_iter().enumerate() {
            let ord = (i as u64 + 1) * ORDER_STRIDE;
            self.comps.get_mut(&c).unwrap().ord = ord;
            self.orders.insert(ord);
        }
    }

    #[cfg(test)]
    fn check_invariants(&self, graph: &LockOrderGraph) {
        // Unique order values, one per component.
        assert_eq!(self.orders.len(), self.comps.len());
        for (id, c) in &self.comps {
            assert!(self.orders.contains(&c.ord));
            for m in &c.members {
                assert_eq!(self.comp[m], *id, "member map out of sync");
            }
        }
        // Every cross-component edge respects the order.
        for (&l, &cl) in &self.comp {
            for w in graph.successors(l) {
                let cw = self.comp[&w];
                if cl != cw {
                    assert!(
                        self.comps[&cl].ord < self.comps[&cw].ord,
                        "edge {l:?} -> {w:?} violates the topological order"
                    );
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Direction {
    Forward,
    Backward,
}

/// Iterative Tarjan restricted to `nodes` (edges leaving the set are
/// ignored). Returns SCCs in emission order — reverse topological.
fn tarjan_restricted(graph: &LockOrderGraph, nodes: &[LockId]) -> Vec<Vec<LockId>> {
    struct State {
        index: IdMap<LockId, u32>,
        lowlink: IdMap<LockId, u32>,
        on_stack: IdSet<LockId>,
        stack: Vec<LockId>,
        next: u32,
        out: Vec<Vec<LockId>>,
    }
    let allowed: IdSet<LockId> = nodes.iter().copied().collect();
    let mut st = State {
        index: IdMap::default(),
        lowlink: IdMap::default(),
        on_stack: IdSet::default(),
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    // Visit in id order: map iteration follows hash order, not insertion
    // or id order, and SCC emission order must not depend on it.
    let mut roots: Vec<LockId> = nodes.to_vec();
    roots.sort_unstable();
    for &root in &roots {
        if st.index.contains_key(&root) {
            continue;
        }
        // Explicit DFS frames: (node, sorted successors, next successor).
        let succs = |l: LockId| {
            let mut v: Vec<LockId> = graph
                .successors(l)
                .filter(|w| allowed.contains(w))
                .collect();
            v.sort_unstable();
            v
        };
        let mut frames: Vec<(LockId, Vec<LockId>, usize)> = Vec::new();
        st.index.insert(root, st.next);
        st.lowlink.insert(root, st.next);
        st.next += 1;
        st.stack.push(root);
        st.on_stack.insert(root);
        frames.push((root, succs(root), 0));
        while let Some(frame) = frames.last_mut() {
            let (v, ws, i) = (frame.0, &frame.1, &mut frame.2);
            if *i < ws.len() {
                let w = ws[*i];
                *i += 1;
                if !st.index.contains_key(&w) {
                    st.index.insert(w, st.next);
                    st.lowlink.insert(w, st.next);
                    st.next += 1;
                    st.stack.push(w);
                    st.on_stack.insert(w);
                    frames.push((w, succs(w), 0));
                } else if st.on_stack.contains(&w) {
                    let lw = st.index[&w];
                    let lv = st.lowlink.get_mut(&v).unwrap();
                    *lv = (*lv).min(lw);
                }
                continue;
            }
            // v finished: pop an SCC if v is a root, then propagate lowlink.
            if st.lowlink[&v] == st.index[&v] {
                let mut scc = Vec::new();
                loop {
                    let w = st.stack.pop().unwrap();
                    st.on_stack.remove(&w);
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                st.out.push(scc);
            }
            frames.pop();
            if let Some(parent) = frames.last() {
                let lv = st.lowlink[&v];
                let lp = st.lowlink.get_mut(&parent.0).unwrap();
                *lp = (*lp).min(lv);
            }
        }
    }
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeInstance, LockOrderGraph, Recorded};
    use dimmunix_rag::ThreadId;
    use dimmunix_signature::StackId;

    fn l(n: u64) -> LockId {
        LockId(n)
    }

    fn add_edge(g: &mut LockOrderGraph, scc: &mut Condensation, u: u64, v: u64) -> EdgeOutcome {
        let inst = EdgeInstance {
            thread: ThreadId(u * 1000 + v),
            hold_stack: StackId((u * 100 + v) as u32),
            guards: Box::new([]),
        };
        match g.record(l(u), l(v), inst, 64, 1 << 20) {
            Recorded::NewEdge | Recorded::NewInstance => {}
            r => panic!("unexpected record outcome {r:?}"),
        }
        scc.insert_edge(g, l(u), l(v))
    }

    #[test]
    fn forward_chain_stays_acyclic_and_cheap() {
        let mut g = LockOrderGraph::default();
        let mut scc = Condensation::default();
        for i in 0..64 {
            assert_eq!(add_edge(&mut g, &mut scc, i, i + 1), EdgeOutcome::Acyclic);
        }
        scc.check_invariants(&g);
        assert_eq!(scc.merges(), 0);
        assert_eq!(scc.component_peak(), 1);
    }

    #[test]
    fn reverse_chain_reorders_without_merging() {
        let mut g = LockOrderGraph::default();
        let mut scc = Condensation::default();
        for i in (0..64).rev() {
            assert_eq!(add_edge(&mut g, &mut scc, i, i + 1), EdgeOutcome::Acyclic);
            scc.check_invariants(&g);
        }
        assert_eq!(scc.merges(), 0);
    }

    #[test]
    fn closing_edge_merges_the_cycle() {
        let mut g = LockOrderGraph::default();
        let mut scc = Condensation::default();
        for i in 0..5 {
            add_edge(&mut g, &mut scc, i, i + 1);
        }
        assert_eq!(add_edge(&mut g, &mut scc, 5, 0), EdgeOutcome::Merged);
        scc.check_invariants(&g);
        assert_eq!(scc.merges(), 1);
        assert_eq!(scc.component_peak(), 6);
        assert!(scc.same_component(l(0), l(5)));
        // A later edge inside the SCC reports SameComponent.
        assert_eq!(add_edge(&mut g, &mut scc, 3, 1), EdgeOutcome::SameComponent);
    }

    #[test]
    fn two_cycles_merge_through_a_bridge() {
        let mut g = LockOrderGraph::default();
        let mut scc = Condensation::default();
        // Cycle A: 0 -> 1 -> 0; cycle B: 10 -> 11 -> 10.
        add_edge(&mut g, &mut scc, 0, 1);
        assert_eq!(add_edge(&mut g, &mut scc, 1, 0), EdgeOutcome::Merged);
        add_edge(&mut g, &mut scc, 10, 11);
        assert_eq!(add_edge(&mut g, &mut scc, 11, 10), EdgeOutcome::Merged);
        // Bridge A -> B, then B -> A: one four-lock SCC.
        assert_eq!(add_edge(&mut g, &mut scc, 1, 10), EdgeOutcome::Acyclic);
        assert_eq!(add_edge(&mut g, &mut scc, 11, 0), EdgeOutcome::Merged);
        scc.check_invariants(&g);
        assert_eq!(scc.component_peak(), 4);
        assert!(scc.same_component(l(0), l(11)));
    }

    /// Both restructures of the incremental path between two chains: a
    /// cross edge that violates the order without closing a cycle reorders
    /// the affected region, and an edge that closes the loop the other way
    /// merges all 18 locks.
    #[test]
    fn cross_edges_between_two_chains_reorder_then_merge() {
        let mut g = LockOrderGraph::default();
        let mut scc = Condensation::default();
        // Two disjoint chains: 0 -> .. -> 8 (low orders) and
        // 100 -> .. -> 108 (high orders).
        for i in 0..8 {
            add_edge(&mut g, &mut scc, i, i + 1);
            add_edge(&mut g, &mut scc, 100 + i, 101 + i);
        }
        // A cross edge from the high chain into the low one violates the
        // order without closing a cycle.
        let inst = EdgeInstance {
            thread: ThreadId(999),
            hold_stack: StackId(999),
            guards: Box::new([]),
        };
        g.record(l(108), l(0), inst, 64, 1 << 20);
        assert_eq!(scc.insert_edge(&g, l(108), l(0)), EdgeOutcome::Acyclic);
        scc.check_invariants(&g);
        // Closing the loop the other way merges all 18 locks.
        let inst = EdgeInstance {
            thread: ThreadId(998),
            hold_stack: StackId(998),
            guards: Box::new([]),
        };
        g.record(l(8), l(100), inst, 64, 1 << 20);
        assert_eq!(scc.insert_edge(&g, l(8), l(100)), EdgeOutcome::Merged);
        scc.check_invariants(&g);
        assert_eq!(scc.component_peak(), 18);
    }

    #[test]
    fn retirement_splits_a_component() {
        let mut g = LockOrderGraph::default();
        let mut scc = Condensation::default();
        // 0 -> 1 -> 2 -> 0 and 2 -> 3 -> 4 -> 2: one SCC of 5 through 2.
        add_edge(&mut g, &mut scc, 0, 1);
        add_edge(&mut g, &mut scc, 1, 2);
        add_edge(&mut g, &mut scc, 2, 0);
        add_edge(&mut g, &mut scc, 2, 3);
        add_edge(&mut g, &mut scc, 3, 4);
        add_edge(&mut g, &mut scc, 4, 2);
        scc.check_invariants(&g);
        assert_eq!(scc.component_peak(), 5);
        assert!(scc.same_component(l(0), l(4)));
        // Retiring lock 2 severs both cycles: 4 singleton components.
        g.remove_lock(l(2));
        scc.retire(&g, l(2));
        scc.check_invariants(&g);
        assert!(!scc.same_component(l(0), l(1)));
        assert!(!scc.same_component(l(3), l(4)));
        assert!(scc.members_of(l(2)).is_empty());
    }

    #[test]
    fn retirement_of_singletons_frees_their_order() {
        let mut g = LockOrderGraph::default();
        let mut scc = Condensation::default();
        add_edge(&mut g, &mut scc, 0, 1);
        g.remove_lock(l(0));
        scc.retire(&g, l(0));
        g.remove_lock(l(1));
        scc.retire(&g, l(1));
        assert!(scc.members_of(l(0)).is_empty());
        assert_eq!(scc.orders.len(), 0);
        // Re-acquiring after retirement starts a fresh component.
        add_edge(&mut g, &mut scc, 0, 1);
        scc.check_invariants(&g);
        assert!(!scc.same_component(l(0), l(1)));
    }

    /// Randomized stress: every insertion order over random edge sets must
    /// keep the invariant, and component membership must match a from-
    /// scratch Tarjan.
    #[test]
    fn random_graphs_match_batch_tarjan() {
        let mut seed = 0x9e3779b97f4a7c15_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..40 {
            let n = 4 + rng() % 24;
            let edges = 4 + (rng() % (3 * n)) as usize;
            let mut g = LockOrderGraph::default();
            let mut scc = Condensation::default();
            for _ in 0..edges {
                let u = rng() % n;
                let v = rng() % n;
                if u == v {
                    continue;
                }
                let inst = EdgeInstance {
                    thread: ThreadId(rng() % 4),
                    hold_stack: StackId((rng() % 64) as u32),
                    guards: Box::new([]),
                };
                if matches!(
                    g.record(l(u), l(v), inst, 64, 1 << 20),
                    Recorded::NewEdge | Recorded::NewInstance
                ) {
                    scc.insert_edge(&g, l(u), l(v));
                }
                // Occasional retirement of a random known lock.
                if rng() % 16 == 0 {
                    let r = rng() % n;
                    if g.has_node(l(r)) {
                        g.remove_lock(l(r));
                        scc.retire(&g, l(r));
                    }
                }
            }
            scc.check_invariants(&g);
            // Membership must agree with batch Tarjan over the live nodes.
            let nodes: Vec<LockId> = scc.comp.keys().copied().collect();
            let batch = tarjan_restricted(&g, &nodes);
            let mut expect: IdMap<LockId, usize> = IdMap::default();
            for (i, sub) in batch.iter().enumerate() {
                for &m in sub {
                    expect.insert(m, i);
                }
            }
            for &a in &nodes {
                for &b in &nodes {
                    assert_eq!(
                        scc.same_component(a, b),
                        expect[&a] == expect[&b],
                        "round {round}: membership mismatch for {a:?}, {b:?}"
                    );
                }
            }
        }
    }
}
