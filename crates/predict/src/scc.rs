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
//!   acyclic case): **O(1)** — two map lookups, plus a link into the
//!   order list when a fresh lock needs an order value (its neighbour in
//!   the order is one link away).
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
//! # Layout
//!
//! Three maps of `Copy` values, like the order graph's (see
//! [`crate::graph`]): lock → its component and the next member of that
//! component (each component's members form a ring, so a merge joins two
//! rings by swapping two links, and a retirement unlinks one member in
//! O(component)); component → its order value, one member and its size;
//! and the order values in use as a doubly linked list keyed by value,
//! which answers "the value just below or above this one" in O(1). A
//! clone copies three tables; `clone_from` copies them into the target's.
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

/// Identifier of one condensation component.
type CompId = u32;

/// Gap left between consecutive order values on (re)assignment, so
/// retirement splits can slot sub-components in without renumbering.
const ORDER_STRIDE: u64 = 1 << 20;

/// A lock's component, and the next member of that component: each
/// component's members form a ring.
#[derive(Clone, Copy, Debug)]
struct Member {
    comp: CompId,
    next: LockId,
}

#[derive(Clone, Copy, Debug)]
struct Component {
    ord: u64,
    /// Any member: where a walk of the ring starts.
    head: LockId,
    len: usize,
}

/// The order values in use, in ascending order: a doubly linked list kept
/// in a map from each value to its `(previous, next)` values. Key 0, never
/// an order value, is the list's head and end.
#[derive(Debug, Default)]
struct Orders {
    links: IdMap<u64, (u64, u64)>,
}

const HEAD: u64 = 0;

impl Orders {
    fn link(&self, o: u64) -> (u64, u64) {
        self.links.get(&o).copied().unwrap_or((HEAD, HEAD))
    }

    /// The largest value in use.
    fn last(&self) -> Option<u64> {
        Some(self.link(HEAD).0).filter(|&o| o != HEAD)
    }

    /// The value in use just below `o` (which is in use), or `HEAD`.
    fn prev(&self, o: u64) -> u64 {
        self.link(o).0
    }

    /// The value in use just above `o` (which is in use).
    fn next(&self, o: u64) -> Option<u64> {
        Some(self.link(o).1).filter(|&n| n != HEAD)
    }

    /// Puts `o` right after `at` (`HEAD` for the front).
    fn insert_after(&mut self, at: u64, o: u64) {
        let next = self.link(at).1;
        self.links.entry(at).or_insert((HEAD, HEAD)).1 = o;
        self.links.entry(next).or_insert((HEAD, HEAD)).0 = o;
        self.links.insert(o, (at, next));
    }

    fn remove(&mut self, o: u64) {
        let (prev, next) = self.links.remove(&o).expect("order value in use");
        self.links.get_mut(&prev).expect("linked").1 = next;
        self.links.get_mut(&next).expect("linked").0 = prev;
        if self.links.len() == 1 {
            self.links.clear();
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.links.len().saturating_sub(1)
    }
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
/// Every map holds `Copy` values, so a clone copies three tables and
/// [`Clone::clone_from`] copies them into the tables already there.
#[derive(Debug, Default)]
pub(crate) struct Condensation {
    comp: IdMap<LockId, Member>,
    comps: IdMap<CompId, Component>,
    /// Order values currently in use (gap queries for insertions/splits).
    orders: Orders,
    next_id: CompId,
    merges: u64,
    component_peak: usize,
}

impl Clone for Condensation {
    fn clone(&self) -> Self {
        let mut copy = Self::default();
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, source: &Self) {
        self.comp.clone_from(&source.comp);
        self.comps.clone_from(&source.comps);
        self.orders.links.clone_from(&source.orders.links);
        self.next_id = source.next_id;
        self.merges = source.merges;
        self.component_peak = source.component_peak;
    }
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

    /// Entries a clone copies: the three maps' tables.
    pub fn clone_len(&self) -> usize {
        self.comp.capacity() + self.comps.capacity() + self.orders.links.capacity()
    }

    /// Whether `a` and `b` currently share a component. `false` when
    /// either lock is unknown (e.g. retired).
    pub fn same_component(&self, a: LockId, b: LockId) -> bool {
        match (self.comp.get(&a), self.comp.get(&b)) {
            (Some(x), Some(y)) => x.comp == y.comp,
            _ => false,
        }
    }

    /// The members of component `c`, walking its ring.
    fn members(&self, c: CompId) -> impl Iterator<Item = LockId> + '_ {
        let slot = self.comps[&c];
        let mut at = slot.head;
        (0..slot.len).map(move |_| {
            let m = at;
            at = self.comp[&m].next;
            m
        })
    }

    /// Members of the component containing `l` (empty if unknown).
    #[cfg(test)]
    pub fn members_of(&self, l: LockId) -> Vec<LockId> {
        self.comp
            .get(&l)
            .map_or_else(Vec::new, |m| self.members(m.comp).collect())
    }

    fn alloc_id(&mut self) -> CompId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Creates a singleton component for `l` at the end of the order.
    fn ensure_last(&mut self, l: LockId) -> CompId {
        if let Some(m) = self.comp.get(&l) {
            return m.comp;
        }
        let ord = match self.orders.last() {
            Some(max) => match max.checked_add(ORDER_STRIDE) {
                Some(o) => o,
                None => {
                    self.renumber();
                    self.orders.last().unwrap() + ORDER_STRIDE
                }
            },
            None => ORDER_STRIDE,
        };
        let after = self.orders.last().unwrap_or(HEAD);
        self.insert_singleton(l, ord, after)
    }

    /// Creates a singleton component for `l` ordered strictly below `ord`
    /// (the fresh-source fast path: a brand-new lock gaining its first
    /// edge `l → v` slots in right under `v` instead of at the end, which
    /// would otherwise trigger a restructure spanning everything above
    /// `v`).
    fn ensure_below(&mut self, l: LockId, below: u64) -> CompId {
        debug_assert!(!self.comp.contains_key(&l));
        let floor = self.orders.prev(below);
        let gap = below - floor;
        if gap < 2 {
            self.renumber();
            // After renumbering every gap is ORDER_STRIDE wide; recompute
            // the target from the caller's component on the caller side.
            return CompId::MAX; // sentinel: caller must re-resolve
        }
        self.insert_singleton(l, floor + gap / 2, floor)
    }

    /// Creates a singleton component for `l` with order value `ord`, which
    /// goes right after `after` in the order.
    fn insert_singleton(&mut self, l: LockId, ord: u64, after: u64) -> CompId {
        let id = self.alloc_id();
        debug_assert!(!self.orders.links.contains_key(&ord));
        self.orders.insert_after(after, ord);
        self.comps.insert(
            id,
            Component {
                ord,
                head: l,
                len: 1,
            },
        );
        self.comp.insert(l, Member { comp: id, next: l });
        self.component_peak = self.component_peak.max(1);
        id
    }

    /// Records that edge `u → v` now exists in `graph` (which must already
    /// contain it) and restores the condensation invariant.
    pub fn insert_edge(&mut self, graph: &LockOrderGraph, u: LockId, v: LockId) -> EdgeOutcome {
        if u == v {
            return EdgeOutcome::Acyclic;
        }
        let cv = self.ensure_last(v);
        let cu = match self.comp.get(&u) {
            Some(m) => m.comp,
            None => {
                let below = self.comps[&cv].ord;
                let c = self.ensure_below(u, below);
                if c == CompId::MAX {
                    // A renumber ran; gaps are wide open now.
                    let below = self.comps[&cv].ord;
                    self.ensure_below(u, below)
                } else {
                    c
                }
            }
        };
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
            for m in self.members(c) {
                let mut visit = |w: LockId| {
                    let cw = self.comp[&w].comp;
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
                .max_by_key(|c| (self.comps[c].len, std::cmp::Reverse(**c)))
                .expect("merge set is non-empty");
            let base_head = self.comps[&base].head;
            let mut len = self.comps[&base].len;
            for &c in mset {
                if c == base {
                    continue;
                }
                let dead = self.comps.remove(&c).expect("merged component exists");
                let mut at = dead.head;
                for _ in 0..dead.len {
                    let member = self.comp.get_mut(&at).expect("member");
                    member.comp = base;
                    at = member.next;
                }
                // Swapping the successors of one member of each ring joins
                // the two rings into one.
                let a = self.comp[&base_head].next;
                let dead_head = self
                    .comp
                    .get_mut(&dead.head)
                    .expect("a ring's head is a member");
                let b = std::mem::replace(&mut dead_head.next, a);
                self.comp
                    .get_mut(&base_head)
                    .expect("a ring's head is a member")
                    .next = b;
                len += dead.len;
            }
            self.component_peak = self.component_peak.max(len);
            let slot = self.comps.get_mut(&base).unwrap();
            slot.len = len;
            slot.ord = pool[bs.len()];
            for &freed in &pool[bs.len() + 1..top] {
                self.orders.remove(freed);
            }
        }
    }

    /// Removes `l` (already deleted from `graph`) from the condensation,
    /// re-splitting its component if the removal disconnected it.
    pub fn retire(&mut self, graph: &LockOrderGraph, l: LockId) {
        let Some(Member { comp: c, next }) = self.comp.remove(&l) else {
            return;
        };
        let slot = self.comps[&c];
        if slot.len == 1 {
            self.comps.remove(&c);
            self.orders.remove(slot.ord);
            return;
        }
        // Take `l` out of the ring.
        let mut prev = next;
        while self.comp[&prev].next != l {
            prev = self.comp[&prev].next;
        }
        self.comp
            .get_mut(&prev)
            .expect("ring members are locks")
            .next = next;
        let slot = self.comps.get_mut(&c).expect("member's component exists");
        slot.len -= 1;
        if slot.head == l {
            slot.head = next;
        }
        if slot.len == 1 {
            return;
        }
        // The survivors may have split into several SCCs.
        let members: Vec<LockId> = self.members(c).collect();
        let subs = tarjan_restricted(graph, &members);
        if subs.len() == 1 {
            return;
        }
        // The split parts need `subs.len()` order values strictly between
        // every external predecessor (all < the old value) and every
        // external successor (all > it): values in [old, next used) work.
        let k = subs.len() as u64;
        let gap = |me: &Self| {
            let ord = me.comps[&c].ord;
            me.orders.next(ord).unwrap_or(u64::MAX) - ord
        };
        if gap(self) < k {
            self.renumber();
        }
        let old_ord = self.comps[&c].ord;
        let step = gap(self) / k;
        debug_assert!(step >= 1, "renumber must reopen the gap");
        let mut after = self.orders.prev(old_ord);
        self.orders.remove(old_ord);
        self.comps.remove(&c);
        // `subs` arrives in reverse topological order (Tarjan emits a
        // component only after everything it reaches).
        for (i, sub) in subs.into_iter().rev().enumerate() {
            let ord = old_ord + i as u64 * step;
            let id = self.alloc_id();
            self.orders.insert_after(after, ord);
            after = ord;
            for (j, &m) in sub.iter().enumerate() {
                let next = sub[(j + 1) % sub.len()];
                self.comp.insert(m, Member { comp: id, next });
            }
            let (head, len) = (sub[0], sub.len());
            self.comps.insert(id, Component { ord, head, len });
        }
    }

    /// Reassigns every component's order value with `ORDER_STRIDE` gaps,
    /// preserving relative order.
    fn renumber(&mut self) {
        let mut by_ord: Vec<CompId> = self.comps.keys().copied().collect();
        by_ord.sort_unstable_by_key(|c| self.comps[c].ord);
        self.orders.links.clear();
        let mut after = HEAD;
        for (i, c) in by_ord.into_iter().enumerate() {
            let ord = (i as u64 + 1) * ORDER_STRIDE;
            self.comps.get_mut(&c).unwrap().ord = ord;
            self.orders.insert_after(after, ord);
            after = ord;
        }
    }

    #[cfg(test)]
    fn check_invariants(&self, graph: &LockOrderGraph) {
        // Unique order values, one per component, listed in ascending order.
        assert_eq!(self.orders.len(), self.comps.len());
        let (mut at, mut listed) = (HEAD, 0);
        while let Some(next) = self.orders.next(at) {
            assert!(next > at, "order list out of order");
            assert_eq!(self.orders.prev(next), at, "order list links disagree");
            (at, listed) = (next, listed + 1);
        }
        assert_eq!(listed, self.orders.len());
        let mut members = 0;
        for (id, c) in &self.comps {
            assert!(self.orders.links.contains_key(&c.ord));
            for m in self.members(*id) {
                assert_eq!(self.comp[&m].comp, *id, "member map out of sync");
                members += 1;
            }
            let mut at = c.head;
            for _ in 0..c.len {
                at = self.comp[&at].next;
            }
            assert_eq!(at, c.head, "a component's ring is not closed");
        }
        assert_eq!(members, self.comp.len(), "a lock outside every ring");
        // Every cross-component edge respects the order.
        for (&l, ml) in &self.comp {
            for w in graph.successors(l) {
                let cw = self.comp[&w].comp;
                if ml.comp != cw {
                    assert!(
                        self.comps[&ml.comp].ord < self.comps[&cw].ord,
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
    use crate::graph::{LockOrderGraph, Recorded};
    use dimmunix_rag::ThreadId;
    use dimmunix_signature::StackId;

    fn l(n: u64) -> LockId {
        LockId(n)
    }

    fn add_edge(g: &mut LockOrderGraph, scc: &mut Condensation, u: u64, v: u64) -> EdgeOutcome {
        let who = (ThreadId(u * 1000 + v), StackId((u * 100 + v) as u32));
        match g.record((l(u), l(v)), who, &[], 64, 1 << 20) {
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
        g.record(
            (l(108), l(0)),
            (ThreadId(999), StackId(999)),
            &[],
            64,
            1 << 20,
        );
        assert_eq!(scc.insert_edge(&g, l(108), l(0)), EdgeOutcome::Acyclic);
        scc.check_invariants(&g);
        // Closing the loop the other way merges all 18 locks.
        g.record(
            (l(8), l(100)),
            (ThreadId(998), StackId(998)),
            &[],
            64,
            1 << 20,
        );
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
                let who = (ThreadId(rng() % 4), StackId((rng() % 64) as u32));
                if matches!(
                    g.record((l(u), l(v)), who, &[], 64, 1 << 20),
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
