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
//!   acyclic case): **O(1)** — no look-up at all: both endpoints' components
//!   are in their lock records and the components' order values in the
//!   component arena. A fresh lock needing an order value adds a link into
//!   the order list (its neighbour in the order is one link away): a few
//!   look-ups in the order map.
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
//! A lock's membership lives in its record in the [`LockTable`]: its
//! component and the next member of that component (each component's
//! members form a ring of record indices, so a merge joins two rings by
//! swapping two links, and a retirement unlinks one member in
//! O(component)). The condensation itself is an arena of components —
//! each its order value, one member and its size — indexed by component
//! id, with a free list that hands the slot freed last to the next new
//! component, and the order values in use as a doubly linked list kept in
//! a map keyed by value, which answers "the value just below or above this
//! one" in O(1). A clone copies two arenas and one table; `clone_from`
//! copies them into the target's.
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
use crate::locks::{index, LockTable, NIL};
use dimmunix_signature::{IdMap, IdSet};

/// Identifier of one condensation component: its slot in the component
/// arena.
type CompId = u32;

/// Gap left between consecutive order values on (re)assignment, so
/// retirement splits can slot sub-components in without renumbering.
const ORDER_STRIDE: u64 = 1 << 20;

/// One component: its order value and its ring of members. A freed slot
/// has `len` 0 until a new component takes it.
#[derive(Clone, Copy, Debug)]
struct Component {
    ord: u64,
    /// Any member's lock record: where a walk of the ring starts.
    head: u32,
    len: u32,
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

/// The condensation DAG: component → topological order, with each lock's
/// component and ring link in its record. A clone copies two arenas and
/// one table, and [`Clone::clone_from`] copies them into the target's.
#[derive(Debug, Default)]
pub(crate) struct Condensation {
    comps: Vec<Component>,
    /// Freed component slots, the last freed on top.
    free: Vec<CompId>,
    /// Order values currently in use (gap queries for insertions/splits).
    orders: Orders,
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
        self.comps.clone_from(&source.comps);
        self.free.clone_from(&source.free);
        self.orders.links.clone_from(&source.orders.links);
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

    /// The lock records of component `c`'s members, walking its ring.
    fn members<'a>(&self, locks: &'a LockTable, c: CompId) -> impl Iterator<Item = u32> + 'a {
        let slot = self.comps[c as usize];
        let mut at = slot.head;
        (0..slot.len).map(move |_| {
            let m = at;
            at = locks[m].ring;
            m
        })
    }

    /// Members of the component containing record `r` (empty outside the
    /// condensation).
    #[cfg(test)]
    pub fn members_of(&self, locks: &LockTable, r: u32) -> Vec<u32> {
        match locks[r].comp {
            NIL => Vec::new(),
            c => self.members(locks, c).collect(),
        }
    }

    /// A free component slot, the last freed first.
    fn alloc_id(&mut self) -> CompId {
        self.free.pop().unwrap_or_else(|| {
            self.comps.push(Component {
                ord: 0,
                head: NIL,
                len: 0,
            });
            index(self.comps.len() - 1)
        })
    }

    /// Frees component `c`'s slot.
    fn free_id(&mut self, c: CompId) {
        self.comps[c as usize].len = 0;
        self.free.push(c);
    }

    /// Creates a singleton component for record `l` at the end of the
    /// order, unless it has a component already.
    fn ensure_last(&mut self, locks: &mut LockTable, l: u32) -> CompId {
        if locks[l].comp != NIL {
            return locks[l].comp;
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
        self.insert_singleton(locks, l, ord, after)
    }

    /// Creates a singleton component for record `l` ordered strictly below
    /// component `above` (the fresh-source fast path: a brand-new lock
    /// gaining its first edge `l → v` slots in right under `v` instead of
    /// at the end, which would otherwise trigger a restructure spanning
    /// everything above `v`).
    fn ensure_below(&mut self, locks: &mut LockTable, l: u32, above: CompId) -> CompId {
        debug_assert_eq!(locks[l].comp, NIL);
        // The order values just below `above`'s and its own.
        let bounds = |me: &Self| {
            let ord = me.comps[above as usize].ord;
            (me.orders.prev(ord), ord)
        };
        let (mut floor, mut below) = bounds(self);
        if below - floor < 2 {
            // No value fits between: reopen every gap.
            self.renumber();
            (floor, below) = bounds(self);
        }
        self.insert_singleton(locks, l, floor + (below - floor) / 2, floor)
    }

    /// Creates a singleton component for record `l` with order value `ord`,
    /// which goes right after `after` in the order.
    fn insert_singleton(&mut self, locks: &mut LockTable, l: u32, ord: u64, after: u64) -> CompId {
        let id = self.alloc_id();
        debug_assert!(!self.orders.links.contains_key(&ord));
        self.orders.insert_after(after, ord);
        self.comps[id as usize] = Component {
            ord,
            head: l,
            len: 1,
        };
        (locks[l].comp, locks[l].ring) = (id, l);
        self.component_peak = self.component_peak.max(1);
        id
    }

    /// Records that edge `u → v` between two lock records now exists in
    /// `graph` (which must already contain it) and restores the
    /// condensation invariant.
    pub fn insert_edge(
        &mut self,
        graph: &LockOrderGraph,
        locks: &mut LockTable,
        u: u32,
        v: u32,
    ) -> EdgeOutcome {
        if u == v {
            return EdgeOutcome::Acyclic;
        }
        let cv = self.ensure_last(locks, v);
        let cu = match locks[u].comp {
            NIL => self.ensure_below(locks, u, cv),
            c => c,
        };
        if cu == cv {
            return EdgeOutcome::SameComponent;
        }
        let (ou, ov) = (self.comps[cu as usize].ord, self.comps[cv as usize].ord);
        if ou < ov {
            return EdgeOutcome::Acyclic;
        }
        // Order violated: discover the affected region.
        let fwd = self.window_dfs(graph, locks, cv, ov, ou, Direction::Forward);
        let bwd = self.window_dfs(graph, locks, cu, ov, ou, Direction::Backward);
        if fwd.contains(&cu) {
            let merged: IdSet<CompId> = fwd.intersection(&bwd).copied().collect();
            self.restructure(locks, &fwd, &bwd, Some(&merged));
            self.merges += 1;
            EdgeOutcome::Merged
        } else {
            self.restructure(locks, &fwd, &bwd, None);
            EdgeOutcome::Acyclic
        }
    }

    /// DFS over the component graph restricted to order values in
    /// `[lo, hi]`.
    fn window_dfs(
        &self,
        graph: &LockOrderGraph,
        locks: &LockTable,
        start: CompId,
        lo: u64,
        hi: u64,
        dir: Direction,
    ) -> IdSet<CompId> {
        let mut seen: IdSet<CompId> = IdSet::default();
        seen.insert(start);
        let mut stack = vec![start];
        while let Some(c) = stack.pop() {
            for m in self.members(locks, c) {
                let mut visit = |w: u32| {
                    let cw = locks[w].comp;
                    if seen.contains(&cw) {
                        return;
                    }
                    let ow = self.comps[cw as usize].ord;
                    if ow < lo || ow > hi {
                        return;
                    }
                    seen.insert(cw);
                    stack.push(cw);
                };
                match dir {
                    Direction::Forward => graph.successors(locks, m).for_each(&mut visit),
                    Direction::Backward => graph.predecessors(locks, m).for_each(&mut visit),
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
        locks: &mut LockTable,
        fwd: &IdSet<CompId>,
        bwd: &IdSet<CompId>,
        merged: Option<&IdSet<CompId>>,
    ) {
        let empty = IdSet::default();
        let m = merged.unwrap_or(&empty);
        let ord = |me: &Self, c: &CompId| me.comps[*c as usize].ord;
        // Pool of order values owned by the affected region.
        let mut pool: Vec<u64> = fwd.union(bwd).map(|c| ord(self, c)).collect::<Vec<_>>();
        pool.sort_unstable();
        let mut bs: Vec<CompId> = bwd.iter().copied().filter(|c| !m.contains(c)).collect();
        bs.sort_unstable_by_key(|c| ord(self, c));
        let mut fs: Vec<CompId> = fwd.iter().copied().filter(|c| !m.contains(c)).collect();
        fs.sort_unstable_by_key(|c| ord(self, c));
        // Backward set sinks to the bottom of the pool, forward set floats
        // to the top; both keep their internal relative order.
        for (i, &c) in bs.iter().enumerate() {
            self.comps[c as usize].ord = pool[i];
        }
        let top = pool.len() - fs.len();
        for (j, &c) in fs.iter().enumerate() {
            self.comps[c as usize].ord = pool[top + j];
        }
        if let Some(mset) = merged {
            // Collapse the cycle components into the largest one, then
            // hand the merged component the lowest middle value; leftover
            // middle values are freed.
            let base = *mset
                .iter()
                .max_by_key(|&&c| (self.comps[c as usize].len, std::cmp::Reverse(c)))
                .expect("merge set is non-empty");
            let base_head = self.comps[base as usize].head;
            let mut len = self.comps[base as usize].len;
            for &c in mset {
                if c == base {
                    continue;
                }
                let dead = self.comps[c as usize];
                self.free_id(c);
                let mut at = dead.head;
                for _ in 0..dead.len {
                    locks[at].comp = base;
                    at = locks[at].ring;
                }
                // Swapping the successors of one member of each ring joins
                // the two rings into one.
                let a = locks[base_head].ring;
                let b = std::mem::replace(&mut locks[dead.head].ring, a);
                locks[base_head].ring = b;
                len += dead.len;
            }
            self.component_peak = self.component_peak.max(len as usize);
            let slot = &mut self.comps[base as usize];
            slot.len = len;
            slot.ord = pool[bs.len()];
            for &freed in &pool[bs.len() + 1..top] {
                self.orders.remove(freed);
            }
        }
    }

    /// Removes record `l` (already unlinked from `graph`) from the
    /// condensation, re-splitting its component if the removal
    /// disconnected it.
    pub fn retire(&mut self, graph: &LockOrderGraph, locks: &mut LockTable, l: u32) {
        let (c, next) = (locks[l].comp, locks[l].ring);
        if c == NIL {
            return;
        }
        (locks[l].comp, locks[l].ring) = (NIL, NIL);
        let slot = self.comps[c as usize];
        if slot.len == 1 {
            self.free_id(c);
            self.orders.remove(slot.ord);
            return;
        }
        // Take `l` out of the ring.
        let mut prev = next;
        while locks[prev].ring != l {
            prev = locks[prev].ring;
        }
        locks[prev].ring = next;
        let slot = &mut self.comps[c as usize];
        slot.len -= 1;
        if slot.head == l {
            slot.head = next;
        }
        if slot.len == 1 {
            return;
        }
        // The survivors may have split into several SCCs.
        let members: Vec<u32> = self.members(locks, c).collect();
        let subs = tarjan_restricted(graph, locks, &members);
        if subs.len() == 1 {
            return;
        }
        // The split parts need `subs.len()` order values strictly between
        // every external predecessor (all < the old value) and every
        // external successor (all > it): values in [old, next used) work.
        let k = subs.len() as u64;
        let gap = |me: &Self| {
            let ord = me.comps[c as usize].ord;
            me.orders.next(ord).unwrap_or(u64::MAX) - ord
        };
        if gap(self) < k {
            self.renumber();
        }
        let old_ord = self.comps[c as usize].ord;
        let step = gap(self) / k;
        debug_assert!(step >= 1, "renumber must reopen the gap");
        let mut after = self.orders.prev(old_ord);
        self.orders.remove(old_ord);
        self.free_id(c);
        // `subs` arrives in reverse topological order (Tarjan emits a
        // component only after everything it reaches).
        for (i, sub) in subs.into_iter().rev().enumerate() {
            let ord = old_ord + i as u64 * step;
            let id = self.alloc_id();
            self.orders.insert_after(after, ord);
            after = ord;
            for (j, &m) in sub.iter().enumerate() {
                (locks[m].comp, locks[m].ring) = (id, sub[(j + 1) % sub.len()]);
            }
            let (head, len) = (sub[0], index(sub.len()));
            self.comps[id as usize] = Component { ord, head, len };
        }
    }

    /// Reassigns every component's order value with `ORDER_STRIDE` gaps,
    /// preserving relative order.
    fn renumber(&mut self) {
        let mut by_ord: Vec<CompId> = (0..index(self.comps.len()))
            .filter(|&c| self.comps[c as usize].len > 0)
            .collect();
        by_ord.sort_unstable_by_key(|&c| self.comps[c as usize].ord);
        self.orders.links.clear();
        let mut after = HEAD;
        for (i, c) in by_ord.into_iter().enumerate() {
            let ord = (i as u64 + 1) * ORDER_STRIDE;
            self.comps[c as usize].ord = ord;
            self.orders.insert_after(after, ord);
            after = ord;
        }
    }

    #[cfg(test)]
    fn check_invariants(&self, graph: &LockOrderGraph, locks: &LockTable) {
        let live: Vec<CompId> = (0..index(self.comps.len()))
            .filter(|&c| self.comps[c as usize].len > 0)
            .collect();
        assert_eq!(
            live.len() + self.free.len(),
            self.comps.len(),
            "a slot neither live nor free"
        );
        // Unique order values, one per component, listed in ascending order.
        assert_eq!(self.orders.len(), live.len());
        let (mut at, mut listed) = (HEAD, 0);
        while let Some(next) = self.orders.next(at) {
            assert!(next > at, "order list out of order");
            assert_eq!(self.orders.prev(next), at, "order list links disagree");
            (at, listed) = (next, listed + 1);
        }
        assert_eq!(listed, self.orders.len());
        let mut members = 0;
        for &id in &live {
            let c = self.comps[id as usize];
            assert!(self.orders.links.contains_key(&c.ord));
            for m in self.members(locks, id) {
                assert_eq!(locks[m].comp, id, "member map out of sync");
                members += 1;
            }
            let mut at = c.head;
            for _ in 0..c.len {
                at = locks[at].ring;
            }
            assert_eq!(at, c.head, "a component's ring is not closed");
        }
        let in_comps: Vec<u32> = locks
            .iter()
            .map(|(_, r)| r)
            .filter(|&r| locks[r].comp != NIL)
            .collect();
        assert_eq!(members, in_comps.len(), "a lock outside every ring");
        // Every cross-component edge respects the order.
        for &r in &in_comps {
            let cr = locks[r].comp;
            for w in graph.successors(locks, r) {
                let cw = locks[w].comp;
                if cr != cw {
                    assert!(
                        self.comps[cr as usize].ord < self.comps[cw as usize].ord,
                        "edge {:?} -> {:?} violates the topological order",
                        locks[r].lock,
                        locks[w].lock
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

/// Iterative Tarjan over the lock records `nodes` (edges leaving the set
/// are ignored). Returns SCCs in emission order — reverse topological.
fn tarjan_restricted(graph: &LockOrderGraph, locks: &LockTable, nodes: &[u32]) -> Vec<Vec<u32>> {
    struct State {
        index: IdMap<u32, u32>,
        lowlink: IdMap<u32, u32>,
        on_stack: IdSet<u32>,
        stack: Vec<u32>,
        next: u32,
        out: Vec<Vec<u32>>,
    }
    let allowed: IdSet<u32> = nodes.iter().copied().collect();
    let mut st = State {
        index: IdMap::default(),
        lowlink: IdMap::default(),
        on_stack: IdSet::default(),
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    // Visit in record order: set iteration follows hash order, and SCC
    // emission order must not depend on it.
    let mut roots: Vec<u32> = nodes.to_vec();
    roots.sort_unstable();
    for &root in &roots {
        if st.index.contains_key(&root) {
            continue;
        }
        // Explicit DFS frames: (node, sorted successors, next successor).
        let succs = |l: u32| {
            let mut v: Vec<u32> = graph
                .successors(locks, l)
                .filter(|w| allowed.contains(w))
                .collect();
            v.sort_unstable();
            v
        };
        let mut frames: Vec<(u32, Vec<u32>, usize)> = Vec::new();
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
    use crate::graph::{Fixture, Recorded};
    use dimmunix_rag::{LockId, ThreadId};
    use dimmunix_signature::StackId;

    fn l(n: u64) -> LockId {
        LockId(n)
    }

    /// The order graph, its lock table and the condensation, addressed by
    /// lock.
    #[derive(Default)]
    struct World {
        f: Fixture,
        scc: Condensation,
    }

    impl World {
        /// Records one instance of `u → v` and tells the condensation when
        /// the edge is new.
        fn add_edge(&mut self, u: u64, v: u64) -> EdgeOutcome {
            let who = (ThreadId(u * 1000 + v), StackId((u * 100 + v) as u32));
            match self.f.record((l(u), l(v)), who, &[], 64, 1 << 20) {
                Recorded::NewEdge | Recorded::NewInstance => {}
                r => panic!("unexpected record outcome {r:?}"),
            }
            self.insert(u, v)
        }

        /// Tells the condensation about the recorded edge `u → v`.
        fn insert(&mut self, u: u64, v: u64) -> EdgeOutcome {
            let (ru, rv) = (self.f.rec(l(u)), self.f.rec(l(v)));
            self.scc.insert_edge(&self.f.g, &mut self.f.locks, ru, rv)
        }

        /// Retires `r` from the graph and the condensation, then frees its
        /// record, as lock aging does.
        fn retire(&mut self, r: u64) {
            self.f.unlink(l(r));
            if let Some(rec) = self.f.locks.find(l(r)) {
                self.scc.retire(&self.f.g, &mut self.f.locks, rec);
                self.f.locks.release(rec);
            }
        }

        fn same_component(&self, a: u64, b: u64) -> bool {
            match (self.f.locks.find(l(a)), self.f.locks.find(l(b))) {
                (Some(x), Some(y)) => self.f.locks.same_component(x, y),
                _ => false,
            }
        }

        fn members_of(&self, a: u64) -> Vec<u32> {
            self.f
                .locks
                .find(l(a))
                .map_or_else(Vec::new, |r| self.scc.members_of(&self.f.locks, r))
        }

        fn check_invariants(&self) {
            self.scc.check_invariants(&self.f.g, &self.f.locks);
        }
    }

    #[test]
    fn forward_chain_stays_acyclic_and_cheap() {
        let mut w = World::default();
        for i in 0..64 {
            assert_eq!(w.add_edge(i, i + 1), EdgeOutcome::Acyclic);
        }
        w.check_invariants();
        assert_eq!(w.scc.merges(), 0);
        assert_eq!(w.scc.component_peak(), 1);
    }

    #[test]
    fn reverse_chain_reorders_without_merging() {
        let mut w = World::default();
        for i in (0..64).rev() {
            assert_eq!(w.add_edge(i, i + 1), EdgeOutcome::Acyclic);
            w.check_invariants();
        }
        assert_eq!(w.scc.merges(), 0);
    }

    #[test]
    fn closing_edge_merges_the_cycle() {
        let mut w = World::default();
        for i in 0..5 {
            w.add_edge(i, i + 1);
        }
        assert_eq!(w.add_edge(5, 0), EdgeOutcome::Merged);
        w.check_invariants();
        assert_eq!(w.scc.merges(), 1);
        assert_eq!(w.scc.component_peak(), 6);
        assert!(w.same_component(0, 5));
        // A later edge inside the SCC reports SameComponent.
        assert_eq!(w.add_edge(3, 1), EdgeOutcome::SameComponent);
    }

    #[test]
    fn two_cycles_merge_through_a_bridge() {
        let mut w = World::default();
        // Cycle A: 0 -> 1 -> 0; cycle B: 10 -> 11 -> 10.
        w.add_edge(0, 1);
        assert_eq!(w.add_edge(1, 0), EdgeOutcome::Merged);
        w.add_edge(10, 11);
        assert_eq!(w.add_edge(11, 10), EdgeOutcome::Merged);
        // Bridge A -> B, then B -> A: one four-lock SCC.
        assert_eq!(w.add_edge(1, 10), EdgeOutcome::Acyclic);
        assert_eq!(w.add_edge(11, 0), EdgeOutcome::Merged);
        w.check_invariants();
        assert_eq!(w.scc.component_peak(), 4);
        assert!(w.same_component(0, 11));
    }

    /// Both restructures of the incremental path between two chains: a
    /// cross edge that violates the order without closing a cycle reorders
    /// the affected region, and an edge that closes the loop the other way
    /// merges all 18 locks.
    #[test]
    fn cross_edges_between_two_chains_reorder_then_merge() {
        let mut w = World::default();
        // Two disjoint chains: 0 -> .. -> 8 (low orders) and
        // 100 -> .. -> 108 (high orders).
        for i in 0..8 {
            w.add_edge(i, i + 1);
            w.add_edge(100 + i, 101 + i);
        }
        // A cross edge from the high chain into the low one violates the
        // order without closing a cycle.
        let who = (ThreadId(999), StackId(999));
        w.f.record((l(108), l(0)), who, &[], 64, 1 << 20);
        assert_eq!(w.insert(108, 0), EdgeOutcome::Acyclic);
        w.check_invariants();
        // Closing the loop the other way merges all 18 locks.
        let who = (ThreadId(998), StackId(998));
        w.f.record((l(8), l(100)), who, &[], 64, 1 << 20);
        assert_eq!(w.insert(8, 100), EdgeOutcome::Merged);
        w.check_invariants();
        assert_eq!(w.scc.component_peak(), 18);
    }

    #[test]
    fn retirement_splits_a_component() {
        let mut w = World::default();
        // 0 -> 1 -> 2 -> 0 and 2 -> 3 -> 4 -> 2: one SCC of 5 through 2.
        w.add_edge(0, 1);
        w.add_edge(1, 2);
        w.add_edge(2, 0);
        w.add_edge(2, 3);
        w.add_edge(3, 4);
        w.add_edge(4, 2);
        w.check_invariants();
        assert_eq!(w.scc.component_peak(), 5);
        assert!(w.same_component(0, 4));
        // Retiring lock 2 severs both cycles: 4 singleton components.
        w.retire(2);
        w.check_invariants();
        assert!(!w.same_component(0, 1));
        assert!(!w.same_component(3, 4));
        assert!(w.members_of(2).is_empty());
    }

    #[test]
    fn retirement_of_singletons_frees_their_order() {
        let mut w = World::default();
        w.add_edge(0, 1);
        w.retire(0);
        w.retire(1);
        assert!(w.members_of(0).is_empty());
        assert_eq!(w.scc.orders.len(), 0);
        // Re-acquiring after retirement starts a fresh component, in a
        // reused record and a reused component slot.
        w.add_edge(0, 1);
        w.check_invariants();
        assert!(!w.same_component(0, 1));
        assert_eq!(w.scc.comps.len(), 2, "both component slots reused");
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
            let mut w = World::default();
            for _ in 0..edges {
                let u = rng() % n;
                let v = rng() % n;
                if u == v {
                    continue;
                }
                let who = (ThreadId(rng() % 4), StackId((rng() % 64) as u32));
                if matches!(
                    w.f.record((l(u), l(v)), who, &[], 64, 1 << 20),
                    Recorded::NewEdge | Recorded::NewInstance
                ) {
                    w.insert(u, v);
                }
                // Occasional retirement of a random known lock.
                if rng() % 16 == 0 {
                    let r = rng() % n;
                    if w.f.has_node(l(r)) {
                        w.retire(r);
                    }
                }
            }
            w.check_invariants();
            // Membership must agree with batch Tarjan over the live nodes.
            let locks = &w.f.locks;
            let nodes: Vec<u32> = locks
                .iter()
                .map(|(_, r)| r)
                .filter(|&r| locks[r].comp != NIL)
                .collect();
            let batch = tarjan_restricted(&w.f.g, locks, &nodes);
            let mut expect: IdMap<u32, usize> = IdMap::default();
            for (i, sub) in batch.iter().enumerate() {
                for &m in sub {
                    expect.insert(m, i);
                }
            }
            for &a in &nodes {
                for &b in &nodes {
                    assert_eq!(
                        locks.same_component(a, b),
                        expect[&a] == expect[&b],
                        "round {round}: membership mismatch for {:?}, {:?}",
                        locks[a].lock,
                        locks[b].lock
                    );
                }
            }
        }
    }
}
