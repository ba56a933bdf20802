//! Resource allocation graph (RAG) for Dimmunix (§5.1–§5.2 of the paper).
//!
//! The RAG is the monitor thread's view of the program's synchronization
//! state: a directed multigraph with **thread** and **lock** vertices and
//! four edge types:
//!
//! * `request` — thread *T* wants lock *L* (present while a yield decision is
//!   in force: the tentative allow edge is "flipped around" on YIELD);
//! * `allow` — Dimmunix allowed *T* to block waiting for *L*; drawn only
//!   for a thread that found *L* taken — a grant that acquires at once goes
//!   straight to `hold` ([`graph::Rag::on_granted`]);
//! * `hold` — *L* is held by *T*, labelled with the call stack *T* had at
//!   acquisition time; a *multiset*, so reentrant locks are represented by
//!   one hold edge per nesting level;
//! * `yield` — *T* was forced to yield because of thread *T′*'s acquisition
//!   (labelled with the cause's call stack and carrying the full
//!   `(T′, L′, S′)` cause tuple from §5.6's `yieldCause` set).
//!
//! # Representation
//!
//! A hold edge is stored once, in its holder's thread vertex, outermost
//! acquisition first; that is the graph's one record of who holds what. A
//! lock is a vertex while some thread holds or waits for it
//! ([`graph::RagStats::locks`]), but it has a record of its own — its
//! waiters — only while some thread waits for it, so an uncontended hold
//! and its release touch the holder's vertex alone. Each hold is stamped
//! from a per-graph counter: the holder of a lock is its hold with the
//! highest stamp, which for a mutex is its one holder and, while lanes
//! apply a hand-off's acquisition before the release it follows, the newer
//! holder. A detector looks up the holders of the awaited locks in one
//! pass over the hold edges per call, and none while nobody waits.
//!
//! Detection is incremental: every event that changes a thread's outgoing
//! edges marks it dirty, and a hold of a lock also marks its waiters (they
//! now wait on the new holder). An `acquired` marks the holder and then the
//! waiters, a `granted` the waiters and then the holder; the order of the
//! marks decides which rotation of a cycle is reported.
//!
//! Two detectors run over the graph:
//!
//! * [`graph::Rag::find_deadlock_cycles`] — a thread is deadlocked iff it is
//!   on a cycle made up exclusively of hold, allow and request edges; since
//!   a thread waits for at most one lock and a mutex has at most one holder,
//!   the wait-for projection has out-degree ≤ 1 and the Colored-DFS
//!   degenerates to stamped successor-chasing, started only from vertices
//!   touched by the latest event batch ("there cannot be new cycles formed
//!   that involve exclusively old edges").
//! * [`graph::Rag::find_yield_cycles`] — induced-starvation detection: the
//!   greatest set of threads none of which can make progress, where a
//!   blocked thread needs its lock's holder to progress and a yielding
//!   thread needs **any one** of its yield causes to release (threads are
//!   woken whenever any cause lock is freed, so starvation requires *all*
//!   causes to be stuck — this is Figure 3's "both yield edges must be part
//!   of cycles" condition, computed as a fixpoint).
//!
//! Signatures are extracted per §5.3: the multiset of call-stack labels of
//! all hold and yield edges in the detected cycle.
//!
//! Both detectors are *reactive*: they report cycles that exist. Their
//! proactive complement lives in `dimmunix_predict`, which consumes the
//! same monitor-side event stream but analyses the **lock-order graph**
//! (acquired-while-holding edges) to synthesize signatures with the exact
//! hold-edge labels [`graph::Rag::find_deadlock_cycles`] would have
//! reported — before any cycle ever forms in this graph.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dot;
pub mod graph;
pub mod ids;

pub use graph::{DeadlockCycle, Rag, RagStats, StarvedThread, WaitKind, YieldCause, YieldCycle};
pub use ids::{LockId, ThreadId};
