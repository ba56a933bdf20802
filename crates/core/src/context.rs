//! Per-thread call-flow context.
//!
//! The paper's implementations obtain call stacks from the runtime (Java
//! stack traces; `backtrace()` in pthreads). A Rust library cannot portably
//! get *stable, execution-independent* return addresses, so Dimmunix-rs
//! keeps an explicit per-thread frame stack: applications (and this repo's
//! workloads and benchmarks) mark interesting call scopes with the
//! [`frame!`](crate::frame) macro, and every lock operation appends its own
//! call site captured via `#[track_caller]`. The resulting
//! `(function, file, line)` sequences have exactly the semantics signatures
//! need (§5.3): pure control-flow, no data, portable across runs.
//!
//! Scopes not annotated simply don't contribute frames — matching still
//! works, just at a coarser granularity, precisely like choosing a shorter
//! stack suffix (§5.5).
//!
//! # The calling-context tree
//!
//! A lock operation needs its stack as interned [`FrameId`]s plus a
//! [`StackId`]. Interning is string hashing under the runtime's shared
//! tables, and a thread asks from the same few contexts over and over, so
//! each thread caches the answers in a tree of the contexts it has locked
//! from (§5.6's per-stack metadata, found without rehashing the stack):
//!
//! * An **edge** leads from a context to the context one frame deeper and
//!   is keyed by the *identity* of that frame's `'static` data — address
//!   and length of `function` and `file`, plus `line` — never by string
//!   contents. Equal addresses of immutable `'static` data mean equal
//!   contents; two copies of one name at different addresses merely get two
//!   edges that resolve to the same ids.
//! * Beside the frame stack the thread keeps a **cursor**: the tree nodes
//!   of a prefix of the live frames. [`push_frame`] leaves it alone, a pop
//!   truncates it, and a capture extends it over the frames pushed since
//!   the last one — one edge lookup each — so a lock from a context seen
//!   before costs the same at any depth.
//! * A **leaf** hangs off a node per lock call site (the address of its
//!   `&'static Location`) *and per frame table*: ids mean nothing outside
//!   the table that issued them, and one thread routinely serves several
//!   runtimes. The table is named by [`FrameTable::id`], which is never
//!   reused, and not by its address, which the allocator hands to the next
//!   runtime as soon as this one is dropped — a leaf keyed by address
//!   would then serve the dead runtime's ids to the new one. The leaf lends
//!   its frames and stack id for the length of the call
//!   (`with_lock_site`): what [`crate::raw::RawLock`] callers pre-intern
//!   by hand as a [`crate::raw::LockSite`], with no reference count touched.
//!
//! A hit takes no shared lock, hashes no string and allocates nothing. A
//! miss interns the frames by string, exactly as every capture used to,
//! and remembers the result; [`Stats::capture_misses`] counts them.
//!
//! The tree has a budget of `NODE_BUDGET` (4096) edges and leaves, a few
//! hundred kilobytes. A capture that finds it at the budget drops it whole
//! and regrows it from the live context, so it never holds more than the
//! budget plus one live context: nothing in it is more than a cache, and a
//! thread that walks an unbounded set of contexts (or outlives an unbounded
//! series of runtimes) keeps bounded memory. It is freed with the thread.

use crate::runtime::Runtime;
use crate::stats::Stats;
use dimmunix_signature::{FrameId, FrameTable, IdMap, StackId};
use std::cell::RefCell;
use std::hash::BuildHasherDefault;
use std::panic::Location;
use std::sync::Arc;

/// A call-scope descriptor pushed onto the thread's context stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RawFrame {
    /// Function (or scope) name.
    pub function: &'static str,
    /// Source file.
    pub file: &'static str,
    /// Line number.
    pub line: u32,
}

/// Edges plus leaves one thread's tree may hold before the next capture
/// drops and regrows it. A constant: no workload in the tree or the
/// benchmark comes within an order of magnitude of it.
const NODE_BUDGET: usize = 4096;

/// A tree node; the empty context is [`ROOT`].
type Node = u32;
const ROOT: Node = 0;

/// What an edge is keyed by: the `(address, length)` of a frame's
/// `function` and `file`, and its `line`.
type FrameIdentity = (usize, usize, usize, usize, u32);

fn identity(frame: &RawFrame) -> FrameIdentity {
    (
        frame.function.as_ptr() as usize,
        frame.function.len(),
        frame.file.as_ptr() as usize,
        frame.file.len(),
        frame.line,
    )
}

/// A cached capture: one context, one lock call site, one frame table.
struct Leaf {
    frames: Arc<[FrameId]>,
    /// Interned on the first capture made through the table's runtime;
    /// [`capture`] is handed the frame table alone and never needs it.
    stack: Option<StackId>,
}

struct Context {
    /// Live frames, outermost first.
    stack: Vec<RawFrame>,
    /// The cursor: `path[i]` is the node of `stack[..=i]`. Never longer
    /// than the stack.
    path: Vec<Node>,
    /// The tree's edges: `(context, next frame) → deeper context`.
    children: IdMap<(Node, FrameIdentity), Node>,
    /// `(context, lock call site address, frame table id) → capture`.
    leaves: IdMap<(Node, usize, u64), Leaf>,
}

thread_local! {
    static CONTEXT: RefCell<Context> = const {
        RefCell::new(Context {
            stack: Vec::new(),
            path: Vec::new(),
            children: IdMap::with_hasher(BuildHasherDefault::new()),
            leaves: IdMap::with_hasher(BuildHasherDefault::new()),
        })
    };
}

impl Context {
    /// The leaf for the live context, `site` and `table`, grown on a miss.
    fn leaf(&mut self, table: &FrameTable, site: &'static Location<'static>) -> &mut Leaf {
        if self.children.len() + self.leaves.len() >= NODE_BUDGET {
            self.children = IdMap::default();
            self.leaves = IdMap::default();
            self.path.clear();
        }
        let mut node = self.path.last().copied().unwrap_or(ROOT);
        for frame in &self.stack[self.path.len()..] {
            // Nodes are numbered in creation order, one per edge; 0 is ROOT.
            let fresh = self.children.len() as Node + 1;
            node = *self
                .children
                .entry((node, identity(frame)))
                .or_insert(fresh);
            self.path.push(node);
        }
        let site_address = std::ptr::from_ref(site) as usize;
        self.leaves
            .entry((node, site_address, table.id()))
            .or_insert_with(|| Leaf {
                frames: intern_frames(table, &self.stack, site).into(),
                stack: None,
            })
    }
}

/// Interns `stack` plus the lock call site by string: the tree's miss path,
/// and what every cached capture must equal. Frames intern as
/// `(function, file, line)` and the site as `("<lock>", file, line)` —
/// history files persist exactly these.
fn intern_frames(table: &FrameTable, stack: &[RawFrame], site: &Location<'_>) -> Vec<FrameId> {
    let mut out = Vec::with_capacity(stack.len() + 1);
    for f in stack {
        out.push(table.intern(f.function, f.file, f.line));
    }
    out.push(table.intern("<lock>", site.file(), site.line()));
    out
}

/// Pushes `frame` onto the current thread's context stack; popped when the
/// returned guard drops. Prefer the [`frame!`](crate::frame) macro.
pub fn push_frame(frame: RawFrame) -> FrameGuard {
    CONTEXT.with(|c| c.borrow_mut().stack.push(frame));
    FrameGuard { _priv: () }
}

/// Number of frames currently on this thread's context stack.
pub fn depth() -> usize {
    CONTEXT.with(|c| c.borrow().stack.len())
}

/// The current thread's context stack plus the given lock call site as
/// `frames`' ids (outermost first), served from the calling-context tree.
pub fn capture(frames: &FrameTable, site: &'static Location<'static>) -> Vec<FrameId> {
    CONTEXT.with(|c| c.borrow_mut().leaf(frames, site).frames.to_vec())
}

/// Runs `f` on what a lock operation of `runtime` at `site` hands the
/// engine: the capture's frames and stack id, lent by the leaf (the stack
/// is interned on the leaf's first use through `runtime`).
///
/// The thread's context stays borrowed while `f` runs. That is sound
/// because `f` is the lock call's engine work (`request`, `park_yield`,
/// `force_go`, `acquired`, `cancel`, an inline rebuild), which runs no
/// application code and pushes no frame, so nothing in it reaches
/// `CONTEXT`. A panic out of `f` (a fault-injected one at `acquired`)
/// drops the borrow as it unwinds this frame, before any caller's
/// [`FrameGuard`] pops.
pub(crate) fn with_lock_site<R>(
    runtime: &Runtime,
    site: &'static Location<'static>,
    f: impl FnOnce(&Arc<[FrameId]>, StackId) -> R,
) -> R {
    CONTEXT.with(|c| {
        let mut context = c.borrow_mut();
        let leaf = context.leaf(runtime.frame_table(), site);
        let stack = *leaf.stack.get_or_insert_with(|| {
            Stats::bump(&runtime.stats_ref().capture_misses);
            runtime.stack_table().intern(&leaf.frames)
        });
        f(&leaf.frames, stack)
    })
}

/// RAII guard popping one context frame on drop.
#[derive(Debug)]
#[must_use = "dropping the guard immediately pops the frame"]
pub struct FrameGuard {
    _priv: (),
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        // A guard that outlives its thread's context (dropped from another
        // thread-local's destructor) has nothing left to pop.
        let _ = CONTEXT.try_with(|c| {
            let mut context = c.borrow_mut();
            context.stack.pop();
            let depth = context.stack.len();
            context.path.truncate(depth);
        });
    }
}

/// Marks the current scope as a call-flow frame for signature purposes.
///
/// Place at the top of functions whose position in the call flow should
/// distinguish deadlock patterns — e.g. the paper's `update()` called from
/// two different sites (§4).
///
/// # Examples
///
/// ```
/// use dimmunix_core::frame;
///
/// fn update() {
///     frame!("update");
///     // ... lock operations recorded under this frame ...
/// }
/// update();
/// ```
#[macro_export]
macro_rules! frame {
    ($name:expr) => {
        let _dimmunix_frame_guard = $crate::context::push_frame($crate::context::RawFrame {
            function: $name,
            file: ::core::file!(),
            line: ::core::line!(),
        });
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_nest_and_unwind() {
        assert_eq!(depth(), 0);
        {
            let _a = push_frame(RawFrame {
                function: "a",
                file: "t.rs",
                line: 1,
            });
            assert_eq!(depth(), 1);
            {
                let _b = push_frame(RawFrame {
                    function: "b",
                    file: "t.rs",
                    line: 2,
                });
                assert_eq!(depth(), 2);
            }
            assert_eq!(depth(), 1);
        }
        assert_eq!(depth(), 0);
    }

    #[test]
    fn capture_appends_lock_site() {
        let table = FrameTable::new();
        let _a = push_frame(RawFrame {
            function: "caller",
            file: "t.rs",
            line: 10,
        });
        let frames = capture(&table, Location::caller());
        assert_eq!(frames.len(), 2);
        let outer = table.resolve(frames[0]);
        assert_eq!(&*outer.function, "caller");
        let inner = table.resolve(frames[1]);
        assert_eq!(&*inner.function, "<lock>");
    }

    #[test]
    fn frame_macro_pushes_scope() {
        fn update() -> usize {
            frame!("update");
            depth()
        }
        assert_eq!(depth(), 0);
        assert_eq!(update(), 1);
        assert_eq!(depth(), 0);
    }

    #[test]
    fn context_is_thread_local() {
        let _a = push_frame(RawFrame {
            function: "main-thread",
            file: "t.rs",
            line: 1,
        });
        let other = std::thread::spawn(depth).join().unwrap();
        assert_eq!(other, 0);
        assert_eq!(depth(), 1);
    }

    use crate::config::Config;
    use crate::raw::LockSite;
    use proptest::prelude::*;

    /// Distinct lock call sites (three lines, three `Location`s).
    fn sites() -> [&'static Location<'static>; 3] {
        let a = Location::caller();
        let b = Location::caller();
        let c = Location::caller();
        [a, b, c]
    }

    /// A small frame alphabet. The last entry repeats the first one's
    /// contents at other addresses: a second identity for the same frame.
    fn frame_pool() -> Vec<RawFrame> {
        let mut pool: Vec<RawFrame> = (0..5)
            .map(|i| RawFrame {
                function: ["main", "serve", "update", "flush", "retry"][i],
                file: "pool.rs",
                line: 10 * i as u32,
            })
            .collect();
        pool.push(RawFrame {
            function: String::from("main").leak(),
            file: String::from("pool.rs").leak(),
            line: 0,
        });
        pool
    }

    /// The oracle: the live frames and `site`, interned by string.
    fn oracle(rt: &Runtime, live: &[RawFrame], site: &Location<'_>) -> (Vec<FrameId>, StackId) {
        let frames = intern_frames(rt.frame_table(), live, site);
        let stack = rt.stack_table().intern(&frames);
        (frames, stack)
    }

    /// The capture of a lock at `site` through `rt`, cloned out of the leaf
    /// as a `RawLock` caller would hold it.
    fn lock_site(rt: &Runtime, site: &'static Location<'static>) -> LockSite {
        with_lock_site(rt, site, |frames, stack| LockSite {
            frames: Arc::clone(frames),
            stack,
        })
    }

    fn assert_matches_oracle(rt: &Runtime, live: &[RawFrame], site: &'static Location<'static>) {
        let (frames, stack) = oracle(rt, live, site);
        let cached = lock_site(rt, site);
        assert_eq!(cached.frames(), &frames[..]);
        assert_eq!(cached.stack(), stack);
        assert_eq!(capture(rt.frame_table(), site), frames);
    }

    fn tree_size() -> usize {
        CONTEXT.with(|c| {
            let c = c.borrow();
            c.children.len() + c.leaves.len()
        })
    }

    #[derive(Clone, Debug)]
    enum Op {
        Push(usize),
        Pop,
        /// Lock through runtime `.0` at site `.1`.
        Lock(usize, usize),
        /// Drop runtime `.0` and put a fresh one in its place.
        Replace(usize),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                (0_usize..6).prop_map(Op::Push),
                (0_usize..6).prop_map(Op::Push),
                (0_usize..1).prop_map(|_| Op::Pop),
                (0_usize..1).prop_map(|_| Op::Pop),
                (0_usize..2, 0_usize..3).prop_map(|(r, s)| Op::Lock(r, s)),
                (0_usize..2, 0_usize..3).prop_map(|(r, s)| Op::Lock(r, s)),
                (0_usize..2, 0_usize..3).prop_map(|(r, s)| Op::Lock(r, s)),
                (0_usize..16).prop_map(|r| Op::Replace(r % 2)),
            ],
            0..120,
        )
    }

    proptest! {
        /// Differential: over random push / pop / lock sequences, with two
        /// runtimes interleaved on this one thread and either of them
        /// replaced mid-sequence, the tree answers exactly what interning
        /// the live frames by string answers — frames and stack id. The
        /// tree persists from case to case (one thread runs them all), so
        /// later cases also meet leaves of long-dead runtimes.
        #[test]
        fn cached_capture_equals_string_interning(ops in arb_ops()) {
            let pool = frame_pool();
            let sites = sites();
            let mut runtimes = [
                Runtime::new(Config::default()).unwrap(),
                Runtime::new(Config::default()).unwrap(),
            ];
            let mut live: Vec<RawFrame> = Vec::new();
            let mut guards: Vec<FrameGuard> = Vec::new();
            for op in ops {
                match op {
                    Op::Push(f) => {
                        live.push(pool[f]);
                        guards.push(push_frame(pool[f]));
                    }
                    Op::Pop => {
                        live.pop();
                        guards.pop();
                    }
                    Op::Lock(r, s) => assert_matches_oracle(&runtimes[r], &live, sites[s]),
                    Op::Replace(r) => {
                        runtimes[r] = Runtime::new(Config::default()).unwrap();
                        // Shift the newcomer's id space, so a stale leaf
                        // cannot be right by coincidence.
                        runtimes[r].frame_table().intern("shift", "pool.rs", live.len() as u32);
                    }
                }
            }
            while guards.pop().is_some() {}
            prop_assert_eq!(depth(), 0);
        }
    }

    #[test]
    fn a_new_runtime_never_sees_a_dead_runtimes_ids() {
        let [site, ..] = sites();
        let live = [frame_pool()[2]];
        let _g = push_frame(live[0]);
        let first = Runtime::new(Config::default()).unwrap();
        assert_matches_oracle(&first, &live, site);
        let stale = lock_site(&first, site);
        drop(first);
        // The allocator is free to put the next runtime's tables where the
        // dead one's were; its ids for the same context differ regardless.
        let second = Runtime::new(Config::default()).unwrap();
        second.frame_table().intern("earlier", "other.rs", 1);
        second.stack_table().intern(&[FrameId(0)]);
        assert_matches_oracle(&second, &live, site);
        let fresh = lock_site(&second, site);
        assert_ne!(fresh.frames(), stale.frames());
        assert_ne!(fresh.stack(), stale.stack());
        let outer = second.frame_table().resolve(fresh.frames()[0]);
        assert_eq!((&*outer.function, outer.line), ("update", 20));
    }

    #[test]
    fn equal_frames_at_different_addresses_intern_alike() {
        let [site, ..] = sites();
        let pool = frame_pool();
        let rt = Runtime::new(Config::default()).unwrap();
        let by_static = {
            let _g = push_frame(pool[0]);
            lock_site(&rt, site)
        };
        let by_leaked = {
            let _g = push_frame(pool[5]);
            lock_site(&rt, site)
        };
        assert_ne!(identity(&pool[0]), identity(&pool[5]));
        assert_eq!(by_static.frames(), by_leaked.frames());
        assert_eq!(by_static.stack(), by_leaked.stack());
    }

    #[test]
    fn a_panic_through_frame_guards_leaves_stack_and_cursor_consistent() {
        let [site, other] = {
            let [a, b, _] = sites();
            [a, b]
        };
        let pool = frame_pool();
        let rt = Runtime::new(Config::default()).unwrap();
        let _outer = push_frame(pool[1]);
        assert_matches_oracle(&rt, &pool[1..2], site);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = push_frame(pool[2]);
            let _b = push_frame(pool[3]);
            assert_matches_oracle(&rt, &pool[1..4], site);
            std::panic::resume_unwind(Box::new("scripted"));
        }));
        assert!(unwound.is_err());
        assert_eq!(depth(), 1);
        assert_eq!(CONTEXT.with(|c| c.borrow().path.len()), 1);
        // A different frame at the depth the unwind vacated must not be
        // answered from the cursor the panicked scope left behind.
        let _c = push_frame(pool[4]);
        assert_matches_oracle(&rt, &[pool[1], pool[4]], other);
    }

    #[test]
    fn the_tree_resets_at_its_budget_and_keeps_answering() {
        let [site, ..] = sites();
        let rt = Runtime::new(Config::default()).unwrap();
        let outer = frame_pool()[1];
        let _outer = push_frame(outer);
        let mut resets = 0;
        let mut before = tree_size();
        // Each context adds one edge and one leaf.
        for line in 0..NODE_BUDGET as u32 {
            let inner = RawFrame {
                function: "handler",
                file: "budget.rs",
                line,
            };
            let _inner = push_frame(inner);
            assert_matches_oracle(&rt, &[outer, inner], site);
            let now = tree_size();
            // A capture grows the tree by at most the live depth plus the
            // leaf past the budget, never further.
            assert!(now <= NODE_BUDGET + 3, "{now} nodes");
            resets += usize::from(now < before);
            before = now;
        }
        assert!(resets >= 1, "{NODE_BUDGET} contexts never hit the budget");
    }

    #[test]
    fn only_the_first_capture_of_a_context_misses() {
        let [site, other, _] = sites();
        let rt = Runtime::new(Config::default()).unwrap();
        let _g = push_frame(frame_pool()[0]);
        for _ in 0..10 {
            lock_site(&rt, site);
        }
        assert_eq!(rt.stats().capture_misses, 1);
        // `capture` fills the frames but has no stack table to intern the
        // stack with: the first lock through that leaf still counts.
        capture(rt.frame_table(), other);
        lock_site(&rt, other);
        lock_site(&rt, other);
        assert_eq!(rt.stats().capture_misses, 2);
    }

    #[test]
    fn the_tree_is_freed_with_its_thread() {
        let rt = Runtime::new(Config::default()).unwrap();
        let captured = std::thread::spawn(move || {
            let [site, ..] = sites();
            let _g = push_frame(frame_pool()[0]);
            let captured = lock_site(&rt, site);
            assert_eq!(Arc::strong_count(&captured.frames), 2, "the leaf holds one");
            captured
        })
        .join()
        .unwrap();
        assert_eq!(Arc::strong_count(&captured.frames), 1);
    }
}
