//! Lock-free wake lists: Treiber-style registration stacks drained on
//! release.
//!
//! Kept only for the benchmark's `lockfree.wakelist_push_drain_ns` probe:
//! the avoidance engine no longer uses [`WakeList`], [`WakeNodePool`] or
//! [`DrainVerdict`]. A yield now registers in its cause's log under that
//! log's slot mutex, and the pop that ends the cause's entry takes the
//! registrations in the same critical section. What follows describes the
//! design as the engine used it.
//!
//! The avoidance engine's release-side wakeups used to funnel through hash-
//! sharded mutexes keyed by yield cause, so one popular cause (a hot lock)
//! re-serialized every release and yield registration on one mutex.
//! [`WakeList`] replaces a shard with a per-*cause-thread* Treiber stack:
//!
//! * **registration** ([`WakeList::push`]) is one CAS on the list head —
//!   yielding threads publish `(key, payload, tag)` nodes, where the engine
//!   uses `key` = the cause lock, `payload` = the yielding thread and
//!   `tag` = the yielder's registration epoch;
//! * **release** ([`WakeList::drain`]) is a swap-and-drain: one atomic swap
//!   detaches the whole stack, then the drainer classifies each node —
//!   *consume* (deliver or discard) or *retain* (re-push, e.g. a live
//!   registration for a different lock of the same cause thread).
//!
//! # Single-drainer contract
//!
//! All drains of one list must be serialized by the caller (the engine
//! guarantees this structurally: a thread's causes are `(owner thread,
//! lock)` pairs and only the owner thread releases its own locks, so only
//! the owner drains its own list). Two concurrent drainers would race on
//! the retain/re-push window: a node held by one drainer is invisible to
//! the other, which could miss a wakeup. Pushes may come from any number of
//! threads concurrently with the single drainer.
//!
//! # Memory ordering
//!
//! Push and drain are `SeqCst` RMWs on the head; together with the
//! `SeqCst` sequence word of
//! [`crate::versioned::VersionedBucket`] this closes the
//! decide-then-register vs. remove-then-drain race (the Dekker argument in
//! the avoidance engine's docs): whichever of *push* and *swap* comes
//! second in the total order observes the other side's effect.

use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

/// What a drainer decides for one node (see [`WakeList::drain`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DrainVerdict {
    /// The node is used up (wake delivered, or registration stale): free it.
    Consume,
    /// The node is still live for another key: re-push it onto the list.
    Retain,
}

struct Node {
    key: u64,
    payload: u64,
    tag: u64,
    next: *mut Node,
}

/// Soft capacity of a [`WakeNodePool`]; nodes returned beyond it are freed.
const POOL_CAP: u32 = 64;

/// A bounded Treiber free-list of wake nodes, so steady-state yield
/// registration recycles nodes instead of Box-allocating on the hot path.
///
/// # Single-popper contract
///
/// All *pops* of one pool must be serialized by the caller. The avoidance
/// engine guarantees this structurally: each registered thread slot owns
/// one pool, registration ([`WakeList::push_pooled`]) only ever draws from
/// the *registering* thread's own pool, and a drain returns each consumed
/// node to the pool of the thread that registered it
/// ([`WakeList::drain_to_pools`]) — the only pool a later registration of
/// that thread can find it in. With a single popper the Treiber pop is ABA-free: nobody else can
/// remove the observed head, so a successful CAS proves the head (and its
/// `next` link) did not change. *Pushes* may come from any thread.
///
/// The length counter is advisory (`Relaxed`): the cap may be overshot by
/// a few nodes under concurrent pushes, which only costs memory, never
/// correctness.
pub struct WakeNodePool {
    head: AtomicPtr<Node>,
    len: AtomicU32,
}

// SAFETY: As for `WakeList` — nodes are owned by the pool once pushed, the
// head only moves through atomic RMWs, and the single-popper contract is a
// liveness/aliasing discipline documented above (pop safety relies on it;
// the engine upholds it structurally).
unsafe impl Send for WakeNodePool {}
// SAFETY: See above.
unsafe impl Sync for WakeNodePool {}

impl WakeNodePool {
    /// Creates an empty pool.
    pub const fn new() -> Self {
        Self {
            head: AtomicPtr::new(ptr::null_mut()),
            len: AtomicU32::new(0),
        }
    }

    /// Advisory live-node count (telemetry only).
    pub fn approx_len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    /// Pops a free node, or null if the pool is empty. Callers must honor
    /// the single-popper contract (type docs).
    fn pop(&self) -> *mut Node {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            if head.is_null() {
                return ptr::null_mut();
            }
            // SAFETY: Single-popper contract — `head` cannot be removed (and
            // freed or re-linked) by anyone else between the load and the
            // CAS, so reading its `next` link is safe and un-torn.
            let next = unsafe { (*head).next };
            match self
                .head
                .compare_exchange_weak(head, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    return head;
                }
                Err(current) => head = current,
            }
        }
    }

    /// Returns a node to the pool; fails (caller frees) when at capacity.
    fn push(&self, node: *mut Node) -> bool {
        if self.len.load(Ordering::Relaxed) >= POOL_CAP {
            return false;
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `node` is exclusively owned until the CAS succeeds.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(current) => head = current,
            }
        }
    }
}

impl Default for WakeNodePool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for WakeNodePool {
    fn drop(&mut self) {
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            // SAFETY: Exclusive access in `drop`; nodes were Box-allocated.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
        }
    }
}

impl fmt::Debug for WakeNodePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WakeNodePool")
            .field("len", &self.approx_len())
            .finish()
    }
}

/// A Treiber-style multi-producer, single-drainer wake list (see module
/// docs).
///
/// # Examples
///
/// ```
/// use dimmunix_lockfree::{DrainVerdict, WakeList};
///
/// let list = WakeList::new();
/// list.push(1, 100, 0); // cause lock 1, yielder 100
/// list.push(2, 200, 0); // cause lock 2, yielder 200
/// let mut woken = Vec::new();
/// list.drain(|key, payload, _tag| {
///     if key == 1 {
///         woken.push(payload);
///         DrainVerdict::Consume
///     } else {
///         DrainVerdict::Retain
///     }
/// });
/// assert_eq!(woken, vec![100]);
/// assert!(!list.is_empty()); // the lock-2 registration survived
/// ```
pub struct WakeList {
    head: AtomicPtr<Node>,
}

// SAFETY: Nodes are owned by the list once pushed; the head is only
// manipulated through atomic RMWs, and node payloads are plain integers.
unsafe impl Send for WakeList {}
// SAFETY: See above (drain exclusivity is a documented caller contract; it
// affects liveness, not memory safety — each drainer owns the chain its
// swap detached).
unsafe impl Sync for WakeList {}

impl WakeList {
    /// Creates an empty list.
    pub const fn new() -> Self {
        Self {
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Whether the list is currently empty. `SeqCst`, so a releaser may use
    /// it as the drain precheck without weakening the no-lost-wakeup
    /// ordering argument.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::SeqCst).is_null()
    }

    /// Pushes a registration node. Wait-free except for CAS retries under
    /// push contention.
    pub fn push(&self, key: u64, payload: u64, tag: u64) {
        let node = Box::into_raw(Box::new(Node {
            key,
            payload,
            tag,
            next: ptr::null_mut(),
        }));
        self.push_node(node);
    }

    /// Pushes a registration node, recycling one from `pool` when it has a
    /// free node instead of Box-allocating. Returns whether the pool had a
    /// node (a *pool hit*). The caller must be the pool's single popper
    /// ([`WakeNodePool`] docs).
    pub fn push_pooled(&self, pool: &WakeNodePool, key: u64, payload: u64, tag: u64) -> bool {
        let node = pool.pop();
        if node.is_null() {
            self.push(key, payload, tag);
            return false;
        }
        // SAFETY: A successful pop transfers exclusive ownership of the node
        // to this caller until `push_node` publishes it.
        unsafe {
            (*node).key = key;
            (*node).payload = payload;
            (*node).tag = tag;
            (*node).next = ptr::null_mut();
        }
        self.push_node(node);
        true
    }

    fn push_node(&self, node: *mut Node) {
        let mut head = self.head.load(Ordering::SeqCst);
        loop {
            // SAFETY: `node` is exclusively owned until the CAS succeeds.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return,
                Err(current) => head = current,
            }
        }
    }

    /// Swap-and-drain: detaches the whole stack with one atomic swap, then
    /// passes each node's `(key, payload, tag)` to `judge`. `Consume` frees
    /// the node; `Retain` re-pushes it. Returns how many nodes were
    /// consumed. Callers must honor the single-drainer contract (module
    /// docs).
    pub fn drain(&self, mut judge: impl FnMut(u64, u64, u64) -> DrainVerdict) -> usize {
        let mut p = self.head.swap(ptr::null_mut(), Ordering::SeqCst);
        let mut consumed = 0;
        while !p.is_null() {
            // SAFETY: The swap transferred ownership of the whole chain to
            // this drainer; nodes were Box-allocated by `push`.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
            match judge(node.key, node.payload, node.tag) {
                DrainVerdict::Consume => consumed += 1,
                DrainVerdict::Retain => self.push_node(Box::into_raw(node)),
            }
        }
        consumed
    }

    /// Like [`Self::drain`], but consumed nodes are returned to `pool`
    /// (freed only when the pool is at capacity) so a later
    /// [`Self::push_pooled`] can recycle them. The caller must be both this
    /// list's single drainer and entitled to push into `pool` (pool pushes
    /// are unrestricted; see [`WakeNodePool`]).
    pub fn drain_into(
        &self,
        pool: &WakeNodePool,
        judge: impl FnMut(u64, u64, u64) -> DrainVerdict,
    ) -> usize {
        self.drain_to_pools(|_| pool, judge)
    }

    /// [`Self::drain_into`] with a pool per node: a consumed node goes to
    /// `pool_of(payload)`. Pushers draw from their own pool and, with the
    /// pusher's identity as the payload, this hands every node back to
    /// where its pusher will look for it — returning them to the drainer's
    /// pool instead starves a pusher that never drains (a one-way hand-off).
    pub fn drain_to_pools<'p>(
        &self,
        pool_of: impl Fn(u64) -> &'p WakeNodePool,
        mut judge: impl FnMut(u64, u64, u64) -> DrainVerdict,
    ) -> usize {
        let mut p = self.head.swap(ptr::null_mut(), Ordering::SeqCst);
        let mut consumed = 0;
        while !p.is_null() {
            // SAFETY: The swap transferred ownership of the whole chain to
            // this drainer. `next` is read before the node is handed to the
            // pool or re-pushed (both overwrite the link).
            let (key, payload, tag, next) =
                unsafe { ((*p).key, (*p).payload, (*p).tag, (*p).next) };
            match judge(key, payload, tag) {
                DrainVerdict::Consume => {
                    consumed += 1;
                    if !pool_of(payload).push(p) {
                        // SAFETY: Pool full; we still own the node.
                        drop(unsafe { Box::from_raw(p) });
                    }
                }
                DrainVerdict::Retain => self.push_node(p),
            }
            p = next;
        }
        consumed
    }
}

impl Default for WakeList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for WakeList {
    fn drop(&mut self) {
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            // SAFETY: Exclusive access in `drop`; nodes were Box-allocated.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
        }
    }
}

impl fmt::Debug for WakeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WakeList")
            .field("empty", &self.is_empty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn consume_and_retain_partition_the_list() {
        let list = WakeList::new();
        for i in 0..10_u64 {
            list.push(i % 2, i, 7);
        }
        let mut even = Vec::new();
        let consumed = list.drain(|key, payload, tag| {
            assert_eq!(tag, 7);
            if key == 0 {
                even.push(payload);
                DrainVerdict::Consume
            } else {
                DrainVerdict::Retain
            }
        });
        assert_eq!(consumed, 5);
        even.sort_unstable();
        assert_eq!(even, vec![0, 2, 4, 6, 8]);
        // The retained odd-key nodes are all still there.
        let mut odd = Vec::new();
        list.drain(|_, payload, _| {
            odd.push(payload);
            DrainVerdict::Consume
        });
        odd.sort_unstable();
        assert_eq!(odd, vec![1, 3, 5, 7, 9]);
        assert!(list.is_empty());
    }

    #[test]
    fn pool_recycles_consumed_nodes() {
        let list = WakeList::new();
        let pool = WakeNodePool::new();
        // Cold pool: every push is a miss.
        assert!(!list.push_pooled(&pool, 1, 10, 0));
        assert!(!list.push_pooled(&pool, 2, 20, 0));
        assert_eq!(pool.approx_len(), 0);
        // Draining into the pool banks both nodes.
        let consumed = list.drain_into(&pool, |_, _, _| DrainVerdict::Consume);
        assert_eq!(consumed, 2);
        assert_eq!(pool.approx_len(), 2);
        // Warm pool: pushes are hits and carry the right payloads.
        assert!(list.push_pooled(&pool, 3, 30, 7));
        assert!(list.push_pooled(&pool, 4, 40, 7));
        assert_eq!(pool.approx_len(), 0);
        assert!(!list.push_pooled(&pool, 5, 50, 7)); // pool dry again
        let mut seen = Vec::new();
        list.drain_into(&pool, |key, payload, tag| {
            assert_eq!(tag, 7);
            seen.push((key, payload));
            DrainVerdict::Consume
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![(3, 30), (4, 40), (5, 50)]);
        assert_eq!(pool.approx_len(), 3);
    }

    #[test]
    fn each_consumed_node_returns_to_its_pushers_pool() {
        let list = WakeList::new();
        let pools = [WakeNodePool::new(), WakeNodePool::new()];
        // Payload = the pusher, which draws from its own pool.
        list.push_pooled(&pools[0], 1, 0, 0);
        list.push_pooled(&pools[1], 1, 1, 0);
        list.push_pooled(&pools[1], 2, 1, 0);
        let consumed =
            list.drain_to_pools(|who| &pools[who as usize], |_, _, _| DrainVerdict::Consume);
        assert_eq!(consumed, 3);
        assert_eq!(pools[0].approx_len(), 1);
        assert_eq!(pools[1].approx_len(), 2);
    }

    #[test]
    fn pool_retain_and_cap_paths() {
        let list = WakeList::new();
        let pool = WakeNodePool::new();
        for i in 0..(POOL_CAP as u64 + 10) {
            list.push(i, i, 0);
        }
        // Retain odd keys on the first drain; consume everything else. The
        // pool absorbs at most POOL_CAP nodes, the overflow is freed.
        list.drain_into(&pool, |key, _, _| {
            if key % 2 == 1 {
                DrainVerdict::Retain
            } else {
                DrainVerdict::Consume
            }
        });
        assert!(pool.approx_len() <= POOL_CAP as usize);
        assert!(!list.is_empty());
        let retained = list.drain_into(&pool, |key, _, _| {
            assert_eq!(key % 2, 1);
            DrainVerdict::Consume
        });
        assert_eq!(retained as u64, (POOL_CAP as u64 + 10).div_ceil(2));
    }

    #[test]
    fn concurrent_pushers_single_drainer_no_loss_no_dup() {
        const PUSHERS: u64 = 6;
        const PER: u64 = 10_000;
        let list = Arc::new(WakeList::new());
        let handles: Vec<_> = (0..PUSHERS)
            .map(|p| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        list.push(0, p * PER + i, 0);
                    }
                })
            })
            .collect();
        let mut seen = vec![0_u32; (PUSHERS * PER) as usize];
        let mut total = 0;
        while total < PUSHERS * PER {
            total += list.drain(|_, payload, _| {
                seen[payload as usize] += 1;
                DrainVerdict::Consume
            }) as u64;
            std::hint::spin_loop();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(list.is_empty());
        assert!(seen.iter().all(|&c| c == 1), "loss or duplication");
    }
}
