//! Ghost locks (Zeng & Martin \[23\]).
//!
//! Instead of serializing code blocks, serialize access to the *lock sets*
//! previously seen to deadlock: a ghost lock is introduced per deadlocking
//! lock set, and must be acquired before locking any member. Unlike
//! Dimmunix signatures, lock sets name concrete lock identities, so the
//! scheme is not portable across executions where lock objects differ — the
//! reason the paper's §4 example calls it out as coarser than call-path
//! avoidance.

use dimmunix_core::LockId;
use parking_lot::lock_api::RawMutex as RawMutexApi;
use parking_lot::RawMutex;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Ghost {
    raw: RawMutex,
}

/// Ghost-lock table: lock identity → ghost lock of its deadlock group.
pub struct GhostLockTable {
    lock_to_ghost: HashMap<LockId, usize>,
    ghosts: Vec<Arc<Ghost>>,
    serializations: AtomicU64,
    entries: AtomicU64,
}

impl GhostLockTable {
    /// Builds ghosts from observed deadlocking lock sets. Sets sharing a
    /// lock are merged (their ghosts would otherwise deadlock).
    pub fn from_lock_sets(sets: &[Vec<LockId>]) -> Self {
        let mut uf = crate::unionfind::UnionFind::new(0);
        let mut lock_slot: HashMap<LockId, usize> = HashMap::new();
        for set in sets {
            let mut first: Option<usize> = None;
            for &l in set {
                let slot = *lock_slot.entry(l).or_insert_with(|| uf.push());
                match first {
                    None => first = Some(slot),
                    Some(f) => {
                        uf.union(f, slot);
                    }
                }
            }
        }
        let mut rep_to_ghost: HashMap<usize, usize> = HashMap::new();
        let mut ghosts = Vec::new();
        let mut lock_to_ghost = HashMap::new();
        for (&l, &slot) in &lock_slot {
            let rep = uf.find(slot);
            let ghost = *rep_to_ghost.entry(rep).or_insert_with(|| {
                ghosts.push(Arc::new(Ghost {
                    raw: RawMutex::INIT,
                }));
                ghosts.len() - 1
            });
            lock_to_ghost.insert(l, ghost);
        }
        Self {
            lock_to_ghost,
            ghosts,
            serializations: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    /// Number of ghost locks.
    pub fn ghost_count(&self) -> usize {
        self.ghosts.len()
    }

    /// Acquires the ghost protecting `lock`, if any. Hold the guard until
    /// the protected lock (set) is released.
    pub fn acquire(&self, lock: LockId) -> Option<GhostGuard> {
        let &g = self.lock_to_ghost.get(&lock)?;
        self.entries.fetch_add(1, Ordering::Relaxed);
        let ghost = Arc::clone(&self.ghosts[g]);
        if !ghost.raw.try_lock() {
            self.serializations.fetch_add(1, Ordering::Relaxed);
            ghost.raw.lock();
        }
        Some(GhostGuard {
            ghost,
            _not_send: PhantomData,
        })
    }

    /// Ghost acquisitions that had to wait.
    pub fn serializations(&self) -> u64 {
        self.serializations.load(Ordering::Relaxed)
    }

    /// Total ghost acquisitions.
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for GhostLockTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GhostLockTable")
            .field("ghosts", &self.ghost_count())
            .field("locks", &self.lock_to_ghost.len())
            .finish()
    }
}

/// Guard holding a ghost lock; drop on the acquiring thread.
pub struct GhostGuard {
    ghost: Arc<Ghost>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for GhostGuard {
    fn drop(&mut self) {
        // SAFETY: `acquire` locked `raw` on this thread and handed out
        // exactly one guard; `!Send` keeps the drop on the same thread.
        unsafe { self.ghost.raw.unlock() };
    }
}

impl std::fmt::Debug for GhostGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GhostGuard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LockId {
        LockId(n)
    }

    #[test]
    fn independent_sets_get_independent_ghosts() {
        let t = GhostLockTable::from_lock_sets(&[vec![l(1), l(2)], vec![l(3), l(4)]]);
        assert_eq!(t.ghost_count(), 2);
    }

    #[test]
    fn overlapping_sets_merge() {
        let t = GhostLockTable::from_lock_sets(&[vec![l(1), l(2)], vec![l(2), l(3)]]);
        assert_eq!(t.ghost_count(), 1);
    }

    #[test]
    fn unlisted_locks_need_no_ghost() {
        let t = GhostLockTable::from_lock_sets(&[vec![l(1), l(2)]]);
        assert!(t.acquire(l(9)).is_none());
        assert!(t.acquire(l(1)).is_some());
        assert_eq!(t.entries(), 1);
    }

    #[test]
    fn ghost_serializes_set_members() {
        let t = Arc::new(GhostLockTable::from_lock_sets(&[vec![l(1), l(2)]]));
        let g = t.acquire(l(1)).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            let _g = t2.acquire(l(2)).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(g);
        h.join().unwrap();
        assert_eq!(t.serializations(), 1);
    }
}
