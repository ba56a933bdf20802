//! The lock table: one record per lock the predictor knows.
//!
//! Everything the predictor keeps about a lock lives in that lock's
//! [`LockRecord`]: the heads of its successor and predecessor lists in the
//! order graph ([`crate::graph`]), its condensation component and ring link
//! ([`crate::scc`]), and its aging state (the crate root). A lock is found
//! through one map, the directory, once per fed acquisition; everything
//! that already holds a record index — a held-stack entry, an arc, a ring
//! link, an aging probe — reaches the record with no look-up at all.
//!
//! A lock gets its record the first time it is fed and keeps it until lock
//! aging retires it. A retired lock's record goes on a free list, and the
//! next new lock takes the record freed last, so which record a lock gets
//! is a function of the inputs alone.
//!
//! The table is two arenas of `u32` indices and `Copy` records and one map
//! of `Copy` values: a clone copies three buffers, and
//! [`Clone::clone_from`] copies them into the target's own.

use dimmunix_rag::LockId;
use dimmunix_signature::IdMap;
use std::ops::{Index, IndexMut};

/// The end of a list, and the component of a lock outside the
/// condensation.
pub(crate) const NIL: u32 = u32::MAX;

/// The `u32` index of the entry at `len`: the arenas stay far below 2^32
/// entries, bounded by the global instance cap and the locks fed.
pub(crate) fn index(len: usize) -> u32 {
    u32::try_from(len).expect("an arena holds fewer than 2^32 entries")
}

/// Everything the predictor keeps about one lock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LockRecord {
    /// The lock this record belongs to.
    pub lock: LockId,
    /// Order graph: the first arcs of the lock's successor and predecessor
    /// lists, and whether it is a node of the graph — an edge endpoint
    /// since it was last removed.
    pub succs: u32,
    pub preds: u32,
    pub linked: bool,
    /// Condensation: the lock's component (`NIL` outside the
    /// condensation) and the next member of that component's ring.
    pub comp: u32,
    pub ring: u32,
    /// Aging: the last pass at which the lock was held, released or
    /// recorded an ordering; how many holds it has across all threads; and
    /// whether an aging probe for it is queued.
    pub last_active: u64,
    pub held: u32,
    pub probed: bool,
}

impl LockRecord {
    fn new(lock: LockId) -> Self {
        Self {
            lock,
            succs: NIL,
            preds: NIL,
            linked: false,
            comp: NIL,
            ring: NIL,
            last_active: 0,
            held: 0,
            probed: false,
        }
    }
}

/// The directory and the record arena (see the module docs).
#[derive(Default, Debug)]
pub(crate) struct LockTable {
    dir: IdMap<LockId, u32>,
    records: Vec<LockRecord>,
    /// Freed records, the last freed on top.
    free: Vec<u32>,
}

impl Clone for LockTable {
    fn clone(&self) -> Self {
        let mut copy = Self::default();
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, source: &Self) {
        self.dir.clone_from(&source.dir);
        self.records.clone_from(&source.records);
        self.free.clone_from(&source.free);
    }
}

impl LockTable {
    /// The record of `lock`, made (from the free list first) if the lock
    /// has none.
    pub fn intern(&mut self, lock: LockId) -> u32 {
        let Self { dir, records, free } = self;
        *dir.entry(lock).or_insert_with(|| {
            let record = LockRecord::new(lock);
            match free.pop() {
                Some(r) => {
                    records[r as usize] = record;
                    r
                }
                None => {
                    records.push(record);
                    index(records.len() - 1)
                }
            }
        })
    }

    /// The record of `lock`, if it has one.
    pub fn find(&self, lock: LockId) -> Option<u32> {
        self.dir.get(&lock).copied()
    }

    /// Forgets the lock of record `r`, which the graph and the condensation
    /// no longer name and nobody holds; the record goes on the free list.
    pub fn release(&mut self, r: u32) {
        let record = &self.records[r as usize];
        debug_assert!(
            !record.linked && record.comp == NIL && record.held == 0 && !record.probed,
            "a released record is still in use: {record:?}"
        );
        self.dir.remove(&record.lock);
        self.free.push(r);
    }

    /// Whether records `a` and `b` share a condensation component.
    pub fn same_component(&self, a: u32, b: u32) -> bool {
        let c = self[a].comp;
        c != NIL && c == self[b].comp
    }

    /// Every record, freed ones included (their list heads are `NIL`).
    pub fn records_mut(&mut self) -> impl Iterator<Item = &mut LockRecord> {
        self.records.iter_mut()
    }

    /// The locks that have a record, with their records.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (LockId, u32)> + '_ {
        self.dir.iter().map(|(&l, &r)| (l, r))
    }
}

impl Index<u32> for LockTable {
    type Output = LockRecord;

    fn index(&self, r: u32) -> &LockRecord {
        &self.records[r as usize]
    }
}

impl IndexMut<u32> for LockTable {
    fn index_mut(&mut self, r: u32) -> &mut LockRecord {
        &mut self.records[r as usize]
    }
}
