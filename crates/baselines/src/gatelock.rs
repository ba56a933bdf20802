//! Gate locks (Nir-Buchbinder et al. \[17\]).
//!
//! The healing scheme: when a deadlock is observed among a set of code
//! blocks, introduce one *gate lock* and require it to be held while
//! executing any of those blocks. Code blocks are identified by their
//! program location — here the innermost frame (the lock call site) of each
//! signature stack. Signatures sharing a code block must share a gate
//! (otherwise the gates themselves could deadlock), so blocks are merged
//! with union-find; the paper's experiment needed 45 gates for 64
//! signatures for exactly this reason.

use crate::unionfind::UnionFind;
use dimmunix_signature::{FrameId, History, StackTable};
use parking_lot::lock_api::RawMutex as RawMutexApi;
use parking_lot::RawMutex;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One gate: a raw mutex shared by all code blocks in its group.
struct Gate {
    raw: RawMutex,
}

/// The gate-lock avoidance table: code site → gate.
pub struct GateLockTable {
    /// Innermost lock site → gate index.
    site_to_gate: HashMap<FrameId, usize>,
    gates: Vec<Arc<Gate>>,
    /// Gate entries that had to wait (serialized executions).
    serializations: AtomicU64,
    /// Total gate entries.
    entries: AtomicU64,
}

impl GateLockTable {
    /// Builds gates from a deadlock history: one gate per connected group
    /// of code blocks.
    pub fn from_history(history: &History, stacks: &StackTable) -> Self {
        let snapshot = history.snapshot();
        // Collect the code block (innermost frame) of every signature stack.
        let mut uf = UnionFind::new(0);
        let mut site_slot: HashMap<FrameId, usize> = HashMap::new();
        for sig in snapshot.iter() {
            let mut first: Option<usize> = None;
            for &stack_id in sig.stacks.iter() {
                let frames = stacks.resolve(stack_id);
                let Some(&site) = frames.last() else { continue };
                let slot = *site_slot.entry(site).or_insert_with(|| uf.push());
                match first {
                    None => first = Some(slot),
                    Some(f) => {
                        uf.union(f, slot);
                    }
                }
            }
        }
        // One gate per set representative.
        let mut rep_to_gate: HashMap<usize, usize> = HashMap::new();
        let mut gates = Vec::new();
        let mut site_to_gate = HashMap::new();
        for (&site, &slot) in &site_slot {
            let rep = uf.find(slot);
            let gate = *rep_to_gate.entry(rep).or_insert_with(|| {
                gates.push(Arc::new(Gate {
                    raw: RawMutex::INIT,
                }));
                gates.len() - 1
            });
            site_to_gate.insert(site, gate);
        }
        Self {
            site_to_gate,
            gates,
            serializations: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    /// Number of gate locks created (the paper: 45 gates for 64 sigs).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of code sites that are gated.
    pub fn gated_sites(&self) -> usize {
        self.site_to_gate.len()
    }

    /// Enters the code block whose lock site is `site`: acquires the gate
    /// if one guards it. Hold the guard for the duration of the block (it
    /// must be dropped on the acquiring thread).
    pub fn enter(&self, site: FrameId) -> Option<GateGuard> {
        let &gate = self.site_to_gate.get(&site)?;
        self.entries.fetch_add(1, Ordering::Relaxed);
        let lock = Arc::clone(&self.gates[gate]);
        // Count serialization: the entry had to wait for another holder.
        if !lock.raw.try_lock() {
            self.serializations.fetch_add(1, Ordering::Relaxed);
            lock.raw.lock();
        }
        Some(GateGuard {
            lock,
            _not_send: PhantomData,
        })
    }

    /// Gate entries that had to wait (the baseline's "avoidances").
    pub fn serializations(&self) -> u64 {
        self.serializations.load(Ordering::Relaxed)
    }

    /// Total gated entries.
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for GateLockTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateLockTable")
            .field("gates", &self.gate_count())
            .field("gated_sites", &self.gated_sites())
            .finish()
    }
}

/// Guard holding a gate lock for the duration of a code block. Not `Send`:
/// it must drop on the thread that entered the gate.
pub struct GateGuard {
    lock: Arc<Gate>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        // SAFETY: `enter` acquired `raw` on this thread and handed out
        // exactly one guard; `!Send` keeps the drop on the same thread.
        unsafe { self.lock.raw.unlock() };
    }
}

impl std::fmt::Debug for GateGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GateGuard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmunix_signature::{CycleKind, FrameTable};

    struct Env {
        frames: FrameTable,
        stacks: StackTable,
        history: History,
    }

    impl Env {
        fn new() -> Self {
            Self {
                frames: FrameTable::new(),
                stacks: StackTable::new(),
                history: History::new(),
            }
        }

        fn site(&self, line: u32) -> FrameId {
            self.frames.intern("block", "x.rs", line)
        }

        fn sig(&self, a: u32, b: u32) {
            let sa = self.stacks.intern(&[self.site(a)]);
            let sb = self.stacks.intern(&[self.site(b)]);
            self.history.add(CycleKind::Deadlock, vec![sa, sb], 4);
        }
    }

    #[test]
    fn one_gate_per_independent_signature() {
        let env = Env::new();
        env.sig(1, 2);
        env.sig(3, 4);
        let t = GateLockTable::from_history(&env.history, &env.stacks);
        assert_eq!(t.gate_count(), 2);
        assert_eq!(t.gated_sites(), 4);
    }

    #[test]
    fn overlapping_signatures_share_a_gate() {
        // Signatures {1,2} and {2,3} share block 2 → one merged gate;
        // this is why the paper needed only 45 gates for 64 signatures.
        let env = Env::new();
        env.sig(1, 2);
        env.sig(2, 3);
        env.sig(7, 8);
        let t = GateLockTable::from_history(&env.history, &env.stacks);
        assert_eq!(t.gate_count(), 2);
        assert_eq!(t.gated_sites(), 5);
    }

    #[test]
    fn ungated_sites_pass_freely() {
        let env = Env::new();
        env.sig(1, 2);
        let t = GateLockTable::from_history(&env.history, &env.stacks);
        assert!(t.enter(env.site(99)).is_none());
        assert_eq!(t.entries(), 0);
    }

    #[test]
    fn gate_serializes_contending_threads() {
        let env = Env::new();
        env.sig(1, 2);
        let t = Arc::new(GateLockTable::from_history(&env.history, &env.stacks));
        let site1 = env.site(1);
        let site2 = env.site(2);

        let g = t.enter(site1).expect("site 1 is gated");
        let t2 = Arc::clone(&t);
        let handle = std::thread::spawn(move || {
            // Different code block, same gate: must wait.
            let _g = t2.enter(site2).expect("site 2 is gated");
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(g);
        handle.join().unwrap();
        assert_eq!(t.entries(), 2);
        assert_eq!(t.serializations(), 1, "the second entry was serialized");
    }
}
