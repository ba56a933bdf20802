//! The signature record itself.

use crate::calibration::CalibrationState;
use crate::stack::StackId;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

/// What kind of cycle produced a signature (§5.2).
///
/// Dimmunix treats both uniformly — "cycle detection as a universal mechanism
/// for detecting both deadlocks and induced starvation" — but records the
/// kind for reporting.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CycleKind {
    /// A true deadlock: a cycle of hold/allow/request edges in the RAG.
    Deadlock,
    /// Avoidance-induced starvation: a yield cycle in the RAG.
    Starvation,
}

impl fmt::Display for CycleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleKind::Deadlock => write!(f, "deadlock"),
            CycleKind::Starvation => write!(f, "starvation"),
        }
    }
}

/// How a signature entered the history.
///
/// The paper's monitor archives a signature only after *suffering* the
/// cycle (deadlock or induced starvation). The prediction subsystem
/// additionally synthesizes signatures from lock-order-graph analysis of
/// runs that never deadlocked; the provenance tag keeps those vaccines
/// distinguishable — reportable, prunable by the same false-positive
/// calibration, and shippable as files with their origin intact.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Provenance {
    /// Captured from a real deadlock cycle found in the RAG.
    Detected,
    /// Captured from an avoidance-induced starvation (yield) cycle.
    Starved,
    /// Synthesized by the lock-order-graph deadlock predictor before any
    /// cycle ever manifested.
    Predicted,
}

impl Provenance {
    /// The provenance a pre-provenance (history v1) signature of `kind`
    /// defaults to: v1 histories only ever held suffered cycles.
    pub fn default_for(kind: CycleKind) -> Self {
        match kind {
            CycleKind::Deadlock => Provenance::Detected,
            CycleKind::Starvation => Provenance::Starved,
        }
    }

    /// Parses the on-disk attribute value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "detected" => Some(Provenance::Detected),
            "starved" => Some(Provenance::Starved),
            "predicted" => Some(Provenance::Predicted),
            _ => None,
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::Detected => write!(f, "detected"),
            Provenance::Starved => write!(f, "starved"),
            Provenance::Predicted => write!(f, "predicted"),
        }
    }
}

/// Identifier of a signature within one [`crate::History`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SigId(pub u32);

impl fmt::Debug for SigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig{}", self.0)
    }
}

/// A deadlock/starvation signature: a multiset of call stacks plus matching
/// metadata.
///
/// The stack multiset is stored sorted so that signature equality (used for
/// history deduplication) is canonical. All runtime-mutable metadata is
/// atomic: the avoidance hot path reads `depth`/`disabled` without any lock,
/// and only the monitor thread mutates them (§5.4: "the monitor is the only
/// thread mutating the history").
pub struct Signature {
    /// Identity within the owning history.
    pub id: SigId,
    /// Deadlock or induced-starvation pattern.
    pub kind: CycleKind,
    /// Sorted multiset of the member call stacks (one per thread in the
    /// captured cycle).
    pub stacks: Box<[StackId]>,
    /// How this signature entered the history (suffered vs. predicted).
    pub provenance: Provenance,
    /// Current matching depth (how long a suffix of each stack to compare).
    depth: AtomicU8,
    /// Disabled signatures are never avoided again (user opt-out, §5.7).
    disabled: AtomicBool,
    /// Total number of times this signature triggered an avoidance (yield).
    avoided: AtomicU64,
    /// Number of times a yield on this signature was aborted by the
    /// max-yield-duration bound (§5.7's escape hatch).
    aborts: AtomicU64,
    /// Matching-depth calibration state (§5.5); monitor-only.
    calibration: Mutex<CalibrationState>,
}

impl Signature {
    /// Creates a signature over `stacks` with the given initial matching
    /// depth and the default provenance for `kind` (a suffered cycle).
    pub fn new(id: SigId, kind: CycleKind, stacks: Vec<StackId>, depth: u8) -> Self {
        Self::with_provenance(id, kind, stacks, depth, Provenance::default_for(kind))
    }

    /// Creates a signature with an explicit provenance tag. The stack list
    /// is sorted into canonical multiset order.
    pub fn with_provenance(
        id: SigId,
        kind: CycleKind,
        mut stacks: Vec<StackId>,
        depth: u8,
        provenance: Provenance,
    ) -> Self {
        stacks.sort_unstable();
        Self {
            id,
            kind,
            stacks: stacks.into_boxed_slice(),
            provenance,
            depth: AtomicU8::new(depth),
            disabled: AtomicBool::new(false),
            avoided: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            calibration: Mutex::new(CalibrationState::disabled()),
        }
    }

    /// Number of threads involved in the captured cycle.
    pub fn size(&self) -> usize {
        self.stacks.len()
    }

    /// Current matching depth.
    pub fn depth(&self) -> u8 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Sets the matching depth (monitor/calibration only).
    pub fn set_depth(&self, depth: u8) {
        self.depth.store(depth, Ordering::Relaxed);
    }

    /// Whether avoidance of this signature has been switched off.
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Relaxed)
    }

    /// Enables or disables avoidance of this signature.
    pub fn set_disabled(&self, disabled: bool) {
        self.disabled.store(disabled, Ordering::Relaxed);
    }

    /// Total avoidances (yields) attributed to this signature.
    pub fn avoided(&self) -> u64 {
        self.avoided.load(Ordering::Relaxed)
    }

    /// Records one avoidance; returns the new total.
    pub fn record_avoided(&self) -> u64 {
        self.avoided.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Restores the avoided counter (used when loading from disk).
    pub fn set_avoided(&self, n: u64) {
        self.avoided.store(n, Ordering::Relaxed);
    }

    /// Number of yield-timeout aborts recorded against this signature.
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }

    /// Records one yield-timeout abort; returns the new total.
    pub fn record_abort(&self) -> u64 {
        self.aborts.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Restores the abort counter (used when loading from disk).
    pub fn set_aborts(&self, n: u64) {
        self.aborts.store(n, Ordering::Relaxed);
    }

    /// Exclusive access to the calibration state (monitor thread only).
    pub fn calibration(&self) -> parking_lot::MutexGuard<'_, CalibrationState> {
        self.calibration.lock()
    }

    /// Whether `other_stacks` (sorted) denotes the same stack multiset.
    pub fn same_stacks(&self, other_sorted: &[StackId]) -> bool {
        &*self.stacks == other_sorted
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signature")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("provenance", &self.provenance)
            .field("stacks", &self.stacks)
            .field("depth", &self.depth())
            .field("disabled", &self.is_disabled())
            .field("avoided", &self.avoided())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacks_are_canonicalized() {
        let s = Signature::new(
            SigId(0),
            CycleKind::Deadlock,
            vec![StackId(5), StackId(1), StackId(5)],
            4,
        );
        assert_eq!(&*s.stacks, &[StackId(1), StackId(5), StackId(5)]);
        assert!(s.same_stacks(&[StackId(1), StackId(5), StackId(5)]));
        assert!(!s.same_stacks(&[StackId(1), StackId(5)]));
        assert_eq!(s.size(), 3);
    }

    #[test]
    fn multiset_duplicates_are_preserved() {
        // Different threads may deadlock with the *same* stack (§5.3), so the
        // signature must be a multiset, not a set.
        let s = Signature::new(
            SigId(0),
            CycleKind::Deadlock,
            vec![StackId(7), StackId(7)],
            4,
        );
        assert_eq!(s.size(), 2);
    }

    #[test]
    fn provenance_defaults_follow_kind() {
        let d = Signature::new(SigId(0), CycleKind::Deadlock, vec![StackId(1)], 4);
        assert_eq!(d.provenance, Provenance::Detected);
        let s = Signature::new(SigId(1), CycleKind::Starvation, vec![StackId(1)], 4);
        assert_eq!(s.provenance, Provenance::Starved);
        let p = Signature::with_provenance(
            SigId(2),
            CycleKind::Deadlock,
            vec![StackId(1)],
            4,
            Provenance::Predicted,
        );
        assert_eq!(p.provenance, Provenance::Predicted);
        for prov in [
            Provenance::Detected,
            Provenance::Starved,
            Provenance::Predicted,
        ] {
            assert_eq!(Provenance::parse(&prov.to_string()), Some(prov));
        }
        assert_eq!(Provenance::parse("banana"), None);
    }

    #[test]
    fn counters_and_flags() {
        let s = Signature::new(SigId(3), CycleKind::Starvation, vec![StackId(0)], 1);
        assert_eq!(s.depth(), 1);
        s.set_depth(7);
        assert_eq!(s.depth(), 7);
        assert!(!s.is_disabled());
        s.set_disabled(true);
        assert!(s.is_disabled());
        assert_eq!(s.record_avoided(), 1);
        assert_eq!(s.record_avoided(), 2);
        assert_eq!(s.avoided(), 2);
        assert_eq!(s.record_abort(), 1);
        assert_eq!(s.aborts(), 1);
    }
}
