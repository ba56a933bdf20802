//! Deadlock signatures for Dimmunix (OSDI'08).
//!
//! A *deadlock signature* is the fingerprint Dimmunix saves the first time a
//! deadlock (or avoidance-induced starvation) pattern manifests: the multiset
//! of the call stacks labelling the hold and yield edges of the cycle found
//! in the resource allocation graph (§5.3 of the paper). Signatures contain
//! **no thread or lock identities** — only control-flow information — which
//! makes them portable across executions and distributable to other users of
//! the same binary ("vaccines").
//!
//! This crate provides:
//!
//! * [`frame`] — interned call-site frames (`function`, `file`, `line`), the
//!   execution-independent analog of the return addresses the paper stores;
//! * [`stack`] — interned call stacks and the *suffix matching at depth k*
//!   primitive used everywhere (§5.5);
//! * [`signature`] — the [`Signature`] record with its runtime-mutable
//!   matching depth, avoidance counters and disable flag (§5.7);
//! * [`history`] — the persistent, duplicate-free [`History`] with its
//!   line-oriented on-disk format (200–1000 bytes per signature, §7.4), hot
//!   reload and merge ("patching a program without restarting it", §8);
//! * [`match_index`] — an optional suffix-hash index accelerating the
//!   per-`request` signature search;
//! * [`IdHasher`] — the one hasher for every map and set keyed by ids this
//!   process hands out;
//! * [`calibration`] — the matching-depth calibration state machine
//!   (NA = 20 avoidances per depth, recalibration after NT = 10⁴, §5.5).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
pub mod crc;
pub mod frame;
pub mod history;
mod id_hash;
pub mod match_index;
pub mod signature;
pub mod stack;

pub use calibration::{CalibrationConfig, CalibrationState, CalibrationUpdate, Phase};
pub use frame::{Frame, FrameId, FrameTable};
pub use history::{History, HistoryError, HistoryRecovery};
pub use id_hash::{IdHasher, IdMap, IdSet};
pub use match_index::{BucketLayout, Candidate, CandidateSet, CoverKeys, MatchIndex, MemberKey};
pub use signature::{CycleKind, Provenance, SigId, Signature};
pub use stack::{suffix_matches, suffix_of, CallStack, StackId, StackTable};
