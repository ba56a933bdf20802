//! # Dimmunix: deadlock immunity for Rust programs
//!
//! An implementation of *"Deadlock Immunity: Enabling Systems To Defend
//! Against Deadlocks"* (Jula, Tralamazza, Zamfir, Candea — OSDI 2008).
//!
//! Deadlock immunity is the property by which a program, once afflicted by
//! a deadlock, develops resistance against future occurrences of that
//! deadlock pattern. The first time a deadlock manifests, Dimmunix captures
//! its **signature** — the multiset of call stacks involved — into a
//! persistent **history**; on subsequent runs (or later in the same run),
//! the `request` hook on every lock acquisition checks whether blocking
//! would *instantiate* a known signature and, if so, forces the thread to
//! **yield** until the danger passes. An asynchronous **monitor** thread
//! maintains a resource allocation graph from a lock-free event stream,
//! detects both real deadlocks and avoidance-induced starvation, and keeps
//! the program live.
//!
//! ## Quick start
//!
//! ```
//! use dimmunix_core::{Config, Runtime};
//!
//! // One runtime per program; spawn the monitor for asynchronous detection.
//! let rt = Runtime::new(Config::default()).unwrap();
//!
//! // Drop-in mutex with immunity.
//! let account = rt.mutex(100_i64);
//! {
//!     let mut balance = account.lock();
//!     *balance -= 30;
//! }
//! assert_eq!(*account.lock(), 70);
//! ```
//!
//! ## Architecture
//!
//! * [`runtime::Runtime`] — owns everything; one per program.
//! * [`sync::ImmunizedMutex`], [`sync::ReentrantLock`] — RAII lock types
//!   (the "Java flavour": the call stack is captured at every operation,
//!   from the thread's context tree).
//! * [`raw::RawLock`] + [`raw::LockSite`] — explicit lock/unlock (the
//!   "pthreads flavour": the caller passes a pre-interned stack).
//! * [`avoidance::AvoidanceCore`] — the `request`/`acquired`/`release`
//!   decision engine and RAG cache, addressable with explicit thread ids so
//!   simulators can drive it. The hot state is per thread (an `Allowed`
//!   log that is also the thread's held-lock stack) or read-mostly (an
//!   epoch-published match view), so the common case takes no shared lock,
//!   hashes nothing and allocates nothing; see the module docs.
//! * [`lanes::EventLanes`] — per-thread SPSC event lanes, each one queue
//!   that grows by a block when its producer outruns the monitor, carrying
//!   hook events to the monitor.
//! * [`monitor::Monitor`] — cycle detection, signature archival, starvation
//!   breaking, false-positive probes, calibration, the steady-state
//!   match-view rebuild/publication, and (when [`Config::prediction`] is
//!   set) the proactive lock-order-graph deadlock predictor that
//!   synthesizes `predicted`-provenance vaccines before the first
//!   manifestation.
//! * [`reference::ReferenceCore`] — the preserved pre-refactor single-lock
//!   engine, used by the differential tests and the `hot_path` bench.
//! * [`context`] + [`frame!`] — the per-thread call-flow frames that give
//!   signatures their shape.

#![warn(missing_docs)]

pub mod avoidance;
pub mod config;
pub mod context;
pub mod event;
pub mod lanes;
pub mod monitor;
pub mod raw;
pub mod reference;
pub mod runtime;
pub mod stats;
pub mod sync;

pub use avoidance::{AvoidanceCore, Decision, OccupancySkew};
pub use config::{Config, Immunity, RuntimeMode};
pub use event::{Event, YieldInfo};
pub use lanes::EventLanes;
pub use monitor::{Hooks, Monitor};
pub use raw::{LockSite, RawLock};
pub use reference::ReferenceCore;
pub use runtime::{ParkOutcome, Runtime};
pub use stats::{rebuild_us_bin, Stats, StatsSnapshot, REBUILD_BINS, REBUILD_US_BINS};
pub use sync::{ImmunizedMutex, ImmunizedMutexGuard, ReentrantGuard, ReentrantLock};

// Re-export the identifier types and signature machinery that appear in our
// public API, so downstream crates need only depend on `dimmunix-core`.
pub use dimmunix_predict::{PredictionConfig, PredictorStats};
pub use dimmunix_rag::{LockId, ThreadId, YieldCause};
pub use dimmunix_signature::{
    CalibrationConfig, CycleKind, Frame, FrameId, FrameTable, History, HistoryError,
    HistoryRecovery, Provenance, SigId, Signature, StackId, StackTable,
};

/// Whether the deterministic fault-injection hooks (`fault-inject` feature)
/// were compiled into this build. Production builds must report `false`;
/// the `hot_path` bench's `--check-baseline` smoke asserts it, guaranteeing
/// the chaos machinery carries zero hot-path cost when disabled.
pub fn fault_injection_compiled() -> bool {
    cfg!(feature = "fault-inject")
}
