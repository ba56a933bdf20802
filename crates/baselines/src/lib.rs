//! Baseline deadlock-avoidance schemes from prior work, used by the §7.3
//! comparison (Figure 9).
//!
//! * [`gatelock`] — Nir-Buchbinder, Tzoref & Ur, *"Deadlocks: from
//!   exhibiting to healing"* (RV'08), reference \[17\] of the Dimmunix paper:
//!   once a deadlock is observed between code blocks, wrap those blocks in
//!   a shared **gate lock** that serializes *every* entry into any of them.
//!   No call-stack context, no runtime lock-holder information — hence the
//!   order-of-magnitude higher false-positive serialization the paper
//!   measures (70% overhead vs. Dimmunix's 4.6%, 45 gates for 64
//!   signatures).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gatelock;
mod unionfind;

pub use gatelock::{GateGuard, GateLockTable};
pub use unionfind::UnionFind;
