//! Deterministic thread simulator for reproducing deadlock interleavings.
//!
//! The paper validates Dimmunix by reproducing reported deadlocks with
//! timing-loop "exploits" — test cases that force exactly the interleaving
//! that deadlocks (§7.1.1). Rust cannot portably force OS-thread
//! interleavings, so this crate provides the equivalent: **virtual threads**
//! running lock/unlock/compute scripts under a seeded cooperative scheduler
//! that drives the real [`dimmunix_core::AvoidanceCore`] and steps the real
//! monitor deterministically (embedded mode).
//!
//! Because the avoidance engine is thread-agnostic, the simulator exercises
//! *the same code paths* as real threads: `request` decisions, `Allowed`
//! bookkeeping, yield causes and wakeups, starvation breaking, signature
//! capture and matching. Only the parking primitive differs (simulated
//! time instead of condvars).
//!
//! ```
//! use dimmunix_core::{Config, Runtime};
//! use dimmunix_threadsim::{Outcome, Script, Sim};
//!
//! let rt = Runtime::new(Config::default()).unwrap();
//! // The paper's §4 example: update(A,B) ∥ update(B,A).
//! let run = |rt: &Runtime, seed: u64| {
//!     let mut sim = Sim::new(rt, seed);
//!     let a = sim.lock_handle("A");
//!     let b = sim.lock_handle("B");
//!     sim.spawn("T1", Script::new().call("update").lock(a).lock(b).unlock(b).unlock(a));
//!     sim.spawn("T2", Script::new().call("update").lock(b).lock(a).unlock(a).unlock(b));
//!     sim.run()
//! };
//! // Hunt for a schedule that deadlocks (the paper's "exploit")...
//! let seed = (0..64)
//!     .find(|&s| matches!(run(&rt, s).outcome, Outcome::Deadlock { .. }))
//!     .expect("some schedule must deadlock");
//! // ...the program is now immune: the very same schedule completes.
//! assert!(matches!(run(&rt, seed).outcome, Outcome::Completed));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod explore;
pub mod lockstep;
pub mod sched;
pub mod script;
pub mod sim;

pub use explore::{explore, ExploreReport};
pub use lockstep::Lockstep;
pub use sched::{RandomScheduler, ReplayScheduler, SchedulePoint, Scheduler, StepClass};
pub use script::{Op, Script};
pub use sim::{LockHandle, Outcome, RunReport, Sim, SimConfig, WaitEdge};
