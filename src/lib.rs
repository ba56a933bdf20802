//! # Dimmunix — deadlock immunity for Rust
//!
//! A from-scratch Rust implementation of *"Deadlock Immunity: Enabling
//! Systems To Defend Against Deadlocks"* (Jula, Tralamazza, Zamfir, Candea —
//! OSDI 2008), together with the substrates, workloads, baselines and
//! benchmark harness needed to reproduce the paper's evaluation.
//!
//! **Deadlock immunity** is a property by which programs, once afflicted by
//! a given deadlock, develop resistance against future occurrences of that
//! and similar deadlocks. The first time a deadlock pattern manifests, the
//! runtime captures its *signature* — the multiset of call stacks on the
//! cycle's hold and yield edges — into a persistent *history*; from then
//! on, the `request` hook run at every lock acquisition anticipates
//! signature instantiations and steers the schedule away with yields.
//!
//! ## Crates
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`](dimmunix_core) | avoidance engine, monitor, lock types, runtime |
//! | [`rag`](dimmunix_rag) | resource allocation graph + cycle detectors |
//! | [`signature`](dimmunix_signature) | signatures, history, calibration |
//! | [`predict`](dimmunix_predict) | proactive lock-order-graph deadlock prediction |
//! | [`lockfree`](dimmunix_lockfree) | SPSC rings, MPSC queue, seqlock buckets, wake lists |
//! | [`threadsim`](dimmunix_threadsim) | deterministic interleaving simulator |
//! | [`explore`](dimmunix_explore) | DPOR schedule-space explorer + deadlock corpus |
//! | `dimmunix-workloads` | the paper's Table 1 / Table 2 bug reproductions |
//! | `dimmunix-bench` | per-figure/table benchmark harness, gate-lock baseline (§7.3 comparison) |
//!
//! ## Quick start
//!
//! ```
//! use dimmunix::{frame, Config, Runtime};
//!
//! let rt = Runtime::new(Config::default()).unwrap();
//!
//! // Drop-in mutexes with immunity.
//! let inventory = rt.mutex(vec!["widget"]);
//!
//! fn restock(inv: &dimmunix::ImmunizedMutex<Vec<&'static str>>) {
//!     frame!("restock"); // Optional: name this call flow for signatures.
//!     inv.lock().push("gadget");
//! }
//! restock(&inventory);
//! assert_eq!(inventory.lock().len(), 2);
//!
//! // The immune memory persists across runs and can be shipped to other
//! // installations ("vaccines"): see Runtime::vaccinate.
//! assert!(rt.history().is_empty()); // No deadlock ever happened here.
//! ```

#![warn(missing_docs)]

pub use dimmunix_core::*;

/// Re-export of the deterministic thread simulator.
pub mod sim {
    pub use dimmunix_threadsim::*;
}

/// Re-export of the RAG internals (diagnostics, DOT export).
pub mod rag {
    pub use dimmunix_rag::*;
}

/// Re-export of the lock-free substrate.
pub mod lockfree {
    pub use dimmunix_lockfree::*;
}

/// Re-export of the signature/history machinery.
pub mod signature {
    pub use dimmunix_signature::*;
}

/// Re-export of the proactive deadlock-prediction subsystem.
pub mod predict {
    pub use dimmunix_predict::*;
}

/// Re-export of the exhaustive schedule-space explorer (DPOR model
/// checking, invariant harness, deadlock corpus).
pub mod explore {
    pub use dimmunix_explore::*;
}
