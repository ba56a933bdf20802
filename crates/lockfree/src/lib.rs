//! Lock-free substrate used by the Dimmunix runtime.
//!
//! The Dimmunix paper (OSDI'08, §5.6) requires lock-free machinery so that
//! the avoidance instrumentation never synchronizes through the very locks
//! it is supervising. Its **unbounded multi-producer / single-consumer event
//! queue**, connecting the per-thread avoidance code (producers) to the
//! asynchronous monitor thread (the single consumer), is implemented in
//! [`mpsc`] as a Vyukov-style linked queue; the reference engine models the
//! paper's single queue with it. The paper's other piece, a generalization
//! of Peterson's mutual-exclusion algorithm guarding the shared `Allowed`
//! sets, is not reproduced: the production engine has no such guard and the
//! reference engine uses a plain mutex.
//!
//! The sharded request path is built from these pieces:
//!
//! * a **bounded SPSC ring** ([`spsc::SpscRing`]), the block a
//!   per-registered-thread event lane is chained from, so hot threads never
//!   contend on one shared queue tail;
//! * an **epoch-published snapshot cell** ([`epoch::EpochCell`]) that lets
//!   the `request` hook read the current match view with a single atomic
//!   load instead of a read-write lock;
//! * a **counting occupancy filter** ([`occupancy::OccupancyArray`]) that
//!   publishes per-bucket occupancy fingerprints, so the request path can
//!   prove a signature cover impossible (some required bucket empty)
//!   without touching the bucket itself;
//! * a **seqlock-versioned bucket** ([`versioned::VersionedBucket`])
//!   holding the `Allowed` records the exact-cover search probes: readers
//!   are optimistic (copy, then re-validate the sequence word) and never
//!   block, and the returned sequence supports the engine's
//!   register-then-revalidate no-lost-wakeup protocol;
//! * a **Treiber-style wake list** ([`wakelist::WakeList`]): yield
//!   registrations are one CAS, and a release's wakeup delivery is one
//!   swap-and-drain — no wake-shard mutex.
//!
//! The crate also provides the small utilities those algorithms need: the
//! [`slots::SlotAllocator`] that hands out dense thread ids, exponential
//! [`backoff::Backoff`] for contended spin loops and [`pad::CachePadded`] to
//! keep hot atomics on separate cache lines.
//!
//! Everything here is `std`-only and dependency-free; `unsafe` is confined to
//! the queue internals and documented with `SAFETY` comments.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod epoch;
pub mod mpsc;
pub mod occupancy;
pub mod pad;
pub mod slots;
pub mod spsc;
pub mod versioned;
pub mod wakelist;

pub use backoff::Backoff;
pub use epoch::EpochCell;
pub use mpsc::MpscQueue;
pub use occupancy::OccupancyArray;
pub use pad::CachePadded;
pub use slots::SlotAllocator;
pub use spsc::SpscRing;
pub use versioned::{BucketWriter, VersionedBucket};
pub use wakelist::{DrainVerdict, WakeList, WakeNodePool};
