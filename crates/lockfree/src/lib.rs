//! Lock-free substrate used by the Dimmunix runtime.
//!
//! The Dimmunix paper (OSDI'08, §5.6) requires lock-free machinery so that
//! the avoidance instrumentation never synchronizes through the very locks
//! it is supervising. Its two pieces are not reproduced as such: the
//! paper's single event queue is one mutex-guarded queue per thread in
//! `dimmunix_core` (whose only other user is the monitor's once-per-pass
//! swap), and its Peterson-style guard around the shared `Allowed` sets has
//! no counterpart — the production engine needs none and the reference
//! engine uses a plain mutex.
//!
//! The sharded request path is built from these pieces:
//!
//! * an **epoch-published snapshot cell** ([`epoch::EpochCell`]) that lets
//!   the `request` hook read the current match view with a single atomic
//!   load instead of a read-write lock;
//! * a **seqlock-versioned bucket** ([`versioned::VersionedBucket`])
//!   holding the `Allowed` records the exact-cover search probes: readers
//!   are optimistic (copy, then re-validate the sequence word) and never
//!   block, the returned sequence supports the engine's
//!   register-then-revalidate no-lost-wakeup protocol, and its live-record
//!   count alone proves a bucket empty — the cover precheck's one read;
//! * a **Treiber-style wake list** ([`wakelist::WakeList`]): yield
//!   registrations are one CAS, and a release's wakeup delivery is one
//!   swap-and-drain — no wake-shard mutex.
//!
//! Three modules are kept only for benchmark probes, and nothing in the
//! runtime uses them: [`mpsc`], a Vyukov-style MPSC queue (the shape of the
//! paper's single event queue), [`spsc`], a bounded SPSC ring the event
//! lanes used to be chained from, and [`occupancy`], a counting filter of
//! per-bucket fingerprints the cover precheck used to read.
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
