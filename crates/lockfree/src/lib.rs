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
//! The sharded request path is built from one piece: a
//! **seqlock-versioned bucket** ([`versioned::VersionedBucket`]) holding the
//! `Allowed` records the exact-cover search probes. Readers are optimistic
//! (copy, then re-validate the sequence word) and never block, and its
//! live-record count alone proves a bucket empty — the cover precheck's one
//! read.
//!
//! Six modules are kept only for benchmark probes, and nothing in the
//! runtime uses them: [`mpsc`], a Vyukov-style MPSC queue (the shape of the
//! paper's single event queue), [`spsc`], a bounded SPSC ring the event
//! lanes used to be chained from, [`occupancy`], a counting filter of
//! per-bucket fingerprints the cover precheck used to read, [`epoch`], the
//! epoch-published snapshot cell the match view used to be read through,
//! [`backoff`], the exponential spin backoff only that cell uses, and
//! [`wakelist`], the Treiber-style wake lists ([`WakeList`], its
//! [`WakeNodePool`] and [`DrainVerdict`]) yield registrations used to be
//! pushed into; a yield now registers in its cause's slot-mutex-guarded
//! log in `dimmunix_core`.
//!
//! The crate also provides [`pad::CachePadded`], which keeps hot atomics
//! on separate cache lines. Dense thread ids come from a mutex-guarded id
//! pool in `dimmunix_core`, the same mutex that orders an id's successive
//! tenants.
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
pub mod spsc;
pub mod versioned;
pub mod wakelist;

pub use backoff::Backoff;
pub use epoch::EpochCell;
pub use mpsc::MpscQueue;
pub use occupancy::OccupancyArray;
pub use pad::CachePadded;
pub use spsc::SpscRing;
pub use versioned::{BucketWriter, VersionedBucket};
pub use wakelist::{DrainVerdict, WakeList, WakeNodePool};
