//! The repo's benchmark: what an immunized lock/unlock pair costs, end to
//! end and layer by layer.
//!
//! Everything is measured **from outside**, by timing calls into the public
//! functions of the other crates and differencing public `rt.stats()`
//! snapshots; nothing in the tree is instrumented for it. `BENCHMARK.json`
//! at the workspace root is the contract ([`spec`] generates it), and
//! `README.md` in this crate is the glossary.

#![warn(missing_docs)]

pub mod compare;
pub mod gen;
pub mod json;
pub mod measure;
pub mod probes;
pub mod report;
pub mod spec;
pub mod trace;
pub mod workloads;
