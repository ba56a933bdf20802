//! Benchmark harness regenerating every table and figure of the Dimmunix
//! paper's evaluation (§7).
//!
//! Binaries (`cargo run -p dimmunix-bench --release --bin <name>`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — real deadlock bugs avoided |
//! | `table2` | Table 2 — JDK invitations to deadlock |
//! | `fig4` | End-to-end overhead vs. history size (RUBiS/JDBCBench-like) |
//! | `fig5` | Lock throughput & yields/s vs. number of threads |
//! | `fig6` | Throughput vs. δin and δout |
//! | `fig7` | Throughput vs. history size and matching depth |
//! | `fig8` | Overhead breakdown (instrumentation / updates / avoidance) |
//! | `fig9` | False-positive overhead vs. matching depth + gate locks |
//! | `resource` | §7.4 resource utilization |
//!
//! Absolute numbers will differ from the paper's 8-core Xeon testbed; the
//! *shapes* are what the harness reproduces (see EXPERIMENTS.md).
//!
//! All binaries accept `--quick` (tiny run for smoke-testing) and
//! `--full` (paper-scale parameters); the default sits in between.
//!
//! The §7.3 comparison's baseline lives here too: [`gatelock`] —
//! Nir-Buchbinder, Tzoref & Ur, *"Deadlocks: from exhibiting to healing"*
//! (RV'08), reference \[17\] of the Dimmunix paper: once a deadlock is
//! observed between code blocks, wrap those blocks in a shared **gate
//! lock** that serializes *every* entry into any of them. No call-stack
//! context, no runtime lock-holder information — hence the
//! order-of-magnitude higher false-positive serialization the paper
//! measures (70% overhead vs. Dimmunix's 4.6%, 45 gates for 64
//! signatures).

#![warn(missing_docs)]

pub mod gatelock;
pub mod jdbcbench;
pub mod microbench;
pub mod report;
pub mod rubis;
pub mod siggen;
mod unionfind;

pub use gatelock::{GateGuard, GateLockTable};
pub use microbench::{run_micro, Engine, Flavor, MicroParams, MicroReport};
pub use siggen::synthesize_history;
pub use unionfind::UnionFind;
