//! Self-contained simulation setups the explorer can instantiate over any
//! runtime, any number of times.
//!
//! Stateless model checking re-executes the same program once per
//! schedule; a [`Scenario`] captures everything a run needs — lock names
//! and per-thread scripts — decoupled from any particular
//! [`Runtime`](dimmunix_core::Runtime), so the driver can build a fresh
//! runtime (empty or vaccinated) for every schedule.

use dimmunix_core::Runtime;
use dimmunix_threadsim::{LockHandle, Script, Sim, SimConfig};

/// One virtual thread of a scenario: a name and its straight-line script.
#[derive(Clone, Debug)]
pub struct ThreadSpec {
    /// Thread name (shows up in wait-for edges and fixtures).
    pub name: &'static str,
    /// The script the thread executes.
    pub script: Script,
}

/// A bounded multi-threaded program: named locks plus named scripted
/// threads, instantiable as a [`Sim`] against any runtime.
#[derive(Clone, Debug)]
pub struct Scenario {
    name: String,
    locks: Vec<&'static str>,
    threads: Vec<ThreadSpec>,
}

impl Scenario {
    /// Creates an empty scenario.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            locks: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// Scenario name (used in fixtures and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a lock; the returned handle is valid for scripts of this
    /// scenario (handles are indices in declaration order).
    pub fn lock(&mut self, name: &'static str) -> LockHandle {
        self.locks.push(name);
        LockHandle(self.locks.len() - 1)
    }

    /// Declares a thread running `script`.
    pub fn thread(&mut self, name: &'static str, script: Script) {
        self.threads.push(ThreadSpec { name, script });
    }

    /// Declared lock names, in handle order.
    pub fn locks(&self) -> &[&'static str] {
        &self.locks
    }

    /// Declared threads, in spawn order.
    pub fn threads(&self) -> &[ThreadSpec] {
        &self.threads
    }

    /// Builds a [`Sim`] for this scenario against `rt`. Locks are created
    /// in declaration order (so [`LockHandle`]s in the scripts resolve to
    /// the right locks), then threads are spawned in declaration order.
    ///
    /// With `shadow` set, the sim's [`Lockstep`](dimmunix_threadsim::Lockstep)
    /// gets its [`ReferenceCore`](dimmunix_core::ReferenceCore) before
    /// spawning, so every hook is checked against it.
    pub fn instantiate(&self, rt: &Runtime, config: SimConfig, shadow: bool) -> Sim {
        let mut sim = Sim::with_config(rt, 0, config);
        if shadow {
            sim.attach_shadow();
        }
        for name in &self.locks {
            sim.lock_handle(name);
        }
        for t in &self.threads {
            sim.spawn(t.name, t.script.clone());
        }
        sim
    }

    /// The simulator config exploration requires for determinism: the
    /// monitor steps only at quiescence and yield timeouts are disabled,
    /// so a run's behaviour depends only on the decision sequence (see
    /// the crate docs' soundness argument).
    pub fn sim_config(max_steps: u64) -> SimConfig {
        SimConfig {
            max_steps,
            monitor_every: u64::MAX,
            max_yield_steps: None,
            stop_on_deadlock: true,
        }
    }
}

/// Canonical scenarios used by tests, the corpus and `explore_bench`.
pub mod scenarios {
    use super::*;

    /// The classic two-thread AB/BA inversion inside an `update` frame —
    /// the paper's running example. Exactly one deadlock pattern.
    pub fn ab_ba() -> Scenario {
        let mut s = Scenario::new("ab_ba");
        let a = s.lock("A");
        let b = s.lock("B");
        s.thread(
            "T1",
            Script::new().scoped("update", |s| s.lock(a).lock(b).unlock(b).unlock(a)),
        );
        s.thread(
            "T2",
            Script::new().scoped("update", |s| s.lock(b).lock(a).unlock(a).unlock(b)),
        );
        s
    }

    /// `n`-thread ring: thread `i` takes lock `i` then lock `(i+1) % n`.
    /// Deadlocks only when every thread holds its first lock.
    pub fn ring(n: usize) -> Scenario {
        const NAMES: [&str; 6] = ["L0", "L1", "L2", "L3", "L4", "L5"];
        const TNAMES: [&str; 6] = ["R0", "R1", "R2", "R3", "R4", "R5"];
        assert!((2..=NAMES.len()).contains(&n), "ring size out of range");
        let mut s = Scenario::new(format!("ring{n}"));
        let locks: Vec<LockHandle> = NAMES[..n].iter().map(|l| s.lock(l)).collect();
        for i in 0..n {
            let first = locks[i];
            let second = locks[(i + 1) % n];
            s.thread(
                TNAMES[i],
                Script::new().scoped("step", |s| {
                    s.lock(first).lock(second).unlock(second).unlock(first)
                }),
            );
        }
        s
    }

    /// AB/BA buried under distinct call chains on each side, so the two
    /// mined signatures have deeper, asymmetric stacks.
    pub fn stacked_abba() -> Scenario {
        let mut s = Scenario::new("stacked_abba");
        let a = s.lock("cache");
        let b = s.lock("journal");
        s.thread(
            "writer",
            Script::new().scoped("commit", |s| {
                s.scoped("flush", |s| {
                    s.lock_at(a, "pin").compute(1).lock_at(b, "append")
                })
                .unlock(b)
                .unlock(a)
            }),
        );
        s.thread(
            "reaper",
            Script::new().scoped("gc", |s| {
                s.scoped("trim", |s| {
                    s.lock_at(b, "scan").compute(1).lock_at(a, "evict")
                })
                .unlock(a)
                .unlock(b)
            }),
        );
        s
    }

    /// Minimal AB/BA with no call frames or compute — the smallest
    /// deadlock-capable schedule space, cheap enough for naive full
    /// enumeration (differential tests).
    pub fn ab_minimal() -> Scenario {
        let mut s = Scenario::new("ab_minimal");
        let a = s.lock("A");
        let b = s.lock("B");
        s.thread("T1", Script::new().lock(a).lock(b).unlock(b).unlock(a));
        s.thread("T2", Script::new().lock(b).lock(a).unlock(a).unlock(b));
        s
    }

    /// AB/BA attempted with `try_lock` on the inner acquisition: never
    /// deadlocks (the try fails instead of blocking), exercising the
    /// cancel path under exploration.
    pub fn trylock_mix() -> Scenario {
        let mut s = Scenario::new("trylock_mix");
        let a = s.lock("A");
        let b = s.lock("B");
        s.thread(
            "T1",
            Script::new()
                .lock(a)
                .try_lock(b)
                .unlock_if_held(b)
                .unlock(a),
        );
        s.thread(
            "T2",
            Script::new()
                .lock(b)
                .try_lock(a)
                .unlock_if_held(a)
                .unlock(b),
        );
        s
    }

    /// AB/BA where T1 takes and releases `B` in a round before the
    /// inversion: deadlock witnesses come in several lengths (T1 can
    /// block on its first or second `B` acquisition), which is what the
    /// trace minimizer exists to collapse.
    pub fn b_round_detour() -> Scenario {
        let mut s = Scenario::new("b_round_detour");
        let a = s.lock("A");
        let b = s.lock("B");
        s.thread(
            "T1",
            Script::new()
                .lock(a)
                .repeat(2, Script::new().lock(b).unlock(b))
                .unlock(a),
        );
        s.thread("T2", Script::new().lock(b).lock(a).unlock(a).unlock(b));
        s
    }

    /// Two threads taking the same two locks in the *same* order: plenty
    /// of contention, no deadlock under any schedule.
    pub fn same_order() -> Scenario {
        let mut s = Scenario::new("same_order");
        let a = s.lock("A");
        let b = s.lock("B");
        s.thread("T1", Script::new().lock(a).lock(b).unlock(b).unlock(a));
        s.thread("T2", Script::new().lock(a).lock(b).unlock(b).unlock(a));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmunix_core::Config;
    use dimmunix_threadsim::Outcome;

    #[test]
    fn instantiate_runs_to_completion_single_thread() {
        let mut s = Scenario::new("solo");
        let a = s.lock("A");
        s.thread("T", Script::new().lock(a).compute(2).unlock(a));
        let rt = Runtime::new(Config::default()).unwrap();
        let mut sim = s.instantiate(&rt, Scenario::sim_config(10_000), true);
        let report = sim.run();
        assert_eq!(report.outcome, Outcome::Completed);
        assert!(sim.shadow_divergences().is_empty());
    }

    #[test]
    fn canonical_scenarios_are_well_formed() {
        for s in [
            scenarios::ab_ba(),
            scenarios::ring(3),
            scenarios::stacked_abba(),
            scenarios::ab_minimal(),
            scenarios::trylock_mix(),
            scenarios::same_order(),
        ] {
            assert!(!s.locks().is_empty(), "{}", s.name());
            assert!(s.threads().len() >= 2, "{}", s.name());
        }
    }
}
