//! The invariant harness: the full verify pipeline for one scenario.
//!
//! 1. **Buggy pass** — explore the scenario over fresh empty-history
//!    runtimes (avoidance never fires), with the simulator's
//!    [`Lockstep`](dimmunix_threadsim::Lockstep) comparing the engine with
//!    [`ReferenceCore`](dimmunix_core::ReferenceCore) at every hook
//!    (decision, signature, and the wake sets of release, cancel and exit)
//!    and the park/wake accounting checking for lost wakeups on every
//!    completed schedule.
//! 2. **Vaccination** — replay the first mined deadlock strictly on a
//!    throwaway runtime so the monitor captures its signature, then save
//!    the history to a temp file ([`mine_vaccine`]).
//! 3. **Immune pass** — explore again, vaccinating each fresh runtime
//!    from that file. Every schedule must now complete: no deadlock, no
//!    starvation break, no yield abort, and the same lockstep /
//!    lost-wakeup invariants as the buggy pass.
//!
//! Any deviation lands in [`HarnessReport::violations`]; an empty list is
//! the "exhaustively verified" verdict for the scenario (modulo
//! [`Exploration::complete`] on each pass).

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dimmunix_core::{Config, Runtime};
use dimmunix_threadsim::{Outcome, ReplayScheduler};

use crate::dpor::{explore, Exploration, ExploreConfig};
use crate::scenario::Scenario;

/// Result of [`verify_scenario`].
#[derive(Clone, Debug)]
pub struct HarnessReport {
    /// The avoidance-off exploration.
    pub buggy: Exploration,
    /// The vaccinated exploration (`None` if the buggy pass found no
    /// deadlock to vaccinate against).
    pub immune: Option<Exploration>,
    /// Signatures loaded into each vaccinated runtime.
    pub vaccine_sigs: usize,
    /// Every invariant violation across both passes plus harness-level
    /// expectations (immune pass must complete everything).
    pub violations: Vec<String>,
}

impl HarnessReport {
    /// Whether the scenario passed: both passes ran without violations.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A process-unique temp path for a mined vaccine file.
fn tmp_vaccine_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dimmunix-explore-{}-{}-{}.vax",
        tag,
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Replays `schedule` strictly on a fresh runtime, requires it to
/// deadlock and capture at least one signature, and saves the resulting
/// history to `path`. Returns the number of signatures captured.
pub fn mine_vaccine(
    scenario: &Scenario,
    schedule: &[usize],
    max_steps: u64,
    path: &Path,
) -> Result<usize, String> {
    let rt = Runtime::new(Config::default()).map_err(|e| format!("runtime: {e}"))?;
    let mut sim = scenario.instantiate(&rt, Scenario::sim_config(max_steps), false);
    let mut sched = ReplayScheduler::strict(schedule.iter().copied());
    let report = sim.run_with(&mut sched);
    if sched.diverged() {
        return Err(format!(
            "{}: vaccine replay diverged at decision {:?}",
            scenario.name(),
            sched.first_divergence()
        ));
    }
    if !matches!(report.outcome, Outcome::Deadlock { .. }) {
        return Err(format!(
            "{}: vaccine replay did not deadlock ({:?})",
            scenario.name(),
            report.outcome
        ));
    }
    if report.signatures_added == 0 {
        return Err(format!(
            "{}: deadlock replay captured no signature",
            scenario.name()
        ));
    }
    drop(sim);
    rt.history()
        .save_to(path, rt.frame_table(), rt.stack_table())
        .map_err(|e| format!("saving vaccine: {e}"))?;
    Ok(report.signatures_added as usize)
}

/// Runs the full verify pipeline (see the module docs) for `scenario`.
pub fn verify_scenario(scenario: &Scenario, config: &ExploreConfig) -> HarnessReport {
    let buggy = explore(scenario, config, || {
        Runtime::new(Config::default()).expect("runtime")
    });
    let mut violations = buggy.violations.clone();
    let mut immune = None;
    let mut vaccine_sigs = 0;

    if let Some(first) = buggy.deadlocks.first() {
        let path = tmp_vaccine_path(scenario.name());
        match mine_vaccine(scenario, &first.schedule, config.max_steps, &path) {
            Ok(sigs) => {
                vaccine_sigs = sigs;
                let errs: RefCell<Vec<String>> = RefCell::new(Vec::new());
                let imm = explore(scenario, config, || {
                    let rt = Runtime::new(Config::default()).expect("runtime");
                    if let Err(e) = rt.vaccinate(&path) {
                        errs.borrow_mut().push(format!("vaccinate: {e}"));
                    }
                    rt
                });
                violations.extend(errs.into_inner());
                violations.extend(imm.violations.iter().cloned());
                if imm.deadlocked > 0 {
                    violations.push(format!(
                        "{}: vaccinated exploration still deadlocked {} times \
                         (first witness {:?})",
                        scenario.name(),
                        imm.deadlocked,
                        imm.deadlocks.first().map(|d| d.schedule.clone()),
                    ));
                }
                if imm.starvations > 0 {
                    violations.push(format!(
                        "{}: vaccinated exploration hit {} starvation breaks",
                        scenario.name(),
                        imm.starvations
                    ));
                }
                if imm.yield_aborts > 0 {
                    violations.push(format!(
                        "{}: vaccinated exploration hit {} yield aborts",
                        scenario.name(),
                        imm.yield_aborts
                    ));
                }
                immune = Some(imm);
            }
            Err(e) => violations.push(e),
        }
        let _ = std::fs::remove_file(&path);
    }

    HarnessReport {
        buggy,
        immune,
        vaccine_sigs,
        violations,
    }
}
