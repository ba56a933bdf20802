//! The DPOR driver: a depth-first walk of the schedule tree with sleep
//! sets, invisible-transition (local-singleton) persistent sets and an
//! optional preemption bound.
//!
//! Each iteration re-executes the scenario from a fresh runtime, replaying
//! the recorded decision prefix and extending it with fresh nodes; after
//! the run, backtracking picks the deepest node with an unexplored,
//! non-sleeping sibling. The independence relation and its soundness
//! argument live in the crate docs ([`crate`]).

use std::collections::{BTreeMap, BTreeSet};

use dimmunix_core::Runtime;
use dimmunix_threadsim::{Outcome, SchedulePoint, Scheduler, StepClass, WaitEdge};

use crate::corpus::edges_fingerprint;
use crate::scenario::Scenario;

/// How aggressively to prune the schedule tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pruning {
    /// Sleep sets + local singletons (the default).
    Dpor,
    /// Branch over every eligible thread at every node — the full tree.
    /// Only tractable for tiny scripts; used by differential tests and
    /// the reduction-factor benchmark.
    Naive,
}

/// Which visible-step pairs commute (see the crate-level soundness
/// argument).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DependenceMode {
    /// Avoidance off (empty history): visible steps on different locks
    /// are independent.
    PerLock,
    /// Avoidance live: all visible steps are pairwise dependent.
    Global,
}

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Hard cap on schedules attempted (explored + pruned); exceeding it
    /// clears [`Exploration::complete`].
    pub max_schedules: usize,
    /// Per-run step budget; a run that exhausts it counts as
    /// `exhausted` and clears [`Exploration::complete`].
    pub max_steps: u64,
    /// Tree pruning strategy.
    pub pruning: Pruning,
    /// Dependence relation; `None` selects per run from the runtime's
    /// history ([`DependenceMode::PerLock`] iff empty).
    pub dependence: Option<DependenceMode>,
    /// If set, bounds the number of preemptions (a *visible* step of a
    /// non-incumbent running while the incumbent is still eligible) per
    /// schedule. An escape hatch for spaces too big to exhaust; clears
    /// [`Exploration::complete`] whenever it actually excludes a
    /// candidate. Best combined with [`Pruning::Naive`]: sleep sets
    /// assume the sibling subtrees they prune against are fully
    /// explored, so under [`Pruning::Dpor`] a bitten bound can hide
    /// additional traces beyond the ones it excludes directly.
    pub preemption_bound: Option<u32>,
    /// Run every schedule through a [`Lockstep`](dimmunix_threadsim::Lockstep)
    /// that compares the engine with
    /// [`ReferenceCore`](dimmunix_core::ReferenceCore) at every hook.
    pub shadow: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            max_schedules: 100_000,
            max_steps: 20_000,
            pruning: Pruning::Dpor,
            dependence: None,
            preemption_bound: None,
            shadow: true,
        }
    }
}

/// A schedule that ended in deadlock, with its wait-for cycle.
#[derive(Clone, Debug)]
pub struct DeadlockSchedule {
    /// The decision sequence (thread index per decision point) that
    /// reproduces the deadlock from a fresh runtime.
    pub schedule: Vec<usize>,
    /// The wait-for edges of the final stuck state.
    pub edges: Vec<WaitEdge>,
    /// Canonical fingerprint of `edges` (dedup key).
    pub fingerprint: String,
}

/// Aggregate result of an exploration.
#[derive(Clone, Debug, Default)]
pub struct Exploration {
    /// Schedules executed to a terminal outcome (excludes pruned).
    pub runs: usize,
    /// Schedules abandoned as sleep-set-redundant or bound-excluded.
    pub pruned: usize,
    /// Runs that completed.
    pub completed: usize,
    /// Runs that deadlocked.
    pub deadlocked: usize,
    /// Runs that exhausted the step budget (inconclusive).
    pub exhausted: usize,
    /// Whether the walk provably covered the whole schedule space: it
    /// terminated by emptying the tree, with no step-budget exhaustion,
    /// no preemption-bound exclusion and no schedule-cap hit.
    pub complete: bool,
    /// Distinct deadlocks found (deduped by wait-for fingerprint), each
    /// with one witness schedule.
    pub deadlocks: Vec<DeadlockSchedule>,
    /// Outcome fingerprint → number of runs ending in it.
    pub outcomes: BTreeMap<String, usize>,
    /// Invariant violations: lockstep divergences, lost wakeups,
    /// park/wake imbalances, replay nondeterminism.
    pub violations: Vec<String>,
    /// Total scheduling decisions executed across all runs (explored
    /// "states", the benchmark's work measure).
    pub decisions: u64,
    /// Deepest schedule recorded.
    pub max_depth: usize,
    /// Times the preemption bound forced or excluded a choice.
    pub bound_hits: usize,
    /// Total starvation breaks across all runs (the monitor aborting
    /// avoidance); must stay zero for immune exploration.
    pub starvations: u64,
    /// Total yield-timeout aborts across all runs (always zero under the
    /// exploration config, which disables the timeout).
    pub yield_aborts: u64,
}

impl Exploration {
    /// The distinct terminal outcomes seen (fingerprints).
    pub fn distinct_outcomes(&self) -> BTreeSet<String> {
        self.outcomes.keys().cloned().collect()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} runs ({} pruned, {} decisions): {} completed, {} deadlocked ({} distinct)",
            self.runs,
            self.pruned,
            self.decisions,
            self.completed,
            self.deadlocked,
            self.deadlocks.len(),
        );
        if self.exhausted > 0 {
            s.push_str(&format!(", {} exhausted (inconclusive)", self.exhausted));
        }
        s.push_str(if self.complete {
            "; space exhausted"
        } else {
            "; space NOT exhausted"
        });
        if !self.violations.is_empty() {
            s.push_str(&format!("; {} VIOLATIONS", self.violations.len()));
        }
        s
    }
}

/// Canonical fingerprint of a run outcome: `"completed"`, `"exhausted"`,
/// or `"deadlock[...]"` over the sorted wait-for edges.
pub fn outcome_fingerprint(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Completed => "completed".to_string(),
        Outcome::MaxSteps => "exhausted".to_string(),
        Outcome::Deadlock { edges, .. } => format!("deadlock[{}]", edges_fingerprint(edges)),
    }
}

/// One decision point on the DFS stack.
struct Node {
    /// Eligible thread indices, ascending (recorded for replay checks).
    eligible: Vec<usize>,
    /// Step classes parallel to `eligible`.
    classes: Vec<StepClass>,
    /// The child currently being explored.
    chosen: usize,
    /// Children already explored (includes `chosen`).
    done: BTreeSet<usize>,
    /// Sleep set on entry to this node.
    sleep0: BTreeSet<usize>,
    /// No alternatives will ever be explored here (local singleton, or a
    /// bound-forced incumbent).
    singleton: bool,
    /// The thread that took the previous step, if still eligible here
    /// (switching away from it is a preemption).
    incumbent: Option<usize>,
    /// Preemptions consumed on the path into this node.
    preemptions_entering: u32,
}

impl Node {
    fn class_of(&self, v: usize) -> StepClass {
        let i = self
            .eligible
            .iter()
            .position(|&e| e == v)
            .expect("class_of: thread not eligible at node");
        self.classes[i]
    }
}

fn indep(a: StepClass, b: StepClass, mode: DependenceMode) -> bool {
    match (a, b) {
        (StepClass::Local, _) | (_, StepClass::Local) => true,
        (StepClass::Visible(x), StepClass::Visible(y)) => match mode {
            DependenceMode::PerLock => x != y,
            DependenceMode::Global => false,
        },
    }
}

/// A preemption charges the bound only when a *visible* step of a
/// non-incumbent runs while the incumbent is still eligible: `Local`
/// steps commute with everything, so scheduling one early (which the
/// singleton reduction forces) costs nothing.
fn is_preemption(
    incumbent: Option<usize>,
    eligible: &[usize],
    chosen: usize,
    chosen_class: StepClass,
) -> bool {
    matches!(chosen_class, StepClass::Visible(_))
        && matches!(incumbent, Some(inc) if inc != chosen && eligible.contains(&inc))
}

/// The [`Scheduler`] that drives one run: replays `nodes[..replay_len]`,
/// then extends the stack with fresh nodes.
struct Driver<'a> {
    nodes: &'a mut Vec<Node>,
    replay_len: usize,
    depth: usize,
    /// Sleep set for the *next* node (updated as each step executes).
    sleep: BTreeSet<usize>,
    mode: DependenceMode,
    naive: bool,
    bound: Option<u32>,
    last_thread: Option<usize>,
    preemptions: u32,
    /// Depth at which the run became sleep-redundant (run discarded).
    pruned_at: Option<usize>,
    bound_hit: bool,
    error: Option<String>,
}

impl Driver<'_> {
    /// Sleep set for the subtree below `node` after executing `chosen`:
    /// earlier-explored siblings join, everything dependent on the
    /// executed step wakes, and the executed thread itself is awake.
    fn child_sleep(&self, node: &Node, chosen: usize) -> BTreeSet<usize> {
        let cls = node.class_of(chosen);
        let mut s: BTreeSet<usize> = node.sleep0.clone();
        s.extend(node.done.iter().copied().filter(|&t| t != chosen));
        s.retain(|&t| node.eligible.contains(&t) && indep(node.class_of(t), cls, self.mode));
        s.remove(&chosen);
        s
    }

    /// Charges the bound and advances incumbency. Only visible steps
    /// participate: the singleton reduction normalizes traces so local
    /// steps run as soon as they appear, so a switch that merely runs
    /// local bookkeeping neither costs a preemption nor claims the CPU.
    fn note_step(&mut self, node: &Node, chosen: usize) {
        if matches!(node.class_of(chosen), StepClass::Visible(_)) {
            if is_preemption(
                node.incumbent,
                &node.eligible,
                chosen,
                node.class_of(chosen),
            ) {
                self.preemptions += 1;
            }
            self.last_thread = Some(chosen);
        }
    }
}

impl Scheduler for Driver<'_> {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> usize {
        let d = self.depth;
        self.depth += 1;

        if self.error.is_some() {
            return point.eligible[0];
        }
        if d < self.replay_len {
            // Replay a recorded decision, verifying determinism.
            if self.nodes[d].eligible != point.eligible {
                if self.error.is_none() {
                    self.error = Some(format!(
                        "nondeterministic replay at decision {d}: recorded eligible {:?}, got {:?}",
                        self.nodes[d].eligible, point.eligible
                    ));
                }
                return point.eligible[0];
            }
            let chosen = self.nodes[d].chosen;
            self.sleep = self.child_sleep(&self.nodes[d], chosen);
            self.preemptions = self.nodes[d].preemptions_entering;
            if matches!(self.nodes[d].class_of(chosen), StepClass::Visible(_)) {
                if is_preemption(
                    self.nodes[d].incumbent,
                    &self.nodes[d].eligible,
                    chosen,
                    self.nodes[d].class_of(chosen),
                ) {
                    self.preemptions += 1;
                }
                self.last_thread = Some(chosen);
            }
            return chosen;
        }
        if self.pruned_at.is_some() {
            // Redundant run: finish cheaply, record nothing.
            return point.eligible[0];
        }

        // Fresh node.
        let eligible = point.eligible.to_vec();
        let classes = point.classes.to_vec();
        let avail: Vec<usize> = if self.naive {
            eligible.clone()
        } else {
            eligible
                .iter()
                .copied()
                .filter(|t| !self.sleep.contains(t))
                .collect()
        };
        if avail.is_empty() {
            // Every eligible thread sleeps: this run only revisits
            // already-explored traces.
            self.pruned_at = Some(d);
            return point.eligible[0];
        }

        let mut chosen = avail[0];
        let mut singleton = false;
        if !self.naive {
            // Invisible transition: run it now, never branch here.
            if let Some(&t) = avail
                .iter()
                .find(|&&t| point.class_of(t) == Some(StepClass::Local))
            {
                chosen = t;
                singleton = true;
            }
        }
        let incumbent = self.last_thread.filter(|inc| eligible.contains(inc));
        if let (Some(bound), Some(inc)) = (self.bound, incumbent) {
            if chosen != inc
                && matches!(point.class_of(chosen), Some(StepClass::Visible(_)))
                && self.preemptions >= bound
            {
                self.bound_hit = true;
                if avail.contains(&inc) {
                    // Out of preemptions: forced to keep running the
                    // incumbent; alternatives here are never explored.
                    chosen = inc;
                    singleton = true;
                } else {
                    self.pruned_at = Some(d);
                    return point.eligible[0];
                }
            }
        }

        let node = Node {
            eligible,
            classes,
            chosen,
            done: BTreeSet::from([chosen]),
            sleep0: std::mem::take(&mut self.sleep),
            singleton,
            incumbent,
            preemptions_entering: self.preemptions,
        };
        self.sleep = self.child_sleep(&node, chosen);
        self.note_step(&node, chosen);
        self.nodes.push(node);
        chosen
    }
}

/// Advances the DFS stack to the next unexplored schedule; returns `false`
/// when the tree is exhausted. `bound_hits` counts candidates the
/// preemption bound excluded (each clears completeness).
fn backtrack(
    nodes: &mut Vec<Node>,
    naive: bool,
    bound: Option<u32>,
    bound_hits: &mut usize,
) -> bool {
    loop {
        let Some(top) = nodes.last_mut() else {
            return false;
        };
        if top.singleton {
            nodes.pop();
            continue;
        }
        let mut excluded = 0usize;
        let next = top.eligible.iter().copied().find(|t| {
            if top.done.contains(t) || (!naive && top.sleep0.contains(t)) {
                return false;
            }
            if let (Some(b), Some(inc)) = (bound, top.incumbent) {
                if *t != inc
                    && matches!(top.class_of(*t), StepClass::Visible(_))
                    && top.preemptions_entering >= b
                {
                    excluded += 1;
                    return false;
                }
            }
            true
        });
        *bound_hits += excluded;
        match next {
            Some(c) => {
                top.done.insert(c);
                top.chosen = c;
                return true;
            }
            None => {
                nodes.pop();
            }
        }
    }
}

/// Exhaustively explores the schedule space of `scenario`, building a
/// fresh runtime per schedule via `make_runtime` (so runs are independent
/// and the avoidance history is whatever the factory installs — empty for
/// buggy-baseline exploration, vaccinated for immune exploration).
pub fn explore(
    scenario: &Scenario,
    config: &ExploreConfig,
    mut make_runtime: impl FnMut() -> Runtime,
) -> Exploration {
    let mut nodes: Vec<Node> = Vec::new();
    let mut out = Exploration::default();
    let naive = config.pruning == Pruning::Naive;
    let mut capped = false;

    loop {
        if out.runs + out.pruned >= config.max_schedules {
            capped = true;
            break;
        }
        let rt = make_runtime();
        let mode = config.dependence.unwrap_or(if rt.history().is_empty() {
            DependenceMode::PerLock
        } else {
            DependenceMode::Global
        });
        let mut sim =
            scenario.instantiate(&rt, Scenario::sim_config(config.max_steps), config.shadow);
        let replay_len = nodes.len();
        let (report, pruned_at, bound_hit, error) = {
            let mut driver = Driver {
                nodes: &mut nodes,
                replay_len,
                depth: 0,
                sleep: BTreeSet::new(),
                mode,
                naive,
                bound: config.preemption_bound,
                last_thread: None,
                preemptions: 0,
                pruned_at: None,
                bound_hit: false,
                error: None,
            };
            let report = sim.run_with(&mut driver);
            (report, driver.pruned_at, driver.bound_hit, driver.error)
        };

        out.decisions += report.decisions;
        out.max_depth = out.max_depth.max(nodes.len());
        out.bound_hits += bound_hit as usize;
        out.starvations += report.starvations_detected;
        out.yield_aborts += report.yield_aborts;
        if let Some(e) = error {
            out.violations.push(e);
        } else if pruned_at.is_some() {
            out.pruned += 1;
        } else {
            out.runs += 1;
            let schedule: Vec<usize> = nodes.iter().map(|n| n.chosen).collect();
            let fp = outcome_fingerprint(&report.outcome);
            *out.outcomes.entry(fp.clone()).or_default() += 1;
            match &report.outcome {
                Outcome::Completed => {
                    out.completed += 1;
                    let parked = sim.parked_yielders();
                    if !parked.is_empty() {
                        out.violations.push(format!(
                            "lost wakeup: completed schedule {schedule:?} left parked yielders {parked:?}"
                        ));
                    }
                    if report.parks != report.wakes + report.yield_aborts {
                        out.violations.push(format!(
                            "park/wake imbalance on completed schedule {schedule:?}: \
                             parks={} wakes={} yield_aborts={}",
                            report.parks, report.wakes, report.yield_aborts
                        ));
                    }
                }
                Outcome::Deadlock { edges, .. } => {
                    out.deadlocked += 1;
                    if !out.deadlocks.iter().any(|d| d.fingerprint == fp) {
                        out.deadlocks.push(DeadlockSchedule {
                            schedule,
                            edges: edges.clone(),
                            fingerprint: fp,
                        });
                    }
                }
                Outcome::MaxSteps => out.exhausted += 1,
            }
            let div = sim.shadow_divergences();
            if !div.is_empty() {
                let schedule: Vec<usize> = nodes.iter().map(|n| n.chosen).collect();
                out.violations.push(format!(
                    "lockstep divergence on schedule {schedule:?}: {}",
                    div.join("; ")
                ));
            }
        }
        drop(sim);
        drop(rt);

        if !backtrack(
            &mut nodes,
            naive,
            config.preemption_bound,
            &mut out.bound_hits,
        ) {
            break;
        }
    }

    out.complete =
        !capped && out.exhausted == 0 && out.bound_hits == 0 && out.violations.is_empty();
    out
}
